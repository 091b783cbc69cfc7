"""Layer kernels against plain reference formulas.

Each layer runs as a stack of G=3 branches with M=1 or M=5 samples; M=1 is
the shape of a one-window forward, where numpy's matmul takes its gemv path.
The references are the textbook expressions written out here: einsum
contractions, scipy's expit for the sigmoid and a per-sequence LSTM with
backpropagation through time.
"""

import numpy as np
import pytest
from scipy.special import expit

from eegfusion.layers import LSTM, AttentionPool, ContractLast, ContractRow, ParamRegistry

G = 3
RTOL = 1e-12


def stacked(layer, seed, g=G):
    """Random weights for a g-branch stack of one layer, plus a zero gradient."""
    reg = ParamRegistry()
    reg.add_stage(g, [layer])
    theta = np.random.default_rng(seed).uniform(-0.7, 0.7, reg.size)
    return theta, np.zeros_like(theta)


def run(layer, theta, grad, x, gy):
    """Forward with a cache, then backward; returns output and input gradient."""
    cache = {}
    y = layer.forward(theta, x, cache)
    assert np.array_equal(layer.forward(theta, x), y)  # no cache, same output
    return y, layer.backward(theta, grad, cache, gy)


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0)


@pytest.mark.parametrize("m", [1, 5])
def test_attention_pool_matches_einsum_reference(m):
    t_len, h = 6, 4
    layer = AttentionPool(h)
    theta, grad = stacked(layer, seed=m)
    rng = np.random.default_rng(10 + m)
    x = rng.standard_normal((G, m, t_len, h))
    gy = rng.standard_normal((G, m, h))
    y, gx = run(layer, theta, grad, x, gy)

    w, b, v = layer.W.view(theta), layer.b.view(theta), layer.v.view(theta)
    u = np.tanh(np.einsum("gmth,ghk->gmtk", x, w) + b[:, None, None, :])
    e = np.einsum("gmth,gh->gmt", u, v)
    ew = np.exp(e - e.max(axis=2, keepdims=True))
    alpha = ew / ew.sum(axis=2, keepdims=True)
    close(y, np.einsum("gmt,gmth->gmh", alpha, x))

    g_alpha = np.einsum("gmh,gmth->gmt", gy, x)
    ge = alpha * (g_alpha - np.sum(g_alpha * alpha, axis=2, keepdims=True))
    ga = np.einsum("gmt,gh->gmth", ge, v) * (1.0 - u * u)
    close(layer.W.view(grad), np.einsum("gmth,gmtk->ghk", x, ga))
    close(layer.b.view(grad), ga.sum(axis=(1, 2)))
    close(layer.v.view(grad), np.einsum("gmth,gmt->gh", u, ge))
    close(gx, alpha[..., None] * gy[:, :, None, :] + np.einsum("gmtk,ghk->gmth", ga, w))


@pytest.mark.parametrize("m", [1, 5])
def test_contract_row_matches_einsum_reference(m):
    t_len, r, k = 4, 5, 3
    layer = ContractRow(r)
    theta, grad = stacked(layer, seed=m)
    rng = np.random.default_rng(20 + m)
    x = rng.standard_normal((G, m, t_len, r, k))
    gy = rng.standard_normal((G, m, t_len, k))
    y, gx = run(layer, theta, grad, x, gy)

    w, b = layer.W.view(theta)[..., 0], layer.b.view(theta)
    s = np.einsum("g...rk,gr->g...k", x, w) + b[:, :, None, None]
    close(y, np.maximum(s, 0.0))
    gs = gy * (s > 0)
    close(layer.W.view(grad)[..., 0], np.einsum("gmtk,gmtrk->gr", gs, x))
    close(layer.b.view(grad), gs.sum(axis=(1, 2, 3))[:, None])
    assert np.array_equal(gx, np.einsum("g...k,gr->g...rk", gs, w))  # one product each


@pytest.mark.parametrize("shape", [(4, 5, 2), (4, 3, 3, 2)])
@pytest.mark.parametrize("m", [1, 5])
def test_contract_last_matches_einsum_reference(m, shape):
    k = shape[-1]
    layer = ContractLast(k)
    theta, grad = stacked(layer, seed=m)
    rng = np.random.default_rng(30 + m)
    x = rng.standard_normal((G, m) + shape)
    gy = rng.standard_normal((G, m) + shape[:-1])
    y, gx = run(layer, theta, grad, x, gy)

    w, b = layer.W.view(theta)[..., 0], layer.b.view(theta)
    s = np.einsum("g...k,gk->g...", x, w) + b.reshape((G,) + (1,) * (gy.ndim - 1))
    close(y, np.maximum(s, 0.0))
    gs = gy * (s > 0)
    close(layer.W.view(grad)[..., 0], np.einsum("gn,gnk->gk", gs.reshape(G, -1), x.reshape(G, -1, k)))
    close(layer.b.view(grad), gs.reshape(G, -1).sum(axis=1, keepdims=True))
    assert np.array_equal(gx, np.einsum("g...,gk->g...k", gs, w))


def ref_lstm_layer(x, wx, wh, b):
    """One LSTM layer over one sequence x (T, D); outputs and per-step values."""
    h_dim = wh.shape[0]
    h, c = np.zeros(h_dim), np.zeros(h_dim)
    outs, steps = [], []
    for xt in x:
        z = xt @ wx + h @ wh + b
        i, f = expit(z[:h_dim]), expit(z[h_dim : 2 * h_dim])
        gc, o = np.tanh(z[2 * h_dim : 3 * h_dim]), expit(z[3 * h_dim :])
        c_new = f * c + i * gc
        tc = np.tanh(c_new)
        steps.append((i, f, gc, o, c, tc, h))
        h, c = o * tc, c_new
        outs.append(h)
    return np.array(outs), steps


def ref_lstm_layer_backward(x, wx, wh, steps, gy):
    """Backpropagation through time for one sequence; (gx, g_wx, g_wh, g_b)."""
    h_dim = wh.shape[0]
    gx = np.zeros_like(x)
    g_wx, g_wh, g_b = np.zeros_like(wx), np.zeros_like(wh), np.zeros(4 * h_dim)
    dh_next, dc_next = np.zeros(h_dim), np.zeros(h_dim)
    for t in reversed(range(x.shape[0])):
        i, f, gc, o, c_prev, tc, h_prev = steps[t]
        dh = gy[t] + dh_next
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = np.concatenate(
            [
                dc * gc * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - gc * gc),
                dh * tc * o * (1.0 - o),
            ]
        )
        dc_next = dc * f
        g_wx += np.outer(x[t], dz)
        g_wh += np.outer(h_prev, dz)
        g_b += dz
        gx[t] = wx @ dz
        dh_next = wh @ dz
    return gx, g_wx, g_wh, g_b


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("m", [1, 5])
def test_lstm_matches_per_sequence_reference(m, n_layers):
    t_len, d, h_dim = 5, 3, 4
    layer = LSTM(d, h_dim, n_layers)
    theta, grad = stacked(layer, seed=m + n_layers)
    rng = np.random.default_rng(40 + m)
    x = rng.standard_normal((G, m, t_len, d))
    gy = rng.standard_normal((G, m, t_len, h_dim))
    y, gx = run(layer, theta, grad, x, gy)

    weights = [tuple(p.view(theta) for p in trio) for trio in layer.layer_params]
    for gi in range(G):
        ref_grads = [[0.0, 0.0, 0.0] for _ in weights]
        for mi in range(m):
            seqs, traces = [x[gi, mi]], []
            for wx, wh, b in weights:
                out, steps = ref_lstm_layer(seqs[-1], wx[gi], wh[gi], b[gi])
                seqs.append(out)
                traces.append(steps)
            close(y[gi, mi], seqs[-1])
            g = gy[gi, mi]
            for li in reversed(range(len(weights))):
                wx, wh, _ = weights[li]
                g, *dw = ref_lstm_layer_backward(seqs[li], wx[gi], wh[gi], traces[li], g)
                ref_grads[li] = [acc + d for acc, d in zip(ref_grads[li], dw)]
            close(gx[gi, mi], g)
        for trio, ref in zip(layer.layer_params, ref_grads):
            for p, expected in zip(trio, ref):
                close(p.view(grad)[gi], expected)


@pytest.mark.parametrize("m", [1, 5])
def test_lstm_gate_sigmoid_is_expit(m):
    d, h_dim = 3, 4
    layer = LSTM(d, h_dim, n_layers=2)
    theta, _ = stacked(layer, seed=7)
    x = 10.0 * np.random.default_rng(50 + m).standard_normal((G, m, 6, d))
    cache = {}
    layer.forward(theta, x, cache)
    n_checked = 0
    for (wx_p, wh_p, b_p), lc in zip(layer.layer_params, cache["layers"]):
        wx, wh, b = wx_p.view(theta), wh_p.view(theta), b_p.view(theta)[:, None]
        h = np.zeros(lc["out"].shape[:2] + (h_dim,))
        for t, (gates, _, _, _) in enumerate(lc["steps"]):
            z = lc["x"][:, :, t] @ wx + h @ wh + b
            sig = np.concatenate([gates[..., : 2 * h_dim], gates[..., 3 * h_dim :]], axis=-1)
            ref = expit(np.concatenate([z[..., : 2 * h_dim], z[..., 3 * h_dim :]], axis=-1))
            np.testing.assert_allclose(sig, ref, rtol=1e-15, atol=0)
            h = lc["out"][:, :, t]
            n_checked += ref.size
    assert n_checked == 2 * 6 * G * m * 3 * h_dim


# -- byte-for-byte against the plain step formulas ------------------------------
#
# The layers compute the LSTM gates from negated weight columns, skip the
# zero-state terms of the first step and run the attention products over all
# M * T positions of a branch at once. The functions below are the direct
# per-step and per-sample expressions those replace; every output and
# gradient byte must equal theirs, at the branch counts of schemes 3-4 (1),
# 2 (7) and 1 (35) and the sample counts of a one-window forward (1), a
# small batch (4) and a training batch (16).


def plain_lstm(layer, theta, grad, x, gy):
    """Sigmoid as 1 / (1 + exp(-z)) of the full z; zero-state terms kept."""
    h_dim, seq, layer_caches = layer.hidden, x, []
    for wx_p, wh_p, b_p in layer.layer_params:
        wx, wh, b = wx_p.view(theta), wh_p.view(theta), b_p.view(theta)[:, None]
        g, m, t_len, _ = seq.shape
        out = np.empty((g, m, t_len, h_dim))
        h, c, steps = np.zeros((g, m, h_dim)), np.zeros((g, m, h_dim)), []
        with np.errstate(over="ignore"):
            for t in range(t_len):
                z = seq[:, :, t] @ wx + h @ wh + b
                sig = np.negative(z)
                np.exp(sig, out=sig)
                sig += 1.0
                np.divide(1.0, sig, out=sig)
                gi, gf, go = sig[..., :h_dim], sig[..., h_dim : 2 * h_dim], sig[..., 3 * h_dim :]
                gc = np.tanh(z[..., 2 * h_dim : 3 * h_dim])
                c_new = gf * c + gi * gc
                tc = np.tanh(c_new)
                h = go * tc
                out[:, :, t] = h
                steps.append((sig, gc, c, tc))
                c = c_new
        layer_caches.append((seq, out, steps))
        seq = out
    y = seq
    for (wx_p, wh_p, b_p), (x_l, out, steps) in zip(
        reversed(layer.layer_params), reversed(layer_caches)
    ):
        wx_t, wh_t = wx_p.view(theta).swapaxes(1, 2), wh_p.view(theta).swapaxes(1, 2)
        g, m, t_len, d = x_l.shape
        gx = np.zeros((g, m, t_len, d))
        g_wx, g_wh = np.zeros((g, d, 4 * h_dim)), np.zeros((g, h_dim, 4 * h_dim))
        g_b = np.zeros((g, 4 * h_dim))
        dh_next, dc_next = np.zeros((g, m, h_dim)), np.zeros((g, m, h_dim))
        for t in reversed(range(t_len)):
            sig, gc, c_prev, tc = steps[t]
            gi, gf, go = sig[..., :h_dim], sig[..., h_dim : 2 * h_dim], sig[..., 3 * h_dim :]
            dh = gy[:, :, t] + dh_next
            dc = dh * go * (1.0 - tc * tc) + dc_next
            d_gc = dc * gi
            dc_next = dc * gf
            dz = np.concatenate([dc * gc, dc * c_prev, d_gc, dh * tc], axis=-1)
            dz *= sig
            dz *= 1.0 - sig
            np.multiply(d_gc, 1.0 - gc * gc, out=dz[..., 2 * h_dim : 3 * h_dim])
            g_wx += x_l[:, :, t].swapaxes(1, 2) @ dz
            h_prev = out[:, :, t - 1] if t > 0 else np.zeros((g, m, h_dim))
            g_wh += h_prev.swapaxes(1, 2) @ dz
            g_b += dz.sum(axis=1)
            gx[:, :, t] = dz @ wx_t
            dh_next = dz @ wh_t
        wx_p.add_to(grad, g_wx)
        wh_p.add_to(grad, g_wh)
        b_p.add_to(grad, g_b)
        gy = gx
    return y, gy, [lc[2] for lc in layer_caches]


def plain_attention(layer, theta, grad, x, gy, per_sample_scores=False):
    """Products with W per (branch, sample), out of place. The scores are one
    (M T, H) @ (H, 1) product per branch, as the layer takes them, or with
    ``per_sample_scores`` one (T, H) @ (H, 1) product per (branch, sample)."""
    w, b, v = layer.W.view(theta), layer.b.view(theta), layer.v.view(theta)
    g, h_dim = x.shape[0], x.shape[-1]
    u = np.tanh(x @ w[:, None] + b[:, None, None, :])
    if per_sample_scores:
        e = (u @ v[:, None, :, None])[..., 0]
    else:
        e = (u.reshape(g, -1, h_dim) @ v[:, :, None]).reshape(u.shape[:-1])
    e = e - e.max(axis=2, keepdims=True)
    ew = np.exp(e)
    alpha = ew / ew.sum(axis=2, keepdims=True)
    y = (alpha[:, :, None, :] @ x)[:, :, 0]
    g_alpha = (x @ gy[..., None])[..., 0]
    gx = alpha[..., None] * gy[:, :, None, :]
    ge = alpha * (g_alpha - np.sum(g_alpha * alpha, axis=2, keepdims=True))
    ga = ge[..., None] * v[:, None, None, :] * (1.0 - u * u)
    layer.W.add_to(grad, x.reshape(g, -1, h_dim).swapaxes(1, 2) @ ga.reshape(g, -1, h_dim))
    layer.b.add_to(grad, ga.sum(axis=(1, 2)))
    layer.v.add_to(grad, (ge.reshape(g, 1, -1) @ u.reshape(g, -1, h_dim))[:, 0])
    return y, gx + ga @ w.swapaxes(1, 2)[:, None]


def same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


BRANCHES_AND_SAMPLES = [(g, m) for g in (1, 7, 35) for m in (1, 4, 16)]


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("g, m", BRANCHES_AND_SAMPLES)
def test_lstm_bytes_equal_the_plain_step(g, m, n_layers):
    t_len, d, h_dim = 10, 4, 16  # scheme 1's defaults: T sub-windows, C channels
    layer = LSTM(d, h_dim, n_layers)
    theta, grad = stacked(layer, g + m + n_layers, g)
    rng = np.random.default_rng(60 + g + m)
    x = rng.standard_normal((g, m, t_len, d))
    gy = rng.standard_normal((g, m, t_len, h_dim))
    ref_grad = np.zeros_like(theta)
    y, gx = run(layer, theta, grad, x, gy)
    ref_y, ref_gx, _ = plain_lstm(layer, theta, ref_grad, x, gy)
    same_bytes(y, ref_y)
    same_bytes(grad, ref_grad)
    same_bytes(gx, ref_gx)


@pytest.mark.parametrize("g, m", [(1, 1), (7, 4), (35, 16)])
def test_lstm_bytes_equal_the_plain_step_where_exp_overflows(g, m):
    d, h_dim = 4, 16
    layer = LSTM(d, h_dim, n_layers=2)
    theta, grad = stacked(layer, 70 + g, g)
    rng = np.random.default_rng(80 + g)
    x = 1000.0 * rng.standard_normal((g, m, 10, d))
    gy = rng.standard_normal((g, m, 10, h_dim))
    ref_grad = np.zeros_like(theta)
    y, gx = run(layer, theta, grad, x, gy)
    ref_y, ref_gx, ref_steps = plain_lstm(layer, theta, ref_grad, x, gy)
    gates = np.concatenate([sig[..., np.r_[0 : 2 * h_dim, 3 * h_dim : 4 * h_dim]]
                            for sig, *_ in ref_steps[0]])
    assert np.any(gates == 0.0)  # exp(-z) overflowed to inf: the sigmoid's limit 0
    same_bytes(y, ref_y)
    same_bytes(grad, ref_grad)
    same_bytes(gx, ref_gx)


@pytest.mark.parametrize("g, m", BRANCHES_AND_SAMPLES)
def test_attention_bytes_equal_the_per_sample_products(g, m):
    t_len, h_dim = 10, 16
    layer = AttentionPool(h_dim)
    theta, grad = stacked(layer, 90 + g + m, g)
    rng = np.random.default_rng(100 + g + m)
    x = rng.standard_normal((g, m, t_len, h_dim))
    gy = rng.standard_normal((g, m, h_dim))
    ref_grad = np.zeros_like(theta)
    y, gx = run(layer, theta, grad, x, gy)
    ref_y, ref_gx = plain_attention(layer, theta, ref_grad, x, gy)
    same_bytes(y, ref_y)
    same_bytes(grad, ref_grad)
    same_bytes(gx, ref_gx)


@pytest.mark.parametrize("g, m", BRANCHES_AND_SAMPLES)
def test_attention_within_4_eps_of_per_sample_scores(g, m):
    """One score product per branch rounds differently from one gemv per
    (branch, sample). On these inputs the scores move by at most 8.9e-16,
    4 eps of the largest |score|, and the output, weight gradient and input
    gradient by at most 1.8 eps of each array's largest entry; the bound is
    4 eps of it."""
    t_len, h_dim = 10, 16
    layer = AttentionPool(h_dim)
    theta, grad = stacked(layer, 90 + g + m, g)
    rng = np.random.default_rng(100 + g + m)
    x = rng.standard_normal((g, m, t_len, h_dim))
    gy = rng.standard_normal((g, m, h_dim))
    ref_grad = np.zeros_like(theta)
    y, gx = run(layer, theta, grad, x, gy)
    ref_y, ref_gx = plain_attention(layer, theta, ref_grad, x, gy, per_sample_scores=True)
    for got, want in ((y, ref_y), (grad, ref_grad), (gx, ref_gx)):
        bound = 4 * np.finfo(float).eps * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=bound)
