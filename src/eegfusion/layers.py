"""Differentiable layers over one flat parameter vector, in that vector's dtype.

Every weighted layer is a stack of G branches of the same shape that runs
in one call: activations carry a leading branch axis G ahead of the sample
axis, and each weight is read as a (G, ...) view into the flat vector, so an
optimizer updates a single array and finite-difference checks can perturb
any coordinate. ParamRegistry.add_stage lays a stage out branch-major (all
of branch 0's weights, then branch 1's), so the G copies of one weight sit
one branch stride apart. Backward passes accumulate into a flat gradient of
the same length and return the gradient w.r.t. the layer input.

Dense is the one affine layer, relu(x @ W + b) over the last axis of any
(G, ..., n_in) input. ContractLast is Dense(K, 1) without its unit output
axis, and ContractRow is ContractLast over the row axis, so all three share
one forward and one backward.

Every buffer a layer allocates takes the parameter vector's dtype, and inputs
are cast to it by the caller, so a float32 vector (training) keeps each step
in float32 and a float64 one (a freshly drawn model) in float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Param",
    "ParamRegistry",
    "ContractRow",
    "ContractLast",
    "Dense",
    "LSTM",
    "AttentionPool",
]


class Param:
    """One weight of a layer: a (G, *shape) block, one copy per branch of its stage.

    The G copies sit one branch stride apart inside ``block``, each at
    ``offset`` within its branch's row; ParamRegistry.add_stage sets all three.
    """

    def __init__(self, shape: tuple[int, ...], fan_in: int | None = None) -> None:
        self.shape, self.fan_in = tuple(shape), fan_in  # fan_in None: zero init
        self.size = int(np.prod(shape))
        self.n_branches, self.block, self.offset = 0, slice(0, 0), 0

    def view(self, theta: np.ndarray) -> np.ndarray:
        """The G branch copies as a strided (G, *shape) view of theta."""
        rows = theta[self.block].reshape(self.n_branches, -1)
        return rows[:, self.offset : self.offset + self.size].reshape((-1,) + self.shape)

    def add_to(self, grad: np.ndarray, value: np.ndarray) -> None:
        view = self.view(grad)
        view += value


class ParamRegistry:
    """Allocates blocks of the flat parameter vector to stages of layers."""

    def __init__(self) -> None:
        #: (n_branches, params) per stage, in allocation order
        self.stages: list[tuple[int, list[Param]]] = []
        self.size = 0

    def add_stage(self, n_branches: int, layers: list) -> None:
        """Lay out the layers' params for n_branches branches, branch-major."""
        params = [p for layer in layers for p in layer.params]
        stride = sum(p.size for p in params)
        block = slice(self.size, self.size + n_branches * stride)
        offset = 0
        for p in params:
            p.n_branches, p.block, p.offset = n_branches, block, offset
            offset += p.size
        self.size = block.stop
        self.stages.append((n_branches, params))

    def init_params(self, seed: int) -> np.ndarray:
        """Weights uniform in +-1/sqrt(fan_in), biases zero; drawn stage by
        stage, branch by branch, param by param."""
        rng = np.random.default_rng(seed)
        theta = np.zeros(self.size)
        for n_branches, params in self.stages:
            for g in range(n_branches):
                for p in params:
                    if p.fan_in:
                        bound = 1.0 / np.sqrt(p.fan_in)
                        p.view(theta)[g] = rng.uniform(-bound, bound, p.shape)
        return theta


class Dense:
    """Affine map on the last axis, optional ReLU: (G, ..., n_in) -> (G, ..., n_out).

    The axes between the branch axis and the last one are read as positions,
    so each branch's map is one (positions, n_in) @ (n_in, n_out) product.
    """

    def __init__(self, n_in: int, n_out: int, relu: bool = True) -> None:
        self.W = Param((n_in, n_out), fan_in=n_in)
        self.b = Param((n_out,))
        self.relu = relu
        self.params = [self.W, self.b]

    def forward(self, theta, x, cache=None):
        rows = x.reshape(x.shape[0], -1, x.shape[-1])  # (G, positions, n_in)
        s = rows @ self.W.view(theta)
        s += self.b.view(theta)[:, None]
        y = np.maximum(s, 0.0) if self.relu else s
        if cache is not None:
            cache["x"] = rows
            if self.relu:
                cache["s"] = s
        return y.reshape(x.shape[:-1] + y.shape[-1:])

    def backward(self, theta, grad, cache, gy, input_grad=True):
        """Accumulate the weight gradients; return the input gradient, or None
        without ``input_grad`` (a stage's first layer, whose input is data)."""
        rows = cache["x"]
        gs = gy.reshape(rows.shape[:2] + (-1,))
        if self.relu:
            gs = gs * (cache["s"] > 0)
        self.W.add_to(grad, rows.swapaxes(1, 2) @ gs)
        self.b.add_to(grad, gs.sum(axis=1))
        if not input_grad:
            return None
        gx = gs @ self.W.view(theta).swapaxes(1, 2)
        return gx.reshape(gy.shape[:-1] + gx.shape[-1:])

    # the contractions call these: a per-class tracer wraps only forward/backward
    _affine_forward, _affine_backward = forward, backward


class ContractLast(Dense):
    """Learned contraction of the last axis, with ReLU: Dense(K, 1) without
    its unit output axis.

    Input (G, ..., K) -> output (G, ...): y = relu(x . W[:, 0] + b). Mixes the
    band axis (K = B) or the feature axis (K = F) down to a scalar per position.
    """

    def __init__(self, n_in: int) -> None:
        super().__init__(n_in, 1)

    def forward(self, theta, x, cache=None):
        return self._affine_forward(theta, x, cache)[..., 0]

    def backward(self, theta, grad, cache, gy, input_grad=True):
        return self._affine_backward(theta, grad, cache, gy[..., None], input_grad)


class ContractRow(ContractLast):
    """Learned contraction of the second-to-last axis, with ReLU: ContractLast
    over the row axis.

    Input (G, ..., R, K) -> output (G, ..., K): y = relu(sum_r W[r, 0] x[..., r, :] + b).
    Collapses the row-channel axis of stacked C x C connectivity matrices.
    """

    def forward(self, theta, x, cache=None):
        return self._affine_forward(theta, x.swapaxes(-1, -2), cache)[..., 0]

    def backward(self, theta, grad, cache, gy, input_grad=True):
        gx = self._affine_backward(theta, grad, cache, gy[..., None], input_grad)
        return None if gx is None else gx.swapaxes(-1, -2)


class LSTM:
    """Stack of standard LSTM layers: (G, M, T, D) -> (G, M, T, H), full sequence.

    Gate preactivations are ordered [input, forget, cell, output] inside the
    fused 4H weight matrices. Once per forward, each layer copies Wx, Wh and
    b with the input, forget and output gate columns negated, so the step's
    matmuls yield -z on those gates and +z on the cell gate; round-to-nearest
    is symmetric under negation, so -z is exactly the negation of z. The
    cell gate is tanh of its slice; then the sigmoid of the three gates,
    1 / (1 + exp(-z)), is computed in place over the whole fused (G, M, 4H)
    buffer, and the gates are read as slices of it (its cell slice holds
    nothing used). The backward takes ``s (1 - s)`` over the whole buffer in
    two passes and then writes the cell gate's tanh derivative over its
    slice. With h_0 = 0, the t = 0 step adds nothing to the Wh gradient and
    has no earlier step to pass a gradient to, so it computes neither.
    """

    def __init__(self, d_in: int, hidden: int, n_layers: int = 1) -> None:
        self.hidden = hidden
        self.layer_params: list[tuple[Param, Param, Param]] = []
        d = d_in
        for layer in range(n_layers):
            self.layer_params.append(
                (
                    Param((d, 4 * hidden), fan_in=d),
                    Param((hidden, 4 * hidden), fan_in=hidden),
                    Param((4 * hidden,)),
                )
            )
            d = hidden
        self.params = [p for trio in self.layer_params for p in trio]
        #: -1 on the input, forget and output gate columns, +1 on the cell gate
        self.gate_sign = np.full(4 * hidden, -1.0)
        self.gate_sign[2 * hidden : 3 * hidden] = 1.0

    def forward(self, theta, x, cache=None):
        h_dim, dtype = self.hidden, theta.dtype
        cell = slice(2 * h_dim, 3 * h_dim)
        sign = self.gate_sign.astype(dtype)  # a float64 sign would promote every step
        seq = x
        layer_caches = []
        for wx_p, wh_p, b_p in self.layer_params:
            wx, wh, b = (p.view(theta) * sign for p in (wx_p, wh_p, b_p))
            g, m, t_len, _ = seq.shape
            # each step adds the bias as a same-shape array: a broadcast add is slower
            b = np.repeat(b[:, None], m, axis=1)
            out = np.empty((g, m, t_len, h_dim), dtype)
            h = np.zeros((g, m, h_dim), dtype)
            c = np.zeros((g, m, h_dim), dtype)
            hw = np.empty((g, m, 4 * h_dim), dtype)
            steps = []
            with np.errstate(over="ignore"):  # exp(-z) = inf gives the limit 0
                for t in range(t_len):
                    sig = seq[:, :, t] @ wx  # -z, except +z on the cell gate
                    sig += np.matmul(h, wh, out=hw)
                    sig += b
                    gc = np.tanh(sig[..., cell])
                    np.exp(sig, out=sig)
                    sig += 1.0
                    np.divide(1.0, sig, out=sig)
                    gi, gf = sig[..., :h_dim], sig[..., h_dim : 2 * h_dim]
                    go = sig[..., 3 * h_dim :]
                    c_new = gf * c + gi * gc
                    tc = np.tanh(c_new)
                    h = go * tc
                    out[:, :, t] = h
                    if cache is not None:
                        steps.append((sig, gc, c, tc))  # c is c_{t-1}
                    c = c_new
            if cache is not None:
                layer_caches.append({"x": seq, "out": out, "steps": steps})
            seq = out
        if cache is not None:
            cache["layers"] = layer_caches
        return seq

    def backward(self, theta, grad, cache, gy):
        h_dim, dtype = self.hidden, theta.dtype
        for (wx_p, wh_p, b_p), lc in zip(reversed(self.layer_params), reversed(cache["layers"])):
            wx_t = wx_p.view(theta).swapaxes(1, 2)
            wh_t = wh_p.view(theta).swapaxes(1, 2)
            x, out, steps = lc["x"], lc["out"], lc["steps"]
            g, m, t_len, d = x.shape
            gx = np.zeros((g, m, t_len, d), dtype)
            g_wx = np.zeros((g, d, 4 * h_dim), dtype)
            g_wh = np.zeros((g, h_dim, 4 * h_dim), dtype)
            g_b = np.zeros((g, 4 * h_dim), dtype)
            dh_next = np.zeros((g, m, h_dim), dtype)
            dc_next = np.zeros((g, m, h_dim), dtype)
            one_minus_sig = np.empty((g, m, 4 * h_dim), dtype)
            for t in reversed(range(t_len)):
                sig, gc, c_prev, tc = steps[t]
                gi, gf = sig[..., :h_dim], sig[..., h_dim : 2 * h_dim]
                go = sig[..., 3 * h_dim :]
                dh = gy[:, :, t] + dh_next
                dc = dh * go * (1.0 - tc * tc) + dc_next
                d_gc = dc * gi
                dc_next = dc * gf
                # d_gate * s * (1 - s) for all 4H at once over the sigmoid
                # buffer; the cell slice is then replaced by its tanh derivative
                dz = np.concatenate([dc * gc, dc * c_prev, d_gc, dh * tc], axis=-1)
                dz *= sig
                dz *= np.subtract(1.0, sig, out=one_minus_sig)
                np.multiply(d_gc, 1.0 - gc * gc, out=dz[..., 2 * h_dim : 3 * h_dim])
                g_wx += x[:, :, t].swapaxes(1, 2) @ dz
                g_b += np.einsum("gmk->gk", dz)  # dz.sum(axis=1), with a long inner loop
                gx[:, :, t] = dz @ wx_t
                # at t = 0, h_prev = 0 adds only zeros to g_wh, which starts at
                # +0.0 and so never holds -0.0; and no earlier step reads dh_next
                if t > 0:
                    g_wh += out[:, :, t - 1].swapaxes(1, 2) @ dz
                    dh_next = dz @ wh_t
            wx_p.add_to(grad, g_wx)
            wh_p.add_to(grad, g_wh)
            b_p.add_to(grad, g_b)
            gy = gx
        return gy


class AttentionPool:
    """Additive attention over time: (G, M, T, H) -> (G, M, H).

    Scores e_t = v . tanh(W h_t + b); softmax over t; output is the
    weight-averaged sequence. Weights are nonnegative and sum to 1. The
    products with W and W^T run once per branch, over all M * T positions as
    one (M T, H) @ (H, H) matmul, and so do the scores, as one (M T, H) @ (H, 1).
    """

    def __init__(self, hidden: int) -> None:
        self.W = Param((hidden, hidden), fan_in=hidden)
        self.b = Param((hidden,))
        self.v = Param((hidden,), fan_in=hidden)
        self.params = [self.W, self.b, self.v]

    def forward(self, theta, x, cache=None):
        g, h_dim = x.shape[0], x.shape[-1]
        u = x.reshape(g, -1, h_dim) @ self.W.view(theta)
        u += self.b.view(theta)[:, None]
        np.tanh(u, out=u)
        e = (u @ self.v.view(theta)[:, :, None]).reshape(x.shape[:-1])
        u = u.reshape(x.shape)
        e = e - e.max(axis=2, keepdims=True)
        ew = np.exp(e)
        alpha = ew / ew.sum(axis=2, keepdims=True)
        if cache is not None:
            cache["x"], cache["u"], cache["alpha"] = x, u, alpha
        return (alpha[:, :, None, :] @ x)[:, :, 0]

    def backward(self, theta, grad, cache, gy):
        x, u, alpha = cache["x"], cache["u"], cache["alpha"]
        g, h_dim = x.shape[0], x.shape[-1]
        g_alpha = (x @ gy[..., None])[..., 0]
        gx = alpha[..., None] * gy[:, :, None, :]
        ge = alpha * (g_alpha - np.sum(g_alpha * alpha, axis=2, keepdims=True))
        ga = ge[..., None] * self.v.view(theta)[:, None, None]  # d/du
        slope = np.multiply(u, u)
        ga *= np.subtract(1.0, slope, out=slope)  # d/d(W h + b), tanh' = 1 - u^2
        ga_rows = ga.reshape(g, -1, h_dim)
        self.W.add_to(grad, x.reshape(g, -1, h_dim).swapaxes(1, 2) @ ga_rows)
        self.b.add_to(grad, np.einsum("gmth->gh", ga))  # ga.sum(axis=(1, 2)), a long inner loop
        self.v.add_to(grad, (ge.reshape(g, 1, -1) @ u.reshape(g, -1, h_dim))[:, 0])
        gx += (ga_rows @ self.W.view(theta).swapaxes(1, 2)).reshape(x.shape)
        return gx
