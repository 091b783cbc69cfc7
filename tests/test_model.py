"""Fusion classifiers: architecture shape, gradients, training, metrics, files.

The gradient oracle is a central finite difference of the batch loss along
every parameter coordinate. ReLU makes that oracle invalid near a kink, so
each check first asserts kink_margin() clears the perturbation radius; the
seeds below are pinned to configurations that satisfy it.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegfusion.connectivity import FEATURE_ORDER, NormStats, WindowTensor
from eegfusion.layers import ContractRow
from eegfusion.model import (
    Metrics,
    _Adam,
    ModelConfig,
    TrainConfig,
    bce_loss,
    build_fusion_model,
    evaluate,
    load_model,
    metrics_from_counts,
    save_model,
    train,
)

# small enough for coordinate-wise fd sweeps, still exercises 2-layer LSTMs
SMALL = dict(
    n_channels=3,
    subwindows=4,
    n_bands=2,
    n_features=3,
    embed_dim=2,
    lstm_hidden=3,
    lstm_layers=2,
    dense_sizes=(3,),
)
# seeds where every ReLU preactivation clears the fd radius
FD_SEEDS = {1: 4, 2: 1, 3: 0, 4: 9}


def fd_setup(scheme, seed):
    cfg = ModelConfig(scheme=scheme, **SMALL)
    m = build_fusion_model(cfg)
    rng = np.random.default_rng(100 + seed)
    m.params = rng.uniform(-0.7, 0.7, m.param_count)
    x = rng.standard_normal((3,) + cfg.tensor_shape)
    y = rng.integers(0, 2, 3).astype(float)
    return m, x, y


def batch_loss(m, x, y):
    m.forward_batch(x, train=True)
    return bce_loss(m._cache["z"], y)


def max_fd_rel_error(m, x, y, eps=1e-4):
    batch_loss(m, x, y)
    assert m.kink_margin() > 5e-3, "fd oracle invalid: ReLU kink within eps"
    grad = m.backward(y)
    theta = m.params
    worst = 0.0
    for i in range(theta.size):
        old = theta[i]
        theta[i] = old + eps
        lp = batch_loss(m, x, y)
        theta[i] = old - eps
        lm = batch_loss(m, x, y)
        theta[i] = old
        num = (lp - lm) / (2 * eps)
        worst = max(worst, abs(num - grad[i]) / max(abs(num) + abs(grad[i]), 1e-6))
    return worst


def edit_header(path, edit):
    """Apply edit to the JSON header of a model file, keeping its payload."""
    head, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def make_dataset(cfg, n_per_class=4, seed=0, separation=1.0):
    rng = np.random.default_rng(seed)
    ds = []
    for i in range(2 * n_per_class):
        label = i % 2
        values = rng.standard_normal(cfg.tensor_shape) + separation * label
        ds.append(WindowTensor(values=values, label=label, source_id=f"w{i}"))
    return ds


class TestArchitecture:
    def test_scheme1_has_one_branch_per_feature_band_pair(self):
        m = build_fusion_model(ModelConfig(scheme=1))
        assert len(m.branches) == 35
        assert m.branches == [(f, b) for f in range(7) for b in range(5)]
        assert m.n_embed == 35 * 16
        assert np.array_equal(m.group_map, np.repeat(np.arange(7), 5 * 16))

    def test_scheme2_concat_width_and_group_map(self):
        m = build_fusion_model(ModelConfig(scheme=2, **SMALL))
        f, d1 = SMALL["n_features"], SMALL["embed_dim"]
        assert m.n_embed == f * d1
        assert np.array_equal(m.group_map, np.repeat(np.arange(f), d1))

    @pytest.mark.parametrize("scheme", [3, 4])
    def test_fused_schemes_expose_no_embedding(self, scheme):
        m = build_fusion_model(ModelConfig(scheme=scheme, **SMALL))
        assert m.group_map is None
        x = np.zeros((2,) + m.cfg.tensor_shape)
        with pytest.raises(ValueError, match="relevance"):
            m.embed_batch(x)

    def test_param_count_closed_form_scheme2(self):
        # per branch: band_mix (B+1) + collapse (C+1)
        #   + lstm layer0 (C*4H + H*4H + 4H) + layer1 (8H^2 + 4H)
        #   + attention (H^2 + 2H) + embed (H*d1 + d1)
        c, b, f = SMALL["n_channels"], SMALL["n_bands"], SMALL["n_features"]
        h, d1 = SMALL["lstm_hidden"], SMALL["embed_dim"]
        branch = (b + 1) + (c + 1) + (4 * h * (c + h + 1)) + (4 * h * (2 * h + 1))
        branch += (h * h + 2 * h) + (h * d1 + d1)
        head = (f * d1 * 3 + 3) + (3 * 1 + 1)
        m = build_fusion_model(ModelConfig(scheme=2, **SMALL))
        assert m.param_count == f * branch + head == 619

    @pytest.mark.parametrize("scheme", [1, 2, 3, 4])
    def test_slots_tile_parameter_vector(self, scheme):
        # every coordinate belongs to exactly one param view of one stage
        m = build_fusion_model(ModelConfig(scheme=scheme, **SMALL))
        index = np.arange(m.param_count)
        seen = [p.view(index).ravel() for _, params in m.registry.stages for p in params]
        assert np.array_equal(np.sort(np.concatenate(seen)), index)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="scheme"):
            ModelConfig(scheme=5)
        with pytest.raises(ValueError, match="lstm_layers"):
            ModelConfig(lstm_layers=3)
        with pytest.raises(ValueError, match="embed_dim"):
            ModelConfig(embed_dim=0)


class TestForward:
    @pytest.mark.parametrize("scheme", [1, 2, 3, 4])
    def test_zero_params_give_exactly_half(self, scheme):
        m = build_fusion_model(ModelConfig(scheme=scheme, **SMALL))
        m.params[:] = 0.0
        x = np.random.default_rng(0).standard_normal((4,) + m.cfg.tensor_shape)
        assert np.all(m.forward_batch(x) == 0.5)

    def test_eval_deterministic_and_unaffected_by_train_pass(self):
        m, x, y = fd_setup(2, FD_SEEDS[2])
        p1 = m.forward_batch(x)
        m.forward_batch(x, train=True)
        p2 = m.forward_batch(x)
        assert np.array_equal(p1, p2)

    def test_single_sample_matches_batch(self):
        m, x, _ = fd_setup(2, FD_SEEDS[2])
        batch = m.forward_batch(x)
        singles = [m.forward(x[i]) for i in range(x.shape[0])]
        assert np.allclose(singles, batch, rtol=0, atol=1e-15)

    def test_embed_batch_matches_forward(self):
        m, x, _ = fd_setup(2, FD_SEEDS[2])
        probs, v = m.embed_batch(x)
        assert v.shape == (x.shape[0], m.n_embed)
        assert np.array_equal(probs, m.forward_batch(x))

    def test_wrong_shape_rejected(self):
        m = build_fusion_model(ModelConfig(scheme=2, **SMALL))
        with pytest.raises(ValueError, match="shape"):
            m.forward_batch(np.zeros((2, 3, 4, 3, 3, 5)))


class TestGradients:
    @pytest.mark.parametrize("scheme", [1, 2, 3, 4])
    def test_backward_matches_finite_differences(self, scheme):
        m, x, y = fd_setup(scheme, FD_SEEDS[scheme])
        assert max_fd_rel_error(m, x, y) < 1e-4

    def test_masked_branch_gets_zero_gradient(self):
        # zeroing the head rows fed by one branch cuts its only path to the
        # loss, so its parameters must receive exactly zero gradient
        m, x, y = fd_setup(2, FD_SEEDS[2])
        victim = 1
        w = m.head[0].W.view(m.params)[0]
        w[m.group_map == victim] = 0.0
        batch_loss(m, x, y)
        grad = m.backward(y)
        params = [p for layer in m.stage for p in layer.params]
        for p in params:
            assert np.all(p.view(grad)[victim] == 0.0)
        live = np.concatenate([p.view(grad)[0].ravel() for p in params])
        assert np.any(live != 0.0)

    def test_backward_requires_training_forward(self):
        m, x, y = fd_setup(2, FD_SEEDS[2])
        with pytest.raises(RuntimeError, match="forward"):
            m.backward(y)

    def test_backward_checks_label_shape(self):
        m, x, y = fd_setup(2, FD_SEEDS[2])
        m.forward_batch(x, train=True)
        with pytest.raises(ValueError, match="labels"):
            m.backward(np.zeros(5))

    def test_kink_margin_requires_cached_forward(self):
        m = build_fusion_model(ModelConfig(scheme=2, **SMALL))
        with pytest.raises(RuntimeError, match="forward"):
            m.kink_margin()


class TestStageInputGradient:
    """backward() asks the branch stage's first layer for no input gradient."""

    @pytest.mark.parametrize("scheme", [1, 2, 3, 4])
    def test_gradient_equals_a_backward_that_computes_it(self, scheme, monkeypatch):
        m, x, y = fd_setup(scheme, FD_SEEDS[scheme])
        m.forward_batch(x, train=True)
        grad = m.backward(y)
        first = m.stage[0]
        backward, seen = first.backward, []

        def with_input_grad(theta, grad, cache, gy, input_grad=False):
            gx = backward(theta, grad, cache, gy)  # the default: input_grad=True
            seen.append((cache, gy, gx))
            return gx

        monkeypatch.setattr(first, "backward", with_input_grad)
        assert m.backward(y).tobytes() == grad.tobytes()
        [(cache, gy, gx)] = seen
        # the cached preactivation s is (G, positions, 1); W is (G, K, 1)
        gs, w = gy * (cache["s"].reshape(gy.shape) > 0), first.W.view(m.params)[..., 0]
        lead = (w.shape[0],) + (1,) * (gs.ndim - 1)
        if isinstance(first, ContractRow):  # gx[..., r, k] = gs[..., k] w[r]
            want = gs[..., None, :] * w.reshape(lead[:-1] + (-1, 1))
        else:  # gx[..., k] = gs[...] w[k]
            want = gs[..., None] * w.reshape(lead + (-1,))
        assert gx.shape == m._branch_input(x).shape
        # The layer's product runs as a matmul over a unit axis, which adds it
        # to +0.0, so its zeros may read +0.0 where the bare product reads -0.0.
        # That sign reaches nothing: backward() drops this layer's input
        # gradient. So zeros compare by value and every nonzero by its bytes.
        assert np.array_equal(gx, want)
        nonzero = want != 0
        assert gx[nonzero].tobytes() == want[nonzero].tobytes()


class TestTraining:
    def small_cfg(self, **over):
        return ModelConfig(
            scheme=2, n_channels=2, subwindows=3, n_bands=2, n_features=2,
            embed_dim=2, lstm_hidden=2, dense_sizes=(2,), **over,
        )

    def test_loss_decreases(self):
        cfg = self.small_cfg()
        ds = make_dataset(cfg, n_per_class=8, separation=2.0)
        m = build_fusion_model(cfg)
        _, history = train(m, ds, TrainConfig(epochs=15, batch_size=4, learning_rate=1e-2))
        assert history[-1]["loss"] < history[0]["loss"]
        assert history[-1]["accuracy"] >= history[0]["accuracy"]

    def test_zero_learning_rate_changes_nothing(self):
        cfg = self.small_cfg()
        ds = make_dataset(cfg)
        m = build_fusion_model(cfg)
        before = m.params.copy()
        train(m, ds, TrainConfig(epochs=3, batch_size=4, learning_rate=0.0))
        assert np.array_equal(m.params, before.astype(np.float32))  # training runs in float32

    def test_training_is_deterministic(self):
        cfg = self.small_cfg()
        ds = make_dataset(cfg)
        runs = []
        for _ in range(2):
            m = build_fusion_model(cfg)
            m, history = train(m, ds, TrainConfig(epochs=4, batch_size=4, seed=11))
            runs.append((m.params.copy(), history))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_divergence_raises(self):
        cfg = self.small_cfg()
        ds = make_dataset(cfg)
        m = build_fusion_model(cfg)
        m.params[:] = 1e308  # overflow on the first forward
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="diverged"):
                train(m, ds, TrainConfig(epochs=2, batch_size=8))

    def test_single_class_rejected(self):
        cfg = self.small_cfg()
        ds = [t for t in make_dataset(cfg) if t.label == 1]
        with pytest.raises(ValueError, match="both classes"):
            train(build_fusion_model(cfg), ds, TrainConfig())

    def test_oversized_batch_rejected(self):
        cfg = self.small_cfg()
        ds = make_dataset(cfg, n_per_class=2)
        with pytest.raises(ValueError, match="batch_size 16 exceeds"):
            train(build_fusion_model(cfg), ds, TrainConfig(batch_size=16))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(build_fusion_model(self.small_cfg()), [], TrainConfig())

    def test_train_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1e-3)

    @pytest.mark.parametrize("label", [2, -1, 0.5])
    def test_labels_other_than_0_1_rejected(self, label):
        cfg = self.small_cfg()
        ds = make_dataset(cfg)
        ds[0].label = label
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            train(build_fusion_model(cfg), ds, TrainConfig(batch_size=4))


class TestAdam:
    def test_in_place_step_equals_textbook_formula(self):
        self.check_against_textbook(np.float64)

    def test_in_place_step_equals_textbook_formula_in_float32(self):
        self.check_against_textbook(np.float32)

    @staticmethod
    def check_against_textbook(dtype):
        n, lr, b1, b2, eps = 257, 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(5)
        params = rng.standard_normal(n).astype(dtype)
        opt = _Adam(params, lr)
        theta, m, v = params.copy(), np.zeros(n, dtype), np.zeros(n, dtype)
        buffers = (opt.m, opt.v)
        assert opt.m.dtype == opt.v.dtype == opt._buf.dtype == dtype
        for t in range(1, 51):
            grad = (rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 2)).astype(dtype)
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * grad * grad
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step(params, grad.copy())  # step consumes its grad argument
            assert opt.m is buffers[0] and opt.v is buffers[1]  # updated in place
            assert np.array_equal(params, theta)
            assert np.array_equal(opt.m, m)
            assert np.array_equal(opt.v, v)
        assert params.dtype == theta.dtype == dtype


def arrays_in(obj):
    """Every array nested in dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from arrays_in(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from arrays_in(value)


class TestFloat32:
    """Training runs in float32; the layers follow the parameters' dtype."""

    @pytest.mark.parametrize("scheme", [1, 2])
    def test_training_step_makes_no_float64_array(self, scheme):
        # NumPy 2 promotes float32 with any float64 array, so a single float64
        # constant (such as the LSTM's gate sign) would turn the step float64
        cfg = ModelConfig(scheme=scheme, **SMALL)
        m = build_fusion_model(cfg)
        ds = make_dataset(cfg)
        m.params = m.params.astype(np.float32)
        x = np.stack([t.values for t in ds]).astype(np.float32)
        y = np.array([t.label for t in ds], dtype=float)
        m.forward_batch(x, train=True)
        grad = m.backward(y)
        opt = _Adam(m.params, 1e-3)
        opt.step(m.params, grad.copy())
        arrays = [*arrays_in(m._cache), grad, opt.m, opt.v, m.params]
        assert len(arrays) > 20
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("scheme", [1, 2, 3, 4])
    def test_backward_matches_float64_within_1e_5(self, scheme):
        # at the same float32 parameters and inputs the two gradients differ
        # by at most 5.4e-7 of the float64 norm at these seeds; allow 1e-5
        m64, x, y = fd_setup(scheme, FD_SEEDS[scheme])
        m64.params = m64.params.astype(np.float32).astype(float)
        x = x.astype(np.float32).astype(float)
        m32 = build_fusion_model(m64.cfg)
        m32.params = m64.params.astype(np.float32)
        m64.forward_batch(x, train=True)
        assert m64.kink_margin() > 5e-3  # no ReLU flips between the precisions
        g64 = m64.backward(y)
        m32.forward_batch(x, train=True)
        g32 = m32.backward(y)
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)

    def test_train_returns_float32_parameters(self):
        cfg = ModelConfig(scheme=2, **SMALL)
        m = build_fusion_model(cfg)
        assert m.params.dtype == np.float64  # a fresh draw stays float64
        m, _ = train(m, make_dataset(cfg), TrainConfig(epochs=1, batch_size=4))
        assert m.params.dtype == np.float32


class TestMetrics:
    def test_reference_counts(self):
        m = metrics_from_counts(tp=3, fp=2, fn=1, tn=4)
        assert m.sensitivity == 0.75
        assert abs(m.specificity - 2 / 3) < 1e-15
        assert m.precision == 0.6
        assert m.accuracy == 0.7
        assert m.undefined == ()

    def test_perfect_classifier(self):
        m = metrics_from_counts(tp=5, fp=0, fn=0, tn=5)
        assert (m.sensitivity, m.specificity, m.precision, m.accuracy) == (1, 1, 1, 1)

    def test_zero_denominators_flagged(self):
        m = metrics_from_counts(tp=0, fp=0, fn=0, tn=5)
        assert m.sensitivity == 0.0 and m.precision == 0.0
        assert set(m.undefined) == {"sensitivity", "precision"}
        m = metrics_from_counts(tp=4, fp=0, fn=1, tn=0)
        assert set(m.undefined) == {"specificity"}

    def test_invalid_counts(self):
        with pytest.raises(ValueError, match="tp"):
            metrics_from_counts(tp=-1, fp=0, fn=0, tn=1)
        with pytest.raises(ValueError, match="fn"):
            metrics_from_counts(tp=1, fp=0, fn=0.5, tn=1)
        with pytest.raises(ValueError, match="empty"):
            metrics_from_counts(tp=0, fp=0, fn=0, tn=0)

    @settings(max_examples=60, deadline=None)
    @given(
        tp=st.integers(0, 500), fp=st.integers(0, 500),
        fn=st.integers(0, 500), tn=st.integers(0, 500),
    )
    def test_ratio_identities(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        m = metrics_from_counts(tp, fp, fn, tn)
        for v in (m.sensitivity, m.specificity, m.precision, m.accuracy):
            assert 0.0 <= v <= 1.0
        if tp + fn:
            assert m.sensitivity * (tp + fn) == pytest.approx(tp, rel=1e-12)
        else:
            assert "sensitivity" in m.undefined
        assert m.accuracy == pytest.approx((tp + tn) / (tp + fp + fn + tn), rel=1e-12)

    def test_evaluate_counts_match_manual_predictions(self):
        cfg = ModelConfig(scheme=2, **SMALL)
        m = build_fusion_model(cfg)
        ds = make_dataset(cfg, n_per_class=5, seed=2)
        got = evaluate(m, ds)
        probs = m.forward_batch(np.stack([t.values for t in ds]))
        preds = probs >= 0.5
        actual = np.array([t.label for t in ds], dtype=bool)
        assert got.tp == int(np.sum(preds & actual))
        assert got.fp == int(np.sum(preds & ~actual))
        assert got.tp + got.fp + got.fn + got.tn == len(ds)

    def test_to_dict_round_trips_fields(self):
        d = metrics_from_counts(tp=3, fp=2, fn=1, tn=4).to_dict()
        assert d["tp"] == 3 and d["accuracy"] == 0.7 and d["undefined"] == []


class TestBceLoss:
    def test_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-3, 3, 50)
        y = rng.integers(0, 2, 50).astype(float)
        p = 1.0 / (1.0 + np.exp(-z))
        naive = -np.mean(y * np.log(p) + (1 - y) * np.log1p(-p))
        assert bce_loss(z, y) == pytest.approx(naive, rel=1e-12)

    def test_stable_at_extreme_logits(self):
        # naive formula would produce log(0); the stable form tends to |z|
        assert bce_loss(np.array([1000.0]), np.array([0.0])) == pytest.approx(1000.0)
        assert bce_loss(np.array([-1000.0]), np.array([1.0])) == pytest.approx(1000.0)
        assert bce_loss(np.array([1000.0]), np.array([1.0])) == pytest.approx(0.0, abs=1e-12)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        m, x, _ = fd_setup(1, FD_SEEDS[1])
        shape = (m.cfg.n_features, m.cfg.n_bands)
        stats = NormStats(
            mean=np.arange(np.prod(shape), dtype=float).reshape(shape),
            std=np.linspace(1, 2, np.prod(shape)).reshape(shape),
        )
        path = tmp_path / "model.bin"
        save_model(m, path, norm_stats=stats)
        back, back_stats = load_model(path)
        assert back.cfg == m.cfg
        assert np.array_equal(back.params, m.params.astype(np.float32).astype(float))
        assert np.array_equal(back_stats.mean, stats.mean)
        assert np.array_equal(back_stats.std, stats.std)
        # f32 quantization shifts probabilities only marginally
        assert np.allclose(back.forward_batch(x), m.forward_batch(x), atol=1e-4)

    def test_round_trip_two_dense_layers(self, tmp_path):
        m = build_fusion_model(ModelConfig(scheme=1, **{**SMALL, "dense_sizes": (8, 4)}))
        save_model(m, tmp_path / "m.bin")
        back, _ = load_model(tmp_path / "m.bin")
        assert back.cfg == m.cfg and back.cfg.dense_sizes == (8, 4)
        assert np.array_equal(back.params, m.params.astype(np.float32).astype(float))

    def test_bad_model_config_is_a_file_error(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(build_fusion_model(ModelConfig(scheme=2, **SMALL)), p)
        edit_header(p, lambda h: h["model_config"].update(scheme=2.5))
        with pytest.raises(ValueError, match="model_config.scheme: must be an integer") as exc:
            load_model(p)
        assert type(exc.value) is ValueError

    def test_header_with_dropout_rate_is_rejected_by_name(self, tmp_path):
        # model files written before dropout was removed carry the field
        p = tmp_path / "m.bin"
        save_model(build_fusion_model(ModelConfig(scheme=2, **SMALL)), p)
        edit_header(p, lambda h: h["model_config"].update(dropout_rate=0.0))
        with pytest.raises(ValueError, match="model_config.dropout_rate") as exc:
            load_model(p)
        assert type(exc.value) is ValueError and str(p) in str(exc.value)

    def test_header_without_param_count_names_the_file(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(build_fusion_model(ModelConfig(scheme=2, **SMALL)), p)
        edit_header(p, lambda h: h.pop("param_count"))
        with pytest.raises(ValueError, match="param_count") as exc:
            load_model(p)
        assert type(exc.value) is ValueError and str(p) in str(exc.value)

    def test_foreign_feature_order_rejected(self, tmp_path):
        # scores and relevance would come out under the wrong feature names
        p = tmp_path / "m.bin"
        save_model(build_fusion_model(ModelConfig(scheme=2, **SMALL)), p)
        edit_header(p, lambda h: h.update(feature_order=list(reversed(FEATURE_ORDER))))
        with pytest.raises(ValueError, match="feature_order") as exc:
            load_model(p)
        assert str(p) in str(exc.value)

    def test_norm_stats_optional(self, tmp_path):
        m, _, _ = fd_setup(2, FD_SEEDS[2])
        save_model(m, tmp_path / "m.bin")
        _, stats = load_model(tmp_path / "m.bin")
        assert stats is None

    def test_norm_stats_without_mean_names_the_file(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(build_fusion_model(ModelConfig(scheme=2, **SMALL)), p,
                   norm_stats=NormStats(mean=np.zeros((3, 2)), std=np.ones((3, 2))))
        edit_header(p, lambda h: h["norm_stats"].pop("mean"))
        with pytest.raises(ValueError, match="norm_stats.mean: required field is missing") as exc:
            load_model(p)
        assert type(exc.value) is ValueError and str(p) in str(exc.value)

    @pytest.mark.parametrize("mean, message", [
        ([0.0] * 3, r"norm_stats.mean\[0\]: must be a list$"),
        ([[0.0]] * 3, r"norm_stats: must hold mean and std of shape \(3, 2\) \(features, bands\)"),
    ], ids=["flat", "one_band"])
    def test_norm_stats_of_wrong_shape_rejected_at_load(self, tmp_path, mean, message):
        # (features,) stats used to load, then failed to broadcast in NormStats.apply
        p = tmp_path / "m.bin"
        save_model(build_fusion_model(ModelConfig(scheme=2, **SMALL)), p,
                   norm_stats=NormStats(mean=np.zeros((3, 2)), std=np.ones((3, 2))))
        edit_header(p, lambda h: h["norm_stats"].update(mean=mean))
        with pytest.raises(ValueError, match=message) as exc:
            load_model(p)
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda p: p.write_bytes(b"{not json\n" + p.read_bytes().partition(b"\n")[2]),
             "invalid JSON"),
            # valid JSON that is not an object used to fail on header.get
            (lambda p: p.write_bytes(b"[1, 2]\n" + p.read_bytes().partition(b"\n")[2]),
             "<root>: must be a JSON object"),
            (lambda p: edit_header(p, lambda h: h.update(format="eegfusion-dataset")),
             "format: must be 'eegfusion-model', got 'eegfusion-dataset'"),
            (lambda p: edit_header(p, lambda h: h.update(format_version=2)),
             "format_version: must be 1, got 2"),
            (lambda p: edit_header(p, lambda h: h["norm_stats"].update(std=[["x", 1]] * 3)),
             r"norm_stats.std\[0\]\[0\]: must be a finite number, got 'x'"),
        ],
        ids=["header_json", "header_list", "format", "format_version", "norm_stats"],
    )
    def test_header_errors_name_the_file(self, corrupt, message, tmp_path):
        p = tmp_path / "m.bin"
        save_model(build_fusion_model(ModelConfig(scheme=2, **SMALL)), p,
                   norm_stats=NormStats(mean=np.zeros((3, 2)), std=np.ones((3, 2))))
        corrupt(p)
        with pytest.raises(ValueError, match=message) as exc:
            load_model(p)
        assert type(exc.value) is ValueError and str(p) in str(exc.value)

    def test_failed_rename_leaves_the_earlier_file_intact(self, tmp_path, monkeypatch):
        first, second = (build_fusion_model(ModelConfig(scheme=2, **SMALL, seed=s)) for s in (0, 1))
        p = tmp_path / "model.bin"
        save_model(first, p)
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr("eegfusion.util.os.replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_model(second, p)
        assert p.read_bytes() == before
        back, _ = load_model(p)
        assert np.array_equal(back.params, first.params.astype(np.float32).astype(float))

    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(build_fusion_model(ModelConfig(scheme=2, **SMALL)), p)
        edit_header(p, lambda h: h.update(format="other"))
        with pytest.raises(ValueError, match="format: must be 'eegfusion-model', got 'other'"):
            load_model(p)

    def test_truncated_payload_rejected(self, tmp_path):
        m, _, _ = fd_setup(2, FD_SEEDS[2])
        p = tmp_path / "m.bin"
        save_model(m, p)
        p.write_bytes(p.read_bytes()[:-12])
        with pytest.raises(ValueError, match="payload"):
            load_model(p)

    def test_headerless_blob_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="header"):
            load_model(p)


# Per scheme at SMALL dims: the sha256 of the seeded init as written by
# save_model, then the probabilities of fd_setup's inputs under the seeded
# init and under fd_setup's parameters. The probabilities and the parameter
# payload were recorded from the per-branch implementation that preceded the
# grouped branch stack; the digests cover the header too, so they were
# re-recorded when the model config lost its attention field and again when
# it lost its dropout_rate field, each time with the payload and the
# probabilities unchanged (payload sha256 prefixes 3737449c, 94c75f77,
# 3ef8937b, bcb02663 for schemes 1-4). A change to the flat layout, the init
# draws or the forward math moves at least one of them.
PINNED = {
    1: ("bc3e2448e05389b8c2b7bd83a34e41e3639567e7c3517c54ef595f4d738f2cbb", [0.49964299368457726, 0.49963577509124707, 0.49974206690891354], [0.3568388106582656, 0.3568388106582656, 0.3568388106582656]),
    2: ("4a887952d383bd1013a86f587a8e3af69a45e0f7574d1c3af2df22c072398885", [0.4999054182124237, 0.49981955852278465, 0.49991818079489825], [0.5056871555663552, 0.5054094535627736, 0.5053070706927432]),
    3: ("b7b5bc3cc076f7612baf062aae570cb652119cfe44e4101e6f052cb1cc8c9b93", [0.5000307217210748, 0.5000464084112304, 0.5000140131318799], [0.5633192942195644, 0.5634930622962981, 0.5633796896361549]),
    4: ("a995ab15c5a31f0da700aa28b7e680f28c6e3cf5e5ae28ca871e0ac97ff1a075", [0.5002087480069123, 0.500140929077302, 0.5], [0.5901353973483658, 0.5901353973483658, 0.5901353973483658]),
}


class TestPinnedLayout:
    @pytest.mark.parametrize("scheme", [1, 2, 3, 4])
    def test_layout_and_forward_match_the_record(self, scheme, tmp_path):
        digest, p_init, p_fd = PINNED[scheme]
        fitted, x, _ = fd_setup(scheme, FD_SEEDS[scheme])
        m = build_fusion_model(fitted.cfg)
        save_model(m, tmp_path / "m.bin")
        assert hashlib.sha256((tmp_path / "m.bin").read_bytes()).hexdigest() == digest
        assert np.allclose(m.forward_batch(x), p_init, rtol=1e-12, atol=0)
        assert np.allclose(fitted.forward_batch(x), p_fd, rtol=1e-12, atol=0)


class TestFeatureOrderConstant:
    def test_seven_measures_in_contract_order(self):
        assert FEATURE_ORDER == ("SM", "ISM", "DC", "COH", "PDC", "PCOH", "PLV")
