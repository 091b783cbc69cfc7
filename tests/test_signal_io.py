"""Recording and annotation IO, window extraction, synthesis, and splits."""

import hashlib
import json

import numpy as np
import pytest

from eegfusion.mvar import simulate_var
from eegfusion.runner import RunConfig, SynthStudyConfig, study_recordings
from eegfusion.signal_io import (
    WINDOW_S,
    AnnotationSet,
    Recording,
    SynthSpec,
    extract_labeled_windows,
    generate_synthetic,
    generate_synthetic_batch,
    has_nonseizure_span,
    load_annotations,
    load_recording,
    save_annotations,
    save_recording,
    split_subwindows,
    synth_spectral_radius,
    train_test_split,
)

FS = 128.0


def make_recording(duration_s, fs=FS, n_channels=2, seed=0, rec_id="rec"):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((int(round(duration_s * fs)), n_channels))
    names = tuple(f"ch{i}" for i in range(n_channels))
    return Recording(samples=samples, fs=fs, channel_names=names, id=rec_id)


class TestLoadRecording:
    def test_small_csv(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        rec = load_recording(p, fs=256.0)
        assert rec.samples.shape == (2, 2)
        assert rec.channel_names == ("a", "b")
        assert np.array_equal(rec.samples, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_cell_names_position(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,x\n")
        with pytest.raises(ValueError, match="line 2.*'b'"):
            load_recording(p, fs=256.0)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a\n1\n2\n")
        with pytest.raises(ValueError, match="2 channels"):
            load_recording(p, fs=256.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_recording(tmp_path / "nope.csv", fs=256.0)

    def test_round_trip_exact(self, tmp_path):
        rec = make_recording(25.0)
        p = tmp_path / "rt.csv"
        save_recording(rec, p)
        back = load_recording(p, fs=rec.fs)
        assert np.array_equal(back.samples, rec.samples)
        assert back.channel_names == rec.channel_names


class TestAnnotations:
    def test_load_and_merge(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"seizures": [
            {"start_s": 30.0, "end_s": 50.0},
            {"start_s": 10.0, "end_s": 35.0},
            {"start_s": 80.0, "end_s": 90.0},
        ]}))
        ann = load_annotations(p)
        assert ann.intervals == ((10.0, 50.0), (80.0, 90.0))

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("{}")
        with pytest.raises(ValueError, match="seizures"):
            load_annotations(p)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="end"):
            AnnotationSet.from_intervals([(10.0, 5.0)])

    def test_round_trip(self, tmp_path):
        ann = AnnotationSet.from_intervals([(5.0, 40.0)])
        p = tmp_path / "a.json"
        save_annotations(ann, p)
        assert load_annotations(p) == ann

    def test_interval_beyond_recording_rejected(self):
        rec = make_recording(30.0)
        ann = AnnotationSet.from_intervals([(10.0, 60.0)])
        with pytest.raises(ValueError, match="exceeds"):
            extract_labeled_windows(rec, ann, n_nonseizure=0)


class TestExtractWindows:
    def test_fifty_second_interval_gives_three(self):
        rec = make_recording(200.0)
        ann = AnnotationSet.from_intervals([(0.0, 50.0)])
        ws = extract_labeled_windows(rec, ann, n_nonseizure=0)
        assert [w.offset_s for w in ws] == [0.0, 20.0, 30.0]
        assert all(w.label == 1 for w in ws)

    def test_short_interval_ignored(self):
        rec = make_recording(100.0)
        ann = AnnotationSet.from_intervals([(10.0, 25.0)])
        assert extract_labeled_windows(rec, ann, n_nonseizure=0) == []

    def test_exact_multiple_has_no_duplicate_tail(self):
        rec = make_recording(100.0)
        ann = AnnotationSet.from_intervals([(0.0, 40.0)])
        ws = extract_labeled_windows(rec, ann, n_nonseizure=0)
        assert [w.offset_s for w in ws] == [0.0, 20.0]

    def test_window_sample_counts_and_bounds(self):
        rec = make_recording(150.0)
        ann = AnnotationSet.from_intervals([(30.0, 75.0)])
        w_len = int(round(WINDOW_S * FS))
        for w in extract_labeled_windows(rec, ann, n_nonseizure=2, guard_s=10.0, seed=1):
            assert w.samples.shape == (w_len, 2)
            assert 0.0 <= w.offset_s <= rec.duration_s - WINDOW_S
            assert w.fs == FS

    def test_seizure_windows_inside_interval(self):
        rec = make_recording(150.0)
        ann = AnnotationSet.from_intervals([(30.0, 75.0)])
        ws = [w for w in extract_labeled_windows(rec, ann, n_nonseizure=0) if w.label]
        for w in ws:
            assert w.offset_s >= 30.0 - 1e-9
            assert w.offset_s + WINDOW_S <= 75.0 + 1e-9

    def test_nonseizure_windows_avoid_guard(self):
        rec = make_recording(400.0)
        ann = AnnotationSet.from_intervals([(100.0, 140.0)])
        ws = extract_labeled_windows(rec, ann, n_nonseizure=8, guard_s=60.0, seed=2)
        for w in ws:
            if w.label == 0:
                lo, hi = w.offset_s, w.offset_s + WINDOW_S
                assert hi <= 40.0 + 1e-9 or lo >= 200.0 - 1e-9

    def test_same_seed_same_offsets(self):
        rec = make_recording(300.0)
        ann = AnnotationSet.from_intervals([(50.0, 90.0)])
        a = extract_labeled_windows(rec, ann, n_nonseizure=4, seed=7, guard_s=30.0)
        b = extract_labeled_windows(rec, ann, n_nonseizure=4, seed=7, guard_s=30.0)
        assert [w.offset_s for w in a] == [w.offset_s for w in b]

    def test_no_free_span_rejected(self):
        rec = make_recording(60.0)
        ann = AnnotationSet.from_intervals([(0.0, 60.0)])
        assert not has_nonseizure_span(rec, ann)
        with pytest.raises(ValueError, match="seizure-free"):
            extract_labeled_windows(rec, ann, n_nonseizure=1)
        assert extract_labeled_windows(rec, ann, n_nonseizure=0) != []

    def test_too_short_recording_rejected(self):
        rec = make_recording(10.0)
        with pytest.raises(ValueError, match="shorter"):
            extract_labeled_windows(rec, AnnotationSet(), n_nonseizure=1)

    def test_free_span_detection(self):
        rec = make_recording(200.0)
        assert has_nonseizure_span(rec, AnnotationSet())
        tight = AnnotationSet.from_intervals([(0.0, 150.0)])
        assert not has_nonseizure_span(rec, tight, guard_s=60.0)
        assert has_nonseizure_span(rec, tight, guard_s=10.0)


class TestSplitSubwindows:
    def test_5120_at_256(self):
        subs = split_subwindows(np.arange(5120 * 2, dtype=float).reshape(5120, 2), 10)
        assert len(subs) == 10
        assert all(s.shape == (512, 2) for s in subs)

    def test_2560_at_128(self):
        assert all(s.shape == (256, 2) for s in split_subwindows(np.zeros((2560, 2)), 10))

    def test_reconcatenation_is_identity(self):
        samples = np.random.default_rng(3).standard_normal((2560, 3))
        back = np.vstack(split_subwindows(samples, 10))
        assert np.array_equal(back, samples)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            split_subwindows(np.zeros((5121, 2)), 10)


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestPinnedSynthesis:
    """Digests recorded from the one-recording-at-a-time recursion that the
    batched synthesis replaced; the batch must reproduce its bytes."""

    def test_fast_study_recordings(self):
        # the synthesis settings of test_runner.fast_config
        cfg = RunConfig(seed=0, synth=SynthStudyConfig(
            n_per_class=2, windows_per_recording=2, n_channels=2,
            fs=32.0, duration_s=60.0, coupling_strength=0.3,
        ))
        assert [sha256(rec.samples) for _, rec, _ in study_recordings(cfg)] == [
            "ab69a53762c6400345c29b7138b7c5fd444ed696c633c4cf7ad80c24bd39bbe4",
            "8a572c9aa07d50e48b1729b1132acd2d4c132a429de11abb9d603c88a6754ba8",
            "24d25e245b84db5cc9654dcec95ce928d0888356d3e6275b73ce6a7b83c11f97",
            "29d256cbe8e112376ee60f09f8e8cdfff68b77a8716887502eb0204e2f8b53aa",
        ]

    def test_clinical_size_recording(self):
        rec, _ = generate_synthetic(SynthSpec(
            kind="coupled", n_channels=19, fs=256.0, duration_s=60.0,
            coupling_strength=0.08, seed=0,
        ))
        assert sha256(rec.samples) == (
            "eb440c5ca0a4c6a2baf5a3bae4378b4c3cb20f2cd1d9c4b51ac38540d5903349"
        )

    def test_stacked_recursion_equals_single_series(self):
        rng = np.random.default_rng(21)
        a = np.stack([0.3 * rng.standard_normal((2, 3, 3)) / np.sqrt(3) for _ in range(3)])
        e = rng.standard_normal((3, 450, 3))
        stacked = simulate_var(a, 400, innovations=e.copy(), burn_in=50)
        assert stacked.shape == (3, 400, 3)
        for r in range(3):
            single = simulate_var(a[r], 400, innovations=e[r].copy(), burn_in=50)
            assert np.array_equal(stacked[r], single)

    def test_recursion_runs_in_the_innovations_buffer(self):
        e = np.random.default_rng(22).standard_normal((2, 120, 2))
        y = simulate_var(np.full((2, 1, 2, 2), 0.1), 100, innovations=e, burn_in=20)
        assert np.shares_memory(y, e)

    def test_batch_equals_one_spec_at_a_time(self):
        base = dict(n_channels=3, duration_s=30.0, coupling_strength=0.15)
        specs = [
            SynthSpec(kind="coupled", seed=31, **base),
            SynthSpec(kind="uncoupled", seed=32, **base),
            SynthSpec(kind="coupled", seed=33, match_power=False, **base),
        ]
        batch = list(generate_synthetic_batch(specs))
        assert len(batch) == 3
        for spec, (rec, ann) in zip(specs, batch):
            want, want_ann = generate_synthetic(spec)
            assert np.array_equal(rec.samples, want.samples)
            assert rec.id == want.id and ann == want_ann

    def test_batch_shapes_must_agree(self):
        specs = [SynthSpec(kind="uncoupled", duration_s=30.0),
                 SynthSpec(kind="uncoupled", duration_s=40.0)]
        with pytest.raises(ValueError, match="share"):
            list(generate_synthetic_batch(specs))


class TestGenerateSynthetic:
    def test_zero_strength_coupled_equals_uncoupled(self):
        base = dict(n_channels=3, duration_s=30.0, seed=11, coupling_strength=0.0)
        rec_c, ann_c = generate_synthetic(SynthSpec(kind="coupled", **base))
        rec_u, ann_u = generate_synthetic(SynthSpec(kind="uncoupled", **base))
        assert np.array_equal(rec_c.samples, rec_u.samples)
        assert ann_c.intervals and not ann_u.intervals

    def test_coupling_raises_lag1_cross_correlation(self):
        def xcorr_lag1(samples):
            x, y = samples[:-1, 0], samples[1:, 1]
            return abs(np.corrcoef(x, y)[0, 1])

        base = dict(n_channels=2, duration_s=60.0, seed=12, ar_pole_radius=0.5)
        coupled, _ = generate_synthetic(
            SynthSpec(kind="coupled", coupling_strength=0.4, **base))
        uncoupled, _ = generate_synthetic(SynthSpec(kind="uncoupled", **base))
        assert xcorr_lag1(coupled.samples) > xcorr_lag1(uncoupled.samples)

    def test_deterministic(self):
        spec = SynthSpec(kind="coupled", duration_s=25.0, coupling_strength=0.1, seed=13)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_coupled_fully_annotated(self):
        rec, ann = generate_synthetic(
            SynthSpec(kind="coupled", duration_s=40.0, coupling_strength=0.1, seed=14))
        assert ann.intervals == ((0.0, rec.duration_s),)

    def test_match_power_equalizes_channel_scale(self):
        base = dict(n_channels=4, duration_s=60.0, seed=15, coupling_strength=0.18)
        coupled, _ = generate_synthetic(SynthSpec(kind="coupled", **base))
        uncoupled, _ = generate_synthetic(SynthSpec(kind="uncoupled", **base))
        assert np.allclose(coupled.samples.std(axis=0),
                           uncoupled.samples.std(axis=0), rtol=1e-10)

    def test_unstable_coupling_rejected(self):
        spec = SynthSpec(kind="coupled", duration_s=20.0, coupling_strength=0.9, seed=16)
        assert synth_spectral_radius(spec) >= 1.0
        with pytest.raises(ValueError, match="unstable"):
            generate_synthetic(spec)

    def test_spectral_radius_monotone_in_strength(self):
        radii = [synth_spectral_radius(SynthSpec(kind="coupled", coupling_strength=s))
                 for s in (0.0, 0.1, 0.2)]
        assert radii[0] < radii[1] < radii[2]
        assert radii[-1] < 1.0


class FakeTensor:
    def __init__(self, label, uid):
        self.label = label
        self.source_id = uid


class TestTrainTestSplit:
    def test_stratified_counts(self):
        ds = [FakeTensor(1, f"p{i}") for i in range(40)]
        ds += [FakeTensor(0, f"n{i}") for i in range(60)]
        train, test = train_test_split(ds, test_fraction=0.15, seed=0)
        assert sum(t.label for t in test) == 6
        assert sum(1 - t.label for t in test) == 9
        assert len(train) == 85

    def test_exact_partition(self):
        ds = [FakeTensor(i % 2, str(i)) for i in range(30)]
        train, test = train_test_split(ds, test_fraction=0.2, seed=1)
        ids = sorted(t.source_id for t in train) + sorted(t.source_id for t in test)
        assert sorted(ids) == sorted(t.source_id for t in ds)
        assert not set(t.source_id for t in train) & set(t.source_id for t in test)

    def test_seeded_determinism(self):
        ds = [FakeTensor(i % 2, str(i)) for i in range(20)]
        a = train_test_split(ds, 0.25, seed=5)
        b = train_test_split(ds, 0.25, seed=5)
        assert [t.source_id for t in a[0]] == [t.source_id for t in b[0]]
        assert [t.source_id for t in a[1]] == [t.source_id for t in b[1]]

    def test_fraction_bounds(self):
        ds = [FakeTensor(i % 2, str(i)) for i in range(10)]
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_test_split([FakeTensor(1, str(i)) for i in range(10)], 0.2)
