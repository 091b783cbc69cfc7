"""Recording and annotation IO, window extraction, synthesis, and splits."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from eegfusion import signal_io
from eegfusion.mvar import simulate_var
from eegfusion.runner import RunConfig, SynthStudyConfig, study_recordings
from eegfusion.signal_io import (
    WINDOW_S,
    AnnotationSet,
    Recording,
    SynthSpec,
    extract_labeled_windows,
    generate_synthetic,
    has_nonseizure_span,
    load_annotations,
    load_recording,
    save_annotations,
    save_recording,
    split_subwindows,
    synth_spectral_radius,
    train_test_split,
    window_samples,
)
from eegfusion.signal_io import _innovations, _mean_std_in_place, _synth_coefficients

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
        with pytest.raises(ValueError, match="n_channels must be >= 2, got 1"):
            load_recording(p, fs=256.0)

    @pytest.mark.parametrize("text, fs, message", [
        ("a,a\n1,2\n", 256.0, "channel_names must be unique"),
        ("a\n1\n2\n", 256.0, "n_channels must be >= 2, got 1"),
        ("a,b\n1,2\n3,nan\n", 256.0, "samples must be finite, got nan at row 1, channel 'b'"),
        ("a,b\n1,2\n", 0.0, "fs must be positive, got 0.0"),
    ], ids=["duplicate_names", "one_channel", "non_finite", "fs"])
    def test_recording_checks_name_the_file(self, tmp_path, text, fs, message):
        # among many recordings, the error must say which file is at fault
        p = tmp_path / "r.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_recording(p, fs=fs)
        assert str(exc.value) == f"{p}: {message}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_recording(tmp_path / "nope.csv", fs=256.0)

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"samples": np.zeros(4)}, "samples must be 2-D"),
            ({"samples": np.zeros((0, 2))}, r"samples must hold at least one row, got shape \(0, 2\)"),
            ({"samples": np.zeros((4, 1)), "channel_names": ("a",)}, "n_channels must be >= 2, got 1"),
            ({"fs": 0.0}, "fs must be positive, got 0.0"),
            ({"channel_names": ("a",)}, "channel_names must name 2 channels, got 1"),
            ({"channel_names": ("a", "a")}, "channel_names must be unique"),
            ({"samples": [[0.0, 1.0], [2.0, np.nan]]}, "samples must be finite, got nan at row 1, channel 'b'"),
        ],
        ids=["ndim", "empty", "one_channel", "fs", "name_count", "duplicate_names", "non_finite"],
    )
    def test_recording_checks_its_fields(self, over, message):
        kwargs = {"samples": np.zeros((4, 2)), "fs": FS, "channel_names": ("a", "b"), "id": "r"}
        with pytest.raises(ValueError, match=message):
            Recording(**{**kwargs, **over})

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("{", "invalid JSON"),
            ('{"seizures": {}}', "seizures: must be a list"),
            ('{"seizures": [1]}', r"seizures\[0\]: must be a JSON object"),
            ('{"seizures": [{"start_s": 1}]}', r"seizures\[0\].end_s: required field is missing"),
            ('{"seizures": [{"start_s": 1, "end_s": "9"}]}',
             r"seizures\[0\].end_s: must be a finite number, got '9'"),
            ('{"seizures": [{"start_s": 1, "end_s": 9}, {"start_s": NaN, "end_s": 30}]}',
             r"seizures\[1\].start_s: must be a finite number, got nan"),
            ('{"seizures": [{"start_s": 1, "end_s": Infinity}]}',
             r"seizures\[0\].end_s: must be a finite number, got inf"),
            ('{"seizures": [{"start_s": true, "end_s": 30}]}',
             r"seizures\[0\].start_s: must be a finite number, got True"),
            ('{"seizures": [{"start_s": -1, "end_s": 30}]}',
             r"seizures\[0\].start_s: must be >= 0, got -1"),
            ('{"seizures": [{"start_s": 9, "end_s": 9}]}',
             r"seizures\[0\].end_s: must be > start_s 9, got 9"),
            ('{"seizures": [], "events": []}', "events: unknown field"),
        ],
        ids=["json", "not_a_list", "not_an_object", "missing_end", "non_number", "nan", "infinite",
             "boolean", "negative_start", "empty_interval", "unknown_key"],
    )
    def test_malformed_file_names_file_and_field(self, tmp_path, text, message):
        p = tmp_path / "a.json"
        p.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            load_annotations(p)
        assert str(p) in str(exc.value)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="end"):
            AnnotationSet.from_intervals([(10.0, 5.0)])

    def test_seizure_past_the_recording_names_file_and_field(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text('{"seizures": [{"start_s": 1, "end_s": 9}, {"start_s": 20, "end_s": 61}]}')
        assert load_annotations(p, 61.0).intervals == ((1.0, 9.0), (20.0, 61.0))
        with pytest.raises(ValueError) as exc:
            load_annotations(p, 60.0)
        assert str(exc.value) == f"{p}: seizures[1].end_s: must be <= the recording's 60 s, got 61"

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

    @pytest.mark.parametrize("fs, n_samples, w_len", [
        (128.0, 2560, 2560),
        (100.03, 2001, 2001),  # 20 s at 100.03 Hz rounds to 2001 samples
        (128.0, 2559, None),
        (100.03, 2000, None),
    ], ids=["one-window", "one-rounded-window", "one-sample-short", "rounded-one-short"])
    def test_one_window_rule(self, fs, n_samples, w_len):
        # one rule sizes a window and refuses a recording shorter than one
        rec = make_recording(n_samples / fs, fs=fs, rec_id="short")
        assert rec.n_samples == n_samples
        ann = AnnotationSet.from_intervals([(0.0, WINDOW_S)])
        if w_len is None:
            with pytest.raises(ValueError) as exc:
                window_samples(rec)
            assert str(exc.value) == "recording 'short' shorter than one 20 s window"
            with pytest.raises(ValueError, match=str(exc.value)):
                extract_labeled_windows(rec, ann, n_nonseizure=0)
            return
        assert window_samples(rec) == w_len
        [w] = extract_labeled_windows(rec, ann, n_nonseizure=0)
        assert w.samples.shape == (w_len, 2)

    def test_exact_multiple_has_no_duplicate_tail(self):
        rec = make_recording(100.0)
        ann = AnnotationSet.from_intervals([(0.0, 40.0)])
        ws = extract_labeled_windows(rec, ann, n_nonseizure=0)
        assert [w.offset_s for w in ws] == [0.0, 20.0]

    @pytest.mark.parametrize("fs, n_samples, interval, ids", [
        # the tail at 30.001 s starts on sample 7680, as the window at 30 s does
        (256.0, 25600, (10.0, 50.001), ["r@10.00s", "r@30.00s"]),
        # 20 s is 2001 samples, so the tail at 0.004 s starts on sample 0
        (100.03, 2001, (0.0, 2001 / 100.03), ["r@0.00s"]),
        # one sample later is a window of its own
        (256.0, 25600, (10.0, 50.004), ["r@10.00s", "r@30.00s", "r@30.00s"]),
    ], ids=["tail-within-a-sample", "rounded-window-length", "tail-one-sample-later"])
    def test_tail_is_kept_only_when_it_starts_on_a_later_sample(self, fs, n_samples, interval, ids):
        rec = make_recording(n_samples / fs, fs=fs, rec_id="r")
        assert rec.n_samples == n_samples
        ws = extract_labeled_windows(rec, AnnotationSet.from_intervals([interval]), n_nonseizure=0)
        assert [w.source_id for w in ws] == ids
        starts = [int(np.flatnonzero((rec.samples == w.samples[0]).all(axis=1))[0]) for w in ws]
        assert starts == sorted(set(starts))

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
    """Digests recorded from the recursive-filter synthesis (one real AR(2)
    filter, or one complex filter per channel DFT mode of a ring-coupled
    process); any change to the filters, the transforms or the order of the
    twin scaling moves these bytes. Equality with the VAR recursion itself
    is checked to a tolerance in TestGenerateSynthetic."""

    def test_fast_study_recordings(self):
        # the synthesis settings of test_runner.fast_config
        cfg = RunConfig(seed=0, synth=SynthStudyConfig(
            n_per_class=2, windows_per_recording=2, n_channels=2,
            fs=32.0, duration_s=60.0, coupling_strength=0.3,
        ))
        assert [sha256(rec.samples) for _, rec, _ in study_recordings(cfg)] == [
            "cd57adc6f64713213a0cc659f12ac4d92aa59bd576c7426761cf61704794356a",
            "9954899e4fc7bc935fffdd3203a7dac20a26a9941891c82618ee83cc79593fbc",
            "7d21e4730d2a92615b65cb6ade894e1343b2dc2b7617d1384ee2e86ee0ac3efe",
            "a3eb6dbe66f187dd4cb6e6f53d67022a3ac0b413e1559c531408ef2cc58c7155",
        ]

    def test_clinical_size_recording(self):
        rec, _ = generate_synthetic(SynthSpec(
            kind="coupled", n_channels=19, fs=256.0, duration_s=60.0,
            coupling_strength=0.08, seed=0,
        ))
        assert sha256(rec.samples) == (
            "2117d1dd94283bdcbe59356660ac826689aa39f91a6314b4c43251ec52a035c6"
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

    def test_staged_recursion_equals_the_step_loop(self):
        rng = np.random.default_rng(23)
        a = np.stack([0.25 * rng.standard_normal((3, 2, 2)) for _ in range(4)])
        e = rng.standard_normal((4, 2600, 2))
        want = e.copy()
        for n in range(2600):
            for k in range(1, min(3, n) + 1):
                want[:, n] += np.matmul(a[:, k - 1], want[:, n - k, :, None])[..., 0]
        assert np.array_equal(simulate_var(a, 2500, innovations=e.copy(), burn_in=100),
                              want[:, 100:])

    def test_peak_memory_is_the_coupled_series_and_its_twin(self):
        # 60 s at fs=256 plus the 500-step burn-in, C=19: two such series
        series_bytes = (60 * 256 + 500) * 19 * 8
        spec = SynthSpec(kind="coupled", n_channels=19, fs=256.0, duration_s=60.0,
                         coupling_strength=0.08, seed=0)
        tracemalloc.start()
        try:
            generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2 * series_bytes

    @pytest.mark.parametrize("shape, axis", [
        ((28_160, 4), 0), ((51_200, 19), 0), ((40, 7, 10, 4, 4, 5), (0, 2, 3, 4)),
    ])
    def test_in_place_mean_std_are_numpy_mean_std(self, shape, axis):
        y = 3.0 + 2.0 * np.random.default_rng(shape[1]).standard_normal(shape)
        want_mean, want_std = y.mean(axis=axis), y.std(axis=axis)
        mean, std = _mean_std_in_place(y, axis)
        assert mean.tobytes() == want_mean.tobytes()
        assert std.tobytes() == want_std.tobytes()

class TestGenerateSynthetic:
    @pytest.mark.parametrize("n_channels", [2, 4, 19])
    @pytest.mark.parametrize("kind, match_power, coupling, radius", [
        ("coupled", True, 0.15, 0.8),
        ("coupled", False, 0.15, 0.8),
        ("coupled", True, 0.0, 0.8),
        ("coupled", True, 0.15, 0.0),
        ("uncoupled", True, 0.0, 0.8),
        ("uncoupled", False, 0.0, 0.0),
    ])
    def test_filters_equal_the_var_recursion(self, n_channels, kind, match_power,
                                             coupling, radius):
        spec = SynthSpec(kind=kind, n_channels=n_channels, fs=64.0, duration_s=20.0,
                         coupling_strength=coupling, ar_pole_radius=radius,
                         match_power=match_power, seed=n_channels)
        n = int(round(spec.duration_s * spec.fs))
        e = _innovations(spec, n + 500)
        want = simulate_var(_synth_coefficients(spec, kind == "coupled"), n,
                            innovations=e.copy(), burn_in=500)
        if kind == "coupled" and match_power:
            twin = simulate_var(_synth_coefficients(spec, False), n, innovations=e, burn_in=500)
            want *= twin.std(axis=0) / want.std(axis=0)
        got = generate_synthetic(spec)[0].samples
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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


class TestSynthSpec:
    @pytest.mark.parametrize(
        "over,message",
        [
            ({"kind": "mixed"}, "kind must be 'coupled' or 'uncoupled'"),
            ({"n_channels": 1}, "n_channels must be >= 2, got 1"),
            ({"fs": 0.0}, "fs must be positive, got 0.0"),
            ({"duration_s": 19.0}, r"duration_s must be >= 20 \(one window\), got 19\.0"),
            ({"ar_pole_radius": 1.0}, "ar_pole_radius must be in"),
            ({"noise_std": 0.0}, r"noise_std must lie in \[1e-50, 1e\+50\], got 0\.0"),
            ({"ar_freq_hz": 65.0}, "ar_freq_hz must lie in"),
            ({"ar_freq_hz": 0.0}, r"ar_freq_hz must lie in \(0, fs/2\), got 0\.0"),
            ({"ar_freq_hz": 64.0}, r"ar_freq_hz must lie in \(0, fs/2\), got 64\.0"),
            ({"coupling_strength": -0.1}, "coupling_strength must be >= 0, got -0.1"),
        ],
        ids=[
            "kind", "n_channels", "fs", "duration_s", "ar_pole_radius", "noise_std",
            "ar_freq_hz", "ar_freq_hz_zero", "ar_freq_hz_nyquist", "coupling_strength",
        ],
    )
    def test_checks_its_fields(self, over, message):
        with pytest.raises(ValueError, match=message):
            SynthSpec(**{"kind": "coupled", **over})


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

    @pytest.mark.parametrize("n, fraction", [(2, 0.2), (2, 0.8), (1, 0.5), (4, 0.1)])
    def test_empty_side_rejected(self, n, fraction):
        # round(n * fraction) windows of a class go to test; 0 or n leaves a side
        # empty, here on the seizure side only
        ds = [FakeTensor(0, f"n{i}") for i in range(10)] + [FakeTensor(1, f"p{i}") for i in range(n)]
        with pytest.raises(ValueError, match=f"^a class of {n} windows split at {fraction} "):
            train_test_split(ds, fraction)
