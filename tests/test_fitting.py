"""Prescription, equalizer, and compressor tests."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearstream.dsp import StftConfig, StreamingAnalyzer, istft_frames
from hearstream.fitting import (
    CATALOGUE_CFS,
    DRC_KNEE_DB,
    DRC_RATIO,
    DRC_THRESHOLD_DB,
    Audiogram,
    DrcState,
    EQ_TAPS,
    ListenerFitting,
    design_fir,
    drc_static_gain,
    frame_level_db,
    load_listener,
    nalr_gains,
)

K_TABLE = np.array([-17.0, -8.0, 1.0, -1.0, -2.0, -2.0, -2.0, -2.0])


def fir_response_db(taps, freq_hz, fs=32000):
    phasor = np.exp(-2j * np.pi * freq_hz / fs * np.arange(len(taps)))
    return 20.0 * np.log10(abs(np.sum(taps * phasor)))


def equalize(frames, fir):
    # per-bin multiply by the zero-padded DFT of the taps, as ListenerFitting does
    return frames * np.fft.rfft(fir, StftConfig().fft_size)


def frame_with_level(level_db, bins=257, fft_size=512):
    # constant real spectrum c: mean power c^2 * fft_size / fft_size^2
    c = np.sqrt(fft_size) * 10.0 ** (level_db / 20.0)
    return np.full(bins, c, dtype=complex)


class TestAudiogram:
    def test_valid(self):
        a = Audiogram.flat(40.0)
        assert a.cfs == CATALOGUE_CFS
        assert a.level_at(1000.0) == 40.0

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            Audiogram((500.0, 500.0, 1000.0, 2000.0), (0.0, 0.0, 0.0, 0.0))

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ValueError):
            Audiogram.flat(130.0)
        with pytest.raises(ValueError):
            Audiogram.flat(-20.0)

    def test_off_catalogue_frequency_rejected(self):
        with pytest.raises(ValueError):
            Audiogram((440.0, 1000.0, 2000.0), (10.0, 10.0, 10.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Audiogram((500.0, 1000.0), (0.0,))


class TestNalr:
    def test_flat_zero_gains_are_corrections(self):
        gains = nalr_gains(Audiogram.flat(0.0))
        assert np.array_equal(gains, K_TABLE)

    def test_flat_40_hand_prescription(self):
        # X = 0.05 * 120 = 6; IG = 6 + 0.31*40 + k
        gains = nalr_gains(Audiogram.flat(40.0))
        assert abs(gains[2] - 19.4) < 1e-12
        assert np.max(np.abs(gains - (18.4 + K_TABLE))) < 0.01

    def test_linearity_in_levels(self):
        g20 = nalr_gains(Audiogram.flat(20.0)) - K_TABLE
        g40 = nalr_gains(Audiogram.flat(40.0)) - K_TABLE
        assert np.allclose(g40, 2.0 * g20, atol=1e-12)

    def test_missing_speech_frequencies_rejected(self):
        a = Audiogram((250.0, 1000.0, 2000.0), (10.0, 10.0, 10.0))
        with pytest.raises(ValueError):
            nalr_gains(a)


class TestDesignFir:
    def test_flat_zero_is_near_delta(self):
        taps = design_fir(np.zeros(8))
        peak = np.argmax(np.abs(taps))
        assert peak == 12
        assert taps[peak] >= 0.99
        assert np.max(np.abs(np.delete(taps, peak))) <= 0.01

    def test_flat_six_db_scaled_delta(self):
        taps = design_fir(np.full(8, 6.0))
        assert abs(taps[12] - 10.0 ** 0.3) < 1e-6

    def test_flat40_prescription_within_1db(self):
        gains = nalr_gains(Audiogram.flat(40.0))
        taps = design_fir(gains)
        assert len(taps) == 80
        for cf, g in zip(CATALOGUE_CFS, gains):
            if cf <= 6000.0:
                assert abs(fir_response_db(taps, cf) - g) <= 1.0

    def test_smooth_sloping_prescription_within_1db(self):
        hl = (20.0, 25.0, 30.0, 40.0, 45.0, 50.0, 55.0, 60.0)
        gains = nalr_gains(Audiogram(CATALOGUE_CFS, hl))
        taps = design_fir(gains)
        for cf, g in zip(CATALOGUE_CFS, gains):
            if cf <= 6000.0:
                assert abs(fir_response_db(taps, cf) - g) <= 1.0

    def test_designed_at_the_stft_rate(self):
        # a 16 kHz fitting meets a sloping prescription at 16 kHz
        hl = (20.0, 25.0, 30.0, 40.0, 50.0, 55.0, 60.0, 65.0)
        audiogram = Audiogram(CATALOGUE_CFS, hl)
        fit = ListenerFitting(audiogram, stft=StftConfig(sample_rate=16000))
        for cf, g in zip(CATALOGUE_CFS, nalr_gains(audiogram)):
            if cf <= 6000.0:
                assert abs(fir_response_db(fit.fir, cf, fs=16000) - g) <= 1.0

    def test_nonfinite_gains_rejected(self):
        with pytest.raises(ValueError):
            design_fir(np.array([np.inf] * 8))

    def test_design_is_eq_taps_long(self):
        assert design_fir(nalr_gains(Audiogram.flat(40.0))).shape == (EQ_TAPS,)


class TestApplyFirStft:
    def test_delta_identity(self):
        fir = np.zeros(80)
        fir[0] = 1.0
        frames = np.exp(1j * np.linspace(0, 3, 257 * 2)).reshape(2, 257)
        out = equalize(frames, fir)
        assert np.array_equal(out, frames)

    def test_pure_delay_on_sinusoid(self):
        cfg = StftConfig()
        d = 7
        fir = np.zeros(80)
        fir[d] = 1.0
        n = np.arange(32000)
        x = np.sin(2 * np.pi * 500.0 * n / 32000.0)
        frames = StreamingAnalyzer(cfg, 1).analyze(x[:, None])[:, :, 0]
        y = istft_frames(equalize(frames, fir), cfg)
        lag = cfg.warmup + d
        ref = x[: len(x) - lag]
        got = y[lag:]
        err = np.sqrt(np.mean((got - ref) ** 2)) / np.sqrt(np.mean(ref**2))
        assert err <= 0.01

    def test_white_noise_matches_time_domain_convolution(self):
        cfg = StftConfig()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(32000)
        fit = ListenerFitting(Audiogram.flat(40.0), stft=cfg)
        taps = fit.fir
        frames = StreamingAnalyzer(cfg, 1).analyze(x[:, None])[:, :, 0]
        y = istft_frames(frames * fit.spectrum, cfg)[cfg.warmup :]
        ref = np.convolve(x, taps)[: len(y)]
        err = np.sqrt(np.mean((y - ref) ** 2)) / np.sqrt(np.mean(ref**2))
        assert err <= 0.02


class TestDrcStatic:
    def test_below_threshold_unity(self):
        assert drc_static_gain(-60.0) == 0.0

    def test_knee_center(self):
        assert abs(drc_static_gain(-40.0) - (-1.0 / 12.0)) <= 1e-9

    def test_above_knee(self):
        assert abs(drc_static_gain(-20.0) - (-10.0 / 3.0)) <= 1e-9

    def test_knee_edges_continuous(self):
        t, w, r = DRC_THRESHOLD_DB, DRC_KNEE_DB, DRC_RATIO
        lo, hi = t - w / 2.0, t + w / 2.0
        knee_at_lo = (1.0 / r - 1.0) * (lo - t + w / 2.0) ** 2 / (2.0 * w)
        assert abs(knee_at_lo - 0.0) <= 1e-9
        knee_at_hi = (1.0 / r - 1.0) * (hi - t + w / 2.0) ** 2 / (2.0 * w)
        above_at_hi = (t + (hi - t) / r) - hi
        assert abs(knee_at_hi - above_at_hi) <= 1e-9
        eps = 1e-6
        assert abs(drc_static_gain(lo - eps) - drc_static_gain(lo + eps)) <= 1e-5
        assert abs(drc_static_gain(hi - eps) - drc_static_gain(hi + eps)) <= 1e-5

    def test_gain_monotone_nonincreasing(self):
        levels = np.linspace(-80.0, 20.0, 2001)
        gains = drc_static_gain(levels)
        assert np.all(np.diff(gains) <= 1e-12)

    def test_output_level_monotone_nondecreasing(self):
        levels = np.linspace(-80.0, 20.0, 2001)
        out = levels + drc_static_gain(levels)
        assert np.all(np.diff(out) >= -1e-12)


class TestFrameLevel:
    def test_matches_time_domain_power(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(512)
        level = frame_level_db(np.fft.rfft(x))
        assert abs(level - 10.0 * np.log10(np.mean(x**2))) <= 1e-9

    def test_floor(self):
        assert frame_level_db(np.zeros(257, dtype=complex)) == -120.0

    def test_constructed_level_helper(self):
        assert abs(frame_level_db(frame_with_level(-20.0)) - (-20.0)) <= 1e-9


class TestDrcStep:
    def test_silence_unity_gain(self):
        st = DrcState()
        for _ in range(10):
            out = st.step(np.zeros(257, dtype=complex))
            assert np.array_equal(out, np.zeros(257))
            assert st.gain_db == 0.0

    def test_attack_time_constant(self):
        st = DrcState()
        for _ in range(20):
            st.step(frame_with_level(-60.0))
        assert st.gain_db == 0.0
        target = -10.0 / 3.0
        crossing = None
        for n in range(1, 60):
            st.step(frame_with_level(-20.0))
            if st.gain_db <= 0.632 * target:
                crossing = n
                break
        # first-order smoother: attack/hop = 12.5 frames, within +-1
        assert crossing is not None and 11.5 <= crossing <= 13.5

    def test_steady_state_output_level(self):
        st = DrcState()
        out = None
        for _ in range(300):
            out = st.step(frame_with_level(-20.0))
        assert abs(frame_level_db(out) - (-10.0 / 3.0 - 20.0)) <= 0.05

    def test_release_time_constant(self):
        st = DrcState()
        for _ in range(400):
            st.step(frame_with_level(-20.0))
        start = st.gain_db
        assert abs(start - (-10.0 / 3.0)) < 1e-3
        crossing = None
        for n in range(1, 200):
            st.step(frame_with_level(-60.0))
            if abs(st.gain_db) <= 0.368 * abs(start):
                crossing = n
                break
        # release/hop = 50 frames
        assert crossing is not None and 49 <= crossing <= 51

    def test_coefficients(self):
        st = DrcState(StftConfig())
        assert abs(st.attack_coeff - 0.92311635) < 1e-7
        assert abs(st.release_coeff - 0.98019867) < 1e-7


class TestListenerFitting:
    def test_composition_matches_manual_chain(self):
        audiogram = Audiogram.flat(30.0)
        fit = ListenerFitting(audiogram)
        manual = DrcState()
        spectrum = np.fft.rfft(design_fir(nalr_gains(audiogram)), 512)
        rng = np.random.default_rng(4)
        for _ in range(5):
            frame = rng.standard_normal(257) + 1j * rng.standard_normal(257)
            a = fit.step(frame)
            b = manual.step(frame * spectrum)
            assert np.array_equal(a, b)

    def test_frame_shape_preserved(self):
        fit = ListenerFitting(Audiogram.flat(40.0))
        out = fit.step(np.ones(257, dtype=complex))
        assert out.shape == (257,)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
LISTENER_KEYS = ("audiogram_cfs", "audiogram_levels_l", "audiogram_levels_r")
LISTENER_FIELD = JSON_VALUES | st.lists(
    st.sampled_from(CATALOGUE_CFS) | st.floats(-20.0, 130.0), max_size=9
)


@st.composite
def near_listener_records(draw):
    """Records with increasing catalogue frequencies and one level per
    frequency, some out of range, and at times one field replaced."""
    cfs = sorted(draw(st.lists(st.sampled_from(CATALOGUE_CFS), min_size=1, unique=True)))
    level = st.integers(-15, 125) | st.floats(-15.0, 125.0)
    levels = st.lists(level, min_size=len(cfs), max_size=len(cfs))
    record = dict(zip(LISTENER_KEYS, (cfs, draw(levels), draw(levels))))
    key = draw(st.none() | st.sampled_from(LISTENER_KEYS))
    if key is not None:
        record[key] = draw(LISTENER_FIELD)
    return record


class TestListenerFile:
    def test_roundtrip(self, tmp_path):
        record = {
            "audiogram_cfs": list(CATALOGUE_CFS),
            "audiogram_levels_l": [10.0] * 8,
            "audiogram_levels_r": [20.0] * 8,
        }
        path = tmp_path / "listener.json"
        path.write_text(json.dumps(record))
        ears = load_listener(str(path))
        assert ears["left"].levels == (10.0,) * 8
        assert ears["right"].levels == (20.0,) * 8

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"audiogram_cfs": list(CATALOGUE_CFS)}))
        with pytest.raises(ValueError):
            load_listener(str(path))

    GOOD = {
        "audiogram_cfs": list(CATALOGUE_CFS),
        "audiogram_levels_l": [10.0] * 8,
        "audiogram_levels_r": [20.0] * 8,
    }

    @pytest.mark.parametrize(
        "text, field",
        [
            (json.dumps({**GOOD, "audiogram_cfs": 5}), "audiogram_cfs"),
            (json.dumps({**GOOD, "audiogram_levels_l": ["a"]}), "audiogram_levels_l"),
            (json.dumps({**GOOD, "audiogram_levels_r": [True] * 8}), "audiogram_levels_r"),
            (json.dumps({**GOOD, "audiogram_levels_r": [10**400] * 8}), "audiogram_levels_r"),
            (json.dumps({**GOOD, "audiogram_levels_l": [10.0] * 7}), "audiogram_levels_l"),
            (json.dumps({**GOOD, "audiogram_levels_r": [float("nan")] * 8}), "audiogram_levels_r"),
            (json.dumps({**GOOD, "audiogram_cfs": [250, 300]}), "audiogram_cfs"),
            (json.dumps({**GOOD, "audiogram_cfs": []}), "audiogram_cfs"),
            ("null", None),
            ("[1, 2]", None),
            (json.dumps(GOOD)[:-7], None),
            (b"\xff\xfe{}", None),
            ("[" * 100_000, None),
        ],
        ids=[
            "cfs_int", "level_str", "level_bool", "level_huge_int", "level_count",
            "level_nan", "cfs_off_catalogue", "cfs_empty", "null", "list", "truncated",
            "not_utf8", "nested_too_deep",
        ],
    )
    def test_malformed_record_names_file_and_field(self, tmp_path, text, field):
        path = tmp_path / "listener.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError) as exc:
            load_listener(str(path))
        assert str(path) in str(exc.value)
        if field is not None:
            assert repr(field) in str(exc.value)

    @settings(max_examples=300)  # about 1 s
    @given(
        record=JSON_VALUES
        | near_listener_records()
        | st.fixed_dictionaries({}, optional={key: LISTENER_FIELD for key in LISTENER_KEYS})
        | st.builds(
            dict,
            st.fixed_dictionaries({key: LISTENER_FIELD for key in LISTENER_KEYS}),
            extra=JSON_VALUES,
        ),
        cut=st.none() | st.integers(0, 200),
    )
    def test_any_json_loads_or_raises_one_value_error(self, record, cut):
        # every record either makes two audiograms or raises one ValueError
        # naming the file; cut truncates the text at that many characters
        text = json.dumps(record)[:cut]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "listener.json"
            path.write_text(text, encoding="utf-8")
            try:
                ears = load_listener(str(path))
            except ValueError as exc:
                assert str(path) in str(exc)
                return
        assert set(ears) == {"left", "right"}
        for ear, key in (("left", "audiogram_levels_l"), ("right", "audiogram_levels_r")):
            assert ears[ear] == Audiogram(tuple(record["audiogram_cfs"]), tuple(record[key]))
