"""Streaming STFT: windowing, analysis, synthesis, causality harness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hearstream.dsp import (
    CausalityReport,
    StftConfig,
    StreamingAnalyzer,
    StreamingSynthesizer,
    causality_check,
    istft_frames,
    sqrt_hann,
)

CFG = StftConfig()

# Frozen by brute-force shifted-sum of w^2 over one hop period (75 % overlap).
COLA = 2.0
# Frozen by direct summation of the 512-point sqrt periodic Hann window.
WINDOW_SUM = 325.94830079770134


class TestWindow:
    def test_win4_closed_form(self):
        assert_allclose(sqrt_hann(4), [0.0, np.sqrt(0.5), 1.0, np.sqrt(0.5)], atol=1e-12)

    def test_win2(self):
        assert_allclose(sqrt_hann(2), [0.0, 1.0], atol=0)

    def test_cola_constant(self):
        w2 = sqrt_hann(512) ** 2
        s = np.zeros(128)
        for k in range(4):
            s += w2[k * 128 : (k + 1) * 128]
        assert_allclose(s, COLA, rtol=0, atol=1e-12)
        assert_allclose(CFG.cola_constant, COLA, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "win, hop", [(32, 16), (64, 16), (96, 32), (256, 32), (512, 128), (1024, 256)]
    )
    def test_cola_constant_matches_shifted_sum(self, win, hop):
        # the closed form win / (2 * hop) against the brute-force sum of
        # win / hop shifted copies of w^2 over one hop period
        w2 = sqrt_hann(win) ** 2
        s = sum(w2[k * hop : (k + 1) * hop] for k in range(win // hop))
        assert_allclose(s, StftConfig(win=win, hop=hop).cola_constant, rtol=0, atol=1e-12)

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            sqrt_hann(1)
        with pytest.raises(ValueError):
            sqrt_hann(511)

    def test_values_in_unit_range(self):
        w = sqrt_hann(512)
        assert w.min() >= 0.0 and w.max() <= 1.0


class TestConfig:
    def test_defaults(self):
        assert CFG.bins == 257
        assert CFG.warmup == 384
        assert CFG.win == 512
        assert CFG.lookahead == 3
        assert CFG.lookahead * CFG.hop == CFG.warmup

    def test_hop_must_divide_win(self):
        with pytest.raises(ValueError):
            StftConfig(win=512, hop=100)

    def test_hop_equal_to_win_rejected(self):
        # one window per hop has no overlap, so its overlap-add is not constant
        with pytest.raises(ValueError, match="at least twice"):
            StftConfig(win=512, hop=512)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_rate", float("nan")),
            ("sample_rate", -32000),
            ("sample_rate", 0),
            ("win", 512.0),
            ("hop", True),
        ],
        ids=["nan_rate", "negative_rate", "zero_rate", "float_win", "bool_hop"],
    )
    def test_bad_setting_rejected(self, field, value):
        # a NaN rate once reached LAPACK in the fitting design, a negative
        # one designed a nonsense equalizer, 0 failed with a bare NumPy
        # message, and a float window failed in the analyzer
        with pytest.raises(ValueError, match=f"^{field} must be"):
            StftConfig(**{field: value})


class TestAnalyzer:
    def test_zero_input_zero_frame(self):
        an = StreamingAnalyzer(CFG, channels=2)
        f = an.push(np.zeros((128, 2)))
        assert f.shape == (257, 2)
        assert np.all(f == 0)

    def test_dc_after_warmup(self):
        # After win samples of DC 1.0 the frame is the DFT of the window itself.
        an = StreamingAnalyzer(CFG)
        for _ in range(4):
            f = an.push(np.ones(128))
        expected = np.fft.rfft(sqrt_hann(512))
        assert_allclose(np.abs(f[0, 0]), WINDOW_SUM, rtol=0, atol=1e-9)
        assert_allclose(f[:, 0], expected, atol=1e-9)

    def test_impulse_frame(self):
        # Impulse at p lands at offset q of the frame starting at (t+1)*hop - win;
        # that frame's spectrum is w[q] * exp(-2j*pi*k*q/512).
        p = 1000
        x = np.zeros(4096)
        x[p] = 1.0
        an = StreamingAnalyzer(CFG)
        frames = an.analyze(x)
        t = 9
        q = p - ((t + 1) * 128 - 512)
        k = np.arange(257)
        pred = sqrt_hann(512)[q] * np.exp(-2j * np.pi * k * q / 512)
        assert_allclose(frames[t, :, 0], pred, atol=1e-12)

    def test_block_shape_checked(self):
        an = StreamingAnalyzer(CFG)
        with pytest.raises(ValueError):
            an.push(np.zeros(127))
        with pytest.raises(ValueError):
            an.push(np.zeros((128, 3)))

    def test_streaming_matches_one_shot(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2048, 2))
        one_shot = StreamingAnalyzer(CFG, channels=2).analyze(x)
        an = StreamingAnalyzer(CFG, channels=2)
        blockwise = np.stack([an.push(x[t * 128 : (t + 1) * 128]) for t in range(16)])
        assert_array_equal(one_shot, blockwise)

    def test_matches_vectorized_framing(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(2048)
        frames = StreamingAnalyzer(CFG).analyze(x)[:, :, 0]
        xp = np.concatenate([np.zeros(384), x])
        w = sqrt_hann(512)
        for t in range(16):
            ref = np.fft.rfft(w * xp[t * 128 : t * 128 + 512])
            assert_allclose(frames[t], ref, atol=1e-12)


class TestSynthesizer:
    def test_zero_frames_zero_output(self):
        sy = StreamingSynthesizer(CFG)
        out = sy.push(np.zeros(257, dtype=complex))
        assert np.all(out == 0)

    def test_constant_window_frames_give_unit_dc(self):
        # OLA of w^2 shifts divided by the COLA constant is exactly 1 after warm-up.
        frame = np.fft.rfft(sqrt_hann(512))
        out = istft_frames(np.tile(frame, (12, 1)), CFG)
        assert_allclose(out[CFG.warmup :], 1.0, rtol=0, atol=1e-12)

    def test_roundtrip_white_noise(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(32000)
        frames = StreamingAnalyzer(CFG).analyze(x)[:, :, 0]
        y = istft_frames(frames, CFG)
        d = CFG.warmup
        num = np.sqrt(np.mean((y[d:] - x[: len(y) - d]) ** 2))
        den = np.sqrt(np.mean(x[: len(y) - d] ** 2))
        assert num / den <= 1e-6

    def test_frame_shape_checked(self):
        sy = StreamingSynthesizer(CFG)
        with pytest.raises(ValueError):
            sy.push(np.zeros(256, dtype=complex))


def _identity_chain(x):
    """hop-in/hop-out analysis->synthesis chain; delays by win - hop samples."""
    an = StreamingAnalyzer(CFG)
    sy = StreamingSynthesizer(CFG)
    out = []
    for t in range(len(x) // 128):
        f = an.push(x[t * 128 : (t + 1) * 128])
        out.append(sy.push(f[:, 0]))
    return np.concatenate(out)


class TestCausalityCheck:
    def test_identity_processor(self):
        x = np.random.default_rng(3).standard_normal(4096)
        rep = causality_check(lambda v: v.copy(), x, n=1000, budget_samples=0, baseline=x)
        assert isinstance(rep, CausalityReport)
        assert rep.first_diff_index == 1000
        assert rep.passed
        assert "pass" in str(rep)

    def test_lookahead_processor_detected(self):
        # 256-sample moving average over future samples: violates a 128 budget.
        def peek(v):
            vp = np.concatenate([v, np.zeros(256)])
            c = np.cumsum(vp)
            return (c[256:] - c[:-256]) / 256.0

        x = np.random.default_rng(4).standard_normal(4096)
        rep = causality_check(peek, x, n=2000, budget_samples=128, baseline=peek(x))
        assert not rep.passed
        assert rep.first_diff_index is not None and rep.first_diff_index < 2000 - 128
        assert "FAIL" in str(rep)

    def test_stft_chain_meets_hop_budget(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8000)
        base = _identity_chain(x)
        for n in rng.integers(256, 7800, size=20):
            rep = causality_check(
                _identity_chain, x, n=int(n), budget_samples=CFG.hop, baseline=base
            )
            assert rep.passed, str(rep)

    def test_bad_perturb_index(self):
        with pytest.raises(ValueError):
            causality_check(lambda v: v, np.zeros(64), n=0, budget_samples=0, baseline=np.zeros(64))
