"""Metric tests against independently coded brute-force oracles."""

import math

import numpy as np
import pytest

from hearstream.metrics import multires_si_loss, si_sdr, si_sdri


def oracle_si_sdr(est, ref, cap=60.0):
    # deliberately scalar-loop implementation, no shared code path
    dot = sum(float(e) * float(r) for e, r in zip(est, ref))
    ref_sq = sum(float(r) ** 2 for r in ref)
    scale = dot / ref_sq
    num = sum((scale * float(r)) ** 2 for r in ref)
    den = sum((float(e) - scale * float(r)) ** 2 for e, r in zip(est, ref))
    if den == 0.0:
        return cap
    if num == 0.0:
        return -cap
    return max(-cap, min(cap, 10.0 * math.log10(num / den)))


def oracle_multires(est, ref, windows=(512, 1024, 2048, 256, 128)):
    est = [float(v) for v in est]
    ref = [float(v) for v in ref]
    ee = sum(v * v for v in est)
    alpha = sum(e * r for e, r in zip(est, ref)) / ee if ee > 0 else 0.0
    scaled = [alpha * v for v in est]
    loss = sum(abs(s - r) for s, r in zip(scaled, ref)) / sum(abs(r) for r in ref)
    for win in windows:
        if len(ref) < win:
            continue
        w = [math.sin(math.pi * q / win) for q in range(win)]
        hop = win // 2
        mags_e, mags_r = [], []
        start = 0
        while start + win <= len(ref):
            fe = np.fft.rfft([w[q] * scaled[start + q] for q in range(win)])
            fr = np.fft.rfft([w[q] * ref[start + q] for q in range(win)])
            mags_e.append(np.abs(fe))
            mags_r.append(np.abs(fr))
            start += hop
        num = sum(float(np.sum(np.abs(a - b))) for a, b in zip(mags_e, mags_r))
        den = sum(float(np.sum(b)) for b in mags_r)
        loss += num / den
    return loss


class TestSiSdr:
    def test_identical_hits_cap(self):
        x = np.array([0.3, -0.2, 0.9])
        assert si_sdr(x, x) == 60.0

    def test_scaled_hits_cap(self):
        x = np.array([0.3, -0.2, 0.9])
        assert si_sdr(2.0 * x, x) == 60.0
        for a in (0.1, 0.5, 7.0):
            assert si_sdr(a * x, x) == 60.0

    def test_hand_projection_zero_db(self):
        assert si_sdr(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_orthogonal_hits_negative_cap(self):
        assert si_sdr(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == -60.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            si_sdr(np.ones(4), np.zeros(4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            si_sdr(np.ones(4), np.ones(5))

    def test_permutation_covariant(self):
        rng = np.random.default_rng(0)
        est, ref = rng.standard_normal(64), rng.standard_normal(64)
        perm = rng.permutation(64)
        assert si_sdr(est, ref) == pytest.approx(si_sdr(est[perm], ref[perm]), abs=1e-10)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            est = rng.standard_normal(200)
            ref = rng.standard_normal(200)
            assert si_sdr(est, ref) == pytest.approx(oracle_si_sdr(est, ref), abs=1e-6)


class TestSiSdri:
    def test_mixture_as_estimate_is_zero(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal(100)
        mix = ref + rng.standard_normal(100)
        assert si_sdri(mix, mix, ref) == 0.0

    def test_perfect_estimate(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal(100)
        mix = ref + 0.5 * rng.standard_normal(100)
        assert si_sdri(ref, mix, ref) == pytest.approx(60.0 - si_sdr(mix, ref), abs=1e-12)

    def test_known_snr_scene(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(32000)
        noise = rng.standard_normal(32000)
        noise *= np.linalg.norm(ref) / np.linalg.norm(noise)  # 0 dB
        mix = ref + noise
        got = si_sdri(ref + 0.1 * noise, mix, ref)
        want = oracle_si_sdr(ref + 0.1 * noise, ref) - oracle_si_sdr(mix, ref)
        assert got == pytest.approx(want, abs=1e-6)


class TestMultires:
    def test_identical_zero(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4096)
        assert multires_si_loss(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_positive_scaling_zero(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(4096)
        for c in (0.01, 3.0, 250.0):
            assert multires_si_loss(c * x, x) == pytest.approx(0.0, abs=1e-9)

    def test_distinct_pair_positive(self):
        rng = np.random.default_rng(7)
        assert multires_si_loss(rng.standard_normal(4096), rng.standard_normal(4096)) > 0.1

    def test_seed7_pair_matches_oracle(self):
        rng = np.random.default_rng(7)
        est = rng.standard_normal(4096)
        ref = rng.standard_normal(4096)
        assert multires_si_loss(est, ref) == pytest.approx(oracle_multires(est, ref), abs=1e-6)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(300, 3000))
            est = rng.standard_normal(n)
            ref = rng.standard_normal(n)
            got = multires_si_loss(est, ref)
            want = oracle_multires(est, ref)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            multires_si_loss(np.ones(256), np.zeros(256))

    def test_zero_estimate_defined(self):
        # alpha* collapses to 0; every normalized term contributes 1
        ref = np.random.default_rng(9).standard_normal(4096)
        loss = multires_si_loss(np.zeros(4096), ref)
        assert loss == pytest.approx(6.0, abs=1e-9)

    def test_short_signal_skips_long_windows(self):
        rng = np.random.default_rng(10)
        est, ref = rng.standard_normal(200), rng.standard_normal(200)
        # only the 128 window fits
        got = multires_si_loss(est, ref)
        want = oracle_multires(est, ref, windows=(128,))
        assert got == pytest.approx(want, abs=1e-9)
