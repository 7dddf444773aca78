"""Synthetic scene generator: determinism, SNR calibration, geometry."""

import math

import numpy as np
import pytest

from hearstream.scenes import Scene, SceneSpec, simulate_scene


def measured_snr_db(scene: Scene, ref: int) -> float:
    noise = scene.mixture[:, ref] - scene.target_ref
    return 10.0 * math.log10(
        float(np.sum(scene.target_ref**2)) / float(np.sum(noise**2))
    )


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = SceneSpec()
        assert spec.channels == 6
        assert spec.samples == 64000

    def test_bad_channels(self):
        with pytest.raises(ValueError):
            SceneSpec(channels=0)

    def test_bad_duration(self):
        # 1e-5 s rounds to 0 samples at 32 kHz
        for duration_s in (0.0, -1.0, 1e-5, math.nan, math.inf):
            with pytest.raises(ValueError, match="duration_s"):
                SceneSpec(duration_s=duration_s)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_bad_snr(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            SceneSpec(snr_db=snr_db)


class TestRendering:
    def test_shapes(self):
        scene = simulate_scene(SceneSpec(seed=3, channels=4, duration_s=0.5))
        assert scene.mixture.shape == (16000, 4)
        assert scene.target_ref.shape == (16000,)
        assert scene.anechoic_target.shape == (16000,)
        assert np.all(np.isfinite(scene.mixture))

    def test_shorter_than_the_channel_delays(self):
        # 5 samples, delays up to 8: late channels stay silent
        scene = simulate_scene(
            SceneSpec(seed=0, channels=6, duration_s=5 / 32000, snr_db=math.inf)
        )
        assert scene.mixture.shape == (5, 6)
        assert np.array_equal(scene.mixture[:, 0], scene.anechoic_target)

    def test_same_seed_bit_identical(self):
        spec = SceneSpec(seed=11, channels=3, duration_s=0.4)
        a = simulate_scene(spec)
        b = simulate_scene(spec)
        assert np.array_equal(a.mixture, b.mixture)
        assert np.array_equal(a.target_ref, b.target_ref)
        assert np.array_equal(a.anechoic_target, b.anechoic_target)

    def test_different_seeds_differ(self):
        a = simulate_scene(SceneSpec(seed=0, duration_s=0.25))
        b = simulate_scene(SceneSpec(seed=1, duration_s=0.25))
        assert not np.array_equal(a.mixture, b.mixture)

    def test_noise_free_reference_equals_target(self):
        scene = simulate_scene(
            SceneSpec(seed=5, channels=2, duration_s=0.3, snr_db=math.inf)
        )
        assert np.array_equal(scene.mixture[:, 0], scene.target_ref)

    def test_reference_channel_is_unmodified_target_when_anechoic(self):
        for snr_db in (0.0, math.inf):
            scene = simulate_scene(
                SceneSpec(seed=5, channels=2, duration_s=0.3, snr_db=snr_db)
            )
            assert np.array_equal(scene.target_ref, scene.anechoic_target)

    def test_snr_zero_db_calibrated(self):
        scene = simulate_scene(SceneSpec(seed=2, channels=2, duration_s=0.5, snr_db=0.0))
        assert abs(measured_snr_db(scene, 0)) <= 0.1

    def test_snr_ten_db_calibrated(self):
        scene = simulate_scene(
            SceneSpec(seed=2, channels=3, duration_s=0.5, snr_db=10.0)
        )
        assert abs(measured_snr_db(scene, 0) - 10.0) <= 0.1

    def test_custom_geometry(self):
        # away from the reference, channel c is the dry target delayed by
        # 1..8 samples and scaled by a gain in [0.7, 1.0], both seeded
        scene = simulate_scene(
            SceneSpec(seed=4, channels=4, duration_s=0.2, snr_db=math.inf)
        )
        t = scene.anechoic_target
        for c in range(1, 4):
            y = scene.mixture[:, c]
            d = int(np.flatnonzero(y)[0])
            assert 1 <= d <= 8
            assert not np.any(y[:d])
            gain = y[d] / t[0]
            assert 0.7 <= gain <= 1.0
            np.testing.assert_allclose(y[d:], gain * t[: len(t) - d], rtol=1e-12, atol=0)
