"""Synthetic scene generator: determinism, SNR calibration, geometry."""

import math

import numpy as np
import pytest

from hearstream.scenes import MAX_RIR_LENGTH, Scene, SceneSpec, simulate_scene


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
        with pytest.raises(ValueError):
            SceneSpec(duration_s=0.0)

    def test_bad_interferer(self):
        with pytest.raises(ValueError):
            SceneSpec(interferer="hum")

    def test_rir_too_long(self):
        with pytest.raises(ValueError):
            SceneSpec(rir_length=MAX_RIR_LENGTH + 1)

    def test_geometry_length_mismatch(self):
        with pytest.raises(ValueError):
            SceneSpec(channels=2, target_delays=(0, 1, 2))
        with pytest.raises(ValueError):
            SceneSpec(channels=2, target_gains=(1.0,))


class TestRendering:
    def test_shapes(self):
        scene = simulate_scene(SceneSpec(seed=3, channels=4, duration_s=0.5))
        assert scene.mixture.shape == (16000, 4)
        assert scene.target_ref.shape == (16000,)
        assert scene.anechoic_target.shape == (16000,)
        assert np.all(np.isfinite(scene.mixture))

    def test_same_seed_bit_identical(self):
        spec = SceneSpec(seed=11, channels=3, duration_s=0.4, rir_length=256)
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
        for snr in (None, math.inf):
            scene = simulate_scene(
                SceneSpec(seed=5, channels=2, duration_s=0.3, snr_db=snr)
            )
            assert np.array_equal(scene.mixture[:, 0], scene.target_ref)

    def test_reference_channel_is_unmodified_target_when_anechoic(self):
        scene = simulate_scene(
            SceneSpec(seed=5, channels=2, duration_s=0.3, snr_db=None)
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

    def test_snr_holds_with_rir(self):
        scene = simulate_scene(
            SceneSpec(seed=9, channels=2, duration_s=0.5, snr_db=5.0, rir_length=512)
        )
        assert abs(measured_snr_db(scene, 0) - 5.0) <= 0.1

    def test_custom_geometry(self):
        scene = simulate_scene(
            SceneSpec(
                seed=4,
                channels=2,
                duration_s=0.2,
                snr_db=None,
                target_delays=(0, 5),
                target_gains=(1.0, 0.5),
            )
        )
        t = scene.anechoic_target
        expected = np.zeros_like(t)
        expected[5:] = 0.5 * t[:-5]
        assert np.array_equal(scene.mixture[:, 1], expected)

    def test_tonal_sweep_differs_from_white(self):
        white = simulate_scene(SceneSpec(seed=6, channels=2, duration_s=0.25))
        sweep = simulate_scene(
            SceneSpec(seed=6, channels=2, duration_s=0.25, interferer="tonal_sweep")
        )
        assert np.array_equal(white.target_ref, sweep.target_ref)
        assert not np.array_equal(white.mixture, sweep.mixture)

    def test_rir_changes_mixture(self):
        dry = simulate_scene(SceneSpec(seed=7, channels=2, duration_s=0.25))
        wet = simulate_scene(SceneSpec(seed=7, channels=2, duration_s=0.25, rir_length=400))
        assert not np.array_equal(dry.mixture, wet.mixture)
