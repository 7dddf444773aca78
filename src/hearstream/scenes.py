"""Deterministic synthetic multichannel scenes for the latency probe, the
benchmark and the CLI's ``simulate``.

A scene is an anechoic target source spatialized over the array (a
per-channel sample delay and gain) plus one white-noise interferer of the
same construction, scaled so the signal-to-noise ratio measured at the
reference channel equals the requested value exactly. The reference channel
is channel 0, as everywhere in the package; it carries the dry target with
no delay and unit gain. Everything is derived from one integer seed, so a
spec simulates to bit-identical audio on every call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .wavio import SAMPLE_RATE


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene.

    ``seed`` is an int >= 0 and ``channels`` an int >= 1 (not bools).
    ``snr_db`` is finite, or ``math.inf`` for a noise-free scene; NaN and
    -inf are rejected. ``duration_s`` must round to at least one sample.
    """

    seed: int = 0
    channels: int = 6
    duration_s: float = 2.0
    snr_db: float = 0.0

    def __post_init__(self) -> None:
        for name, least in (("seed", 0), ("channels", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
        if not (math.isfinite(self.duration_s) and self.samples >= 1):
            raise ValueError(f"duration_s must give at least one sample, got {self.duration_s}")
        if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
            raise ValueError(f"snr_db must be finite or inf, got {self.snr_db}")

    @property
    def samples(self) -> int:
        return int(round(self.duration_s * SAMPLE_RATE))


@dataclass(frozen=True)
class Scene:
    """Rendered audio: mixture [N, C], the target's image at the reference
    channel 0 (``target_ref``) and the dry target (``anechoic_target``).
    The scene is anechoic, so the two targets are equal."""

    mixture: np.ndarray
    target_ref: np.ndarray
    anechoic_target: np.ndarray


def _spatialize(source: np.ndarray, delays: np.ndarray, gains: np.ndarray) -> np.ndarray:
    n = len(source)
    out = np.zeros((n, len(delays)))
    for c, (d, g) in enumerate(zip(delays, gains)):
        out[d:, c] = g * source[: max(n - d, 0)]
    return out


def simulate_scene(spec: SceneSpec) -> Scene:
    """Render a scene; the same spec always yields bit-identical audio.

    The target is an amplitude-modulated white source. Away from the
    reference channel, each source's delays (1..8 samples) and gains (in
    [0.7, 1.0]) are drawn from the seed. With a finite snr_db the white-noise
    interferer is scaled so 10*log10(||target_ref||^2 / ||noise_ref||^2)
    equals snr_db exactly.
    """
    n = spec.samples
    rng = np.random.default_rng(spec.seed)

    # Slow envelope keeps the target non-stationary without silent gaps.
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * 1.5 * np.arange(n) / SAMPLE_RATE)
    target = rng.standard_normal(n) * envelope

    delays = rng.integers(1, 9, size=spec.channels)
    gains = rng.uniform(0.7, 1.0, size=spec.channels)
    delays[0] = 0
    gains[0] = 1.0
    target_img = _spatialize(target, delays, gains)
    mixture = target_img

    if spec.snr_db != math.inf:
        noise = rng.standard_normal(n)
        n_delays = rng.integers(1, 9, size=spec.channels)
        n_gains = rng.uniform(0.7, 1.0, size=spec.channels)
        noise_img = _spatialize(noise, n_delays, n_gains)
        ref_t = float(np.sum(target_img[:, 0] ** 2))
        ref_n = float(np.sum(noise_img[:, 0] ** 2))
        if ref_n <= 0:
            raise ValueError("interferer is silent at the reference channel")
        scale = math.sqrt(ref_t / ref_n) * 10.0 ** (-spec.snr_db / 20.0)
        mixture = target_img + scale * noise_img

    return Scene(
        mixture=mixture,
        target_ref=target_img[:, 0].copy(),
        anechoic_target=target,
    )
