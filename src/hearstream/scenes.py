"""Deterministic synthetic multichannel scenes for tests and demos.

A scene is a target source spatialized over the array (per-channel sample
delay and gain, optionally a short exponentially decaying random impulse
response per channel) plus one interferer of the same spatial construction,
scaled so the signal-to-noise ratio measured at the reference channel equals
the requested value exactly. The reference channel is channel 0, as
everywhere in the package. Everything is derived from one integer seed, so
a spec simulates to bit-identical audio on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavio import SAMPLE_RATE

MAX_RIR_LENGTH = 2048
_INTERFERERS = ("white_noise", "tonal_sweep")


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene.

    ``snr_db`` may be ``math.inf`` (or ``None``) for a noise-free scene.
    ``target_delays``/``target_gains`` override the seeded per-channel
    spatialization; the reference channel 0 defaults to delay 0, unit gain.
    ``rir_length`` of 0 keeps the scene anechoic.
    """

    seed: int = 0
    channels: int = 6
    duration_s: float = 2.0
    snr_db: float | None = 0.0
    interferer: str = "white_noise"
    rir_length: int = 0
    target_delays: tuple[int, ...] | None = None
    target_gains: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.interferer not in _INTERFERERS:
            raise ValueError(f"interferer must be one of {_INTERFERERS}")
        if not 0 <= self.rir_length <= MAX_RIR_LENGTH:
            raise ValueError(f"rir_length must be in [0, {MAX_RIR_LENGTH}]")
        for name in ("target_delays", "target_gains"):
            value = getattr(self, name)
            if value is not None and len(value) != self.channels:
                raise ValueError(f"{name} must list one entry per channel")

    @property
    def samples(self) -> int:
        return int(round(self.duration_s * SAMPLE_RATE))

    @property
    def noise_free(self) -> bool:
        return self.snr_db is None or math.isinf(self.snr_db)


@dataclass(frozen=True)
class Scene:
    """Rendered audio: mixture [N, C], the target's image at the reference
    channel 0 (``target_ref``) and the dry target (``anechoic_target``)."""

    mixture: np.ndarray
    target_ref: np.ndarray
    anechoic_target: np.ndarray


def _source(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "white_noise":
        return rng.standard_normal(n)
    # Tonal sweep: 200 Hz to 8 kHz over the scene, fixed amplitude.
    t = np.arange(n) / SAMPLE_RATE
    total = n / SAMPLE_RATE
    return np.sin(2 * np.pi * (200.0 * t + (8000.0 - 200.0) * t**2 / (2 * total)))


def _spatialize(
    source: np.ndarray,
    delays: np.ndarray,
    gains: np.ndarray,
    rirs: np.ndarray | None,
) -> np.ndarray:
    n = len(source)
    out = np.zeros((n, len(delays)))
    for c, (d, g) in enumerate(zip(delays, gains)):
        x = np.zeros(n)
        x[d:] = g * source[: n - d]
        if rirs is not None:
            x = np.convolve(x, rirs[c])[:n]
        out[:, c] = x
    return out


def simulate_scene(spec: SceneSpec) -> Scene:
    """Render a scene; the same spec always yields bit-identical audio.

    The target is an amplitude-modulated white source. Channel geometry not
    pinned by the spec is drawn from the seed: delays 1..8 samples and gains
    in [0.7, 1.0] away from the reference channel. The interferer gets its
    own geometry and, with the scene's snr_db finite, is scaled so
    10*log10(||target_ref||^2 / ||noise_ref||^2) equals snr_db exactly.
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
    if spec.target_delays is not None:
        delays = np.asarray(spec.target_delays, dtype=int)
    if spec.target_gains is not None:
        gains = np.asarray(spec.target_gains, dtype=float)

    rirs_t = rirs_i = None
    if spec.rir_length:
        decay = np.exp(-5.0 * np.arange(spec.rir_length) / spec.rir_length)
        rirs_t = rng.standard_normal((spec.channels, spec.rir_length)) * decay
        rirs_t[:, 0] = 1.0  # direct path first, unit tap
        rirs_t[:, 1:] *= 0.3
        rirs_i = rng.standard_normal((spec.channels, spec.rir_length)) * decay
        rirs_i[:, 0] = 1.0
        rirs_i[:, 1:] *= 0.3

    target_img = _spatialize(target, delays, gains, rirs_t)
    mixture = target_img.copy()

    if not spec.noise_free:
        noise = _source(spec.interferer, n, rng)
        n_delays = rng.integers(1, 9, size=spec.channels)
        n_gains = rng.uniform(0.7, 1.0, size=spec.channels)
        noise_img = _spatialize(noise, n_delays, n_gains, rirs_i)
        ref_t = float(np.sum(target_img[:, 0] ** 2))
        ref_n = float(np.sum(noise_img[:, 0] ** 2))
        if ref_n <= 0:
            raise ValueError("interferer is silent at the reference channel")
        scale = math.sqrt(ref_t / ref_n) * 10.0 ** (-float(spec.snr_db) / 20.0)
        mixture = target_img + scale * noise_img

    return Scene(
        mixture=mixture,
        target_ref=target_img[:, 0].copy(),
        anechoic_target=target,
    )
