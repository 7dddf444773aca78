"""Listener compensation: prescription gains, FIR equalizer, compressor.

The chain is frame-online: an 80-tap (``EQ_TAPS``) equalizer realized as a
per-bin complex multiply (one STFT frame in, one out), followed by a
broadband dynamic range compressor whose state advances one frame per call.
Both are built for one ``StftConfig``: the equalizer's DFT size and the
compressor's hop time come from it. The equalizer contributes a fixed
12-sample (``EQ_DELAY``, 0.375 ms) group delay on top of the enhancement
path; it is reported separately by the latency checker.

Prescription formula: insertion gain IG(f) = X + 0.31 * HTL(f) + k(f) with
X = 0.05 * (HTL_500 + HTL_1000 + HTL_2000) and the standard frequency
corrections k(f). Gains are not clamped.

Filter design: weighted complex least squares over a dense log/linear grid
against the interpolated gain curve with a linear 12-sample delay term.
Plain frequency sampling plus a Hamming window cannot hit the prescription
at 250 Hz with only 80 taps at 32 kHz (the window mainlobe spans ~1.6 kHz),
so the catalogue frequencies are anchored with extra weight; a flat
prescription still yields an exact scaled delta. The short delay keeps the
circular-wrap error of the 512-point per-frame application under 0.5 %
relative RMS on white noise, where a half-length (40-sample) delay costs
nearly 3 %.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dsp import StftConfig

__all__ = [
    "Audiogram",
    "CATALOGUE_CFS",
    "DrcConfig",
    "DrcState",
    "EQ_DELAY",
    "EQ_TAPS",
    "ListenerFitting",
    "NalrPrescription",
    "design_fir",
    "drc_static_gain",
    "frame_level_db",
    "load_listener",
    "nalr_gains",
    "prescribe",
]

CATALOGUE_CFS = (250.0, 500.0, 1000.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0)

EQ_TAPS = 80  # equalizer length
EQ_DELAY = 12  # the equalizer's pure-delay term: its group delay, in samples

# frequency corrections k(f), dB
_NALR_K_DB = {
    250.0: -17.0,
    500.0: -8.0,
    1000.0: 1.0,
    2000.0: -1.0,
    3000.0: -2.0,
    4000.0: -2.0,
    6000.0: -2.0,
    8000.0: -2.0,
}


@dataclass(frozen=True)
class Audiogram:
    """Pure-tone hearing thresholds in dB HL at catalogue frequencies."""

    cfs: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        cfs = tuple(float(f) for f in self.cfs)
        levels = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "cfs", cfs)
        object.__setattr__(self, "levels", levels)
        if len(cfs) != len(levels) or not cfs:
            raise ValueError("audiogram needs matching, non-empty cfs and levels")
        if any(b <= a for a, b in zip(cfs, cfs[1:])):
            raise ValueError("audiogram frequencies must be strictly increasing")
        for f in cfs:
            if f not in _NALR_K_DB:
                raise ValueError(f"audiogram frequency {f} Hz outside the catalogue")
        for v in levels:
            if not -10.0 <= v <= 120.0:
                raise ValueError(f"hearing level {v} dB HL outside [-10, 120]")

    def level_at(self, cf: float) -> float:
        return self.levels[self.cfs.index(float(cf))]

    @classmethod
    def flat(cls, level_db: float) -> "Audiogram":
        return cls(CATALOGUE_CFS, (float(level_db),) * len(CATALOGUE_CFS))


def nalr_gains(audiogram: Audiogram) -> np.ndarray:
    """Insertion gains in dB, aligned with ``audiogram.cfs``."""
    for needed in (500.0, 1000.0, 2000.0):
        if needed not in audiogram.cfs:
            raise ValueError(f"audiogram is missing the {needed:.0f} Hz entry")
    x = 0.05 * sum(audiogram.level_at(f) for f in (500.0, 1000.0, 2000.0))
    return np.array(
        [x + 0.31 * htl + _NALR_K_DB[cf] for cf, htl in zip(audiogram.cfs, audiogram.levels)]
    )


def _interp_gain_curve(freqs_hz: np.ndarray, cfs, gains_db) -> np.ndarray:
    """dB gains linearly interpolated over log frequency, clamped outside."""
    cfs = np.asarray(cfs, dtype=np.float64)
    gains_db = np.asarray(gains_db, dtype=np.float64)
    with np.errstate(divide="ignore"):
        lf = np.log(np.maximum(freqs_hz, 1e-12))
    return np.interp(lf, np.log(cfs), gains_db, left=gains_db[0], right=gains_db[-1])


def design_fir(
    gains_db,
    cfs=CATALOGUE_CFS,
    *,
    taps: int = EQ_TAPS,
    fs: int = 32000,
    delay: int = EQ_DELAY,
    anchor_weight: float = 30.0,
) -> np.ndarray:
    """Equalizer taps for dB gains stated at ``cfs``.

    Weighted least squares against the interpolated curve with a pure
    ``delay``-sample delay term; relative (per-amplitude) weighting makes
    the residual behave like a dB error, and the stated frequencies get
    ``anchor_weight`` times more weight so the prescription is met where it
    is defined. A flat prescription solves exactly to a scaled delta.
    """
    gains_db = np.asarray(gains_db, dtype=np.float64)
    cfs_arr = np.asarray(cfs, dtype=np.float64)
    if gains_db.shape != cfs_arr.shape:
        raise ValueError(f"gains {gains_db.shape} and cfs {cfs_arr.shape} differ")
    if not np.all(np.isfinite(gains_db)):
        raise ValueError("prescription gains must be finite")
    if taps < 2 or taps % 2:
        raise ValueError(f"tap count must be a positive even number, got {taps}")
    if not 0 <= delay < taps:
        raise ValueError(f"delay must lie inside the tap span, got {delay}")
    f_log = np.geomspace(fs / 1024, fs / 2, 768)
    f_lin = np.arange(257) * fs / 512.0
    f = np.unique(np.concatenate([[0.0], f_log, f_lin, cfs_arr]))
    d = 10.0 ** (_interp_gain_curve(f, cfs_arr, gains_db) / 20.0)
    target = d * np.exp(-2j * np.pi * f * delay / fs)
    wgt = 1.0 / d
    wgt[np.isin(f, cfs_arr)] *= anchor_weight
    basis = np.exp(-2j * np.pi * np.outer(f, np.arange(taps)) / fs)
    a = np.vstack([basis.real * wgt[:, None], basis.imag * wgt[:, None]])
    b = np.concatenate([target.real * wgt, target.imag * wgt])
    taps_out, *_ = np.linalg.lstsq(a, b, rcond=None)
    return taps_out.astype(np.float64)


@dataclass(frozen=True)
class NalrPrescription:
    gains_db: np.ndarray
    fir: np.ndarray

    def __post_init__(self) -> None:
        if len(self.fir) != EQ_TAPS:
            raise ValueError(f"equalizer must have exactly {EQ_TAPS} taps, got {len(self.fir)}")
        if not np.all(np.isfinite(self.gains_db)):
            raise ValueError("prescription gains must be finite")


def prescribe(audiogram: Audiogram) -> NalrPrescription:
    gains = nalr_gains(audiogram)
    return NalrPrescription(gains, design_fir(gains, audiogram.cfs))


# -- dynamic range compression ------------------------------------------------


@dataclass(frozen=True)
class DrcConfig:
    """Broadband feed-forward compressor settings."""

    threshold_db: float = -40.0
    ratio: float = 1.2
    knee_width_db: float = 4.0
    attack_s: float = 0.05
    release_s: float = 0.2

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise ValueError(f"compression ratio must be >= 1, got {self.ratio}")
        if self.attack_s <= 0.0 or self.release_s <= 0.0:
            raise ValueError("attack and release times must be positive")
        if self.knee_width_db < 0.0:
            raise ValueError(f"knee width must be >= 0, got {self.knee_width_db}")


def drc_static_gain(level_db, cfg: DrcConfig = DrcConfig()):
    """Static compression gain in dB for an input level in dB (soft knee)."""
    level = np.asarray(level_db, dtype=np.float64)
    t, w, r = cfg.threshold_db, cfg.knee_width_db, cfg.ratio
    above = (t + (level - t) / r) - level
    if w > 0.0:
        knee = (1.0 / r - 1.0) * (level - t + w / 2.0) ** 2 / (2.0 * w)
        out = np.where(level < t - w / 2.0, 0.0, np.where(level <= t + w / 2.0, knee, above))
    else:
        out = np.where(level < t, 0.0, above)
    return out if out.ndim else float(out)


def frame_level_db(frame: np.ndarray, fft_size: int = 512) -> float:
    """Mean time-domain power of one analysis frame, in dB, floored at -120.

    Computed from the spectrum by Parseval: interior bins of a real DFT
    count twice.
    """
    frame = np.asarray(frame)
    weights = np.full(frame.shape[-1], 2.0)
    weights[0] = 1.0
    if fft_size % 2 == 0:
        weights[-1] = 1.0
    power = float(np.sum(weights * np.abs(frame) ** 2)) / fft_size**2
    return 10.0 * np.log10(max(power, 1e-12))


class DrcState:
    """Sequential compressor state: one smoothed broadband gain in dB.

    One step per frame of ``stft``, so the attack and release smoothing
    coefficients are exp(-hop time / time constant) for its hop.
    """

    def __init__(self, cfg: DrcConfig = DrcConfig(), stft: StftConfig = StftConfig()) -> None:
        self.cfg = cfg
        self.fft_size = stft.fft_size
        hop_s = stft.hop / stft.sample_rate
        self.attack_coeff = float(np.exp(-hop_s / cfg.attack_s))
        self.release_coeff = float(np.exp(-hop_s / cfg.release_s))
        self.gain_db = 0.0

    def step(self, frame: np.ndarray) -> np.ndarray:
        """Advance one frame: detect level, smooth the gain, apply it."""
        target = drc_static_gain(frame_level_db(frame, self.fft_size), self.cfg)
        # attack when the gain moves down (more compression), release up
        coeff = self.attack_coeff if target < self.gain_db else self.release_coeff
        self.gain_db = coeff * self.gain_db + (1.0 - coeff) * target
        return frame * 10.0 ** (self.gain_db / 20.0)


class ListenerFitting:
    """Per-frame equalizer plus compressor for one ear's audiogram, built
    for the frames of ``stft``."""

    def __init__(
        self,
        audiogram: Audiogram,
        drc: DrcConfig = DrcConfig(),
        *,
        stft: StftConfig = StftConfig(),
    ) -> None:
        self.stft = stft
        self.prescription = prescribe(audiogram)
        self.spectrum = np.fft.rfft(self.prescription.fir, stft.fft_size)
        self.drc = DrcState(drc, stft)

    def step(self, frame: np.ndarray) -> np.ndarray:
        """One STFT frame in, one fitted frame out; no frame retiming."""
        return self.drc.step(frame * self.spectrum)


def load_listener(path: str) -> dict[str, Audiogram]:
    """Listener record JSON -> audiograms keyed by ear ('left', 'right')."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    for key in ("audiogram_cfs", "audiogram_levels_l", "audiogram_levels_r"):
        if key not in record:
            raise ValueError(f"listener file {path} is missing field {key!r}")
    cfs = tuple(record["audiogram_cfs"])
    return {
        "left": Audiogram(cfs, tuple(record["audiogram_levels_l"])),
        "right": Audiogram(cfs, tuple(record["audiogram_levels_r"])),
    }
