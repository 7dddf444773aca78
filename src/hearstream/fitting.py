"""Listener compensation: prescription gains, FIR equalizer, compressor.

The chain is frame-online: an 80-tap (``EQ_TAPS``) equalizer realized as a
per-bin complex multiply (one STFT frame in, one out), followed by a
broadband dynamic range compressor whose state advances one frame per call.
Both are built for one ``StftConfig``, which sets the equalizer's design
rate and DFT size and the compressor's hop time. The equalizer contributes a
fixed 12-sample (``EQ_DELAY``, 0.375 ms at 32 kHz) group delay on top of the
enhancement path; it is reported separately by the latency checker.

Prescription formula: insertion gain IG(f) = X + 0.31 * HTL(f) + k(f) with
X = 0.05 * (HTL_500 + HTL_1000 + HTL_2000) and the standard frequency
corrections k(f). Gains are not clamped.

Filter design: weighted complex least squares over a dense log grid plus
the DFT bins of the ``StftConfig`` against the interpolated gain curve with
a linear 12-sample delay term.
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
import sys
from dataclasses import dataclass

import numpy as np

from .dsp import StftConfig

__all__ = [
    "Audiogram",
    "CATALOGUE_CFS",
    "DRC_ATTACK_S",
    "DRC_KNEE_DB",
    "DRC_RATIO",
    "DRC_RELEASE_S",
    "DRC_THRESHOLD_DB",
    "DrcState",
    "EQ_DELAY",
    "EQ_TAPS",
    "ListenerFitting",
    "design_fir",
    "drc_static_gain",
    "frame_level_db",
    "load_listener",
    "nalr_gains",
]

CATALOGUE_CFS = (250.0, 500.0, 1000.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0)

EQ_TAPS = 80  # equalizer length
EQ_DELAY = 12  # the equalizer's pure-delay term: its group delay, in samples
_ANCHOR_WEIGHT = 30.0  # extra least-squares weight on the stated frequencies

# broadband compressor: soft knee around the threshold, then a fixed ratio
DRC_THRESHOLD_DB = -40.0
DRC_RATIO = 1.2
DRC_KNEE_DB = 4.0  # knee width
DRC_ATTACK_S = 0.05
DRC_RELEASE_S = 0.2

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


def design_fir(gains_db, cfs=CATALOGUE_CFS, stft: StftConfig = StftConfig()) -> np.ndarray:
    """``EQ_TAPS`` equalizer taps for dB gains stated at ``cfs``, at ``stft``'s rate.

    Weighted least squares against the interpolated curve with a pure
    ``EQ_DELAY``-sample delay term, over a log grid and the DFT bins of
    ``stft``; relative (per-amplitude) weighting makes the residual behave
    like a dB error, and the stated frequencies get ``_ANCHOR_WEIGHT`` times
    more weight so the prescription is met where it is defined. A flat
    prescription solves exactly to a scaled delta.
    """
    gains_db = np.asarray(gains_db, dtype=np.float64)
    cfs_arr = np.asarray(cfs, dtype=np.float64)
    if gains_db.shape != cfs_arr.shape:
        raise ValueError(f"gains {gains_db.shape} and cfs {cfs_arr.shape} differ")
    if not np.all(np.isfinite(gains_db)):
        raise ValueError("prescription gains must be finite")
    fs, n = stft.sample_rate, stft.fft_size
    f_log = np.geomspace(fs / (2 * n), fs / 2, 768)
    f_lin = np.arange(stft.bins) * fs / float(n)
    f = np.unique(np.concatenate([[0.0], f_log, f_lin, cfs_arr]))
    d = 10.0 ** (_interp_gain_curve(f, cfs_arr, gains_db) / 20.0)
    target = d * np.exp(-2j * np.pi * f * EQ_DELAY / fs)
    wgt = 1.0 / d
    wgt[np.isin(f, cfs_arr)] *= _ANCHOR_WEIGHT
    basis = np.exp(-2j * np.pi * np.outer(f, np.arange(EQ_TAPS)) / fs)
    a = np.vstack([basis.real * wgt[:, None], basis.imag * wgt[:, None]])
    b = np.concatenate([target.real * wgt, target.imag * wgt])
    taps_out, *_ = np.linalg.lstsq(a, b, rcond=None)
    return taps_out.astype(np.float64)


# -- dynamic range compression ------------------------------------------------


def drc_static_gain(level_db):
    """Static compression gain in dB for an input level in dB (soft knee)."""
    level = np.asarray(level_db, dtype=np.float64)
    t, w, r = DRC_THRESHOLD_DB, DRC_KNEE_DB, DRC_RATIO
    above = (t + (level - t) / r) - level
    knee = (1.0 / r - 1.0) * (level - t + w / 2.0) ** 2 / (2.0 * w)
    out = np.where(level < t - w / 2.0, 0.0, np.where(level <= t + w / 2.0, knee, above))
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

    def __init__(self, stft: StftConfig = StftConfig()) -> None:
        self.fft_size = stft.fft_size
        hop_s = stft.hop / stft.sample_rate
        self.attack_coeff = float(np.exp(-hop_s / DRC_ATTACK_S))
        self.release_coeff = float(np.exp(-hop_s / DRC_RELEASE_S))
        self.gain_db = 0.0

    def step(self, frame: np.ndarray) -> np.ndarray:
        """Advance one frame: detect level, smooth the gain, apply it."""
        target = drc_static_gain(frame_level_db(frame, self.fft_size))
        # attack when the gain moves down (more compression), release up
        coeff = self.attack_coeff if target < self.gain_db else self.release_coeff
        self.gain_db = coeff * self.gain_db + (1.0 - coeff) * target
        return frame * 10.0 ** (self.gain_db / 20.0)


class ListenerFitting:
    """Per-frame equalizer plus compressor for one ear's audiogram, built
    for the frames of ``stft``; ``fir`` holds the equalizer's taps."""

    def __init__(self, audiogram: Audiogram, *, stft: StftConfig = StftConfig()) -> None:
        self.stft = stft
        self.fir = design_fir(nalr_gains(audiogram), audiogram.cfs, stft)
        self.spectrum = np.fft.rfft(self.fir, stft.fft_size)
        self.drc = DrcState(stft)

    def step(self, frame: np.ndarray) -> np.ndarray:
        """One STFT frame in, one fitted frame out; no frame retiming."""
        return self.drc.step(frame * self.spectrum)


def load_listener(path: str) -> dict[str, Audiogram]:
    """Listener record JSON -> audiograms keyed by ear ('left', 'right').

    A file that is not UTF-8 JSON, a record that is not an object, and a
    field that is missing, is not a list of numbers or does not make an
    ``Audiogram`` each raise one ValueError naming the file and the field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"listener file {path} is not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"listener file {path} must hold a JSON object")
    fields = {}
    for key in ("audiogram_cfs", "audiogram_levels_l", "audiogram_levels_r"):
        if key not in record:
            raise ValueError(f"listener file {path} is missing field {key!r}")
        value = record[key]
        # a bool is no number here, nor an int beyond float range
        if not isinstance(value, list) or not all(
            type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max) for v in value
        ):
            raise ValueError(f"listener file {path}: field {key!r} must be a list of numbers")
        fields[key] = tuple(float(v) for v in value)

    def audiogram(key: str, levels: tuple[float, ...]) -> Audiogram:
        try:
            return Audiogram(fields["audiogram_cfs"], levels)
        except ValueError as exc:
            raise ValueError(f"listener file {path}: field {key!r}: {exc}") from None

    # the frequencies alone first, with placeholder levels, so an error names its field
    audiogram("audiogram_cfs", (0.0,) * len(fields["audiogram_cfs"]))
    return {
        "left": audiogram("audiogram_levels_l", fields["audiogram_levels_l"]),
        "right": audiogram("audiogram_levels_r", fields["audiogram_levels_r"]),
    }
