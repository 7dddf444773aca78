"""Evaluation measures: SI-SDR and the multi-resolution scale-invariant loss.

si_sdr projects the estimate onto the reference; the loss instead rescales
the estimate by the optimal scalar alpha* = <est, ref> / ||est||^2 before
comparing waveforms and multi-resolution magnitude spectrograms. Both
conventions are fixed by oracle tests.
"""

from __future__ import annotations

import numpy as np

from .dsp import sqrt_hann

__all__ = ["multires_si_loss", "si_sdr", "si_sdri"]

_CAP_DB = 60.0  # si_sdr's clamp
_RESOLUTIONS = (512, 1024, 2048, 256, 128)  # window lengths of the magnitude terms


def _as_pair(est, ref) -> tuple[np.ndarray, np.ndarray]:
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.ndim != 1 or est.shape != ref.shape or est.size < 1:
        raise ValueError(f"need equal-length 1-D signals, got {est.shape} vs {ref.shape}")
    return est, ref


def si_sdr(est, ref) -> float:
    """Scale-invariant SDR in dB, clamped to +-60 dB."""
    est, ref = _as_pair(est, ref)
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("si_sdr is undefined for an all-zero reference")
    target = (float(np.dot(est, ref)) / ref_energy) * ref
    err = est - target
    num = float(np.dot(target, target))
    den = float(np.dot(err, err))
    if den == 0.0:
        return _CAP_DB
    if num == 0.0:
        return -_CAP_DB
    return float(np.clip(10.0 * np.log10(num / den), -_CAP_DB, _CAP_DB))


def si_sdri(est, mixture, ref) -> float:
    """Improvement of the estimate over the mixture reference channel, dB."""
    return si_sdr(est, ref) - si_sdr(mixture, ref)


def _stft_mag(x: np.ndarray, win: int) -> np.ndarray:
    """Magnitudes of complete sqrt-Hann frames at hop win/2; [T, bins]."""
    hop = win // 2
    if len(x) < win:
        return np.zeros((0, win // 2 + 1))
    t = 1 + (len(x) - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(t)[:, None]
    return np.abs(np.fft.rfft(x[idx] * sqrt_hann(win), axis=1))


def multires_si_loss(est, ref) -> float:
    """Scale-invariant L1 waveform + multi-resolution magnitude distance.

    The estimate is rescaled by alpha* minimizing ||alpha * est - ref||_2,
    then each term is L1-normalized by the reference. Resolutions longer
    than the signals contribute nothing.
    """
    est, ref = _as_pair(est, ref)
    ref_l1 = float(np.sum(np.abs(ref)))
    if ref_l1 == 0.0:
        raise ValueError("loss is undefined for an all-zero reference")
    est_energy = float(np.dot(est, est))
    alpha = float(np.dot(est, ref)) / est_energy if est_energy > 0.0 else 0.0
    scaled = alpha * est
    loss = float(np.sum(np.abs(scaled - ref))) / ref_l1
    for win in _RESOLUTIONS:
        mag_ref = _stft_mag(ref, win)
        if mag_ref.size == 0 or float(np.sum(mag_ref)) == 0.0:
            continue
        mag_est = _stft_mag(scaled, win)
        loss += float(np.sum(np.abs(mag_est - mag_ref))) / float(np.sum(mag_ref))
    return loss
