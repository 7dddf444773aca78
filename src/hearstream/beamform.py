"""Frame-online multi-channel Wiener filter with recursive statistics.

Per frequency bin the state tracks the mixture covariance and the
mixture/estimate cross-vector under exponential forgetting:

  Phi_yy <- alpha * Phi_yy + (1 - alpha) * y y^H
  phi_ys <- alpha * phi_ys + (1 - alpha) * y conj(s_hat)

and the filter solves (Phi_yy + delta * (trace/C) I) w = phi_ys, so w is the
least-squares estimator of s_hat from y. Bins whose covariance trace is still
zero return a zero weight vector (silence-safe) and are flagged in
``silent_bins``. Bins are independent; within one bin updates are strictly
ordered, and the caller is expected to update with the current frame before
solving for it.
"""

from __future__ import annotations

import math

import numpy as np

from .dsp import ContractViolationError

__all__ = ["ALPHA", "LOADING", "CovarianceState", "apply_weights"]

ALPHA = 0.5  # forgetting factor, in [0, 1)
LOADING = 1e-4  # diagonal loading delta, >= 0


class CovarianceState:
    """Per-bin second-order statistics of (mixture, target estimate) pairs."""

    def __init__(self, bins: int, channels: int, *, alpha: float = ALPHA, loading: float = LOADING) -> None:
        if bins < 1 or channels < 1:
            raise ValueError("bins and channels must be >= 1")
        for name, value in (("alpha", alpha), ("loading", loading)):
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or an int beyond float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha (forgetting factor) must be in [0, 1), got {alpha}")
        if loading < 0.0:
            raise ValueError(f"loading (diagonal loading) must be >= 0, got {loading}")
        self.bins = bins
        self.channels = channels
        self.alpha = float(alpha)
        self.loading = float(loading)
        self.phi_yy = np.zeros((bins, channels, channels), dtype=np.complex128)
        self.phi_ys = np.zeros((bins, channels), dtype=np.complex128)
        self.frames = 0
        self.silent_bins = np.arange(bins)

    def update(self, y: np.ndarray, s_hat: np.ndarray) -> None:
        """Fold one frame of mixture y[F, C] and estimate s_hat[F] into the sums."""
        y = np.asarray(y, dtype=np.complex128)
        s_hat = np.asarray(s_hat, dtype=np.complex128)
        if y.shape != (self.bins, self.channels):
            raise ValueError(f"expected mixture frame {(self.bins, self.channels)}, got {y.shape}")
        if s_hat.shape != (self.bins,):
            raise ValueError(f"expected estimate frame ({self.bins},), got {s_hat.shape}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(s_hat))):
            raise ValueError("non-finite values in covariance update")
        a, b = self.alpha, 1.0 - self.alpha
        # y[:, :, None] * conj(y)[:, None, :] is Hermitian exactly, so the
        # recursion never accumulates asymmetry
        self.phi_yy = a * self.phi_yy + b * (y[:, :, None] * np.conj(y)[:, None, :])
        self.phi_ys = a * self.phi_ys + b * (y * np.conj(s_hat)[:, None])
        self.frames += 1

    def loaded_covariance(self) -> np.ndarray:
        """Phi_yy plus trace-scaled diagonal loading, [F, C, C]."""
        tr = np.real(np.trace(self.phi_yy, axis1=1, axis2=2))
        a = self.phi_yy.copy()
        lam = self.loading * tr / self.channels
        idx = np.arange(self.channels)
        a[:, idx, idx] += lam[:, None]
        return a

    def solve(self) -> np.ndarray:
        """Current Wiener weights w[F, C]; silence-safe zero rows for dead bins."""
        if self.frames == 0:
            raise ContractViolationError("solve() before any update()")
        tr = np.real(np.trace(self.phi_yy, axis1=1, axis2=2))
        active = tr > 0.0
        w = np.zeros((self.bins, self.channels), dtype=np.complex128)
        silent = ~active
        if np.any(active):
            a = self.loaded_covariance()[active]
            rhs = self.phi_ys[active]
            try:
                w[active] = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # fall back to bin-by-bin solves; a still-singular bin stays zero
                sel = np.flatnonzero(active)
                for j, f in enumerate(sel):
                    try:
                        w[f] = np.linalg.solve(a[j], rhs[j])
                    except np.linalg.LinAlgError:
                        silent[f] = True
        self.silent_bins = np.flatnonzero(silent)
        return w

    def step(self, y: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
        """Update with the current frame, solve, and apply: returns z[F]."""
        self.update(y, s_hat)
        return apply_weights(self.solve(), np.asarray(y, dtype=np.complex128))


def apply_weights(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Filter-and-sum w^H y per bin: w[F, C], y[F, C] -> [F] complex."""
    w = np.asarray(w)
    y = np.asarray(y)
    if w.shape != y.shape or w.ndim != 2:
        raise ValueError(f"weights {w.shape} and mixture {y.shape} must both be [F, C]")
    return np.sum(np.conj(w) * y, axis=1)
