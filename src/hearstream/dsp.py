"""Streaming STFT analysis/synthesis and the algorithmic-latency test harness.

The analysis side frames the input with a square-root periodic Hann window
(16 ms window, 4 ms hop at the default 32 kHz rate) and emits one complex
frame per hop. The synthesis side overlap-adds windowed inverse DFTs and
emits one hop of audio per submitted frame. Keeping frames in order is the
caller's job; the synthesizer has no frame-index contract and overlap-adds
each frame at the next hop. The enhancement pipeline submits predicted
frames (lookahead handled upstream), this module only does the transform
math.

Conventions, used everywhere:
  * forward DFT unnormalized, inverse scaled by 1/fft_size (numpy default);
  * warm-up: the first ``win - hop`` output samples of any identity chain
    correspond to zero-padded history and are emitted, not suppressed;
  * an analysis->synthesis identity chain delays the signal by exactly
    ``win - hop`` samples (the alignment offset tests compensate for).

All state is single-owner and strictly sequential per stream; the pure
helpers (window, framing) are reentrant.

``causality_check`` is the latency harness: it reruns a processor on an
input perturbed from one sample onward and finds the first output sample
that differs from a baseline the caller computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CausalityReport",
    "ContractViolationError",
    "StftConfig",
    "StreamingAnalyzer",
    "StreamingSynthesizer",
    "causality_check",
    "istft_frames",
    "sqrt_hann",
]


class ContractViolationError(RuntimeError):
    """A streaming contract was broken (e.g. a solve before any update)."""


def sqrt_hann(win: int) -> np.ndarray:
    """Square root of the periodic Hann window, ``sqrt(0.5 - 0.5*cos(2*pi*i/win))``.

    The periodic (DFT-even) convention is required for an exactly constant
    overlap-add sum at 75 % overlap.
    """
    if win < 2 or win % 2 != 0:
        raise ValueError(f"window length must be an even integer >= 2, got {win}")
    i = np.arange(win, dtype=np.float64)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * i / win))


def _ola_sum(window_product: np.ndarray, hop: int) -> np.ndarray:
    """Brute-force shifted sum of ``window_product`` over one hop period."""
    win = len(window_product)
    out = np.zeros(hop, dtype=np.float64)
    for k in range(win // hop):
        out += window_product[k * hop : (k + 1) * hop]
    return out


@dataclass(frozen=True)
class StftConfig:
    """STFT geometry: 512-sample (16 ms) window, 128-sample (4 ms) hop.

    The window and the hop fix the prediction horizon: ``lookahead``, the
    number of frames ahead the estimator predicts, is ``win // hop - 1`` (3
    by default), so ``lookahead * hop == warmup`` and a predicted frame
    lands on its own output position.
    """

    sample_rate: int = 32000
    win: int = 512
    hop: int = 128

    def __post_init__(self) -> None:
        if self.win < 2 or self.win % 2 != 0:
            raise ValueError(f"win must be an even integer >= 2, got {self.win}")
        if self.hop < 1 or self.win % self.hop != 0:
            raise ValueError(f"win ({self.win}) must be a multiple of hop ({self.hop})")

    @property
    def fft_size(self) -> int:
        return self.win

    @property
    def bins(self) -> int:
        return self.win // 2 + 1

    @property
    def lookahead(self) -> int:
        """Frames ahead the estimator predicts: the chain offset in hops."""
        return self.win // self.hop - 1

    @property
    def warmup(self) -> int:
        """Zero-padded-history span; also the identity-chain alignment offset."""
        return self.win - self.hop

    @property
    def window(self) -> np.ndarray:
        return sqrt_hann(self.win)

    @property
    def cola_constant(self) -> float:
        """Overlap-add sum of analysis*synthesis window (2.0 under defaults)."""
        s = _ola_sum(self.window**2, self.hop)
        if s.max() - s.min() > 1e-9:
            raise ValueError(
                f"window/hop pair is not constant-overlap-add (spread {s.max() - s.min():.3g})"
            )
        return float(s.mean())


class StreamingAnalyzer:
    """Frame-online STFT analysis: one hop block in, one complex frame out.

    Keeps a per-channel ring of the last ``win`` samples (zeros before the
    stream starts) and returns the windowed DFT of that ring on every push.
    """

    def __init__(self, config: StftConfig, channels: int = 1) -> None:
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.config = config
        self.channels = channels
        self._window = config.window[:, None]
        self._buf = np.zeros((config.win, channels), dtype=np.float64)

    def push(self, block: np.ndarray) -> np.ndarray:
        """Consume ``hop`` new samples per channel, return a [bins, channels] frame."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim == 1:
            block = block[:, None]
        if block.shape != (self.config.hop, self.channels):
            raise ValueError(
                f"expected block of shape ({self.config.hop}, {self.channels}), got {block.shape}"
            )
        hop = self.config.hop
        self._buf[:-hop] = self._buf[hop:]
        self._buf[-hop:] = block
        return np.fft.rfft(self._window * self._buf, axis=0)

    def analyze(self, signal: np.ndarray) -> np.ndarray:
        """Frame a whole signal, one hop at a time; returns [frames, bins, channels].

        Runs the exact streaming path so block-fed and one-shot framing are
        bit-identical. Trailing samples short of a full hop are ignored.
        """
        signal = np.asarray(signal, dtype=np.float64)
        if signal.ndim == 1:
            signal = signal[:, None]
        hop = self.config.hop
        steps = signal.shape[0] // hop
        return np.stack(
            [self.push(signal[t * hop : (t + 1) * hop]) for t in range(steps)], axis=0
        ) if steps else np.zeros((0, self.config.bins, self.channels), dtype=np.complex128)


class StreamingSynthesizer:
    """Frame-online inverse STFT: one frame in, one hop of audio out.

    Frame ``j`` is windowed, inverse-transformed and accumulated at offset
    ``j * hop`` of the synthesis timeline; the completed head hop is emitted,
    divided by the constant overlap-add sum. Callers that submit predicted
    (lookahead) frames own the mapping between this timeline and input time.
    """

    def __init__(self, config: StftConfig) -> None:
        self.config = config
        self._window = config.window
        self._cola = config.cola_constant
        self._ola = np.zeros(config.win, dtype=np.float64)

    def push(self, frame: np.ndarray) -> np.ndarray:
        """Overlap-add one [bins] frame; returns the next ``hop`` output samples."""
        frame = np.asarray(frame)
        if frame.shape != (self.config.bins,):
            raise ValueError(f"expected frame of shape ({self.config.bins},), got {frame.shape}")
        hop = self.config.hop
        self._ola += self._window * np.fft.irfft(frame, n=self.config.fft_size)
        out = self._ola[:hop] / self._cola
        self._ola[:-hop] = self._ola[hop:]
        self._ola[-hop:] = 0.0
        return out


def istft_frames(frames: np.ndarray, config: StftConfig) -> np.ndarray:
    """Overlap-add a [frames, bins] sequence into a waveform of ``frames * hop`` samples.

    Paired with :meth:`StreamingAnalyzer.analyze` this reconstructs the input
    delayed by ``config.warmup`` samples (scaled exactly, COLA permitting).
    """
    synth = StreamingSynthesizer(config)
    if len(frames) == 0:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([synth.push(f) for f in frames])


@dataclass
class CausalityReport:
    """Outcome of one perturbation trial of :func:`causality_check`."""

    perturb_index: int
    budget_samples: int
    first_diff_index: int | None
    passed: bool

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        where = "none" if self.first_diff_index is None else str(self.first_diff_index)
        return (
            f"perturb@{self.perturb_index} budget={self.budget_samples} "
            f"first_diff={where} -> {verdict}"
        )


_TOL = 1e-7  # largest output difference causality_check counts as equal


def causality_check(
    processor: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    n: int,
    budget_samples: int,
    *,
    baseline: np.ndarray,
) -> CausalityReport:
    """Verify that ``processor`` respects an algorithmic-latency budget.

    ``baseline`` is ``processor(x)``, computed once by the caller so repeated
    trials on the same input share it; the caller also owns any check that
    the processor is deterministic. The processor runs on a copy of ``x``
    whose samples from ``n`` onward (all channels) are replaced by Gaussian
    noise at the input's RMS, drawn from a fixed seed. Passes iff that output
    and ``baseline`` agree (abs diff <= 1e-7) at every sample index
    ``t < n - budget_samples``, i.e. output sample t depends only on inputs
    earlier than ``t + budget_samples``.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (0 < n <= x.shape[0]):
        raise ValueError(f"perturbation index {n} outside signal of length {x.shape[0]}")

    scale = max(float(np.sqrt(np.mean(x**2))), 1e-3)
    xp = x.copy()
    xp[n:] = np.random.default_rng(0).normal(scale=scale, size=xp[n:].shape)
    perturbed = np.asarray(processor(xp))

    m = min(len(baseline), len(perturbed))
    diff = np.abs(perturbed[:m] - baseline[:m])
    idx = np.flatnonzero(diff.reshape(m, -1).max(axis=1) > _TOL)
    first = int(idx[0]) if idx.size else None
    passed = first is None or first >= n - budget_samples
    return CausalityReport(
        perturb_index=n, budget_samples=budget_samples, first_diff_index=first, passed=passed
    )
