"""Speaker-conditioned causal time-frequency estimator.

A stack of dual-path blocks over a [D, T, F] feature grid mapped from the
real/imaginary parts of a multichannel spectrogram. Each block applies, with
residual connections around each stage:

  1. feature-wise linear modulation by the target speaker's ``EMB_DIM``-wide
     embedding; a model is built for one embedding, so each block's scale
     and shift are fixed when it is built,
  2. a sub-band temporal module (per-frame LN, causal unfold over past
     frames, unidirectional LSTM along time per frequency, transposed conv),
  3. an intra-frame spectral module (per-frame LN, unfold over frequency,
     bidirectional LSTM along frequency within the frame, transposed conv),
  4. full-band self-attention over time, always under a causal mask.

Input enters through a causal 3x3 conv + per-frame LN; a transposed 3x3 conv
maps back to a 2-channel real/imaginary head (direct complex spectral
mapping, no masking). Every time-directional stage sees only current and
past frames, so the whole model is causal frame by frame. Each stage has one
implementation, which reads the past frames it needs from an explicit
carried state: `MisoGridNet.forward` runs it over any number of frames, from
zero state or continuing a given one, and `GridNetStream` runs the same code
on one frame at a time. A model resolves its weights when it is built, into
one record per block that each stage takes its kernel arguments from.

The second-stage network is the same architecture with extra input channels
(first-stage estimate and beamformer output stacked after the mixture).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dsp import StftConfig
from .kernels import (
    conv2d,
    conv_transpose1d,
    conv_transpose2d,
    film,
    layer_norm,
    linear,
    lstm_forward,
    masked_attention,
    prelu,
)
from .weights import ParamSpec, WeightStore

__all__ = [
    "GridNetConfig",
    "GridNetStream",
    "MisoGridNet",
    "stack_ri",
    "unstack_ri",
    "weight_schema",
]

EMB_DIM = 128  # speaker embedding width: the enrollment encoder's output


@dataclass(frozen=True)
class GridNetConfig:
    """Architecture hyperparameters.

    channels is the microphone count; extra_inputs counts additional real
    feature planes stacked after the mixture (4 for the second stage: RI of
    the first-stage estimate and of the beamformer output).
    """

    channels: int = 2
    extra_inputs: int = 0
    d: int = 16
    blocks: int = 2
    unfold_kernel: int = 2
    hidden: int = 32
    heads: int = 2
    qk_channels: int = 2
    n_freq: int = StftConfig().bins
    emb_dim: int = EMB_DIM

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.extra_inputs % 2 or self.extra_inputs < 0:
            raise ValueError("extra_inputs must be an even non-negative count")
        if self.d % self.heads:
            raise ValueError(f"attention heads ({self.heads}) must divide d ({self.d})")
        if min(self.d, self.blocks, self.unfold_kernel, self.hidden, self.heads) < 1:
            raise ValueError("d, blocks, unfold_kernel, hidden, heads must all be >= 1")
        if self.n_freq < self.unfold_kernel:
            raise ValueError(f"n_freq ({self.n_freq}) must be >= unfold_kernel")

    @property
    def input_channels(self) -> int:
        return 2 * self.channels + self.extra_inputs

    @property
    def value_channels(self) -> int:
        return self.d // self.heads

    @classmethod
    def toy(cls, channels: int = 2, extra_inputs: int = 0, **kw) -> "GridNetConfig":
        """Desk-scale configuration used by the test suite."""
        return cls(channels=channels, extra_inputs=extra_inputs, **kw)

    @classmethod
    def full_scale(cls, channels: int = 6, extra_inputs: int = 0) -> "GridNetConfig":
        """Full-size configuration (approx. 9.6 M parameters per network)."""
        return cls(
            channels=channels,
            extra_inputs=extra_inputs,
            d=128,
            blocks=6,
            unfold_kernel=4,
            hidden=160,
            heads=4,
            qk_channels=2,
        )


_CONV_KT = 3  # input/output conv kernel extent over time (causal side)
_CONV_KF = 3  # and over frequency (centered)
_CACHE_ROWS = 16  # attention cache capacity (frames) before its first growth


def weight_schema(config: GridNetConfig, prefix: str = "dnn1") -> list[ParamSpec]:
    """Every named parameter the model resolves, in a fixed order."""
    d, h, i_k = config.d, config.hidden, config.unfold_kernel
    e, dv, emb = config.qk_channels, config.value_channels, config.emb_dim
    specs = [
        ParamSpec(
            f"{prefix}.conv_in.w",
            (d, config.input_channels, _CONV_KT, _CONV_KF),
            "weight",
            fan_in=config.input_channels * _CONV_KT * _CONV_KF,
        ),
        ParamSpec(f"{prefix}.conv_in.b", (d,), "bias"),
        ParamSpec(f"{prefix}.ln_in.gamma", (d, 1, 1), "gamma"),
        ParamSpec(f"{prefix}.ln_in.beta", (d, 1, 1), "beta"),
    ]
    for b in range(config.blocks):
        p = f"{prefix}.block{b}"
        specs += [
            ParamSpec(f"{p}.film.w_gamma", (d, emb), "weight", fan_in=emb),
            ParamSpec(f"{p}.film.b_gamma", (d,), "gamma"),
            ParamSpec(f"{p}.film.w_beta", (d, emb), "weight", fan_in=emb),
            ParamSpec(f"{p}.film.b_beta", (d,), "beta"),
        ]
        specs += [
            ParamSpec(f"{p}.temporal.ln.gamma", (d, 1, 1), "gamma"),
            ParamSpec(f"{p}.temporal.ln.beta", (d, 1, 1), "beta"),
            ParamSpec(f"{p}.temporal.lstm.w", (4 * h, i_k * d), "weight", fan_in=i_k * d),
            ParamSpec(f"{p}.temporal.lstm.r", (4 * h, h), "weight", fan_in=h),
            ParamSpec(f"{p}.temporal.lstm.b", (4 * h,), "bias"),
            ParamSpec(f"{p}.temporal.deconv.w", (h, d, i_k), "weight", fan_in=h * i_k),
            ParamSpec(f"{p}.temporal.deconv.b", (d,), "bias"),
        ]
        specs += [
            ParamSpec(f"{p}.spectral.ln.gamma", (d, 1, 1), "gamma"),
            ParamSpec(f"{p}.spectral.ln.beta", (d, 1, 1), "beta"),
            ParamSpec(f"{p}.spectral.lstm_fwd.w", (4 * h, i_k * d), "weight", fan_in=i_k * d),
            ParamSpec(f"{p}.spectral.lstm_fwd.r", (4 * h, h), "weight", fan_in=h),
            ParamSpec(f"{p}.spectral.lstm_fwd.b", (4 * h,), "bias"),
            ParamSpec(f"{p}.spectral.lstm_bwd.w", (4 * h, i_k * d), "weight", fan_in=i_k * d),
            ParamSpec(f"{p}.spectral.lstm_bwd.r", (4 * h, h), "weight", fan_in=h),
            ParamSpec(f"{p}.spectral.lstm_bwd.b", (4 * h,), "bias"),
            ParamSpec(f"{p}.spectral.deconv.w", (2 * h, d, i_k), "weight", fan_in=2 * h * i_k),
            ParamSpec(f"{p}.spectral.deconv.b", (d,), "bias"),
        ]
        for l in range(config.heads):
            for proj, width in (("q", e), ("k", e), ("v", dv)):
                q = f"{p}.attn.head{l}.{proj}"
                specs += [
                    ParamSpec(f"{q}.w", (width, d), "weight", fan_in=d),
                    ParamSpec(f"{q}.b", (width,), "bias"),
                    ParamSpec(f"{q}.alpha", (width,), "prelu"),
                ]
        specs += [
            ParamSpec(f"{p}.attn.out.w", (d, d), "weight", fan_in=d),
            ParamSpec(f"{p}.attn.out.b", (d,), "bias"),
            ParamSpec(f"{p}.attn.out.alpha", (d,), "prelu"),
        ]
    specs += [
        ParamSpec(
            f"{prefix}.deconv_out.w",
            (d, 2, _CONV_KT, _CONV_KF),
            "weight",
            fan_in=d * _CONV_KT * _CONV_KF,
        ),
        ParamSpec(f"{prefix}.deconv_out.b", (2,), "bias"),
    ]
    return specs


def infer_config(store: WeightStore) -> GridNetConfig:
    """Recover the first-stage (``dnn1``) architecture from tensor shapes in a store.

    The weights encode every hyperparameter except n_freq, which keeps the
    default STFT's bin count. The channel count is half the input planes:
    the first stage has no extra inputs.
    """
    key = "dnn1.conv_in.w"
    if key not in store:
        raise ValueError(f"store holds no 'dnn1' model (missing {key})")
    d, in_ch, _, _ = store[key].shape
    if in_ch % 2:
        raise ValueError(f"{key}: odd input plane count {in_ch}")
    blocks = 0
    while f"dnn1.block{blocks}.film.w_gamma" in store:
        blocks += 1
    emb = store["dnn1.block0.film.w_gamma"].shape[1]
    hidden, _, unfold_kernel = store["dnn1.block0.temporal.deconv.w"].shape
    heads = 0
    while f"dnn1.block0.attn.head{heads}.q.w" in store:
        heads += 1
    qk = store["dnn1.block0.attn.head0.q.w"].shape[0]
    return GridNetConfig(
        channels=in_ch // 2,
        d=d,
        blocks=blocks,
        unfold_kernel=unfold_kernel,
        hidden=hidden,
        heads=heads,
        qk_channels=qk,
        emb_dim=emb,
    )


def stack_ri(spect: np.ndarray, extras: np.ndarray | None = None) -> np.ndarray:
    """Interleave real/imag planes of spect[T, F, C] into float32 [2C(+2K), T, F].

    Channel order [Re ch0, Im ch0, Re ch1, ...]; extras[T, F, K] (complex)
    are appended after the mixture channels in the same interleaving. A value
    that is NaN or Inf once cast to float32 raises ValueError, so a network
    that stacks its input first rejects it before any state moves.
    """
    spect = np.asarray(spect)
    if spect.ndim == 2:
        spect = spect[:, :, None]
    if spect.ndim != 3:
        raise ValueError(f"stack_ri: expected [T, F, C] input, got shape {spect.shape}")
    parts = [spect]
    if extras is not None:
        extras = np.asarray(extras)
        if extras.ndim != 3 or extras.shape[:2] != spect.shape[:2]:
            raise ValueError(
                f"stack_ri: extras {extras.shape} are not [T, F, K] on the (T, F) of {spect.shape}"
            )
        parts.append(extras)
    planes = []
    for block in parts:
        for c in range(block.shape[2]):
            planes.append(block[:, :, c].real)
            planes.append(block[:, :, c].imag)
    x = np.stack(planes, axis=0).astype(np.float32)
    if not np.all(np.isfinite(x)):
        raise ValueError("stack_ri: non-finite input value (as float32)")
    return x


def unstack_ri(tensor: np.ndarray) -> np.ndarray:
    """Inverse of the 2-channel output head: [2, T, F] -> complex [T, F]."""
    if tensor.ndim != 3 or tensor.shape[0] != 2:
        raise ValueError(f"unstack_ri: expected [2, T, F], got {tensor.shape}")
    return tensor[0] + 1j * tensor[1]


def _cache_array(rows: int, width: int) -> np.ndarray:
    """A float32 [rows, width] array on its own private anonymous (zero-filled)
    mapping.

    Its untouched rows take no memory, and the mapping goes back to the
    system when the array is freed. ``np.empty`` guarantees neither: on
    Linux NumPy asks for 2 MB huge pages on large arrays, and malloc may
    place an array in the heap, where a freed one stays resident. The
    mapping is private: mmap's default, MAP_SHARED, would let a process
    forked after the engine is built write into its parent's cache.
    """
    memory = mmap.mmap(-1, rows * width * 4, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(memory, dtype=np.float32).reshape(rows, width)


def _with_history(history: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join carried frames ahead of new ones along axis 1.

    Returns the joined array and a copy of its last ``history.shape[1]``
    frames, the history for the next call. The copy keeps the carried tail
    from pinning the joined array.
    """
    joined = np.concatenate([history, frames], axis=1)
    return joined, joined[:, joined.shape[1] - history.shape[1] :].copy()


def _unfold_windows(seq: np.ndarray, width: int) -> np.ndarray:
    """seq[N, L, D] -> [N, L-width+1, width*D] windows, oldest step first:
    window t is steps t..t+width-1 side by side, one shifted slice per step."""
    n_win = seq.shape[1] - width + 1
    return np.concatenate([seq[:, i : i + n_win] for i in range(width)], axis=2)


class _Stem(NamedTuple):
    """The outer layers' kernel arguments, grouped as each kernel takes them."""

    conv_in: tuple  # (w, b)
    ln_in: tuple  # (gamma, beta)
    deconv_out: tuple  # (w, b)


class _Block(NamedTuple):
    """One block's kernel arguments, grouped as each kernel takes them."""

    name: str  # "<prefix>.block<b>", for error messages
    film: tuple  # this speaker's (gamma, beta)
    temporal_ln: tuple  # (gamma, beta)
    temporal_lstm: tuple  # (w, r, b), the store's own arrays
    temporal_deconv: tuple  # ([I*H, D] taps, row block k weighing LSTM step t-I+1+k; b)
    spectral_ln: tuple  # (gamma, beta)
    spectral_fwd: tuple  # (w, r, b)
    spectral_bwd: tuple  # (w, r, b)
    spectral_deconv: tuple  # (w, b)
    qkv: tuple  # (w, b, alpha), head projections stacked as [q heads, k heads, v heads]
    out: tuple  # (w, b, alpha)


class MisoGridNet:
    """The network over frames with carried state; one instance per (weights,
    speaker embedding, prefix).

    Building it resolves the store into ``stem`` and ``blocks``, one
    ``_Block`` record per block, so no hop looks up a weight by name.
    ``forward`` runs frames from zero state or continuing a given one;
    ``GridNetStream`` runs the same code one frame at a time with its own state.
    """

    def __init__(
        self, config: GridNetConfig, store: WeightStore, embedding: np.ndarray, prefix: str = "dnn1"
    ) -> None:
        """``embedding`` is the target speaker's length-emb_dim vector; one
        with another shape, or a value that is NaN or Inf as float32, raises
        ValueError. The model keeps only what the blocks derive from it."""
        embedding = np.asarray(embedding, dtype=np.float32)
        if embedding.shape != (config.emb_dim,):
            raise ValueError(
                f"embedding must have shape ({config.emb_dim},), got {embedding.shape}"
            )
        if not np.all(np.isfinite(embedding)):
            raise ValueError("embedding contains non-finite values")
        self.config = config
        self.prefix = prefix
        w = store.resolve(weight_schema(config, prefix), prefix)

        def group(name: str, parts=("w", "b")) -> tuple:
            return tuple(w[f"{name}.{part}"] for part in parts)

        norm, lstm, act = ("gamma", "beta"), ("w", "r", "b"), ("w", "b", "alpha")
        self.stem = _Stem(group("conv_in"), group("ln_in", norm), group("deconv_out"))
        self.blocks = []
        for b in range(config.blocks):
            p = f"block{b}"
            heads = [f"{p}.attn.head{l}.{proj}" for proj in "qkv" for l in range(config.heads)]
            films = (group(f"{p}.film", (f"w_{part}", f"b_{part}")) for part in norm)
            kernel, bias = group(f"{p}.temporal.deconv")  # [H, D, I], tap k weighs step t-k
            taps = kernel[:, :, ::-1].transpose(2, 0, 1).reshape(-1, kernel.shape[1])
            self.blocks.append(
                _Block(
                    name=f"{prefix}.{p}",
                    film=tuple(linear(embedding, *wb) for wb in films),
                    temporal_ln=group(f"{p}.temporal.ln", norm),
                    temporal_lstm=group(f"{p}.temporal.lstm", lstm),
                    temporal_deconv=(taps, bias),
                    spectral_ln=group(f"{p}.spectral.ln", norm),
                    spectral_fwd=group(f"{p}.spectral.lstm_fwd", lstm),
                    spectral_bwd=group(f"{p}.spectral.lstm_bwd", lstm),
                    spectral_deconv=group(f"{p}.spectral.deconv"),
                    qkv=tuple(np.concatenate(ws) for ws in zip(*(group(n, act) for n in heads))),
                    out=group(f"{p}.attn.out", act),
                )
            )

    # -- forward -------------------------------------------------------------

    def forward(
        self,
        mixture: np.ndarray,
        extras: np.ndarray | None = None,
        state: dict | None = None,
    ) -> np.ndarray:
        """mixture[T, F, C] complex (+ optional extras[T, F, K]) -> complex [T, F].

        The estimate is for the speaker the model was built for.
        ``state`` (from ``zero_state()``) is continued and updated in place;
        None runs from zero state. Each stage that looks back in time reads
        its past frames from the state and leaves its own last frames there,
        so one call over T frames equals successive calls over any split.
        Input that is NaN or Inf once cast to float32 raises ValueError
        before any state moves.
        """
        cfg = self.config
        state = self.zero_state() if state is None else state
        x = stack_ri(mixture, extras)
        if x.shape[0] != cfg.input_channels or x.shape[2] != cfg.n_freq:
            raise ValueError(
                f"input planes {x.shape} do not match config "
                f"({cfg.input_channels} channels, {cfg.n_freq} bins)"
            )
        stem = self.stem
        window, state["conv_in"] = _with_history(state["conv_in"], x)
        x = layer_norm(conv2d(window, *stem.conv_in), *stem.ln_in)
        for blk, st in zip(self.blocks, state["blocks"]):
            x = film(x, *blk.film)
            x = x + self._temporal(x, blk, st)
            x = x + self._spectral(x, blk)
            x = x + self._attention(x, blk, st)
        window, state["deconv_out"] = _with_history(state["deconv_out"], x)
        y = conv_transpose2d(window, *stem.deconv_out)
        return unstack_ri(y)

    def zero_state(self) -> dict:
        """The carried state before the first frame: every history is zeros.

        ``conv_in`` / ``deconv_out`` hold the last Kt-1 input frames of the
        outer convolutions, ``blocks`` one ``_zero_block`` state per block.
        """
        cfg = self.config
        hist = _CONV_KT - 1
        return {
            "conv_in": np.zeros((cfg.input_channels, hist, cfg.n_freq), dtype=np.float32),
            "blocks": [self._zero_block() for _ in range(cfg.blocks)],
            "deconv_out": np.zeros((cfg.d, hist, cfg.n_freq), dtype=np.float32),
        }

    def _zero_block(self) -> dict:
        """One block's state: the temporal unfold history (I-1 frames of
        normalized input), the temporal LSTM (h, c), the last I-1 LSTM
        outputs for the temporal deconv, and the attention cache.

        The cache is one float32 key array ``k`` [rows, heads*F*E] and one
        value array ``v`` [rows, heads*F*Dv] whose first ``frames`` rows
        hold every frame seen so far. Rows past ``frames`` are spare
        capacity; ``_attention`` doubles it when a call would overflow.
        """
        cfg = self.config
        f, hist, h = cfg.n_freq, cfg.unfold_kernel - 1, cfg.hidden
        return {
            "unfold": np.zeros((f, hist, cfg.d), dtype=np.float32),
            "lstm": (np.zeros((f, h), dtype=np.float32), np.zeros((f, h), dtype=np.float32)),
            "deconv": np.zeros((f, hist, h), dtype=np.float32),
            "k": _cache_array(_CACHE_ROWS, cfg.heads * f * cfg.qk_channels),
            "v": _cache_array(_CACHE_ROWS, cfg.heads * f * cfg.value_channels),
            "frames": 0,
        }

    # -- block stages ----------------------------------------------------------

    def _temporal(self, x: np.ndarray, blk: _Block, st: dict) -> np.ndarray:
        """Causal sub-band temporal module over x[D, T, F], continuing the
        block state ``st``."""
        y = layer_norm(x, *blk.temporal_ln)
        seq, st["unfold"] = _with_history(st["unfold"], y.transpose(2, 1, 0))  # [F, I-1+T, D]
        windows = _unfold_windows(seq, self.config.unfold_kernel)
        h, st["lstm"] = lstm_forward(windows, *blk.temporal_lstm, state=st["lstm"])
        # the head-cropped transposed conv as a valid correlation: frame t
        # sums LSTM steps t-I+1..t, the same windows the LSTM input uses
        h, st["deconv"] = _with_history(st["deconv"], h)  # [F, I-1+T, H]
        u = _unfold_windows(h, self.config.unfold_kernel)
        taps, bias = blk.temporal_deconv
        out = u.reshape(-1, u.shape[2]) @ taps + bias
        return out.reshape(u.shape[0], u.shape[1], -1).transpose(2, 1, 0)

    def _spectral(self, x: np.ndarray, blk: _Block) -> np.ndarray:
        y = layer_norm(x, *blk.spectral_ln)
        seq = np.ascontiguousarray(y.transpose(1, 2, 0))  # [T, F, D]
        windows = _unfold_windows(seq, self.config.unfold_kernel)
        h = lstm_forward(windows, *blk.spectral_fwd, backward=blk.spectral_bwd)
        full = conv_transpose1d(h, *blk.spectral_deconv)
        return full.transpose(2, 0, 1)  # length restored exactly: (F-I+1)-1+I == F

    def _attention(self, x: np.ndarray, blk: _Block, state: dict) -> np.ndarray:
        """Full-band self-attention over time: the keys and values of x's
        frames are written after those cached in the block ``state``, and
        each frame of x attends to its own frame and every earlier one. A
        NaN or Inf projection raises before any row is written, so the cached
        rows and their ``frames`` count stay valid and are never rescanned."""
        cfg = self.config
        heads, t_len, f_len = cfg.heads, x.shape[1], x.shape[2]
        w_qkv, b_qkv, alpha_qkv = blk.qkv
        z = prelu(np.tensordot(w_qkv, x, axes=([1], [0])) + b_qkv[:, None, None], alpha_qkv)
        if not np.all(np.isfinite(z)):
            raise ValueError(f"{blk.name}.attn: non-finite query, key or value")
        # [heads * W, T, F] -> [T, heads, F, W]: masked_attention's row layout
        q, k, v = (
            part.reshape(heads, -1, t_len, f_len).transpose(2, 0, 3, 1)
            for part in np.split(z, [heads * cfg.qk_channels, 2 * heads * cfg.qk_channels])
        )
        n = state["frames"]
        end = state["frames"] = n + t_len
        for name, new in (("k", k), ("v", v)):
            cache = state[name]
            if end > len(cache):  # double, so appends stay amortized O(1) per frame
                cache = _cache_array(max(2 * len(cache), end), cache.shape[1])
                cache[:n] = state[name][:n]
                state[name] = cache
            cache[n:end].reshape(new.shape)[...] = new
        out = masked_attention(
            q.reshape(t_len, -1),
            state["k"][:end],
            state["v"][:end],
            heads=heads,
        )
        o = out.reshape(t_len, heads, f_len, cfg.value_channels)
        o = o.transpose(1, 3, 0, 2).reshape(cfg.d, t_len, f_len)
        w_out, b_out, alpha_out = blk.out
        y = np.tensordot(w_out, o, axes=([1], [0]))
        return prelu(y + b_out[:, None, None], alpha_out)


class GridNetStream:
    """Frame-by-frame inference: ``MisoGridNet.forward`` on one frame at a time.

    The stream is the same code as the whole-sequence forward, run on one
    frame with carried state, so it matches that forward within float32
    accumulation noise (<= 1e-5). Every carried state covers only current
    and past frames, so streaming cannot look ahead by construction.
    """

    def __init__(self, model: MisoGridNet) -> None:
        self.model = model
        self.state = model.zero_state()

    def step(self, frame: np.ndarray, extras: np.ndarray | None = None) -> np.ndarray:
        """One complex frame [F, C] (+ extras [F, K]) -> complex estimate [F]."""
        extras = None if extras is None else np.asarray(extras)[None]
        return self.model.forward(np.asarray(frame)[None], extras, self.state)[0]
