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
Every model is a stack of networks of one ``GridNetConfig`` that read one
mixture, built in one step from the store and run side by side through the
same code, with a leading network axis on the feature grid and on the one
carried state the stack owns; a lone network is a stack of one. Networks
differ only in extra input planes (the second stage's first-stage estimate
and beamformer output), and the input supplies the bin count.
"""

from __future__ import annotations

import mmap
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
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
    """Architecture hyperparameters, shared by every network of a stack.

    channels is the microphone count. Each field is an int >= 1 (not a
    bool); another value raises ValueError naming the field.
    """

    channels: int = 2
    d: int = 16
    blocks: int = 2
    unfold_kernel: int = 2
    hidden: int = 32
    heads: int = 2
    qk_channels: int = 2

    def __post_init__(self) -> None:
        for name in "channels d blocks unfold_kernel hidden heads qk_channels".split():
            _check_count(name, getattr(self, name), 1)
        if self.d % self.heads:
            raise ValueError(f"attention heads ({self.heads}) must divide d ({self.d})")

    @property
    def value_channels(self) -> int:
        return self.d // self.heads

    @classmethod
    def toy(cls, channels: int = 2, **kw) -> "GridNetConfig":
        """Desk-scale configuration used by the test suite."""
        return cls(channels=channels, **kw)

    @classmethod
    def full_scale(cls, channels: int = 6) -> "GridNetConfig":
        """Full-size configuration (approx. 9.6 M parameters per network)."""
        return cls(
            channels=channels,
            d=128,
            blocks=6,
            unfold_kernel=4,
            hidden=160,
            heads=4,
            qk_channels=2,
        )


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) >= ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


_CONV_KT = 3  # input/output conv kernel extent over time (causal side)
_CONV_KF = 3  # and over frequency (centered)
_CACHE_ROWS = 16  # attention cache capacity (frames) before its first growth


def weight_schema(config: GridNetConfig, prefix="dnn1", extra_inputs=0) -> list[ParamSpec]:
    """Every named parameter of one network, in a fixed order; its input
    stacks an even int ``extra_inputs`` >= 0 of real planes after the mixture's."""
    _check_count("extra_inputs", extra_inputs, 0)
    if extra_inputs % 2:
        raise ValueError(f"extra_inputs must be even, got {extra_inputs}")
    d, h, i_k = config.d, config.hidden, config.unfold_kernel
    e, dv, emb = config.qk_channels, config.value_channels, EMB_DIM
    planes = 2 * config.channels + extra_inputs
    specs = [
        ParamSpec(
            f"{prefix}.conv_in.w",
            (d, planes, _CONV_KT, _CONV_KF),
            "weight",
            fan_in=planes * _CONV_KT * _CONV_KF,
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
    """Recover the architecture from the first-stage (``dnn1``) tensor shapes
    in a store.

    The weights encode every field. The channel count is half the input
    planes: the first stage has no extra inputs. A FiLM width other than
    ``EMB_DIM`` raises ValueError: no embedding the engine takes fits it.
    """

    def shape(name: str) -> tuple:
        if f"dnn1.{name}" not in store:
            raise ValueError(f"store holds no complete 'dnn1' model (missing dnn1.{name})")
        return store[f"dnn1.{name}"].shape

    d, in_ch, _, _ = shape("conv_in.w")
    if in_ch % 2:
        raise ValueError(f"dnn1.conv_in.w: odd input plane count {in_ch}")
    blocks = 0
    while f"dnn1.block{blocks}.film.w_gamma" in store:
        blocks += 1
    emb = shape("block0.film.w_gamma")[1]
    if emb != EMB_DIM:
        raise ValueError(
            f"dnn1.block0.film.w_gamma: FiLM width {emb}, not the embedding's {EMB_DIM}"
        )
    hidden, _, unfold_kernel = shape("block0.temporal.deconv.w")
    heads = 0
    while f"dnn1.block0.attn.head{heads}.q.w" in store:
        heads += 1
    qk = shape("block0.attn.head0.q.w")[0]
    return GridNetConfig(
        channels=in_ch // 2,
        d=d,
        blocks=blocks,
        unfold_kernel=unfold_kernel,
        hidden=hidden,
        heads=heads,
        qk_channels=qk,
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
    """Join carried frames ahead of new ones along axis -2, the time axis of
    every carried history.

    Returns the joined array and a copy of its last ``history.shape[-2]``
    frames, the history for the next call. The copy keeps the carried tail
    from pinning the joined array.
    """
    joined = np.concatenate([history, frames], axis=-2)
    return joined, joined[..., joined.shape[-2] - history.shape[-2] :, :].copy()


def _unfold_windows(seq: np.ndarray, width: int) -> np.ndarray:
    """seq[..., L, D] -> [..., L-width+1, width*D] windows, oldest step first:
    window t is steps t..t+width-1 side by side.

    The windows are a read-only strided view, not a copy: in a C-contiguous
    [..., L, D] array (``seq`` is made one if it is not) the steps of a
    window are one contiguous run of width*D elements, and window t + 1
    starts one step later. A consumer copies the windows it reads a chunk at
    a time, so the width-fold copy never exists.
    """
    seq = np.ascontiguousarray(seq)
    shape = seq.shape[:-2] + (seq.shape[-2] - width + 1, width * seq.shape[-1])
    windows = np.ndarray(shape, seq.dtype, seq, strides=seq.strides)  # 4x faster than as_strided
    windows.flags.writeable = False
    return windows


def _deconv_frames(history: np.ndarray, h: np.ndarray, taps, bias, out: np.ndarray) -> np.ndarray:
    """The temporal deconv of one network as a valid correlation, frame t
    summing its LSTM steps t-I+1..t: ``history`` [F, I-1, H] holds the last
    I-1 steps before h[F, T, H], and frame t of ``out`` [D, T, F] gets its
    window of the steps joined, times ``taps`` [I*H, D], plus ``bias``.

    The join is never made whole: frames go a chunk at a time, each copying
    only the steps its windows read, so the scratch stays within about
    ``_PATCH_BUDGET`` elements. Returns the history for the next call, the
    last I-1 steps joined.
    """
    carried, f_len, t_len = history.shape[1], h.shape[0], h.shape[1]
    width = carried + 1

    def joined(t0: int, t1: int) -> np.ndarray:
        """Steps t0..t1-1 of history then h, as one [F, t1-t0, H] array."""
        return np.concatenate([history[:, t0:t1], h[:, max(0, t0 - carried) : t1 - carried]], 1)

    rows = max(1, kernels._PATCH_BUDGET // (f_len * taps.shape[0]))
    for t0 in range(0, t_len, rows):
        m = min(rows, t_len - t0)
        u = _unfold_windows(joined(t0, t0 + m + carried), width)  # [F, m, I*H]
        y = u.reshape(-1, u.shape[2]) @ taps + bias
        out[:, t0 : t0 + m] = y.reshape(f_len, m, -1).transpose(2, 1, 0)
    return joined(t_len, t_len + carried)


class _Block(NamedTuple):
    """One block's kernel arguments over a stack's S networks, grouped as
    each kernel takes them.

    An array has a leading network axis: vectors and the attention
    projections, a few thousand floats per network, for the kernels that
    run once for the stack. A list has one entry per network, that
    network's own arrays: the LSTM and deconv matrices, for the kernels
    that take a sequence of them or run per network.
    """

    names: list  # "<prefix>.block<b>", for error messages
    film: tuple  # this speaker's (gamma, beta), [S, D] each
    temporal_ln: tuple  # (gamma, beta), [S, D, 1, 1] each
    temporal_lstm: list  # (w, r, b), the store's own arrays
    temporal_deconv: tuple  # ([I*H, D] taps, row block k weighing LSTM step t-I+1+k; b [S, D])
    spectral_ln: tuple  # (gamma, beta), [S, D, 1, 1] each
    spectral_fwd: tuple  # (ws, rs, bs)
    spectral_bwd: list  # (w, r, b)
    spectral_deconv: tuple  # (ws, b [S, D])
    qkv: tuple  # (w, b, alpha), [S, P, D] and [S, P], heads stacked as [q heads, k heads, v heads]
    out: tuple  # (w, b, alpha), [S, D, D] and [S, D]


class MisoGridNet:
    """The network over frames with carried state: a stack of networks of
    one architecture that read one mixture, built from one store for one
    speaker embedding.

    ``config`` is the architecture; ``nets`` holds one (prefix, extra_inputs)
    per network, as ``weight_schema`` takes them. The stack's prefix joins
    theirs with "+". Building resolves the store into ``conv_in``,
    ``ln_in`` and ``deconv_out`` and one ``_Block`` record per block, so no
    hop looks up a weight by name. ``forward`` runs frames from zero state
    or continuing a given one, every network side by side over one state
    with a leading network axis; ``GridNetStream`` runs the same code one
    frame at a time.
    """

    def __init__(self, config: GridNetConfig, nets, store: WeightStore, embedding) -> None:
        """``embedding`` is the target speaker's length-``EMB_DIM`` vector;
        one with another shape, or a value that is NaN or Inf as float32,
        raises ValueError. The model keeps only what the blocks derive from it.
        An empty ``nets`` raises ValueError before any weight is resolved."""
        if not nets:
            raise ValueError("MisoGridNet: the network list is empty; a stack needs at least one")
        embedding = np.asarray(embedding, dtype=np.float32)
        if embedding.shape != (EMB_DIM,):
            raise ValueError(f"embedding must have shape ({EMB_DIM},), got {embedding.shape}")
        if not np.all(np.isfinite(embedding)):
            raise ValueError("embedding contains non-finite values")
        self.config = config
        self.planes = [2 * config.channels + extra for _, extra in nets]  # input planes
        self.prefix = "+".join(prefix for prefix, _ in nets)
        ws = [store.resolve(weight_schema(config, *net), net[0]) for net in nets]

        def each(name: str, parts=("w", "b")) -> list:
            """Each network's own arrays of ``name``, one tuple per network."""
            return [tuple(w[f"{name}.{part}"] for part in parts) for w in ws]

        def stacked(arrays) -> tuple:
            """Per-network tuples of arrays -> one array per item, network axis first."""
            return tuple(np.stack(items) for items in zip(*arrays))

        norm, lstm, act = ("gamma", "beta"), ("w", "r", "b"), ("w", "b", "alpha")
        self.conv_in, self.deconv_out = each("conv_in"), each("deconv_out")
        self.ln_in = stacked(each("ln_in", norm))
        self.blocks = []
        for b in range(config.blocks):
            p = f"block{b}"
            heads = [f"{p}.attn.head{l}.{proj}" for proj in "qkv" for l in range(config.heads)]
            films = [each(f"{p}.film", (f"w_{n}", f"b_{n}")) for n in norm]
            kernels, biases = zip(*each(f"{p}.temporal.deconv"))  # [H, D, I], tap k weighs step t-k
            taps = [k[:, :, ::-1].transpose(2, 0, 1).reshape(-1, k.shape[1]) for k in kernels]
            deconvs, deconv_biases = zip(*each(f"{p}.spectral.deconv"))
            self.blocks.append(
                _Block(
                    names=[f"{prefix}.{p}" for prefix, _ in nets],
                    film=tuple(np.stack([linear(embedding, *wb) for wb in f]) for f in films),
                    temporal_ln=stacked(each(f"{p}.temporal.ln", norm)),
                    temporal_lstm=each(f"{p}.temporal.lstm", lstm),
                    temporal_deconv=(taps, np.stack(biases)),
                    spectral_ln=stacked(each(f"{p}.spectral.ln", norm)),
                    spectral_fwd=tuple(map(list, zip(*each(f"{p}.spectral.lstm_fwd", lstm)))),
                    spectral_bwd=each(f"{p}.spectral.lstm_bwd", lstm),
                    spectral_deconv=(list(deconvs), np.stack(deconv_biases)),
                    qkv=stacked(
                        tuple(np.concatenate([w[f"{h}.{part}"] for h in heads]) for part in act)
                        for w in ws
                    ),
                    out=stacked(each(f"{p}.attn.out", act)),
                )
            )

    # -- forward -------------------------------------------------------------

    def forward(self, mixture: np.ndarray, extras, state=None) -> np.ndarray:
        """mixture[T, F, C] complex, with one extras[T, F, K] (complex) or
        None per network -> the networks' estimates, complex [S, T, F].

        Each estimate is for the speaker the network was built for.
        ``state`` (from ``zero_state(F)``) is continued and updated in place;
        None runs from zero state. Each stage that looks back in time reads
        its past frames from the state and leaves its own last frames there,
        so one call over T frames equals successive calls over any split.
        Input with no frames, a value that is NaN or Inf once cast to
        float32, or a state of another stack or bin count raises ValueError
        before any state moves.
        """
        inputs = [stack_ri(mixture, ex) for ex in extras]
        planes = [x.shape[0] for x in inputs]
        if planes != self.planes:  # one extras per network, each of its count
            raise ValueError(f"{self.prefix}: input planes {planes}, not {self.planes}")
        if inputs[0].shape[1] == 0:
            raise ValueError(f"mixture {np.shape(mixture)} has no frames")
        bins = inputs[0].shape[2]
        state = self.zero_state(bins) if state is None else state
        held = len(state["conv_in"]), state["deconv_out"].shape[-1]
        if held != (len(self.planes), bins):
            raise ValueError(f"{self.prefix}: a state of {held[0]} networks over {held[1]} bins")
        joined = [_with_history(history, x) for history, x in zip(state["conv_in"], inputs)]
        state["conv_in"] = [history for _, history in joined]
        maps = [conv2d(window, *wb) for wb, (window, _) in zip(self.conv_in, joined)]
        x = layer_norm(np.stack(maps), *self.ln_in)  # [S, D, T, F]
        inputs = joined = maps = None  # free the input side before the blocks run
        for blk, carried in zip(self.blocks, state["blocks"]):
            x = film(x, *blk.film)
            x = x + _temporal(x, blk, carried, self.config)
            x = x + _spectral(x, blk, self.config)
            x = x + _attention(x, blk, carried, self.config)
        window, state["deconv_out"] = _with_history(state["deconv_out"], x)
        return np.stack(
            [unstack_ri(conv_transpose2d(y, *wb)) for y, wb in zip(window, self.deconv_out)]
        )

    def zero_state(self, bins: int) -> dict:
        """The carried state before the first frame over ``bins`` >=
        ``unfold_kernel`` frequency bins (else ValueError): all zeros.

        ``conv_in`` holds each network's last Kt-1 input frames of the input
        convolution, ``deconv_out`` the stack's [S, D, Kt-1, F] last frames
        into the output one, ``blocks`` one ``_zero_block`` state per block.
        """
        cfg, hist = self.config, _CONV_KT - 1
        _check_count("bins", bins, cfg.unfold_kernel)
        return {
            "conv_in": [np.zeros((n, hist, bins), dtype=np.float32) for n in self.planes],
            "blocks": [self._zero_block(bins) for _ in range(cfg.blocks)],
            "deconv_out": np.zeros((len(self.planes), cfg.d, hist, bins), dtype=np.float32),
        }

    def _zero_block(self, bins: int) -> dict:
        """One block's state over the stack's S networks: the temporal
        unfold history (I-1 frames of normalized input), the temporal LSTM
        (h, c), the last I-1 LSTM outputs for the temporal deconv, and the
        attention cache.

        The cache is one float32 key array ``k`` [rows, S*heads*F*E] and one
        value array ``v`` [rows, S*heads*F*Dv], a row holding one frame of
        every network's heads in network order, whose first ``frames`` rows
        hold every frame seen so far. Rows past ``frames`` are spare
        capacity; ``_attention`` doubles it when a call would overflow.
        """
        n_net, cfg = len(self.planes), self.config
        f, hist, h = bins, cfg.unfold_kernel - 1, cfg.hidden
        width = n_net * cfg.heads * f
        return {
            "unfold": np.zeros((n_net, f, hist, cfg.d), dtype=np.float32),
            "lstm": tuple(np.zeros((n_net, f, h), dtype=np.float32) for _ in "hc"),
            "deconv": np.zeros((n_net, f, hist, h), dtype=np.float32),
            "k": _cache_array(_CACHE_ROWS, width * cfg.qk_channels),
            "v": _cache_array(_CACHE_ROWS, width * cfg.value_channels),
            "frames": 0,
        }


# -- block stages over a stack x[S, D, T, F] -------------------------------------


def _temporal(x: np.ndarray, blk: _Block, state: dict, cfg: GridNetConfig) -> np.ndarray:
    """Causal sub-band temporal module, continuing the stack's block
    ``state``. The LSTM runs per network, on the store's own (w, r, b),
    which the benchmark's tracer tells it apart by; in a stream hop it makes
    one step, so a joint call would save no steps. Each network's LSTM
    output goes straight into its deconv, and is freed before the next
    network runs."""
    y = layer_norm(x, *blk.temporal_ln).transpose(0, 3, 2, 1)
    seq, state["unfold"] = _with_history(state["unfold"], y)
    y = None  # free the normalized map: seq holds it in the LSTM's order
    windows = _unfold_windows(seq, cfg.unfold_kernel)  # [S, F, T, I*D]
    # C order, as x: a residual sum takes its operands' memory order, and
    # the later stages run slower on the LSTM's [F, T, D] order
    out = np.empty(x.shape, dtype=np.float32)
    lstm, deconv = (blk.temporal_lstm, *state["lstm"]), (state["deconv"], *blk.temporal_deconv)
    nets = zip(windows, *lstm, *deconv, out)
    carried, tails = [], []
    for w, weights, h0, c0, history, taps, bias, out_k in nets:
        h, hc = lstm_forward(w, *weights, state=(h0, c0))
        tails.append(_deconv_frames(history, h, taps, bias, out_k))
        carried.append(hc)
    state["lstm"] = tuple(np.stack(part) for part in zip(*carried))
    state["deconv"] = np.stack(tails)
    return out


def _spectral(x: np.ndarray, blk: _Block, cfg: GridNetConfig) -> np.ndarray:
    """Intra-frame spectral module: one bidirectional LSTM call over every
    network's unfold windows, each network's two directions reading its own."""
    y = layer_norm(x, *blk.spectral_ln).transpose(0, 2, 3, 1)  # [S, T, F, D]
    windows = _unfold_windows(y, cfg.unfold_kernel)  # [S, T, F-I+1, I*D]
    y = None  # the windows view their own contiguous copy of the map
    h = lstm_forward(windows, *blk.spectral_fwd, backward=blk.spectral_bwd)
    windows = None  # free the normalized map before the deconv's output is made
    full = conv_transpose1d(h, *blk.spectral_deconv)
    return full.transpose(0, 3, 1, 2)  # length restored exactly: (F-I+1)-1+I == F


def _attention(x: np.ndarray, blk: _Block, state: dict, cfg: GridNetConfig) -> np.ndarray:
    """Full-band self-attention over time for the stack's x[S, D, T, F]: the
    keys and values of x's frames are written after those cached in the
    block ``state``, and each frame of x attends to its own frame and every
    earlier one. A NaN or Inf projection raises before any row is written,
    so the cached rows and their ``frames`` count stay valid and are never
    rescanned. The projections and the attention run once for the stack:
    every network's heads are heads of one ``masked_attention`` call over
    the one cache, and each head has its own softmax."""
    n_net, d, t_len, f_len = x.shape
    heads = n_net * cfg.heads
    w_qkv, b_qkv, alpha_qkv = blk.qkv
    z = np.matmul(w_qkv, x.reshape(n_net, d, -1)).reshape(n_net, -1, t_len, f_len)
    z += b_qkv[..., None, None]
    z = prelu(z, alpha_qkv[..., None, None])
    if not np.all(np.isfinite(z)):
        name = next(name for name, zk in zip(blk.names, z) if not np.all(np.isfinite(zk)))
        raise ValueError(f"{name}.attn: non-finite query, key or value")
    # [S, heads * W, T, F] -> [T, S, heads, F, W]: masked_attention's row layout
    qk_rows = cfg.heads * cfg.qk_channels
    q, k, v = (
        part.reshape(n_net, cfg.heads, -1, t_len, f_len).transpose(3, 0, 1, 4, 2)
        for part in np.split(z, [qk_rows, 2 * qk_rows], axis=1)
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
    q = q.reshape(t_len, -1)
    z = k = v = new = None  # the cache holds the keys and values now
    out = masked_attention(q, state["k"][:end], state["v"][:end], heads=heads)
    o = out.reshape(t_len, n_net, cfg.heads, f_len, cfg.value_channels)
    o = o.transpose(1, 2, 4, 0, 3).reshape(n_net, d, -1)
    out = None
    w_out, b_out, alpha_out = blk.out
    y = np.matmul(w_out, o).reshape(x.shape)
    o = None
    y += b_out[..., None, None]
    return prelu(y, alpha_out[..., None, None])


class GridNetStream:
    """Frame-by-frame inference: ``MisoGridNet.forward`` on one frame at a
    time, driving a stack of one network.

    The stream is the same code as the whole-sequence forward, run on one
    frame with carried state, so it matches that forward within float32
    accumulation noise (<= 1e-5). Every carried state covers only current
    and past frames, so streaming cannot look ahead by construction.
    """

    def __init__(self, model: MisoGridNet) -> None:
        self.model = model
        self.state = None  # sized for the first frame the model takes

    def step(self, frame: np.ndarray, extras: np.ndarray | None = None) -> np.ndarray:
        """One complex frame [F, C] (+ extras [F, K]) -> complex estimate [F]."""
        state = self.state or self.model.zero_state(len(np.atleast_1d(frame)))
        extras = None if extras is None else np.asarray(extras)[None]
        out = self.model.forward(np.asarray(frame)[None], [extras], state)[0, 0]
        self.state = state
        return out
