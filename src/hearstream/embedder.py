"""Speaker-enrollment embedding network.

A non-streaming (enrollment runs ahead of time, so non-causal processing is
fine) encoder + TCN producing a fixed ``gridnet.EMB_DIM``-wide vector from a
single-channel complex spectrogram of any length. The architecture is fixed;
only the bin count follows the STFT geometry (``EmbedConfig.n_freq``):

  encoder: strided 3x3 conv halving the frequency axis, then
           ``ENCODER_STAGES`` stages of DenseNet-style concatenation (conv,
           concat with input, conv) each followed by another
           frequency-halving strided conv, all at ``ENCODER_HIDDEN``
           channels; the surviving [hidden, T, F'] grid is flattened per
           frame and projected to the TCN width;
  TCN:     ``TCN_REPEATS`` repeats of ``TCN_BLOCKS`` residual blocks
           (pointwise conv, depthwise 3-tap conv with dilation 2^b,
           pointwise conv, PReLU between), ``EMB_DIM`` channels throughout;
  pooling: arithmetic mean over the time axis.

The embedding is cacheable: a one-tensor weight container under the name
``spk.embedding``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dsp import StftConfig
from .gridnet import EMB_DIM, stack_ri
from .kernels import conv2d, linear, prelu
from .weights import ParamSpec, WeightFormatError, WeightStore

__all__ = [
    "EmbedConfig",
    "SpeakerEmbedder",
    "cache_embedding",
    "embed_weight_schema",
    "load_embedding",
]

_PREFIX = "spk"
EMBEDDING_NAME = f"{_PREFIX}.embedding"

# enrollment frames per encoder chunk: a chunk's largest map at 257 bins is
# [32, 34, 129] float32, 0.6 MB, however long the enrollment
_CHUNK_FRAMES = 32

# the fixed architecture; the TCN and the embedding are EMB_DIM wide
ENCODER_HIDDEN = 16
ENCODER_STAGES = 3
TCN_REPEATS = 3
TCN_BLOCKS = 4  # block b of each repeat dilates its depthwise conv by 2^b


@dataclass(frozen=True)
class EmbedConfig:
    """The encoder's input bin count; every width is a module constant."""

    n_freq: int = StftConfig().bins

    @property
    def encoder_out_bins(self) -> int:
        f = self.n_freq
        for _ in range(ENCODER_STAGES + 1):
            f = -(-f // 2)
        return f


def embed_weight_schema(config: EmbedConfig) -> list[ParamSpec]:
    h, c = ENCODER_HIDDEN, EMB_DIM
    specs = [
        ParamSpec(f"{_PREFIX}.enc.conv0.w", (h, 2, 3, 3), "weight", fan_in=2 * 9),
        ParamSpec(f"{_PREFIX}.enc.conv0.b", (h,), "bias"),
        ParamSpec(f"{_PREFIX}.enc.conv0.alpha", (h,), "prelu"),
    ]
    for s in range(ENCODER_STAGES):
        p = f"{_PREFIX}.enc.stage{s}"
        specs += [
            ParamSpec(f"{p}.dense1.w", (h, h, 3, 3), "weight", fan_in=h * 9),
            ParamSpec(f"{p}.dense1.b", (h,), "bias"),
            ParamSpec(f"{p}.dense1.alpha", (h,), "prelu"),
            ParamSpec(f"{p}.dense2.w", (h, 2 * h, 3, 3), "weight", fan_in=2 * h * 9),
            ParamSpec(f"{p}.dense2.b", (h,), "bias"),
            ParamSpec(f"{p}.dense2.alpha", (h,), "prelu"),
            ParamSpec(f"{p}.down.w", (h, h, 3, 3), "weight", fan_in=h * 9),
            ParamSpec(f"{p}.down.b", (h,), "bias"),
            ParamSpec(f"{p}.down.alpha", (h,), "prelu"),
        ]
    flat = h * config.encoder_out_bins
    specs += [
        ParamSpec(f"{_PREFIX}.enc.proj.w", (c, flat), "weight", fan_in=flat),
        ParamSpec(f"{_PREFIX}.enc.proj.b", (c,), "bias"),
        ParamSpec(f"{_PREFIX}.enc.proj.alpha", (c,), "prelu"),
    ]
    for r in range(TCN_REPEATS):
        for b in range(TCN_BLOCKS):
            p = f"{_PREFIX}.tcn.r{r}.b{b}"
            specs += [
                ParamSpec(f"{p}.pw1.w", (c, c, 1), "weight", fan_in=c),
                ParamSpec(f"{p}.pw1.b", (c,), "bias"),
                ParamSpec(f"{p}.pw1.alpha", (c,), "prelu"),
                ParamSpec(f"{p}.dw.w", (c, 1, 3), "weight", fan_in=3),
                ParamSpec(f"{p}.dw.b", (c,), "bias"),
                ParamSpec(f"{p}.dw.alpha", (c,), "prelu"),
                ParamSpec(f"{p}.pw2.w", (c, c, 1), "weight", fan_in=c),
                ParamSpec(f"{p}.pw2.b", (c,), "bias"),
            ]
    return specs


class _Stage(NamedTuple):
    """One encoder stage's conv layers, each (w, b, alpha)."""

    dense1: tuple
    dense2: tuple
    down: tuple


class _TcnBlock(NamedTuple):
    """One residual TCN block's kernel arguments."""

    pw1: tuple  # (w, b, alpha)
    dw: tuple  # (w, b, alpha)
    pw2: tuple  # (w, b)
    dilation: int


def _tcn_block(y: np.ndarray, blk: _TcnBlock) -> np.ndarray:
    """One residual TCN block over y[C, T]; each conv keeps the length T."""
    (w1, b1, a1), (wd, bd, ad), (w2, b2) = blk.pw1, blk.dw, blk.pw2
    z = prelu(w1[:, :, 0] @ y + b1[:, None], a1)
    # depthwise 3-tap conv, zero-padded by one dilation on either side
    t, d = z.shape[1], blk.dilation
    zp = np.pad(z, ((0, 0), (d, d)))
    z = zp[:, :t] * wd[:, :, 0]
    z += zp[:, d : d + t] * wd[:, :, 1]
    z += zp[:, 2 * d : 2 * d + t] * wd[:, :, 2]
    del zp  # freed before the rest of the block, which holds [C, T] maps of its own
    z = prelu(z + bd[:, None], ad)
    return y + (w2[:, :, 0] @ z + b2[:, None])


class _ConvStream:
    """One encoder conv layer (conv2d, then PReLU) fed its input a chunk at a time.

    The layer's time taps are centered: output frame t reads input frames
    t - lead .. t + lag. Each ``push`` joins the input frames carried from
    the last push ahead of the new ones and returns every output frame they
    complete. The first push starts with ``lead`` zero frames and the last
    ends with ``lag``, the whole-input layer's 'same' padding, so pushing a
    whole input at once computes exactly that layer.
    """

    def __init__(self, layer: tuple, f_stride: int) -> None:
        self.layer, self.stride = layer, (1, f_stride)
        self.taps = layer[0].shape[2]
        self.lead, self.lag = (self.taps - 1) // 2, self.taps // 2
        self.carry = None

    def push(self, x: np.ndarray, last: bool) -> np.ndarray:
        w, b, alpha = self.layer
        c, _, f = x.shape
        if self.carry is None:
            self.carry = np.zeros((c, self.lead, f), np.float32)
        tail = [np.zeros((c, self.lag, f), np.float32)] if last else []
        x = np.concatenate([self.carry, x, *tail], axis=1)
        self.carry = x[:, max(0, x.shape[1] - self.taps + 1) :].copy()
        if x.shape[1] < self.taps:
            return np.zeros((w.shape[0], 0, -(-f // self.stride[1])), np.float32)
        return prelu(conv2d(x, w, b, stride=self.stride), alpha)


class _StageStream:
    """One encoder stage fed a chunk at a time. dense1's output lags its
    input, so ``pending`` keeps the input frames it has not yet output, to
    join them with that output when it comes."""

    def __init__(self, stage: _Stage) -> None:
        self.dense1 = _ConvStream(stage.dense1, 1)
        self.dense2 = _ConvStream(stage.dense2, 1)
        self.down = _ConvStream(stage.down, 2)
        self.pending = None

    def push(self, x: np.ndarray, last: bool) -> np.ndarray:
        d = self.dense1.push(x, last)
        if self.pending is not None:
            x = np.concatenate([self.pending, x], axis=1)
        n = d.shape[1]
        self.pending = x[:, n:].copy()
        x = np.concatenate([x[:, :n], d], axis=0)
        del d  # the joined maps replace both before dense2 runs
        return self.down.push(self.dense2.push(x, last), last)


class SpeakerEmbedder:
    """Pure function of (adaptation spectrogram, weights) -> ``EMB_DIM`` vector.

    Building it resolves the store into per-layer records (``conv0``,
    ``stages``, ``proj`` and ``tcn``), so ``embed`` looks up no weight by
    name. ``embed`` streams the encoder over ``_CHUNK_FRAMES`` input frames
    at a time, each layer carrying the input frames its next output frames
    read, so its [hidden, T, F] maps are bounded by the chunk however long
    the enrollment, and no frame is computed twice.
    """

    def __init__(self, config: EmbedConfig, store: WeightStore) -> None:
        self.config = config
        w = store.resolve(embed_weight_schema(config), _PREFIX)

        def group(name: str, parts=("w", "b", "alpha")) -> tuple:
            return tuple(w[f"{name}.{part}"] for part in parts)

        self.conv0 = group("enc.conv0")
        self.stages = [
            _Stage(*(group(f"enc.stage{s}.{layer}") for layer in _Stage._fields))
            for s in range(ENCODER_STAGES)
        ]
        self.proj = group("enc.proj")
        self.tcn = [
            _TcnBlock(
                group(f"tcn.r{r}.b{b}.pw1"),
                group(f"tcn.r{r}.b{b}.dw"),
                group(f"tcn.r{r}.b{b}.pw2", ("w", "b")),
                dilation=2**b,
            )
            for r in range(TCN_REPEATS)
            for b in range(TCN_BLOCKS)
        ]

    def embed(self, spect: np.ndarray) -> np.ndarray:
        """Adaptation spectrogram [T, F] (or [T, F, 1]) complex -> [EMB_DIM] float32.

        A value that is NaN or Inf as float32 raises ValueError.
        """
        spect = np.asarray(spect)
        if spect.ndim == 3:
            if spect.shape[2] != 1:
                raise ValueError(f"adaptation input must be single-channel, got {spect.shape}")
            spect = spect[:, :, 0]
        if spect.ndim != 2 or spect.shape[0] < 1:
            raise ValueError(f"adaptation input needs at least one [T, F] frame, got {spect.shape}")
        if spect.shape[1] != self.config.n_freq:
            raise ValueError(
                f"expected {self.config.n_freq} frequency bins, got {spect.shape[1]}"
            )
        t_len = spect.shape[0]
        flat = np.empty((t_len, ENCODER_HIDDEN * self.config.encoder_out_bins), np.float32)
        conv0 = _ConvStream(self.conv0, 2)
        stages = [_StageStream(stage) for stage in self.stages]
        done = 0  # encoder frames complete so far; the last push completes all
        for t0 in range(0, t_len, _CHUNK_FRAMES):
            last = t0 + _CHUNK_FRAMES >= t_len
            x = conv0.push(stack_ri(spect[t0 : t0 + _CHUNK_FRAMES]), last)
            for stage in stages:
                x = stage.push(x, last)
            n = x.shape[1]
            flat[done : done + n] = x.transpose(1, 0, 2).reshape(n, flat.shape[1])
            done += n
        w, b, alpha = self.proj
        y = prelu(linear(flat, w, b).T, alpha)  # [C, T]
        del flat  # nothing reads the features again; free them before the TCN's maps
        for blk in self.tcn:
            y = _tcn_block(y, blk)
        # mean pooling over time, double precision accumulation
        return y.astype(np.float64).mean(axis=1).astype(np.float32)


def cache_embedding(path: str, embedding: np.ndarray) -> None:
    embedding = np.asarray(embedding, dtype=np.float32)
    if embedding.ndim != 1:
        raise ValueError(f"embedding must be a vector, got shape {embedding.shape}")
    WeightStore({EMBEDDING_NAME: embedding}).save(path)


def load_embedding(path: str) -> np.ndarray:
    store = WeightStore.load(path)
    if EMBEDDING_NAME not in store:
        raise WeightFormatError(f"{path}: no {EMBEDDING_NAME!r} tensor")
    emb = store[EMBEDDING_NAME]
    if emb.shape != (EMB_DIM,):
        raise WeightFormatError(
            f"{path}: embedding has shape {emb.shape}, expected ({EMB_DIM},)"
        )
    return emb
