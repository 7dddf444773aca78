"""Speaker-enrollment embedding network.

A non-streaming (enrollment runs ahead of time, so non-causal processing is
fine) encoder + TCN producing a fixed 128-dim vector from a single-channel
complex spectrogram of any length:

  encoder: strided 3x3 conv halving the frequency axis, then three stages of
           DenseNet-style concatenation (conv, concat with input, conv) each
           followed by another frequency-halving strided conv, all at 16
           hidden channels; the surviving [16, T, F'] grid is flattened per
           frame and projected to the TCN width;
  TCN:     3 repeats of 4 residual blocks (pointwise conv, depthwise 3-tap
           conv with dilation 2^b, pointwise conv, PReLU between), 128
           channels throughout;
  pooling: arithmetic mean over the time axis.

The embedding is cacheable: a one-tensor weight container under the name
``spk.embedding``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import StftConfig
from .gridnet import stack_ri
from .kernels import conv1d, conv2d, linear, prelu
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


@dataclass(frozen=True)
class EmbedConfig:
    tcn_repeats: int = 3
    tcn_blocks: int = 4
    tcn_channels: int = 128
    encoder_hidden: int = 16
    encoder_stages: int = 3
    n_freq: int = StftConfig().bins

    def __post_init__(self) -> None:
        if min(self.tcn_repeats, self.tcn_blocks, self.tcn_channels, self.encoder_hidden) < 1:
            raise ValueError("all embedder dimensions must be >= 1")

    @property
    def emb_dim(self) -> int:
        # the pooled TCN output is the embedding, so the dims coincide
        return self.tcn_channels

    @property
    def encoder_out_bins(self) -> int:
        f = self.n_freq
        for _ in range(self.encoder_stages + 1):
            f = -(-f // 2)
        return f


def embed_weight_schema(config: EmbedConfig) -> list[ParamSpec]:
    h, c = config.encoder_hidden, config.tcn_channels
    specs = [
        ParamSpec(f"{_PREFIX}.enc.conv0.w", (h, 2, 3, 3), "weight", fan_in=2 * 9),
        ParamSpec(f"{_PREFIX}.enc.conv0.b", (h,), "bias"),
        ParamSpec(f"{_PREFIX}.enc.conv0.alpha", (h,), "prelu"),
    ]
    for s in range(config.encoder_stages):
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
    for r in range(config.tcn_repeats):
        for b in range(config.tcn_blocks):
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


class SpeakerEmbedder:
    """Pure function of (adaptation spectrogram, weights) -> 128-dim vector."""

    def __init__(self, config: EmbedConfig, store: WeightStore) -> None:
        self.config = config
        self.w = store.resolve(embed_weight_schema(config), _PREFIX)

    def _conv_block(self, x: np.ndarray, name: str, stride: tuple[int, int]) -> np.ndarray:
        w = self.w
        y = conv2d(x, w[f"{name}.w"], w[f"{name}.b"], stride=stride)
        return prelu(y, w[f"{name}.alpha"])

    def embed(self, spect: np.ndarray) -> np.ndarray:
        """Adaptation spectrogram [T, F] (or [T, F, 1]) complex -> [emb_dim] float32.

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
        x = stack_ri(spect)  # [2, T, F]
        x = self._conv_block(x, "enc.conv0", (1, 2))
        for s in range(self.config.encoder_stages):
            p = f"enc.stage{s}"
            d = self._conv_block(x, f"{p}.dense1", (1, 1))
            x = self._conv_block(np.concatenate([x, d], axis=0), f"{p}.dense2", (1, 1))
            x = self._conv_block(x, f"{p}.down", (1, 2))
        t_len = x.shape[1]
        flat = x.transpose(1, 0, 2).reshape(t_len, -1)  # [T, hidden * bins]
        y = linear(flat, self.w["enc.proj.w"], self.w["enc.proj.b"])
        y = prelu(y.T, self.w["enc.proj.alpha"])  # [C, T]

        for r in range(self.config.tcn_repeats):
            for b in range(self.config.tcn_blocks):
                p = f"tcn.r{r}.b{b}"
                z = prelu(conv1d(y, self.w[f"{p}.pw1.w"], self.w[f"{p}.pw1.b"]), self.w[f"{p}.pw1.alpha"])
                z = prelu(
                    conv1d(z, self.w[f"{p}.dw.w"], self.w[f"{p}.dw.b"], dilation=2**b, groups=z.shape[0]),
                    self.w[f"{p}.dw.alpha"],
                )
                z = conv1d(z, self.w[f"{p}.pw2.w"], self.w[f"{p}.pw2.b"])
                y = y + z
        # mean pooling over time, double precision accumulation
        return y.astype(np.float64).mean(axis=1).astype(np.float32)


def cache_embedding(path: str, embedding: np.ndarray) -> None:
    embedding = np.asarray(embedding, dtype=np.float32)
    if embedding.ndim != 1:
        raise ValueError(f"embedding must be a vector, got shape {embedding.shape}")
    WeightStore({EMBEDDING_NAME: embedding}).save(path)


def load_embedding(path: str, emb_dim: int = 128) -> np.ndarray:
    store = WeightStore.load(path)
    if EMBEDDING_NAME not in store:
        raise WeightFormatError(f"{path}: no {EMBEDDING_NAME!r} tensor")
    emb = store[EMBEDDING_NAME]
    if emb.shape != (emb_dim,):
        raise WeightFormatError(
            f"{path}: embedding has shape {emb.shape}, expected ({emb_dim},)"
        )
    return emb
