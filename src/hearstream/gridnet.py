"""Speaker-conditioned causal time-frequency estimator.

A stack of dual-path blocks over a [D, T, F] feature grid mapped from the
real/imaginary parts of a multichannel spectrogram. Each block applies, with
residual connections around each stage:

  1. feature-wise linear modulation by a 128-dim speaker embedding,
  2. a sub-band temporal module (per-frame LN, causal unfold over past
     frames, unidirectional LSTM along time per frequency, transposed conv),
  3. an intra-frame spectral module (per-frame LN, unfold over frequency,
     bidirectional LSTM along frequency within the frame, transposed conv),
  4. full-band self-attention over time with a causal mask.

Input enters through a causal 3x3 conv + per-frame LN; a transposed 3x3 conv
maps back to a 2-channel real/imaginary head (direct complex spectral
mapping, no masking). Every time-directional stage sees only current and
past frames, so the whole model is causal frame by frame; `GridNetStream`
runs the same weights one frame at a time for deployment.

The second-stage network is the same architecture with extra input channels
(first-stage estimate and beamformer output stacked after the mixture).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import (
    conv2d,
    conv_transpose1d,
    conv_transpose2d,
    film,
    layer_norm,
    lstm_forward,
    masked_attention,
    prelu,
)
from .weights import ParamSpec, WeightStore, seeded_init

__all__ = [
    "GridNetConfig",
    "GridNetStream",
    "MisoGridNet",
    "param_count",
    "stack_ri",
    "unstack_ri",
    "weight_schema",
]


@dataclass(frozen=True)
class GridNetConfig:
    """Architecture hyperparameters.

    channels is the microphone count; extra_inputs counts additional real
    feature planes stacked after the mixture (4 for the second stage: RI of
    the first-stage estimate and of the beamformer output). unfold_stride
    must stay 1 so each output frame aligns with one input frame.
    """

    channels: int = 2
    extra_inputs: int = 0
    d: int = 16
    blocks: int = 2
    unfold_kernel: int = 2
    unfold_stride: int = 1
    hidden: int = 32
    heads: int = 2
    qk_channels: int = 2
    n_freq: int = 257
    emb_dim: int = 128
    lookahead: int = 3
    causal_attention: bool = True

    def __post_init__(self) -> None:
        if self.unfold_stride != 1:
            raise ValueError("unfold_stride must be 1 (one output frame per input frame)")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.extra_inputs % 2 or self.extra_inputs < 0:
            raise ValueError("extra_inputs must be an even non-negative count")
        if self.d % self.heads:
            raise ValueError(f"attention heads ({self.heads}) must divide d ({self.d})")
        if min(self.d, self.blocks, self.unfold_kernel, self.hidden, self.heads) < 1:
            raise ValueError("d, blocks, unfold_kernel, hidden, heads must all be >= 1")

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


def param_count(config: GridNetConfig) -> int:
    return int(
        sum(np.prod(s.shape, dtype=np.int64) for s in weight_schema(config, "x"))
    )


def init_gridnet(config: GridNetConfig, seed: int, prefix: str = "dnn1") -> WeightStore:
    return seeded_init(weight_schema(config, prefix), seed)


def infer_config(
    store: WeightStore,
    prefix: str = "dnn1",
    *,
    channels: int | None = None,
    n_freq: int = 257,
    lookahead: int = 3,
) -> GridNetConfig:
    """Recover architecture hyperparameters from tensor shapes in a store.

    Only n_freq and lookahead are not encoded in the weights; channels must
    be supplied for a model with extra feature inputs (the second stage) and
    is otherwise taken as half the input plane count.
    """
    key = f"{prefix}.conv_in.w"
    if key not in store:
        raise ValueError(f"store holds no '{prefix}' model (missing {key})")
    d, in_ch, _, _ = store[key].shape
    if channels is None:
        if in_ch % 2:
            raise ValueError(f"{key}: odd input plane count {in_ch} needs explicit channels")
        channels, extras = in_ch // 2, 0
    else:
        extras = in_ch - 2 * channels
    blocks = 0
    while f"{prefix}.block{blocks}.film.w_gamma" in store:
        blocks += 1
    emb = store[f"{prefix}.block0.film.w_gamma"].shape[1]
    hidden, _, unfold_kernel = store[f"{prefix}.block0.temporal.deconv.w"].shape
    heads = 0
    while f"{prefix}.block0.attn.head{heads}.q.w" in store:
        heads += 1
    qk = store[f"{prefix}.block0.attn.head0.q.w"].shape[0]
    return GridNetConfig(
        channels=channels,
        extra_inputs=extras,
        d=d,
        blocks=blocks,
        unfold_kernel=unfold_kernel,
        hidden=hidden,
        heads=heads,
        qk_channels=qk,
        n_freq=n_freq,
        emb_dim=emb,
        lookahead=lookahead,
    )


def stack_ri(spect: np.ndarray, extras: np.ndarray | None = None) -> np.ndarray:
    """Interleave real/imag planes of spect[T, F, C] into float32 [2C(+2K), T, F].

    Channel order [Re ch0, Im ch0, Re ch1, ...]; extras[T, F, K] (complex)
    are appended after the mixture channels in the same interleaving.
    """
    spect = np.asarray(spect)
    if spect.ndim == 2:
        spect = spect[:, :, None]
    if spect.ndim != 3:
        raise ValueError(f"stack_ri: expected [T, F, C] input, got shape {spect.shape}")
    parts = [spect]
    if extras is not None:
        extras = np.asarray(extras)
        if extras.ndim == 2:
            extras = extras[:, :, None]
        if extras.shape[:2] != spect.shape[:2]:
            raise ValueError(
                f"stack_ri: extras {extras.shape} do not share (T, F) with {spect.shape}"
            )
        parts.append(extras)
    planes = []
    for block in parts:
        for c in range(block.shape[2]):
            planes.append(block[:, :, c].real)
            planes.append(block[:, :, c].imag)
    return np.stack(planes, axis=0).astype(np.float32)


def unstack_ri(tensor: np.ndarray) -> np.ndarray:
    """Inverse of the 2-channel output head: [2, T, F] -> complex [T, F]."""
    if tensor.ndim != 3 or tensor.shape[0] != 2:
        raise ValueError(f"unstack_ri: expected [2, T, F], got {tensor.shape}")
    return tensor[0] + 1j * tensor[1]


class MisoGridNet:
    """Full-sequence forward pass; one instance per (weights, prefix)."""

    def __init__(self, config: GridNetConfig, store: WeightStore, prefix: str = "dnn1") -> None:
        self.config = config
        self.prefix = prefix
        missing = [s.name for s in weight_schema(config, prefix) if s.name not in store]
        if missing:
            raise KeyError(f"weight store is missing {len(missing)} tensors, e.g. {missing[0]!r}")
        for spec in weight_schema(config, prefix):
            if store[spec.name].shape != spec.shape:
                raise ValueError(
                    f"{spec.name}: stored shape {store[spec.name].shape} != expected {spec.shape}"
                )
        self.w = {s.name[len(prefix) + 1 :]: store[s.name] for s in weight_schema(config, prefix)}

    # -- forward -------------------------------------------------------------

    def forward(
        self,
        mixture: np.ndarray,
        embedding: np.ndarray | None,
        extras: np.ndarray | None = None,
    ) -> np.ndarray:
        """mixture[T, F, C] complex (+ optional extras[T, F, K]) -> complex [T, F].

        ``embedding`` must be a length-emb_dim vector; None disables the
        conditioning stages entirely (unconditioned reference model).
        """
        if embedding is not None:
            embedding = np.asarray(embedding, dtype=np.float32)
            if embedding.shape != (self.config.emb_dim,):
                raise ValueError(
                    f"embedding must have shape ({self.config.emb_dim},), got {embedding.shape}"
                )
        x = stack_ri(mixture, extras)
        if x.shape[0] != self.config.input_channels or x.shape[2] != self.config.n_freq:
            raise ValueError(
                f"input planes {x.shape} do not match config "
                f"({self.config.input_channels} channels, {self.config.n_freq} bins)"
            )
        w = self.w
        x = conv2d(x, w["conv_in.w"], w["conv_in.b"], causal_time=True)
        x = layer_norm(x, (0, 2), w["ln_in.gamma"], w["ln_in.beta"])
        for b in range(self.config.blocks):
            p = f"block{b}"
            if embedding is not None:
                x = film(
                    x,
                    embedding,
                    w[f"{p}.film.w_gamma"],
                    w[f"{p}.film.b_gamma"],
                    w[f"{p}.film.w_beta"],
                    w[f"{p}.film.b_beta"],
                )
            x = x + self._temporal(x, p)
            x = x + self._spectral(x, p)
            x = x + self._attention(x, p)
        y = conv_transpose2d(x, w["deconv_out.w"], w["deconv_out.b"], causal_time=True)
        return unstack_ri(y)

    # -- block stages ----------------------------------------------------------

    def _unfold_windows(self, seq: np.ndarray, causal: bool) -> np.ndarray:
        """seq[N, L, D] -> [N, L', I*D] windows, oldest step first."""
        i_k = self.config.unfold_kernel
        if causal:
            pad = np.zeros((seq.shape[0], i_k - 1, seq.shape[2]), dtype=seq.dtype)
            seq = np.concatenate([pad, seq], axis=1)
        view = np.lib.stride_tricks.sliding_window_view(seq, i_k, axis=1)
        out = view.transpose(0, 1, 3, 2)
        return np.ascontiguousarray(out).reshape(out.shape[0], out.shape[1], -1)

    def _temporal(self, x: np.ndarray, p: str) -> np.ndarray:
        w = self.w
        y = layer_norm(x, (0, 2), w[f"{p}.temporal.ln.gamma"], w[f"{p}.temporal.ln.beta"])
        seq = np.ascontiguousarray(y.transpose(2, 1, 0))  # [F, T, D]
        u = self._unfold_windows(seq, causal=True)
        h = lstm_forward(u, w[f"{p}.temporal.lstm.w"], w[f"{p}.temporal.lstm.r"], w[f"{p}.temporal.lstm.b"])
        full = conv_transpose1d(h, w[f"{p}.temporal.deconv.w"], w[f"{p}.temporal.deconv.b"])
        out = full[:, : x.shape[1]]  # head crop: frame t sums LSTM steps <= t
        return out.transpose(2, 1, 0)

    def _spectral(self, x: np.ndarray, p: str) -> np.ndarray:
        w = self.w
        y = layer_norm(x, (0, 2), w[f"{p}.spectral.ln.gamma"], w[f"{p}.spectral.ln.beta"])
        seq = np.ascontiguousarray(y.transpose(1, 2, 0))  # [T, F, D]
        u = self._unfold_windows(seq, causal=False)
        fwd, bwd = f"{p}.spectral.lstm_fwd", f"{p}.spectral.lstm_bwd"
        h = lstm_forward(
            u,
            w[f"{fwd}.w"],
            w[f"{fwd}.r"],
            w[f"{fwd}.b"],
            backward=(w[f"{bwd}.w"], w[f"{bwd}.r"], w[f"{bwd}.b"]),
        )
        full = conv_transpose1d(h, w[f"{p}.spectral.deconv.w"], w[f"{p}.spectral.deconv.b"])
        return full.transpose(2, 0, 1)  # length restored exactly: (F-I+1)-1+I == F

    def _attention(self, x: np.ndarray, p: str) -> np.ndarray:
        cfg = self.config
        t_len, f_len = x.shape[1], x.shape[2]
        w = self.w
        qs, ks, vs = [], [], []
        for l in range(cfg.heads):
            head = f"{p}.attn.head{l}"
            for proj, store in (("q", qs), ("k", ks), ("v", vs)):
                z = np.tensordot(w[f"{head}.{proj}.w"], x, axes=([1], [0]))
                z = prelu(z + w[f"{head}.{proj}.b"][:, None, None], w[f"{head}.{proj}.alpha"])
                store.append(z.transpose(1, 2, 0).reshape(t_len, -1))
        out = masked_attention(
            np.concatenate(qs, axis=1),
            np.concatenate(ks, axis=1),
            np.concatenate(vs, axis=1),
            heads=cfg.heads,
            causal=cfg.causal_attention,
        )
        o = out.reshape(t_len, cfg.heads, f_len, cfg.value_channels)
        o = o.transpose(1, 3, 0, 2).reshape(cfg.d, t_len, f_len)
        y = np.tensordot(w[f"{p}.attn.out.w"], o, axes=([1], [0]))
        return prelu(y + w[f"{p}.attn.out.b"][:, None, None], w[f"{p}.attn.out.alpha"])

    def stream(self) -> "GridNetStream":
        return GridNetStream(self)


class GridNetStream:
    """Stateful frame-by-frame inference with the same weights.

    Matches the full-sequence forward within float32 accumulation noise
    (<= 1e-5); every carried state covers only current and past frames, so
    streaming cannot look ahead by construction.
    """

    def __init__(self, model: MisoGridNet) -> None:
        self.model = model
        cfg = model.config
        f = cfg.n_freq
        self._in_hist = np.zeros((cfg.input_channels, _CONV_KT - 1, f), dtype=np.float32)
        self._out_hist = np.zeros((cfg.d, _CONV_KT - 1, f), dtype=np.float32)
        self._blocks = []
        for _ in range(cfg.blocks):
            self._blocks.append(
                {
                    "unfold": np.zeros((f, cfg.unfold_kernel - 1, cfg.d), dtype=np.float32),
                    "lstm": (
                        np.zeros((f, cfg.hidden), dtype=np.float32),
                        np.zeros((f, cfg.hidden), dtype=np.float32),
                    ),
                    "deconv": np.zeros((cfg.unfold_kernel - 1, f, cfg.hidden), dtype=np.float32),
                    "k_cache": [],
                    "v_cache": [],
                }
            )
        self.frames_seen = 0

    def step(
        self,
        frame: np.ndarray,
        embedding: np.ndarray | None,
        extras: np.ndarray | None = None,
    ) -> np.ndarray:
        """One complex frame [F, C] (+ extras [F, K]) -> complex estimate [F]."""
        cfg = self.model.config
        w = self.model.w
        xf = stack_ri(np.asarray(frame)[None], None if extras is None else np.asarray(extras)[None])
        if xf.shape[0] != cfg.input_channels or xf.shape[2] != cfg.n_freq:
            raise ValueError(
                f"frame planes {xf.shape} do not match config "
                f"({cfg.input_channels} channels, {cfg.n_freq} bins)"
            )
        if embedding is not None:
            embedding = np.asarray(embedding, dtype=np.float32)
            if embedding.shape != (cfg.emb_dim,):
                raise ValueError(
                    f"embedding must have shape ({cfg.emb_dim},), got {embedding.shape}"
                )

        window = np.concatenate([self._in_hist, xf], axis=1)
        self._in_hist = window[:, 1:]
        x = conv2d(window, w["conv_in.w"], w["conv_in.b"], pad_time=False)
        x = layer_norm(x, (0, 2), w["ln_in.gamma"], w["ln_in.beta"])

        for b, st in enumerate(self._blocks):
            p = f"block{b}"
            if embedding is not None:
                x = film(
                    x,
                    embedding,
                    w[f"{p}.film.w_gamma"],
                    w[f"{p}.film.b_gamma"],
                    w[f"{p}.film.w_beta"],
                    w[f"{p}.film.b_beta"],
                )
            x = x + self._temporal_step(x, p, st)
            x = x + self.model._spectral(x, p)
            x = x + self._attention_step(x, p, st)

        out_window = np.concatenate([self._out_hist, x], axis=1)
        self._out_hist = out_window[:, 1:]
        y = conv_transpose2d(out_window, w["deconv_out.w"], w["deconv_out.b"], pad_time=False)
        self.frames_seen += 1
        return unstack_ri(y)[0]

    def _temporal_step(self, x: np.ndarray, p: str, st: dict) -> np.ndarray:
        w = self.model.w
        cfg = self.model.config
        y = layer_norm(x, (0, 2), w[f"{p}.temporal.ln.gamma"], w[f"{p}.temporal.ln.beta"])
        cur = np.ascontiguousarray(y[:, 0].T)  # [F, D]
        hist = np.concatenate([st["unfold"], cur[:, None]], axis=1)  # [F, I, D]
        st["unfold"] = hist[:, 1:]
        u = hist.reshape(hist.shape[0], 1, -1)
        h, st["lstm"] = lstm_forward(
            u,
            w[f"{p}.temporal.lstm.w"],
            w[f"{p}.temporal.lstm.r"],
            w[f"{p}.temporal.lstm.b"],
            state=st["lstm"],
            return_state=True,
        )
        h = h[:, 0]  # [F, H]
        taps = np.concatenate([st["deconv"], h[None]], axis=0)  # [I, F, H] oldest first
        st["deconv"] = taps[1:]
        kernel = w[f"{p}.temporal.deconv.w"]  # [H, D, I]
        out = np.zeros((taps.shape[1], cfg.d), dtype=np.float32)
        for k in range(cfg.unfold_kernel):
            out += taps[cfg.unfold_kernel - 1 - k] @ kernel[:, :, k]
        out = out + w[f"{p}.temporal.deconv.b"]
        return out.T[:, None, :]

    def _attention_step(self, x: np.ndarray, p: str, st: dict) -> np.ndarray:
        cfg = self.model.config
        w = self.model.w
        f_len = x.shape[2]
        qs, ks, vs = [], [], []
        for l in range(cfg.heads):
            head = f"{p}.attn.head{l}"
            for proj, store in (("q", qs), ("k", ks), ("v", vs)):
                z = np.tensordot(w[f"{head}.{proj}.w"], x, axes=([1], [0]))
                z = prelu(z + w[f"{head}.{proj}.b"][:, None, None], w[f"{head}.{proj}.alpha"])
                store.append(z.transpose(1, 2, 0).reshape(1, -1))
        q = np.concatenate(qs, axis=1)
        st["k_cache"].append(np.concatenate(ks, axis=1)[0])
        st["v_cache"].append(np.concatenate(vs, axis=1)[0])
        out = masked_attention(
            q,
            np.stack(st["k_cache"]),
            np.stack(st["v_cache"]),
            heads=cfg.heads,
            causal=True,
        )
        o = out.reshape(1, cfg.heads, f_len, cfg.value_channels)
        o = o.transpose(1, 3, 0, 2).reshape(cfg.d, 1, f_len)
        y = np.tensordot(w[f"{p}.attn.out.w"], o, axes=([1], [0]))
        return prelu(y + w[f"{p}.attn.out.b"][:, None, None], w[f"{p}.attn.out.alpha"])
