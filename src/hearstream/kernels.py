"""Deterministic numpy kernels for causal neural inference.

Layout conventions (fixed; the weight container relies on them):
  * 2-D feature maps are [C, T, F] (channels, frames, frequency bins);
  * 1-D sequences are [L, C] (steps, channels);
  * conv kernels are [C_out, C_in, K_t, K_f] / [C_out, C_in, K],
    transposed-conv kernels are [C_in, C_out, K];
  * LSTM gate order is (i, f, g, o): sigmoid input/forget/output gates,
    tanh cell candidate and output squash.

Everything is float32 with float64 accumulation inside statistical
reductions (means, variances, softmax); attention's value product, the
softmax weights times the values, runs in float32. All functions are pure;
causality claims (convolutions over carried history frames, forward LSTM,
masked attention) hold as exact equality, not approximately.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv1d",
    "conv2d",
    "conv_transpose1d",
    "conv_transpose2d",
    "film",
    "layer_norm",
    "linear",
    "lstm_forward",
    "masked_attention",
    "prelu",
]


def prelu(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """max(0, x) + alpha * min(0, x); alpha broadcasts against axis 0."""
    alpha = np.asarray(alpha, dtype=x.dtype)
    if alpha.ndim == 1 and x.ndim > 1:
        alpha = alpha.reshape((-1,) + (1,) * (x.ndim - 1))
    return np.where(x >= 0, x, alpha * x)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x[..., D_in] @ weight[D_out, D_in].T + bias."""
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(f"linear: input dim {x.shape[-1]} != weight fan-in {weight.shape[1]}")
    return x @ weight.T + bias


# -- convolution -------------------------------------------------------------


# im2col rows are built a slice of output frames at a time, so the patch
# matrix stays near this many elements however long the input is
_PATCH_BUDGET = 1 << 20


def _corr2d_valid(
    x: np.ndarray, kernel: np.ndarray, stride: tuple[int, int] = (1, 1)
) -> np.ndarray:
    """Valid cross-correlation of x[C_in, T, F] with kernel[C_out, C_in, Kt, Kf].

    Only the outputs the stride keeps are computed.
    """
    c_out, c_in, kt, kf = kernel.shape
    view = np.lib.stride_tricks.sliding_window_view(x, (kt, kf), axis=(1, 2))
    view = view[:, :: stride[0], :: stride[1]]
    t_out, f_out = view.shape[1], view.shape[2]
    patch = c_in * kt * kf
    weights = kernel.reshape(c_out, patch).T
    out = np.empty((t_out, f_out, c_out), dtype=np.float32)
    rows = max(1, _PATCH_BUDGET // max(1, f_out * patch))
    for t0 in range(0, t_out, rows):
        cols = view[:, t0 : t0 + rows].transpose(1, 2, 0, 3, 4).reshape(-1, patch)
        out[t0 : t0 + rows] = (cols @ weights).reshape(-1, f_out, c_out)
    return out.transpose(2, 0, 1)


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    *,
    stride: tuple[int, int] = (1, 1),
    pad_time: bool = True,
) -> np.ndarray:
    """2-D cross-correlation over [C_in, T, F] maps.

    Time and frequency padding are 'same' (centered). With stride (st, sf)
    the stride-1 output is subsampled, giving ceil(T/st) x ceil(F/sf).
    ``pad_time=False`` pads no time at all: a streaming caller passes Kt-1
    frames of history ahead of the frames it wants and gets the last T-Kt+1
    causal frames.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3 or kernel.ndim != 4 or x.shape[0] != kernel.shape[1]:
        raise ValueError(
            f"conv2d: incompatible shapes, input {x.shape} vs kernel {kernel.shape}"
        )
    _, _, kt, kf = kernel.shape
    pad_t = ((kt - 1) // 2, kt // 2) if pad_time else (0, 0)
    pad_f = ((kf - 1) // 2, kf // 2)
    xp = np.pad(x, ((0, 0), pad_t, pad_f))
    y = _corr2d_valid(xp, np.asarray(kernel, dtype=np.float32), stride)
    return y + np.asarray(bias, dtype=np.float32)[:, None, None]


def conv_transpose2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 transposed 2-D convolution over [C_in, T, F] with no time padding.

    Equivalent to correlation with the axis-flipped kernel, full-padded over
    frequency and cropped back to the input's F bins (centered). A streaming
    caller passes Kt-1 frames of history ahead of the frames it wants and
    gets the last T-Kt+1 frames, each a function of inputs up to its own
    frame. Kernel layout [C_in, C_out, Kt, Kf].
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3 or kernel.ndim != 4 or x.shape[0] != kernel.shape[0]:
        raise ValueError(
            f"conv_transpose2d: incompatible shapes, input {x.shape} vs kernel {kernel.shape}"
        )
    kf = kernel.shape[3]
    flipped = np.asarray(kernel, dtype=np.float32).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    xp = np.pad(x, ((0, 0), (0, 0), (kf - 1, kf - 1)))
    y = _corr2d_valid(xp, np.ascontiguousarray(flipped))
    f0 = (kf - 1) // 2
    return y[:, :, f0 : f0 + x.shape[2]] + np.asarray(bias, dtype=np.float32)[:, None, None]


def conv1d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    *,
    dilation: int = 1,
    groups: int = 1,
) -> np.ndarray:
    """'Same'-padded dilated 1-D convolution over [C_in, L] sequences.

    ``groups == C_in == C_out`` gives a depthwise convolution (kernel
    [C, 1, K]); only groups 1 or C_in are supported.
    """
    x = np.asarray(x, dtype=np.float32)
    kernel = np.asarray(kernel, dtype=np.float32)
    c_out, ck, k = kernel.shape
    span = (k - 1) * dilation
    xp = np.pad(x, ((0, 0), (span - span // 2, span // 2)))
    view = np.lib.stride_tricks.sliding_window_view(xp, span + 1, axis=1)[:, :, ::dilation]
    if groups == 1:
        if ck != x.shape[0]:
            raise ValueError(f"conv1d: kernel fan-in {ck} != input channels {x.shape[0]}")
        y = np.einsum("clk,ock->ol", view, kernel, optimize=True)
    elif groups == x.shape[0] and c_out == x.shape[0] and ck == 1:
        y = np.einsum("clk,ck->cl", view, kernel[:, 0, :], optimize=True)
    else:
        raise ValueError("conv1d: groups must be 1 or equal to the channel count")
    return (y + np.asarray(bias, dtype=np.float32)[:, None]).astype(np.float32)


def conv_transpose1d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 transposed 1-D convolution of x[N, L, C_in] with kernel[C_in, C_out, K].

    Returns the full output [N, L + K - 1, C_out]; callers crop. out[o] sums
    x[i] * kernel[:, :, o - i], so out[o] depends only on inputs at
    positions i <= o (head crop keeps causality).
    """
    x = np.asarray(x, dtype=np.float32)
    c_in, c_out, k = kernel.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ValueError(f"conv_transpose1d: input {x.shape} vs kernel {kernel.shape}")
    n, length = x.shape[0], x.shape[1]
    y = x.reshape(n * length, c_in) @ np.asarray(kernel, dtype=np.float32).reshape(
        c_in, c_out * k
    )
    y = y.reshape(n, length, c_out, k)
    out = np.zeros((n, length + k - 1, c_out), dtype=np.float32)
    for tap in range(k):
        out[:, tap : tap + length] += y[:, :, :, tap]
    return out + np.asarray(bias, dtype=np.float32)


# -- normalization and modulation --------------------------------------------


_LN_EPS = 1e-5  # added to layer_norm's variance


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-frame normalization of a [D, T, F] map, then a per-channel affine.

    Each frame t is brought to zero mean and unit variance over its channels
    and bins together (float64 statistics, variance plus ``_LN_EPS``), so no
    frame's output depends on another frame. gamma and beta have shape
    [D, 1, 1].
    """
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[2] == 0:
        raise ValueError(f"layer_norm: expected a [D, T, F] map with D, F >= 1, got {x.shape}")
    x64 = np.asarray(x, dtype=np.float64)
    mu = x64.mean(axis=(0, 2), keepdims=True)
    var = x64.var(axis=(0, 2), keepdims=True)
    y = (x64 - mu) / np.sqrt(var + _LN_EPS)
    return (np.asarray(gamma) * y.astype(np.float32) + np.asarray(beta)).astype(np.float32)


def film(
    x: np.ndarray,
    embedding: np.ndarray,
    w_gamma: np.ndarray,
    b_gamma: np.ndarray,
    w_beta: np.ndarray,
    b_beta: np.ndarray,
) -> np.ndarray:
    """Feature-wise linear modulation of x[D, T, F] by a conditioning vector."""
    embedding = np.asarray(embedding, dtype=np.float32)
    if embedding.ndim != 1 or w_gamma.shape[1] != embedding.shape[0]:
        raise ValueError(
            f"film: embedding length {embedding.shape} does not match projection "
            f"fan-in {w_gamma.shape[1]}"
        )
    gamma = linear(embedding, w_gamma, b_gamma)
    beta = linear(embedding, w_beta, b_beta)
    return (gamma[:, None, None] * x + beta[:, None, None]).astype(np.float32)


# -- recurrent and attention layers ------------------------------------------


def lstm_forward(
    x: np.ndarray,
    w: np.ndarray,
    r: np.ndarray,
    b: np.ndarray,
    *,
    backward: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    state: tuple[np.ndarray, np.ndarray] | None = None,
):
    """LSTM over x[T, D_in] or a batch x[N, T, D_in]; returns [.., T, H].

    Weights: w[4H, D_in] input projection, r[4H, H] recurrence, b[4H] bias,
    gates packed (i, f, g, o). ``state`` carries (h, c) between calls for
    streaming: given it, the call continues from it and returns
    ``(out, (h, c))`` with the state after the last step.

    ``backward=(w_b, r_b, b_b)`` makes the call bidirectional: a reversed
    recurrence with those weights runs in the same step loop as the forward
    one, and the result is [.., T, 2H], forward half first. Each step then
    does one batched h @ Rᵀ and one gate pass over both directions. The input
    projections are made half a sequence at a time into one
    [ceil(T/2), N, 2, 4H] buffer: the forward direction reads the first half
    while the backward one reads the second, then the halves swap. The call
    thus never holds both directions' full projections, nor a stacked copy
    of the input weights.

    The i, f and o gates use sigmoid(z) = 0.5 * (1 + tanh(z / 2)). Their
    pre-activations are halved on the way in (exact in floating point), so
    one tanh pass evaluates all four gates.
    """
    squeeze = x.ndim == 2
    x = np.asarray(x, dtype=np.float32)
    if squeeze:
        x = x[None]
    n, t_len, d_in = x.shape
    four_h, h_size = r.shape
    dirs = [(w, r, b, False)]
    if backward is not None:
        if state is not None:
            raise ValueError("lstm_forward: a bidirectional call takes no state")
        dirs.append((*backward, True))
    for dw, dr, db, _ in dirs:
        if (
            dw.shape != (four_h, d_in)
            or dr.shape != (four_h, h_size)
            or four_h != 4 * h_size
            or db.shape != (four_h,)
        ):
            raise ValueError(
                f"lstm_forward: inconsistent weights w{dw.shape} r{dr.shape} b{db.shape} "
                f"for input dim {d_in}"
            )
    n_dir = len(dirs)
    # 0.5 on the i, f, o columns, 1 on g: tanh(half * z) * half + shift is
    # sigmoid on i, f, o and tanh on g
    half = np.full(four_h, 0.5, dtype=np.float32)
    shift = half.copy()
    half[2 * h_size : 3 * h_size] = 1.0
    shift[2 * h_size : 3 * h_size] = 0.0
    rt = np.stack([dr.T for _, dr, _, _ in dirs]) * half  # [n_dir, H, 4H]

    # [N, direction, ...] layout keeps each step's slices contiguous at N=1
    h = np.zeros((n, n_dir, h_size), dtype=np.float32)
    c = np.zeros((n, n_dir, h_size), dtype=np.float32)
    if state is not None:
        h[:, 0], c[:, 0] = (np.asarray(s, dtype=np.float32) for s in state)
    hist = np.empty((t_len, n, n_dir, h_size), dtype=np.float32)  # h by step
    g = np.empty((n, n_dir, four_h), dtype=np.float32)
    g_by_dir = g.transpose(1, 0, 2)
    g_i, g_f, g_g, g_o = (g[..., k * h_size : (k + 1) * h_size] for k in range(4))
    ig = np.empty_like(c)
    half_g, shift_g = (np.broadcast_to(v, g.shape).copy() for v in (half, shift))
    span = max(1, -(-t_len // n_dir))  # steps per pass
    # step-major, so each step reads one contiguous [N, direction, 4H] slab
    # and each direction's projection is one 2-D matmul into its column
    buf = np.empty((span, n, n_dir, four_h), dtype=np.float32)
    rows = buf.reshape(span * n, n_dir, four_h)
    for start in range(0, t_len, span):
        steps = min(span, t_len - start)
        for k, (dw, _, db, rev) in enumerate(dirs):
            # direction k takes its step s at position s, or t_len-1-s reversed
            lo = t_len - start - steps if rev else start
            seg = x[:, lo : lo + steps].transpose(1, 0, 2)
            seg = np.ascontiguousarray(seg[::-1] if rev else seg).reshape(steps * n, d_in)
            proj = rows[: steps * n, k]
            np.matmul(seg, dw.T, out=proj)
            proj += db
        xw = buf[:steps]
        xw *= half
        for i in range(steps):
            np.matmul(h.transpose(1, 0, 2), rt, out=g_by_dir)
            g += xw[i]
            np.tanh(g, out=g)
            g *= half_g
            g += shift_g
            c *= g_f
            np.multiply(g_i, g_g, out=ig)
            c += ig
            np.tanh(c, out=ig)
            h = np.multiply(g_o, ig, out=hist[start + i])
    buf = rows = proj = xw = None  # free the projections before the output is made
    out = np.empty((n, t_len, n_dir * h_size), dtype=np.float32)
    for k, (_, _, _, rev) in enumerate(dirs):
        steps_k = hist[::-1, :, k] if rev else hist[:, :, k]
        out[:, :, k * h_size : (k + 1) * h_size] = steps_k.transpose(1, 0, 2)
    h, c = h[:, 0].copy(), c[:, 0].copy()
    if squeeze:
        out = out[0]
        h, c = h[0], c[0]
    return out if state is None else (out, (h, c))


def masked_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    heads: int = 1,
    return_weights: bool = False,
):
    """Scaled dot-product attention over time with a causal mask.

    q: [Tq, heads * E]; k: [Tk, heads * E]; v: [Tk, heads * Dv]. The queries
    are the last Tq frames of the key timeline, and each sees keys up to its
    own frame: per head softmax(Q Kᵀ / sqrt(E)) V, later keys masked.
    Softmax runs in float64 with max subtraction; its weights are cast to
    float32 for the value product, so v is never copied to float64. k and v
    may be row slices of a larger cache. Returns [Tq, heads * Dv].
    """
    q, k, v = (np.asarray(a, dtype=np.float32) for a in (q, k, v))
    t_q, dq = q.shape
    t_k = k.shape[0]
    if dq % heads or v.shape[1] % heads or k.shape != (t_k, dq):
        raise ValueError("masked_attention: dims must divide evenly into heads")
    e = dq // heads
    dv = v.shape[1] // heads
    qh = q.reshape(t_q, heads, e).transpose(1, 0, 2)
    kh = k.reshape(t_k, heads, e).transpose(1, 0, 2)
    vh = v.reshape(t_k, heads, dv).transpose(1, 0, 2)

    scores = (qh @ kh.transpose(0, 2, 1)).astype(np.float64) / np.sqrt(e)
    # key strictly in the future of the query gets zero weight
    future = np.arange(t_k)[None, :] > np.arange(t_q)[:, None] + (t_k - t_q)
    scores[:, future] = -np.inf
    scores -= scores.max(axis=2, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=2, keepdims=True)
    out = weights.astype(np.float32) @ vh
    out = out.transpose(1, 0, 2).reshape(t_q, heads * dv)
    if return_weights:
        return out, weights
    return out
