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
    # equals np.where(x >= 0, x, alpha * x) for any finite alpha, without a mask
    return np.maximum(x, 0) + alpha * np.minimum(x, 0)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x[..., D_in] @ weight[D_out, D_in].T + bias."""
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(f"linear: input dim {x.shape[-1]} != weight fan-in {weight.shape[1]}")
    return x @ weight.T + bias


# -- convolution -------------------------------------------------------------


# conv output frames and LSTM input projections are computed a slice at a
# time, so a working buffer holds at most this many elements (or one frame's
# or step's worth) however long the input is
_PATCH_BUDGET = 1 << 18


def _corr2d_valid(
    x: np.ndarray, kernel: np.ndarray, stride: tuple[int, int] = (1, 1)
) -> np.ndarray:
    """Valid cross-correlation of x[C_in, T, F] with kernel[C_out, C_in, Kt, Kf].

    Only the outputs the stride keeps are computed. Output frames go a
    slice of ``rows`` at a time through an im2col patch buffer laid out
    [C_in, Kt, Kf, rows, F_out]: each kernel tap (i, j) fills its
    [C_in, rows, F_out] plane with one strided copy of x, the slice applying
    the stride, and one GEMM of kernel[C_out, C_in * Kt * Kf] by the buffer
    writes the slice straight into the [C_out, T_out, F_out] output. ``rows``
    keeps the buffer within ``_PATCH_BUDGET`` elements (at least one frame).
    """
    c_out, c_in, kt, kf = kernel.shape
    st, sf = stride
    t_out = (x.shape[1] - kt) // st + 1
    f_out = (x.shape[2] - kf) // sf + 1
    patch = c_in * kt * kf
    weights = kernel.reshape(c_out, patch)
    out = np.empty((c_out, t_out * f_out), dtype=np.float32)
    rows = max(1, min(t_out, _PATCH_BUDGET // max(1, patch * f_out)))
    buf = np.empty(patch * rows * f_out, dtype=np.float32)
    f_span = (f_out - 1) * sf + 1
    for t0 in range(0, t_out, rows):
        n = min(rows, t_out - t0)
        # a prefix of the flat buffer, so a short last slice stays contiguous
        cols = buf[: patch * n * f_out].reshape(c_in, kt, kf, n, f_out)
        for i in range(kt):
            lo = t0 * st + i
            frames = x[:, lo : lo + (n - 1) * st + 1 : st]
            for j in range(kf):
                cols[:, i, j] = frames[:, :, j : j + f_span : sf]
        np.matmul(
            weights, cols.reshape(patch, n * f_out), out=out[:, t0 * f_out : (t0 + n) * f_out]
        )
    return out.reshape(c_out, t_out, f_out)


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    *,
    stride: tuple[int, int] = (1, 1),
) -> np.ndarray:
    """2-D cross-correlation over [C_in, T, F] maps, unpadded in time.

    Frequency padding is 'same' (centered); time is not padded: a caller
    passes Kt-1 frames of history ahead of the frames it wants and gets the
    last T-Kt+1 frames, each a function of its own and earlier input frames.
    With stride (st, sf) the stride-1 output is subsampled, giving
    ceil((T-Kt+1)/st) x ceil(F/sf).
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3 or kernel.ndim != 4 or x.shape[0] != kernel.shape[1]:
        raise ValueError(
            f"conv2d: incompatible shapes, input {x.shape} vs kernel {kernel.shape}"
        )
    kf, lo = kernel.shape[3], (kernel.shape[3] - 1) // 2
    xp = np.zeros(x.shape[:2] + (x.shape[2] + kf - 1,), dtype=np.float32)
    xp[:, :, lo : lo + x.shape[2]] = x
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
    xp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * (kf - 1),), dtype=np.float32)
    xp[:, :, kf - 1 : kf - 1 + x.shape[2]] = x
    y = _corr2d_valid(xp, np.ascontiguousarray(flipped))
    f0 = (kf - 1) // 2
    return y[:, :, f0 : f0 + x.shape[2]] + np.asarray(bias, dtype=np.float32)[:, None, None]


def conv_transpose1d(x: np.ndarray, kernel, bias) -> np.ndarray:
    """Stride-1 transposed 1-D convolutions of a stack x[S, N, L, C_in]:
    input s with kernel[s], one of a sequence of S kernels [C_in, C_out, K],
    plus bias[s], a row of the stacked biases [S, C_out].

    Returns the full outputs [S, N, L + K - 1, C_out]; callers crop. out[o]
    sums x[i] * kernel[:, :, o - i], so out[o] depends only on inputs at
    positions i <= o (head crop keeps causality). The kernels are read
    where they are.
    """
    x = np.asarray(x, dtype=np.float32)
    c_in, c_out, k = kernel[0].shape
    if (
        x.ndim != 4
        or x.shape[3] != c_in
        or len(kernel) != len(x)
        or any(kn.shape != (c_in, c_out, k) for kn in kernel)
    ):
        shapes = [kn.shape for kn in kernel]
        raise ValueError(f"conv_transpose1d: input {x.shape} vs kernels {shapes}")
    n, length = x.shape[1], x.shape[2]
    y = np.empty((len(x), n * length, c_out * k), dtype=np.float32)
    for xs, kn, ys in zip(x, kernel, y):
        kn = np.asarray(kn, dtype=np.float32).reshape(c_in, c_out * k)
        np.matmul(xs.reshape(n * length, c_in), kn, out=ys)
    y = y.reshape(len(x), n, length, c_out, k)
    out = np.zeros((len(x), n, length + k - 1, c_out), dtype=np.float32)
    for tap in range(k):
        out[:, :, tap : tap + length] += y[..., tap]
    out += np.asarray(bias, dtype=np.float32)[:, None, None]
    return out


# -- normalization and modulation --------------------------------------------


_LN_EPS = 1e-5  # added to layer_norm's variance


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-frame normalization of a [D, T, F] map, then a per-channel affine.

    Each frame t is brought to zero mean and unit variance over its channels
    and bins together (float64 statistics, variance plus ``_LN_EPS``), so no
    frame's output depends on another frame. gamma and beta have shape
    [D, 1, 1]. A stack of maps [S, D, T, F] is normalized map by map, with
    gamma and beta of shape [S, D, 1, 1].
    """
    if x.ndim not in (3, 4) or x.shape[-3] == 0 or x.shape[-1] == 0:
        raise ValueError(
            f"layer_norm: expected a [D, T, F] map or a stack of them with D, F >= 1, got {x.shape}"
        )
    x64 = np.asarray(x, dtype=np.float64)
    y = x64 - x64.mean(axis=(-3, -1), keepdims=True)
    # the mean of the squared deviations, as np.var computes it
    y /= np.sqrt(np.mean(y * y, axis=(-3, -1), keepdims=True) + _LN_EPS)
    out = np.asarray(gamma) * y.astype(np.float32) + np.asarray(beta)
    return out.astype(np.float32, copy=False)


def film(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Feature-wise linear modulation: channel d of x[D, T, F] scaled by
    gamma[d] and shifted by beta[d], where (gamma, beta) are the conditioning
    vector's projections. A stack x[S, D, T, F] takes gamma and beta [S, D]."""
    return (gamma[..., None, None] * x + beta[..., None, None]).astype(np.float32, copy=False)


# -- recurrent and attention layers ------------------------------------------


def lstm_forward(
    x: np.ndarray,
    w,
    r,
    b,
    *,
    backward=None,
    state: tuple[np.ndarray, np.ndarray] | None = None,
):
    """LSTM over a batch of sequences x[N, T, D_in]; returns [N, T, H].

    Weights: w[4H, D_in] input projection, r[4H, H] recurrence, b[4H] bias,
    gates packed (i, f, g, o). ``state`` carries (h, c) between calls for
    streaming: given it, the call continues from it and returns
    ``(out, (h, c))`` with the state after the last step.

    ``backward=(w_b, r_b, b_b)`` makes the call bidirectional: a reversed
    recurrence with those weights runs in the same step loop as the forward
    one, and the result is [N, T, 2H], forward half first.

    A stack of S inputs x[S, N, T, D_in] runs S independent LSTMs in the
    same step loop: ``w``, ``r`` and ``b`` (and ``backward``, if given) are
    then sequences with one entry per input, input s feeds its own forward
    (and backward) direction, and the result is [S, N, T, H] (or 2H). A
    stacked call takes no state. The weights are read where they are: a
    call copies none of them, whatever the stack. The lone form remains
    only for the GridNet's temporal LSTM, run once per network: it alone
    carries ``state``, and the benchmark's tracer labels the call by the
    identity of the store's ``w`` it is passed (see ROADMAP item 9).

    The gates live gate-major, [4, n_dir, N, H], so each is one contiguous
    slice over every direction. A step does one batched matmul of h, viewed
    [n_dir, 1, N, H], by the recurrence as [n_dir, 4, H, H] blocks, adds its
    projections, and writes h into the [T + 1, n_dir, N, H] history the next
    step reads. The blocks are C-contiguous copies of r's gate rows, built in
    one pass per call; a step runs faster on them than on transposed views,
    but BLAS may sum in another order than h @ r.T, moving the last bits.
    Each direction's step is its own slice of those matmuls and elementwise
    passes, so a direction's output does not depend on the others it runs
    beside. The input projections fill one [ceil(T/d), 4, n_dir, N, H]
    buffer, d being the directions per input, so a pass covers 1/d of each
    sequence: a forward direction reads the first half while its backward
    one reads the second, then the halves swap. They are made and scattered
    in chunks of at most ``_PATCH_BUDGET`` elements (or one step), so a
    direction's projections come from the same products in a stack as
    alone. A bidirectional call thus never holds a direction's full
    projections, and no call holds a stacked copy of the input weights.

    The i, f and o gates use sigmoid(z) = 0.5 * (1 + tanh(z / 2)). Their
    pre-activations are halved on the way in (exact in floating point), so
    one tanh pass evaluates all four gates.
    """
    x = np.asarray(x, dtype=np.float32)
    stacked = x.ndim == 4
    if not stacked:
        x, w, r, b = x[None], [w], [r], [b]
        backward = None if backward is None else [backward]
    if state is not None and (stacked or backward is not None):
        raise ValueError("lstm_forward: a bidirectional or stacked call takes no state")
    sets = (w, r, b) if backward is None else (w, r, b, backward)
    if x.ndim != 4 or any(len(ws) != len(x) for ws in sets):
        raise ValueError(f"lstm_forward: input {x.shape} vs {[len(ws) for ws in sets]} weight sets")
    _, n, t_len, d_in = x.shape
    four_h, h_size = r[0].shape
    # (input, w, r, b, reversed) per direction, each input's forward first
    dirs = []
    for s, fwd in enumerate(zip(w, r, b)):
        dirs.append((s, *fwd, False))
        if backward is not None:
            dirs.append((s, *backward[s], True))
    for _, dw, dr, db, _ in dirs:
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
    # tanh(half * z) * 0.5 + 0.5 is sigmoid(z) with half = 0.5, and
    # half = 1 keeps tanh on the candidate gate g
    half = np.repeat(np.array([0.5, 0.5, 1, 0.5], dtype=np.float32), h_size)
    one_half = np.array(0.5, dtype=np.float32)  # 0-d: the cheapest scalar operand
    # z holds the gates and the cell state, [direction, N, H] slices in the
    # order (g, f, o, i, c): the gates are z[:4] with the sigmoid gates one
    # run z[1:4], and i * g and c * f are one multiply of z[3:] by z[:2]
    order = (2, 1, 3, 0)  # the gates of z[:4] in the weights' (i, f, g, o)
    # [n_dir, 4, H, H] in z's gate order, C-contiguous: block (k, j) is
    # direction k's rows of gate order[j] times their half, transposed
    rt = np.empty((n_dir, 4, h_size, h_size), dtype=np.float32)
    for k, (_, _, dr, _, _) in enumerate(dirs):
        for j, lo in enumerate(gate * h_size for gate in order):
            np.multiply(dr[lo : lo + h_size].T, half[lo], out=rt[k, j])
    z = np.empty((5, n_dir, n, h_size), dtype=np.float32)
    gates, gates_by_dir = z[:4], z[:4].transpose(1, 0, 2, 3)
    sig, g_o, ic, gf, c = z[1:4], z[2], z[3:], z[:2], z[4]
    prod = np.empty_like(ic)
    ig, cf = prod
    # row s + 1 holds h after step s, row 0 the initial h; h_in views the
    # rows as the [direction, 1, N, H] left operand of the matmul
    hist = np.empty((t_len + 1, n_dir, n, h_size), dtype=np.float32)
    h_in = hist[:, :, None]
    hist[0] = c[...] = 0
    if state is not None:
        hist[0, 0], c[0] = (np.asarray(s, dtype=np.float32) for s in state)
    per = n_dir // len(x)  # directions per input
    span = max(1, -(-t_len // per))  # steps per pass
    # each step adds one contiguous [4, direction, N, H] slab of projections
    buf = np.empty((span, 4, n_dir, n, h_size), dtype=np.float32)
    chunk = max(1, min(span, _PATCH_BUDGET // max(1, n * four_h)))
    tmp = np.empty((chunk * n, four_h), dtype=np.float32)
    for start in range(0, t_len, span):
        steps = min(span, t_len - start)
        for k, (s, dw, _, db, rev) in enumerate(dirs):
            for s0 in range(0, steps, chunk):
                m = min(chunk, steps - s0)
                # direction k takes its step s at position s, or t_len-1-s reversed
                lo = t_len - start - s0 - m if rev else start + s0
                seg = x[s, :, lo : lo + m].transpose(1, 0, 2)
                seg = np.ascontiguousarray(seg[::-1] if rev else seg).reshape(m * n, d_in)
                proj = tmp[: m * n]
                np.matmul(seg, dw.T, out=proj)
                proj += db
                proj *= half
                by_gate = proj.reshape(m, n, 4, h_size).transpose(2, 0, 1, 3)
                for j, gate in enumerate(order):
                    buf[s0 : s0 + m, j, k] = by_gate[gate]
        for h_prev, h_next, xw in zip(h_in[start:], hist[start + 1 :], buf[:steps]):
            np.matmul(h_prev, rt, gates_by_dir)
            np.add(gates, xw, gates)
            np.tanh(gates, gates)
            np.multiply(sig, one_half, sig)
            np.add(sig, one_half, sig)
            np.multiply(ic, gf, prod)
            np.add(ig, cf, c)
            np.tanh(c, cf)
            np.multiply(g_o, cf, h_next)
    buf = tmp = proj = by_gate = xw = None  # free the projections before the output is made
    out = np.empty((len(x), n, t_len, per * h_size), dtype=np.float32)
    for k, (s, _, _, _, rev) in enumerate(dirs):
        steps_k = hist[:0:-1, k] if rev else hist[1:, k]
        lo = (k % per) * h_size
        out[s, :, :, lo : lo + h_size] = steps_k.transpose(1, 0, 2)
    if stacked:
        return out
    h, c = hist[t_len, 0].copy(), c[0].copy()
    return out[0] if state is None else (out[0], (h, c))


def masked_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    heads: int = 1,
) -> np.ndarray:
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
    if k.shape != (t_k, dq) or v.shape[0] != t_k or dq % heads or v.shape[1] % heads:
        raise ValueError(
            f"masked_attention: q {q.shape}, k {k.shape} and v {v.shape} do not fit {heads} "
            "heads: k needs q's width, v k's frames, and both widths a multiple of heads"
        )
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
    return out.transpose(1, 0, 2).reshape(t_q, heads * dv)
