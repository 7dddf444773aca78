"""Tensor kernels and the weight container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from hearstream.kernels import (
    conv1d,
    conv2d,
    conv_transpose1d,
    conv_transpose2d,
    film,
    layer_norm,
    lstm_forward,
    masked_attention,
    prelu,
)
from hearstream.weights import (
    ParamSpec,
    TruncatedFileError,
    WeightFormatError,
    WeightStore,
    fnv1a64,
    seeded_init,
    splitmix64,
)

# ---------------------------------------------------------------------------
# weight container


class TestWeightStore:
    def test_empty_roundtrip(self, tmp_path):
        p = str(tmp_path / "w.inxw")
        WeightStore().save(p)
        assert WeightStore.load(p) == WeightStore()

    def test_random_tensors_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        store = WeightStore()
        for i in range(1000):
            ndim = int(rng.integers(0, 4))
            shape = tuple(int(d) for d in rng.integers(1, 5, size=ndim))
            store[f"t{i}.param"] = rng.standard_normal(shape).astype(np.float32)
        p = str(tmp_path / "w.inxw")
        store.save(p)
        loaded = WeightStore.load(p)
        assert loaded == store
        assert list(loaded.keys()) == list(store.keys())
        for name in store:
            assert store[name].tobytes() == loaded[name].tobytes()

    def test_corrupt_magic(self, tmp_path):
        p = tmp_path / "w.inxw"
        WeightStore({"a": np.zeros(3, dtype=np.float32)}).save(str(p))
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(WeightFormatError):
            WeightStore.load(str(p))

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "w.inxw"
        WeightStore().save(str(p))
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(WeightFormatError):
            WeightStore.load(str(p))

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "w.inxw"
        WeightStore({"a": np.ones((4, 4), dtype=np.float32)}).save(str(p))
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(TruncatedFileError):
            WeightStore.load(str(p))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WeightStore({"a": np.array([1.0, np.inf], dtype=np.float32)})

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_load_rejects_non_finite(self, tmp_path, bad):
        p = tmp_path / "w.inxw"
        WeightStore({"a": np.zeros(3, dtype=np.float32)}).save(str(p))
        raw = p.read_bytes()
        p.write_bytes(raw[:-4] + np.float32(bad).astype("<f4").tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            WeightStore.load(str(p))

    def test_resolve_checks_schema(self):
        specs = [ParamSpec("m.a", (2, 3), fan_in=3), ParamSpec("m.b", (4,), "bias")]
        store = WeightStore({"m.a": np.ones((2, 3)), "m.b": np.zeros(4), "other": np.zeros(1)})
        got = store.resolve(specs, "m")
        assert list(got) == ["a", "b"] and got["a"] is store["m.a"]
        with pytest.raises(KeyError, match="m.c"):
            store.resolve(specs + [ParamSpec("m.c", (1,), "bias")], "m")
        store["m.b"] = np.zeros(5)
        with pytest.raises(ValueError, match="m.b"):
            store.resolve(specs, "m")

    def test_param_count(self):
        s = WeightStore({"a": np.zeros((2, 3)), "b": np.zeros(5)})
        assert s.param_count() == 11


class TestSeededStreams:
    def test_splitmix64_published_vector(self):
        # Reference sequence for seed 0 from the original SplitMix64 writeup.
        expect = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [int(v) for v in splitmix64(0, 3)] == expect

    def test_splitmix64_matches_pure_python(self):
        mask = (1 << 64) - 1

        def mix(z):
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            return z ^ (z >> 31)

        seed, n = 0xDEADBEEF, 64
        ref, s = [], seed
        for _ in range(n):
            s = (s + 0x9E3779B97F4A7C15) & mask
            ref.append(mix(s))
        assert [int(v) for v in splitmix64(seed, n)] == ref

    def test_fnv1a_published_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8

    def test_init_deterministic_and_bounded(self):
        specs = [
            ParamSpec("layer.w", (8, 16), "weight", fan_in=16),
            ParamSpec("layer.b", (8,), "bias"),
            ParamSpec("norm.gamma", (8,), "gamma"),
            ParamSpec("norm.beta", (8,), "beta"),
            ParamSpec("act.alpha", (8,), "prelu"),
        ]
        a = seeded_init(specs, seed=42)
        b = seeded_init(specs, seed=42)
        assert a == b
        c = seeded_init(specs, seed=43)
        assert not np.array_equal(a["layer.w"], c["layer.w"])
        bound = np.sqrt(1.0 / 16)
        assert np.all(np.abs(a["layer.w"]) <= bound)
        assert a["layer.w"].std() > 0
        assert_array_equal(a["layer.b"], 0)
        assert_array_equal(a["norm.gamma"], 1)
        assert_array_equal(a["norm.beta"], 0)
        assert_array_equal(a["act.alpha"], np.float32(0.25))

    def test_init_matches_pure_python_reference(self):
        # One tensor recomputed with arbitrary-precision ints end to end.
        mask = (1 << 64) - 1

        def mix(z):
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            return z ^ (z >> 31)

        h = 0xCBF29CE484222325
        for byte in b"probe.w":
            h = ((h ^ byte) * 0x100000001B3) & mask
        s = h ^ 7
        vals = []
        for _ in range(6):
            s = (s + 0x9E3779B97F4A7C15) & mask
            u = (mix(s) >> 11) * 2.0**-53
            vals.append(np.float32((2 * u - 1) * np.sqrt(1 / 9)))
        store = seeded_init([ParamSpec("probe.w", (2, 3), "weight", fan_in=9)], seed=7)
        assert_array_equal(store["probe.w"].ravel(), np.array(vals, dtype=np.float32))

    def test_name_independence(self):
        # Moving a tensor in the schema must not change another tensor's fill.
        a = seeded_init(
            [
                ParamSpec("x.w", (4,), "weight", fan_in=4),
                ParamSpec("y.w", (4,), "weight", fan_in=4),
            ],
            seed=1,
        )
        b = seeded_init([ParamSpec("y.w", (4,), "weight", fan_in=4)], seed=1)
        assert_array_equal(a["y.w"], b["y.w"])

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            ParamSpec("w", (2,), "weight", fan_in=0)
        with pytest.raises(ValueError):
            ParamSpec("w", (2,), "wat")


# ---------------------------------------------------------------------------
# convolution kernels


class TestConv2d:
    def test_one_by_one_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 5, 7)).astype(np.float32)
        k = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        assert_allclose(conv2d(x, k, np.zeros(3, np.float32)), x, atol=1e-6)

    def test_all_ones_interior(self):
        x = np.ones((1, 6, 6), dtype=np.float32)
        k = np.ones((1, 1, 3, 3), dtype=np.float32)
        y = conv2d(x, k, np.full(1, 0.5, np.float32))
        assert_allclose(y[0, 3, 3], 9.5, atol=0)

    def test_unpadded_time_gives_last_causal_frames(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 7, 5)).astype(np.float32)
        k = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y = conv2d(x, k, b, pad_time=False)
        assert y.shape == (4, 5, 5)
        assert_allclose(y, conv2d(x, k, b)[:, 1:-1], atol=1e-6)

    def test_stride_subsamples(self):
        x = np.zeros((1, 8, 9), dtype=np.float32)
        y = conv2d(x, np.zeros((2, 1, 3, 3), np.float32), np.zeros(2, np.float32), stride=(2, 2))
        assert y.shape == (2, 4, 5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))


class TestConvTranspose:
    def test_transpose2d_matches_scatter_oracle(self):
        # brute-force scatter: full[o, t+a, f+b] += x[i, t, f] * K[i, o, a, b]
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 5)).astype(np.float32)
        k = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        full = np.zeros((3, 6 + 2, 5 + 2), dtype=np.float64)
        for i in range(2):
            for o in range(3):
                for t in range(6):
                    for f in range(5):
                        full[o, t : t + 3, f : f + 3] += x[i, t, f] * k[i, o].astype(np.float64)
        # the history form: the first Kt-1 = 2 input frames are history
        expect = full[:, 2:6, 1:6]
        got = conv_transpose2d(x, k, np.zeros(3, np.float32))
        assert_allclose(got, expect, atol=1e-4)

    def test_transpose1d_full_length_and_values(self):
        # single channel, kernel [1,1,2] = [1, 10]: out[o] = x[o] + 10*x[o-1]
        x = np.array([[[1.0], [2.0], [3.0]]], dtype=np.float32)
        k = np.array([[[1.0, 10.0]]], dtype=np.float32)
        out = conv_transpose1d(x, k, np.zeros(1, np.float32))
        assert_allclose(out[0, :, 0], [1.0, 12.0, 23.0, 30.0], atol=0)


class TestConv1d:
    def test_depthwise_dilated_same_length(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 20)).astype(np.float32)
        k = rng.standard_normal((6, 1, 3)).astype(np.float32)
        y = conv1d(x, k, np.zeros(6, np.float32), dilation=4, groups=6)
        assert y.shape == (6, 20)

    def test_pointwise_matches_matmul(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 9)).astype(np.float32)
        k = rng.standard_normal((7, 4, 1)).astype(np.float32)
        b = rng.standard_normal(7).astype(np.float32)
        assert_allclose(conv1d(x, k, b), k[:, :, 0] @ x + b[:, None], atol=1e-5)


# ---------------------------------------------------------------------------
# normalization, modulation, activations


class TestLayerNorm:
    def test_constant_input_zeroed(self):
        x = np.full((3, 2, 4), 2.5, dtype=np.float32)
        y = layer_norm(x, np.float32(1), np.float32(0))
        assert_allclose(y, 0.0, atol=1e-6)

    def test_two_point_hand_case(self):
        # one frame of one channel over two bins
        y = layer_norm(np.array([[[1.0, 3.0]]], dtype=np.float32), np.float32(1), np.float32(0))
        expect = (np.array([1.0, 3.0]) - 2.0) / np.sqrt(1.0 + 1e-5)
        assert_allclose(y[0, 0], expect, atol=1e-6)

    def test_statistics(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 5, 11)).astype(np.float32) * 3 + 1
        y = layer_norm(x, np.float32(1), np.float32(0)).astype(np.float64)
        mu = y.mean(axis=(0, 2))
        var = y.var(axis=(0, 2))
        assert np.abs(mu).max() <= 1e-5
        assert np.abs(var - 1).max() <= 1e-3

    def test_per_frame_causality(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6, 9)).astype(np.float32)
        g = np.ones((4, 1, 1), dtype=np.float32)
        b = np.zeros((4, 1, 1), dtype=np.float32)
        y = layer_norm(x, g, b)
        xp = x.copy()
        xp[:, 4:] = 99.0
        yp = layer_norm(xp, g, b)
        assert_array_equal(y[:, :4], yp[:, :4])

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            layer_norm(np.zeros((0, 2, 3)), np.float32(1), np.float32(0))
        with pytest.raises(ValueError):
            layer_norm(np.zeros((2, 2, 0)), np.float32(1), np.float32(0))


class TestFilm:
    def test_identity_modulation(self):
        x = np.random.default_rng(8).standard_normal((4, 3, 5)).astype(np.float32)
        wg = np.zeros((4, 16), dtype=np.float32)
        wb = np.zeros((4, 16), dtype=np.float32)
        y = film(x, np.ones(16, dtype=np.float32), wg, np.ones(4, np.float32), wb, np.zeros(4, np.float32))
        assert_array_equal(y, x)

    def test_constant_override(self):
        x = np.random.default_rng(9).standard_normal((2, 3, 4)).astype(np.float32)
        wg = np.zeros((2, 8), dtype=np.float32)
        wb = np.zeros((2, 8), dtype=np.float32)
        beta = np.array([5.0, -1.0], dtype=np.float32)
        y = film(x, np.zeros(8, np.float32), wg, np.zeros(2, np.float32), wb, beta)
        assert_allclose(y[0], 5.0, atol=0)
        assert_allclose(y[1], -1.0, atol=0)

    def test_embedding_sensitivity(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)
        wg = rng.standard_normal((3, 6)).astype(np.float32)
        wb = rng.standard_normal((3, 6)).astype(np.float32)
        zero = np.zeros(3, dtype=np.float32)
        y1 = film(x, rng.standard_normal(6).astype(np.float32), wg, zero, wb, zero)
        y2 = film(x, rng.standard_normal(6).astype(np.float32), wg, zero, wb, zero)
        assert np.abs(y1 - y2).max() > 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            film(
                np.zeros((2, 2, 2), np.float32),
                np.zeros(5, np.float32),
                np.zeros((2, 8), np.float32),
                np.zeros(2, np.float32),
                np.zeros((2, 8), np.float32),
                np.zeros(2, np.float32),
            )


class TestPrelu:
    def test_values(self):
        x = np.array([[-2.0, 3.0]], dtype=np.float32)
        assert_allclose(prelu(x, np.float32(0.25)), [[-0.5, 3.0]], atol=0)

    def test_per_channel(self):
        x = -np.ones((2, 3), dtype=np.float32)
        y = prelu(x, np.array([0.5, 0.1], dtype=np.float32))
        assert_allclose(y[0], -0.5, atol=0)
        assert_allclose(y[1], -0.1, atol=1e-7)


# ---------------------------------------------------------------------------
# LSTM


class TestLstm:
    def _weights(self, rng, d_in, h):
        w = rng.standard_normal((4 * h, d_in)).astype(np.float32) * 0.3
        r = rng.standard_normal((4 * h, h)).astype(np.float32) * 0.3
        b = rng.standard_normal(4 * h).astype(np.float32) * 0.1
        return w, r, b

    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32)
        y = lstm_forward(x, np.zeros((8, 3), np.float32), np.zeros((8, 2), np.float32), np.zeros(8, np.float32))
        assert_array_equal(y, 0)

    def test_scalar_hand_recurrence(self):
        # i, f, o gates saturated by large bias, candidate path passes tanh(x):
        # h1 = tanh(tanh(1)) for input 1.
        w = np.array([[0.0], [0.0], [1.0], [0.0]], dtype=np.float32)
        r = np.zeros((4, 1), dtype=np.float32)
        b = np.array([30.0, 30.0, 0.0, 30.0], dtype=np.float32)
        y = lstm_forward(np.array([[1.0]], dtype=np.float32), w, r, b)
        assert_allclose(y[0, 0], np.tanh(np.tanh(1.0)), atol=1e-6)

    def test_saturated_gates_without_warnings(self):
        # pre-activations of +-1e4 drive every gate to exactly 0 or 1 in both
        # directions, with no overflow or underflow
        w = np.full((4, 1), 1e4, dtype=np.float32)
        r = np.zeros((4, 1), dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        x = np.array([[1.0], [-1.0], [1.0]], dtype=np.float32)
        with np.errstate(all="raise"):
            y = lstm_forward(x, w, r, b, backward=(w, r, b))
        on = np.tanh(np.float32(1.0))  # i = f = o = 1 and g = 1 from zero state
        assert_array_equal(y, [[on, on], [0.0, 0.0], [on, on]])

    def test_forward_causality(self):
        rng = np.random.default_rng(11)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((10, 3)).astype(np.float32)
        y = lstm_forward(x, w, r, b)
        xp = x.copy()
        xp[6:] = rng.standard_normal((4, 3))
        yp = lstm_forward(xp, w, r, b)
        assert_array_equal(y[:6], yp[:6])
        assert np.abs(y[6:] - yp[6:]).max() > 0

    def test_streaming_state_equivalence(self):
        rng = np.random.default_rng(13)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((12, 3)).astype(np.float32)
        full = lstm_forward(x, w, r, b)
        state = (np.zeros(4, np.float32), np.zeros(4, np.float32))
        parts = []
        for t in range(12):
            out, state = lstm_forward(x[t : t + 1], w, r, b, state=state)
            parts.append(out)
        assert_allclose(np.concatenate(parts), full, atol=1e-6)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(14)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((5, 9, 3)).astype(np.float32)
        batched = lstm_forward(x, w, r, b)
        for n in range(5):
            assert_allclose(batched[n], lstm_forward(x[n], w, r, b), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lstm_forward(np.zeros((4, 3), np.float32), np.zeros((8, 2), np.float32), np.zeros((8, 2), np.float32), np.zeros(8, np.float32))

    @settings(max_examples=100)  # about 0.5 s
    @given(
        n=st.integers(1, 4),
        t_len=st.integers(1, 11),
        d_in=st.integers(1, 6),
        h=st.integers(1, 6),
        batched=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bidirectional_matches_separate_directions(self, n, t_len, d_in, h, batched, seed):
        rng = np.random.default_rng(seed)
        fwd, bwd = self._weights(rng, d_in, h), self._weights(rng, d_in, h)
        x = rng.standard_normal((n, t_len, d_in) if batched else (t_len, d_in)).astype(np.float32)
        both = lstm_forward(x, *fwd, backward=bwd)
        assert both.shape == x.shape[:-1] + (2 * h,)
        assert_allclose(both[..., :h], lstm_forward(x, *fwd), rtol=0, atol=1e-6)
        # the backward half is the forward recurrence over the time-mirrored input
        mirrored = np.flip(lstm_forward(np.flip(x, axis=-2), *bwd), axis=-2)
        assert_allclose(both[..., h:], mirrored, rtol=0, atol=1e-6)

    def test_matches_float64_reference_loop(self):
        # the textbook recurrence, with the logistic function written out
        rng = np.random.default_rng(16)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((9, 3)).astype(np.float32)
        h = c = np.zeros(4)
        ref = []
        for xt in x.astype(np.float64):
            i, f, g, o = np.split(w @ xt + r @ h + b, 4)
            i, f, o = (1.0 / (1.0 + np.exp(-z)) for z in (i, f, o))
            c = f * c + i * np.tanh(g)
            h = o * np.tanh(c)
            ref.append(h)
        assert_allclose(lstm_forward(x, w, r, b), ref, rtol=0, atol=1e-6)

    def test_bidirectional_rejects_reverse_and_state(self):
        rng = np.random.default_rng(15)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        with pytest.raises(ValueError):
            lstm_forward(x, w, r, b, backward=(w, r, b), state=(np.zeros(4), np.zeros(4)))
        with pytest.raises(ValueError):
            lstm_forward(x, w, r, b, backward=(w[:, :2], r, b))


# ---------------------------------------------------------------------------
# attention


class TestMaskedAttention:
    def test_single_step_returns_value(self):
        rng = np.random.default_rng(15)
        q = rng.standard_normal((1, 4)).astype(np.float32)
        k = rng.standard_normal((1, 4)).astype(np.float32)
        v = rng.standard_normal((1, 6)).astype(np.float32)
        assert_allclose(masked_attention(q, k, v, heads=2), v, atol=1e-6)

    def test_causal_equal_keys_hand_case(self):
        # equal keys: row 0 sees only v0; row 1 averages v0 and v1
        q = np.ones((2, 2), dtype=np.float32)
        k = np.ones((2, 2), dtype=np.float32)
        v = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        out = masked_attention(q, k, v, heads=1)
        assert_allclose(out[0], [1.0, 2.0], atol=1e-6)
        assert_allclose(out[1], [2.0, 3.0], atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        q = rng.standard_normal((6, 4)).astype(np.float32)
        k = rng.standard_normal((6, 4)).astype(np.float32)
        v = rng.standard_normal((6, 4)).astype(np.float32)
        _, wts = masked_attention(q, k, v, heads=2, return_weights=True)
        assert_allclose(wts.sum(axis=2), 1.0, atol=1e-6)

    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(18)
        q = rng.standard_normal((8, 4)).astype(np.float32)
        k = rng.standard_normal((8, 4)).astype(np.float32)
        v = rng.standard_normal((8, 4)).astype(np.float32)
        out = masked_attention(q, k, v, heads=1)
        kp, vp = k.copy(), v.copy()
        kp[5:] = rng.standard_normal((3, 4))
        vp[5:] = rng.standard_normal((3, 4))
        outp = masked_attention(q, kp, vp, heads=1)
        assert_array_equal(out[:5], outp[:5])

    def test_streaming_query_against_cache(self):
        # one query with T cached keys equals the last row of the full pass
        rng = np.random.default_rng(19)
        q = rng.standard_normal((6, 4)).astype(np.float32)
        k = rng.standard_normal((6, 4)).astype(np.float32)
        v = rng.standard_normal((6, 4)).astype(np.float32)
        full = masked_attention(q, k, v, heads=2)
        last = masked_attention(q[5:], k, v, heads=2)
        assert_allclose(last[0], full[5], atol=1e-6)

    def test_cache_views_match_copies(self):
        # a stream passes row slices of a larger preallocated cache
        rng = np.random.default_rng(20)
        k_buf = rng.standard_normal((32, 4)).astype(np.float32)
        v_buf = rng.standard_normal((32, 6)).astype(np.float32)
        k_buf[20:] = v_buf[20:] = np.nan  # spare capacity is never read
        q = rng.standard_normal((3, 4)).astype(np.float32)
        k, v = k_buf[:20], v_buf[:20]
        assert not k.flags.owndata and not v.flags.owndata
        out = masked_attention(q, k, v, heads=2)
        ref = masked_attention(q, k.copy(), v.copy(), heads=2)
        assert_array_equal(out, ref)

    def test_float32_value_product_long_cache(self):
        # softmax weights in float64, value product in float32
        rng = np.random.default_rng(22)
        t_k, heads, dv = 500, 2, 64
        q = rng.standard_normal((t_k, heads * 4)).astype(np.float32)
        k = rng.standard_normal((t_k, heads * 4)).astype(np.float32)
        v = rng.standard_normal((t_k, heads * dv)).astype(np.float32)
        out, wts = masked_attention(q, k, v, heads=heads, return_weights=True)
        vh = v.astype(np.float64).reshape(t_k, heads, dv).transpose(1, 0, 2)
        ref = (wts @ vh).transpose(1, 0, 2).reshape(t_k, heads * dv)
        assert np.abs(out - ref).max() <= 1e-6
        last = masked_attention(q[-1:], k, v, heads=heads)
        assert np.abs(last - ref[-1:]).max() <= 1e-6
