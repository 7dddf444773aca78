"""Tensor kernels and the weight container."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from hearstream import kernels
from hearstream.kernels import (
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
from helpers import same_store

# ---------------------------------------------------------------------------
# weight container

# headers whose element count no file holds: a 256 GB read, an int64
# product that wraps to 0, and a length beyond a signed read
HUGE_DIMS = [[2**36], [2**62, 4], [2**64 - 1]]


def write_one_tensor(path, dims, data=b"\0" * 16, name=b"t.w"):
    """An INXW file whose one tensor claims ``dims`` and carries ``data``."""
    raw = b"INXW" + struct.pack("<III", 1, 1, len(name)) + name
    raw += struct.pack(f"<BI{len(dims)}Q", 0, len(dims), *dims) + data
    path.write_bytes(raw)
    return str(path)


class TestWeightStore:
    def test_empty_roundtrip(self, tmp_path):
        p = str(tmp_path / "w.inxw")
        WeightStore().save(p)
        assert len(WeightStore.load(p)) == 0

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
        assert list(loaded.keys()) == list(store.keys())
        for name in store.keys():
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

    @pytest.mark.parametrize("dims", HUGE_DIMS, ids=str)
    def test_header_size_checked_against_file(self, tmp_path, dims):
        path = write_one_tensor(tmp_path / "w.inxw", dims)
        with pytest.raises(TruncatedFileError, match=r"w\.inxw: .*'t\.w'.*16 left"):
            WeightStore.load(path)

    @settings(max_examples=100)
    @given(
        dims=st.lists(st.one_of(st.integers(0, 6), st.integers(0, 2**64 - 1)), max_size=3),
        n_bytes=st.integers(0, 64),
    )
    def test_random_header_dims(self, tmp_path_factory, dims, n_bytes):
        # a header loads exactly when the file holds its data; otherwise it
        # fails with a documented error that names the file
        path = tmp_path_factory.getbasetemp() / "random_dims.inxw"
        path = write_one_tensor(path, dims, data=b"\0" * n_bytes)
        count = int(np.prod(dims, dtype=object)) if dims else 1
        try:
            store = WeightStore.load(path)
        except (TruncatedFileError, WeightFormatError) as exc:
            assert path in str(exc)
            assert isinstance(exc, TruncatedFileError) == (4 * count > n_bytes)
        else:
            assert 4 * count <= n_bytes and store["t.w"].shape == tuple(dims)

    @settings(max_examples=50)
    @given(cut=st.integers(0, 10**6))
    def test_truncation_at_any_offset(self, tmp_path_factory, cut):
        p = tmp_path_factory.getbasetemp() / "truncated.inxw"
        WeightStore({"a.w": np.ones((3, 2)), "b": np.zeros(0), "c": np.ones(5)}).save(str(p))
        raw = p.read_bytes()
        p.write_bytes(raw[: cut % len(raw)])
        with pytest.raises(TruncatedFileError, match=r"truncated\.inxw: file truncated"):
            WeightStore.load(str(p))

    def test_dims_beyond_numpy_rejected(self, tmp_path):
        # zero elements, so the data fits, but no array can have this shape
        path = write_one_tensor(tmp_path / "w.inxw", [0, 2**64 - 1], data=b"")
        with pytest.raises(WeightFormatError, match=r"w\.inxw: tensor 't\.w'"):
            WeightStore.load(path)

    def test_exact_size_header_loads(self, tmp_path):
        data = np.arange(4, dtype="<f4").tobytes()
        path = write_one_tensor(tmp_path / "w.inxw", [2, 2], data=data)
        assert_array_equal(WeightStore.load(path)["t.w"], [[0, 1], [2, 3]])

    def test_zero_dim_tensor_roundtrips_as_zero_dim(self, tmp_path):
        store = WeightStore({"s": np.float32(3)})
        assert store["s"].shape == ()
        store.save(str(tmp_path / "w.inxw"))
        assert WeightStore.load(str(tmp_path / "w.inxw"))["s"].shape == ()

    def test_name_not_utf8_names_the_file(self, tmp_path):
        path = write_one_tensor(tmp_path / "w.inxw", [4], name=b"\xff.w")
        with pytest.raises(WeightFormatError, match=r"w\.inxw: tensor 0's name is not UTF-8"):
            WeightStore.load(path)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_flipped_byte_fails_cleanly(self, tmp_path_factory, data):
        # any one corrupted byte of a valid container loads as some store or
        # raises one of the two documented errors, naming the file
        path = tmp_path_factory.getbasetemp() / "flipped.inxw"
        tensors = {"a.w": np.ones((3, 2)), "b": np.zeros(0), "s": np.float32(0.5), "c": np.ones(5)}
        WeightStore(tensors).save(str(path))
        raw = bytearray(path.read_bytes())
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        raw[at] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(raw))
        try:
            store = WeightStore.load(str(path))
        except (WeightFormatError, TruncatedFileError) as exc:
            assert str(path) in str(exc)
        else:
            assert isinstance(store, WeightStore)

    @settings(max_examples=100)
    @given(
        shapes=st.lists(st.lists(st.integers(0, 5), max_size=3).map(tuple), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_load_views_one_buffer(self, tmp_path_factory, shapes, seed):
        # every loaded tensor is a C-contiguous, aligned float32 view of one
        # buffer no larger than the file, and the round trip is bit-exact
        rng = np.random.default_rng(seed)
        store = WeightStore(
            {f"t{i}": rng.standard_normal(s).astype(np.float32) for i, s in enumerate(shapes)}
        )
        path = tmp_path_factory.getbasetemp() / "buffer.inxw"
        store.save(str(path))
        loaded = WeightStore.load(str(path))
        assert list(loaded.keys()) == list(store.keys())
        tensors = [loaded[name] for name in loaded.keys()]
        for name, tensor in zip(loaded.keys(), tensors):
            assert tensor.tobytes() == store[name].tobytes()
            assert tensor.dtype == np.float32 and tensor.shape == store[name].shape
            assert tensor.flags.c_contiguous and tensor.flags.aligned
        assert len({id(tensor.base) for tensor in tensors}) <= 1
        if tensors:
            buffer = tensors[0].base
            assert buffer is not None and buffer.nbytes <= path.stat().st_size
            assert all(np.shares_memory(buffer, tensor) for tensor in tensors if tensor.size)

    def test_save_writes_the_documented_layout(self, tmp_path):
        # the bytes the module docstring specifies, encoded independently
        tensors = {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3), "s": np.float32(-1.5),
                   "e": np.zeros((0, 4), dtype=np.float32)}
        expect = b"INXW" + struct.pack("<II", 1, len(tensors))
        for name, value in tensors.items():
            value = np.asarray(value)
            expect += struct.pack("<I", len(name)) + name.encode()
            expect += struct.pack(f"<BI{value.ndim}Q", 0, value.ndim, *value.shape)
            expect += value.astype("<f4").tobytes()
        WeightStore(tensors).save(str(tmp_path / "w.inxw"))
        assert (tmp_path / "w.inxw").read_bytes() == expect

    def test_seeded_init_views_one_buffer(self):
        specs = [ParamSpec("a.w", (3, 4), fan_in=4), ParamSpec("a.b", (3,), "bias"),
                 ParamSpec("n.gamma", (5,), "gamma"), ParamSpec("p.alpha", (), "prelu")]
        store = seeded_init(specs, seed=5)
        assert len({id(store[spec.name].base) for spec in specs}) == 1
        assert store["p.alpha"].shape == () and store["p.alpha"] == np.float32(0.25)
        for spec in specs:  # the shared buffer changes no tensor's fill
            assert seeded_init([spec], seed=5)[spec.name].tobytes() == store[spec.name].tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WeightStore({"a": np.array([1.0, np.inf], dtype=np.float32)})

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_load_rejects_non_finite(self, tmp_path, bad):
        p = tmp_path / "w.inxw"
        WeightStore({"a": np.zeros(3, dtype=np.float32)}).save(str(p))
        raw = p.read_bytes()
        p.write_bytes(raw[:-4] + np.float32(bad).astype("<f4").tobytes())
        with pytest.raises(WeightFormatError, match=r"w\.inxw: tensor 'a' contains non-finite"):
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
        assert same_store(a, b)
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


def _correlate64(xp, k):
    """Stride-1 valid cross-correlation in float64, one kernel tap at a time."""
    c_out, _, kt, kf = k.shape
    t_out, f_out = xp.shape[1] - kt + 1, xp.shape[2] - kf + 1
    y = np.zeros((c_out, t_out, f_out))
    for a in range(kt):
        for b in range(kf):
            y += np.einsum("oc,ctf->otf", k[:, :, a, b], xp[:, a : a + t_out, b : b + f_out])
    return y


def _assert_near(got, expect):
    # 1e-5 of the output's largest magnitude: float32 products summed in
    # another order than the float64 reference
    assert got.dtype == np.float32 and got.shape == expect.shape
    assert np.max(np.abs(got - expect), initial=0.0) <= 1e-5 * np.max(np.abs(expect), initial=1.0)


_CONV_CASES = dict(
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 4),
    t_len=st.integers(1, 9),
    bins=st.integers(1, 12),
    kt=st.integers(1, 3),
    kf=st.integers(1, 3),
    # a few patch elements per slice, so most calls run several slices and
    # end on a short one
    budget=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)


def _pad_time(x, kt):
    """x[C, T, F] with 'same' (centered) zero padding over time for Kt taps."""
    return np.pad(x, ((0, 0), ((kt - 1) // 2, kt // 2), (0, 0)))


class TestConv2d:
    @settings(max_examples=200)
    @given(
        stride=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        pre_pad=st.booleans(),
        **_CONV_CASES,
    )
    def test_matches_float64_tap_sum(
        self, c_in, c_out, t_len, bins, kt, kf, budget, seed, stride, pre_pad
    ):
        # the input gets Kt-1 extra time frames: zeros around it ('same'
        # padding, made here) or the history frames a streaming caller passes
        rng = np.random.default_rng(seed)
        if not pre_pad:
            t_len += kt - 1
        x = rng.standard_normal((c_in, t_len, bins)).astype(np.float32)
        if pre_pad:
            x = _pad_time(x, kt)
        k = rng.standard_normal((c_out, c_in, kt, kf)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), ((kf - 1) // 2, kf // 2)))
        expect = _correlate64(xp, k.astype(np.float64))[:, :: stride[0], :: stride[1]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_PATCH_BUDGET", budget)
            got = conv2d(x, k, b, stride=stride)
        _assert_near(got, expect + b[:, None, None])

    def test_one_by_one_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 5, 7)).astype(np.float32)
        k = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        assert_allclose(conv2d(x, k, np.zeros(3, np.float32)), x, atol=1e-6)

    def test_all_ones_interior(self):
        x = np.ones((1, 6, 6), dtype=np.float32)
        k = np.ones((1, 1, 3, 3), dtype=np.float32)
        y = conv2d(_pad_time(x, 3), k, np.full(1, 0.5, np.float32))
        assert_allclose(y[0, 3, 3], 9.5, atol=0)

    def test_unpadded_time_gives_last_causal_frames(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 7, 5)).astype(np.float32)
        k = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y = conv2d(x, k, b)
        assert y.shape == (4, 5, 5)
        assert_allclose(y, conv2d(_pad_time(x, 3), k, b)[:, 1:-1], atol=1e-6)

    def test_stride_subsamples(self):
        x = _pad_time(np.zeros((1, 8, 9), dtype=np.float32), 3)
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

    @settings(max_examples=100)
    @given(**_CONV_CASES)
    def test_transpose2d_matches_float64_scatter(
        self, c_in, c_out, t_len, bins, kt, kf, budget, seed
    ):
        rng = np.random.default_rng(seed)
        t_len += kt - 1  # history frames ahead of the frames wanted
        x = rng.standard_normal((c_in, t_len, bins)).astype(np.float32)
        k = rng.standard_normal((c_in, c_out, kt, kf)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        full = np.zeros((c_out, t_len + kt - 1, bins + kf - 1))
        for a in range(kt):
            for f in range(kf):
                full[:, a : a + t_len, f : f + bins] += np.einsum(
                    "io,itf->otf", k[:, :, a, f].astype(np.float64), x.astype(np.float64)
                )
        f0 = (kf - 1) // 2
        expect = full[:, kt - 1 : t_len, f0 : f0 + bins] + b[:, None, None]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_PATCH_BUDGET", budget)
            got = conv_transpose2d(x, k, b)
        _assert_near(got, expect)

    def test_transpose1d_full_length_and_values(self):
        # single channel, kernel [1,1,2] = [1, 10]: out[o] = x[o] + 10*x[o-1]
        x = np.array([[[1.0], [2.0], [3.0]]], dtype=np.float32)
        k = np.array([[[1.0, 10.0]]], dtype=np.float32)
        out = conv_transpose1d(x, k, np.zeros(1, np.float32))
        assert_allclose(out[0, :, 0], [1.0, 12.0, 23.0, 30.0], atol=0)


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

    @pytest.mark.parametrize("shape", [(16, 1, 257), (128, 1, 257), (16, 128, 257), (3, 5, 7)])
    def test_equals_mean_and_var_formula(self, shape):
        # the statistics as np.mean and np.var compute them, bit for bit
        rng = np.random.default_rng(8)
        x = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
        g, b = (rng.standard_normal((shape[0], 1, 1)).astype(np.float32) for _ in range(2))
        x64 = x.astype(np.float64)
        mu = x64.mean(axis=(0, 2), keepdims=True)
        var = x64.var(axis=(0, 2), keepdims=True)
        ref = (g * ((x64 - mu) / np.sqrt(var + 1e-5)).astype(np.float32) + b).astype(np.float32)
        assert_array_equal(layer_norm(x, g, b), ref)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            layer_norm(np.zeros((0, 2, 3)), np.float32(1), np.float32(0))
        with pytest.raises(ValueError):
            layer_norm(np.zeros((2, 2, 0)), np.float32(1), np.float32(0))


class TestFilm:
    def test_identity_modulation(self):
        x = np.random.default_rng(8).standard_normal((4, 3, 5)).astype(np.float32)
        y = film(x, np.ones(4, np.float32), np.zeros(4, np.float32))
        assert_array_equal(y, x)

    def test_constant_override(self):
        x = np.random.default_rng(9).standard_normal((2, 3, 4)).astype(np.float32)
        beta = np.array([5.0, -1.0], dtype=np.float32)
        y = film(x, np.zeros(2, np.float32), beta)
        assert_allclose(y[0], 5.0, atol=0)
        assert_allclose(y[1], -1.0, atol=0)

    def test_embedding_sensitivity(self):
        # FiLM's scale and shift are projections of the embedding, made once
        # per model; two embeddings give two modulations
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)
        wg = rng.standard_normal((3, 6)).astype(np.float32)
        wb = rng.standard_normal((3, 6)).astype(np.float32)
        zero = np.zeros(3, dtype=np.float32)

        def modulate(emb):
            return film(x, kernels.linear(emb, wg, zero), kernels.linear(emb, wb, zero))

        y1 = modulate(rng.standard_normal(6).astype(np.float32))
        y2 = modulate(rng.standard_normal(6).astype(np.float32))
        assert np.abs(y1 - y2).max() > 0

    def test_per_channel_affine(self):
        # each channel takes its own scale and shift, so two conditionings
        # that differ in one channel differ in that channel only
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)
        gamma, beta = rng.standard_normal((2, 3)).astype(np.float32)
        y = film(x, gamma, beta)
        assert y.dtype == np.float32
        for d in range(3):
            assert_array_equal(y[d], gamma[d] * x[d] + beta[d])
        other = gamma.copy()
        other[1] += 1.0
        z = film(x, other, beta)
        assert_array_equal(z[[0, 2]], y[[0, 2]])
        assert np.abs(z[1] - y[1]).max() > 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            film(np.zeros((2, 2, 2), np.float32), np.zeros(5, np.float32), np.zeros(5, np.float32))


class TestPrelu:
    def test_values(self):
        x = np.array([[-2.0, 3.0]], dtype=np.float32)
        assert_allclose(prelu(x, np.float32(0.25)), [[-0.5, 3.0]], atol=0)

    def test_per_channel(self):
        x = -np.ones((2, 3), dtype=np.float32)
        y = prelu(x, np.array([0.5, 0.1], dtype=np.float32))
        assert_allclose(y[0], -0.5, atol=0)
        assert_allclose(y[1], -0.1, atol=1e-7)

    @pytest.mark.parametrize(
        "alpha",
        [0.25, -0.5, 0.0, 3.0, [0.25, -0.5, 0.0, 3.0]],
        ids=["scalar", "negative", "zero", "above_one", "per_channel"],
    )
    def test_equals_the_masked_form_exactly(self, alpha):
        alpha = np.asarray(alpha, dtype=np.float32)
        x = 10 * np.random.default_rng(5).standard_normal((4, 3, 6)).astype(np.float32)
        x[:, 0, :4] = [np.inf, -np.inf, np.nan, 0.0]
        before = x.copy()
        a = alpha.reshape(-1, 1, 1) if alpha.ndim else alpha
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN in both forms
            expect = np.where(x >= 0, x, a * x)
            got = prelu(x, alpha)
        assert got.dtype == np.float32
        assert np.array_equal(got, expect, equal_nan=True)
        assert np.array_equal(x, before, equal_nan=True)


# ---------------------------------------------------------------------------
# LSTM


def _lstm_one(x, *weights, **kw):
    """lstm_forward over one sequence x[T, D_in], run as a batch of one."""
    return lstm_forward(x[None], *weights, **kw)[0]


class TestLstm:
    def _weights(self, rng, d_in, h):
        w = rng.standard_normal((4 * h, d_in)).astype(np.float32) * 0.3
        r = rng.standard_normal((4 * h, h)).astype(np.float32) * 0.3
        b = rng.standard_normal(4 * h).astype(np.float32) * 0.1
        return w, r, b

    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32)
        y = _lstm_one(x, np.zeros((8, 3), np.float32), np.zeros((8, 2), np.float32), np.zeros(8, np.float32))
        assert_array_equal(y, 0)

    def test_scalar_hand_recurrence(self):
        # i, f, o gates saturated by large bias, candidate path passes tanh(x):
        # h1 = tanh(tanh(1)) for input 1.
        w = np.array([[0.0], [0.0], [1.0], [0.0]], dtype=np.float32)
        r = np.zeros((4, 1), dtype=np.float32)
        b = np.array([30.0, 30.0, 0.0, 30.0], dtype=np.float32)
        y = _lstm_one(np.array([[1.0]], dtype=np.float32), w, r, b)
        assert_allclose(y[0, 0], np.tanh(np.tanh(1.0)), atol=1e-6)

    def test_saturated_gates_without_warnings(self):
        # pre-activations of +-1e4 drive every gate to exactly 0 or 1 in both
        # directions, with no overflow or underflow
        w = np.full((4, 1), 1e4, dtype=np.float32)
        r = np.zeros((4, 1), dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        x = np.array([[1.0], [-1.0], [1.0]], dtype=np.float32)
        with np.errstate(all="raise"):
            y = _lstm_one(x, w, r, b, backward=(w, r, b))
        on = np.tanh(np.float32(1.0))  # i = f = o = 1 and g = 1 from zero state
        assert_array_equal(y, [[on, on], [0.0, 0.0], [on, on]])

    def test_forward_causality(self):
        rng = np.random.default_rng(11)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((10, 3)).astype(np.float32)
        y = _lstm_one(x, w, r, b)
        xp = x.copy()
        xp[6:] = rng.standard_normal((4, 3))
        yp = _lstm_one(xp, w, r, b)
        assert_array_equal(y[:6], yp[:6])
        assert np.abs(y[6:] - yp[6:]).max() > 0

    def test_streaming_state_equivalence(self):
        rng = np.random.default_rng(13)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((12, 3)).astype(np.float32)
        full = _lstm_one(x, w, r, b)
        state = (np.zeros((1, 4), np.float32), np.zeros((1, 4), np.float32))
        parts = []
        for t in range(12):
            out, state = lstm_forward(x[None, t : t + 1], w, r, b, state=state)
            parts.append(out[0])
        assert_allclose(np.concatenate(parts), full, atol=1e-6)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(14)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((5, 9, 3)).astype(np.float32)
        batched = lstm_forward(x, w, r, b)
        for n in range(5):
            assert_allclose(batched[n], _lstm_one(x[n], w, r, b), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _lstm_one(np.zeros((4, 3), np.float32), np.zeros((8, 2), np.float32), np.zeros((8, 2), np.float32), np.zeros(8, np.float32))

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
        run = lstm_forward if batched else _lstm_one
        both = run(x, *fwd, backward=bwd)
        assert both.shape == x.shape[:-1] + (2 * h,)
        assert_allclose(both[..., :h], run(x, *fwd), rtol=0, atol=1e-6)
        # the backward half is the forward recurrence over the time-mirrored input
        mirrored = np.flip(run(np.flip(x, axis=-2), *bwd), axis=-2)
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
        assert_allclose(_lstm_one(x, w, r, b), ref, rtol=0, atol=1e-6)

    def test_bidirectional_rejects_reverse_and_state(self):
        rng = np.random.default_rng(15)
        w, r, b = self._weights(rng, 3, 4)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        with pytest.raises(ValueError):
            _lstm_one(x, w, r, b, backward=(w, r, b), state=(np.zeros((1, 4)), np.zeros((1, 4))))
        with pytest.raises(ValueError):
            _lstm_one(x, w, r, b, backward=(w[:, :2], r, b))



def _lstm_weights(rng, d_in, h):
    return [
        (rng.standard_normal(shape) * scale).astype(np.float32)
        for shape, scale in (((4 * h, d_in), 0.3), ((4 * h, h), 0.3), ((4 * h,), 0.1))
    ]


def _lstm_reference(x, w, r, b, h, c):
    """The textbook LSTM in float64 over x[T, D_in] from state (h, c)."""
    w, r, b, h, c = (np.asarray(a, dtype=np.float64) for a in (w, r, b, h, c))
    out = []
    for xt in np.asarray(x, dtype=np.float64):
        i, f, g, o = np.split(w @ xt + r @ h + b, 4)
        i, f, o = (1.0 / (1.0 + np.exp(-z)) for z in (i, f, o))
        c = f * c + i * np.tanh(g)
        h = o * np.tanh(c)
        out.append(h)
    return np.reshape(out, (len(x), len(h))), h, c


class TestLstmReference:
    @settings(max_examples=200)  # about 1 s
    @given(
        n=st.integers(1, 3),
        t_len=st.integers(0, 12),
        d_in=st.integers(1, 6),
        h=st.integers(1, 6),
        mode=st.sampled_from(["forward", "bidirectional", "state"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_float64_textbook_recurrence(self, n, t_len, d_in, h, mode, seed):
        rng = np.random.default_rng(seed)
        weights = [_lstm_weights(rng, d_in, h) for _ in range(2)]
        x = rng.standard_normal((n, t_len, d_in)).astype(np.float32)
        zero = np.zeros((n, h), np.float32)
        h0, c0 = (rng.standard_normal((n, h)).astype(np.float32) for _ in range(2))
        if mode == "bidirectional":
            out = lstm_forward(x, *weights[0], backward=weights[1])
        elif mode == "state":
            out, (h_t, c_t) = lstm_forward(x, *weights[0], state=(h0, c0))
        else:
            out = lstm_forward(x, *weights[0])
        assert out.shape == (n, t_len, (2 if mode == "bidirectional" else 1) * h)
        for k in range(n):
            start = (h0[k], c0[k]) if mode == "state" else (zero[k], zero[k])
            ref, h_ref, c_ref = _lstm_reference(x[k], *weights[0], *start)
            assert_allclose(out[k, :, :h], ref, rtol=0, atol=1e-6)
            if mode == "bidirectional":
                back = _lstm_reference(x[k, ::-1], *weights[1], zero[k], zero[k])[0]
                assert_allclose(out[k, :, h:], back[::-1], rtol=0, atol=1e-6)
            if mode == "state":
                assert_allclose(h_t[k], h_ref, rtol=0, atol=1e-6)
                assert_allclose(c_t[k], c_ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("batched", [False, True])
    def test_empty_sequence_returns_state_unchanged(self, batched):
        rng = np.random.default_rng(23)
        w, r, b = _lstm_weights(rng, 3, 4)
        shape = (2, 4) if batched else (4,)
        state = tuple(rng.standard_normal(shape).astype(np.float32) for _ in range(2))
        x = np.zeros(((2, 0, 3) if batched else (0, 3)), np.float32)
        if batched:
            out, (h, c) = lstm_forward(x, w, r, b, state=state)
        else:
            out, (h, c) = lstm_forward(x[None], w, r, b, state=[s[None] for s in state])
            out, h, c = out[0], h[0], c[0]
        assert out.shape == shape[:-1] + (0, 4)
        assert_array_equal(h, state[0])
        assert_array_equal(c, state[1])


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
        # the weights of a row sum to one, so values of all ones give all ones
        v = np.ones((6, 4), np.float32)
        assert_allclose(masked_attention(q, k, v, heads=2), 1.0, atol=1e-6)

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

    @pytest.mark.parametrize(
        "k_shape, v_shape, heads",
        [((4, 6), (4, 6), 2), ((4, 4), (3, 6), 2), ((4, 4), (4, 6), 3)],
        ids=["k_width", "v_frames", "heads"],
    )
    def test_mismatched_shapes_named(self, k_shape, v_shape, heads):
        # a k narrower or wider than q is a shape mismatch, not a head count
        # that fails to divide; the error names every shape and the heads
        q = np.zeros((2, 4), np.float32)
        k, v = np.zeros(k_shape, np.float32), np.zeros(v_shape, np.float32)
        shapes = rf"q \(2, 4\), k \({k_shape[0]}, {k_shape[1]}\) and v \({v_shape[0]}, {v_shape[1]}\)"
        with pytest.raises(ValueError, match=rf"masked_attention: {shapes} do not fit {heads} heads"):
            masked_attention(q, k, v, heads=heads)

    def test_float32_value_product_long_cache(self):
        # softmax weights in float64, value product in float32
        rng = np.random.default_rng(22)
        t_k, heads, dv = 500, 2, 64
        q = rng.standard_normal((t_k, heads * 4)).astype(np.float32)
        k = rng.standard_normal((t_k, heads * 4)).astype(np.float32)
        v = rng.standard_normal((t_k, heads * dv)).astype(np.float32)
        out = masked_attention(q, k, v, heads=heads)
        # the kernel's float64 softmax of its float32 scores, over keys up to the query
        qh, kh = (a.reshape(t_k, heads, 4).transpose(1, 0, 2) for a in (q, k))
        scores = (qh @ kh.transpose(0, 2, 1)).astype(np.float64) / np.sqrt(4)
        scores[:, np.triu(np.ones((t_k, t_k), dtype=bool), 1)] = -np.inf
        wts = np.exp(scores - scores.max(axis=2, keepdims=True))
        wts /= wts.sum(axis=2, keepdims=True)
        vh = v.astype(np.float64).reshape(t_k, heads, dv).transpose(1, 0, 2)
        ref = (wts @ vh).transpose(1, 0, 2).reshape(t_k, heads * dv)
        assert np.abs(out - ref).max() <= 1e-6
        last = masked_attention(q[-1:], k, v, heads=heads)
        assert np.abs(last - ref[-1:]).max() <= 1e-6
