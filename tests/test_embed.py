"""Speaker embedder tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hearstream import embedder
from hearstream.dsp import StftConfig, StreamingAnalyzer
from hearstream.embedder import (
    EmbedConfig,
    SpeakerEmbedder,
    cache_embedding,
    embed_weight_schema,
    load_embedding,
)
from hearstream.gridnet import EMB_DIM, GridNetConfig, weight_schema
from hearstream.weights import WeightFormatError, WeightStore, seeded_init

TINY = EmbedConfig(n_freq=33)  # the bins of the test suite's StftConfig(win=64, hop=16)


def make_embedder(config=TINY, seed=11):
    store = seeded_init(embed_weight_schema(config), seed)
    return SpeakerEmbedder(config, store), store


def n_params(config):
    return sum(int(np.prod(s.shape)) for s in embed_weight_schema(config))


def rand_spect(t, f, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((t, f)) + 1j * rng.standard_normal((t, f))).astype(np.complex64)


class TestConfig:
    def test_default_bins(self):
        # 257 -> 129 -> 65 -> 33 -> 17 across the four frequency-halving convs
        assert EmbedConfig().encoder_out_bins == 17

    def test_tiny_bins(self):
        # 33 -> 17 -> 9 -> 5 -> 3
        assert TINY.encoder_out_bins == 3

    def test_emb_dim_is_tcn_width(self):
        # the pooled TCN output is the embedding the networks' FiLM layers read
        tcn = {s.shape[0] for s in embed_weight_schema(TINY) if ".tcn." in s.name}
        film = {s.shape[1] for s in weight_schema(GridNetConfig()) if ".film.w_" in s.name}
        assert tcn == {EMB_DIM} == film


class TestParams:
    def test_tiny_hand_audit(self):
        # encoder: conv0 (16*2*9 + 16 + 16) = 320
        #          3 stages of dense1 2336 + dense2 4640 + down 2336 = 9312 each
        #          proj to 128 from 16*3 bins: 6144 + 128 + 128 = 6400
        # tcn: 3 repeats of 4 blocks of pw1 16640 + dw 640 + pw2 16512 = 33792 each
        expected = 320 + 3 * 9312 + 6400 + 12 * 33792
        assert expected == 440160
        assert n_params(TINY) == expected

    def test_default_hand_audit(self):
        cfg = EmbedConfig()
        enc = 320 + 3 * (2336 + 4640 + 2336) + (128 * 272 + 128 + 128)
        tcn = 12 * (16640 + 640 + 16512)
        assert n_params(cfg) == enc + tcn == 468832

    def test_default_in_budget(self):
        assert 450_000 <= n_params(EmbedConfig()) <= 750_000

    def test_store_matches_schema(self):
        store = seeded_init(embed_weight_schema(TINY), 0)
        assert store.param_count() == n_params(TINY)


class TestTcnBlock:
    """One residual TCN block (pointwise, dilated depthwise, pointwise conv)
    against a float64 loop over its taps."""

    @staticmethod
    def reference(y, blk):
        (w1, b1, a1), (wd, bd, ad), (w2, b2) = (
            [np.float64(p) for p in layer] for layer in (blk.pw1, blk.dw, blk.pw2)
        )
        c, t_len = y.shape

        def prelu(x, a):
            return np.where(x >= 0, x, a[:, None] * x)

        def pointwise(w, b, x):
            return np.array([[w[o, :, 0] @ x[:, t] + b[o] for t in range(t_len)] for o in range(c)])

        z = prelu(pointwise(w1, b1, y), a1)
        dw = np.zeros((c, t_len))
        for ch in range(c):
            for t in range(t_len):
                taps = [(j, t + (j - 1) * blk.dilation) for j in range(3)]
                dw[ch, t] = sum(wd[ch, 0, j] * z[ch, s] for j, s in taps if 0 <= s < t_len) + bd[ch]
        z = prelu(dw, ad)
        return y + pointwise(w2, b2, z)

    @pytest.mark.parametrize("dilation", [1, 2, 4, 8])
    def test_matches_float64_loop(self, dilation):
        rng = np.random.default_rng(dilation)
        c = 6

        def layer(*shapes):
            return tuple(rng.standard_normal(s).astype(np.float32) for s in shapes)

        blk = embedder._TcnBlock(
            layer((c, c, 1), c, c), layer((c, 1, 3), c, c), layer((c, c, 1), c), dilation
        )
        for t_len in (1, 5, 20):  # shorter and longer than the dilated span
            y = rng.standard_normal((c, t_len)).astype(np.float32)
            got = embedder._tcn_block(y, blk)
            assert got.shape == (c, t_len) and got.dtype == np.float32
            assert_allclose(got, self.reference(np.float64(y), blk), rtol=1e-5, atol=1e-5)


class TestEmbed:
    def test_zero_input_zero_embedding(self):
        # seeded init leaves every bias at zero, so silence maps to the origin
        emb, _ = make_embedder()
        out = emb.embed(np.zeros((20, 33), dtype=np.complex64))
        assert out.shape == (EMB_DIM,)
        assert np.all(out == 0.0)

    def test_output_shape_and_dtype(self):
        emb, _ = make_embedder()
        for t in (1, 10, 100):
            out = emb.embed(rand_spect(t, 33, seed=t))
            assert out.shape == (EMB_DIM,)
            assert out.dtype == np.float32
            assert np.all(np.isfinite(out))

    def test_long_input_default_config(self):
        emb, _ = make_embedder(EmbedConfig(), seed=3)
        out = emb.embed(rand_spect(1000, 257, seed=5))
        assert out.shape == (EMB_DIM,)
        assert np.all(np.isfinite(out))

    def test_deterministic(self):
        emb, store = make_embedder()
        x = rand_spect(40, 33, seed=9)
        a = emb.embed(x)
        b = emb.embed(x)
        c = SpeakerEmbedder(TINY, store).embed(x)
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_input_sensitivity(self):
        emb, _ = make_embedder()
        a = emb.embed(rand_spect(30, 33, seed=1))
        b = emb.embed(rand_spect(30, 33, seed=2))
        assert np.max(np.abs(a - b)) > 1e-6

    def test_trailing_channel_axis_accepted(self):
        emb, _ = make_embedder()
        x = rand_spect(12, 33, seed=4)
        assert emb.embed(x).tobytes() == emb.embed(x[:, :, None]).tobytes()

    def test_mean_pooling_invariant_for_bias_only_weights(self):
        # zero kernels make every activation a time-constant bias stack, so
        # the temporal mean cannot depend on the clip length
        store = seeded_init(embed_weight_schema(TINY), 0)
        rng = np.random.default_rng(17)
        for name in list(store.keys()):
            if name.endswith(".w"):
                store[name] = np.zeros(store[name].shape, dtype=np.float32)
            elif name.endswith(".b"):
                store[name] = rng.standard_normal(store[name].shape).astype(np.float32)
        emb = SpeakerEmbedder(TINY, store)
        short = emb.embed(rand_spect(10, 33, seed=1))
        long = emb.embed(rand_spect(100, 33, seed=2))
        assert short.tobytes() == long.tobytes()
        assert np.max(np.abs(short)) > 0

    def test_empty_input_rejected(self):
        emb, _ = make_embedder()
        with pytest.raises(ValueError):
            emb.embed(np.zeros((0, 33), dtype=np.complex64))

    @pytest.mark.parametrize("bad", ["nan_bin", "float32_overflow"])
    def test_nonfinite_input_planes_rejected(self, bad):
        emb, _ = make_embedder()
        if bad == "nan_bin":
            spect = rand_spect(10, 33)
            spect[4, 7] = complex(np.nan, 0.0)
        else:
            # loud enough audio that a bin, finite in float64, is inf as float32
            audio = np.full(256, 1e37)
            spect = StreamingAnalyzer(StftConfig(win=64, hop=16)).analyze(audio)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            emb.embed(spect)

    def test_wrong_bins_rejected(self):
        emb, _ = make_embedder()
        with pytest.raises(ValueError):
            emb.embed(rand_spect(10, 32))

    def test_multichannel_rejected(self):
        emb, _ = make_embedder()
        with pytest.raises(ValueError):
            emb.embed(np.zeros((10, 33, 2), dtype=np.complex64))

    def test_missing_weight_rejected(self):
        store = seeded_init(embed_weight_schema(TINY), 0)
        partial = WeightStore({n: store[n] for n in list(store.keys())[:-1]})
        with pytest.raises(KeyError):
            SpeakerEmbedder(TINY, partial)


class TestChunkedEncoder:
    """``embed`` streams the encoder a chunk at a time; the whole-input encoder
    is the same code with one chunk as long as the input."""

    # the encoder's output lags its input by its receptive field: one frame
    # for conv0 and one each for dense1, dense2 and down in every stage
    LAG = 1 + 3 * embedder.ENCODER_STAGES

    @staticmethod
    def embed_in_chunks(emb, spect, frames):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedder, "_CHUNK_FRAMES", frames)
            return emb.embed(spect)

    @settings(max_examples=80)
    @given(
        t_len=st.integers(1, 3 * embedder._CHUNK_FRAMES + LAG),
        # chunks shorter than the lag make pushes that complete no frame
        chunk=st.sampled_from([1, 2, 3, 5, embedder._CHUNK_FRAMES]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_whole_input_encoder(self, t_len, chunk, seed):
        emb, _ = make_embedder()
        spect = rand_spect(t_len, 33, seed=seed)
        got = self.embed_in_chunks(emb, spect, chunk)
        expect = self.embed_in_chunks(emb, spect, t_len)
        if t_len <= chunk:
            assert got.tobytes() == expect.tobytes()
        else:
            assert np.max(np.abs(got - expect)) <= 1e-6 * np.max(np.abs(expect))

    def test_working_set_bounded_by_the_chunk(self):
        # a 4x longer enrollment grows the traced peak by no more than twice
        # the O(T) arrays embed must hold: the float32 input planes and one
        # float64 [C, T] map for the pooled mean
        emb, _ = make_embedder()
        t_len = 3 * embedder._CHUNK_FRAMES + self.LAG

        def peak(frames):
            spect = rand_spect(frames, 33, seed=frames)
            emb.embed(spect)
            tracemalloc.start()
            try:
                emb.embed(spect)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_frame = 2 * TINY.n_freq * 4 + EMB_DIM * 8
        assert peak(4 * t_len) - peak(t_len) <= 2 * per_frame * 3 * t_len

    def test_features_freed_before_the_tcn(self):
        # once projected, the [T, features] encoder output is dead: when the
        # first TCN block starts, what embed holds grows with T only by the
        # [EMB_DIM, T] float32 map that block receives
        emb, _ = make_embedder()
        t_len = 3 * embedder._CHUNK_FRAMES + self.LAG
        tcn_block = embedder._tcn_block

        def held(frames):
            spect = rand_spect(frames, 33, seed=frames)
            seen = []

            def first_block(y, blk):
                seen.append(tracemalloc.get_traced_memory()[0])
                return tcn_block(y, blk)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(embedder, "_tcn_block", first_block)
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    emb.embed(spect)
                finally:
                    tracemalloc.stop()
            return seen[0] - start

        features = embedder.ENCODER_HIDDEN * TINY.encoder_out_bins * 4
        grown = held(4 * t_len) - held(t_len)
        assert grown < EMB_DIM * 4 * 3 * t_len + features * 3 * t_len // 2


class TestCache:
    def test_roundtrip_exact(self, tmp_path):
        emb, _ = make_embedder(EmbedConfig(), seed=2)
        vec = emb.embed(rand_spect(25, 257, seed=8))
        path = str(tmp_path / "emb.inxw")
        cache_embedding(path, vec)
        back = load_embedding(path)
        assert back.tobytes() == vec.tobytes()

    def test_wrong_length_rejected(self, tmp_path):
        path = str(tmp_path / "short.inxw")
        cache_embedding(path, np.zeros(127, dtype=np.float32))
        with pytest.raises(WeightFormatError):
            load_embedding(path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = str(tmp_path / "other.inxw")
        WeightStore({"misc": np.zeros(4, dtype=np.float32)}).save(path)
        with pytest.raises(WeightFormatError):
            load_embedding(path)

    def test_non_vector_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cache_embedding(str(tmp_path / "bad.inxw"), np.zeros((2, 2), dtype=np.float32))
