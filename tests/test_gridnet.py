"""Causal speaker-conditioned estimator: structure, causality, streaming."""

import contextlib
import inspect
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from hearstream import gridnet
from hearstream.gridnet import (
    GridNetConfig,
    GridNetStream,
    MisoGridNet,
    stack_ri,
    unstack_ri,
    weight_schema,
)
from hearstream.scenes import SceneSpec
from hearstream.weights import WeightStore, seeded_init

# small footprint for module-level tests; full toy defaults where counts matter
SMALL = GridNetConfig(channels=1, d=8, blocks=1, unfold_kernel=2, hidden=8, heads=2)


EMB = np.zeros(128, np.float32)  # for tests of stages that FiLM does not touch


def make_model(config, emb=EMB, seed=0, prefix="dnn1", extra_inputs=0):
    store = seeded_init(weight_schema(config, prefix, extra_inputs), seed)
    return MisoGridNet(config, [(prefix, extra_inputs)], store, emb)


def temporal(model, x):
    """The first block's temporal module over one network's x[D, T, F], from zero state."""
    block = model._zero_block(x.shape[2])
    return gridnet._temporal(x[None], model.blocks[0], block, model.config)[0]


def spectral(model, x):
    """The first block's spectral module over one network's x[D, T, F]."""
    return gridnet._spectral(x[None], model.blocks[0], model.config)[0]


def state_arrays(state) -> list:
    """Copies of every array and count of a carried state, in a fixed order."""
    if isinstance(state, dict):
        return [a for key in sorted(state) for a in state_arrays(state[key])]
    if isinstance(state, (list, tuple)):
        return [a for item in state for a in state_arrays(item)]
    return [np.array(state, copy=True)]


def n_params(config):
    return sum(int(np.prod(s.shape)) for s in weight_schema(config))


def rand_spect(rng, t, f, c):
    return (rng.standard_normal((t, f, c)) + 1j * rng.standard_normal((t, f, c))).astype(
        np.complex128
    )


class TestConfig:
    def test_defaults(self):
        cfg = GridNetConfig()
        assert weight_schema(cfg)[0].shape[1] == 4  # input planes: RI of 2 channels
        assert cfg.value_channels == 8

    def test_second_stage_inputs(self):
        assert weight_schema(GridNetConfig(channels=6), "dnn2", 4)[0].shape[1] == 16

    def test_invalid(self):
        with pytest.raises(ValueError):
            GridNetConfig(d=15, heads=2)
        with pytest.raises(ValueError):
            weight_schema(GridNetConfig(), "dnn2", 3)
        with pytest.raises(ValueError):
            GridNetConfig(channels=0)

    @pytest.mark.parametrize(
        "field, build",
        [
            ("hidden", lambda: GridNetConfig(hidden=8.0)),
            ("blocks", lambda: GridNetConfig(blocks=True)),
            ("channels", lambda: GridNetConfig(channels=np.float64(2))),
            ("extra_inputs", lambda: weight_schema(GridNetConfig(), "dnn2", 4.0)),
            ("extra_inputs", lambda: weight_schema(GridNetConfig(), "dnn2", -2)),
            ("channels", lambda: SceneSpec(channels=2.5)),
            ("channels", lambda: SceneSpec(channels=True)),
            ("seed", lambda: SceneSpec(seed=-1)),
            ("seed", lambda: SceneSpec(seed=1.0)),
        ],
        ids=[
            "float_hidden",
            "bool_blocks",
            "numpy_float_channels",
            "float_extra_inputs",
            "negative_extra_inputs",
            "float_scene_channels",
            "bool_scene_channels",
            "negative_scene_seed",
            "float_scene_seed",
        ],
    )
    def test_int_setting_rejected_by_name(self, field, build):
        # a float width was accepted and failed deep in NumPy, a bool passed
        # as 1, and a negative scene seed failed in NumPy's seeding
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            build()

    @pytest.mark.parametrize("field", ["qk_channels", "emb_dim", "heads"])
    def test_empty_width_rejected(self, field):
        # a zero width once built a model whose attention cache or FiLM
        # projection was empty, and the engine died on an mmap of 0 bytes;
        # zero heads once raised ZeroDivisionError from the heads-divide-d
        # check. The FiLM width is EMB_DIM, no config field: a store's
        # other width is rejected as the config is read from it
        if field == "emb_dim":
            store = seeded_init(weight_schema(SMALL), 0)
            for name in list(store.keys()):
                if ".film.w_" in name:
                    store[name] = np.zeros((SMALL.d, 0), np.float32)
            message = r"dnn1\.block0\.film\.w_gamma: FiLM width 0, not the embedding's 128"
            with pytest.raises(ValueError, match=message):
                gridnet.infer_config(store)
            return
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            GridNetConfig(**{field: 0})

    def test_fewer_bins_than_the_unfold_rejected(self):
        model = make_model(GridNetConfig(unfold_kernel=4))
        with pytest.raises(ValueError, match="bins must be >= 4, got 3"):
            model.zero_state(3)
        assert model.zero_state(4)["deconv_out"].shape[-1] == 4


class TestUnfoldWindows:
    @settings(max_examples=120)
    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 6),
        width=st.integers(1, 4),
        extra=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sliding_window_view(self, n, d, width, extra, seed):
        length = min(width + extra, 12)  # from the width up to 12 steps
        seq = np.random.default_rng(seed).standard_normal((n, length, d)).astype(np.float32)
        # the oracle: each window's steps, oldest first, side by side
        view = np.lib.stride_tricks.sliding_window_view(seq, width, axis=1)
        expect = view.transpose(0, 1, 3, 2).reshape(n, length - width + 1, width * d)
        got = gridnet._unfold_windows(seq, width)
        assert got.shape == expect.shape
        assert got.tobytes() == np.ascontiguousarray(expect).tobytes()
        # a read-only view of seq: the width-fold copy is never made
        assert np.shares_memory(got, seq) and not got.flags.writeable


class TestStackRi:
    def test_single_channel_values(self):
        s = np.full((1, 4, 1), 1 + 2j)
        x = stack_ri(s)
        assert x.shape == (2, 1, 4)
        assert_allclose(x[0], 1.0, atol=0)
        assert_allclose(x[1], 2.0, atol=0)

    def test_channel_counts(self):
        rng = np.random.default_rng(0)
        mix = rand_spect(rng, 3, 5, 6)
        assert stack_ri(mix).shape[0] == 12
        extras = rand_spect(rng, 3, 5, 2)
        assert stack_ri(mix, extras).shape[0] == 16

    def test_interleaving_order(self):
        rng = np.random.default_rng(1)
        mix = rand_spect(rng, 2, 3, 2)
        x = stack_ri(mix)
        assert_allclose(x[2], mix[:, :, 1].real.astype(np.float32), atol=0)
        assert_allclose(x[3], mix[:, :, 1].imag.astype(np.float32), atol=0)

    def test_unstack_roundtrip(self):
        rng = np.random.default_rng(2)
        est = rand_spect(rng, 4, 6, 1)[:, :, 0].astype(np.complex64)
        back = unstack_ri(stack_ri(est).astype(np.float32))
        assert_allclose(back, est, atol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            stack_ri(np.zeros((2, 3, 1), complex), np.zeros((2, 4, 1), complex))


class TestParamCount:
    def test_toy_hand_audit(self):
        # independent layer-by-layer inventory of the default configuration
        d, h, i_k, heads, e, in_ch, emb = 16, 32, 2, 2, 2, 4, 128
        dv = d // heads
        conv_in = d * in_ch * 9 + d
        ln_in = 2 * d
        film = 2 * (d * emb) + 2 * d
        lstm = (4 * h) * (i_k * d) + (4 * h) * h + 4 * h
        temporal = 2 * d + lstm + (h * d * i_k + d)
        spectral = 2 * d + 2 * lstm + (2 * h * d * i_k + d)
        attn = heads * ((e * d + 2 * e) * 2 + dv * d + 2 * dv) + (d * d + 2 * d)
        block = film + temporal + spectral + attn
        deconv_out = d * 2 * 9 + 2
        expected = conv_in + ln_in + 2 * block + deconv_out
        assert expected == 66866
        assert n_params(GridNetConfig()) == expected

    def test_full_scale_within_soft_budget(self):
        n = n_params(GridNetConfig.full_scale())
        assert 0.75 * 8_000_000 <= n <= 1.25 * 8_000_000

    def test_second_stage_differs_only_in_first_conv(self):
        a = {s.name: s.shape for s in weight_schema(GridNetConfig(), "m")}
        b = {s.name: s.shape for s in weight_schema(GridNetConfig(), "m", 4)}
        assert set(a) == set(b)
        diff = [k for k in a if a[k] != b[k]]
        assert diff == ["m.conv_in.w"]

    def test_schema_matches_store(self):
        store = seeded_init(weight_schema(SMALL), 7)
        assert store.param_count() == n_params(SMALL)


class TestForward:
    def test_zero_weights_zero_output(self):
        store = WeightStore({s.name: np.zeros(s.shape, np.float32) for s in weight_schema(SMALL)})
        model = MisoGridNet(SMALL, [("dnn1", 0)], store, np.ones(128, np.float32))
        rng = np.random.default_rng(3)
        out = model.forward(rand_spect(rng, 5, 33, 1), [None])[0]
        assert_array_equal(out, 0)

    def test_output_shape(self):
        rng = np.random.default_rng(4)
        x = rand_spect(rng, 6, 33, 1)
        out = make_model(SMALL, rng.standard_normal(128)).forward(x, [None])[0]
        assert out.shape == (6, 33)
        assert np.all(np.isfinite(out))

    def test_single_frame(self):
        rng = np.random.default_rng(5)
        x = rand_spect(rng, 1, 33, 1)
        out = make_model(SMALL, rng.standard_normal(128)).forward(x, [None])[0]
        assert out.shape == (1, 33)

    def test_zero_frames_rejected(self):
        model = make_model(SMALL)
        state = model.zero_state(33)
        with pytest.raises(ValueError, match=r"mixture \(0, 33, 1\) has no frames"):
            model.forward(np.zeros((0, 33, 1), np.complex64), [None], state)
        assert state["blocks"][0]["frames"] == 0

    def test_causality_exact(self):
        rng = np.random.default_rng(6)
        model = make_model(SMALL, rng.standard_normal(128), seed=1)
        x = rand_spect(rng, 10, 33, 1)
        base = model.forward(x, [None])[0]
        for k in (2, 5, 9):
            xp = x.copy()
            xp[k:] = rand_spect(rng, 10 - k, 33, 1)
            pert = model.forward(xp, [None])[0]
            assert_array_equal(base[:k], pert[:k])
            assert np.abs(base[k:] - pert[k:]).max() > 0

    def test_noncausal_attention_leaks(self, leaky_attention):
        rng = np.random.default_rng(7)
        model = make_model(SMALL, rng.standard_normal(128), seed=1)
        x = rand_spect(rng, 10, 33, 1)
        xp = x.copy()
        xp[5:] = rand_spect(rng, 5, 33, 1)
        with leaky_attention():
            base = model.forward(x, [None])[0]
            pert = model.forward(xp, [None])[0]
        assert np.abs(base[:5] - pert[:5]).max() > 1e-7

    def test_embedding_sensitivity(self):
        # one model per speaker: the same weights built for two embeddings
        rng = np.random.default_rng(8)
        x = rand_spect(rng, 4, 33, 1)
        a = make_model(SMALL, rng.standard_normal(128), seed=2).forward(x, [None])[0]
        b = make_model(SMALL, rng.standard_normal(128), seed=2).forward(x, [None])[0]
        assert np.abs(a - b).max() > 0

    def test_film_identity_matches_unconditioned(self):
        # neutral FiLM weights make the output independent of the embedding
        store = seeded_init(weight_schema(SMALL), 3)
        for b in range(SMALL.blocks):
            store[f"dnn1.block{b}.film.w_gamma"] = np.zeros((SMALL.d, 128), np.float32)
            store[f"dnn1.block{b}.film.b_gamma"] = np.ones(SMALL.d, np.float32)
            store[f"dnn1.block{b}.film.w_beta"] = np.zeros((SMALL.d, 128), np.float32)
            store[f"dnn1.block{b}.film.b_beta"] = np.zeros(SMALL.d, np.float32)
        rng = np.random.default_rng(9)
        x = rand_spect(rng, 5, 33, 1)
        a = MisoGridNet(SMALL, [("dnn1", 0)], store, rng.standard_normal(128)).forward(x, [None])[0]
        b = MisoGridNet(SMALL, [("dnn1", 0)], store, rng.standard_normal(128)).forward(x, [None])[0]
        assert_array_equal(a, b)

    def test_bad_embedding_length(self):
        # checked once, when the model is built for its speaker
        with pytest.raises(ValueError, match=r"shape \(128,\)"):
            make_model(SMALL, np.zeros(64))

    def test_embedding_read_once_at_build(self):
        # the model keeps what FiLM derives from the embedding, not the
        # caller's array: changing that array later changes nothing
        rng = np.random.default_rng(32)
        emb = rng.standard_normal(128).astype(np.float32)
        x = rand_spect(rng, 3, 33, 1)
        model = make_model(SMALL, emb, seed=2)
        before = model.forward(x, [None])[0]
        emb[:] = rng.standard_normal(128)
        assert_array_equal(model.forward(x, [None])[0], before)

    def test_hop_entry_points_take_no_embedding(self):
        params = inspect.signature(MisoGridNet.forward).parameters
        assert list(params) == ["self", "mixture", "extras", "state"]
        assert list(inspect.signature(GridNetStream.step).parameters) == ["self", "frame", "extras"]

    def test_missing_weights(self):
        store = seeded_init(weight_schema(SMALL), 0)
        with pytest.raises(KeyError):
            MisoGridNet(replace(SMALL, blocks=2), [("dnn1", 0)], store, EMB)

    def test_empty_network_list(self):
        # named before any weight is looked up: the store here holds none
        with pytest.raises(ValueError, match="the network list is empty"):
            MisoGridNet(SMALL, [], WeightStore({}), EMB)

    def test_extras_second_stage(self):
        rng = np.random.default_rng(10)
        x, emb, ex = rand_spect(rng, 4, 33, 1), rng.standard_normal(128), rand_spect(rng, 4, 33, 2)
        out = make_model(SMALL, emb, seed=4, prefix="dnn2", extra_inputs=4).forward(x, [ex])[0]
        assert out.shape == (4, 33)


class TestTemporalModule:
    def test_zero_lstm_weights_zero_output(self):
        cfg = GridNetConfig(channels=1, d=8, blocks=1, unfold_kernel=1, hidden=8, heads=2)
        store = seeded_init(weight_schema(cfg), 5)
        for part in ("w", "r", "b"):
            store[f"dnn1.block0.temporal.lstm.{part}"] = np.zeros(
                store[f"dnn1.block0.temporal.lstm.{part}"].shape, np.float32
            )
        model = MisoGridNet(cfg, [("dnn1", 0)], store, EMB)
        x = np.random.default_rng(11).standard_normal((8, 6, 17)).astype(np.float32)
        assert_array_equal(temporal(model, x), 0)

    def test_future_perturbation(self):
        model = make_model(SMALL, seed=6)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 9, 33)).astype(np.float32)
        base = temporal(model, x)
        xp = x.copy()
        xp[:, 6:] = rng.standard_normal((8, 3, 33))
        pert = temporal(model, xp)
        assert_array_equal(base[:, :6], pert[:, :6])

    def test_single_frame_sequence(self):
        model = make_model(SMALL, seed=7)
        x = np.random.default_rng(13).standard_normal((8, 1, 33)).astype(np.float32)
        assert temporal(model, x).shape == (8, 1, 33)


class TestSpectralModule:
    def test_frame_locality(self):
        model = make_model(SMALL, seed=8)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 6, 33)).astype(np.float32)
        base = spectral(model, x)
        xp = x.copy()
        xp[:, 3] = rng.standard_normal((8, 33))
        pert = spectral(model, xp)
        assert_array_equal(base[:, :3], pert[:, :3])
        assert_array_equal(base[:, 4:], pert[:, 4:])
        assert np.abs(base[:, 3] - pert[:, 3]).max() > 0

    def test_zero_weights(self):
        cfg = SMALL
        store = WeightStore({s.name: np.zeros(s.shape, np.float32) for s in weight_schema(cfg)})
        model = MisoGridNet(cfg, [("dnn1", 0)], store, EMB)
        x = np.random.default_rng(15).standard_normal((8, 4, 33)).astype(np.float32)
        assert_array_equal(spectral(model, x), 0)

    def test_frequency_reversal_symmetry(self):
        # reversing the input along frequency, with fwd/bwd LSTMs swapped
        # (window-block-permuted) and deconv taps/halves mirrored, reverses
        # the output along frequency.
        cfg, n_freq = GridNetConfig(channels=1, d=4, blocks=1, unfold_kernel=2, hidden=4, heads=2), 9
        base_store = seeded_init(weight_schema(cfg), 9)
        model = MisoGridNet(cfg, [("dnn1", 0)], base_store, EMB)

        d, h, i_k = cfg.d, cfg.hidden, cfg.unfold_kernel

        def permute_windows(w):
            blocks = [w[:, k * d : (k + 1) * d] for k in range(i_k)]
            return np.concatenate(blocks[::-1], axis=1)

        mirror = WeightStore({name: base_store[name] for name in base_store.keys()})
        pre = "dnn1.block0.spectral"
        for part in ("w", "r", "b"):
            a = base_store[f"{pre}.lstm_fwd.{part}"]
            b = base_store[f"{pre}.lstm_bwd.{part}"]
            if part == "w":
                a, b = permute_windows(a), permute_windows(b)
            mirror[f"{pre}.lstm_fwd.{part}"] = b
            mirror[f"{pre}.lstm_bwd.{part}"] = a
        k_orig = base_store[f"{pre}.deconv.w"]  # [2H, D, I]
        swapped = np.concatenate([k_orig[h:], k_orig[:h]], axis=0)
        mirror[f"{pre}.deconv.w"] = swapped[:, :, ::-1]
        model_m = MisoGridNet(cfg, [("dnn1", 0)], mirror, EMB)

        x = np.random.default_rng(16).standard_normal((d, 3, n_freq)).astype(np.float32)
        out = spectral(model, x)
        out_m = spectral(model_m, x[:, :, ::-1].copy())
        assert_allclose(out_m, out[:, :, ::-1], atol=1e-5)


class TestStreaming:
    def test_matches_offline(self):
        rng = np.random.default_rng(17)
        model = make_model(SMALL, rng.standard_normal(128), seed=10)
        x = rand_spect(rng, 12, 33, 1)
        offline = model.forward(x, [None])[0]
        stream = GridNetStream(model)
        stepped = np.stack([stream.step(x[t]) for t in range(12)])
        assert np.abs(stepped - offline).max() <= 1e-5

    def test_matches_offline_with_extras(self):
        cfg = GridNetConfig(channels=1, d=8, blocks=1, unfold_kernel=3, hidden=8, heads=2)
        rng = np.random.default_rng(18)
        model = make_model(cfg, rng.standard_normal(128), seed=11, prefix="dnn2", extra_inputs=4)
        x = rand_spect(rng, 9, 33, 1)
        ex = rand_spect(rng, 9, 33, 2)
        offline = model.forward(x, [ex])[0]
        stream = GridNetStream(model)
        stepped = np.stack([stream.step(x[t], extras=ex[t]) for t in range(9)])
        assert np.abs(stepped - offline).max() <= 1e-5


@st.composite
def shared_path_cases(draw, leaky=st.booleans()):
    """A small network, its weights and T frames of input, with cut points;
    ``leaky`` runs the case under the unmasked-attention mutant."""
    extra_inputs = draw(st.sampled_from([0, 4]))
    cfg = GridNetConfig(
        channels=1,
        d=4,
        blocks=draw(st.integers(1, 2)),
        unfold_kernel=draw(st.integers(1, 3)),  # 1 carries no history
        hidden=4,
        heads=draw(st.integers(1, 2)),
    )
    n_freq = draw(st.integers(3, 9))
    t_len = draw(st.integers(1, 12))
    cuts = draw(st.lists(st.booleans(), min_size=t_len - 1, max_size=t_len - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extras = rand_spect(rng, t_len, n_freq, 2) if extra_inputs else None
    return {
        "config": cfg,
        "nets": [("dnn1", extra_inputs)],
        "store": seeded_init(weight_schema(cfg, "dnn1", extra_inputs), int(rng.integers(2**32))),
        "x": rand_spect(rng, t_len, n_freq, 1),
        "extras": extras,
        "emb": rng.standard_normal(128),
        "leaky": draw(leaky),
        "bounds": [0] + [t + 1 for t, cut in enumerate(cuts) if cut] + [t_len],
    }


def assert_close_to_peak(out, ref):
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-5 * max(np.abs(ref).max(), 1e-30)


class TestSharedPath:
    """forward, chunked forward with carried state and the stream run one
    code path, so they agree over generated configurations, lengths and
    splits."""

    @settings(max_examples=100)
    @given(case=shared_path_cases(leaky=st.just(False)))
    def test_chunked_run_matches_forward(self, case):
        model = MisoGridNet(case["config"], case["nets"], case["store"], case["emb"])
        x, ex = case["x"], case["extras"]
        state = model.zero_state(x.shape[1])
        chunks = [
            model.forward(x[a:b], [None if ex is None else ex[a:b]], state)[0]
            for a, b in zip(case["bounds"], case["bounds"][1:])
        ]
        assert_close_to_peak(np.concatenate(chunks), model.forward(x, [ex])[0])

    @settings(max_examples=100)
    @given(case=shared_path_cases())
    def test_stream_matches_forward(self, case, leaky_attention):
        # one query frame attends to past keys only whatever the mask, so the
        # stream under unmasked attention equals the causal forward
        model = MisoGridNet(case["config"], case["nets"], case["store"], case["emb"])
        x, ex = case["x"], case["extras"]
        stream = GridNetStream(model)
        with leaky_attention() if case["leaky"] else contextlib.nullcontext():
            stepped = np.stack(
                [stream.step(x[t], None if ex is None else ex[t]) for t in range(len(x))]
            )
        assert_close_to_peak(stepped, model.forward(x, [ex])[0])


class TestBinsFromInput:
    """The input supplies the bin count: one model runs at any count its
    unfold fits, and a state serves the count it was sized for."""

    @settings(max_examples=30)
    @given(
        unfold_kernel=st.integers(1, 3),
        more=st.integers(0, 40),
        t_len=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_bin_count_from_the_unfold_up(self, unfold_kernel, more, t_len, seed):
        cfg = GridNetConfig(channels=1, d=4, blocks=1, unfold_kernel=unfold_kernel, hidden=4, heads=2)
        rng = np.random.default_rng(seed)
        model = make_model(cfg, rng.standard_normal(128), seed=seed)
        bins = unfold_kernel + more
        x = rand_spect(rng, t_len, bins, 1)
        offline = model.forward(x, [None])[0]
        assert offline.shape == (t_len, bins)
        stream = GridNetStream(model)
        assert_close_to_peak(np.stack([stream.step(frame) for frame in x]), offline)
        with pytest.raises(ValueError, match=f"bins must be >= {unfold_kernel}"):
            model.zero_state(unfold_kernel - 1)
        # a state sized for F bins refuses F + 1 before any of it moves
        before = state_arrays(stream.state)
        with pytest.raises(ValueError, match=f"a state of 1 networks over {bins} bins"):
            stream.step(rand_spect(rng, 1, bins + 1, 1)[0])
        after = state_arrays(stream.state)
        assert len(after) == len(before)
        for a, b in zip(after, before):
            assert_array_equal(a, b)

    def test_stream_takes_its_bins_from_the_first_frame(self):
        stream = GridNetStream(make_model(GridNetConfig(channels=1, unfold_kernel=3)))
        with pytest.raises(ValueError, match="bins must be >= 3, got 2"):
            stream.step(np.zeros((2, 1), complex))
        assert stream.state is None
        stream.step(np.zeros((5, 1), complex))
        assert stream.state["deconv_out"].shape[-1] == 5


class TestAttentionCache:
    """The attention cache is one preallocated K and one V array per block,
    grown by doubling; growth must not change what the network computes."""

    CFG = GridNetConfig(channels=1, d=4, blocks=2, unfold_kernel=2, hidden=4, heads=2)
    BINS = 9

    def test_stream_across_growth(self):
        # 70 frames from a 16-row start: the cache doubles three times
        rng = np.random.default_rng(21)
        model = make_model(self.CFG, rng.standard_normal(128), seed=20)
        x = rand_spect(rng, 70, self.BINS, 1)
        stream = GridNetStream(model)
        stepped = np.stack([stream.step(x[t]) for t in range(len(x))])
        assert_close_to_peak(stepped, model.forward(x, [None])[0])
        start = len(model._zero_block(self.BINS)["k"])
        for block in stream.state["blocks"]:
            assert block["frames"] == len(x)
            assert block["k"].dtype == block["v"].dtype == np.float32
            assert len(block["k"]) == len(block["v"]) > start

    def test_chunked_run_across_growth(self):
        # chunk ends 10, 20, 45, 70 each cross the capacity left by the last
        rng = np.random.default_rng(23)
        model = make_model(self.CFG, rng.standard_normal(128), seed=22)
        x = rand_spect(rng, 70, self.BINS, 1)
        state = model.zero_state(self.BINS)
        bounds = [0, 10, 20, 45, 70]
        chunks = [model.forward(x[a:b], [None], state)[0] for a, b in zip(bounds, bounds[1:])]
        assert_close_to_peak(np.concatenate(chunks), model.forward(x, [None])[0])
        assert all(len(block["k"]) == 128 for block in state["blocks"])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_cache_is_private_to_a_forked_child(self):
        cache = gridnet._cache_array(4, 8)
        pid = os.fork()
        if pid == 0:  # the child writes its copy and exits at once
            cache[0, 0] = 42.0
            os._exit(0 if cache[0, 0] == 42.0 else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert cache[0, 0] == 0.0

    def test_offline_fills_cache_in_one_write(self):
        rng = np.random.default_rng(25)
        x = rand_spect(rng, 40, self.BINS, 1)
        model = make_model(self.CFG, rng.standard_normal(128), seed=24)
        state = model.zero_state(self.BINS)
        model.forward(x, [None], state)
        assert all(len(block["k"]) == block["frames"] == 40 for block in state["blocks"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_frame_rejected_before_cache_write(self, bad):
        rng = np.random.default_rng(29)
        model = make_model(self.CFG, rng.standard_normal(128), seed=28)
        state = model.zero_state(self.BINS)
        model.forward(rand_spect(rng, 5, self.BINS, 1), [None], state)
        before = [(b["frames"], b["k"].copy(), b["v"].copy()) for b in state["blocks"]]
        frame = rand_spect(rng, 1, self.BINS, 1)
        frame[0, 3, 0] = bad
        with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
            model.forward(frame, [None], state)
        for block, (frames, k, v) in zip(state["blocks"], before):
            assert block["frames"] == frames == 5
            assert_array_equal(block["k"], k)
            assert_array_equal(block["v"], v)

    def test_nonfinite_projection_rejected_before_cache_write(self):
        # a finite input can still overflow inside the network; attention
        # checks its own projection before it writes a row
        model = make_model(self.CFG, seed=28)
        block = model._zero_block(self.BINS)
        x = np.zeros((self.CFG.d, 1, self.BINS), np.float32)
        x[0, 0, 3] = np.inf
        with pytest.raises(ValueError, match="dnn1.block0.attn: non-finite query"), np.errstate(invalid="ignore"):
            gridnet._attention(x[None], model.blocks[0], block, model.config)
        assert block["frames"] == 0

    @pytest.mark.parametrize("bad", [np.nan, 1e39], ids=["nan", "float32_overflow"])
    def test_rejected_frame_leaves_stream_unchanged(self, bad):
        # 1e39 is finite as float64 but inf once cast to float32
        rng = np.random.default_rng(31)
        model = make_model(self.CFG, rng.standard_normal(128), seed=30)
        x = rand_spect(rng, 6, self.BINS, 1)
        clean, hit = GridNetStream(model), GridNetStream(model)
        expected = [clean.step(x[t]) for t in (0, 1, 3, 4, 5)]
        frame = x[2].copy()
        frame[4, 0] = bad
        got = [hit.step(x[t]) for t in (0, 1)]
        with pytest.raises(ValueError, match="non-finite input"), np.errstate(over="ignore"):
            hit.step(frame)
        got += [hit.step(x[t]) for t in (3, 4, 5)]
        for a, b in zip(got, expected):
            assert_array_equal(a, b)

    def test_per_hop_memory_bounded_as_stream_ages(self):
        # a cache restacked on every hop reads 8.7x here
        cfg = GridNetConfig(channels=1, blocks=1)
        rng = np.random.default_rng(27)
        model = make_model(cfg, rng.standard_normal(128), seed=26)
        x = rand_spect(rng, 250, 33, 1)
        stream = GridNetStream(model)
        peaks = []
        tracemalloc.start()
        try:
            for frame in x:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                stream.step(frame)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert np.median(peaks[240:250]) <= 1.5 * np.median(peaks[20:30])
        start = len(model._zero_block(33)["k"])
        for block in stream.state["blocks"]:
            assert set(block) == {"unfold", "lstm", "deconv", "k", "v", "frames"}
            assert block["frames"] == len(x)
            assert len(block["k"]) == len(block["v"]) <= max(2 * len(x), start)
