"""End-to-end engine: timing contract, equivalences, rescale, integration."""

import copy
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hearstream import gridnet, kernels
from hearstream.dsp import StftConfig, StreamingAnalyzer, causality_check, istft_frames
from hearstream.embedder import EmbedConfig, SpeakerEmbedder
from hearstream.gridnet import EMB_DIM, GridNetConfig, MisoGridNet, infer_config, weight_schema
from hearstream.metrics import si_sdr
from hearstream.pipeline import (
    MAX_ITERATIONS,
    SECOND_STAGE_EXTRAS,
    PipelineConfig,
    RescaleState,
    StreamingEnhancer,
    beamform_frames,
    enhance_offline,
    enhance_signal,
    _checked_audio,
    init_pipeline_weights,
)
from hearstream.scenes import SceneSpec, simulate_scene
from hearstream.weights import WeightStore, seeded_init
from helpers import flat_audiogram, same_store

EMB_SEED = 2  # embedding whose random-weight gain is comfortably live

# settings that pass no engine: each names its field in the error
BAD_SETTINGS = [
    ("alpha", np.nan),
    ("alpha", np.inf),
    ("alpha", -np.inf),
    ("alpha", "0.5"),
    ("alpha", True),
    ("alpha", None),
    ("alpha", 1.0),
    ("loading", np.nan),
    ("loading", np.inf),
    ("loading", -np.inf),
    ("loading", "1e-4"),
    ("loading", False),
    ("loading", -1e-6),
    ("iterations", 1.5),
    ("iterations", 2.0),
    ("iterations", np.nan),
    ("iterations", np.inf),
    ("iterations", True),
    ("iterations", "2"),
    ("iterations", 0),
    ("iterations", MAX_ITERATIONS + 1),
]


def no_state(model, bins):
    """Stands in for ``MisoGridNet.zero_state`` where building state is a fault."""
    raise AssertionError("network state built for a bad input")


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig()


@pytest.fixture(scope="module")
def store(cfg):
    return init_pipeline_weights(cfg, seed=0)


@pytest.fixture(scope="module")
def emb():
    return np.random.default_rng(EMB_SEED).standard_normal(128).astype(np.float32)


@pytest.fixture(scope="module")
def scene():
    return simulate_scene(SceneSpec(seed=0, channels=2, duration_s=0.2))


@pytest.fixture(scope="module")
def streamed(cfg, store, emb, scene):
    return StreamingEnhancer(cfg, store, emb).process(scene.mixture)


@pytest.fixture(scope="module")
def offlined(cfg, store, emb, scene):
    return enhance_offline(scene.mixture, cfg, store, emb)


class TestConfig:
    def test_defaults(self, cfg, store, emb):
        assert cfg.iterations == 1
        cascade = StreamingEnhancer(cfg, store, emb).cascade
        assert cascade.nets == [("dnn1", 0), ("dnn2", SECOND_STAGE_EXTRAS)]
        assert SECOND_STAGE_EXTRAS == 4
        assert cascade.model == cfg.model  # one architecture, so one channel count

    def test_rejections(self, store, emb):
        with pytest.raises(ValueError):
            PipelineConfig(iterations=0)
        with pytest.raises(TypeError):  # the bins come from the STFT, not the model
            PipelineConfig(model=GridNetConfig(n_freq=129))
        # the Wiener filter's range rule lives in CovarianceState, which
        # every engine builds
        with pytest.raises(ValueError, match="forgetting factor"):
            StreamingEnhancer(PipelineConfig(alpha=1.0), store, emb)
        with pytest.raises(ValueError, match="diagonal loading"):
            StreamingEnhancer(PipelineConfig(loading=-1e-6), store, emb)

    @pytest.mark.parametrize("field, value", BAD_SETTINGS, ids=repr)
    def test_bad_setting_rejected_at_build(self, store, emb, field, value):
        # a NaN loading would fail mid-hop and an infinite one would emit
        # silence, so every bad value must fail before any network state
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("error")
            patch.setattr(MisoGridNet, "zero_state", no_state)
            with pytest.raises(ValueError, match=field):
                StreamingEnhancer(PipelineConfig(**{field: value}), store, emb)
            with pytest.raises(ValueError, match=field):
                enhance_offline(np.zeros((256, 2)), PipelineConfig(**{field: value}), store, emb)

    @settings(max_examples=100)
    @given(
        value=st.one_of(
            st.integers(-3, 4),
            st.floats(allow_nan=True, allow_infinity=True),
            st.booleans(),
            st.text(max_size=2),
            st.none(),
        )
    )
    def test_iterations_must_be_a_positive_int(self, value):
        if type(value) is int and value >= 1:
            assert PipelineConfig(iterations=value).iterations == value
        else:
            with pytest.raises(ValueError, match="iterations"):
                PipelineConfig(iterations=value)


class TestWeights:
    def test_store_holds_all_three_components(self, store):
        assert "dnn1.conv_in.w" in store
        assert "dnn2.conv_in.w" in store
        assert "spk.enc.conv0.w" in store
        # second stage sees mixture RI plus 4 extra feature planes
        assert store["dnn2.conv_in.w"].shape[1] == 2 * 2 + 4

    def test_deterministic(self, cfg, store):
        assert same_store(init_pipeline_weights(cfg, seed=0), store)
        assert not same_store(init_pipeline_weights(cfg, seed=1), store)

    def test_store_for_another_stft_builds_its_embedder(self):
        cfg = PipelineConfig(model=GridNetConfig.toy(), stft=SMALL_STFT)
        store = init_pipeline_weights(cfg, seed=0)
        embedder = SpeakerEmbedder(EmbedConfig(n_freq=SMALL_STFT.bins), store)
        spect = StreamingAnalyzer(SMALL_STFT).analyze(np.ones(160))
        assert embedder.embed(spect).shape == (EMB_DIM,)

    def test_infer_config_roundtrip(self, cfg, store):
        assert infer_config(store) == cfg.model
        with pytest.raises(ValueError):
            infer_config(WeightStore({n: store[n] for n in store.keys() if not n.startswith("dnn1.")}))

    @pytest.mark.parametrize(
        "part, missing",
        [
            ("dnn1.block0.", "dnn1.block0.film.w_gamma"),
            ("dnn1.block0.attn.head0.", "dnn1.block0.attn.head0.q.w"),
            ("dnn1.block0.temporal.deconv.w", "dnn1.block0.temporal.deconv.w"),
        ],
    )
    def test_infer_config_names_a_missing_part(self, store, part, missing):
        # each once raised a bare KeyError, which the CLI printed as the key alone
        partial = WeightStore({n: store[n] for n in store.keys() if not n.startswith(part)})
        with pytest.raises(ValueError, match=f"'dnn1' model \\(missing {re.escape(missing)}\\)"):
            infer_config(partial)


class TestRescale:
    def test_identical_frames_give_unit_gain(self):
        state = RescaleState()
        bf = np.array([1 + 1j, 2.0, 0.5j])
        out = state.update(bf, bf) * bf
        assert state.gain == 1.0
        assert np.array_equal(out, bf)

    def test_double_estimate_halves(self):
        state = RescaleState()
        bf = np.array([1.0 + 0j, 2.0 + 0j])
        out = state.update(bf, 2.0 * bf) * (2.0 * bf)
        assert state.gain == 0.5
        assert np.array_equal(out, bf)

    def test_zero_estimate_floor(self):
        state = RescaleState()
        out = state.update(np.zeros(4, complex), np.zeros(4, complex)) * np.zeros(4, complex)
        assert state.gain == 0.0
        assert np.array_equal(out, np.zeros(4, complex))

    def test_anticorrelated_clamps_to_zero(self):
        state = RescaleState()
        bf = np.array([1.0 + 0j, -3.0 + 0j])
        out = state.update(bf, -bf) * -bf
        assert state.gain == 0.0
        assert np.array_equal(out, np.zeros(2, complex))

    def test_denominator_monotone(self):
        state = RescaleState()
        rng = np.random.default_rng(0)
        last = 0.0
        for _ in range(20):
            est = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            state.update(rng.standard_normal(8) + 0j, est)
            assert state.den >= last
            last = state.den

    def test_rejections(self):
        with pytest.raises(ValueError):
            RescaleState().update(np.zeros(3, complex), np.zeros(4, complex))


class TestBeamformFrames:
    def test_matches_manual_recursion(self):
        from hearstream.beamform import CovarianceState

        rng = np.random.default_rng(3)
        frames = rng.standard_normal((12, 9, 2)) + 1j * rng.standard_normal((12, 9, 2))
        est = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
        z = beamform_frames(frames, est, alpha=0.6, loading=1e-3)
        cov = CovarianceState(9, 2, alpha=0.6, loading=1e-3)
        manual = np.stack([cov.step(frames[k], est[k]) for k in range(12)])
        assert np.array_equal(z, manual)

    def test_shape_rejection(self):
        with pytest.raises(ValueError):
            beamform_frames(np.zeros((4, 9, 2), complex), np.zeros((4, 8), complex))


class TestEngine:
    def test_zero_input_zero_output(self, cfg, store, emb):
        x = np.zeros((3200, 2))
        assert np.array_equal(enhance_signal(x, cfg, store, emb), np.zeros(3200))
        assert np.array_equal(enhance_offline(x, cfg, store, emb), np.zeros(3200))

    def test_output_is_mono_same_length(self, streamed, scene):
        assert streamed.shape == (scene.mixture.shape[0],)
        assert np.all(np.isfinite(streamed))
        assert float(np.sqrt(np.mean(streamed**2))) > 1e-4  # live probe

    def test_padding_to_hop_multiple(self, cfg, store, emb):
        x = np.random.default_rng(4).standard_normal((1000, 2)) * 0.1
        y = enhance_signal(x, cfg, store, emb)
        assert y.shape == (1000,)

    def test_block_size_invariance_bit_exact(self, cfg, store, emb, scene, streamed):
        engine = StreamingEnhancer(cfg, store, emb)
        x = scene.mixture
        cuts = [0, 7, 308, 436, 1436, 5000, x.shape[0]]
        parts = [engine.process(x[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), streamed)

    def test_offline_matches_stream(self, streamed, offlined):
        scale = float(np.sqrt(np.mean(offlined**2)))
        assert np.max(np.abs(streamed - offlined)) <= 1e-4 * scale

    def test_offline_independent_of_the_scratch_budget(self, cfg, store, emb, scene, offlined):
        # a budget of one element: every LSTM runs one step per chunk, every
        # attention call one query row, every layer norm two frames, so each
        # call over this scene's frames splits
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_PATCH_BUDGET", 1)
            split = enhance_offline(scene.mixture, cfg, store, emb)
        assert np.max(np.abs(split - offlined)) <= 1e-5 * np.max(np.abs(offlined))

    def test_deterministic(self, cfg, store, emb, scene, streamed):
        again = StreamingEnhancer(cfg, store, emb).process(scene.mixture)
        assert np.array_equal(again, streamed)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_bad_embedding_rejected_before_any_state(self, cfg, store, data):
        # a NaN or Inf at any index, a wrong length or a wrong rank
        if data.draw(st.booleans(), label="nonfinite"):
            emb = np.random.default_rng(data.draw(st.integers(0, 99))).standard_normal(128)
            emb[data.draw(st.integers(0, 127))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        else:
            shape = data.draw(
                st.one_of(
                    st.tuples(st.integers(0, 300).filter(lambda n: n != 128)),
                    st.sampled_from([(), (1, 128), (128, 1)]),
                ),
                label="shape",
            )
            emb = np.ones(shape, np.float32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MisoGridNet, "zero_state", no_state)
            with pytest.raises(ValueError, match="embedding"):
                MisoGridNet(cfg.model, [("dnn1", 0)], store, emb)
            with pytest.raises(ValueError, match="embedding"):
                StreamingEnhancer(cfg, store, emb)
            with pytest.raises(ValueError, match="embedding"):
                enhance_offline(np.zeros((256, 2)), cfg, store, emb)

    def test_hops_project_no_embedding(self, cfg, store, emb, scene, streamed):
        # FiLM's scale and shift are fixed when the engine is built, so a hop
        # never runs the embedding through a linear projection again
        engine = StreamingEnhancer(cfg, store, emb)

        def refuse(*args, **kwargs):
            raise AssertionError("linear projection during a hop")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "linear", refuse)
            patch.setattr(gridnet, "linear", refuse)
            out = engine.process(scene.mixture)
        assert np.array_equal(out, streamed)

    def test_embedding_validation(self, cfg, store):
        with pytest.raises(ValueError):
            StreamingEnhancer(cfg, store, np.zeros(64, np.float32))
        bad = np.zeros(128, np.float32)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            StreamingEnhancer(cfg, store, bad)

    def test_channel_mismatch(self, cfg, store, emb):
        with pytest.raises(ValueError):
            enhance_signal(np.zeros((256, 3)), cfg, store, emb)
        engine = StreamingEnhancer(cfg, store, emb)
        with pytest.raises(ValueError):
            engine.process(np.zeros((128, 3)))

    def test_empty_signal(self, cfg, store, emb):
        with pytest.raises(ValueError):
            enhance_signal(np.zeros((0, 2)), cfg, store, emb)

    def test_missing_second_stage_weights(self, cfg, emb):
        only_first = seeded_init(weight_schema(cfg.model, "dnn1"), seed=0)
        with pytest.raises(KeyError):
            StreamingEnhancer(cfg, only_first, emb)

    def test_nonfinite_block_rejected_without_state_change(
        self, cfg, store, emb, scene, streamed
    ):
        x = scene.mixture
        cuts = [0, 1000, 2500, 4000, x.shape[0]]
        blocks = [x[a:b] for a, b in zip(cuts, cuts[1:])]
        engine = StreamingEnhancer(cfg, store, emb)
        parts = [engine.process(b) for b in blocks[:2]]
        for bad in (np.nan, np.inf):
            poisoned = blocks[2].copy()
            poisoned[700, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                engine.process(poisoned)
        parts += [engine.process(b) for b in blocks[2:]]
        assert np.array_equal(np.concatenate(parts), streamed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_signal_rejected(self, cfg, store, emb, bad):
        x = np.zeros((300, 2))
        x[200, 0] = bad
        for enhance in (enhance_signal, enhance_offline):
            with pytest.raises(ValueError, match="non-finite"):
                enhance(x, cfg, store, emb)

    def test_complex_block_rejected_without_state_change(self, cfg, store, emb, scene, streamed):
        # a float64 cast once dropped the imaginary part with only a
        # ComplexWarning, so the engine ran on half its input
        x = scene.mixture
        engine = StreamingEnhancer(cfg, store, emb)
        parts = [engine.process(x[:2500])]
        with pytest.raises(ValueError, match="complex"):
            engine.process(x[2500:4000] + 0j)
        parts.append(engine.process(x[2500:]))
        assert np.array_equal(np.concatenate(parts), streamed)

    @pytest.mark.parametrize("enhance", [enhance_signal, enhance_offline])
    def test_complex_signal_rejected(self, cfg, store, emb, enhance):
        x = np.zeros((300, 2), complex)
        x[200, 0] = 1j
        with pytest.raises(ValueError, match="complex"):
            enhance(x, cfg, store, emb)

    @pytest.mark.parametrize("big", [1e300, 1e37], ids=["float64_scale", "float32_scale"])
    def test_out_of_range_block_is_a_no_op(self, cfg, store, emb, scene, big):
        hop = cfg.stft.hop
        x = scene.mixture[: 6 * hop]
        engine = StreamingEnhancer(cfg, store, emb)
        got = [engine.process(x[:hop])]
        with pytest.raises(ValueError, match="beyond"):
            engine.process(np.full((hop, 2), big))
        got += [engine.process(x[k * hop : (k + 1) * hop]) for k in range(1, 6)]
        assert np.array_equal(np.concatenate(got), StreamingEnhancer(cfg, store, emb).process(x))

    def test_sample_bound(self, cfg, store, emb):
        limit = float(np.finfo(np.float32).max) / cfg.stft.win  # about 6.6e35
        block = np.zeros((cfg.stft.hop, 2))
        block[5, 1] = -limit
        assert np.array_equal(_checked_audio(block, cfg), block)
        block[5, 1] = -np.nextafter(limit, np.inf)
        with pytest.raises(ValueError, match="beyond"):
            _checked_audio(block, cfg)
        for enhance in (enhance_signal, enhance_offline):
            with pytest.raises(ValueError, match="beyond"):
                enhance(block, cfg, store, emb)

    def test_collected_mcwf_is_the_filter_over_est1(self, cfg, store, emb, scene):
        _, taps = enhance_offline(scene.mixture, cfg, store, emb, collect=True)
        z = beamform_frames(taps["frames"], taps["est1"], alpha=cfg.alpha, loading=cfg.loading)
        assert np.array_equal(taps["mcwf"], z)


class TestLatencyContract:
    def test_streaming_path_within_budget(self, cfg, store, emb, scene, streamed):
        def run(x):
            return StreamingEnhancer(cfg, store, emb).process(x)

        report = causality_check(
            run, scene.mixture, n=4000, budget_samples=128, baseline=streamed
        )
        assert report.passed
        # dependence is real and hop-quantized, not vacuous; the window's
        # near-zero leading samples can hide the first few diff positions
        assert (4000 // 128) * 128 < report.first_diff_index <= (4000 // 128) * 128 + 16

    def test_offline_path_within_budget(self, cfg, store, emb, scene, offlined):
        def run(x):
            return enhance_offline(x, cfg, store, emb)

        for n in (3000, 4001, 5247):
            report = causality_check(
                run, scene.mixture, n=n, budget_samples=128, baseline=offlined
            )
            assert report.passed
            assert (n // 128) * 128 < report.first_diff_index <= (n // 128) * 128 + 16

    def test_budget_zero_fails(self, cfg, store, emb, scene, offlined):
        def run(x):
            return enhance_offline(x, cfg, store, emb)

        report = causality_check(
            run, scene.mixture, n=4000, budget_samples=0, baseline=offlined
        )
        assert not report.passed

    def test_noncausal_attention_mutant_fails(self, cfg, store, emb, scene, leaky_attention):
        def run(x):
            return enhance_offline(x, cfg, store, emb)

        with leaky_attention():
            report = causality_check(
                run, scene.mixture, n=4000, budget_samples=128, baseline=run(scene.mixture)
            )
        assert not report.passed
        assert report.first_diff_index < 4000 - 128


class TestOracleBeamforming:
    def test_oracle_estimate_yields_large_gain(self):
        stft = StftConfig()
        sc = simulate_scene(SceneSpec(seed=7, channels=2, duration_s=1.0, snr_db=0.0))
        frames = StreamingAnalyzer(stft, 2).analyze(sc.mixture)
        oracle = StreamingAnalyzer(stft, 1).analyze(sc.target_ref)[:, :, 0]
        z = istft_frames(beamform_frames(frames, oracle), stft)[stft.warmup :]
        burn = 16000
        ref = sc.target_ref[: len(z)]
        mix = sc.mixture[: len(z), 0]
        gain = si_sdr(z[burn:], ref[burn:]) - si_sdr(mix[burn:], ref[burn:])
        assert gain >= 5.0


@pytest.fixture(scope="module")
def small_scene():
    return simulate_scene(SceneSpec(seed=5, channels=2, duration_s=0.12))


class TestIterations:

    def test_second_pass_changes_output(self, cfg, store, emb, small_scene):
        one = enhance_offline(small_scene.mixture, cfg, store, emb)
        two_cfg = replace(cfg, iterations=2)
        two = enhance_offline(small_scene.mixture, two_cfg, store, emb)
        assert one.shape == two.shape
        assert not np.array_equal(one, two)

    def test_second_pass_stream_parity_and_budget(self, cfg, store, emb, small_scene):
        two_cfg = replace(cfg, iterations=2)
        x = small_scene.mixture
        streamed = StreamingEnhancer(two_cfg, store, emb).process(x)
        offline = enhance_offline(x, two_cfg, store, emb)
        scale = max(float(np.sqrt(np.mean(offline**2))), 1e-9)
        assert np.max(np.abs(streamed - offline)) <= 1e-4 * scale

        def run(sig):
            return enhance_offline(sig, two_cfg, store, emb)

        report = causality_check(run, x, n=2000, budget_samples=128, baseline=offline)
        assert report.passed

    def test_two_full_pairs_stream_parity(self, cfg, store, emb, small_scene):
        # three passes: a stream hop runs dnn1 with the first dnn2 pass, then
        # the other two passes, as two stacks of two
        three_cfg = replace(cfg, iterations=3)
        x = small_scene.mixture
        engine = StreamingEnhancer(three_cfg, store, emb)
        assert [list(members) for _, members, _ in engine.cascade.stacks] == [[0, 1], [2, 3]]
        streamed = engine.process(x)
        offline = enhance_offline(x, three_cfg, store, emb)
        assert np.max(np.abs(streamed - offline)) <= 1e-5 * np.max(np.abs(offline))

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_offline_frees_each_network_state(self, cfg, store, emb, small_scene, iterations):
        # a marker in every zero state dies with that state; none may be
        # alive when a network's forward starts, so the run never holds an
        # earlier network's state (its attention cache included)
        class Marker:
            pass

        markers, started = [], []
        zero_state, forward = MisoGridNet.zero_state, MisoGridNet.forward

        def marked_zero_state(model, bins):
            state = zero_state(model, bins)
            state["marker"] = marker = Marker()
            markers.append((model.prefix, weakref.ref(marker)))
            return state

        def checked_forward(model, *args, **kwargs):
            alive = [prefix for prefix, ref in markers if ref() is not None]
            assert alive == [], f"{model.prefix} starts with {alive} state alive"
            started.append(model.prefix)
            return forward(model, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MisoGridNet, "zero_state", marked_zero_state)
            patch.setattr(MisoGridNet, "forward", checked_forward)
            enhance_offline(small_scene.mixture, replace(cfg, iterations=iterations), store, emb)
        assert started == ["dnn1"] + ["dnn2"] * iterations


class TestFittingIntegration:
    def make_fitting(self):
        from hearstream.fitting import ListenerFitting

        return ListenerFitting(flat_audiogram(40.0))

    @pytest.mark.parametrize(
        "stft", [StftConfig(win=256, hop=64), StftConfig(hop=64)], ids=["fft_size", "hop"]
    )
    def test_fitting_for_another_stft_rejected(self, cfg, store, emb, stft):
        from hearstream.fitting import ListenerFitting

        fitting = ListenerFitting(flat_audiogram(40.0), stft=stft)
        with pytest.raises(ValueError, match="fitting was built for"):
            StreamingEnhancer(cfg, store, emb, fitting=fitting)
        with pytest.raises(ValueError, match="fitting was built for"):
            enhance_offline(np.zeros((256, 2)), cfg, store, emb, fitting=fitting)

    def test_stream_offline_parity_with_fitting(self, cfg, store, emb, scene):
        x = scene.mixture
        streamed = StreamingEnhancer(cfg, store, emb, fitting=self.make_fitting()).process(x)
        offline = enhance_offline(x, cfg, store, emb, fitting=self.make_fitting())
        assert streamed.shape == offline.shape == (x.shape[0],)
        scale = max(float(np.sqrt(np.mean(offline**2))), 1e-9)
        assert np.max(np.abs(streamed - offline)) <= 1e-4 * scale

    def test_fitting_changes_output_not_timing(self, cfg, store, emb, scene, offlined):
        fitted = enhance_offline(
            scene.mixture, cfg, store, emb, fitting=self.make_fitting()
        )
        assert fitted.shape == offlined.shape
        assert not np.array_equal(fitted, offlined)

    def test_budget_holds_with_fitting(self, cfg, store, emb, scene):
        def run(x):
            return enhance_offline(x, cfg, store, emb, fitting=self.make_fitting())

        report = causality_check(
            run, scene.mixture, n=4000, budget_samples=128, baseline=run(scene.mixture)
        )
        assert report.passed


SMALL_STFT = StftConfig(win=64, hop=16)


@settings(max_examples=20)
@given(
    channels=st.integers(1, 3),
    iterations=st.integers(1, 3),
    n=st.integers(1, 400),
    cuts=st.lists(st.integers(0, 400), max_size=6),
    seed=st.integers(0, 2**16),
)
def test_block_partition_bit_exact(channels, iterations, n, cuts, seed):
    cfg = PipelineConfig(
        model=GridNetConfig.toy(channels=channels),
        stft=SMALL_STFT,
        iterations=iterations,
    )
    specs = weight_schema(cfg.model, "dnn1") + weight_schema(cfg.model, "dnn2", SECOND_STAGE_EXTRAS)
    store = seeded_init(specs, seed)
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal(EMB_DIM).astype(np.float32)
    x = 0.1 * rng.standard_normal((n, channels))
    whole = StreamingEnhancer(cfg, store, emb)
    expected = whole.process(x)
    blocked = StreamingEnhancer(cfg, store, emb)
    bounds = [0, *sorted(min(c, n) for c in cuts), n]
    parts = [blocked.process(x[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), expected)
    # the carried state agrees too, which a muted output (gain 0) would hide
    for a, b in zip(whole.cascade.ledgers, blocked.cascade.ledgers):
        assert np.array_equal(a, b)
    assert (whole.cascade.rescale.num, whole.cascade.rescale.den) == (
        blocked.cascade.rescale.num,
        blocked.cascade.rescale.den,
    )


def same_state(a, b) -> bool:
    """Carried states equal bit for bit: dicts, lists and tuples entry by entry."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_state(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)  # arrays and frame counts


def network_state(state: dict, k: int, n_net: int) -> dict:
    """Network k's slice of a stack's state, as copies laid out as a lone
    network's: histories, LSTM (h, c), the cache rows' part of its heads
    (every row, so the capacity too) and the frame count."""

    def cut(a):
        return a[k : k + 1].copy()

    def heads(cache):
        return cache.reshape(len(cache), n_net, -1)[:, k].copy()

    blocks = [
        {
            "unfold": cut(b["unfold"]),
            "lstm": tuple(cut(a) for a in b["lstm"]),
            "deconv": cut(b["deconv"]),
            "k": heads(b["k"]),
            "v": heads(b["v"]),
            "frames": b["frames"],
        }
        for b in state["blocks"]
    ]
    conv_in = [state["conv_in"][k].copy()]
    return {"conv_in": conv_in, "blocks": blocks, "deconv_out": cut(state["deconv_out"])}


@settings(max_examples=20)
@given(
    channels=st.integers(1, 2),
    iterations=st.integers(1, 3),
    hops=st.integers(0, 20),
    t_len=st.integers(1, SMALL_STFT.lookahead),
    seed=st.integers(0, 2**16),
)
# the cache starts at 16 rows and priming fills 3: these runs cross the doubling
@example(channels=1, iterations=1, hops=13, t_len=1, seed=1)
@example(channels=2, iterations=3, hops=12, t_len=3, seed=2)
def test_lockstep_forward_equals_networks_one_at_a_time(channels, iterations, hops, t_len, seed):
    # the stacks a stream hop runs, each over random frames from the state a
    # random number of hops left, against its networks' own forwards from
    # their slices of that state: estimates and every network's slice of
    # the state the stack leaves, bit for bit
    cfg = PipelineConfig(
        model=GridNetConfig.toy(channels=channels),
        stft=SMALL_STFT,
        iterations=iterations,
    )
    specs = weight_schema(cfg.model, "dnn1") + weight_schema(cfg.model, "dnn2", SECOND_STAGE_EXTRAS)
    store = seeded_init(specs, seed)
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal(EMB_DIM).astype(np.float32)
    engine = StreamingEnhancer(cfg, store, emb)
    engine.process(0.1 * rng.standard_normal((hops * SMALL_STFT.hop, channels)))
    cascade = engine.cascade

    def spect(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    frames = spect(t_len, SMALL_STFT.bins, channels)
    for model, members, state in cascade.stacks:
        n_net = len(members)
        assert n_net == min(2, len(cascade.nets) - members[0])
        assert all(b["frames"] == SMALL_STFT.lookahead + hops for b in state["blocks"])
        extras = [spect(t_len, SMALL_STFT.bins, 2) if i else None for i in members]
        alone = [network_state(state, k, n_net) for k in range(n_net)]
        stacked = model.forward(frames, extras, state)
        assert stacked.shape == (n_net, t_len, SMALL_STFT.bins)
        for k, i in enumerate(members):
            network = MisoGridNet(cascade.model, [cascade.nets[i]], store, emb)
            alone_out = network.forward(frames, [extras[k]], alone[k])
            assert np.array_equal(stacked[k], alone_out[0])
            assert same_state(network_state(state, k, n_net), alone[k])


def test_stack_rejects_another_models_state(cfg, store, emb):
    # a stack owns one state for all its networks; a lone network's state
    # is refused before any of it moves
    cascade = StreamingEnhancer(cfg, store, emb).cascade
    (pair, _, _), lone = cascade.stacks[0], MisoGridNet(cfg.model, cascade.nets[:1], store, emb)
    frames = np.zeros((1, cfg.stft.bins, cfg.model.channels), complex)
    extras = [None, np.zeros((1, cfg.stft.bins, 2), complex)]
    state = lone.zero_state(cfg.stft.bins)
    before = copy.deepcopy(state)
    with pytest.raises(ValueError, match=r"dnn1\+dnn2: a state of 1 networks"):
        pair.forward(frames, extras, state)
    assert same_state(state, before)


def test_stream_cascade_rejects_a_longer_run(cfg, store, emb):
    # a stream carries one state per lockstep stack; a run of more than
    # lookahead frames runs the networks themselves, which only the offline
    # form does
    engine = StreamingEnhancer(cfg, store, emb)
    frames = np.zeros((cfg.stft.lookahead + 1, cfg.stft.bins, cfg.model.channels), complex)
    with pytest.raises(ValueError, match="a run of 4 frames cannot continue the lockstep state"):
        engine.cascade.run(frames)


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_each_cascade_builds_only_the_stacks_it_runs(cfg, store, emb, small_scene, iterations):
    # the offline form builds each of its networks as a stack of one; a
    # stream builds its ceil(n / 2) lockstep stacks and no other network,
    # and one state for each stack, once, however many hops it runs
    config = replace(cfg, iterations=iterations)
    init, zero_state = MisoGridNet.__init__, MisoGridNet.zero_state
    sizes, states = [], []

    def counted_init(model, config, nets, *args):
        sizes.append(len(nets))
        init(model, config, nets, *args)

    def counted_zero_state(model, bins):
        states.append(model)
        return zero_state(model, bins)

    x = small_scene.mixture
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MisoGridNet, "__init__", counted_init)
        patch.setattr(MisoGridNet, "zero_state", counted_zero_state)
        enhance_offline(x, config, store, emb)
        assert sizes == [1] * (1 + iterations)
        assert [model.prefix for model in states] == ["dnn1"] + ["dnn2"] * iterations
        sizes.clear()
        states.clear()
        engine = StreamingEnhancer(config, store, emb)
        engine.process(x)
    stacks = [model for model, _, _ in engine.cascade.stacks]
    assert len(sizes) == len(stacks) == -(-(1 + iterations) // 2)
    assert sum(sizes) == 1 + iterations and max(sizes) <= 2
    assert sizes == [len(model.planes) for model in stacks]  # every build is a stack it runs
    assert states == stacks  # each stack's state, built once


def test_offline_builds_every_network_before_the_first_runs(cfg, store, emb, small_scene):
    # a store missing a second-stage tensor fails before dnn1 spends a
    # whole-utterance forward
    broken = WeightStore({n: store[n] for n in store.keys() if n != "dnn2.deconv_out.b"})
    forward, forwards = MisoGridNet.forward, []

    def counted_forward(model, *args, **kwargs):
        forwards.append(model.prefix)
        return forward(model, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MisoGridNet, "forward", counted_forward)
        with pytest.raises(KeyError, match="dnn2.deconv_out.b"):
            enhance_offline(small_scene.mixture, cfg, broken, emb)
    assert forwards == []


@settings(max_examples=20)
@given(
    win=st.sampled_from([32, 64, 128]),
    ratio=st.sampled_from([2, 4, 8]),
    hops=st.integers(4, 24),
    tail=st.floats(0, 1, exclude_max=True),
    cuts=st.lists(st.floats(0, 1), max_size=4),
    perturb=st.floats(0, 1, exclude_max=True),
    seed=st.integers(0, 2**16),
)
def test_derived_horizon_holds_for_every_geometry(win, ratio, hops, tail, cuts, perturb, seed):
    # lookahead = win // hop - 1 must put every predicted frame on its own
    # output position, whatever the window and the hop
    stft = StftConfig(win=win, hop=win // ratio)
    cfg = PipelineConfig(model=GridNetConfig.toy(), stft=stft, iterations=2)
    specs = weight_schema(cfg.model, "dnn1") + weight_schema(cfg.model, "dnn2", SECOND_STAGE_EXTRAS)
    store = seeded_init(specs, seed)
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal(EMB_DIM).astype(np.float32)
    n = hops * stft.hop + int(tail * stft.hop)
    x = 0.1 * rng.standard_normal((n, cfg.model.channels))
    offline = enhance_offline(x, cfg, store, emb)
    engine = StreamingEnhancer(cfg, store, emb)
    bounds = [0, *sorted(int(c * n) for c in cuts), n]
    streamed = np.concatenate([engine.process(x[a:b]) for a, b in zip(bounds, bounds[1:])])
    assert len(streamed) == hops * stft.hop
    peak = max(float(np.abs(offline).max()), 1e-30)
    assert np.abs(streamed - offline[: len(streamed)]).max() <= 1e-5 * peak

    def run(v):
        return enhance_offline(v, cfg, store, emb)

    report = causality_check(
        run, x, n=1 + int(perturb * n), budget_samples=stft.hop, baseline=offline
    )
    assert report.passed, str(report)


class TestWeightStoreRoundtrip:
    def test_pipeline_store_survives_disk(self, cfg, store, tmp_path):
        path = str(tmp_path / "w.inxw")
        store.save(path)
        assert same_store(WeightStore.load(path), store)
