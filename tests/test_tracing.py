"""The engine keeps the entry points the benchmark's outside-in tracer patches.

``perfbench/tracing.py`` wraps public methods and the GridNet kernels in the
``hearstream.gridnet`` namespace from outside ``src/``; a refactor that
renames, nests or bypasses them silently changes the per-layer figures.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from hearstream import beamform, dsp, embedder, fitting, gridnet, pipeline, weights
from hearstream.pipeline import (
    PipelineConfig,
    StreamingEnhancer,
    enhance_offline,
    init_pipeline_weights,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (beamform, dsp, embedder, fitting, gridnet, pipeline, weights)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attribute_snapshot() -> dict:
    """Every attribute of the traced modules and of the classes they define."""
    owners = list(MODULES)
    for module in MODULES:
        owners += [
            obj
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


@pytest.fixture(scope="module")
def traced_runs():
    cfg = PipelineConfig()
    store = init_pipeline_weights(cfg, seed=0)
    emb = np.random.default_rng(0).standard_normal(128).astype(np.float32)
    x = np.random.default_rng(1).standard_normal((4 * cfg.stft.hop, cfg.model.channels))
    before = attribute_snapshot()
    tracer = load_tracing().Tracer()
    tracer.note_store(store)
    with tracer.installed():
        patched = gridnet.GridNetStream.step is not before[(gridnet.GridNetStream, "step")]
        engine = StreamingEnhancer(cfg, store, emb)
        for k in range(4):
            engine.process(x[k * cfg.stft.hop : (k + 1) * cfg.stft.hop])
        split = len(tracer.spans)
        enhance_offline(x, cfg, store, emb)
    return {
        "spans": tracer.spans,
        "stream": tracer.spans[:split],
        "offline": tracer.spans[split:],
        "patched": patched,
        "before": before,
        "after": attribute_snapshot(),
    }


class TestTracerContract:
    @pytest.mark.parametrize("run", ["stream", "offline"])
    def test_both_networks_traced(self, traced_runs, run):
        # a stream hop runs both networks in one stacked forward, whose
        # prefix joins theirs; the offline run forwards them one at a time
        names = {s[0] for s in traced_runs[run]}
        spans = {"stream": {"gridnet.dnn1+dnn2"}, "offline": {"gridnet.dnn1", "gridnet.dnn2"}}
        assert spans[run] <= names
        # the LSTM is told apart by the identity of the store's weight array
        assert {"kernels.lstm_temporal", "kernels.lstm_spectral"} <= names

    def test_no_network_span_nests_in_itself(self, traced_runs):
        spans = traced_runs["spans"]
        nested = [
            s[0]
            for s in spans
            if s[0].startswith("gridnet.") and s[3] >= 0 and spans[s[3]][0] == s[0]
        ]
        assert nested == []

    def test_restore_leaves_attributes_as_they_were(self, traced_runs):
        assert traced_runs["patched"]
        before, after = traced_runs["before"], traced_runs["after"]
        assert before.keys() == after.keys()
        changed = [key for key, value in before.items() if after[key] is not value]
        assert changed == []


def test_run_phase_stream_hop_counts():
    # one toy hop runs dnn1 and one dnn2 pass as one stack of both. Per block
    # each network makes one temporal LSTM step, and the stack one spectral
    # step per unfold window for all their directions together. Each network
    # calls conv-in, the output deconv, and per block the temporal LSTM; the
    # stack calls the input layer norm, and per block FiLM, two layer norms,
    # the spectral LSTM, the spectral deconv and attention
    cfg = PipelineConfig()
    model = cfg.model
    nets = 1 + cfg.iterations
    steps = model.blocks * (nets + cfg.stft.bins - model.unfold_kernel + 1)
    calls = 2 * nets + 1 + model.blocks * (nets + 6)
    assert (steps, calls) == (516, 21)
    store = init_pipeline_weights(cfg, seed=0)
    emb = np.random.default_rng(0).standard_normal(128).astype(np.float32)
    x = np.random.default_rng(1).standard_normal((3 * cfg.stft.hop, model.channels))
    tracer = load_tracing().Tracer()
    tracer.note_store(store)
    with tracer.installed():
        engine = StreamingEnhancer(cfg, store, emb)
        for k in range(2):
            engine.process(x[k * cfg.stft.hop : (k + 1) * cfg.stft.hop])
        split = len(tracer.spans)
        tracer.phase, tracer.frame = "run", 0
        engine.process(x[2 * cfg.stft.hop :])
    assert (tracer.lstm_steps, tracer.kernel_calls) == (steps, calls)
    # the stack's one cache holds the three primed frames and the three hops
    assert tracer.attention_keys == cfg.stft.lookahead + 3
    names = {s[0] for s in tracer.spans[split:]}
    assert {"kernels.lstm_temporal", "kernels.lstm_spectral"} <= names
