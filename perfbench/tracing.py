"""Outside-in span tracing for the hearstream benchmark.

The tracer patches the public entry points of each hearstream module from
here, so nothing in ``src/`` changes. Each call records one span: name,
start, end, parent span, the hop (frame) index shared by every span of that
hop, and the phase: "setup" before the first operation, "run" during the
timed operations, "reset" while a new pass is set up between them. Spans
stay in memory until the run ends. A span's self time is its duration minus the time its direct child
spans cover; self times therefore partition the time of the root spans.

GridNet kernels are patched in the ``hearstream.gridnet`` namespace, which is
where the networks look them up, so the embedder's calls to the same kernels
stay inside ``embedder.embed``. LSTM calls are told apart by the identity of
the weight array they receive: the engine passes the store's arrays by
reference, and the temporal-LSTM input weights are a known set of names.
"""

from __future__ import annotations

import contextlib
import time

# Self-time metrics in ms per frame: together they partition the run phase.
PARTITION = (
    "pipeline.self",
    "dsp.analysis",
    "dsp.synthesis",
    "beamform.update",
    "beamform.solve",
    "gridnet.self",
    "kernels.conv_in",
    "kernels.film",
    "kernels.layer_norm",
    "kernels.lstm_temporal",
    "kernels.lstm_spectral",
    "kernels.deconv1d",
    "kernels.attention",
    "kernels.deconv_out",
    "pipeline.rescale",
    "fitting.step",
)

ROOTS = ("pipeline.process", "pipeline.enhance_offline", "classical.hop")

_KERNELS = {
    "conv2d": "kernels.conv_in",
    "film": "kernels.film",
    "layer_norm": "kernels.layer_norm",
    "lstm_forward": None,  # temporal or spectral, decided per call
    "conv_transpose1d": "kernels.deconv1d",
    "masked_attention": "kernels.attention",
    "conv_transpose2d": "kernels.deconv_out",
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        # one record per span: [name, start_ns, end_ns, parent, frame, phase]
        self.spans: list[list] = []
        self.frame = -1
        self.phase = "setup"
        self.temporal_ids: set[int] = set()
        self.lstm_steps = 0
        self.kernel_calls = 0
        self.attention_keys = 0
        self.silent_bins = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.frame, self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def note_store(self, store) -> None:
        """Remember which weight arrays belong to temporal LSTMs."""
        self.temporal_ids = {
            id(store[k]) for k in store.keys() if k.endswith(".temporal.lstm.w")
        }

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, name, after=None) -> None:
        original = vars(owner)[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        from hearstream import beamform, dsp, embedder, fitting, gridnet, pipeline, weights

        p = self._patch
        p(pipeline.StreamingEnhancer, "process", "pipeline.process")
        p(pipeline.StreamingEnhancer, "__init__", "pipeline.init")
        p(pipeline, "enhance_offline", "pipeline.enhance_offline")
        p(pipeline.RescaleState, "update", "pipeline.rescale")
        p(dsp.StreamingAnalyzer, "push", "dsp.analysis")
        p(dsp.StreamingSynthesizer, "push", "dsp.synthesis")
        p(beamform.CovarianceState, "update", "beamform.update")
        p(beamform.CovarianceState, "solve", "beamform.solve", self._after_solve)
        p(gridnet.GridNetStream, "step", lambda a: "gridnet." + a[0].model.prefix)
        p(gridnet.MisoGridNet, "forward", lambda a: "gridnet." + a[0].prefix)
        p(fitting.ListenerFitting, "step", "fitting.step")
        p(fitting.ListenerFitting, "__init__", "fitting.design")
        p(weights.WeightStore, "load", "weights.load")
        p(embedder.SpeakerEmbedder, "embed", "embedder.embed")
        for fn_name, span_name in _KERNELS.items():
            p(gridnet, fn_name, span_name or self._lstm_name, self._after_kernel(fn_name))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _lstm_name(self, args) -> str:
        temporal = id(args[1]) in self.temporal_ids
        return "kernels.lstm_temporal" if temporal else "kernels.lstm_spectral"

    def _after_kernel(self, fn_name: str):
        def after(args, result) -> None:
            if self.phase != "run":
                return
            self.kernel_calls += 1
            if fn_name == "lstm_forward":
                self.lstm_steps += args[0].shape[-2]  # sequential steps of this call
            elif fn_name == "masked_attention":
                self.attention_keys = args[1].shape[0]

        return after

    def _after_solve(self, args, result) -> None:
        self.silent_bins = len(args[0].silent_bins)

    # -- aggregation -------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, frames: int) -> dict:
        """Per-layer figures from the recorded spans (ms per frame, s for setup)."""
        own = self.self_times_ns()
        run_self: dict[str, int] = {}
        run_total: dict[str, int] = {}
        setup_total: dict[str, int] = {}
        preroll = 0
        wall = 0
        for s, self_ns in zip(self.spans, own):
            name, dur = s[0], s[2] - s[1]
            if s[5] == "run":
                key = "pipeline.self" if name in ROOTS else name
                if name.startswith("gridnet."):
                    key = "gridnet.self"
                run_self[key] = run_self.get(key, 0) + self_ns
                run_total[name] = run_total.get(name, 0) + dur
                if s[3] < 0:
                    wall += dur
            elif s[5] == "setup":
                setup_total[name] = setup_total.get(name, 0) + dur
                if name.startswith("gridnet."):
                    preroll += dur
        per_frame = 1e-6 / max(frames, 1)
        out = {f"{k}_ms": run_self.get(k, 0) * per_frame for k in PARTITION}
        out["gridnet.dnn1_ms"] = run_total.get("gridnet.dnn1", 0) * per_frame
        out["gridnet.dnn2_ms"] = run_total.get("gridnet.dnn2", 0) * per_frame
        out["gridnet.preroll_s"] = preroll * 1e-9
        for name in ("fitting.design", "weights.load", "embedder.embed"):
            out[f"{name}_s"] = setup_total.get(name, 0) * 1e-9
        out["beamform.silent_bins"] = self.silent_bins
        out["kernels.lstm_steps"] = self.lstm_steps / max(frames, 1)
        out["kernels.calls"] = self.kernel_calls / max(frames, 1)
        out["kernels.attention_keys"] = self.attention_keys
        out["trace.wall_ms"] = wall * per_frame
        return out

