"""Per-hop latency, real-time factor and per-layer trace for hearstream.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream-toy-2ch --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller in one process: it feeds one
operation (a 128-sample block, or one offline call), takes the output, then
feeds the next, and times every call as service time. Inputs come from
``scenes.simulate_scene`` with the workload seed; the engine sees only the
generated audio. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run with a fixed operation count. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results, the environment and
(with tracing) the spans are written under ``.bench_out/``.

See perfbench/README.md for the workloads and the reasons behind them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: the workloads model a single caller, and on a 2-core host
# a second thread bought about 8 % on the full-scale hop (703 against 767 ms
# p50) for twice the CPU time. Set before NumPy loads OpenBLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

if not (SRC / "hearstream" / "__init__.py").is_file():
    sys.exit(f"error: no hearstream sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import hearstream  # noqa: E402
from hearstream import pipeline  # noqa: E402
from hearstream.beamform import CovarianceState  # noqa: E402
from hearstream.dsp import StreamingAnalyzer, StreamingSynthesizer, istft_frames  # noqa: E402
from hearstream.embedder import EmbedConfig, SpeakerEmbedder  # noqa: E402
from hearstream.fitting import CATALOGUE_CFS, Audiogram, ListenerFitting  # noqa: E402
from hearstream.gridnet import GridNetConfig  # noqa: E402
from hearstream.scenes import SceneSpec, simulate_scene  # noqa: E402
from hearstream.weights import WeightStore  # noqa: E402

from tracing import PARTITION, Tracer  # noqa: E402

if Path(hearstream.__file__).resolve().parent != SRC / "hearstream":
    sys.exit(f"error: hearstream imported from {hearstream.__file__}, not {SRC}")

HOP = 128
SAMPLE_RATE = 32000
WEIGHT_SEED = 0  # the model is fixed; the workload seed varies the scene
REFERENCE_SEED = 2302  # scene behind the committed reference outputs
TOLERANCE = 1e-5  # stream/offline parity tolerance, relative to the peak
# Sloping mild-to-moderate loss, one level per catalogue frequency.
AUDIOGRAM = Audiogram(CATALOGUE_CFS, (20.0, 25.0, 30.0, 40.0, 50.0, 55.0, 60.0, 65.0))
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0

END_TO_END = {
    "hop_ms_p50": "ms",
    "hop_ms_tail": "ms",
    "rtf": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {f"{name}_ms": "ms" for name in PARTITION}
PER_LAYER.update(
    {
        "gridnet.dnn1_ms": "ms",
        "gridnet.dnn2_ms": "ms",
        "gridnet.preroll_s": "s",
        "fitting.design_s": "s",
        "weights.load_s": "s",
        "embedder.embed_s": "s",
        "beamform.silent_bins": "count",
        "kernels.lstm_steps": "count",
        "kernels.calls": "count",
        "kernels.attention_keys": "count",
        "trace.overhead_frac": "ratio",
    }
)

# kind: stream | offline | classical. scene_hops: length of the generated
# scene; a stream pass starts from fresh state and covers it once.
# trace_ops: operations of each caller in a traced run (fixed, so counts
# repeat). parity_hops: how much of the timed stream is re-run offline for
# the check. reference_hops: length of the fixed reference scene.
# smoke_ops: operations with --smoke.
WORKLOADS = {
    "stream-toy-2ch": dict(
        kind="stream", scale="toy", channels=2, fitting=False,
        scene_hops=500, trace_ops=30, parity_hops=500, reference_hops=16, smoke_ops=3,
    ),
    "stream-full-6ch": dict(
        kind="stream", scale="full", channels=6, fitting=True,
        scene_hops=500, trace_ops=6, parity_hops=4, reference_hops=4, smoke_ops=2,
    ),
    "offline-toy-2ch": dict(
        kind="offline", scale="toy", channels=2, fitting=False,
        scene_hops=125, trace_ops=4, parity_hops=0, reference_hops=16, smoke_ops=2,
    ),
    "classical-6ch": dict(
        kind="classical", scale=None, channels=6, fitting=True,
        scene_hops=500, trace_ops=2000, parity_hops=500, reference_hops=64, smoke_ops=40,
    ),
}


# -- inputs ----------------------------------------------------------------------


def pipeline_config(spec: dict) -> pipeline.PipelineConfig:
    channels = spec["channels"]
    if spec["scale"] == "full":
        return pipeline.PipelineConfig(model=GridNetConfig.full_scale(channels=channels))
    return pipeline.PipelineConfig(model=GridNetConfig.toy(channels=channels))


def make_scene(seed: int, channels: int, hops: int):
    return simulate_scene(
        SceneSpec(seed=seed, channels=channels, duration_s=hops * HOP / SAMPLE_RATE)
    )


class Workload:
    """Inputs of one workload plus its set-up and its timed operation.

    ``setup`` builds what a user pays for before the first operation and
    returns the state ``op`` works on. ``ops_per_pass`` operations consume
    the scene once; the next pass starts from a fresh ``setup``.
    """

    def __init__(self, name: str, seed: int, work_dir: Path, smoke: bool) -> None:
        self.name = name
        self.spec = spec = WORKLOADS[name]
        self.kind = spec["kind"]
        self.config = pipeline_config(spec)
        hops = min(spec["scene_hops"], 16) if smoke else spec["scene_hops"]
        self.scene = make_scene(seed, spec["channels"], hops)
        self.x = self.scene.mixture
        self.weights_path = None
        if self.kind != "classical":
            self.weights_path = str(work_dir / "weights.inxw")
            pipeline.init_pipeline_weights(self.config, seed=WEIGHT_SEED).save(self.weights_path)
        self.oracle = None
        if self.kind == "classical":
            self.oracle = self.analyze_mono(self.scene.target_ref)
        self.frames_per_op = hops if self.kind == "offline" else 1
        self.ops_per_pass = None if self.kind == "offline" else hops
        self.op_samples = self.frames_per_op * HOP
        self.store = self.embedding = None

    def analyze_mono(self, signal: np.ndarray) -> np.ndarray:
        return StreamingAnalyzer(self.config.stft, 1).analyze(signal)[:, :, 0]

    def fitting(self):
        return ListenerFitting(AUDIOGRAM) if self.spec["fitting"] else None

    def enroll(self, store: WeightStore, signal: np.ndarray) -> np.ndarray:
        return SpeakerEmbedder(EmbedConfig(), store).embed(self.analyze_mono(signal))

    def setup(self, tracer: Tracer | None = None):
        if self.kind == "classical":
            stft, cfg = self.config.stft, self.config
            return (
                StreamingAnalyzer(stft, self.spec["channels"]),
                CovarianceState(stft.bins, self.spec["channels"], alpha=cfg.alpha, loading=cfg.loading),
                self.fitting(),
                StreamingSynthesizer(stft),
            )
        store = WeightStore.load(self.weights_path)
        if tracer is not None:
            tracer.note_store(store)
        embedding = self.enroll(store, self.scene.anechoic_target)
        self.store, self.embedding = store, embedding
        if self.kind == "offline":
            return store, embedding
        return pipeline.StreamingEnhancer(self.config, store, embedding, fitting=self.fitting())

    def op(self, state, k: int) -> np.ndarray:
        if self.kind == "stream":
            return state.process(self.x[k * HOP : (k + 1) * HOP])
        if self.kind == "offline":
            store, embedding = state
            return pipeline.enhance_offline(self.x, self.config, store, embedding)
        analyzer, cov, fitting, synth = state
        frame = analyzer.push(self.x[k * HOP : (k + 1) * HOP])
        return synth.push(fitting.step(cov.step(frame, self.oracle[k])))

    # -- independent paths the outputs are checked against ---------------------

    def offline_path(self, x: np.ndarray, store, embedding, oracle=None) -> np.ndarray:
        """The same computation through whole-signal entry points."""
        if self.kind == "classical":
            frames = StreamingAnalyzer(self.config.stft, x.shape[1]).analyze(x)
            z = pipeline.beamform_frames(
                frames, oracle, alpha=self.config.alpha, loading=self.config.loading
            )
            fitting = self.fitting()
            return istft_frames(np.stack([fitting.step(f) for f in z]), self.config.stft)
        return pipeline.enhance_offline(x, self.config, store, embedding, fitting=self.fitting())

    def reference_output(self) -> np.ndarray:
        """Output on the fixed reference scene, compared with the committed file."""
        scene = make_scene(REFERENCE_SEED, self.spec["channels"], self.spec["reference_hops"])
        if self.kind == "classical":
            oracle = self.analyze_mono(scene.target_ref)
            return self.offline_path(scene.mixture, None, None, oracle)
        store = WeightStore.load(self.weights_path)
        return self.offline_path(scene.mixture, store, self.enroll(store, scene.anechoic_target))

    def parity_output(self, hops: int) -> np.ndarray:
        x = self.x[: hops * HOP]
        if self.kind == "classical":
            return self.offline_path(x, None, None, self.oracle[:hops])
        return self.offline_path(x, self.store, self.embedding)


# -- checks ------------------------------------------------------------------------


def close_to(out: np.ndarray, ref: np.ndarray) -> tuple[bool, float]:
    out, ref = np.asarray(out), np.asarray(ref)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False, float("inf")
    err = float(np.max(np.abs(out - ref))) / max(float(np.max(np.abs(ref))), 1e-12)
    return err <= TOLERANCE, err


def reference_check(wl: Workload) -> dict:
    path = REFERENCE_DIR / f"{wl.name}.npy"
    if not path.is_file():
        return {"ok": False, "why": f"missing {path.name}"}
    ok, err = close_to(wl.reference_output(), np.load(path))
    return {"ok": ok, "rel_err": err}


def parity_check(wl: Workload, first_pass: list) -> dict:
    """Stream output of the first pass against the offline path."""
    if wl.kind == "offline":
        return {"ok": True, "why": "every call is compared with the first call"}
    hops = min(len(first_pass), wl.spec["parity_hops"])
    if hops == 0 or any(o is None for o in first_pass[:hops]):
        return {"ok": False, "why": "no complete output to compare"}
    ok, err = close_to(np.concatenate(first_pass[:hops]), wl.parity_output(hops))
    return {"ok": ok, "rel_err": err, "hops": hops}


class OpChecker:
    """Per-operation checks: finite, right length, and repeatable.

    An operation repeated on the same input from the same state (the same
    hop in a later pass, or another offline call) must give identical output.
    """

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.first_pass: list = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, k: int, out) -> None:
        self.attempted += 1
        ok = (
            out is not None
            and out.shape == (self.wl.op_samples,)
            and bool(np.all(np.isfinite(out)))
        )
        if self.wl.kind == "offline":
            k = 0  # every call repeats the first one
        if k < len(self.first_pass):
            ok = ok and self.first_pass[k] is not None and np.array_equal(out, self.first_pass[k])
        else:
            self.first_pass.append(out)
        self.failed += 0 if ok else 1


class Caller:
    """One closed-loop caller: an operation at a time, each timed as service time.

    Operations walk through the scene; at its end a new pass starts from a
    fresh set-up, untimed. With a tracer, the caller opens the root span of
    a classical hop and marks the frame index of each operation's spans.
    """

    def __init__(self, wl: Workload, state, tracer: Tracer | None = None) -> None:
        self.wl = wl
        self.state = state
        self.tracer = tracer
        self.checker = OpChecker(wl)
        self.times: list[float] = []
        self.k = 0

    def step(self) -> float:
        wl, tracer = self.wl, self.tracer
        if self.k == wl.ops_per_pass:
            if tracer is not None:
                tracer.phase = "reset"  # counted neither as set-up nor as run
            self.state, self.k = wl.setup(), 0
        if tracer is not None:
            tracer.phase = "run"
            tracer.frame = len(self.times)
        t0 = time.perf_counter()
        try:
            if wl.kind == "classical" and tracer is not None:
                with tracer.span("classical.hop"):
                    out = wl.op(self.state, self.k)
            else:
                out = wl.op(self.state, self.k)
        except Exception as exc:  # a raising operation counts as failed
            print(f"operation {len(self.times)} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.checker(self.k, out)
        self.k += 1
        return t1


# -- metrics -------------------------------------------------------------------------


def tail(values: list[float], beyond: int = 10, cap: float = 0.90) -> tuple[float, float, int]:
    """Highest percentile, up to ``cap``, with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond it). With ``beyond`` or fewer
    samples no such percentile exists, and the maximum is returned instead.
    The cap keeps the figure on the program: a classical hop takes about
    1 ms, and host interrupts of several ms hit more than 1 % of them when
    the host is busy. Over ten runs p99 spread by 65 % of its median, p90 by
    4 %.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n if n <= beyond else min(n - beyond, max(int(cap * n), 1))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def measure(wl: Workload, seconds: float, smoke: bool) -> tuple[dict, dict, OpChecker]:
    setup_times = []
    while True:
        state = None  # release the previous engine before building the next
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)
        n = len(setup_times)
        if smoke or n >= SETUP_MAX or (n >= SETUP_MIN and sum(setup_times) >= SETUP_BUDGET_S):
            break
    caller = Caller(wl, state)
    if smoke:
        while len(caller.times) < wl.spec["smoke_ops"]:
            caller.step()
    else:
        deadline = time.perf_counter() + seconds
        while caller.step() < deadline:
            pass
    times, checker = caller.times, caller.checker
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_frame_ms = [1000.0 * t / wl.frames_per_op for t in times]
    tail_ms, tail_pct, beyond = tail(per_frame_ms)
    audio_s = len(times) * wl.op_samples / SAMPLE_RATE
    metrics = {
        "hop_ms_p50": statistics.median(per_frame_ms),
        "hop_ms_tail": tail_ms,
        "rtf": sum(times) / audio_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "ops": len(times),
        "frames": len(times) * wl.frames_per_op,
        "hop_ms_tail_percentile": tail_pct,
        "hop_ms_tail_hops_beyond": beyond,
        "hop_ms_quantiles": {
            f"p{q:g}": float(np.percentile(per_frame_ms, q)) for q in (10, 90, 99, 99.9, 100)
        },
        "setup_samples_s": setup_times,
        "realtime_line_ms": 1000.0 * HOP / SAMPLE_RATE,
    }
    return metrics, detail, checker


def measure_traced(wl: Workload, smoke: bool) -> tuple[dict, dict, OpChecker, Tracer]:
    """Per-layer figures from a traced caller, interleaved with an untraced one.

    Both callers run the same operations from their own set-up, alternating
    one operation each, so drifts in host speed hit both alike and the
    difference of their times is the cost of tracing.
    """
    count = wl.spec["smoke_ops"] if smoke else wl.spec["trace_ops"]
    plain = Caller(wl, wl.setup())
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("setup"):
            traced = Caller(wl, wl.setup(tracer), tracer)
    for _ in range(count):
        plain.step()
        with tracer.installed():
            traced.step()
    # tracing must not change a single output sample
    for k, (a, b) in enumerate(zip(plain.checker.first_pass, traced.checker.first_pass)):
        if a is None or b is None or not np.array_equal(a, b):
            traced.checker.failed += 1
            print(f"traced output of operation {k} differs from the untraced one", file=sys.stderr)
    frames = count * wl.frames_per_op
    audio_s = frames * HOP / SAMPLE_RATE
    summary = tracer.summary(frames)
    metrics = {name: summary[name] for name in PER_LAYER if name in summary}
    metrics["trace.overhead_frac"] = sum(traced.times) / sum(plain.times) - 1.0
    detail = {
        "ops": count,
        "frames": frames,
        "untraced_rtf": sum(plain.times) / audio_s,
        "traced_rtf": sum(traced.times) / audio_s,
        "traced_wall_ms_per_frame": summary["trace.wall_ms"],
        "partition_sum_ms_per_frame": sum(summary[f"{n}_ms"] for n in PARTITION),
        "spans": len(tracer.spans),
    }
    checker = plain.checker
    checker.attempted += traced.checker.attempted
    checker.failed += traced.checker.failed
    return metrics, detail, checker, tracer


# -- entry point ----------------------------------------------------------------------


def write_reference(name: str) -> None:
    """Regenerate the committed reference output of one workload."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ref-", dir=OUT_DIR))
    try:
        out = Workload(name, REFERENCE_SEED, work, smoke=True).reference_output()
    finally:
        shutil.rmtree(work)
    np.save(REFERENCE_DIR / f"{name}.npy", out)
    print(f"wrote {REFERENCE_DIR / f'{name}.npy'} ({out.shape[0]} samples)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few operations, one set-up")
    parser.add_argument(
        "--write-reference", action="store_true", help="regenerate the committed reference output"
    )
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference(args.workload)
        return 0

    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wl = Workload(args.workload, args.seed, work, args.smoke)
        tracer = None
        if args.trace:
            metrics, detail, checker, tracer = measure_traced(wl, args.smoke)
            units = PER_LAYER
        else:
            metrics, detail, checker = measure(wl, args.seconds, args.smoke)
            units = END_TO_END
        checks = {"parity": parity_check(wl, checker.first_pass), "reference": reference_check(wl)}
    finally:
        shutil.rmtree(work)

    attempted, failed = checker.attempted, checker.failed
    if not all(c["ok"] for c in checks.values()):
        failed = attempted  # a failed output check voids every operation of the run
    detail["fail_frac"] = failed / attempted
    detail["checks"] = checks
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "detail": detail,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    results_path = OUT_DIR / "results" / f"{stem}.json"
    results_path.parent.mkdir(exist_ok=True)
    results_path.write_text(json.dumps(result, indent=1))
    if tracer is not None:
        spans_path = OUT_DIR / "spans" / f"{stem}.json"
        spans_path.parent.mkdir(exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "parent", "frame", "phase"]
        spans_path.write_text(json.dumps({"fields": fields, "spans": tracer.spans}))

    print(f"workload {args.workload} seed {args.seed}: {detail['ops']} operations, "
          f"{detail['frames']} frames of {HOP} samples")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        print(f"  hop_ms_tail is p{detail['hop_ms_tail_percentile']:.2f} "
              f"({detail['hop_ms_tail_hops_beyond']} hops beyond it); "
              f"real time means hop_ms_tail <= {detail['realtime_line_ms']:g} ms")
    print(f"  fail_frac {detail['fail_frac']:g} ({failed}/{attempted}); checks {json.dumps(checks)}")
    print(f"  results in {results_path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
