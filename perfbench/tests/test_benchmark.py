"""Tests of the benchmark itself, run on its smoke mode.

    python3 -m pytest perfbench/tests

Each smoke run is a few operations with one set-up, so the whole file takes
about a minute and a half on a 2-core machine, most of it the full-scale model.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 3

sys.path.insert(0, str(BENCH))
from tracing import PARTITION, ROOTS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    cache: dict = {}

    def get(workload: str, trace: int, repeat: int = 0) -> dict:
        key = (workload, trace, repeat)
        if key not in cache:
            cache[key] = result(run(workload, trace))
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported_with_its_unit(runs, workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        out = runs(workload, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            name: metric["unit"] for name, metric in out["metrics"].items()
        }
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_output_checks_repeat_exactly(runs, workload):
    first, second = runs(workload, 1, 0), runs(workload, 1, 1)
    for key in ("correct", "attempted", "failed"):
        assert first[key] == second[key]
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_traced_wall_time(runs, workload):
    out = runs(workload, 1, 1)  # the latest traced run, whose spans are on disk
    stem = f"{workload}-seed{SEED}-trace1-smoke"
    spans = json.loads((ROOT / ".bench_out" / "spans" / f"{stem}.json").read_text())["spans"]
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, frame, phase in spans:
        if parent >= 0:
            own[parent] -= end - start
    assert min(own) >= 0
    run_spans = [(s, o) for s, o in zip(spans, own) if s[5] == "run"]
    roots = [s for s, _ in run_spans if s[3] < 0]
    assert roots and all(s[0] in ROOTS for s in roots)
    wall = sum(s[2] - s[1] for s in roots)
    assert sum(o for _, o in run_spans) == wall
    # the per-layer self-time metrics partition the traced time per frame
    detail = json.loads((ROOT / ".bench_out" / "results" / f"{stem}.json").read_text())["detail"]
    layers = sum(out["metrics"][f"{name}_ms"]["value"] for name in PARTITION)
    assert layers == pytest.approx(wall * 1e-6 / detail["frames"], rel=1e-9)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    from run import tail

    assert tail(list(range(1, 51))) == (40, 80.0, 10)
    assert tail(list(range(1, 101))) == (90, 90.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail(list(range(10000)))[1:] == (90.0, 1000)  # capped at p90


def test_fails_without_the_program_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(WORKLOADS[0], 0, cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
