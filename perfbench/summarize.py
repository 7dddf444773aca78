"""Summarize benchmark result files, and compare a summary with a baseline.

    python3 perfbench/summarize.py .bench_out/results/*.json --out summary.json
    python3 perfbench/summarize.py .bench_out/results/*.json --against perfbench/baseline/352c691.json

Results are grouped by workload and trace mode. Each metric gets its median,
quartiles and spread (quartile distance over the median), as
``statistics.quantiles(values, n=4)`` gives them. A comparison against a
baseline reports the change of each median against the bound that
BENCHMARK.json fixes, and is flagged as invalid when the two environments
differ in anything but the source revision and the workload seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fields that identify the run rather than the machine it ran on.
RUN_FIELDS = {"git_commit", "source_sha256", "workload_seed"}


def machine(env: dict) -> dict:
    return {k: v for k, v in env.items() if k not in RUN_FIELDS}


def summarize(paths: list[str]) -> dict:
    groups: dict[str, dict] = {}
    machines: list[dict] = []
    for path in paths:
        result = json.loads(Path(path).read_text())
        if result.get("smoke"):
            continue
        key = f"{result['workload']}/trace{result['trace']}"
        group = groups.setdefault(
            key, {"seeds": [], "correct": True, "attempted": 0, "failed": 0, "values": {}}
        )
        group["seeds"].append(result["seed"])
        group["correct"] &= result["correct"]
        group["attempted"] += result["attempted"]
        group["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            group["values"].setdefault(name, {"unit": metric["unit"], "runs": []})
            group["values"][name]["runs"].append(metric["value"])
        env = machine(result["environment"])
        if env not in machines:
            machines.append(env)
    for group in groups.values():
        group["fail_frac"] = group["failed"] / max(group["attempted"], 1)
        for metric in group["values"].values():
            runs = metric["runs"]
            median = statistics.median(runs)
            q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (median,) * 3
            metric.update(median=median, q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return {"environments": machines, "groups": groups}


def compare(new: dict, old: dict) -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lines = []
    if new["environments"] != old["environments"] or len(new["environments"]) != 1:
        lines.append("ENVIRONMENTS DIFFER: this comparison does not count as a performance claim")
        for env in old["environments"] + new["environments"]:
            lines.append(f"  {json.dumps(env, sort_keys=True)}")
    for key, group in sorted(new["groups"].items()):
        base = old["groups"].get(key)
        if base is None:
            continue
        for name, metric in group["values"].items():
            if name not in base["values"] or name not in bounds:
                continue
            before, after = base["values"][name]["median"], metric["median"]
            change = (after - before) / before
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > bounds[name]["bound"] else "within bound"
            lines.append(
                f"{key:28s} {name:14s} {before:12.5g} -> {after:12.5g} {metric['unit']:6s}"
                f" {100 * change:+7.2f} %  (bound {100 * bounds[name]['bound']:.0f} %) {verdict}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", help="result files written by run.py")
    parser.add_argument("--out", help="write the summary here")
    parser.add_argument("--against", help="a summary to compare with")
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    for key, group in sorted(summary["groups"].items()):
        print(f"{key}: seeds {group['seeds']} fail_frac {group['fail_frac']:g}")
        for name, m in group["values"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:28s} median {m['median']:12.6g} {m['unit']:6s} spread {spread}")
    if args.against:
        for line in compare(summary, json.loads(Path(args.against).read_text())):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
