"""Run every workload in both modes and print every metric by name and unit.

    python3 perfbench/report.py [--seed 0] [--previous old.json] [--out new.json]

Each workload in BENCHMARK.json runs twice through run.py, for the
run_seconds that BENCHMARK.json sets: once with tracing off (end-to-end
metrics) and once with it on (per-layer metrics).  The output checks are the ones run.py
makes; a workload that fails them is marked FAILED and the exit status is 1.
With --previous, each metric is followed by its change against that earlier
result file, and an end-to-end metric that got worse by more than its bound
in BENCHMARK.json is marked REGRESSED.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: run.py printed no result\n{proc.stderr}")
    out = json.loads(lines[-1])
    full = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    detail = json.loads(full.read_text())
    out["problems"] = detail["problems"]
    out["accuracy"] = detail["accuracy"][-1] if detail["accuracy"] else None
    out["machine"] = detail["machine"]
    out["seconds"] = {k: detail["checks"][k] for k in ("setup_s", "run_s", "cpu_s")
                      if k in detail["checks"]}
    return out


def _delta(new: float, old: float) -> str:
    if old == 0:
        return "n/a" if new else "+0"
    return f"{100.0 * (new / old - 1.0):+.1f}%"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--previous", help="an earlier --out file to compare with")
    parser.add_argument("--out", help="write all results to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    previous = json.loads(Path(args.previous).read_text())["workloads"] if args.previous else {}
    results = {}
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = [_run(name, args.seed, trace) for trace in (0, 1)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        metrics = {k: v for r in runs for k, v in r["metrics"].items()}
        results[name] = {"correct": correct, "attempted": attempted, "failed": failed,
                         "fail_rate": failed / attempted, "metrics": metrics,
                         "accuracy": runs[0]["accuracy"], "problems":
                         [p for r in runs for p in r["problems"]],
                         "machine": runs[0]["machine"], "seconds": runs[0]["seconds"]}
        old = previous.get(name, {}).get("metrics", {})
        print(f"== {name} (seed {args.seed}) {'ok' if correct else 'FAILED'}: "
              f"attempted {attempted}, failed {failed}, fail_rate {failed / attempted:g}")
        for p in results[name]["problems"]:
            print(f"  problem: {p}")
        for key, m in metrics.items():
            line = f"  {key:48s} {m['value']:>16.6g} {m['unit']}"
            if key in old:
                line += f"   {_delta(m['value'], old[key]['value'])}"
                b = bounds.get(key)
                if b and old[key]["value"]:
                    worse = m["value"] / old[key]["value"] - 1.0
                    if b["better"] == "higher":
                        worse = -worse
                    if worse > b["bound"]:
                        line += f"  REGRESSED (bound {b['bound']:.0%})"
            print(line)
        for key, val in results[name]["seconds"].items():
            print(f"  {key} (raw, not gated) median {val['median']:.4g} s, "
                  f"min {val['min']:.4g} s, max {val['max']:.4g} s")
        for key, val in (results[name]["accuracy"] or {}).items():
            print(f"  accuracy {key:39s} {val!r}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": SPEC["run_seconds"], "workloads": results},
            indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
