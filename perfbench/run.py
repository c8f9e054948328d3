"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload kink --seed 0 --seconds 25 --trace 0

Load shape: a closed loop, one process and one thread, one workload
iteration at a time.  With --trace 0 whole iterations are timed with tracing
off and the end-to-end metrics are reported: run_rel and cpu_rel are the
median over iterations of the iteration's wall (CPU) time divided by that of
a fixed reference kernel timed just before and after it, which cancels most
of the shared host's drifting speed; the raw seconds are kept in the result file.
setup_s is the median of several fresh processes, spread between the
iterations so that they sample the host over the whole run, and scaled to
the host speed at which the reference kernel takes REF_NOMINAL_S (the
median kernel of the run sets the speed).  With --trace 1
untraced and traced iterations alternate and the per-layer metrics are
reported.
Every iteration's outputs are checked against the experiments' tolerances.
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the full result (machine facts, accuracy values, per-iteration times) and
the spans go to perfbench/out/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import machine

for _var in machine.THREAD_VARS:  # before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
MIN_TRACED = 2          # traced iterations, so call counts can be compared
MIN_COVERAGE = 0.95     # share of a traced iteration inside top-level spans

END_TO_END_UNITS = {"setup_s": "s", "run_rel": "x", "cpu_rel": "x", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    from tracer import span_names

    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "evolve.steps": "count",
        "evolve.snapshots": "count",
        "evolve.step_us": "us",
        "backlund.eval_F_per_inverse": "ratio",
        "tracking.kink_identities_per_center": "ratio",
        "experiments.report_bytes": "bytes",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    })
    return units


def _import_checkout() -> None:
    """Import sgkink from this checkout's src/ and nowhere else."""
    if not (SRC / "sgkink" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sgkink sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import sgkink

    if Path(sgkink.__file__).resolve().parent != (SRC / "sgkink").resolve():
        sys.exit(f"perfbench: imported sgkink from {sgkink.__file__}, not {SRC}")


def _preflight(wl, seed: int) -> None:
    """Validate the configs of this seed, seed 0 and every range end."""
    params = [wl.params(seed), wl.params(0)] + wl.range_ends()
    for p in params:
        wl.preflight(wl.config(p))


def _setup_seconds(name: str, seed: int) -> float:
    """One set-up in a fresh process."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
    except subprocess.CalledProcessError as exc:
        sys.exit(f"perfbench: set-up failed:\n{exc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _iteration(wl, cfg, job, workdir, tracer=None) -> dict:
    """One workload run, timed, then checked.  Exceptions count as failures."""
    rec = {"traced": tracer is not None, "violations": []}
    try:
        if tracer is None:
            t0, c0 = perf_counter(), process_time()
            output = wl.run(job, workdir)
            rec["run_s"], rec["cpu_s"] = perf_counter() - t0, process_time() - c0
        else:
            with tracer.recording() as run:
                rec["trace_run"] = run
                rec["unwrapped"] = tracer.unwrapped_bindings()
                t0 = perf_counter()
                output = wl.run(job, workdir)
                rec["run_s"] = perf_counter() - t0
        info, rec["violations"] = wl.accuracy(cfg, job, output)
        rec.update(info)
    except Exception:  # the run failed: record it and stop the loop
        rec["error"] = traceback.format_exc()
        rec["violations"].append("raised: " + rec["error"].strip().splitlines()[-1])
    return rec


def _loop(seconds: float, min_runs: int, one, between=None) -> list:
    """Call one() until another call would take its total past `seconds`.

    between(share), if given, runs after each call but the last, with the
    share of `seconds` used so far; its own time does not count.
    """
    records = []
    busy = 0.0
    while True:
        t = perf_counter()
        new = one()
        took = perf_counter() - t
        busy += took
        records.extend(new)
        if any("error" in r for r in new):
            break
        if len(records) >= min_runs and busy + took > seconds:
            break
        if between is not None:
            between(busy / seconds)
    return records


def _end_to_end(wl, cfg, job, workdir, args) -> tuple[dict, list, dict]:
    setups = []
    ref = [machine.reference_kernel()]

    def probe(share):
        while len(setups) < min(SETUP_PROBES, round(share * SETUP_PROBES)):
            setups.append(_setup_seconds(wl.name, args.seed))

    def one():
        rec = _iteration(wl, cfg, job, workdir)
        ref.append(machine.reference_kernel())
        # the host's speed around this iteration: mean of the kernels before and after
        rec["ref_s"] = (ref[-2][0] + ref[-1][0]) / 2
        rec["ref_cpu_s"] = (ref[-2][1] + ref[-1][1]) / 2
        return [rec]

    records = _loop(args.seconds, 1, one, probe)
    probe(1.0)
    ok = [r for r in records if "error" not in r]
    ref_s = statistics.median(wall for wall, _ in ref)
    metrics = {"setup_s": statistics.median(setups) * machine.REF_NOMINAL_S / ref_s}
    timing = {"setup_s_samples": setups, "ref_s_median": ref_s, "iterations": len(ok)}
    raw = {"setup_s": setups}
    if ok:
        metrics["run_rel"] = statistics.median(r["run_s"] / r["ref_s"] for r in ok)
        metrics["cpu_rel"] = statistics.median(r["cpu_s"] / r["ref_cpu_s"] for r in ok)
        raw.update({key: [r[key] for r in ok] for key in ("run_s", "cpu_s")})
    for key, vals in raw.items():
        timing[key] = {"median": statistics.median(vals), "min": min(vals),
                       "max": max(vals)}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, records, timing


def _traced(wl, cfg, job, workdir, args) -> tuple[dict, list, dict]:
    from tracer import Tracer, span_names

    tracer = Tracer()
    records = _loop(args.seconds, 2 * MIN_TRACED, lambda: [
        _iteration(wl, cfg, job, workdir),
        _iteration(wl, cfg, job, workdir, tracer),
    ])
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.csv")
    traced = [r for r in records if r["traced"] and "run_s" in r]
    plain = [r for r in records if not r["traced"] and "run_s" in r]
    checks = {}
    if not traced or not plain:
        return {}, records, checks
    runs = [r["trace_run"] for r in traced]
    summaries = [tracer.summary(run) for run in runs]
    counts = [{k: v[0] for k, v in s.items()} for s in summaries]
    counters = [{k[1]: v for k, v in tracer.counters.items() if k[0] == run} for run in runs]
    checks["calls_repeat"] = all(c == counts[0] for c in counts) and all(
        c == counters[0] for c in counters)
    checks["unwrapped_bindings"] = sorted({b for r in traced for b in r["unwrapped"]})
    checks["coverage"] = [tracer.top_level_seconds(run) / r["run_s"]
                          for run, r in zip(runs, traced)]
    first = runs[0]

    def med_self(name):
        return statistics.median(s.get(name, (0, 0.0))[1] for s in summaries)

    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = counts[0].get(name, 0)
        metrics[f"{name}.self_s"] = med_self(name)
    steps = counters[0].get("evolve.steps", 0)
    inverses = counts[0].get("backlund.inverse_transform", 0)
    centers = counts[0].get("tracking.solve_center", 0)
    metrics.update({
        "evolve.steps": steps,
        "evolve.snapshots": counters[0].get("evolve.snapshots", 0),
        "evolve.step_us": 1e6 * med_self("evolve.evolve") / steps if steps else 0.0,
        "backlund.eval_F_per_inverse": tracer.nested_count(
            first, "backlund.eval_F", "backlund.inverse_transform") / inverses if inverses else 0.0,
        "tracking.kink_identities_per_center": tracer.nested_count(
            first, "exact.kink_identities", "tracking.solve_center") / centers if centers else 0.0,
        "experiments.report_bytes": traced[0].get("report_bytes", 0),
        "trace.spans": sum(counts[0].values()),
        "trace.overhead_s": min(r["run_s"] for r in traced) - min(r["run_s"] for r in plain),
    })
    return metrics, records, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    facts = machine.facts()
    facts["pinned_cpu"] = machine.pin_to_one_cpu()
    try:
        _preflight(wl, args.seed)
    except workloads.PreflightError as exc:
        sys.exit(f"perfbench: pre-flight failed: {exc}")
    cfg = wl.config(wl.params(args.seed))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT))
    try:
        job = wl.prepare(cfg, workdir)
        measure = _traced if args.trace else _end_to_end
        metrics, records, checks = measure(wl, cfg, job, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_after"] = list(os.getloadavg())

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    failed = sum(1 for r in records if r["violations"])
    problems = [v for r in records for v in r["violations"]]
    if args.trace:
        if not checks.get("calls_repeat"):
            problems.append("traced iterations disagree on call counts")
        if checks.get("unwrapped_bindings"):
            problems.append(f"unwrapped after patching: {checks['unwrapped_bindings']}")
        if min(checks.get("coverage", [0.0])) < MIN_COVERAGE:
            problems.append(f"top-level spans cover {checks.get('coverage')} of run_s")
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = not problems

    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": cfg, "machine": facts,
        "correct": correct, "attempted": len(records), "failed": failed,
        "problems": problems, "checks": checks, "metrics": metrics,
        "accuracy": [r.get("values") for r in records],
        "iterations": [{k: v for k, v in r.items() if k != "values"} for r in records],
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")

    for p in problems:
        print(f"problem: {p}")
    for name in units:
        if name in metrics:
            print(f"{wl.name} {name} {metrics[name]!r} {units[name]}")
    for key in ("setup_s", "run_s", "cpu_s"):
        if key in checks:
            print(f"{wl.name} raw {key} median {checks[key]['median']!r} s "
                  f"(min {checks[key]['min']!r}, max {checks[key]['max']!r})")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
