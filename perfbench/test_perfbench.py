"""Self-tests of the benchmark: metric catalogue, pre-flight, tiny runs, tracer.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_preflight_accepts_seeds_and_range_ends(name):
    wl = workloads.WORKLOADS[name]
    for seed in range(20):
        run._preflight(wl, seed)
        wl.preflight(wl.config(wl.params(seed), tiny=True))


@pytest.mark.parametrize("override, message", [
    # integrates to t=200, then the predictor asks for t=75, which is no
    # snapshot time: the library raises only after the whole run
    ({"snapshot_every": 2.0, "t_end": 200.0, "x_min": -256.0, "x_max": 256.0,
      "n": 4096}, "predictor time 75.0"),
    ({"dt": 0.03}, "evolve would round"),
    ({"t_end": 125.0}, "domain edge"),
    ({"epsilon": 0.5}, "epsilon must lie"),
])
def test_preflight_rejects_bad_scatter_configs(override, message):
    wl = workloads.WORKLOADS["scatter"]
    with pytest.raises(workloads.PreflightError, match=message):
        wl.preflight(dict(wl.config(wl.params(0)), **override))


def test_preflight_rejects_transform_without_zero_data():
    wl = workloads.WORKLOADS["transform"]
    cfg = wl.config(wl.params(3))
    cfg["triples"][0][1] = 0.05
    with pytest.raises(workloads.PreflightError, match="epsilon = 0"):
        wl.preflight(cfg)


def test_seeds_repeat_and_differ():
    for wl in workloads.WORKLOADS.values():
        assert wl.params(7) == wl.params(7)
        assert wl.params(7) != wl.params(8)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_runs_traced_and_untraced(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    cfg = wl.config(wl.params(1), tiny=True)
    job = wl.prepare(cfg, tmp_path)
    plain = run._iteration(wl, cfg, job, tmp_path)
    assert plain["violations"] == []
    tracer = Tracer()
    traced = [run._iteration(wl, cfg, job, tmp_path, tracer) for _ in range(2)]
    for rec in traced:
        assert rec["violations"] == []
        assert rec["unwrapped"] == []
        assert tracer.top_level_seconds(rec["trace_run"]) >= 0.95 * rec["run_s"]
    counts = [{k: v[0] for k, v in tracer.summary(r["trace_run"]).items()} for r in traced]
    assert counts[0] == counts[1]
    assert counts[0]  # something was traced


def test_tracer_wraps_every_binding_and_restores_them():
    import sgkink.fields
    import sgkink.tracking

    orig = sgkink.fields.norm
    tracer = Tracer()
    with tracer.recording() as run_id:
        assert sgkink.tracking.norm is sgkink.fields.norm is not orig
        assert sgkink.norm.__wrapped__ is orig
        assert tracer.unwrapped_bindings() == []
        grid = sgkink.fields.make_grid(-8.0, 8.0, 64)
        f = sgkink.fields.Field(grid, grid.x**2)
        sgkink.tracking.norm(f, sgkink.fields.L2PlusLinf())
    assert sgkink.tracking.norm is orig and sgkink.norm is orig
    summary = tracer.summary(run_id)
    assert summary["fields.norm.L2PlusLinf"][0] == 1
