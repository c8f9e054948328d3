"""Experiment configs, runners, report output, and the CLI."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sgkink.experiments
from sgkink.backlund import (backlund_residual, forward_transform,
                              inverse_transform)
from sgkink.cli import main
from sgkink.evolve import Scheme, SchemeKind, snapshots
from sgkink.exact import sample_state, sech
from sgkink.experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    Report,
    run_experiment,
    write_report,
)
from sgkink.fields import (Field, Lp, _trapezoid, make_grid, norm,
                           save_field_csv)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# a kink-stability run whose grid is too narrow for the kink's tails
NARROW = {"name": "kink-stability", "x_min": -8.0, "x_max": 8.0, "n": 256,
          "t_end": 2.0}

# small-data-scattering on a small grid
SMALL = {"name": "small-data-scattering", "x_min": -64.0, "x_max": 64.0,
         "n": 1024, "scheme": "yoshida4", "dt": 0.0625}

# configs whose inverse Backlund transform does not converge: the base
# kink's gamma*dx is 0.287 and 0.255
STALLED_KINK = {"name": "kink-stability", "x_min": -128, "x_max": 128,
                "n": 2048, "epsilon": 0.05, "beta0": -0.9, "t_end": 5}
STALLED_ROUNDTRIP = {"name": "backlund-roundtrip", "x_min": -128,
                     "x_max": 128, "n": 1024, "epsilon": 0.05, "beta0": 0.2}

# exterior-decay on a small grid
EXTERIOR = {"name": "exterior-decay", "x_min": -64.0, "x_max": 64.0,
            "n": 2048, "t_end": 30.0}

CHEAP = dict(
    name="conservation",
    x_min=-64.0,
    x_max=64.0,
    n=2048,
    t_end=5.0,
)


class TestExperimentConfig:
    def test_defaults_round_trip_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CHEAP))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.name == "conservation"
        assert cfg.time_step == cfg.grid.dx / 2
        assert cfg.grid.n == 2048

    def test_one_grid_per_config(self):
        cfg = ExperimentConfig(**CHEAP)
        assert cfg.grid is cfg.grid
        assert cfg.grid == make_grid(-64.0, 64.0, 2048)
        assert cfg.initial_state is cfg.initial_state
        # the cached grid and initial state are not fields: equality, hash
        # and asdict ignore them (fresh holds states of its own)
        fresh = ExperimentConfig(**CHEAP)
        assert fresh.initial_state is not cfg.initial_state
        assert "grid" not in asdict(cfg)
        assert "initial_state" not in asdict(cfg)
        assert cfg == fresh and hash(cfg) == hash(fresh)
        with pytest.raises(AttributeError):
            cfg.n = 4096

    def test_explicit_dt_wins(self):
        cfg = ExperimentConfig(**CHEAP, dt=0.01)
        assert cfg.time_step == 0.01

    @pytest.mark.parametrize("bad", [
        {"name": "no-such-experiment"},
        {"epsilon": 0.0},
        {"epsilon": 0.5},
        {"scheme": "euler"},
        {"perturbation": "white-noise"},
        {"perturbation": "custom"},  # missing custom_file
        {"data": "vacuum"},
    ])
    def test_validation_errors(self, bad):
        kwargs = {**CHEAP, **bad}
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_scheme_names_are_the_kind_values(self):
        assert [k.value for k in SchemeKind] == ["leapfrog", "strang",
                                                 "yoshida4"]
        with pytest.raises(ValueError,
                           match="unknown scheme 'strang-split-spectral'"):
            ExperimentConfig(**{**CHEAP, "scheme": "strang-split-spectral"})

    def test_missing_custom_file(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(**CHEAP, perturbation="custom",
                             custom_file=str(tmp_path / "nope.csv"))

    def test_custom_file_used(self, tmp_path):
        grid = make_grid(-64.0, 64.0, 2048)
        vals = 0.01 * np.exp(-grid.x**2) * (1 + 1j)
        path = tmp_path / "pert.csv"
        save_field_csv(Field(grid, vals), path)
        cfg = ExperimentConfig(name="backlund-roundtrip", x_min=-64.0,
                               x_max=64.0, n=2048, perturbation="custom",
                               custom_file=str(path))
        rep = run_experiment(cfg)
        assert rep.summary["roundtrip_sup_error"] < 1e-6

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_custom_file_grid_matched_by_its_nodes(self, tmp_path, shift):
        # x_max = 63.9 is no dyadic number, so the grid rebuilt from the
        # file's decimals is not the config's to the bit; its nodes are
        grid = make_grid(-64.2, 63.9, 2048)
        file_grid = make_grid(grid.x_min + shift * grid.dx,
                              grid.x_max + shift * grid.dx, grid.n)
        path = tmp_path / "pert.csv"
        vals = 0.01 * np.exp(-grid.x**2) * (1 + 1j)
        save_field_csv(Field(file_grid, vals), path)
        kwargs = dict(name="backlund-roundtrip", x_min=grid.x_min,
                      x_max=grid.x_max, n=grid.n, perturbation="custom",
                      custom_file=str(path))
        if shift:  # refused when the config loads, before any run
            with pytest.raises(ValueError, match="does not match the config"):
                ExperimentConfig(**kwargs)
        else:
            rep = run_experiment(ExperimentConfig(**kwargs))
            assert rep.summary["roundtrip_sup_error"] < 1e-6


class TestInitialState:
    """Validation and the run share one initial state per config."""

    @pytest.mark.parametrize("kwargs", [
        dict(name="kink-stability", x_min=-32.0, x_max=32.0, n=512,
             t_end=2.0, snapshot_every=0.5),
        CHEAP,  # conservation of a kink
    ], ids=["kink-stability", "conservation-kink"])
    def test_sampled_once(self, kwargs, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_state(*args)

        monkeypatch.setattr(sgkink.experiments, "sample_state", counted)
        run_experiment(ExperimentConfig(**kwargs))
        assert len(calls) == 1

    def test_read_only_and_unchanged_by_the_run(self):
        cfg = ExperimentConfig(name="kink-stability", x_min=-32.0,
                               x_max=32.0, n=512, t_end=2.0,
                               snapshot_every=0.5)
        s0 = cfg.initial_state
        before = [f.values.tobytes() for f in (s0.phi, s0.phi_t)]
        run_experiment(cfg)
        assert cfg.initial_state is s0
        for f, bits in zip((s0.phi, s0.phi_t), before):
            assert not f.values.flags.writeable
            assert f.values.tobytes() == bits
            with pytest.raises(ValueError, match="read-only"):
                f.values[0] = 1.0


class TestBacklund:
    """Validation builds the Backlund transforms the runs start from."""

    @pytest.mark.parametrize("kwargs, forward, inverse", [
        (dict(name="kink-stability", x_min=-32.0, x_max=32.0, n=512,
              t_end=2.0, snapshot_every=0.5), 0, 1),
        (dict(name="backlund-roundtrip", x_min=-32.0, x_max=32.0, n=1024),
         1, 1),
    ], ids=["kink-stability", "backlund-roundtrip"])
    def test_built_once(self, kwargs, forward, inverse, monkeypatch):
        calls = {"forward": 0, "inverse": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(sgkink.experiments, "forward_transform",
                            counted("forward", forward_transform))
        monkeypatch.setattr(sgkink.experiments, "inverse_transform",
                            counted("inverse", inverse_transform))
        rep = run_experiment(ExperimentConfig(**kwargs))
        assert rep.passed, rep.failures
        assert calls == {"forward": forward, "inverse": inverse}

    @pytest.mark.parametrize("kwargs", [
        dict(name="kink-stability", x_min=-32.0, x_max=32.0, n=512,
             t_end=2.0, snapshot_every=0.5),
        dict(name="backlund-roundtrip", x_min=-32.0, x_max=32.0, n=1024),
    ], ids=["kink-stability", "backlund-roundtrip"])
    def test_read_only_and_unchanged_by_the_run(self, kwargs):
        cfg = ExperimentConfig(**kwargs)
        f, inv = cfg.backlund
        assert cfg.backlund is cfg.backlund
        assert "backlund" not in asdict(cfg)
        if cfg.name == "kink-stability":
            assert f is cfg.initial_state
        fields = (f.phi, f.phi_t, inv.phi.phi, inv.phi.phi_t)
        before = [g.values.tobytes() for g in fields]
        run_experiment(cfg)
        for g, bits in zip(fields, before):
            assert not g.values.flags.writeable
            assert g.values.tobytes() == bits
            with pytest.raises(ValueError, match="read-only"):
                g.values[0] = 1.0

    @given(left=st.integers(16, 128),
           right=st.one_of(st.none(), st.integers(16, 128)),
           n=st.sampled_from([256, 512, 1024, 2048]),
           beta0=st.floats(-0.9, 0.99), x0=st.floats(-25.0, 25.0),
           epsilon=st.floats(0.0, 0.2, exclude_min=True),
           perturbation=st.sampled_from(["gaussian", "odd-sech"]))
    @example(left=24, right=None, n=256, beta0=0.8, x0=0.0, epsilon=0.1,
             perturbation="gaussian")
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_roundtrip_validates_what_runs(self, left, right, n, beta0, x0,
                                           epsilon, perturbation):
        # a roundtrip config is refused, or its run returns a report: the
        # example's inverse stalls at gamma*dx = 0.313 and is refused
        try:
            cfg = ExperimentConfig(
                name="backlund-roundtrip", x_min=-float(left),
                x_max=float(left if right is None else right), n=n,
                beta0=beta0, x0=x0, epsilon=epsilon,
                perturbation=perturbation)
        except ValueError:
            return
        assert isinstance(run_experiment(cfg), Report)


class TestRunners:
    def test_conservation_kink(self):
        rep = run_experiment(ExperimentConfig(**CHEAP))
        assert rep.passed, rep.failures
        rows = rep.tables["conserved"]
        assert list(rows[0]) == ["t", "E0", "P", "E2", "E4"]
        assert rows[0]["t"] == 0.0 and rows[-1]["t"] == 5.0

    def test_conservation_breather_spectral(self):
        rep = run_experiment(ExperimentConfig(
            **{**CHEAP, "data": "breather", "scheme": "yoshida4"}
        ))
        assert rep.passed, rep.failures

    def test_residual_columns_are_backlund_residual_norms(self):
        # the runner takes the norms on raw arrays, with f_x from track's
        # record; the public definition is the L2 norm of
        # backlund_residual's fields, snapshot by snapshot, and the runner's
        # sum over those fields' own samples gives the same bits
        cfg = ExperimentConfig(name="kink-stability", x_min=-32.0,
                               x_max=32.0, n=512, t_end=2.0,
                               snapshot_every=0.5)
        rows = run_experiment(cfg).tables["tracking"]
        s0 = cfg.initial_state
        inv = inverse_transform(s0, cfg.beta0, cfg.x0)
        scheme = Scheme(SchemeKind(cfg.scheme), cfg.time_step)
        pairs = zip(snapshots(s0, scheme, cfg.t_end, cfg.snapshot_every),
                    snapshots(inv.phi, scheme, cfg.t_end, cfg.snapshot_every),
                    strict=True)
        for row, (s, p) in zip(rows, pairs, strict=True):
            res = backlund_residual(s, p, inv.a)
            for col, key in (("backlund_r1", "R1"), ("backlund_r2", "R2")):
                r = res[key].values
                assert row[col] == math.sqrt(_trapezoid(r, cfg.grid.dx, r))
                assert row[col] == pytest.approx(norm(res[key], Lp(2)),
                                                 rel=1e-12, abs=0.0), col

    def test_odd_sech_roundtrip(self):
        # odd data, the setting of Luhrmann and Schlag's stability result
        cfg = ExperimentConfig(name="backlund-roundtrip",
                               perturbation="odd-sech", epsilon=0.02)
        odd = -0.02 * sech(cfg.grid.x) * np.tanh(cfg.grid.x)
        for f in (cfg.initial_state.phi, cfg.initial_state.phi_t):
            np.testing.assert_array_equal(f.values, odd)
        rep = run_experiment(cfg)
        assert rep.passed, rep.failures
        assert rep.summary["roundtrip_sup_error"] < 1e-9

    def test_odd_sech_kink_stability(self):
        rep = run_experiment(ExperimentConfig(
            name="kink-stability", x_min=-64.0, x_max=64.0, n=2048,
            t_end=20.0, perturbation="odd-sech", epsilon=0.02))
        assert rep.passed, rep.failures
        assert rep.summary["max_pair_energy_over_eps"] < 2.0

    def test_roundtrip_small(self):
        rep = run_experiment(ExperimentConfig(
            name="backlund-roundtrip", x_min=-64.0, x_max=64.0, n=4096,
            epsilon=0.02,
        ))
        assert rep.passed, rep.failures
        assert rep.summary["roundtrip_sup_error"] < 1e-6


def traced_peak(cfg):
    """Peak bytes that tracemalloc sees while run_experiment(cfg) runs."""
    tracemalloc.start()
    try:
        run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    """Runners fold each snapshot into their tables as it arrives, so their
    memory does not grow with the number of snapshots."""

    @pytest.mark.parametrize("base", [
        dict(name="kink-stability", x_min=-32.0, x_max=32.0, n=512,
             snapshot_every=0.5, t_end=10.0),
        dict(name="conservation", x_min=-64.0, x_max=64.0, n=1024,
             data="breather", scheme="yoshida4", dt=1 / 16,
             snapshot_every=0.25, t_end=5.0),
    ], ids=lambda base: base["name"])
    def test_peak_memory_flat_in_t_end(self, base):
        short = ExperimentConfig(**base)
        long = ExperimentConfig(**{**base, "t_end": 2 * base["t_end"]})
        run_experiment(short)  # lazy imports (numpy.fft) out of the peaks
        peaks = [traced_peak(short), traced_peak(long)]
        assert peaks[1] <= 1.15 * peaks[0], peaks


class TestWriteReport:
    def test_files_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(**CHEAP, save_snapshots=True)
        rep1 = run_experiment(cfg)
        rep2 = run_experiment(cfg)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_report(rep1, d1)
        write_report(rep2, d2)
        for name in ("report.json", "conserved.csv", "final_phi.sgf"):
            assert (d1 / name).exists()
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        doc = json.loads((d1 / "report.json").read_text())
        assert doc["passed"] is True
        assert doc["config"]["name"] == "conservation"
        assert doc["tables"] == ["conserved"]

    def test_empty_report(self, tmp_path):
        rep = Report(config={"name": "conservation"})
        write_report(rep, tmp_path / "empty")
        doc = json.loads((tmp_path / "empty" / "report.json").read_text())
        assert doc["passed"] is True and doc["tables"] == []


@pytest.fixture()
def cheap_config(tmp_path):
    path = tmp_path / "cons.json"
    path.write_text(json.dumps(CHEAP))
    return path


class TestCli:
    def test_import_loads_no_scipy(self):
        # sgkink runs on numpy alone; scipy is a test-only reference, and
        # configs run in sequence, with no process pool; numpy.polynomial
        # loads only at the first outward kink sweep
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        code = ("import sys, sgkink.cli; print(sorted(m for m in sys.modules "
                "for p in ('scipy', 'concurrent.futures', 'multiprocessing', "
                "'numpy.polynomial') "
                "if m == p or m.startswith(p + '.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(EXPERIMENT_NAMES)

    def test_validate_good(self, cheap_config, capsys):
        assert main(["validate", str(cheap_config)]) == 0
        assert "conservation" in capsys.readouterr().out

    def test_validate_bad_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "none.json")]) == 1
        assert "No such file or directory" in capsys.readouterr().err

    def test_validate_bad_values(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**CHEAP, "epsilon": 9.0}))
        assert main(["validate", str(bad)]) == 1
        assert ("epsilon must lie in (0, 0.2], got 9.0"
                in capsys.readouterr().err)

    def test_validate_rejects_unknown_field(self, tmp_path, capsys):
        # m was a config field that no runner read; it is refused, not ignored
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"name": "conservation", "m": 3}))
        assert main(["validate", str(bad)]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_validate_rejects_fractional_step_counts(self, tmp_path, capsys):
        # run would refuse dt=0.3 against t_end=1.0 and snapshot_every=0.25
        bad = tmp_path / "steps.json"
        bad.write_text(json.dumps({
            "name": "conservation", "x_min": -64, "x_max": 64, "n": 2048,
            "data": "breather", "scheme": "strang", "dt": 0.3,
            "t_end": 1.0, "snapshot_every": 0.25,
        }))
        assert main(["validate", str(bad)]) == 1
        assert ("t_end=1.0 is not a positive whole number of steps dt=0.3"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("cfg, message", [
        # whole step counts at dt = 0.875 dx, past the leapfrog's CFL bound
        ({"name": "conservation", "x_min": -64, "x_max": 64, "n": 2048,
          "dt": 0.0546875, "t_end": 7.0, "snapshot_every": 0.4375},
         "CFL violation"),
        ({"name": "conservation", "scheme": "yoshida4"}, "zero topology"),
        ({"name": "kink-stability", "scheme": "yoshida4"}, "zero topology"),
        # the run would integrate, then end in fit_decay_exponent: 7
        # snapshots in [20, 50], or none at all (an IndexError)
        ({**SMALL, "t_end": 50.0, "snapshot_every": 5.0},
         "the decay fit needs >= 10 snapshots at 20.0 <= t <= 50.0, got 7"),
        ({**SMALL, "t_end": 10.0, "snapshot_every": 5.0},
         "the decay fit needs >= 10 snapshots at 20.0 <= t <= 10.0, got 0"),
        # packets reach |xi| <= 0.427 at t = 160; the predictor at t = 60
        # reads |x| <= 30, |xi| up to 1/sqrt(3)
        ({**SMALL, "n": 2048, "epsilon": 0.15, "t_end": 160.0,
          "snapshot_every": 5.0},
         "the predictor at t=60.0 reads |xi| up to 0.577, past the "
         "profile's 0.427"),
        # the cells above 1e-13 times the data's sup span [-5.438, 5.438];
        # by t = 120 the radiation reaches past either end of [-64, 64]
        # and the periodic grid would wrap it around
        ({**SMALL, "n": 2048, "epsilon": 0.15, "t_end": 120.0,
          "snapshot_every": 1.0},
         "reaches [-125.438, 125.438] by t_end=120.0, past the grid's "
         "[-64.0, 64.0]: it would wrap around"),
        # the exterior trend compares halves of the snapshots at t >= 10
        ({"name": "exterior-decay", "t_end": 9.0},
         "the exterior trend check needs >= 2 snapshots at t >= 10.0, got 0"),
        ({"name": "exterior-decay", "t_end": 10.0},
         "the exterior trend check needs >= 2 snapshots at t >= 10.0, got 1"),
        # the last node of [-64, 64) is -64, so |x| >= t is empty from t = 65
        ({"name": "exterior-decay", "x_min": -64.0, "x_max": 64.0,
          "n": 2048, "t_end": 100.0, "snapshot_every": 5.0},
         "the exterior region |x| >= t is empty at t=65.0"),
        # with no snapshot at t >= 20 the run judged nothing; with one, the
        # ratio inf/initial was 1 by construction
        ({"name": "wobbler", "t_end": 10.0},
         "the pair-energy check needs >= 2 snapshots at t >= 20.0, got 0"),
        ({"name": "wobbler", "t_end": 20.0},
         "the pair-energy check needs >= 2 snapshots at t >= 20.0, got 1"),
        # WobblingKink(beta0) sits at x = 0 whatever x0 is; tracking seeded
        # from x0 = 5 would look for a kink where there is none
        ({"name": "wobbler", "x0": 5.0},
         "the wobbling kink sits at x = 0; x0 must be 0, got 5.0"),
        # at beta0 = 0 the wobbling kink is the static kink: its pair energy
        # is discretisation noise, and the ratio passed at 0.986
        ({"name": "wobbler", "beta0": 0.0},
         "the wobbling kink at beta0 = 0 is the static kink"),
        # the inverse Backlund transform stalls as gamma*dx grows; both
        # validated, and their runs ended in a traceback
        (STALLED_KINK, "the inverse Backlund transform does not converge: "),
        (STALLED_KINK, "(gamma*dx = 0.287)"),
        (STALLED_ROUNDTRIP, "(gamma*dx = 0.255)"),
        # the roundtrip runs no evolve; it refuses what forward_transform
        # refuses: the base kink's beta, an anchor off the grid, and tails
        # short of (0, 2 pi) when the kink sits 6 from the grid's end
        ({"name": "backlund-roundtrip", "beta0": 1.5},
         "|beta| must be < 1, got 1.5"),
        ({"name": "backlund-roundtrip", "x0": 300}, "anchor outside grid"),
        ({"name": "backlund-roundtrip", "x0": 250},
         "tails did not converge to (0, 2pi)"),
        # the kink's path ends 2 from the grid's end: it validated, and the
        # run raised "center jumped by 0.647 at t=59.0"
        ({"name": "kink-stability", "x_min": -32, "x_max": 32, "n": 512,
          "epsilon": 0.15, "beta0": -0.5, "t_end": 60},
         "the kink's path x0 + beta0 t reaches x = -30.000 by t_end=60"),
        # 6 from the end: both checks failed, and both pass on [-64, 192)
        ({**EXTERIOR, "n": 1024, "beta0": 0.5, "x0": 28.0, "t_end": 60.0},
         "with 12 widths 1/gamma = 10.392 a side it must stay inside the "
         "grid's [-64.0, 64.0]"),
        # json writes inf and nan as Infinity and NaN, which it reads back
        ({**CHEAP, "t_end": np.inf},
         "t_end=inf is not a positive whole number of steps dt=0.03125"),
        ({**CHEAP, "t_end": np.nan},
         "t_end=nan is not a positive whole number of steps dt=0.03125"),
        ({**CHEAP, "snapshot_every": np.inf}, "snapshot_every=inf is not a "
         "positive whole number of steps dt=0.03125"),
        ({**CHEAP, "snapshot_every": np.nan}, "snapshot_every=nan is not a "
         "positive whole number of steps dt=0.03125"),
        # a dt of NaN or Infinity is refused as such, not blamed on t_end
        ({**CHEAP, "dt": np.nan}, "dt must be positive and finite, got nan"),
        ({**CHEAP, "dt": np.inf}, "dt must be positive and finite, got inf"),
        # the exterior bound's weight <r>^(-s); s = Infinity ended the run
        # in a ZeroDivisionError, NaN and -3 judged as s = 1 did
        ({**EXTERIOR, "s": np.inf}, "s must be finite and >= 0, got inf"),
        ({**EXTERIOR, "s": np.nan}, "s must be finite and >= 0, got nan"),
        ({**EXTERIOR, "s": -3.0}, "s must be finite and >= 0, got -3.0"),
    ], ids=["leapfrog-cfl", "conservation-kink-spectral",
            "kink-stability-spectral", "decay-fit-7-snapshots",
            "decay-fit-no-snapshots", "profile-too-narrow",
            "radiation-wraps-around",
            "exterior-no-snapshots", "exterior-one-snapshot",
            "exterior-region-empty", "wobbler-no-snapshots",
            "wobbler-one-snapshot", "wobbler-x0", "wobbler-beta0-zero",
            "kink-stability-inverse", "kink-stability-inverse-gamma-dx",
            "roundtrip-inverse-gamma-dx", "roundtrip-beta",
            "roundtrip-anchor", "roundtrip-tails", "kink-stability-path",
            "exterior-decay-path", "t-end-infinity",
            "t-end-nan",
            "snapshot-every-infinity", "snapshot-every-nan", "dt-nan",
            "dt-infinity", "s-infinity", "s-nan", "s-negative"])
    def test_validate_rejects_what_run_refuses(self, cfg, message, tmp_path,
                                               capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["validate", str(bad)]) == 1
        assert message in capsys.readouterr().err

    def test_validate_rejects_predictor_times_off_snapshots(self, tmp_path,
                                                            capsys):
        # 0.375*t_end = 75 is not a multiple of snapshot_every = 2, so the run
        # would integrate to t = 200 and then find no snapshot at t = 75
        bad = tmp_path / "predictor.json"
        bad.write_text(json.dumps({
            "name": "small-data-scattering", "scheme": "yoshida4",
            "snapshot_every": 2, "t_end": 200,
        }))
        assert main(["validate", str(bad)]) == 1
        assert ("predictor time 75.0 is not a snapshot time "
                "(snapshot_every=2)") in capsys.readouterr().err

    def test_validate_rejects_a_grid_too_narrow(self, tmp_path, capsys):
        # the kink's tails are not at 0 and 2 pi on [-8, 8), so its initial
        # data cannot be built; validate builds them, as the run would
        bad = tmp_path / "narrow.json"
        bad.write_text(json.dumps(NARROW))
        assert main(["validate", str(bad)]) == 1
        assert "grid too narrow" in capsys.readouterr().err

    def test_run_refuses_a_grid_too_narrow_before_running(
            self, cheap_config, tmp_path, capsys):
        bad = tmp_path / "narrow.json"
        bad.write_text(json.dumps(NARROW))
        out = tmp_path / "sweep"
        assert main(["run", str(cheap_config), str(bad),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "grid too narrow" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_run_refuses_a_stalled_inverse_before_running(
            self, cheap_config, tmp_path, capsys):
        bad = tmp_path / "stalled.json"
        bad.write_text(json.dumps(STALLED_KINK))
        out = tmp_path / "sweep"
        assert main(["run", str(cheap_config), str(bad),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "(gamma*dx = 0.287)" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_validate_shipped_configs(self):
        paths = sorted(CONFIGS.glob("*.json"))
        assert len(paths) == 8
        for path in paths:
            assert main(["validate", str(path)]) == 0, path.name

    def test_run_single(self, cheap_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(cheap_config), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert "ok" in capsys.readouterr().out

    def test_run_sweep_layout(self, cheap_config, tmp_path):
        other = cheap_config.parent / "cons2.json"
        other.write_text(json.dumps({**CHEAP, "t_end": 2.0}))
        out = tmp_path / "sweep"
        code = main(["run", str(cheap_config), str(other), "--out", str(out)])
        assert code == 0
        assert (out / "cons" / "report.json").exists()
        assert (out / "cons2" / "report.json").exists()

    def test_run_checks_every_config_first(self, cheap_config, tmp_path,
                                           capsys):
        # the bad config comes last, and nothing runs before it is refused
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "conservation", "epsilon": 5}))
        out = tmp_path / "sweep"
        assert main(["run", str(cheap_config), str(bad),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"invalid config: {bad}: " in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        None,        # no file: OSError
        "{not json",  # json.JSONDecodeError, a ValueError
        "[1, 2]",    # not an object: TypeError
        '{"name": "conservation", "dt": 0}',  # was a ZeroDivisionError
    ], ids=["missing", "bad-json", "not-object", "zero-dt"])
    def test_run_refuses_unloadable_config(self, text, tmp_path, capsys):
        # run shares validate's loader, so it exits 1 with a message, not a
        # traceback, for each error that validate catches
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"invalid config: {path}: ")
        assert captured.out == ""
        assert not out.exists()

    def test_run_reports_every_bad_config(self, cheap_config, tmp_path,
                                          capsys):
        # every config is loaded, so one command names all the bad ones
        bad = []
        for stem, cfg in (("eps", {"name": "conservation", "epsilon": 5}),
                          ("m", {"name": "conservation", "m": 3})):
            bad.append(tmp_path / f"{stem}.json")
            bad[-1].write_text(json.dumps(cfg))
        assert main(["run", str(bad[0]), str(cheap_config), str(bad[1]),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in err] == list(map(str, bad))

    def test_validate_names_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "conservation", "epsilon": 5}))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"invalid config: {bad}: ")

    def test_run_refuses_shared_stems(self, tmp_path, capsys):
        paths = []
        for sub, t_end in (("a", 5.0), ("b", 2.0)):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "c.json")
            paths[-1].write_text(json.dumps({**CHEAP, "t_end": t_end}))
        out = tmp_path / "sweep"
        assert main(["run", *map(str, paths), "--out", str(out)]) == 1
        assert "'c'" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_run_exits_one(self, tmp_path, capsys):
        # a perturbed kink integrated coarsely drifts E2/E4 past tolerance
        cfg = dict(CHEAP, data="perturbed-kink", epsilon=0.2, n=512,
                   t_end=20.0)
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr().out
        if code == 1:
            assert "FAILED" in captured
        else:
            pytest.skip("coarse run stayed within tolerance")
