"""Spans around sgkink's public functions, recorded from outside the package.

`Tracer.recording()` replaces each traced function at every sgkink module
binding site (so `sgkink.tracking.norm` as well as `sgkink.fields.norm`,
which catches calls made through `from .x import y` names) with a wrapper
that records a span, and puts the originals back on exit.  Spans stay in
memory as (run, name, start, end, parent) tuples until written out.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from time import perf_counter

# module -> public functions whose calls are spans
TRACED = {
    "evolve": ("evolve", "conserved_quantities"),
    "fields": ("spatial_derivative", "bessel_multiplier", "norm"),
    "exact": ("kink_identities", "sample_state"),
    "backlund": ("forward_transform", "inverse_transform", "eval_F",
                 "solve_linearized_F2", "operator_I", "reconstruct_difference",
                 "backlund_residual"),
    "tracking": ("track", "solve_center", "center_velocity"),
    "scattering": ("extract_W", "gamma_profile", "wave_packet", "to_complex_u",
                   "predict_asymptotics"),
    "experiments": ("run_experiment", "write_report"),
    "cli": ("main",),
}
# `norm` spans are named by their spec type, e.g. fields.norm.L2PlusLinf
NORM_SPECS = ("Lp", "L2PlusLinf", "PairEnergy")


def span_names() -> list:
    names = []
    for mod, funcs in TRACED.items():
        for fn in funcs:
            if (mod, fn) == ("fields", "norm"):
                names += [f"fields.norm.{spec}" for spec in NORM_SPECS]
            else:
                names.append(f"{mod}.{fn}")
    return names


def _sgkink_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sgkink" or name.startswith("sgkink."))]


class Tracer:
    def __init__(self):
        self.spans = []        # (run, name, start, end, parent index or -1)
        self.counters = {}     # (run, name) -> int, from call arguments
        self._stack = []
        self._run = 0
        self._originals = {}   # original function -> wrapper

    def _wrap(self, name: str, orig):
        spans, stack = self.spans, self._stack
        evolve_sig = inspect.signature(orig) if name == "evolve.evolve" else None

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "fields.norm":
                span_name = f"fields.norm.{type(args[1] if len(args) > 1 else kwargs['spec']).__name__}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self._run, span_name, start, end, parent)
            if evolve_sig is not None:
                a = evolve_sig.bind(*args, **kwargs).arguments
                steps = int(round((a["t_end"] - a["s0"].time) / a["scheme"].dt))
                self._count("evolve.steps", steps)
                self._count("evolve.snapshots", len(result.states))
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = orig.__name__
        return wrapper

    def _count(self, key: str, n: int) -> None:
        k = (self._run, key)
        self.counters[k] = self.counters.get(k, 0) + n

    def unwrapped_bindings(self) -> list:
        """sgkink namespaces that still bind an original traced function."""
        return [f"{m.__name__}.{attr}" for m in _sgkink_modules()
                for attr, val in vars(m).items()
                if any(val is orig for orig in self._originals)]

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers for one traced run; yields its run id."""
        self._run += 1
        mods = _sgkink_modules()
        for mod, funcs in TRACED.items():
            owner = sys.modules[f"sgkink.{mod}"]
            for fn in funcs:
                orig = getattr(owner, fn)
                self._originals[orig] = self._wrap(f"{mod}.{fn}", orig)
        patched = []
        for m in mods:
            for attr, val in list(vars(m).items()):
                wrapper = self._originals.get(val) if callable(val) else None
                if wrapper is not None:
                    setattr(m, attr, wrapper)
                    patched.append((m, attr, val))
        try:
            yield self._run
        finally:
            for m, attr, val in patched:
                setattr(m, attr, val)
            self._originals.clear()

    def summary(self, run: int) -> dict:
        """Per span name: calls and self time, for one run id."""
        own = {}
        child_time = {}
        for idx, (r, name, start, end, parent) in enumerate(self.spans):
            if r != run:
                continue
            own[idx] = (name, end - start, parent)
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for idx, (name, dur, _) in own.items():
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + dur - child_time.get(idx, 0.0))
        return out

    def top_level_seconds(self, run: int) -> float:
        return sum(end - start for r, _, start, end, parent in self.spans
                   if r == run and parent < 0)

    def nested_count(self, run: int, name: str, ancestor: str) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        spans = self.spans
        count = 0
        for r, n, _, _, parent in spans:
            if r != run or n != name:
                continue
            while parent >= 0:
                if spans[parent][1] == ancestor:
                    count += 1
                    break
                parent = spans[parent][4]
        return count

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run,index,parent,name,start,end\n")
            for idx, (r, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{r},{idx},{parent},{name},{start:.9f},{end:.9f}\n")
