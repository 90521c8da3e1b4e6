"""In-memory span tracer wrapped around volknit's public functions.

The tracer patches module attributes and class methods from outside the
package, so nothing under src/ changes.  Each call of a wrapped function
records one span (name, start, end, parent span) and, for a few functions,
a note such as the batch size or the iteration count it returned.  Spans
stay in memory until `dump` writes them out; `summarize` turns a dump into
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time


def _batch(args, kwargs, out):
    return {"elements": int(len(args[0]))}


def _polish_iters(args, kwargs, out):
    return {"iters": int(out[2])}


def _gn_rejected(args, kwargs, out):
    return {"rejected": 0 if out[2] else 1}


def _solver_mode(args, kwargs, out):
    return {"mode": args[0].mode}


# (module, attribute path, note).  "Class.method" wraps a method;
# "Class.__init__" records a span named after the class.
TARGETS = [
    ("yarn_model", "simulate_yarn", None),
    ("yarn_model", "read_sequence", None),
    ("yarn_model", "write_sequence", None),
    ("volmesh", "voxelize", None),
    ("volmesh", "embed_yarn", None),
    ("volmesh", "lump_mass", None),
    ("volmesh", "read_mesh", None),
    ("volmesh", "write_mesh", None),
    ("transfer", "Y2VOperator.__init__", None),
    ("transfer", "Y2VOperator.transfer", None),
    ("transfer", "estimate_inertia", None),
    ("transfer", "v2y", None),
    ("material", "batch_projections", _batch),
    ("material", "projection_jacobians_batch", _batch),
    ("material", "svd_rv_batch", None),
    ("material", "sl3_sigma_project", None),
    ("pdsolver", "assemble_global", None),
    ("pdsolver", "GlobalSolver.__init__", None),
    ("pdsolver", "GlobalSolver.solve", _solver_mode),
    ("pdsolver", "build_cms", None),
    ("pdsolver", "a_jacobi_refine", None),
    ("pdsolver", "pd_step", None),
    ("pdsolver", "pd_equilibrium", None),
    ("pdsolver", "newton_polish", _polish_iters),
    ("pdsolver", "exact_elastic_hessian", None),
    ("pdsolver", "elastic_gradient", None),
    ("pdsolver", "elastic_energy", None),
    ("fitting", "FitProblem.solve_equilibrium", None),
    ("fitting", "adjoint_gradient", None),
    ("fitting", "adjoint_gauss_newton", _gn_rejected),
    ("fitting", "harmonic_basis", None),
    ("fitting", "build_sample", None),
    ("fitting", "fit_staged", None),
    ("fitting", "fit_sequence", None),
    ("cli", "cmd_generate", None),
    ("cli", "cmd_voxelize", None),
    ("cli", "cmd_fit", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_compare", None),
]


def span_name(module, path):
    return f"{module}.{path.removesuffix('.__init__')}"


# Spans that call other wrapped functions; these also report self time.
PARENTS = [
    "volmesh.lump_mass",
    "transfer.Y2VOperator.transfer",
    "transfer.estimate_inertia",
    "material.batch_projections",
    "material.projection_jacobians_batch",
    "pdsolver.GlobalSolver.solve",
    "pdsolver.pd_step",
    "pdsolver.pd_equilibrium",
    "pdsolver.newton_polish",
    "pdsolver.exact_elastic_hessian",
    "pdsolver.elastic_gradient",
    "pdsolver.elastic_energy",
    "fitting.FitProblem.solve_equilibrium",
    "fitting.adjoint_gradient",
    "fitting.build_sample",
    "fitting.fit_staged",
    "fitting.fit_sequence",
    "cli.cmd_generate",
    "cli.cmd_voxelize",
    "cli.cmd_fit",
    "cli.cmd_simulate",
    "cli.cmd_compare",
]


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.notes = {}
        self._stack = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self._stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, out)
            return out
        return traced

    def install(self, package):
        """Wrap every target in the imported volknit package."""
        modules = {m: getattr(package, m) for m in
                   ("yarn_model", "volmesh", "transfer", "material",
                    "pdsolver", "fitting", "cli")}
        for modname, path, note in TARGETS:
            mod = modules[modname]
            name = span_name(modname, path)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], note))
                continue
            orig = getattr(mod, path)
            traced = self.wrap(name, orig, note)
            # rebind every reference: module globals and the CLI table
            for other in modules.values():
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, traced)
            for key, val in modules["cli"].COMMANDS.items():
                if val is orig:
                    modules["cli"].COMMANDS[key] = traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "parents": self.parents,
                       "starts": self.starts, "ends": self.ends,
                       "notes": {str(k): v for k, v in self.notes.items()}},
                      fh)


def summarize(dump):
    """Per-name calls, inclusive seconds, self seconds and summed notes.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process run on one thread, so children never
    overlap.  No wrapped function calls itself, so inclusive times of one
    name never overlap either.
    """
    names, parents = dump["names"], dump["parents"]
    dur = [e - s for s, e in zip(dump["starts"], dump["ends"])]
    child = [0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    out = {}
    for i, name in enumerate(names):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["s"] += dur[i] * 1e-9
        rec["self_s"] += (dur[i] - child[i]) * 1e-9
    for key, note in dump["notes"].items():
        i = int(key)
        rec = out[names[i]]
        for k, v in note.items():
            if k == "mode":
                sub = rec.setdefault(v, {"calls": 0, "s": 0.0})
                sub["calls"] += 1
                sub["s"] += dur[i] * 1e-9
            else:
                rec[k] = rec.get(k, 0) + v
    return out
