"""Spans around calls into the program's layers, recorded from outside.

Each hook replaces a public function or method of the `stsdiff` package
with a wrapper that records (name, start, end, parent) in memory.  A
function imported by name into other modules is replaced wherever that
module binds the same object.  A hook whose target is missing leaves its
layer unmeasured instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np


def _stages(args, out):
    return args[4].s                     # sts_step(rhs, t, f, h, coeffs)


def _estimate(args, out):
    return out.iters, abs(out.lambda_approx)


def _run_stats(args, out):
    stats = out[1]                       # (samples, stats[, blew_up])
    return stats.attempted, stats.rejected, stats.accepted


# span name, module, attribute path, what to keep of each call
HOOKS = (
    ("problems.rhs", "stsdiff.problems.dg", "DgProblem.rhs", None),
    ("problems.rhs", "stsdiff.problems.fd", "FdProblem.rhs", None),
    ("sts.step", "stsdiff.integrators.sts", "sts_step", _stages),
    ("sts.error", "stsdiff.integrators.sts", "hermite_error", None),
    ("ssp.step", "stsdiff.integrators.ssp", "ssp_step", None),
    ("dirk.step", "stsdiff.integrators.dirk", "dirk_step", None),
    ("dirk.cg", "stsdiff.integrators.dirk", "cg_solve", None),
    ("state.wrms", "stsdiff.state", "wrms", None),
    ("domeig.power", "stsdiff.domeig", "power_iterate", _estimate),
    ("timeloop.advance", "stsdiff.timeloop", "advance_adaptive", _run_stats),
    ("timeloop.advance", "stsdiff.timeloop", "advance_fixed", _run_stats),
    ("bench.reference", "stsdiff.bench", "compute_reference", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.kept: dict[str, list] = {}
        self.installed: set[str] = set()
        self.unmeasured: list[str] = []
        self._undo = []

    def wrap(self, name: str, fn, keep=None):
        """`fn` recording a span per call; keep(args, result), when
        given, picks what to store of each call in self.kept[name]."""
        names, start, end, parent = self.names, self.start, self.end, \
            self.parent
        stack = self._stack
        kept = self.kept.setdefault(name, [])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if keep is not None:
                kept.append(keep(args, out))
            return out

        return traced

    def install(self, hooks=HOOKS):
        self.unmeasured = []
        for name, module_name, attr, keep in hooks:
            try:
                module = importlib.import_module(module_name)
                *owner_path, leaf = attr.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                target = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.unmeasured.append(f"{module_name}.{attr}")
                continue
            self.installed.add(name)
            wrapper = self.wrap(name, target, keep)
            if owner_path:
                self._patch(owner, leaf, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("stsdiff") \
                        and getattr(mod, leaf, None) is target:
                    self._patch(mod, leaf, wrapper)

    def clear(self):
        """Drops recorded spans and kept values; hooks stay installed."""
        for seq in (self.names, self.start, self.end, self.parent,
                    *self.kept.values()):
            seq.clear()

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def arrays(self):
        """(names, duration, self time), one entry per span."""
        names = np.array(self.names)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside],
                            minlength=len(dur))
        return names, dur, dur - child

    def save(self, path: str):
        """Writes the spans as arrays: `names[code]` is each span's name,
        `parent` the index of its enclosing span or -1."""
        names, code = np.unique(np.array(self.names, dtype=str),
                                return_inverse=True)
        np.savez(path, names=names, code=code.astype(np.uint8),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int32))
