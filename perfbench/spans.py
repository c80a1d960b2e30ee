"""Spans around calls into each module's public functions.

The tracer wraps functions and methods from outside the package: for a
function it rebinds every ``shapeflow`` module attribute that holds it, so
calls through ``from .x import f`` are caught too.  Spans stay in memory as
(id, parent id, name, start, end) and are written out when the run ends.
A span's self time is its duration minus the durations of its children;
children of a span are nested in it because the traced code runs on one
thread.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import sys
import time

# (module, attribute path, span name); a span name holding "{0}" is filled
# with the first positional argument (the check suite).
TARGETS = (
    ("series", "TruncatedSeries.__init__", "series.init"),
    ("driver", "HerglotzDriver.moments", "driver.moments"),
    ("driver", "HerglotzDriver.validate", "driver.validate"),
    ("evolution", "rhs", "evolution.rhs"),
    ("evolution", "generating_function", "evolution.generating_function"),
    ("evolution", "pseudo_hamiltonian", "evolution.pseudo_hamiltonian"),
    ("evolution", "evolve", "evolution.evolve"),
    ("evolution", "TrajectoryRecord.to_csv", "evolution.to_csv"),
    ("observables", "poisson_bracket", "observables.poisson_bracket"),
    ("observables", "gbar_coefficient", "observables.gbar_coefficient"),
    ("observables", "corrected_G", "observables.corrected_G"),
    ("observables", "iota", "observables.iota"),
    ("virasoro", "kirillov_L", "virasoro.kirillov_L"),
    ("virasoro", "commutator", "virasoro.commutator"),
    ("virasoro", "schaeffer_spencer", "virasoro.schaeffer_spencer"),
    ("grassmannian", "step2_graph", "grassmannian.step2_graph"),
    ("kp", "ABForm.build", "kp.abform_build"),
    ("kp", "omega1_and_partials", "kp.omega1"),
    ("kp", "kp_residual", "kp.kp_residual"),
    ("kp", "tau", "kp.tau"),
    ("kp", "schur", "kp.schur"),
    ("checks", "run_suite", "checks.{0}"),
    ("cli", "main", "cli.command"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo = []
        self._on = [True]

    def _wrap(self, fn, name):
        spans, stack, ids, on, clock = self.spans, self._stack, self._ids, self._on, time.perf_counter
        fill = "{0}" in name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            sid = next(ids)
            label = name.format(args[0]) if fill else name
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, label, start, end))

        return traced

    def install(self):
        """Wrap every target; undone by ``remove``."""
        for module, path, name in TARGETS:
            mod = sys.modules[f"shapeflow.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            fn = getattr(mod, path)
            new = self._wrap(fn, name)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("shapeflow") and other.__dict__.get(path) is fn:
                    setattr(other, path, new)
                    self._undo.append((other, path, fn))

    @contextlib.contextmanager
    def paused(self):
        """No spans inside: the output checks call the library too."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self):
        """Span name -> (count, total self seconds)."""
        child = collections.defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child[parent] += end - start
        count = collections.Counter()
        self_s = collections.defaultdict(float)
        for sid, _, name, start, end in self.spans:
            count[name] += 1
            self_s[name] += (end - start) - child[sid]
        return {name: (count[name], self_s[name]) for name in count}

    def write(self, path):
        """Spans as JSON lines: id, parent, name, start and end in seconds."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, round(start, 9), round(end, 9)]) + "\n")
