"""Spans and counters recorded around gradguide's public functions.

Spans are recorded from outside the package: ``install`` replaces module
attributes (``ad.backward``, ``gd.build_objective``, ``tr.train_step``, ...)
with timing wrappers.  gradguide's modules call each other through those
attributes (``from . import autodiff as ad``) and call their own functions
through module globals, so every call lands in a wrapper.

A span is (name, start, end, parent).  Spans stay in flat arrays in memory
and are written to one ``.npz`` file when the run ends; ``aggregate`` turns
such a file into per-name call counts, total and self times.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import weakref
from array import array
from collections import Counter

import numpy as np

# Op kinds whose public function has a trailing underscore.
_OP_ATTR = {"sum": "sum_", "slice": "slice_"}

# (module alias, attribute, span name, error counter) for every wrapped
# function other than the autodiff ops, backward and new_tape.
_FUNCTIONS = (
    ("ad", "hvp", "autodiff.hvp", "autodiff.errors"),
    ("md", "forward", "model.forward", None),
    ("md", "accuracy", "model.accuracy", None),
    ("md", "init_params", "model.init_params", None),
    ("gd", "build_objective", "guidance.build_objective", "guidance.errors"),
    ("gd", "base_loss", "guidance.base_loss", "guidance.errors"),
    ("gd", "regularizer_gradient_wrt_g", "guidance.regularizer_gradient_wrt_g",
     "guidance.errors"),
    ("gd", "update_prior", "guidance.update_prior", "guidance.errors"),
    ("tr", "train", "trainer.train", None),
    ("tr", "evaluate", "trainer.evaluate", None),
    ("tr", "write_step_csv", "trainer.write_step_csv", None),
    ("tr", "write_report_json", "trainer.write_report_json", None),
    ("tk", "make_gaussian_task", "tasks.make_gaussian_task", None),
    ("tk", "make_task_pair", "tasks.make_task_pair", None),
    ("tk", "few_shot_split", "tasks.few_shot_split", None),
    ("mt", "gradient_stability", "metrics.gradient_stability", None),
    ("mt", "alignment_from_cosines", "metrics.alignment_from_cosines", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "materialize", "cli.materialize", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span log plus named counters for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.tapes_live = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, error_counter: str | None = None):
        """``fn`` with a span named ``name`` around every call; exceptions
        leaving it bump ``error_counter`` and propagate unchanged."""
        nid = self._intern(name)
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if error_counter is not None:
                    counters[error_counter] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def write(self, path) -> None:
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 counters=np.array(json.dumps(self.counters)))


def _wrap_new_tape(tracer: Tracer, new_tape):
    """Count tapes, their node totals and how many are alive at once.

    A tape counts as alive until it is garbage collected, which
    ``weakref.finalize`` observes without holding a reference to it.
    """
    counters = tracer.counters

    def released():
        tracer.tapes_live -= 1

    @functools.wraps(new_tape)
    @contextlib.contextmanager
    def wrapper():
        with new_tape() as tape:
            counters["autodiff.new_tape.calls"] += 1
            tracer.tapes_live += 1
            counters["autodiff.tapes_live.max"] = max(counters["autodiff.tapes_live.max"],
                                                      tracer.tapes_live)
            weakref.finalize(tape, released)
            try:
                yield tape
            finally:
                counters["autodiff.tape_nodes"] += len(tape)

    return wrapper


def _wrap_backward(tracer: Tracer, backward):
    """Separate spans for first-order and ``create_graph`` sweeps."""
    plain = tracer.wrap(backward, "autodiff.backward", "autodiff.errors")
    graph = tracer.wrap(backward, "autodiff.backward_cg", "autodiff.errors")

    @functools.wraps(backward)
    def wrapper(scalar, wrt, create_graph=False):
        return (graph if create_graph else plain)(scalar, wrt, create_graph=create_graph)

    return wrapper


def _wrap_train_step(tracer: Tracer, train_step, divergence_error):
    counters = tracer.counters

    @functools.wraps(train_step)
    def wrapper(*args, **kwargs):
        try:
            return train_step(*args, **kwargs)
        except divergence_error:
            counters["trainer.divergences"] += 1
            raise

    return tracer.wrap(wrapper, "trainer.train_step")


def _replace(module, attr: str, make) -> None:
    """Wrap ``module.attr``.  A missing attribute fails the traced run, so a
    renamed or removed function cannot read as a metric of 0."""
    if not hasattr(module, attr):
        raise AttributeError(f"perfbench: {module.__name__}.{attr} not found; "
                             f"update tracer.py and BENCHMARK.json")
    setattr(module, attr, make(getattr(module, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every traced gradguide function in place."""
    from gradguide import autodiff as ad
    from gradguide import cli, guidance as gd, metrics as mt, model as md
    from gradguide import tasks as tk, trainer as tr

    modules = {"ad": ad, "md": md, "gd": gd, "tr": tr, "tk": tk, "mt": mt, "cli": cli}
    for kind in ad.OP_KINDS:
        _replace(ad, _OP_ATTR.get(kind, kind),
                 lambda fn, k=kind: tracer.wrap(fn, f"autodiff.op.{k}", "autodiff.errors"))
    _replace(ad, "backward", lambda fn: _wrap_backward(tracer, fn))
    _replace(ad, "new_tape", lambda fn: _wrap_new_tape(tracer, fn))
    _replace(tr, "train_step", lambda fn: _wrap_train_step(tracer, fn, tr.DivergenceError))
    for alias, attr, name, errors in _FUNCTIONS:
        _replace(modules[alias], attr, lambda fn, n=name, e=errors: tracer.wrap(fn, n, e))


# -- analysis ---------------------------------------------------------------------

def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping children
    are merged, so no instant is subtracted twice.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, lo, hi = -1, 0.0, 0.0
    for i in order.tolist() + [-1]:
        p = int(parent[i]) if i >= 0 else -2
        if p != cur or i < 0:
            if cur >= 0 and hi > lo:
                out[cur] -= hi - lo
            if i < 0:
                break
            cur = p
            lo = hi = float(start[cur])
        s = max(float(start[i]), float(start[p]))
        e = min(float(end[i]), float(end[p]))
        if e <= s:
            continue
        if s > hi:
            out[cur] -= hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    return out


def aggregate(path) -> dict:
    """Per span name: calls, total ms and self ms; plus the run's counters."""
    with np.load(path) as f:
        names = [str(n) for n in f["names"]]
        name_id, parent = f["name_id"], f["parent"]
        start, end = f["start"], f["end"]
        counters = json.loads(str(f["counters"]))
        run_id = str(f["run_id"])
    selfs = self_times(start, end, parent)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=end - start, minlength=k)
    own = np.bincount(name_id, weights=selfs, minlength=k)
    spans = {n: {"calls": int(calls[i]), "ms": 1e3 * float(total[i]),
                 "self_ms": 1e3 * float(own[i])} for i, n in enumerate(names)}
    return {"run_id": run_id, "spans": spans, "counters": counters}
