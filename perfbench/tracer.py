"""Spans around the calls into each layer, recorded from outside the library.

:meth:`Tracer.install` replaces selected functions of the ``laddersand`` modules
by wrappers that record a span per call: its name, start, end, parent
span and the error it raised, if any.  A function is replaced wherever a
layer module holds it, so both the workload's own calls (made through
module attributes) and the names one layer imports from another are
traced.  Burning functions are wrapped only where other layers import
them: inside ``burning`` the per-rung helpers run hundreds of thousands
of times, and ``rung_burn`` reports through its ``cache_info()`` instead.

Spans stay in memory; :meth:`Tracer.summary` aggregates them per name
into calls, total time and self time (span time not covered by its
direct children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("burning", "census", "coding", "measures", "toppling", "cli")


def _arg(args, kwargs, pos, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _count_series_name(args, kwargs):
    method = _arg(args, kwargs, 3, "method", None)
    return "coding.count_words" if method == "automaton" else "census.count_series"


def _cylinder_name(args, kwargs):
    return "measures.cylinder_prob." + _arg(args, kwargs, 2, "method", "parry")


def _stabilize_name(args, kwargs):
    schedule = _arg(args, kwargs, 3, "schedule", None)
    return "toppling.stabilize." + (schedule.kind if schedule else "canonical")


def _total_topplings(result):
    return int(result[1].counts.sum())


# (defining module, function) -> (span name or namer, result counter or None)
TRACED = {
    ("burning", "full_burnable"): ("burning.full_burnable", None),
    ("burning", "left_burnable"): ("burning.left_burnable", None),
    ("burning", "right_burnable"): ("burning.right_burnable", None),
    ("burning", "leftmost_schedule"): ("burning.leftmost_schedule", None),
    ("burning", "advance_rung_state"): ("burning.advance_rung_state", None),
    ("census", "count_series"): (_count_series_name, lambda r: sum(r.values)),
    ("census", "iter_recurrent"): ("census.iter_recurrent", None),
    ("coding", "build_coding"): ("coding.build_coding", len),
    ("coding", "check_transitive"): ("coding.check_transitive", None),
    ("coding", "spectral"): ("coding.spectral", lambda r: r.iterations),
    ("coding", "parry_chain"): ("coding.parry_chain", None),
    ("coding", "restrict"): ("coding.restrict", None),
    ("measures", "cylinder_prob"): (_cylinder_name, None),
    ("measures", "renewal_quantities"): ("measures.renewal_quantities", None),
    ("measures", "sample_chain_windows"): ("measures.sample_chain_windows", len),
    ("measures", "sample_finite_exact"): ("measures.sample_finite_exact", len),
    ("measures", "boundary_layer"): ("measures.boundary_layer", None),
    ("measures", "mixture_experiment"): (
        "measures.mixture_experiment", lambda rows: sum(r.total_configs for r in rows)),
    ("toppling", "stabilize"): (_stabilize_name, _total_topplings),
    ("toppling", "check_abelian"): ("toppling.check_abelian", None),
    ("toppling", "rung_zero_blast"): ("toppling.rung_zero_blast", None),
    ("cli", "main"): ("cli.main", None),
}


class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent,
    error]`` with ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = error
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        namer = name if callable(name) else (lambda args, kwargs: name)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own work between
            # items is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span_name = namer(args, kwargs)
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(span_name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(idx, None)
                        return
                    except BaseException as exc:
                        self._close(idx, type(exc).__name__)
                        raise
                    self._close(idx, None)
                    self.counts[span_name + ".items"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs)
            idx = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx, None)
            if counter is not None:
                self.counts[span_name + ".items"] += counter(result)
            return result
        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"laddersand.{name}")
                   for name in LAYERS}
        wrappers = {}
        for (home, attr), (name, counter) in TRACED.items():
            fn = getattr(modules[home], attr)
            wrappers[id(fn)] = self._wrap(fn, name, counter)
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is None or mod_name == "burning":
                    continue  # burning's own calls: see the module docstring
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, errors."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        for i, (name, start, end, _, error) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["failed"] += error is not None
        return dict(out)
