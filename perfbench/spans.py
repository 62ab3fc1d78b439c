"""In-memory span tracer for the per-layer (traced) benchmark run.

The tracer edits no source.  It replaces each traced public function by
a timing wrapper in every ``mfcal`` module namespace that binds it, so
both cross-module calls (``cli`` -> ``holder.holder_map``) and
intra-module calls (``holder.box_measures`` -> ``grid.window_sum`` via
``holder``'s own binding) are seen.  Spans carry their parent through a
context variable; the thread pool that ``holder.box_measures`` starts is
swapped for one that copies the submitter's context into each task, so
worker-thread spans are children of the ``box_measures`` span.

A span's self time is its duration minus the union of its children's
intervals, so two overlapping worker spans are not subtracted twice.
Spans stay in memory until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

_current_span = contextvars.ContextVar("perfbench_span", default=0)


def _bytes_window_sum(args, kwargs, result) -> int:
    sat = args[0]
    # table read plus output written, from array sizes (not a measured bandwidth)
    return getattr(sat, "table", sat).nbytes + result.nbytes


def _bytes_read_field(args, kwargs, result) -> int:
    return len(args[0])


def _bytes_write_field(args, kwargs, result) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and the span name it records."""

    module: str
    function: str
    span: str
    meter: object = None        # (args, kwargs, result) -> bytes moved
    memory_peak: bool = False   # tracemalloc peak inside the call


TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("io", "read_field", "io.read_field", meter=_bytes_read_field),
    Target("io", "write_field", "io.write_field", meter=_bytes_write_field),
    Target("io", "write_spectrum_csv", "io.emitters"),
    Target("io", "write_moments_csv", "io.emitters"),
    Target("io", "excite_record_json", "io.emitters"),
    Target("grid", "as_field", "grid.as_field"),
    Target("grid", "integral_image", "grid.integral_image"),
    Target("grid", "window_sum", "grid.window_sum", meter=_bytes_window_sum),
    Target("grid", "window_sum_adjoint", "grid.window_sum_adjoint"),
    Target("holder", "box_measures", "holder.box_measures"),
    Target("holder", "slope_from_measures", "holder.slope_from_measures"),
    Target("holder", "holder_map", "holder.holder_map"),
    # mono_backward and the level-set forward call the private
    # forward-with-cache directly; it is the body of ``normalize``.
    Target("holder", "normalize", "holder.normalize"),
    Target("holder", "_normalize_with_cache", "holder.normalize"),
    Target("holder", "normalize_vjp", "holder.normalize_vjp"),
    Target("attention", "gap", "attention.gap"),
    Target("attention", "se_forward", "attention.se_forward"),
    Target("attention", "scse_forward", "attention.scse_forward"),
    Target("attention", "srm_gates", "attention.srm_gates"),
    Target("attention", "fca_gates", "attention.fca_gates"),
    Target("attention", "mono_backward", "attention.mono_backward"),
    Target("attention", "multi_membership", "attention.multi_membership"),
    Target("attention", "multi_forward", "attention.multi_forward", memory_peak=True),
    Target("attention", "multi_backward", "attention.multi_backward", memory_peak=True),
    Target("analysis", "excitation_covariance", "analysis.excitation_covariance"),
    Target("analysis", "excitation_report", "analysis.excitation_report"),
    Target("analysis", "jacobi_eigh", "analysis.jacobi_eigh"),
    Target("spectrum", "moments_spectrum", "spectrum.moments_spectrum"),
    Target("spectrum", "histogram_spectrum", "spectrum.histogram_spectrum"),
    Target("spectrum", "clt_spectrum", "spectrum.clt_spectrum"),
    Target("cascade", "generate_binomial", "cascade.generate_binomial"),
    Target("cascade", "generate_product_2d", "cascade.generate_product_2d"),
    Target("cascade", "analytic_spectrum", "cascade.analytic_spectrum"),
)

_MODULES = ("cli", "io", "grid", "holder", "attention", "analysis", "spectrum",
            "cascade", "selftest")


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    nbytes: int = 0
    peak_bytes: int = 0


class Tracer:
    """Install timing wrappers, collect spans, aggregate them per name."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._patches: list = []  # (module, attribute, original)

    def _wrap(self, target: Target, original):
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            token = _current_span.set(sid)
            peak_owner = target.memory_peak and not tracemalloc.is_tracing()
            if peak_owner:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                peak = 0
                if peak_owner:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                _current_span.reset(token)
            nbytes = target.meter(args, kwargs, result) if target.meter else 0
            spans.append(Span(sid, _current_span.get(), target.span,
                              threading.get_ident(), start, end, nbytes, peak))
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"mfcal.{name}") for name in _MODULES]
        for target in TARGETS:
            home = importlib.import_module(f"mfcal.{target.module}")
            original = getattr(home, target.function)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attribute, original))
                        setattr(module, attribute, wrapper)
        holder = importlib.import_module("mfcal.holder")
        self._patches.append((holder, "ThreadPoolExecutor", holder.ThreadPoolExecutor))
        holder.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patches):
            setattr(module, attribute, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, total self seconds, bytes moved, max peak bytes."""
        children: dict = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append((span.start, span.end))
        out: dict = {}
        for span in self.spans:
            covered = _union_length(children.get(span.sid, ()), span.start, span.end)
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "bytes": 0, "peak": 0})
            row["calls"] += 1
            row["self_s"] += (span.end - span.start) - covered
            row["bytes"] += span.nbytes
            row["peak"] = max(row["peak"], span.peak_bytes)
        return out

    def write(self, path) -> None:
        """One JSON array per line: id, parent, name, thread, start, end, bytes, peak."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.sid, s.parent, s.name, s.thread, s.start,
                                         s.end, s.nbytes, s.peak_bytes]) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
