"""Spans around calls into the ssqw modules, recorded from outside the package.

``Tracer.installed()`` rebinds each traced function under every name a
module looks it up by (``solver.build_q_epsilon`` as well as
``lattice.build_q_epsilon``, ``cli.validate_parameters`` as well as
``model.validate_parameters``) and wraps the entries of ``cli.COMMANDS``
as the ``cli.command`` layer.  Leaving the block restores every binding.

Spans live in memory.  Each thread keeps its own parent stack; a span that
opens on a thread with an empty stack (a phase-diagram pool worker) takes
as parent the innermost open span of the main thread, which is the command
that started the pool.  Self time is a span's duration minus the part of
its interval covered by its children, so overlapping children on two
worker threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass

# (module, function) pairs; the layer of a span is its module name.
TRACED = (
    ("model", "validate_parameters"),
    ("model", "load_profile"),
    ("analytic", "witten_index"),
    ("analytic", "kernel_dimensions"),
    ("lattice", "build_q_epsilon"),
    ("lattice", "build_evolution"),
    ("lattice", "verify_algebra"),
    ("solver", "kernel_count_svd"),
    ("solver", "construct_bound_state"),
    ("solver", "bound_state_residual"),
    ("solver", "sample_spectrum"),
    ("solver", "h_epsilon_band_eigensystem"),
)
COMMAND_SPAN = "cli.command"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (COMMAND_SPAN,)
MODULES = ("model", "analytic", "lattice", "solver", "cli")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self, package):
        self._package = package
        self._modules = [getattr(package, m) for m in MODULES] + [package]
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._ids = iter(range(1, 1 << 62))
        self.spans: list[Span] = []
        self.matrix_bytes: dict[str, int] = {}
        self.blocks = 0
        self.candidate_blocks = 0
        self.conclusive_blocks = 0

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack if threading.current_thread() is threading.main_thread()
                     else [])
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                main = tracer._main_stack
                parent = main[-1].id if main else None
            span = Span(next(tracer._ids), name, parent, threading.get_ident(),
                        time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_matrix(self, name: str):
        def observe(operator):
            nbytes = int(operator.matrix.nbytes)
            self.matrix_bytes[name] = max(self.matrix_bytes.get(name, 0), nbytes)
        return observe

    def _observe_count(self, count):
        self.blocks += 1
        self.candidate_blocks += count.raw_count > 0
        self.conclusive_blocks += bool(count.conclusive)

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        bindings = self._bindings()
        for namespace, key, _, wrapper in bindings:
            namespace[key] = wrapper
        try:
            yield self
        finally:
            for namespace, key, original, _ in bindings:
                namespace[key] = original

    def _bindings(self):
        """(namespace, key, original, wrapper) for every rebinding."""
        out = []
        for module_name, func_name in TRACED:
            original = getattr(getattr(self._package, module_name), func_name)
            name = f"{module_name}.{func_name}"
            if func_name in ("build_q_epsilon", "build_evolution"):
                observe = self._observe_matrix(name)
            elif func_name == "kernel_count_svd":
                observe = self._observe_count
            else:
                observe = None
            wrapper = self._wrap(name, original, observe)
            for module in self._modules:
                for key, value in vars(module).items():
                    if value is original:
                        out.append((vars(module), key, original, wrapper))
        commands = self._package.cli.COMMANDS
        for key, original in commands.items():
            out.append((commands, key, original, self._wrap(COMMAND_SPAN, original)))
        return out

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds) over the recorded spans."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        for span in self.spans:
            covered = _covered(span, children.get(span.id, ()))
            entry = totals.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += (span.end - span.start) - covered
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write_spans(self, path) -> None:
        """One JSON array per span: id, parent, name, thread, start, end."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.thread, s.start, s.end]))
                fh.write("\n")


def _covered(span: Span, kids) -> float:
    """Length of the union of the children's intervals inside the span."""
    intervals = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
