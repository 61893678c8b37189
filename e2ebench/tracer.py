"""Per-layer spans recorded from outside the analyzer.

A traced run binds a wrapper over each public function named in
``LAYERS`` -- in every ``repro`` module that holds a reference to it,
and on the class for methods -- and removes every wrapper when the run
ends.  The analyzer's source is not edited.

Each wrapped call leaves one span in memory: name, start, end, thread
and parent (the innermost open span on the same thread).  A span's self
time is its duration minus the time its children cover on its thread;
children close before their parent, so a child adds its duration to the
parent the moment it closes.  ``fold`` turns the closed spans into
per-layer totals and per-thread coverage and drops them, so a long
traced run keeps only one round of spans at a time.

The wrappers may be bound and removed many times; each binding is one
traced window, and the traced wall is the sum of the windows.  The
per-thread balance check sets two independent figures against that
wall: the summed self time of the thread's spans, and the time the
thread spent outside any span, taken from the gaps between its root
spans and the window edges.  They add up to the wall only when no span
was lost, no two root spans overlap and none runs past its window.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

_MARK = "__e2ebench_wrapped__"

#: (layer, module[.Class], attributes).  A layer may cover several
#: functions; its self time is the sum over all of them.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("cli", "repro.cli", ("main",)),
    ("apps.msa", "repro.apps.msa.parallel",
     ("run_msa_trial", "run_msa_scaling")),
    ("apps.genidlest", "repro.apps.genidlest.simulate",
     ("run_genidlest", "run_genidlest_scaling")),
    ("runtime.execute_work", "repro.runtime.exec", ("execute_work",)),
    ("machine.counter_add", "repro.machine.counters.CounterVector",
     ("__iadd__",)),
    ("machine.cache_access", "repro.machine.cache.CacheHierarchy",
     ("access",)),
    ("openuh.compile", "repro.openuh.levels", ("compile_program",)),
    ("power.measure", "repro.power.energy", ("measure_signature",)),
    ("perfdmf.save", "repro.perfdmf.database.PerfDMF", ("save_trial",)),
    ("perfdmf.hash", "repro.perfdmf.database.PerfDMF", ("content_hash",)),
    ("perfdmf.delete", "repro.perfdmf.database.PerfDMF", ("delete_trial",)),
    ("perfdmf.load", "repro.perfdmf.database.PerfDMF", ("load_trial",)),
    ("knowledge.diagnose", "repro.knowledge.rulebase",
     ("diagnose_load_balance", "diagnose_genidlest")),
    ("rules.run", "repro.rules.engine.RuleEngine", ("run",)),
    ("serve.submit", "repro.serve.service.AnalysisService", ("submit",)),
    ("serve.client", "repro.serve.client.SocketClient", ("request",)),
    ("workflows.run_experiment", "repro.workflows.experiment",
     ("run_experiment",)),
    ("experiments.orchestrator", "repro.experiments.orchestrator.Orchestrator",
     ("run",)),
    ("experiments.state", "repro.experiments.state.ExperimentState",
     ("begin_run", "run_id_for", "run_info", "cases", "case",
      "mark_running", "record_sample", "finalize_case", "summary")),
    ("experiments.assess", "repro.experiments.rigor", ("assess",)),
    ("regress.compare", "repro.regress.detect", ("compare_trials",)),
    ("lineage.scan", "repro.lineage.scanner", ("scan_range",)),
    ("lineage.store", "repro.lineage.store.LineageStore",
     ("record", "attach_trial", "annotate", "exists", "get", "versions",
      "tips", "is_linear", "history", "path", "trials_for",
      "versions_of_trial")),
    ("lineage.diagnose", "repro.lineage.facts", ("diagnose_lineage",)),
)


def cli_span_name(args: tuple, kwargs: dict) -> str:
    """``cli.reproduce_fig4a``, ``cli.lineage_scan``, ... from argv."""
    argv = args[0] if args else kwargs.get("argv") or []
    words = [a for a in argv[:2] if not a.startswith("-")]
    return "cli." + "_".join(words) if words else "cli"


class Span:
    """One wrapped call; ``child`` is the time its children covered."""

    __slots__ = ("name", "start", "end", "thread", "parent", "child",
                 "depth")

    def __init__(self, name, start, thread, parent, depth):
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.parent = parent
        self.child = 0.0
        self.depth = depth

    def to_dict(self, ids: dict[int, int]) -> dict[str, Any]:
        return {"id": ids[id(self)], "name": self.name,
                "parent": ids.get(id(self.parent)) if self.parent else None,
                "thread": self.thread, "start": self.start,
                "wall": self.end - self.start, "cpu": 0.0}


@dataclass
class LayerTotals:
    """Summed self time and call count of one span name."""

    self_s: float = 0.0
    calls: int = 0


@dataclass
class ThreadTotals:
    """Per thread: summed self time, and the time outside root spans."""

    self_s: float = 0.0
    #: Gaps between root spans and window edges, in the windows where
    #: the thread left a span.
    gaps_s: float = 0.0
    #: The summed length of those windows.
    windows_s: float = 0.0
    overlaps: int = 0


@dataclass
class Folded:
    """Running totals of every span folded so far."""

    layers: dict[str, LayerTotals] = field(default_factory=dict)
    threads: dict[int, ThreadTotals] = field(default_factory=dict)
    spans: int = 0


class Tracer:
    """Wrappers plus the in-memory span list they fill."""

    def __init__(self, hooks: dict[str, Callable] | None = None):
        #: layer -> fn(args, kwargs, result), called after each call.
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self.folded = Folded()
        self.missing: list[str] = []
        self._tls = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self.main_thread = threading.get_ident()
        #: (start, stop) of every traced window, i.e. every binding.
        self.windows: list[tuple[float, float]] = []
        self._started: float | None = None

    # -- wrapping ------------------------------------------------------------
    def _wrapper(self, layer: str, fn: Callable) -> Callable:
        spans, tls = self.spans, self._tls
        clock, ident = time.perf_counter, threading.get_ident
        # CLI spans are named after the command they run.
        namer = cli_span_name if layer == "cli" else None
        hook = self.hooks.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            name = namer(args, kwargs) if namer else layer
            parent = stack[-1] if stack else None
            span = Span(name, clock(), ident(), parent, len(stack))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _bind(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Bind every wrapper and open a traced window."""
        # Resolve (and so import) every target first: a module imported
        # half-way through would copy wrappers instead of originals.
        targets = [(layer, path, _resolve(path), attrs)
                   for layer, path, attrs in LAYERS]
        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "repro" and m is not None]
        missing = []
        for layer, path, owner, attrs in targets:
            for attr in attrs:
                original = getattr(owner, "__dict__", {}).get(attr) \
                    if owner is not None else None
                if original is None:
                    missing.append(f"{path}.{attr}")
                    continue
                wrapper = self._wrapper(layer, original)
                if isinstance(owner, type):
                    self._bind(owner, attr, wrapper)
                    continue
                # A function is bound wherever it was imported by name.
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, key, wrapper)
        self.missing = missing
        self._started = time.perf_counter()
        return self

    def uninstall(self) -> None:
        """Close the traced window and remove every wrapper."""
        if self._started is not None:
            self.windows.append((self._started, time.perf_counter()))
            self._started = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # A module first imported while tracing copied wrappers by name.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if getattr(value, _MARK, False):
                    setattr(module, key, value.__wrapped__)

    # -- folding -------------------------------------------------------------
    def fold(self, keep: list[Span] | None = None) -> None:
        """Move the spans closed in the last window into the totals."""
        batch, self.spans[:] = list(self.spans), []
        if keep is not None:
            keep.extend(batch)
        acc = self.folded
        roots: dict[int, list[Span]] = {}
        for span in batch:
            dur = span.end - span.start
            totals = acc.layers.setdefault(span.name, LayerTotals())
            totals.self_s += dur - span.child
            totals.calls += 1
            acc.threads.setdefault(span.thread, ThreadTotals()).self_s += \
                dur - span.child
            if span.depth == 0:
                roots.setdefault(span.thread, []).append(span)
        acc.spans += len(batch)
        if not self.windows:
            return
        begin, stop = self.windows[-1]
        for ident, spans in roots.items():
            thread = acc.threads[ident]
            thread.windows_s += stop - begin
            cursor = begin
            for span in sorted(spans, key=lambda sp: sp.start):
                if span.start < cursor:
                    thread.overlaps += 1
                thread.gaps_s += max(0.0, span.start - cursor)
                cursor = max(cursor, span.end)
            thread.gaps_s += max(0.0, stop - cursor)

    @property
    def wall(self) -> float:
        """The traced wall: the summed length of every window."""
        return sum(stop - start for start, stop in self.windows)

    def uncovered(self, thread: ThreadTotals) -> float:
        """Time the thread spent outside root spans, over every window."""
        # A window in which the thread left no span is all gap.
        return thread.gaps_s + self.wall - thread.windows_s

    def thread_balance(self) -> dict[int, dict[str, float]]:
        """Per thread: self times + uncovered time against the wall."""
        wall = self.wall
        out = {}
        for ident, t in self.folded.threads.items():
            uncovered = self.uncovered(t)
            out[ident] = {
                "self_s": t.self_s, "uncovered_s": uncovered, "wall_s": wall,
                "error": abs(t.self_s + uncovered - wall) / wall,
                "overlaps": t.overlaps,
            }
        return out

    def coverage(self) -> float:
        """Share of the traced wall the driving thread spent in spans."""
        wall = self.wall
        main = self.folded.threads.get(self.main_thread)
        return 1.0 - self.uncovered(main) / wall if main and wall > 0 \
            else 0.0


def _resolve(path: str) -> Any:
    """``pkg.module`` or ``pkg.module.Class`` -> the object, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def leftover_wrappers() -> list[str]:
    """Every wrapper still bound in a ``repro`` module or class."""
    found = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for key, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    if getattr(member, _MARK, False):
                        found.append(f"{name}.{key}.{attr}")
    return sorted(set(found))
