"""In-memory spans around the platform's layers, for the traced run only.

A :class:`Tracer` replaces a layer's public functions (and the names that
product modules re-bind with ``from ... import``) by thin wrappers that
record one span per call: name, start, end, parent span, task id and the
Spark job group the span ran under. Each span sets its own job group on
entry and restores its parent's on exit, so every Spark job started while
a span is innermost belongs to that span alone: the span's *self* jobs.

Spark actions fire lazily. A layer that returns an unevaluated DataFrame
does no Spark work inside its span; the action that finally runs it is
counted in the span of whoever triggers it (usually the scheduler, whose
``toPandas`` evaluates the algorithm's frame, ``top_k`` and the name join).

Untraced runs never construct a Tracer, so they run unpatched code.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    """One call into a layer."""

    name: str
    start: float
    parent: int | None
    task: str | None
    group: str
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


class Tracer:
    """Records spans around patched layer functions of one SparkContext."""

    def __init__(self, sc, root_group: str) -> None:
        self.sc = sc
        self.root_group = root_group
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, task: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if task is None and parent is not None:
            task = self.spans[parent].task
        idx = len(self.spans)
        sp = Span(name, time.monotonic(), parent, task, f"perfbench-span-{idx}")
        self.spans.append(sp)
        self._stack.append(idx)
        self.sc.setJobGroup(sp.group, name)
        try:
            yield sp
        finally:
            sp.end = time.monotonic()
            self._stack.pop()
            outer = self.spans[self._stack[-1]].group if self._stack else self.root_group
            self.sc.setJobGroup(outer, outer)

    # -- patching -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, on_result=None, task_of=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            task = task_of(args, kwargs) if task_of else None
            with tracer.span(name, task) as sp:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, out)
                return out

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (module global, class method or dict key)
        by a span-recording wrapper; :meth:`uninstall` puts it back."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(original, name, **kw)
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, **kw))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced layer of the relevance platform."""
        # import_module: ``repro.core`` re-exports functions under the names
        # of its submodules, so ``import repro.core.pagerank as m`` would bind
        # the function, not the module.
        (cyclerank, pagerank, ppr, ranking, registry, formats, executor,
         scheduler, engine) = map(importlib.import_module, (
            "repro.core.cyclerank", "repro.core.pagerank", "repro.core.ppr",
            "repro.core.ranking", "repro.datasets.registry", "repro.graph.formats",
            "repro.platform.executor", "repro.platform.scheduler",
            "repro.pregel.engine"))
        from repro.graph.graph import DiGraph
        from repro.platform.datastore import Datastore

        def supersteps(sp: Span, _args, res) -> None:
            sp.attrs["supersteps"] = res.iterations
            sp.attrs["converged"] = bool(res.converged)

        def saved_bytes(sp: Span, args, _res) -> None:
            store, name = args[0], args[1]
            sp.attrs["bytes"] = _dir_bytes(store._dataset_dir(name))

        for mod in (engine, pagerank):
            self.patch(mod, "pregel", "pregel.engine.pregel", on_result=supersteps)
        for mod in (engine, cyclerank):
            self.patch(mod, "iterate_frontier", "pregel.engine.iterate_frontier")
        for mod, attrs in (
            (pagerank, ("pagerank", "cheirank")),
            (executor.ALGORITHMS, ("pagerank", "cheirank")),
            (ppr, ("personalized_pagerank", "personalized_cheirank")),
            (executor, ("personalized_pagerank", "personalized_cheirank")),
        ):
            for attr in attrs:
                self.patch(mod, attr, "core.pagerank")
        for mod in (cyclerank, executor):
            self.patch(mod, "cyclerank", "core.cyclerank")
        self.patch(cyclerank, "cycle_counts", "core.cyclerank.enumerate")
        self.patch(cyclerank, "prune_to_k_ball", "core.cyclerank.prune")
        for mod in (ranking, scheduler):
            self.patch(mod, "top_k", "core.ranking.top_k")
        for mod in (registry, scheduler):
            self.patch(mod, "load_dataset", "datasets.registry.load_dataset")
        self.patch(formats, "read_graph", "graph.formats.read_graph")
        for attr in ("num_vertices", "num_edges"):
            self.patch(DiGraph, attr, "graph.graph.count")
        self.patch(
            scheduler.Scheduler, "run", "platform.scheduler.run",
            task_of=lambda args, _kw: args[1],
        )
        self.patch(Datastore, "save_dataset", "platform.datastore.save_dataset",
                   on_result=saved_bytes)
        for attr in ("load_dataset", "save_result", "load_result", "append_log"):
            self.patch(Datastore, attr, f"platform.datastore.{attr}")

    def uninstall(self) -> None:
        """Restore every patched name."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- attribution ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.end - sp.start
        return out

    def to_records(self, self_s: list[float], jobs: dict[str, list[int]],
                   tasks: dict[str, int]) -> list[dict]:
        """Spans as JSON-ready dicts (times relative to the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": sp.name,
                "start": sp.start - t0,
                "end": sp.end - t0,
                "parent": sp.parent,
                "task": sp.task,
                "self_s": self_s[i],
                "self_jobs": len(jobs.get(sp.group, ())),
                "self_tasks": tasks.get(sp.group, 0),
                **sp.attrs,
            }
            for i, sp in enumerate(self.spans)
        ]
