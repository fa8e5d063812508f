"""In-memory span recorder that wraps a program's functions from outside.

A :class:`Tracer` replaces functions and methods with timing wrappers,
records one span per call (name, layer, start, end, parent span, run
id) in a plain list, and puts every original back on exit.  Nothing is
written while it runs; :meth:`Tracer.write` dumps the spans at the end.

Rules the wrappers follow:

* A function is patched in every loaded module that holds it, under
  whatever name, not only in the module that defines it -- callers that
  did ``from x import f`` hold their own reference.
* A method is patched in the ``__dict__`` of each class that defines it,
  so every subclass's own override is wrapped and inheritance (and
  ``type(a).m is Base.m`` identity tests) behave as before.
* A call made while another call of the same layer is open on the same
  thread is not recorded: nested same-layer work (a budget cap that
  delegates to the adversary it wraps, a batch default that loops the
  serial method) is charged to the outermost span only.
* Spans keep a per-thread stack, so work on a server's runner thread
  and on client threads builds separate trees.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Tracer"]


class Tracer:
    """Records spans and counts for the functions it patches."""

    def __init__(self, run_id: str = "") -> None:
        #: ``(span_id, parent_id, run_id, layer, name, start, end)``;
        #: ``parent_id`` 0 marks a root.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = run_id
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _frames(self) -> tuple[list, dict]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.open = {}
        return stack, local.open

    def add(self, key: str, amount=1) -> None:
        """Thread-safe counter increment."""
        with self._count_lock:
            self.counts[key] += amount

    def open_span(self, layer: str) -> str | None:
        """Name of the span of ``layer`` open on this thread, if any.

        At most one is open per layer and thread, since nested
        same-layer calls record no span of their own.
        """
        return self._frames()[1].get(layer)

    def _enter(self, layer: str, name: str, run: str | None) -> tuple:
        stack, open_layers = self._frames()
        span_id = next(self._ids)
        if stack:
            parent, parent_run = stack[-1]
            run = parent_run
        else:
            parent = 0
            run = run if run is not None else self.run_id
        stack.append((span_id, run))
        open_layers[layer] = name
        return span_id, parent, run

    def _exit(self, layer, name, ids, start) -> None:
        end = time.perf_counter()
        stack, open_layers = self._frames()
        stack.pop()
        del open_layers[layer]
        self.spans.append((ids[0], ids[1], ids[2], layer, name, start, end))

    @contextlib.contextmanager
    def span(self, layer: str, name: str, run: str | None = None):
        """Record one span around the ``with`` body."""
        ids = self._enter(layer, name, run)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(layer, name, ids, start)

    def wrap(
        self, layer: str, name: str, fn, count=None, run_of=None,
        count_nested: bool = False,
    ):
        """A wrapper of ``fn`` that records a span per outermost call.

        ``count(tracer, result, args, kwargs)`` runs after each recorded
        call, and after nested calls too with ``count_nested``;
        ``run_of(args, kwargs)`` names the run of a root span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.open_span(layer) is not None:
                result = fn(*args, **kwargs)
                if count_nested:
                    count(tracer, result, args, kwargs)
                return result
            ids = tracer._enter(
                layer, name,
                run_of(args, kwargs) if run_of is not None else None,
            )
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, name, ids, start)
            if count is not None:
                count(tracer, result, args, kwargs)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def patch_function(
        self, module, attr: str, layer: str, count=None, run_of=None,
        count_nested: bool = False,
    ) -> None:
        """Wrap ``module.attr`` wherever a loaded ``repro`` module binds it."""
        original = getattr(module, attr)
        wrapped = self.wrap(layer, attr, original, count, run_of, count_nested)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", None) or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls: type, attr: str, layer: str, count=None) -> None:
        """Wrap ``cls``'s own ``attr`` (no-op when it only inherits it)."""
        entry = cls.__dict__.get(attr)
        if entry is None:
            return
        name = f"{cls.__name__}.{attr}"
        if isinstance(entry, (classmethod, staticmethod)):
            fn = entry.__func__
            if getattr(fn, "__isabstractmethod__", False):
                return
            wrapped = type(entry)(self.wrap(layer, name, fn, count))
        else:
            if getattr(entry, "__isabstractmethod__", False):
                return
            wrapped = self.wrap(layer, name, entry, count)
        self._patches.append((cls, attr, entry))
        setattr(cls, attr, wrapped)

    def restore(self) -> None:
        """Put every patched original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per ``(layer, name)``: duration minus the time
        covered by direct child spans."""
        child: dict[int, float] = defaultdict(float)
        for span_id, parent, _run, _layer, _name, start, end in self.spans:
            if parent:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for span_id, _parent, _run, layer, name, start, end in self.spans:
            out[layer, name] += (end - start) - child.get(span_id, 0.0)
        return dict(out)

    def write(self, path: Path, header: dict) -> None:
        """Write ``header`` and then one JSON array per span, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[5] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, run, layer, name, start, end in self.spans:
                fh.write(json.dumps([
                    span_id, parent, run, layer, name,
                    round(start - t0, 7), round(end - t0, 7),
                ]) + "\n")
