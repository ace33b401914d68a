"""Spans around pefkit's public functions, recorded from outside the program.

`Tracer.install` replaces each named function with a timing wrapper in
every loaded `pefkit` module namespace that holds it, so calls made
through `from .x import f` bindings are seen too; `uninstall` puts the
originals back. A name that no longer exists is reported as absent.

Spans are kept in memory as (id, name, start, end, parent, run) and
written out when the benchmark ends. pefkit is single-threaded, so a
span's children never overlap and its self time is its duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "pefkit"


class Tracer:
    def __init__(self, span_names):
        self.span_names = tuple(span_names)
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.run]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()

        return traced

    def install(self) -> None:
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name in self.span_names:
            module_name, *owner_path, attr = name.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(name)
                continue
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                self._restore.append((owner, attr, static))
                setattr(owner, attr, classmethod(self._wrap(name, static.__func__)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def recording(self, run):
        """Spans recorded inside the block belong to `run`."""
        self.run = run
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def stats(self) -> dict:
        """Per run, per span name: total seconds `s`, `self_s` and `calls`."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}))
        for span_id, name, start, end, _, run in self.spans:
            entry = out[run][name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
            entry["calls"] += 1
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run}) + "\n")
