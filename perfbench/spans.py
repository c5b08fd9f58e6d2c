"""Span tracing for the benchmark: self time per layer, counts per seam.

A :class:`Tracer` keeps an in-memory stack of open spans.  Each span has
a *layer* (``sul``, ``crypto``, ...) and a *name* (``crypto.seal``).
When a span closes, its duration is added to its parent's child time, and
its *self time* -- duration minus the part of that interval its child
spans cover -- is added to its layer.  Spans never overlap except by
nesting, because everything traced runs on the calling thread.

:class:`Patcher` installs tracing wrappers around functions and methods
of the program under test and removes them again.  A module-level
function is replaced in every ``repro`` module that imported it by value
(``from ..crypto import hkdf_expand_label``), and a method is replaced on
the class and on every subclass that overrides it.  Wrappers must be
installed before the objects that bind them (network handlers, for
instance) are constructed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    """Span stack plus per-layer self time, per-name calls and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # [layer, name, start, child_time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_calls: Counter = Counter()
        #: Calls per layer that were not nested in a span of the same layer.
        self.outer_calls: Counter = Counter()
        self.calls: Counter = Counter()
        #: Inclusive time per span name, counting only the outermost span
        #: of a name so recursion is not counted twice.
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Time covered by top-level spans.
        self.covered_s = 0.0
        #: Open spans per layer and per name.
        self.open_layers: Counter = Counter()
        self.open_names: Counter = Counter()

    def enter(self, layer: str, name: str) -> None:
        self.open_layers[layer] += 1
        self.open_names[name] += 1
        self.stack.append([layer, name, self.clock(), 0.0])

    def exit(self) -> float:
        layer, name, start, child = self.stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        self.layer_calls[layer] += 1
        self.calls[name] += 1
        self.open_layers[layer] -= 1
        if not self.open_layers[layer]:
            self.outer_calls[layer] += 1
        self.open_names[name] -= 1
        if not self.open_names[name]:
            self.inclusive_s[name] += duration
        if self.stack:
            self.stack[-1][3] += duration
        else:
            self.covered_s += duration
        return duration

    def innermost(self, layers) -> str | None:
        """The layer of the innermost open span whose layer is in ``layers``."""
        for frame in reversed(self.stack):
            if frame[0] in layers:
                return frame[0]
        return None

    def is_open(self, name: str) -> bool:
        return self.open_names[name] > 0

    def top_layer(self) -> str | None:
        return self.stack[-1][0] if self.stack else None


def _wrap(tracer, fn, layer, name, on_call, on_result, materialize):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args, kwargs)
        tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
            if materialize:
                result = list(result)
        finally:
            duration = tracer.exit()
        if on_result is not None:
            on_result(args, result, duration)
        return iter(result) if materialize else result

    return wrapper


def _subclasses(cls) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class Patcher:
    """Install and remove tracing wrappers; remembers what it replaced.

    ``missing`` lists seams that could not be found (a renamed function,
    say); the benchmark reports them instead of failing.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def function(
        self,
        module: str,
        attribute: str,
        layer: str,
        name: str,
        *,
        on_call=None,
        on_result=None,
        materialize: bool = False,
    ) -> None:
        """Wrap ``module.attribute`` and every by-value import of it."""
        try:
            original = getattr(importlib.import_module(module), attribute)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attribute}")
            return
        wrapper = _wrap(
            self.tracer, original, layer, name, on_call, on_result, materialize
        )
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "")
            if loaded_name == "repro" or loaded_name.startswith("repro."):
                if loaded.__dict__.get(attribute) is original:
                    self._set(loaded, attribute, wrapper)

    def method(
        self,
        module: str,
        qualname: str,
        layer: str,
        name: str,
        *,
        on_call=None,
        on_result=None,
        materialize: bool = False,
    ) -> None:
        """Wrap ``Class.method`` and every subclass's own override of it."""
        class_name, _, attribute = qualname.rpartition(".")
        try:
            cls = getattr(importlib.import_module(module), class_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{qualname}")
            return
        wrapped_any = False
        for klass in _subclasses(cls):
            raw = klass.__dict__.get(attribute)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                inner = _wrap(
                    self.tracer, raw.__func__, layer, name,
                    on_call, on_result, materialize,
                )
                replacement = type(raw)(inner)
            elif callable(raw):
                replacement = _wrap(
                    self.tracer, raw, layer, name, on_call, on_result, materialize
                )
            else:
                continue
            self._set(klass, attribute, replacement)
            wrapped_any = True
        if not wrapped_any:
            self.missing.append(f"{module}.{qualname}")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
