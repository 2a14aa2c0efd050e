"""Span-stack tracer: timing wrappers installed from outside the program.

A span is one call of a wrapped function. Spans nest on an explicit stack, so
a span's *self* time is its duration minus the time its child spans covered;
self times are additive (they sum to the traced wall time minus whatever ran
outside every span), inclusive totals are not (a recursive call counts twice).

Aggregates ``[count, total_ns, self_ns]`` per span name stay in memory; the
first ``raw_limit`` spans are also kept raw ``(id, name, start_ns, end_ns,
parent_id, pass_id)`` for ``trace.json``. Nothing here reads or changes an
argument or a return value, so a traced run computes exactly what an untraced
one does.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

_ABSENT = object()


class NullTracer:
    """Stand-in for untraced passes: ``call`` is a plain call."""

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns, raw_limit: int = 20_000):
        self._clock = clock
        #: name -> [count, total_ns, self_ns]
        self.aggregates: Dict[str, List[int]] = {}
        #: Raw spans, capped at ``raw_limit``.
        self.raw: List[Tuple[int, str, int, int, int, int]] = []
        self.raw_left = raw_limit
        self.next_id = 0
        #: Tag copied onto raw spans (the worker sets it per pass).
        self.pass_id = 0
        #: Entry points named in a target list that this tree does not have.
        self.missing: List[str] = []
        #: class name -> instances constructed while installed (for counters).
        self.instances: Dict[str, List[Any]] = {}
        self._stack: List[int] = []  # child-time accumulator per open span
        self._open_ids: List[int] = []  # ids of the open spans that are kept raw
        self._direct: Dict[Tuple[str, Callable], Callable] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as span ``name``."""
        agg = self.aggregates.setdefault(name, [0, 0, 0])
        stack = self._stack
        open_ids = self._open_ids
        raw = self.raw
        clock = self._clock
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = parent = -1
            if tracer.raw_left:
                tracer.raw_left -= 1
                span_id = tracer.next_id
                tracer.next_id = span_id + 1
                if open_ids:
                    parent = open_ids[-1]
                open_ids.append(span_id)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - children
                if span_id >= 0:
                    open_ids.pop()
                    raw.append((span_id, name, start, end, parent, tracer.pass_id))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` as span ``name`` (for functions the benchmark calls itself)."""
        traced = self._direct.get((name, fn))
        if traced is None:
            traced = self._direct[(name, fn)] = self.wrap(fn, name)
        return traced(*args, **kwargs)

    def take(self) -> Dict[str, List[int]]:
        """Aggregates since the last ``take`` (names with no calls left out)."""
        out = {name: list(agg) for name, agg in self.aggregates.items() if agg[0]}
        for agg in self.aggregates.values():
            agg[0] = agg[1] = agg[2] = 0
        for instances in self.instances.values():
            instances.clear()
        return out

    # -- installation ------------------------------------------------------

    def install_methods(self, module: str, cls_name: str, methods: Sequence[str], family: bool = False) -> None:
        """Wrap ``methods`` of ``module.cls_name`` as spans ``<layer>.<cls>.<method>``.

        ``family`` also wraps every override in the subclasses loaded so far,
        under the base class's span name. Names this tree lacks are listed in
        ``missing`` and skipped: a refactor of the program must not break the
        benchmark that judges it.
        """
        cls = self._resolve(module, cls_name)
        if cls is None:
            return
        layer = module.split(".")[1]
        classes = [cls] + (_subclasses(cls) if family else [])
        for method in methods:
            span = f"{layer}.{cls_name}.{method}"
            found = False
            for owner in classes:
                fn = vars(owner).get(method)
                if inspect.isfunction(fn):
                    found = True
                    traced = self.wrap(fn, span)
                    # Aliases (``receive = deliver``) must lead to the same span.
                    for alias, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, alias, traced, fn)
            if not found:
                self.missing.append(f"{module}.{cls_name}.{method}")

    def install_function(self, module: str, name: str) -> None:
        """Wrap the module global ``module.name`` as span ``<layer>.<name>``.

        Reaches callers that look the global up at call time, i.e. code in
        ``module`` itself.
        """
        mod = self._resolve(module, None)
        fn = getattr(mod, name, None) if mod is not None else None
        if fn is None:
            self.missing.append(f"{module}.{name}")
            return
        self._set(mod, name, self.wrap(fn, f"{module.split('.')[1]}.{name}"), fn)

    def install_registry(self, module: str, cls_name: str) -> None:
        """Remember every ``module.cls_name`` instance constructed from now on."""
        cls = self._resolve(module, cls_name)
        if cls is None:
            return
        init = cls.__init__
        instances = self.instances.setdefault(cls_name, [])

        def registering_init(self: Any, *args: Any, **kwargs: Any) -> None:
            instances.append(self)
            init(self, *args, **kwargs)

        self._set(cls, "__init__", registering_init, vars(cls).get("__init__", _ABSENT))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _resolve(self, module: str, attr: "str | None") -> Any:
        try:
            mod = importlib.import_module(module)
            return mod if attr is None else getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.append(module if attr is None else f"{module}.{attr}")
            return None

    def _set(self, owner: Any, name: str, value: Any, original: Any) -> None:
        try:
            setattr(owner, name, value)
        except TypeError:  # a compiled (immutable) type
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name} (immutable)")
            return
        self._patched.append((owner, name, original))


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
