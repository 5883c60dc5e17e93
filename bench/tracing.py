"""Span tracer that times chargraph's layer boundaries from outside.

install() rebinds every name a chargraph module imported from another
chargraph layer to a timing wrapper, in the importing module's namespace.
A module's own functions keep their original bindings, so calls inside a
layer are not spanned.  Classes are not replaced: their __init__ is wrapped
in place, and construction is spanned only when the caller lives outside
the class's own module, so isinstance and alternate constructors keep
working.  Spans stay in memory until summary().
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "chargraph"
LAYERS = ("arith", "graphs", "shapes", "degrees", "classify", "cli")

# Entry points into arith that factor their argument; repeats among their
# arguments are factorizations done again.
FACTORING = frozenset({"arith.factorize", "arith.prime_divisors"})

# Prefix of the stderr line on which cli_shim.py reports its trace.
TRACE_MARK = "@@bench-trace "


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, index of the parent span or -1)
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._wrappers: dict[object, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._seen: set = set()
        self.factoring_calls = 0
        self.factoring_repeats = 0

    def _run(self, name: str, fn, args, kwargs):
        if name in FACTORING and args:
            self.factoring_calls += 1
            if args[0] in self._seen:
                self.factoring_repeats += 1
            else:
                self._seen.add(args[0])
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        """A spanned version of fn; one wrapper per function."""
        if fn not in self._wrappers:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._run(name, fn, args, kwargs)

            self._wrappers[fn] = traced
        return self._wrappers[fn]

    def _wrap_class(self, name: str, cls: type) -> None:
        if cls in self._wrappers:
            return
        original = cls.__init__
        home = cls.__module__
        run = self._run

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == home:
                return original(obj, *args, **kwargs)
            return run(name, original, (obj,) + args, kwargs)

        self._wrappers[cls] = __init__
        self._restore.append((cls, "__init__", original))
        cls.__init__ = __init__

    def install(self) -> None:
        """Span every cross-layer binding in the chargraph modules loaded now."""
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", None)
                if not isinstance(home, str) or not home.startswith(PACKAGE + "."):
                    continue
                target = home.rsplit(".", 1)[1]
                if home == module.__name__ or target not in LAYERS:
                    continue
                name = f"{target}.{value.__name__}"
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        self._wrap_class(name, value)
                elif inspect.isfunction(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, self.wrap(name, value))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self._wrappers.clear()

    def summary(self) -> dict:
        """Calls and self time per span name, plus the factoring counters.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on this single thread.  Call it with
        no span open.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        first_factoring = None
        for i, (name, start, end, _parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + (end - start - covered[i]) * 1e3
            if first_factoring is None and name in FACTORING:
                first_factoring = (end - start) * 1e3
        return {
            "calls": calls,
            "self_ms": self_ms,
            "first_factorize_ms": first_factoring,
            "factoring_calls": self.factoring_calls,
            "factoring_repeats": self.factoring_repeats,
        }
