"""Outside-in span tracer for the twoadic package.

install() wraps every function named in the ``__all__`` of the six twoadic
modules (every public function, for ``cli``, which has no ``__all__``) and
rebinds each name that refers to one of them anywhere in ``twoadic.*``.
``verify`` imports ``su_sequence``, ``legendre_symbol`` and ``is_prime`` by
name, and modules call their own functions through their globals, so without
the rebinding those calls would go untraced. Classes are left alone:
replacing one with a function would break ``isinstance`` and
``dataclasses.replace``. uninstall() puts every original back. No source file
of the package changes.

Each call becomes one span: function id, parent span, start and end
(``time.perf_counter_ns``), and the p of the call where its arguments carry
one (a ``p`` argument, or the ``.p`` of a ``params`` argument), else -1.
Spans stay in flat arrays in memory. write() stores them once, as one JSON
header line followed by the five arrays in the order and item sizes the
header names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("numtheory", "sequences", "bigmod", "analysis", "verify", "cli")

_P_LIMIT = 1 << 62  # larger p values are stored as -1, so they fit a signed 64-bit slot


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n))
            and getattr(module, n).__module__ == module.__name__]


def _p_locator(fn):
    """Return f(args, kwargs) -> the call's p, or -1."""
    params = list(inspect.signature(fn).parameters)
    for key, via_params in (("p", False), ("params", True)):
        if key in params:
            pos = params.index(key)

            def locate(args, kwargs, pos=pos, key=key, via_params=via_params):
                v = args[pos] if len(args) > pos else kwargs.get(key)
                if via_params:
                    v = getattr(v, "p", None)
                return v if type(v) is int and -1 <= v < _P_LIMIT else -1
            return locate
    return lambda args, kwargs: -1


class Tracer:
    """Span recorder for one traced repetition."""

    def __init__(self, package):
        self._package = package
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.p: list[int] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        pkg = self._package.__name__
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{pkg}.{short}")
            for name in _public_functions(module):
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{name}"))
        aliases = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        for module in aliases:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        locate = _p_locator(fn)
        fids, parents, ps, starts, ends = self.fid, self.parent, self.p, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ps.append(locate(args, kwargs))
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return traced

    def summary(self, wall_s: float) -> dict[str, object]:
        """Per-function calls, self_s and total_s; per-module self_s; uncovered_s.

        Self time is a span's duration minus the durations of its child
        spans (children of one span never overlap: one thread). total_s
        counts only outermost spans of a function, so recursion is not
        counted twice. uncovered_s is wall time covered by no span.
        """
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        n, k = len(fid), len(self.names)
        child = array("q", bytes(8 * n))
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        calls, self_ns, total_ns, open_count = [0] * k, [0] * k, [0] * k, [0] * k
        stack: list[int] = []
        roots_ns = 0
        for i in range(n):
            par = parent[i]
            while stack and stack[-1] != par:
                open_count[fid[stack.pop()]] -= 1
            f = fid[i]
            dur = end[i] - start[i]
            calls[f] += 1
            self_ns[f] += dur - child[i]
            if open_count[f] == 0:
                total_ns[f] += dur
            if par < 0:
                roots_ns += dur
            open_count[f] += 1
            stack.append(i)
        functions = {name: {"calls": calls[f], "self_s": self_ns[f] / 1e9,
                            "total_s": total_ns[f] / 1e9}
                     for f, name in enumerate(self.names)}
        modules = {short: {"self_s": sum(v["self_s"] for name, v in functions.items()
                                         if name.split(".", 1)[0] == short)}
                   for short in MODULES}
        return {"functions": functions, "modules": modules, "spans": n,
                "uncovered_s": wall_s - roots_ns / 1e9}

    def write(self, path: str) -> None:
        p = array("q", self.p)
        arrays = (("fid", self.fid), ("parent", self.parent), ("start_ns", self.start),
                  ("end_ns", self.end), ("p", p))
        header = {"names": self.names, "count": len(self.fid), "clock": "perf_counter_ns",
                  "arrays": [[name, arr.typecode, arr.itemsize] for name, arr in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)
