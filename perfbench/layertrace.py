"""Per-layer tracer for one equivlk CLI campaign, run from outside the program.

    python3 perfbench/layertrace.py --trace-out FILE -- <equivlk CLI arguments>

runs ``equivlk.cli.main`` in this fresh interpreter after wrapping the public
functions and methods of every measured ``equivlk`` module, plus the mpmath
entry points equivlk calls.  The report is written exactly as an untraced
run writes it; the spans and counts go to FILE as JSON.

A layer is a module.  Entering a wrapped function of another layer than the
innermost open span opens a new span; a layer's self time is its span time
minus the time of the spans opened inside it.  Self times therefore add up
to the traced time with nothing counted twice.  The inclusive time of a
function counts its outermost active call only, so recursion is not counted
twice either.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# equivlk modules measured as layers.  padic and linalg are left out: no
# campaign reaches padic, and linalg is only called from inside groups.
LAYERS = ("cli", "groups", "group_algebra", "fitting", "snf", "cyclo",
          "dirichlet", "lseries", "numeric", "stickelberger")

# mpmath functions that equivlk calls by name (`mp.<name>(...)`).  Types and
# context managers (mpf, mpc, workprec) are not spans.
MPMATH_FUNCS = ("zeta", "gamma", "power", "factorial", "expjpi", "sqrt",
                "log", "floor", "nstr", "mpmathify")

# Dunder methods that do work worth a span; comparisons and hashing are left
# unwrapped because dict and set lookups call them too often to pay for one.
DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
           "__pow__")

clock = time.perf_counter


class Tracer:
    """Counts and span times, keyed "<layer>.<qualified name>"."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)  # observed argument counters
        self._active = defaultdict(int)
        self._stack = []  # open spans: [layer, time of child spans]
        self.originals = {}  # original callable -> wrapper
        self.keys = set()

    def wrap(self, layer: str, key: str, fn, observe=None):
        if fn in self.originals:
            return self.originals[fn]
        calls, incl_s, self_s = self.calls, self.incl_s, self.self_s
        active, stack = self._active, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if observe is not None:
                observe(args, kwargs)
            span = None
            if not stack or stack[-1][0] != layer:
                span = [layer, 0.0]
                stack.append(span)
            outer = active[key] == 0
            active[key] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[key] -= 1
                if outer:
                    incl_s[key] += dt
                if span is not None:
                    stack.pop()
                    self_s[layer] += dt - span[1]
                    if stack:
                        stack[-1][1] += dt

        wrapper.__perfbench_wrapped__ = fn
        self.originals[fn] = wrapper
        self.keys.add(key)
        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every target and rebind every equivlk reference to it."""
        import mpmath

        modules = {name: importlib.import_module(f"equivlk.{name}")
                   for name in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    self.wrap(layer, f"{layer}.{name}", obj)
        self._wrap_mpmath(mpmath)
        self._rebind()
        self.self_check(mpmath)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            observe = _observe_normalize(self) if (
                layer == "cyclo" and name == "__init__") else None
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(
                    self.wrap(layer, key, attr.__func__, observe)))
            elif inspect.isfunction(attr) or _is_lru_cache(attr):
                setattr(cls, name, self.wrap(layer, key, attr, observe))

    def _wrap_mpmath(self, mpmath):
        for name in MPMATH_FUNCS:
            observe = _observe_prec(self, mpmath) if name == "zeta" else None
            setattr(mpmath, name,
                    self.wrap("mpmath", f"mpmath.{name}", getattr(mpmath, name), observe))

    def _rebind(self):
        """Names imported by value (`from .snf import hermite_normal_form`)
        and tables of functions (cli.SUBCOMMANDS) still point at the
        originals; point them at the wrappers."""
        for mod in _equivlk_modules():
            for name, value in list(vars(mod).items()):
                wrapper = self._wrapper_of(value)
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        wrapper = self._wrapper_of(v)
                        if wrapper is not None:
                            value[k] = wrapper

    def _wrapper_of(self, value):
        try:
            return self.originals.get(value)
        except TypeError:  # unhashable
            return None

    def self_check(self, mpmath):
        """Fail unless every reference in equivlk reaches a wrapper."""
        stale = []
        for mod in _equivlk_modules():
            for name, value in vars(mod).items():
                if self._wrapper_of(value) is not None:
                    stale.append(f"{mod.__name__}.{name}")
                if isinstance(value, dict):
                    stale += [f"{mod.__name__}.{name}[{k!r}]"
                              for k, v in value.items()
                              if self._wrapper_of(v) is not None]
                if inspect.isclass(value) and value.__module__.startswith("equivlk"):
                    for attr_name, attr in vars(value).items():
                        if isinstance(attr, staticmethod):
                            attr = attr.__func__
                        if self._wrapper_of(attr) is not None:
                            stale.append(f"{value.__qualname__}.{attr_name}")
        stale += [f"mpmath.{n}" for n in MPMATH_FUNCS
                  if not hasattr(getattr(mpmath, n), "__perfbench_wrapped__")]
        if stale:
            raise RuntimeError("unwrapped trace targets: " + ", ".join(sorted(set(stale))))
        missing = [layer for layer in LAYERS + ("mpmath",)
                   if not any(k.startswith(layer + ".") for k in self.keys)]
        if missing:
            raise RuntimeError("layers with no trace target: " + ", ".join(missing))

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "incl_s": dict(self.incl_s),
                "self_s": dict(self.self_s), "extra": dict(self.extra),
                "targets": sorted(self.keys)}


def _is_lru_cache(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info")


def _equivlk_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "equivlk" or n.startswith("equivlk."))]


def _observe_normalize(tracer):
    """CycloNumber(n, coeffs, normalize=True) reduces the conductor when n > 1."""
    extra = tracer.extra

    def observe(args, kwargs):
        n = args[1] if len(args) > 1 else kwargs["n"]
        normalize = args[3] if len(args) > 3 else kwargs.get("normalize", True)
        if normalize and n > 1:
            extra["cyclo.normalize.calls"] += 1

    return observe


def _observe_prec(tracer, mpmath):
    extra = tracer.extra

    def observe(args, kwargs):
        extra["mpmath.zeta.prec_bits_sum"] += mpmath.mp.prec

    return observe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True,
                        help="write spans and counts to this JSON file")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the equivlk CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    tracer.install()
    from equivlk import cli

    # time inside run_* and, after it returns, report build and write
    run = cli.SUBCOMMANDS[cli_args[0]]
    marks = {}

    def campaign(*a, **kw):
        marks["start"] = clock()
        try:
            return run(*a, **kw)
        finally:
            marks["end"] = clock()

    cli.SUBCOMMANDS[cli_args[0]] = campaign
    code = cli.main(cli_args)
    done = clock()
    result = tracer.snapshot()
    result["campaign_s"] = marks["end"] - marks["start"]
    result["report_s"] = done - marks["end"]
    with open(args.trace_out, "w") as fh:
        json.dump(result, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
