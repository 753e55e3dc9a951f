"""Outside-in tracing of bscbounds: wrap public functions, record spans.

``Tracer.install`` replaces each traced function by a wrapper in every
``bscbounds`` module namespace that holds it, so calls between modules and
inside a module (both go through module globals) are recorded.  Each call
becomes one span ``[name, start, end, parent index, extra]``; spans stay in
memory until ``summary`` folds them into calls, inclusive time and self time
(inclusive minus the time of traced child spans).

``core.binary_entropy`` is deliberately not wrapped: it is a scalar leaf
called millions of times on a full curve, and a wrapper would dominate it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# modules whose public functions (``__all__``) are traced
TRACED_MODULES = ("core", "spectrum", "quadrature", "optimizer", "hahn",
                  "oracle", "verify")
UNTRACED = {"core.binary_entropy"}
# in cli only the entry point: its self time is parsing, formatting and emit
CLI_ENTRY = "main"

ENUMERATORS = ("oracle.exact_pe_ml", "oracle.lower_bound_21",
               "oracle.cover_report", "oracle.restricted_cover_max")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bscbounds"
                                  or name.startswith("bscbounds."))]


def lru_caches() -> dict:
    """Every functools.lru_cache object defined in a bscbounds module."""
    found = {}
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if (hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")
                    and getattr(obj, "__module__", None) == mod.__name__):
                found[f"{mod.__name__.split('.')[-1]}.{attr}"] = obj
    return found


def cache_state() -> dict:
    return {name: c.cache_info()._asdict() for name, c in lru_caches().items()}


def _extra(name: str):
    """What a span records beyond its times, or None."""
    if name == "spectrum.log_kernel":
        return lambda args, kwargs, result: int(np.size(args[0]))
    if name == "optimizer.F1_maximize":
        return lambda args, kwargs, result: result.iterations
    if name in ENUMERATORS:
        # keep the code and the distance; enumeration sizes come at the end
        return lambda args, kwargs, result: (
            args[0] if args else kwargs["code"],
            args[2] if len(args) > 2 else kwargs.get("omega_dist"))
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _extra(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from bscbounds import cli, spectrum

        mods = _package_modules()
        targets = [(f"cli.{CLI_ENTRY}", getattr(cli, CLI_ENTRY))]
        for short in TRACED_MODULES:
            mod = sys.modules[f"bscbounds.{short}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and name not in UNTRACED):
                    targets.append((name, obj))
        for name, fn in targets:
            wrapped = self.wrap(name, fn)
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapped)
        cls = spectrum.MuSlice
        cls.__init__ = self.wrap("spectrum.MuSlice.build", cls.__init__)
        cls.mu = self.wrap("spectrum.MuSlice.mu", cls.mu)

    def summary(self) -> dict:
        """Per name: calls, inclusive and self seconds, summed extras."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for k, (name, t0, t1, _, extra) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                        "self_s": 0.0, "extra": 0})
            rec["calls"] += 1
            rec["incl_s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child[k]
            if isinstance(extra, int):
                rec["extra"] += extra
        out["oracle.enumeration"] = _enumeration_sizes(
            [(s[0], s[4]) for s in spans if s[0] in ENUMERATORS])
        return out


def _enumeration_sizes(calls: list) -> dict:
    """Outputs enumerated and output-codeword distances computed.

    exact_pe_ml, lower_bound_21 and cover_report each make one pass over the
    2^n outputs against all M words (the first two skip codes with M < 2);
    restricted_cover_max makes one pass per reference word that has a word at
    the requested distance, against those words only.
    """
    outputs = distances = 0
    columns: dict = {}
    for name, extra in calls:
        if extra is None:        # the call raised
            continue
        code, omega_dist = extra
        width = 1 << code.n
        if name == "oracle.restricted_cover_max":
            key = (code.n, code.words, int(omega_dist))
            if key not in columns:
                w = np.asarray(code.words, dtype=np.uint32)
                hits = (np.bitwise_count(w[:, None] ^ w[None, :])
                        == key[2]).sum(axis=1)
                columns[key] = (int((hits > 0).sum()), int(hits.sum()))
            refs, cols = columns[key]
            outputs += width * refs
            distances += width * cols
        elif code.M >= 2 or name == "oracle.cover_report":
            outputs += width
            distances += width * code.M
    return {"outputs": outputs, "distances": distances}
