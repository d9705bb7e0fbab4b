"""Span tracing of the ``immaculate`` package from outside it.

``Installation`` wraps chosen public functions of each ``immaculate.*``
module and rebinds every name that refers to them in every ``immaculate.*``
module namespace: the modules import each other's functions with ``from .x import
f``, so patching the defining module alone would miss those call sites.

Spans record name, start, end and parent and stay in memory (flat arrays)
until the run ends.  A span's ``busy`` time is its duration; for a generator
it is the time spent inside its resumptions, so iteration is timed rather
than the call that creates the generator.  Self time is busy time minus the
busy time of the direct child spans.  Hot helpers are counted, not spanned.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "immaculate"

# Functions timed by a span, per module.  Anything not listed here runs
# inside its caller's span and counts toward the caller's self time.
SPANNED = {
    "cli": ("main",),
    "compositions": (
        "permutations", "compositions_of", "weak_compositions", "partitions_of",
        "right_pieri_successors", "horizontal_strip_successors",
    ),
    "nsym": (
        "immaculate_to_H", "H_to_immaculate", "product_in_S_oracle",
        "structure_constant", "immaculate_comb_to_H", "h_multiply",
        "sym_multiply", "forgetful_chi",
    ),
    "tableaux": (
        "enumerate_skew_immaculate", "enumerate_T_alpha_beta", "signed_product",
        "signed_product_via_tableaux", "count_immaculate_LR",
    ),
    "pieri": ("left_pieri", "right_pieri", "zero_insertion_sign_sum",
              "translation_reduce"),
    "involution": ("phi_r", "y_map", "y_inverse", "theta_x", "nefarious_cells"),
    "schur": (
        "schur_to_h", "h_to_schur", "schur_product_in_s", "lr_coefficient_algebra",
        "lr_coefficient_tableau", "pieri_sym", "saturation_check_sym",
        "saturation_check_nsym",
    ),
    "sweeps": (
        "sweep_roundtrip", "sweep_right_pieri", "sweep_left_pieri",
        "sweep_translation", "sweep_lr_partition", "sweep_involution",
        "sweep_saturation_sym", "sweep_saturation_nsym", "sweep_chi",
    ),
}

# Hot helpers: counted per call, keyed by the innermost open span.
COUNTED = {
    "compositions": ("check_composition", "check_partition"),
    "pieri": ("z_membership", "left_pieri_unit_coefficient"),
}

NO_SPAN = -1


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (name, innermost span name) -> calls
        self.items: Counter = Counter()   # name -> items returned or yielded
        self.items_in: Counter = Counter()  # name -> terms of a LinComb argument

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def top_name(self) -> int:
        return self.name[self.stack[-1]] if self.stack else NO_SPAN

    def new_span(self, nid: int) -> int:
        sid = len(self.name)
        now = self.clock()
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else NO_SPAN)
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        return sid

    def enter(self, sid: int) -> float:
        self.stack.append(sid)
        return self.clock()

    def leave(self, sid: int, since: float):
        now = self.clock()
        self.stack.pop()
        self.end[sid] = now
        self.busy[sid] += now - since

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.name)
        parent, busy = self.parent, self.busy
        for sid in range(len(busy)):
            if parent[sid] != NO_SPAN:
                child[parent[sid]] += busy[sid]
        out = Counter()
        for sid, nid in enumerate(self.name):
            out[self.names[nid]] += busy[sid] - child[sid]
        return out

    def calls(self) -> Counter:
        """Number of spans per name."""
        out = Counter()
        for nid, n in Counter(self.name).items():
            out[self.names[nid]] = n
        return out

    def counted(self, name: str, under: str | None = None) -> int:
        """Calls of a counted helper, optionally only those made while the
        innermost open span was ``under``."""
        return sum(n for (key, top), n in self.counts.items()
                   if key == name and (under is None or top == under))


def span_function(tracer: Tracer, name: str, fn):
    """Wrap a plain function: one span per call."""
    nid = tracer.intern(name)

    def traced(*args, **kwargs):
        if args and hasattr(args[0], "terms"):
            tracer.items_in[name] += len(args[0].terms)
        sid = tracer.new_span(nid)
        since = tracer.enter(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(sid, since)
        if hasattr(result, "__len__"):
            tracer.items[name] += len(result)
        return result

    traced.__wrapped__ = fn
    return traced


class _TracedIterator:
    """Times each resumption of a generator inside its span."""

    __slots__ = ("tracer", "name", "sid", "it")

    def __init__(self, tracer, name, sid, it):
        self.tracer, self.name, self.sid, self.it = tracer, name, sid, it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        since = tracer.enter(self.sid)
        try:
            item = next(self.it)
        finally:
            tracer.leave(self.sid, since)
        tracer.items[self.name] += 1
        return item


def span_generator(tracer: Tracer, name: str, fn):
    """Wrap a generator function: one span per generator, timed over its
    iteration.  A recursive call made while the same generator is running
    is left untraced, as part of the outer span."""
    nid = tracer.intern(name)

    def traced(*args, **kwargs):
        if tracer.top_name() == nid:
            return fn(*args, **kwargs)
        return _TracedIterator(tracer, name, tracer.new_span(nid), fn(*args, **kwargs))

    traced.__wrapped__ = fn
    return traced


def count_function(tracer: Tracer, name: str, fn):
    """Wrap a hot helper: count calls by innermost open span, no span."""
    counts, names = tracer.counts, tracer.names

    def counted(*args, **kwargs):
        top = tracer.top_name()
        counts[name, names[top] if top != NO_SPAN else None] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def count_lincomb_init(tracer: Tracer, init):
    """Wrap ``LinComb.__init__``: count constructions and input terms."""
    counts = tracer.counts

    def counted(self, basis, terms=None):
        counts["linear.LinComb", None] += 1
        if terms:
            counts["linear.LinComb.terms_in", None] += len(terms)
        return init(self, basis, terms)

    counted.__wrapped__ = init
    return counted


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Installation:
    """The wrappers bound into the package; ``remove`` restores it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.wrappers = {}  # original function -> wrapper
        self.rebound = []   # (module, attribute, original)
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in package_modules()}
        for short, names in SPANNED.items():
            for fname in names:
                fn = getattr(modules[short], fname)
                make = span_generator if inspect.isgeneratorfunction(fn) else span_function
                self.wrappers[fn] = make(tracer, f"{short}.{fname}", fn)
        for short, names in COUNTED.items():
            for fname in names:
                fn = getattr(modules[short], fname)
                self.wrappers[fn] = count_function(tracer, f"{short}.{fname}", fn)
        self.lincomb = modules["linear"].LinComb
        self.lincomb_init = self.lincomb.__init__
        self.lincomb.__init__ = count_lincomb_init(tracer, self.lincomb_init)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = self.wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self.rebound.append((module, attr, value))

    def unreached(self) -> list:
        """Names in any package namespace still bound to an unwrapped
        original; empty when the rebinding reached every call site."""
        return [f"{m.__name__}.{attr}" for m in package_modules()
                for attr, value in vars(m).items()
                if callable(value) and value in self.wrappers]

    def remove(self):
        for module, attr, original in reversed(self.rebound):
            setattr(module, attr, original)
        self.lincomb.__init__ = self.lincomb_init
        self.rebound.clear()


class Caches:
    """Every ``functools`` cache in the package, found by introspection:
    module-level objects and class attributes with ``cache_clear``."""

    def __init__(self):
        found = {}
        for module in package_modules():
            for value in vars(module).values():
                candidates = [value]
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    candidates += list(vars(value).values())
                for obj in candidates:
                    obj = getattr(obj, "__func__", obj)
                    if callable(getattr(obj, "cache_clear", None)):
                        found[f"{obj.__module__}.{obj.__qualname__}"] = obj
        self.caches = dict(sorted(found.items()))

    def names(self) -> list:
        return list(self.caches)

    def clear(self):
        for cache in self.caches.values():
            cache.cache_clear()

    def info(self) -> Counter:
        """Current hits and misses, keyed (cache name, 'hits'|'misses')."""
        out = Counter()
        for name, cache in self.caches.items():
            if hasattr(cache, "cache_info"):
                info = cache.cache_info()
                out[name, "hits"] += info.hits
                out[name, "misses"] += info.misses
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_stats: Counter) -> dict:
    """The per-layer metrics of one traced batch, as plain numbers."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    items = tracer.items

    def hit_ratio(cache):
        hits = cache_stats[cache, "hits"]
        return _ratio(hits, hits + cache_stats[cache, "misses"])

    generators = ("compositions_of", "weak_compositions", "partitions_of",
                  "right_pieri_successors", "horizontal_strip_successors")
    left_candidates = tracer.counted("pieri.left_pieri_unit_coefficient",
                                     under="pieri.left_pieri")
    return {
        "cli.self_s": self_s["cli.main"],
        "compositions.permutations.self_s": self_s["compositions.permutations"],
        "compositions.permutations.cache_hit_ratio":
            hit_ratio("immaculate.compositions.permutations"),
        "compositions.generators.self_s":
            sum(self_s["compositions." + g] for g in generators),
        "compositions.check.calls": tracer.counted("compositions.check_composition")
            + tracer.counted("compositions.check_partition"),
        "linear.lincomb.calls": tracer.counted("linear.LinComb"),
        "linear.lincomb.terms_in": tracer.counted("linear.LinComb.terms_in"),
        "nsym.immaculate_to_H.calls": calls["nsym.immaculate_to_H"],
        "nsym.immaculate_to_H.self_s": self_s["nsym.immaculate_to_H"],
        "nsym.immaculate_to_H.cache_hit_ratio":
            hit_ratio("immaculate.nsym.immaculate_to_H"),
        "nsym.immaculate_to_H.terms_out": items["nsym.immaculate_to_H"],
        "nsym.H_to_immaculate.calls": calls["nsym.H_to_immaculate"],
        "nsym.H_to_immaculate.self_s": self_s["nsym.H_to_immaculate"],
        "nsym.H_to_immaculate.terms_in": tracer.items_in["nsym.H_to_immaculate"],
        "nsym.product_in_S_oracle.self_s": self_s["nsym.product_in_S_oracle"],
        "nsym.product_in_S_oracle.cache_hit_ratio":
            hit_ratio("immaculate.nsym.product_in_S_oracle"),
        "tableaux.enumerate_skew_immaculate.calls":
            calls["tableaux.enumerate_skew_immaculate"],
        "tableaux.enumerate_skew_immaculate.self_s":
            self_s["tableaux.enumerate_skew_immaculate"],
        "tableaux.enumerate_skew_immaculate.tableaux_out":
            items["tableaux.enumerate_skew_immaculate"],
        "tableaux.count_immaculate_LR.self_s": self_s["tableaux.count_immaculate_LR"],
        "pieri.left_pieri.calls": calls["pieri.left_pieri"],
        "pieri.left_pieri.self_s": self_s["pieri.left_pieri"],
        "pieri.left_pieri.terms_out": items["pieri.left_pieri"],
        "pieri.left_pieri.candidate_yield":
            _ratio(items["pieri.left_pieri"], left_candidates),
        "pieri.right_pieri.self_s": self_s["pieri.right_pieri"],
        "pieri.right_pieri.terms_out": items["pieri.right_pieri"],
        "pieri.z_membership.calls": tracer.counted("pieri.z_membership"),
        "involution.phi_r.calls": calls["involution.phi_r"],
        "involution.phi_r.self_s": self_s["involution.phi_r"],
        "involution.y_map.calls": calls["involution.y_map"],
        "involution.y_map.self_s": self_s["involution.y_map"],
        "involution.y_map_per_phi_r":
            _ratio(calls["involution.y_map"], calls["involution.phi_r"]),
        "schur.schur_to_h.self_s": self_s["schur.schur_to_h"],
        "schur.schur_to_h.cache_hit_ratio": hit_ratio("immaculate.schur.schur_to_h"),
        "schur.h_to_schur.self_s": self_s["schur.h_to_schur"],
    }
