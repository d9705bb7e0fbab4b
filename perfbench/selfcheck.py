"""Checks of the benchmark's own tracing.

    python3 perfbench/selfcheck.py

1. Span arithmetic on a hand-built span tree: self time, nested children
   and a generator whose resumptions are interleaved with its parent's work.
2. The wrappers, driven by a clock that moves only when the test moves it:
   a plain function, a generator (timed over its iteration, not between
   resumptions) and a wrapper around an ``lru_cache`` function (miss, hit).
3. Reach: after ``Installation``, no ``immaculate.*`` namespace still holds
   an unwrapped original, and spans appear for call sites inside the
   package (``nsym`` calling its own ``immaculate_to_H``, ``pieri`` calling
   ``compositions_of``), not just for the functions the CLI calls.
4. Speed scaling: the kernel samples a time is scaled by (those in its
   window, else the nearest ones), and samples taken by the timer in the
   middle of busy work, with their time counted in ``spent``.

``run.py`` runs these before every traced run and refuses to trace if one
fails.  Exit status 0 when all pass.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from functools import lru_cache
from pathlib import Path

import reference
import tracing


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _require(cond: bool, message: str):
    if not cond:
        raise AssertionError(message)


def check_span_arithmetic():
    clock = ManualClock()
    t = tracing.Tracer(clock)
    root = t.new_span(t.intern("root"))
    root_since = t.enter(root)                 # root runs 0..10
    clock.now = 1
    a = t.new_span(t.intern("a"))
    a_since = t.enter(a)                       # a runs 1..4
    clock.now = 2
    b = t.new_span(t.intern("b"))
    b_since = t.enter(b)                       # b, nested in a, runs 2..3
    clock.now = 3
    t.leave(b, b_since)
    clock.now = 4
    t.leave(a, a_since)
    clock.now = 5
    g = t.new_span(t.intern("g"))              # generator created at 5
    g_since = t.enter(g)                       # first resumption 5..6
    clock.now = 5.25
    c = t.new_span(t.intern("c"))
    c_since = t.enter(c)                       # c, inside the resumption
    clock.now = 5.75
    t.leave(c, c_since)
    clock.now = 6
    t.leave(g, g_since)
    clock.now = 7                              # root's own work 6..7
    g_since = t.enter(g)                       # second resumption 7..8
    clock.now = 8
    t.leave(g, g_since)
    clock.now = 10
    t.leave(root, root_since)

    got = dict(t.self_times())
    want = {"root": 5.0, "a": 2.0, "b": 1.0, "g": 1.5, "c": 0.5}
    _require(got == want, f"self times {got}, want {want}")
    parents = {t.names[t.name[s]]: (t.names[t.name[t.parent[s]]]
                                    if t.parent[s] != tracing.NO_SPAN else None)
               for s in range(len(t.name))}
    _require(parents == {"root": None, "a": "root", "b": "a", "g": "root", "c": "g"},
             f"parents {parents}")
    _require((t.start[g], t.end[g], t.busy[g]) == (5, 8, 2),
             f"generator span {(t.start[g], t.end[g], t.busy[g])}")
    _require(t.stack == [], "stack not empty")


def check_wrappers():
    clock = ManualClock()
    t = tracing.Tracer(clock)
    bound = {}

    def leaf():
        clock.now += 1
        return (1, 2, 3)

    @lru_cache(maxsize=None)
    def cached(x):
        clock.now += 1
        return bound["leaf"]()

    def gen(n):
        for i in range(n):
            clock.now += 1
            bound["leaf"]()
            yield i

    def root():
        clock.now += 1
        bound["cached"](1)          # miss: runs leaf
        bound["cached"](1)          # hit: no child
        for _ in bound["gen"](2):
            clock.now += 100        # the consumer's work, not the generator's

    bound["leaf"] = tracing.span_function(t, "leaf", leaf)
    bound["cached"] = tracing.span_function(t, "cached", cached)
    bound["gen"] = tracing.span_generator(t, "gen", gen)
    tracing.span_function(t, "root", root)()

    got = dict(t.self_times())
    want = {"root": 201.0, "cached": 1.0, "leaf": 3.0, "gen": 2.0}
    _require(got == want, f"self times {got}, want {want}")
    _require(dict(t.calls()) == {"root": 1, "cached": 2, "leaf": 3, "gen": 1},
             f"calls {dict(t.calls())}")
    busy = {t.names[t.name[s]]: t.busy[s] for s in range(len(t.name))}
    _require(busy["gen"] == 4.0, f"generator busy {busy['gen']}, want 4")
    info = cached.cache_info()
    _require((info.hits, info.misses) == (1, 1), f"cache {info}")
    _require(t.items["gen"] == 2 and t.items["leaf"] == 9,
             f"items {dict(t.items)}")


def check_reach():
    import immaculate.cli

    t = tracing.Tracer()
    installed = tracing.Installation(t)
    try:
        left = installed.unreached()
        _require(not left, f"names still bound to unwrapped originals: {left}")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = [immaculate.cli.main(argv) for argv in (
                ["product", "--left", "S:2", "--right", "S:2,4"],
                ["left-pieri", "--s", "1", "--beta", "2,1"],
            )]
        _require(rc == [0, 0], f"exit codes {rc}")
    finally:
        installed.remove()
    wrappers = {id(w) for w in installed.wrappers.values()}
    still = [f"{m.__name__}.{attr}" for m in tracing.package_modules()
             for attr, value in vars(m).items() if id(value) in wrappers]
    _require(not still, f"wrappers still bound after remove(): {still}")

    pairs = {(t.names[t.name[s]],
              t.names[t.name[t.parent[s]]] if t.parent[s] != tracing.NO_SPAN else None)
             for s in range(len(t.name))}
    for child, parent in (
        ("cli.main", None),
        ("nsym.product_in_S_oracle", "cli.main"),
        ("nsym.immaculate_to_H", "nsym.product_in_S_oracle"),
        ("nsym.immaculate_to_H", "nsym.H_to_immaculate"),
        ("compositions.permutations", "nsym.immaculate_to_H"),
        ("pieri.left_pieri", "cli.main"),
        ("compositions.compositions_of", "pieri.left_pieri"),
    ):
        _require((child, parent) in pairs, f"no span {child} under {parent}")
    _require(t.counted("compositions.check_composition") > 0,
             "check_composition calls were not counted")
    _require(t.counted("pieri.left_pieri_unit_coefficient",
                       under="pieri.left_pieri") > 0,
             "left_pieri_unit_coefficient calls under left_pieri were not counted")
    _require(t.counted("linear.LinComb") > 0, "LinComb constructions were not counted")


def check_speed_scaling():
    speed = reference.Speed()
    speed.at = [float(i) for i in range(20)]
    speed.took = [reference.REFERENCE_S * (1 if i < 10 else 2) for i in range(20)]
    # window 2.75..6.25 holds the samples at 3, 4, 5, 6 (fewer than
    # MIN_SAMPLES), so the 8 nearest to 4.5 count: 1..8, all at speed 1
    _require(speed.scale(3.0, 6.0) == 1.0, f"scale {speed.scale(3.0, 6.0)}")
    # 8 samples nearest to the end: 12..19, all twice as slow
    _require(speed.scale(30.0, 31.0) == 0.5, f"scale {speed.scale(30.0, 31.0)}")
    with_window = reference.WINDOW_S, reference.MIN_SAMPLES
    try:
        reference.WINDOW_S, reference.MIN_SAMPLES = 2.5, 1
        # window 5.5..14.5 holds 6..14: four at speed 1, five at speed 2
        want = 9 / (4 + 5 * 2)
        _require(abs(speed.scale(8.0, 12.0) - want) < 1e-12,
                 f"scale {speed.scale(8.0, 12.0)}, want {want}")
    finally:
        reference.WINDOW_S, reference.MIN_SAMPLES = with_window

    speed = reference.Speed()
    with speed.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * reference.SAMPLE_EVERY_S:
            sum(range(1000))
    _require(len(speed.took) >= 2, f"{len(speed.took)} samples in busy work")
    _require(0 < sum(speed.took) <= speed.spent, "sampling time not counted")


CHECKS = (check_span_arithmetic, check_wrappers, check_reach, check_speed_scaling)


def run_all() -> str | None:
    """None when every check passes, else the first failure."""
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            return f"{check.__name__}: {exc}"
    return None


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failure = run_all()
    print(failure or f"selfcheck: {len(CHECKS)} checks pass")
    sys.exit(1 if failure else 0)
