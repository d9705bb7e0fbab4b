"""Acceptance gate: one test per headline criterion, each printing a single
pass/fail line with its elapsed time.  Every check is exact integer
arithmetic; the time limits are generous compared to observed runtimes.
"""

import time

import pytest

from immaculate.compositions import scale
from immaculate.linear import LinComb
from immaculate.nsym import product_in_S_oracle, structure_constant
from immaculate.pieri import left_pieri, left_pieri_unit_coefficient, sgn
from immaculate.sweeps import (
    sweep_chi,
    sweep_involution,
    sweep_left_pieri,
    sweep_lr_classical,
    sweep_lr_partition,
    sweep_right_pieri,
    sweep_roundtrip,
    sweep_saturation_sym,
    sweep_translation,
)
from immaculate.tableaux import count_immaculate_LR, signed_product


def report(name, elapsed, limit, ok=True, detail=""):
    status = "pass" if ok else "FAIL"
    line = f"[acceptance] {name}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, detail
    assert elapsed < limit, f"{name} took {elapsed:.2f}s (limit {limit}s)"


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_01_worked_product_three_methods():
    expected = LinComb(
        "S",
        {(3, 1, 4): 1, (2, 2, 4): 1, (3, 2, 3): 1, (5, 3): -1, (4, 3, 1): -1},
    )

    def check():
        return (
            product_in_S_oracle((2,), (2, 4)) == expected
            and signed_product((2,), (2, 4)) == expected
            and left_pieri(2, (2, 4)) == expected
        )

    ok, elapsed = timed(check)
    report("worked product, three methods", elapsed, 1, ok)


def test_02_saturation_counterexample():
    def check():
        base_oracle = structure_constant((1, 1), (3, 2, 2), (3, 3, 1, 1, 1))
        base_count = count_immaculate_LR((1, 1), (3, 2, 2), (3, 3, 1, 1, 1))
        scaled_oracle = structure_constant((2, 2), (6, 4, 4), (6, 6, 2, 2, 2))
        scaled_count = count_immaculate_LR((2, 2), (6, 4, 4), (6, 6, 2, 2, 2))
        return (
            base_oracle == base_count == 0
            and scaled_oracle == 1
            and scaled_count == 1
        )

    ok, elapsed = timed(check)
    report("saturation counterexample, both routes", elapsed, 10, ok)


def test_03_closed_form_single_coefficient():
    def check():
        value = left_pieri_unit_coefficient((3, 1, 4), (2, 3, 2, 2))
        oracle = product_in_S_oracle((1,), (3, 1, 4)).coefficient((2, 3, 2, 2))
        return value == -1 == oracle and sgn((0, -1, 2)) == -1

    ok, elapsed = timed(check)
    report("closed-form coefficient -1", elapsed, 1, ok)


def test_04_right_pieri_exhaustive():
    witness, elapsed = timed(lambda: sweep_right_pieri(6))
    report("right Pieri |alpha|<=6, s<=4", elapsed, 120,
           witness is None, witness or "")


def test_05_left_pieri_exhaustive():
    witness, elapsed = timed(lambda: sweep_left_pieri(7))
    report("left Pieri |beta|<=7, len<=4, s<=3", elapsed, 300,
           witness is None, witness or "")


def test_06_translation_invariance():
    witness, elapsed = timed(lambda: sweep_translation(6))
    report("translation invariance |alpha|+|beta|<=6, |v|<=2", elapsed, 300,
           witness is None, witness or "")


def test_07_lr_positivity_partition_right_factor():
    witness, elapsed = timed(lambda: sweep_lr_partition(7))
    report("LR positivity |alpha|+|lam|<=7", elapsed, 300,
           witness is None, witness or "")


def test_08_involution_laws():
    witness, elapsed = timed(lambda: sweep_involution(6))
    report("involution laws |alpha|+|beta|<=6", elapsed, 300,
           witness is None, witness or "")


def test_09_basis_round_trip():
    witness, elapsed = timed(lambda: sweep_roundtrip(8))
    report("basis round trip degree<=8", elapsed, 60,
           witness is None, witness or "")


def test_10_classical_frame():
    def check():
        return (
            sweep_lr_classical(8)
            or sweep_saturation_sym(6)
            or sweep_chi(6)
        )

    witness, elapsed = timed(check)
    report("classical frame: LR<=8, saturation<=6, chi<=6", elapsed, 300,
           witness is None, witness or "")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
