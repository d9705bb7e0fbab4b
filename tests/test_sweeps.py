"""The verify sweeps report the first disagreement between their routes.

Each case breaks one route (a name in ``immaculate.sweeps``) on some inputs
and pins the exact witness the sweep returns, so a sweep's order of
instances and the wording of its witness cannot change unnoticed."""

import inspect

import pytest

from immaculate import sweeps
from immaculate.linear import LinComb
from immaculate.tableaux import SkewTableau


def zero_S(*_):
    return LinComb.zero("S")


def doubled(expansion):
    return LinComb(expansion.basis, {g: 2 * c for g, c in expansion.terms.items()})


def when(condition, wrong):
    """Wrap a route: ``wrong(orig, *args)`` where ``condition(*args)``."""
    def patch(orig):
        def route(*args):
            return wrong(orig, *args) if condition(*args) else orig(*args)
        return route
    return patch


def one_way(orig):
    """``phi_on_image`` that acts only towards lexicographically larger rows,
    so no pair of tableaux it moves is swapped back."""
    def route(t, *rest):
        image = orig(t, *rest)
        return image if image.rows >= t.rows else t
    return route


def one_cell_more(orig, t, *rest):
    """A tableau with one cell more than any member of ``t``'s family."""
    return SkewTableau(t.inner, t.rows + ((1,),))


WITNESSES = [
    pytest.param(
        "roundtrip", 3,
        {"immaculate_comb_to_H": when(lambda f: f.terms == {(2,): 1},
                                      lambda orig, f: zero_S())},
        "H->S->H failed at alpha=(2,)", id="roundtrip-H"),
    pytest.param(
        "roundtrip", 3,
        {"immaculate_to_H": when(lambda alpha: len(alpha) == 2,
                                 lambda orig, alpha: LinComb.zero("H"))},
        "S->H->S failed at alpha=(1, 1)", id="roundtrip-S"),
    pytest.param(
        "right-pieri", 3,
        {"right_pieri": when(lambda alpha, s: s == 3 and len(alpha) == 2, zero_S)},
        "right Pieri failed at alpha=(1, 1), s=3", id="right-pieri"),
    pytest.param(
        "left-pieri", 3,
        {"left_pieri": when(lambda s, beta: s == 2 and beta == (2,), zero_S)},
        "left Pieri failed at s=2, beta=(2,)", id="left-pieri-closed"),
    pytest.param(
        "left-pieri", 3,
        {"left_pieri": when(lambda s, beta: beta == (1,),
                            lambda orig, *args: doubled(orig(*args))),
         "product_in_S_oracle": when(lambda alpha, beta: beta == (1,),
                                     lambda orig, *args: doubled(orig(*args)))},
        "coefficient outside {-1,0,1} at s=1, beta=(1,)", id="left-pieri-coefficient"),
    pytest.param(
        "left-pieri", 3,
        {"zero_insertion_sign_sum": when(lambda beta, gamma: len(beta) == 2,
                                         lambda orig, beta, gamma: 5)},
        "cancellation bookkeeping failed at beta=(1, 1), gamma=(1, 1, 1)",
        id="left-pieri-bookkeeping"),
    pytest.param(
        "translation", 3,
        {"product_in_S_oracle": when(lambda alpha, beta: alpha == (2, 1), zero_S)},
        "translation failed at alpha=(1, 1), beta=(), v=(1,)", id="translation"),
    pytest.param(
        "translation", 3,
        {"product_in_S_oracle": when(lambda alpha, beta: beta == (1,),
                                     lambda *_: LinComb.monomial("S", ()))},
        "short gamma=() for v=(1,)", id="translation-short"),
    pytest.param(
        "lr-partition", 3,
        {"immaculate_LR_product": when(
            lambda alpha, lam: lam == (3,),
            lambda orig, *args: orig(*args) + LinComb.monomial("S", (1, 2)))},
        "LR count mismatch at alpha=(), lam=(3,), gamma=(1, 2): oracle 0 vs count 1",
        id="lr-partition"),
    pytest.param(
        "lr-partition", 3,
        {"product_in_S_oracle": when(
            lambda alpha, beta: (alpha, beta) == ((), (3,)),
            lambda orig, *args: orig(*args) + LinComb.monomial("S", (2, 1)))},
        "LR count mismatch at alpha=(), lam=(3,), gamma=(2, 1): oracle 1 vs count 0",
        id="lr-partition-oracle"),
    pytest.param(
        "involution", 3,
        {"phi_on_image": one_way},
        "phi_2 not an involution at alpha=(), beta=(1, 1), T=((1, 1),)",
        id="involution-not-involution"),
    pytest.param(
        "involution", 3,
        {"phi_on_image": when(lambda t, y_rows, sigma, r: r == 2, one_cell_more)},
        "phi_2 left the family at alpha=(), beta=(1, 1), T=((1,), (2,))",
        id="involution-left-family"),
    pytest.param(
        "saturation-sym", 3,
        {"saturation_check_sym": when(lambda mu, nu, lam, n: lam == (2, 1),
                                      lambda orig, *args: False)},
        "symmetric saturation failed at mu=(), nu=(3,), lam=(2, 1), N=2",
        id="saturation-sym"),
    pytest.param(
        "saturation-nsym", 0,
        {"count_immaculate_LR": lambda orig: lambda alpha, beta, gamma: 0},
        "expected coefficients (0, 1) at the counterexample, got (0, 0)",
        id="saturation-nsym"),
    pytest.param(
        "chi", 3,
        {"schur_to_h": when(lambda lam: lam == (2, 1),
                            lambda orig, lam: LinComb.zero("h"))},
        "chi mismatch at lam=(2, 1)", id="chi"),
    pytest.param(
        "lr-classical", 3,
        {"lr_coefficient_tableau": when(lambda mu, nu, lam: lam == (2, 1),
                                        lambda orig, *args: orig(*args) + 1)},
        "classical LR mismatch at mu=(), nu=(3,), lam=(2, 1): algebra 0 vs tableau 1",
        id="lr-classical"),
]


@pytest.mark.parametrize("suite,size,patches,witness", WITNESSES)
def test_first_witness(monkeypatch, suite, size, patches, witness):
    for name, patch in patches.items():
        monkeypatch.setattr(sweeps, name, patch(getattr(sweeps, name)))
    assert sweeps.SUITES[suite](size) == witness


def test_every_suite_has_a_witness_case():
    assert {p.values[0] for p in WITNESSES} == set(sweeps.SUITES)


def test_sweep_driver():
    @sweeps._sweep
    def empty(max_size):
        yield from ()

    @sweeps._sweep
    def equal(max_size):
        for n in range(max_size):
            yield n, n, "unequal at n={}", (n,)

    drawn = []

    @sweeps._sweep
    def failing(max_size):
        yield 1, 1, "first", ()
        yield 1, 2, "at n={}: got {got}, want {want}", (7,)
        drawn.append("after")
        yield 3, 3, "third", ()

    assert empty(3) == sweeps.NOTHING_COMPARED
    assert equal(3) is None
    assert equal(0) == sweeps.NOTHING_COMPARED
    assert failing(0) == "at n=7: got 1, want 2"
    assert drawn == []


def test_sweeps_are_plain_functions():
    # the tracer picks a span kind by this test, and callers expect a result
    for name in dir(sweeps):
        if name.startswith("sweep_"):
            assert not inspect.isgeneratorfunction(getattr(sweeps, name)), name
