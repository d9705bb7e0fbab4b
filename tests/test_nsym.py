import random

import pytest

from immaculate.compositions import compositions_of
from immaculate.errors import PreconditionError, ResourceLimitError
from immaculate.linear import LinComb
from immaculate.nsym import (
    H_to_immaculate,
    forgetful_chi,
    h_multiply,
    immaculate_comb_to_H,
    immaculate_to_H,
    product_in_S_oracle,
    structure_constant,
    sym_multiply,
)


def H(*parts):
    return LinComb.monomial("H", parts)


def test_h_multiply_concatenates():
    assert h_multiply(H(2), H(2, 4)) == H(2, 2, 4)
    f = H(3, 1) - 2 * H(2)
    assert h_multiply(H(), f) == f
    assert h_multiply(H(1) - H(2), H(1)) == H(1, 1) - H(2, 1)


def test_sym_multiply_sorts():
    h = lambda *p: LinComb.monomial("h", p)
    assert sym_multiply(h(2), h(4, 2)) == h(4, 2, 2)
    assert sym_multiply(h(), h(3, 1)) == h(3, 1)
    assert sym_multiply(h(1), h(1)) == h(1, 1)


def test_forgetful_chi():
    assert forgetful_chi(H(1, 2)) == LinComb.monomial("h", (2, 1))
    assert forgetful_chi(H(1, 2) - H(2, 1)) == LinComb.zero("h")
    assert forgetful_chi(H()) == LinComb.monomial("h", ())


def test_chi_is_algebra_morphism():
    for a in range(4):
        for b in range(4):
            for alpha in compositions_of(a):
                for beta in compositions_of(b):
                    f, g = H(*alpha), H(*beta)
                    assert forgetful_chi(h_multiply(f, g)) == sym_multiply(
                        forgetful_chi(f), forgetful_chi(g)
                    )


@pytest.mark.parametrize("alpha,expected", [
    ((2,), {(2,): 1}),
    ((1, 1), {(1, 1): 1, (2,): -1}),
    ((1, 2), {(1, 2): 1, (2, 1): -1}),
])
def test_immaculate_to_H_small(alpha, expected):
    assert immaculate_to_H(alpha) == LinComb("H", expected)


def test_H_to_immaculate_example():
    assert H_to_immaculate(H(1, 2)) == LinComb(
        "S", {(1, 2): 1, (2, 1): 1, (3,): 1}
    )
    assert H_to_immaculate(LinComb.zero("H")) == LinComb.zero("S")


LIMIT = "immaculate.compositions.ENUMERATION_LIMIT"


def test_products_counted_up_front(monkeypatch):
    # one product per pair of terms, refused before any is made
    h = lambda *p: LinComb.monomial("h", p)
    f, g = H(1) + H(2), H(1) - H(3) + H(2, 2)
    monkeypatch.setattr(LIMIT, 6)
    assert len(h_multiply(f, g)) == 6
    assert len(sym_multiply(h(1) + h(2), h(1) + h(3) + h(2, 2))) == 6
    monkeypatch.setattr(LIMIT, 5)
    with pytest.raises(ResourceLimitError, match="6 term products in H .limit 5"):
        h_multiply(f, g)
    with pytest.raises(ResourceLimitError, match="6 term products in h .limit 5"):
        sym_multiply(h(1) + h(2), h(1) + h(3) + h(2, 2))


def test_elimination_counts_visited_terms(monkeypatch):
    # H_(1,1,1) -> S scans and applies 15 terms in all
    want = LinComb("S", {(1, 1, 1): 1, (1, 2): 1, (2, 1): 2, (3,): 1})
    monkeypatch.setattr(LIMIT, 15)
    assert H_to_immaculate(H(1, 1, 1)) == want
    monkeypatch.setattr(LIMIT, 14)
    with pytest.raises(ResourceLimitError,
                       match="15 terms in elimination to S .limit 14"):
        H_to_immaculate(H(1, 1, 1))


def test_elimination_of_mixed_degrees_is_the_sum_of_its_monomials():
    f = H(1, 1) + H(3) + H(1, 2, 1)
    want = sum((H_to_immaculate(H(*idx)) for idx in f.terms), LinComb.zero("S"))
    assert H_to_immaculate(f) == want
    assert H_to_immaculate(H(2) - 3 * H(1, 1, 1, 1) + H()) == \
        H_to_immaculate(H(2)) - 3 * H_to_immaculate(H(1, 1, 1, 1)) + LinComb.monomial("S", ())


def test_immaculate_to_H_is_homogeneous():
    # the elimination eliminates one degree at a time: every expansion it
    # applies must stay in the degree of its index
    for n in range(9):
        for alpha in compositions_of(n):
            assert {sum(idx) for idx in immaculate_to_H(alpha).terms} == {n}, alpha


def test_round_trip_on_basis():
    for n in range(7):
        for alpha in compositions_of(n):
            assert H_to_immaculate(immaculate_to_H(alpha)) == LinComb.monomial(
                "S", alpha
            )


def test_linearity_round_trip_random():
    rng = random.Random(7)
    indices = [alpha for n in range(8) for alpha in compositions_of(n)]
    for _ in range(20):
        picked = rng.sample(indices, 5)
        f = LinComb("H", {idx: rng.randint(-9, 9) for idx in picked})
        assert immaculate_comb_to_H(H_to_immaculate(f)) == f


def test_oracle_example_2_5():
    assert product_in_S_oracle((2,), (2, 4)) == LinComb(
        "S",
        {(3, 1, 4): 1, (2, 2, 4): 1, (3, 2, 3): 1, (5, 3): -1, (4, 3, 1): -1},
    )


def test_oracle_unit():
    assert product_in_S_oracle((3, 1), ()) == LinComb.monomial("S", (3, 1))
    assert product_in_S_oracle((), (3, 1)) == LinComb.monomial("S", (3, 1))
    assert product_in_S_oracle((1,), (2,)) == LinComb(
        "S", {(1, 2): 1, (2, 1): 1, (3,): 1}
    )


@pytest.mark.parametrize("alpha, beta", [((True,), (2,)), ((1,), (2.0,)), ((0,), (2,))])
def test_oracle_checks_in_front_of_its_cache(alpha, beta):
    # refused cold, and still refused once an equal argument is cached
    # (True == 1, 2.0 == 2)
    product_in_S_oracle.cache_clear()
    with pytest.raises(PreconditionError):
        product_in_S_oracle(alpha, beta)
    product_in_S_oracle((1,), (2,))
    with pytest.raises(PreconditionError):
        product_in_S_oracle(alpha, beta)


def test_oracle_answers_a_list_like_its_tuple():
    product_in_S_oracle.cache_clear()
    assert product_in_S_oracle([1], [2]) == product_in_S_oracle((1,), (2,))
    assert product_in_S_oracle([1], [2]) == product_in_S_oracle((1,), (2,))
    assert product_in_S_oracle.cache_info().misses == 1


def test_structure_constants():
    assert structure_constant((1, 1), (3, 2, 2), (3, 3, 1, 1, 1)) == 0
    assert structure_constant((2, 2), (6, 4, 4), (6, 6, 2, 2, 2)) == 1
    assert structure_constant((2,), (2, 4), (5, 3)) == -1
    assert structure_constant((1,), (1,), (3,)) == 0  # degree mismatch


@pytest.mark.parametrize("alpha,beta,gamma", [
    ((0,), (1,), (5,)),
    ((1,), (True,), (5,)),
    ((1,), (1,), (0,)),
], ids=["alpha", "beta", "gamma"])
def test_structure_constant_checks_every_argument_first(alpha, beta, gamma):
    # each triple fails the degree test too; the checks come before it
    with pytest.raises(PreconditionError, match="not a composition"):
        structure_constant(alpha, beta, gamma)


def test_associativity_small():
    for a in compositions_of(2):
        for b in compositions_of(2):
            for c in compositions_of(2):
                left = LinComb("S")
                for g, cg in product_in_S_oracle(a, b).items():
                    left = left + product_in_S_oracle(g, c).scaled(cg)
                right = LinComb("S")
                for g, cg in product_in_S_oracle(b, c).items():
                    right = right + product_in_S_oracle(a, g).scaled(cg)
                assert left == right
