import pytest

from immaculate.compositions import partitions_of, scale
from immaculate.errors import PreconditionError, ResourceLimitError
from immaculate.linear import LinComb
from immaculate.schur import (
    h_to_schur,
    lr_coefficient_algebra,
    lr_coefficient_tableau,
    pieri_sym,
    saturation_check_nsym,
    saturation_check_sym,
    schur_product_in_s,
    schur_to_h,
)


def test_schur_to_h_small():
    assert schur_to_h((2,)) == LinComb.monomial("h", (2,))
    assert schur_to_h((1, 1)) == LinComb("h", {(1, 1): 1, (2,): -1})
    assert schur_to_h((2, 1)) == LinComb("h", {(2, 1): 1, (3,): -1})
    assert schur_to_h(()) == LinComb.monomial("h", ())


def test_schur_to_h_is_homogeneous():
    # h_to_schur, like H_to_immaculate, eliminates one degree at a time
    for n in range(9):
        for lam in partitions_of(n):
            assert {sum(idx) for idx in schur_to_h(lam).terms} == {n}, lam


def test_schur_to_h_rejects_composition():
    with pytest.raises(PreconditionError):
        schur_to_h((1, 2))


@pytest.mark.parametrize("call, bad, good", [
    (schur_to_h, ((2.0, 1),), ((2, 1),)),
    (schur_to_h, ((True,),), ((1,),)),
    (schur_product_in_s, ((True,), (1,)), ((1,), (1,))),
    (schur_product_in_s, ((1,), (1, 2)), ((1,), (1,))),
])
def test_checks_in_front_of_the_caches(call, bad, good):
    # refused cold, and still refused once an equal argument is cached
    # (True == 1, 2.0 == 2)
    call.cache_clear()
    with pytest.raises(PreconditionError):
        call(*bad)
    call(*good)
    with pytest.raises(PreconditionError):
        call(*bad)


def test_cached_expansions_answer_a_list_like_its_tuple():
    for call, args in ((schur_to_h, ((2, 1),)), (schur_product_in_s, ((2, 1), (1,)))):
        call.cache_clear()
        assert call(*map(list, args)) == call(*args)
        assert call(*map(list, args)) == call(*args)
        assert call.cache_info().misses == 1


def test_h_to_schur_round_trip():
    for n in range(8):
        for lam in partitions_of(n):
            assert h_to_schur(schur_to_h(lam)) == LinComb.monomial("s", lam)


def test_schur_product_example():
    # s_1 * s_1 = s_2 + s_11
    assert schur_product_in_s((1,), (1,)) == LinComb(
        "s", {(2,): 1, (1, 1): 1}
    )
    # s_21 * s_21 contains s_321 with multiplicity 2
    assert schur_product_in_s((2, 1), (2, 1)).coefficient((3, 2, 1)) == 2


def test_lr_routes_agree():
    # algebraic route vs direct tableau enumeration
    for total in range(7):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    for lam in partitions_of(total):
                        assert lr_coefficient_algebra(mu, nu, lam) == \
                            lr_coefficient_tableau(mu, nu, lam)


LIMIT = "immaculate.compositions.ENUMERATION_LIMIT"


def test_lr_coefficient_tableau_has_a_node_budget(monkeypatch):
    mu, nu, lam = (2, 1), (2, 1), (3, 2, 1)
    assert lr_coefficient_tableau(mu, nu, lam) == 2
    # the pruned enumeration visits 6 partial tableaux
    monkeypatch.setattr(LIMIT, 6)
    assert lr_coefficient_tableau(mu, nu, lam) == 2
    monkeypatch.setattr(LIMIT, 5)
    with pytest.raises(ResourceLimitError):
        lr_coefficient_tableau(mu, nu, lam)


def test_lr_coefficients_nonnegative():
    for mu in partitions_of(3):
        for nu in partitions_of(3):
            for lam, c in schur_product_in_s(mu, nu).items():
                assert c >= 1


def test_pieri_sym_matches_product():
    for n in range(6):
        for mu in partitions_of(n):
            for k in range(1, 4):
                want = schur_product_in_s(mu, (k,))
                assert pieri_sym(mu, k) == want


def test_saturation_holds_classically():
    for total in range(6):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    for lam in partitions_of(total):
                        assert saturation_check_sym(mu, nu, lam, 2)


@pytest.mark.parametrize("mu,nu,lam,message", [
    ((1, 2), (1,), (5,), "not weakly decreasing"),
    ((1,), (0,), (5,), "not a composition"),
    ((1,), (1,), (1, 2), "not weakly decreasing"),
], ids=["mu", "nu", "lam"])
def test_lr_coefficient_algebra_checks_every_argument_first(mu, nu, lam, message):
    # each triple fails the degree test too; the checks come before it
    with pytest.raises(PreconditionError, match=message):
        lr_coefficient_algebra(mu, nu, lam)


def test_saturation_fails_for_immaculate():
    alpha, beta, gamma = (1, 1), (3, 2, 2), (3, 3, 1, 1, 1)
    assert not saturation_check_nsym(alpha, beta, gamma, 2)
    # the scaled constant is 1 while the base constant vanishes
    from immaculate.nsym import structure_constant
    assert structure_constant(alpha, beta, gamma) == 0
    assert structure_constant(
        scale(alpha, 2), scale(beta, 2), scale(gamma, 2)
    ) == 1


def test_saturation_checks_validate_input():
    with pytest.raises(PreconditionError):
        saturation_check_sym((1,), (1,), (3,), 2)
    with pytest.raises(PreconditionError):
        saturation_check_nsym((1,), (1,), (2,), 0)
    # N is refused before the unscaled coefficient is computed
    for N in (True, 2.0):
        with pytest.raises(PreconditionError, match="N must be >= 1"):
            saturation_check_sym((1,), (1,), (2,), N)


@pytest.mark.parametrize("check, a, b, c, message", [
    (saturation_check_sym, (1,), (1,), ("x",), "not a composition"),
    (saturation_check_sym, (1, 2), (1,), (9,), "not weakly decreasing"),
    (saturation_check_nsym, (1,), ("x",), (2,), "not a composition"),
    (saturation_check_nsym, (1,), (1,), (True, 5), "not a composition"),
], ids=["sym-str", "sym-order", "nsym-str", "nsym-bool"])
def test_saturation_checks_refuse_a_bad_index_before_the_sizes(check, a, b, c, message):
    # a string part escaped as a TypeError from the size sum
    with pytest.raises(PreconditionError, match=message):
        check(a, b, c, 2)
