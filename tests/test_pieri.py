import sys
from itertools import chain, product

import pytest
from hypothesis import given, settings, strategies as st

from immaculate import pieri
from immaculate.compositions import compositions_of
from immaculate.errors import PreconditionError, ResourceLimitError
from immaculate.linear import LinComb
from immaculate.nsym import product_in_S_oracle
from immaculate.pieri import (
    left_pieri,
    left_pieri_coefficient,
    left_pieri_unit_coefficient,
    right_pieri,
    sgn,
    translation_reduce,
    z_membership,
    zero_insertion_sign_sum,
)


def test_right_pieri_example():
    assert right_pieri((1, 2), 2) == LinComb(
        "S",
        {(1, 2, 2): 1, (1, 3, 1): 1, (1, 4): 1, (2, 2, 1): 1, (2, 3): 1, (3, 2): 1},
    )


def test_right_pieri_matches_oracle():
    for n in range(5):
        for alpha in compositions_of(n):
            for s in range(1, 4):
                assert right_pieri(alpha, s) == product_in_S_oracle(alpha, (s,))


@pytest.mark.parametrize("d,expected", [
    ((), 1),
    ((0, 2, 5), 1),
    ((-1,), -1),
    ((0, -1, 2), -1),
    ((-1, -2), 1),
])
def test_sgn(d, expected):
    assert sgn(d) == expected


def test_delta_vector_validation():
    # delta = (delta_1, tail...): delta_1 >= 1 and no negative entry
    assert z_membership((1, 0, 0), (1, 1)) is False
    with pytest.raises(PreconditionError):
        z_membership((0,), ())
    with pytest.raises(PreconditionError):
        z_membership((2, -1), (1,))


@pytest.mark.parametrize("first,tail,beta,expected", [
    (4, (3, 0), (2, 4), True),
    (4, (0, 3), (2, 4), False),
    (3, (3, 1), (2, 4), True),
])
def test_z_membership(first, tail, beta, expected):
    assert z_membership((first,) + tail, beta) is expected


@pytest.mark.parametrize("delta,beta,message", [
    ((2, 1), (1, 1), "delta has 2 entries, want 3"),
    ((0, 1, 1), (1, 1), "need delta_1 >= 1"),
    ((2, 1, -1), (1, 1), "no negative entry"),
    ((2, 1, 1), (1, 0), "not a composition"),
], ids=["length", "delta_1", "negative", "beta"])
def test_z_membership_checks_its_arguments(delta, beta, message):
    # the closed form calls an unchecked kernel; the public test still checks
    with pytest.raises(PreconditionError, match=message):
        z_membership(delta, beta)


@pytest.mark.parametrize("delta", [(True, 1), (2, True), (2, 1.0), (2.0, 1)])
def test_z_membership_rejects_non_int_entries(delta):
    # True == 1, but a bool is no row length
    with pytest.raises(PreconditionError, match="delta entries must be integers"):
        z_membership(delta, (1,))


def prefix_sum_membership(delta, beta):
    """Z in its prefix-sum form: with s = delta_1 - 1 and running threshold
    t_i = s + sum_{j<i} (d_j - beta_j),
      beta_i < t_i  requires beta_i < d_i;
      beta_i > t_i  requires beta_i >= d_i >= sum_{j<=i} beta_j
                    - sum_{j<i} d_j - s;
      beta_i = t_i  requires beta_i < d_i, or d_i = 0 with
                    beta_j = d_j for every j > i."""
    n = len(beta)
    s = delta[0] - 1
    threshold = s
    beta_prefix = delta_prefix = 0
    for i in range(n):
        b, d = beta[i], delta[i + 1]
        beta_prefix += b
        if b < threshold:
            if not b < d:
                return False
        elif b > threshold:
            if not b >= d >= beta_prefix - delta_prefix - s:
                return False
        elif not (b < d or (d == 0 and all(beta[j] == delta[j + 1]
                                           for j in range(i + 1, n)))):
            return False
        delta_prefix += d
        threshold = s + delta_prefix - beta_prefix
    return True


def test_z_membership_matches_the_prefix_sum_rule():
    # every delta with delta_1 >= 1, entries >= 0 (zero rows included) and
    # |delta| <= |beta| + 2, against every beta with |beta| <= 6
    pairs = 0
    for size in range(7):
        for beta in compositions_of(size):
            n = len(beta)
            for total in range(1, size + 3):
                for delta in product(range(1, total + 1), *[range(total)] * n):
                    if sum(delta) != total:
                        continue
                    pairs += 1
                    assert z_membership(delta, beta) is \
                        prefix_sum_membership(delta, beta), (delta, beta)
    assert pairs == 29276


def test_threshold_and_steps_are_one_rule():
    # one row of length b at threshold t: the comparison form reaches u
    # exactly when the range form offers it
    for b, t, u in product(range(1, 13), range(13), range(13)):
        passes = pieri._threshold((t + 1, b + u - t), (b,)) == u
        assert passes is (u in pieri._steps(b, t, 13)), (b, t, u)


def test_left_pieri_walks_a_beta_longer_than_the_recursion_limit():
    # the member walk keeps an explicit stack
    beta = (1,) * (sys.getrecursionlimit() + 100)
    assert len(left_pieri(1, beta)) == 2


def test_unit_coefficient_longer_shape():
    # candidate passes and the sign counts one negative entry
    assert left_pieri_unit_coefficient((3, 1, 4), (2, 3, 2, 2)) == -1
    assert left_pieri_unit_coefficient((2, 4), (1, 2, 4)) == 1
    # size mismatch
    assert left_pieri_unit_coefficient((2, 4), (2, 4)) == 0


def test_unit_coefficient_equal_length():
    assert left_pieri_unit_coefficient((2, 4), (4, 3)) == -1
    assert left_pieri_unit_coefficient((2, 4), (3, 4)) == 0
    assert left_pieri_unit_coefficient((1,), (2,)) == 1


def test_closed_form_matches_sign_summation():
    # candidate-by-candidate signed count agrees with the closed form
    for n in range(7):
        for beta in compositions_of(n):
            if len(beta) > 4:
                continue
            for length in {len(beta), len(beta) + 1}:
                if length < 1:
                    continue
                for gamma in compositions_of(n + 1, length=length):
                    assert left_pieri_unit_coefficient(beta, gamma) == \
                        zero_insertion_sign_sum(beta, gamma)


def test_left_pieri_example():
    assert left_pieri(2, (2, 4)) == LinComb(
        "S",
        {(3, 1, 4): 1, (2, 2, 4): 1, (3, 2, 3): 1, (5, 3): -1, (4, 3, 1): -1},
    )


def test_left_pieri_matches_oracle():
    for n in range(6):
        for beta in compositions_of(n):
            if len(beta) > 4:
                continue
            for s in range(1, 4):
                assert left_pieri(s, beta) == product_in_S_oracle((s,), beta)


def test_left_pieri_matches_single_coefficient_route():
    # the expansion reads gamma off the compositions of |beta| + 1; the
    # single-coefficient route reduces gamma_1 by s - 1 itself
    for n in range(8):
        for beta in compositions_of(n):
            lengths = {len(beta), len(beta) + 1} - {0}
            for s in range(1, 5):
                f = left_pieri(s, beta)
                assert {len(gamma) for gamma in f.terms} <= lengths
                for length in lengths:
                    for gamma in compositions_of(n + s, length=length):
                        assert f.coefficient(gamma) == \
                            left_pieri_coefficient(s, beta, gamma), (s, beta, gamma)


@pytest.mark.parametrize("s", [0, -1, 1.5, 2.0, True])
def test_left_pieri_coefficient_rejects_s_below_one(s):
    # H_0 = 1, so H_0 * S_(1,2) = S_(1,2): the closed form has no answer 0
    # here; a step size that is not an int is refused the same way
    with pytest.raises(PreconditionError, match=f"s must be >= 1, got {s}"):
        left_pieri_coefficient(s, (1, 2), (1, 2))
    with pytest.raises(PreconditionError, match=f"s must be >= 1, got {s}"):
        left_pieri(s, (1, 2))


@pytest.mark.parametrize("beta,gamma", [
    ((1,), (0,)),
    ((0,), (2,)),
    ((1,), (1, -1)),
    ((True,), (2,)),
], ids=["gamma-zero", "beta-zero", "gamma-negative", "beta-bool"])
def test_left_pieri_coefficient_checks_beta_and_gamma(beta, gamma):
    # checked before the answer 0 for gamma_1 < s is given
    with pytest.raises(PreconditionError, match="not a composition"):
        left_pieri_coefficient(1, beta, gamma)


LIMIT = "immaculate.compositions.ENUMERATION_LIMIT"


def test_pieri_expansions_refused_up_front():
    with pytest.raises(ResourceLimitError,
                       match="8259888 right Pieri terms .limit 500000"):
        right_pieri((1,) * 5, 60)
    with pytest.raises(ResourceLimitError,
                       match="793330 left Pieri candidates .limit 500000"):
        left_pieri(1, (40,) * 4)


def test_largest_pieri_expansions_under_the_limit_are_answered():
    assert len(right_pieri((1,) * 5, 30)) == 324632
    assert len(left_pieri(1, (6,) * 5)) == 253
    assert len(left_pieri(1, (30,) * 4)) == 40921


def test_pieri_limits_count_exactly(monkeypatch):
    # C(s + n, n) right terms; left, the (n+1)-part members walked (here
    # (1, 2, 1) and (2, 1, 1)) plus the C(|beta|, n - 1) n-part compositions
    monkeypatch.setattr(LIMIT, 10)
    assert len(right_pieri((1, 1), 3)) == 10
    monkeypatch.setattr(LIMIT, 9)
    with pytest.raises(ResourceLimitError, match="10 right Pieri terms"):
        right_pieri((1, 1), 3)
    monkeypatch.setattr(LIMIT, 5)
    assert len(left_pieri(2, (2, 1))) == 4
    monkeypatch.setattr(LIMIT, 4)
    with pytest.raises(ResourceLimitError, match="5 left Pieri candidates"):
        left_pieri(2, (2, 1))


def test_left_pieri_unit_case_multiplicity_free():
    for n in range(7):
        for beta in compositions_of(n):
            if len(beta) > 4:
                continue
            for _, c in left_pieri(1, beta).items():
                assert c in (1, -1)


def test_walk_yields_exactly_the_members():
    for size in range(10):
        for beta in compositions_of(size):
            n = len(beta)
            want = [delta for delta in compositions_of(size + 1, n + 1)
                    if z_membership(delta, beta)]
            reach = pieri._reach(beta)
            got = list(pieri._z_members(beta, reach))
            assert got == want, beta
            assert len(set(got)) == len(got)
            assert pieri._z_member_count(beta, reach) == len(got), beta


def test_left_pieri_refuses_a_huge_part_at_once():
    # the exact count would take 10^9 steps; every start threshold of the
    # walk finishes one, so 10^9 members and one 1-part composition at least
    with pytest.raises(ResourceLimitError,
                       match="1000000001 or more left Pieri candidates"):
        left_pieri(1, (10 ** 9,))


def sign_sum_expansion(s, beta):
    """H_s * S_beta from the zero-insertion sign sum at every candidate
    shape of len(beta) or len(beta) + 1 parts: the full scan."""
    n = len(beta)
    size = sum(beta) + 1
    out = {}
    for reduced in chain(compositions_of(size, length=n),
                         compositions_of(size, length=n + 1)):
        c = zero_insertion_sign_sum(beta, reduced)
        if c:
            out[(reduced[0] + s - 1,) + reduced[1:]] = c
    return LinComb("S", out)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.integers(1, 8), max_size=5).filter(lambda b: sum(b) <= 20))
def test_left_pieri_is_the_sign_sum_over_every_candidate(s, beta):
    beta = tuple(beta)
    assert left_pieri(s, beta) == sign_sum_expansion(s, beta)


def test_translation_reduce():
    assert translation_reduce((2, 2), (6, 4, 4), (6, 6, 2, 2, 2), (1, 1)) == (
        (1, 1), (6, 4, 4), (5, 5, 2, 2, 2)
    )
    assert translation_reduce((3,), (1,), (4,), ()) == ((3,), (1,), (4,))


def test_translation_reduce_rejects_bad_shift():
    with pytest.raises(PreconditionError):
        translation_reduce((1,), (2,), (3,), (1,))  # would empty a part
    with pytest.raises(PreconditionError):
        translation_reduce((2,), (2,), (4,), (1, 1))  # prefix too long


def test_translation_reduce_checks_beta():
    with pytest.raises(PreconditionError, match="not a composition"):
        translation_reduce((2,), (0, -1), (3,), (1,))
    assert translation_reduce([2], [1, 2], [3], [1]) == ((1,), (1, 2), (2,))


def test_translation_invariance_of_constants():
    # adding the same prefix to alpha and gamma leaves the constant unchanged
    for a in range(1, 4):
        for alpha in compositions_of(a):
            for b in range(3):
                for beta in compositions_of(b):
                    prod = product_in_S_oracle(alpha, beta)
                    shifted_alpha = (alpha[0] + 2,) + alpha[1:]
                    shifted = product_in_S_oracle(shifted_alpha, beta)
                    for gamma, c in prod.items():
                        shifted_gamma = (gamma[0] + 2,) + gamma[1:]
                        assert shifted.coefficient(shifted_gamma) == c
