import itertools

import pytest
from hypothesis import given, strategies as st

from immaculate.compositions import (
    Permutation,
    add_prefix,
    comp,
    compositions_of,
    horizontal_strip_successors,
    is_right_pieri_successor,
    partitions_of,
    permutation_floors,
    permutations,
    right_pieri_successors,
    scale,
    sort_composition,
)
from immaculate.errors import (
    InvalidVectorError,
    PreconditionError,
    ResourceLimitError,
)

compositions = st.lists(st.integers(min_value=1, max_value=6), max_size=5).map(tuple)
small_compositions = (
    st.lists(st.integers(min_value=1, max_value=3), max_size=3)
    .map(tuple)
    .filter(lambda a: sum(a) <= 6)
)


@pytest.mark.parametrize("alpha,expected", [
    ((2, 4), (4, 2)),
    ((), ()),
    ((3, 1, 4), (4, 3, 1)),
])
def test_sort(alpha, expected):
    assert sort_composition(alpha) == expected


@pytest.mark.parametrize("delta,expected", [
    ((4, 3, 0), (4, 3)),
    ((0, 0), ()),
    ((2, 3, 2, 2), (2, 3, 2, 2)),
])
def test_comp(delta, expected):
    assert comp(delta) == expected


def test_comp_rejects_negative():
    with pytest.raises(InvalidVectorError):
        comp((1, -1))


@pytest.mark.parametrize("alpha,n,expected", [
    ((1, 1), 2, (2, 2)),
    ((3, 2, 2), 2, (6, 4, 4)),
    ((5, 1, 2), 1, (5, 1, 2)),
])
def test_scale(alpha, n, expected):
    assert scale(alpha, n) == expected


@pytest.mark.parametrize("alpha,v,expected", [
    ((1, 1, 2), (1, 2), (2, 3, 2)),
    ((3, 1), (), (3, 1)),
    ((2, 4), (1,), (3, 4)),
])
def test_add_prefix(alpha, v, expected):
    assert add_prefix(alpha, v) == expected


def test_add_prefix_rejects_long_prefix():
    with pytest.raises(PreconditionError):
        add_prefix((2,), (1, 1))


@given(compositions, st.lists(st.integers(min_value=1, max_value=4), max_size=5).map(tuple))
def test_add_prefix_preserves_length_and_size(alpha, v):
    if len(v) > len(alpha):
        return
    out = add_prefix(alpha, v)
    assert len(out) == len(alpha)
    assert sum(out) == sum(alpha) + sum(v)


@pytest.mark.parametrize("alpha,s,expected", [
    ((2,), 2, {(4,), (3, 1), (2, 2)}),
    ((), 3, {(3,)}),
    ((1, 2), 1, {(2, 2), (1, 3), (1, 2, 1)}),
])
def test_right_pieri_successors(alpha, s, expected):
    assert right_pieri_successors(alpha, s) == expected


@given(small_compositions, st.integers(min_value=1, max_value=4))
def test_right_pieri_successors_match_predicate(alpha, s):
    # independent route: filter every composition of the right size
    brute = {
        beta
        for beta in compositions_of(sum(alpha) + s)
        if is_right_pieri_successor(alpha, s, beta)
    }
    got = right_pieri_successors(alpha, s)
    assert got == brute
    assert len(got) >= 1


@pytest.mark.parametrize("mu,n,expected", [
    ((1,), 1, {(2,), (1, 1)}),
    ((), 4, {(4,)}),
    ((2, 1), 2, {(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}),
])
def test_horizontal_strip_successors(mu, n, expected):
    assert horizontal_strip_successors(mu, n) == expected


def test_horizontal_strip_brute_force():
    # independent route: interleaving condition over all partitions
    for n in range(6):
        for mu in partitions_of(n):
            for k in range(1, 4):
                brute = {
                    nu
                    for nu in partitions_of(n + k)
                    if len(mu) <= len(nu) <= len(mu) + 1
                    and all(nu[j] >= mu[j] for j in range(len(mu)))
                    and all(
                        nu[j + 1] <= mu[j] for j in range(len(nu) - 1)
                    )
                }
                assert horizontal_strip_successors(mu, k) == brute


def test_permutations_small():
    assert [p.images for p in permutations(0)] == [()]
    assert permutations(0)[0].sign == 1
    two = {(p.images, p.sign) for p in permutations(2)}
    assert two == {((1, 2), 1), ((2, 1), -1)}
    assert sum(p.sign for p in permutations(3)) == 0
    assert len(permutations(3)) == 6


def test_permutations_guard():
    # the S_m size guard holds whatever the floors cut away
    for floors in ((), (1,) * 11, (11,) * 11, (12,), (11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)):
        with pytest.raises(ResourceLimitError):
            permutations(11, floors)


def inversion_sign(images):
    inv = sum(1 for i, j in itertools.combinations(range(len(images)), 2)
              if images[i] > images[j])
    return -1 if inv % 2 else 1


def test_permutations_under_floors_match_filter():
    # every floors vector up to length m with entries 0..m+1 (an entry <= 1
    # bounds nothing, one past m leaves no survivor), short ones included
    for m in range(6):
        full = list(itertools.permutations(range(1, m + 1)))
        for length in range(m + 1):
            for floors in itertools.product(range(m + 2), repeat=length):
                want = [p for p in full if all(map(int.__ge__, p, floors))]
                assert [p.images for p in permutations(m, floors)] == want, floors
    assert permutations(3, (-2, 3)) == permutations(3, (0, 3)) == permutations(3, (1, 3))
    permutations.cache_clear()


def test_permutations_rejects_too_many_floors():
    with pytest.raises(PreconditionError):
        permutations(2, (1, 1, 1))


def test_sign_is_inversion_parity():
    for m in range(7):
        for p in permutations(m):
            assert p.sign == inversion_sign(p.images)


def test_permutation_floors():
    assert permutation_floors(()) == ()
    assert permutation_floors((2, 1, 1, 3)) == (1, 1, 2, 1)
    assert permutation_floors((1, 1, 1, 1)) == (1, 1, 2, 3)


def test_sign_multiplicative_exhaustive():
    for m in range(1, 6):
        for sigma, tau in itertools.product(permutations(m), repeat=2):
            assert sigma.compose(tau).sign == sigma.sign * tau.sign


def test_permutation_inverse():
    p = Permutation((3, 1, 2))
    assert p.inverse().compose(p).images == (1, 2, 3)
    assert p.sign == 1


def test_permutation_rejects_non_bijection():
    with pytest.raises(PreconditionError):
        Permutation((1, 1, 2))


def test_compositions_of_counts():
    for n in range(1, 8):
        assert sum(1 for _ in compositions_of(n)) == 2 ** (n - 1)


def test_partitions_of_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, p_n in enumerate(expected):
        assert sum(1 for _ in partitions_of(n)) == p_n
