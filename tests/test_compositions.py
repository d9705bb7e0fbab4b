import functools
import itertools
import math
import operator

import pytest
from hypothesis import given, strategies as st

from immaculate.compositions import (
    Permutation,
    _cycle_sign,
    _permutation,
    add_prefix,
    compositions_of,
    horizontal_strip_successors,
    is_right_pieri_successor,
    partitions_of,
    permutation_floors,
    permutations,
    right_pieri_successors,
    scale,
    sort_composition,
    weak_compositions,
)
from immaculate.errors import PreconditionError, ResourceLimitError

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
    ((2,), 2, [(2, 2), (3, 1), (4,)]),
    ((), 3, [(3,)]),
    ((), 1, [(1,)]),
    ((1, 2), 1, [(1, 2, 1), (1, 3), (2, 2)]),
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
    assert set(got) == brute
    assert got == sorted(got)
    assert len(set(got)) == len(got)
    assert len(got) == math.comb(s + len(alpha), len(alpha))


@pytest.mark.parametrize("alpha,s,beta,expected", [
    ((2,), 1, (3,), True),
    ((2,), 1, (2, 1), True),
    ((1, 1), 2, (2, 2), True),
    ((1, 1), 2, (1, 1, 2), True),
    ((2,), 1, (1, 2), False),
    ((2,), 1, (2, 0, 1), False),
    ((2,), 1, (3, 0), False),
    ((2,), 1, (4, -1), False),
    ((1, 1), 2, (2, 2, 0), False),
])
def test_is_right_pieri_successor(alpha, s, beta, expected):
    assert is_right_pieri_successor(alpha, s, beta) is expected


@pytest.mark.parametrize("mu,n,expected", [
    ((1,), 1, {(2,), (1, 1)}),
    ((), 4, {(4,)}),
    ((2, 1), 2, {(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}),
    ((1,), 10**6, {(10**6 + 1,), (10**6, 1)}),
    # one level per row: a 3,000-row mu is no recursion depth
    ((1,) * 3000, 5, {(6,) + (1,) * 2999, (5,) + (1,) * 3000}),
])
def test_horizontal_strip_successors(mu, n, expected):
    assert horizontal_strip_successors(mu, n) == expected


def test_horizontal_strips_refused_before_they_are_built():
    # the first row alone takes 0..3,000,000 new cells
    with pytest.raises(ResourceLimitError,
                       match="3000001 horizontal strips \\(limit 500000\\)"):
        horizontal_strip_successors((3_000_000,), 3_000_000)


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
    # refused on the number of survivors, before any is made: all of S_11,
    # and the 933,120 permutations that survive the floors of (5^10)
    for m, floors in ((11, ()), (11, (1,) * 11), (10, permutation_floors((5,) * 10))):
        with pytest.raises(ResourceLimitError, match="surviving permutations"):
            permutations(m, floors)
    # floors that no permutation clears leave nothing to refuse
    assert permutations(11, (11,) * 11) == permutations(11, (12,)) == ()
    assert [p.images for p in permutations(11, tuple(range(11, 0, -1)))] == [
        tuple(range(11, 0, -1))]
    assert len(permutations(14, permutation_floors((1,) * 14))) == 8192
    permutations.cache_clear()


LIMIT = "immaculate.compositions.ENUMERATION_LIMIT"


def test_permutations_refused_on_exact_survivor_count(monkeypatch):
    # the count checked against the limit is the number enumerated
    cases = [(len(alpha), permutation_floors(alpha))
             for n in range(10) for alpha in compositions_of(n)]
    counts = [len(permutations(m, floors)) for m, floors in cases]
    for (m, floors), count in zip(cases, counts):
        permutations.cache_clear()
        monkeypatch.setattr(LIMIT, count - 1)
        with pytest.raises(ResourceLimitError,
                           match=f"refusing to enumerate {count} surviving"):
            permutations(m, floors)
        monkeypatch.setattr(LIMIT, count)
        assert len(permutations(m, floors)) == count
    permutations.cache_clear()


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


@pytest.mark.parametrize("m, floors", [
    (True, ()), (False, ()), (2.0, ()), (-1, ()), ("3", ()), (None, ()),
    (3, (1.5,)), (3, (True, 3)), (3, (2, 3.0)), (3, [1]), (3, (1, None)), (3, 2),
])
def test_permutations_checks_its_arguments(m, floors):
    # m is an int >= 0 and floors a tuple of ints, no bool or float; the
    # check comes before the cache, so an equal argument cached first
    # (True == 1, 2.0 == 2, (True, 3) == (1, 3)) does not let one through
    for cached in ((0, ()), (1, ()), (2, ()), (3, (1,)), (3, (1, 3)), (3, (2, 3))):
        permutations(*cached)
    with pytest.raises(PreconditionError):
        permutations(m, floors)


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


@pytest.mark.parametrize("images", [(True, 2), (2, True), (1.0, 2), (False,)])
def test_permutation_rejects_non_int_images(images):
    # True == 1 and 1.0 == 1, but neither is an image
    with pytest.raises(PreconditionError, match="not a permutation"):
        Permutation(images)


CYCLE_SIGN = "immaculate.compositions._cycle_sign"


def refuse_to_count(images):
    raise AssertionError(f"sign of {images!r} counted from its cycles")


def test_permutations_store_the_walked_sign_under_every_floors(monkeypatch):
    # the sign is carried through the filling, whose order the floors fix,
    # and not counted from the cycles: for m <= 5 every floors vector of
    # every length with entries 0..m+1 (0 and 1 bound nothing but order the
    # filling differently), for m = 6 every full-length one with entries
    # 1..6; the cycle-count signs are taken first, then the builds run
    # uncached with the cycle count refused
    counted = {p: Permutation(p).sign
               for m in range(7) for p in itertools.permutations(range(1, m + 1))}
    monkeypatch.setattr(CYCLE_SIGN, refuse_to_count)
    build = permutations.__wrapped__
    for m in range(7):
        lengths, entries = (range(m + 1), range(m + 2)) if m < 6 else ((m,), range(1, m + 1))
        for length in lengths:
            for floors in itertools.product(entries, repeat=length):
                for p in build(m, floors):
                    assert p.sign == counted[p.images], (p.images, floors)


def test_permutations_store_the_walked_sign_under_composition_floors(monkeypatch):
    # the 168 floors vectors of the compositions of size <= 10
    build = permutations.__wrapped__
    cases = sorted({(len(alpha), permutation_floors(alpha))
                    for n in range(11) for alpha in compositions_of(n)})
    assert len(cases) == 168
    counted = [{p.images: Permutation(p.images).sign for p in build(m, floors)}
               for m, floors in cases]
    monkeypatch.setattr(CYCLE_SIGN, refuse_to_count)
    for (m, floors), signs in zip(cases, counted):
        assert {p.images: p.sign for p in build(m, floors)} == signs, floors


def test_permutation_sign_is_stored_and_ignored_by_value_semantics():
    # the sign is a stored field, left out of repr, == and hash
    p = Permutation((2, 1, 3))
    wrong = _permutation((2, 1, 3), 1)
    assert (p.sign, wrong.sign) == (-1, 1)
    assert p == wrong and hash(p) == hash(wrong)
    assert repr(p) == repr(wrong) == "Permutation(images=(2, 1, 3))"
    assert _permutation((1, 2), -1).sign == -1
    # the public constructor and the unchecked builder without a sign both
    # count cycles
    for images in itertools.permutations(range(1, 6)):
        assert Permutation(images).sign == _cycle_sign(images) == inversion_sign(images)
        assert _permutation(images).sign == _cycle_sign(images)
    with pytest.raises(PreconditionError, match="not a permutation"):
        Permutation((1, True))


def test_compositions_of_counts():
    for n in range(1, 8):
        assert sum(1 for _ in compositions_of(n)) == 2 ** (n - 1)


@functools.lru_cache(maxsize=None)
def ordered_tuples(n, length, least):
    """Tuples of ``length`` integers >= ``least`` summing to ``n``, built part
    by part with the first part ascending: lexicographic order."""
    if length == 0:
        return [()] if n == 0 else []
    return [(first,) + rest for first in range(least, n + 1)
            for rest in ordered_tuples(n - first, length - 1, least)]


def filtered_product(n, length, least):
    return [t for t in itertools.product(range(least, n + 1), repeat=length)
            if sum(t) == n]


def test_part_by_part_reference_matches_filtered_product():
    # the filtered product grows as (n + 1)^length, so only small n
    for n in range(6):
        for length in range(n + 3):
            for least in (0, 1):
                assert ordered_tuples(n, length, least) == \
                    filtered_product(n, length, least), (n, length, least)
    ordered_tuples.cache_clear()


def test_generators_match_part_by_part_reference():
    for n in range(11):
        by_length = []
        for length in range(n + 3):
            want = ordered_tuples(n, length, 1)
            assert list(compositions_of(n, length=length)) == want, (n, length)
            assert list(weak_compositions(n, length)) == \
                ordered_tuples(n, length, 0), (n, length)
            by_length += want
        assert list(compositions_of(n)) == by_length
    assert list(compositions_of(0, length=1)) == []
    assert list(weak_compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions_of(-1, length=1)) == list(weak_compositions(-1, 1)) == []
    ordered_tuples.cache_clear()


def test_right_pieri_successors_match_part_by_part_reference():
    # alpha + (0,) plus each weak composition of s, built part by part, with
    # a last part 0 dropped: the same terms in the same order
    for size in range(7):
        for alpha in compositions_of(size):
            for s in range(1, 7):
                want = [beta if beta[-1] else beta[:-1]
                        for beta in (tuple(map(operator.add, alpha + (0,), w))
                                     for w in ordered_tuples(s, len(alpha) + 1, 0))]
                assert right_pieri_successors(alpha, s) == want, (alpha, s)
    ordered_tuples.cache_clear()


def test_generators_at_the_edges():
    # totals 0..10 at lengths 0..n+2 are compared with the reference above;
    # a negative total or length gives nothing, and right covers need s >= 1
    for n, length in itertools.product((-3, -1, 0, 2), (-1, 0, 1, 3)):
        if n < 0 or length < 0:
            assert list(compositions_of(n, length)) == [], (n, length)
            assert list(weak_compositions(n, length)) == [], (n, length)
    assert list(compositions_of(-1)) == list(compositions_of(-3)) == []
    for s in (0, -1, True, 2.0):
        with pytest.raises(PreconditionError, match="s must be >= 1"):
            right_pieri_successors((2, 1), s)
    # step sizes are ints: a bool or a float is refused, not used as a number
    with pytest.raises(PreconditionError, match="n must be >= 1"):
        horizontal_strip_successors((2, 1), 2.0)
    with pytest.raises(PreconditionError, match="scale factor must be >= 1"):
        scale((1, 2), 2.0)
    for m, r in ((3, True), (3, 1.0), (3.0, 1)):
        with pytest.raises(PreconditionError, match="not in S_3"):
            Permutation.transposition(m, r)


@pytest.mark.parametrize("alpha", [(0, 2), (2, -1), [1.5], (True,)])
def test_right_pieri_successors_rejects_non_compositions(alpha):
    with pytest.raises(PreconditionError, match="not a composition"):
        right_pieri_successors(alpha, 1)


def test_partitions_of_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, p_n in enumerate(expected):
        assert sum(1 for _ in partitions_of(n)) == p_n
