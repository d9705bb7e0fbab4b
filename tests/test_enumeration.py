"""The pruned tableau enumerator against a naive reference.

``enumerate_skew_immaculate`` forces the first letter of every row below the
inner shape, cuts a fixed-size row off as soon as it cannot be filled, and
with its ``yamanouchi`` and ``semistandard`` flags caps the letters of a row
so that no failing row is chosen.  The reference here is the unpruned search:
every row is any sub-multiset of the remaining content, first-column
strictness is tested afterwards, and the flags become filters by
``is_yamanouchi`` and ``is_semistandard``.  Both must give the same tableaux
in the same order.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from immaculate.compositions import compositions_of
from immaculate.tableaux import (
    SkewTableau,
    enumerate_skew_immaculate,
    is_semistandard,
    is_yamanouchi,
)

FLAGS = [(False, False), (True, False), (False, True), (True, True)]


def naive_enumerate(inner, content_vec, shape=None):
    """Rows chosen as sub-multisets of the remaining content, lexicographic
    in the per-row count vectors; dead ends are found only at their end."""
    m = len(content_vec)
    if shape is not None:
        if len(shape) < len(inner) or any(
            shape[i] < inner[i] for i in range(len(inner))
        ):
            return []
        if sum(shape) - sum(inner) != sum(content_vec):
            return []
    results = []

    def extend(r, remaining, rows, prev_first):
        if shape is not None:
            if r > len(shape):
                if not any(remaining):
                    results.append(SkewTableau(inner, tuple(rows)))
                return
            size = shape[r - 1] - (inner[r - 1] if r <= len(inner) else 0)
        else:
            if r > len(inner) and not any(remaining):
                results.append(SkewTableau(inner, tuple(rows)))
                return
            size = None
        starts_col1 = r > len(inner)
        for counts in itertools.product(*(range(c + 1) for c in remaining)):
            if size is not None and sum(counts) != size:
                continue
            row = tuple(v for v in range(1, m + 1) for _ in range(counts[v - 1]))
            if starts_col1:
                if not row or row[0] <= prev_first:
                    continue
            extend(
                r + 1,
                tuple(a - b for a, b in zip(remaining, counts)),
                rows + [row],
                row[0] if starts_col1 else prev_first,
            )

    extend(1, tuple(content_vec), [], 0)
    return results


def cases():
    """|inner| <= 3, content in {0,1,2}^{<=3}; no shape, then every shape
    of the right size."""
    for a in range(4):
        for inner in compositions_of(a):
            for m in range(4):
                for content_vec in itertools.product(range(3), repeat=m):
                    yield inner, content_vec, None
                    for shape in compositions_of(a + sum(content_vec)):
                        yield inner, content_vec, shape


def test_pruned_enumerator_matches_naive_order():
    n = 0
    for inner, content_vec, shape in cases():
        naive = naive_enumerate(inner, content_vec, shape)
        for yamanouchi, semistandard in FLAGS:
            got = enumerate_skew_immaculate(
                inner, content_vec, shape=shape,
                yamanouchi=yamanouchi, semistandard=semistandard,
            )
            assert got == [
                t for t in naive
                if (not yamanouchi or is_yamanouchi(t))
                and (not semistandard or is_semistandard(t))
            ], (inner, content_vec, shape, yamanouchi, semistandard)
        n += 1
    assert n == 8922


@st.composite
def past_the_exhaustive_range(draw):
    """|inner| <= 4; four letters, leading zeros allowed, total <= 7; no
    shape, or a composition of the right size."""
    inner = draw(st.sampled_from([c for a in range(5) for c in compositions_of(a)]))
    content_vec = []
    for _ in range(4):
        content_vec.append(draw(st.integers(0, min(3, 7 - sum(content_vec)))))
    size = sum(inner) + sum(content_vec)
    shape = draw(st.none() | st.sampled_from(list(compositions_of(size))))
    return inner, tuple(content_vec), shape


@settings(derandomize=True, max_examples=60, deadline=None)
@given(past_the_exhaustive_range(), st.sampled_from(FLAGS))
def test_pruned_enumerator_matches_naive_past_the_exhaustive_range(case, flags):
    inner, content_vec, shape = case
    yamanouchi, semistandard = flags
    got = enumerate_skew_immaculate(
        inner, content_vec, shape=shape,
        yamanouchi=yamanouchi, semistandard=semistandard,
    )
    assert got == [
        t for t in naive_enumerate(inner, content_vec, shape)
        if (not yamanouchi or is_yamanouchi(t))
        and (not semistandard or is_semistandard(t))
    ]


@pytest.mark.parametrize("n, bell", [(8, 4140), (9, 21147)])
def test_standard_immaculate_tableaux_are_set_partitions(n, bell):
    # content (1^n): each row is a block, so there are B_n of them
    assert len(enumerate_skew_immaculate((), (1,) * n)) == bell
