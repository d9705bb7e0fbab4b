import itertools
import tracemalloc
from math import comb

import pytest

from immaculate.compositions import (
    Permutation,
    add_prefix,
    compositions_of,
    partitions_of,
    scale,
)
from immaculate.errors import (
    InvalidVectorError,
    PreconditionError,
    ResourceLimitError,
)
from immaculate.linear import LinComb
from immaculate.nsym import product_in_S_oracle
from immaculate.tableaux import (
    SkewTableau,
    content,
    count_immaculate_LR,
    enumerate_T_alpha_beta,
    enumerate_skew_immaculate,
    immaculate_LR_product,
    is_immaculate,
    is_semistandard,
    is_yamanouchi,
    reading_word,
    signed_product,
    signed_product_via_tableaux,
    sigma_of,
)

LIMIT = "immaculate.compositions.ENUMERATION_LIMIT"

# A recurring example: inner shape (1), rows filled so that the outer shape
# is (2,3,2,2) and the first column reads 1,2,3.
T_EXAMPLE = SkewTableau((1,), ((1,), (1, 1, 3), (2, 2), (3, 3)))


def test_padding_and_shape():
    t = SkewTableau((2, 1), ((3,),))
    assert t.rows == ((3,), ())
    assert t.outer_shape == (3, 1)
    assert t.shape_composition() == (3, 1)


@pytest.mark.parametrize("inner,rows", [
    ((), ((1, 0),)),        # a 0 entry
    ((), ((1, "2"),)),      # a non-int entry
    ((2, 0), ((1,),)),      # an inner shape that is not a composition
    ((), ((True, 2),)),     # a bool entry, which would read as 1
])
def test_skew_tableau_rejects_malformed_input(inner, rows):
    with pytest.raises(PreconditionError):
        SkewTableau(inner, rows)


def test_shape_rejects_interior_empty_row():
    t = SkewTableau((1,), ((2,), (), (1,)))
    with pytest.raises(PreconditionError):
        t.shape_composition()


def test_first_column_skips_inner_rows():
    assert T_EXAMPLE.first_column() == (1, 2, 3)
    assert SkewTableau((2,), ((1, 1),)).first_column() == ()


def test_reading_word_and_content():
    assert reading_word(T_EXAMPLE) == (1, 3, 1, 1, 2, 2, 3, 3)
    assert content(T_EXAMPLE, 3) == (3, 2, 3)
    with pytest.raises(InvalidVectorError):
        content(T_EXAMPLE, 2)


def test_is_immaculate():
    assert is_immaculate(T_EXAMPLE)
    # row decreases
    assert not is_immaculate(SkewTableau((), ((2, 1),)))
    # first column repeats
    assert not is_immaculate(SkewTableau((), ((1, 1), (1,))))
    # inner cells shield the first column
    assert is_immaculate(SkewTableau((1,), ((3,), (1, 1))))


def test_is_semistandard_checks_all_columns():
    assert is_semistandard(SkewTableau((), ((1, 1), (2, 2))))
    assert not is_semistandard(SkewTableau((), ((1, 2), (2, 2))))
    # immaculate but not semistandard: second column fails
    t = SkewTableau((), ((1, 3), (2, 3)))
    assert is_immaculate(t) and not is_semistandard(t)


def test_is_yamanouchi():
    assert is_yamanouchi(SkewTableau((), ((1, 1), (2, 2))))
    assert not is_yamanouchi(SkewTableau((), ((2,), (1,))))
    assert is_yamanouchi(SkewTableau((), ()))


def test_enumerate_exact_content_with_shape():
    ts = enumerate_skew_immaculate((1,), (3, 2, 3), shape=(2, 3, 2, 2))
    assert len(ts) == 4
    assert T_EXAMPLE in ts
    assert all(
        is_immaculate(t) and content(t, 3) == (3, 2, 3) for t in ts
    )
    assert all(t.shape_composition() == (2, 3, 2, 2) for t in ts)


def test_enumerate_exact_content_free_shape():
    ts = enumerate_skew_immaculate((2,), (1, 1))
    shapes = sorted(t.shape_composition() for t in ts)
    # shape (3,1) arises twice: the entries 1 and 2 may sit in either row
    assert shapes == [(2, 1, 1), (2, 2), (3, 1), (3, 1), (4,)]


def test_enumerate_empty_content():
    ts = enumerate_skew_immaculate((3, 1), ())
    assert len(ts) == 1
    assert ts[0].rows == ((), ())


def test_enumerate_budget(monkeypatch):
    monkeypatch.setattr(LIMIT, 50)
    with pytest.raises(ResourceLimitError):
        enumerate_skew_immaculate((), (4, 4, 4, 4))


def test_enumeration_counts_partial_tableaux(monkeypatch):
    # inner (1), content (1,1,1): 15 tableaux, 30 partial tableaux visited
    monkeypatch.setattr(LIMIT, 30)
    assert len(enumerate_skew_immaculate((1,), (1, 1, 1))) == 15
    monkeypatch.setattr(LIMIT, 29)
    with pytest.raises(ResourceLimitError,
                       match="30 partial tableaux .limit 29"):
        enumerate_skew_immaculate((1,), (1, 1, 1))


# (inner, content, options, tableaux, partial tableaux visited)
PARTIAL_TABLEAU_COUNTS = [
    ((), (1,) * 8, {}, 4140, 8280),
    ((2, 1), (8, 6, 4, 2), {"yamanouchi": True}, 9342, 21173),
    ((1,), (3, 3, 2, 2), {"semistandard": True}, 811, 1847),
    ((1,), (3, 3, 2, 2), {"shape": (4, 3, 2, 1, 1)}, 17, 135),
    ((3, 2, 1), (3, 2, 1),
     {"shape": (5, 4, 2, 1), "yamanouchi": True, "semistandard": True}, 4, 12),
    ((10, 10), (30, 20, 20),
     {"shape": (30, 30, 10, 10, 10), "yamanouchi": True}, 45, 159),
    # some nodes' partial rows all fail partway along the row, under the
    # cell above: none of them may count as a partial tableau to visit
    ((5, 3, 3), (5, 5, 4), {"shape": (11, 5, 5, 4), "semistandard": True}, 28, 232),
    # one partial tableau per row, 1,100 rows deep: past the default
    # recursion limit, as the partial tableaux sit on one stack
    ((1,) * 1100, (1,), {"shape": (2,) + (1,) * 1099}, 1, 1101),
]


@pytest.mark.parametrize("inner, content_vec, options, tableaux, partial",
                         PARTIAL_TABLEAU_COUNTS)
def test_enumeration_partial_tableau_counts_are_pinned(
    monkeypatch, inner, content_vec, options, tableaux, partial
):
    monkeypatch.setattr(LIMIT, partial)
    found = enumerate_skew_immaculate(inner, content_vec, **options)
    assert len(found) == tableaux
    monkeypatch.setattr(LIMIT, partial - 1)
    with pytest.raises(ResourceLimitError,
                       match=f"{partial} partial tableaux .limit {partial - 1}"):
        enumerate_skew_immaculate(inner, content_vec, **options)


def test_stacked_partial_tableaux_hold_no_rows(monkeypatch):
    # 6,003 partial tableaux are counted before the refusal, most of them
    # rows of up to 3,000 cells not yet built: a stacked one holds only its
    # runs of letters, so the peak (0.8 MB) is far below that of a stack of
    # whole rows (36.9 MB) or of one path of them plus the tableaux found
    # (16.2 MB)
    monkeypatch.setattr(LIMIT, 5000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match="6003 partial tableaux .limit 5000"):
            enumerate_skew_immaculate((1,) * 50, (3000,), semistandard=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@pytest.mark.parametrize("content_vec", [(1.5,), ("1",), (True, 1), (2.0,), (-1,)])
def test_enumerate_rejects_bad_content(content_vec):
    # entries are ints >= 0: no float, string or bool, and nothing negative
    with pytest.raises(InvalidVectorError):
        enumerate_skew_immaculate((), content_vec)


def test_sigma_of():
    sigma = sigma_of(T_EXAMPLE, (3, 1, 4))
    assert sigma == Permutation((1, 3, 2))
    assert sigma.sign == -1
    assert sigma_of(T_EXAMPLE, (3, 3, 2)) is None


def test_T_family_members_are_valid():
    for t, sigma in enumerate_T_alpha_beta((2,), (2, 4)):
        assert is_immaculate(t)
        assert sigma_of(t, (2, 4)) == sigma


def test_T_family_with_shape_is_the_filtered_family():
    for alpha, beta in (((1,), (3, 1, 4)), ((2,), (1, 2)), ((), (2, 1, 1))):
        family = enumerate_T_alpha_beta(alpha, beta)
        for gamma in {t.shape_composition() for t, _ in family} | {(9,)}:
            assert enumerate_T_alpha_beta(alpha, beta, shape=gamma) == [
                (t, sigma) for t, sigma in family if t.shape_composition() == gamma
            ]


def test_signed_product_example():
    expected = LinComb(
        "S",
        {(3, 1, 4): 1, (2, 2, 4): 1, (3, 2, 3): 1, (5, 3): -1, (4, 3, 1): -1},
    )
    assert signed_product((2,), (2, 4)) == expected
    assert signed_product_via_tableaux((2,), (2, 4)) == expected


def test_signed_product_unit():
    assert signed_product((3, 1), ()) == LinComb.monomial("S", (3, 1))
    assert signed_product_via_tableaux((3, 1), ()) == LinComb.monomial("S", (3, 1))


def test_signed_product_counts_right_pieri_terms(monkeypatch):
    # S_(1,1) * S_(2,2): 100 right Pieri terms over both permutations
    # the oracle's own elimination visits 112 terms, so it runs first
    alpha, beta = (1, 1), (2, 2)
    want = product_in_S_oracle(alpha, beta)
    monkeypatch.setattr(LIMIT, 100)
    assert signed_product(alpha, beta) == want
    monkeypatch.setattr(LIMIT, 99)
    with pytest.raises(ResourceLimitError,
                       match="100 right Pieri terms in the signed product .limit 99"):
        signed_product(alpha, beta)


def test_signed_product_refuses_a_large_step_at_once():
    # one right Pieri step of 60 cells from a five-part term has C(65, 5)
    # terms, counted before any is built
    with pytest.raises(ResourceLimitError,
                       match="8259888 right Pieri terms in the signed product"):
        signed_product((1,) * 5, (60,))


def test_both_routes_match_oracle():
    for a in range(4):
        for b in range(4):
            for alpha in compositions_of(a):
                for beta in compositions_of(b):
                    want = product_in_S_oracle(alpha, beta)
                    assert signed_product(alpha, beta) == want
                    assert signed_product_via_tableaux(alpha, beta) == want


def test_count_immaculate_LR():
    # beta a partition: the constant is a plain tableau count
    assert count_immaculate_LR((1,), (2, 1), (2, 2)) == 1
    assert count_immaculate_LR((1,), (2, 1), (1, 1, 2)) == 0
    assert count_immaculate_LR((), (3,), (3,)) == 1
    assert count_immaculate_LR((1,), (1,), (3,)) == 0  # size mismatch


def test_count_immaculate_LR_has_a_node_budget(monkeypatch):
    # the paper's saturation counterexample
    alpha, lam, gamma = (1, 1), (3, 2, 2), (3, 3, 1, 1, 1)
    assert count_immaculate_LR(alpha, lam, gamma) == 0
    # the Yamanouchi-pruned enumeration visits 6 partial tableaux
    monkeypatch.setattr(LIMIT, 6)
    assert count_immaculate_LR(alpha, lam, gamma) == 0
    monkeypatch.setattr(LIMIT, 5)
    with pytest.raises(ResourceLimitError):
        count_immaculate_LR(alpha, lam, gamma)


def partition_pairs(max_total):
    """(alpha, lam) with |alpha| + |lam| <= max_total, lam a partition."""
    for a in range(max_total + 1):
        for b in range(max_total - a + 1):
            for alpha in compositions_of(a):
                for lam in partitions_of(b):
                    yield alpha, lam


def test_immaculate_LR_product_matches_oracle():
    for alpha, lam in partition_pairs(7):
        assert immaculate_LR_product(alpha, lam) == product_in_S_oracle(alpha, lam), (
            alpha, lam)


def test_immaculate_LR_product_coefficients_are_the_counts():
    # the single-coefficient route, pruned by the shape, gives every
    # coefficient of the shape-free product, zeros included
    triples = 0
    for alpha, lam in partition_pairs(6):
        product = immaculate_LR_product(alpha, lam)
        for gamma in compositions_of(sum(alpha) + sum(lam)):
            assert product.coefficient(gamma) == count_immaculate_LR(alpha, lam, gamma)
            triples += 1
    assert triples == 4377


@pytest.mark.parametrize("lam", [(1, 2), (True, 1)])
def test_immaculate_LR_product_needs_a_partition(lam):
    with pytest.raises(PreconditionError):
        immaculate_LR_product((1,), lam)


def test_immaculate_LR_product_counts_partial_tableaux(monkeypatch):
    # the shape-free enumeration of the saturation counterexample's pair
    # visits 132 partial tableaux; the oracle's own elimination visits 201
    # terms, so it runs first
    alpha, lam = (1, 1), (3, 2, 2)
    want = product_in_S_oracle(alpha, lam)
    monkeypatch.setattr(LIMIT, 132)
    assert immaculate_LR_product(alpha, lam) == want
    monkeypatch.setattr(LIMIT, 131)
    with pytest.raises(ResourceLimitError, match="132 partial tableaux"):
        immaculate_LR_product(alpha, lam)


def test_translation_invariance_at_degree_25():
    # S_(3,3,3) S_(4^4) is S_(1,1,1) S_(4^4) with (2,2,2) added to every
    # index: the paper's translation invariance, at a degree where the
    # oracle and the signed tableau sum exceed the enumeration limit
    lam = (4, 4, 4, 4)
    base = immaculate_LR_product((1, 1, 1), lam)
    shifted = immaculate_LR_product((3, 3, 3), lam)
    assert len(base) == len(shifted) == 2605
    assert shifted.terms == {add_prefix(g, (2, 2, 2)): c for g, c in base.terms.items()}
    assert shifted.coefficient((7, 7, 7, 4)) == 1
    assert count_immaculate_LR((3, 3, 3), lam, (7, 7, 7, 4)) == 1


def test_stretched_counterexample_counts_pairs():
    # C^{N gamma}_{N alpha, N lam} = N choose 2 for the counterexample triple
    alpha, lam, gamma = (1, 1), (3, 2, 2), (3, 3, 1, 1, 1)
    for n in range(1, 31):
        got = count_immaculate_LR(scale(alpha, n), scale(lam, n), scale(gamma, n))
        assert got == comb(n, 2), n


def test_first_column_reads_the_rows_below_the_inner_shape():
    def per_row(t):
        return tuple(row[0] for r, row in enumerate(t.rows, 1)
                     if t.inner_at(r) == 0 and row)

    fillings = ((), (1,), (2, 3))
    for size in range(4):
        for inner in compositions_of(size):
            for above in itertools.product(fillings, repeat=len(inner)):
                for below in itertools.product(fillings, repeat=3):
                    t = SkewTableau(inner, above + below)
                    assert t.first_column() == per_row(t)
                    assert t.first_column() == tuple(row[0] for row in below if row)
