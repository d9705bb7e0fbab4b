import pytest
from hypothesis import given, settings, strategies as st

from immaculate import involution, sweeps, tableaux
from immaculate.compositions import Permutation, compositions_of, shifted_entries
from immaculate.errors import PreconditionError
from immaculate.involution import (
    CellRef,
    nefarious_cells,
    phi_on_image,
    phi_r,
    theta_x,
    y_inverse,
    y_map,
)
from immaculate.tableaux import (
    SkewTableau,
    enumerate_T_alpha_beta,
    is_immaculate,
    sigma_of,
)

# Worked example: alpha = (1,2), beta = (2,2,2), sigma = (1,3,2);
# straightening sends this tableau to rows (1,1), (3), (1,2,3).
T_WORKED = SkewTableau((1, 2), ((1, 1, 2), (2,), (2, 3)))
BETA = (2, 2, 2)


def test_y_map_worked_example():
    rows, sigma = y_map(T_WORKED, BETA)
    assert sigma == Permutation((1, 3, 2))
    assert rows == ((1, 1), (3,), (1, 2, 3))


def test_y_map_rejects_foreign_tableau():
    with pytest.raises(PreconditionError):
        y_map(T_WORKED, (2, 2, 1))


def test_y_inverse_round_trip_worked_example():
    rows, sigma = y_map(T_WORKED, BETA)
    assert y_inverse(rows, sigma, (1, 2)) == T_WORKED


@pytest.mark.parametrize("rows,alpha,message", [
    (((1, 1), (3,)), (1, 2), "expected 3 rows, got 2"),
    (((1, 1), (3,), (2, 0, 3)), (1, 2), "bad row index 0 in straightened rows"),
    (((1, 1), (-1,), (0,)), (1, 2), "bad row index -1 in straightened rows"),
    (((1, 1), (3,), (1, 2, 3)), (1, 0), "composition"),
    (((1, 1), (3,), (1, True, 3)), (1, 2), "bad row index True in straightened rows"),
    (((1, 1), (3,), (1, 1.5, 3)), (1, 2), "bad row index 1.5 in straightened rows"),
])
def test_y_inverse_checks_its_arguments(rows, alpha, message):
    with pytest.raises(PreconditionError, match=message):
        y_inverse(rows, Permutation((1, 3, 2)), alpha)


def test_y_round_trip_whole_family():
    for alpha in [(1,), (1, 2), (2, 1)]:
        for beta in [(1, 1), (2, 2), (1, 2)]:
            for t, sigma in enumerate_T_alpha_beta(alpha, beta):
                rows, sig = y_map(t, beta)
                assert sig == sigma
                assert y_inverse(rows, sig, alpha) == t


def test_nefarious_cells_worked_example():
    rows, _ = y_map(T_WORKED, BETA)
    assert nefarious_cells(rows) == [CellRef(3, 1), CellRef(3, 2), CellRef(3, 3)]
    assert nefarious_cells(((1, 2),)) == []
    assert nefarious_cells(((1,), (1,))) == [CellRef(2, 1)]


def test_theta_x_with_cell_above():
    out = theta_x(((1, 2, 3), (2, 2, 3)), CellRef(2, 2))
    assert out == ((1, 3), (2, 2, 2, 3))


def test_theta_x_without_cell_above():
    out = theta_x(((1,), (2, 2, 3)), CellRef(2, 2))
    assert out == ((1, 3), (2, 2))


def test_theta_x_is_an_involution():
    rows = ((1, 2, 3), (2, 2, 3))
    x = CellRef(2, 2)
    assert theta_x(theta_x(rows, x), x) == rows


def test_theta_x_rejects_non_nefarious():
    # a cell's row and column are ints: True is not column 1
    for rows, x in [(((1, 2), (2, 3)), CellRef(2, 2)),
                    (((2,), (1,)), CellRef(2, True)),
                    (((1, 2, 3), (2, 2, 3)), CellRef(2.0, 2))]:
        with pytest.raises(PreconditionError, match="is not a nefarious cell"):
            theta_x(rows, x)


def test_phi_is_involution_and_reverses_sign():
    for alpha in [(1,), (2, 1), (1, 2)]:
        for beta in [(1, 1), (2, 1), (1, 1, 1)]:
            family = enumerate_T_alpha_beta(alpha, beta)
            members = {(t.inner, t.rows) for t, _ in family}
            for t, sigma in family:
                for r in range(1, len(beta) + 1):
                    image = phi_r(t, beta, r)
                    # stays inside the family
                    assert (image.inner, image.rows) in members
                    # involution
                    assert phi_r(image, beta, r) == t
                    if image != t:
                        # moved points flip the sign and keep the shape
                        new_sigma = sigma_of(image, beta)
                        assert new_sigma.sign == -sigma.sign
                        assert image.shape_composition() == t.shape_composition()
                        assert image.first_column() == t.first_column()


def test_phi_row_one_fixes_everything():
    for t, _ in enumerate_T_alpha_beta((1,), (2, 1)):
        assert phi_r(t, (2, 1), 1) == t


def test_phi_r_is_the_kernel_on_the_straightened_image():
    for a in range(5):
        for b in range(5 - a):
            for alpha in compositions_of(a):
                for beta in compositions_of(b):
                    for t, _ in enumerate_T_alpha_beta(alpha, beta):
                        rows, sigma = y_map(t, beta)
                        for r in range(1, len(alpha) + len(beta) + 1):
                            assert phi_r(t, beta, r) == phi_on_image(
                                t, rows, sigma, r)


def test_phi_r_fixes_the_rows_the_sweep_skips():
    # the involution sweep stops at r = len(beta): the straightened image has
    # len(beta) rows, so a larger r fixes every member, as r = 1 does (row 1
    # has no row above it)
    for alpha, beta in sweeps._pairs(5, compositions_of):
        skipped = [1, *range(len(beta) + 1, len(alpha) + len(beta) + 2)]
        for t, _ in enumerate_T_alpha_beta(alpha, beta):
            for r in skipped:
                assert phi_r(t, beta, r) == t, (alpha, beta, t, r)


def test_phi_r_rejects_foreign_tableau():
    with pytest.raises(PreconditionError):
        phi_r(T_WORKED, (2, 2, 1), 2)
    for r in (0, True, 3.0, 2.5):
        with pytest.raises(PreconditionError, match="row index must be >= 1"):
            phi_r(T_WORKED, BETA, r)


def test_sweep_straightens_each_tableau_once_and_scans_none(monkeypatch):
    # the families with |alpha| + |beta| <= 5 hold 2,001 tableaux; phi_r
    # finds its own cell, so no whole image is scanned
    calls = {"y_map": 0, "nefarious_cells": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(involution, name)):
            calls[_name] += 1
            return _original(*args)
        for module in (involution, sweeps):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert sweeps.sweep_involution(5) is None
    assert calls == {"y_map": 2001, "nefarious_cells": 0}


def test_sweep_counts_content_once_per_straightening(monkeypatch):
    # only y_map's sigma_of reads a content; phi_on_image reads none
    calls = 0
    original = tableaux.content

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)
    monkeypatch.setattr(tableaux, "content", counted)
    assert sweeps.sweep_involution(5) is None
    assert calls == 2001


def test_sweep_applies_phi_once_per_tableau_and_row(monkeypatch):
    # 6,408 (T, r) pairs with r <= len(beta) in the families with
    # |alpha| + |beta| <= 5; the involution is read off the same table
    calls = 0
    original = sweeps.phi_on_image

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)
    monkeypatch.setattr(sweeps, "phi_on_image", counted)
    assert sweeps.sweep_involution(5) is None
    assert calls == 6408


def phi_by_definition(t, beta, r):
    """phi_r as the paper defines it: the nefarious cells x of row r of the
    straightened image Y are tried left to right, and the first pull-back of
    theta_x(Y) under s_{r-1} sigma that is immaculate, keeps t's first
    column and has permutation s_{r-1} sigma acts; t is fixed if none does."""
    rows, sigma = y_map(t, beta)
    for x in nefarious_cells(rows):
        if x.row != r:
            continue
        flipped = Permutation.transposition(len(beta), r - 1).compose(sigma)
        candidate = y_inverse(theta_x(rows, x), flipped, t.inner)
        if (is_immaculate(candidate)
                and candidate.first_column() == t.first_column()
                and sigma_of(candidate, beta) == flipped):
            return candidate
    return t


def pulled_back(t_rows, sigma, alpha):
    """The definition: an entry r in row i becomes sigma^{-1}(i) in row r."""
    inv = sigma.inverse()
    out = [[] for _ in range(max([len(alpha)] + [max(row) for row in t_rows if row]))]
    for i, row in enumerate(t_rows, 1):
        for r in row:
            out[r - 1].append(inv(i))
    return SkewTableau(alpha, tuple(tuple(sorted(row)) for row in out))


def test_unchecked_pull_back_matches_y_inverse():
    for alpha, beta in sweeps._pairs(5, compositions_of):
        for t, _ in enumerate_T_alpha_beta(alpha, beta):
            rows, sigma = y_map(t, beta)
            assert involution._y_inverse(rows, sigma.images, alpha) == t
            for x in nefarious_cells(rows):
                swapped = theta_x(rows, x)
                flipped = Permutation.transposition(len(beta), x.row - 1).compose(sigma)
                got = involution._y_inverse(swapped, flipped.images, alpha)
                assert got == y_inverse(swapped, flipped, alpha)
                assert got == pulled_back(swapped, flipped, alpha)


def test_pull_back_keeping_the_first_column_is_immaculate():
    # phi_on_image tests its one candidate's first column, not is_immaculate
    kept = sigma_changed = 0
    for n in range(6):
        for a in range(n + 1):
            for alpha in compositions_of(a):
                for beta in compositions_of(n - a):
                    for t, _ in enumerate_T_alpha_beta(alpha, beta):
                        rows, sigma = y_map(t, beta)
                        assert all(list(row) == sorted(row) for row in rows)
                        for x in nefarious_cells(rows):
                            flipped = Permutation.transposition(
                                len(beta), x.row - 1).compose(sigma)
                            candidate = y_inverse(theta_x(rows, x), flipped, alpha)
                            if candidate.first_column() != t.first_column():
                                continue
                            assert is_immaculate(candidate), (alpha, beta, t, x)
                            kept += 1
                            sigma_changed += sigma_of(candidate, beta) != flipped
    # sigma is not implied: the column bound rejects some of these candidates
    assert (kept, sigma_changed) == (3511, 645)


def test_column_bound_is_the_sigma_test():
    # a swap pulled back under s_{r-1} sigma has that permutation exactly
    # when its cell x in row r has x.column <= len(row r - 1) + 1.  The cell
    # at that column has no cell above, so the left-most nefarious cell of a
    # row is always within the bound: its pull-back is in the family
    pairs = rejected = 0
    phi_pairs = moved = left_most_failed = later_within = 0
    for alpha, beta in sweeps._pairs(6, compositions_of):
        for t, _ in enumerate_T_alpha_beta(alpha, beta):
            rows, sigma = y_map(t, beta)
            cells = nefarious_cells(rows)
            by_row = {}  # row -> (within, pull-back) for each cell, left to right
            for x in cells:
                flipped = Permutation.transposition(len(beta), x.row - 1).compose(sigma)
                pulled = y_inverse(theta_x(rows, x), flipped, alpha)
                within = x.column <= len(rows[x.row - 2]) + 1
                in_family = sigma_of(pulled, beta) == flipped
                assert in_family == within, (alpha, beta, t, x)
                pairs += 1
                rejected += not within
                by_row.setdefault(x.row, []).append((within, pulled))
            # phi_on_image, which tries the left-most cell only, against the
            # definition, which tries every cell of the row
            for r in range(1, len(alpha) + len(beta) + 1):
                row = by_row.get(r, [])
                assert not row or row[0][0], (alpha, beta, t, r)
                tried = [pulled for within, pulled in row if within]
                # a row without nefarious cells has no candidate to try
                expected = phi_by_definition(t, beta, r) if row else t
                assert phi_on_image(t, rows, sigma, r) == expected, \
                    (alpha, beta, t, r)
                phi_pairs += 1
                moved += expected != t
                if tried and tried[0].first_column() != t.first_column():
                    left_most_failed += 1
                    later_within += len(tried) - 1
    assert (pairs, rejected) == (48604, 14472)
    assert (phi_pairs, moved, left_most_failed) == (73554, 25546, 1504)
    # no failing left-most cell has a later cell within the bound at this
    # size, so the old rule never reached a second candidate here
    assert later_within == 0


@st.composite
def family_members(draw):
    """(t, beta) with t in the family of (alpha, beta), 7 <= |alpha| + |beta| <= 9.

    t is built, not drawn from an enumerated family (which reaches 49,271
    tableaux at size 8): the rows below alpha start with strictly increasing
    letters of the content, and every other letter goes to an inner row or
    to a lower row whose first letter is at most it."""
    n = draw(st.integers(7, 9))
    a = draw(st.integers(0, n - 1))
    alpha = draw(st.sampled_from(list(compositions_of(a))))
    beta = draw(st.sampled_from(list(compositions_of(n - a))))
    sigma, c = draw(st.sampled_from(list(shifted_entries(beta))))
    support = [v for v, k in enumerate(c, 1) if k]
    firsts = set(draw(st.lists(st.sampled_from(support), unique=True)))
    if not alpha:  # the least letter has no inner row to go to
        firsts.add(support[0])
    firsts = sorted(firsts)
    rows = [[] for _ in alpha] + [[v] for v in firsts]
    for v, k in enumerate(c, 1):
        eligible = [*range(len(alpha)),
                    *(len(alpha) + i for i, f in enumerate(firsts) if f <= v)]
        for _ in range(k - (v in firsts)):
            rows[draw(st.sampled_from(eligible))].append(v)
    t = SkewTableau(alpha, tuple(tuple(sorted(row)) for row in rows))
    assert is_immaculate(t) and sigma_of(t, beta) == sigma
    return t, beta


@settings(derandomize=True, max_examples=200, deadline=None)
@given(family_members())
def test_phi_r_is_the_definition_past_the_exhaustive_sizes(member):
    # the sweep and the tests above reach |alpha| + |beta| <= 6; here the
    # left-most-cell rule is checked against the definition at 7..9
    t, beta = member
    for r in range(1, len(t.rows) + len(beta) + 2):
        assert phi_r(t, beta, r) == phi_by_definition(t, beta, r), r
