"""Sign-reversing involution machinery on the tableau family behind the left
Pieri rule: the row-straightening correspondence, nefarious cells, the
two-row tail swap, and the involutions indexed by rows.

Straight-shape images are represented as plain tuples of rows so that empty
rows (which carry bookkeeping information) survive untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import Permutation, check_composition, check_positive
from .errors import PreconditionError
from .tableaux import SkewTableau, _tableau, is_immaculate, sigma_of

Rows = tuple


@dataclass(frozen=True, slots=True)
class CellRef:
    """1-based (row, column) reference into a straight-shape tableau."""

    row: int
    column: int


def y_map(t: SkewTableau, beta):
    """Straighten T: an entry r in row i becomes an entry i in row sigma(r)
    of the image, rows sorted non-decreasingly.  Returns (rows, sigma)."""
    sigma = sigma_of(t, beta)
    if sigma is None or not is_immaculate(t):
        raise PreconditionError("tableau is not in the family for this beta")
    m = len(beta)
    rows = [[] for _ in range(m)]
    # rows of t are read top to bottom, so each image row fills in order
    for i, row in enumerate(t.rows, 1):
        for r in row:
            rows[sigma(r) - 1].append(i)
    return tuple(map(tuple, rows)), sigma


def y_inverse(t_rows: Rows, sigma: Permutation, alpha) -> SkewTableau:
    """Reverse construction: an entry r in row i becomes an entry
    sigma^{-1}(i) in row r of the output, whose inner shape is ``alpha``.
    The output may fail to be immaculate."""
    alpha = check_composition(alpha)
    m = len(sigma)
    if len(t_rows) != m:
        raise PreconditionError(f"expected {m} rows, got {len(t_rows)}")
    for row in t_rows:
        for r in row:
            if type(r) is not int or r < 1:
                raise PreconditionError(f"bad row index {r} in straightened rows")
    return _y_inverse(t_rows, sigma.images, alpha)


def _y_inverse(t_rows: Rows, images: tuple, alpha: tuple) -> SkewTableau:
    """``y_inverse`` for arguments the package built itself, with sigma
    given by its one-line ``images``: no check."""
    n_rows = max([len(alpha)] + [max(row) for row in t_rows if row])
    out = [[] for _ in range(n_rows)]
    # entry r in row sigma(value) goes to row r; values are taken in
    # increasing order, so every output row comes out sorted
    for value, i in enumerate(images, 1):
        for r in t_rows[i - 1]:
            out[r - 1].append(value)
    return _tableau(alpha, tuple(map(tuple, out)))


def _nefarious_columns(above: tuple, row: tuple):
    """Columns, left to right, of the cells of ``row`` whose upper neighbour
    in ``above`` is absent or carries a value at least as large."""
    for j, a in enumerate(row, 1):
        if j > len(above) or above[j - 1] >= a:
            yield j


def nefarious_cells(t_rows: Rows):
    """Nefarious cells below row 1, in row-major order."""
    return [CellRef(r, c) for r in range(2, len(t_rows) + 1)
            for c in _nefarious_columns(t_rows[r - 2], t_rows[r - 1])]


def theta_x(t_rows: Rows, x: CellRef) -> Rows:
    """Two-row tail swap pivoted at the nefarious cell ``x``.

    With x in row r at column c, rows r - 1 and r become
    ``up[:c - 1] + down[c:]`` and ``down[:c] + up[c - 1:]``: the cells
    strictly right of x move up, and the cells of row r - 1 from column c
    on (none if x has no cell above) move down after x.
    """
    if not (type(x.row) is int and type(x.column) is int) \
            or x not in nefarious_cells(t_rows):
        raise PreconditionError(f"{x} is not a nefarious cell")
    return _swap_tails(t_rows, x.row, x.column)


def _swap_tails(t_rows: Rows, r: int, c: int) -> Rows:
    """``theta_x`` at the cell (r, c), already known to be nefarious."""
    up, down = t_rows[r - 2], t_rows[r - 1]
    rows = list(t_rows)
    rows[r - 2] = up[: c - 1] + down[c:]
    rows[r - 1] = down[:c] + up[c - 1:]
    return tuple(rows)


def phi_r(t: SkewTableau, beta, r: int) -> SkewTableau:
    """Involution acting through row ``r`` of the straightened image Y.

    Only the left-most nefarious cell x of row r is tried: the pull-back of
    ``theta_x(Y)`` under s_{r-1} sigma is ``phi_r(t)`` if it keeps the
    first column of ``t``; otherwise ``t`` is a fixed point.  The cell at
    column ``len(Y[r - 2]) + 1`` has no cell above, so x is at or left of
    it, and the pull-back has permutation s_{r-1} sigma.  No later cell
    acts either: with a, b = sigma^{-1}(r - 1), sigma^{-1}(r), a swap at
    column c trades an a for a b in the rows ``Y[r - 2][:c - 1]`` of T and
    a b for an a in the rows ``Y[r - 1][:c]``.  If the swap at x changes
    the least letter of a row k, then k gains a letter it held none of,
    which no later swap takes back; or a < b and
    ``k <= Y[r - 2][c - 2] < Y[r - 1][c - 2]`` (column c - 1 is not
    nefarious), so no later swap gives k an a back; or b < a and no later
    row holds a b (first-column letters increase down T), so row r has no
    later cell.
    """
    check_positive("row index", r)
    y_rows, sigma = y_map(t, beta)  # checks beta
    return phi_on_image(t, y_rows, sigma, r)


def phi_on_image(t: SkewTableau, y_rows: Rows, sigma: Permutation,
                 r: int) -> SkewTableau:
    """``phi_r`` for a tableau whose straightening is already known:
    ``(y_rows, sigma) = y_map(t, beta)``.  Nothing is validated."""
    # nefarious cells lie in rows 2..len(y_rows) only
    if not 2 <= r <= len(y_rows):
        return t
    c = next(_nefarious_columns(y_rows[r - 2], y_rows[r - 1]), None)
    if c is None:
        return t
    # s_{r-1} sigma: the values r-1 and r trade places in sigma's images
    images = list(sigma.images)
    i, j = images.index(r - 1), images.index(r)
    images[i], images[j] = r, r - 1
    candidate = _y_inverse(_swap_tails(y_rows, r, c), tuple(images), t.inner)
    # every row _y_inverse builds is sorted and t is immaculate, so keeping
    # t's first column keeps the candidate immaculate
    return candidate if candidate.first_column() == t.first_column() else t
