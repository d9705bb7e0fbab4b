"""Sign-reversing involution machinery on the tableau family behind the left
Pieri rule: the row-straightening correspondence, nefarious cells, the
two-row tail swap, and the involutions indexed by rows.

Straight-shape images are represented as plain tuples of rows so that empty
rows (which carry bookkeeping information) survive untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import Permutation, check_composition
from .errors import PreconditionError
from .tableaux import SkewTableau, _tableau, is_immaculate, sigma_of

Rows = tuple


@dataclass(frozen=True)
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


def nefarious_cells(t_rows: Rows):
    """Cells below row 1 whose upper neighbour is absent or carries a value
    at least as large, in row-major order."""
    out = []
    for r in range(2, len(t_rows) + 1):
        above = t_rows[r - 2]
        for j, a in enumerate(t_rows[r - 1], 1):
            if j > len(above) or above[j - 1] >= a:
                out.append(CellRef(r, j))
    return out


def theta_x(t_rows: Rows, x: CellRef) -> Rows:
    """Two-row tail swap pivoted at the nefarious cell ``x``.

    With x in row r at column c: if the cell above exists, the cells strictly
    right of x move up while the cell above and everything right of it move
    down after x; otherwise the cells strictly right of x move up and x
    becomes the end of its row.
    """
    if x not in nefarious_cells(t_rows):
        raise PreconditionError(f"{x} is not a nefarious cell")
    return _swap_tails(t_rows, x)


def _swap_tails(t_rows: Rows, x: CellRef) -> Rows:
    """``theta_x`` for a cell already known to be nefarious."""
    r, c = x.row, x.column
    up, down = t_rows[r - 2], t_rows[r - 1]
    if len(up) >= c:
        new_up = up[: c - 1] + down[c:]
        new_down = down[:c] + up[c - 1:]
    else:
        new_up = up + down[c:]
        new_down = down[:c]
    rows = list(t_rows)
    rows[r - 2] = new_up
    rows[r - 1] = new_down
    return tuple(rows)


def phi_r(t: SkewTableau, beta, r: int) -> SkewTableau:
    """Involution acting through row ``r`` of the straightened image Y.

    Of the nefarious cells x of row r, only those with
    ``x.column <= len(Y[r - 2]) + 1`` are tried, left to right: exactly for
    them the swap ``theta_x(Y)`` makes row r one cell longer than the old
    row r - 1, so that its pull-back under s_{r-1} sigma has permutation
    s_{r-1} sigma.  The first whose pull-back keeps the first column of
    ``t`` acts; if none does, ``t`` is a fixed point.
    """
    if type(r) is not int or r < 1:
        raise PreconditionError(f"row index must be >= 1, got {r}")
    y_rows, sigma = y_map(t, beta)  # checks beta
    return phi_on_image(t, y_rows, sigma, nefarious_cells(y_rows), r)


def phi_on_image(t: SkewTableau, y_rows: Rows, sigma: Permutation,
                 cells, r: int) -> SkewTableau:
    """``phi_r`` for a tableau whose straightening is already known:
    ``(y_rows, sigma) = y_map(t, beta)`` and ``cells`` are the nefarious
    cells of ``y_rows``.  Nothing is validated."""
    # nefarious cells lie in rows 2..len(y_rows) only
    row_cells = [x for x in cells if x.row == r]
    if not row_cells:
        return t
    # s_{r-1} sigma: the values r-1 and r trade places in sigma's images
    images = list(sigma.images)
    i, j = images.index(r - 1), images.index(r)
    images[i], images[j] = r, r - 1
    images = tuple(images)
    # the cells whose pull-back has permutation s_{r-1} sigma (see phi_r)
    bound = len(y_rows[r - 2]) + 1
    first_column = t.first_column()
    for x in row_cells:
        if x.column > bound:  # cells come left to right: no later one fits
            break
        candidate = _y_inverse(_swap_tails(y_rows, x), images, t.inner)
        # every row _y_inverse builds is sorted and t is immaculate, so keeping
        # t's first column keeps the candidate immaculate
        if candidate.first_column() == first_column:
            return candidate
    return t
