"""Skew tableaux: predicates, reading words, enumeration, and the signed product.

A skew tableau stores its inner shape plus, for each row, the sequence of
filled entries to the right of the inner cells.  Rows are indexed from 1, top
to bottom.  Rows beyond the inner shape may only be empty at the very bottom:
``outer_shape`` reads such rows as zeros and ``shape_composition`` drops them.
The package itself builds no tableau that ends in one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, count
from math import comb
from operator import add, lt, sub

from .compositions import (
    Permutation,
    _extended,
    _permutation,
    check_composition,
    check_enumeration,
    check_partition,
    shifted_entries,
)
from .errors import InvalidVectorError, PreconditionError
from .linear import LinComb, _built


@dataclass(frozen=True, slots=True)
class SkewTableau:
    """Inner shape plus row-wise filled entries."""

    inner: tuple
    rows: tuple

    def __post_init__(self):
        inner = check_composition(self.inner)
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) < len(inner):
            rows = rows + ((),) * (len(inner) - len(rows))
        for row in rows:
            # type(e) is int: a bool is an int too, but no entry
            if any(type(e) is not int or e < 1 for e in row):
                raise PreconditionError(f"bad entries in row {row!r}")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rows", rows)

    @property
    def outer_shape(self) -> tuple:
        """Row lengths including inner cells; may end in zeros for padded rows."""
        inner = self.inner + (0,) * (len(self.rows) - len(self.inner))
        return tuple(i + len(r) for i, r in zip(inner, self.rows))

    def shape_composition(self) -> tuple:
        """Outer shape as a composition; trailing empty rows are dropped."""
        shape = self.outer_shape
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        if any(p == 0 for p in shape):
            raise PreconditionError(f"empty row inside shape {shape!r}")
        return shape

    def inner_at(self, row: int) -> int:
        return self.inner[row - 1] if row <= len(self.inner) else 0

    def first_column(self) -> tuple:
        """Entries actually occupying column 1, top to bottom: inner parts
        are positive, so only rows below the inner shape start there."""
        return tuple(row[0] for row in self.rows[len(self.inner):] if row)


# the slots' own setters: a frozen dataclass refuses plain assignment
_set_inner = SkewTableau.inner.__set__
_set_rows = SkewTableau.rows.__set__


def _tableau(inner: tuple, rows: tuple) -> SkewTableau:
    """A tableau the package built itself, with at least ``len(inner)``
    rows: no check."""
    t = object.__new__(SkewTableau)
    _set_inner(t, inner)
    _set_rows(t, rows)
    return t


def reading_word(t: SkewTableau) -> tuple:
    """Rows read right to left, top to bottom."""
    word = []
    for row in t.rows:
        word.extend(reversed(row))
    return tuple(word)


def content(t: SkewTableau, m: int) -> tuple:
    """Length-m multiplicity vector of the entries of ``t``."""
    counts = [0] * m
    for row in t.rows:
        for e in row:
            if e > m:
                raise InvalidVectorError(f"entry {e} exceeds content length {m}")
            counts[e - 1] += 1
    return tuple(counts)


def _rows_weakly_increase(t: SkewTableau) -> bool:
    return all(row[i] <= row[i + 1] for row in t.rows for i in range(len(row) - 1))


def is_immaculate(t: SkewTableau) -> bool:
    """Rows weakly increase; the filled first column strictly increases."""
    if not _rows_weakly_increase(t):
        return False
    col = t.first_column()
    return all(col[i] < col[i + 1] for i in range(len(col) - 1))


def is_semistandard(t: SkewTableau) -> bool:
    """Rows weakly increase; every column strictly increases."""
    if not _rows_weakly_increase(t):
        return False
    for r in range(2, len(t.rows) + 1):
        off = t.inner_at(r)
        off_above = t.inner_at(r - 1)
        for j, e in enumerate(t.rows[r - 1]):
            column = off + j + 1
            pos_above = column - off_above - 1
            if 0 <= pos_above < len(t.rows[r - 2]):
                if t.rows[r - 2][pos_above] >= e:
                    return False
    return True


def is_yamanouchi(t: SkewTableau) -> bool:
    """Every reading-word prefix has at least as many j's as (j+1)'s."""
    seen = {}
    for letter in reading_word(t):
        seen[letter] = seen.get(letter, 0) + 1
        if letter > 1 and seen[letter] > seen.get(letter - 1, 0):
            return False
    return True


def enumerate_skew_immaculate(
    inner, content_vec, shape=None, *, yamanouchi=False, semistandard=False
):
    """All immaculate skew tableaux with the given inner shape and exact
    content; only the Yamanouchi or semistandard ones when asked.

    A row of an immaculate tableau weakly increases, so its count vector k
    (k_j copies of letter j) fixes it, and every constraint on a row bounds k:

    - k_j <= ``caps[j]``, the remaining content; with ``yamanouchi`` also
      k_j <= used_(j-1) - used_j (``used``: the content above the row), as
      the row, read right to left, gives its j's before its (j-1)'s;
    - k_1 + .. + k_j <= ``most[j]``: with ``semistandard``, the position of
      the row's first cell under a letter >= j;
    - ``low`` <= sum(k) <= ``high``: the row's size, when ``shape`` fixes it;
    - k_j >= ``need``: a row below the inner shape starts column 1, and
      each later row starts with a larger letter, so it takes every copy of
      the smallest remaining letter.

    Each k_j is picked, in lexicographic order, from the range these bounds
    leave, ``tail`` keeping the row total reachable.  A partial row is held
    as its length and runs of letters until its partial tableau is visited.
    The limit counts the partial tableaux stacked, and before they are built
    the partial rows of the next letter: each will be visited.  A row is
    built whole, so one longer than the limit (up to the content's total, or
    the longest row of ``shape`` past ``inner``) is refused at once.
    """
    inner = check_composition(inner)
    content_vec = tuple(content_vec)
    if not all(type(c) is int and c >= 0 for c in content_vec):  # no bool
        raise InvalidVectorError(f"content must be ints >= 0: {content_vec!r}")
    m = len(content_vec)
    total = sum(content_vec)
    if shape is not None:
        shape = check_composition(shape)
        if len(shape) < len(inner) or sum(shape) - sum(inner) != total or any(
            map(lt, shape, inner)
        ):
            return []
        longest = max(map(sub, shape, inner + (0,) * len(shape)), default=0)
    else:
        longest = total
    check_enumeration("cells in one row", longest)

    results = []
    # pad[r]: inner cells of row r; each row below the inner shape uses up a letter
    pad = (0,) + inner + (0,) * (m + 1)
    # past row ``last`` with no content left a tableau is done; with ``shape``
    # the fixed row sizes leave none
    last = len(inner) if shape is None else len(shape)
    # stacked: a row index, the content and rows above that row, and the row's
    # runs, last letter first, as (letter, copies, rest) or None; root: row 0
    stack = [(1, content_vec, (), None)]
    stacked = 1  # partial tableaux stacked so far: each will be visited
    while stack:
        r, remaining, rows, run = stack.pop()
        row, remaining = (), list(remaining)
        while run:
            letter, k, run = run
            row = (letter,) * k + row
            remaining[letter - 1] -= k
        rows, remaining = rows + (row,), tuple(remaining)
        if r > last and not any(remaining):
            results.append(_tableau(inner, rows[1:]))
            continue
        caps = remaining
        if yamanouchi:
            used = tuple(map(sub, content_vec, remaining))
            caps = tuple(map(min, caps, (total, *map(sub, used, used[1:]))))
        tail = list(accumulate(caps[::-1], initial=0))[::-1]
        low, high = (0, total) if shape is None else (shape[r - 1] - pad[r],) * 2
        start = next(compress(count(), remaining), m)  # first letter left
        need = remaining[start] if r > len(inner) else 0
        most = (total,) * m
        if semistandard and r > 1:
            above, off = rows[-1], pad[r] - pad[r - 1]
            firsts = [max(off, bisect_left(above, v)) for v in range(1, m + 1)]
            most = [q - off if q < len(above) else total for q in firsts]
            # past its first letter a partial row can fail no bound but this
            # one, which does not depend on the row (``most`` only grows)
            if low > min(map(add, most[start:], tail[start + 1:]), default=low):
                continue
        level = [(0, None)]  # partial rows: (length, runs)
        for j in range(start, m):
            cap, top, floor = caps[j], min(most[j], high), max(need, low - tail[j + 1])
            if not cap and floor <= 0:
                continue  # each partial row takes no j + 1 and stays as it is
            spans = [range(max(0, floor - p), min(cap, top - p) + 1) for p, _ in level]
            need = 0
            check_enumeration("partial tableaux", stacked + sum(map(len, spans)))
            level = [(p + k, (j + 1, k, run) if k else run)
                     for (p, run), span in zip(level, spans) for k in span]
            if not level:
                break  # the node has no child
        stacked += len(level)
        check_enumeration("partial tableaux", stacked)
        stack += [(r + 1, remaining, rows, run) for _, run in reversed(level)]
    return results


def count_immaculate_LR(alpha, lam, gamma) -> int:
    """Number of skew immaculate Yamanouchi tableaux of shape gamma/alpha and
    content lam (a partition)."""
    lam = check_partition(lam)
    return len(enumerate_skew_immaculate(alpha, lam, shape=gamma, yamanouchi=True))


def immaculate_LR_product(alpha, lam) -> LinComb:
    """S_alpha * S_lam for a partition lam: every count_immaculate_LR
    coefficient at once, from one enumeration with no shape, each tableau
    adding 1 at its outer shape.  For one coefficient count_immaculate_LR,
    which prunes by the shape, is faster."""
    lam = check_partition(lam)
    out = {}
    for t in enumerate_skew_immaculate(alpha, lam, yamanouchi=True):
        gamma = t.shape_composition()
        out[gamma] = out.get(gamma, 0) + 1
    return _built("S", out)


def sigma_of(t: SkewTableau, beta) -> Permutation | None:
    """The permutation c(T) - beta + Id, or None when it is not a permutation."""
    beta = check_composition(beta)
    m = len(beta)
    try:
        c = content(t, m)
    except InvalidVectorError:
        return None
    images = tuple(c[j] - beta[j] + (j + 1) for j in range(m))
    if sorted(images) != list(range(1, m + 1)):
        return None
    return _permutation(images)


def enumerate_T_alpha_beta(
    alpha, beta, shape=None, *, yamanouchi=False, semistandard=False
):
    """All (T, sigma(T)) with T immaculate of inner shape alpha, entries in
    {1..len(beta)}, and c(T) - beta + Id a permutation; only outer shape
    ``shape``, and only Yamanouchi or semistandard T, when asked."""
    alpha = check_composition(alpha)
    beta = check_composition(beta)
    out = []
    for sigma, c in shifted_entries(beta):
        for t in enumerate_skew_immaculate(
            alpha, c, shape=shape, yamanouchi=yamanouchi, semistandard=semistandard
        ):
            out.append((t, sigma))
    return out


def signed_product(alpha, beta) -> LinComb:
    """S_alpha * S_beta via the signed sum over permutations of iterated
    right Pieri steps whose sizes are the shifted entries of beta
    (``shifted_entries``); zero steps are skipped.  The C(s + l, l) right
    Pieri terms of a step of s cells from a term of length l are counted,
    with those visited before over all permutations, against
    ENUMERATION_LIMIT before they are built."""
    alpha = check_composition(alpha)
    beta = check_composition(beta)
    out = {}
    visited = 0
    for sigma, steps in shifted_entries(beta):
        frontier = {alpha: 1}
        for s in filter(None, steps):
            nxt = {}
            for gamma, mult in frontier.items():
                visited += comb(s + len(gamma), len(gamma))
                check_enumeration("right Pieri terms in the signed product", visited)
                for succ in _extended(gamma + (0,), s, trim=True):
                    nxt[succ] = nxt.get(succ, 0) + mult
            frontier = nxt
        for gamma, mult in frontier.items():
            out[gamma] = out.get(gamma, 0) + sigma.sign * mult
    return _built("S", out)


def signed_product_via_tableaux(alpha, beta) -> LinComb:
    """Second route for the same product: direct generation of the tableau
    family and summation of signs by outer shape."""
    out = {}
    for t, sigma in enumerate_T_alpha_beta(alpha, beta):
        gamma = t.shape_composition()
        out[gamma] = out.get(gamma, 0) + sigma.sign
    return _built("S", out)
