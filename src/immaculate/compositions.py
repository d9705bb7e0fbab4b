"""Compositions, partitions, permutations and the two Pieri-type cover relations.

Compositions and partitions are plain tuples of positive integers; the empty
tuple is the unique composition of 0.  Integer vectors (which may contain
zeros or negative entries) are also plain tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from math import comb, prod
from operator import add
from typing import Iterator

from .errors import PreconditionError, ResourceLimitError

# Work that visits more items than this is refused: counted before it starts
# where the count is known, and as it goes where it is not: the triangular
# elimination, the partial tableaux, the signed product's right Pieri terms
# and the levels of horizontal strips, each counted before it is built.
ENUMERATION_LIMIT = 500_000


def check_enumeration(what: str, count: int):
    """Refuse to visit ``count`` items (``what``) past ENUMERATION_LIMIT."""
    if count > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"refusing to enumerate {count} {what} (limit {ENUMERATION_LIMIT})"
        )


def check_composition(alpha) -> tuple:
    alpha = tuple(alpha)
    # type(a) is int: a bool is an int too, but no part of a composition
    if not all(type(a) is int and a >= 1 for a in alpha):
        raise PreconditionError(f"not a composition: {alpha!r}")
    return alpha


def check_positive(what: str, value):
    """Refuse a ``value`` (``what``) that is not an int >= 1; a bool or a
    float is not one."""
    if type(value) is not int or value < 1:
        raise PreconditionError(f"{what} must be >= 1, got {value}")


def cached_behind(check):
    """Decorator: cache a function's answers behind ``check``, which takes
    the function's arguments and returns them checked, as a tuple.  So an
    argument equal to a cached one (True == 1, 2.0 == 2) is still refused,
    and a list is answered like its tuple.  The cache is read and emptied
    through the function's name, and ``__wrapped__`` is the uncached function."""
    def decorate(kernel):
        cached = lru_cache(maxsize=None)(kernel)

        @wraps(kernel)
        def checked(*args, **kwargs):
            return cached(*check(*args, **kwargs))

        checked.cache_info = cached.cache_info
        checked.cache_clear = cached.cache_clear
        return checked
    return decorate


def is_partition(alpha) -> bool:
    return all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1))


def check_partition(lam) -> tuple:
    lam = check_composition(lam)
    if not is_partition(lam):
        raise PreconditionError(f"not weakly decreasing: {lam!r}")
    return lam


def sort_composition(alpha) -> tuple:
    """The partition obtained by reordering the parts of ``alpha``."""
    return tuple(sorted(alpha, reverse=True))


def scale(alpha, n: int) -> tuple:
    """Multiply every part of ``alpha`` by ``n``."""
    check_positive("scale factor", n)
    return tuple(n * a for a in alpha)


def add_prefix(alpha, v) -> tuple:
    """Add ``v`` entrywise to the first ``len(v)`` parts of ``alpha``."""
    if len(v) > len(alpha):
        raise PreconditionError(f"prefix {v!r} longer than {alpha!r}")
    return tuple(a + w for a, w in zip(alpha, v)) + tuple(alpha[len(v):])


def right_pieri_successors(alpha, s: int) -> list:
    """All beta covering ``alpha`` by adding ``s`` cells on the right, in
    lexicographic order (all have degree |alpha| + s, so this is graded-lex).

    beta must satisfy |beta| = |alpha| + s, beta_j >= alpha_j for
    j <= len(alpha), and len(beta) <= len(alpha) + 1.  beta is alpha + (0,)
    plus a weak composition of s, with a last entry 0 dropped; distinct
    weak compositions give distinct beta, in their own (lexicographic) order.
    """
    alpha = check_composition(alpha)
    check_positive("s", s)
    check_enumeration("right Pieri terms", comb(s + len(alpha), len(alpha)))
    return _extended(alpha + (0,), s, trim=True)


def is_right_pieri_successor(alpha, s: int, beta) -> bool:
    """Re-check the defining conditions of the right cover relation: beta is
    a composition of |alpha| + s with len(alpha) or len(alpha) + 1 parts,
    each of the first len(alpha) at least the part of alpha below it."""
    return (
        sum(beta) == sum(alpha) + s
        and len(alpha) <= len(beta) <= len(alpha) + 1
        and all(b >= 1 for b in beta)
        and all(beta[j] >= alpha[j] for j in range(len(alpha)))
    )


def horizontal_strip_successors(mu, n: int) -> set:
    """All partitions obtained from ``mu`` by adding a horizontal n-strip.

    The strip is placed one row of ``mu`` at a time, as a level of (prefix,
    cells left); the cells still left after the last row make the new row.
    New cells in row r lie in columns > mu_r and <= mu_{r-1}, so the rows
    after row r, the new one included, take at most mu_r cells: row r ends
    at column >= the cells left, and every partial strip completes.  So no
    level is larger than the next, and each is counted from its row bounds
    and checked before it is built.
    """
    check_positive("n", n)
    mu = check_partition(mu)
    level = [((), n)]
    for r, base in enumerate(mu):
        most = mu[r - 1] - base if r else n     # the cells row r can take
        spans = [range(max(base, left), base + min(left, most) + 1)
                 for _, left in level]
        check_enumeration("horizontal strips", sum(map(len, spans)))
        level = [(prefix + (nu,), left - (nu - base))
                 for (prefix, left), span in zip(level, spans) for nu in span]
    return {prefix + ((left,) if left else ()) for prefix, left in level}


def _extended(base: tuple, n: int, trim: bool = False) -> list:
    """``base + w`` entrywise, for every weak composition ``w`` of ``n`` with
    len(base) parts, in lexicographic order of ``w``; ``base`` has no negative
    part, and with ``trim`` a last part 0 is dropped.

    Prefixes are built one part at a time, depth first, each with the cells
    it has left; a prefix with none left takes the rest of ``base`` at once.
    The last two parts come from one list of tails per count of cells left,
    shared by every prefix with that count, so each output tuple costs one
    concatenation.
    """
    trim = trim and bool(base) and not base[-1]
    rest = base[:-1] if trim else base
    if n <= 0:
        return [rest] if n == 0 else []
    if len(base) < 2:
        return [(base[0] + n,)] if base else []
    *head, x, y = base
    end = () if trim else (y,)
    tails = [[*zip(range(x, x + r), range(y + r, y, -1)), (x + r, *end)]
             for r in (range(n + 1) if head else (n,))]
    if not head:
        return tails[0]
    out = []
    last = len(head) - 1
    pending = [((), n, 0)]
    while pending:
        prefix, left, k = pending.pop()
        if not left:
            out.append(prefix + rest[k:])
            continue
        b = head[k]
        if k < last:
            # pushed largest first, so the smallest part is taken next
            pending += [(prefix + (b + a,), left - a, k + 1)
                        for a in range(left, -1, -1)]
        else:
            for a in range(left + 1):
                out += map((prefix + (b + a,)).__add__, tails[left - a])
    return out


def weak_compositions(n: int, length: int) -> Iterator[tuple]:
    """All length-``length`` tuples of nonnegative integers summing to ``n``,
    in lexicographic order."""
    if length >= 0:
        yield from _extended((0,) * length, n)


def compositions_of(n: int, length: int | None = None) -> Iterator[tuple]:
    """All compositions of ``n``, optionally with length fixed, by length,
    then in lexicographic order."""
    lengths = range(n + 1) if length is None else (length,)
    for ln in lengths:
        if ln >= 0:
            yield from _extended((1,) * ln, n - ln)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple]:
    """All partitions of ``n`` with parts bounded by ``max_part``."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _cycle_sign(images: tuple) -> int:
    """(-1)^(m - number of cycles) of the permutation with these images."""
    parity = len(images)
    seen = [False] * (len(images) + 1)
    for start in images:
        if not seen[start]:
            parity -= 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = images[i - 1]
    return -1 if parity % 2 else 1


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1..m} in one-line notation.  Its ``sign`` is stored
    when it is built; equality, hashing and ``repr`` read ``images`` only."""

    images: tuple
    sign: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        images = tuple(self.images)
        # type(i) is int: True == 1, but a bool is no image
        if (not all(type(i) is int for i in images)
                or sorted(images) != list(range(1, len(images) + 1))):
            raise PreconditionError(f"not a permutation: {images!r}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "sign", _cycle_sign(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __len__(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images, 1):
            inv[img - 1] = i
        return _permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if len(other) != len(self):
            raise PreconditionError("size mismatch in composition")
        return _permutation(tuple(self.images[i - 1] for i in other.images))

    @staticmethod
    def transposition(m: int, r: int) -> "Permutation":
        """Swap r and r+1 inside S_m."""
        if type(m) is not int or type(r) is not int or not 1 <= r < m:
            raise PreconditionError(f"transposition ({r},{r + 1}) not in S_{m}")
        images = list(range(1, m + 1))
        images[r - 1], images[r] = images[r], images[r - 1]
        return _permutation(tuple(images))


# the slots' own setters: a frozen dataclass refuses plain assignment
_set_images = Permutation.images.__set__
_set_sign = Permutation.sign.__set__


def _permutation(images: tuple, sign: int | None = None) -> Permutation:
    """A permutation whose images the package built itself: no check.  The
    ``sign`` the caller already knows is stored; without one it is counted
    from the cycles."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    _set_sign(p, _cycle_sign(images) if sign is None else sign)
    return p


def permutation_floors(alpha) -> tuple:
    """Per-position floors max(1, i - alpha_i): the permutations sigma with
    alpha_i + sigma_i - i >= 0 for every i are those with sigma_i >= floor_i."""
    return tuple(max(1, i - a) for i, a in enumerate(alpha, 1))


def _permutation_arguments(m, floors=()) -> tuple:
    """The arguments of ``permutations``, checked."""
    if type(m) is not int or m < 0:
        raise PreconditionError(f"m must be an int >= 0, got {m!r}")
    if type(floors) is not tuple or not all(type(f) is int for f in floors):
        raise PreconditionError(f"floors must be a tuple of ints, got {floors!r}")
    if len(floors) > m:
        raise PreconditionError(f"{len(floors)} floors for S_{m}")
    return m, floors


@cached_behind(_permutation_arguments)
def permutations(m: int, floors: tuple = ()) -> tuple:
    """The permutations sigma of {1..m} with sigma_i >= floors[i-1], in
    lexicographic order, each with its sign stored; positions past the end
    of ``floors`` are unbounded.  ``m`` is an int >= 0 and ``floors`` a
    tuple of at most m ints (no bool or float); the answers are cached.

    Positions are filled in order of decreasing floor.  A value that clears
    one floor clears every later, lower one, so every partial filling
    completes and the cost follows the number of survivors, not m!.  The
    position filled t-th (from 0) has m + 1 - max(floor, 1) - t choices, so
    the number of survivors is known, and checked, before any is made.

    The value taken at a step is larger than exactly j of the values still
    free, j its rank among them, and each of those is placed later: read in
    filling order, sigma has sum(j) inversions.  So sign(sigma) is the sign
    of the filling order times (-1)^sum(j), carried along as the positions
    are filled.  The filling order is a stable sort by decreasing floor, so
    its inversions are the pairs of positions i < k with floor_i < floor_k.
    """
    floors = floors + (1,) * (m - len(floors))
    order = sorted(range(m), key=lambda i: -floors[i])
    survivors = prod(max(0, m + 1 - max(floors[i], 1) - t)
                     for t, i in enumerate(order))
    check_enumeration(f"surviving permutations of S_{m}", survivors)
    if not survivors:
        return ()
    if not m:
        return (_permutation((), 1),)
    images = [0] * m
    found = []
    last = m - 1

    def fill(t, free, sign):
        i = order[t]
        if t == last:
            # with survivors, the one value left clears the lowest floor
            images[i] = free[0]
            found.append((tuple(images), sign))
            return
        for j in range(bisect_left(free, floors[i]), len(free)):
            images[i] = free[j]
            fill(t + 1, free[:j] + free[j + 1:], -sign if j & 1 else sign)

    inversions = sum(f < g for i, f in enumerate(floors) for g in floors[i + 1:])
    fill(0, tuple(range(1, m + 1)), -1 if inversions & 1 else 1)
    found.sort()
    return tuple(_permutation(images, sign) for images, sign in found)


def shifted_entries(alpha) -> Iterator[tuple]:
    """The terms of a signed permutation sum over ``alpha``: the pairs
    (sigma, entries) with entries_i = alpha_i + sigma_i - i, in lexicographic
    order of sigma, for every sigma that leaves no entry negative.  The two
    tableau routes read their sums from here; the S -> H and s -> h
    expansions build their indices from ``permutations`` directly."""
    base = tuple(a - i for i, a in enumerate(alpha, 1))
    for sigma in permutations(len(alpha), permutation_floors(alpha)):
        yield sigma, tuple(map(add, base, sigma.images))
