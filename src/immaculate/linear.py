"""Sparse linear combinations over a labelled basis with exact integer coefficients.

Python integers are arbitrary precision, so exact arithmetic never overflows.
Indices are compositions (bases ``H`` and ``S``) or partitions (``h`` and ``s``);
terms iterate in graded lexicographic order so output is deterministic.  A
combination whose producer built its terms in that order already is marked
so, and is listed and written without a sort.
"""

from __future__ import annotations

from itertools import repeat

from .compositions import (
    check_composition,
    check_enumeration,
    check_partition,
)
from .errors import PreconditionError

BASES = ("H", "S", "h", "s")
_PARTITION_BASES = ("h", "s")
# the most terms one written piece of a combination holds, so that a large
# answer is written without its whole text in memory at once
CHUNK_TERMS = 4096


class _DecimalText(dict):
    """The decimal text of an index part: read from the table for the parts
    it holds, ``str(part)`` for any other."""

    __slots__ = ()

    def __missing__(self, part):
        return str(part)


# the parts below 1024, written once; the table never grows
_PART_TEXT = _DecimalText(zip(range(1024), map(str, range(1024))))


class LinComb:
    """A finite integer linear combination of basis elements."""

    # _ordered: the terms dict is in graded-lex order already (see _built)
    __slots__ = ("basis", "terms", "_ordered")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise PreconditionError(f"unknown basis {basis!r}")
        check = check_partition if basis in _PARTITION_BASES else check_composition
        summed = {}
        items = terms.items() if isinstance(terms, dict) else terms or ()
        try:
            for index, coeff in items:
                index = check(index)
                _check_coefficient(coeff)
                summed[index] = summed.get(index, 0) + coeff
        except PreconditionError:
            raise
        except (TypeError, ValueError) as e:  # not (index, coefficient) pairs
            raise PreconditionError(f"terms must be (index, coefficient) pairs: {e}") from e
        self.basis = basis
        self.terms = {idx: c for idx, c in summed.items() if c}
        self._ordered = False

    @classmethod
    def monomial(cls, basis, index):
        return cls(basis, [(index, 1)])

    @classmethod
    def zero(cls, basis):
        return cls(basis)

    def coefficient(self, index) -> int:
        return self.terms.get(tuple(index), 0)

    def items(self):
        """Terms in graded-lex order of the index."""
        return list(zip(*self._columns()))

    def support(self):
        """Indices in graded-lex order: lexicographic, then stably by degree.
        A combination its producer built in that order (see ``_built``) is
        listed as its terms stand, with no sort."""
        if self._ordered:
            return list(self.terms)
        support = sorted(self.terms)
        support.sort(key=sum)  # in place: one list, not two
        return support

    def _columns(self):
        """``support()`` and the coefficients in the same order, as two
        lists; a combination built in order reads both off its dict."""
        support = self.support()
        return support, list(self.terms.values() if self._ordered
                             else map(self.terms.__getitem__, support))

    def __add__(self, other):
        _require_basis(other, self.basis)
        return linear_sum(self.basis, ((1, self), (1, other)))

    def __sub__(self, other):
        _require_basis(other, self.basis)
        return linear_sum(self.basis, ((1, self), (-1, other)))

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, scalar: int):
        _check_coefficient(scalar)
        return _built(self.basis, {idx: scalar * c for idx, c in self.terms.items()},
                      self._ordered)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return self.scaled(scalar)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __str__(self):
        """``S[1,2] - 2*S[3]``: terms in graded-lex order, unit coefficients
        left out; the pieces of ``text_chunks`` joined."""
        return "".join(self.text_chunks())

    def text_chunks(self):
        """``str(self)`` in pieces of at most ``CHUNK_TERMS`` terms.  Each
        term is written as `` + S[1,2]`` or `` - 2*S[3]``, with one head per
        distinct coefficient; the leading sign is fixed on the first piece."""
        if not self.terms:
            yield "0"
            return
        basis = self.basis

        def head(c):
            return (f"{' + ' if c > 0 else ' - '}"
                    f"{'' if c in (1, -1) else f'{abs(c)}*'}{basis}[")

        pieces = _formatted(head, ",", "]", "", *self._columns())
        first = next(pieces)
        yield first[3:] if first[1] == "+" else "-" + first[3:]
        yield from pieces

    def __repr__(self):
        return f"LinComb({self.basis!r}, {dict(self.items())!r})"

    def to_json(self) -> str:
        """The JSON text ``{"basis": ..., "terms": [{"coefficient": c,
        "index": [...]}, ...]}``, terms in graded-lex order; the pieces of
        ``json_chunks`` joined, byte-identical to ``json.dumps`` of that
        object."""
        return "".join(self.json_chunks())

    def json_chunks(self):
        """``to_json()`` in pieces of at most ``CHUNK_TERMS`` terms: the
        opening, the terms, the closing."""
        yield '{"basis": "%s", "terms": [' % self.basis
        yield from _formatted('{"coefficient": %d, "index": ['.__mod__, ", ", "]}", ", ",
                              *self._columns())
        yield "]}"

    @classmethod
    def from_json_dict(cls, data):
        try:
            basis = data["basis"]
            terms = [(t["index"], t["coefficient"]) for t in data["terms"]]
        except (KeyError, TypeError) as e:
            raise PreconditionError(f"malformed LinComb JSON: {e!r}") from e
        return cls(basis, terms)


def _check_coefficient(c):
    # type(c) is int: a bool is an int too, but no coefficient
    if type(c) is not int:
        raise PreconditionError(f"coefficient must be an int, got {c!r}")


def _require_basis(f, basis: str):
    """Refuse ``f`` unless it is a LinComb in ``basis``."""
    if not isinstance(f, LinComb) or f.basis != basis:
        got = f"basis {f.basis!r}" if isinstance(f, LinComb) else type(f).__name__
        raise PreconditionError(f"expected a LinComb in basis {basis!r}, got {got}")


def _built(basis: str, terms: dict, ordered: bool = False) -> LinComb:
    """A combination whose indices the package built itself: no index
    checks, only zero coefficients are dropped.  ``terms`` must be a fresh
    dict the caller does not keep: without a zero it becomes the terms.

    ``ordered`` says that the producer inserted the terms in strictly
    increasing graded-lex order, so that ``support()`` and the writers read
    them as they stand.  Dropping zeros keeps the order.  Two producers
    pass it: ``pieri.right_pieri``, whose successors come out in
    lexicographic order, all of one degree, and ``triangular_inverse``,
    which writes its pivots in increasing order; ``scaled`` passes it on.
    Every other combination is sorted when it is listed."""
    f = LinComb.__new__(LinComb)
    f.basis = basis
    f.terms = terms if 0 not in terms.values() else {
        idx: c for idx, c in terms.items() if c}
    f._ordered = ordered
    return f


def _merged(basis: str, pairs) -> LinComb:
    """The sum of the ``(index, coefficient)`` pairs, equal indices merged;
    the package built every index, so none is checked."""
    out = {}
    for idx, c in pairs:
        out[idx] = out.get(idx, 0) + c
    return _built(basis, out)


def _formatted(head, sep: str, end: str, joiner: str, indices, values):
    """The terms as text, in pieces of at most ``CHUNK_TERMS`` terms: per
    index, ``head`` of the matching entry of ``values``, then the index's
    parts joined by ``sep``, then ``end``.  The terms of a piece are joined
    by ``joiner``, which also leads every piece but the first.

    ``head`` is called once per distinct value, and its text is folded into
    the separator in front of the term (``end + joiner + head``).  A part's
    text is read from ``_PART_TEXT``.  Each piece is one ``"".join`` of
    separators and bodies, with no Python call per term for parts the
    table holds."""
    distinct = set(values)
    folds = dict(zip(distinct, map((end + joiner).__add__, map(head, distinct))))
    skip = len(end + joiner)  # the first term of all has no term before it
    for start in range(0, len(indices), CHUNK_TERMS):
        stop = start + CHUNK_TERMS
        seps = list(map(folds.__getitem__, values[start:stop]))
        seps[0] = seps[0][skip:]
        skip = len(end)
        out = [end] * (2 * len(seps) + 1)
        out[0:-1:2] = seps
        out[1::2] = map(sep.join, map(map, repeat(_PART_TEXT.__getitem__),
                                      indices[start:stop]))
        yield "".join(out)


def linear_sum(basis: str, pairs) -> LinComb:
    """The sum of ``c * f`` over the ``(c, f)`` pairs, accumulated in one
    dict; every ``f`` is in ``basis``."""
    out = {}
    for c, f in pairs:
        for idx, cc in f.terms.items():
            out[idx] = out.get(idx, 0) + c * cc
    return _built(basis, out)


def triangular_inverse(f: LinComb, expand, basis: str) -> LinComb:
    """Rewrite ``f`` in the target ``basis`` by triangular elimination.

    ``expand(index)`` is the target basis element at ``index`` written in
    ``f``'s basis: coefficient 1 at ``index`` itself and every other index
    strictly larger in graded-lex order, all of the degree of ``index``
    (homogeneous).  Repeatedly extract the graded-lex-smallest surviving
    term; its coefficient is the coefficient of that target basis element.

    By homogeneity an expansion never leaves its degree, so the terms of
    each degree are eliminated on their own, lowest degree first, and
    within one degree graded-lex order is plain tuple order.

    Each step scans the surviving terms of its degree and applies one
    expansion; the terms visited so far are counted against
    ENUMERATION_LIMIT.  On homogeneous ``f`` that is every surviving term.

    The result comes out in graded-lex order, and is marked so: each
    expansion adds only indices above its pivot, in the pivot's own degree,
    and cancels the pivot itself, so every pivot is larger than the one
    before it in its degree, and the degrees go lowest first.
    """
    by_degree = {}
    for idx, c in f.terms.items():
        by_degree.setdefault(sum(idx), {})[idx] = c
    out = {}
    what, visited = f"terms in elimination to {basis}", 0
    for degree in sorted(by_degree):
        remaining = by_degree[degree]
        while remaining:
            visited += len(remaining)
            check_enumeration(what, visited)
            index = min(remaining)
            c = out[index] = remaining[index]
            terms = expand(index).terms
            visited += len(terms)
            for idx, cc in terms.items():
                val = remaining.get(idx, 0) - c * cc
                if val:
                    remaining[idx] = val
                else:
                    remaining.pop(idx, None)
    return _built(basis, out, ordered=True)
