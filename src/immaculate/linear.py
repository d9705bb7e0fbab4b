"""Sparse linear combinations over a labelled basis with exact integer coefficients.

Python integers are arbitrary precision, so exact arithmetic never overflows.
Indices are compositions (bases ``H`` and ``S``) or partitions (``h`` and ``s``);
terms iterate in graded lexicographic order so output is deterministic.
"""

from __future__ import annotations

from .compositions import (
    check_composition,
    check_enumeration,
    check_partition,
)
from .errors import PreconditionError

BASES = ("H", "S", "h", "s")
_PARTITION_BASES = ("h", "s")


class LinComb:
    """A finite integer linear combination of basis elements."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise PreconditionError(f"unknown basis {basis!r}")
        check = check_partition if basis in _PARTITION_BASES else check_composition
        summed = {}
        items = terms.items() if isinstance(terms, dict) else terms or ()
        for index, coeff in items:
            index = check(index)
            _check_coefficient(coeff)
            summed[index] = summed.get(index, 0) + coeff
        self.basis = basis
        self.terms = {idx: c for idx, c in summed.items() if c}

    @classmethod
    def monomial(cls, basis, index):
        return cls(basis, {tuple(index): 1})

    @classmethod
    def zero(cls, basis):
        return cls(basis)

    def coefficient(self, index) -> int:
        return self.terms.get(tuple(index), 0)

    def items(self):
        """Terms in graded-lex order of the index."""
        support = self.support()
        return list(zip(support, map(self.terms.__getitem__, support)))

    def support(self):
        """Indices in graded-lex order: lexicographic, then stably by degree."""
        return sorted(sorted(self.terms), key=sum)

    def _require_same_basis(self, other):
        if not isinstance(other, LinComb) or other.basis != self.basis:
            raise PreconditionError(
                f"basis mismatch: {self.basis!r} vs {getattr(other, 'basis', other)!r}"
            )

    def __add__(self, other):
        self._require_same_basis(other)
        return linear_sum(self.basis, ((1, self), (1, other)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, scalar: int):
        _check_coefficient(scalar)
        return _built(self.basis, {idx: scalar * c for idx, c in self.terms.items()})

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
        left out.  Each term is written as `` + S[1,2]`` or `` - 2*S[3]``
        with one head per distinct coefficient and one format string per
        index length; the leading sign is fixed after."""
        if not self.terms:
            return "0"
        support = self.support()
        coefficients = list(map(self.terms.__getitem__, support))
        heads = {c: f"{' + ' if c > 0 else ' - '}{'' if c in (1, -1) else f'{abs(c)}*'}"
                    f"{self.basis}" for c in set(coefficients)}
        text = "".join(_formatted("%s[", ",", "]", support,
                                  zip(map(heads.__getitem__, coefficients))))
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self):
        return f"LinComb({self.basis!r}, {dict(self.items())!r})"

    def to_json(self) -> str:
        """The JSON text ``{"basis": ..., "terms": [{"coefficient": c,
        "index": [...]}, ...]}``, terms in graded-lex order, written in one
        pass with one format string per index length; byte-identical to
        ``json.dumps`` of that object."""
        support = self.support()
        terms = ", ".join(_formatted('{"coefficient": %d, "index": [', ", ", "]}",
                                     support, zip(map(self.terms.__getitem__, support))))
        return '{"basis": "%s", "terms": [%s]}' % (self.basis, terms)

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            data["basis"],
            [(tuple(t["index"]), t["coefficient"]) for t in data["terms"]],
        )


def _check_coefficient(c):
    # type(c) is int: a bool is an int too, but no coefficient
    if type(c) is not int:
        raise PreconditionError(f"coefficient must be an int, got {c!r}")


def _built(basis: str, terms: dict) -> LinComb:
    """A combination whose indices the package built itself: no index
    checks, only zero coefficients are dropped.  ``terms`` must be a fresh
    dict the caller does not keep: without a zero it becomes the terms."""
    f = LinComb.__new__(LinComb)
    f.basis = basis
    f.terms = terms if 0 not in terms.values() else {
        idx: c for idx, c in terms.items() if c}
    return f


def _formatted(head: str, sep: str, end: str, indices, heads):
    """The terms as text: per index, ``head`` with its one placeholder
    filled from the matching 1-tuple of ``heads``, then the index's parts
    joined by ``sep``, then ``end``.  One format string per index length,
    and no Python call per term."""
    formats = {k: head + sep.join(["%d"] * k) + end for k in set(map(len, indices))}
    return map(str.__mod__, map(formats.__getitem__, map(len, indices)),
               map(tuple.__add__, heads, indices))


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
    return _built(basis, out)
