"""Classical commutative Schur theory used as the cross-checking frame:
the permutation-sum expansion into complete homogeneous functions, both
Littlewood-Richardson routes, the symmetric Pieri rule, and saturation checks.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .compositions import (
    check_partition,
    check_positive,
    horizontal_strip_successors,
    is_partition,
    permutation_floors,
    permutations,
    scale,
    sort_composition,
)
from .errors import PreconditionError
from .linear import LinComb, _built, triangular_inverse
from .nsym import _require, structure_constant, sym_multiply
from .tableaux import count_immaculate_LR, enumerate_skew_immaculate


@lru_cache(maxsize=None)
def schur_to_h(lam) -> LinComb:
    """Expand s_lam in the h basis by the signed sum over permutations.

    The index of a term is its shifted entries lam_i + sigma_i - i with
    h_0 = 1 and h_m = 0 for m < 0 (only the sigma above
    ``permutation_floors(lam)`` are visited), sorted into a partition; equal
    indices are merged.
    """
    lam = check_partition(lam)
    base = tuple(a - i for i, a in enumerate(lam, 1))
    out = {}
    for sigma in permutations(len(lam), permutation_floors(lam)):
        idx = sort_composition(filter(None, map(add, base, sigma.images)))
        out[idx] = out.get(idx, 0) + sigma.sign
    return _built("h", out)


def h_to_schur(f: LinComb) -> LinComb:
    """Invert the h expansion of the Schur basis by triangular elimination
    over partitions in graded-lex order."""
    _require(f, "h")
    return triangular_inverse(f, schur_to_h, "s")


@lru_cache(maxsize=None)
def schur_product_in_s(mu, nu) -> LinComb:
    """s_mu * s_nu expanded in the Schur basis, through the h basis."""
    mu = check_partition(mu)
    nu = check_partition(nu)
    return h_to_schur(sym_multiply(schur_to_h(mu), schur_to_h(nu)))


def lr_coefficient_algebra(mu, nu, lam) -> int:
    """Structure constant extracted from the algebraic product route."""
    mu, nu, lam = map(check_partition, (mu, nu, lam))
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    return schur_product_in_s(mu, nu).coefficient(lam)


def lr_coefficient_tableau(mu, nu, lam) -> int:
    """Count of skew semistandard Yamanouchi tableaux of shape lam/mu and
    content nu; an enumeration route independent of the algebra.  A
    semistandard tableau of shape lam/mu is immaculate, so the immaculate
    enumerator counts them, pruning as it goes, and its partial tableaux
    count against ENUMERATION_LIMIT."""
    mu, nu, lam = map(check_partition, (mu, nu, lam))
    return len(enumerate_skew_immaculate(
        mu, nu, shape=lam, yamanouchi=True, semistandard=True
    ))


def pieri_sym(mu, n: int) -> LinComb:
    """s_mu * h_n: sum over partitions adding a horizontal n-strip."""
    mu = check_partition(mu)
    return _built("s", {nu: 1 for nu in horizontal_strip_successors(mu, n)})


def _saturation_check(coefficient, a, b, c, N: int) -> bool:
    """True iff ``coefficient(a, b, c)`` is nonzero exactly when its value at
    the N-scaled triple is."""
    check_positive("N", N)
    if sum(c) != sum(a) + sum(b):
        raise PreconditionError(f"sizes incompatible: {sum(c)} != {sum(a)} + {sum(b)}")
    base = coefficient(tuple(a), tuple(b), tuple(c))
    scaled = coefficient(scale(a, N), scale(b, N), scale(c, N))
    return (base != 0) == (scaled != 0)


def saturation_check_sym(mu, nu, lam, N: int) -> bool:
    """True iff nonvanishing of the Schur structure constant is equivalent to
    nonvanishing at the N-scaled triple."""
    return _saturation_check(lr_coefficient_algebra, mu, nu, lam, N)


def _nsym_coefficient(alpha, beta, gamma) -> int:
    if is_partition(beta):
        return count_immaculate_LR(alpha, beta, gamma)
    return structure_constant(alpha, beta, gamma)


def saturation_check_nsym(alpha, beta, gamma, N: int) -> bool:
    """The analogous check for immaculate structure constants; false on the
    known counterexample."""
    return _saturation_check(_nsym_coefficient, alpha, beta, gamma, N)
