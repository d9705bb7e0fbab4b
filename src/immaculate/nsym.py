"""Products and basis changes in the algebras on complete homogeneous generators.

The noncommutative algebra has basis ``H`` indexed by compositions with
H_alpha * H_beta = H_{alpha.beta} (concatenation); its commutative image has
basis ``h`` indexed by partitions.  The Schur-like basis ``S`` is defined by a
signed sum over permutations and inverted by triangular elimination: the
identity permutation contributes the index itself and every other permutation
contributes a strictly larger index in graded-lex order.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .compositions import (
    cached_behind,
    check_composition,
    check_enumeration,
    permutation_floors,
    permutations,
    sort_composition,
)
from .linear import (
    LinComb,
    _built,
    _merged,
    _require_basis,
    linear_sum,
    triangular_inverse,
)


def _term_products(f: LinComb, g: LinComb, basis: str, index) -> LinComb:
    """The product of two combinations in ``basis`` whose basis elements
    multiply to the element at ``index(a + b)``; the term products are
    counted against ENUMERATION_LIMIT before any is built."""
    _require_basis(f, basis)
    _require_basis(g, basis)
    check_enumeration(f"term products in {basis}", len(f.terms) * len(g.terms))
    return _merged(basis, ((index(a + b), ca * cb)
                           for a, ca in f.terms.items() for b, cb in g.terms.items()))


def h_multiply(f: LinComb, g: LinComb) -> LinComb:
    """Product in the H basis: bilinear extension of index concatenation."""
    return _term_products(f, g, "H", tuple)


def sym_multiply(f: LinComb, g: LinComb) -> LinComb:
    """Product in the commutative h basis: concatenate, then sort the index."""
    return _term_products(f, g, "h", sort_composition)


def forgetful_chi(f: LinComb) -> LinComb:
    """Project H onto h by sorting every index; terms merge after sorting."""
    _require_basis(f, "H")
    return _merged("h", zip(map(sort_composition, f.terms), f.terms.values()))


@lru_cache(maxsize=None)
def immaculate_to_H(alpha) -> LinComb:
    """Expand S_alpha in the H basis via the signed permutation sum.

    Each permutation sigma contributes sign(sigma) * H at the index of its
    shifted entries alpha_i + sigma_i - i with the zeros deleted (H_0 = 1);
    a negative entry kills the term (H_m = 0 for m < 0), so only the sigma
    above ``permutation_floors(alpha)`` are visited.
    """
    alpha = check_composition(alpha)
    base = tuple(a - i for i, a in enumerate(alpha, 1))
    out = {}
    for sigma in permutations(len(alpha), permutation_floors(alpha)):
        idx = tuple(filter(None, map(add, base, sigma.images)))
        out[idx] = out.get(idx, 0) + sigma.sign
    return _built("H", out)


def H_to_immaculate(f: LinComb) -> LinComb:
    """Invert the expansion of the S basis by triangular elimination."""
    _require_basis(f, "H")
    return triangular_inverse(f, immaculate_to_H, "S")


def immaculate_comb_to_H(f: LinComb) -> LinComb:
    """Linear extension of the S -> H expansion."""
    _require_basis(f, "S")
    return linear_sum("H", ((c, immaculate_to_H(a)) for a, c in f.terms.items()))


@cached_behind(lambda alpha, beta: (check_composition(alpha), check_composition(beta)))
def product_in_S_oracle(alpha, beta) -> LinComb:
    """Ground-truth product S_alpha * S_beta, expanded back into the S basis."""
    prod = h_multiply(immaculate_to_H(alpha), immaculate_to_H(beta))
    return H_to_immaculate(prod)


def structure_constant(alpha, beta, gamma) -> int:
    """Coefficient of S_gamma in S_alpha * S_beta."""
    alpha, beta, gamma = map(check_composition, (alpha, beta, gamma))
    if sum(gamma) != sum(alpha) + sum(beta):
        return 0
    return product_in_S_oracle(alpha, beta).coefficient(gamma)
