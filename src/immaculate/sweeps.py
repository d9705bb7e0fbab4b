"""Exhaustive small-case verification sweeps.

Each sweep compares two independent computation routes over a bounded range
and returns ``None`` on success or a short witness string describing the
first disagreement.  A sweep is written as a generator of cases and made
into that function by ``_sweep``, which holds the one comparison loop.  The
CLI ``verify`` subcommand and the acceptance tests both drive these.
"""

from __future__ import annotations

import functools

from .compositions import (
    add_prefix,
    compositions_of,
    partitions_of,
    scale,
)
from .involution import phi_on_image, y_map
from .linear import LinComb
from .nsym import (
    H_to_immaculate,
    forgetful_chi,
    immaculate_comb_to_H,
    immaculate_to_H,
    product_in_S_oracle,
)
from .pieri import (
    left_pieri,
    left_pieri_unit_coefficient,
    right_pieri,
    zero_insertion_sign_sum,
)
from .schur import (
    lr_coefficient_algebra,
    lr_coefficient_tableau,
    saturation_check_sym,
    schur_to_h,
)
from .tableaux import (
    count_immaculate_LR,
    enumerate_T_alpha_beta,
    immaculate_LR_product,
)

DEFAULT_MAX_DEGREE = 7

# Witness of a sweep whose range held nothing to compare.
NOTHING_COMPARED = "no instances compared"


def _sweep(cases):
    """``sweep(max_size)`` from a generator of cases ``(got, want, witness,
    args)``: ``None`` when got == want in every case, else the first failing
    case's ``witness.format(*args, got=got, want=want)``, or
    ``NOTHING_COMPARED`` when there is no case.  No case after a failing one
    is drawn, so a case may rely on the ones before it holding."""

    @functools.wraps(cases)
    def sweep(max_size):
        compared = 0
        for got, want, witness, args in cases(max_size):
            if got != want:
                return witness.format(*args, got=got, want=want)
            compared += 1
        return None if compared else NOTHING_COMPARED

    return sweep


def _all_compositions_up_to(n):
    for size in range(n + 1):
        yield from compositions_of(size)


def _pairs(max_total, right_factors):
    """(alpha, beta) with |alpha| + |beta| <= max_total, alpha a composition
    and beta from ``right_factors(|beta|)``; ordered by |alpha|, then |beta|."""
    for a in range(max_total + 1):
        for b in range(max_total - a + 1):
            for alpha in compositions_of(a):
                for beta in right_factors(b):
                    yield alpha, beta


def _partition_triples(max_size):
    """(mu, nu, lam) with |mu| + |nu| = |lam| <= max_size."""
    for n in range(max_size + 1):
        for a in range(n + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(n - a):
                    for lam in partitions_of(n):
                        yield mu, nu, lam


@_sweep
def sweep_roundtrip(max_size):
    """H -> S -> H on monomials and S -> H -> S on basis elements, over every
    composition of size <= max_size."""
    for alpha in _all_compositions_up_to(max_size):
        f = LinComb.monomial("H", alpha)
        yield (immaculate_comb_to_H(H_to_immaculate(f)), f,
               "H->S->H failed at alpha={}", (alpha,))
        yield (H_to_immaculate(immaculate_to_H(alpha)), LinComb.monomial("S", alpha),
               "S->H->S failed at alpha={}", (alpha,))


@_sweep
def sweep_right_pieri(max_size):
    """Right Pieri rule against the oracle for |alpha| <= max_size and
    s <= 4; H_s = S_(s)."""
    for alpha in _all_compositions_up_to(max_size):
        for s in range(1, 5):
            yield (right_pieri(alpha, s), product_in_S_oracle(alpha, (s,)),
                   "right Pieri failed at alpha={}, s={}", (alpha, s))


@_sweep
def sweep_left_pieri(max_size):
    """Closed-form left Pieri rule against the oracle, plus multiplicity
    freeness and the zero-insertion cancellation bookkeeping, for
    |beta| <= max_size, len(beta) <= 4 and s <= 3."""
    for beta in _all_compositions_up_to(max_size):
        if len(beta) > 4:
            continue
        for s in range(1, 4):
            closed = left_pieri(s, beta)
            oracle = product_in_S_oracle((s,), beta)
            yield closed, oracle, "left Pieri failed at s={}, beta={}", (s, beta)
            yield (all(c in (-1, 1) for c in closed.terms.values()), True,
                   "coefficient outside {{-1,0,1}} at s={}, beta={}", (s, beta))
            if s == 1 and beta:
                for gamma in oracle.support():
                    yield (left_pieri_unit_coefficient(beta, gamma),
                           zero_insertion_sign_sum(beta, gamma),
                           "cancellation bookkeeping failed at beta={}, gamma={}",
                           (beta, gamma))


@_sweep
def sweep_translation(max_size):
    """Structure constants are invariant under admissible prefix shifts v,
    for |alpha| + |beta| <= max_size and |v| <= 2."""
    for alpha, beta in _pairs(max_size, compositions_of):
        if not alpha:
            continue
        base = product_in_S_oracle(alpha, beta)
        for v in _all_compositions_up_to(2):
            if not v or len(v) > len(alpha):
                continue
            shifted = product_in_S_oracle(add_prefix(alpha, v), beta)
            for gamma in base.support():
                yield len(gamma) >= len(v), True, "short gamma={} for v={}", (gamma, v)
            yield (shifted.terms, {add_prefix(g, v): c for g, c in base.terms.items()},
                   "translation failed at alpha={}, beta={}, v={}", (alpha, beta, v))


@_sweep
def sweep_lr_partition(max_size):
    """Every oracle coefficient with a partition right factor equals the
    immaculate Yamanouchi tableau count (hence is nonnegative), for
    |alpha| + |lam| <= max_size.  The counts come from one shape-free
    enumeration per pair (``immaculate_LR_product``); only the gamma in
    either expansion's support are compared, by length and then
    lexicographically (the order of ``compositions_of``), since every other
    gamma is zero in both."""
    for alpha, lam in _pairs(max_size, partitions_of):
        expansion = product_in_S_oracle(alpha, lam)
        counts = immaculate_LR_product(alpha, lam)
        for gamma in sorted(expansion.terms.keys() | counts.terms.keys(),
                            key=lambda g: (len(g), g)):
            yield (expansion.coefficient(gamma), counts.coefficient(gamma),
                   "LR count mismatch at alpha={}, lam={}, gamma={}: "
                   "oracle {got} vs count {want}", (alpha, lam, gamma))


@_sweep
def sweep_involution(max_size):
    """Each phi_r maps the family to itself, is an involution, and moves a
    tableau only to one of the same shape and opposite sign, over the whole
    family for every |alpha| + |beta| <= max_size.

    One table per family: each member is straightened once by ``y_map``,
    which gives its sign, and ``phi_on_image`` runs once per member and row
    r = 1..len(beta); the image has len(beta) rows, so a larger r fixes
    every member.  That phi_r finds its cell as the paper defines it is
    checked by the tests, not here: this sweep would only recompute the
    kernel's own candidate."""
    for alpha, beta in _pairs(max_size, compositions_of):
        family = [t for t, _ in enumerate_T_alpha_beta(alpha, beta)]
        sign, phi = {}, {}  # keyed by t.rows: a family shares its inner shape
        for t in family:
            y_rows, sigma = y_map(t, beta)
            sign[t.rows] = sigma.sign
            phi[t.rows] = [phi_on_image(t, y_rows, sigma, r)
                           for r in range(1, len(beta) + 1)]
        for t in family:
            for r, image in enumerate(phi[t.rows], 1):
                at = (r, alpha, beta, t.rows)
                yield (image.rows in sign, True,
                       "phi_{} left the family at alpha={}, beta={}, T={}", at)
                yield (phi[image.rows][r - 1], t,
                       "phi_{} not an involution at alpha={}, beta={}, T={}", at)
                if image == t:  # a fixed point is its own partner
                    continue
                yield (image.shape_composition(), t.shape_composition(),
                       "phi_{} changed the shape at alpha={}, beta={}, T={}", at)
                yield (sign[image.rows], -sign[t.rows],
                       "phi_{} kept the sign at alpha={}, beta={}, T={}", at)


@_sweep
def sweep_saturation_sym(max_size):
    """Saturation holds for Schur structure constants, scaled by N = 2, for
    |lam| <= max_size."""
    for mu, nu, lam in _partition_triples(max_size):
        yield (saturation_check_sym(mu, nu, lam, 2), True,
               "symmetric saturation failed at mu={}, nu={}, lam={}, N=2", (mu, nu, lam))


COUNTEREXAMPLE = ((1, 1), (3, 2, 2), (3, 3, 1, 1, 1), 2)


@_sweep
def sweep_saturation_nsym(max_size):
    """Confirm the documented failure of saturation for immaculate constants:
    the counterexample's coefficient is 0, and 1 once scaled.  One fixed
    instance, so ``max_size`` does not apply."""
    alpha, beta, gamma, N = COUNTEREXAMPLE
    base = count_immaculate_LR(alpha, beta, gamma)
    scaled = count_immaculate_LR(scale(alpha, N), scale(beta, N), scale(gamma, N))
    yield ((base, scaled), (0, 1),
           "expected coefficients {want} at the counterexample, got {got}", ())


@_sweep
def sweep_chi(max_size):
    """The forgetful projection sends the Schur-like basis at a partition
    index of size <= max_size to the Schur function."""
    for n in range(max_size + 1):
        for lam in partitions_of(n):
            yield (forgetful_chi(immaculate_to_H(lam)), schur_to_h(lam),
                   "chi mismatch at lam={}", (lam,))


@_sweep
def sweep_lr_classical(max_size):
    """Tableau-count and algebraic Littlewood-Richardson routes agree for
    |lam| <= max_size."""
    for mu, nu, lam in _partition_triples(max_size):
        yield (lr_coefficient_algebra(mu, nu, lam), lr_coefficient_tableau(mu, nu, lam),
               "classical LR mismatch at mu={}, nu={}, lam={}: "
               "algebra {got} vs tableau {want}", (mu, nu, lam))


# sweeps are looked up at call time, so a rebinding of their names reaches them
SUITES = {
    "roundtrip": lambda max_size: sweep_roundtrip(max_size),
    "right-pieri": lambda max_size: sweep_right_pieri(max_size),
    "left-pieri": lambda max_size: sweep_left_pieri(max_size),
    "translation": lambda max_size: sweep_translation(max_size),
    "lr-partition": lambda max_size: sweep_lr_partition(max_size),
    "involution": lambda max_size: sweep_involution(max_size),
    "saturation-sym": lambda max_size: sweep_saturation_sym(max_size),
    "saturation-nsym": lambda max_size: sweep_saturation_nsym(max_size),
    "chi": lambda max_size: sweep_chi(max_size),
    "lr-classical": lambda max_size: sweep_lr_classical(max_size),
}
