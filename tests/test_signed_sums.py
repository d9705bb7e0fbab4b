"""The four signed permutation sums against a naive reference.

The library enumerates only the permutations that keep every entry
nonnegative, through one shared generator.  The reference here walks all of
S_k with ``itertools.permutations``, takes the sign from the inversion count
and drops the terms with a negative entry, so the checks (``chi`` among them)
do not rest on that generator alone.
"""

import itertools

from immaculate.compositions import (
    compositions_of,
    partitions_of,
    right_pieri_successors,
    sort_composition,
)
from immaculate.linear import LinComb
from immaculate.nsym import immaculate_to_H
from immaculate.schur import schur_to_h
from immaculate.tableaux import (
    enumerate_T_alpha_beta,
    enumerate_skew_immaculate,
    signed_product,
)


def naive_signed_terms(alpha):
    """(sigma, sign, entries) over all of S_k, in lexicographic order, for the
    sigma with every entry alpha_i + sigma_i - i nonnegative."""
    k = len(alpha)
    for images in itertools.permutations(range(1, k + 1)):
        entries = tuple(alpha[i] + images[i] - (i + 1) for i in range(k))
        if min(entries, default=0) < 0:
            continue
        inv = sum(1 for i, j in itertools.combinations(range(k), 2)
                  if images[i] > images[j])
        yield images, (-1 if inv % 2 else 1), entries


def add(out, key, c):
    out[key] = out.get(key, 0) + c


def test_immaculate_to_H_matches_naive_sum():
    for n in range(8):
        for alpha in compositions_of(n):
            out = {}
            for _, sign, entries in naive_signed_terms(alpha):
                add(out, tuple(e for e in entries if e > 0), sign)
            assert immaculate_to_H(alpha) == LinComb("H", out), alpha


def test_schur_to_h_matches_naive_sum():
    for n in range(9):
        for lam in partitions_of(n):
            out = {}
            for _, sign, entries in naive_signed_terms(lam):
                add(out, sort_composition(e for e in entries if e > 0), sign)
            assert schur_to_h(lam) == LinComb("h", out), lam


def test_signed_product_matches_naive_sum():
    for n in range(7):
        for size in range(n + 1):
            for alpha in compositions_of(size):
                for beta in compositions_of(n - size):
                    out = {}
                    for _, sign, steps in naive_signed_terms(beta):
                        frontier = {alpha: 1}
                        for s in steps:
                            if s:
                                nxt = {}
                                for gamma, mult in frontier.items():
                                    for succ in right_pieri_successors(gamma, s):
                                        add(nxt, succ, mult)
                                frontier = nxt
                        for gamma, mult in frontier.items():
                            add(out, gamma, sign * mult)
                    assert signed_product(alpha, beta) == LinComb("S", out), (alpha, beta)


def test_enumerate_T_alpha_beta_matches_naive_order():
    for n in range(7):
        for size in range(n + 1):
            for alpha in compositions_of(size):
                for beta in compositions_of(n - size):
                    want = [
                        (t.rows, images, sign)
                        for images, sign, c in naive_signed_terms(beta)
                        for t in enumerate_skew_immaculate(alpha, c)
                    ]
                    got = [(t.rows, sigma.images, sigma.sign)
                           for t, sigma in enumerate_T_alpha_beta(alpha, beta)]
                    assert got == want, (alpha, beta)
