"""Right and left Pieri rules, translation reduction, and the closed-form
coefficient for a single-row left factor.

The left rule works through one membership condition Z on candidate
row-length vectors (one more than the filled first-row length, followed by a
possibly-zero tail), a walk on a running threshold stated in
``z_membership`` and read in two forms, ``_threshold`` and ``_steps``, and a
sign that counts negative entries of beta minus the tail.  The candidates
with no zero part that pass the test are built one row at a time from
per-row bounds, with their signs; the shapes one part shorter, where the
signs cancel, are scanned.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from . import compositions
from .compositions import (
    check_composition,
    check_enumeration,
    check_positive,
    compositions_of,
    right_pieri_successors,
)
from .errors import PreconditionError
from .linear import LinComb, _built


def right_pieri(alpha, s: int) -> LinComb:
    """S_alpha * H_s: multiplicity-free sum over the right cover relation;
    ``right_pieri_successors`` checks alpha and s."""
    return _built("S", dict.fromkeys(right_pieri_successors(alpha, s), 1))


def translation_reduce(alpha, beta, gamma, v):
    """Strip the prefix ``v`` from alpha and gamma; the structure constant of
    the reduced triple equals that of the original."""
    alpha = check_composition(alpha)
    beta = check_composition(beta)
    gamma = check_composition(gamma)
    v = check_composition(v)
    if len(v) > len(alpha):
        raise PreconditionError(f"len(v)={len(v)} exceeds len(alpha)={len(alpha)}")
    if len(v) > len(gamma):
        raise PreconditionError(f"len(v)={len(v)} exceeds len(gamma)={len(gamma)}")
    new_alpha = tuple(a - w for a, w in zip(alpha, v)) + alpha[len(v):]
    new_gamma = tuple(g - w for g, w in zip(gamma, v)) + gamma[len(v):]
    if any(p <= 0 for p in new_alpha) or any(p <= 0 for p in new_gamma):
        raise PreconditionError(f"shift {v!r} does not fit inside {alpha!r}/{gamma!r}")
    return new_alpha, beta, new_gamma


def sgn(d) -> int:
    """(-1) to the number of strictly negative entries."""
    return -1 if sum(1 for x in d if x < 0) % 2 else 1


def z_membership(delta, beta) -> bool:
    """Fixed-point condition Z for the candidate ``delta`` against ``beta``.

    ``delta`` is a tuple: the filled first-row length plus one, then the
    lengths d_1..d_n of the rows starting with 1..n (zeros allowed).  Z is a
    walk on a threshold t, starting at t = delta_1 - 1: row i takes t to
    u = t + d_i - beta_i, and passes when 0 <= u <= t if beta_i > t, and when
    u > t otherwise.  The one exception is a zero row: d_i = 0 passes when
    beta_i = t and d_j = beta_j for every j > i.
    """
    beta = check_composition(beta)
    n = len(beta)
    if len(delta) != n + 1:
        raise PreconditionError(f"delta has {len(delta)} entries, want {n + 1}")
    # type(d) is int: a bool is an int too, but no row length
    if not all(type(d) is int for d in delta):
        raise PreconditionError(f"delta entries must be integers: {delta!r}")
    if delta[0] < 1 or any(d < 0 for d in delta):
        raise PreconditionError(f"need delta_1 >= 1 and no negative entry: {delta!r}")
    delta = tuple(delta)
    if 0 in delta:
        k = delta.index(0)
        return delta[k + 1:] == beta[k:] and _threshold(delta[:k], beta) == beta[k - 1]
    return _threshold(delta, beta) is not None


def _threshold(delta, beta):
    """The threshold t of Z after the rows of ``delta`` (a prefix of a
    candidate, no zero row), or None when a row fails; ``_steps`` is the same
    rule as a range."""
    t = delta[0] - 1
    for b, d in zip(beta, delta[1:]):
        u = t + d - b
        if not ((0 <= u <= t) if b > t else u > t):
            return None
        t = u
    return t


def _steps(b: int, t: int, cap: int) -> range:
    """The thresholds below ``cap`` that Z lets a row of length beta_i = b
    take t to."""
    return range(min(t + 1, cap)) if b > t else range(t + 1, cap)


def left_pieri_unit_coefficient(beta, gamma) -> int:
    """Coefficient of S_gamma in S_(1) * S_beta, by the closed form."""
    beta = check_composition(beta)
    gamma = check_composition(gamma)
    n = len(beta)
    if sum(gamma) != 1 + sum(beta):
        return 0
    if len(gamma) == n + 1:
        if _threshold(gamma, beta) is not None:
            return sgn(tuple(beta[i] - gamma[i + 1] for i in range(n)))
        return 0
    if len(gamma) == n and n >= 1:
        # smallest k with beta_j = gamma_j for every j > k
        k = n
        while k > 1 and beta[k - 1] == gamma[k - 1]:
            k -= 1
        # Z for gamma with a zero row inserted after position k
        if _threshold(gamma[:k], beta) != beta[k - 1]:
            return 0
        # largest r with beta weakly chained upward from k
        r = k
        while r < n and beta[r - 1] < beta[r]:
            r += 1
        if (r - k) % 2:
            return 0
        return sgn(tuple(beta[i - 1] - gamma[i] for i in range(1, k)))
    return 0


def zero_insertion_sign_sum(beta, gamma) -> int:
    """Direct summation of signs over every passing candidate; the
    cancellation-bookkeeping cross-check for the closed form."""
    beta = check_composition(beta)
    gamma = check_composition(gamma)
    n = len(beta)
    if sum(gamma) != 1 + sum(beta):
        return 0
    if len(gamma) == n + 1:
        candidates = {gamma}
    elif len(gamma) == n and n >= 1:
        candidates = {gamma[:k] + (0,) + gamma[k:] for k in range(1, n + 1)}
    else:
        return 0
    return sum(
        sgn(tuple(b - d for b, d in zip(beta, delta[1:])))
        for delta in candidates
        if z_membership(delta, beta)
    )


def left_pieri_coefficient(s: int, beta, gamma) -> int:
    """Coefficient of S_gamma in H_s * S_beta for s >= 1: 0 when gamma_1 < s,
    else the closed-form value at gamma with its first part reduced by s - 1."""
    check_positive("s", s)
    beta = check_composition(beta)
    gamma = check_composition(gamma)
    if not gamma or gamma[0] < s:
        return 0
    return left_pieri_unit_coefficient(beta, (gamma[0] - s + 1,) + gamma[1:])


def _reach(beta) -> list:
    """reach[i] for i = 0..n: a walk of ``_z_members`` at threshold t before
    row i (after the last row when i = n) can still end at 0 exactly when
    t < reach[i].  At row i, t >= beta_i must step up and t < beta_i can step
    down to 0, so reach[n] = 1 and reach[i] = max(beta_i, reach[i+1] - 1)."""
    reach = [1]
    for b in reversed(beta):
        reach.append(max(b, reach[-1] - 1))
    return reach[::-1]


def _z_member_count(beta, reach) -> int:
    """How many candidates ``_z_members`` returns, by the same steps counted
    backwards: ways[t] is the number of walks that end from threshold t."""
    ways = [1]
    for i in range(len(beta) - 1, -1, -1):
        below = list(accumulate(ways, initial=0))    # below[k] = sum(ways[:k])
        ways = [below[r.stop] - below[r.start]
                for r in (_steps(beta[i], t, reach[i + 1]) for t in range(reach[i]))]
    return sum(ways)


def _z_members(beta, reach) -> list:
    """Exactly the (n+1)-part compositions delta of |beta| + 1 that pass Z,
    in lexicographic order, with signs: one level of (prefix, threshold t,
    sign) per row of beta; a step t to u that ``_steps`` allows adds the part
    d_i = beta_i + u - t, and flips the sign when u > t (beta_i - d_i < 0).
    Each threshold below ``reach`` ends a walk at 0: no level outgrows the result."""
    level = [((t + 1,), t, 1) for t in range(reach[0])]
    for b, cap in zip(beta, reach[1:]):
        level = [(delta + (b + u - t,), u, sign if b > t else -sign)
                 for delta, t, sign in level for u in _steps(b, t, cap)]
    return [(delta, sign) for delta, _, sign in level]


def left_pieri(s: int, beta) -> LinComb:
    """H_s * S_beta via translation to the single-cell left factor.

    The outer shapes gamma have len(beta) or len(beta)+1 parts and first
    part at least s.  Reducing gamma_1 by s - 1 maps them one to one onto
    the compositions gamma' of |beta| + 1 of those lengths, and the
    coefficient of S_gamma is the closed-form value at gamma'.  The
    (n+1)-part gamma' with a nonzero value are exactly the members that
    ``_z_members`` builds, with their values; the n-part ones are scanned.
    The candidates are counted before any is built: the members, by the
    walk's recurrence, plus the C(|beta|, n - 1) compositions scanned.
    """
    check_positive("s", s)
    beta = check_composition(beta)
    n = len(beta)
    size = sum(beta) + 1
    reach = _reach(beta)
    scanned = comb(size - 1, n - 1) if n else 0
    if sum(reach) > compositions.ENUMERATION_LIMIT:
        # the exact count takes sum(reach) steps; every start threshold
        # finishes a walk, so reach[0] bounds the members from below at once
        check_enumeration("or more left Pieri candidates", reach[0] + scanned)
    check_enumeration("left Pieri candidates",
                      _z_member_count(beta, reach) + scanned)
    out = {(d[0] + s - 1,) + d[1:]: sign for d, sign in _z_members(beta, reach)}
    for reduced in compositions_of(size, length=n):
        c = left_pieri_unit_coefficient(beta, reduced)
        if c:
            out[(reduced[0] + s - 1,) + reduced[1:]] = c
    return _built("S", out)
