"""The benchmark workloads: seeded query streams and answer checks.

Each workload is a fixed list of query templates.  The seed fills in the
parts of every composition; the template list (command, method, sizes and
lengths) does not depend on the seed, so every seed does a similar amount of
work and the query mix and size histogram are the same for every seed.

A query is the argv handed to ``immaculate.cli.main``.  Its ``check``
re-derives the answer by a second route the library already has and raises
``WrongAnswer`` on a disagreement; it runs outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from immaculate.compositions import is_right_pieri_successor
from immaculate.linear import LinComb
from immaculate.nsym import (
    H_to_immaculate,
    forgetful_chi,
    immaculate_comb_to_H,
    immaculate_to_H,
    product_in_S_oracle,
)
from immaculate.pieri import left_pieri_unit_coefficient, zero_insertion_sign_sum
from immaculate.schur import schur_to_h
from immaculate.tableaux import signed_product

EXIT_OK = 0


class WrongAnswer(Exception):
    """An answer disagrees with the second route."""


@dataclass
class Query:
    argv: list
    kind: str
    degree: int
    # check(query, exit code, output text) raises WrongAnswer when wrong
    check: object = field(repr=False)
    params: tuple = None
    # also compare against the oracle (small instances only)
    oracle: bool = False


def fmt(parts) -> str:
    return ",".join(map(str, parts)) or "0"


def random_composition(rng: random.Random, size: int, length: int) -> tuple:
    """Uniform over the compositions of ``size`` with ``length`` parts."""
    cuts = sorted(rng.sample(range(1, size), length - 1))
    bounds = [0] + cuts + [size]
    return tuple(bounds[i + 1] - bounds[i] for i in range(length))


def parse_json_combination(text: str) -> LinComb:
    return LinComb.from_json_dict(json.loads(text))


def expect(cond: bool, message: str):
    if not cond:
        raise WrongAnswer(message)


def expect_ok(rc: int, argv):
    expect(rc == EXIT_OK, f"exit {rc} from {' '.join(argv)}")


# ---------------------------------------------------------------- checks

def check_literal(expected_rc: int, expected_out: str | None):
    def check(q, rc, out):
        expect(rc == expected_rc, f"exit {rc} (want {expected_rc}) from "
                                  f"{' '.join(q.argv)}")
        if expected_out is not None:
            expect(out.strip() == expected_out,
                   f"{' '.join(q.argv)} printed {out.strip()!r}")
    return check


def reduced_unit(s: int, gamma: tuple) -> tuple:
    return (gamma[0] - (s - 1),) + gamma[1:]


def zero_insertion_expansion(s: int, beta: tuple) -> LinComb:
    """H_s * S_beta by the zero-insertion sign sum at every candidate outer
    shape (len(beta) or len(beta)+1 parts, first part at least s),
    enumerated here by cut points rather than by the library's generators."""
    total, n = s + sum(beta), len(beta)
    out = {}
    for length in (n, n + 1):
        for cuts in itertools.combinations(range(1, total), length - 1):
            gamma = tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
            if gamma[0] >= s:
                c = zero_insertion_sign_sum(beta, reduced_unit(s, gamma))
                if c:
                    out[gamma] = c
    return LinComb("S", out)


def check_left_pieri(q, rc, out):
    """The closed-form expansion is multiplicity free (coefficients +-1) and
    equals the zero-insertion expansion, term for term and with no term
    missing; small instances also match the oracle."""
    expect_ok(rc, q.argv)
    s, beta = q.params
    got = parse_json_combination(out)
    expect(all(c in (-1, 1) for c in got.terms.values()),
           f"H_{s}*S{beta}: coefficient outside +-1")
    expect(got == zero_insertion_expansion(s, beta),
           f"H_{s}*S{beta} disagrees with the zero-insertion expansion")
    if q.oracle:
        expect(got == product_in_S_oracle((s,), beta),
               f"H_{s}*S{beta} disagrees with the oracle")


def check_right_pieri(q, rc, out):
    """The output is the whole right cover set, multiplicity free: its size
    is the binomial count and every term passes the cover predicate."""
    expect_ok(rc, q.argv)
    alpha, s = q.params
    data = json.loads(out)
    seen = set()
    for term in data["terms"]:
        beta = tuple(term["index"])
        expect(term["coefficient"] == 1
               and is_right_pieri_successor(alpha, s, beta),
               f"S{alpha}*H_{s}: bad term {term}")
        seen.add(beta)
    n = len(alpha)
    expect(len(seen) == len(data["terms"]) == math.comb(s + n, n),
           f"S{alpha}*H_{s}: {len(seen)} terms, want {math.comb(s + n, n)}")
    if q.oracle:
        expect(parse_json_combination(out) == product_in_S_oracle(alpha, (s,)),
               f"S{alpha}*H_{s} disagrees with the oracle")


def check_closed_coeff(q, rc, out):
    """One closed-form coefficient against the zero-insertion sign sum."""
    expect_ok(rc, q.argv)
    s, beta, gamma = q.params
    want = zero_insertion_sign_sum(beta, reduced_unit(s, gamma))
    if q.oracle:
        want_oracle = product_in_S_oracle((s,), beta).coefficient(gamma)
        expect(want == want_oracle, f"coeff {q.params}: routes disagree")
    expect(int(out) == want, f"coeff {q.params}: got {out.strip()}, want {want}")
    # the unit closed form itself, on the same reduced index
    expect(left_pieri_unit_coefficient(beta, reduced_unit(s, gamma)) == want,
           f"coeff {q.params}: unit closed form disagrees")


def check_product(q, rc, out):
    """S_alpha * S_beta against the other route: the oracle's answer against
    the signed iterated right-Pieri sum, and the reverse."""
    expect_ok(rc, q.argv)
    alpha, beta, method = q.params
    got = parse_json_combination(out)
    want = product_in_S_oracle(alpha, beta) if method == "tableau" \
        else signed_product(alpha, beta)
    expect(got == want, f"S{alpha}*S{beta} by {method} disagrees with the other route")


def check_coeff(q, rc, out):
    """One structure constant against the other route's whole product."""
    expect_ok(rc, q.argv)
    alpha, beta, gamma, method = q.params
    other = product_in_S_oracle if method == "tableau" else signed_product
    want = other(alpha, beta).coefficient(gamma)
    expect(int(out) == want, f"coeff {q.params}: got {out.strip()}, want {want}")


def check_convert(q, rc, out):
    """A change of basis, undone by the inverse map (H->S->H, S->H->S), or
    for S->s mapped back to h through schur_to_h."""
    expect_ok(rc, q.argv)
    source, target, index = q.params
    got = parse_json_combination(out)
    if (source, target) == ("S", "H"):
        back, want = H_to_immaculate(got), LinComb.monomial("S", index)
    elif (source, target) == ("H", "S"):
        back, want = immaculate_comb_to_H(got), LinComb.monomial("H", index)
    else:
        back = LinComb("h")
        for lam, c in got.items():
            back = back + schur_to_h(lam).scaled(c)
        want = forgetful_chi(immaculate_to_H(index))
    expect(back == want, f"convert {source}:{index} to {target} does not round-trip")


def check_signed_family(q, rc, out):
    """The signed tableau family summed by outer shape is the product."""
    expect_ok(rc, q.argv)
    alpha, beta = q.params
    by_shape = Counter()
    for t in json.loads(out):
        expect(t["inner"] == list(alpha), f"tableau with inner {t['inner']}")
        by_shape[tuple(t["outer"])] += t["sign"]
    expect(LinComb("S", dict(by_shape)) == product_in_S_oracle(alpha, beta),
           f"signed family of {alpha}, {beta} does not sum to the product")


def check_suite(q, rc, out):
    expect_ok(rc, q.argv)
    suite = q.params[0]
    expect(f"suite {suite}: pass" in out and "FAIL" not in out,
           f"verify {suite} printed {out.strip()!r}")


# ---------------------------------------------------------------- streams

def make_query(argv, kind, degree, check, params, oracle=False) -> Query:
    return Query([str(a) for a in argv], kind, degree, check, params, oracle)


# the paper's worked product S_(2) * S_(2,4)
WORKED = "S[2,2,4] + S[3,1,4] + S[3,2,3] - S[4,3,1] - S[5,3]"

# pieri-large templates.  Left-Pieri cost follows the number of candidate
# compositions of |beta|+s with len(beta) or len(beta)+1 parts, and
# right-Pieri cost follows its binomial output size, so both are fixed by
# the template and not by the seed.  Every query stays well under a second:
# a run takes the median of each query's runs, and a query that lasts
# seconds has too few runs, each too long, for that to be steady.
LEFT_TEMPLATES = (
    # (s, |beta|, len(beta))
    (1, 12, 3), (2, 16, 3), (3, 22, 3), (1, 29, 3),
    (1, 12, 4), (2, 13, 4), (1, 15, 4), (3, 13, 4),
    (1, 12, 5), (2, 12, 5),
)
RIGHT_TEMPLATES = (
    # (len(alpha), s, |alpha|); output has C(s + len, len) terms
    (3, 12, 12), (3, 30, 20), (4, 10, 14), (4, 16, 20), (5, 8, 18), (5, 12, 30),
)
SMALL_TEMPLATES = (
    # small instances, also checked against the oracle: (s, size, length) of
    # H_s * S_beta (size |beta|) and of S_alpha * H_s (size |alpha|)
    (1, 4, 2), (2, 4, 3), (1, 5, 3), (3, 3, 2), (2, 5, 2),
)
PIERI_REPEATS = 4


def left_query(rng, s, size, n, kind, oracle=False) -> Query:
    beta = random_composition(rng, size, n)
    d = s + size
    if kind == "left-pieri":
        argv = ["left-pieri", "--s", s, "--beta", fmt(beta), "--format", "json"]
    elif kind == "product/closed-form":
        argv = ["product", "--left", f"S:{s}", "--right", "S:" + fmt(beta),
                "--method", "closed-form", "--format", "json"]
    else:
        length = n + rng.randint(0, 1)
        gamma = random_composition(rng, d - (s - 1), length)
        gamma = (gamma[0] + s - 1,) + gamma[1:]
        return make_query(
            ["coeff", "-a", s, "-b", fmt(beta), "-g", fmt(gamma),
             "--method", "closed-form"],
            "coeff/closed-form", d, check_closed_coeff, (s, beta, gamma), oracle)
    return make_query(argv, kind, d, check_left_pieri, (s, beta), oracle)


def right_query(rng, n, s, size, oracle=False) -> Query:
    alpha = random_composition(rng, size, n)
    return make_query(
        ["right-pieri", "--alpha", fmt(alpha), "--s", s, "--format", "json"],
        "right-pieri", size + s, check_right_pieri, (alpha, s), oracle)


def pieri_large(seed: int) -> list:
    rng = random.Random(seed)
    left_kinds = ("left-pieri", "product/closed-form", "coeff/closed-form")
    queries = [
        make_query(["product", "--left", "S:2", "--right", "S:2,4",
                    "--method", "closed-form"],
                   "paper/product", 8, check_literal(EXIT_OK, WORKED), None),
        # the largest output, once: C(25, 5) = 53,130 terms
        make_query(["right-pieri", "--alpha", "1,1,1,1,1", "--s", "20",
                    "--format", "json"],
                   "right-pieri", 25, check_right_pieri, ((1,) * 5, 20)),
    ]
    for _ in range(PIERI_REPEATS):
        for kind in left_kinds:
            queries += [left_query(rng, s, size, n, kind)
                        for s, size, n in LEFT_TEMPLATES]
            queries += [left_query(rng, s, size, n, kind, oracle=True)
                        for s, size, n in SMALL_TEMPLATES]
        queries += [right_query(rng, *t) for t in RIGHT_TEMPLATES]
        queries += [right_query(rng, n, s, size, oracle=True)
                    for s, size, n in SMALL_TEMPLATES]
    rng.shuffle(queries)
    return queries


# cli-cold templates at total degree 6-10.  Products and coefficients:
# (|alpha|, len(alpha), |beta|, len(beta)); coefficients by the tableau
# route take a partition beta.  Conversions: (|index|, len(index)).
PRODUCT_TEMPLATES = (
    (2, 1, 4, 2), (3, 2, 4, 2), (3, 2, 5, 3), (4, 2, 5, 3), (4, 3, 5, 3), (4, 3, 6, 3),
    (5, 2, 5, 2),
)
CONVERT_TEMPLATES = ((6, 3), (7, 4), (8, 3), (8, 5), (9, 4), (10, 5))
CONVERSIONS = (("S", "H"), ("H", "S"), ("S", "s"))
SIGNED_FAMILY_TEMPLATES = ((2, 2, 4, 2), (3, 2, 4, 3), (2, 1, 5, 3), (3, 2, 5, 3))
CLI_REPEATS = 10
# the saturation counterexample at N = 1 and N = 2: (alpha, beta, gamma, C)
SATURATION = (
    ((1, 1), (3, 2, 2), (3, 3, 1, 1, 1), 0),
    ((2, 2), (6, 4, 4), (6, 6, 2, 2, 2), 1),
)


def random_outer(rng, alpha: tuple, size: int, length: int) -> tuple:
    """An outer shape gamma over alpha with |gamma| = |alpha| + size: up to
    ``length`` new rows of at least one cell, the rest of the cells spread
    over all rows."""
    extra = rng.randint(0, min(length, size))
    gamma = list(alpha) + [1] * extra
    for _ in range(size - extra):
        gamma[rng.randrange(len(gamma))] += 1
    return tuple(gamma)


def product_query(rng, a, la, b, lb, method) -> Query:
    alpha, beta = random_composition(rng, a, la), random_composition(rng, b, lb)
    return make_query(
        ["product", "--left", "S:" + fmt(alpha), "--right", "S:" + fmt(beta),
         "--method", method, "--format", "json"],
        f"product/{method}", a + b, check_product, (alpha, beta, method))


def coeff_query(rng, a, la, b, lb, method) -> Query:
    alpha, beta = random_composition(rng, a, la), random_composition(rng, b, lb)
    if method == "tableau":
        beta = tuple(sorted(beta, reverse=True))
    gamma = random_outer(rng, alpha, b, lb)
    return make_query(
        ["coeff", "-a", fmt(alpha), "-b", fmt(beta), "-g", fmt(gamma),
         "--method", method],
        f"coeff/{method}", a + b, check_coeff, (alpha, beta, gamma, method))


def convert_query(rng, size, length, source, target) -> Query:
    index = random_composition(rng, size, length)
    return make_query(
        ["convert", f"{source}:{fmt(index)}", "--to", target, "--format", "json"],
        f"convert/{source}-{target}", size, check_convert, (source, target, index))


def signed_family_query(rng, a, la, b, lb) -> Query:
    alpha, beta = random_composition(rng, a, la), random_composition(rng, b, lb)
    return make_query(
        ["tableaux", "--inner", fmt(alpha), "--beta", fmt(beta), "--format", "json"],
        "tableaux/beta", a + b, check_signed_family, (alpha, beta))


def cli_cold(seed: int) -> list:
    rng = random.Random(seed)
    queries = [
        make_query(["product", "--left", "S:2", "--right", "S:2,4", "--method", m],
                   "paper/product", 8, check_literal(EXIT_OK, WORKED), None)
        for m in ("oracle", "tableau", "closed-form")
    ]
    for alpha, beta, gamma, c in SATURATION:
        queries += [
            make_query(["coeff", "-a", fmt(alpha), "-b", fmt(beta), "-g", fmt(gamma),
                        "--method", m],
                       "paper/saturation", sum(gamma), check_literal(EXIT_OK, str(c)),
                       None)
            for m in ("oracle", "tableau")
        ]
    for _ in range(CLI_REPEATS):
        for method in ("oracle", "tableau"):
            queries += [product_query(rng, *t, method) for t in PRODUCT_TEMPLATES]
            queries += [coeff_query(rng, *t, method) for t in PRODUCT_TEMPLATES]
        for source, target in CONVERSIONS:
            queries += [convert_query(rng, *t, source, target) for t in CONVERT_TEMPLATES]
        queries += [signed_family_query(rng, *t) for t in SIGNED_FAMILY_TEMPLATES]
    rng.shuffle(queries)
    return queries


# verify-warm: every suite once, in this order, caches kept across suites.
# An exhaustive sweep has no free choice of instance, so the seed does not
# change this stream; sizes are the acceptance-gate sizes or smaller.
VERIFY_SUITES = (
    ("right-pieri", 6), ("left-pieri", 7), ("translation", 5),
    ("lr-partition", 6), ("chi", 8), ("saturation-sym", 5),
    ("saturation-nsym", 0), ("roundtrip", 7), ("involution", 5),
)


def verify_warm(seed: int) -> list:
    return [
        make_query(["verify", "--suite", suite, "--max-size", size],
                   "verify/" + suite, size, check_suite, (suite,))
        for suite, size in VERIFY_SUITES
    ]


WORKLOADS = {
    # name: (stream builder, empty the caches before every query)
    "cli-cold": (cli_cold, True),
    "pieri-large": (pieri_large, True),
    "verify-warm": (verify_warm, False),
}


def describe(queries: list) -> dict:
    """Query mix and size histogram, recorded with the results."""
    return {
        "queries": len(queries),
        "mix": dict(sorted(Counter(q.kind for q in queries).items())),
        "degree_histogram": {
            str(d): n for d, n in sorted(Counter(q.degree for q in queries).items())
        },
    }
