"""Command-line front end: compute, convert, count, enumerate, and verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .compositions import check_enumeration, is_partition
from .errors import PreconditionError, ResourceLimitError
from .linear import LinComb, linear_sum
from .nsym import (
    H_to_immaculate,
    forgetful_chi,
    h_multiply,
    immaculate_comb_to_H,
    immaculate_to_H,
    product_in_S_oracle,
    structure_constant,
)
from .pieri import left_pieri, left_pieri_coefficient, right_pieri
from .schur import h_to_schur
from .sweeps import COUNTEREXAMPLE, DEFAULT_MAX_DEGREE, SUITES
from .tableaux import (
    SkewTableau,
    count_immaculate_LR,
    enumerate_T_alpha_beta,
    enumerate_skew_immaculate,
    signed_product,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# product routes: H-basis oracle, signed right Pieri sum, closed-form left Pieri
METHODS = ("oracle", "tableau", "closed-form")


def parse_vector(text: str) -> tuple:
    """Comma-separated nonnegative integers (content vectors allow zeros).

    Only the whole argument is trimmed; each entry is plain ASCII digits, so
    no sign, underscore, inner space or other Unicode digit is read."""
    text = text.strip()
    if text in ("", "[]"):
        return ()
    parts = text.split(",")
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise PreconditionError(
            f"cannot parse {text!r} as comma-separated nonnegative integers"
        )
    return tuple(map(int, parts))


def parse_composition(text: str) -> tuple:
    """A vector without zeros; '0', '' or '[]' denote the empty composition."""
    if text.strip() == "0":
        return ()
    parts = parse_vector(text)
    if 0 in parts:
        raise PreconditionError(f"not a composition: {text!r}")
    return parts


def parse_basis_index(text: str) -> tuple:
    """'S:2,4' or 'H:3' -> (basis, composition)."""
    if ":" not in text:
        raise PreconditionError(f"expected BASIS:parts, got {text!r}")
    basis, _, rest = text.partition(":")
    if basis not in ("H", "S"):
        raise PreconditionError(f"basis must be H or S, got {basis!r}")
    return basis, parse_composition(rest)


def emit_combination(f: LinComb, fmt: str):
    print(f.to_json() if fmt == "json" else str(f))


def _single_part(alpha) -> int:
    """The part of a single-part left factor, which the closed form needs."""
    if len(alpha) != 1:
        raise PreconditionError(
            "the closed form needs a single-part left factor (H_s or S_(s))"
        )
    return alpha[0]


def cmd_product(args) -> int:
    lbasis, left = parse_basis_index(args.left)
    rbasis, right = parse_basis_index(args.right)
    if args.method == "oracle" and "H" in (lbasis, rbasis):
        # one product in H and one elimination, not one per pair of S terms
        fl, fr = (LinComb.monomial("H", i) if b == "H" else immaculate_to_H(i)
                  for b, i in ((lbasis, left), (rbasis, right)))
        emit_combination(H_to_immaculate(h_multiply(fl, fr)), args.format)
        return EXIT_OK
    route = product_in_S_oracle
    if args.method == "tableau":
        if lbasis != "S" or rbasis != "S":
            raise PreconditionError("the tableau method needs S factors on both sides")
        route = signed_product
    elif args.method == "closed-form":
        if left:
            _single_part(left)
        if rbasis != "S":
            raise PreconditionError("the closed form needs an S right factor")

        def route(a, b):
            return left_pieri(a[0], b) if a else LinComb.monomial("S", b)
    # both factors are S now, or the left one is H_s = S_(s) for the closed form
    fl, fr = LinComb.monomial("S", left), LinComb.monomial("S", right)
    result = linear_sum("S", ((ca * cb, route(a, b))
                              for a, ca in fl.items() for b, cb in fr.items()))
    emit_combination(result, args.format)
    return EXIT_OK


def cmd_convert(args) -> int:
    # the source basis is H or S; h and s are reached through H
    basis, index = parse_basis_index(args.source)
    target = args.to
    f = LinComb.monomial(basis, index)
    if target != basis:
        if target == "S":
            f = H_to_immaculate(f)
        elif basis == "S":
            f = immaculate_comb_to_H(f)
        if target in ("h", "s"):
            f = forgetful_chi(f)
        if target == "s":
            f = h_to_schur(f)
    emit_combination(f, args.format)
    return EXIT_OK


def cmd_coeff(args) -> int:
    alpha = parse_composition(args.alpha)
    beta = parse_composition(args.beta)
    gamma = parse_composition(args.gamma)
    if args.method == "tableau":
        if not is_partition(beta):
            raise PreconditionError("the tableau method needs a partition beta")
        value = count_immaculate_LR(alpha, beta, gamma)
    elif args.method == "closed-form":
        # C^gamma_{(),beta} = [gamma = beta], as S_() = 1
        value = (left_pieri_coefficient(_single_part(alpha), beta, gamma) if alpha
                 else int(gamma == beta))
    else:
        value = structure_constant(alpha, beta, gamma)
    print(value)
    return EXIT_OK


def cmd_right_pieri(args) -> int:
    alpha = parse_composition(args.alpha)
    emit_combination(right_pieri(alpha, args.s), args.format)
    return EXIT_OK


def cmd_left_pieri(args) -> int:
    beta = parse_composition(args.beta)
    emit_combination(left_pieri(args.s, beta), args.format)
    return EXIT_OK


def render_tableau(t: SkewTableau, fmt: str) -> str:
    """Rows with a marker per inner cell, as plain text or a LaTeX ytableau."""
    blank, sep = ("\\none", " & ") if fmt == "latex" else (".", " ")
    rows = [sep.join([blank] * t.inner_at(r) + [str(e) for e in row])
            for r, row in enumerate(t.rows, 1)]
    if fmt == "latex":
        return "\\begin{ytableau}\n" + " \\\\\n".join(rows) + "\n\\end{ytableau}"
    return "\n".join(rows)


def tableau_json_dict(t: SkewTableau, sigma=None):
    data = {"inner": list(t.inner), "rows": [list(r) for r in t.rows],
            "outer": list(t.shape_composition())}
    if sigma is not None:
        data["sigma"] = list(sigma.images)
        data["sign"] = sigma.sign
    return data


def cmd_tableaux(args) -> int:
    inner = parse_composition(args.inner)
    shape = parse_composition(args.shape) if args.shape else None
    keep = {"yamanouchi": args.yamanouchi, "semistandard": args.semistandard}
    if args.beta is not None:
        beta = parse_composition(args.beta)
        selected = enumerate_T_alpha_beta(inner, beta, shape=shape, **keep)
    else:
        content_vec = parse_vector(args.content)
        found = enumerate_skew_immaculate(inner, content_vec, shape=shape, **keep)
        selected = [(t, None) for t in found]

    if args.format == "json":
        print(json.dumps([tableau_json_dict(t, s) for t, s in selected]))
        return EXIT_OK
    check_enumeration("inner markers to draw", len(selected) * sum(inner))
    for i, (t, sigma) in enumerate(selected):
        if i:
            print()
        print(render_tableau(t, args.format))
        if sigma is not None:
            print(f"sigma = {tuple(sigma.images)}  sign = {sigma.sign:+d}")
    print(f"# {len(selected)} tableau{'x' if len(selected) != 1 else ''}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_size < 0:
        raise PreconditionError(f"--max-size must be >= 0, got {args.max_size}")
    witness = SUITES[args.suite](args.max_size)
    if witness is not None:
        print(f"suite {args.suite}: FAIL: {witness}")
        return EXIT_VERIFY_FAIL
    if args.suite == "saturation-nsym":
        # one fixed instance: --max-size does not apply
        a, b, g, n = COUNTEREXAMPLE
        print(
            f"witness: C for alpha={a}, beta={b}, gamma={g} is 0 "
            f"but is 1 after scaling all three by N={n}"
        )
        print(f"suite {args.suite}: pass (fixed instance)")
    else:
        print(f"suite {args.suite}: pass (max-size {args.max_size})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immaculate",
        description="Exact computations in the Schur-like basis of "
        "noncommutative symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("product", help="expand a product of basis elements")
    p.add_argument("--left", required=True, metavar="BASIS:PARTS")
    p.add_argument("--right", required=True, metavar="BASIS:PARTS")
    p.add_argument("--method", choices=METHODS, default="oracle")
    add_format(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("convert", help="change the basis of a monomial")
    p.add_argument("source", metavar="BASIS:PARTS")
    p.add_argument("--to", required=True, choices=("H", "S", "h", "s"))
    add_format(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("coeff", help="a single structure constant")
    p.add_argument("-a", "--alpha", required=True)
    p.add_argument("-b", "--beta", required=True)
    p.add_argument("-g", "--gamma", required=True)
    p.add_argument("--method", choices=METHODS, default="oracle")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("right-pieri", help="expand S_alpha * H_s")
    p.add_argument("--alpha", required=True)
    p.add_argument("--s", required=True, type=int)
    add_format(p)
    p.set_defaults(func=cmd_right_pieri)

    p = sub.add_parser("left-pieri", help="expand H_s * S_beta")
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--beta", required=True)
    add_format(p)
    p.set_defaults(func=cmd_left_pieri)

    p = sub.add_parser("tableaux", help="enumerate skew immaculate tableaux")
    p.add_argument("--inner", default="")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--content", help="exact content vector (zeros allowed)")
    mode.add_argument("--beta", help="enumerate the signed family for this beta "
                      "and report sigma")
    p.add_argument("--shape", help="keep only this outer shape")
    p.add_argument("--yamanouchi", action="store_true")
    p.add_argument("--semistandard", action="store_true")
    add_format(p, choices=("text", "json", "latex"))
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_DEGREE)
    p.set_defaults(func=cmd_verify)

    return parser


# built once, at import: parse_args keeps no state between calls
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        # running out of stack or memory is a resource limit too, not a crash
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
