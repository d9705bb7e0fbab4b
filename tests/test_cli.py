import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from immaculate import cli
from immaculate.cli import main, parse_basis_index, parse_composition, parse_vector
from immaculate.compositions import compositions_of
from immaculate.errors import PreconditionError
from immaculate.linear import LinComb, linear_sum
from immaculate.nsym import H_to_immaculate, product_in_S_oracle
from immaculate.pieri import right_pieri
from immaculate.tableaux import SkewTableau, is_semistandard, is_yamanouchi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, timeout=None):
    """The CLI in a child process, which imports the package under test,
    installed or not."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "immaculate.cli", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=timeout,
    )


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, output) for each ``immaculate ARGS  # -> OUTPUT`` line of the
    README's CLI block; the ``# -> OUTPUT`` may stand on the line below."""
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples, argv = [], None
    for line in block.splitlines():
        command, arrow, output = line.partition("# -> ")
        if command.startswith("immaculate "):
            argv = shlex.split(command)[1:]
        if arrow:
            examples.append((argv, output.strip()))
    return examples


README_EXAMPLES = readme_examples()


def test_readme_examples_found():
    # the worked product, two structure constants and one conversion
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize("argv,output", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_print_what_the_readme_says(capsys, argv, output):
    assert run(capsys, *argv) == (0, output + "\n", "")


@pytest.mark.parametrize("text,expected", [
    ("2,4", (2, 4)),
    ("0", ()),
    ("", ()),
    ("[]", ()),
    (" 2,4 ", (2, 4)),
])
def test_parse_composition(text, expected):
    assert parse_composition(text) == expected


@pytest.mark.parametrize("text", [
    "1_0", "+1", "-1", "1, 2", "1 ,2", "1,,2", "\u00b2", "2\u00b2",
    "\u0661", "\uff11",
])
def test_parse_vector_takes_only_ascii_digits(capsys, text):
    # int() would read each of these; only the whole argument is trimmed
    with pytest.raises(PreconditionError, match="cannot parse"):
        parse_vector(text)
    code, out, err = run(capsys, "left-pieri", "--s", "1", f"--beta={text}")
    assert (code, out) == (2, "")
    assert "cannot parse" in err


def test_parse_basis_index():
    assert parse_basis_index("S:2,4") == ("S", (2, 4))
    assert parse_basis_index("H:0") == ("H", ())


def test_product_three_methods_agree(capsys):
    outs = []
    for method in ("oracle", "tableau", "closed-form"):
        code, out, _ = run(
            capsys, "product", "--left", "S:2", "--right", "S:2,4",
            "--method", method,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert outs[0].strip() == (
        "S[2,2,4] + S[3,1,4] + S[3,2,3] - S[4,3,1] - S[5,3]"
    )


def test_product_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "product", "--left", "S:1", "--right", "S:1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "S"
    assert {tuple(t["index"]): t["coefficient"] for t in data["terms"]} == {
        (1, 1): 1, (2,): 1
    }


# one source index per basis, every target basis
CONVERSIONS = {
    ("H:1,2", "H"): "H[1,2]",
    ("H:1,2", "S"): "S[1,2] + S[2,1] + S[3]",
    ("H:1,2", "h"): "h[2,1]",
    ("H:1,2", "s"): "s[2,1] + s[3]",
    ("S:1,3", "H"): "H[1,3] - H[2,2]",
    ("S:1,3", "S"): "S[1,3]",
    ("S:1,3", "h"): "-h[2,2] + h[3,1]",
    ("S:1,3", "s"): "-s[2,2]",
}


@pytest.mark.parametrize("source,target", CONVERSIONS, ids=lambda v: v[0])
def test_convert(capsys, source, target):
    code, out, _ = run(capsys, "convert", source, "--to", target)
    assert (code, out.strip()) == (0, CONVERSIONS[source, target])


def test_coeff_methods(capsys):
    args = ("coeff", "-a", "1,1", "-b", "3,2,2", "-g", "3,3,1,1,1")
    code, out, _ = run(capsys, *args)
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, *args, "--method", "tableau")
    assert (code, out.strip()) == (0, "0")
    for gamma, want in (("5,3", "-1"), ("1,3,4", "0"), ("2,2,2,2", "0")):
        code, out, _ = run(
            capsys, "coeff", "-a", "2", "-b", "2,4", "-g", gamma,
            "--method", "closed-form",
        )
        assert (code, out.strip()) == (0, want)


@pytest.mark.parametrize("method", cli.METHODS)
def test_coeff_empty_left_factor(capsys, method):
    # S_() = 1, so C^gamma_{(),beta} is 1 exactly when gamma = beta
    for gamma, want in (("2,1", "1"), ("1,2", "0")):
        code, out, _ = run(capsys, "coeff", "-a", "0", "-b", "2,1", "-g", gamma,
                           "--method", method)
        assert (code, out.strip()) == (0, want)


def test_pieri_subcommands(capsys):
    code, out, _ = run(capsys, "right-pieri", "--alpha", "2", "--s", "2")
    assert code == 0
    assert out.strip() == "S[2,2] + S[3,1] + S[4]"
    code, out, _ = run(capsys, "left-pieri", "--s", "2", "--beta", "2,4")
    assert code == 0
    assert out.strip() == "S[2,2,4] + S[3,1,4] + S[3,2,3] - S[4,3,1] - S[5,3]"


def test_tableaux_content_mode(capsys):
    code, out, _ = run(
        capsys, "tableaux", "--inner", "1", "--content", "3,2,3",
        "--shape", "2,3,2,2",
    )
    assert code == 0
    assert out.strip().endswith("# 4 tableaux")
    assert ". 1" in out  # inner cells render as dots


def test_tableaux_beta_mode_reports_sigma(capsys):
    code, out, _ = run(
        capsys, "tableaux", "--inner", "1", "--beta", "3,1,4",
        "--shape", "2,3,2,2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert all(entry["outer"] == [2, 3, 2, 2] for entry in data)
    # signed count over the family equals the structure constant
    assert sum(entry["sign"] for entry in data) == -1
    assert [entry["sigma"] for entry in data if entry["rows"] ==
            [[1], [1, 1, 3], [2, 2], [3, 3]]] == [[1, 3, 2]]


@pytest.mark.parametrize("mode", [
    ["--inner", "1", "--content", "2,2,1"],
    ["--inner", "1", "--beta", "2,1,2"],
], ids=["content", "beta"])
def test_tableaux_filters_match_predicates(capsys, mode):
    # each flag keeps exactly the unflagged tableaux its predicate accepts
    code, out, _ = run(capsys, "tableaux", *mode, "--format", "json")
    assert code == 0
    everything = json.loads(out)
    for flags, keep in [
        (["--yamanouchi"], [is_yamanouchi]),
        (["--semistandard"], [is_semistandard]),
        (["--yamanouchi", "--semistandard"], [is_yamanouchi, is_semistandard]),
    ]:
        code, out, _ = run(capsys, "tableaux", *mode, *flags, "--format", "json")
        assert code == 0
        want = [
            entry for entry in everything
            if all(p(SkewTableau(entry["inner"], entry["rows"])) for p in keep)
        ]
        assert 0 < len(want) < len(everything)
        assert json.loads(out) == want, flags


def test_tableaux_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "tableaux", "--inner", "1")
    assert code == 2
    code, _, err = run(
        capsys, "tableaux", "--inner", "1", "--content", "1", "--beta", "1"
    )
    assert code == 2


def test_tableaux_latex(capsys):
    code, out, _ = run(
        capsys, "tableaux", "--inner", "1", "--content", "1,1",
        "--shape", "1,1,1", "--format", "latex",
    )
    assert code == 0
    assert "\\begin{ytableau}" in out
    assert "\\none" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "product", "--left", "S:x", "--right", "S:1")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "coeff", "-a", "1,2", "-b", "1", "-g", "1",
                       "--method", "closed-form")
    assert code == 2
    assert "single-part left factor" in err
    # H_(2,1) is no single-part factor: the closed form would drop its tail
    code, out, err = run(capsys, "product", "--left", "H:2,1", "--right", "S:1",
                         "--method", "closed-form")
    assert (code, out) == (2, "")
    assert "single-part left factor" in err


def test_resource_limit_exit_3(capsys):
    # the signed sum over beta = (5^10) has 933,120 surviving permutations
    code, _, err = run(
        capsys, "product", "--left", "S:1", "--right", "S:" + ",".join(["5"] * 10),
        "--method", "tableau",
    )
    assert code == 3
    assert "resource limit" in err
    assert "933120 surviving permutations of S_10 (limit 500000)" in err


def test_tableau_enumeration_limit_exit_3(capsys, monkeypatch):
    monkeypatch.setattr("immaculate.compositions.ENUMERATION_LIMIT", 10)
    code, out, err = run(capsys, "tableaux", "--content", "1,1,1,1")
    assert (code, out) == (3, "")
    assert "partial tableaux (limit 10)" in err


@pytest.mark.parametrize("argv,counted,seconds", [
    (["convert", "S:" + ",".join(["5"] * 10), "--to", "H"],
     "933120 surviving permutations", 5),
    (["right-pieri", "--alpha", "1,1,1,1,1", "--s", "60"],
     "8259888 right Pieri terms", 5),
    (["left-pieri", "--s", "1", "--beta", "40,40,40,40"],
     "793330 left Pieri candidates", 5),
    (["product", "--left", "S:" + ",".join(["1"] * 15),
      "--right", "S:" + ",".join(["1"] * 15)],
     "268435456 term products in H", 5),
    # the first step expands S_(1^19) into 262,144 H terms (about 5 s)
    (["convert", "H:" + ",".join(["1"] * 19), "--to", "S"],
     "terms in elimination to S (limit 500000)", 60),
    # each right Pieri step is small; the walk over all permutations is not
    (["product", "--left", "S:1,1,1,1", "--right", "S:14,14", "--method", "tableau"],
     "500616 right Pieri terms in the signed product (limit 500000)", 5),
], ids=["convert", "right-pieri", "left-pieri", "oracle-product",
        "convert-to-S", "tableau-product"])
def test_oversized_enumerations_refused_at_once(argv, counted, seconds):
    # each ran for minutes or hours, or ran out of memory, before it was counted
    proc = run_child(*argv, timeout=seconds)
    assert proc.returncode == 3
    assert counted in proc.stderr


ONES = ",".join(["1"] * 1500)


@pytest.mark.parametrize("argv, counted", [
    # a row built whole: up to the content's total, or a row of the shape
    (["tableaux", "--content", "9999999999"], "cells in one row"),
    (["tableaux", "--content", "600000"], "cells in one row"),
    (["tableaux", "--inner", "2,1", "--beta", "9999999999"], "cells in one row"),
    (["coeff", "-a", "1", "-b", "9999999999", "-g", "10000000000",
      "--method", "tableau"], "cells in one row"),
    # two tableaux of 9,999,999,999 inner markers each
    (["tableaux", "--inner", "9999999999", "--content", "1"], "inner markers"),
    # 1,500 rows deep: past the partial-tableau limit, not out of stack
    (["tableaux", "--content", ONES], "partial tableaux"),
    (["tableaux", "--inner", ONES, "--content", "1"], "partial tableaux"),
], ids=["content-cells", "content-600000", "beta-cells", "coeff-cells",
        "inner-markers", "deep-content", "deep-inner"])
def test_oversized_tableaux_exit_3(capsys, argv, counted):
    # each ended in a MemoryError or RecursionError traceback and exit 1
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: refusing to enumerate ")
    assert counted in err
    assert "Traceback" not in err


def test_coeff_tableau_answers_a_shape_1500_rows_deep(capsys):
    # one partial tableau per row: this ran out of stack, and exited 3
    gamma = (2,) + (1,) * 1499
    code, out, _ = run(capsys, "coeff", "-a", ONES, "-b", "1",
                       "-g", ",".join(map(str, gamma)), "--method", "tableau")
    assert (code, out) == (0, "1\n")
    assert right_pieri((1,) * 1500, 1).coefficient(gamma) == 1


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # the shared parser carries nothing from one call to the next: not the
    # failed parse, not the other mode of the group, not an option's value
    for argv in (["tableaux", "--inner", "1"],
                 ["tableaux", "--content", "1,1"],
                 ["tableaux", "--beta", "2,1"],
                 ["verify", "--suite", "chi"]):
        code, out, _ = run(capsys, *argv)
        child = run_child(*argv)
        assert (code, out) == (child.returncode, child.stdout), argv
    assert (code, out) == (0, "suite chi: pass (max-size 7)\n")
    assert built == []


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "roundtrip", "--max-size", "4")
    assert code == 0
    assert "pass" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "roundtrip" in err


def test_verify_saturation_counterexample_witness(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "saturation-nsym")
    assert code == 0
    assert "witness" in out
    assert "(3, 2, 2)" in out


def test_verify_saturation_nsym_exact_output(capsys):
    # one fixed instance: --max-size is accepted and not echoed
    code, out, _ = run(capsys, "verify", "--suite", "saturation-nsym", "--max-size", "99")
    assert code == 0
    assert out.splitlines() == [
        "witness: C for alpha=(1, 1), beta=(3, 2, 2), gamma=(3, 3, 1, 1, 1) is 0 "
        "but is 1 after scaling all three by N=2",
        "suite saturation-nsym: pass (fixed instance)",
    ]


def test_verify_failure_prints_no_witness(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "saturation-nsym", lambda max_size: "forced")
    code, out, _ = run(capsys, "verify", "--suite", "saturation-nsym")
    assert (code, out) == (1, "suite saturation-nsym: FAIL: forced\n")


def test_verify_negative_max_size_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "roundtrip", "--max-size", "-3")
    assert code == 2
    assert "pass" not in out
    assert "--max-size" in err
    code, out, _ = run(capsys, "verify", "--suite", "roundtrip", "--max-size", "0")
    assert (code, out.strip()) == (0, "suite roundtrip: pass (max-size 0)")


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_empty_range_fails(capsys, suite):
    # at size 0 only these two sweeps have no instance to compare
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-size", "0")
    if suite in ("involution", "translation"):
        assert (code, out) == (1, f"suite {suite}: FAIL: no instances compared\n")
    else:
        assert (code, out) == (0, verify_output(suite, 0))
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-size", "1")
    assert (code, out) == (0, verify_output(suite, 1))


def verify_output(suite, max_size):
    if suite == "saturation-nsym":
        return (
            "witness: C for alpha=(1, 1), beta=(3, 2, 2), gamma=(3, 3, 1, 1, 1) is 0 "
            "but is 1 after scaling all three by N=2\n"
            "suite saturation-nsym: pass (fixed instance)\n"
        )
    return f"suite {suite}: pass (max-size {max_size})\n"


def test_verify_lr_classical_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lr-classical", "--max-size", "5")
    assert (code, out.strip()) == (0, "suite lr-classical: pass (max-size 5)")


def test_output_is_deterministic(capsys):
    first = run(capsys, "product", "--left", "H:2,1", "--right", "S:1,2")
    second = run(capsys, "product", "--left", "H:2,1", "--right", "S:1,2")
    assert first == second


# sha256 of stdout, so that a change to how output is written cannot
# change a byte of it unnoticed
PINNED_OUTPUT = [
    pytest.param("right-pieri --alpha 1,1,1,1,1 --s 20 --format json",
                 "f525c22e10da923887fb5160701966f133c27ed5695d08cfe128ecdbc56dcf1c",
                 id="right-pieri-1^5-20-json"),
    pytest.param("right-pieri --alpha 1,1,1,1,1 --s 20 --format text",
                 "5740eab2951f38b5300b4fcd83b0766470e2340fe847ee52e14dffbdb2280e80",
                 id="right-pieri-1^5-20-text"),
    pytest.param("right-pieri --alpha 3,1,2 --s 7 --format json",
                 "7c9b857e0d654ddf20566335e910745249c290608ab05b1c80bdfec25cbd793f",
                 id="right-pieri-312-7-json"),
    pytest.param("left-pieri --s 2 --beta 3,1,4 --format json",
                 "517132f949a97442f732e4277cfcda39f8204a86e019b991f705d59c79de4f5e",
                 id="left-pieri-2-314-json"),
    pytest.param("product --left S:2 --right S:2,4 --method closed-form --format json",
                 "672def8027ea4c156081b92d50f88907a342e7a8e100cc8f056f3120899e0638",
                 id="product-closed-form-json"),
    pytest.param("tableaux --inner 1 --beta 2,1 --format text",
                 "e561af00d5da90dca4aad82daf0b067169fa32eae9921a540e8ccd30450b52e2",
                 id="tableaux-beta-text"),
    pytest.param("tableaux --inner 1 --beta 2,1 --format latex",
                 "e9ee7b8bb9dad8e52558b93a82bdf82ccf0d9327265d1937c8ed71510235168a",
                 id="tableaux-beta-latex"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUT)
def test_output_bytes_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


ROUTE_LEFTS = ("S:2", "H:2", "S:2,1", "H:2,1", "S:0")
ROUTE_RIGHTS = ("S:1,2", "H:1,2", "S:0")
# exit codes of `product`, one group of three right factors per left factor:
# the tableau route refuses H on either side, the closed form a left factor
# of two parts and H on the right
ROUTE_EXIT_CODES = {
    "oracle": "000 000 000 000 000",
    "tableau": "020 222 020 222 020",
    "closed-form": "020 020 222 222 020",
}
# sha256 of stdout, the same for every method that answers
ROUTE_OUTPUT = {
    "S:2 S:1,2": "e2f020800243cd7eb3c6e2270b790ff9b3bb05087d94d7d2acbb44a488966613",
    "S:2 H:1,2": "b465b6ecb5cc9c252d6d283c4d183a1d53bb344f59482c02f3c6465c24d6a873",
    "S:2 S:0": "d1ad2cd15a4307c68a6e6c1b57812224c7b1131a84662858db3c727529cb08b0",
    "H:2 S:1,2": "e2f020800243cd7eb3c6e2270b790ff9b3bb05087d94d7d2acbb44a488966613",
    "H:2 H:1,2": "b465b6ecb5cc9c252d6d283c4d183a1d53bb344f59482c02f3c6465c24d6a873",
    "H:2 S:0": "d1ad2cd15a4307c68a6e6c1b57812224c7b1131a84662858db3c727529cb08b0",
    "S:2,1 S:1,2": "1be9a161fd83e01af45848c7e6ac5ae5f48513a3894d47c3eb62080fa9484879",
    "S:2,1 H:1,2": "7a7f45f62b3747950347d4ca811ea6fe92650fc6e140c16388fc0fafaff44210",
    "S:2,1 S:0": "546afee1ebe9d550120b220bb249a784be6fe2e3e8985f6828cf935620aa3d58",
    "H:2,1 S:1,2": "e3685ae6e5172256f06d70a2e7e19b6affc55d947eccfea222b62f63a2e74e5c",
    "H:2,1 H:1,2": "e4c7802f103220e510e30e74d809144a55cc160401f87025cd64d1631c693814",
    "H:2,1 S:0": "5db13b0c5f74759a89e0e953640a910ea620b0897af597e1fe62a275dbe8f767",
    "S:0 S:1,2": "aa32cc7f4b0c17a0110b49056ee725c2a9cc80acd0c41f17754ba94144d00119",
    "S:0 H:1,2": "f18366623335e1517c18eff83486a1f182046048ee13a13de1150168c4eb77c7",
    "S:0 S:0": "d3c2df50c18ed7984a7cde44b3d2b6f15639530330856f3ea9a3cc68db26e8b7",
}


@pytest.mark.parametrize("method", cli.METHODS)
def test_product_route_matrix(capsys, method):
    groups = ROUTE_EXIT_CODES[method].split()
    for left, group in zip(ROUTE_LEFTS, groups, strict=True):
        for right, want in zip(ROUTE_RIGHTS, map(int, group), strict=True):
            code, out, err = run(capsys, "product", "--left", left, "--right", right,
                                 "--method", method)
            assert code == want, (left, right, err)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (out == "") if code else (digest == ROUTE_OUTPUT[f"{left} {right}"])


def test_installed_entry_point():
    proc = run_child("coeff", "-a", "2", "-b", "2,4", "-g", "3,1,4")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def _in_S(basis, index):
    f = LinComb.monomial(basis, index)
    return f if basis == "S" else H_to_immaculate(f)


def test_oracle_product_with_an_h_factor_matches_the_pair_loop(capsys):
    # reference: each factor expanded in S, one oracle product per pair of terms
    compared = 0
    for n in range(6):
        for a in range(n + 1):
            for left in compositions_of(a):
                for right in compositions_of(n - a):
                    for lbasis, rbasis in (("H", "S"), ("S", "H"), ("H", "H")):
                        fl, fr = _in_S(lbasis, left), _in_S(rbasis, right)
                        want = linear_sum("S", (
                            (ca * cb, product_in_S_oracle(x, y))
                            for x, ca in fl.items() for y, cb in fr.items()))
                        code, out, err = run(
                            capsys, "product",
                            "--left", f"{lbasis}:{','.join(map(str, left)) or 0}",
                            "--right", f"{rbasis}:{','.join(map(str, right)) or 0}")
                        assert (code, out, err) == (0, f"{want}\n", ""), (left, right)
                        compared += 1
    assert compared == 3 * 112


def test_oracle_product_with_an_h_factor_multiplies_in_H(capsys, monkeypatch):
    calls = []
    oracle = cli.product_in_S_oracle
    monkeypatch.setattr(cli, "product_in_S_oracle",
                        lambda a, b: calls.append((a, b)) or oracle(a, b))
    for left, right in (("H:2,1", "S:1,2"), ("S:2,1", "H:1,2"), ("H:1,1,1", "H:1,2")):
        assert run(capsys, "product", "--left", left, "--right", right)[0] == 0
    assert calls == []
    # two S factors still take the oracle
    assert run(capsys, "product", "--left", "S:2,1", "--right", "S:1,2")[0] == 0
    assert calls == [((2, 1), (1, 2))]


def test_oracle_product_of_h_factors_is_one_bounded_elimination(capsys, monkeypatch):
    # H_(1^7) * H_(1^7) = H_(1^14); expanding each factor in S first made
    # 64 * 64 oracle products, each under the limit, and ran for minutes
    monkeypatch.setattr("immaculate.compositions.ENUMERATION_LIMIT", 20_000)
    ones = "H:" + ",".join(["1"] * 7)
    code, out, err = run(capsys, "product", "--left", ones, "--right", ones)
    assert (code, out) == (3, "")
    assert "terms in elimination to S (limit 20000)" in err
