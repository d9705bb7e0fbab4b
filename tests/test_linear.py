import json

import pytest
from hypothesis import given, strategies as st

from immaculate.compositions import compositions_of, partitions_of
from immaculate.errors import PreconditionError
from immaculate.linear import BASES, LinComb, _built


def test_zero_terms_dropped():
    f = LinComb("H", {(2,): 1, (1, 1): 0})
    assert f.terms == {(2,): 1}
    assert (f - f) == LinComb.zero("H")
    assert not (f - f)


def test_partition_bases_reject_compositions():
    with pytest.raises(PreconditionError):
        LinComb("h", {(1, 2): 1})
    LinComb("h", {(2, 1): 1})


@pytest.mark.parametrize("build", [
    lambda: LinComb("H", {(0, 1): 1}),
    lambda: LinComb("S", [((2, "1"), 1)]),
    lambda: LinComb.monomial("S", (1, -1)),
    lambda: LinComb.zero("X"),
    lambda: LinComb.from_json_dict(
        {"basis": "H", "terms": [{"coefficient": 1, "index": [0]}]}),
    lambda: LinComb.from_json_dict(
        {"basis": "S", "terms": [{"coefficient": 1, "index": [True, 2]}]}),
    lambda: LinComb("S", {(1,): 0.5}),
    lambda: LinComb("S", {(1,): 1.0}),
    lambda: LinComb("S", {(1,): True}),
    lambda: LinComb("S", {(1,): "1"}),
    lambda: LinComb.from_json_dict(
        {"basis": "S", "terms": [{"coefficient": 0.5, "index": [1]}]}),
    lambda: LinComb.monomial("S", (1,)).scaled(0.5),
    lambda: LinComb.monomial("S", (1,)).scaled(True),
    lambda: True * LinComb.monomial("S", (1,)),
])
def test_public_constructors_reject_bad_input(build):
    with pytest.raises(PreconditionError):
        build()


def test_basis_mismatch():
    with pytest.raises(PreconditionError):
        LinComb.monomial("H", (1,)) + LinComb.monomial("S", (1,))


def test_items_graded_lex_order():
    f = LinComb("S", {(3,): 1, (1, 2): 2, (2,): -1, (1, 1, 1): 5})
    assert [idx for idx, _ in f.items()] == [(2,), (1, 1, 1), (1, 2), (3,)]


def grlex_key(alpha):
    """Sort key for the graded, then lexicographic order."""
    return (sum(alpha), alpha)


@pytest.mark.parametrize("basis", BASES)
def test_items_and_support_sorted_by_grlex_key(basis):
    # every index of degree <= 6, inserted in reverse order, coefficients
    # all different, so that only the sort decides the order
    indices = [idx for n in range(7)
               for idx in (partitions_of(n) if basis in "hs" else compositions_of(n))]
    f = LinComb(basis, {idx: k + 1 for k, idx in enumerate(reversed(indices))})
    want = sorted(f.terms, key=grlex_key)
    assert f.support() == want
    assert f.items() == [(idx, f.terms[idx]) for idx in want]
    assert LinComb.zero(basis).items() == LinComb.zero(basis).support() == []


def test_str_rendering():
    f = LinComb("S", {(1, 2): 1, (2, 1): -1, (3,): 2})
    assert str(f) == "S[1,2] - S[2,1] + 2*S[3]"
    assert str(LinComb.zero("S")) == "0"
    assert str(LinComb.monomial("S", ())) == "S[]"
    assert str(LinComb("S", {(5, 3): -1})) == "-S[5,3]"


def test_json_round_trip():
    f = LinComb("S", {(1, 2): 3, (3,): -1})
    assert LinComb.from_json_dict(json.loads(f.to_json())) == f
    data = json.loads(f.to_json())
    assert data["basis"] == "S"
    assert data["terms"] == [
        {"coefficient": 3, "index": [1, 2]},
        {"coefficient": -1, "index": [3]},
    ]


def reference(f):
    """The object ``to_json`` writes, built term by term."""
    return {
        "basis": f.basis,
        "terms": [{"coefficient": c, "index": list(idx)} for idx, c in f.items()],
    }


coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-10**40, max_value=10**40),
)
lincombs = st.builds(
    LinComb,
    st.sampled_from(["H", "S"]),
    st.dictionaries(
        st.lists(st.integers(min_value=1, max_value=12), max_size=6).map(tuple),
        coefficients,
        max_size=12,
    ),
)


@given(lincombs)
def test_to_json_matches_json_dumps(f):
    assert f.to_json() == json.dumps(reference(f))
    assert LinComb.from_json_dict(json.loads(f.to_json())) == f


@pytest.mark.parametrize("f", [
    LinComb.zero("S"),
    LinComb.monomial("H", ()),
    LinComb("S", {(1,): -(10**60), (2, 1): 10**60, (3,): 1}),
    LinComb("h", {(3, 2, 1): 2, (1,): -1, (2,): 0}),
    LinComb("s", {(1,): 1, (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4): -7}),
])
def test_to_json_fixed_cases(f):
    assert f.to_json() == json.dumps(reference(f))
    assert LinComb.from_json_dict(json.loads(f.to_json())) == f


def text_reference(f):
    """The text ``str`` writes, built term by term."""
    if not f.terms:
        return "0"
    terms = [("-" if c < 0 else "+",
              f"{'' if abs(c) == 1 else f'{abs(c)}*'}{f.basis}[{','.join(map(str, idx))}]")
             for idx, c in f.items()]
    (sign, first), rest = terms[0], terms[1:]
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)


@given(lincombs)
def test_str_matches_term_by_term_reference(f):
    assert str(f) == text_reference(f)


def test_built_keeps_a_dict_without_zeros():
    terms = {(2, 1): 3, (1,): -1}
    assert _built("S", terms).terms is terms
    with_zero = {(2, 1): 0, (1,): -1}
    f = _built("S", with_zero)
    assert f.terms == {(1,): -1} and with_zero == {(2, 1): 0, (1,): -1}


def test_scalar_multiplication():
    f = LinComb.monomial("H", (2, 1))
    assert (3 * f).coefficient((2, 1)) == 3
    assert (0 * f) == LinComb.zero("H")
    assert (-f).coefficient((2, 1)) == -1
