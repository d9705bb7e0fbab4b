"""Input is checked once, at the boundary.

A public function checks its arguments on entry; a value the package built
itself (a Pieri term, an enumerated tableau, a surviving permutation, a term
of a basis change) is not checked again.  So the number of composition and
partition checks a call makes is a small constant, not a multiple of the
size of its output.
"""

import sys
from collections import Counter
from math import comb

from immaculate.linear import LinComb
from immaculate.nsym import H_to_immaculate, immaculate_comb_to_H, immaculate_to_H
from immaculate.pieri import left_pieri, right_pieri
from immaculate.tableaux import enumerate_skew_immaculate

CHECKS = ("check_composition", "check_partition")


def count_checks(monkeypatch) -> Counter:
    """From now on, count calls of the two checks through every
    ``immaculate.*`` namespace, since the modules import them by name."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] != "immaculate":
            continue
        for name in CHECKS:
            if hasattr(module, name):
                wrapped = counting(name, getattr(module, name))
                monkeypatch.setattr(module, name, wrapped)
    return calls


def test_right_pieri_checks_its_argument_once(monkeypatch):
    calls = count_checks(monkeypatch)
    assert len(right_pieri((1,) * 5, 8)) == 1287
    assert sum(calls.values()) == 1


def test_left_pieri_checks_each_candidate_twice(monkeypatch):
    # The one known exception to the rule above: one check of beta, then
    # the unit coefficient's checks of beta and of the candidate, for each
    # of the C(13, 3) compositions of |beta| + 1 = 14 into 4 parts that are
    # scanned.  The five-part members come with their signs from the walk,
    # which checks nothing, and are not re-checked.
    calls = count_checks(monkeypatch)
    left_pieri(1, (3, 4, 3, 3))
    assert sum(calls.values()) == 1 + 2 * comb(13, 3) == 573


def test_enumeration_checks_its_arguments_once(monkeypatch):
    calls = count_checks(monkeypatch)
    assert len(enumerate_skew_immaculate((), (1,) * 7)) == 877  # B_7
    assert sum(calls.values()) == 1


def test_cold_expansion_checks_its_argument_once(monkeypatch):
    immaculate_to_H.cache_clear()
    calls = count_checks(monkeypatch)
    assert len(immaculate_to_H((2, 2, 2, 2))) > 1
    assert sum(calls.values()) == 1


def test_basis_change_round_trip_checks_nothing_it_built(monkeypatch):
    f = LinComb.monomial("H", (1,) * 6)
    # Each cold S -> H expansion checks its own index on entry (counted in
    # the test above); with them cached, what is left is linear arithmetic
    # on terms the package built.
    assert immaculate_comb_to_H(H_to_immaculate(f)) == f
    calls = count_checks(monkeypatch)
    assert immaculate_comb_to_H(H_to_immaculate(f)) == f
    assert sum(calls.values()) == 0
