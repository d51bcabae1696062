"""Every count an entry point takes goes through ``errors.check_count``:
a bool, a float (integral or not), a string, or a value outside the
argument's range raises ValueError, and the message names the argument.
Every real value goes through ``errors.check_real``, which refuses a
bool, a string or a non-finite float the same way."""

from fractions import Fraction

import numpy as np
import pytest

from bellpersist.bell import (
    BellFunctional,
    gbi_classical,
    gbi_classical_by_integration,
    gbi_quantum,
    makb,
    makb_xy_settings,
)
from bellpersist.dicke import (
    DickeMixture,
    fit_n0_line,
    reduced_dicke,
    sigma_sum,
    solve_n0,
    xz_component,
)
from bellpersist.errors import check_count, check_real
from bellpersist.persistency import (
    PersistencyResult,
    dicke_persistency,
    ghz_persistency,
)
from bellpersist.qccr import GhzMixture, chsh_game, gbi_game, marginal_feasibility, simulate
from bellpersist.qstate import DenseState, ghz_state

_HALVES = {"0": 0.5, "1": 0.5}

# (argument, call with the count under test, name in the message, lo, hi);
# a bound of None is not checked
ENTRY_POINTS = [
    ("BellFunctional-n_parties", lambda v: BellFunctional(v, {}), "party count", 1, None),
    ("BellFunctional-settings", lambda v: BellFunctional(2, {}, v), "settings count", 2, None),
    ("BellFunctional-key", lambda v: BellFunctional(2, {(0, v): 1}), "setting", 0, 1),
    ("makb", makb, "party count", 2, 16),
    ("makb_xy_settings", makb_xy_settings, "party count", 1, None),
    ("gbi_quantum", gbi_quantum, "party count", 2, None),
    ("gbi_classical", gbi_classical, "party count", 2, None),
    ("gbi_classical_by_integration", gbi_classical_by_integration, "party count", 2, None),
    ("sigma_sum-N", lambda v: sigma_sum(v, 1, 1), "party count N", 1, None),
    ("sigma_sum-M", lambda v: sigma_sum(5, v, 1), "zeros count M", 0, 5),
    ("sigma_sum-L", lambda v: sigma_sum(5, 1, v), "traced count L", 0, 4),
    ("reduced_dicke-N", lambda v: reduced_dicke(v, 1, 1), "party count N", 1, None),
    ("reduced_dicke-M", lambda v: reduced_dicke(5, v, 1), "zeros count M", 0, 5),
    ("reduced_dicke-L", lambda v: reduced_dicke(5, 1, v), "traced count L", 0, 4),
    ("solve_n0-M", lambda v: solve_n0(v, 2), "zeros count M", 0, None),
    ("solve_n0-L", lambda v: solve_n0(1, v), "traced count L", 1, None),
    ("fit_n0_line-M", lambda v: fit_n0_line(v, [5, 6]), "zeros count M", 0, None),
    ("fit_n0_line-L", lambda v: fit_n0_line(1, [5, v]), "traced count L", 1, None),
    ("xz_component-n", lambda v: xz_component(v, 0, 0), "qubit count n", 0, None),
    ("xz_component-m", lambda v: xz_component(4, v, 0), "zeros count m", 0, 4),
    ("xz_component-k", lambda v: xz_component(4, 1, v), "x-count k", 0, 4),
    ("DickeMixture-n", lambda v: DickeMixture(v, ((0, Fraction(1)),)), "qubit count n", 1, None),
    ("DickeMixture-m", lambda v: DickeMixture(4, ((v, Fraction(1)),)), "zeros count m", 0, 4),
    ("ghz_persistency", lambda v: ghz_persistency("makb", v), "party count N", 2, None),
    ("dicke_persistency-N", lambda v: dicke_persistency(v, 1), "party count N", 2, None),
    ("dicke_persistency-M", lambda v: dicke_persistency(10, v), "zeros count M", 0, 10),
    ("PersistencyResult", lambda v: PersistencyResult(5, v, 3, 1.0), "traced count", 0, 4),
    ("GhzMixture-n_parties", lambda v: GhzMixture(v, 1), "party count", None, None),
    ("GhzMixture-block", lambda v: GhzMixture(4, v), "block size", 1, 4),
    ("gbi_game-n", lambda v: gbi_game(v, 4), "party count", 2, None),
    ("gbi_game-grid", lambda v: gbi_game(2, v), "grid size", 2, None),
    ("simulate-trials", lambda v: simulate(chsh_game(), v, 1), "trials", 1, None),
    ("simulate-seed", lambda v: simulate(chsh_game(), 10, v), "seed", 0, None),
    ("simulate-jobs", lambda v: simulate(chsh_game(), 10, 1, jobs=v), "jobs", 1, None),
    (
        "simulate-answer",
        lambda v: simulate(chsh_game(), 10, 1, strategy=[[1, v], [1, 1]]),
        "strategy answer",
        -1,
        1,
    ),
    ("marginal_feasibility-N", lambda v: marginal_feasibility(_HALVES, v), "party count N", 1, 12),
    # above 12 qubits both raise CapabilityError, a ValueError naming the cap
    ("ghz_state", ghz_state, "qubit count", 1, None),
    ("DenseState", lambda v: DenseState(v, [1, 0], pure=True), "qubit count", 1, None),
]


def _cases():
    for ident, call, name, lo, hi in ENTRY_POINTS:
        for value in (True, 2.0, 2.5, "2"):
            yield pytest.param(call, value, name, id=f"{ident}-{value!r}")
        if lo is not None:
            yield pytest.param(call, lo - 1, name, id=f"{ident}-below")
        if hi is not None:
            yield pytest.param(call, hi + 1, name, id=f"{ident}-above")
    # k is the length of the distribution's keys, so only its range applies
    for ident, dist in (("below", {"": 1}), ("above", {"0" * 13: 1})):
        yield pytest.param(
            lambda d: marginal_feasibility(d, 4), dist, "marginal size k",
            id=f"marginal_feasibility-k-{ident}",
        )


@pytest.mark.parametrize("call,value,name", _cases())
def test_entry_points_refuse_bad_counts(call, value, name):
    with pytest.raises(ValueError) as info:
        call(value)
    assert name in str(info.value)


def test_plain_int_returned_and_bounds_named():
    value = check_count(np.int64(3), "count", 0, 3)
    assert type(value) is int and value == 3
    with pytest.raises(ValueError, match=r"^count 5 outside 0\.\.3$"):
        check_count(5, "count", 0, 3)
    with pytest.raises(ValueError, match=r"^count -1 outside 0\.\.$"):
        check_count(-1, "count", 0)
    with pytest.raises(ValueError, match=r"^count 5\.0 is not an integer$"):
        check_count(5.0, "count")


def test_real_returned_as_given_and_bool_refused():
    for value in (0.5, 1, Fraction(1, 3), np.float32(0.25)):
        assert check_real(value, "turns") is value
    for value, shown in ((True, "True"), ("0.1", "'0.1'"), (None, "None"), (1j, "1j")):
        with pytest.raises(ValueError, match=rf"^turns {shown} is not a number$"):
            check_real(value, "turns")
    for value, shown in ((float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf")):
        with pytest.raises(ValueError, match=rf"^turns {shown} is not finite$"):
            check_real(value, "turns")
