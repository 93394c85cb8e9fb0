"""Check bookkeeping: the worst-of and least-of reductions behind every sampled item, and report JSON."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from meanlab import (
    GEOMETRIC,
    WASSERSTEIN,
    check_kubo_ando_axioms,
    commutator_report,
    random_pd,
    remark2_identity_chain,
    rng_for,
    solve_coefficients,
)
from meanlab.centrality import ProbeReport
from meanlab.report import CheckItem, CheckReport, least, worst


def test_worst_of_nothing_is_zero():
    assert worst([]) == 0.0


def test_worst_of_negatives_is_zero():
    assert worst([-3.0, -1e-300]) == 0.0


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan], [0.5, 2.0, math.nan]])
def test_worst_keeps_a_nan_wherever_it_sits(values):
    assert math.isnan(worst(values))
    assert not CheckItem.bound("item", worst(values), 1.0).passed


def test_worst_ties_keep_the_first_maximal_value():
    first = np.float64(2.0)
    assert worst([1.0, first, 2.0]) is first
    assert math.copysign(1.0, worst([-0.0])) == 1.0


def test_least_of_nothing_is_nan():
    # A floor with no evidence must fail.
    assert math.isnan(least([]))
    assert not CheckItem.floor("item", least([]), 1e-3).passed


def test_least_is_the_minimum():
    assert least([3.0, -1.0, 2.0]) == -1.0
    assert least(iter([0.5])) == 0.5


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan], [0.5, 2.0, math.nan]])
def test_least_keeps_a_nan_wherever_it_sits(values):
    assert math.isnan(least(values))
    assert not CheckItem.floor("item", least(values), 1e-3).passed


def test_least_ties_keep_the_first_minimal_value():
    first = np.float64(1.0)
    assert least([2.0, first, 1.0]) is first


def _pair():
    rng = rng_for(3, 2)
    return random_pd(rng, 2), random_pd(rng, 2)


# One report of each class, with the keys its JSON derives beyond its fields.
REPORTS = {
    "CheckItem": (lambda: CheckItem.bound("item", 0.5, 1.0), set()),
    "CheckReport": (lambda: CheckReport("title", (CheckItem.floor("item", 2.0, 1.0),)), {"all_pass"}),
    "AxiomCheck": (lambda: check_kubo_ando_axioms(GEOMETRIC, samples=2).checks[1], {"passed"}),
    "AxiomReport": (lambda: check_kubo_ando_axioms(GEOMETRIC, samples=2), {"all_pass"}),
    "CommutatorReport": (lambda: commutator_report(WASSERSTEIN, *_pair()), {"verdict"}),
    "ChainReport": (lambda: remark2_identity_chain(*_pair(), 0.5), set()),
    "CoefficientSolveReport": (lambda: solve_coefficients(WASSERSTEIN), set()),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_json_is_its_fields_plus_what_it_derives(name):
    build, derived = REPORTS[name]
    rep = build()
    assert type(rep).__name__ == name
    blob = rep.to_json()
    assert set(blob) == {f.name for f in fields(rep)} | derived
    json.dumps(blob, sort_keys=True)


def test_probe_report_has_no_json_of_its_own():
    # The CLI builds the probe's result itself from the report's fields.
    assert not hasattr(ProbeReport, "to_json")
