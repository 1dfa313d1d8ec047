"""Every report's JSON document holds its fields: each field that takes part
in ==, less the ones the report skips, under its own name, plus the report's
named extras; an {n: value} table marked as such is written as ascending
[n, value] pairs, and any other dict as it is."""

from dataclasses import fields

import pytest

from domsplit import (
    GeneratorSpec,
    Thresholds,
    ap_report,
    build_with_truth,
    check_domination,
    svg_profile,
)
from domsplit.conditions import RateFit

SEQ, _ = build_with_truth(GeneratorSpec("diagonal", (-15, 15)))
DOM = check_domination(SEQ)

# (report, the fields it skips, the keys it adds)
REPORTS = {
    "Thresholds": (Thresholds(), (), ()),
    "RateFit": (svg_profile(SEQ, 10), (), ("mu",)),
    "ApReport": (ap_report(SEQ, 1e3, 10), (), ()),
    "DominationReport": (DOM, ("es", "eu", "certs"), ("fields",)),
    "GeneratorSpec": (GeneratorSpec("diagonal", (-5, 5)), (), ()),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_document_holds_the_compared_fields(name):
    report, skip, extras = REPORTS[name]
    compared = {f.name for f in fields(report) if f.compare}
    assert set(report.to_json_dict()) == (compared - set(skip)) | set(extras)
    # the fields left out of == are the bulky or derived ones
    assert {f.name for f in fields(report) if not f.compare} <= {"rows", "sweep"}


def test_nested_reports_and_tuples():
    doc = DOM.to_json_dict()
    assert doc["svg"] == DOM.svg.to_json_dict() and doc["fi"] == DOM.fi.to_json_dict()
    assert doc["thresholds"] == DOM.thresholds.to_json_dict()
    assert doc["window"] == list(DOM.window) and doc["jrange"] == list(DOM.jrange)
    assert doc["svg"]["mu"] == DOM.svg.mu


def test_marked_tables_are_ascending_pairs():
    fit = RateFit(-1.0, 0.0, 2, 4, 0.0, {3: -3.0, 1: -1.0, 2: -2.0}, True)
    assert fit.to_json_dict()["sup_log"] == [[1, -1.0], [2, -2.0], [3, -3.0]]
    floor = DOM.to_json_dict()["norm_floor_log"]
    assert floor == [[n, DOM.norm_floor_log[n]] for n in sorted(DOM.norm_floor_log)]
    assert [n for n, _ in floor] == sorted(DOM.norm_floor_log) and floor


def test_unmarked_dicts_stay_dicts():
    assert GeneratorSpec("diagonal", (-5, 5)).to_json_dict()["params"] == {}
    params = {"lplus": 3.0}
    assert GeneratorSpec("diagonal", (-5, 5), params).to_json_dict()["params"] == params
