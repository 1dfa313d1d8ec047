"""Every report's JSON document holds its fields: each field that takes part
in ==, less the ones the report skips, under its own name, plus the report's
named extras; an {n: value} table marked as such is written as ascending
[n, value] pairs, and any other dict as it is."""

import copy
import dataclasses
from dataclasses import fields

import pytest

from domsplit import (
    GeneratorSpec,
    MatrixSequence,
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
    # the fields left out of == are the bulky or derived ones: the document
    # writes a report's outcome as its passed
    assert {f.name for f in fields(report) if not f.compare} <= {"rows", "sweep", "outcome"}
    if hasattr(report, "outcome"):
        assert report.passed == (report.outcome == "pass")


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


def edit_every_container(doc):
    """Appends to every list and adds a key to every dict of a document,
    the nested ones included."""
    for value in list(doc.values() if isinstance(doc, dict) else doc):
        if isinstance(value, (list, dict)):
            edit_every_container(value)
    if isinstance(doc, dict):
        doc["edited"] = True
    else:
        doc.append("edited")


FAILING = check_domination(build_with_truth(GeneratorSpec("conjugated_dominated", (-45, 45),
                                                           seed=3))[0])
NESTED = GeneratorSpec("random_singular", (-8, 8), {"insertions": [-5, 7],
                                                    "lplus_range": [2.0, 3.0]}, 1)


@pytest.mark.parametrize("report", [*(r for r, _, _ in REPORTS.values()), FAILING, NESTED,
                                    build_with_truth(NESTED)[0]],
                         ids=[*REPORTS, "failing", "nested", "sequence"])
def test_document_shares_nothing_with_the_report(report):
    """Editing a document's lists and dicts, nested ones included, edits
    neither the report nor its next document."""
    first = report.to_json_dict()
    want = copy.deepcopy(first)
    edit_every_container(first)
    assert report.to_json_dict() == want


def test_editing_the_document_leaves_the_report():
    assert FAILING.failed_js and FAILING.notes
    doc = FAILING.to_json_dict()
    doc["failed_js"].append(99)
    doc["notes"].append("x")
    assert 99 not in FAILING.failed_js and FAILING.notes[-1] != "x"
    assert build_with_truth(NESTED)[0].source == NESTED.to_json_dict()


def test_caller_dicts_are_copied_on_the_way_in():
    """Editing the params dict given to a spec, or the document a sequence
    was read from, nested dicts included, edits neither."""
    params = {"lplus": 3.0, "lminus": 0.5}
    spec = GeneratorSpec("diagonal", (0, 3), params)
    params["lplus"] = 9.0
    assert spec.params == {"lplus": 3.0, "lminus": 0.5}
    doc = SEQ.to_json_dict() | {"source": NESTED.to_json_dict()}
    seq = MatrixSequence.from_json_dict(doc)
    doc["source"]["params"]["insertions"].append(0)
    doc["source"]["seed"] = 7
    assert seq.source == NESTED.to_json_dict()


def test_replaced_fields_are_not_written():
    """A report given its own es, eu or certs answers them, but writes its
    document from its sweep."""
    replaced = dataclasses.replace(DOM, es={}, eu={}, certs={})
    assert replaced.es == {} and replaced.certs == {}
    assert replaced.to_json_dict() == DOM.to_json_dict()
    assert len(DOM.to_json_dict()["fields"]) == len(DOM.sweep.js) > 0
