"""The decisions of ``dom`` and ``ap`` on a fixed fleet, against a recorded
corpus, so that "same behaviour" is a test and not a one-off comparison.

Each window is written with ``dump_sequence`` and read back by the CLI's
``--input``.  For ``dom --format json`` the corpus keeps the exit code, the
verdict, ``n_dom``, ``failed_js``, ``argmin_separation``, the ``svg`` and
``fi`` pass flags, and (j, n*_s, n*_u) of every converged site; for ``ap
--mu 1e4 --nmax 12`` the exit code and ``passed``.  No float is kept, so a
change within 1e-12 of a value leaves the corpus as it is, and a change that
moves a decision shows here.

The fleet: every generator family at its default parameters on seeds 0-5
over -45..45 (``random_singular`` with one aligned insertion at 0), one
L = 2001 ``conjugated_dominated`` window, and the ``CASES`` and
``STAGE_CASES`` of ``test_sweep.py``.  A misaligned insertion is kept in a
section of its own: past it n*, ``failed_js`` and ``n_dom`` depend on the
order of float operations (ROADMAP item 3), so it is the known exception.

After a change that moves a decision on purpose, record the corpus again
with ``PYTHONPATH=src python tests/test_decisions.py`` and list every moved
entry in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from domsplit import GeneratorSpec, build_with_truth, dump_sequence
from domsplit.cli import main
from domsplit.generators import FAMILIES

import test_sweep

CORPUS = Path(__file__).resolve().parent / "decisions.json"
AP_ARGS = ("--mu", "1e4", "--nmax", "12")


def _generated(family, window, params, seed):
    return lambda: build_with_truth(GeneratorSpec(family, window, params, seed))[0]


def fleet() -> dict[str, dict[str, tuple]]:
    """{section: {name: (sequence builder, n_max, jrange or None)}}."""
    main_fleet = {}
    for family in FAMILIES:
        params = {"insertions": [0]} if family == "random_singular" else {}
        for seed in range(6):
            main_fleet[f"{family} seed {seed}"] = (
                _generated(family, (-45, 45), params, seed), 40, None)
    main_fleet["conjugated_dominated L2001"] = (
        _generated("conjugated_dominated", (-1000, 1000), {"rate_mode": "constant"}, 3),
        40, (-959, 959))
    for name, (build, n_max, jrange, _tol) in test_sweep.CASES.items():
        main_fleet[f"case {name}"] = (build, n_max, jrange)
    for name, (build, n_max, jrange) in test_sweep.STAGE_CASES.items():
        main_fleet[f"stage {name}"] = (build, n_max, jrange)
    misaligned = {
        f"random_singular misaligned seed {seed}": (
            _generated("random_singular", (-45, 45), {"insertions": [0], "misaligned": True},
                       seed), 40, None)
        for seed in range(6)
    }
    return {"main": main_fleet, "known_exception_item3": misaligned}


def _run(argv: list[str]) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def decisions(build, n_max: int, jrange, path: Path) -> dict:
    dump_sequence(build(), str(path))
    argv = ["dom", "--input", str(path), "--nmax", str(n_max), "--format", "json"]
    if jrange is not None:
        argv += ["--jrange", str(jrange[0]), str(jrange[1])]
    code, doc = _run(argv)
    rep = doc["result"]
    dom = {
        "exit": code,
        "verdict": rep["verdict"],
        "n_dom": rep["n_dom"],
        "failed_js": rep["failed_js"],
        "argmin_separation": rep["argmin_separation"],
        "svg": rep["svg"]["passed"],
        "fi": rep["fi"]["passed"],
        "n_star": [[f["j"], f["n_star_s"], f["n_star_u"]] for f in rep["fields"]],
    }
    code, doc = _run(["ap", "--input", str(path), *AP_ARGS, "--format", "json"])
    ap = {"exit": code, "passed": None if doc is None else doc["result"]["passed"]}
    return {"dom": dom, "ap": ap}


def record(directory: Path) -> dict:
    return {
        section: {name: decisions(*case, directory / "seq.json") for name, case in cases.items()}
        for section, cases in fleet().items()
    }


def _dumps(corpus: dict) -> str:
    """One line per window, so that a moved decision is one line of a diff."""
    lines = []
    for section, entries in corpus.items():
        body = ",\n".join(f"    {json.dumps(name)}: {json.dumps(entry, separators=(',', ':'))}"
                          for name, entry in entries.items())
        lines.append(f"  {json.dumps(section)}: {{\n{body}\n  }}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record(tmp_path_factory.mktemp("decisions"))


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", ["main", "known_exception_item3"])
def test_decisions_match_corpus(recorded, corpus, section):
    got, want = recorded[section], corpus[section]
    assert got.keys() == want.keys()
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"decisions moved on {moved}"


def test_corpus_covers_every_outcome(corpus):
    dom = [entry["dom"] for entry in corpus["main"].values()]
    assert {d["verdict"] for d in dom} == {"dominated", "not_dominated", "inconclusive"}
    assert {d["exit"] for d in dom} == {0, 1, 3}
    assert any(d["failed_js"] for d in dom) and any(d["n_dom"] is None for d in dom)
    assert {entry["ap"]["exit"] for entry in corpus["main"].values()} == {0, 1, 3}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        CORPUS.write_text(_dumps(record(Path(tmp))), encoding="utf-8")
    print(f"recorded {CORPUS}")
