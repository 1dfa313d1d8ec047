"""Tests of the benchmark itself: its output checks reject corrupted results,
traced counts repeat exactly, the timing meter cleans up after itself, and
it refuses to run without the sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from domsplit import conditions  # noqa: E402
from domsplit.cocycle import dump_sequence  # noqa: E402
from domsplit.generators import GeneratorSpec, build_with_truth  # noqa: E402
from domsplit.projective import ProjPoint  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

JRANGE = (-6, 6)


@pytest.fixture(scope="module")
def dominated():
    seq, truth = build_with_truth(
        GeneratorSpec("conjugated_dominated", (-45, 45), {"rate_mode": "constant"}, 4))
    report = conditions.check_domination(seq, jrange=JRANGE)
    return seq, truth, report


def _perturbed(p: ProjPoint) -> ProjPoint:
    return ProjPoint.finite((p.affine or 0j) + 1e-6)


def test_report_check_rejects_flipped_verdict_and_perturbed_field(dominated):
    _, truth, report = dominated
    assert workloads.check_dominated_report(report, truth, JRANGE)
    flipped = dataclasses.replace(report, verdict="inconclusive")
    assert not workloads.check_dominated_report(flipped, truth, JRANGE)
    es = dict(report.es)
    es[0] = _perturbed(es[0])
    assert not workloads.check_dominated_report(dataclasses.replace(report, es=es), truth, JRANGE)
    missing = dict(report.eu)
    del missing[3]
    assert not workloads.check_dominated_report(dataclasses.replace(report, eu=missing), truth, JRANGE)


def test_cli_check_rejects_wrong_code_verdict_and_field(dominated, tmp_path):
    seq, truth, _ = dominated
    path = tmp_path / "seq.json"
    dump_sequence(seq, str(path))
    out = workloads.run_cli(["dom", "--input", str(path), "--format", "json",
                             *workloads.CLI_JRANGE])
    assert workloads.check_cli(out, "dominated", 0, truth, JRANGE)
    assert not workloads.check_cli(dataclasses.replace(out, code=3), "dominated", 0, truth, JRANGE)

    doc = json.loads(out.payload)
    doc["result"]["verdict"] = "not_dominated"
    flipped = workloads.CliOutput(0, json.dumps(doc))
    assert not workloads.check_cli(flipped, "dominated", 0, truth, JRANGE)

    doc = json.loads(out.payload)
    rec = doc["result"]["fields"][4]
    rec["Eu"] = [rec["Eu"][0] + 1e-6, rec["Eu"][1]]
    assert not workloads.check_cli(workloads.CliOutput(0, json.dumps(doc)), "dominated", 0,
                                   truth, JRANGE)
    assert not workloads.check_cli(workloads.CliOutput(0, "{"), "dominated", 0, truth, JRANGE)


def test_ap_check_rejects_failed_audit():
    cases, _ = workloads.setup("ap-audit", 2, "")
    report = cases[0].run()
    assert cases[0].check(report)
    assert not cases[0].check(dataclasses.replace(report, passed=False))
    assert not cases[0].check(dataclasses.replace(report, conditions_pass=False))


def test_nonstrict_detection():
    assert workloads.is_nonstrict('{"a": -Infinity}')
    assert workloads.is_nonstrict('[NaN]')
    assert not workloads.is_nonstrict('{"a": "Infinity", "b": 1e308}')


def test_closed_loop_counts_corrupted_and_raising_ops(dominated):
    _, truth, report = dominated
    corrupted = dataclasses.replace(report, verdict="not_dominated")

    def boom():
        raise RuntimeError("op failed")

    cases = [
        workloads.Case("good", lambda: report, lambda r: workloads.check_dominated_report(r, truth, JRANGE)),
        workloads.Case("corrupted", lambda: corrupted,
                       lambda r: workloads.check_dominated_report(r, truth, JRANGE)),
        workloads.Case("raises", boom, lambda r: True),
    ]
    times, norm, failed = run.closed_loop(cases, lambda i, t: i == 6)
    assert len(times) == len(norm) == 6 and failed == 4
    assert all(n > 0 for n in norm)


def _traced_counts(cases):
    tracer = Tracer()
    tracer.install()
    try:
        for case in cases:
            assert case.check(tracer.run_op(case.run))
    finally:
        tracer.uninstall()
    return {k: v for k, (v, unit) in tracer.layer_metrics().items() if unit != "s/op"}


def test_traced_counts_repeat_and_uninstall_restores(tmp_path):
    original = conditions.check_domination
    cases, _ = workloads.setup("cli-fleet", 1, str(tmp_path))
    first = _traced_counts(cases)
    assert conditions.check_domination is original
    second = _traced_counts(cases)
    assert first == second
    assert first["matrix2c.singular_values.calls"] > 0
    assert first["cocycle.vanished"] > 0 and first["cocycle.no_convergence"] > 0
    assert 0.0 < first["cocycle.sites_converged_ratio"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ap-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_meter_samples_during_the_call_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    meter = reference.Meter()
    result, wall, norm = meter.time(lambda: reference.kernel(20_000))
    assert isinstance(result, float) and wall > 0 and norm > 0
    assert len(meter.samples) > 2  # the two brackets and samples taken during the call
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
