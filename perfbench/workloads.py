"""The benchmark's workloads: inputs built from a seed, the op, and its check.

Each workload is a list of cases that the run loop visits round-robin.  A
case runs one op and checks its output against ground truth known from the
construction of the input, never against another run of the program.

- dom-long: ``check_domination`` on long conjugated_dominated windows.  The
  product scan and per-site direction estimation dominate; this is where a
  batched product sweep shows its full effect.
- cli-fleet: in-process ``domsplit dom`` on short windows covering every
  verdict class and failure path, so fixed per-call cost, input loading and
  report encoding weigh.
- ap-audit: ``ap_report`` on ap_family, which uses the product engine for
  forward norms only (no direction estimation) and recomputes pair norms.

Rotations have an odd number of cases, so the median op of a run falls
inside one case's block of samples rather than between two cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

# Ops call through the module objects, so a traced run sees the wrapped functions.
from domsplit import avalanche, cli, conditions
from domsplit.cocycle import MatrixSequence, dump_sequence
from domsplit.generators import GeneratorSpec, GroundTruth, build_with_truth
from domsplit.matrix2c import Mat2C

DOM_LONG_WINDOW = (-1000, 1000)  # L = 2001
DOM_LONG_MARGIN = 41  # jrange = window shrunk by this at each end
DOM_LONG_SEQUENCES = 5  # distinct seeds per run, so one seed's rates do not set the run
# The generator's default rate ranges for |lambda+| and |lambda-|.  Sequence k
# of a dom-long run draws from the k-th fifth of each, |lambda+| rising and
# |lambda-| falling, so the gap |lambda+|/|lambda-| climbs from about 2 to
# about 6 across every run.  The op's cost falls as the gap grows (about
# 1.4x over that range); five free draws would let that decide a run's
# figures.
DOM_LONG_LPLUS = (2.0, 3.0)
DOM_LONG_LMINUS = (0.5, 1.0)
CLI_WINDOW = (-45, 45)  # L = 91
CLI_JRANGE = ("--jrange", "-6", "6")
AP_WINDOW = (-200, 200)  # L = 401
AP_MUS = (1e2, 1e3, 1e4)
AP_N_MAX = 30
FIELD_TOL = 1e-8  # chordal distance allowed between estimated and true fields


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class SetupStats:
    build_s: float = 0.0  # seconds inside build_with_truth
    entries: int = 0  # matrices built


@dataclass
class CliOutput:
    code: int
    payload: str


def is_nonstrict(payload: str) -> bool:
    """True when the document holds Infinity / -Infinity / NaN, which are not
    JSON although json.loads accepts them."""
    tokens = []
    try:
        json.loads(payload, parse_constant=lambda c: tokens.append(c) or float(c))
    except ValueError:
        return False
    return bool(tokens)


def _build(spec: GeneratorSpec, stats: SetupStats) -> tuple[MatrixSequence, GroundTruth | None]:
    t0 = time.perf_counter()
    seq, truth = build_with_truth(spec)
    stats.build_s += time.perf_counter() - t0
    stats.entries += len(seq)
    return seq, truth


def chordal(p: tuple[complex, complex], q: tuple[complex, complex]) -> float:
    """Chordal distance of the lines through two nonzero vectors (diameter 2)."""
    np_ = math.hypot(abs(p[0]), abs(p[1]))
    nq = math.hypot(abs(q[0]), abs(q[1]))
    return 2.0 * abs(p[0] * q[1] - p[1] * q[0]) / (np_ * nq)


def _affine_vector(point) -> tuple[complex, complex]:
    """A field as printed by the report: "inf" or [re, im] of v2 / v1."""
    if point == "inf":
        return (0j, 1.0 + 0j)
    return (1.0 + 0j, complex(point[0], point[1]))


def fields_match(fields: dict[int, tuple], truth: GroundTruth, js: range) -> bool:
    """Every site in js estimated, and E^s / E^u within FIELD_TOL of the truth."""
    if sorted(fields) != list(js):
        return False
    return all(
        chordal(es, truth.es[j].vector()) <= FIELD_TOL
        and chordal(eu, truth.eu[j].vector()) <= FIELD_TOL
        for j, (es, eu) in fields.items()
    )


def check_dominated_report(report, truth: GroundTruth, jrange: tuple[int, int]) -> bool:
    if report.verdict != "dominated" or report.es.keys() != report.eu.keys():
        return False
    fields = {j: (report.es[j].vector(), report.eu[j].vector()) for j in report.es}
    return fields_match(fields, truth, range(jrange[0], jrange[1] + 1))


def check_cli(out: CliOutput, verdict: str, code: int,
              truth: GroundTruth | None = None, jrange: tuple[int, int] | None = None) -> bool:
    """Exit code and verdict as expected; with a ground truth, the fields too."""
    if out.code != code:
        return False
    try:
        result = json.loads(out.payload)["result"]
        if result["verdict"] != verdict:
            return False
        if truth is None:
            return True
        fields = {
            rec["j"]: (_affine_vector(rec["Es"]), _affine_vector(rec["Eu"]))
            for rec in result["fields"]
        }
    except (KeyError, TypeError, ValueError, IndexError):
        return False
    return fields_match(fields, truth, range(jrange[0], jrange[1] + 1))


def check_ap(report) -> bool:
    return bool(report.conditions_pass and report.passed)


def run_cli(argv: list[str]) -> CliOutput:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue())


def _stratum(bounds: tuple[float, float], k: int, n: int) -> list[float]:
    """The k-th of n equal parts of the interval bounds."""
    lo, hi = bounds
    return [lo + (hi - lo) * k / n, lo + (hi - lo) * (k + 1) / n]


def _dom_long(seed: int, workdir: str, stats: SetupStats) -> list[Case]:
    lo, hi = DOM_LONG_WINDOW
    jrange = (lo + DOM_LONG_MARGIN, hi - DOM_LONG_MARGIN)
    cases = []
    for k in range(DOM_LONG_SEQUENCES):
        sub = seed * DOM_LONG_SEQUENCES + k
        spec = GeneratorSpec("conjugated_dominated", DOM_LONG_WINDOW, {
            "rate_mode": "constant",
            "lplus_range": _stratum(DOM_LONG_LPLUS, k, DOM_LONG_SEQUENCES),
            "lminus_range": _stratum(DOM_LONG_LMINUS, DOM_LONG_SEQUENCES - 1 - k, DOM_LONG_SEQUENCES),
        }, sub)
        seq, truth = _build(spec, stats)
        cases.append(Case(
            f"dom-long/seed={sub}",
            lambda seq=seq: conditions.check_domination(seq, conditions.Thresholds(), jrange=jrange),
            lambda r, truth=truth: check_dominated_report(r, truth, jrange),
        ))
    return cases


def _vanishing(seq: MatrixSequence) -> MatrixSequence:
    """seq with B(0), B(1) replaced by complementary projections, so every
    product through both sites is exactly zero (a witnessed vanished product)."""
    entries = {j: seq[j] for j in seq.indices()}
    entries[0] = Mat2C(1 + 0j, 0j, 0j, 0j)
    entries[1] = Mat2C(0j, 0j, 0j, 1 + 0j)
    return MatrixSequence(entries, max(seq.bound_M, 2.0))


def _cli_fleet(seed: int, workdir: str, stats: SetupStats) -> list[Case]:
    interior = (int(CLI_JRANGE[1]), int(CLI_JRANGE[2]))
    # (label, family, params, extra argv, expected verdict, expected exit, field check)
    kinds = (
        ("conj-constant", "conjugated_dominated", {"rate_mode": "constant"}, CLI_JRANGE,
         "dominated", 0, True),
        ("conj-perstep", "conjugated_dominated", {"rate_mode": "perstep"}, CLI_JRANGE,
         "dominated", 0, True),
        ("singular-aligned", "random_singular", {"insertions": [0]}, CLI_JRANGE,
         "dominated", 0, True),
        ("singular-misaligned", "random_singular", {"insertions": [0], "misaligned": True},
         CLI_JRANGE, "not_dominated", 1, False),
        ("unitary", "unitary", {}, (), "inconclusive", 3, False),
        ("example1", "example1", {}, (), "not_dominated", 1, False),
        ("vanishing", "conjugated_dominated", {"rate_mode": "constant"}, CLI_JRANGE,
         "not_dominated", 1, False),
    )
    cases = []
    for label, family, params, extra, verdict, code, with_fields in kinds:
        seq, truth = _build(GeneratorSpec(family, CLI_WINDOW, params, seed), stats)
        if label == "vanishing":
            seq = _vanishing(seq)
        path = os.path.join(workdir, f"{label}.json")
        dump_sequence(seq, path)
        argv = ["dom", "--input", path, "--format", "json", "--table", *extra]
        cases.append(Case(
            f"cli-fleet/{label}",
            lambda argv=argv: run_cli(argv),
            lambda out, verdict=verdict, code=code, truth=truth if with_fields else None:
                check_cli(out, verdict, code, truth, interior),
        ))
    return cases


def _ap_audit(seed: int, workdir: str, stats: SetupStats) -> list[Case]:
    cases = []
    for mu in AP_MUS:
        seq, _ = _build(GeneratorSpec("ap_family", AP_WINDOW, {"mu": mu}, seed), stats)
        cases.append(Case(
            f"ap-audit/mu={mu:g}",
            lambda seq=seq, mu=mu: avalanche.ap_report(seq, mu, AP_N_MAX),
            check_ap,
        ))
    return cases


_SETUPS = {"dom-long": _dom_long, "cli-fleet": _cli_fleet, "ap-audit": _ap_audit}


def setup(workload: str, seed: int, workdir: str) -> tuple[list[Case], SetupStats]:
    """Builds (and, for cli-fleet, writes) the workload's inputs from the seed."""
    stats = SetupStats()
    return _SETUPS[workload](seed, workdir, stats), stats
