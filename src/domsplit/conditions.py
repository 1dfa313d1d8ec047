"""Finite-window estimators for the singular-value gap and fast-invertibility
conditions, and the full dominated-splitting certificate.

All suprema, infima, and ratios are handled in the log domain.  Verdicts are
threshold-based and every threshold is configuration, echoed into reports:
a finite window can only certify behaviour at its own scale.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .cocycle import (
    ConvergenceCert,
    MatrixSequence,
    ProductSweep,
    _apply,
    _dist,
    _fit_lines,
    _staircase_cells,
    _unit,
    estimate_fields,
    invariance_residuals,
    product_sweep,
)
from .errors import InvalidSpec, NotUnimodular, WindowExceeded
from .projective import ProjPoint

INF = float("inf")
NEG_INF = float("-inf")


@dataclass(frozen=True)
class Thresholds:
    """Engineering pass thresholds and scan sizes; all reported in output."""

    n_max: int = 40
    mu_min: float = 1.05  # SVG passes when the fitted decay beats this
    epsilon: float = 0.1  # FI growth allowance relative to the SVG rate
    fi_log_c_max: float = math.log(1e4)  # FI fails when the fitted constant explodes
    sep_min: float = 1e-4  # witnessed separation collapse below this
    n_cap: int = 64  # largest N tried for the domination gap
    gap_lambda: float = 2.0  # required ||B_N u|| / ||B_N s|| factor
    split_tol: float = 1e-9  # stopping tolerance for direction estimates
    ueg_lambda_min: float = 1.10  # uniform growth passes above this rate
    fit_n_lo: int = 2  # transient steps discarded by rate fits

    def __post_init__(self):
        # a nan, an infinite sep_min or split_tol, or a value past one of these
        # bounds would let a verdict rest on no evidence or invent a witness;
        # the SVG and UEG tests compare log mu_min and log ueg_lambda_min
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise InvalidSpec(f"{name} must be finite, got {value}")
        for name, bad, need in (
            ("n_max", self.n_max < 1, "be at least 1"),
            ("mu_min", self.mu_min <= 0.0, "be positive"),
            ("sep_min", self.sep_min < 0.0, "be at least 0"),
            ("n_cap", self.n_cap < 1, "be at least 1"),
            ("gap_lambda", self.gap_lambda <= 1.0, "exceed 1"),
            ("split_tol", self.split_tol <= 0.0, "be positive"),
            ("ueg_lambda_min", self.ueg_lambda_min <= 0.0, "be positive"),
            ("fit_n_lo", self.fit_n_lo < 0, "be at least 0"),
        ):
            if bad:
                raise InvalidSpec(f"{name} must {need}, got {getattr(self, name)}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(sup_j ratio_n) against n.

    ``rate`` is the signed per-step exponent (the slope); a decaying profile
    has rate < 0 and fitted mu = exp(-rate).  Entries of ``sup_log`` and
    ``table`` are natural-log ratios; +-inf mark vanished / rank-one products.
    ``rows`` holds what the table is built from, when it is first read:
    (first j, first n, one ratio array over j per n).
    """

    rate: float
    log_c: float
    n_lo: int
    n_hi: int
    residual_max: float
    sup_log: dict[int, float] = dc_field(repr=False)
    passed: bool = False
    rows: tuple = dc_field(default=(), repr=False, compare=False)

    @property
    def mu(self) -> float:
        return math.exp(-self.rate)

    @cached_property
    def table(self) -> dict[tuple[int, int], float]:
        """{(j, n): log ratio}, n by n and j ascending within each n."""
        if not self.rows:
            return {}
        j_lo, n_first, rows = self.rows
        keys = [
            (j, n) for n, row in enumerate(rows, start=n_first)
            for j in range(j_lo, j_lo + len(row))
        ]
        return dict(zip(keys, np.concatenate(rows).tolist()))

    def table_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The j, n and log ratio of every table cell, as arrays in (j, n)
        order, read from ``rows`` without building the table."""
        return _staircase_cells(*(self.rows or (0, 0, [])))

    def to_json_dict(self) -> dict:
        return {
            "rate": self.rate,
            "log_c": self.log_c,
            "mu": self.mu,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "residual_max": self.residual_max,
            "passed": self.passed,
            "sup_log": [[n, v] for n, v in sorted(self.sup_log.items())],
        }


def _fit_line(points: list[tuple[int, float]]) -> tuple[float, float, float]:
    """(slope, intercept, max abs residual) of the least-squares line through
    the finite points.  With no finite point it is (-inf, -inf, 0), and with
    one a flat line through it."""
    finite = [(n, y) for n, y in points if math.isfinite(y)]
    if not finite:
        return NEG_INF, NEG_INF, 0.0
    if len(finite) == 1:
        return 0.0, finite[0][1], 0.0
    xs, ys = np.array(finite, dtype=float).T[:, :, None]
    slope, intercept = (float(v[0]) for v in _fit_lines(xs, ys, np.ones(ys.shape, dtype=bool)))
    resid = max(abs(y - (intercept + slope * n)) for n, y in finite)
    return slope, intercept, resid


def _log_ratios(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """max(num(j), num(j+1)) - denom(j) in the log domain, +inf where the
    denominator product vanished; num has one start more than denom."""
    m = len(denom)
    vanished = denom == NEG_INF
    r = np.maximum(num[:m], num[1:m + 1]) - np.where(vanished, 0.0, denom)
    r[vanished] = INF
    return r


def _svg_fi_fits(sweep: ProductSweep, thresholds: Thresholds) -> tuple[RateFit, RateFit]:
    lo = sweep.window[0]
    n_max = sweep.n_max
    ls1, ls2 = sweep.log_s1, sweep.log_s2
    svg_rows = [_log_ratios(ls2[n], ls1[n + 1]) for n in range(n_max + 1)]
    fi_rows = [_log_ratios(ls1[n], ls1[n + 1]) for n in range(1, n_max + 1)]
    svg_sup = {n: float(r.max()) if r.size else NEG_INF for n, r in enumerate(svg_rows)}
    fi_sup = {n: float(r.max()) if r.size else NEG_INF for n, r in enumerate(fi_rows, start=1)}

    n_lo = thresholds.fit_n_lo
    svg_pts = [(n, v) for n, v in svg_sup.items() if n >= n_lo]
    slope, intercept, resid = _fit_line(svg_pts)
    # a fit over no n at all is no evidence; one whose ratios are all exactly
    # zero (rank one, -inf in the log) is, and passes
    svg_ok = (
        bool(svg_pts)
        and -slope > math.log(thresholds.mu_min)
        and not any(v == INF for v in svg_sup.values())
    )
    svg_fit = RateFit(slope, intercept, n_lo, n_max, resid, svg_sup, svg_ok, (lo, 0, svg_rows))

    fi_pts = [(n, v) for n, v in fi_sup.items() if n >= max(n_lo, 1)]
    fslope, fintercept, fresid = _fit_line(fi_pts)
    svg_log_mu = -slope
    fi_ok = (
        bool(fi_pts)
        and fslope < (1.0 - thresholds.epsilon) * svg_log_mu
        and fintercept <= thresholds.fi_log_c_max
        and not any(v == INF for v in fi_sup.values())
    )
    fi_fit = RateFit(fslope, fintercept, max(n_lo, 1), n_max, fresid, fi_sup, fi_ok,
                     (lo, 1, fi_rows))
    return svg_fit, fi_fit


def _require_window(seq: MatrixSequence, n_max: int) -> None:
    if len(seq) < n_max + 2:
        raise WindowExceeded(
            f"window length {len(seq)} too short for n_max={n_max} (needs >= n_max + 2)"
        )


def svg_profile(seq: MatrixSequence, n_max: int, thresholds: Thresholds = Thresholds()) -> RateFit:
    """Worst-case gap ratios sigma2(B_n)/sigma1(B_{n+1}) and their decay fit."""
    _require_window(seq, n_max)
    svg_fit, _ = _svg_fi_fits(product_sweep(seq, n_max), thresholds)
    return svg_fit


def fi_profile(seq: MatrixSequence, n_max: int, thresholds: Thresholds = Thresholds()) -> RateFit:
    """Worst-case norm ratios sigma1(B_n)/sigma1(B_{n+1}) and their growth fit.

    Passes when the fitted growth stays below (1 - epsilon) times the fitted
    SVG rate and the fitted constant stays moderate; on a finite window an
    exploding constant is how an Example-1-style failure shows up, since the
    per-n supremum saturates at the window edge instead of growing with n.
    """
    _require_window(seq, n_max)
    _, fi_fit = _svg_fi_fits(product_sweep(seq, n_max), thresholds)
    return fi_fit


def norm_floor(seq: MatrixSequence, n_max: int) -> dict[int, float]:
    """{n: inf_j log sigma1(B_n(j))} for n = 1 .. n_max."""
    _require_window(seq, n_max)
    return _norm_floor(product_sweep(seq, n_max))


def _norm_floor(sweep: ProductSweep) -> dict[int, float]:
    return {n: float(sweep.log_s1[n].min()) for n in range(1, sweep.n_max + 1)}


def ueg_check(seq: MatrixSequence, n_max: int, thresholds: Thresholds = Thresholds()) -> RateFit:
    """Uniform exponential growth of inf_j ||A_n(j)|| for unimodular input."""
    a, b, c, d = seq.factors
    off = np.flatnonzero(np.abs(a * d - b * c - 1.0) > 1e-10)
    if off.size:
        raise NotUnimodular(f"det(B({seq.lo + int(off[0])})) differs from 1 beyond 1e-10")
    _require_window(seq, n_max)
    floor = _norm_floor(product_sweep(seq, n_max))
    pts = [(n, v) for n, v in floor.items() if n >= max(thresholds.fit_n_lo, 1)]
    slope, intercept, resid = _fit_line(pts)
    passed = bool(pts) and slope >= math.log(thresholds.ueg_lambda_min) and all(
        math.isfinite(v) for v in floor.values()
    )
    return RateFit(slope, intercept, max(thresholds.fit_n_lo, 1), n_max, resid, floor, passed)


def _field_record(j: int, es: ProjPoint, eu: ProjPoint, cert: ConvergenceCert) -> dict:
    """The report record of site j: E^s and E^u as [re, im] of the affine
    coordinate or "inf", n* and the fitted rates of both sides."""

    def point(p: ProjPoint):
        z = p.affine
        return "inf" if z is None else [z.real, z.imag]

    return {
        "j": j,
        "Es": point(es),
        "Eu": point(eu),
        "n_star_s": cert.n_star_s,
        "n_star_u": cert.n_star_u,
        "rate_s": cert.rate_s,
        "rate_u": cert.rate_u,
    }


class _SweepField:
    """A report field that, unless one was given, reads the attribute of the
    same name of the report's sweep, which builds it when first read.  The
    certificate gives none; a caller may, through ``dataclasses.replace``
    (the benchmark's own tests perturb a field that way)."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return None  # the field's default: read through the sweep
        given = report.__dict__.get(self.name)
        return getattr(report.sweep, self.name) if given is None else given

    def __set__(self, report, value):
        report.__dict__[self.name] = value


@dataclass(frozen=True, kw_only=True)
class DominationReport:
    """Full finite-window dominated-splitting certificate.

    ``verdict`` is one of "dominated", "not_dominated", "inconclusive".
    A negative verdict is only issued on a witnessed violation (separation
    collapse, vanished product); estimator failure alone is inconclusive.
    The fields ``es``, ``eu`` and ``certs`` live in ``sweep`` alone, which
    builds them when they are first read; the report keeps a copy only of a
    value passed to it in their place.
    """

    verdict: str
    svg: RateFit
    fi: RateFit
    es: dict[int, ProjPoint] = _SweepField()
    eu: dict[int, ProjPoint] = _SweepField()
    certs: dict[int, ConvergenceCert] = _SweepField()
    failed_js: list[int]
    min_separation: float | None
    argmin_separation: int | None
    n_dom: int | None
    lambda_dom: float | None
    invariance_max_residual: float | None
    norm_floor_log: dict[int, float]
    witnesses: list[str]
    notes: list[str]
    thresholds: Thresholds
    window: tuple[int, int]
    jrange: tuple[int, int]
    sweep: ProductSweep = dc_field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        es, eu, certs = self.es, self.eu, self.certs
        return {
            "verdict": self.verdict,
            "svg": self.svg.to_json_dict(),
            "fi": self.fi.to_json_dict(),
            "fields": [_field_record(j, es[j], eu[j], certs[j]) for j in sorted(es)],
            "failed_js": self.failed_js,
            "min_separation": self.min_separation,
            "argmin_separation": self.argmin_separation,
            "n_dom": self.n_dom,
            "lambda_dom": self.lambda_dom,
            "invariance_max_residual": self.invariance_max_residual,
            "norm_floor_log": [[n, v] for n, v in sorted(self.norm_floor_log.items())],
            "witnesses": self.witnesses,
            "notes": self.notes,
            "thresholds": self.thresholds.to_json_dict(),
            "window": list(self.window),
            "jrange": list(self.jrange),
        }


def _gap_search(
    sweep: ProductSweep, thresholds: Thresholds
) -> tuple[int | None, float | None]:
    """Smallest N with log||B_N u|| - log||B_N s|| >= log(gap_lambda) - 1e-12
    at every estimated site still inside the window at that depth; sites whose
    room is exhausted drop out of the minimum (finite-window truncation).
    A vector whose image vanishes has log norm -inf from then on.  All sites
    step together, depth by depth.  Returns (N, achieved min gap factor)."""
    js = sweep.js
    if not len(js):
        return None, None
    lo, hi = sweep.window
    want = math.log(thresholds.gap_lambda) - 1e-12
    x0, x1 = np.stack([sweep.eu_vec, sweep.es_vec], axis=1)  # sides u, s
    logs = np.zeros((2, len(js)))
    gone = np.zeros((2, len(js)), dtype=bool)  # the image vanished: log norm -inf
    n_limit = min(thresholds.n_cap, hi - int(js[0]) + 1)
    rows = js - lo - 1
    # sites with j + n - 1 <= hi, a prefix of js, at n = 1 .. n_limit
    lives = np.searchsorted(js, hi + 1 - np.arange(1, n_limit + 1), side="right")
    for n, live in enumerate(lives.tolist(), start=1):
        x0, x1, logs, gone = x0[:, :live], x1[:, :live], logs[:, :live], gone[:, :live]
        w0, w1 = _apply(sweep.factors[:, rows[:live] + n], x0, x1)
        nw = np.hypot(np.abs(w0), np.abs(w1))
        gone = gone | (nw == 0.0)
        vanished = gone.any()
        if vanished:  # a vanished vector stays zero, and dividing by 1 keeps its log
            nw = np.where(gone, 1.0, nw)
        logs = logs + np.log(nw)
        x0, x1 = _unit(w0, w1, nw)
        gap = logs[0] - logs[1]
        if vanished:
            gap[gone[1]] = INF
            gap[gone[0]] = NEG_INF
            lost = np.flatnonzero(gone[0])
            if lost.size and hi - int(js[lost[0]]) + 1 >= n_limit:
                return None, None  # that site keeps the minimum at -inf to the last N
        worst = float(gap.min())
        if worst >= want:
            return n, math.exp(worst) if worst != INF else INF
    return None, None


def check_domination(
    seq: MatrixSequence,
    thresholds: Thresholds = Thresholds(),
    jrange: tuple[int, int] | None = None,
) -> DominationReport:
    """Runs the whole pipeline: profiles, field estimation, separation,
    domination-gap search, and norm floors, returning a structured verdict."""
    notes: list[str] = []
    n_max = thresholds.n_max
    if n_max >= 1 and len(seq) < n_max + 2:
        n_max = max(1, len(seq) - 2)
        notes.append(f"n_max capped to {n_max} by window length {len(seq)}")
    sweep = estimate_fields(seq, jrange, n_max, thresholds.split_tol)
    return _certificate(seq, thresholds, sweep, notes)


def _certificate(
    seq: MatrixSequence,
    thresholds: Thresholds,
    sweep: ProductSweep,
    notes: list[str],
) -> DominationReport:
    """The verdict from one sweep's log-sigma layers and fields."""
    lo, hi = seq.window
    witnesses: list[str] = []
    svg_fit, fi_fit = _svg_fi_fits(sweep, thresholds)
    floor = _norm_floor(sweep)
    j_lo, j_hi = sweep.jrange
    failed = sweep.failed

    edge_failures = [j for j in failed if min(j - lo, hi - j + 1) < 12]
    if edge_failures:
        notes.append(
            "one-sided window: estimation ran out of room near the edge "
            f"(truncated products) at js {edge_failures[:8]}"
        )
    if len(edge_failures) < len(failed):
        notes.append(
            "directions did not converge at some interior sites "
            "(degenerate or slowly contracting products)"
        )

    min_sep: float | None = None
    argmin: int | None = None
    if len(sweep.js):
        sep = _dist(sweep.es_vec, sweep.eu_vec)
        i = int(np.argmin(sep))  # the first of equal minima, as a scan in j would keep
        min_sep, argmin = float(sep[i]), int(sweep.js[i])

    _, res_s, res_u = invariance_residuals(seq, sweep)
    inv_max = float(np.maximum(res_s, res_u).max()) if len(res_s) else None

    n_dom, lambda_dom = _gap_search(sweep, thresholds)

    vanished = any(v == NEG_INF for v in floor.values())
    if vanished:
        witnesses.append("condition (d)': some inf_j ||B_n(j)|| vanished on the window")
    if min_sep is not None and min_sep <= thresholds.sep_min:
        witnesses.append(
            f"condition (c): separation collapse, d(Eu, Es) = {min_sep:.3e} "
            f"<= sep_min at j = {argmin}"
        )

    if witnesses:
        verdict = "not_dominated"
    elif (
        not failed
        and min_sep is not None
        and min_sep > thresholds.sep_min
        and n_dom is not None
        and not vanished
    ):
        verdict = "dominated"
    else:
        verdict = "inconclusive"

    return DominationReport(
        verdict=verdict,
        svg=svg_fit,
        fi=fi_fit,
        failed_js=failed,
        min_separation=min_sep,
        argmin_separation=argmin,
        n_dom=n_dom,
        lambda_dom=lambda_dom,
        invariance_max_residual=inv_max,
        norm_floor_log=floor,
        witnesses=witnesses,
        notes=notes,
        thresholds=thresholds,
        window=(lo, hi),
        jrange=(j_lo, j_hi),
        sweep=sweep,
    )
