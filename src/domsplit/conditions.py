"""Finite-window estimators for the singular-value gap and fast-invertibility
conditions, and the full dominated-splitting certificate.

All suprema, infima, and ratios are handled in the log domain.  Verdicts are
threshold-based and every threshold is configuration, echoed into reports:
a finite window can only certify behaviour at its own scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cocycle import (
    ConvergenceCert,
    MatrixSequence,
    ProductSweep,
    _PAIRS,
    _apply,
    _dist,
    _fit_lines,
    _json_fields,
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
_VERDICTS = {"pass": "dominated", "fail": "not_dominated", "inconclusive": "inconclusive"}


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
        # the SVG and UEG tests compare log mu_min and log ueg_lambda_min.  A
        # chordal distance never exceeds 2, so sep_min >= 2 would witness a
        # collapse of any fields, and past split_tol = 2 every step closes a run
        for name, value in self.to_json_dict().items():
            if not math.isfinite(value):
                raise InvalidSpec(f"{name} must be finite, got {value}")
        for name, bad, need in (
            ("n_max", self.n_max < 1, "be at least 1"),
            ("mu_min", self.mu_min <= 0.0, "be positive"),
            ("sep_min", self.sep_min < 0.0, "be at least 0"),
            ("sep_min", self.sep_min >= 2.0, "be below 2, the largest chordal distance"),
            ("n_cap", self.n_cap < 1, "be at least 1"),
            ("gap_lambda", self.gap_lambda <= 1.0, "exceed 1"),
            ("split_tol", self.split_tol <= 0.0, "be positive"),
            ("split_tol", self.split_tol > 2.0, "be at most 2, the largest chordal distance"),
            ("ueg_lambda_min", self.ueg_lambda_min <= 0.0, "be positive"),
            ("fit_n_lo", self.fit_n_lo < 0, "be at least 0"),
        ):
            if bad:
                raise InvalidSpec(f"{name} must {need}, got {getattr(self, name)}")

    def to_json_dict(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(sup_j ratio_n) against n.

    ``rate`` is the signed per-step exponent (the slope); a decaying profile
    has rate < 0 and fitted mu = exp(-rate).  Entries of ``sup_log`` and the
    table are natural-log ratios; +-inf mark vanished / rank-one products.
    ``rows`` holds the table: (first j, first n, the padded ratio grid whose
    row k holds depth first n + k at grid.shape[1] - k starts from first j).
    ``outcome`` is the fit's ``_outcome``, which ``_rate_fit`` decides, and
    ``passed``, the one the JSON document writes, is ``outcome == "pass"``.
    """

    rate: float
    log_c: float
    n_lo: int
    n_hi: int
    residual_max: float
    sup_log: dict[int, float] = dc_field(repr=False, metadata=_PAIRS)
    passed: bool = False
    rows: tuple = dc_field(default=(), repr=False, compare=False)
    outcome: str = dc_field(default="inconclusive", compare=False)

    @property
    def mu(self) -> float:
        return math.exp(-self.rate)

    def table_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The j, n and log ratio of every table cell, as arrays in (j, n)
        order, read from the grid in ``rows``."""
        return _staircase_cells(*(self.rows or (0, 0, np.empty((0, 0)))))

    def to_json_dict(self) -> dict:
        return _json_fields(self) | {"mu": self.mu}


def _outcome(witnessed: bool, gates_hold: bool) -> str:
    """The evidence rule of every report: "fail" on a witness, a concrete
    violation; else "pass" when every gate holds, else "inconclusive"."""
    return "fail" if witnessed else "pass" if gates_hold else "inconclusive"


def _log_ratio_grid(num: np.ndarray, den: np.ndarray, vanished: bool) -> np.ndarray:
    """max(num[k, j], num[k, j + 1]) - den[k, j] in the log domain over a
    staircase whose row k holds den.shape[1] - k cells, +inf where the
    denominator product vanished, which only a sweep with a ``vanished``
    product has.  den holds +inf past the staircase, so the cells there are
    -inf, or nan where num is +inf too."""
    width = den.shape[1]
    r = np.maximum(num[:, :width], num[:, 1:width + 1])
    with np.errstate(invalid="ignore"):  # inf - inf, and -inf - -inf where den vanished
        r -= den
    if vanished:
        r[den == NEG_INF] = INF
    return r


def _sup_row(grid: np.ndarray, count: int) -> np.ndarray:
    """The sup of each of the count depth rows of a ``_log_ratio_grid``, -inf on
    an empty row and, past the last row, that row's; nan cells are skipped."""
    sup = np.fmax.reduce(grid, axis=1, initial=NEG_INF)
    return sup[np.minimum(np.arange(count), len(sup) - 1)]


def _rate_fit(sup: np.ndarray, first: int, n_lo: int, passes, rows: tuple = ()) -> RateFit:
    """The RateFit of a profile's sup row, entry k at n = first + k: the line
    of ``_fit_lines`` through its finite log sups over max(n_lo, first) ..
    n_max, (-inf, -inf) with no point and flat through one.  Its ``_outcome``
    is witnessed by a +inf ratio (a vanished denominator) or by two or more
    fitted points whose line fails the profile's own ``passes(rate, log_c)``,
    and passes on at least one n and that test: all-zero ratios (rank one)
    pass; a failed test on fewer than two points is inconclusive."""
    n_lo = max(n_lo, first)
    n_max = first + len(sup) - 1
    ys = sup[n_lo - first:]
    finite = np.isfinite(ys)
    xs, ys = np.arange(n_lo, n_max + 1.0)[finite, None], ys[finite, None]  # one column each
    if len(ys) < 2:
        rate, log_c, resid = (0.0, float(ys[0, 0]), 0.0) if len(ys) else (NEG_INF, NEG_INF, 0.0)
    else:
        rate, log_c = (float(v[0]) for v in _fit_lines(xs, ys, np.ones(ys.shape, dtype=bool)))
        resid = float(np.abs(ys - (log_c + rate * xs)).max())
    holds = passes(rate, log_c)
    outcome = _outcome((sup == INF).any() or len(ys) > 1 and not holds, n_lo <= n_max and holds)
    return RateFit(rate, log_c, n_lo, n_max, resid, dict(enumerate(sup.tolist(), first)),
                   outcome == "pass", rows, outcome)


def _svg_fi_fits(sweep: ProductSweep, thresholds: Thresholds) -> tuple[RateFit, RateFit]:
    lo, n_max, n_lo = sweep.window[0], sweep.n_max, thresholds.fit_n_lo
    ls1, ls2 = sweep.log_s1_grid, sweep.log_s2_grid
    # svg: sigma2(B_n) / sigma1(B_{n+1}), n = 0 .. n_max; fi: sigma1(B_n) /
    # sigma1(B_{n+1}), n = 1 .. n_max; each row one start shorter than its numerator
    svg_grid = _log_ratio_grid(ls2[:-1], ls1[1:, :-1], sweep.vanished)
    fi_grid = _log_ratio_grid(ls1[1:-1], ls1[2:, :-2], sweep.vanished)
    svg = _rate_fit(_sup_row(svg_grid, n_max + 1), 0, n_lo,
                    lambda rate, log_c: -rate > math.log(thresholds.mu_min), (lo, 0, svg_grid))
    fi = _rate_fit(_sup_row(fi_grid, n_max), 1, n_lo,
                   lambda rate, log_c: (rate < (1.0 - thresholds.epsilon) * -svg.rate
                                        and log_c <= thresholds.fi_log_c_max),
                   (lo, 1, fi_grid))
    return svg, fi


def _profile_sweep(seq: MatrixSequence, n_max: int, thresholds: Thresholds | None = None):
    """The ``product_sweep`` of a profile to depth n_max, whose window must
    hold n_max + 2 entries, and whose given ``thresholds`` must share n_max."""
    if thresholds is not None and thresholds.n_max != n_max:
        raise InvalidSpec(f"n_max={n_max} differs from thresholds.n_max={thresholds.n_max}")
    if len(seq) < n_max + 2:
        raise WindowExceeded(
            f"window length {len(seq)} too short for n_max={n_max} (needs >= n_max + 2)"
        )
    return product_sweep(seq, n_max)


def svg_profile(seq: MatrixSequence, n_max: int, thresholds: Thresholds | None = None) -> RateFit:
    """Worst-case gap ratios sigma2(B_n)/sigma1(B_{n+1}), n = 0 .. n_max, and
    their decay fit, which passes on a fitted mu above ``mu_min``.  n_max sets
    the depth; given thresholds must have the same n_max, and None gives the
    defaults at this depth."""
    return _svg_fi_fits(_profile_sweep(seq, n_max, thresholds), thresholds or Thresholds())[0]


def fi_profile(seq: MatrixSequence, n_max: int, thresholds: Thresholds | None = None) -> RateFit:
    """Worst-case norm ratios sigma1(B_n)/sigma1(B_{n+1}), n = 1 .. n_max, and
    their growth fit.  n_max sets the depth; given thresholds must have the
    same n_max, and None gives the defaults at this depth.

    Passes when the fitted growth stays below (1 - epsilon) times the fitted
    SVG rate and the fitted constant stays moderate; on a finite window an
    exploding constant is how an Example-1-style failure shows up, since the
    per-n supremum saturates at the window edge instead of growing with n.
    """
    return _svg_fi_fits(_profile_sweep(seq, n_max, thresholds), thresholds or Thresholds())[1]


def norm_floor(seq: MatrixSequence, n_max: int) -> dict[int, float]:
    """{n: inf_j log sigma1(B_n(j))} for n = 1 .. n_max."""
    return dict(enumerate(_norm_floor(_profile_sweep(seq, n_max)).tolist(), 1))


def _norm_floor(sweep: ProductSweep) -> np.ndarray:
    """The row of inf_j log sigma1(B_n(j)), n = 1 .. n_max; the min skips the
    cells past the log sigma1 grid's staircase, which hold +inf."""
    return sweep.log_s1_grid[1:sweep.n_max + 1].min(axis=1)


def ueg_check(seq: MatrixSequence, n_max: int, thresholds: Thresholds | None = None) -> RateFit:
    """Uniform exponential growth of inf_j ||A_n(j)||, n = 1 .. n_max, for
    unimodular input: passes on a fitted rate of at least log ueg_lambda_min
    with the floor finite.  n_max sets the depth; given thresholds must have
    the same n_max, and None gives the defaults at this depth."""
    a, b, c, d = seq.factors
    off = np.flatnonzero(np.abs(a * d - b * c - 1.0) > 1e-10)
    if off.size:
        raise NotUnimodular(f"det(B({seq.lo + int(off[0])})) differs from 1 beyond 1e-10")
    floor = _norm_floor(_profile_sweep(seq, n_max, thresholds))
    thresholds = thresholds or Thresholds()
    return _rate_fit(floor, 1, thresholds.fit_n_lo,
                     lambda rate, log_c: (rate >= math.log(thresholds.ueg_lambda_min)
                                          and bool(np.isfinite(floor).all())))


def _field_records(sweep: ProductSweep) -> list[dict]:
    """Each converged site's report record, in ascending j, from the sweep's
    columns: E^s and E^u as [re, im] of v2 / v1 by Python's complex division,
    as ``ProjPoint.affine`` takes it, or "inf" where v1 == 0; n* and the
    fitted rates of both sides.  A per-site column joins the records here."""

    def point(v1: complex, v2: complex):
        return "inf" if v1 == 0 else [(z := v2 / v1).real, z.imag]

    keys = ("j", "Es", "Eu", "n_star_s", "n_star_u", "rate_s", "rate_u")
    points = (list(map(point, *vec.tolist())) for vec in (sweep.es_vec, sweep.eu_vec))
    columns = (sweep.js.tolist(), *points, *sweep.n_star.tolist(), *sweep.rates)
    return [dict(zip(keys, row)) for row in zip(*columns)]


class _SweepField:
    """A report field that, unless one was given, reads the attribute of the
    same name of the report's sweep, which builds it when first read.  The
    certificate gives none; a caller may, through ``dataclasses.replace``
    (the benchmark's own tests perturb a field that way), and the report's
    JSON document, read from the sweep, still writes the sweep's fields."""

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
    value passed to it in their place, which its document, written from the
    sweep's columns, does not read.
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
    norm_floor_log: dict[int, float] = dc_field(metadata=_PAIRS)
    witnesses: list[str]
    notes: list[str]
    thresholds: Thresholds
    window: tuple[int, int]
    jrange: tuple[int, int]
    sweep: ProductSweep = dc_field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        records = _field_records(self.sweep)
        return _json_fields(self, skip=("es", "eu", "certs")) | {"fields": records}


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
    n_limit = min(thresholds.n_cap, hi - int(js[0]) + 1)
    rows = js - lo - 1
    # sites with j + n - 1 <= hi, a prefix of js, at n = 1 .. n_limit
    lives = np.searchsorted(js, hi + 1 - np.arange(1, n_limit + 1), side="right")
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0, and -inf - -inf: set below
        for n, live in enumerate(lives.tolist(), start=1):
            x0, x1, logs = x0[:, :live], x1[:, :live], logs[:, :live]
            w0, w1 = _apply(sweep.seq.factors[:, rows[:live] + n], x0, x1)
            nw = np.hypot(np.abs(w0), np.abs(w1))
            logs = logs + np.log(nw)
            gap = logs[0] - logs[1]
            x0, x1 = _unit(w0, w1, nw)  # a vanished image stays zero
            lost = np.flatnonzero(logs[0] == NEG_INF)
            if lost.size:
                gap[lost] = NEG_INF
                if hi - int(js[lost[0]]) + 1 >= n_limit:
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
    return _certificate(thresholds, sweep, notes)


def _certificate(thresholds: Thresholds, sweep: ProductSweep, notes: list[str]) -> DominationReport:
    """The verdict from one sweep's log-sigma grids and fields, and from its
    sequence, the only one that the stages read: the ``_VERDICTS`` name of
    the ``_outcome`` of its witnesses and of its five gates."""
    lo, hi = sweep.window
    witnesses: list[str] = []
    svg_fit, fi_fit = _svg_fi_fits(sweep, thresholds)
    floor = _norm_floor(sweep)
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

    _, res_s, res_u = invariance_residuals(sweep)
    inv_max = float(np.maximum(res_s, res_u).max()) if len(res_s) else None

    n_dom, lambda_dom = _gap_search(sweep, thresholds)

    vanished = bool((floor == NEG_INF).any())
    if vanished:
        witnesses.append("condition (d)': some inf_j ||B_n(j)|| vanished on the window")
    if min_sep is not None and min_sep <= thresholds.sep_min:
        witnesses.append(
            f"condition (c): separation collapse, d(Eu, Es) = {min_sep:.3e} "
            f"<= sep_min at j = {argmin}"
        )

    gates = (not failed and min_sep is not None and min_sep > thresholds.sep_min
             and n_dom is not None and not vanished)
    return DominationReport(
        verdict=_VERDICTS[_outcome(bool(witnesses), gates)],
        svg=svg_fit,
        fi=fi_fit,
        failed_js=failed,
        min_separation=min_sep,
        argmin_separation=argmin,
        n_dom=n_dom,
        lambda_dom=lambda_dom,
        invariance_max_residual=inv_max,
        norm_floor_log=dict(enumerate(floor.tolist(), 1)),
        witnesses=witnesses,
        notes=notes,
        thresholds=thresholds,
        window=(lo, hi),
        jrange=tuple(sweep.jrange),
        sweep=sweep,
    )
