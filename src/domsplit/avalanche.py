"""Avalanche-principle hypotheses, the exact telescoping identity, and the
residual bound, with the supporting norm-to-angle relations as predicates.

Norm products and ratios stay in the log domain throughout: residual grids
up to n ~ 50 at gap parameters ~ 1e4 would otherwise overflow intermediate
pairwise comparisons in edge generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .cocycle import (
    MatrixSequence,
    _fit_rates,
    _LN2,
    _mul_rows,
    _prescale_rows,
    _singular_values,
    _site_window,
    _staircase_cells,
    _step_table,
    forward_scan,
    product_sweep,
)
from .errors import Degenerate, InvalidSpec, ProductVanished, WindowExceeded, ZeroMatrix
from .matrix2c import Mat2C, mul, singular_values, svd2
from .projective import dist, expanding_image, most_contracted

NEG_INF = float("-inf")

# Envelope constant for |ratio - angle| in norm_angle_gap: the discrepancy
# is carried by the three off-diagonal terms of the twisted product, which a
# crude triangle inequality keeps below 8x the worst gap ratio.
ANGLE_ENVELOPE = 8.0
# Default residual envelope C in residual <= C * n * mu^(-1/2); empirical.
RESIDUAL_ENVELOPE = 5.0


def _log_sigma1(m: Mat2C) -> float:
    s1, _ = singular_values(m)
    return math.log(s1)


def _window_norms(seq: MatrixSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log sigma1 and log sigma2 of B(j) for j = lo .. hi, and log sigma1 of
    B(j+1) B(j) for j = lo .. hi - 1, each as one array over the window.
    Each factor takes its exact ``_prescale_rows`` 2^k (none does in band)
    once, for its singular values and before the pair product, which then
    cannot over- or underflow;
    2^-(k1 + k2) is taken off sigma1 where that stays a normal float, else
    off its log.  Raises ZeroMatrix when a pair product is the zero matrix."""
    prescaled = z, k, _ = _prescale_rows(seq.factors)
    s1, s2, _ = _singular_values(seq.factors, prescaled=prescaled)
    p1, _, zero = _singular_values(_mul_rows(z[:, 1:], z[:, :-1]), sigma2=False)
    if zero.any():
        raise ZeroMatrix("singular values of the zero matrix")
    # divide: sigma2 = 0 on rank-one factors, and the raw pairs that underflow
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        log_s1, log_s2, log_pair = np.log(s1), np.log(s2), np.log(p1)
        if k is not None:
            shift = k[1:] + k[:-1]
            raw = np.ldexp(p1, -shift)
            normal = (raw >= np.finfo(float).tiny) & (raw < math.inf)
            log_pair = np.where(normal, np.log(raw), log_pair - shift * _LN2)
    return log_s1, log_s2, log_pair


def _ap_margins(seq: MatrixSequence, mu: float):
    """The window norms of ``_window_norms`` and, from them, the result of
    ``ap_conditions``: (norms, (ap3_worst, ap4_worst, pass))."""
    if not 1.0 < mu < math.inf:  # also rejects nan
        raise ValueError(f"mu must exceed 1 and be finite, got {mu}")
    norms = log_s1, log_s2, log_pair = _window_norms(seq)
    ap3_log = float(np.max(log_s2 - log_s1))  # -inf where sigma2 = 0
    ap4_log = float(np.max(log_s1[1:] + log_s1[:-1] - log_pair, initial=NEG_INF))
    ok = ap3_log <= -math.log(mu) and ap4_log <= 0.25 * math.log(mu)
    return norms, (math.exp(ap3_log), math.exp(ap4_log), ok)


def ap_conditions(seq: MatrixSequence, mu: float) -> tuple[float, float, bool]:
    """Worst single-step gap ratio and pairwise norm-product ratio.

    Returns (ap3_worst, ap4_worst, pass) where pass requires
    ap3_worst <= 1/mu and ap4_worst <= mu^(1/4).
    """
    return _ap_margins(seq, mu)[1]


def telescoping_residual(seq: MatrixSequence, j: int, n: int) -> float:
    """|LHS - RHS| of the exact norm telescoping identity.

    log sigma1(B_n(j)) equals the sum of single-step log norms plus the sum
    of pairwise correction terms log[sigma1(B(j+k) B_k(j)) /
    (sigma1(B(j+k)) sigma1(B_k(j)))]; this holds for arbitrary sequences, so
    the returned value is pure floating-point error of the product engine.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if j < seq.lo or j + n - 1 > seq.hi:
        raise WindowExceeded(f"[{j}, {j + n - 1}] not inside [{seq.lo}, {seq.hi}]")
    prods = list(forward_scan(seq, j, n))
    lhs = prods[n].log_sigma1
    single = sum(_log_sigma1(seq[j + k]) for k in range(n))
    correction = 0.0
    for k in range(1, n):
        pk = prods[k]
        step = pk.log_scale + _log_sigma1(mul(seq[j + k], pk.core))
        correction += step - _log_sigma1(seq[j + k]) - pk.log_sigma1
    return abs(lhs - (single + correction))


def ap_residual(seq: MatrixSequence, j: int, n: int) -> float:
    """The avalanche residual |log||B_n|| + sum log||B(j+k)|| - sum log||pairs|||.

    Defined for n >= 3 (the hypotheses only control chains of that length).
    """
    if n < 3:
        raise ValueError("avalanche residual needs n >= 3")
    if j < seq.lo or j + n - 1 > seq.hi:
        raise WindowExceeded(f"[{j}, {j + n - 1}] not inside [{seq.lo}, {seq.hi}]")
    prods = list(forward_scan(seq, j, n))
    lhs = prods[n].log_sigma1
    mids = sum(_log_sigma1(seq[j + k]) for k in range(1, n - 1))
    pairs = sum(_log_sigma1(mul(seq[j + k + 1], seq[j + k])) for k in range(n - 1))
    return abs(lhs + mids - pairs)


def norm_angle_gap(e1: Mat2C, e2: Mat2C) -> tuple[float, float, float]:
    """(ratio, angle, discrepancy) for the product norm vs. axis alignment.

    ratio = sigma1(e2 e1) / (sigma1(e2) sigma1(e1)); angle is half the
    chordal distance d(s(e2), u(e1)) - i.e. |sin| of the principal angle
    between the contracted axis of e2 and the expanding image of e1, which
    equals |(V*(e2) U(e1))_11| exactly.  When both factors have strong gaps
    the discrepancy |ratio - angle| stays below ANGLE_ENVELOPE times the
    worse gap ratio.
    """
    sv1 = svd2(e1)
    sv2 = svd2(e2)
    if sv1.degenerate or sv2.degenerate:
        raise Degenerate("norm-angle comparison needs non-degenerate factors")
    ratio = math.exp(
        _log_sigma1(mul(e2, e1)) - math.log(sv2.sigma1) - math.log(sv1.sigma1)
    )
    angle = 0.5 * dist(most_contracted(sv2), expanding_image(sv1))
    return ratio, angle, abs(ratio - angle)


def unitary_overlap(e1: Mat2C, e2: Mat2C) -> float:
    """|(V*(e2) U(e1))_11|: the exact half-distance d(s(e2), u(e1)) / 2."""
    sv1 = svd2(e1)
    sv2 = svd2(e2)
    v1 = sv2.v_column(0)
    u1 = sv1.u_column(0)
    return abs(v1[0].conjugate() * u1[0] + v1[1].conjugate() * u1[1])


@dataclass(frozen=True)
class DriftTables:
    """Consecutive direction drifts d(s_n, s_{n-1}), d(u_n, u_{n-1}) at a site."""

    s_steps: dict[int, float]
    u_steps: dict[int, float]
    rate_s: float | None
    rate_u: float | None


def direction_drift(seq: MatrixSequence, j: int, n_max: int) -> DriftTables:
    """Per-n drift of the contracted/expanding directions at site j: the
    step columns of ``estimate_splitting``'s one-site sweep, run at tol 0 so
    that neither side stops before it runs out of room.  Raises
    ProductVanished when B_n(j) or B_n(j - n) vanishes within that room."""
    sub = _site_window(seq, j, n_max)
    sweep = product_sweep(sub, n_max, (j, j))
    s_depth, u_depth = min(n_max, sub.hi - j + 1), min(n_max, j - sub.lo)
    for n, start in ((s_depth, j), (u_depth, j - u_depth)):
        # a product through a vanished one vanishes too, so the deepest tells
        if n and sweep.log_s1[n][start - sub.lo] == NEG_INF:
            raise ProductVanished(f"product of length {n} starting at j={start} vanished")
    s_steps, u_steps = ({n + 1: d for n, d in _step_table(col).items()} for col in sweep.steps.T)
    return DriftTables(s_steps, u_steps, *_fit_rates(sweep.steps))


@dataclass(frozen=True)
class ApReport:
    """Avalanche audit: hypothesis margins, residual grid, and envelope fit.

    ``rows`` holds what the residuals are built from, when first read:
    (lo, 3, one residual array over j per n), where the array of depth n
    holds residual(j, n) at starts j = lo .. hi - n + 1.
    """

    mu: float
    ap3_worst: float
    ap4_worst: float
    conditions_pass: bool
    envelope: float  # asserted C in residual <= C n mu^(-1/2)
    c_fit: float | None  # max residual / (n mu^(-1/2)) over the grid
    fitted_slope: float | None  # trend of max_j residual(j, n)/n against n
    passed: bool
    rows: tuple = dc_field(repr=False, compare=False)

    @cached_property
    def residuals(self) -> dict[tuple[int, int], float]:
        """{(j, n): residual}, in (j, n) order."""
        j, n, r = _staircase_cells(*self.rows)
        return dict(zip(zip(j.tolist(), n.tolist()), r.tolist()))

    def residual_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The j, n, residual and bound n mu^(-1/2) of every grid cell, as
        arrays in (j, n) order."""
        j, n, r = _staircase_cells(*self.rows)
        return j, n, r, n * self.mu ** -0.5

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "ap3_worst": self.ap3_worst,
            "ap4_worst": self.ap4_worst,
            "conditions_pass": self.conditions_pass,
            "envelope": self.envelope,
            "c_fit": self.c_fit,
            "fitted_slope": self.fitted_slope,
            "passed": self.passed,
        }


def ap_report(
    seq: MatrixSequence,
    mu: float,
    n_max: int,
    envelope: float = RESIDUAL_ENVELOPE,
) -> ApReport:
    """Checks the hypotheses and fills the residual grid for n in [3, n_max].

    Every forward norm log sigma1(B_n(j)) comes from one ``product_sweep``;
    the single and pair norms are computed once for the window, and the
    residual is built depth by depth for every start j at once.  Its rows
    stay arrays; ``ApReport.residuals`` is built from them when first read.
    Raises ZeroMatrix when a pair product vanishes and ProductVanished, for
    the lowest start and then the shortest length, when a longer one does.
    """
    if n_max < 3:
        raise ValueError("avalanche audit needs n_max >= 3")
    if not 0.0 <= envelope < math.inf:  # a nan or negative envelope fails on no evidence
        raise InvalidSpec(f"envelope must be finite and at least 0, got {envelope}")
    lo, hi = seq.window
    (log_single, _, log_pair), (ap3, ap4, ok) = _ap_margins(seq, mu)
    forward = product_sweep(seq, n_max - 1).log_s1  # layers n = 0 .. n_max
    size = hi - lo + 1
    starts = max(size - 2, 0)  # j = lo .. hi - 2 have room for n = 3
    depths = range(3, min(n_max, size) + 1)
    # the lowest start, then the shortest length, as one forward_scan per start
    vanished = [(j, n) for n in range(2, depths.stop)
                for j in np.flatnonzero(forward[n][:starts] == NEG_INF).tolist()]
    if vanished:
        j, n = min(vanished)
        raise ProductVanished(f"product of length {n} starting at j={lo + j} vanished")

    # one row per depth n, at starts lo .. hi - n + 1, summed in ap_residual's order
    rows = []
    mids = np.zeros(starts)
    pairs = log_pair[:starts]
    for n in depths:
        m = size - n + 1
        mids = mids[:m] + log_single[n - 2:n - 2 + m]
        pairs = pairs[:m] + log_pair[n - 2:n - 2 + m]
        rows.append(np.abs(forward[n] + mids - pairs))

    scale = mu ** -0.5
    c_fit = None
    slope = None
    if rows:
        per_n_max = [float(r.max()) for r in rows]
        # division by n mu^(-1/2) is monotone, so the row maxima give c_fit
        c_fit = max(r / (n * scale) for n, r in zip(depths, per_n_max))
        # row n holds max_j residual / n; the fit's sums depend on the
        # column's length, so it ends at the last depth with a positive maximum
        column = np.full((depths.stop, 1), np.nan)
        column[depths.start:, 0] = np.divide(per_n_max, depths)
        slope = _fit_rates(column[:np.flatnonzero(column > 0).max(initial=0) + 1])[0]
    passed = ok and (c_fit is None or c_fit <= envelope)
    return ApReport(
        mu=mu,
        ap3_worst=ap3,
        ap4_worst=ap4,
        conditions_pass=ok,
        envelope=envelope,
        c_fit=c_fit,
        fitted_slope=slope,
        passed=passed,
        rows=(lo, 3, rows),
    )
