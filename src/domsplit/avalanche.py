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
    _depth_sums,
    _factor_values,
    _json_fields,
    _ldexp_c,
    _mul_rows,
    _site_window,
    _staircase_cells,
    _step_table,
    forward_scan,
    product_sweep,
)
from .conditions import _outcome
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
    The factors' values are the sequence's kept ones.  Each factor takes its
    exact 2^k prescale (``seq.prescale_k``; none does in band) before the
    pair product, which then cannot over- or underflow; 2^-(k1 + k2) is
    taken off sigma1 where that stays a normal float, else off its log.
    Raises ZeroMatrix when a pair product is the zero matrix."""
    k = seq.prescale_k
    z = seq.factors if k is None else _ldexp_c(seq.factors, k)
    p1 = _factor_values(_mul_rows(z[:, 1:], z[:, :-1]))[0]
    if np.count_nonzero(p1) < len(p1):  # sigma1 is 0 on the zero matrices alone
        raise ZeroMatrix("singular values of the zero matrix")
    # divide: sigma2 = 0 on rank-one factors, and the raw pairs that underflow
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        log_s1, log_s2, log_pair = np.log(seq.sigma1), np.log(seq.sigma2), np.log(p1)
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
        raise InvalidSpec(f"mu must exceed 1 and be finite, got {mu}")
    norms = log_s1, log_s2, log_pair = _window_norms(seq)
    ap3_log = float(np.max(log_s2 - log_s1))  # -inf where sigma2 = 0
    ap4_log = float(np.max(log_s1[1:] + log_s1[:-1] - log_pair, initial=NEG_INF))
    ok = ap3_log <= -math.log(mu) and ap4_log <= 0.25 * math.log(mu)
    return norms, (math.exp(ap3_log), math.exp(ap4_log), ok)


def ap_conditions(seq: MatrixSequence, mu: float) -> tuple[float, float, bool]:
    """Worst single-step gap ratio and pairwise norm-product ratio.

    Returns (ap3_worst, ap4_worst, pass) where pass requires
    ap3_worst <= 1/mu and ap4_worst <= mu^(1/4).  Raises InvalidSpec unless
    1 < mu < inf.
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
        if n and sweep.log_s1_grid[n, start - sub.lo] == NEG_INF:
            raise ProductVanished(f"product of length {n} starting at j={start} vanished")
    s_steps, u_steps = ({n + 1: d for n, d in _step_table(col).items()} for col in sweep.steps.T)
    return DriftTables(s_steps, u_steps, *_fit_rates(sweep.steps))


@dataclass(frozen=True)
class ApReport:
    """Avalanche audit: hypothesis margins, residual grid, and envelope fit.

    ``rows`` holds (lo, 3, the padded residual grid), whose row n - 3 holds
    residual(j, n) at starts j = lo .. hi - n + 1; ``residuals`` is built
    from it when first read.  ``passed``, the audit, is the one decision the
    report stores and its JSON document writes; ``outcome`` is read off it.
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

    @property
    def outcome(self) -> str:  # a residual that fails is a witness; no c_fit, no evidence
        return _outcome(self.c_fit is not None and not self.passed, self.passed)

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
        return _json_fields(self)


def ap_report(
    seq: MatrixSequence,
    mu: float,
    n_max: int,
    envelope: float = RESIDUAL_ENVELOPE,
) -> ApReport:
    """Checks the hypotheses and fills the residual grid for n in [3, n_max].

    Every forward norm log sigma1(B_n(j)) comes from one ``product_sweep``;
    the single and pair norms are computed once for the window, and the
    residual is one pass over the sweep's log sigma1 grid and the depth sums
    of those norms.  The report keeps that grid; ``ApReport.residuals`` is
    built from it when first read.
    Raises InvalidSpec for n_max < 3 or mu outside (1, inf), ZeroMatrix
    when a pair product vanishes and ProductVanished, for the lowest start
    and then the shortest length, when a longer one does.
    """
    if n_max < 3:
        raise InvalidSpec(f"n_max must be at least 3, got {n_max}")
    if not 0.0 <= envelope < math.inf:  # a nan or negative envelope fails on no evidence
        raise InvalidSpec(f"envelope must be finite and at least 0, got {envelope}")
    lo, hi = seq.window
    (log_single, _, log_pair), (ap3, ap4, ok) = _ap_margins(seq, mu)
    sweep = product_sweep(seq, n_max - 1)  # layers n = 0 .. n_max
    size = hi - lo + 1
    starts = max(size - 2, 0)  # j = lo .. hi - 2 have room for n = 3
    depths = range(3, min(n_max, size) + 1)
    top = depths.stop - 1
    if sweep.vanished:
        # the lowest start, then the shortest length, as one forward_scan per start
        j, n = np.nonzero(sweep.log_s1_grid[2:top + 1, :starts].T == NEG_INF)
        if len(j):
            raise ProductVanished(
                f"product of length {n[0] + 2} starting at j={lo + j[0]} vanished")

    # row n of the staircase holds the pair (mids, pairs) of what depth n adds
    # at the starts j = lo .. hi - n + 1, and (0, 0) past them: log sigma1 of
    # B(j + n - 2) from n = 3 and of B(j + n - 1) B(j + n - 2) from n = 2, so
    # that the depth sums run in ap_residual's order
    terms = np.zeros((size + 1, 2))
    terms[2:, 0] = log_single[:-1]
    terms[2:, 1] = log_pair
    sums = np.zeros((top + 1, size, 2))
    for n in range(2, top + 1):
        sums[n, :size - n + 1] = terms[n:]
    sums[2:3, :, 0] = 0.0  # the mids start at depth 3
    _depth_sums(sums, size)
    mids, pairs = sums[3:, :starts, 0], sums[3:, :starts, 1]
    # written over the mids: a block of its own, with its temporaries, made
    # glibc trim and fault in again ~200 KB of heap per call in a closed loop
    grid = np.add(sweep.log_s1_grid[3:top + 1, :starts], mids, out=mids)
    np.abs(np.subtract(grid, pairs, out=grid), out=grid)

    scale = mu ** -0.5
    c_fit = None
    slope = None
    if depths:
        # row k holds starts - k cells and -inf past them, which no row max
        # takes; max, not fmax, so that a nan residual still propagates
        grid[np.arange(starts) >= starts - np.arange(len(depths))[:, None]] = NEG_INF
        per_n_max = grid.max(axis=1).tolist()
        # division by n mu^(-1/2) is monotone, so the row maxima give c_fit
        c_fit = max(r / (n * scale) for n, r in zip(depths, per_n_max))
        # row n holds max_j residual / n; the fit's sums depend on the
        # column's length, so it ends at the last depth with a positive maximum
        column = np.full((depths.stop, 1), np.nan)
        column[depths.start:, 0] = np.divide(per_n_max, depths)
        slope = _fit_rates(column[:np.flatnonzero(column > 0).max(initial=0) + 1])[0]
    # a window too short for a residual (L < 3) has no evidence either way
    audit = ok and c_fit is not None and c_fit <= envelope
    return ApReport(
        mu=mu,
        ap3_worst=ap3,
        ap4_worst=ap4,
        conditions_pass=ok,
        envelope=envelope,
        c_fit=c_fit,
        fitted_slope=slope,
        passed=audit,
        rows=(lo, 3, grid),
    )
