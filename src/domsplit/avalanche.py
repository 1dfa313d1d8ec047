"""Avalanche-principle hypotheses, the exact telescoping identity, and the
residual bound, with the supporting norm-to-angle relations as predicates.

Norm products and ratios stay in the log domain throughout: residual grids
up to n ~ 50 at gap parameters ~ 1e4 would otherwise overflow intermediate
pairwise comparisons in edge generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cocycle import (
    MatrixSequence,
    _factor_arrays,
    _fit_rate,
    _point_steps,
    _singular_values,
    backward_scan,
    forward_scan,
    product_sweep,
)
from .errors import Degenerate, ProductVanished, WindowExceeded, ZeroMatrix
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


def _pair_log_norm(seq: MatrixSequence, j: int) -> float:
    """log sigma1(B(j+1) B(j))."""
    return _log_sigma1(mul(seq[j + 1], seq[j]))


def _window_norms(seq: MatrixSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log sigma1 and log sigma2 of B(j) for j = lo .. hi, and log sigma1 of
    B(j+1) B(j) for j = lo .. hi - 1, each as one array over the window.
    Raises ZeroMatrix when a pair product is the zero matrix."""
    a, b, c, d = _factor_arrays(seq)
    s1, s2, _ = _singular_values(a, b, c, d)
    x, y = slice(1, None), slice(None, -1)  # B(j+1) and B(j)
    pair = (a[x] * a[y] + b[x] * c[y], a[x] * b[y] + b[x] * d[y],
            c[x] * a[y] + d[x] * c[y], c[x] * b[y] + d[x] * d[y])
    p1, _, zero = _singular_values(*pair)
    if zero.any():
        raise ZeroMatrix("singular values of the zero matrix")
    with np.errstate(divide="ignore"):  # sigma2 = 0 on rank-one factors
        return np.log(s1), np.log(s2), np.log(p1)


def _ap_margins(seq: MatrixSequence, mu: float):
    """The window norms of ``_window_norms`` and, from them, the result of
    ``ap_conditions``: (norms, (ap3_worst, ap4_worst, pass))."""
    if mu <= 1.0:
        raise ValueError("mu must exceed 1")
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
    pairs = sum(_pair_log_norm(seq, j + k) for k in range(0, n - 1))
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
    """Per-n drift of the contracted/expanding directions at site j."""
    n_s = min(n_max, seq.hi - j + 1)
    n_u = min(n_max, j - seq.lo)

    def steps(scan, side: str) -> dict[int, float]:
        return {n: d for n, _, d in _point_steps(scan, side) if d is not None}

    s_steps = steps(forward_scan(seq, j, n_s), "s")
    u_steps = steps(backward_scan(seq, j, n_u), "u")
    return DriftTables(s_steps, u_steps, _fit_rate(s_steps), _fit_rate(u_steps))


@dataclass(frozen=True)
class ApReport:
    """Avalanche audit: hypothesis margins, residual grid, and envelope fit."""

    mu: float
    ap3_worst: float
    ap4_worst: float
    conditions_pass: bool
    residuals: dict[tuple[int, int], float] = dc_field(repr=False)
    envelope: float  # asserted C in residual <= C n mu^(-1/2)
    c_fit: float | None  # max residual / (n mu^(-1/2)) over the grid
    fitted_slope: float | None  # trend of max_j residual(j, n)/n against n
    passed: bool

    def to_json_dict(self, include_table: bool = False) -> dict:
        doc = {
            "mu": self.mu,
            "ap3_worst": self.ap3_worst,
            "ap4_worst": self.ap4_worst,
            "conditions_pass": self.conditions_pass,
            "envelope": self.envelope,
            "c_fit": self.c_fit,
            "fitted_slope": self.fitted_slope,
            "passed": self.passed,
        }
        if include_table:
            bound = self.mu ** -0.5
            doc["residuals"] = [
                [j, n, r, n * bound] for (j, n), r in sorted(self.residuals.items())
            ]
        return doc


def ap_report(
    seq: MatrixSequence,
    mu: float,
    n_max: int,
    envelope: float = RESIDUAL_ENVELOPE,
) -> ApReport:
    """Checks the hypotheses and fills the residual grid for n in [3, n_max].

    Every forward norm log sigma1(B_n(j)) comes from one ``product_sweep``;
    the single and pair norms are computed once for the window, and the
    residual is built depth by depth for every start j at once.  Raises
    ZeroMatrix when a pair product vanishes and ProductVanished, for the
    lowest start and then the shortest length, when a longer one does.
    """
    if n_max < 3:
        raise ValueError("avalanche audit needs n_max >= 3")
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

    # row n - 3 holds depth n at starts lo .. hi - n + 1, summed in ap_residual's order
    grid = np.full((len(depths), starts), np.nan)
    mids = np.zeros(starts)
    pairs = log_pair[:starts]
    for row, n in enumerate(depths):
        m = size - n + 1
        mids = mids[:m] + log_single[n - 2:n - 2 + m]
        pairs = pairs[:m] + log_pair[n - 2:n - 2 + m]
        grid[row, :m] = np.abs(forward[n] + mids - pairs)
    keys = [(j, n) for j in range(lo, hi - 1) for n in range(3, min(n_max, hi - j + 1) + 1)]
    room = np.arange(starts) + np.array(depths)[:, None] <= size
    residuals = dict(zip(keys, grid.T[room.T].tolist()))

    scale = mu ** -0.5
    c_fit = None
    slope = None
    if residuals:
        ns = np.array(depths, dtype=float)[:, None]
        c_fit = float(np.nanmax(grid / (ns * scale)))
        per_n_max = np.nanmax(grid, axis=1).tolist()
        slope = _fit_rate({n: r / n for n, r in zip(depths, per_n_max) if r > 0})
    passed = ok and (c_fit is None or c_fit <= envelope)
    return ApReport(
        mu=mu,
        ap3_worst=ap3,
        ap4_worst=ap4,
        conditions_pass=ok,
        residuals=residuals,
        envelope=envelope,
        c_fit=c_fit,
        fitted_slope=slope,
        passed=passed,
    )
