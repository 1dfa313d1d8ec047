import math
from dataclasses import replace

import numpy as np
import pytest

from domsplit import (
    ConvergenceCert,
    GeneratorSpec,
    GroundTruth,
    InvalidSpec,
    Mat2C,
    MatrixSequence,
    NoConvergence,
    ProjPoint,
    backward_scan,
    det,
    dist,
    example1,
    expanding_image,
    forward_scan,
    inverse,
    most_contracted,
    mul,
    project,
    singular_values,
)
from domsplit import cocycle
from domsplit.cocycle import _fit_rates, _project
from domsplit.generators import (
    _Streams,
    _bool,
    _complex,
    _indices,
    _interval,
    _param,
    _potential,
    _rank_one,
    _rate_mode,
    _real,
)


def random_mat(rng: np.random.Generator, scale: float = 1.0) -> Mat2C:
    g = rng.standard_normal(8)
    return Mat2C(
        scale * complex(g[0], g[1]),
        scale * complex(g[2], g[3]),
        scale * complex(g[4], g[5]),
        scale * complex(g[6], g[7]),
    )


def random_unit_vector(rng: np.random.Generator) -> tuple[complex, complex]:
    g = rng.standard_normal(4)
    v = (complex(g[0], g[1]), complex(g[2], g[3]))
    n = abs(complex(abs(v[0]), abs(v[1])))
    return (v[0] / n, v[1] / n)


def rank_one_window(seed: int) -> MatrixSequence:
    """B(-15) .. B(15) random outer products x y*: every det is rounding
    noise under DET_REL_TOL, so every B(j) has sigma2 = 0."""
    rng = np.random.default_rng(seed)
    entries = {}
    for j in range(-15, 16):
        x, y = random_unit_vector(rng), random_unit_vector(rng)
        entries[j] = Mat2C(x[0] * y[0].conjugate(), x[0] * y[1].conjugate(),
                           x[1] * y[0].conjugate(), x[1] * y[1].conjugate())
    return MatrixSequence(entries, 2.0)


def vanishing(seq: MatrixSequence) -> MatrixSequence:
    """B(0), B(1) replaced by complementary projections: every product
    through both sites is exactly zero."""
    entries = {j: seq[j] for j in seq.indices()}
    entries[0] = Mat2C(1 + 0j, 0j, 0j, 0j)
    entries[1] = Mat2C(0j, 0j, 0j, 1 + 0j)
    return MatrixSequence(entries, max(seq.bound_M, 2.0))


def prescaled_log_abs_dets(z: np.ndarray) -> np.ndarray:
    """log|det| of each row of a (4, m) stack of nonzero matrices, -inf where
    det is 0, the det taken after the row's exact 2^k ``_prescale_rows`` and
    2k log 2 taken off its log: what the sweep took from its factors before
    the sequence kept their screen, and the reference for its bits."""
    (a, b, c, d), k, _ = cocycle._prescale_rows(z)
    adet = np.abs(a * d - b * c)
    out = np.full(len(adet), -math.inf)
    pos = adet > 0.0
    out[pos] = np.log(adet[pos])
    return out if k is None else out - 2 * k * math.log(2.0)


def column_rows(columns) -> list[list]:
    """The rows read across equal-length columns, as lists of Python numbers:
    the rows of a report's --table grid or csv."""
    return [list(r) for r in zip(*(c.tolist() for c in columns))]


def _point_steps(scan, side):
    """(n, point, step) for n = 1, 2, ...: s_n (side "s") or u_n (side "u")
    from the n-th product of scan, None where that product is degenerate,
    and its distance from the point at n - 1, None unless both exist."""
    prev = None
    for n, prod in enumerate(scan):
        if n == 0:
            continue
        sv = prod.svd()
        if sv.degenerate:
            pt = None
        else:
            pt = most_contracted(sv) if side == "s" else expanding_image(sv)
        yield n, pt, None if pt is None or prev is None else dist(prev, pt)
        prev = pt


def _direction_run(point_steps, tol):
    """Consumes ``_point_steps`` until three successive steps fall below
    tol; returns the run's opening index, the points and the steps, the step
    to point n keyed n - 1."""
    steps = {}
    pts = {}
    run = 0
    for n, pt, d in point_steps:
        if pt is None:
            run = 0
            continue
        pts[n] = pt
        if d is not None:
            steps[n - 1] = d
            run = run + 1 if d < tol else 0
            if run >= 3:
                return n - 3, pts, steps
    return None, pts, steps


def step_column(steps: dict) -> np.ndarray:
    """A step dict as one column indexed n, nan where there is no step."""
    column = np.full((max(steps, default=0) + 1, 1), np.nan)
    for n, d in steps.items():
        column[n, 0] = d
    return column


def scalar_splitting(seq, j, n_max, tol):
    """``estimate_splitting`` on the scalar engine, one product at a time:
    s_n(j) from ``forward_scan`` and u_n(j) from ``backward_scan``, each
    under the Cauchy stopping rule of ``_direction_run``.  The oracle for
    the sweep's direction stage.  Raises NoConvergence, or ProductVanished
    from the scans."""
    n_s = min(n_max, seq.hi - j + 1)
    n_u = min(n_max, j - seq.lo)
    n_star_s, s_pts, s_steps = _direction_run(_point_steps(forward_scan(seq, j, n_s), "s"), tol)
    n_star_u, u_pts, u_steps = _direction_run(_point_steps(backward_scan(seq, j, n_u), "u"), tol)
    if n_star_s is None or n_star_u is None:
        side = "s" if n_star_s is None else "u"
        raise NoConvergence(
            f"direction {side}_n at j={j} did not meet tol={tol} within n_max={n_max}"
        )
    s_col, u_col = step_column(s_steps), step_column(u_steps)
    cert = ConvergenceCert(n_star_s, n_star_u, _fit_rates(s_col)[0], _fit_rates(u_col)[0],
                           tol, (s_col, u_col, 0))
    return s_pts[n_star_s], u_pts[n_star_u], cert


def scalar_bound(entries: dict) -> float:
    """The bound as the scalar max of sigma1 over the entries: the reference
    for ``generators._bound``."""
    return max(singular_values(m)[0] for m in entries.values()) * (1.0 + 1e-9) + 1e-12


# The family builders one site and one Mat2C at a time, with Python's own
# complex arithmetic: the oracle for the array builders of ``generators``.

def _haar_unit_vector(rng: np.random.Generator) -> tuple[complex, complex]:
    g0, g1, g2, g3 = rng.standard_normal(4).tolist()
    v = (complex(g0, g1), complex(g2, g3))
    n = math.hypot(abs(v[0]), abs(v[1]))
    return (v[0] / n, v[1] / n)


def _orth(v: tuple[complex, complex]) -> tuple[complex, complex]:
    return (-v[1].conjugate(), v[0].conjugate())


def _unit_phase(rng: np.random.Generator) -> complex:
    t = 2.0 * math.pi * rng.random()
    return complex(math.cos(t), math.sin(t))


def _points(sites: range, v0: list, v1: list) -> dict[int, ProjPoint]:
    p = _project(np.array(v0, dtype=complex), np.array(v1, dtype=complex))
    return dict(zip(sites, map(ProjPoint, *p.tolist())))


def _frame(rng: np.random.Generator, sep_lo: float, sep_hi: float) -> Mat2C:
    """Unit-column frame D(j) = (u(j), s(j)) with |det| = sin(theta_j)."""
    u = _haar_unit_vector(rng)
    uperp = _orth(u)
    sin_t = sep_lo + (sep_hi - sep_lo) * rng.random()
    cos_t = math.sqrt(1.0 - sin_t * sin_t)
    phase = _unit_phase(rng)
    s_col = (cos_t * u[0] + sin_t * phase * uperp[0], cos_t * u[1] + sin_t * phase * uperp[1])
    return Mat2C(u[0], s_col[0], u[1], s_col[1])


def _rates(rng: np.random.Generator, lp_range, lm_range) -> tuple[complex, complex]:
    lp = lp_range[0] + (lp_range[1] - lp_range[0]) * rng.random()
    lm = lm_range[0] + (lm_range[1] - lm_range[0]) * rng.random()
    if not abs(lp) > abs(lm) > 0.0:
        raise InvalidSpec("conjugated family needs |lambda+| > |lambda-| > 0")
    return complex(lp), complex(lm)


def _scalar_conjugated(spec):
    lo, hi = spec.window
    sep_lo = _param(spec, "sep_lo", 0.35, _real)
    sep_hi = _param(spec, "sep_hi", 0.95, _real)
    theta = _param(spec, "theta", None, _real)
    lp_range = _param(spec, "lplus_range", (2.0, 3.0), _interval)
    lm_range = _param(spec, "lminus_range", (0.5, 1.0), _interval)
    constant = _param(spec, "rate_mode", "perstep", _rate_mode) == "constant"
    streams = _Streams(spec.seed)
    sites = range(lo, hi + 2)
    if theta is None:
        frames = [_frame(streams.at(j, 0), sep_lo, sep_hi) for j in sites]
    else:
        c, s = math.cos(theta), math.sin(theta)
        frames = [Mat2C(c, -s, s, c)] * len(sites)
    if constant:
        rates = _rates(streams.at(0, 1), lp_range, lm_range)
    entries, lplus, gaps = {}, {}, []
    for k, j in enumerate(range(lo, hi + 1)):
        lp, lm = rates if constant else _rates(streams.at(j, 1), lp_range, lm_range)
        lplus[j] = lp
        gaps.append(abs(lp) / abs(lm))
        lam_j = Mat2C(lp, 0.0, 0.0, lm)
        entries[j] = mul(frames[k + 1], mul(lam_j, inverse(frames[k])))
    truth = GroundTruth(
        es=_points(sites, [f.b for f in frames], [f.d for f in frames]),
        eu=_points(sites, [f.a for f in frames], [f.c for f in frames]),
        lam=min(gaps),
        n_steps=1,
        delta=min(abs(det(f)) for f in frames),
    )
    return entries, truth, lplus


def _scalar_entries(spec):
    """(entries, bound_M or None for the scalar max, ground truth) of a
    family, site by site."""
    lo, hi = spec.window
    sites = range(lo, hi + 1)
    family = spec.family
    if family == "example1":
        truth = GroundTruth(
            es={j: project((1.0, 2.0 ** (-abs(j)))) for j in sites},
            eu={j: project((1.0, 0.0)) for j in sites},
            lam=2.0, n_steps=1,
            delta=min(2.0 ** (-abs(j)) / math.sqrt(1.0 + 4.0 ** (-abs(j))) for j in sites),
        )
        return {j: example1(j) for j in sites}, 8.0, truth
    if family == "diagonal":
        lplus = _param(spec, "lplus", 2.0, _complex)
        lminus = _param(spec, "lminus", 1.0, _complex)
        truth = GroundTruth(
            es={j: ProjPoint.infinity() for j in sites},
            eu={j: ProjPoint.finite(0.0) for j in sites},
            lam=abs(lplus) / abs(lminus), n_steps=1, delta=1.0,
        )
        return {j: Mat2C(lplus, 0.0, 0.0, lminus) for j in sites}, None, truth
    if family == "conjugated_dominated":
        entries, truth, _ = _scalar_conjugated(spec)
        return entries, None, truth
    if family == "schrodinger":
        energy = _param(spec, "energy", 3.0, _complex)
        pot = _param(spec, "potential", "zeros", _potential)
        if pot == "zeros":
            table = {j: 0.0 for j in sites}
        elif isinstance(pot, dict):
            table = pot
        else:
            table = {lo + k: v for k, v in enumerate(pot)}
        return {j: Mat2C(energy - table[j], -1.0, 1.0, 0.0) for j in sites}, None, None
    streams = _Streams(spec.seed)
    if family == "random_bounded":
        scale = _param(spec, "scale", 1.0, _real)
        entries = {}
        for j in sites:
            g = streams.at(j, 2).standard_normal(8).tolist()
            entries[j] = Mat2C(scale * complex(g[0], g[1]), scale * complex(g[2], g[3]),
                               scale * complex(g[4], g[5]), scale * complex(g[6], g[7]))
        return entries, None, None
    if family == "random_singular":
        base = GeneratorSpec("conjugated_dominated", spec.window, seed=spec.seed, params={
            k: v for k, v in spec.params.items() if k not in ("insertions", "misaligned")})
        entries, truth, lplus = _scalar_conjugated(base)
        insertions = _param(spec, "insertions", (), _indices)
        misaligned = _param(spec, "misaligned", False, _bool)
        for p in insertions:
            image = (truth.es if misaligned else truth.eu)[p + 1].vector()
            entries[p] = _rank_one(lplus[p], image, truth.eu[p].vector(), truth.es[p].vector())
        return entries, None, replace(truth, singular_sites=tuple(sorted(insertions)))
    if family == "unitary":
        angle = _param(spec, "angle", None, _real)
        if angle is not None:
            c, s = math.cos(angle), math.sin(angle)
            return {j: Mat2C(c, -s, s, c) for j in sites}, 1.0 + 1e-9, None
        entries = {}
        for j in sites:
            u = _haar_unit_vector(streams.at(j, 3))
            w = _orth(u)
            ph = streams.at(j, 4).random()
            phase = complex(math.cos(2 * math.pi * ph), math.sin(2 * math.pi * ph))
            entries[j] = Mat2C(u[0], phase * w[0], u[1], phase * w[1])
        return entries, 1.0 + 1e-9, None
    assert family == "ap_family", family
    mu = _param(spec, "mu", 1e4, _real)
    angle_floor = 1.2 * mu ** -0.25
    angle_cap = 0.9
    us = {j: _haar_unit_vector(streams.at(j, 5)) for j in range(lo, hi + 2)}
    entries = {}
    for j in sites:
        rng = streams.at(j, 6)
        t = rng.random()
        if j in (0, 1, 2):
            t = 0.0
        c1 = math.exp(math.log(angle_floor) + t * (math.log(angle_cap) - math.log(angle_floor)))
        s1 = math.sqrt(1.0 - c1 * c1)
        ph = _unit_phase(rng)
        u_prev = us[j - 1] if j - 1 >= lo else _haar_unit_vector(streams.at(j - 1, 5))
        u_perp = _orth(u_prev)
        v1 = (c1 * u_prev[0] + s1 * ph * u_perp[0], c1 * u_prev[1] + s1 * ph * u_perp[1])
        v2 = _orth(v1)
        g = (0.25 + 0.7 * rng.random()) / mu
        u1, u2 = us[j], _orth(us[j])
        entries[j] = Mat2C(
            u1[0] * v1[0].conjugate() + g * u2[0] * v2[0].conjugate(),
            u1[0] * v1[1].conjugate() + g * u2[0] * v2[1].conjugate(),
            u1[1] * v1[0].conjugate() + g * u2[1] * v2[0].conjugate(),
            u1[1] * v1[1].conjugate() + g * u2[1] * v2[1].conjugate(),
        )
    return entries, 1.0 + 1e-6, None


def scalar_build(spec):
    """``build_with_truth`` one site and one Mat2C at a time: the family's
    entries as a dict, the scalar max of sigma1 as the bound where the family
    does not fix one, and the ground truth."""
    entries, bound_M, truth = _scalar_entries(spec)
    if bound_M is None:
        try:
            bound_M = scalar_bound(entries)
        except OverflowError:
            raise InvalidSpec(
                f"params {spec.params} take a {spec.family} entry beyond float range"
            ) from None
    return MatrixSequence(entries, bound_M, source=spec.to_json_dict()), truth


def to_numpy(m: Mat2C) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=complex)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250811)
