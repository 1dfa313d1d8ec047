import numpy as np
import pytest

from domsplit import (
    ConvergenceCert,
    Mat2C,
    MatrixSequence,
    NoConvergence,
    backward_scan,
    dist,
    expanding_image,
    forward_scan,
    most_contracted,
)
from domsplit.cocycle import _fit_rates


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


def to_numpy(m: Mat2C) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=complex)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250811)
