import numpy as np
import pytest

from domsplit import Mat2C, MatrixSequence


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


def to_numpy(m: Mat2C) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=complex)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250811)
