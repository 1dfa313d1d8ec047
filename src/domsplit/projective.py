"""The complex projective line CP^1 with the chordal metric of diameter 2.

Points are stored as canonical unit representative vectors in C^2 (first
nonvanishing component real positive); the affine coordinate z = v2/v1 with
infinity = span{(0, 1)} is only a view.  Distances are always evaluated as
2|det| of unit representatives, which is uniformly conditioned, exact at
infinity, and agrees with the affine formula
d(z, w) = 2|z - w| / sqrt((1 + |z|^2)(1 + |w|^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Degenerate, KernelHit, ZeroVector
from .matrix2c import (
    Mat2C,
    Svd2,
    _phase_to_first_positive,
    det,
    rescale_pow2,
    singular_values,
    svd2,
)

# ||A v|| <= KERNEL_REL_TOL * sigma1(A) marks v as a kernel line for the
# projective action; separates genuine kernels from strong contraction.
KERNEL_REL_TOL = 1e-13
_VEC_ZERO_TOL = 1e-300


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """A point of CP^1 held as its canonical unit representative (v1, v2)."""

    v1: complex
    v2: complex

    @property
    def is_infinity(self) -> bool:
        return self.v1 == 0

    @property
    def affine(self) -> complex | None:
        """Affine coordinate v2/v1, or None at infinity."""
        if self.v1 == 0:
            return None
        return self.v2 / self.v1

    def vector(self) -> tuple[complex, complex]:
        return (self.v1, self.v2)

    @staticmethod
    def finite(z: complex) -> "ProjPoint":
        return project((1.0 + 0j, complex(z)))

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(0j, 1.0 + 0j)


def project(v: tuple[complex, complex]) -> ProjPoint:
    """Line through a nonzero vector; invariant under nonzero complex scaling."""
    if math.hypot(abs(v[0]), abs(v[1])) <= _VEC_ZERO_TOL:
        raise ZeroVector("cannot project a zero vector")
    v = rescale_pow2(v)
    n = math.hypot(abs(v[0]), abs(v[1]))
    x, y = v[0] / n, v[1] / n
    if x == 0:
        return ProjPoint(0j, 1.0 + 0j)
    x, y = _phase_to_first_positive((x, y))
    return ProjPoint(complex(abs(x)), y)


def dist(z: ProjPoint, w: ProjPoint) -> float:
    """Chordal distance, 2|det of the unit representatives|; range [0, 2]."""
    return 2.0 * abs(z.v1 * w.v2 - z.v2 * w.v1)


def dist_from_vectors(u: tuple[complex, complex], v: tuple[complex, complex]) -> float:
    """2|det(u, v)| / (||u|| ||v||) for nonzero vectors."""
    if (
        math.hypot(abs(u[0]), abs(u[1])) <= _VEC_ZERO_TOL
        or math.hypot(abs(v[0]), abs(v[1])) <= _VEC_ZERO_TOL
    ):
        raise ZeroVector("distance needs nonzero vectors")
    u = rescale_pow2(u)
    v = rescale_pow2(v)
    nu = math.hypot(abs(u[0]), abs(u[1]))
    nv = math.hypot(abs(v[0]), abs(v[1]))
    return 2.0 * abs(u[0] * v[1] - u[1] * v[0]) / (nu * nv)


def perp(z: ProjPoint) -> ProjPoint:
    """The orthogonal line; an isometric involution of CP^1."""
    return project((-z.v2.conjugate(), z.v1.conjugate()))


def act(m: Mat2C, z: ProjPoint) -> ProjPoint:
    """Projective action of a nonzero matrix on a point off its kernel."""
    w = m.apply(z.vector())
    nw = math.hypot(abs(w[0]), abs(w[1]))
    s1, _ = singular_values(m)
    if nw <= KERNEL_REL_TOL * s1:
        raise KernelHit("point lies on the kernel line")
    return project(w)


def contraction_factor(m: Mat2C, z: ProjPoint, w: ProjPoint) -> float:
    """|det m| / (||m z_hat|| ||m w_hat||); multiplies dist under the action."""
    az = m.apply(z.vector())
    aw = m.apply(w.vector())
    naz = math.hypot(abs(az[0]), abs(az[1]))
    naw = math.hypot(abs(aw[0]), abs(aw[1]))
    s1, _ = singular_values(m)
    if naz <= KERNEL_REL_TOL * s1 or naw <= KERNEL_REL_TOL * s1:
        raise KernelHit("point lies on the kernel line")
    return abs(det(m)) / (naz * naw)


def most_contracted(m: Mat2C | Svd2) -> ProjPoint:
    """Direction minimizing ||m v||: the second right singular vector."""
    sv = m if isinstance(m, Svd2) else svd2(m)
    if sv.degenerate:
        raise Degenerate("contracted direction undefined for sigma1 ~ sigma2")
    return project(sv.v_column(1))


def expanding_image(m: Mat2C | Svd2) -> ProjPoint:
    """Image of the most expanded direction: the first left singular vector."""
    sv = m if isinstance(m, Svd2) else svd2(m)
    if sv.degenerate:
        raise Degenerate("expanding image undefined for sigma1 ~ sigma2")
    return project(sv.u_column(0))


def kernel_line(m: Mat2C | Svd2) -> ProjPoint:
    """Kernel of a rank-one matrix (second right singular vector, sigma2 = 0)."""
    sv = m if isinstance(m, Svd2) else svd2(m)
    if sv.sigma2 != 0.0:
        raise ValueError("kernel_line needs a rank-one matrix")
    return project(sv.v_column(1))


def image_line(m: Mat2C | Svd2) -> ProjPoint:
    """Image of a rank-one matrix (first left singular vector, sigma2 = 0)."""
    sv = m if isinstance(m, Svd2) else svd2(m)
    if sv.sigma2 != 0.0:
        raise ValueError("image_line needs a rank-one matrix")
    return project(sv.u_column(0))
