"""2x2 complex matrix algebra with closed-form singular value machinery.

Matrices are immutable values; every operation is a pure function.  Singular
values come from the trace/determinant quadratic for the Gram matrix, never
from an iterative solver, so results are deterministic to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularMatrix, ZeroMatrix

# Absolute tolerance below which an entry (and hence a whole matrix) counts
# as zero, and the relative determinant tolerance (against sigma1^2) below
# which a matrix counts as rank one.
ENTRY_ZERO_TOL = 1e-300
DET_REL_TOL = 1e-12
# Relative sigma1-sigma2 gap below which the SVD factors are flagged
# degenerate (directions are meaningless near sigma1 == sigma2).
DEGENERATE_REL_TOL = 1e-9


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _ldexp_c(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def rescale_pow2(v: tuple[complex, complex]) -> tuple[complex, complex]:
    """Exact power-of-two rescaling of a 2-vector into normal float range.

    Subnormal components quantize norms to ~1e-11 relative error; scaling by
    2^k is exact, so normalizing the scaled vector recovers full precision.
    """
    s = max(abs(v[0].real), abs(v[0].imag), abs(v[1].real), abs(v[1].imag))
    if 1e-280 < s < 1e280 or s == 0.0:
        return v
    k = -int(math.floor(math.log2(s)))
    return (_ldexp_c(v[0], k), _ldexp_c(v[1], k))


@dataclass(frozen=True, slots=True)
class Mat2C:
    """Row-major 2x2 complex matrix [[a, b], [c, d]]."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __matmul__(self, other: "Mat2C") -> "Mat2C":
        return mul(self, other)

    def apply(self, v: tuple[complex, complex]) -> tuple[complex, complex]:
        """Matrix-vector product."""
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def scale(self, t: complex) -> "Mat2C":
        return Mat2C(t * self.a, t * self.b, t * self.c, t * self.d)

    def max_abs(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def frobenius2(self) -> float:
        return _abs2(self.a) + _abs2(self.b) + _abs2(self.c) + _abs2(self.d)

    def is_zero(self) -> bool:
        return self.max_abs() <= ENTRY_ZERO_TOL


IDENTITY = Mat2C(1.0 + 0j, 0j, 0j, 1.0 + 0j)


@dataclass(frozen=True, slots=True)
class Svd2:
    """Decomposition A = u_factor . diag(sigma1, sigma2) . v_factor*.

    ``degenerate`` is set when sigma1 - sigma2 <= DEGENERATE_REL_TOL * sigma1;
    the factors are then a deterministic fallback basis and should not be
    read as contracted/expanding directions.
    """

    u_factor: Mat2C
    sigma1: float
    sigma2: float
    v_factor: Mat2C
    degenerate: bool

    def v_column(self, k: int) -> tuple[complex, complex]:
        return (self.v_factor.a, self.v_factor.c) if k == 0 else (self.v_factor.b, self.v_factor.d)

    def u_column(self, k: int) -> tuple[complex, complex]:
        return (self.u_factor.a, self.u_factor.c) if k == 0 else (self.u_factor.b, self.u_factor.d)

    def reconstruct(self) -> Mat2C:
        u, v = self.u_factor, self.v_factor
        s1, s2 = self.sigma1, self.sigma2
        # u . diag(s1, s2) . v*
        return Mat2C(
            s1 * u.a * v.a.conjugate() + s2 * u.b * v.b.conjugate(),
            s1 * u.a * v.c.conjugate() + s2 * u.b * v.d.conjugate(),
            s1 * u.c * v.a.conjugate() + s2 * u.d * v.b.conjugate(),
            s1 * u.c * v.c.conjugate() + s2 * u.d * v.d.conjugate(),
        )


def mul(x: Mat2C, y: Mat2C) -> Mat2C:
    """Matrix product x . y."""
    return Mat2C(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def det(m: Mat2C) -> complex:
    return m.a * m.d - m.b * m.c


def trace(m: Mat2C) -> complex:
    return m.a + m.d


def adjoint(m: Mat2C) -> Mat2C:
    """Conjugate transpose."""
    return Mat2C(m.a.conjugate(), m.c.conjugate(), m.b.conjugate(), m.d.conjugate())


def inverse(m: Mat2C) -> Mat2C:
    dt = det(m)
    s1, _ = singular_values(m)
    if abs(dt) <= DET_REL_TOL * s1 * s1:
        raise SingularMatrix("determinant below tolerance")
    return Mat2C(m.d / dt, -m.b / dt, -m.c / dt, m.a / dt)


def _prescale(m: Mat2C) -> tuple[Mat2C, int]:
    """Exact 2^k scaling that keeps Gram-matrix entries inside float range."""
    s = m.max_abs()
    if 1e-120 < s < 1e120:
        return m, 0
    k = -int(math.floor(math.log2(s)))
    return Mat2C(_ldexp_c(m.a, k), _ldexp_c(m.b, k), _ldexp_c(m.c, k), _ldexp_c(m.d, k)), k


def _gram(m: Mat2C) -> tuple[float, float, complex, float, float, float]:
    """The Gram-matrix quadratic of a prescaled m: (p, r, q, sigma1^2,
    sigma1, sigma2), where m*m = [[p, q], [conj(q), r]].  sigma2 is
    |det|/sigma1, or exactly 0.0 where |det| <= DET_REL_TOL * sigma1^2."""
    p = _abs2(m.a) + _abs2(m.c)
    r = _abs2(m.b) + _abs2(m.d)
    q = m.a.conjugate() * m.b + m.c.conjugate() * m.d
    gap = math.hypot(p - r, 2.0 * abs(q))  # sigma1^2 - sigma2^2, cancellation-free
    s1sq = 0.5 * (p + r + gap)
    s1 = math.sqrt(s1sq)
    adet = abs(m.a * m.d - m.b * m.c)
    s2 = min(adet / s1, s1) if adet > DET_REL_TOL * s1 * s1 else 0.0
    return p, r, q, s1sq, s1, s2


def singular_values(m: Mat2C) -> tuple[float, float]:
    """(sigma1, sigma2) with sigma1 the operator norm and sigma2 = |det|/sigma1.

    sigma2 is returned as exactly 0.0 whenever |det| <= DET_REL_TOL * sigma1^2,
    which separates genuinely rank-one matrices from ill-conditioned ones.
    """
    if m.is_zero():
        raise ZeroMatrix("singular values of the zero matrix")
    m, k = _prescale(m)
    s1, s2 = _gram(m)[4:]
    return math.ldexp(s1, -k), math.ldexp(s2, -k)


def inv_singular_values(m: Mat2C) -> tuple[float, float]:
    """Singular values of m^{-1}, i.e. (1/sigma2(m), 1/sigma1(m))."""
    s1, s2 = singular_values(m)
    if s2 == 0.0:
        raise SingularMatrix("determinant below tolerance")
    return 1.0 / s2, 1.0 / s1


def _phase_to_first_positive(v: tuple[complex, complex]) -> tuple[complex, complex]:
    """v times conj(lead)/|lead|, lead its first nonvanishing component: the
    phase rule of every canonical vector (``svd2``'s columns, ``project``).
    A lead outside (1e-280, 1e280) is rescaled by an exact 2^k first, since
    the phase of a subnormal quantizes."""
    lead = v[0] if v[0] != 0 else v[1]
    s = max(abs(lead.real), abs(lead.imag))
    if not 1e-280 < s < 1e280:
        lead = _ldexp_c(lead, -int(math.floor(math.log2(s))))
    ph = lead.conjugate() / abs(lead)
    return (v[0] * ph, v[1] * ph)


def svd2(m: Mat2C) -> Svd2:
    """Full closed-form SVD of a nonzero matrix.

    The right factor diagonalizes the Gram matrix m*m using the eigenvector
    row with the larger diagonal pivot; each V column is phased so its first
    nonvanishing component is real positive.  The left columns follow the
    images of the V columns, which ties their phases to V and makes
    det(U) conj(det(V)) = det(m)/|det(m)| whenever m is invertible.  On the
    degenerate set (sigma1 ~ sigma2) the factors fall back to a deterministic
    orthonormal basis and ``degenerate`` is set.
    """
    if m.is_zero():
        raise ZeroMatrix("svd of the zero matrix")
    m, k = _prescale(m)
    p, r, q, s1sq, s1, s2 = _gram(m)
    degenerate = (s1 - s2) <= DEGENERATE_REL_TOL * s1

    # Eigenvector of m*m for s1^2, from the row with the larger pivot.
    if p >= r:
        w = rescale_pow2((complex(s1sq - r), q.conjugate()))
    else:
        w = rescale_pow2((q, complex(s1sq - p)))
    nw = math.hypot(abs(w[0]), abs(w[1]))
    if nw == 0.0:
        v1: tuple[complex, complex] = (1.0 + 0j, 0j)
    else:
        v1 = _phase_to_first_positive((w[0] / nw, w[1] / nw))
    v2 = _phase_to_first_positive((-v1[1].conjugate(), v1[0].conjugate()))

    av1 = m.apply(v1)
    n1 = math.hypot(abs(av1[0]), abs(av1[1]))
    u1 = (av1[0] / n1, av1[1] / n1)
    w2 = (-u1[1].conjugate(), u1[0].conjugate())
    if s2 > 0.0:
        av2 = m.apply(v2)
        zeta = w2[0].conjugate() * av2[0] + w2[1].conjugate() * av2[1]
        ph = zeta / abs(zeta)
        u2 = (w2[0] * ph, w2[1] * ph)
    else:
        u2 = _phase_to_first_positive(w2)

    u_factor = Mat2C(u1[0], u2[0], u1[1], u2[1])
    v_factor = Mat2C(v1[0], v2[0], v1[1], v2[1])
    return Svd2(u_factor, math.ldexp(s1, -k), math.ldexp(s2, -k), v_factor, degenerate)
