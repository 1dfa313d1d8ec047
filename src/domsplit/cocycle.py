"""Windowed products over a matrix sequence and the invariant directions.

Products B_n(j) = B(j+n-1) ... B(j) are renormalized after every factor:
the stored core has operator norm 1 and the accumulated log scale carries
sigma1, so products that decay or grow geometrically never leave the
representable range.  log|det| is accumulated factor by factor, each taken
after the exact 2^k prescale of ``singular_values`` so that no factor's
determinant over- or underflows; that keeps sigma2 of a product exact in the
log domain far below the entrywise noise floor of the core determinant.

Two engines share that recurrence.  ``ScaledProduct`` and the scans build
one product at a time from ``Mat2C`` values; ``product_sweep`` builds depth n
for every start j at once as numpy arrays, and is what the certificate and
the avalanche audit run on.  The scalar path stays as the per-site API and
as the sweep's oracle.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    Degenerate,
    InvalidSpec,
    KernelHit,
    NoConvergence,
    ProductVanished,
    WindowExceeded,
    ZeroVector,
)
from .matrix2c import (
    DEGENERATE_REL_TOL,
    DET_REL_TOL,
    ENTRY_ZERO_TOL,
    IDENTITY,
    Mat2C,
    Svd2,
    _prescale,
    det,
    mul,
    singular_values,
    svd2,
)
from .projective import (
    _VEC_ZERO_TOL,
    KERNEL_REL_TOL,
    ProjPoint,
    act,
    dist,
    expanding_image,
    image_line,
    kernel_line,
    most_contracted,
)

NEG_INF = float("-inf")
_LN2 = math.log(2.0)


def _as_index(x) -> int:
    """x as an integer index, from an int or an integral float.  int() would
    also truncate 1.5 to 1 and read True as 1 and "3" as 3; those raise
    ValueError or TypeError here."""
    if isinstance(x, bool):
        raise ValueError(f"index {x!r} is not an integer")
    return int(x) if isinstance(x, float) and x.is_integer() else operator.index(x)


class MatrixSequence:
    """A finite window j -> B(j) of nonzero matrices with a uniform norm bound.

    Entries are validated once at construction: every entry finite, every
    matrix nonzero and sigma1(B(j)) < bound_M, with bound_M finite and
    positive.  Instances are immutable and safe to share.
    """

    __slots__ = ("_entries", "_lo", "_hi", "bound_M", "source")

    def __init__(
        self,
        entries: Mapping[int, Mat2C],
        bound_M: float,
        source: dict | None = None,
    ):
        if not entries:
            raise InvalidSpec("sequence window is empty")
        if not (math.isfinite(bound_M) and bound_M > 0.0):
            raise InvalidSpec(f"bound_M must be finite and positive, got {bound_M}")
        js = sorted(entries)
        lo, hi = js[0], js[-1]
        if hi - lo + 1 != len(js):
            raise InvalidSpec("sequence window has gaps")
        for j, m in entries.items():
            if not (cmath.isfinite(m.a) and cmath.isfinite(m.b)
                    and cmath.isfinite(m.c) and cmath.isfinite(m.d)):
                raise InvalidSpec(f"entry at j={j} is not finite")
            try:
                if m.is_zero():
                    raise InvalidSpec(f"entry at j={j} is the zero matrix")
                s1, _ = singular_values(m)
            except OverflowError:  # |entry| or sigma1 beyond float range
                raise InvalidSpec(f"entry at j={j} is too large for float arithmetic") from None
            if not s1 < bound_M:
                raise InvalidSpec(f"entry at j={j} violates sigma1 < bound_M ({s1} >= {bound_M})")
        self._entries = dict(entries)
        self._lo, self._hi = lo, hi
        self.bound_M = float(bound_M)
        self.source = source

    @property
    def window(self) -> tuple[int, int]:
        return (self._lo, self._hi)

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        return self._hi

    def __len__(self) -> int:
        return self._hi - self._lo + 1

    def __getitem__(self, j: int) -> Mat2C:
        try:
            return self._entries[j]
        except KeyError:
            raise WindowExceeded(f"j={j} outside window [{self._lo}, {self._hi}]") from None

    def indices(self) -> range:
        return range(self._lo, self._hi + 1)

    def restrict(self, lo: int, hi: int) -> "MatrixSequence":
        if lo < self._lo or hi > self._hi or lo > hi:
            raise WindowExceeded(f"[{lo}, {hi}] not inside [{self._lo}, {self._hi}]")
        sub = {j: self._entries[j] for j in range(lo, hi + 1)}
        return MatrixSequence(sub, self.bound_M, source=self.source)

    def to_json_dict(self) -> dict:
        entries = []
        for j in self.indices():
            m = self._entries[j]
            entries.append(
                {
                    "j": j,
                    "m": [[z.real, z.imag] for z in (m.a, m.b, m.c, m.d)],
                }
            )
        return {"window": [self._lo, self._hi], "bound_M": self.bound_M, "entries": entries}

    @staticmethod
    def from_json_dict(doc: dict) -> "MatrixSequence":
        try:
            lo, hi = (_as_index(x) for x in doc["window"])
            bound = float(doc["bound_M"])
            entries = {}
            for rec in doc["entries"]:
                re_a, im_a = rec["m"][0]
                re_b, im_b = rec["m"][1]
                re_c, im_c = rec["m"][2]
                re_d, im_d = rec["m"][3]
                entries[_as_index(rec["j"])] = Mat2C(
                    complex(re_a, im_a),
                    complex(re_b, im_b),
                    complex(re_c, im_c),
                    complex(re_d, im_d),
                )
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            # OverflowError: a bound or entry too large for a float
            raise InvalidSpec(f"malformed sequence document: {exc}") from exc
        seq = MatrixSequence(entries, bound, source=doc.get("source"))
        if seq.window != (lo, hi):
            raise InvalidSpec("declared window does not match entries")
        return seq


def load_sequence(path: str) -> MatrixSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return MatrixSequence.from_json_dict(json.load(fh))


def dump_sequence(seq: MatrixSequence, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seq.to_json_dict(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


@dataclass(frozen=True, slots=True)
class ScaledProduct:
    """B_n(start) stored as exp(log_scale) * core with sigma1(core) = 1.

    log_abs_det accumulates log|det| of the factors, so sigma2 of the
    product is available exactly in the log domain even when the core's
    entrywise determinant has been swallowed by rounding.
    """

    log_scale: float
    core: Mat2C
    length: int
    start: int
    log_abs_det: float

    @staticmethod
    def identity(start: int) -> "ScaledProduct":
        return ScaledProduct(0.0, IDENTITY, 0, start, 0.0)

    def left_multiply(self, factor: Mat2C) -> "ScaledProduct":
        """The product factor . B_n(start), i.e. B_{n+1}(start)."""
        return self._step(factor, right=False)

    def _step(self, factor: Mat2C, right: bool) -> "ScaledProduct":
        """One renormalized step: factor . B_n(start), or with ``right``
        B_n(start) . factor, which is B_{n+1}(start - 1)."""
        raw = mul(self.core, factor) if right else mul(factor, self.core)
        if raw.is_zero():
            where = (f"ending at j={self.start + self.length - 1}" if right
                     else f"starting at j={self.start}")
            raise ProductVanished(f"product of length {self.length + 1} {where} vanished")
        s1, _ = singular_values(raw)
        return ScaledProduct(
            self.log_scale + math.log(s1),
            raw.scale(1.0 / s1),
            self.length + 1,
            self.start - 1 if right else self.start,
            self.log_abs_det + _log_abs_det(factor),
        )

    @property
    def log_sigma1(self) -> float:
        s1, _ = singular_values(self.core)
        return self.log_scale + math.log(s1)

    @property
    def log_sigma2(self) -> float:
        return self.log_abs_det - self.log_sigma1

    def svd(self) -> Svd2:
        """SVD of the core; directions of the product itself."""
        return svd2(self.core)

    def matrix(self) -> Mat2C:
        """exp(log_scale) * core; may over/underflow for long products."""
        return self.core.scale(math.exp(self.log_scale))

    def apply_log(self, v: tuple[complex, complex]) -> float:
        """log ||B_n(start) v|| for a unit vector v."""
        w = self.core.apply(v)
        return self.log_scale + math.log(math.hypot(abs(w[0]), abs(w[1])))


def _log_abs_det(m: Mat2C) -> float:
    """log|det m| of a nonzero m, -inf where det is 0.  m is prescaled by
    the 2^k of ``singular_values`` first, so det neither overflows nor
    underflows, and 2k log 2 is taken off the log."""
    m, k = _prescale(m)
    adet = abs(det(m))
    return math.log(adet) - 2 * k * _LN2 if adet > 0.0 else NEG_INF


def window_product(seq: MatrixSequence, j: int, n: int) -> ScaledProduct:
    """B_n(j) = B(j+n-1) ... B(j) with per-factor renormalization: the last
    product of ``forward_scan``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for prod in forward_scan(seq, j, n):
        pass
    return prod


def forward_scan(seq: MatrixSequence, j: int, n_max: int) -> Iterator[ScaledProduct]:
    """Yields B_n(j) for n = 0 .. n_max (requires j + n_max - 1 <= hi)."""
    if n_max > 0 and (j < seq.lo or j + n_max - 1 > seq.hi):
        raise WindowExceeded(f"[{j}, {j + n_max - 1}] not inside [{seq.lo}, {seq.hi}]")
    prod = ScaledProduct.identity(j)
    yield prod
    for k in range(n_max):
        prod = prod.left_multiply(seq[j + k])
        yield prod


def backward_scan(seq: MatrixSequence, j: int, n_max: int) -> Iterator[ScaledProduct]:
    """Yields B_n(j - n) for n = 0 .. n_max: products ending just before j."""
    if n_max > 0 and (j - n_max < seq.lo or j - 1 > seq.hi):
        raise WindowExceeded(f"[{j - n_max}, {j - 1}] not inside [{seq.lo}, {seq.hi}]")
    prod = ScaledProduct.identity(j)
    yield prod
    for k in range(1, n_max + 1):
        # B_{k}(j-k) = B_{k-1}(j-k+1) . B(j-k)
        prod = prod._step(seq[j - k], right=True)
        yield prod


def sn(seq: MatrixSequence, j: int, n: int) -> ProjPoint:
    """Most contracted direction of B_n(j)."""
    prod = window_product(seq, j, n)
    sv = prod.svd()
    if sv.degenerate:
        raise Degenerate(f"B_{n}({j}) has sigma1 ~ sigma2")
    return most_contracted(sv)


def un(seq: MatrixSequence, j: int, n: int) -> ProjPoint:
    """Expanding image direction of B_n(j-n): the n-step past of site j."""
    prod = window_product(seq, j - n, n)
    sv = prod.svd()
    if sv.degenerate:
        raise Degenerate(f"B_{n}({j - n}) has sigma1 ~ sigma2")
    return expanding_image(sv)


@dataclass(frozen=True, slots=True)
class ConvergenceCert:
    """Per-n consecutive distances and the fitted geometric decay rates."""

    n_star_s: int
    n_star_u: int
    s_steps: dict[int, float] = field(repr=False)
    u_steps: dict[int, float] = field(repr=False)
    rate_s: float | None
    rate_u: float | None
    tol: float


# Chordal steps at or below this are rounding noise of the metric (diameter
# 2) and carry no rate signal.
STEP_NOISE_FLOOR = 1e-13


def _fit_lines(
    x: np.ndarray, y: np.ndarray, use: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares lines y = intercept + slope x down each column of a
    finite y, over the rows where ``use`` holds; x is one column.  Returns
    (slope, intercept) per column, the slope nan where fewer than two rows
    are used or their x are all equal."""
    count = use.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):  # columns with no points
        xbar = (use * x).sum(axis=0) / count
        ybar = (use * y).sum(axis=0) / count
        dx = np.where(use, x - xbar, 0.0)
        dy = np.where(use, y - ybar, 0.0)
        sxx = (dx * dx).sum(axis=0)
        slope = (dx * dy).sum(axis=0) / sxx
    return np.where((count >= 2) & (sxx > 0.0), slope, np.nan), ybar - slope * xbar


def _fit_rates(steps: np.ndarray) -> np.ndarray:
    """Least-squares slope of log d against n down each column of ``steps``,
    where row n holds the step d(pt_n, pt_{n+1}) and nan marks no step; nan
    where fewer than two steps clear STEP_NOISE_FLOOR."""
    use = steps > STEP_NOISE_FLOOR  # False on nan
    ns = np.arange(len(steps), dtype=float)[:, None]
    return _fit_lines(ns, np.log(np.where(use, steps, 1.0)), use)[0]


def _fit_rate(steps: dict[int, float]) -> float | None:
    column = np.full((max(steps, default=0) + 1, 1), np.nan)
    for n, d in steps.items():
        column[n, 0] = d
    rate = float(_fit_rates(column)[0])
    return None if rate != rate else rate


def _point_steps(
    scan: Iterator[ScaledProduct], side: str
) -> Iterator[tuple[int, ProjPoint | None, float | None]]:
    """(n, point, step) for n = 1, 2, ...: s_n (side "s") or u_n (side "u")
    from the n-th product of scan, None where that product is degenerate,
    and its distance from the point at n - 1, None unless both exist."""
    prev: ProjPoint | None = None
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


def _direction_run(
    point_steps: Iterator[tuple[int, ProjPoint | None, float | None]], tol: float
) -> tuple[int | None, dict[int, ProjPoint], dict[int, float]]:
    """Consumes ``_point_steps`` until three successive steps fall below
    tol; returns the run's opening index, the points and the steps, the step
    to point n keyed n - 1."""
    steps: dict[int, float] = {}
    pts: dict[int, ProjPoint] = {}
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


def estimate_splitting(
    seq: MatrixSequence, j: int, n_max: int, tol: float
) -> tuple[ProjPoint, ProjPoint, ConvergenceCert]:
    """Estimates E^s(j), E^u(j) with a Cauchy-style stopping certificate.

    s_n(j) and u_n(j) are scanned until three successive consecutive
    distances fall below ``tol``; the first index n* opening such a run is
    returned (s_{n*}, u_{n*}).  Degenerate products interrupt the run.
    Raises NoConvergence when either side exhausts its room in the window
    without meeting the rule.
    """
    n_s = min(n_max, seq.hi - j + 1)
    n_u = min(n_max, j - seq.lo)

    n_star_s, s_pts, s_steps = _direction_run(_point_steps(forward_scan(seq, j, n_s), "s"), tol)
    n_star_u, u_pts, u_steps = _direction_run(_point_steps(backward_scan(seq, j, n_u), "u"), tol)

    if n_star_s is None or n_star_u is None:
        side = "s" if n_star_s is None else "u"
        raise NoConvergence(
            f"direction {side}_n at j={j} did not meet tol={tol} within n_max={n_max}"
        )
    cert = ConvergenceCert(
        n_star_s=n_star_s,
        n_star_u=n_star_u,
        s_steps=s_steps,
        u_steps=u_steps,
        rate_s=_fit_rate(s_steps),
        rate_u=_fit_rate(u_steps),
        tol=tol,
    )
    return s_pts[n_star_s], u_pts[n_star_u], cert


# -- the batched engine ------------------------------------------------------


def _abs(z: np.ndarray) -> np.ndarray:
    # np.hypot is the C library's, as in abs(complex); np.abs rounds differently
    return np.hypot(z.real, z.imag)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _ldexp_c(z: np.ndarray, k: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, k)
    out.imag = np.ldexp(z.imag, k)
    return out


# numpy's complex product may fuse its multiply-adds, so products that must
# round as CPython's complex arithmetic are taken on real and imaginary parts.


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y, rounded as CPython rounds a complex product."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _cdiv(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """z / r for r > 0, rounded as CPython divides a complex by a float: as
    the quotient by complex(r, 0), which can change the sign of a zero."""
    out = np.empty_like(z)
    out.real = (z.real + z.imag * 0.0) / r
    out.imag = (z.imag - z.real * 0.0) / r
    return out


def _apply(m: tuple[np.ndarray, ...], v0: np.ndarray, v1: np.ndarray):
    """``Mat2C.apply`` over arrays of matrices m = (a, b, c, d) and vectors."""
    a, b, c, d = m
    return _cmul(a, v0) + _cmul(b, v1), _cmul(c, v0) + _cmul(d, v1)


def _dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``dist`` over arrays of unit representatives p = (p0, p1), q = (q0, q1)."""
    return 2.0 * _abs(_cmul(p[0], q[1]) - _cmul(p[1], q[0]))


# math.hypot is CPython's own, not the C library's hypot that np.hypot calls,
# and numpy's log is not the C library's log either; each differs from the
# scalar engine's in the last bit on about 1 input in 200 and 1 in 1000.
# Where a few thousand values must round exactly as there, they are taken
# one by one.


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = map(math.hypot, x.ravel().tolist(), y.ravel().tolist())
    return np.fromiter(out, float, x.size).reshape(x.shape)


def _log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _pow2_rescue(*zs: np.ndarray) -> np.ndarray | None:
    """The exponents k = -floor(log2 s) of the exact 2^k rescue of
    ``rescale_pow2``, where s, the largest real or imaginary part of a row
    of zs, leaves (1e-280, 1e280); 0 on other rows, None when no row needs
    it."""
    s = np.maximum.reduce([np.abs(x) for z in zs for x in (z.real, z.imag)])
    far = ~((s > 1e-280) & (s < 1e280))
    if not far.any():
        return None
    k = np.zeros(len(s), dtype=np.int64)
    k[far] = -np.floor(np.log2(s[far])).astype(np.int64)
    return k


def _project(v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """``project`` over arrays of vectors (v0, v1): the canonical unit
    representatives as a (2, K) array, rounded as the scalar function rounds
    them.  Raises ZeroVector if any vector is zero."""
    norm = _hypot(_abs(v0), _abs(v1))
    if (norm <= _VEC_ZERO_TOL).any():
        raise ZeroVector("cannot project a zero vector")
    k = _pow2_rescue(v0, v1)
    if k is not None:
        v0, v1 = _ldexp_c(v0, k), _ldexp_c(v1, k)
        norm = _hypot(_abs(v0), _abs(v1))
    x, y = _cdiv(v0, norm), _cdiv(v1, norm)
    # _phase_to_first_positive with x as the lead; x = 0 is the point at infinity
    at_inf = x == 0
    lead = np.where(at_inf, 1.0, x)
    k = _pow2_rescue(lead)
    if k is not None:
        lead = _ldexp_c(lead, k)
    ph = _cdiv(np.conj(lead), _abs(lead))
    out = np.empty((2, len(x)), dtype=complex)
    out[0] = np.where(at_inf, 0.0, _abs(_cmul(x, ph)))
    out[1] = np.where(at_inf, 1.0, _cmul(y, ph))
    return out


def _gram(a, b, c, d):
    """The Gram-matrix quadratic of ``singular_values`` over arrays of
    matrices [[a, b], [c, d]]: (p, r, q, sigma1^2, sigma1)."""
    p = _abs2(a) + _abs2(c)
    r = _abs2(b) + _abs2(d)
    q = np.conj(a) * b + np.conj(c) * d
    s1sq = 0.5 * (p + r + np.hypot(p - r, 2.0 * _abs(q)))
    return p, r, q, s1sq, np.sqrt(s1sq)


def _sigma2(a, b, c, d, s1):
    """sigma2 = |det| / sigma1, or 0 where |det| <= DET_REL_TOL sigma1^2."""
    adet = _abs(a * d - b * c)
    with np.errstate(invalid="ignore", divide="ignore"):  # sigma1 = 0 rows
        return np.where(adet > DET_REL_TOL * s1 * s1, np.minimum(adet / s1, s1), 0.0)


def _prescale_rows(a, b, c, d):
    """``_prescale`` over arrays of matrices [[a, b], [c, d]]: the rows
    whose largest entry leaves (1e-120, 1e120) scaled by an exact 2^k.
    Returns ((a, b, c, d), k, zero), k None where no row needs it; ``zero``
    flags the rows that are the zero matrix (every entry at most
    ENTRY_ZERO_TOL), which stay as they are."""
    biggest = np.maximum(np.maximum(_abs(a), _abs(b)), np.maximum(_abs(c), _abs(d)))
    zero = biggest <= ENTRY_ZERO_TOL
    scaled = ~zero & ((biggest <= 1e-120) | (biggest >= 1e120))
    if not scaled.any():
        return (a, b, c, d), None, zero
    k = np.zeros(len(biggest), dtype=np.int64)
    k[scaled] = -np.floor(np.log2(biggest[scaled])).astype(np.int64)
    return tuple(_ldexp_c(z, k) for z in (a, b, c, d)), k, zero


def _singular_values(a, b, c, d, sigma2: bool = True):
    """``singular_values`` over arrays of matrices [[a, b], [c, d]]:
    (sigma1, sigma2, zero), with sigma2 None unless asked for.  ``zero``
    flags the rows that are the zero matrix; their values are 0."""
    (a, b, c, d), k, zero = _prescale_rows(a, b, c, d)
    s1 = _gram(a, b, c, d)[4]
    s1[zero] = 0.0
    s2 = _sigma2(a, b, c, d, s1) if sigma2 else None
    if k is not None:
        s1 = np.ldexp(s1, -k)
        s2 = None if s2 is None else np.ldexp(s2, -k)
    return s1, s2, zero


def _log_abs_dets(a, b, c, d) -> np.ndarray:
    """``_log_abs_det`` over arrays of nonzero matrices, rounded as it is."""
    (a, b, c, d), k, _ = _prescale_rows(a, b, c, d)
    adet = _abs(_cmul(a, d) - _cmul(b, c))
    out = np.full(len(adet), NEG_INF)
    pos = adet > 0.0
    out[pos] = _log(adet[pos])
    return out if k is None else out - 2 * k * _LN2


def _factor_arrays(seq: MatrixSequence) -> tuple[np.ndarray, ...]:
    """The entries a, b, c, d of B(lo) .. B(hi) as four complex arrays."""
    mats = [seq[j] for j in seq.indices()]
    return tuple(np.array([getattr(m, e) for m in mats], dtype=complex) for e in "abcd")


class _DirectionRuns:
    """The Cauchy stopping rule of ``_direction_run`` for one side (s or u)
    at K sites at once: per-site run counters, the point opening the current
    run, and every consecutive distance.  Layer n is fed by ``advance``."""

    def __init__(self, n_sites: int, n_max: int):
        self.run = np.zeros(n_sites, dtype=np.int64)
        self.done = np.zeros(n_sites, dtype=bool)  # stopped or vanished
        self.n_star = np.full(n_sites, -1, dtype=np.int64)
        self.prev_ok = np.zeros(n_sites, dtype=bool)  # prev holds a point
        self.prev = (np.zeros(n_sites, dtype=complex), np.zeros(n_sites, dtype=complex))
        self.cand = (np.zeros(n_sites, dtype=complex), np.zeros(n_sites, dtype=complex))
        self.steps = np.full((n_max, n_sites), np.nan)  # [n - 1]: d(pt_{n-1}, pt_n)

    def advance(self, n, room, vanished, degenerate, x, y, tol):
        """Layer n at each site: room says the site may look at depth n; x, y
        is its unit direction, meaningful where neither flag is set."""
        live = room & ~self.done
        # the scalar scan raises ProductVanished before it reads this layer
        self.done |= live & vanished
        live &= ~vanished
        ok = live & ~degenerate
        step = ok & self.prev_ok
        d = 2.0 * _abs(self.prev[0] * y - self.prev[1] * x)
        if n >= 2:
            self.steps[n - 1] = np.where(step, d, np.nan)
        close = step & (d < tol)
        opening = close & (self.run == 0)
        self.cand = tuple(np.where(opening, p, c) for p, c in zip(self.prev, self.cand))
        self.run = np.where(close, self.run + 1, np.where(live, 0, self.run))
        stop = close & (self.run >= 3)
        self.n_star[stop] = n - 3
        self.done |= stop
        self.prev = tuple(np.where(ok, v, p) for v, p in zip((x, y), self.prev))
        self.prev_ok = np.where(live, ok, self.prev_ok)

    @property
    def stopped(self) -> np.ndarray:
        return self.n_star >= 0

    def certified(self, ks: np.ndarray) -> tuple[np.ndarray, list[dict], list]:
        """Chosen points as a (2, K) array of unit representatives, steps up
        to the stopping index, and fitted rates at the stopped sites ks, in
        the form ``estimate_splitting`` returns them."""
        if not len(ks):  # a sweep without sites, as the avalanche audit runs it
            return np.empty((2, 0), dtype=complex), [], []
        upto = self.n_star[ks] + 3
        steps = self.steps[:, ks]
        steps[np.arange(len(steps))[:, None] >= upto] = np.nan
        rates = [None if r != r else r for r in _fit_rates(steps).tolist()]
        tables = [
            {n: d for n, d in enumerate(row[:stop]) if d == d}
            for row, stop in zip(steps.T.tolist(), upto.tolist())
        ]
        return _project(self.cand[0][ks], self.cand[1][ks]), tables, rates


@dataclass(frozen=True)
class ProductSweep:
    """Everything one ``product_sweep`` yields.

    ``log_s1[n]`` and ``log_s2[n]`` hold log sigma1 and log sigma2 of B_n(j)
    for j = lo .. hi - n + 1, n = 0 .. n_max + 1 (layer 0 is the identity and
    has one start more, hi + 1); -inf marks a vanished product.  At the sites
    of ``jrange`` the sweep also holds the estimated fields, their
    certificates and the sites where estimation failed.  ``js`` lists the
    sites whose fields converged, in ascending order, and ``es_vec`` /
    ``eu_vec`` hold the fields' unit representatives there as (2, K)
    arrays; ``factors`` holds the entries a, b, c, d of B(lo) .. B(hi).
    """

    window: tuple[int, int]
    n_max: int
    log_s1: list[np.ndarray] = field(repr=False)
    log_s2: list[np.ndarray] = field(repr=False)
    jrange: tuple[int, int] | None
    es: dict[int, ProjPoint] = field(repr=False)
    eu: dict[int, ProjPoint] = field(repr=False)
    certs: dict[int, ConvergenceCert] = field(repr=False)
    failed: list[int]
    js: np.ndarray = field(repr=False)
    es_vec: np.ndarray = field(repr=False)
    eu_vec: np.ndarray = field(repr=False)
    factors: tuple[np.ndarray, ...] = field(repr=False)


def product_sweep(
    seq: MatrixSequence,
    n_max: int,
    jrange: tuple[int, int] | None = None,
    tol: float = 0.0,
) -> ProductSweep:
    """B_n(j) for every start j, depth by depth, n = 1 .. n_max + 1.

    Layer n is B(j+n-1) . core_{n-1}(j), renormalized by sigma1: the
    recurrence of ``ScaledProduct.left_multiply``, with the same Gram
    quadratic, power-of-two prescale and degeneracy test, over numpy arrays.
    Only O(L) core data is held at a time.  With a ``jrange`` the sweep also
    runs ``estimate_splitting``'s stopping rule at its sites, to depth n_max:
    s_n(j) is read from layer n at start j and u_n(j) from layer n at start
    j - n, since B_n(j - n) is the forward product starting there.  A site
    fails when either side runs out of room or its product vanishes at or
    before the depth where its run stops.
    """
    if n_max < 1:
        raise InvalidSpec(f"n_max must be at least 1, got {n_max}")
    lo, hi = seq.window
    if jrange is not None and (jrange[0] < lo or jrange[1] > hi):
        raise WindowExceeded(f"jrange [{jrange[0]}, {jrange[1]}] outside window [{lo}, {hi}]")
    size = len(seq)
    fa, fb, fc, fd = _factor_arrays(seq)
    flog_det = _log_abs_dets(fa, fb, fc, fd)

    sites = np.arange(jrange[0] - lo, jrange[1] - lo + 1) if jrange is not None else np.arange(0)
    n_sites = len(sites)
    runs_s = _DirectionRuns(n_sites, n_max)
    runs_u = _DirectionRuns(n_sites, n_max)

    log_s1 = [np.zeros(size + 1)]
    log_s2 = [np.zeros(size + 1)]
    a, d = np.ones(size, dtype=complex), np.ones(size, dtype=complex)
    b, c = np.zeros(size, dtype=complex), np.zeros(size, dtype=complex)
    log_scale = np.zeros(size)
    log_det = np.zeros(size)
    for n in range(1, n_max + 2):
        m = max(size - n + 1, 0)  # starts lo .. hi - n + 1
        xa, xb, xc, xd = fa[n - 1:], fb[n - 1:], fc[n - 1:], fd[n - 1:]
        a, b, c, d = a[:m], b[:m], c[:m], d[:m]
        raw = (xa * a + xb * c, xa * b + xb * d, xc * a + xd * c, xc * b + xd * d)
        s1, _, vanished = _singular_values(*raw, sigma2=False)
        s1[vanished] = 1.0
        inv = 1.0 / s1
        inv[vanished] = 0.0  # a vanished core stays zero, so the row stays vanished
        a, b, c, d = (z * inv for z in raw)
        log_scale = log_scale[:m] + np.log(s1)
        log_det = log_det[:m] + flog_det[n - 1:]

        p, r, q, s1sq, s1c = _gram(a, b, c, d)
        s1c[vanished] = 1.0
        ls1 = log_scale + np.log(s1c)
        ls2 = log_det - ls1
        ls1[vanished] = NEG_INF
        ls2[vanished] = NEG_INF
        log_s1.append(ls1)
        log_s2.append(ls2)

        if n > n_max or m == 0 or n_sites == 0 or (runs_s.done.all() and runs_u.done.all()):
            continue
        s2c = _sigma2(a, b, c, d, s1c)
        degenerate = (s1c - s2c) <= DEGENERATE_REL_TOL * s1c
        # top right singular vector from the Gram row with the larger pivot
        pivot_p = p >= r
        w0 = np.where(pivot_p, s1sq - r, q)
        w1 = np.where(pivot_p, np.conj(q), s1sq - p)
        nw = np.hypot(_abs(w0), _abs(w1))
        nw[nw == 0.0] = 1.0  # degenerate or vanished rows only
        v0, v1 = w0 / nw, w1 / nw
        ux, uy = a * v0 + b * v1, c * v0 + d * v1
        nu = np.hypot(_abs(ux), _abs(uy))
        nu[nu == 0.0] = 1.0
        ux, uy = ux / nu, uy / nu
        sx, sy = -np.conj(v1), np.conj(v0)

        rows = np.minimum(sites, m - 1)
        runs_s.advance(n, sites < m, vanished[rows], degenerate[rows], sx[rows], sy[rows], tol)
        rows = np.maximum(sites - n, 0)
        runs_u.advance(n, sites >= n, vanished[rows], degenerate[rows], ux[rows], uy[rows], tol)

    converged = runs_s.stopped & runs_u.stopped
    ks = np.flatnonzero(converged)
    js = lo + sites[ks]
    es_vec, s_tables, s_rates = runs_s.certified(ks)
    eu_vec, u_tables, u_rates = runs_u.certified(ks)
    certs = {
        j: ConvergenceCert(ns, nu, st, ut, rs, ru, tol)
        for j, ns, nu, st, ut, rs, ru in zip(
            js.tolist(), runs_s.n_star[ks].tolist(), runs_u.n_star[ks].tolist(),
            s_tables, u_tables, s_rates, u_rates,
        )
    }
    es = dict(zip(js.tolist(), map(ProjPoint, *es_vec.tolist())))
    eu = dict(zip(js.tolist(), map(ProjPoint, *eu_vec.tolist())))
    failed = [lo + int(o) for o in sites[~converged]]
    return ProductSweep((lo, hi), n_max, log_s1, log_s2, jrange, es, eu, certs, failed,
                        js, es_vec, eu_vec, (fa, fb, fc, fd))


def estimate_fields(
    seq: MatrixSequence,
    jrange: tuple[int, int] | None,
    n_max: int,
    tol: float,
) -> ProductSweep:
    """``estimate_splitting`` at every site of jrange, from one product sweep.

    jrange defaults to the window less four sites at its low end and three
    at its high end.  The returned sweep also carries the log-sigma layers
    to depth n_max + 1 for the gap and invertibility profiles.
    """
    if jrange is None:
        jrange = (seq.lo + 4, seq.hi - 3)
    return product_sweep(seq, n_max, tuple(jrange), tol)


def invariance_residual(
    seq: MatrixSequence,
    j: int,
    es_field: Mapping[int, ProjPoint],
    eu_field: Mapping[int, ProjPoint],
) -> tuple[float, float]:
    """Distance from B(j)-pushforward of the fields at j to the fields at j+1.

    When E^s(j) lies on the kernel of B(j) the stable residual becomes the
    distance to the kernel line itself (the line is absorbed); when B(j) is
    singular the unstable residual compares E^u(j+1) against the image line.
    """
    m = seq[j]
    sv = svd2(m)
    try:
        res_s = dist(act(m, es_field[j]), es_field[j + 1])
    except KernelHit:
        res_s = dist(es_field[j], kernel_line(sv))
    if sv.sigma2 == 0.0:
        res_u = dist(image_line(sv), eu_field[j + 1])
    else:
        res_u = dist(act(m, eu_field[j]), eu_field[j + 1])
    return res_s, res_u


def invariance_residuals(
    seq: MatrixSequence, sweep: ProductSweep
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``invariance_residual`` at every j where the sweep's fields converged
    at both j and j + 1, as arrays (js, res_s, res_u) in ascending j.

    The pushforward B(j)v, the kernel test and the distance to the field at
    j + 1 are taken for all such j at once.  The two rank-one cases, E^s(j)
    on the kernel of B(j) and the image line of a rank-one B(j), go to the
    scalar function; they arise only at singular insertions.
    """
    k = np.flatnonzero(sweep.js[1:] == sweep.js[:-1] + 1)
    js = sweep.js[k]
    m = tuple(f[js - sweep.window[0]] for f in sweep.factors)
    s1, s2, _ = _singular_values(*m)
    res = []
    hits = s2 == 0.0  # the unstable side reads the image line
    for vec in (sweep.es_vec, sweep.eu_vec):
        w0, w1 = _apply(m, vec[0, k], vec[1, k])
        hit = np.hypot(_abs(w0), _abs(w1)) <= KERNEL_REL_TOL * s1
        hits |= hit
        w0[hit] = 1.0  # any nonzero vector; the scalar function answers for these
        res.append(_dist(_project(w0, w1), vec[:, k + 1]))
    res_s, res_u = res
    for i in np.flatnonzero(hits).tolist():
        res_s[i], res_u[i] = invariance_residual(seq, int(js[i]), sweep.es, sweep.eu)
    return js, res_s, res_u
