"""Reference sequence families with known ground truth.

Every random family draws through a counter-based Philox generator keyed by
the seed with counter (site, stream, 0, 0), so the draws at a site depend
only on (seed, site, stream), never on the window or on the order of the
draws: widening a window reproduces the old entries bit for bit.  Each build
holds one generator per stream and resets its counter before every use.

Known defect, kept because fixing it would change every generated window:
Philox advances its counter before it fills a block, so words 1-4 of site j
come from counter (j + 1, stream, 0, 0) and words 5-8 from (j + 2, stream,
0, 0), which are words 1-4 of site j + 1.  Adjacent sites share raw words:
in conjugated_dominated the sin_t draw at j and the first Gaussian of
u(j + 1) are one 64-bit word.  At j = -1 the counter wraps and carries into
the stream word, so words 5-8 of site -1 are words 1-4 of site 0 on the
next stream: the frame's sin_t and phase at -1 are the rate draws at 0.

A window is built as one (4, L) stack.  The draws and the ``math`` calls
(``math.hypot`` of the Haar norm, ``math.cos`` / ``math.sin`` of a phase,
``math.exp`` / ``math.log``) run per site into arrays; everything else is
float-pair arithmetic on whole arrays (``_Cx``) that repeats, one operation
at a time, what the scalar complex expressions of each family compute, so a
stack holds the bits of the per-site ``Mat2C`` builds it replaces.

Each builder reads its params through ``_param``, which turns a value that
does not fit its field into InvalidSpec naming the param; a param that the
family does not read at all is refused the same way.
"""

from __future__ import annotations

import cmath
import copy
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .cocycle import MatrixSequence, _as_index, _json_fields, _project, _screen
from .errors import InvalidSpec, SingularMatrix
from .matrix2c import DET_REL_TOL, Mat2C, singular_values
from .projective import ProjPoint, project

RATE_MODES = ("perstep", "constant")


_U64 = 0xFFFFFFFFFFFFFFFF


class _Streams:
    """The draws of one build: one Philox generator per stream, keyed by the
    seed.  ``at(site, stream)`` sets that stream's counter to (site, stream,
    0, 0) and empties its buffer, which gives the draws of a fresh
    ``Generator(Philox(key, counter))`` at a fraction of the cost of building
    one; each stream keeps the state dict it sets, and only its counter's
    site word changes.  Streams do not share a generator, so a draw from one
    stream in the middle of another's leaves the other's draws as they
    are."""

    def __init__(self, seed: int):
        self._key = [seed & _U64, 0]
        self._gens: dict[int, tuple[np.random.Generator, dict, list]] = {}

    def at(self, site: int, stream: int) -> np.random.Generator:
        held = self._gens.get(stream)
        if held is None:
            counter = [0, stream & _U64, 0, 0]
            state = {
                "bit_generator": "Philox",
                "state": {"counter": counter, "key": self._key},
                "buffer": [0, 0, 0, 0],
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen = np.random.Generator(np.random.Philox(key=self._key[0]))
            held = self._gens[stream] = (gen, state, counter)
        gen, state, counter = held
        counter[0] = site & _U64
        gen.bit_generator.state = state
        return gen


class _Cx:
    """Complex numbers at many sites as two float arrays, with the
    arithmetic of CPython's complex type (Python <= 3.13) one operation at a
    time: a float operand x enters as (x, 0.0), + - * and conjugate() are
    the textbook formulas, and / takes both branches of ``_Py_c_quot`` and
    keeps, per site, the one CPython takes.  The parts stay separate float
    arrays, so numpy's complex multiply, which may fuse a*b - c*d, never
    runs.  A float stays a plain float array, as float arithmetic stays float
    in Python, so a stack built from floats keeps +0.0 imaginary parts where
    the scalar build kept floats."""

    __slots__ = ("re", "im")
    __array_ufunc__ = None  # ndarray op _Cx hands over to _Cx's reflected method

    def __init__(self, re, im):
        self.re, self.im = re, im

    @staticmethod
    def of(x) -> "_Cx":
        return x if isinstance(x, _Cx) else _Cx(x, 0.0)

    def __add__(self, other):
        other = _Cx.of(other)
        return _Cx(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _Cx.of(other)
        return _Cx(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _Cx.of(other) - self

    def __mul__(self, other):
        other = _Cx.of(other)
        return _Cx(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__  # _Py_c_prod(a, b) and _Py_c_prod(b, a) round alike

    def __truediv__(self, other):
        other = _Cx.of(other)
        # as arrays, so that the branch not taken divides by 0.0 without raising
        ar, ai, br, bi = map(np.asarray, (self.re, self.im, other.re, other.im))
        if np.any((br == 0.0) & (bi == 0.0)):
            raise ZeroDivisionError("complex division by zero")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = bi / br  # |b.real| >= |b.imag|: divide through by b.real
            denom = br + bi * ratio
            re1, im1 = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
            ratio = br / bi  # otherwise by b.imag
            denom = br * ratio + bi
            re2, im2 = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
        first = np.abs(br) >= np.abs(bi)
        return _Cx(np.where(first, re1, re2), np.where(first, im1, im2))

    def __rtruediv__(self, other):
        return _Cx.of(other) / self

    def __neg__(self):
        return _Cx(-self.re, -self.im)

    def conjugate(self):
        return _Cx(self.re, -self.im)

    def __abs__(self):
        return np.hypot(self.re, self.im)  # libm's hypot, as abs(complex) takes it


def _stack(entries, count: int) -> np.ndarray:
    """The (4, count) complex stack of four entries, each a _Cx or a float
    (imaginary part +0.0, as np.array gives a Python float), broadcast over
    the sites."""
    out = np.empty((len(entries), count), dtype=complex)
    for row, z in zip(out, entries):
        z = _Cx.of(z)
        row.real, row.imag = z.re, z.im
    return out


def _draws(streams: "_Streams", sites: range, stream: int, normals: int = 0, uniforms: int = 0):
    """Per site of ``sites``, ``normals`` standard normals and then
    ``uniforms`` uniforms from ``streams.at(site, stream)``, as a
    (normals, L) and a (uniforms, L) array."""
    g = np.empty((len(sites), normals))
    u = np.empty((len(sites), uniforms))
    for j, g_row, u_row in zip(sites, g, u):
        rng = streams.at(j, stream)
        if normals:
            rng.standard_normal(out=g_row)
        if uniforms:
            rng.random(out=u_row)
    return g.T, u.T


def _per_site(f, *xs: np.ndarray) -> np.ndarray:
    """f over the sites of float arrays, one call per site: for ``math``
    functions, whose bits numpy's need not match."""
    return np.array(list(map(f, *(x.tolist() for x in xs))), dtype=float)


def _haar_unit_vectors(g: np.ndarray) -> tuple[_Cx, _Cx]:
    """(v0, v1) / ||(v0, v1)|| with v0 = g0 + i g1 and v1 = g2 + i g3 at each
    site of a (4, L) draw; the norm is math.hypot of the two moduli."""
    v0, v1 = _Cx(g[0], g[1]), _Cx(g[2], g[3])
    n = _per_site(math.hypot, abs(v0), abs(v1))
    return v0 / n, v1 / n


def _orth(v):
    return (-v[1].conjugate(), v[0].conjugate())


def _unit_phase(r: np.ndarray) -> _Cx:
    t = 2.0 * math.pi * r
    return _Cx(_per_site(math.cos, t), _per_site(math.sin, t))


def _take(z, key):
    """z at the sites ``key``; a scalar, constant over the sites, as it is."""
    if isinstance(z, _Cx):
        return _Cx(_take(z.re, key), _take(z.im, key))
    return z[key] if np.ndim(z) else z


def _mul(x, y):
    """x . y over stacks of 2x2 matrices held as (a, b, c, d), summed as
    ``mul`` sums them."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _det(m):
    a, b, c, d = m
    return a * d - b * c


def example1(j: int) -> Mat2C:
    """Upper-triangular family [[2^(2-|j|), -3], [0, 2^(-|j+1|)]]."""
    return Mat2C(2.0 ** (2 - abs(j)), -3.0, 0.0, 2.0 ** (-abs(j + 1)))


def example1_closed_product(j: int, n: int) -> tuple[int, Mat2C]:
    """Closed form of the n-step product as (base-2 exponent, core matrix).

    B_n(j) = 2**exp2 * core with
    core = [[2^(2n-|j|), -2^(2n)+1], [0, 2^(-|j+n|)]] and
    exp2 = -sum_{k=1}^{n-1} |j+k|.  Valid for n >= 2.
    """
    if n < 2:
        raise ValueError("closed form requires n >= 2")
    exp2 = -sum(abs(j + k) for k in range(1, n))
    core = Mat2C(
        2.0 ** (2 * n - abs(j)),
        -(2.0 ** (2 * n)) + 1.0,
        0.0,
        2.0 ** (-abs(j + n)),
    )
    return exp2, core


@dataclass(frozen=True)
class GroundTruth:
    """Construction-time invariants of a generated dominated sequence.
    ``es`` and ``eu`` map each site to its field; a conjugated family keeps
    them as unit vectors (``_Points``)."""

    es: Mapping[int, ProjPoint]
    eu: Mapping[int, ProjPoint]
    lam: float  # per-step gap |lambda+|/|lambda-| certified by the construction
    n_steps: int  # the N for which the gap holds (1 for these families)
    delta: float  # min_j |det D(j)|; separation floor is 2*delta
    singular_sites: tuple[int, ...] = ()


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for a sequence family over a window."""

    family: str
    window: tuple[int, int]
    params: dict = dc_field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        # a copy: editing the caller's dict afterwards leaves the spec as it is
        object.__setattr__(self, "params", copy.deepcopy(self.params))
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        lo, hi = self.window
        if lo > hi:
            raise InvalidSpec(f"empty window [{lo}, {hi}]")

    def to_json_dict(self) -> dict:
        return _json_fields(self)

    @staticmethod
    def from_json_dict(doc: dict) -> "GeneratorSpec":
        try:
            return GeneratorSpec(
                family=doc["family"],
                window=(_as_index(doc["window"][0]), _as_index(doc["window"][1])),
                params=dict(doc.get("params", {})),
                seed=_as_index(doc.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InvalidSpec(f"malformed generator spec: {exc}") from exc


def _param(spec: GeneratorSpec, name: str, default, read):
    """spec.params[name], or ``default`` where it is absent, read by
    ``read``; None where both are None (the params that may be unset).  A
    value that ``read`` cannot take raises InvalidSpec naming the param."""
    value = spec.params.get(name, default)
    if value is None and default is None:
        return None
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"param {name!r} = {value!r}: {exc}") from None


def _real(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _complex(x) -> complex:
    x = complex(x)
    if not cmath.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _interval(x) -> tuple[float, float]:
    lo, hi = x  # ValueError unless x holds exactly two values
    return _real(lo), _real(hi)


def _bool(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError("not true or false")
    return x


def _rate_mode(x) -> str:
    if x not in RATE_MODES:
        raise ValueError(f"not one of {', '.join(RATE_MODES)}")
    return x


def _indices(x) -> tuple[int, ...]:
    return tuple(map(_as_index, x))


def _potential(x):
    if x == "zeros":
        return x
    if isinstance(x, dict):
        return {int(j): _real(v) for j, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_real(v) for v in x]
    raise ValueError("not 'zeros', a list, or a {j: v} table")


def _bound(factors: np.ndarray, s1: np.ndarray) -> float:
    """(1 + 1e-9) max sigma1(B(j)) + 1e-12 over a (4, L) stack, with s1 its
    sigma1 from ``_screen``.  ``singular_values`` takes sigma1 again, in
    column order, on the first of each distinct column within 1e-12 of the
    maximum or left to the scalar checks, so the bound and any error are
    those of the scalar max over every column."""
    top = np.fmax.reduce(s1, initial=0.0)  # flagged columns are nan
    near = np.flatnonzero(~(s1 < top * (1.0 - 1e-12)))
    cols = np.ascontiguousarray(factors[:, near].T).view(np.dtype((np.void, 64))).ravel()
    near = near[np.sort(np.unique(cols, return_index=True)[1])].tolist()
    return max(singular_values(Mat2C(*factors[:, k].tolist()))[0] for k in near) * (
        1.0 + 1e-9) + 1e-12


def _sequence(spec: GeneratorSpec, factors: np.ndarray, bound_M: float | None = None):
    """The (4, L) stack over the spec's window as a MatrixSequence with the
    spec as its source; bound_M from ``_bound`` unless given, and the
    stack's screen, taken once for it, handed on to the sequence."""
    screen = None
    if bound_M is None:
        screen = _screen(factors)
        try:
            bound_M = _bound(factors, screen[0])
        except OverflowError:  # the draws are bounded, so the params put it there
            raise InvalidSpec(
                f"params {spec.params} take a {spec.family} entry beyond float range"
            ) from None
    return MatrixSequence.from_factors(spec.window[0], factors, bound_M,
                                       source=spec.to_json_dict(), screen=screen)


class _Points(Mapping):
    """The read-only map from the sites lo, lo + 1, .. to the points whose
    unit representatives are the columns of a (2, K) array; a ``ProjPoint``
    is built only when its site is looked up."""

    def __init__(self, lo: int, vectors: np.ndarray):
        self._lo, self._vectors = lo, vectors

    def __getitem__(self, j) -> ProjPoint:
        try:
            k = operator.index(j) - self._lo
        except TypeError:
            raise KeyError(j) from None
        if not 0 <= k < len(self):
            raise KeyError(j)
        return ProjPoint(*self._vectors[:, k].tolist())

    def __iter__(self):
        return iter(range(self._lo, self._lo + len(self)))

    def __len__(self) -> int:
        return self._vectors.shape[1]


def _points(sites: range, v0, v1) -> _Points:
    """project((v0[k], v1[k])) at each site k, through the batched _project."""
    return _Points(sites.start, _project(*_stack((v0, v1), len(sites))))


def _build_example1(spec: GeneratorSpec):
    lo, hi = spec.window
    sites = range(lo, hi + 1)
    a = np.array([2.0 ** (2 - abs(j)) for j in sites])
    d = np.array([2.0 ** (-abs(j + 1)) for j in sites])
    eu = project((1.0, 0.0))
    truth = GroundTruth(
        es={j: project((1.0, 2.0 ** (-abs(j)))) for j in sites},
        eu={j: eu for j in sites},
        lam=2.0,
        n_steps=1,
        delta=min(2.0 ** (-abs(j)) / math.sqrt(1.0 + 4.0 ** (-abs(j))) for j in sites),
    )
    return _sequence(spec, _stack((a, -3.0, 0.0, d), len(sites)), 8.0), truth


# the diagonal family's param defaults, which the CLI's config echo records too
DIAGONAL_DEFAULTS = {"lplus": 2.0, "lminus": 1.0}


def _build_diagonal(spec: GeneratorSpec):
    lo, hi = spec.window
    lplus = _param(spec, "lplus", DIAGONAL_DEFAULTS["lplus"], _complex)
    lminus = _param(spec, "lminus", DIAGONAL_DEFAULTS["lminus"], _complex)
    if abs(lplus) <= abs(lminus):
        raise InvalidSpec("diagonal family needs |lplus| > |lminus|")
    if abs(lminus) == 0.0:
        raise InvalidSpec("diagonal family needs lminus != 0")
    m = (_Cx(lplus.real, lplus.imag), 0.0, 0.0, _Cx(lminus.real, lminus.imag))
    es, eu = ProjPoint.infinity(), ProjPoint.finite(0.0)
    truth = GroundTruth(
        es={j: es for j in range(lo, hi + 1)},
        eu={j: eu for j in range(lo, hi + 1)},
        lam=abs(lplus) / abs(lminus),
        n_steps=1,
        delta=1.0,
    )
    return _sequence(spec, _stack(m, hi - lo + 1)), truth


def _frames(streams: "_Streams", sites: range, sep_lo: float, sep_hi: float):
    """Unit-column frames D(j) = (u(j), s(j)) with |det| = sin(theta_j), as
    (a, b, c, d) over the sites."""
    g, r = _draws(streams, sites, 0, normals=4, uniforms=2)
    u = _haar_unit_vectors(g)
    uperp = _orth(u)
    sin_t = sep_lo + (sep_hi - sep_lo) * r[0]
    cos_t = np.sqrt(1.0 - sin_t * sin_t)
    phase = _unit_phase(r[1])
    s_col = (cos_t * u[0] + sin_t * phase * uperp[0], cos_t * u[1] + sin_t * phase * uperp[1])
    return (u[0], s_col[0], u[1], s_col[1])


def _rates(r: np.ndarray, lp_range, lm_range):
    """lambda+ and lambda- from two uniforms per site, as floats; the first
    site where |lambda+| > |lambda-| > 0 fails, or None."""
    lp = lp_range[0] + (lp_range[1] - lp_range[0]) * r[0]
    lm = lm_range[0] + (lm_range[1] - lm_range[0]) * r[1]
    bad = np.flatnonzero(~((np.abs(lp) > np.abs(lm)) & (np.abs(lm) > 0.0)))
    return lp, lm, (bad[0] if len(bad) else None)


def _first_singular(m, dt, count: int) -> int | None:
    """The first site whose frame ``inverse`` refuses as singular, or None;
    dt is the frames' det.  A frame has unit columns, so sigma1^2 <= 2 and
    only |det| <= 2.5e-12 can fail ``inverse``'s test; those sites take it
    with the scalar sigma1."""
    adet = np.broadcast_to(abs(dt), (count,))
    near = np.flatnonzero(adet <= 2.5 * DET_REL_TOL).tolist()
    stack = _stack(m, count) if near else None  # built once, and only for a near-singular site
    for k in near:
        s1 = singular_values(Mat2C(*stack[:, k].tolist()))[0]
        if adet[k] <= DET_REL_TOL * s1 * s1:
            return k
    return None


def _conjugated(spec: GeneratorSpec):
    """The stack, ground truth and lambda+ per site of conjugated_dominated,
    from the spec's window, seed and conjugated params alone."""
    lo, hi = spec.window
    sep_lo = _param(spec, "sep_lo", 0.35, _real)
    sep_hi = _param(spec, "sep_hi", 0.95, _real)
    if not (0.0 < sep_lo <= sep_hi <= 1.0):
        raise InvalidSpec("conjugator separation range must sit inside (0, 1]")
    theta = _param(spec, "theta", None, _real)
    lp_range = _param(spec, "lplus_range", (2.0, 3.0), _interval)
    lm_range = _param(spec, "lminus_range", (0.5, 1.0), _interval)
    constant = _param(spec, "rate_mode", "perstep", _rate_mode) == "constant"

    streams = _Streams(spec.seed)
    sites = range(lo, hi + 2)
    count = hi - lo + 1
    if theta is None:
        frames = _frames(streams, sites, sep_lo, sep_hi)
    else:
        c, s = math.cos(theta), math.sin(theta)
        frames = (c, -s, s, c)
    if constant:
        lp, lm, bad = _rates(_draws(streams, range(0, 1), 1, uniforms=2)[1], lp_range, lm_range)
        if bad is not None:
            raise InvalidSpec("conjugated family needs |lambda+| > |lambda-| > 0")
    else:
        lp, lm, bad = _rates(_draws(streams, range(lo, hi + 1), 1, uniforms=2)[1],
                             lp_range, lm_range)
    # B(j) = D(j+1) diag(lambda+, lambda-) D(j)^-1; the scalar loop met the
    # rate test and then inverse's test site by site, so the first site
    # failing either decides the error
    a, b, c, d = here = tuple(_take(f, slice(0, count)) for f in frames)
    dt = _det(here)
    singular = _first_singular(here, dt, count)
    if bad is not None and (singular is None or bad <= singular):
        raise InvalidSpec("conjugated family needs |lambda+| > |lambda-| > 0")
    if singular is not None:
        raise SingularMatrix("determinant below tolerance")
    inv = (d / dt, -b / dt, -c / dt, a / dt)
    lp, lm = _Cx(lp, 0.0), _Cx(lm, 0.0)  # complex(lp), complex(lm)
    there = tuple(_take(f, slice(1, None)) for f in frames)
    factors = _stack(_mul(there, _mul((lp, 0.0, 0.0, lm), inv)), count)
    truth = GroundTruth(
        es=_points(sites, frames[1], frames[3]),
        eu=_points(sites, frames[0], frames[2]),
        lam=float(np.min(abs(lp) / abs(lm))),
        n_steps=1,
        delta=float(np.min(abs(_det(frames)))),
    )
    return factors, truth, np.broadcast_to(lp.re, (count,))


def _build_conjugated(spec: GeneratorSpec):
    factors, truth, _ = _conjugated(spec)
    return _sequence(spec, factors), truth


def _build_schrodinger(spec: GeneratorSpec):
    lo, hi = spec.window
    energy = _param(spec, "energy", 3.0, _complex)
    pot = _param(spec, "potential", "zeros", _potential)
    if pot == "zeros":
        table = {j: 0.0 for j in range(lo, hi + 1)}
    elif isinstance(pot, dict):
        table = pot
    else:
        if len(pot) != hi - lo + 1:
            raise InvalidSpec("potential list length must match the window")
        table = {lo + k: v for k, v in enumerate(pot)}
    missing = [j for j in range(lo, hi + 1) if j not in table]
    if missing:
        raise InvalidSpec(f"potential table misses sites {missing[:4]}")
    v = np.array([table[j] for j in range(lo, hi + 1)], dtype=float)
    a = _Cx(energy.real, energy.imag) - v
    return _sequence(spec, _stack((a, -1.0, 1.0, 0.0), hi - lo + 1)), None


def _build_random_bounded(spec: GeneratorSpec):
    lo, hi = spec.window
    scale = _param(spec, "scale", 1.0, _real)
    g = _draws(_Streams(spec.seed), range(lo, hi + 1), 2, normals=8)[0]
    m = tuple(scale * _Cx(g[2 * k], g[2 * k + 1]) for k in range(4))
    return _sequence(spec, _stack(m, hi - lo + 1)), None


def _rank_one(strength: complex, image: tuple[complex, complex], through: tuple[complex, complex],
              kernel: tuple[complex, complex]) -> Mat2C:
    """Rank-one map sending ``through`` to strength*image and killing ``kernel``."""
    delta = through[0] * kernel[1] - through[1] * kernel[0]
    if abs(delta) < 1e-12:
        raise InvalidSpec("rank-one insertion needs kernel transverse to the carried line")
    f1, f2 = kernel[1] / delta, -kernel[0] / delta  # functional with f(through)=1, f(kernel)=0
    return Mat2C(
        strength * image[0] * f1,
        strength * image[0] * f2,
        strength * image[1] * f1,
        strength * image[1] * f2,
    )


def _build_random_singular(spec: GeneratorSpec):
    factors, truth, lplus = _conjugated(spec)
    insertions = _param(spec, "insertions", (), _indices)
    misaligned = _param(spec, "misaligned", False, _bool)
    lo, hi = spec.window
    for p in insertions:
        if not lo <= p <= hi:
            raise InvalidSpec(f"insertion site {p} outside window [{lo}, {hi}]")
        u_here = truth.eu[p].vector()
        s_here = truth.es[p].vector()
        if misaligned:
            image = truth.es[p + 1].vector()
        else:
            image = truth.eu[p + 1].vector()
        m = _rank_one(complex(lplus[p - lo]), image, u_here, s_here)
        factors[:, p - lo] = (m.a, m.b, m.c, m.d)
    new_truth = replace(truth, singular_sites=tuple(sorted(insertions)))
    return _sequence(spec, factors), new_truth


def _build_unitary(spec: GeneratorSpec):
    lo, hi = spec.window
    angle = _param(spec, "angle", None, _real)
    if angle is not None:
        c, s = math.cos(angle), math.sin(angle)
        m = (c, -s, s, c)
    else:
        streams = _Streams(spec.seed)
        sites = range(lo, hi + 1)
        u = _haar_unit_vectors(_draws(streams, sites, 3, normals=4)[0])
        w = _orth(u)
        phase = _unit_phase(_draws(streams, sites, 4, uniforms=1)[1][0])
        m = (u[0], phase * w[0], u[1], phase * w[1])
    return _sequence(spec, _stack(m, hi - lo + 1), 1.0 + 1e-9), None


def _build_ap_family(spec: GeneratorSpec):
    """Axis chains saturating the avalanche hypotheses at gap parameter mu.

    B(j) = U(j) diag(1, g_j) V(j)* with the angle between s(B(j+1)) and
    u(B(j)) drawn log-uniformly between ~1.2 mu^{-1/4} and 0.9, and
    g_j <= mu^{-1}.  Sites 0, 1, 2 (when inside the window) are pinned at the
    angle floor so the residual bound's mu-scaling is actually exercised.
    Angle geometry depends only on (seed, j), so sweeping mu with a fixed
    seed rescales gaps without moving the axes, and widening the window
    never changes existing entries.
    """
    lo, hi = spec.window
    mu = _param(spec, "mu", 1e4, _real)
    if mu <= 16.0:
        raise InvalidSpec("ap_family needs mu > 16 so the angle floor stays below 0.9")
    angle_floor = 1.2 * mu ** -0.25
    angle_cap = 0.9
    pinned = (0, 1, 2)

    # U(j) from the seed only; V(j+1) = U(j) W(j+1) with |W_11| the drawn angle.
    streams = _Streams(spec.seed)
    count = hi - lo + 1
    us = _haar_unit_vectors(_draws(streams, range(lo - 1, hi + 1), 5, normals=4)[0])
    r = _draws(streams, range(lo, hi + 1), 6, uniforms=3)[1]
    t = r[0].copy()
    for p in pinned:
        if lo <= p <= hi:
            t[p - lo] = 0.0
    c1 = _per_site(math.exp, math.log(angle_floor)
                   + t * (math.log(angle_cap) - math.log(angle_floor)))
    s1 = np.sqrt(1.0 - c1 * c1)
    ph = _unit_phase(r[1])
    # V(j): first column tilted off u(j-1) by the angle drawn at site j.
    u_prev = tuple(_take(z, slice(0, count)) for z in us)
    u_perp = _orth(u_prev)
    v1 = (c1 * u_prev[0] + s1 * ph * u_perp[0], c1 * u_prev[1] + s1 * ph * u_perp[1])
    v2 = _orth(v1)
    g = (0.25 + 0.7 * r[2]) / mu
    u1 = tuple(_take(z, slice(1, None)) for z in us)
    u2 = _orth(u1)
    # U diag(1, g) V*
    m = (
        u1[0] * v1[0].conjugate() + g * u2[0] * v2[0].conjugate(),
        u1[0] * v1[1].conjugate() + g * u2[0] * v2[1].conjugate(),
        u1[1] * v1[0].conjugate() + g * u2[1] * v2[0].conjugate(),
        u1[1] * v1[1].conjugate() + g * u2[1] * v2[1].conjugate(),
    )
    return _sequence(spec, _stack(m, count), 1.0 + 1e-6), None


_CONJUGATED_PARAMS = ("sep_lo", "sep_hi", "theta", "lplus_range", "lminus_range", "rate_mode")

# family -> (builder, the params it reads), in the order of FAMILIES;
# random_singular reads the conjugated params for the base it inserts into
_BUILDERS = {
    "example1": (_build_example1, ()),
    "diagonal": (_build_diagonal, ("lplus", "lminus")),
    "conjugated_dominated": (_build_conjugated, _CONJUGATED_PARAMS),
    "schrodinger": (_build_schrodinger, ("energy", "potential")),
    "random_bounded": (_build_random_bounded, ("scale",)),
    "random_singular": (_build_random_singular, ("insertions", "misaligned", *_CONJUGATED_PARAMS)),
    "unitary": (_build_unitary, ("angle",)),
    "ap_family": (_build_ap_family, ("mu",)),
}
FAMILIES = tuple(_BUILDERS)


def family_params(family: str) -> tuple[str, ...]:
    """The params that ``family`` reads; () for an unknown family."""
    return _BUILDERS.get(family, (None, ()))[1]


def build_with_truth(spec: GeneratorSpec) -> tuple[MatrixSequence, GroundTruth | None]:
    """Materializes the sequence over its window, with ground truth if known.
    A param the family does not read raises InvalidSpec naming it, so a
    misspelt key never falls back to the default silently."""
    build, names = _BUILDERS[spec.family]
    for name in spec.params:
        if name not in names:
            takes = ", ".join(names) or "no params"
            raise InvalidSpec(f"param {name!r} is not read by {spec.family} (it takes {takes})")
    # as the scalar float and complex arithmetic does, an overflow gives inf
    # or nan without a warning, and the bound or the constructor refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        return build(spec)
