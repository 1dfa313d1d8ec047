"""Reference sequence families with known ground truth.

Every random family draws through a counter-based Philox generator keyed by
the seed with counter (site, stream, 0, 0), so the draws at a site depend
only on (seed, site, stream), never on the window or on the order of the
draws: widening a window reproduces the old entries bit for bit.  Each build
holds one generator per stream and resets its counter before every use.

Each builder reads its params through ``_param``, which turns a value that
does not fit its field into InvalidSpec naming the param; a param that the
family does not read at all is refused the same way.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .cocycle import MatrixSequence, _as_index, _project, _screen
from .errors import InvalidSpec
from .matrix2c import Mat2C, det, inverse, mul, singular_values
from .projective import ProjPoint, project

RATE_MODES = ("perstep", "constant")
FAMILIES = (
    "example1",
    "diagonal",
    "conjugated_dominated",
    "schrodinger",
    "random_bounded",
    "random_singular",
    "unitary",
    "ap_family",
)


_U64 = 0xFFFFFFFFFFFFFFFF


class _Streams:
    """The draws of one build: one Philox generator per stream, keyed by the
    seed.  ``at(site, stream)`` sets that stream's counter to (site, stream,
    0, 0) and empties its buffer, which gives the draws of a fresh
    ``Generator(Philox(key, counter))`` at a fraction of the cost of building
    one.  Streams do not share a generator, so a draw from one stream in the
    middle of another's leaves the other's draws as they are."""

    def __init__(self, seed: int):
        self._key = [seed & _U64, 0]
        self._gens: dict[int, np.random.Generator] = {}

    def at(self, site: int, stream: int) -> np.random.Generator:
        gen = self._gens.get(stream)
        if gen is None:
            gen = self._gens[stream] = np.random.Generator(np.random.Philox(key=self._key[0]))
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [site & _U64, stream & _U64, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen


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
    """Construction-time invariants of a generated dominated sequence."""

    es: dict[int, ProjPoint]
    eu: dict[int, ProjPoint]
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
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        lo, hi = self.window
        if lo > hi:
            raise InvalidSpec(f"empty window [{lo}, {hi}]")

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "window": list(self.window),
            "params": self.params,
            "seed": self.seed,
        }

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


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


def _bound_from_entries(entries: dict[int, Mat2C]) -> float:
    """(1 + 1e-9) max sigma1(B(j)) + 1e-12.  sigma1 is taken on the stack of
    the entries; ``singular_values`` takes it again, in insertion order, on
    the rows within 1e-12 of the maximum and on those the stack leaves to the
    scalar checks, so the bound and any error are those of the scalar max."""
    mats = list(entries.values())
    s1 = _screen(np.array([(m.a, m.b, m.c, m.d) for m in mats], dtype=complex).T)[0]
    top = np.fmax.reduce(s1, initial=0.0)  # flagged rows are nan
    near = np.flatnonzero(~(s1 < top * (1.0 - 1e-12))).tolist()
    return max(singular_values(mats[k])[0] for k in near) * (1.0 + 1e-9) + 1e-12


def _sequence(spec: GeneratorSpec, entries: dict[int, Mat2C], bound_M: float | None = None):
    """The entries as a MatrixSequence with the spec as its source; bound_M
    from ``_bound_from_entries`` unless given."""
    if bound_M is None:
        try:
            bound_M = _bound_from_entries(entries)
        except OverflowError:  # the draws are bounded, so the params put it there
            raise InvalidSpec(
                f"params {spec.params} take a {spec.family} entry beyond float range"
            ) from None
    return MatrixSequence(entries, bound_M, source=spec.to_json_dict())


def _points(sites: range, v0: list, v1: list) -> dict[int, ProjPoint]:
    """project((v0[k], v1[k])) at each site k, through the batched _project."""
    p = _project(np.array(v0, dtype=complex), np.array(v1, dtype=complex))
    return dict(zip(sites, map(ProjPoint, *p.tolist())))


def _build_example1(spec: GeneratorSpec):
    lo, hi = spec.window
    entries = {j: example1(j) for j in range(lo, hi + 1)}
    truth = GroundTruth(
        es={j: project((1.0, 2.0 ** (-abs(j)))) for j in range(lo, hi + 1)},
        eu={j: project((1.0, 0.0)) for j in range(lo, hi + 1)},
        lam=2.0,
        n_steps=1,
        delta=min(2.0 ** (-abs(j)) / math.sqrt(1.0 + 4.0 ** (-abs(j))) for j in range(lo, hi + 1)),
    )
    return _sequence(spec, entries, 8.0), truth


def _build_diagonal(spec: GeneratorSpec):
    lo, hi = spec.window
    lplus = _param(spec, "lplus", 2.0, _complex)
    lminus = _param(spec, "lminus", 1.0, _complex)
    if abs(lplus) <= abs(lminus):
        raise InvalidSpec("diagonal family needs |lplus| > |lminus|")
    if abs(lminus) == 0.0:
        raise InvalidSpec("diagonal family needs lminus != 0")
    m = Mat2C(lplus, 0.0, 0.0, lminus)
    entries = {j: m for j in range(lo, hi + 1)}
    truth = GroundTruth(
        es={j: ProjPoint.infinity() for j in range(lo, hi + 1)},
        eu={j: ProjPoint.finite(0.0) for j in range(lo, hi + 1)},
        lam=abs(lplus) / abs(lminus),
        n_steps=1,
        delta=1.0,
    )
    return _sequence(spec, entries), truth


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


def _conjugated(spec: GeneratorSpec):
    """The entries, ground truth and lambda+ per site of conjugated_dominated."""
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
    if theta is None:
        frames = [_frame(streams.at(j, 0), sep_lo, sep_hi) for j in sites]
    else:
        c, s = math.cos(theta), math.sin(theta)
        frames = [Mat2C(c, -s, s, c)] * len(sites)
    if constant:
        rates = _rates(streams.at(0, 1), lp_range, lm_range)
    entries: dict[int, Mat2C] = {}
    lplus: dict[int, complex] = {}
    gaps = []
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


def _build_conjugated(spec: GeneratorSpec):
    entries, truth, _ = _conjugated(spec)
    return _sequence(spec, entries), truth


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
    entries = {
        j: Mat2C(energy - table[j], -1.0, 1.0, 0.0) for j in range(lo, hi + 1)
    }
    return _sequence(spec, entries), None


def _build_random_bounded(spec: GeneratorSpec):
    lo, hi = spec.window
    scale = _param(spec, "scale", 1.0, _real)
    streams = _Streams(spec.seed)
    entries: dict[int, Mat2C] = {}
    for j in range(lo, hi + 1):
        g = streams.at(j, 2).standard_normal(8).tolist()
        entries[j] = Mat2C(
            scale * complex(g[0], g[1]),
            scale * complex(g[2], g[3]),
            scale * complex(g[4], g[5]),
            scale * complex(g[6], g[7]),
        )
    return _sequence(spec, entries), None


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
    base_spec = GeneratorSpec(
        family="conjugated_dominated",
        window=spec.window,
        params={k: v for k, v in spec.params.items() if k not in ("insertions", "misaligned")},
        seed=spec.seed,
    )
    entries, truth, lplus = _conjugated(base_spec)
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
        entries[p] = _rank_one(lplus[p], image, u_here, s_here)
    new_truth = replace(truth, singular_sites=tuple(sorted(insertions)))
    return _sequence(spec, entries), new_truth


def _build_unitary(spec: GeneratorSpec):
    lo, hi = spec.window
    angle = _param(spec, "angle", None, _real)
    entries: dict[int, Mat2C] = {}
    if angle is not None:
        c, s = math.cos(angle), math.sin(angle)
        m = Mat2C(c, -s, s, c)
        entries = {j: m for j in range(lo, hi + 1)}
    else:
        streams = _Streams(spec.seed)
        for j in range(lo, hi + 1):
            u = _haar_unit_vector(streams.at(j, 3))
            w = _orth(u)
            ph = streams.at(j, 4).random()
            phase = complex(math.cos(2 * math.pi * ph), math.sin(2 * math.pi * ph))
            entries[j] = Mat2C(u[0], phase * w[0], u[1], phase * w[1])
    return _sequence(spec, entries, 1.0 + 1e-9), None


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
    us = {}
    for j in range(lo, hi + 2):
        us[j] = _haar_unit_vector(streams.at(j, 5))
    entries: dict[int, Mat2C] = {}
    for j in range(lo, hi + 1):
        rng = streams.at(j, 6)
        t = rng.random()
        if j in pinned:
            t = 0.0
        c1 = math.exp(math.log(angle_floor) + t * (math.log(angle_cap) - math.log(angle_floor)))
        s1 = math.sqrt(1.0 - c1 * c1)
        ph = _unit_phase(rng)
        # V(j): first column tilted off u(j-1) by the angle drawn at site j.
        u_prev = us[j - 1] if j - 1 >= lo else _haar_unit_vector(streams.at(j - 1, 5))
        u_perp = _orth(u_prev)
        v1 = (c1 * u_prev[0] + s1 * ph * u_perp[0], c1 * u_prev[1] + s1 * ph * u_perp[1])
        v2 = _orth(v1)
        g = (0.25 + 0.7 * rng.random()) / mu
        u1, u2 = us[j], _orth(us[j])
        # U diag(1, g) V*
        entries[j] = Mat2C(
            u1[0] * v1[0].conjugate() + g * u2[0] * v2[0].conjugate(),
            u1[0] * v1[1].conjugate() + g * u2[0] * v2[1].conjugate(),
            u1[1] * v1[0].conjugate() + g * u2[1] * v2[0].conjugate(),
            u1[1] * v1[1].conjugate() + g * u2[1] * v2[1].conjugate(),
        )
    return _sequence(spec, entries, 1.0 + 1e-6), None


_CONJUGATED_PARAMS = ("sep_lo", "sep_hi", "theta", "lplus_range", "lminus_range", "rate_mode")

# family -> (builder, the params it reads); random_singular hands its other
# params on to the conjugated_dominated base it inserts into
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
    return build(spec)
