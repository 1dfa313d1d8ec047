"""Reference sequence families with known ground truth.

Every random family draws through a counter-based generator keyed by
(seed, site, stream), so the value at a site never depends on the window:
widening a window reproduces the old entries bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cocycle import MatrixSequence
from .errors import InvalidSpec
from .matrix2c import Mat2C, det, inverse, mul, singular_values
from .projective import ProjPoint, project

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


def _rng(seed: int, site: int, stream: int) -> np.random.Generator:
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    counter = [
        np.uint64(site & 0xFFFFFFFFFFFFFFFF),
        np.uint64(stream & 0xFFFFFFFFFFFFFFFF),
        np.uint64(0),
        np.uint64(0),
    ]
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _haar_unit_vector(rng: np.random.Generator) -> tuple[complex, complex]:
    g = rng.standard_normal(4)
    v = (complex(g[0], g[1]), complex(g[2], g[3]))
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
                window=(int(doc["window"][0]), int(doc["window"][1])),
                params=dict(doc.get("params", {})),
                seed=int(doc.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InvalidSpec(f"malformed generator spec: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def build(self) -> MatrixSequence:
        seq, _ = build_with_truth(self)
        return seq


def _bound_from_entries(entries: dict[int, Mat2C]) -> float:
    worst = max(singular_values(m)[0] for m in entries.values())
    return worst * (1.0 + 1e-9) + 1e-12


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
    return MatrixSequence(entries, 8.0, source=spec.to_json_dict()), truth


def _build_diagonal(spec: GeneratorSpec):
    lo, hi = spec.window
    lplus = complex(spec.params.get("lplus", 2.0))
    lminus = complex(spec.params.get("lminus", 1.0))
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
    return MatrixSequence(entries, _bound_from_entries(entries), source=spec.to_json_dict()), truth


def _conjugator(spec: GeneratorSpec, j: int, sep_lo: float, sep_hi: float) -> Mat2C:
    """Unit-column frame D(j) = (u(j), s(j)) with |det| = sin(theta_j)."""
    theta = spec.params.get("theta")
    if theta is not None:
        c, s = math.cos(theta), math.sin(theta)
        return Mat2C(c, -s, s, c)
    rng = _rng(spec.seed, j, 0)
    u = _haar_unit_vector(rng)
    uperp = _orth(u)
    sin_t = sep_lo + (sep_hi - sep_lo) * rng.random()
    cos_t = math.sqrt(1.0 - sin_t * sin_t)
    phase = _unit_phase(rng)
    s_col = (cos_t * u[0] + sin_t * phase * uperp[0], cos_t * u[1] + sin_t * phase * uperp[1])
    return Mat2C(u[0], s_col[0], u[1], s_col[1])


def _rates(spec: GeneratorSpec, j: int) -> tuple[complex, complex]:
    lp_range = spec.params.get("lplus_range", (2.0, 3.0))
    lm_range = spec.params.get("lminus_range", (0.5, 1.0))
    if spec.params.get("rate_mode", "perstep") == "constant":
        rng = _rng(spec.seed, 0, 1)
    else:
        rng = _rng(spec.seed, j, 1)
    lp = lp_range[0] + (lp_range[1] - lp_range[0]) * rng.random()
    lm = lm_range[0] + (lm_range[1] - lm_range[0]) * rng.random()
    return complex(lp), complex(lm)


def _build_conjugated(spec: GeneratorSpec):
    lo, hi = spec.window
    sep_lo = float(spec.params.get("sep_lo", 0.35))
    sep_hi = float(spec.params.get("sep_hi", 0.95))
    if not (0.0 < sep_lo <= sep_hi <= 1.0):
        raise InvalidSpec("conjugator separation range must sit inside (0, 1]")

    frames = {j: _conjugator(spec, j, sep_lo, sep_hi) for j in range(lo, hi + 2)}
    entries: dict[int, Mat2C] = {}
    gaps = []
    delta = math.inf
    for j in range(lo, hi + 1):
        lp, lm = _rates(spec, j)
        if not abs(lp) > abs(lm) > 0.0:
            raise InvalidSpec("conjugated family needs |lambda+| > |lambda-| > 0")
        gaps.append(abs(lp) / abs(lm))
        lam_j = Mat2C(lp, 0.0, 0.0, lm)
        entries[j] = mul(frames[j + 1], mul(lam_j, inverse(frames[j])))
    for j in range(lo, hi + 2):
        delta = min(delta, abs(det(frames[j])))
    truth = GroundTruth(
        es={j: project((frames[j].b, frames[j].d)) for j in range(lo, hi + 2)},
        eu={j: project((frames[j].a, frames[j].c)) for j in range(lo, hi + 2)},
        lam=min(gaps),
        n_steps=1,
        delta=delta,
    )
    return MatrixSequence(entries, _bound_from_entries(entries), source=spec.to_json_dict()), truth


def _build_schrodinger(spec: GeneratorSpec):
    lo, hi = spec.window
    energy = complex(spec.params.get("energy", 3.0))
    pot = spec.params.get("potential", "zeros")
    if pot == "zeros":
        table = {j: 0.0 for j in range(lo, hi + 1)}
    elif isinstance(pot, dict):
        try:
            table = {int(j): float(v) for j, v in pot.items()}
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"bad potential table: {exc}") from exc
    elif isinstance(pot, (list, tuple)):
        if len(pot) != hi - lo + 1:
            raise InvalidSpec("potential list length must match the window")
        table = {lo + k: float(v) for k, v in enumerate(pot)}
    else:
        raise InvalidSpec("potential must be 'zeros', a list, or a {j: v} table")
    missing = [j for j in range(lo, hi + 1) if j not in table]
    if missing:
        raise InvalidSpec(f"potential table misses sites {missing[:4]}")
    entries = {
        j: Mat2C(energy - table[j], -1.0, 1.0, 0.0) for j in range(lo, hi + 1)
    }
    return MatrixSequence(entries, _bound_from_entries(entries), source=spec.to_json_dict()), None


def _build_random_bounded(spec: GeneratorSpec):
    lo, hi = spec.window
    scale = float(spec.params.get("scale", 1.0))
    entries: dict[int, Mat2C] = {}
    for j in range(lo, hi + 1):
        g = _rng(spec.seed, j, 2).standard_normal(8)
        entries[j] = Mat2C(
            scale * complex(g[0], g[1]),
            scale * complex(g[2], g[3]),
            scale * complex(g[4], g[5]),
            scale * complex(g[6], g[7]),
        )
    return MatrixSequence(entries, _bound_from_entries(entries), source=spec.to_json_dict()), None


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
    seq, truth = _build_conjugated(base_spec)
    insertions = spec.params.get("insertions", ())
    misaligned = bool(spec.params.get("misaligned", False))
    lo, hi = spec.window
    entries = {j: seq[j] for j in seq.indices()}
    for p in insertions:
        p = int(p)
        if not lo <= p <= hi:
            raise InvalidSpec(f"insertion site {p} outside window [{lo}, {hi}]")
        lp, _ = _rates(base_spec, p)
        u_here = truth.eu[p].vector()
        s_here = truth.es[p].vector()
        if misaligned:
            image = truth.es[p + 1].vector()
        else:
            image = truth.eu[p + 1].vector()
        entries[p] = _rank_one(lp, image, u_here, s_here)
    new_truth = GroundTruth(
        es=truth.es,
        eu=truth.eu,
        lam=truth.lam,
        n_steps=truth.n_steps,
        delta=truth.delta,
        singular_sites=tuple(sorted(int(p) for p in insertions)),
    )
    return MatrixSequence(entries, _bound_from_entries(entries), source=spec.to_json_dict()), new_truth


def _build_unitary(spec: GeneratorSpec):
    lo, hi = spec.window
    angle = spec.params.get("angle")
    entries: dict[int, Mat2C] = {}
    if angle is not None:
        c, s = math.cos(angle), math.sin(angle)
        m = Mat2C(c, -s, s, c)
        entries = {j: m for j in range(lo, hi + 1)}
    else:
        for j in range(lo, hi + 1):
            u = _haar_unit_vector(_rng(spec.seed, j, 3))
            w = _orth(u)
            ph = _rng(spec.seed, j, 4).random()
            phase = complex(math.cos(2 * math.pi * ph), math.sin(2 * math.pi * ph))
            entries[j] = Mat2C(u[0], phase * w[0], u[1], phase * w[1])
    return MatrixSequence(entries, 1.0 + 1e-9, source=spec.to_json_dict()), None


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
    mu = float(spec.params.get("mu", 1e4))
    if mu <= 16.0:
        raise InvalidSpec("ap_family needs mu > 16 so the angle floor stays below 0.9")
    angle_floor = 1.2 * mu ** -0.25
    angle_cap = 0.9
    pinned = (0, 1, 2)

    # U(j) from the seed only; V(j+1) = U(j) W(j+1) with |W_11| the drawn angle.
    us = {}
    for j in range(lo, hi + 2):
        us[j] = _haar_unit_vector(_rng(spec.seed, j, 5))
    entries: dict[int, Mat2C] = {}
    for j in range(lo, hi + 1):
        rng = _rng(spec.seed, j, 6)
        t = rng.random()
        if j in pinned:
            t = 0.0
        c1 = math.exp(math.log(angle_floor) + t * (math.log(angle_cap) - math.log(angle_floor)))
        s1 = math.sqrt(1.0 - c1 * c1)
        ph = _unit_phase(rng)
        # V(j): first column tilted off u(j-1) by the angle drawn at site j.
        u_prev = us[j - 1] if j - 1 >= lo else _haar_unit_vector(_rng(spec.seed, j - 1, 5))
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
    return MatrixSequence(entries, 1.0 + 1e-6, source=spec.to_json_dict()), None


_BUILDERS = {
    "example1": _build_example1,
    "diagonal": _build_diagonal,
    "conjugated_dominated": _build_conjugated,
    "schrodinger": _build_schrodinger,
    "random_bounded": _build_random_bounded,
    "random_singular": _build_random_singular,
    "unitary": _build_unitary,
    "ap_family": _build_ap_family,
}


def build_with_truth(spec: GeneratorSpec) -> tuple[MatrixSequence, GroundTruth | None]:
    """Materializes the sequence over its window, with ground truth if known."""
    return _BUILDERS[spec.family](spec)
