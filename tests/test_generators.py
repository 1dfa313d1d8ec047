import json
import math
import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from domsplit import (
    GeneratorSpec,
    InvalidSpec,
    Mat2C,
    build_with_truth,
    check_domination,
    det,
    dist,
    example1,
    example1_closed_product,
    image_line,
    kernel_line,
    singular_values,
    svd2,
    window_product,
)
from domsplit import cocycle, generators
from domsplit.generators import FAMILIES

from conftest import scalar_bound, scalar_build

LN2 = math.log(2.0)


class TestExample1:
    def test_entries(self):
        assert example1(0) == Mat2C(4.0, -3.0, 0.0, 0.5)
        assert example1(-1) == Mat2C(2.0, -3.0, 0.0, 1.0)
        assert example1(2) == Mat2C(1.0, -3.0, 0.0, 0.125)

    def test_norm_floor_three(self):
        for j in range(-30, 31):
            s1, _ = singular_values(example1(j))
            assert s1 >= 3.0

    def test_one_step_gap(self):
        # ||B(j) u|| >= 2 ||B(j) s|| on the invariant frame
        for j in range(-20, 21):
            m = example1(j)
            u = (1.0, 0.0)
            s_raw = (1.0, 2.0 ** (-abs(j)))
            ns = math.hypot(abs(s_raw[0]), abs(s_raw[1]))
            s = (s_raw[0] / ns, s_raw[1] / ns)
            mu_ = m.apply(u)
            ms = m.apply(s)
            nu_ = math.hypot(abs(mu_[0]), abs(mu_[1]))
            nms = math.hypot(abs(ms[0]), abs(ms[1]))
            assert nu_ >= 2.0 * nms * (1 - 1e-12)

    def test_closed_product_small(self):
        e2, core = example1_closed_product(0, 2)
        assert e2 == -1
        assert core == Mat2C(16.0, -15.0, 0.0, 0.25)

    def test_closed_product_exponent(self):
        e2, core = example1_closed_product(-5, 10)
        assert e2 == -(4 + 3 + 2 + 1 + 0 + 1 + 2 + 3 + 4)
        assert core.a == 2.0**15
        assert core.b == -(2.0**20) + 1.0
        assert core.d == 2.0**-5

    def test_closed_product_needs_two(self):
        with pytest.raises(ValueError):
            example1_closed_product(0, 1)

    def test_sigma_bounds_from_max_norm(self):
        # sigma1 >= 2^(-sum_{k=1}^{n-1}|j+k|) (2^{2n}-1) and
        # sigma2 <= 2^(-sum_{k=0}^{n}|j+k|) / (1 - 4^{-n}); the 1 - 4^{-n}
        # factor is the max entry being 2^{2n}-1, not 2^{2n}
        seq, _ = build_with_truth(GeneratorSpec("example1", (-20, 40)))
        for j in (-10, -3, 0, 5):
            for n in (2, 6, 12):
                p = window_product(seq, j, n)
                ls2_bound = -sum(abs(j + k) for k in range(0, n + 1)) * LN2 - math.log1p(-4.0**-n)
                ls1_bound = -sum(abs(j + k) for k in range(1, n)) * LN2 + math.log(4.0**n - 1)
                assert p.log_sigma2 <= ls2_bound + 1e-9
                assert p.log_sigma1 >= ls1_bound - 1e-9


class TestGeneratorSpec:
    def test_json_roundtrip(self):
        spec = GeneratorSpec("conjugated_dominated", (-5, 5), params={"sep_lo": 0.4}, seed=9)
        back = GeneratorSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert back == spec

    def test_unknown_family(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec("nope", (0, 1))

    def test_empty_window(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec("diagonal", (3, 1))

    def test_determinism_and_window_independence(self):
        for fam, params in (
            ("conjugated_dominated", {}),
            ("random_bounded", {}),
            ("unitary", {}),
            ("ap_family", {"mu": 1e3}),
        ):
            a, _ = build_with_truth(GeneratorSpec(fam, (-6, 6), params=params, seed=21))
            b, _ = build_with_truth(GeneratorSpec(fam, (-12, 12), params=params, seed=21))
            for j in a.indices():
                assert a[j] == b[j], (fam, j)

    def test_serialized_sequence_deterministic(self):
        spec = GeneratorSpec("conjugated_dominated", (-8, 8), seed=3)
        s1, _ = build_with_truth(spec)
        s2, _ = build_with_truth(spec)
        assert json.dumps(s1.to_json_dict()) == json.dumps(s2.to_json_dict())


class TestDiagonal:
    def test_constant_entries(self):
        seq, truth = build_with_truth(
            GeneratorSpec("diagonal", (0, 4), params={"lplus": 2.0, "lminus": 1.0})
        )
        assert seq[2] == Mat2C(2.0, 0.0, 0.0, 1.0)
        assert truth.lam == 2.0

    def test_gap_required(self):
        with pytest.raises(InvalidSpec):
            build_with_truth(GeneratorSpec("diagonal", (0, 4), params={"lplus": 1.0, "lminus": 1.0}))


class TestConjugated:
    def test_identity_conjugator_is_diagonal(self):
        seq, _ = build_with_truth(
            GeneratorSpec(
                "conjugated_dominated", (0, 5),
                params={"theta": 0.0, "lplus_range": (2.0, 2.0), "lminus_range": (1.0, 1.0)},
            )
        )
        assert seq[0] == Mat2C(2.0 + 0j, 0j, 0j, 1.0 + 0j)

    def test_rotation_conjugator_fields(self):
        theta = 0.3
        seq, truth = build_with_truth(
            GeneratorSpec("conjugated_dominated", (-5, 5), params={"theta": theta})
        )
        for j in range(-5, 6):
            assert abs(truth.eu[j].affine - math.tan(theta)) <= 1e-12
            # stable axis is the rotated e2: affine -cot(theta)
            assert abs(truth.es[j].affine - (-1.0 / math.tan(theta))) <= 1e-12

    def test_frame_invariance(self):
        spec = GeneratorSpec("conjugated_dominated", (-10, 10), seed=17)
        seq, truth = build_with_truth(spec)
        from domsplit import act

        for j in range(-10, 10):
            assert dist(act(seq[j], truth.eu[j]), truth.eu[j + 1]) <= 1e-10
            assert dist(act(seq[j], truth.es[j]), truth.es[j + 1]) <= 1e-10

    def test_unit_columns_and_delta(self):
        spec = GeneratorSpec("conjugated_dominated", (-10, 10), seed=17)
        _, truth = build_with_truth(spec)
        assert 0.0 < truth.delta <= 1.0

    def test_constant_rate_gap(self):
        spec = GeneratorSpec(
            "conjugated_dominated", (-10, 10), params={"rate_mode": "constant"}, seed=2
        )
        seq, truth = build_with_truth(spec)
        # every step realizes exactly the recorded gap on the frame
        from domsplit import act

        for j in (-5, 0, 5):
            u = truth.eu[j].vector()
            s = truth.es[j].vector()
            gu = seq[j].apply(u)
            gs = seq[j].apply(s)
            ratio = math.hypot(abs(gu[0]), abs(gu[1])) / math.hypot(abs(gs[0]), abs(gs[1]))
            assert abs(ratio - truth.lam) <= 1e-9 * truth.lam


class TestSchrodinger:
    def test_transfer_matrix_shape(self):
        seq, _ = build_with_truth(
            GeneratorSpec("schrodinger", (0, 3), params={"energy": 3.0})
        )
        assert seq[0] == Mat2C(3.0 + 0j, -1.0, 1.0, 0.0)
        assert det(seq[0]) == 1.0 + 0j

    def test_potential_table(self):
        seq, _ = build_with_truth(
            GeneratorSpec("schrodinger", (0, 2), params={"energy": 1.0, "potential": [1.0, 2.0, 3.0]})
        )
        assert seq[1] == Mat2C(-1.0 + 0j, -1.0, 1.0, 0.0)

    def test_bad_potential_length(self):
        with pytest.raises(InvalidSpec):
            build_with_truth(
                GeneratorSpec("schrodinger", (0, 5), params={"potential": [0.0, 1.0]})
            )


class TestRandomSingular:
    def test_spec_example_insertion_matrix(self):
        spec = GeneratorSpec(
            "random_singular", (-3, 3),
            params={"theta": 0.0, "lplus_range": (2.0, 2.0), "lminus_range": (1.0, 1.0),
                    "insertions": [0]},
        )
        seq, truth = build_with_truth(spec)
        assert abs(seq[0].a - 2.0) <= 1e-12
        assert abs(seq[0].b) <= 1e-12 and abs(seq[0].c) <= 1e-12 and abs(seq[0].d) <= 1e-12
        assert truth.singular_sites == (0,)

    def test_no_insertions_matches_base(self):
        a, _ = build_with_truth(GeneratorSpec("random_singular", (-5, 5), seed=4))
        b, _ = build_with_truth(GeneratorSpec("conjugated_dominated", (-5, 5), seed=4))
        for j in a.indices():
            assert a[j] == b[j]

    def test_aligned_kernel_image_fields(self):
        spec = GeneratorSpec("random_singular", (-30, 30), params={"insertions": [0]}, seed=13)
        seq, _ = build_with_truth(spec)
        rep = check_domination(seq, jrange=(-4, 6))
        assert rep.verdict == "dominated"
        for jp in (-4, -1, 0):
            prod = window_product(seq, jp, 0 - jp + 1)
            assert dist(rep.es[jp], kernel_line(prod.svd())) <= 1e-8
        for jp in (1, 4, 6):
            prod = window_product(seq, 0, jp - 0)
            assert dist(rep.eu[jp], image_line(prod.svd())) <= 1e-8

    def test_misaligned_collapses_separation(self):
        spec = GeneratorSpec(
            "random_singular", (-30, 30),
            params={"insertions": [0], "misaligned": True}, seed=13,
        )
        seq, _ = build_with_truth(spec)
        rep = check_domination(seq, jrange=(-4, 6))
        assert rep.verdict == "not_dominated"
        assert any("condition (c)" in w for w in rep.witnesses)

    def test_insertion_outside_window(self):
        with pytest.raises(InvalidSpec):
            build_with_truth(
                GeneratorSpec("random_singular", (0, 5), params={"insertions": [9]})
            )


class TestApFamily:
    def test_unit_top_singular_value(self):
        seq, _ = build_with_truth(GeneratorSpec("ap_family", (-5, 5), params={"mu": 1e3}, seed=0))
        for j in seq.indices():
            s1, s2 = singular_values(seq[j])
            assert abs(s1 - 1.0) <= 1e-12
            assert s2 <= 1e-3 * (1 + 1e-9)

    def test_mu_must_exceed_floor(self):
        with pytest.raises(InvalidSpec):
            build_with_truth(GeneratorSpec("ap_family", (0, 5), params={"mu": 4.0}))


class TestUnitaryFamily:
    def test_random_entries_are_unitary(self):
        seq, _ = build_with_truth(GeneratorSpec("unitary", (-5, 5), seed=8))
        for j in seq.indices():
            sv = svd2(seq[j])
            assert abs(sv.sigma1 - 1.0) <= 1e-12
            assert sv.degenerate


M64 = 0xFFFFFFFFFFFFFFFF


class FreshStreams:
    """The reference stream provider: a fresh Generator(Philox(key, counter))
    for every draw, keyed by the seed with counter (site, stream, 0, 0)."""

    def __init__(self, seed: int):
        self.seed = seed

    def at(self, site: int, stream: int) -> np.random.Generator:
        key = np.uint64(self.seed & M64)
        counter = [np.uint64(site & M64), np.uint64(stream & M64), np.uint64(0), np.uint64(0)]
        return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _hex(z) -> tuple[str, str]:
    return float.hex(z.real), float.hex(z.imag)


def bits(seq, truth) -> list:
    """A build as bits: the factor stack, bound_M and every ground truth
    field, floats as float.hex."""
    out = [seq.factors.tobytes(), seq.bound_M.hex()]
    if truth is not None:
        for side in (truth.es, truth.eu):
            out.append([(j, *_hex(p.v1), *_hex(p.v2)) for j, p in side.items()])
        out.append((truth.lam.hex(), truth.n_steps, truth.delta.hex(), truth.singular_sites))
    return out


def build_bits(spec: GeneratorSpec) -> list:
    return bits(*build_with_truth(spec))


FAMILY_CASES = [
    ("example1", {}),
    ("diagonal", {}),
    ("conjugated_dominated", {}),
    ("conjugated_dominated", {"rate_mode": "constant"}),
    ("schrodinger", {}),
    ("random_bounded", {}),
    ("random_singular", {"insertions": [7, 0]}),
    ("unitary", {}),
    ("ap_family", {}),
]
assert {f for f, _ in FAMILY_CASES} == set(FAMILIES)


class TestStreams:
    @pytest.mark.parametrize("family,params", FAMILY_CASES)
    def test_reused_generators_draw_as_fresh_ones(self, family, params):
        for seed in (0, 1, 2):
            for window in ((-45, 45), (0, 400)):
                spec = GeneratorSpec(family, window, params, seed)
                got = build_bits(spec)
                with mock.patch.object(generators, "_Streams", FreshStreams):
                    want = build_bits(spec)
                assert got == want, (family, seed, window)

    def test_constant_rates_drawn_once(self):
        spec = GeneratorSpec("conjugated_dominated", (-45, 45), {"rate_mode": "constant"}, 4)
        calls = []
        at = generators._Streams.at

        def counted(streams, site, stream):
            calls.append((site, stream))
            return at(streams, site, stream)

        with mock.patch.object(generators._Streams, "at", counted):
            build_with_truth(spec)
        assert [c for c in calls if c[1] == 1] == [(0, 1)]
        assert sorted(c for c in calls if c[1] == 0) == [(j, 0) for j in range(-45, 47)]

    def test_concurrent_builds_match_sequential(self):
        specs = [
            GeneratorSpec("conjugated_dominated", (-150, 150), {}, 1),
            GeneratorSpec("ap_family", (-150, 150), {"mu": 1e3}, 2),
        ]
        want = [build_bits(s) for s in specs]
        results = {}

        def work(k):
            results[k] = [build_bits(specs[k % 2]) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == [0, 1, 2, 3]
        for k, got in results.items():
            assert got == [want[k % 2]] * 3, k


def stack(entries: dict) -> np.ndarray:
    """The entries as a (4, L) stack, columns in insertion order."""
    return np.array([(m.a, m.b, m.c, m.d) for m in entries.values()], dtype=complex).T.copy()


def bound_of(factors: np.ndarray) -> float:
    """``_bound`` of a stack with the sigma1 of its own screen."""
    return generators._bound(factors, cocycle._screen(factors)[0])


class TestBound:
    @pytest.mark.parametrize("family,params", FAMILY_CASES)
    def test_matches_scalar_max(self, family, params):
        for seed in (0, 1, 2):
            seq, _ = build_with_truth(GeneratorSpec(family, (-45, 45), params, seed))
            entries = {j: seq[j] for j in seq.indices()}
            assert bound_of(seq.factors).hex() == scalar_bound(entries).hex()
            for c in (1e-290, 1e-150, 1e150, 1e290):
                scaled = {j: m.scale(c) for j, m in entries.items()}
                assert bound_of(stack(scaled)).hex() == scalar_bound(scaled).hex()

    def test_ties_and_reordering(self):
        m = Mat2C(1.0 + 2.0j, -0.5, 0.25j, 3.0)
        entries = {3: m.scale(1 - 2**-52), 1: m, 2: m.scale(-1.0), 0: m.scale(0.5)}
        assert bound_of(stack(entries)).hex() == scalar_bound(entries).hex()

    @pytest.mark.parametrize("bad", [Mat2C(0j, 0j, 0j, 0j), Mat2C(1.7e308 + 1.7e308j, 0, 0, 1)])
    def test_raises_as_scalar_max(self, bad):
        entries = {0: Mat2C(1.0, 0, 0, 1), 1: bad, 2: Mat2C(2.0, 0, 0, 1), 3: bad}
        with pytest.raises(Exception) as want:
            scalar_bound(entries)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            bound_of(stack(entries))

    def test_first_of_each_distinct_column(self):
        """A constant window takes one scalar sigma1, and the first failing
        column still decides the error."""
        one = Mat2C(2.0, 0.5j, 0, 1)
        calls = []
        sv = generators.singular_values
        with mock.patch.object(generators, "singular_values",
                               lambda m: calls.append(m) or sv(m)):
            bound = bound_of(stack({j: one for j in range(50)}))
        assert calls == [one] and bound.hex() == scalar_bound({0: one}).hex()
        zero, huge = Mat2C(0j, 0j, 0j, 0j), Mat2C(1.7e308 + 1.7e308j, 0, 0, 1)
        for first, then in ((zero, huge), (huge, zero)):
            entries = {0: one, 1: first, 2: then, 3: first, 4: then}
            with pytest.raises(Exception) as want:
                scalar_bound(entries)
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                bound_of(stack(entries))


# Python 3.14 multiplies and divides a float into a complex without making
# it (x, 0.0) first; the stacks keep the arithmetic of 3.10 - 3.13.
SCALAR_ARITHMETIC = pytest.mark.skipif(
    sys.version_info >= (3, 14), reason="mixed float/complex arithmetic changed in 3.14")

_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, -1e300, 5e-324, 1.7e308)


def _as_pair(z):
    """A Python number as the bits generators._Cx would hold: (type, re, im)."""
    if isinstance(z, complex):
        return complex, z.real.hex(), z.imag.hex()
    return float, float(z).hex()


def _pairs(z, n: int) -> list:
    """The n sites of a float array or a generators._Cx as _as_pair gives them."""
    if isinstance(z, generators._Cx):
        re, im = np.broadcast_to(z.re, (n,)).tolist(), np.broadcast_to(z.im, (n,)).tolist()
        return [(complex, a.hex(), b.hex()) for a, b in zip(re, im)]
    return [(float, a.hex()) for a in np.broadcast_to(z, (n,)).tolist()]


@SCALAR_ARITHMETIC
class TestCx:
    """generators._Cx against Python's own complex and float arithmetic,
    operation by operation, on signed zeros, ties of |re| and |im|,
    subnormals and values that overflow."""

    values = [complex(a, b) for a in _PARTS for b in _PARTS] + list(_PARTS)

    def as_array(self, xs):
        if all(isinstance(x, complex) for x in xs):
            return generators._Cx(np.array([x.real for x in xs]), np.array([x.imag for x in xs]))
        return np.array(xs, dtype=float)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
    def test_binary(self, op):
        import operator
        f = getattr(operator, op)
        cs = [v for v in self.values if isinstance(v, complex)]
        fs = [v for v in self.values if isinstance(v, float)]
        for xs_kind, ys_kind in ((cs, cs), (cs, fs), (fs, cs)):
            xs = [x for x in xs_kind for _ in ys_kind]
            ys = [y for _ in xs_kind for y in ys_kind]
            want = []
            keep = []
            for k, (x, y) in enumerate(zip(xs, ys)):
                try:
                    want.append(_as_pair(f(x, y)))
                    keep.append(k)
                except ZeroDivisionError:
                    pass
            xs, ys = [xs[k] for k in keep], [ys[k] for k in keep]
            with np.errstate(over="ignore", invalid="ignore"):
                got = f(self.as_array(xs), self.as_array(ys))
            assert _pairs(got, len(xs)) == want, op

    def test_unary(self):
        cs = [v for v in self.values if isinstance(v, complex)]
        z = self.as_array(cs)
        assert _pairs(-z, len(cs)) == [_as_pair(-x) for x in cs]
        assert _pairs(z.conjugate(), len(cs)) == [_as_pair(x.conjugate()) for x in cs]
        # abs(complex) raises OverflowError where the modulus is inf
        finite = [x for x in cs if math.hypot(x.real, x.imag) < math.inf]
        got = abs(self.as_array(finite))
        assert [float(v).hex() for v in got] == [abs(x).hex() for x in finite]

    def test_division_by_zero(self):
        one = generators._Cx(np.ones(2), np.zeros(2))
        with pytest.raises(ZeroDivisionError, match="^complex division by zero$"):
            one / generators._Cx(np.array([1.0, 0.0]), np.array([0.0, -0.0]))


ORACLE_CASES = [
    *[(f, p, w) for f, p in FAMILY_CASES for w in ((-45, 45), (0, 400))],
    ("random_singular", {"insertions": [7, 0], "misaligned": True}, (-45, 45)),
    ("conjugated_dominated", {"theta": 0.3, "rate_mode": "constant"}, (-45, 45)),
    ("schrodinger", {"energy": complex(1.5, -0.25), "potential": [0.1 * k for k in range(91)]},
     (-45, 45)),
    ("random_bounded", {"scale": -2.5}, (-45, 45)),
    ("unitary", {"angle": 0.7}, (-45, 45)),
    ("diagonal", {"lplus": 3j, "lminus": complex(-1.0, 0.5)}, (-45, 45)),
]


@SCALAR_ARITHMETIC
class TestScalarOracle:
    """Each family's stack, bound and ground truth, bit for bit as the scalar
    builders of ``conftest`` give them one Mat2C at a time."""

    @pytest.mark.parametrize("family,params,window", ORACLE_CASES)
    def test_matches_scalar_builders(self, family, params, window):
        for seed in range(6):
            spec = GeneratorSpec(family, window, params, seed)
            assert build_bits(spec) == bits(*scalar_build(spec)), seed

    @pytest.mark.parametrize("family,params", [
        ("conjugated_dominated", {}),
        ("conjugated_dominated", {"rate_mode": "constant"}),
        ("random_singular", {"insertions": [0]}),
        ("random_singular", {"insertions": [0], "misaligned": True}),
        ("ap_family", {"mu": 1e2}),
        ("ap_family", {"mu": 1e3}),
        ("ap_family", {"mu": 1e4}),
    ])
    def test_long_windows(self, family, params):
        window = (-1000, 1000) if family == "conjugated_dominated" else (-200, 200)
        spec = GeneratorSpec(family, window, params, 7)
        assert build_bits(spec) == bits(*scalar_build(spec))

    @pytest.mark.parametrize("family,params", [
        ("conjugated_dominated", {"sep_lo": 1e-13, "sep_hi": 1e-13}),
        ("conjugated_dominated", {"sep_lo": 5e-324, "sep_hi": 5e-324}),
        # the scalar loop met a site's rate test before its frame's inverse
        ("conjugated_dominated", {"sep_lo": 1e-13, "sep_hi": 1e-13, "lplus_range": [0.1, 0.2]}),
        ("conjugated_dominated", {"lplus_range": [0.6, 0.9]}),
        ("conjugated_dominated", {"lplus_range": [0.6, 0.9], "rate_mode": "constant"}),
        ("conjugated_dominated", {"lplus_range": [-1.7e308, 1.7e308]}),
        ("random_bounded", {"scale": 1e308}),
        ("schrodinger", {"energy": 1.7e308, "potential": [-1.7e308] * 11}),
        ("random_singular", {"insertions": [0], "theta": 0.0, "lplus_range": [2.0, 2.0]}),
    ])
    def test_errors_as_scalar_builders(self, family, params):
        def outcome(build):
            try:
                return bits(*build())
            except Exception as exc:  # the type and message are what is compared
                return type(exc), str(exc)

        for seed in range(3):
            spec = GeneratorSpec(family, (-5, 5), params, seed)
            assert outcome(lambda: build_with_truth(spec)) == outcome(lambda: scalar_build(spec))

    @pytest.mark.parametrize("family,params", FAMILY_CASES)
    def test_no_matrix_per_entry(self, family, params):
        """A window is built as one stack: the only Mat2C built are the
        insertions and the columns that the bound takes to the scalar max."""
        calls = []
        init = Mat2C.__init__

        def counted(m, *args):
            calls.append(args)
            init(m, *args)

        with mock.patch.object(Mat2C, "__init__", counted):
            build_with_truth(GeneratorSpec(family, (0, 400), params, 1))
        assert len(calls) <= 4, (family, len(calls))


class TestParams:
    @pytest.mark.parametrize("family,params,name", [
        ("conjugated_dominated", {"lplus_range": [2]}, "lplus_range"),
        ("conjugated_dominated", {"lminus_range": [0.5, 1.0, 2.0]}, "lminus_range"),
        ("conjugated_dominated", {"sep_hi": float("nan")}, "sep_hi"),
        ("diagonal", {"lplus": None}, "lplus"),
        ("diagonal", {"lminus": complex(0, float("inf"))}, "lminus"),
        ("schrodinger", {"energy": "x"}, "energy"),
        ("schrodinger", {"potential": [0.0, "x"]}, "potential"),
        ("schrodinger", {"potential": 3}, "potential"),
        ("random_singular", {"insertions": 3}, "insertions"),
        ("random_singular", {"insertions": [True]}, "insertions"),
    ])
    def test_bad_value_names_param(self, family, params, name):
        with pytest.raises(InvalidSpec, match=f"^param '{name}' = "):
            build_with_truth(GeneratorSpec(family, (0, 1), params))

    def test_null_unsets_theta_and_angle(self):
        for family, name in (("conjugated_dominated", "theta"), ("unitary", "angle")):
            assert build_bits(GeneratorSpec(family, (0, 5), {name: None}, 3)) == build_bits(
                GeneratorSpec(family, (0, 5), {}, 3))

    def test_numbers_as_before(self):
        # ints and the strings float() reads still load, as they did
        a = build_bits(GeneratorSpec("conjugated_dominated", (0, 5), {"sep_lo": "0.4", "lplus_range": [2, 3]}, 1))
        b = build_bits(GeneratorSpec("conjugated_dominated", (0, 5), {"sep_lo": 0.4, "lplus_range": [2.0, 3.0]}, 1))
        assert a == b
