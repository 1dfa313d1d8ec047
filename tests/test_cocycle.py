import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domsplit import (
    Degenerate,
    DomsplitError,
    GeneratorSpec,
    InvalidSpec,
    Mat2C,
    MatrixSequence,
    NoConvergence,
    ProductVanished,
    ProjPoint,
    WindowExceeded,
    build_with_truth,
    dist,
    dump_sequence,
    estimate_splitting,
    invariance_residual,
    load_sequence,
    mul,
    product_sweep,
    project,
    singular_values,
    sn,
    svd2,
    un,
    window_product,
)

from conftest import random_mat, random_unit_vector


def example1_seq(lo=-45, hi=56):
    seq, _ = build_with_truth(GeneratorSpec("example1", (lo, hi)))
    return seq


@pytest.fixture(scope="module")
def ex1():
    return example1_seq()


class TestMatrixSequence:
    def test_window_and_lookup(self, ex1):
        assert ex1.window == (-45, 56)
        assert ex1[0] == Mat2C(4.0, -3.0, 0.0, 0.5)
        with pytest.raises(WindowExceeded):
            ex1[99]

    def test_rejects_gap(self):
        with pytest.raises(InvalidSpec):
            MatrixSequence({0: Mat2C(1, 0, 0, 1), 2: Mat2C(1, 0, 0, 1)}, 2.0)

    def test_rejects_zero_entry(self):
        with pytest.raises(InvalidSpec):
            MatrixSequence({0: Mat2C(0, 0, 0, 0)}, 2.0)

    def test_rejects_norm_violation(self):
        with pytest.raises(InvalidSpec):
            MatrixSequence({0: Mat2C(3.0, 0, 0, 1)}, 2.0)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(0, math.inf),
                                   complex(1, math.nan)])
    def test_rejects_non_finite_entry(self, z):
        with pytest.raises(InvalidSpec):
            MatrixSequence({0: Mat2C(1.0, z, 0, 1)}, 2.0)

    @pytest.mark.parametrize("bound", [math.inf, math.nan, 0.0, -2.0])
    def test_rejects_bad_bound(self, bound):
        with pytest.raises(InvalidSpec):
            MatrixSequence({0: Mat2C(1.0, 0, 0, 1)}, bound)

    def test_json_roundtrip(self, tmp_path, ex1):
        path = tmp_path / "seq.json"
        dump_sequence(ex1, str(path))
        back = load_sequence(str(path))
        assert back.window == ex1.window
        assert back.bound_M == ex1.bound_M
        for j in ex1.indices():
            assert back[j] == ex1[j]

    def test_factors_stack(self, ex1):
        """factors holds a, b, c, d of B(lo) .. B(hi), read-only, and is the
        stack the sweep reads."""
        assert ex1.factors.shape == (4, len(ex1))
        assert ex1.factors.T.tolist() == [
            [complex(z) for z in (m.a, m.b, m.c, m.d)] for m in map(ex1.__getitem__, ex1.indices())
        ]
        with pytest.raises(ValueError):
            ex1.factors[0, 0] = 1.0
        assert product_sweep(ex1, 3).factors is ex1.factors
        sub = ex1.restrict(-5, 7)
        assert sub.factors.tolist() == ex1.factors[:, -5 - ex1.lo:7 - ex1.lo + 1].tolist()

    def test_one_copy_of_the_window(self, ex1):
        """The stack is the only copy of the entries: seq[j] is a Mat2C of
        complex entries built from its column, and restrict reads it too."""
        assert MatrixSequence.__slots__ == ("_lo", "_hi", "bound_M", "source", "factors",
                                            "in_band")
        for j in (ex1.lo, 0, ex1.hi):
            m = ex1[j]
            assert [m.a, m.b, m.c, m.d] == ex1.factors[:, j - ex1.lo].tolist()
            assert all(type(z) is complex for z in (m.a, m.b, m.c, m.d))
        with pytest.raises(WindowExceeded):
            ex1[ex1.lo - 1]
        sub = ex1.restrict(-5, 7)
        assert sub.window == (-5, 7) and sub.bound_M == ex1.bound_M
        assert all(sub[j] == ex1[j] for j in sub.indices())

    def test_int_entries_read_back_as_floats(self, tmp_path):
        """Entries are kept as complex floats: an int entry dumps as 1.0, and
        an int beyond 2^53 reaches seq[j] rounded as the stack holds it."""
        seq = MatrixSequence({0: Mat2C(1, 0, 0, 2 ** 53 + 1)}, 1e16)
        assert seq[0] == Mat2C(1.0, 0.0, 0.0, 2.0 ** 53)
        path = tmp_path / "seq.json"
        dump_sequence(seq, str(path))
        assert '"m":[[1.0,0.0],[0.0,0.0],[0.0,0.0],[9007199254740992.0,0.0]]' in path.read_text()


def scalar_sequence(entries, bound_M):
    """The constructor's checks as one scalar loop over every entry in
    insertion order, then the factor stack: the reference for the screen
    on the stack that ``MatrixSequence`` runs."""
    if not entries:
        raise InvalidSpec("sequence window is empty")
    if not (math.isfinite(bound_M) and bound_M > 0.0):
        raise InvalidSpec(f"bound_M must be finite and positive, got {bound_M}")
    js = sorted(entries)
    lo, hi = js[0], js[-1]
    if hi - lo + 1 != len(js):
        raise InvalidSpec("sequence window has gaps")
    for j, m in entries.items():
        try:
            if not (cmath.isfinite(m.a) and cmath.isfinite(m.b)
                    and cmath.isfinite(m.c) and cmath.isfinite(m.d)):
                raise InvalidSpec(f"entry at j={j} is not finite")
            if m.is_zero():
                raise InvalidSpec(f"entry at j={j} is the zero matrix")
            s1, _ = singular_values(m)
        except OverflowError:
            raise InvalidSpec(f"entry at j={j} is too large for float arithmetic") from None
        except TypeError:
            raise InvalidSpec(f"entry at j={j} is not a number") from None
        if not s1 < bound_M:
            raise InvalidSpec(f"entry at j={j} violates sigma1 < bound_M ({s1} >= {bound_M})")
    mats = map(entries.__getitem__, range(lo, hi + 1))
    return np.array([(m.a, m.b, m.c, m.d) for m in mats], dtype=complex).T.copy()


_EDGE_PARTS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-301, -1e-301, 1e300, 1.5e308, -1.7e308)
_EDGE_CELLS = (0j, 1e-301 + 0j, complex(1e-301, -1e-301), 1e300 + 1e300j, complex(1.5e308, 1.5e308),
               1.7e308 + 0j, 10**400, -(10**400), 3, -1)


@st.composite
def constructor_cases(draw):
    """Entries in an unsorted insertion order, mixing ordinary matrices with
    non-finite, zero, tiny, huge and overflowing ones and ints beyond float
    range, and a bound just below, at or just above the sigma1 of one of
    them."""
    normal = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    edge = st.one_of(
        st.builds(complex, st.sampled_from(_EDGE_PARTS), st.floats(-4.0, 4.0)),
        st.builds(complex, st.floats(-4.0, 4.0), st.sampled_from(_EDGE_PARTS)),
        st.sampled_from(_EDGE_CELLS),
    )
    mats = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("normal", "normal", "normal", "edge", "zero", "scaled")))
        cells = [draw(st.one_of(normal, edge) if kind == "edge" else normal) for _ in range(4)]
        if kind == "zero":
            cells = [0j] * 4
        elif kind == "scaled":
            c = draw(st.sampled_from((1e-301, 1e-300, 1e-150, 1e150, 1e299, 1e300, 4e307)))
            cells = [c * z for z in cells]
        mats.append(Mat2C(*cells))
    lo = draw(st.integers(-4, 4))
    entries = dict(zip(draw(st.permutations(range(lo, lo + len(mats)))), mats))
    s1s = []
    for m in mats:
        try:
            s1s.append(singular_values(m)[0])
        except (ArithmeticError, ValueError, TypeError, DomsplitError):
            pass
    anchor = draw(st.sampled_from([max(s1s), *s1s])) if s1s else 1.0
    bound = draw(st.sampled_from((
        math.nextafter(anchor, 0.0), anchor, math.nextafter(anchor, math.inf),
        anchor * (1.0 - 1e-12), anchor * (1.0 + 1e-12), anchor * 2.0,
    )))
    return entries, bound


def _outcome(build):
    try:
        return "ok", build().tobytes()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


class TestConstructorScreen:
    @settings(max_examples=600, deadline=None)
    @given(constructor_cases())
    def test_raises_as_the_scalar_loop(self, case):
        entries, bound = case
        got = _outcome(lambda: MatrixSequence(entries, bound).factors)
        assert got == _outcome(lambda: scalar_sequence(entries, bound))

    def test_first_bad_entry_in_insertion_order(self):
        good = Mat2C(1.0, 0, 0, 1)
        entries = {2: good, 4: Mat2C(0j, 0j, 0j, 0j), 0: Mat2C(math.nan, 0, 0, 1), 1: good,
                   3: Mat2C(3.0, 0, 0, 1)}
        with pytest.raises(InvalidSpec, match="^entry at j=4 is the zero matrix$"):
            MatrixSequence(entries, 2.0)

    @pytest.mark.parametrize("cell, message", [
        (10**400, "entry at j=1 is too large for float arithmetic"),
        ("x", "entry at j=1 is not a number"),
    ], ids=["int-beyond-float-range", "string"])
    def test_entries_not_floats_raise_invalid_spec(self, cell, message):
        entries = {0: Mat2C(1.0, 0, 0, 1), 1: Mat2C(cell, 0, 0, 1)}
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            MatrixSequence(entries, 2.0)


class TestWindowProduct:
    def test_empty_product(self, ex1):
        p = window_product(ex1, 0, 0)
        assert p.log_scale == 0.0
        assert p.core == Mat2C(1 + 0j, 0j, 0j, 1 + 0j)
        assert p.length == 0

    def test_two_step_example(self, ex1):
        p = window_product(ex1, 0, 2)
        m = p.matrix()
        want = Mat2C(8.0, -7.5, 0.0, 0.125)
        for got, ref in zip((m.a, m.b, m.c, m.d), (want.a, want.b, want.c, want.d)):
            assert abs(got - ref) <= 1e-12 * 8.0

    def test_closed_form_oracle(self, ex1):
        ln2 = math.log(2.0)
        for j in (-12, -3, 0, 7):
            for n in (2, 9, 23, 40):
                wp = window_product(ex1, j, n)
                e2, core = __import__("domsplit").example1_closed_product(j, n)
                factor = math.exp(wp.log_scale - e2 * ln2)
                for got, want in zip(
                    (wp.core.a, wp.core.b, wp.core.c, wp.core.d),
                    (core.a, core.b, core.c, core.d),
                ):
                    if want == 0:
                        assert abs(got * factor) <= 1e-12
                    else:
                        assert abs(got * factor - want) <= 1e-9 * abs(want)

    def test_cocycle_law(self, rng):
        entries = {j: random_mat(rng) for j in range(0, 20)}
        seq = MatrixSequence(entries, 1e3)
        for _ in range(20):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            j = int(rng.integers(0, 20 - m - n))
            whole = window_product(seq, j, m + n)
            left = window_product(seq, j + m, n)
            right = window_product(seq, j, m)
            raw = mul(left.core, right.core)
            s1, _ = singular_values(raw)
            log_scale = left.log_scale + right.log_scale + math.log(s1)
            assert abs(log_scale - whole.log_scale) <= 1e-9 * (m + n)
            rescaled = raw.scale(1.0 / s1)
            err = max(
                abs(rescaled.a - whole.core.a), abs(rescaled.b - whole.core.b),
                abs(rescaled.c - whole.core.c), abs(rescaled.d - whole.core.d),
            )
            assert err <= 1e-10

    def test_sigma2_sandwich(self, rng):
        entries = {j: random_mat(rng) for j in range(0, 15)}
        seq = MatrixSequence(entries, 1e3)
        p = window_product(seq, 0, 15)
        s1c, s2c = singular_values(p.core)
        for _ in range(30):
            v = random_unit_vector(rng)
            lw = p.apply_log(v)
            assert lw <= p.log_scale + 1e-12
            assert lw >= p.log_scale + math.log(max(s2c, 1e-300)) - 1e-9

    def test_vanished_product(self):
        nil = Mat2C(0.0, 1.0, 0.0, 0.0)
        seq = MatrixSequence({0: nil, 1: nil}, 2.0)
        with pytest.raises(ProductVanished):
            window_product(seq, 0, 2)

    def test_window_guard(self, ex1):
        with pytest.raises(WindowExceeded):
            window_product(ex1, 50, 10)


class TestDirections:
    def test_diag_directions(self):
        seq, _ = build_with_truth(GeneratorSpec("diagonal", (-5, 5)))
        for n in (1, 3, 5):
            assert sn(seq, 0, n).is_infinity
            assert un(seq, 0, n).affine == 0.0

    def test_sn_matches_gram_eigenvector(self, ex1):
        b0 = np.array([[4.0, -3.0], [0.0, 0.5]], dtype=complex)
        w, v = np.linalg.eigh(b0.conj().T @ b0)
        oracle = project((complex(v[0, 0]), complex(v[1, 0])))  # smallest eigenvalue
        assert dist(sn(ex1, 0, 1), oracle) <= 1e-12

    def test_sn_of_singular_is_kernel(self):
        rank1 = Mat2C(2.0, 0.0, 0.0, 0.0)
        seq = MatrixSequence({0: rank1, 1: Mat2C(1.0, 0.0, 0.0, 0.5)}, 3.0)
        assert sn(seq, 0, 1).is_infinity  # ker = span(e2)

    def test_un_is_image_after_singular(self):
        rank1 = Mat2C(0.0, 0.0, 1.0, 0.0)  # image = span(e2)
        seq = MatrixSequence({0: Mat2C(2.0, 0.0, 0.0, 1.0), 1: rank1}, 3.0)
        assert un(seq, 2, 2).is_infinity

    def test_un_example1_converges_to_zero(self, ex1):
        prev = 2.0
        for n in (3, 6, 9):
            z = abs(un(ex1, 0, n).affine)
            assert z < prev
            prev = z
        assert prev < 1e-3

    def test_degenerate_raises(self):
        seq, _ = build_with_truth(
            GeneratorSpec("unitary", (-5, 5), params={"angle": math.pi / 4})
        )
        with pytest.raises(Degenerate):
            sn(seq, 0, 1)


class TestEstimateSplitting:
    def test_diagonal_immediate(self):
        seq, _ = build_with_truth(GeneratorSpec("diagonal", (-10, 10)))
        es, eu, cert = estimate_splitting(seq, 0, 10, 1e-9)
        assert es.is_infinity
        assert eu.affine == 0.0
        assert cert.n_star_s == 1 and cert.n_star_u == 1

    def test_example1_fields(self, ex1):
        es, eu, cert = estimate_splitting(ex1, 3, 40, 1e-10)
        assert dist(es, project((1.0, 2.0**-3))) <= 1e-8
        assert dist(eu, ProjPoint.finite(0.0)) <= 1e-8
        # Cauchy decay at the SVG rate mu = 4
        assert cert.rate_s is not None and cert.rate_s <= -math.log(4) + 0.1

    def test_rotation_no_convergence(self):
        seq, _ = build_with_truth(
            GeneratorSpec("unitary", (-10, 10), params={"angle": math.pi / 4})
        )
        with pytest.raises(NoConvergence):
            estimate_splitting(seq, 0, 10, 1e-9)

    def test_dominated_cauchy_rate(self):
        spec = GeneratorSpec(
            "conjugated_dominated", (-25, 25),
            params={"rate_mode": "constant"}, seed=7,
        )
        seq, truth = build_with_truth(spec)
        es, eu, cert = estimate_splitting(seq, 0, 25, 1e-9)
        assert dist(es, truth.es[0]) <= 1e-7
        assert dist(eu, truth.eu[0]) <= 1e-7
        assert cert.rate_s is not None and cert.rate_s <= -math.log(truth.lam) + 0.1


class TestInvarianceResidual:
    def test_constant_diag_zero(self):
        seq, truth = build_with_truth(GeneratorSpec("diagonal", (-5, 5)))
        rs, ru = invariance_residual(seq, 0, truth.es, truth.eu)
        assert rs == 0.0 and ru == 0.0

    def test_example1_small(self, ex1):
        es, eu = {}, {}
        for j in (0, 1):
            es[j], eu[j], _ = estimate_splitting(ex1, j, 40, 1e-10)
        rs, ru = invariance_residual(ex1, 0, es, eu)
        assert rs <= 1e-8 and ru <= 1e-8

    def test_rank_one_kernel_branch(self):
        rank1 = Mat2C(1.0, 0.0, 0.0, 0.0)
        seq = MatrixSequence({0: rank1, 1: rank1}, 2.0)
        fields_s = {0: ProjPoint.infinity(), 1: ProjPoint.infinity()}
        fields_u = {0: ProjPoint.finite(0.0), 1: ProjPoint.finite(0.0)}
        rs, ru = invariance_residual(seq, 0, fields_s, fields_u)
        assert rs == 0.0 and ru == 0.0


class TestCloseToContractedBound:
    def test_bound_on_random_triples(self, rng):
        # ||A z|| < delta forces d(z, s(A)) <= 2 (delta + sigma2) / sigma1
        checked = 0
        while checked < 5000:
            a = random_mat(rng)
            sv = svd2(a)
            if sv.degenerate:
                continue
            z = project(random_unit_vector(rng))
            w = a.apply(z.vector())
            delta = math.hypot(abs(w[0]), abs(w[1])) * (1 + float(rng.uniform(0, 1)))
            lhs = dist(z, project(sv.v_column(1)))
            rhs = 2.0 * (delta + sv.sigma2) / sv.sigma1
            assert lhs <= rhs + 1e-10
            checked += 1
