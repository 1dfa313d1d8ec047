"""The batched product sweep against the scalar engine.

``scalar_sweep`` builds a ProductSweep with the scalar engine: one
``forward_scan`` per start for the log-sigma layers and one
``estimate_splitting`` per site for the fields.  Every comparison below is
between that oracle and ``estimate_fields``.
"""

import math

import numpy as np
import pytest

from domsplit import (
    GeneratorSpec,
    InvalidSpec,
    Mat2C,
    MatrixSequence,
    NoConvergence,
    ProductSweep,
    ProductVanished,
    Thresholds,
    build_with_truth,
    check_domination,
    dist,
    estimate_fields,
    estimate_splitting,
    forward_scan,
    product_sweep,
)
from domsplit.conditions import _certificate

TOL = 1e-12


def scalar_sweep(seq, n_max, jrange, tol) -> ProductSweep:
    lo, hi = seq.window
    size = len(seq)
    log_s1 = [np.zeros(size + 1)] + [np.full(max(size - n + 1, 0), -math.inf)
                                     for n in range(1, n_max + 2)]
    log_s2 = [np.zeros(size + 1)] + [np.full(max(size - n + 1, 0), -math.inf)
                                     for n in range(1, n_max + 2)]
    for j in seq.indices():
        try:
            for n, prod in enumerate(forward_scan(seq, j, min(n_max + 1, hi - j + 1))):
                if n:
                    log_s1[n][j - lo] = prod.log_sigma1
                    log_s2[n][j - lo] = prod.log_sigma2
        except ProductVanished:
            pass
    es, eu, certs, failed = {}, {}, {}, []
    for j in range(jrange[0], jrange[1] + 1):
        try:
            es[j], eu[j], certs[j] = estimate_splitting(seq, j, n_max, tol)
        except (NoConvergence, ProductVanished):
            failed.append(j)
    return ProductSweep((lo, hi), n_max, log_s1, log_s2, jrange, es, eu, certs, failed)


def scaled(seq, factor):
    """seq with every entry multiplied by factor (and the bound with it)."""
    return MatrixSequence({j: seq[j].scale(factor) for j in seq.indices()},
                          seq.bound_M * factor)


def vanishing(seq):
    """B(0), B(1) replaced by complementary projections: every product
    through both sites is exactly zero."""
    entries = {j: seq[j] for j in seq.indices()}
    entries[0] = Mat2C(1 + 0j, 0j, 0j, 0j)
    entries[1] = Mat2C(0j, 0j, 0j, 1 + 0j)
    return MatrixSequence(entries, max(seq.bound_M, 2.0))


def family(name, window, params=None, seed=0):
    return build_with_truth(GeneratorSpec(name, window, params or {}, seed))[0]


def _conj(seed=3):
    return family("conjugated_dominated", (-45, 45), {"rate_mode": "constant"}, seed)


# name -> (sequence builder, n_max, jrange or None for the default, tol)
CASES = {
    "conjugated-constant": (lambda: _conj(), 40, (-6, 6), 1e-9),
    "conjugated-perstep": (lambda: family("conjugated_dominated", (-30, 30), seed=5), 40, None, 1e-9),
    "diagonal": (lambda: family("diagonal", (-25, 25)), 40, None, 1e-9),
    "example1": (lambda: family("example1", (-40, 40)), 40, (-20, 20), 1e-9),
    "example1-nmax150": (lambda: family("example1", (-80, 80)), 150, (-20, 20), 1e-9),
    "schrodinger": (lambda: family("schrodinger", (-30, 30), {"energy": 3.0}), 40, None, 1e-9),
    "random_bounded": (lambda: family("random_bounded", (-30, 30), seed=2), 40, None, 1e-9),
    "unitary": (lambda: family("unitary", (-20, 20), seed=3), 30, None, 1e-9),
    "unitary-angle": (lambda: family("unitary", (-20, 20), {"angle": 0.7}), 30, None, 1e-9),
    "singular-aligned": (
        lambda: family("random_singular", (-30, 30), {"insertions": [0]}, 1), 40, None, 1e-9),
    "ap_family": (lambda: family("ap_family", (-15, 25), {"mu": 1e2}, 4), 30, (0, 10), 1e-9),
    "vanishing": (lambda: vanishing(_conj(1)), 40, None, 1e-9),
    "prescale-tiny": (lambda: scaled(_conj(2), 1e-150), 40, (-6, 6), 1e-9),
    "prescale-huge": (lambda: scaled(_conj(2), 1e150), 40, (-6, 6), 1e-9),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def pair(request):
    build, n_max, jrange, tol = CASES[request.param]
    seq = build()
    batched = estimate_fields(seq, jrange, n_max, tol)
    return seq, batched, scalar_sweep(seq, n_max, batched.jrange, tol)


def assert_logs_close(got, want):
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape, n
        assert np.array_equal(np.isneginf(g), np.isneginf(w)), n
        fin = np.isfinite(w)
        err = np.abs(g[fin] - w[fin]) / np.maximum(1.0, np.abs(w[fin]))
        assert err.size == 0 or err.max() <= TOL, (n, err.max())


def test_log_sigma_layers(pair):
    seq, batched, scalar = pair
    assert_logs_close(batched.log_s1, scalar.log_s1)
    assert_logs_close(batched.log_s2, scalar.log_s2)


def test_fields_and_certificates(pair):
    seq, batched, scalar = pair
    assert batched.failed == scalar.failed
    assert list(batched.certs) == list(scalar.certs)
    for j, want in scalar.certs.items():
        got = batched.certs[j]
        assert (got.n_star_s, got.n_star_u) == (want.n_star_s, want.n_star_u), j
        for g_steps, w_steps in ((got.s_steps, want.s_steps), (got.u_steps, want.u_steps)):
            assert list(g_steps) == list(w_steps), j
            assert all(abs(g_steps[n] - w_steps[n]) <= TOL for n in w_steps), j
        assert dist(batched.es[j], scalar.es[j]) <= TOL, j
        assert dist(batched.eu[j], scalar.eu[j]) <= TOL, j


def test_verdict(pair):
    seq, batched, scalar = pair
    thresholds = Thresholds(n_max=batched.n_max)
    got = _certificate(seq, thresholds, batched, [])
    want = _certificate(seq, thresholds, scalar, [])
    assert (got.verdict, got.n_dom, got.failed_js) == (want.verdict, want.n_dom, want.failed_js)
    assert (got.svg.passed, got.fi.passed) == (want.svg.passed, want.fi.passed)


def test_case_coverage():
    """The fleet reaches every branch the sweep masks."""
    vanished = product_sweep(CASES["vanishing"][0](), 40)
    assert any(np.isneginf(layer).any() for layer in vanished.log_s1)
    unitary = estimate_fields(CASES["unitary"][0](), None, 30, 1e-9)
    assert unitary.failed and not unitary.certs  # every layer degenerate
    tiny = CASES["prescale-tiny"][0]()
    assert max(abs(z) for z in (tiny[0].a, tiny[0].b, tiny[0].c, tiny[0].d)) < 1e-120


def test_misaligned_insertion_well_conditioned_part():
    """A misaligned rank-one insertion at p maps E^u onto E^s, so an
    eps-size rounding error made at p grows by the gap on every later step:
    past about eight steps no two float orderings agree on a product through
    p (measured: 1e-12 at 8 steps, 1e-1 at 30).  The engines are compared on
    everything those products do not reach; the verdict must agree."""
    p = 0
    seq = family("random_singular", (-60, 60), {"insertions": [p], "misaligned": True}, 1)
    batched = estimate_fields(seq, None, 40, 1e-9)
    scalar = scalar_sweep(seq, 40, batched.jrange, 1e-9)
    lo = seq.lo
    for n in range(1, 42):
        starts = np.arange(lo, lo + len(scalar.log_s1[n]))
        clear = (starts > p) | (starts + n - 1 < p)
        for got, want in ((batched.log_s1[n], scalar.log_s1[n]), (batched.log_s2[n], scalar.log_s2[n])):
            err = np.abs(got[clear] - want[clear]) / np.maximum(1.0, np.abs(want[clear]))
            assert err.size == 0 or err.max() <= TOL, n
    compared = 0
    for j, want in scalar.certs.items():
        s_clear = j > p or want.n_star_s + 3 < p - j + 1
        u_clear = j <= p or want.n_star_u + 3 < j - p
        if not (s_clear and u_clear):
            continue
        got = batched.certs[j]
        assert (got.n_star_s, got.n_star_u) == (want.n_star_s, want.n_star_u), j
        assert dist(batched.es[j], scalar.es[j]) <= TOL, j
        assert dist(batched.eu[j], scalar.eu[j]) <= TOL, j
        compared += 1
    assert compared >= 20
    thresholds = Thresholds()
    got = _certificate(seq, thresholds, batched, [])
    want = _certificate(seq, thresholds, scalar, [])
    assert got.verdict == want.verdict == "not_dominated"


class TestDepthValidation:
    @pytest.mark.parametrize("n_max", [0, -3])
    def test_sweep_rejects(self, n_max):
        with pytest.raises(InvalidSpec):
            product_sweep(_conj(), n_max)

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_certificate_rejects(self, n_max):
        with pytest.raises(InvalidSpec):
            check_domination(_conj(), Thresholds(n_max=n_max))

    def test_depth_past_window(self):
        # directions at depth beyond the window simply run out of room
        seq = family("diagonal", (0, 9))
        sweep = estimate_fields(seq, (0, 9), 30, 1e-9)
        assert len(sweep.log_s1) == 32 and sweep.log_s1[12].size == 0
        # the stopping rule needs four directions on each side
        assert sweep.failed == scalar_sweep(seq, 30, (0, 9), 1e-9).failed == [0, 1, 2, 3, 7, 8, 9]
