"""The batched product sweep against the scalar engine.

``scalar_sweep`` builds a ProductSweep with the scalar engine: one
``forward_scan`` per start for the log-sigma layers and one
``conftest.scalar_splitting`` per site for the fields.  Every comparison
below is between that oracle and ``estimate_fields``, or between one of the
certificate's array stages and its per-site reference.
"""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domsplit import (
    ConvergenceCert,
    GeneratorSpec,
    InvalidSpec,
    KernelHit,
    Mat2C,
    MatrixSequence,
    NoConvergence,
    ProductSweep,
    ProductVanished,
    ProjPoint,
    Thresholds,
    ZeroVector,
    act,
    backward_scan,
    build_with_truth,
    check_domination,
    dist,
    dump_sequence,
    estimate_fields,
    estimate_splitting,
    forward_scan,
    invariance_residual,
    invariance_residuals,
    product_sweep,
    project,
    singular_values,
)
from domsplit import ap_report, cocycle
from domsplit.cli import main
from domsplit.cocycle import _apply, _fit_rates, _project
from domsplit.conditions import _certificate, _gap_search, _norm_floor, _svg_fi_fits
from domsplit.matrix2c import DEGENERATE_REL_TOL, ENTRY_ZERO_TOL, _prescale, rescale_pow2

from conftest import (
    _direction_run,
    _point_steps,
    column_rows,
    prescaled_log_abs_dets,
    rank_one_window,
    scalar_splitting,
    vanishing,
)

TOL = 1e-12


def scalar_sweep(seq, n_max, jrange, tol) -> ProductSweep:
    lo, hi = seq.window
    size = len(seq)
    # the sweep's staircase grids: -inf on vanished products, and +inf (log
    # sigma1) or -inf (log sigma2) past the staircase
    log_s1, log_s2 = np.full((2, min(n_max, size) + 2, size + 1), -math.inf)
    log_s1[0] = log_s2[0] = 0.0
    for n in range(1, len(log_s1)):
        log_s1[n, size - n + 1:] = math.inf
    for j in seq.indices():
        try:
            for n, prod in enumerate(forward_scan(seq, j, min(n_max + 1, hi - j + 1))):
                if n:
                    log_s1[n, j - lo] = prod.log_sigma1
                    log_s2[n, j - lo] = prod.log_sigma2
        except ProductVanished:
            pass
    es, eu, certs, failed = {}, {}, {}, []
    for j in range(jrange[0], jrange[1] + 1):
        try:
            es[j], eu[j], certs[j] = scalar_splitting(seq, j, n_max, tol)
        except (NoConvergence, ProductVanished):
            failed.append(j)
    js = np.array(sorted(es), dtype=np.int64)

    def vectors(field):
        return np.array([field[j].vector() for j in js], dtype=complex).reshape(-1, 2).T

    n_star = np.array([[certs[j].n_star_s for j in js.tolist()],
                       [certs[j].n_star_u for j in js.tolist()]], dtype=np.int64).reshape(2, -1)
    n_sites = jrange[1] - jrange[0] + 1
    steps = np.full((n_max, 2 * n_sites), np.nan)
    for j in js.tolist():
        k = j - jrange[0]
        for col, table in ((k, certs[j].s_steps), (n_sites + k, certs[j].u_steps)):
            for n, d in table.items():
                steps[n, col] = d
    sweep = ProductSweep((lo, hi), n_max, log_s1, jrange, tol, failed,
                         js, vectors(es), vectors(eu), n_star, steps, seq, np.empty_like(log_s1),
                         bool(np.isneginf(log_s1).any()))
    # the scalar engine's, in place of the ones built on read
    sweep.__dict__.update(log_s2_grid=log_s2, es=es, eu=eu, certs=certs)
    return sweep


def scaled(seq, factor):
    """seq with every entry multiplied by factor (and the bound with it)."""
    return MatrixSequence({j: seq[j].scale(factor) for j in seq.indices()},
                          seq.bound_M * factor)


def family(name, window, params=None, seed=0):
    return build_with_truth(GeneratorSpec(name, window, params or {}, seed))[0]


def _conj(seed=3):
    return family("conjugated_dominated", (-45, 45), {"rate_mode": "constant"}, seed)


def _singular_aligned():
    return family("random_singular", (-30, 30), {"insertions": [0]}, 1)


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
    "singular-aligned": (_singular_aligned, 40, None, 1e-9),
    "ap_family": (lambda: family("ap_family", (-15, 25), {"mu": 1e2}, 4), 30, (0, 10), 1e-9),
    # edge sites run out of room early, so the direction stage stops at layer 22
    "conjugated-edges": (lambda: family("conjugated_dominated", (-45, 45), seed=1), 40, None, 1e-9),
    "vanishing": (lambda: vanishing(_conj(1)), 40, None, 1e-9),
    "prescale-tiny": (lambda: scaled(_conj(2), 1e-150), 40, (-6, 6), 1e-9),
    "prescale-huge": (lambda: scaled(_conj(2), 1e150), 40, (-6, 6), 1e-9),
    # just inside the prescale's band: no raw product is prescaled, so the
    # sweep's Gram quadratic squares entries of about 1e-118 or 1e118
    "band-tiny": (lambda: scaled(_conj(2), 1e-118), 40, (-6, 6), 1e-9),
    "band-huge": (lambda: scaled(_conj(2), 1e118), 40, (-6, 6), 1e-9),
    "singular-aligned-band-tiny": (lambda: scaled(_singular_aligned(), 1e-118), 40, None, 1e-9),
    "singular-aligned-band-huge": (lambda: scaled(_singular_aligned(), 1e118), 40, None, 1e-9),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def pair(request):
    build, n_max, jrange, tol = CASES[request.param]
    seq = build()
    batched = estimate_fields(seq, jrange, n_max, tol)
    return seq, batched, scalar_sweep(seq, n_max, batched.jrange, tol)


def staircase_row(grid, n):
    """Row n of a staircase grid without its padding: the grid.shape[1] - n
    cells of depth n, and none at a depth past the window's length."""
    return grid[min(n, len(grid) - 1), :max(grid.shape[1] - n, 0)]


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
    assert_logs_close(batched.log_s1_grid, scalar.log_s1_grid)
    assert_logs_close(batched.log_s2_grid, scalar.log_s2_grid)


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
    got = _certificate(thresholds, batched, [])
    want = _certificate(thresholds, scalar, [])
    assert (got.verdict, got.n_dom, got.failed_js) == (want.verdict, want.n_dom, want.failed_js)
    assert (got.svg.passed, got.fi.passed) == (want.svg.passed, want.fi.passed)


def point_bits(pt):
    return np.array(pt.vector()).tobytes()


def assert_one_answer_per_site(seq, sweep):
    """estimate_splitting at every site of the sweep's jrange: the sweep's
    ProjPoints, n*, rates and step tables, bit for bit, where it converged,
    and NoConvergence exactly at its failed sites."""
    for j in range(sweep.jrange[0], sweep.jrange[1] + 1):
        if j in sweep.failed:
            with pytest.raises(NoConvergence):
                estimate_splitting(seq, j, sweep.n_max, sweep.tol)
            continue
        es, eu, cert = estimate_splitting(seq, j, sweep.n_max, sweep.tol)
        assert point_bits(es) == point_bits(sweep.es[j]), j
        assert point_bits(eu) == point_bits(sweep.eu[j]), j
        assert hexed({j: cert}) == hexed({j: sweep.certs[j]}), j


def test_one_answer_per_site(pair):
    seq, batched, _ = pair
    assert_one_answer_per_site(seq, batched)


def test_one_answer_per_site_misaligned():
    """Past a misaligned insertion the two scalar and batched orderings part
    (``test_misaligned_insertion_well_conditioned_part``); the per-site API
    reads the sweep, so it answers as the certificate does at every site."""
    seq = family("random_singular", (-60, 60), {"insertions": [0], "misaligned": True}, 1)
    sweep = estimate_fields(seq, None, 40, 1e-9)
    assert sweep.failed and len(sweep.js) > 20
    assert_one_answer_per_site(seq, sweep)


def test_case_coverage():
    """The fleet reaches every branch the sweep masks."""
    vanished = product_sweep(CASES["vanishing"][0](), 40)
    assert np.isneginf(vanished.log_s1_grid).any()
    unitary = estimate_fields(CASES["unitary"][0](), None, 30, 1e-9)
    assert unitary.failed and not unitary.certs  # every layer degenerate
    tiny = CASES["prescale-tiny"][0]()
    assert max(abs(z) for z in (tiny[0].a, tiny[0].b, tiny[0].c, tiny[0].d)) < 1e-120


@pytest.mark.parametrize("name", [name for name in sorted(CASES) if "band" in name])
def test_band_cases_escape_the_prescale(name):
    """No raw product of a band-edge case takes a 2^k, and each layer's
    largest entry is within a factor 1e4 of the band's edge."""
    build, n_max, jrange, tol = CASES[name]
    seq = build()
    prescale = cocycle._prescale_rows
    layers = []

    def spied(z):
        out = prescale(z)
        layers.append((out[1], np.abs(z).max()))
        return out

    with mock.patch.object(cocycle, "_prescale_rows", spied):
        estimate_fields(seq, jrange, n_max, tol)
    assert len(layers) == n_max + 1 and all(k is None for k, _ in layers)
    lo, hi = (1e-120, 1e-116) if "tiny" in name else (1e116, 1e120)
    assert all(lo < top < hi for _, top in layers)


@pytest.mark.parametrize("jrange", [None, (-6, 6)])
def test_one_gram_per_layer(jrange):
    """Each layer takes one Gram quadratic, of the raw product: sigma1, the
    directions and the degeneracy test are all read off it."""
    seq = _conj()
    gram = cocycle._gram
    calls = []

    def counted(z):
        calls.append(z.shape[1])
        return gram(z)

    # the degeneracy test reads the quadratic too, so no layer takes a det
    with mock.patch.object(cocycle, "_gram", counted), \
            mock.patch.object(cocycle, "_sigma2", side_effect=AssertionError("det taken")):
        sweep = product_sweep(seq, 40, jrange, 1e-9)
    assert calls == [len(seq) - n + 1 for n in range(1, 42)]
    assert len(sweep.js) == (13 if jrange else 0)


# -- the band rescue: only rows out of band take the prescale, bit for bit ----

BAND = 1e100  # a factor is in band when sigma1 < BAND and sigma2 > 1 / BAND
BAND_FAMILIES = {
    "conjugated_dominated": lambda: family("conjugated_dominated", (-45, 45), seed=1),
    "ap_family-1e2": lambda: family("ap_family", (-15, 25), {"mu": 1e2}, 4),
    "ap_family-1e4": lambda: family("ap_family", (-15, 25), {"mu": 1e4}, 4),
    "unitary": lambda: family("unitary", (-20, 20), seed=3),
    "schrodinger": lambda: family("schrodinger", (-30, 30), {"energy": 3.0}),
    "random_bounded": lambda: family("random_bounded", (-30, 30), seed=2),
}
# the scales of the screen's edges, and scales that put a window's largest
# sigma1, or its smallest sigma2, a factor 2 inside them ("top" and "bottom")
BAND_SCALES = (1.0, 1e-99, 1e99, "top", "bottom")


def scalar_rescue_layers(seq):
    """The sweep layers that read a factor outside the band, as the scalar
    engine reads the band: 1 + the offset of the last such factor, or 0."""
    svs = [singular_values(seq[j]) for j in seq.indices()]
    out = [i for i, (s1, s2) in enumerate(svs) if not (s1 < BAND and s2 > 1.0 / BAND)]
    return out[-1] + 1 if out else 0


def band_window(name, scale):
    seq = BAND_FAMILIES[name]()
    if scale == "top":
        scale = 0.5 * BAND / max(singular_values(seq[j])[0] for j in seq.indices())
    elif scale == "bottom":
        scale = 2.0 / BAND / min(singular_values(seq[j])[1] for j in seq.indices())
    return seq if scale == 1.0 else scaled(seq, scale)


def sweep_bytes(sweep):
    arrays = [sweep.log_s1_grid, sweep.log_s2_grid, sweep.js, sweep.es_vec, sweep.eu_vec,
              sweep.n_star, sweep.steps]
    return [a.tobytes() for a in arrays], sweep.failed


def rescued_rows(seq, n_max=40):
    """The sweep of seq with and without sites, bit for bit that of a sweep
    that takes every row through ``_prescale_rows``, which is what the
    prescale of every row gave before the rescue; returns the row counts of
    the ``_prescale_rows`` calls, each on rows whose sigma1 leaves the band."""
    calls = []
    prescale = cocycle._prescale_rows

    def spied(z):
        out = prescale(z)
        scaled, k, zero = out
        s1 = cocycle._gram(scaled)[-1]
        s1[zero] = 0.0
        if k is not None:
            s1 = np.ldexp(s1, -k)
        assert not ((s1 > 1.0 / BAND) & (s1 < BAND)).any()  # 0 where the row vanished
        calls.append(z.shape[1])
        return out

    with mock.patch.object(cocycle, "_prescale_rows", spied):
        got = [estimate_fields(seq, None, n_max, 1e-9), product_sweep(seq, n_max)]
    got = [sweep_bytes(sweep) for sweep in got]
    every_row = copy.copy(seq)
    every_row.rescue_layers = len(seq)
    with mock.patch.object(cocycle, "_BAND", 1.0):  # no sigma1 lies in (1, 1)
        want = [sweep_bytes(estimate_fields(every_row, None, n_max, 1e-9)),
                sweep_bytes(product_sweep(every_row, n_max))]
    assert got == want
    return calls


@pytest.mark.parametrize("scale", BAND_SCALES, ids=str)
@pytest.mark.parametrize("name", sorted(BAND_FAMILIES))
def test_in_band_sweep_is_bit_identical(name, scale):
    """On every window, in band or not, the sweep yields the bits of a sweep
    that rescues every row; ``_prescale_rows`` sees only rows out of band,
    and none on a window in band."""
    seq = band_window(name, scale)
    assert seq.rescue_layers == scalar_rescue_layers(seq)
    if scale in (1.0, 1e99, "top", "bottom"):
        assert seq.rescue_layers == 0
    calls = rescued_rows(seq)
    assert seq.rescue_layers or not calls


@pytest.mark.parametrize("name", ["band-tiny", "band-huge", "singular-aligned", "vanishing",
                                  "prescale-tiny", "prescale-huge"])
def test_out_of_band_cases_are_flagged(name):
    """A rank-one factor is out of band, but the rows through an aligned one
    are not, so that window takes no prescale at all; the vanishing window
    takes it only on the row that newly vanishes at each layer n = 2 .. 41,
    in each of the two sweeps; the scaled windows rescue every row of every
    layer."""
    seq = CASES[name][0]()
    assert seq.rescue_layers == scalar_rescue_layers(seq) > 0
    calls = rescued_rows(seq)
    if name == "singular-aligned":
        assert calls == []
    elif name == "vanishing":
        assert calls == [1] * 80
    else:
        assert calls == [len(seq) - n + 1 for n in range(1, 42)] * 2


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
        starts = np.arange(lo, seq.hi - n + 2)
        clear = (starts > p) | (starts + n - 1 < p)
        for got, want in ((batched.log_s1_grid, scalar.log_s1_grid),
                          (batched.log_s2_grid, scalar.log_s2_grid)):
            got, want = got[n, :len(starts)], want[n, :len(starts)]
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
    got = _certificate(thresholds, batched, [])
    want = _certificate(thresholds, scalar, [])
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
        # L + 2 = 12 depths of the 32 that n_max asks for: none past the window
        assert sweep.log_s1_grid.shape == (12, 11)
        # the stopping rule needs four directions on each side
        assert sweep.failed == scalar_sweep(seq, 30, (0, 9), 1e-9).failed == [0, 1, 2, 3, 7, 8, 9]


# -- the certificate's array stages against their per-site references --------
#
# The stages use numpy's complex arithmetic, hypot and log, and the scalar
# functions CPython's, which differ in the last bits: integers (N, js, n*)
# must be equal, floats within TOL relative to max(1, |x|).


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want))), (got, want)


def assert_canonical(vectors):
    """The canonical phase of ``project``: the first component is real and
    nonnegative."""
    first = np.asarray(vectors)[0]
    assert np.all(first.imag == 0.0) and np.all(first.real >= 0.0)


def scalar_gap_search(seq, es, eu, thresholds):
    """The per-site domination-gap loop, kept as the reference for
    ``conditions._gap_search``."""
    js = sorted(es)
    if not js:
        return None, None
    want = math.log(thresholds.gap_lambda) - 1e-12
    state = {}
    for j in js:
        state[j] = {
            "u": eu[j].vector(), "lu": 0.0, "s": es[j].vector(), "ls": 0.0, "alive": True,
        }
    n_limit = min(thresholds.n_cap, max(seq.hi - i + 1 for i in js))
    for n in range(1, n_limit + 1):
        worst = math.inf
        any_alive = False
        for j in js:
            st = state[j]
            if not st["alive"] or j + n - 1 > seq.hi:
                st["alive"] = False
                continue
            any_alive = True
            m = seq[j + n - 1]
            for key, lkey in (("u", "lu"), ("s", "ls")):
                if st[lkey] == -math.inf:
                    continue
                w = m.apply(st[key])
                nw = math.hypot(abs(w[0]), abs(w[1]))
                if nw == 0.0:
                    st[lkey] = -math.inf
                else:
                    st[key] = (w[0] / nw, w[1] / nw)
                    st[lkey] += math.log(nw)
            if st["lu"] == -math.inf:
                gap = -math.inf
            elif st["ls"] == -math.inf:
                gap = math.inf
            else:
                gap = st["lu"] - st["ls"]
            if gap < worst:
                worst = gap
        if not any_alive:
            break
        if worst >= want:
            return n, math.exp(worst) if worst != math.inf else math.inf
    return None, None


def eager_table(sweep, kind):
    """The SVG or FI (j, n) table entry by entry, in the order the eager
    construction used: n ascending, then j."""
    lo = sweep.window[0]
    table = {}
    for n in range(0 if kind == "svg" else 1, sweep.n_max + 1):
        num = staircase_row(sweep.log_s2_grid if kind == "svg" else sweep.log_s1_grid, n)
        den = staircase_row(sweep.log_s1_grid, n + 1)
        for i in range(len(den)):
            vanished = den[i] == -math.inf
            table[(lo + i, n)] = math.inf if vanished else float(max(num[i], num[i + 1]) - den[i])
    return table


def diagonal_with_kernel():
    """diag(2, 1) with B(0) = diag(2, 0): E^s(0) = (0, 1) is exactly the
    kernel of B(0), so its image vanishes exactly in the gap search."""
    seq = family("diagonal", (-25, 25))
    entries = {j: seq[j] for j in seq.indices()}
    entries[0] = Mat2C(2.0 + 0j, 0j, 0j, 0j)
    return MatrixSequence(entries, seq.bound_M)


def subnormal_image():
    return MatrixSequence({j: Mat2C(2e-299 + 0j, 0j, 0j, 1e-320 + 0j) for j in range(-20, 21)},
                          1e-298)


# name -> (sequence builder, n_max, jrange or None for the default)
STAGE_CASES = {
    # E^s(0) lies on the kernel of the rank-one B(0): the kernel-hit fallback
    "singular-aligned": (_singular_aligned, 40, None),
    # every B(j) rank one: the image-line fallback at every pair
    "rank-one": (lambda: rank_one_window(5), 10, None),
    "diagonal-kernel": (diagonal_with_kernel, 20, None),
    "vanishing": (lambda: vanishing(_conj(1)), 40, (-6, 6)),
    # failed sites between converged ones, so the fields have holes
    "vanishing-holes": (lambda: vanishing(_conj(1)), 40, None),
    "unitary": (lambda: family("unitary", (-20, 20), seed=3), 30, None),
    "example1": (lambda: family("example1", (-40, 40)), 40, (-20, 20)),
    # enough sites and depths that a log or hypot rounded otherwise would show
    "long": (lambda: family("conjugated_dominated", (-200, 200), {"rate_mode": "constant"}, 3),
             40, None),
    "prescale-tiny": (lambda: scaled(_conj(2), 1e-130), 40, (-6, 6)),
    "prescale-huge": (lambda: scaled(_conj(2), 1e150), 40, (-6, 6)),
    # E^s = (0, 1) has a subnormal image, whose reciprocal overflows
    "subnormal-image": (subnormal_image, 10, None),
}


@pytest.fixture(scope="module", params=sorted(STAGE_CASES))
def staged(request):
    build, n_max, jrange = STAGE_CASES[request.param]
    seq = build()
    return seq, estimate_fields(seq, jrange, n_max, 1e-9)


def test_stage_case_coverage():
    """Each fallback and edge the stages handle is reached by the cases."""
    seq = STAGE_CASES["singular-aligned"][0]()
    sweep = estimate_fields(seq, None, 40, 1e-9)
    assert {0, 1} <= set(sweep.es)
    assert singular_values(seq[0])[1] == 0.0
    with pytest.raises(KernelHit):
        act(seq[0], sweep.es[0])
    seq = rank_one_window(5)
    sweep = estimate_fields(seq, None, 10, 1e-9)
    pairs = invariance_residuals(sweep)[0]
    assert len(pairs) > 10 and all(singular_values(seq[j])[1] == 0.0 for j in pairs.tolist())
    seq = diagonal_with_kernel()
    sweep = estimate_fields(seq, None, 20, 1e-9)
    assert seq[0].apply(sweep.es[0].vector()) == (0j, 0j)
    sweep = estimate_fields(vanishing(_conj(1)), None, 40, 1e-9)
    assert any(sweep.js[0] < j < sweep.js[-1] for j in sweep.failed)
    sweep = estimate_fields(family("unitary", (-20, 20), seed=3), None, 30, 1e-9)
    assert sweep.js.size == 0 and sweep.es_vec.shape == (2, 0)
    seq = subnormal_image()
    sweep = estimate_fields(seq, None, 10, 1e-9)
    assert 0.0 < abs(seq[0].apply(sweep.es[0].vector())[1]) < 2.2e-308


def fleet(name, params, seed=0):
    return family(name, (-45, 45), params, seed)


# the benchmark's cli-fleet windows with rank-one factors, and the rank-one
# window scaled by 2^+-900, which its image line reads after the kept 2^k;
# STAGE_CASES' example1 is the README golden's window
RANK_ONE_CASES = {
    "fleet-singular-aligned": (lambda: fleet("random_singular", {"insertions": [0]}), 40, (-6, 6)),
    "fleet-singular-misaligned": (
        lambda: fleet("random_singular", {"insertions": [0], "misaligned": True}), 40, (-6, 6)),
    "fleet-example1": (lambda: fleet("example1", {}), 40, None),
    "fleet-vanishing": (lambda: vanishing(fleet("conjugated_dominated", {"rate_mode": "constant"})),
                        40, (-6, 6)),
    "rank-one-2^-900": (lambda: scaled(rank_one_window(5), 2.0 ** -900), 10, None),
    "rank-one-2^900": (lambda: scaled(rank_one_window(5), 2.0 ** 900), 10, None),
}
INVARIANCE_CASES = {**STAGE_CASES, **RANK_ONE_CASES}


@pytest.mark.parametrize("name", sorted(INVARIANCE_CASES))
def test_invariance_residuals(name):
    """The array residuals against the scalar oracle at every pair, rank-one
    pairs included."""
    build, n_max, jrange = INVARIANCE_CASES[name]
    seq = build()
    sweep = estimate_fields(seq, jrange, n_max, 1e-9)
    js, res_s, res_u = invariance_residuals(sweep)
    assert js.tolist() == [j for j in sweep.es if j + 1 in sweep.es]
    for j, rs, ru in zip(js.tolist(), res_s.tolist(), res_u.tolist()):
        assert_close((rs, ru), invariance_residual(seq, j, sweep.es, sweep.eu))
    if name in RANK_ONE_CASES and name != "fleet-vanishing":  # only its site 1 converges
        assert np.count_nonzero(seq.sigma2[js - seq.lo] == 0.0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mu", [1e3, 1e4, 1e6])
def test_invariance_residuals_on_ap_family(mu, seed):
    """The array residuals against the scalar oracle on ap_family, whose
    factors reach kappa = sigma1/sigma2 of about 4 mu.  Both engines push
    E(j) through B(j), and a field that differs by rounding moves under
    that map by up to kappa times as much, so the two residuals differ by
    about u kappa (u = 2^-53): up to 0.97 u kappa, 2.8e-10 at mu = 1e6 on
    these windows, past the 1e-12 of the other cases.  The bound is
    1e-12 + 8 u kappa per pair, with kappa := 1 where B(j) is rank one."""
    seq = family("ap_family", (-30, 30), {"mu": mu}, seed)
    sweep = estimate_fields(seq, None, 40, 1e-9)
    js, res_s, res_u = invariance_residuals(sweep)
    assert len(js) > 40
    s1, s2 = seq.sigma1[js - seq.lo], seq.sigma2[js - seq.lo]
    kappa = np.where(s2 == 0.0, 1.0, s1 / np.where(s2 == 0.0, 1.0, s2))
    bounds = 1e-12 + 8 * 2.0 ** -53 * kappa
    for j, rs, ru, bound in zip(js.tolist(), res_s.tolist(), res_u.tolist(), bounds.tolist()):
        want_s, want_u = invariance_residual(seq, j, sweep.es, sweep.eu)
        assert abs(rs - want_s) <= bound and abs(ru - want_u) <= bound, (j, rs, want_s, ru, want_u)


def test_stages_read_only_the_sweep(tmp_path, capsys):
    """No certificate stage calls the scalar engine: not on aligned or
    misaligned rank-one insertions, Example 1's numerically rank-one
    factors, a vanishing window, or a window of rank-one factors only."""
    cases = [(build(), jrange) for name, (build, _, jrange) in RANK_ONE_CASES.items()
             if name.startswith("fleet-")] + [(rank_one_window(5), None)]
    scalar = AssertionError("the scalar engine ran")
    with mock.patch.multiple(cocycle, **{name: mock.Mock(side_effect=scalar) for name in (
            "invariance_residual", "svd2", "act", "kernel_line", "image_line")}):
        for seq, jrange in cases:
            check_domination(seq, jrange=jrange)
            path = str(tmp_path / "seq.json")
            dump_sequence(seq, path)
            extra = () if jrange is None else ("--jrange", *map(str, jrange))
            code = main(["split", "--input", path, "--format", "json", *extra])
            assert "internal error" not in capsys.readouterr().err and code in (0, 3)


@pytest.mark.parametrize("gap_lambda", [2.0, 1e3, 1e12])
def test_gap_search(staged, gap_lambda):
    """Larger factors need deeper N, so sites near the window's end drop out
    and, on the vanishing window, images vanish on the way."""
    seq, sweep = staged
    thresholds = Thresholds(gap_lambda=gap_lambda)
    (n, got), (n_want, want) = (_gap_search(sweep, thresholds),
                                scalar_gap_search(seq, sweep.es, sweep.eu, thresholds))
    assert n == n_want
    if want is None or want == math.inf:
        assert got == want
    else:
        assert abs(got - want) <= max(TOL, GAP_C * n * _U * want) * want, (got, want)


# The search iterates E^s forward, and whatever rounding leaves along E^u
# grows by the gap at every later step, so the factor is only known to a
# relative error that grows with the factor itself.  Each engine's
# apply-and-normalise step is within about 4u (Higham 2002, sec. 3.6: a
# complex product within sqrt(2) gamma_2, one complex addition, one division
# by a real), so the two differ by at most 8u a step; for fields of
# separation of order one, the E^u part of that difference grows relative to
# |B_n s| by at most the final factor, over at most N steps.  Measured: at
# most 0.64 N u factor, and 0.004 N u factor on singular-aligned at 1e12
# (N = 31, factors 3.82e15 and 4.04e15), the one case past TOL.
GAP_C = 8.0
_U = 2.0 ** -53


def test_projection(staged):
    """The fields are projected as project() projects them, and so are the
    unnormalised pushforwards B(j)E(j) the invariance stage projects."""
    seq, sweep = staged
    for vec, field in ((sweep.es_vec, sweep.es), (sweep.eu_vec, sweep.eu)):
        assert [p.vector() for p in field.values()] == list(zip(*vec.tolist()))
        assert_canonical(vec)
        rows = sweep.js - sweep.window[0]
        w0, w1 = _apply(tuple(f[rows] for f in sweep.seq.factors), vec[0], vec[1])
        keep = np.hypot(np.abs(w0), np.abs(w1)) > 1e-290  # a vanished image has no line
        got = _project(w0[keep], w1[keep])
        assert_canonical(got)
        want = [project(v).vector() for v in zip(w0[keep].tolist(), w1[keep].tolist())]
        assert_close(got, np.array(want, dtype=complex).reshape(-1, 2).T)


@pytest.mark.parametrize("v", [
    ((3 - 4j), (1 + 2j)),
    (0j, (2 + 1j)),  # the point at infinity
    (-0.0 + 0j, -1.0 + 0j),
    ((1e-290 + 0j), 3e-291j),  # rescaled up before normalising
    ((1e290 + 0j), (-2e289 + 1e289j)),  # rescaled down
    ((1.5e308 + 0j), -1.5e308j),  # rescaled down before the norm overflows
    ((5e-324 + 0j), (1.0 + 0j)),  # a subnormal lead, whose phase is rescued
    ((-5e-324 - 5e-324j), (0.5 - 0.5j)),
    ((1e-300 + 0j), (1e-299 + 0j)),
    (complex(-0.0, 1.0), complex(2.0, -0.0)),  # signed zeros in both parts
])
def test_projection_rescues(v):
    got = _project(np.array([v[0]]), np.array([v[1]]))
    assert_canonical(got)
    assert_close(got[:, 0], np.array(project(v).vector()))


def always_rescued_project(v0, v1):
    """``_project`` as it took its two 2^k rescues before it read the norms
    it already holds: the reference for the bits of the skipped rescues."""
    with np.errstate(over="ignore"):
        norm = np.hypot(np.abs(v0), np.abs(v1))
    k = cocycle._pow2_rescue(v0, v1)
    if k is not None:
        v0, v1 = cocycle._ldexp_c(v0, k), cocycle._ldexp_c(v1, k)
        norm = np.hypot(np.abs(v0), np.abs(v1))
    x, y = v0 / norm, v1 / norm
    at_inf = x == 0
    lead = np.where(at_inf, 1.0, x)
    k = cocycle._pow2_rescue(lead)
    if k is not None:
        lead = cocycle._ldexp_c(lead, k)
    ph = np.conj(lead) / np.abs(lead)
    out = np.empty((2, len(x)), dtype=complex)
    out[0] = np.where(at_inf, 0.0, np.abs(x * ph))
    out[1] = np.where(at_inf, 1.0, y * ph)
    return out


# norms at the edges of the skip test, (4e-280, 5e279), and a factor 2 and 4
# either side, with leads from 1 down past the lead's own edge
PROJECT_SCALES = [c * f for c in (4e-280, 5e279) for f in (0.25, 0.5, 1.0, 2.0, 4.0)]


@pytest.mark.parametrize("scale", [1.0, *PROJECT_SCALES], ids=str)
def test_projection_skips_rescues_it_does_not_need(scale):
    rng = np.random.default_rng(11)
    parts = rng.standard_normal((4, 40))
    v0, v1 = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    v0[:10] *= 10.0 ** -np.arange(250, 350, 10)  # leads down to the subnormals
    v0[10] = 0.0  # the point at infinity
    v0, v1 = v0 * scale, v1 * scale
    calls = []
    rescue = cocycle._pow2_rescue
    with mock.patch.object(cocycle, "_pow2_rescue", lambda *z: calls.append(1) or rescue(*z)):
        got = _project(v0, v1)
    assert got.tobytes() == always_rescued_project(v0, v1).tobytes()
    assert_canonical(got)
    if scale == 1.0:  # only the leads near the subnormals need a look
        assert len(calls) == 1
    one = _project(v0[11:] / scale, v1[11:] / scale)
    with mock.patch.object(cocycle, "_pow2_rescue", side_effect=AssertionError("rescued")):
        assert _project(v0[11:] / scale, v1[11:] / scale).tobytes() == one.tobytes()


@pytest.mark.parametrize("v", [(0j, 0j), (1e-301 + 0j, 0j)])
def test_projection_rejects_zero(v):
    with pytest.raises(ZeroVector):
        project(v)
    with pytest.raises(ZeroVector):
        _project(np.array([v[0]]), np.array([v[1]]))


def test_tables_built_when_read(staged):
    seq, sweep = staged
    report = _certificate(Thresholds(n_max=sweep.n_max), sweep, [])
    for fit, kind in ((report.svg, "svg"), (report.fi, "fi")):
        want = eager_table(sweep, kind)
        rows = [[j, n, v] for (j, n), v in sorted(want.items())]
        assert column_rows(fit.table_columns()) == rows
        # rows holds the padded grid: row k is depth n_first + k from the window's start
        lo, n_first, grid = fit.rows
        assert (lo, n_first) == (sweep.window[0], 0 if kind == "svg" else 1)
        assert {(lo + i, n_first + k): v for k in range(len(grid))
                for i, v in enumerate(staircase_row(grid, k).tolist())} == want
    again = _certificate(Thresholds(n_max=sweep.n_max), sweep, [])
    assert again.svg == report.svg and again.fi == report.fi
    assert "rows" not in repr(report.svg)


# -- the whole-grid profiles against the depth-by-depth loop -----------------


def loop_log_s2(sweep):
    """log sigma2 layer by layer, log|det| summed factor by factor from B(j)
    up, as the sweep took it before its grid: the reference for its bits."""
    flog_det = prescaled_log_abs_dets(sweep.seq.factors)
    log_s2 = [np.zeros(len(flog_det) + 1)]
    log_det = np.zeros(len(flog_det))
    for n, ls1 in enumerate(log_s1_rows(sweep)[1:], start=1):
        log_det = log_det[:len(ls1)] + flog_det[n - 1:]
        vanished = ls1 == -math.inf
        ls2 = log_det - np.where(vanished, 0.0, ls1)
        ls2[vanished] = -math.inf
        log_s2.append(ls2)
    return log_s2


def log_s1_rows(sweep):
    """The rows n = 0 .. n_max + 1 of the log sigma1 grid without padding."""
    return [staircase_row(sweep.log_s1_grid, n) for n in range(sweep.n_max + 2)]


def loop_log_ratios(num, denom):
    """max(num(j), num(j+1)) - denom(j) in the log domain, +inf where the
    denominator product vanished; num has one start more than denom."""
    m = len(denom)
    vanished = denom == -math.inf
    r = np.maximum(num[:m], num[1:m + 1]) - np.where(vanished, 0.0, denom)
    r[vanished] = math.inf
    return r


def loop_profiles(sweep):
    """The svg and fi rows and suprema and the norm floor depth by depth, as
    ``conditions`` took them before its grid passes."""
    ls1, ls2 = log_s1_rows(sweep), loop_log_s2(sweep)
    svg = [loop_log_ratios(ls2[n], ls1[n + 1]) for n in range(sweep.n_max + 1)]
    fi = [loop_log_ratios(ls1[n], ls1[n + 1]) for n in range(1, sweep.n_max + 1)]
    svg_sup = {n: float(r.max()) if r.size else -math.inf for n, r in enumerate(svg)}
    fi_sup = {n: float(r.max()) if r.size else -math.inf for n, r in enumerate(fi, start=1)}
    floor = {n: float(ls1[n].min()) for n in range(1, sweep.n_max + 1) if ls1[n].size}
    return ls2, svg, svg_sup, fi, fi_sup, floor


def row_cells(j0, n0, rows):
    """j, n and value of every cell of a table given as one array per depth,
    in (j, n) order: the reader of the row form the report grids replaced."""
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    j, k = np.nonzero(np.arange(lens.max(initial=0))[:, None] < lens)
    flat = np.concatenate([np.empty(0), *rows])
    return j0 + j, n0 + k, flat[(np.cumsum(lens) - lens)[k] + j]


def hex_values(d):
    return {k: v.hex() for k, v in d.items()}


PROFILE_CASES = {
    **{f"case-{name}": (build, n_max) for name, (build, n_max, _, _) in CASES.items()},
    **{f"stage-{name}": (build, n_max) for name, (build, n_max, _) in STAGE_CASES.items()},
    # shorter than n_max + 2: the deepest rows are empty
    "short": (lambda: family("conjugated_dominated", (-8, 8), seed=2), 40),
    "short-vanishing": (lambda: vanishing(family("conjugated_dominated", (-8, 8), seed=2)), 40),
    "one-entry": (lambda: family("diagonal", (0, 0)), 3),
}


@pytest.mark.parametrize("name", sorted(PROFILE_CASES))
def test_profiles_match_the_depth_loop(name):
    """log sigma2, the svg and fi ratio rows, their suprema and the norm
    floor from the grids are the bits of the loop over depths, on windows
    with vanished products, rank-one factors (log sigma2 = -inf) and fewer
    entries than n_max + 2."""
    build, n_max = PROFILE_CASES[name]
    sweep = product_sweep(build(), n_max)
    assert sweep.vanished == bool(np.isneginf(sweep.log_s1_grid).any())
    ls2, svg, svg_sup, fi, fi_sup, floor = loop_profiles(sweep)
    assert [staircase_row(sweep.log_s2_grid, n).tobytes() for n in range(n_max + 2)] == [
        r.tobytes() for r in ls2]
    got_svg, got_fi = _svg_fi_fits(sweep, Thresholds(n_max=n_max))
    for got, rows, sup in ((got_svg, svg, svg_sup), (got_fi, fi, fi_sup)):
        lo, n_first, grid = got.rows
        assert [staircase_row(grid, k).tobytes() for k in range(len(rows))] == [
            r.tobytes() for r in rows]
        # the grid's mask-and-index reader gives the cells of the rows, bit for bit
        for got_cells, want_cells in zip(got.table_columns(), row_cells(lo, n_first, rows)):
            assert got_cells.dtype == want_cells.dtype
            assert got_cells.tobytes() == want_cells.tobytes()
        assert hex_values(got.sup_log) == hex_values(sup)
    got_floor = _norm_floor(sweep).tolist()  # row k holds n = k + 1
    assert hex_values({n: got_floor[n - 1] for n in floor}) == hex_values(floor)


def test_profile_cases_cover_the_edges():
    """The profile cases reach vanished products, -inf log sigma2 cells and
    empty rows."""
    sweeps = {name: product_sweep(build(), n_max) for name, (build, n_max) in PROFILE_CASES.items()}
    assert np.isneginf(sweeps["short-vanishing"].log_s1_grid).any()
    rank_one = sweeps["stage-rank-one"].log_s2_grid
    assert any(np.isneginf(r).any() and np.isfinite(r).any()
               for r in (staircase_row(rank_one, n) for n in range(len(rank_one))))
    assert sweeps["short"].log_s1_grid.shape == (19, 18)  # L + 2 = 19 depths, not n_max + 2


def accumulate_sums(grid, size):
    """The depth sums as one ``np.add.accumulate`` down the grid, as the
    sweep and ``log_s2_grid`` took them before their row adds, with the
    cells past the staircase (row n holds size - n + 1) kept as they were:
    the reference for the row adds' bits."""
    with np.errstate(invalid="ignore"):  # -inf + inf past the staircase
        out = np.add.accumulate(grid, axis=0)
    n, j = np.indices(grid.shape)
    past = (n > 0) & (j > size - n)
    out[past] = grid[past]
    return out


@pytest.mark.parametrize("name", sorted(PROFILE_CASES))
def test_depth_sums_match_accumulate(name):
    """Both depth sums, of log sigma1 in the sweep and of log|det| in
    ``log_s2_grid``, are row adds with the bits of one accumulate."""
    build, n_max = PROFILE_CASES[name]
    seq = build()
    depth_sums = cocycle._depth_sums
    seen = []

    def spied(grid, size):
        want = accumulate_sums(grid, size)
        depth_sums(grid, size)
        assert size == len(seq) and grid.shape == (min(n_max, size) + 2, size + 1)
        assert grid.tobytes() == want.tobytes()
        seen.append(size)

    with mock.patch.object(cocycle, "_depth_sums", spied):
        product_sweep(seq, n_max).log_s2_grid
    assert len(seen) == 2


@pytest.mark.parametrize("name", sorted(STAGE_CASES))
def test_stages_read_the_kept_screen(name):
    """The invariance stage and log sigma2 take no singular value, prescale
    or det of a factor: they read the sequence's kept values."""
    build, n_max, jrange = STAGE_CASES[name]
    seq = build()
    sweep = estimate_fields(seq, jrange, n_max, 1e-9)
    assert sweep.vanished == bool(np.isneginf(sweep.log_s1_grid).any())
    taken = AssertionError("a factor's values taken again")
    with mock.patch.object(cocycle, "_prescale_rows", side_effect=taken), \
            mock.patch.object(cocycle, "_factor_values", side_effect=taken), \
            mock.patch.object(cocycle, "_screen", side_effect=taken):
        invariance_residuals(sweep)
        assert "log_s2_grid" not in vars(sweep)
        sweep.log_s2_grid


def test_exact_zero_rows_vanish_by_the_prescale_flag():
    """A raw product that is exactly zero vanishes through the zero flag of
    ``_prescale_rows``, the one test of a vanished row: cli-fleet's
    vanishing window (jrange -6 .. 6, n_max 40) makes one one-row call per
    layer that a row newly vanishes in, 40 in all.  The sweep keeps the bits
    of the prescale-every-row path."""
    seq = vanishing(_conj(21))
    assert rescued_rows(seq) == [1] * 80
    prescale = cocycle._prescale_rows
    calls = []
    with mock.patch.object(cocycle, "_prescale_rows",
                           lambda z: calls.append(z.shape[1]) or prescale(z)):
        report = check_domination(seq, Thresholds(), jrange=(-6, 6))
    assert calls == [1] * 40 and report.verdict == "not_dominated"
    assert np.isneginf(report.sweep.log_s1_grid).sum() == sum(range(1, 41))


def test_underflowed_rows_still_take_the_prescale():
    """Entries near 1e-170 square below the smallest subnormal, so sigma1
    of the raw quadratic is 0 on rows that have not vanished: those take
    the prescale, and no product reads as vanished."""
    seq = scaled(_conj(2), 1e-170)
    assert (cocycle._gram(seq.factors)[-1] == 0.0).all()
    calls = rescued_rows(seq)
    assert calls == [len(seq) - n + 1 for n in range(1, 42)] * 2
    assert not np.isneginf(product_sweep(seq, 40).log_s1_grid).any()


# -- the row classification of the power-of-two prescale ----------------------


_R2 = math.sqrt(2.0)
# the thresholds of the prescale and of the zero test, and values a factor
# sqrt(2) either side
EDGES = [t * f for t in (ENTRY_ZERO_TOL, 1e-120, 1e120) for f in (1 / _R2, 1.0, _R2)]
SPECIALS = EDGES + [
    np.nextafter(ENTRY_ZERO_TOL, 0.0), np.nextafter(ENTRY_ZERO_TOL, 1.0),
    ENTRY_ZERO_TOL / 1.5, ENTRY_ZERO_TOL * 1.5, 1e-120 * 1.5, 1e120 / 1.5,
    5e-324, 2.2250738585072014e-308, 1e-310, 0.0, 1.0,
]


def _parts():
    log_uniform = st.floats(-320.0, 300.0).map(lambda u: 10.0 ** u)
    magnitude = st.one_of(log_uniform, st.sampled_from(SPECIALS))
    return st.tuples(magnitude, st.sampled_from((1.0, -1.0)))


@st.composite
def entries(draw):
    """One complex entry: independent real and imaginary parts, which may
    differ in magnitude by hundreds of decades, or a modulus placed on an
    edge with equal parts."""
    if draw(st.booleans()):
        (re, sr), (im, si) = draw(_parts()), draw(_parts())
        return complex(sr * re, si * im)
    edge = draw(st.sampled_from(SPECIALS))
    return complex(edge / _R2, draw(st.sampled_from((1.0, -1.0))) * edge / _R2)


@st.composite
def stacks(draw):
    """A (4, m) stack of matrices [[a, b], [c, d]]; some rows have zero
    entries, some are all zero."""
    m = draw(st.integers(1, 8))
    zero = st.just(0j)
    cells = [draw(st.one_of(entries(), zero)) for _ in range(4 * m)]
    z = np.array(cells, dtype=complex).reshape(4, m)
    z[:, draw(st.lists(st.integers(0, m - 1), max_size=2))] = 0.0
    return z


def test_prescale_classification_at_the_edges():
    """Every special value as the real part, the imaginary part, or both, of
    a row's largest entry, beside entries far below it: each row's zero
    flag, k and scaled entries are those of the scalar ``Mat2C.is_zero``
    and ``_prescale``, bit for bit."""
    rows = []
    for x in SPECIALS:
        for e in (complex(x, 0.0), complex(0.0, -x), complex(x / _R2, x / _R2),
                  complex(x, x * 1e-200), complex(x * 1e-250, -x)):
            rows.append((e, 1e-310 + 0j, 0j, complex(x * 1e-30, 0.0)))
    z, k, zero = cocycle._prescale_rows(np.array(rows, dtype=complex).T.copy())
    assert k is not None  # some rows are scaled, so every row's k is read
    for i, row in enumerate(rows):
        m = Mat2C(*row)
        want, want_k = (m, 0) if m.is_zero() else _prescale(m)
        assert zero[i] == m.is_zero()
        assert k[i] == want_k
        assert z[:, i].tobytes() == np.array([want.a, want.b, want.c, want.d]).tobytes()


def test_steps_capped_at_the_window():
    """No column has room past depth L, so a deep n_max on an L-entry window
    keeps at most L step rows and finds what n_max = L finds."""
    seq = _conj()
    deep, at_length = (estimate_fields(seq, None, n_max, 1e-9) for n_max in (20000, len(seq)))
    assert deep.steps.shape[0] <= len(seq) == 91
    assert deep.js.tolist() == at_length.js.tolist() and len(deep.js)
    assert deep.failed == at_length.failed
    assert np.array_equal(deep.n_star, at_length.n_star)
    for got, want in zip(deep.certs.values(), at_length.certs.values()):
        for x, y in ((got.rate_s, want.rate_s), (got.rate_u, want.rate_u)):
            assert (x is None) == (y is None)
            assert x is None or abs(x - y) <= 1e-12


def test_log_s2_built_on_first_read():
    seq = _conj()
    sweep = product_sweep(seq, 20)
    assert "log_s2_grid" not in vars(sweep)
    assert sweep.log_s2_grid is sweep.log_s2_grid
    # written into its room in the one block of the sweep's staircase arrays
    assert sweep.log_s2_grid is sweep.log_s2_room
    assert sweep.log_s1_grid.base is sweep.log_s2_room.base is sweep.steps.base
    # the audit reads log sigma1 only, so it never takes a log|det|
    with mock.patch.object(MatrixSequence, "log_abs_dets",
                           side_effect=AssertionError("log|det| taken")):
        ap_report(family("ap_family", (-15, 25), {"mu": 1e3}, 3), 1e3, 20)


# -- the per-site results, built from the sweep's columns on first read ------


def eager_fields(sweep):
    """es, eu and certs as the sweep built them before they were built on
    read: a ProjPoint per column, and each side's rates fitted over its own
    (rows, K) step array."""
    js, k = sweep.js.tolist(), len(sweep.js)
    site = sweep.js - (sweep.jrange[0] if k else 0)
    rows = (sweep.steps[:, site], sweep.steps[:, site + sweep.steps.shape[1] // 2])
    rates = [_fit_rates(side) for side in rows]
    certs = {
        j: ConvergenceCert(ns, nu, rs, ru, sweep.tol, (*rows, i))
        for i, (j, ns, nu, rs, ru) in enumerate(zip(js, *sweep.n_star.tolist(), *rates))
    }
    es = dict(zip(js, map(ProjPoint, *sweep.es_vec.tolist())))
    eu = dict(zip(js, map(ProjPoint, *sweep.eu_vec.tolist())))
    return es, eu, certs


def hexed(certs):
    """Every value of the certificates, the rates as float.hex."""
    def h(rate):
        return None if rate is None else rate.hex()
    return [(j, c.n_star_s, c.n_star_u, h(c.rate_s), h(c.rate_u), c.tol, c.s_steps, c.u_steps)
            for j, c in certs.items()]


def test_fields_built_on_first_read():
    """A certificate at L = 2001 fits no rate and builds no per-site point;
    reading the fields then gives what the eager construction gave."""
    seq = family("conjugated_dominated", (-1000, 1000), {"rate_mode": "constant"}, 5)
    with mock.patch.object(cocycle, "_fit_rates", side_effect=AssertionError("rates fitted")):
        report = check_domination(seq, jrange=(-959, 959))
    sweep = report.sweep
    assert report.verdict == "dominated" and len(sweep.js) == 1919
    assert not {"es", "eu", "certs"} & vars(sweep).keys()
    es, eu, certs = eager_fields(sweep)
    assert hexed(report.certs) == hexed(certs)
    assert report.es == es and report.eu == eu and report.certs == certs
    assert report.es is sweep.es and report.certs is sweep.certs


def test_stacked_rate_fit_matches_per_side(pair):
    seq, batched, _ = pair
    assert hexed(batched.certs) == hexed(eager_fields(batched)[2])


def test_rates_do_not_depend_on_other_sites():
    """A site's rates are the same whether its sweep estimates it alone or
    among others, and whatever the layout of the step array."""
    seq = _conj()
    wide = estimate_fields(seq, (-6, 6), 40, 1e-9)
    for j in range(-6, 7):
        alone = estimate_fields(seq, (j, j), 40, 1e-9)
        assert hexed(alone.certs) == hexed({j: wide.certs[j]}), j
    assert _fit_rates(np.ascontiguousarray(wide.steps)) == _fit_rates(wide.steps)


@pytest.mark.parametrize("build, jrange", [
    (lambda: family("conjugated_dominated", (-45, 45), seed=3), None),
    (lambda: family("conjugated_dominated", (-200, 200), seed=5), None),
    (lambda: family("ap_family", (-15, 25), {"mu": 1e2}, 4), (0, 10)),
])
def test_one_column_fit_matches_the_wide_stack(build, jrange):
    """Each column's rate is summed along that column alone, so a one-column
    fit gives the column's rate in the stack of every site's steps, bit for
    bit."""
    steps = estimate_fields(build(), jrange, 40, 1e-9).steps
    wide = _fit_rates(steps)
    assert len(wide) > 20
    for c, rate in enumerate(wide):
        alone = _fit_rates(steps[:, [c]])[0]
        assert (alone is None and rate is None) or alone.hex() == rate.hex(), c


def test_rates_fit_the_converged_columns_once():
    """``rates`` fits the 2K step columns of the K converged sites, in one
    call, and ``certs`` reads those rates; each is the rate of its column in
    the stack of all 2S sites' columns."""
    sweep = estimate_fields(family("conjugated_dominated", (-45, 45), seed=3), None, 40, 1e-9)
    k, s = len(sweep.js), sweep.steps.shape[1] // 2
    assert 0 < k < s and sweep.failed
    fit = mock.Mock(side_effect=_fit_rates)
    with mock.patch.object(cocycle, "_fit_rates", fit):
        certs = sweep.certs
        rates = sweep.rates
    assert [call.args[0].shape for call in fit.call_args_list] == [(sweep.steps.shape[0], 2 * k)]
    wide = _fit_rates(sweep.steps)
    site = (sweep.js - sweep.jrange[0]).tolist()
    assert rates == ([wide[c] for c in site], [wide[s + c] for c in site])
    assert hexed(certs) == hexed(eager_fields(sweep)[2])


def test_invariance_fallback_builds_no_fields():
    seq = rank_one_window(5)
    sweep = estimate_fields(seq, None, 10, 1e-9)
    js, _, _ = invariance_residuals(sweep)
    assert len(js) > 10  # every pair is rank one
    assert not {"es", "eu", "certs"} & vars(sweep).keys()


def test_direction_stage_stops_when_every_side_is_done():
    """Edge sites run out of room long before n_max; once every side has
    stopped or run out of room, here at the layer where the last run stops,
    the sweep builds the remaining layers without the direction stage."""
    seq = CASES["conjugated-edges"][0]()
    layers = []
    advance = cocycle._DirectionRuns.advance

    def counted(runs, n, *args):
        layers.append(n)
        return advance(runs, n, *args)

    with mock.patch.object(cocycle._DirectionRuns, "advance", counted):
        sweep = estimate_fields(seq, None, 40, 1e-9)
    assert layers == list(range(1, max(layers) + 1))
    assert max(layers) == sweep.n_star.max() + 3 == 22
    assert sweep.log_s1_grid.shape == (42, 92) and len(sweep.js) == 50


def three_hypot_right_vectors(p, r, q, s1sq):
    """The top right singular vectors with |w0| and |w1| taken as complex
    moduli, as the sweep took them before ``_gram`` returned |q|: the
    reference for ``cocycle._right_vectors``."""
    pivot_p = p >= r
    w0 = np.where(pivot_p, s1sq - r, q)
    w1 = np.where(pivot_p, np.conj(q), s1sq - p)
    nw = np.hypot(np.abs(w0), np.abs(w1))
    for i in np.flatnonzero((nw > 0.0) & (nw < 1e-280)):  # rescued by an exact 2^k
        k = -math.floor(math.log2(nw[i]))
        w0[i], w1[i] = (complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                        for z in (w0[i], w1[i]))
        nw[i] = np.hypot(np.abs(w0[i]), np.abs(w1[i]))
    nw[nw == 0.0] = 1.0
    return w0 / nw, w1 / nw


# vectors (w0, w1) at every scale that ``_unit`` meets: zero, subnormal,
# near 1e-290, in band, near 1e300, and parts of 1.5e308, whose norm overflows
_UNIT_COLUMNS = [
    (0j, 0j),
    (5e-324 + 0j, -5e-324j),
    (complex(3e-310, -1e-311), 2e-309 + 0j),
    (1e-290 + 3e-291j, -2e-290 + 0j),
    (complex(0.3, -0.4), 1.2 + 0.5j),
    (0j, -2.0 + 0j),
    (1e300 + 0j, complex(-2e299, 1e299)),
    (complex(1.5e308, 0.0), -1.5e308j),
]


def test_unit_rescues_as_rescale_pow2():
    """``_unit`` over the (2, K) arrays that ``_gap_search`` passes, the sides
    u and s of K sites: the bits of ``rescale_pow2`` and a division by the
    hypot of the moduli, column by column, with zero vectors unchanged."""
    cols = _UNIT_COLUMNS
    w0 = np.array([[a for a, _ in cols], [b for _, b in cols[::-1]]])
    w1 = np.array([[b for _, b in cols], [a for a, _ in cols[::-1]]])
    with np.errstate(over="ignore"):  # the 1.5e308 column's norm is inf
        nw = np.hypot(np.abs(w0), np.abs(w1))
    got0, got1 = cocycle._unit(w0, w1, nw)
    assert got0.shape == got1.shape == (2, len(cols))
    for i in range(2):
        for k in range(len(cols)):
            v = np.array(rescale_pow2((complex(w0[i, k]), complex(w1[i, k]))))
            norm = np.hypot(np.abs(v[0]), np.abs(v[1]))
            want = v if norm == 0.0 else v / norm
            assert np.array([got0[i, k], got1[i, k]]).tobytes() == want.tobytes(), (i, k)
    assert np.isfinite(got0).all() and np.isfinite(got1).all()


# a row whose Gram off-diagonal q is subnormal and whose p = r: its
# eigenvector row has a subnormal norm, whose reciprocal overflows
_SUBNORMAL_Q = np.array([[5e-324 + 5e-324j], [1 + 1j], [1 + 1j], [0j]])


@settings(max_examples=400, deadline=None)
@given(stacks())
@example(z=_SUBNORMAL_Q)
def test_right_vectors_match_moduli(z):
    """hypot(x, +-0) = |x| and |conj q| = |q|, so the vectors are the same
    bytes, signs of zero too, on rows with zero, real-only and tiny parts."""
    z = cocycle._prescale_rows(z)[0]  # entries within the range a sweep's cores have
    p, r, q, aq, s1sq, _ = cocycle._gram(z)
    got = cocycle._right_vectors(p, r, q, aq, s1sq)
    want = three_hypot_right_vectors(p, r, q, s1sq)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


# -- the Gram quadratic's root and the degeneracy test read off it ------------


def det_degenerate(z):
    """The degeneracy test as ``svd2`` takes it, sigma1 - sigma2 <= t sigma1
    with sigma2 from the determinant, and the relative gap (sigma1 - sigma2)
    / sigma1 it compares with t; nan on zero rows."""
    s1 = cocycle._gram(z)[-1]
    s2 = cocycle._sigma2(cocycle._abs_det(z), s1)
    with np.errstate(invalid="ignore"):
        return (s1 - s2) <= DEGENERATE_REL_TOL * s1, (s1 - s2) / s1


def gram_degenerate(z):
    p, r, _, _, s1sq, _ = cocycle._gram(z)
    return cocycle._degenerate(p, r, s1sq)


def near_threshold_rows():
    """U diag(s, s (1 - t (1 + delta))) V* for random unitaries U, V: a
    relative gap (1 + delta) t, within rounding of the threshold t but more
    than 1e-6 t from it, at scales across the prescale's range."""
    rng = np.random.default_rng(7)
    t = DEGENERATE_REL_TOL
    rows = []
    for delta in (-1e-2, -1e-4, -1e-5, 1e-5, 1e-4, 1e-2):
        for scale in (1e-119, 1e-40, 1.0, 3e70, 1e119):
            q1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            q2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            m = q1 @ np.diag([scale, scale * (1.0 - t * (1.0 + delta))]) @ q2.conj().T
            rows.append((m.ravel(), delta < 0))
    return np.array([m for m, _ in rows]).T.copy(), np.array([d for _, d in rows])


def test_degeneracy_near_the_threshold():
    z, want = near_threshold_rows()
    got, _ = det_degenerate(z)
    assert np.array_equal(gram_degenerate(z), want)
    assert np.array_equal(got, want)


@settings(max_examples=400, deadline=None)
@given(stacks())
def test_gram_degeneracy_matches_det(z):
    """The Gram-form test agrees with the det form on every row whose relative
    gap is more than 1e-6 relative from the threshold; both hold on zero
    rows."""
    z = cocycle._prescale_rows(z)[0]  # entries within the range a sweep's cores have
    want, gap = det_degenerate(z)
    got = gram_degenerate(z)
    clear = np.abs(gap - DEGENERATE_REL_TOL) > 1e-6 * DEGENERATE_REL_TOL  # False on nan
    assert np.array_equal(got[clear], want[clear])
    zero = cocycle._gram(z)[-1] == 0.0
    assert got[zero].all() and want[zero].all()


# a complex number whose parts are nonzero, of either sign, within 1e+-50
_PART = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-50.0, 50.0), st.sampled_from((1.0, -1.0)))
_MODERATE = st.builds(complex, _PART, _PART)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(entries(), entries()), min_size=1, max_size=6),
       st.lists(st.tuples(*[_MODERATE] * 4), min_size=1, max_size=6))
def test_conformal_rows_degenerate_rank_one_rows_not(conformal, rank_one):
    """Rows a U, U unitary, are exactly conformal: [[a, -conj b], [b, conj a]]
    has Gram matrix (|a|^2 + |b|^2) I.  Rank-one rows (x, y)^T (w0, w1), and
    exact ones with a zero row or column, have sigma2 ~ 0."""
    def stack(rows):
        return cocycle._prescale_rows(np.array(rows, dtype=complex).reshape(-1, 4).T.copy())[0]

    assert gram_degenerate(stack([(a, -b.conjugate(), b, a.conjugate())
                                  for a, b in conformal])).all()
    rows = [(x * w0, x * w1, y * w0, y * w1) for x, y, w0, w1 in rank_one]
    rows += [(x, y, 0j, 0j) for x, y, _, _ in rank_one]
    rows += [(0j, x, 0j, y) for x, y, _, _ in rank_one]
    assert not gram_degenerate(stack(rows)).any()


def hypot_sigma1(z):
    """sigma1 of ``_gram`` with its root taken by np.hypot."""
    p, r, _, aq, _, _ = cocycle._gram(z)
    return np.sqrt(0.5 * (p + r + np.hypot(p - r, 2.0 * aq)))


def assert_sigma1_near_hypot(z):
    got, want = cocycle._gram(z)[-1], hypot_sigma1(z)
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))


@settings(max_examples=400, deadline=None)
@given(stacks())
def test_gram_sigma1_within_two_ulp_of_hypot(z):
    assert_sigma1_near_hypot(cocycle._prescale_rows(z)[0])


@pytest.mark.parametrize("scale", [1e-118, 1e118])
def test_gram_sigma1_at_the_band_edges(scale):
    """At the edges of the prescale's band the squared entries reach 1e+-236:
    sigma1 stays finite and positive, and within 2 ulp of the hypot form."""
    rng = np.random.default_rng(5)
    z = (rng.normal(size=(4, 500)) + 1j * rng.normal(size=(4, 500))) * scale
    z[:, 0] = [scale, 0.0, 0.0, -scale]  # p - r = 0
    z[:, 1] = [scale, scale, 0.0, 0.0]  # rank one, |q| = p
    assert cocycle._prescale_rows(z)[1] is None  # no row is prescaled
    s1 = cocycle._gram(z)[-1]
    assert np.all(np.isfinite(s1) & (s1 > 0.0))
    assert_sigma1_near_hypot(z)


def old_gram(z):
    """``_gram`` as it read before it squared the float view of a contiguous
    copy: the reference for its bits."""
    a2 = z.real * z.real + z.imag * z.imag
    p = a2[0] + a2[2]
    r = a2[1] + a2[3]
    q = np.conj(z[0]) * z[1] + np.conj(z[2]) * z[3]
    aq = np.abs(q)
    root = np.empty(len(p), dtype=complex)
    np.subtract(p, r, out=root.real)
    np.multiply(aq, 2.0, out=root.imag)
    s1sq = 0.5 * (p + r + np.abs(root))
    return p, r, q, aq, s1sq, np.sqrt(s1sq)


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_gram_on_non_contiguous_stacks(z):
    """The screen and the generators pass ``_gram`` stacks whose last axis is
    not contiguous; each layout gives the old formula's bits in all six
    outputs."""
    z = cocycle._prescale_rows(z)[0]  # entries within the range a sweep's cores have
    m = z.shape[1]
    twice = np.repeat(z, 2, axis=1)  # each column twice
    wide = np.concatenate([z, z[:, ::-1]], axis=1)
    layouts = [
        twice[:, 2 * np.arange(m)],  # gathered columns
        np.ascontiguousarray(z.T).T,  # .T of a row-major (m, 4) array
        np.ascontiguousarray(twice.T).T[:, ::2],  # strided, and .T of a row-major array
        twice[:, np.arange(2 * m) % 2 == 0],  # z[:, mask]
        wide[:, :m],  # the first m columns of a wider stack, as a sweep's core
    ]
    want = [w.tobytes() for w in old_gram(z)]
    for layout in layouts:
        assert np.array_equal(layout, z)
        assert [g.tobytes() for g in cocycle._gram(layout)] == want


# A layer on which every direction row is degenerate (or vanished) takes no
# direction: the sweep skips the right vectors, u images and distances there.

def unitary(seed):
    return family("unitary", (-45, 45), seed=seed)


def tiny_sites(seed):
    """A unitary window whose factors at sites 0 .. 2 are 1.2e-300 I: a raw
    product through one of them vanishes where the core's largest entry is
    at most 1 / 1.2, and every other product is a scaled unitary, so the
    layers that hold vanished rows hold only degenerate ones beside them."""
    seq = unitary(seed)
    entries = {j: seq[j] for j in seq.indices()}
    for j in range(3):
        entries[j] = Mat2C(1.2e-300 + 0j, 0j, 0j, 1.2e-300 + 0j)
    return MatrixSequence(entries, seq.bound_M)


def until_vanished(scan):
    """The products of a scan up to the first one that vanishes."""
    try:
        yield from scan
    except ProductVanished:
        return


def scalar_columns(seq, n_max, jrange, tol):
    """The scalar direction rule at every site of jrange, converged or not:
    (failed sites, n_star as (2, S) with -1 where a side did not stop, the
    steps as the sweep's (depth, 2S) grid, and each side's stopping point)."""
    sites = range(jrange[0], jrange[1] + 1)
    n_star = np.full((2, len(sites)), -1, dtype=np.int64)
    steps = np.full((min(n_max, len(seq)), 2 * len(sites)), np.nan)
    points = {}
    for k, j in enumerate(sites):
        scans = (("s", forward_scan(seq, j, min(n_max, seq.hi - j + 1))),
                 ("u", backward_scan(seq, j, min(n_max, j - seq.lo))))
        for side, (name, scan) in enumerate(scans):
            stop, pts, table = _direction_run(_point_steps(until_vanished(scan), name), tol)
            for n, d in table.items():
                steps[n, side * len(sites) + k] = d
            if stop is not None:
                n_star[side, k] = stop
                points[name, j] = pts[stop]
    failed = [j for k, j in enumerate(sites) if (n_star[:, k] < 0).any()]
    return failed, n_star, steps, points


def assert_matches_scalar_columns(seq, sweep):
    failed, n_star, steps, points = scalar_columns(seq, sweep.n_max, sweep.jrange, sweep.tol)
    assert sweep.failed == failed
    assert np.array_equal(sweep.n_star, n_star[:, sweep.js - sweep.jrange[0]])
    assert np.array_equal(np.isnan(sweep.steps), np.isnan(steps))
    fin = ~np.isnan(steps)
    assert np.abs(sweep.steps[fin] - steps[fin]).max(initial=0.0) <= TOL
    for j in sweep.js.tolist():
        assert dist(sweep.es[j], points["s", j]) <= TOL, j
        assert dist(sweep.eu[j], points["u", j]) <= TOL, j


def skipped_layers(seq, n_max, jrange, tol=1e-9):
    """The sweep, and for each layer the direction stage fed: whether it was
    skipped (no directions), whether a column read a vanished row there, and
    whether one read a degenerate row (not recorded on a skipped layer)."""
    layers = []
    advance = cocycle._DirectionRuns.advance

    def spied(runs, n, room, vanished, degenerate, pts, tol):
        layers.append((pts is None, vanished is not None, degenerate is not None))
        return advance(runs, n, room, vanished, degenerate, pts, tol)

    with mock.patch.object(cocycle._DirectionRuns, "advance", spied):
        sweep = estimate_fields(seq, jrange, n_max, tol)
    return sweep, layers


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
@pytest.mark.parametrize("jrange", [None, (-6, 6)])
def test_all_degenerate_layers_take_no_direction(seed, jrange):
    """A unitary window has no singular-value gap: every layer is degenerate,
    so the sweep never takes a right vector, and no site gets a step."""
    seq = unitary(seed)
    skip = AssertionError("a direction was taken on a degenerate layer")
    with mock.patch.object(cocycle, "_right_vectors", side_effect=skip):
        sweep = estimate_fields(seq, jrange, 40, 1e-9)
    lo, hi = sweep.jrange
    assert sweep.failed == list(range(lo, hi + 1)) and not len(sweep.js)
    assert np.isnan(sweep.steps).all()


def test_degenerate_and_vanished_rows_in_one_layer():
    """Unitary factors with the complementary projections at sites 0 and 1:
    layers hold vanished rows, degenerate rows and rank-one rows through one
    projection, which have a direction, so these layers are not skipped."""
    seq = vanishing(unitary(0))
    sweep, layers = skipped_layers(seq, 40, None)
    assert sweep.vanished and not any(s for s, _, _ in layers)
    assert any(v and d for _, v, d in layers)
    assert_matches_scalar_columns(seq, sweep)


def test_skip_on_some_layers():
    """The same window at sites 10 .. 20: layers 1 .. 8 read only unitary
    products and are skipped; from layer 9 on a u column reads B_n(1), rank
    one, and the directions are taken."""
    seq = vanishing(unitary(1))
    sweep, layers = skipped_layers(seq, 40, (10, 20))
    assert [s for s, _, _ in layers[:9]] == [True] * 8 + [False]
    assert_matches_scalar_columns(seq, sweep)


@pytest.mark.parametrize("seed", [0, 1])
def test_skip_on_layers_with_vanished_rows(seed):
    """Vanished rows count as degenerate: layers that hold them beside
    degenerate rows alone are skipped, and every site fails as the scalar
    rule's does."""
    seq = tiny_sites(seed)
    sweep, layers = skipped_layers(seq, 40, (-6, 6))
    assert any(s and v for s, v, _ in layers)
    assert_matches_scalar_columns(seq, sweep)


def test_room_bounds_match_the_depth_rule():
    """A column has room at layer n exactly when its start is a row of the
    layer: the s column of site j while n <= L - (j - lo) and the u column
    while n <= j - lo.  The bounds that the sweep hands ``advance`` keep
    just those columns, on a jrange that runs out of room on both sides."""
    seq, _ = build_with_truth(GeneratorSpec("conjugated_dominated", (-20, 20), seed=1))
    bounds = []
    advance = cocycle._DirectionRuns.advance

    def spied(runs, n, room, *args):
        bounds.append((n, room))
        return advance(runs, n, room, *args)

    with mock.patch.object(cocycle._DirectionRuns, "advance", spied):
        product_sweep(seq, 40, (-19, 19), 1e-300)  # no run stops at tol 1e-300
    sites = np.arange(-19, 20) - seq.lo
    depth = np.concatenate([len(seq) - sites, sites])
    half = len(sites)
    assert [n for n, _ in bounds] == list(range(1, len(bounds) + 1)) and len(bounds) >= 20
    for n, (s_end, u_start) in bounds:
        kept = np.ones(2 * half, dtype=bool)
        kept[s_end:half + u_start] = False
        assert np.array_equal(kept, depth >= n), n


def test_restart_matches_an_all_degenerate_layer():
    """``advance`` without directions leaves the state that an advance with
    every column flagged degenerate leaves, whatever its points."""
    rng = np.random.default_rng(31)
    width, depth = 16, 30
    skipped, fed = (cocycle._DirectionRuns(np.empty((depth, width))) for _ in range(2))
    half = width // 2
    s_end, u_start = half, 0
    near = np.array([[1.0], [0.0]], dtype=complex)
    for n in range(1, depth + 1):
        # the row bounds: s_end falls and u_start rises at random layers
        if n > 3 and rng.random() < 0.2:
            s_end = max(s_end - int(rng.integers(1, 3)), 0)
        if n > 3 and rng.random() < 0.2:
            u_start = min(u_start + int(rng.integers(1, 3)), half)
        room = (s_end, u_start)
        vanished = rng.random(width) < 0.05 if n % 4 == 0 else None
        pts = near + 1e-3 * (rng.standard_normal((2, width)) + 1j * rng.standard_normal((2, width)))
        pts /= np.sqrt((np.abs(pts) ** 2).sum(axis=0))
        if rng.random() < 0.4:
            skipped.advance(n, room, vanished, None, None, 1e-2)
            fed.advance(n, room, vanished, np.ones(width, dtype=bool), pts, 1e-2)
        else:
            degenerate = rng.random(width) < 0.1 if n % 3 == 0 else None
            for runs in (skipped, fed):
                runs.advance(n, room, vanished, degenerate, pts, 1e-2)
        for name in ("run", "done", "n_star", "prev_ok", "prev", "cand", "steps"):
            assert np.array_equal(getattr(skipped, name), getattr(fed, name), equal_nan=True), (n, name)
    assert (skipped.n_star >= 0).any() and (skipped.run > 0).any()
