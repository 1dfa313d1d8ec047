import math

import numpy as np
import pytest

from domsplit import (
    GeneratorSpec,
    Mat2C,
    MatrixSequence,
    NotUnimodular,
    Thresholds,
    WindowExceeded,
    build_with_truth,
    check_domination,
    dist,
    fi_profile,
    norm_floor,
    svg_profile,
    ueg_check,
)

LN2 = math.log(2.0)


def family(name, window, params=None, seed=0):
    seq, _ = build_with_truth(GeneratorSpec(name, window, params=params or {}, seed=seed))
    return seq


class TestSvgProfile:
    def test_constant_diag_exact_ratios(self):
        seq = family("diagonal", (-25, 25))
        fit = svg_profile(seq, 20)
        # sigma2(B_n) = 1, sigma1(B_{n+1}) = 2^{n+1}: r_n = 2^{-(n+1)}
        for n, v in fit.sup_log.items():
            assert abs(v - (-(n + 1) * LN2)) <= 1e-9
        assert abs(fit.mu - 2.0) <= 1e-9
        assert fit.passed

    def test_rotation_fails(self):
        seq = family("unitary", (-25, 25), params={"angle": 0.9})
        fit = svg_profile(seq, 20)
        assert abs(fit.mu - 1.0) <= 1e-9
        assert not fit.passed

    def test_example1_bound(self):
        seq = family("example1", (-20, 20))
        fit = svg_profile(seq, 20)
        assert fit.passed and fit.mu >= 4.0 * 0.9
        for n, v in fit.sup_log.items():
            assert v < -2 * n * LN2 + 1e-12

    def test_rank_one_vacuous_pass(self):
        entries = {j: Mat2C(1.0, 0.0, 0.0, 0.0) for j in range(0, 12)}
        seq = MatrixSequence(entries, 2.0)
        fit = svg_profile(seq, 8)
        assert fit.passed  # sigma2 of every product is exactly 0

    def test_window_precondition(self):
        seq = family("diagonal", (0, 10))
        with pytest.raises(WindowExceeded):
            svg_profile(seq, 40)


class TestFiProfile:
    def test_constant_diag(self):
        seq = family("diagonal", (-25, 25))
        fit = fi_profile(seq, 20)
        for n, v in fit.sup_log.items():
            assert abs(v - (-LN2)) <= 1e-9
        assert fit.passed

    def test_example1_fails_on_wide_window(self):
        seq = family("example1", (-20, 20))
        fit = fi_profile(seq, 20)
        assert not fit.passed
        assert fit.log_c > Thresholds().fi_log_c_max

    def test_example1_edge_ratio_grows_with_window(self):
        # the sup at fixed n grows geometrically with the window radius
        sups = []
        for J in (5, 10, 15):
            seq = family("example1", (-J, J))
            fit = fi_profile(seq, min(2 * J - 1, 8))
            sups.append(fit.sup_log[5] if 5 in fit.sup_log else fit.sup_log[max(fit.sup_log)])
        assert sups[0] < sups[1] < sups[2]

    def test_determinant_floor_passes(self):
        # det = 1 keeps ratios bounded by ||B||/|det| ~ M
        seq = family("schrodinger", (-30, 30), params={"energy": 3.0})
        fit = fi_profile(seq, 20)
        assert fit.passed


class TestNormFloor:
    def test_example1_single_step(self):
        seq = family("example1", (-20, 20))
        floor = norm_floor(seq, 10)
        assert floor[1] >= math.log(3.0) - 1e-12

    def test_constant_unitary_all_one(self):
        seq = family("unitary", (-10, 10), params={"angle": 0.4})
        floor = norm_floor(seq, 8)
        for v in floor.values():
            assert abs(v) <= 1e-12

    def test_decaying_diagonal(self):
        seq = family("diagonal", (0, 30), params={"lplus": 0.5, "lminus": 0.25})
        floor = norm_floor(seq, 10)
        for n, v in floor.items():
            assert abs(v - n * math.log(0.5)) <= 1e-9

    def test_exponential_gap_rate(self):
        # dominated generators: sigma1(B_n(j)) / sigma2(B_n(j)) grows at
        # least like the construction gap
        from domsplit import window_product

        spec = GeneratorSpec(
            "conjugated_dominated", (-20, 20), params={"rate_mode": "constant"}, seed=9
        )
        seq, truth = build_with_truth(spec)
        pts = []
        for n in range(2, 20):
            p = window_product(seq, 0, n)
            pts.append((n, p.log_sigma1 - p.log_sigma2))
        xbar = sum(n for n, _ in pts) / len(pts)
        ybar = sum(y for _, y in pts) / len(pts)
        slope = sum((n - xbar) * (y - ybar) for n, y in pts) / sum(
            (n - xbar) ** 2 for n, _ in pts
        )
        assert slope >= math.log(truth.lam) - 0.1

    def test_svg_constant_dominates_floor(self):
        # enveloping C for the fitted mu bounds 1/inf||B(j)|| at n = 0
        seq = family("conjugated_dominated", (-20, 20), seed=5)
        fit = svg_profile(seq, 15)
        log_c_env = max(v + n * (-fit.rate) for n, v in fit.sup_log.items()
                        if math.isfinite(v))
        floor = norm_floor(seq, 15)
        # sigma1(B(j)) > (1/C_env) * (1 - 1e-10)
        assert floor[1] >= -log_c_env + math.log1p(-1e-10)


class TestUeg:
    def test_diag_exact_rate(self):
        seq = family("diagonal", (0, 60), params={"lplus": 2.0, "lminus": 0.5})
        fit = ueg_check(seq, 40)
        assert abs(fit.rate - LN2) <= 1e-9
        assert fit.passed

    def test_rotation_fails(self):
        seq = family("unitary", (0, 60), params={"angle": 0.7})
        fit = ueg_check(seq, 40)
        assert abs(fit.rate) <= 1e-9
        assert not fit.passed

    def test_parabolic_fails(self):
        seq = family("schrodinger", (0, 60), params={"energy": 2.0})
        fit = ueg_check(seq, 40)
        assert not fit.passed

    def test_not_unimodular(self):
        seq = family("diagonal", (0, 30))
        with pytest.raises(NotUnimodular):
            ueg_check(seq, 10)


class TestCheckDomination:
    def test_constant_diag(self):
        rep = check_domination(family("diagonal", (-25, 25)))
        assert rep.verdict == "dominated"
        assert rep.n_dom == 1
        assert abs(rep.lambda_dom - 2.0) <= 1e-9
        assert abs(rep.min_separation - 2.0) <= 1e-12
        assert rep.invariance_max_residual == 0.0

    def test_example1_separation_collapse(self):
        seq = family("example1", (-40, 40))
        rep = check_domination(seq, jrange=(-20, 20))
        assert rep.verdict == "not_dominated"
        assert rep.svg.passed and not rep.fi.passed
        assert any("condition (c)" in w for w in rep.witnesses)
        want = 2 * 2.0**-20 / math.sqrt(1 + 4.0**-20)
        assert abs(rep.min_separation - want) <= 1e-8

    def test_fixed_conjugation_of_diag4(self):
        seq, truth = build_with_truth(
            GeneratorSpec(
                "conjugated_dominated", (-25, 25),
                params={"theta": 0.3, "lplus_range": (4.0, 4.0), "lminus_range": (1.0, 1.0)},
            )
        )
        rep = check_domination(seq, jrange=(-8, 8))
        assert rep.verdict == "dominated"
        for j in range(-8, 9):
            assert dist(rep.es[j], truth.es[j]) <= 1e-6
            assert dist(rep.eu[j], truth.eu[j]) <= 1e-6
        # fields of a rotation conjugator are the rotated axes
        assert abs(rep.eu[0].affine - math.tan(0.3)) <= 1e-6

    def test_unitary_inconclusive(self):
        rep = check_domination(family("unitary", (-20, 20), seed=3))
        assert rep.verdict == "inconclusive"
        assert not rep.svg.passed
        assert not rep.witnesses

    def test_one_sided_window_note(self):
        seq = family("example1", (0, 20))
        rep = check_domination(seq)
        assert any("one-sided" in n for n in rep.notes)

    def test_json_dict_shape(self):
        rep = check_domination(family("diagonal", (-15, 15)))
        doc = rep.to_json_dict()
        assert doc["verdict"] == "dominated"
        assert doc["thresholds"]["mu_min"] == 1.05
        assert isinstance(doc["fields"], list) and doc["fields"]


class TestEmptyFits:
    """A fit over no n at all is no evidence; a fit over n whose ratios are
    all exactly zero (rank one) is, and passes."""

    def test_svg_and_fi(self):
        seq = family("diagonal", (-25, 25))
        assert not svg_profile(seq, 1).passed
        assert not fi_profile(seq, 1).passed
        assert svg_profile(seq, 3).passed and fi_profile(seq, 3).passed

    def test_ueg(self):
        seq = family("diagonal", (0, 30), params={"lplus": 2.0, "lminus": 0.5})
        assert not ueg_check(seq, 1, Thresholds(fit_n_lo=2)).passed
        assert ueg_check(seq, 3, Thresholds(fit_n_lo=2)).passed

    def test_rank_one_ratios_still_pass(self):
        entries = {j: Mat2C(1.0, 0.0, 0.0, 0.0) for j in range(0, 12)}
        fit = svg_profile(MatrixSequence(entries, 2.0), 8)
        assert all(v == -math.inf for n, v in fit.sup_log.items() if n >= fit.n_lo)
        assert fit.passed


def _scaled(seq, c):
    return MatrixSequence({j: seq[j].scale(c) for j in seq.indices()}, seq.bound_M * c)


class TestExtremeScale:
    """A x1e-285 or x1e285 copy of a dominated chain.  Each factor's log|det|
    is taken after a 2^k prescale, so log sigma2 of a product moves by
    n log c, as log sigma1 does, instead of reading -inf (det underflows)
    or inf - inf (det overflows)."""

    @pytest.mark.parametrize("c", [1e-285, 1e285])
    def test_svg_ratios_move_by_log_c(self, c):
        seq = family("conjugated_dominated", (-45, 45), seed=2)
        ref, fit = svg_profile(seq, 12), svg_profile(_scaled(seq, c), 12)
        assert list(fit.sup_log) == list(ref.sup_log)
        for n, v in ref.sup_log.items():
            assert abs(fit.sup_log[n] - (v - math.log(c))) <= 1e-9, n
        assert fit.passed == ref.passed

    @pytest.mark.parametrize("c", [1e-285, 1e285])
    def test_certificate_unchanged(self, c):
        seq = family("conjugated_dominated", (-45, 45), seed=2)
        ref = check_domination(seq, jrange=(-6, 6))
        rep = check_domination(_scaled(seq, c), jrange=(-6, 6))
        assert ref.verdict == "dominated"
        assert (rep.verdict, rep.n_dom, rep.failed_js) == (ref.verdict, ref.n_dom, ref.failed_js)

    @pytest.mark.parametrize("c", [1e-285, 1e285])
    def test_window_product_log_sigma2(self, c):
        from domsplit import window_product

        seq = family("conjugated_dominated", (-45, 45), seed=2)
        tiny = _scaled(seq, c)
        for n in (1, 10, 40):
            want = window_product(seq, -10, n).log_sigma2 + n * math.log(c)
            assert abs(window_product(tiny, -10, n).log_sigma2 - want) <= 1e-9 * n


class TestFitLine:
    def test_matches_polyfit(self):
        from domsplit.conditions import _fit_line

        pts = [(2, 0.3), (3, -1.1), (4, -2.9), (5, -3.2), (7, -6.0), (8, math.inf)]
        slope, intercept, resid = _fit_line(pts)
        xs, ys = zip(*pts[:-1])
        want = np.polyfit(xs, ys, 1)
        assert abs(slope - want[0]) <= 1e-12 and abs(intercept - want[1]) <= 1e-12
        assert abs(resid - max(abs(y - np.polyval(want, x)) for x, y in pts[:-1])) <= 1e-12

    def test_fallbacks(self):
        from domsplit.conditions import _fit_line

        assert _fit_line([]) == (-math.inf, -math.inf, 0.0)
        assert _fit_line([(2, -math.inf), (3, -math.inf)]) == (-math.inf, -math.inf, 0.0)
        assert _fit_line([(2, math.inf), (3, -1.5)]) == (0.0, -1.5, 0.0)
