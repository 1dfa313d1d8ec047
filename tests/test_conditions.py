import copy
import json
import math
import re

import numpy as np
import pytest

from domsplit import (
    GeneratorSpec,
    InvalidSpec,
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

from conftest import column_rows

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

    def test_names_lowest_offending_site(self):
        seq = family("diagonal", (-10, 10), params={"lplus": 2.0, "lminus": 0.5})
        entries = {j: seq[j] for j in seq.indices()}
        entries[6] = Mat2C(2.0, 0, 0, 1.0)
        entries[-3] = Mat2C(1.0, 0, 0, 1.0 + 2e-10j)  # |det - 1| = 2e-10
        entries[-4] = Mat2C(1.0, 0, 0, 1.0 + 5e-11j)  # within 1e-10
        with pytest.raises(NotUnimodular, match=r"^det\(B\(-3\)\) differs from 1 beyond 1e-10$"):
            ueg_check(MatrixSequence(entries, 3.0), 10)


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


class TestThresholdsRange:
    """A threshold that would invent or skip evidence is rejected when the
    Thresholds are made, not read later as a verdict."""

    CASES = [
        ("n_max", 0, "n_max must be at least 1, got 0"),
        ("mu_min", math.nan, "mu_min must be finite, got nan"),
        ("mu_min", 0.0, "mu_min must be positive, got 0.0"),
        ("epsilon", math.nan, "epsilon must be finite, got nan"),
        ("fi_log_c_max", math.nan, "fi_log_c_max must be finite, got nan"),
        ("sep_min", math.inf, "sep_min must be finite, got inf"),
        ("sep_min", 2.0, "sep_min must be below 2, the largest chordal distance, got 2.0"),
        ("n_cap", 0, "n_cap must be at least 1, got 0"),
        ("gap_lambda", -1.0, "gap_lambda must exceed 1, got -1.0"),
        ("gap_lambda", 1.0, "gap_lambda must exceed 1, got 1.0"),
        ("split_tol", math.inf, "split_tol must be finite, got inf"),
        ("split_tol", math.nextafter(2.0, 3.0),
         "split_tol must be at most 2, the largest chordal distance, got 2.0000000000000004"),
        ("ueg_lambda_min", 0.0, "ueg_lambda_min must be positive, got 0.0"),
        ("fit_n_lo", -1, "fit_n_lo must be at least 0, got -1"),
    ]

    @pytest.mark.parametrize("name, value, message", CASES,
                             ids=[f"{c[0]}={c[1]}" for c in CASES])
    def test_rejects(self, name, value, message):
        with pytest.raises(InvalidSpec) as info:
            Thresholds(**{name: value})
        assert str(info.value) == message

    def test_edges_of_the_chordal_range_are_kept(self):
        t = Thresholds(sep_min=math.nextafter(2.0, 0.0), split_tol=2.0)
        assert (t.sep_min, t.split_tol) == (math.nextafter(2.0, 0.0), 2.0)

    def test_every_field_has_a_case(self):
        assert {c[0] for c in self.CASES} == set(Thresholds().to_json_dict())


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


class TestMetamorphic:
    """Relations that hold exactly in exact arithmetic.  Moving every index
    by t only relabels the sites, and the sweep reads B(j) by its offset
    from the window's start, so the report is the same bits apart from its j
    labels.  Conjugating every B(j) by the swap S = [[0, 1], [1, 0]] or by
    D = diag(1, i) keeps every singular value and chordal distance (both are
    unitary, and their entries 0, 1 and i make the conjugation exact), so
    the decisions are the same and the fits agree to rounding."""

    FAMILIES = [
        ("example1", {}),
        ("conjugated_dominated", {}),
        ("random_singular", {"insertions": [0]}),
    ]
    U = 2.0 ** -53
    # Measured: at most 3.25 u for the swap and 64 u for diag(1, i) (svg
    # log_c on conjugated_dominated, 7e-15); 1.3e-14, about 58 u, was the
    # largest seen on earlier trees.  The log sigma layers themselves differ
    # by up to 1.4e-14 under diag(1, i): numpy's complex product can round
    # x y and y x differently in the last bit.
    SWAP_C = 128

    @staticmethod
    def tabled(report) -> dict:
        """The report's JSON with each fit's table rows, as ``dom --table``
        writes them."""
        doc = report.to_json_dict()
        for fit in ("svg", "fi"):
            doc[fit]["table"] = column_rows(getattr(report, fit).table_columns())
        return doc

    @staticmethod
    def unlabelled(doc: dict, t: int) -> dict:
        """doc with every j label moved back by t."""
        doc = copy.deepcopy(doc)
        for fit in ("svg", "fi"):
            doc[fit]["table"] = [[j - t, n, v] for j, n, v in doc[fit]["table"]]
        for rec in doc["fields"]:
            rec["j"] -= t
        doc["failed_js"] = [j - t for j in doc["failed_js"]]
        if doc["argmin_separation"] is not None:
            doc["argmin_separation"] -= t
        doc["witnesses"] = [re.sub(r"j = (-?\d+)", lambda m: f"j = {int(m[1]) - t}", w)
                            for w in doc["witnesses"]]
        doc["window"] = [j - t for j in doc["window"]]
        doc["jrange"] = [j - t for j in doc["jrange"]]
        return doc

    @pytest.mark.parametrize("name, params", FAMILIES)
    @pytest.mark.parametrize("t", [7, -1000, 10**6])
    def test_index_shift_is_bit_identical(self, name, params, t):
        seq = family(name, (-45, 45), params, seed=1)
        want = self.tabled(check_domination(seq, jrange=(-3, 3)))
        moved = MatrixSequence({j + t: seq[j] for j in seq.indices()}, seq.bound_M)
        got = self.tabled(check_domination(moved, jrange=(-3 + t, 3 + t)))
        assert got["window"] == [-45 + t, 45 + t] and len(got["fields"]) == 7
        assert (json.dumps(self.unlabelled(got, t), sort_keys=True)
                == json.dumps(want, sort_keys=True))

    @staticmethod
    def swap(m: Mat2C) -> Mat2C:
        """S m S for the swap S = [[0, 1], [1, 0]]."""
        return Mat2C(m.d, m.c, m.b, m.a)

    @staticmethod
    def phase(m: Mat2C) -> Mat2C:
        """D m D^-1 for D = diag(1, i): b times -i and c times i, both exact."""
        return Mat2C(m.a, -1j * m.b, 1j * m.c, m.d)

    def assert_same_decisions(self, name, params, conjugate):
        seq = family(name, (-45, 45), params, seed=1)
        moved = MatrixSequence({j: conjugate(seq[j]) for j in seq.indices()}, seq.bound_M)
        ref = check_domination(seq, jrange=(-3, 3))
        rep = check_domination(moved, jrange=(-3, 3))
        assert (rep.verdict, rep.n_dom, rep.failed_js) == (ref.verdict, ref.n_dom, ref.failed_js)
        for got, want in ((rep.svg, ref.svg), (rep.fi, ref.fi)):
            for g, w in ((got.rate, want.rate), (got.log_c, want.log_c)):
                assert abs(g - w) <= self.SWAP_C * self.U * max(1.0, abs(w)), (g, w)

    @pytest.mark.parametrize("name, params", FAMILIES)
    def test_swap_conjugation(self, name, params):
        self.assert_same_decisions(name, params, self.swap)

    @pytest.mark.parametrize("name, params", FAMILIES)
    def test_phase_conjugation(self, name, params):
        self.assert_same_decisions(name, params, self.phase)

    # Measured: fits within 1.3e-13 (svg log_c on example1), inner products
    # of the fields within 1.4e-15 and separations within 1.2e-15.
    # Misaligned random_singular is left out: past its rank-one insertion the
    # decisions read rounding residue (ROADMAP item 3), and under the
    # reversal n_dom moves 46 -> 4 and svg log_c by 0.38.
    @pytest.mark.parametrize("name, params", FAMILIES + [("unitary", {}), ("ap_family", {})])
    def test_adjoint_reversal(self, name, params):
        """C(j) = B(-j)* has C_n(j) = B_n(1 - j - n)*, so every singular value
        is kept and site j of C is site 1 - j of B with the sides exchanged:
        E^s_C(j) is the orthogonal complement of E^u_B(1 - j), and E^u_C(j)
        that of E^s_B(1 - j).  The products are formed in the other order, so
        they round differently: the fits agree within 1e-12."""
        seq = family(name, (-45, 45), params, seed=1)
        rev = MatrixSequence({j: self.adjoint(seq[-j]) for j in seq.indices()}, seq.bound_M)
        ref = check_domination(seq, jrange=(-2, 4))
        rep = check_domination(rev, jrange=(-3, 3))
        assert (rep.verdict, rep.n_dom) == (ref.verdict, ref.n_dom)
        assert rep.failed_js == sorted(1 - j for j in ref.failed_js)
        if ref.min_separation is None:  # no site converged (unitary)
            assert rep.min_separation is None
        else:
            assert abs(rep.min_separation - ref.min_separation) <= 1e-14
        for j in rep.es:
            for got, want in ((rep.es[j], ref.eu[1 - j]), (rep.eu[j], ref.es[1 - j])):
                (x0, x1), (y0, y1) = got.vector(), want.vector()
                assert abs(x0.conjugate() * y0 + x1.conjugate() * y1) <= 1e-13, j
        for got, want in ((rep.svg, ref.svg), (rep.fi, ref.fi)):
            assert abs(got.rate - want.rate) <= 1e-12 and abs(got.log_c - want.log_c) <= 1e-12

    @staticmethod
    def adjoint(m: Mat2C) -> Mat2C:
        """The conjugate transpose m*."""
        return Mat2C(m.a.conjugate(), m.c.conjugate(), m.b.conjugate(), m.d.conjugate())


class TestFitLine:
    def test_matches_polyfit(self):
        from domsplit.conditions import _fit_line

        ns = np.array([2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
        ys = np.array([0.3, -1.1, -2.9, -3.2, -6.0, math.inf])
        slope, intercept, resid = _fit_line(ns, ys)
        want = np.polyfit(ns[:-1], ys[:-1], 1)
        assert abs(slope - want[0]) <= 1e-12 and abs(intercept - want[1]) <= 1e-12
        assert abs(resid - np.abs(ys[:-1] - np.polyval(want, ns[:-1])).max()) <= 1e-12

    def test_fallbacks(self):
        from domsplit.conditions import _fit_line

        ns = np.array([2.0, 3.0])
        assert _fit_line(ns[:0], ns[:0]) == (-math.inf, -math.inf, 0.0)
        assert _fit_line(ns, np.array([-math.inf, -math.inf])) == (-math.inf, -math.inf, 0.0)
        assert _fit_line(ns, np.array([math.inf, -1.5])) == (0.0, -1.5, 0.0)


class TestProfileDepth:
    SEQ = family("diagonal", (0, 60), params={"lplus": 2.0, "lminus": 0.5})

    @pytest.mark.parametrize("profile", [svg_profile, fi_profile, ueg_check])
    def test_second_depth_refused(self, profile):
        with pytest.raises(InvalidSpec, match=r"^n_max=20 differs from thresholds.n_max=5$"):
            profile(self.SEQ, 20, Thresholds(n_max=5))

    @pytest.mark.parametrize("profile", [svg_profile, fi_profile, ueg_check])
    def test_same_or_default_depth_runs(self, profile):
        """The depth given twice alike, or with default thresholds, runs; an
        explicit n_max = 40 looks like the default, and runs too."""
        fits = [profile(self.SEQ, 20, t) for t in (Thresholds(n_max=20), Thresholds(),
                                                   Thresholds(n_max=40))]
        assert fits[0] == fits[1] == fits[2] and fits[0].n_hi == 20
