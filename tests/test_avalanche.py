import dataclasses
import math
import warnings

import numpy as np
import pytest

from domsplit import (
    Degenerate,
    GeneratorSpec,
    InvalidSpec,
    Mat2C,
    MatrixSequence,
    ProductVanished,
    ZeroMatrix,
    ap_conditions,
    ap_report,
    ap_residual,
    backward_scan,
    build_with_truth,
    check_domination,
    direction_drift,
    dist,
    dump_sequence,
    estimate_splitting,
    expanding_image,
    forward_scan,
    most_contracted,
    mul,
    norm_angle_gap,
    singular_values,
    svd2,
    telescoping_residual,
    unitary_overlap,
    window_product,
)

from domsplit.avalanche import ANGLE_ENVELOPE
from domsplit.cli import main

from conftest import _point_steps, column_rows, random_mat, rank_one_window, vanishing


def family(name, window, params=None, seed=0):
    seq, _ = build_with_truth(GeneratorSpec(name, window, params=params or {}, seed=seed))
    return seq


class TestApConditions:
    def test_strong_diagonal(self):
        seq = family("diagonal", (0, 20), params={"lplus": 50.0, "lminus": 1.0})
        a3, a4, ok = ap_conditions(seq, 10.0)
        assert abs(a3 - 1.0 / 50.0) <= 1e-12
        assert abs(a4 - 1.0) <= 1e-12
        assert ok

    def test_rotation_fails(self):
        seq = family("unitary", (0, 20), params={"angle": 0.3})
        a3, _, ok = ap_conditions(seq, 2.0)
        assert abs(a3 - 1.0) <= 1e-12
        assert not ok

    def test_alternating_pair_ratio(self):
        # diag(m,1) then antidiag: pair product [[0, m], [m, 0]] has norm m,
        # so the pairwise ratio is m*m/m = m
        m = 50.0
        entries = {}
        for j in range(0, 12):
            entries[j] = Mat2C(m, 0.0, 0.0, 1.0) if j % 2 == 0 else Mat2C(0.0, m, 1.0, 0.0)
        seq = MatrixSequence(entries, m + 1)
        _, a4, _ = ap_conditions(seq, 10.0)
        assert abs(a4 - m) <= 1e-9 * m


class TestTelescoping:
    def test_single_step_zero(self):
        seq = family("random_bounded", (0, 10), seed=1)
        assert telescoping_residual(seq, 0, 1) == 0.0

    def test_commuting_diagonal(self):
        seq = family("diagonal", (0, 30))
        assert telescoping_residual(seq, 0, 10) <= 1e-8 * 10

    def test_random_sequences(self):
        for seed in range(20):
            seq = family("random_bounded", (0, 30), seed=seed)
            assert telescoping_residual(seq, 0, 20) <= 2e-7
            assert telescoping_residual(seq, 5, 25) <= 1e-8 * 25

    def test_decaying_products(self):
        # strong decay exercises the log-scale bookkeeping
        seq = family("example1", (-15, 25))
        for j in (-10, 0, 5):
            assert telescoping_residual(seq, j, 20) <= 1e-8 * 20


class TestApResidual:
    def test_needs_three(self):
        seq = family("diagonal", (0, 10))
        with pytest.raises(ValueError):
            ap_residual(seq, 0, 2)

    def test_diagonal_cancels_exactly(self):
        seq = family("diagonal", (0, 30), params={"lplus": 7.0, "lminus": 1.0})
        for n in (3, 10, 20):
            assert ap_residual(seq, 0, n) <= 1e-10 * n

    def test_minimal_case_formula(self):
        seq = family("random_bounded", (0, 10), seed=9)
        lhs = window_product(seq, 0, 3).log_sigma1
        s_mid = math.log(singular_values(seq[1])[0])
        p01 = math.log(singular_values(mul(seq[1], seq[0]))[0])
        p12 = math.log(singular_values(mul(seq[2], seq[1]))[0])
        want = abs(lhs + s_mid - p01 - p12)
        assert abs(ap_residual(seq, 0, 3) - want) <= 1e-12

    def test_generated_family_envelope(self):
        mu = 1e4
        seq = family("ap_family", (0, 40), params={"mu": mu}, seed=3)
        bound = mu**-0.5
        for j in (0, 5, 10):
            for n in (5, 15, 30):
                assert ap_residual(seq, j, n) <= 5.0 * n * bound


class TestNormAngleGap:
    def test_equal_diagonals(self):
        m = Mat2C(9.0, 0.0, 0.0, 1.0)
        ratio, angle, disc = norm_angle_gap(m, m)
        # s(E2) = infinity, u(E1) = 0: half-distance 1, ratio m^2/m^2 = 1
        assert abs(ratio - 1.0) <= 1e-12
        assert abs(angle - 1.0) <= 1e-12
        assert disc <= 1e-12

    def test_exact_overlap_identity(self, rng):
        for _ in range(500):
            e1, e2 = random_mat(rng), random_mat(rng)
            sv1, sv2 = svd2(e1), svd2(e2)
            if sv1.degenerate or sv2.degenerate:
                continue
            c1 = unitary_overlap(e1, e2)
            d = dist(most_contracted(sv2), expanding_image(sv1))
            assert abs(c1 - 0.5 * d) <= 1e-12

    def test_envelope_for_strong_gaps(self, rng):
        # gap ratios <= 1e-4 force |ratio - angle| <= 8e-4
        checked = 0
        while checked < 200:
            a = random_mat(rng)
            b = random_mat(rng)
            sva, svb = svd2(a), svd2(b)
            if sva.degenerate or svb.degenerate:
                continue
            squash = Mat2C(1.0, 0.0, 0.0, 1e-4)
            e1 = mul(mul(sva.u_factor, squash), sva.v_factor)
            e2 = mul(mul(svb.u_factor, squash), svb.v_factor)
            ratio, angle, disc = norm_angle_gap(e1, e2)
            assert disc <= ANGLE_ENVELOPE * 1e-4
            checked += 1

    def test_separation_bootstrap(self, rng):
        # ratio >= mu^{-1/4} and gaps <= mu^{-1} force a positive angle
        mu = 1e4
        checked = 0
        while checked < 200:
            e1 = random_mat(rng)
            e2 = random_mat(rng)
            sv1, sv2 = svd2(e1), svd2(e2)
            if sv1.degenerate or sv2.degenerate:
                continue
            squash = Mat2C(1.0, 0.0, 0.0, 1e-5)
            e1 = mul(mul(sv1.u_factor, squash), sv1.v_factor)
            e2 = mul(mul(sv2.u_factor, squash), sv2.v_factor)
            ratio, angle, disc = norm_angle_gap(e1, e2)
            if ratio < mu**-0.25:
                continue
            assert angle >= ratio - ANGLE_ENVELOPE * 1e-5
            assert angle > 0.0
            checked += 1

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            norm_angle_gap(Mat2C(1.0, 0.0, 0.0, 1.0), Mat2C(2.0, 0.0, 0.0, 1.0))


class TestDirectionDrift:
    def test_constant_diag_zero(self):
        seq = family("diagonal", (-20, 20))
        tables = direction_drift(seq, 0, 15)
        assert all(d == 0.0 for d in tables.s_steps.values())
        assert all(d == 0.0 for d in tables.u_steps.values())

    def test_ap_family_rate(self):
        mu = 1e4
        seq = family("ap_family", (-20, 20), params={"mu": mu}, seed=1)
        tables = direction_drift(seq, 0, 12)
        assert tables.rate_s is not None and tables.rate_s <= -0.5 * math.log(mu) + 0.1
        assert tables.rate_u is not None and tables.rate_u <= -0.5 * math.log(mu) + 0.1

    def test_steps_match_the_estimator(self):
        # one generator of points and steps serves both: the estimator keys
        # the step to point n as n - 1, the drift tables as n
        seq = family("conjugated_dominated", (-30, 30), seed=4)
        for j in (-5, 0, 6):
            drift = direction_drift(seq, j, 40)
            _, _, cert = estimate_splitting(seq, j, 40, 1e-9)
            for ours, theirs in ((drift.s_steps, cert.s_steps), (drift.u_steps, cert.u_steps)):
                assert theirs and all(ours[n + 1] == d for n, d in theirs.items())

    @pytest.mark.parametrize("name, window, params, seed", [
        ("conjugated_dominated", (-30, 30), None, 4),
        ("ap_family", (-30, 30), {"mu": 1e3}, 2),
        ("ap_family", (-30, 30), {"mu": 1e4}, 0),
        ("example1", (-40, 40), None, 0),
    ])
    def test_steps_match_the_scalar_loop(self, name, window, params, seed):
        # at tol 0 neither side stops, so every step up to the site's room
        # is the scalar loop's step to point n, keyed n
        seq = family(name, window, params, seed)
        n_max = 40
        for j in (seq.lo, seq.lo + 1, -17, 0, 5, seq.hi - 1, seq.hi):
            drift = direction_drift(seq, j, n_max)
            scans = (forward_scan(seq, j, min(n_max, seq.hi - j + 1)),
                     backward_scan(seq, j, min(n_max, j - seq.lo)))
            for ours, scan, side in zip((drift.s_steps, drift.u_steps), scans, "su"):
                theirs = {n: d for n, _, d in _point_steps(scan, side) if d is not None}
                assert ours.keys() == theirs.keys(), (j, side)
                assert all(abs(ours[n] - d) <= 1e-12 for n, d in theirs.items()), (j, side)

    def test_vanished_product_raises(self):
        # B(1) B(0) = 0: a site whose own products take both factors within
        # n_max has a vanished product.  At j = 1 the s side starts at B(1)
        # and the u side ends at B(0), so no product of the site takes both.
        seq = vanishing(family("conjugated_dominated", (-30, 30), seed=4))
        for j, n_max in ((0, 2), (2, 2), (-5, 40), (6, 40)):
            with pytest.raises(ProductVanished):
                direction_drift(seq, j, n_max)
        for j, n_max in ((0, 1), (1, 40), (6, 5)):
            drift = direction_drift(seq, j, n_max)
            assert len(drift.u_steps) == min(n_max, j - seq.lo) - 1, j

    def test_depth_past_the_window_is_the_window_length(self):
        # no site has room past the window's length L, so any n_max from L
        # on gives the same tables, read from the grid of L + 2 depths
        seq = family("conjugated_dominated", (-30, 30), seed=4)
        vanished = vanishing(seq)  # B(1) B(0) = 0
        for s, j in ((seq, seq.lo), (seq, -5), (seq, 0), (seq, seq.hi), (vanished, 1)):
            assert direction_drift(s, j, 10 ** 6) == direction_drift(s, j, len(s))
        with pytest.raises(ProductVanished):
            direction_drift(vanished, 6, 10 ** 6)

    def test_example1_one_sided(self):
        seq = family("example1", (0, 40))
        tables = direction_drift(seq, 20, 15)
        # SVG holds at mu = 4 away from the FI failure
        assert tables.rate_s is not None and tables.rate_s <= -0.5 * math.log(4.0) + 0.1


class TestApReport:
    def test_report_passes_and_implies_domination(self):
        mu = 1e4
        seq = family("ap_family", (-15, 25), params={"mu": mu}, seed=7)
        rep = ap_report(seq, mu, 25)
        assert rep.conditions_pass and rep.passed
        assert rep.c_fit is not None and rep.c_fit <= rep.envelope
        dom = check_domination(seq, jrange=(0, 12))
        assert dom.verdict == "dominated"

    def test_rotation_fails_conditions(self):
        seq = family("unitary", (0, 20), params={"angle": 0.5})
        rep = ap_report(seq, 10.0, 10)
        assert not rep.conditions_pass and not rep.passed

    def test_outcome_reads_passed(self):
        """The report stores one decision: a copy with another ``passed``,
        as a caller may build it, carries it in ``outcome`` too."""
        seq = family("ap_family", (0, 40), {"mu": 1e4}, 0)
        ap = ap_report(seq, 1e4, 10)
        assert ap.c_fit is not None and (ap.passed, ap.outcome) == (True, "pass")
        assert dataclasses.replace(ap, passed=False).outcome == "fail"
        short = ap_report(family("ap_family", (0, 1), {"mu": 1e4}, 0), 1e4, 10)
        assert (short.passed, short.outcome) == (False, "inconclusive")

    def test_needs_nmax_three(self):
        seq = family("diagonal", (0, 20))
        with pytest.raises(InvalidSpec, match="^n_max must be at least 3, got 2$"):
            ap_report(seq, 10.0, 2)

    @pytest.mark.parametrize("envelope", [-1.0, math.nan, math.inf])
    def test_envelope_without_evidence_rejected(self, envelope):
        # a passed=False from such an envelope would be a failed audit on no evidence
        seq = family("ap_family", (0, 40), {"mu": 1e4}, 0)
        with pytest.raises(InvalidSpec, match="envelope must be finite and at least 0"):
            ap_report(seq, 1e4, 10, envelope=envelope)
        assert ap_report(seq, 1e4, 10, envelope=0.0).envelope == 0.0

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 900, 2.0 ** -900])
    def test_factors_read_from_the_screen(self, monkeypatch, scale):
        """The factors' singular values and 2^k come from the sequence's
        kept screen: one hypot pass and one set of singular values, over the
        pair products alone."""
        from domsplit import avalanche, cocycle

        seq = _scaled(family("ap_family", (-15, 25), {"mu": 1e3}, 3), scale)
        s1, s2, _, _ = cocycle._factor_values(seq.factors)
        with np.errstate(divide="ignore"):
            want = [np.log(s1), np.log(s2)]
        calls = []
        prescale, values = cocycle._prescale_rows, cocycle._factor_values
        monkeypatch.setattr(cocycle, "_prescale_rows",
                            lambda z: calls.append(("prescale", z.shape[1])) or prescale(z))
        monkeypatch.setattr(avalanche, "_factor_values",
                            lambda z: calls.append(("values", z.shape[1])) or values(z))
        got = avalanche._window_norms(seq)
        assert calls == [("values", len(seq) - 1), ("prescale", len(seq) - 1)]
        assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want]
        assert (seq.prescale_k is None) == (scale == 1.0)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 900, 2.0 ** -900])
    @pytest.mark.parametrize("name, params", [("ap_family", {"mu": 1e3}),
                                              ("random_singular", {"insertions": [0]})])
    def test_pair_norms_are_the_prescaled_gram_roots(self, monkeypatch, name, params, scale):
        """The pairs' sigma1 that ``_factor_values`` gives has the bits of
        the exact 2^k prescale, the Gram root, 0 on the zero rows and 2^-k
        back, taken directly, on in-band windows and their x 2^+-900 copies."""
        from domsplit import avalanche, cocycle

        def gram_roots(z):
            z, k, zero = cocycle._prescale_rows(z)
            s1 = cocycle._gram(z)[-1]
            s1[zero] = 0.0
            return (s1 if k is None else np.ldexp(s1, -k)), None, None, None

        seq = _scaled(family(name, (-15, 25), params, 3), scale)
        assert (seq.prescale_k is None) == (scale == 1.0)
        got = avalanche._window_norms(seq)
        monkeypatch.setattr(avalanche, "_factor_values", gram_roots)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in avalanche._window_norms(seq)]

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 900, 2.0 ** -900])
    def test_vanishing_pair_raises_zero_matrix(self, scale):
        from domsplit import avalanche

        seq = _scaled(vanishing(family("ap_family", (-15, 25), _AP, 3)), scale)
        with pytest.raises(ZeroMatrix, match="^singular values of the zero matrix$"):
            avalanche._window_norms(seq)

    @pytest.mark.parametrize("tiny, vanishes", [(1e-301, True), (1e-299, False)])
    def test_zero_matrix_up_to_the_entry_tolerance(self, tiny, vanishes):
        """B(1) B(0) = [[tiny, 0], [0, 0]] after the factors' prescale: it is
        the zero matrix when tiny is at most ENTRY_ZERO_TOL, and else a
        matrix whose sigma1 is tiny."""
        from domsplit import avalanche

        base = family("ap_family", (-15, 25), _AP, 3)
        entries = {j: base[j] for j in base.indices()}
        entries[0], entries[1] = Mat2C(1.0, 0.0, 0.0, 0.0), Mat2C(tiny, 0.0, 0.0, 1.0)
        seq = MatrixSequence(entries, base.bound_M)
        if vanishes:
            with pytest.raises(ZeroMatrix, match="^singular values of the zero matrix$"):
                avalanche._window_norms(seq)
        else:
            assert avalanche._window_norms(seq)[2][-seq.lo] == math.log(tiny)

    def test_window_norms_computed_once(self, monkeypatch):
        from domsplit import avalanche

        calls = []
        norms = avalanche._window_norms
        monkeypatch.setattr(avalanche, "_window_norms", lambda seq: calls.append(1) or norms(seq))
        seq = family("ap_family", (-15, 25), {"mu": 1e3}, 3)
        rep = ap_report(seq, 1e3, 20)
        assert len(calls) == 1
        assert (rep.ap3_worst, rep.ap4_worst, rep.conditions_pass) == ap_conditions(seq, 1e3)

    def test_mu_checked_before_any_norm(self):
        # B(1) B(0) of this window is a zero matrix (ZeroMatrix)
        seq = vanishing(family("ap_family", (-30, 30), _AP, 2))
        for check in (lambda: ap_conditions(seq, 1.0), lambda: ap_report(seq, 1.0, 10)):
            with pytest.raises(InvalidSpec, match="mu must exceed 1"):
                check()


    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, 1.0])
    def test_mu_must_be_finite_and_above_one(self, mu):
        seq = family("ap_family", (-15, 25), _AP, 3)
        for check in (lambda: ap_conditions(seq, mu), lambda: ap_report(seq, mu, 10)):
            with pytest.raises(InvalidSpec, match="mu must exceed 1"):
                check()


class TestApReportGrid:
    """The residual grid stays an array; the dict is built on first read."""

    def test_residuals_built_on_first_read(self):
        seq = family("ap_family", (-15, 25), _AP, 3)
        rep = ap_report(seq, 1e3, 12)
        assert "residuals" not in rep.__dict__
        rep.to_json_dict()
        column_rows(rep.residual_columns())
        assert "residuals" not in rep.__dict__
        assert rep.residuals is rep.residuals
        assert "residuals" in rep.__dict__

    @pytest.mark.parametrize("case", ["ap_family-1e3", "room-limited", "nmax-3", "rank-one"])
    def test_table_rows_are_the_sorted_dict(self, case):
        build, mu, n_max = EQUIVALENCE_CASES[case]
        rep = ap_report(build(), mu, n_max)
        want = [[j, n, r, n * mu**-0.5] for (j, n), r in sorted(rep.residuals.items())]
        got = column_rows(rep.residual_columns())
        assert got == want
        assert [list(map(type, row)) for row in got] == [[int, int, float, float]] * len(want)

    def test_grid_not_compared(self):
        seq = family("ap_family", (-15, 25), _AP, 3)
        rep = ap_report(seq, 1e3, 12)
        assert rep == ap_report(seq, 1e3, 12)
        assert "rows" not in repr(rep) and "residuals" not in repr(rep)

    def test_short_window_has_no_cells(self):
        seq = family("ap_family", (0, 1), _AP, 3)
        rep = ap_report(seq, 1e3, 10)
        assert rep.residuals == {} and rep.c_fit is None
        assert rep.conditions_pass and not rep.passed  # no residual is no evidence
        assert column_rows(rep.residual_columns()) == []


def _scaled(seq, factor):
    return MatrixSequence({j: seq[j].scale(factor) for j in seq.indices()},
                          seq.bound_M * factor)


def _scalar_conditions(seq, mu):
    """ap_conditions as a plain loop over singular_values and mul."""
    ap3 = max(s2 / s1 for s1, s2 in map(singular_values, (seq[j] for j in seq.indices())))
    ap4 = max(
        singular_values(seq[j + 1])[0] * singular_values(seq[j])[0]
        / singular_values(mul(seq[j + 1], seq[j]))[0]
        for j in range(seq.lo, seq.hi)
    )
    return ap3, ap4, ap3 <= 1.0 / mu and ap4 <= mu**0.25


_AP = {"mu": 1e3}
EQUIVALENCE_CASES = {
    "ap_family-1e2": (lambda: family("ap_family", (-30, 30), {"mu": 1e2}, 2), 1e2, 20),
    "ap_family-1e3": (lambda: family("ap_family", (-30, 30), {"mu": 1e3}, 2), 1e3, 20),
    "ap_family-1e4": (lambda: family("ap_family", (-30, 30), {"mu": 1e4}, 2), 1e4, 20),
    # the rank-one factor has sigma2 = 0 under the DET_REL_TOL cut
    "random_singular-aligned": (
        lambda: family("random_singular", (-30, 30), {"insertions": [0]}, 1), 1e2, 20),
    "example1": (lambda: family("example1", (-20, 20)), 4.0, 20),
    "rank-one": (lambda: rank_one_window(5), 1e2, 10),
    # entries below 1e-120 and above 1e120 take the power-of-two prescale
    "prescale-tiny": (lambda: _scaled(family("ap_family", (-30, 30), _AP, 2), 1e-130), 1e3, 20),
    "prescale-huge": (lambda: _scaled(family("ap_family", (-30, 30), _AP, 2), 1e150), 1e3, 20),
    "room-limited": (lambda: family("ap_family", (0, 12), {"mu": 1e4}, 2), 1e4, 30),
    "nmax-3": (lambda: family("ap_family", (-30, 30), _AP, 2), 1e3, 3),
}


class TestApReportEquivalence:
    """ap_report against the per-site scalar functions, case by case."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_scalar_reference(self, case):
        build, mu, n_max = EQUIVALENCE_CASES[case]
        seq = build()
        rep = ap_report(seq, mu, n_max)

        ref = {(j, n): ap_residual(seq, j, n) for j in range(seq.lo, seq.hi - 1)
               for n in range(3, min(n_max, seq.hi - j + 1) + 1)}
        assert list(rep.residuals) == list(ref)
        for key, r in rep.residuals.items():
            assert abs(r - ref[key]) <= 1e-12, key

        ap3, ap4, ok = _scalar_conditions(seq, mu)
        assert abs(rep.ap3_worst - ap3) <= 1e-12 * ap3
        assert abs(rep.ap4_worst - ap4) <= 1e-12 * ap4
        assert rep.conditions_pass == ok
        scale = mu**-0.5
        c_fit = max(r / (n * scale) for (_, n), r in ref.items())
        assert abs(rep.c_fit - c_fit) <= 1e-12 / (3 * scale)
        assert rep.passed == (ok and c_fit <= rep.envelope)

    def test_vanishing_pairs_under_the_zero_tolerance(self):
        # x1e-150 pushes every raw pair product below ENTRY_ZERO_TOL: the
        # scalar loop sees a zero matrix, and the audit, which prescales each
        # factor before the pair product, the unscaled window's margins
        base = family("ap_family", (-30, 30), _AP, 2)
        seq = _scaled(base, 1e-150)
        with pytest.raises(ZeroMatrix):
            _scalar_conditions(seq, 1e3)
        assert_same_audit(ap_report(seq, 1e3, 20), ap_report(base, 1e3, 20))


def assert_same_audit(got, want):
    """The report of a scaled window against the unscaled one's: margins
    within 1e-12 and the residual envelope within 1e-9, relative."""
    assert (got.passed, got.conditions_pass) == (want.passed, want.conditions_pass)
    assert abs(got.ap3_worst - want.ap3_worst) <= 1e-12 * want.ap3_worst
    assert abs(got.ap4_worst - want.ap4_worst) <= 1e-12 * want.ap4_worst
    assert abs(got.c_fit - want.c_fit) <= 1e-9 * want.c_fit


class TestExtremeScale:
    """Scaled far out of band, the pair products of the raw factors would
    over- or underflow; the audit prescales each factor first."""

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e285, 1e-285])
    def test_scaled_window_audits_as_unscaled(self, tmp_path, capsys, scale):
        base = family("ap_family", (-30, 30), _AP, 2)
        seq = _scaled(base, scale)
        assert seq.rescue_layers == len(seq)  # every factor out of band
        path = str(tmp_path / "s.json")
        dump_sequence(seq, path)
        argv = ["ap", "--input", path, "--mu", "1e3", "--nmax", "20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_same_audit(ap_report(seq, 1e3, 20), ap_report(base, 1e3, 20))
            code = main(argv)
        capsys.readouterr()
        dump_sequence(base, path)
        assert code == main(argv) == 0
