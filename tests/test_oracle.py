"""Both product engines against 50-digit products of the same double entries.

The error bound is fixed per product step, not fitted to the results:

- log sigma1(B_n): each step may cost K ulps of the accumulated log,
  bound1(n) = K eps sum_{k<=n} max(1, |log sigma1(B_k)|).  The sum covers
  the rounding of the running log scale as it grows; K covers the product,
  the Gram quadratic, the square root and the logarithm of one step,
  including the norm loss of a factor meeting a product at an angle (down to
  1.2 mu^(-1/4) = 0.12 on ap_family at mu = 1e4).
- log sigma2(B_n) = sum log|det B| - log sigma1(B_n) adds, per factor, the
  rounding of its determinant in double, delta = 4 eps (|a||d| + |b||c|) /
  |det|, which moves the log by at most 2 delta while delta <= 1/2, and K
  ulps of the running log-determinant sum.  A product containing a factor
  with delta > 1/4 (the rank-one insertion of random_singular, whose double
  determinant is pure cancellation) has no engine-independent sigma2, and
  only its sigma1 is compared.
"""

import mpmath
import pytest

from domsplit import GeneratorSpec, build_with_truth, forward_scan, product_sweep

EPS = 2.0**-52
K = 64
DEPTH = 200

CASES = {
    "example1": (GeneratorSpec("example1", (-110, 110)), (-110, -60, -15, 0)),
    "ap_family": (GeneratorSpec("ap_family", (-100, 110), {"mu": 1e4}, 0), (-100, -50, 0)),
    "random_singular": (
        GeneratorSpec("random_singular", (-100, 110), {"insertions": [0]}, 2), (-100, -30, 1)),
}


def oracle(seq, j, depth):
    """[(log sigma1, log sigma2, bound1, bound2 or None)] of B_n(j), n = 1 .. depth."""
    with mpmath.workdps(50):
        a, b, c, d = mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)
        log_det = mpmath.mpf(0)
        sum1 = sum_det = det_err = 0.0
        det_ok = True
        rows = []
        for n in range(1, depth + 1):
            m = seq[j + n - 1]
            fa, fb, fc, fd = (mpmath.mpc(z) for z in (m.a, m.b, m.c, m.d))
            a, b, c, d = fa * a + fb * c, fa * b + fb * d, fc * a + fd * c, fc * b + fd * d
            fdet = abs(fa * fd - fb * fc)
            delta = 4 * EPS * float((abs(fa) * abs(fd) + abs(fb) * abs(fc)) / fdet)
            det_ok = det_ok and delta <= 0.25
            det_err += 2 * delta
            log_det += mpmath.log(fdet)
            p = abs(a) ** 2 + abs(c) ** 2
            r = abs(b) ** 2 + abs(d) ** 2
            q = mpmath.conj(a) * b + mpmath.conj(c) * d
            ls1 = mpmath.log((p + r + mpmath.sqrt((p - r) ** 2 + 4 * abs(q) ** 2)) / 2) / 2
            ls1, ls2 = float(ls1), float(log_det - ls1)
            sum1 += max(1.0, abs(ls1))
            sum_det += max(1.0, abs(float(log_det)))
            bound1 = K * EPS * sum1
            rows.append((ls1, ls2, bound1, bound1 + det_err + K * EPS * sum_det if det_ok else None))
        return rows


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    spec, starts = CASES[request.param]
    seq, _ = build_with_truth(spec)
    sweep = product_sweep(seq, DEPTH - 1)  # layers to n_max + 1 = DEPTH
    refs = {j: oracle(seq, j, min(DEPTH, seq.hi - j + 1)) for j in starts}
    return seq, sweep, refs


def check(engine, refs):
    """engine(j, n) -> (log sigma1, log sigma2); returns how many sigma2 were compared."""
    compared2 = 0
    for j, rows in refs.items():
        for n, (ls1, ls2, bound1, bound2) in enumerate(rows, start=1):
            got1, got2 = engine(j, n)
            assert abs(got1 - ls1) <= bound1, (j, n, got1, ls1, bound1)
            if bound2 is not None:
                assert abs(got2 - ls2) <= bound2, (j, n, got2, ls2, bound2)
                compared2 += 1
    return compared2


def test_scalar_engine(case):
    seq, _, refs = case
    scans = {j: list(forward_scan(seq, j, len(rows))) for j, rows in refs.items()}
    compared2 = check(lambda j, n: (scans[j][n].log_sigma1, scans[j][n].log_sigma2), refs)
    assert compared2 >= 0.25 * sum(len(rows) for rows in refs.values())


def test_batched_engine(case):
    seq, sweep, refs = case
    compared2 = check(
        lambda j, n: (float(sweep.log_s1_grid[n, j - seq.lo]),
                      float(sweep.log_s2_grid[n, j - seq.lo])),
        refs,
    )
    assert compared2 >= 0.25 * sum(len(rows) for rows in refs.values())


def test_depth_reached(case):
    _, _, refs = case
    assert max(len(rows) for rows in refs.values()) == DEPTH
