"""Microseconds per call of the product-engine kernels, measured untraced.

Operands come from the dom-long sequence family: the first KERNEL_SITES
factors of a dom-long window and their depth-KERNEL_DEPTH products, so the
kernels see the same magnitudes and conditioning as in the certificate.
"""

from __future__ import annotations

import statistics
import time

from domsplit import cocycle, matrix2c
from domsplit.generators import GeneratorSpec, build_with_truth

from workloads import DOM_LONG_SEQUENCES, DOM_LONG_WINDOW

KERNEL_SITES = 256
KERNEL_DEPTH = 40
KERNEL_REPEATS = 15


def _us_per_call(loop, n_calls: int) -> float:
    samples = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        loop()
        samples.append((time.perf_counter() - t0) / n_calls * 1e6)
    return statistics.median(samples)


def kernel_us(seed: int) -> dict[str, float]:
    """{kernel name: median microseconds per call}."""
    lo = DOM_LONG_WINDOW[0]
    spec = GeneratorSpec(
        "conjugated_dominated", (lo, lo + KERNEL_SITES + KERNEL_DEPTH),
        {"rate_mode": "constant"}, seed * DOM_LONG_SEQUENCES,
    )
    seq, _ = build_with_truth(spec)
    js = range(lo, lo + KERNEL_SITES)
    factors = [seq[j] for j in js]
    prods = [cocycle.window_product(seq, j, KERNEL_DEPTH) for j in js]
    mats = factors + [p.core for p in prods]
    pairs = [(seq[j + 1], seq[j]) for j in js] + [(seq[j + KERNEL_DEPTH], p.core) for j, p in zip(js, prods)]
    steps = [(p, seq[j + KERNEL_DEPTH]) for j, p in zip(js, prods)]

    singular_values, svd2, mul = matrix2c.singular_values, matrix2c.svd2, matrix2c.mul

    def loop_sv():
        for m in mats:
            singular_values(m)

    def loop_svd():
        for m in mats:
            svd2(m)

    def loop_mul():
        for x, y in pairs:
            mul(x, y)

    def loop_left():
        for p, f in steps:
            p.left_multiply(f)

    return {
        "matrix2c.singular_values.us_per_call": _us_per_call(loop_sv, len(mats)),
        "matrix2c.svd2.us_per_call": _us_per_call(loop_svd, len(mats)),
        "matrix2c.mul.us_per_call": _us_per_call(loop_mul, len(pairs)),
        "cocycle.left_multiply.us_per_call": _us_per_call(loop_left, len(steps)),
    }
