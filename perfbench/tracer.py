"""Call tracing for the benchmark's traced run.

The tracer wraps the public functions of each domsplit module from outside.
A wrapper goes on every module namespace that binds the function, because
``from .x import y`` copies the binding: patching only the defining module
would miss every call made through the copies.  Generator functions are
timed per ``next()``, so the time a consumer spends between steps is not
charged to the generator.

Kernels run hundreds of thousands of times per op, so every call is kept as
an aggregate per (name, parent): calls, inclusive seconds and self seconds
(inclusive minus the time covered by traced children).  Only the coarse
entry points in SPAN_NAMES are also kept as individual spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# Public functions traced per module.  Names are "<module>.<function>".
TRACED = {
    "matrix2c": (
        "mul", "det", "trace", "adjoint", "inverse", "singular_values",
        "inv_singular_values", "svd2", "rescale_pow2",
    ),
    "projective": (
        "project", "dist", "dist_from_vectors", "perp", "act", "contraction_factor",
        "most_contracted", "expanding_image", "kernel_line", "image_line",
    ),
    "cocycle": (
        "load_sequence", "dump_sequence", "window_product", "forward_scan",
        "backward_scan", "sn", "un", "estimate_splitting", "invariance_residual",
    ),
    "conditions": ("svg_profile", "fi_profile", "norm_floor", "ueg_check", "check_domination"),
    "avalanche": (
        "ap_conditions", "telescoping_residual", "ap_residual", "norm_angle_gap",
        "unitary_overlap", "direction_drift", "ap_report",
    ),
    "generators": ("build_with_truth", "example1", "example1_closed_product"),
    "cli": ("main",),
}
GENERATORS = {"cocycle.forward_scan", "cocycle.backward_scan"}
# ScaledProduct.left_multiply, the product step, is traced as "cocycle.left_multiply".

OP = "op"
SPAN_NAMES = {
    OP, "conditions.check_domination", "cocycle.estimate_splitting",
    "avalanche.ap_report", "avalanche.ap_conditions", "cli.main", "cocycle.load_sequence",
}


def _module_of(name: str | None) -> str | None:
    return None if name is None or "." not in name else name.split(".", 1)[0]


class Tracer:
    """Aggregated call records for the functions in TRACED, plus op spans.

    ``install`` patches the functions; ``uninstall`` restores them.  Only one
    tracer may be installed at a time.
    """

    def __init__(self):
        self.stack: list[list] = []  # open frames: [name, seconds covered by children]
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.errors: Counter = Counter()  # (name, exception class name) -> count
        self.spans: list[tuple] = []  # (op index, name, parent, start_s, end_s)
        self.ops = 0
        # Work counters filled by the hooks below.
        self.products = 0  # factors multiplied into a windowed product
        self.distinct_products = 0  # distinct (start, length) products, summed over ops
        self.distinct_pairs = 0  # distinct factor pairs multiplied by avalanche, summed over ops
        self._op_products: set = set()
        self._op_pairs: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _record(self, name, parent, frame, t0, t1):
        dt = t1 - t0
        if self.stack:
            self.stack[-1][1] += dt
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]
        if name in SPAN_NAMES:
            self.spans.append((self.ops, name, parent, t0, t1))

    def _wrap_call(self, name, fn, hook=None):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self._record(name, parent, frame, t0, t1)
            if hook is not None:
                hook(args, result, parent)
            return result

        return traced

    def _wrap_generator(self, name, fn, hook=None):
        stack = self.stack
        clock = time.perf_counter

        def drive(gen):
            try:
                while True:
                    parent = stack[-1][0] if stack else None
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except Exception as exc:
                        self.errors[(name, type(exc).__name__)] += 1
                        raise
                    finally:
                        t1 = clock()
                        stack.pop()
                        self._record(name, parent, frame, t0, t1)
                    if hook is not None:
                        hook((), item, parent)
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        return traced

    def run_op(self, fn):
        """Calls fn() as one op: a top-level span that bounds the per-op sets."""
        self._op_products.clear()
        self._op_pairs.clear()
        try:
            return self._wrap_call(OP, fn)()
        finally:
            self.ops += 1
            self.distinct_products += len(self._op_products)
            self.distinct_pairs += len(self._op_pairs)

    # -- hooks -------------------------------------------------------------

    def _on_product(self, args, prod, parent):
        if prod.length > 0:
            self.products += 1
            self._op_products.add((prod.start, prod.length))

    def _on_mul(self, args, result, parent):
        if _module_of(parent) == "avalanche":
            self._op_pairs.add((id(args[0]), id(args[1])))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"domsplit.{m}") for m in TRACED}
        namespaces = [importlib.import_module("domsplit"), *mods.values()]
        hooks = {"matrix2c.mul": self._on_mul, "cocycle.backward_scan": self._on_product}
        for mod, funcs in TRACED.items():
            for func in funcs:
                name = f"{mod}.{func}"
                original = getattr(mods[mod], func)
                wrap = self._wrap_generator if name in GENERATORS else self._wrap_call
                traced = wrap(name, original, hooks.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, traced)
        cls = mods["cocycle"].ScaledProduct
        original = cls.__dict__["left_multiply"]
        self._patches.append((cls, "left_multiply", original))
        cls.left_multiply = self._wrap_call("cocycle.left_multiply", original, self._on_product)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def calls(self, name, parent_module=None) -> int:
        return sum(r[0] for (n, p), r in self.agg.items()
                   if n == name and (parent_module is None or _module_of(p) == parent_module))

    def total_s(self, name, parent=None) -> float:
        return sum(r[1] for (n, p), r in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def module_self_s(self, mod) -> float:
        return sum(r[2] for (n, _), r in self.agg.items() if _module_of(n) == mod)

    def module_busy_s(self, mod) -> float:
        """Inclusive time of the module's outermost calls (nested calls not recounted)."""
        return sum(r[1] for (n, p), r in self.agg.items()
                   if _module_of(n) == mod and _module_of(p) != mod)

    def module_calls(self, mod) -> int:
        return sum(r[0] for (n, _), r in self.agg.items() if _module_of(n) == mod)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op metrics of the traced modules, as {name: (value, unit)}.

        A ratio with nothing to divide (no sites, no pair products) reads 0.
        """
        ops = max(self.ops, 1)

        def per_op(x):
            return x / ops

        def ratio(num, den):
            return num / den if den else 0.0

        split_calls = self.calls("cocycle.estimate_splitting")
        pair_products = self.calls("matrix2c.mul", parent_module="avalanche")
        dom = "conditions.check_domination"
        return {
            "matrix2c.singular_values.calls": (per_op(self.calls("matrix2c.singular_values")), "count/op"),
            "matrix2c.svd2.calls": (per_op(self.calls("matrix2c.svd2")), "count/op"),
            "matrix2c.mul.calls": (per_op(self.calls("matrix2c.mul")), "count/op"),
            "matrix2c.self_s": (per_op(self.module_self_s("matrix2c")), "s/op"),
            "cocycle.products": (per_op(self.products), "count/op"),
            "cocycle.products_per_distinct": (ratio(self.products, self.distinct_products), "ratio"),
            "cocycle.estimate_splitting.busy_s": (per_op(self.total_s("cocycle.estimate_splitting")), "s/op"),
            "cocycle.sites_converged_ratio": (
                ratio(split_calls - sum(c for (n, _), c in self.errors.items()
                                        if n == "cocycle.estimate_splitting"), split_calls),
                "ratio",
            ),
            "cocycle.no_convergence": (
                per_op(self.errors[("cocycle.estimate_splitting", "NoConvergence")]), "count/op"),
            "cocycle.vanished": (
                per_op(self.errors[("cocycle.estimate_splitting", "ProductVanished")]), "count/op"),
            "projective.calls": (per_op(self.module_calls("projective")), "count/op"),
            "projective.busy_s": (per_op(self.module_busy_s("projective")), "s/op"),
            "conditions.scan_s": (per_op(self.total_s("cocycle.forward_scan", dom)), "s/op"),
            "conditions.fields_s": (per_op(self.total_s("cocycle.estimate_splitting", dom)), "s/op"),
            "conditions.invariance_s": (per_op(self.total_s("cocycle.invariance_residual", dom)), "s/op"),
            "conditions.self_s": (per_op(self.module_self_s("conditions")), "s/op"),
            "avalanche.ap_report.busy_s": (per_op(self.total_s("avalanche.ap_report")), "s/op"),
            "avalanche.ap_conditions.busy_s": (per_op(self.total_s("avalanche.ap_conditions")), "s/op"),
            "avalanche.pair_products": (per_op(pair_products), "count/op"),
            "avalanche.pair_reuse_ratio": (ratio(self.distinct_pairs, pair_products), "ratio"),
            "cli.load_s": (per_op(self.total_s("cocycle.load_sequence", "cli.main")), "s/op"),
            "cli.self_s": (per_op(self.module_self_s("cli")), "s/op"),
        }
