import cmath
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domsplit import cocycle
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

from conftest import prescaled_log_abs_dets, random_mat, random_unit_vector, rank_one_window
from test_generators import FAMILY_CASES


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
        assert product_sweep(ex1, 3).seq is ex1
        sub = ex1.restrict(-5, 7)
        assert sub.factors.tolist() == ex1.factors[:, -5 - ex1.lo:7 - ex1.lo + 1].tolist()

    def test_one_copy_of_the_window(self, ex1):
        """The stack is the only copy of the entries: seq[j] is a Mat2C of
        complex entries built from its column, and restrict reads it too."""
        # beside the stack, the factors' screen: values, not copies of entries
        assert MatrixSequence.__slots__ == ("_lo", "_hi", "bound_M", "source", "factors",
                                            "sigma1", "sigma2", "adet", "prescale_k",
                                            "rescue_layers")
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


SCREEN_CASES = [*FAMILY_CASES, ("random_singular", {"insertions": [0], "misaligned": True})]


def assert_kept_screen(seq):
    """The sequence's kept factor values are those of its stack, bit for
    bit: sigma1 and sigma2 of ``_factor_values``, and the |det|, 2^k and
    log|det| of each factor's exact prescale; read-only, and never nan."""
    s1, s2, _, _ = cocycle._factor_values(seq.factors)
    assert (s1 > 0.0).all()  # no factor is the zero matrix
    assert seq.sigma1.tobytes() == s1.tobytes()
    assert seq.sigma2.tobytes() == s2.tobytes()
    z, k, _ = cocycle._prescale_rows(seq.factors)
    assert seq.adet.tobytes() == cocycle._abs_det(z).tobytes()
    assert (seq.prescale_k is None) == (k is None)
    assert k is None or seq.prescale_k.tobytes() == k.tobytes()
    assert seq.log_abs_dets().tobytes() == prescaled_log_abs_dets(seq.factors).tobytes()
    for a in (seq.sigma1, seq.sigma2, seq.adet):
        assert a.shape == (len(seq),) and not a.flags.writeable
        assert not np.isnan(a).any()
    with pytest.raises(ValueError):
        seq.sigma1[0] = 1.0


def _scaled_stack(seq, c):
    return MatrixSequence.from_factors(seq.lo, seq.factors * c, seq.bound_M * c)


class TestKeptScreen:
    @pytest.mark.parametrize("family,params", SCREEN_CASES)
    def test_equals_the_stack_values(self, family, params):
        for seed in (0, 1):
            seq, _ = build_with_truth(GeneratorSpec(family, (-45, 45), params, seed))
            # x 2^+-900: every row out of the prescale's band takes a 2^k
            for s in (seq, _scaled_stack(seq, 2.0 ** 900), _scaled_stack(seq, 2.0 ** -900)):
                assert_kept_screen(s)
                assert_kept_screen(s.restrict(-10, 20))
            assert _scaled_stack(seq, 2.0 ** 900).prescale_k is not None

    def test_rank_one_window(self):
        seq = rank_one_window(5)
        assert_kept_screen(seq)
        assert (seq.sigma2 == 0.0).all() and seq.rescue_layers == len(seq)
        assert (seq.log_abs_dets() < 2 * np.log(seq.sigma1) - 27).all()  # det is rounding noise

    def test_restrict_slices_the_screen(self):
        seq, _ = build_with_truth(GeneratorSpec("random_singular", (-45, 45),
                                                {"insertions": [7, 0]}, 2))
        big = _scaled_stack(seq, 2.0 ** 900)
        for s, (lo, hi) in ((seq, (-20, 5)), (seq, (1, 30)), (big, (-3, 3)), (big, (45, 45))):
            sub = s.restrict(lo, hi)
            cut = slice(lo - s.lo, hi - s.lo + 1)
            for got, whole in zip((sub.sigma1, sub.sigma2, sub.adet),
                                  (s.sigma1, s.sigma2, s.adet)):
                assert got.tobytes() == whole[cut].tobytes()
            assert sub.rescue_layers == MatrixSequence.from_factors(
                lo, sub.factors, s.bound_M).rescue_layers
            assert_kept_screen(sub)
        assert seq.restrict(1, 30).rescue_layers == 7  # the rank-one B(7) is out of band

    def test_rows_the_screen_cannot_vouch_for(self):
        """Entries whose largest part is at most ENTRY_ZERO_TOL, or above
        1e300, pass the scalar checks and are filled in from them."""
        entries = {0: Mat2C(1.0, 0.5, 0.0, 2.0), 1: Mat2C(complex(1e-300, 1e-300), 0, 0, 0),
                   2: Mat2C(2e300, 0.0, 1e300j, 1.0), 3: Mat2C(0.5j, 0, 0, 1.5)}
        by_dict = MatrixSequence(entries, 1e301)
        assert np.isnan(cocycle._screen(by_dict.factors)[0][[1, 2]]).all()
        by_stack = MatrixSequence.from_factors(0, by_dict.factors, 1e301)
        for seq in (by_dict, by_stack):
            assert_kept_screen(seq)
            assert seq.sigma1[1] > 0.0 and seq.rescue_layers == 3

    def test_entries_that_do_not_stack_as_numbers(self):
        entries = {0: Mat2C(Fraction(1, 3), 0, 0, 1), 1: Mat2C(2.0, Fraction(1, 7), 0, 1)}
        seq = MatrixSequence(entries, 4.0)
        assert_kept_screen(seq)
        assert seq.rescue_layers == 0

    def test_generated_window_screened_once(self, monkeypatch):
        """The generator's bound and the constructor's checks share one
        screen of the stack, and the kept values are those of a fresh one."""
        from domsplit import generators

        calls = []
        screen = cocycle._screen

        def counted(z):
            calls.append(z.shape[1])
            return screen(z)

        monkeypatch.setattr(cocycle, "_screen", counted)
        monkeypatch.setattr(generators, "_screen", counted)
        seq, _ = build_with_truth(GeneratorSpec("conjugated_dominated", (-45, 45), {}, 3))
        assert calls == [len(seq)]
        fresh = MatrixSequence.from_factors(seq.lo, seq.factors, seq.bound_M)
        assert calls == [len(seq)] * 2
        for got, want in zip((seq.sigma1, seq.sigma2, seq.adet), (fresh.sigma1, fresh.sigma2,
                                                                  fresh.adet)):
            assert got.tobytes() == want.tobytes()
        assert seq.rescue_layers == fresh.rescue_layers


class TestFromFactors:
    @settings(max_examples=300, deadline=None)
    @given(constructor_cases())
    def test_checks_as_the_dict_constructor(self, case):
        """A stack gets the dict constructor's errors and bits, reading its
        flagged entries from its own columns in j order."""
        entries, bound = case
        js = sorted(entries)
        try:
            factors = np.array([[complex(z) for z in (entries[j].a, entries[j].b,
                                                      entries[j].c, entries[j].d)] for j in js]).T
        except OverflowError:  # an int beyond float range: only the dict takes it
            return
        complex_entries = {j: Mat2C(*factors[:, k].tolist()) for k, j in enumerate(js)}
        got = _outcome(lambda: MatrixSequence.from_factors(js[0], factors, bound).factors)
        assert got == _outcome(lambda: MatrixSequence(complex_entries, bound).factors)

    def test_copies_the_stack(self):
        factors = np.array([[2.0], [0.0], [0.0], [1.0]], dtype=complex)
        seq = MatrixSequence.from_factors(-3, factors, 4.0, source={"x": 1})
        factors[0, 0] = 9.0
        assert seq.window == (-3, -3) and seq[-3] == Mat2C(2.0, 0.0, 0.0, 1.0)
        assert not seq.factors.flags.writeable and factors.flags.writeable
        assert seq.source == {"x": 1} and seq.rescue_layers == 0

    @pytest.mark.parametrize("factors,message", [
        (np.zeros((4, 0)), "sequence window is empty"),
        (np.ones((3, 5)), "factors must be a (4, L) stack, not of shape (3, 5)"),
        (np.ones(4), "factors must be a (4, L) stack, not of shape (4,)"),
    ])
    def test_rejects_stack(self, factors, message):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            MatrixSequence.from_factors(0, factors, 4.0)

    def test_window_checks_in_order(self):
        with pytest.raises(InvalidSpec, match="^bound_M must be finite"):
            MatrixSequence.from_factors(2 ** 63, np.ones((4, 2)), math.nan)
        with pytest.raises(InvalidSpec, match="index bound"):
            MatrixSequence.from_factors(2 ** 63, np.ones((4, 2)), 4.0)


class TestSource:
    def test_round_trip_keeps_source(self, tmp_path):
        spec = GeneratorSpec("conjugated_dominated", (-8, 8), {"rate_mode": "constant"}, 5)
        seq, _ = build_with_truth(spec)
        assert seq.to_json_dict()["source"] == spec.to_json_dict()
        path = tmp_path / "seq.json"
        dump_sequence(seq, str(path))
        back = load_sequence(str(path))
        assert back.source == spec.to_json_dict()
        assert back.to_json_dict() == seq.to_json_dict()

    def test_restrict_drops_source(self):
        seq, _ = build_with_truth(GeneratorSpec("example1", (-8, 8)))
        sub = seq.restrict(-2, 3)
        assert sub.source is None and "source" not in sub.to_json_dict()
        assert sub.factors.tobytes() == seq.factors[:, 6:12].tobytes()

    def test_sequence_without_source_writes_none(self, ex1):
        assert "source" not in MatrixSequence({0: Mat2C(2.0, 0, 0, 1)}, 4.0).to_json_dict()


def scalar_load(doc):
    """``from_json_dict`` one entry at a time, each built with complex(re,
    im) into a Mat2C and handed to the dict constructor: the reference for
    the loader's stack."""
    try:
        lo, hi = (cocycle._as_index(x) for x in doc["window"])
        if isinstance(doc["bound_M"], (str, bool)):  # a JSON number only, as j and window
            raise TypeError(f"bound_M {doc['bound_M']!r} is not a number")
        bound = float(doc["bound_M"])
        entries = {}
        for rec in doc["entries"]:
            j = cocycle._as_index(rec["j"])
            if j in entries:  # each site once: the last entry would win silently
                raise ValueError(f"entry j={j} appears twice")
            entries[j] = Mat2C(*[complex(re, im) for re, im in rec["m"]])
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InvalidSpec(f"malformed sequence document: {exc}") from exc
    seq = MatrixSequence(entries, bound, source=doc.get("source"))
    if seq.window != (lo, hi):
        raise InvalidSpec("declared window does not match entries")
    return seq


_CELL_VALUES = st.one_of(
    st.floats(-4.0, 4.0), st.integers(-3, 3), st.booleans(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, 1.7e308, 2 ** 53 + 1, 2 ** 63, -(2 ** 63),
                     2 ** 64 + 1, 10 ** 400, "1.5", None, [1.0], 1e-320]),
)


@st.composite
def loader_docs(draw):
    """Documents near a well-formed file: each entry's pairs, j and the
    record itself may be replaced by something the loader must refuse or
    read as the per-entry loop reads it."""
    n = draw(st.integers(0, 4))
    lo = draw(st.integers(-3, 3))
    plain = st.floats(-4.0, 4.0)
    entries = []
    for k in range(n):
        m = [[draw(plain), draw(plain)] for _ in range(4)]
        if draw(st.integers(0, 2)) == 0:
            m[draw(st.integers(0, 3))][draw(st.integers(0, 1))] = draw(_CELL_VALUES)
        if draw(st.integers(0, 9)) == 0:
            m = draw(st.sampled_from([m[:3], m + [[5.0, 5.0]], [p + [0.0] for p in m], "abcd"]))
        j = lo + k
        if draw(st.integers(0, 6)) == 0:
            j = draw(st.sampled_from([float(j), True, str(j), j + 0.5, j + 1, None]))
        entries.append({"j": j, "m": m} if draw(st.integers(0, 19)) else [j, m])
    if n > 1 and draw(st.integers(0, 5)) == 0:
        entries.reverse()
    hi = lo + n - 1 + draw(st.sampled_from([0] * 8 + [1, -1]))
    bound = draw(st.sampled_from([100.0] * 6 + [5.0, 1e-3, 1e400]))
    doc = {"window": [lo, hi], "bound_M": bound,
           "entries": entries}
    if draw(st.booleans()):
        doc["source"] = {"family": "x"}
    return doc


class TestLoaderStack:
    @settings(max_examples=600, deadline=None)
    @given(loader_docs())
    def test_loads_as_the_entry_loop(self, doc):
        """The loader's stack gives the per-entry loop's sequence, or its
        error type and message."""
        got = _load_outcome(lambda: MatrixSequence.from_json_dict(doc))
        assert got == _load_outcome(lambda: scalar_load(doc))

    def test_generated_file_takes_the_stack(self, tmp_path):
        seq, _ = build_with_truth(GeneratorSpec("conjugated_dominated", (-30, 30), seed=2))
        doc = seq.to_json_dict()
        assert cocycle._entry_stack(doc["entries"], -30, 30) is not None
        back = MatrixSequence.from_json_dict(doc)
        assert back.factors.tobytes() == seq.factors.tobytes() and back.rescue_layers == seq.rescue_layers

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["entries"].append({"j": 2, "m": [[2, 0], [0, 0], [0, 0], [1, 0]]}),
         "entry j=2 appears twice"),
        (lambda doc: doc["entries"].insert(0, dict(doc["entries"][-1])), "entry j=6 appears twice"),
        (lambda doc: doc.update(bound_M="4"), "bound_M '4' is not a number"),
        (lambda doc: doc.update(bound_M=True), "bound_M True is not a number"),
    ], ids=["duplicate-appended", "duplicate-first", "bound-string", "bound-true"])
    def test_refusals_name_their_cause(self, edit, message):
        doc = json.loads(json.dumps(_BASE_DOC))
        edit(doc)
        want = (InvalidSpec, f"malformed sequence document: {message}")
        assert _load_outcome(lambda: MatrixSequence.from_json_dict(doc)) == want
        assert _load_outcome(lambda: scalar_load(doc)) == want

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m[0].__setitem__(0, "1.5"), "complex() can't take second arg if first is a string"),
        (lambda m: m[2].__setitem__(1, None),
         "complex() second argument must be a number, not 'NoneType'"),
        (lambda m: m.pop(), "Mat2C.__init__() missing 1 required positional argument: 'd'"),
        (lambda m: m.append([5.0, 5.0]),
         "Mat2C.__init__() takes 5 positional arguments but 6 were given"),
    ], ids=["str", "none", "three-pairs", "five-pairs"])
    def test_malformed_m_takes_the_entry_loop(self, edit, message):
        # np.fromiter would read the str "1.5" as 1.5: the stack refuses it
        doc = json.loads(json.dumps(_BASE_DOC))
        edit(doc["entries"][3]["m"])
        assert cocycle._entry_stack(doc["entries"], -6, 6) is None
        want = (InvalidSpec, f"malformed sequence document: {message}")
        assert _load_outcome(lambda: MatrixSequence.from_json_dict(doc)) == want
        assert _load_outcome(lambda: scalar_load(doc)) == want

    def test_bool_part_reads_as_its_int(self):
        doc = json.loads(json.dumps(_BASE_DOC))
        doc["entries"][3]["m"][1][0] = True
        seq = MatrixSequence.from_json_dict(doc)
        assert _load_outcome(lambda: seq) == _load_outcome(lambda: scalar_load(doc))
        assert seq.factors[1, 3].real == 1.0

    def test_unordered_entries_load(self):
        doc = json.loads(json.dumps(_BASE_DOC))
        doc["entries"].reverse()
        back = MatrixSequence.from_json_dict(doc)
        assert back.factors.tobytes() == MatrixSequence.from_json_dict(_BASE_DOC).factors.tobytes()


def _load_outcome(load):
    try:
        seq = load()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return seq.window, seq.bound_M, seq.factors.tobytes(), seq.rescue_layers, seq.source


def json_load(path) -> MatrixSequence:
    """The reference loader: ``from_json_dict`` of ``json.load`` of the file
    read as UTF-8 text."""
    with open(path, "r", encoding="utf-8") as fh:
        return MatrixSequence.from_json_dict(json.load(fh))


def _file_outcome(load):
    """The factor bits and the document text of the loaded sequence, whose
    numbers keep their type (an int 2^64 is not the float 2^64), or the
    error type and message."""
    try:
        seq = load()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return seq.factors.tobytes(), seq.rescue_layers, json.dumps(seq.to_json_dict())


_BASE_DOC = build_with_truth(GeneratorSpec("conjugated_dominated", (-6, 6), {}, 4))[0].to_json_dict()


def _base_text(**changes) -> str:
    doc = json.loads(json.dumps(_BASE_DOC))
    doc.update(changes)
    return json.dumps(doc)


def _shifted_text(lo: int) -> str:
    """The base document moved to start at j = lo."""
    doc = json.loads(json.dumps(_BASE_DOC))
    doc["window"] = [lo, lo + len(doc["entries"]) - 1]
    for k, rec in enumerate(doc["entries"]):
        rec["j"] = lo + k
    return json.dumps(doc)


def _entry_text(token: str) -> str:
    """The base document with the real part of a of its fourth entry written as token."""
    doc = json.loads(json.dumps(_BASE_DOC))
    doc["entries"][3]["m"][0][0] = "@"
    return json.dumps(doc).replace('"@"', token)


# the forms orjson refuses, and those it would read otherwise than json does
_LOADER_TEXTS = {
    "nan": _entry_text("NaN"),
    "infinity": _entry_text("Infinity"),
    "minus-infinity": _entry_text("-Infinity"),
    "1e400": _entry_text("1e400"),
    "beyond-double": _entry_text("1" + "0" * 400),
    "int-2^64": _entry_text(str(2 ** 64)),
    "bound-beyond-double": _base_text().replace('"bound_M": ', '"bound_M": 1' + "0" * 400 + ", \"x\": "),
    "bound-25-digits": _base_text(bound_M=10 ** 24 + 7),
    "lone-surrogate": _base_text(source={"family": "\ud800"}),
    "seed-2^64+3": _base_text(source={"seed": 2 ** 64 + 3}),
    "seed-2^63-1": _base_text(source={"seed": 2 ** 63 - 1, "low": -(2 ** 63)}),
    "bom": "\ufeff" + _base_text(),
    "duplicate-bound-last": _base_text()[:-1] + ', "bound_M": 1e-3}',
    "duplicate-bound-first": '{"bound_M": 1e-3, ' + _base_text()[1:],
    "j-2^64": _shifted_text(2 ** 64),
    "j-2^64+5": _shifted_text(2 ** 64 + 5),
    "j-minus-2^64": _shifted_text(-(2 ** 64) - 50),
    "j-below-int64": _shifted_text(-(2 ** 63) - 20),  # 19 digits
    "j-2^63": _shifted_text(2 ** 63),
    "crlf-broken": json.dumps(_BASE_DOC, indent=1).replace("\n", "\r\n").replace(
        '"entries"', '"entries" ::'),
    "cr-broken": json.dumps(_BASE_DOC, indent=1).replace("\n", "\r").replace(
        '"bound_M"', "bound_M"),
    "truncated": _base_text()[:700],
    "bound-string": _base_text(bound_M="4"),
    "bound-true": _base_text(bound_M=True),
    "duplicate-site": _base_text(entries=_BASE_DOC["entries"] + _BASE_DOC["entries"][-1:]),
}


class TestLoadSequence:
    """``load_sequence`` parses with orjson and reads the text again with
    json where orjson refuses it or may have rounded an integer literal: it
    gives the json loader's sequence, or its error type and message."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("loader")

    @settings(max_examples=400, deadline=None)
    @given(doc=loader_docs(), indent=st.sampled_from([None, 1]), newline=st.sampled_from(["\n", "\r\n"]))
    def test_loads_as_json_does(self, folder, doc, indent, newline):
        path = folder / "doc.json"
        path.write_bytes(json.dumps(doc, indent=indent).replace("\n", newline).encode())
        assert _file_outcome(lambda: load_sequence(str(path))) == _file_outcome(lambda: json_load(path))

    @pytest.mark.parametrize("name", sorted(_LOADER_TEXTS))
    def test_hand_cases_load_as_json_does(self, tmp_path, name):
        path = tmp_path / "doc.json"
        path.write_bytes(_LOADER_TEXTS[name].encode("utf-8", "surrogatepass"))
        want = _file_outcome(lambda: json_load(path))
        assert _file_outcome(lambda: load_sequence(str(path))) == want

    def test_far_indices_are_named_exactly(self, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(_shifted_text(2 ** 64 + 5))
        with pytest.raises(InvalidSpec, match=rf"window \[{2 ** 64 + 5}, {2 ** 64 + 17}\] reaches"):
            load_sequence(str(path))

    def test_refused_forms_keep_their_messages(self, tmp_path):
        path = tmp_path / "doc.json"
        for name in ("nan", "infinity", "minus-infinity", "1e400"):
            path.write_text(_LOADER_TEXTS[name])
            with pytest.raises(InvalidSpec, match="entry at j=-3 is not finite"):
                load_sequence(str(path))
        path.write_text(_LOADER_TEXTS["bound-25-digits"])
        assert load_sequence(str(path)).bound_M == float(10 ** 24 + 7)
        path.write_text(_LOADER_TEXTS["seed-2^64+3"])
        assert load_sequence(str(path)).source == {"seed": 2 ** 64 + 3}

    def test_orjson_reads_random_doubles_as_json_does(self):
        """The premise of the loader: orjson reads every finite double to
        json's bits, in repr's form and in fixed-digit forms."""
        import orjson

        rng = np.random.default_rng(20261020)
        bits = rng.integers(0, 2 ** 64, size=(2, 60_000), dtype=np.uint64)
        # the second half with exponents near 1, where most entries lie
        bits[1] = (bits[1] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (
            rng.integers(1023 - 40, 1023 + 40, size=60_000, dtype=np.uint64) << np.uint64(52))
        cells = bits.ravel().view(np.float64)
        values = cells[np.isfinite(cells)].tolist()
        assert len(values) >= 100_000
        for form in (repr, "%.17g".__mod__, "%.25e".__mod__, "%.12g".__mod__):
            text = "[" + ",".join(map(form, values)) + "]"
            got, want = orjson.loads(text), json.loads(text)
            assert list(map(type, got)) == list(map(type, want))
            assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()

    def test_import_leaves_orjson_unloaded(self):
        code = "import sys, domsplit; assert 'orjson' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cocycle.__file__))}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


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
