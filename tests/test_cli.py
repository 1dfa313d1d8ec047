import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domsplit import (
    GeneratorSpec,
    InvalidSpec,
    MatrixSequence,
    build_with_truth,
    estimate_fields,
    invariance_residual,
    load_sequence,
)
from domsplit.cli import main
from domsplit.generators import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_example1_window(self, tmp_path, capsys):
        out = tmp_path / "seq.json"
        code, _, _ = run(capsys, "gen", "--family", "example1",
                         "--window", "-10", "10", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 21
        j0 = next(e for e in doc["entries"] if e["j"] == 0)
        assert j0["m"] == [[4.0, 0.0], [-3.0, 0.0], [0.0, 0.0], [0.5, 0.0]]

    def test_diagonal_constant(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, _, _ = run(capsys, "gen", "--family", "diagonal", "--lplus", "2",
                         "--lminus", "1", "--window", "0", "5", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(e["m"] == [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
                   for e in doc["entries"])

    def test_schrodinger_zeros(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, _, _ = run(capsys, "gen", "--family", "schrodinger", "--energy", "3",
                         "--window", "0", "99", "--potential", "zeros", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 100
        assert doc["entries"][0]["m"] == [[3.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]

    def test_invalid_spec_exit2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "diagonal", "--lplus", "1",
                           "--lminus", "1", "--window", "0", "5")
        assert code == 2
        assert "lambda" in err or "lplus" in err

    def test_roundtrip_matches_memory(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, _, _ = run(capsys, "gen", "--family", "conjugated_dominated", "--seed", "5",
                         "--window", "-8", "8", "--out", str(out))
        assert code == 0
        seq = load_sequence(str(out))
        mem, _ = build_with_truth(GeneratorSpec("conjugated_dominated", (-8, 8), seed=5))
        for j in mem.indices():
            assert seq[j] == mem[j]

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"family": "diagonal", "window": [0, 3], "params": {}, "seed": 0}))
        out = tmp_path / "seq.json"
        code, _, _ = run(capsys, "gen", "--spec", str(spec_path), "--out", str(out))
        assert code == 0
        assert len(json.loads(out.read_text())["entries"]) == 4


class TestProfiles:
    def test_example1_svg_pass_fi_fail(self, capsys):
        args = ["--family", "example1", "--window", "-20", "20", "--nmax", "20",
                "--format", "json"]
        code, out, _ = run(capsys, "svg", *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["passed"] is True
        assert doc["result"]["mu"] >= 3.5
        code, out, _ = run(capsys, "fi", *args)
        assert code == 1
        assert json.loads(out)["result"]["passed"] is False

    def test_diag_both_pass(self, capsys):
        args = ["--family", "diagonal", "--window", "-20", "20", "--nmax", "15"]
        assert run(capsys, "svg", *args)[0] == 0
        assert run(capsys, "fi", *args)[0] == 0

    def test_rotation_svg_fail(self, capsys):
        code, _, _ = run(capsys, "svg", "--family", "unitary", "--params",
                         '{"angle": 0.5}', "--window", "-20", "20", "--nmax", "15")
        assert code == 1

    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "svg", "--family", "diagonal", "--window", "0", "20",
                           "--nmax", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,n,ratio_log"
        assert len(lines) > 10

    def test_malformed_input_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "svg", "--input", str(bad), "--nmax", "5")
        assert code == 2

    def test_window_too_short_exit2(self, capsys):
        code, _, _ = run(capsys, "svg", "--family", "diagonal", "--window", "0", "5",
                         "--nmax", "40")
        assert code == 2


class TestSplit:
    def test_example1_fields(self, capsys):
        code, out, _ = run(capsys, "split", "--family", "example1", "--window", "-45", "56",
                           "--jrange", "-10", "10", "--tol", "1e-10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        recs = {r["j"]: r for r in doc["result"]["fields"]}
        for j in range(-10, 11):
            assert abs(recs[j]["Eu"][0]) <= 1e-8
            assert abs(recs[j]["Es"][0] - 2.0 ** -abs(j)) <= 1e-8
        assert doc["result"]["min_separation"] == pytest.approx(
            2 * 2.0**-10 / (1 + 4.0**-10) ** 0.5, abs=1e-8)

    def test_unitary_inconclusive(self, capsys):
        code, out, _ = run(capsys, "split", "--family", "unitary", "--seed", "2",
                           "--window", "-10", "10", "--format", "json")
        assert code == 3
        assert json.loads(out)["result"]["failed_js"]

    def test_residuals_match_per_site(self, capsys):
        # the rank-one insertion at 0 takes both scalar fallbacks
        code, out, _ = run(capsys, "split", "--family", "random_singular", "--insertions", "0",
                           "--seed", "1", "--window", "-30", "30", "--format", "json")
        got = json.loads(out)["result"]["invariance_residuals"]
        seq, _ = build_with_truth(GeneratorSpec("random_singular", (-30, 30),
                                                {"insertions": [0]}, 1))
        sweep = estimate_fields(seq, None, 40, 1e-9)
        want = [[j, *invariance_residual(seq, j, sweep.es, sweep.eu)]
                for j in sorted(sweep.es) if j + 1 in sweep.es]
        assert 0 in [r[0] for r in got]
        assert got == want


class TestDom:
    def test_example1_witnessed_violation(self, capsys):
        code, out, _ = run(capsys, "dom", "--family", "example1", "--window", "-40", "40",
                           "--jrange", "-20", "20", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["result"]["verdict"] == "not_dominated"
        assert any("condition (c)" in w for w in doc["result"]["witnesses"])

    def test_conjugated_dominated(self, capsys):
        code, out, _ = run(capsys, "dom", "--family", "conjugated_dominated", "--seed", "3",
                           "--window", "-30", "30", "--jrange", "-6", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "dominated"

    def test_unitary_inconclusive(self, capsys):
        code, _, _ = run(capsys, "dom", "--family", "unitary", "--seed", "1",
                         "--window", "-15", "15")
        assert code == 3


class TestAp:
    def test_generated_family_passes(self, capsys):
        code, out, _ = run(capsys, "ap", "--family", "ap_family", "--params", '{"mu": 1e4}',
                           "--seed", "4", "--window", "0", "40", "--mu", "1e4",
                           "--nmax", "25", "--format", "json", "--table")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["conditions_pass"] is True
        assert doc["result"]["residuals"]

    def test_rotation_fails_conditions(self, capsys):
        code, _, _ = run(capsys, "ap", "--family", "unitary", "--params", '{"angle": 0.4}',
                         "--window", "0", "20", "--mu", "10")
        assert code == 1

    def test_nmax_below_three_exit2(self, capsys):
        code, _, _ = run(capsys, "ap", "--family", "diagonal", "--window", "0", "20",
                         "--mu", "10", "--nmax", "2")
        assert code == 2

    @staticmethod
    def _with_entries(tmp_path, name, window, params, replaced):
        from domsplit import MatrixSequence, dump_sequence

        base, _ = build_with_truth(GeneratorSpec(name, window, params))
        entries = {j: base[j] for j in base.indices()}
        entries.update(replaced)
        seq = MatrixSequence(entries, max(base.bound_M, 2.0))
        path = tmp_path / "s.json"
        dump_sequence(seq, str(path))
        return seq, str(path)

    def test_pair_product_vanishes_exit3(self, tmp_path, capsys):
        from domsplit import Mat2C, ZeroMatrix, ap_report

        # B(1) B(0) is zero: complementary projections
        seq, path = self._with_entries(
            tmp_path, "conjugated_dominated", (-45, 45), {},
            {0: Mat2C(1.0, 0.0, 0.0, 0.0), 1: Mat2C(0.0, 0.0, 0.0, 1.0)})
        with pytest.raises(ZeroMatrix, match="^singular values of the zero matrix$"):
            ap_report(seq, 100.0, 10)
        code, out, err = run(capsys, "ap", "--input", path, "--mu", "100", "--nmax", "10")
        assert code == 3
        assert out == ""
        assert err == "domsplit ap: singular values of the zero matrix\n"

    def test_longer_product_vanishes_exit3(self, tmp_path, capsys):
        from domsplit import Mat2C, ProductVanished, ap_conditions, ap_report

        # no pair product is zero, but B(2) B(1) B(0) is; the lowest start whose
        # scan reaches it is j = -7, at length 10
        seq, path = self._with_entries(
            tmp_path, "ap_family", (-20, 20), {"mu": 100.0},
            {0: Mat2C(1.0, 0.0, 0.0, 0.0), 1: Mat2C(1.0, 1.0, 0.0, 1.0),
             2: Mat2C(0.0, 0.0, 0.0, 1.0)})
        ap_conditions(seq, 100.0)  # raises no ZeroMatrix
        with pytest.raises(ProductVanished) as info:
            ap_report(seq, 100.0, 10)
        assert str(info.value) == "product of length 10 starting at j=-7 vanished"
        code, out, err = run(capsys, "ap", "--input", path, "--mu", "100", "--nmax", "10")
        assert code == 3
        assert out == ""
        assert err == "domsplit ap: product of length 10 starting at j=-7 vanished\n"


class TestReportContract:
    def test_config_embedded_and_deterministic(self, capsys):
        args = ["svg", "--family", "diagonal", "--window", "0", "20", "--nmax", "10",
                "--format", "json"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["tool"] == "domsplit"
        assert doc["version"]
        assert doc["config"]["nmax"] == 10
        assert doc["config"]["generator"]["family"] == "diagonal"

    def test_both_input_and_family_rejected(self, tmp_path, capsys):
        seq = tmp_path / "s.json"
        run(capsys, "gen", "--family", "diagonal", "--window", "0", "5", "--out", str(seq))
        code, _, _ = run(capsys, "svg", "--input", str(seq), "--family", "diagonal",
                         "--window", "0", "5", "--nmax", "3")
        assert code == 2

    def test_input_window_restriction(self, tmp_path, capsys):
        seq = tmp_path / "s.json"
        run(capsys, "gen", "--family", "example1", "--window", "-10", "10", "--out", str(seq))
        code, out, _ = run(capsys, "svg", "--input", str(seq), "--window", "-5", "5",
                           "--nmax", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["window"] == [-5, 5]

    def test_declared_window_mismatch_exit2(self, tmp_path, capsys):
        seq = tmp_path / "s.json"
        run(capsys, "gen", "--family", "diagonal", "--window", "0", "5", "--out", str(seq))
        doc = json.loads(seq.read_text())
        doc["window"] = [0, 9]
        seq.write_text(json.dumps(doc))
        code, _, err = run(capsys, "svg", "--input", str(seq), "--nmax", "3")
        assert code == 2
        assert "window" in err

    def test_rank_one_vacuous_pass_exit0(self, tmp_path, capsys):
        from domsplit import Mat2C, MatrixSequence, dump_sequence

        seq = tmp_path / "r1.json"
        dump_sequence(MatrixSequence({j: Mat2C(1.0, 0.0, 0.0, 0.0) for j in range(12)}, 2.0),
                      str(seq))
        code, _, _ = run(capsys, "svg", "--input", str(seq), "--nmax", "8")
        assert code == 0

    def test_vanished_products_exit1(self, tmp_path, capsys):
        from domsplit import Mat2C, MatrixSequence, dump_sequence

        seq = tmp_path / "nil.json"
        nil = Mat2C(0.0, 1.0, 0.0, 0.0)
        dump_sequence(MatrixSequence({j: nil for j in range(12)}, 2.0), str(seq))
        code, _, _ = run(capsys, "svg", "--input", str(seq), "--nmax", "8")
        assert code == 1

    def test_atomic_write_to_file(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code, _, _ = run(capsys, "svg", "--family", "diagonal", "--window", "0", "20",
                         "--nmax", "10", "--format", "json", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["command"] == "svg"
        assert not (tmp_path / "rep.json.tmp").exists()


class TestBoundaryValidation:
    def _seq_file(self, tmp_path, capsys, value):
        path = tmp_path / "s.json"
        run(capsys, "gen", "--family", "conjugated_dominated", "--seed", "3",
            "--window", "-20", "20", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][5]["m"][1][0] = value
        path.write_text(json.dumps(doc))  # writes the non-JSON tokens Infinity / NaN
        return str(path)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_entry_exit2(self, tmp_path, capsys, value):
        path = self._seq_file(tmp_path, capsys, value)
        code, _, err = run(capsys, "dom", "--input", path)
        assert code == 2
        assert "not finite" in err

    @pytest.mark.parametrize("bound", [float("inf"), float("nan"), 0.0, -1.0])
    def test_bad_bound_exit2(self, tmp_path, capsys, bound):
        path = tmp_path / "s.json"
        run(capsys, "gen", "--family", "diagonal", "--window", "0", "9", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["bound_M"] = bound
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "svg", "--input", str(path), "--nmax", "3")
        assert code == 2

    @pytest.mark.parametrize("verb,nmax", [("svg", "0"), ("fi", "0"), ("dom", "0"),
                                           ("dom", "-3"), ("split", "0")])
    def test_nmax_below_one_exit2(self, capsys, verb, nmax):
        code, _, err = run(capsys, verb, "--family", "diagonal", "--window", "-20", "20",
                           "--nmax", nmax)
        assert code == 2
        assert "n_max" in err

    # each of these once escaped the loader as a raw OverflowError or ValueError
    @pytest.mark.parametrize("where,text", [
        ("j", "1e999"),
        ("bound_M", "1" + "0" * 400),
        ("window", '["a", "b"]'),
        ("m", "[[1.7e308, 1.7e308], [0, 0], [0, 0], [1, 0]]"),
    ], ids=["j-inf", "bound-400-digits", "window-strings", "entry-overflows"])
    def test_malformed_file_exit2(self, tmp_path, capsys, where, text):
        path = tmp_path / "s.json"
        run(capsys, "gen", "--family", "diagonal", "--window", "0", "9", "--out", str(path))
        doc = json.loads(path.read_text())
        (doc["entries"][0] if where in ("j", "m") else doc)[where] = "@"
        path.write_text(json.dumps(doc).replace('"@"', text))
        code, out, err = run(capsys, "dom", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("domsplit dom: ") and "internal error" not in err

    def test_spec_seed_overflow_exit2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"family": "diagonal", "window": [0, 3], "params": {}, "seed": 1e999}')
        code, out, err = run(capsys, "gen", "--spec", str(spec), "--out", str(tmp_path / "o.json"))
        assert code == 2
        assert err.startswith("domsplit gen: malformed generator spec")

    def test_fractional_index_exit2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        run(capsys, "gen", "--family", "diagonal", "--window", "0", "9", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"][3]["j"] = 3.5
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "dom", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("domsplit dom: malformed sequence document")

    def test_spec_fractional_seed_exit2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"family": "diagonal", "window": [0, 3], "params": {}, "seed": 2.7}')
        code, out, err = run(capsys, "gen", "--spec", str(spec), "--out", str(tmp_path / "o.json"))
        assert code == 2
        assert err.startswith("domsplit gen: malformed generator spec")

    def test_empty_fit_does_not_pass(self, capsys):
        # n <= 1 leaves no n >= fit_n_lo = 2 to fit: no evidence either way
        code, out, _ = run(capsys, "svg", "--family", "example1", "--window", "-20", "20",
                           "--nmax", "1", "--format", "json")
        assert code == 3
        assert json.loads(out)["result"]["passed"] is False


class TestInternalError:
    def test_unmapped_exception_exit3(self, capsys, monkeypatch):
        from domsplit import cli

        def broken(*args, **kwargs):
            raise RuntimeError("estimator broke")

        monkeypatch.setattr(cli, "check_domination", broken)
        code, out, err = run(capsys, "dom", "--family", "diagonal", "--window", "-20", "20")
        assert code == 3
        assert out == ""
        assert err == "domsplit dom: internal error: RuntimeError: estimator broke\n"


# Any JSON document: scalars (numbers past float range included), lists, objects.
_EXTREMES = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, 10**400, -10**400])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | _EXTREMES
            | st.text(max_size=4))
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def _corrupted(draw, doc):
    """doc, or doc with one node replaced by an arbitrary JSON value."""
    if not draw(st.booleans()):
        return doc
    node, key = doc, None
    for _ in range(draw(st.integers(1, 4))):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if not isinstance(node[key], (dict, list)) or not node[key]:
            break
        node, key = node[key], None
    if key is not None:
        node[key] = draw(_EXTREMES | _JSON | st.lists(st.floats(), min_size=2, max_size=2))
    return doc


@st.composite
def _sequence_docs(draw):
    n = draw(st.integers(1, 3))
    lo = draw(st.integers(-3, 3) | st.integers())
    num = st.floats(-4.0, 4.0)
    doc = {
        "window": [lo, lo + n - 1],
        "bound_M": 100.0,
        "entries": [{"j": lo + k, "m": [[draw(num), draw(num)] for _ in range(4)]}
                    for k in range(n)],
    }
    return draw(_corrupted(doc))


@st.composite
def _spec_docs(draw):
    doc = {
        "family": draw(st.sampled_from(FAMILIES)),
        "window": [draw(st.integers(-3, 3)), draw(st.integers(-3, 3))],
        "params": {},
        "seed": draw(st.integers(0, 9)),
    }
    return draw(_corrupted(doc))


def _entry(j):
    return {"j": j, "m": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}


class TestIntegerIndices:
    """int() would truncate a fractional index and read a bool or a numeric
    string as a number; the loaders refuse all three and keep integral
    floats."""

    @pytest.mark.parametrize("window,js", [
        ([0.9, 1.2], [0.7, True]),
        ([0, 1], [0, 1.5]),
        ([0, 1], [False, 1]),
        ([0.5, 1], [0, 1]),
        ([True, 1], [1]),
        (["0", 1], [0, 1]),
        ([0, 1], [0, "1"]),
    ])
    def test_sequence_rejects(self, window, js):
        doc = {"window": window, "bound_M": 4.0, "entries": [_entry(j) for j in js]}
        with pytest.raises(InvalidSpec):
            MatrixSequence.from_json_dict(doc)

    def test_sequence_integral_floats_load(self):
        doc = {"window": [0.0, 1.0], "bound_M": 4.0, "entries": [_entry(0.0), _entry(1)]}
        assert MatrixSequence.from_json_dict(doc).window == (0, 1)

    @pytest.mark.parametrize("window,seed", [
        ([0.5, 3.9], 0), ([0, 3], 2.7), ([0, 3], True), ([False, 3], 0), ([0, "3"], 0),
        ([0, 3], "2"),
    ])
    def test_spec_rejects(self, window, seed):
        doc = {"family": "diagonal", "window": window, "params": {}, "seed": seed}
        with pytest.raises(InvalidSpec):
            GeneratorSpec.from_json_dict(doc)

    def test_spec_integral_floats_load(self):
        doc = {"family": "diagonal", "window": [0.0, 3.0], "params": {}, "seed": 2.0}
        spec = GeneratorSpec.from_json_dict(doc)
        assert (spec.window, spec.seed) == ((0, 3), 2)


class TestDocumentFuzz:
    """A loaded document either loads or raises InvalidSpec, never anything else."""

    @settings(max_examples=300, deadline=None)
    @given(_sequence_docs() | _JSON)
    def test_sequence_document(self, doc):
        try:
            MatrixSequence.from_json_dict(doc)
        except InvalidSpec:
            pass

    @settings(max_examples=300, deadline=None)
    @given(_spec_docs() | _JSON)
    def test_generator_spec(self, doc):
        try:
            GeneratorSpec.from_json_dict(doc)
        except InvalidSpec:
            pass
