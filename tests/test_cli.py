import contextlib
import csv
import hashlib
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domsplit import (
    GeneratorSpec,
    InvalidSpec,
    Mat2C,
    MatrixSequence,
    Thresholds,
    build_with_truth,
    dist,
    dump_sequence,
    estimate_fields,
    invariance_residual,
    load_sequence,
    ueg_check,
)
from domsplit import DomsplitError, __version__, avalanche, cli, cocycle, conditions
from domsplit.avalanche import ApReport
from domsplit.cli import _dump_json, main
from domsplit.conditions import RateFit
from domsplit.generators import FAMILIES

from conftest import column_rows, rank_one_window, vanishing
from test_readme_examples import GOLDEN, assert_same


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_writer_text(rows, header):
    """The text csv.writer gives the header and then the rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_load_dump_gives_gen_bytes(self, tmp_path, capsys, family):
        """A generated file read back and written out is gen's own file,
        its source block included."""
        out, back = tmp_path / "g.json", tmp_path / "b.json"
        code, _, _ = run(capsys, "gen", "--family", family, "--seed", "3",
                         "--window", "-30", "30", "--out", str(out))
        assert code == 0
        dump_sequence(load_sequence(str(out)), str(back))
        assert back.read_bytes() == out.read_bytes()
        assert json.loads(out.read_text())["source"]["family"] == family

    @pytest.mark.parametrize("family", ["example1", "schrodinger", "random_singular"])
    def test_stdout_gives_file_bytes(self, tmp_path, capsys, family):
        """gen --out - writes the bytes of gen --out FILE: one writer of the format."""
        out = tmp_path / "g.json"
        argv = ("gen", "--family", family, "--seed", "3", "--window", "-30", "30", "--out")
        assert run(capsys, *argv, str(out))[0] == 0
        code, text, _ = run(capsys, *argv, "-")
        assert code == 0 and text.encode() == out.read_bytes()

    @pytest.mark.parametrize("option", [("--input", "seq.json"), ("--format", "csv"),
                                        ("--table",)], ids=lambda o: o[0])
    def test_report_options_refused(self, capsys, option):
        # gen writes a sequence file, so it takes none of the options a report reads
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "example1", "--window", "-2", "2", *option])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

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
        assert [r[0] for r in got] == [r[0] for r in want]
        for g, w in zip(got, want):  # numpy's arithmetic against the scalar engine's
            assert g[1:] == pytest.approx(w[1:], rel=0, abs=1e-12), g[0]

    @pytest.mark.parametrize("family", ["diagonal", "conjugated_dominated"])
    def test_text_points(self, capsys, family):
        """The text names E^s at infinity as inf and a real point by its real
        part (diagonal), and a complex point as re+imi (conjugated): each is
        the affine coordinate of the JSON record."""
        argv = ("split", "--family", family, "--window", "-30", "30", "--jrange", "-2", "2")
        code, out, _ = run(capsys, *argv)
        _, doc, _ = run(capsys, *argv, "--format", "json")
        fields = json.loads(doc)["result"]["fields"]
        lines = out.splitlines()[1:-1]
        assert code == 0 and len(lines) == len(fields) == 5
        for line, rec in zip(lines, fields):
            texts = re.search(r"Es=(\S+)  Eu=(\S+)", line).groups()
            if family == "diagonal":
                assert texts == ("inf", "0")
                continue
            for text, (x, y) in zip(texts, (rec["Es"], rec["Eu"])):
                assert text.endswith("i")
                assert complex(text[:-1] + "j") == pytest.approx(complex(x, y), rel=1e-11)

    @pytest.mark.parametrize("window", ["rank_one", "conjugated_dominated"])
    def test_separations_are_dist(self, tmp_path, capsys, window):
        if window == "rank_one":
            seq = rank_one_window(5)
        else:
            seq, _ = build_with_truth(GeneratorSpec(window, (-45, 45), seed=2))
        path = str(tmp_path / "s.json")
        dump_sequence(seq, path)
        code, out, _ = run(capsys, "split", "--input", path, "--format", "json")
        result = json.loads(out)["result"]
        sweep = estimate_fields(seq, None, 40, 1e-9)
        want = [dist(sweep.es[j], sweep.eu[j]) for j in sorted(sweep.es)]
        assert len(want) > 20
        got = [r["separation"] for r in result["fields"]]
        assert got == pytest.approx(want, rel=0, abs=1e-12)  # distances lie in [0, 2]
        assert result["min_separation"] == min(got)
        assert result["min_separation"] == pytest.approx(min(want), rel=0, abs=1e-12)

    @pytest.mark.parametrize("window", ["rank_one", "conjugated_dominated", "unitary",
                                        "random_singular"])
    def test_csv_and_steps_match_the_records(self, tmp_path, capsys, window):
        # the steps, residuals and csv are written from arrays; written from
        # the per-site dicts and the field records instead, they are the same
        if window == "rank_one":
            seq = rank_one_window(5)
        else:
            params = {"insertions": [0]} if window == "random_singular" else {}
            lo = -10 if window == "unitary" else -45  # the unitary sites all fail
            seq, _ = build_with_truth(GeneratorSpec(window, (lo, -lo), params, 2))
        path = str(tmp_path / "s.json")
        dump_sequence(seq, path)
        code, out, _ = run(capsys, "split", "--input", path, "--format", "json", "--table")
        result = json.loads(out)["result"]
        sweep = estimate_fields(seq, None, 40, 1e-9)
        assert [r["j"] for r in result["fields"]] == sorted(sweep.certs)
        for rec in result["fields"]:
            cert = sweep.certs[rec["j"]]
            assert rec["s_steps"] == [[n, d] for n, d in sorted(cert.s_steps.items())]
            assert rec["u_steps"] == [[n, d] for n, d in sorted(cert.u_steps.items())]
        js, res_s, res_u = cocycle.invariance_residuals(sweep)
        assert result["invariance_residuals"] == column_rows((js, res_s, res_u))

        def flat(v):
            return "inf" if v == "inf" else f"{v[0]!r}+{v[1]!r}j"
        rows = [[r["j"], flat(r["Es"]), flat(r["Eu"]), r["separation"], r["n_star_s"],
                 r["n_star_u"]] for r in result["fields"]]
        csv_code, csv_out, _ = run(capsys, "split", "--input", path, "--format", "csv")
        assert csv_code == code
        assert csv_out == csv_writer_text(rows, ["j", "Es", "Eu", "separation", "n_star_s",
                                                 "n_star_u"])


class TestEmptyJrange:
    """No site estimated is no evidence: an explicit empty jrange is a usage
    error, and a default jrange that holds no site is inconclusive."""

    SHORT = ("--family", "conjugated_dominated", "--seed", "3", "--window", "0", "4")

    def test_split_default_jrange_on_short_window_exit3(self, capsys):
        code, out, _ = run(capsys, "split", *self.SHORT, "--format", "json")
        assert code == 3
        result = json.loads(out)["result"]
        assert result["fields"] == [] and result["failed_js"] == []

    @pytest.mark.parametrize("verb", ["split", "dom"])
    def test_reversed_jrange_exit2(self, capsys, verb):
        code, out, err = run(capsys, verb, "--family", "conjugated_dominated", "--seed", "3",
                             "--window", "-30", "30", "--jrange", "3", "1")
        assert code == 2 and out == ""
        assert "jrange [3, 1] is empty" in err

    def test_dom_default_jrange_on_short_window_stays_inconclusive(self, capsys):
        code, out, _ = run(capsys, "dom", *self.SHORT, "--format", "json")
        assert code == 3
        assert json.loads(out)["result"]["verdict"] == "inconclusive"

    def test_one_site_jrange_still_runs(self, capsys):
        code, out, _ = run(capsys, "split", "--family", "conjugated_dominated", "--seed", "3",
                           "--window", "-30", "30", "--jrange", "2", "2", "--format", "json")
        assert code == 0
        assert [r["j"] for r in json.loads(out)["result"]["fields"]] == [2]


class TestParserReuse:
    def test_shared_parser_answers_as_a_fresh_one(self, capsys):
        """main builds its parser once; a usage error, a run and --version
        through the shared parser print what a fresh parser prints."""
        calls = (["dom", "--nmax", "x"],
                 ["dom", "--family", "diagonal", "--window", "-20", "20", "--format", "json"],
                 ["--version"])

        def answer(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        shared = [answer(argv) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(answer(argv))
        assert [a[0] for a in shared] == [2, 0, 0]
        assert shared == fresh


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

    @pytest.mark.parametrize("argv, code, digest", [
        # every sweep layer is degenerate, and the tables hold log ratios of
        # about 1e-16
        (("dom", "--family", "unitary", "--window", "-45", "45", "--format", "json", "--table"),
         3, "e453b577716e06984c5d7afb0396fc55b548f53e1a380d3ab6ed5be262521964"),
        (("dom", "--family", "unitary", "--window", "-45", "45", "--format", "csv"),
         3, "ae649d1255e311672b293699c627c06bc628227e73d8c2d728b3ae14cc414c0e"),
        # steps below 1e-10 and in [1e-10, 1e-4) in the sites' step tables
        (("split", "--family", "example1", "--window", "-45", "45", "--format", "json", "--table"),
         0, "5a6ad6ddfb9ca8eba9a4cfe2181dba1dd2c0003a481d041d3809e7cb83324170"),
    ])
    def test_report_bytes_are_pinned(self, capsys, argv, code, digest):
        got, out, _ = run(capsys, *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_text_and_csv_build_no_fields(self, capsys, fmt):
        """Neither format prints a field, so neither builds the per-site
        points, certificates or rate fits."""
        argv = ("dom", "--family", "conjugated_dominated", "--seed", "3",
                "--window", "-30", "30", "--jrange", "-6", "6", "--format", fmt)
        want = run(capsys, *argv)
        built = AssertionError("a per-site field was built")
        with mock.patch.object(cocycle, "_fit_rates", side_effect=built), \
                mock.patch.object(cocycle, "ProjPoint", side_effect=built), \
                mock.patch.object(cocycle, "ConvergenceCert", side_effect=built):
            got = run(capsys, *argv)
        assert got == want and got[0] == 0


def object_record(j, es, eu, cert):
    """A site's field record built from its ProjPoints and certificate: the
    per-site objects that the records were once written from."""
    def point(p):
        z = p.affine
        return "inf" if z is None else [z.real, z.imag]
    return {"j": j, "Es": point(es), "Eu": point(eu), "n_star_s": cert.n_star_s,
            "n_star_u": cert.n_star_u, "rate_s": cert.rate_s, "rate_u": cert.rate_u}


class TestFieldRecords:
    @pytest.mark.parametrize("jrange", [(), ("--jrange", "-6", "6")])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_dom_and_split_write_the_object_records(self, capsys, family, seed, jrange):
        """dom's fields are split's records less separation, and each is the
        record of the sweep's ProjPoints and certificate."""
        argv = ("--family", family, "--seed", str(seed), "--window", "-30", "30", *jrange,
                "--format", "json")
        _, dom, _ = run(capsys, "dom", *argv)
        _, split, _ = run(capsys, "split", *argv)
        dom = json.loads(dom)["result"]["fields"]
        split = json.loads(split)["result"]["fields"]
        assert [{k: v for k, v in rec.items() if k != "separation"} for rec in split] == dom
        seq, _ = cli._resolve_sequence(cli._build_parser().parse_args(["dom", *argv]))
        sweep = estimate_fields(seq, tuple(map(int, jrange[1:])) or None, 40, 1e-9)
        want = [object_record(j, sweep.es[j], sweep.eu[j], sweep.certs[j])
                for j in sorted(sweep.es)]
        assert dom == json.loads(_dump_json(want))

    @pytest.mark.parametrize("verb, fmt", [
        ("dom", ("--format", "json")), ("dom", ("--format", "json", "--table")),
        *[("split", f) for f in (("--format", "json"), ("--format", "json", "--table"),
                                 ("--format", "csv"), ("--format", "text"), ("--table",))],
    ])
    @pytest.mark.parametrize("case", [
        ("conjugated_dominated", "3", ("--jrange", "-6", "6")),
        ("conjugated_dominated", "3", ()),  # some sites fail
        ("diagonal", "0", ()),  # E^s at infinity
        ("unitary", "2", ()),  # no site converges
    ])
    def test_verbs_read_no_per_site_object(self, capsys, verb, fmt, case):
        family, seed, jrange = case
        argv = (verb, "--family", family, "--seed", seed, "--window", "-45", "45", *jrange,
                *fmt)
        want = run(capsys, *argv)
        built = AssertionError("a verb read a per-site object")
        raising = property(mock.Mock(side_effect=built))
        with mock.patch.multiple(cocycle.ProductSweep, es=raising, eu=raising, certs=raising):
            got = run(capsys, *argv)
            with pytest.raises(AssertionError, match="per-site"):
                estimate_fields(rank_one_window(5), None, 10, 1e-9).certs
        assert got == want and "internal error" not in got[2]


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

    @pytest.mark.parametrize("params, code", [
        ('{"mu": 1e3}', 2),  # once built the sequence at --mu 1e4, silently
        ('{"mu": "x"}', 2),
        ('{"mu": 1e4}', 0),
        ('{"mu": 10000}', 0),
    ])
    def test_params_mu_must_match_mu(self, capsys, params, code):
        got, out, err = run(capsys, "ap", "--family", "ap_family", "--params", params,
                            "--window", "0", "30", "--mu", "1e4", "--nmax", "10")
        assert got == code
        if code == 2:
            assert out == ""
            mu = repr(json.loads(params)["mu"])
            assert err == f"domsplit ap: --params mu {mu} differs from --mu 10000.0\n"

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


    # recorded before ApReport kept its residuals as a grid; `ap` must still
    # write these documents
    AP_GOLDEN = ("--family", "ap_family", "--params", '{"mu": 1e3}', "--seed", "3",
                 "--window", "0", "30", "--mu", "1e3", "--nmax", "10")

    @pytest.mark.parametrize("fmt, golden", [(("--format", "csv"), "ap_table.csv"),
                                             (("--format", "json", "--table"), "ap_table.json")])
    def test_table_matches_golden(self, capsys, fmt, golden):
        code, out, _ = run(capsys, "ap", *self.AP_GOLDEN, *fmt)
        assert code == 0
        assert_same(out, (GOLDEN / golden).read_text(encoding="utf-8"), golden)

    def test_table_is_the_sorted_residual_dict(self, capsys):
        # the rows come from the grid; written from the sorted dict instead,
        # the documents are the same bytes
        from domsplit import ap_report

        seq, _ = build_with_truth(GeneratorSpec("ap_family", (0, 30), {"mu": 1e3}, 3))
        rows = [[j, n, r, n * 1e3 ** -0.5] for (j, n), r in
                sorted(ap_report(seq, 1e3, 10).residuals.items())]
        code, out, _ = run(capsys, "ap", *self.AP_GOLDEN, "--format", "csv")
        assert code == 0 and out == csv_writer_text(rows, ["j", "n", "residual", "bound"])
        code, out, _ = run(capsys, "ap", *self.AP_GOLDEN, "--format", "json", "--table")
        doc = json.loads(out)
        assert code == 0 and doc["result"]["residuals"] == rows
        assert out == _dump_json(doc)


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

    VERBS = [("dom",), ("dom", "--format", "json", "--table"), ("svg", "--format", "csv"),
             ("fi",), ("split",), ("ap", "--mu", "100", "--format", "json", "--table")]

    @staticmethod
    def _window_at(tmp_path, lo):
        """A 30-site conjugated_dominated document moved to start at lo."""
        seq, _ = build_with_truth(GeneratorSpec("conjugated_dominated", (0, 29), {}, 1))
        path = tmp_path / "far.json"
        dump_sequence(MatrixSequence({lo + j: seq[j] for j in seq.indices()}, seq.bound_M),
                      str(path))
        return str(path)

    # a window past int64 once loaded, and then every verb overflowed the
    # sweep's site arithmetic (exit 3, internal error)
    @pytest.mark.parametrize("lo", [2 ** 63, -(2 ** 63) - 40, 2 ** 62 - 28, -(2 ** 62) - 1])
    @pytest.mark.parametrize("verb", VERBS, ids=" ".join)
    def test_window_past_index_bound_exit2(self, tmp_path, capsys, lo, verb):
        doc = {"window": [lo, lo + 29], "bound_M": 3.0,
               "entries": [_entry(j) for j in range(lo, lo + 30)]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, verb[0], "--input", str(path), "--nmax", "10", *verb[1:])
        assert code == 2 and out == ""
        assert err == (f"domsplit {verb[0]}: window [{lo}, {lo + 29}] reaches past the "
                       f"index bound +-2^62 = +-{cocycle.INDEX_BOUND}\n")

    @pytest.mark.parametrize("lo", [2 ** 62 - 29, -(2 ** 62)])
    @pytest.mark.parametrize("verb", VERBS, ids=" ".join)
    def test_window_at_index_bound_runs(self, tmp_path, capsys, lo, verb):
        code, out, err = run(capsys, verb[0], "--input", self._window_at(tmp_path, lo),
                             "--nmax", "10", *verb[1:])
        assert code in (0, 1, 3) and out and err == ""

    @pytest.mark.parametrize("window", [(2 ** 62 - 28, 2 ** 62 + 1),
                                        (-(2 ** 62) - 1, -(2 ** 62) + 28)])
    def test_generated_window_past_index_bound_exit2(self, capsys, window):
        code, out, err = run(capsys, "dom", "--family", "example1",
                             "--window", *map(str, window), "--nmax", "10")
        assert code == 2 and out == "" and "index bound" in err

    def test_restrict_at_index_bound(self):
        lo = -(2 ** 62)
        seq = MatrixSequence({j: Mat2C(2.0, 0.0, 0.0, 1.0) for j in range(lo, lo + 5)}, 4.0)
        assert seq.restrict(lo, lo + 1).window == (lo, lo + 1)
        with pytest.raises(InvalidSpec, match="index bound"):
            MatrixSequence({lo - 1: Mat2C(2.0, 0.0, 0.0, 1.0)}, 4.0)

    @pytest.mark.parametrize("verb,nmax", [("svg", "0"), ("fi", "0"), ("dom", "0"),
                                           ("dom", "-3"), ("split", "0")])
    def test_nmax_below_one_exit2(self, capsys, verb, nmax):
        code, _, err = run(capsys, verb, "--family", "diagonal", "--window", "-20", "20",
                           "--nmax", nmax)
        assert code == 2
        assert "n_max" in err

    # each of these once escaped the loader as a raw OverflowError or ValueError,
    # except the five-pair entry, whose fifth pair was ignored, and the string
    # or boolean bound, which float() read as a number
    @pytest.mark.parametrize("where,text", [
        ("j", "1e999"),
        ("bound_M", "1" + "0" * 400),
        ("window", '["a", "b"]'),
        ("m", "[[1.7e308, 1.7e308], [0, 0], [0, 0], [1, 0]]"),
        ("m", "[[1, 0], [0, 0], [0, 0], [1, 0], [5, 5]]"),
        ("bound_M", '"4"'),
        ("bound_M", "true"),
    ], ids=["j-inf", "bound-400-digits", "window-strings", "entry-overflows", "entry-five-pairs",
            "bound-string", "bound-true"])
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

    def test_duplicate_site_exit2(self, tmp_path, capsys):
        """A file that lists a site twice is refused: it once loaded, and the
        last entry won."""
        path = tmp_path / "s.json"
        run(capsys, "gen", "--family", "conjugated_dominated", "--seed", "3",
            "--window", "-30", "30", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["entries"].append({"j": 10, "m": [[2, 0], [0, 0], [0, 0], [1, 0]]})
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "dom", "--input", str(path), "--jrange", "-6", "6")
        assert (code, out) == (2, "")
        assert err == "domsplit dom: malformed sequence document: entry j=10 appears twice\n"

    def test_spec_fractional_seed_exit2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"family": "diagonal", "window": [0, 3], "params": {}, "seed": 2.7}')
        code, out, err = run(capsys, "gen", "--spec", str(spec), "--out", str(tmp_path / "o.json"))
        assert code == 2
        assert err.startswith("domsplit gen: malformed generator spec")

    # each of these once ended in a traceback (exit 3) or was silently misread
    @pytest.mark.parametrize("family,params,name", [
        ("conjugated_dominated", '{"lplus_range": [2]}', "lplus_range"),
        ("conjugated_dominated", '{"lplus_range": "ab"}', "lplus_range"),
        ("conjugated_dominated", '{"lplus_range": [2, 1e400]}', "lplus_range"),
        ("conjugated_dominated", '{"sep_lo": "x"}', "sep_lo"),
        ("conjugated_dominated", '{"theta": "x"}', "theta"),
        ("conjugated_dominated", '{"rate_mode": "bogus"}', "rate_mode"),
        ("ap_family", '{"mu": "x"}', "mu"),
        ("ap_family", '{"mu": 1e400}', "mu"),
        ("unitary", '{"angle": "x"}', "angle"),
        ("random_bounded", '{"scale": 1e308}', "scale"),
        ("random_singular", '{"insertions": ["a"]}', "insertions"),
        ("random_singular", '{"insertions": [0.5]}', "insertions"),
        ("random_singular", '{"insertions": [0], "misaligned": "false"}', "misaligned"),
        ("random_singular", '{"insertions": [0], "misaligned": 0}', "misaligned"),
        # a key the family does not read: a misspelt one once fell back to its default
        ("conjugated_dominated", '{"lplus_rnage": [5, 6]}', "lplus_rnage"),
        ("conjugated_dominated", '{"insertions": [0]}', "insertions"),
        ("random_singular", '{"insertions": [0], "misalinged": true}', "misalinged"),
        ("example1", '{"mu": 2}', "mu"),
        ("diagonal", '{"lplus": 3, "energy": 1}', "energy"),
        ("ap_family", '{"angle": 0.3}', "angle"),
    ])
    def test_malformed_params_exit2(self, tmp_path, capsys, family, params, name):
        code, out, err = run(capsys, "gen", "--family", family, "--window", "-5", "5",
                             "--params", params, "--out", str(tmp_path / "o.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("domsplit gen: ") and "internal error" not in err
        assert repr(name) in err

    def test_misaligned_takes_json_booleans(self, tmp_path, capsys):
        def gen(name, *extra):
            path = tmp_path / f"{name}.json"
            code, _, _ = run(capsys, "gen", "--family", "random_singular", "--window", "-5", "5",
                             *extra, "--out", str(path))
            assert code == 0
            return json.loads(path.read_text())["entries"]

        default = gen("default", "--params", '{"insertions": [0]}')
        flag = gen("flag", "--insertions", "0", "--misaligned")
        assert gen("false", "--params", '{"insertions": [0], "misaligned": false}') == default
        assert gen("true", "--params", '{"insertions": [0], "misaligned": true}') == flag
        assert flag != default

    # each flag once overwrote a different value of --params silently
    @pytest.mark.parametrize("family, params, flag, message", [
        ("diagonal", '{"lplus": 3}', ("--lplus", "5"), "lplus 3 differs from --lplus 5.0"),
        ("diagonal", '{"lminus": 0.5}', ("--lminus", "0.25"),
         "lminus 0.5 differs from --lminus 0.25"),
        ("schrodinger", '{"energy": 1}', ("--energy", "2"), "energy 1 differs from --energy 2.0"),
        ("schrodinger", '{"potential": "zeros"}', ("--potential", "[1, -1, 0]"),
         "potential 'zeros' differs from --potential [1, -1, 0]"),
        ("conjugated_dominated", '{"theta": 0.3}', ("--theta", "0.4"),
         "theta 0.3 differs from --theta 0.4"),
        ("conjugated_dominated", '{"rate_mode": "constant"}', ("--rate-mode", "perstep"),
         "rate_mode 'constant' differs from --rate-mode 'perstep'"),
        ("random_singular", '{"insertions": [0]}', ("--insertions", "1"),
         "insertions [0] differs from --insertions [1]"),
        ("random_singular", '{"insertions": [0], "misaligned": false}', ("--misaligned",),
         "misaligned False differs from --misaligned True"),
        # a JSON boolean and a number are different values, though 1 == True
        ("random_singular", '{"insertions": [0], "misaligned": 1}', ("--misaligned",),
         "misaligned 1 differs from --misaligned True"),
        ("diagonal", '{"lplus": true}', ("--lplus", "1"), "lplus True differs from --lplus 1.0"),
        ("random_singular", '{"insertions": [true]}', ("--insertions", "1"),
         "insertions [True] differs from --insertions [1]"),
    ])
    def test_family_flag_differs_from_params_exit2(self, tmp_path, capsys, family, params,
                                                   flag, message):
        code, out, err = run(capsys, "gen", "--family", family, "--window", "0", "2",
                             "--params", params, *flag, "--out", str(tmp_path / "o.json"))
        assert code == 2 and out == ""
        assert err == f"domsplit gen: --params {message}\n"

    @pytest.mark.parametrize("family, params, flag", [
        ("diagonal", '{"lplus": 3}', ("--lplus", "3")),
        ("diagonal", '{"lminus": 0.5}', ("--lminus", "0.5")),
        ("schrodinger", '{"energy": 1}', ("--energy", "1.0")),
        ("schrodinger", '{"potential": [1, -1, 0]}', ("--potential", "[1, -1, 0]")),
        ("conjugated_dominated", '{"theta": 0.3}', ("--theta", "0.3")),
        ("conjugated_dominated", '{"rate_mode": "constant"}', ("--rate-mode", "constant")),
        ("random_singular", '{"insertions": [0, 2]}', ("--insertions", "0", "2")),
        ("random_singular", '{"insertions": [0], "misaligned": true}', ("--misaligned",)),
    ])
    def test_family_flag_equal_to_params_runs(self, tmp_path, capsys, family, params, flag):
        def entries(name, *extra):
            path = tmp_path / f"{name}.json"
            code, _, err = run(capsys, "gen", "--family", family, "--window", "0", "2",
                               "--params", params, *extra, "--out", str(path))
            assert code == 0, err
            return json.loads(path.read_text())["entries"]

        assert entries("both", *flag) == entries("params")

    def test_potential_as_list_table_or_file(self, tmp_path, capsys):
        """--potential takes inline JSON or, as the README says, a JSON file
        path; --params takes a list or a {j: v} table: each builds the same
        entries."""
        pot = tmp_path / "pot.json"
        pot.write_text("[1, -1, 0.5]")

        def entries(*extra):
            path = tmp_path / "o.json"
            code, _, err = run(capsys, "gen", "--family", "schrodinger", "--window", "0", "2",
                               *extra, "--out", str(path))
            assert code == 0, err
            return json.loads(path.read_text())["entries"]

        want = entries("--potential", "[1, -1, 0.5]")
        assert entries("--potential", str(pot)) == want
        assert entries("--params", '{"potential": {"0": 1, "1": -1, "2": 0.5}}') == want
        assert entries() != want  # the zero potential

    def test_params_not_an_object_exit2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--family", "diagonal", "--window", "0", "3",
                           "--params", "[1]", "--out", str(tmp_path / "o.json"))
        assert code == 2
        assert err == "domsplit gen: --params must be a JSON object\n"

    def test_empty_fit_does_not_pass(self, capsys):
        # n <= 1 leaves no n >= fit_n_lo = 2 to fit: no evidence either way
        code, out, _ = run(capsys, "svg", "--family", "example1", "--window", "-20", "20",
                           "--nmax", "1", "--format", "json")
        assert code == 3
        assert json.loads(out)["result"]["passed"] is False


class TestNonFiniteOptions:
    """Every float option is parsed as a finite float: nan and inf are usage
    errors (exit 2), never a witnessed failure or an inconclusive run.  So
    are finite values outside an option's range."""

    AP = ("ap", "--family", "ap_family", "--window", "0", "30")
    DIAG = ("--family", "diagonal", "--window", "0", "20")
    CASES = [
        (AP, "--mu", "nan"),
        (AP, "--mu", "inf"),
        (AP + ("--mu", "1e3"), "--envelope", "nan"),
        (("svg",) + DIAG, "--mu-min", "nan"),
        (("fi",) + DIAG, "--epsilon", "nan"),
        (("dom",) + DIAG, "--epsilon", "inf"),
        (("dom",) + DIAG, "--sep-min", "-inf"),
        (("split",) + DIAG, "--tol", "nan"),
        (("gen", "--family", "diagonal", "--window", "0", "5"), "--lplus", "inf"),
    ]

    @pytest.mark.parametrize("base, option, value", CASES,
                             ids=[f"{c[0][0]} {c[1]} {c[2]}" for c in CASES])
    def test_exit2(self, capsys, base, option, value):
        with pytest.raises(SystemExit) as info:
            main([*base, f"{option}={value}"])
        assert info.value.code == 2
        assert f"argument {option}: '{value}' is not a finite number" in capsys.readouterr().err

    RANGE_CASES = [
        (("svg",) + DIAG + ("--mu-min", "0"), "domsplit svg: mu_min must be positive, got 0.0"),
        (("fi",) + DIAG + ("--mu-min", "-1"), "domsplit fi: mu_min must be positive, got -1.0"),
        (("dom",) + DIAG + ("--mu-min", "-0"), "domsplit dom: mu_min must be positive, got -0.0"),
        (AP + ("--mu", "1e3", "--envelope", "-1"),
         "domsplit ap: envelope must be finite and at least 0, got -1.0"),
        (AP + ("--mu", "1e3", "--nmax", "2"), "domsplit ap: n_max must be at least 3, got 2"),
        (("ap",) + DIAG + ("--mu", "1"), "domsplit ap: mu must exceed 1 and be finite, got 1.0"),
        (("dom",) + DIAG + ("--ncap", "0"), "domsplit dom: n_cap must be at least 1, got 0"),
        (("dom",) + DIAG + ("--ncap", "-3"), "domsplit dom: n_cap must be at least 1, got -3"),
        (("dom",) + DIAG + ("--tol", "0"), "domsplit dom: split_tol must be positive, got 0.0"),
        (("split",) + DIAG + ("--tol", "0"), "domsplit split: tol must be positive, got 0.0"),
        (("dom",) + DIAG + ("--sep-min", "-1"),
         "domsplit dom: sep_min must be at least 0, got -1.0"),
        (("dom",) + DIAG + ("--sep-min", "2"),
         "domsplit dom: sep_min must be below 2, the largest chordal distance, got 2.0"),
        (("dom",) + DIAG + ("--tol", "1e308"),
         "domsplit dom: split_tol must be at most 2, the largest chordal distance, got 1e+308"),
        (("split",) + DIAG + ("--tol", "3"),
         "domsplit split: tol must be at most 2, the largest chordal distance, got 3.0"),
        (("dom",) + DIAG + ("--jrange", "-1", "5"),
         "domsplit dom: jrange [-1, 5] outside window [0, 20]"),
        (("split",) + DIAG + ("--jrange", "15", "21"),
         "domsplit split: jrange [15, 21] outside window [0, 20]"),
        (("dom",) + DIAG + ("--params", "nope"),
         "domsplit dom: --params is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (("dom", "--nmax", "10"), "domsplit dom: one of --input or --family is required"),
        (("split", "--family", "diagonal"), "domsplit split: --family needs --window LO HI"),
        (("gen", "--family", "diagonal"),
         "domsplit gen: gen needs --family and --window (or --spec)"),
        (("gen", "--family", "schrodinger", "--window", "0", "2",
          "--params", '{"potential": {"0": 1, "2": 0}}'),
         "domsplit gen: potential table misses sites [1]"),
        (("gen", "--family", "diagonal", "--window", "0", "5", "--lminus", "0"),
         "domsplit gen: diagonal family needs lminus != 0"),
        (("gen", "--family", "conjugated_dominated", "--window", "0", "5",
          "--params", '{"sep_lo": 0}'),
         "domsplit gen: conjugator separation range must sit inside (0, 1]"),
        (("gen", "--family", "conjugated_dominated", "--window", "0", "5",
          "--params", '{"sep_hi": 1.5}'),
         "domsplit gen: conjugator separation range must sit inside (0, 1]"),
        # one constant rate pair for the whole window, drawn with |lambda+| < |lambda-|
        (("gen", "--family", "conjugated_dominated", "--window", "0", "5", "--rate-mode",
          "constant", "--params", '{"lplus_range": [0.5, 0.6], "lminus_range": [0.7, 0.8]}'),
         "domsplit gen: conjugated family needs |lambda+| > |lambda-| > 0"),
        # a mistyped inline potential is a JSON error, not a missing file
        (("gen", "--family", "schrodinger", "--window", "0", "2", "--potential", "[1, -1"),
         "domsplit gen: --potential is not a file or valid JSON: "
         "Expecting ',' delimiter: line 1 column 7 (char 6)"),
        # no generator reads these with --input or --spec; the file is never opened
        (("dom", "--input", "seq.json", "--seed", "3"),
         "domsplit dom: --seed is not read with --input"),
        (("dom", "--input", "seq.json", "--seed", "0"),
         "domsplit dom: --seed is not read with --input"),
        (("split", "--input", "seq.json", "--params", '{"mu": 3}'),
         "domsplit split: --params is not read with --input"),
        (("dom", "--input", "seq.json", "--jrange", "-2", "2", "--lplus", "3"),
         "domsplit dom: --lplus is not read with --input"),
        (("svg", "--input", "seq.json", "--theta", "1", "--energy", "2"),
         "domsplit svg: --energy is not read with --input"),
        (("fi", "--input", "seq.json", "--potential", "zeros"),
         "domsplit fi: --potential is not read with --input"),
        (("dom", "--input", "seq.json", "--rate-mode", "constant"),
         "domsplit dom: --rate-mode is not read with --input"),
        (("ap", "--input", "seq.json", "--mu", "1e3", "--insertions"),
         "domsplit ap: --insertions is not read with --input"),
        (("dom", "--input", "seq.json", "--misaligned"),
         "domsplit dom: --misaligned is not read with --input"),
        (("gen", "--spec", "spec.json", "--seed", "2", "--family", "diagonal"),
         "domsplit gen: --family is not read with --spec"),
        (("gen", "--spec", "spec.json", "--window", "0", "5"),
         "domsplit gen: --window is not read with --spec"),
        (("gen", "--spec", "spec.json", "--lminus", "0.5"),
         "domsplit gen: --lminus is not read with --spec"),
    ]

    @pytest.mark.parametrize("argv, message", RANGE_CASES,
                             ids=[" ".join((c[0][0], *c[0][-2:])) for c in RANGE_CASES])
    def test_out_of_range_exit2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == message + "\n"

    def test_non_number_message_unchanged(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ap", "--family", "ap_family", "--window", "0", "30", "--mu", "abc"])
        assert info.value.code == 2
        assert "invalid float value: 'abc'" in capsys.readouterr().err

    def test_finite_values_still_parse(self, capsys):
        code, _, _ = run(capsys, "ap", "--family", "ap_family", "--window", "0", "30",
                         "--mu", "1e3", "--envelope", "5", "--nmax", "10")
        assert code == 0


class TestFiniteEdges:
    """The thresholds end where the quantity they bound ends, and `ap`
    passes only on a residual and a pair: each of these inputs once gave a
    verdict on no evidence, or a witness that any fields would give."""

    def test_sep_min_two_is_refused(self, capsys):
        # orthogonal fields, d(Eu, Es) = 2: once exit 1, "separation collapse"
        argv = ("dom", "--family", "diagonal", "--window", "-30", "30", "--sep-min")
        code, out, err = run(capsys, *argv, "2")
        assert (code, out) == (2, "")
        assert err.startswith("domsplit dom: sep_min must be below 2")
        code, out, _ = run(capsys, *argv, repr(math.nextafter(2.0, 0.0)))
        assert code == 0 and "verdict        : dominated" in out

    def test_tol_past_two_is_refused(self, capsys):
        # once exit 0, dominated: every step closed a run
        window = ("--family", "conjugated_dominated", "--seed", "1", "--window", "-30", "30")
        for verb in ("dom", "split"):
            code, out, err = run(capsys, verb, *window, "--tol", "1e308")
            assert (code, out) == (2, "")
            assert "must be at most 2, the largest chordal distance" in err
        code, _, err = run(capsys, "dom", *window, "--jrange", "-6", "6", "--tol", "2")
        assert code in (0, 1, 3) and err == ""

    @pytest.mark.parametrize("hi", [0, 1])
    def test_ap_without_residual_is_inconclusive(self, capsys, hi):
        # once exit 0, "verdict: pass" with C_fit None (and ap4 0 on one factor)
        argv = ("ap", "--family", "ap_family", "--params", '{"mu": 1e4}', "--mu", "1e4",
                "--nmax", "3", "--window", "0", str(hi))
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert "residual C_fit      : None" in out
        assert "verdict             : inconclusive" in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 3 and json.loads(out)["result"]["passed"] is False

    def test_ap_with_one_residual_decides(self, capsys):
        code, out, _ = run(capsys, "ap", "--family", "ap_family", "--params", '{"mu": 1e4}',
                           "--mu", "1e4", "--nmax", "3", "--window", "0", "2",
                           "--format", "json")
        result = json.loads(out)["result"]
        assert result["c_fit"] is not None
        assert code == (0 if result["passed"] else 1)


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
    # a flagged entry at a j past int64 once overflowed numpy's index arithmetic
    @example(doc={"window": [2 ** 63, 2 ** 63], "bound_M": 100.0,
                  "entries": [{"j": 2 ** 63, "m": [[0.0, 0.0]] * 4}]})
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


# Report documents: skeletons of objects and lists around grids of number rows.
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e22, 1e16, 0.1, 2.0 ** 70])
_NUMBERS = st.integers() | st.sampled_from([2 ** 70, -(2 ** 63)]) | st.booleans() | st.none()
_TEXT = st.text(alphabet=st.sampled_from(list(',[]"{}: \\\nabé ')), max_size=6)


def _documents(floats):
    number = _NUMBERS | floats
    grid = st.lists(st.lists(number, max_size=4), max_size=5)
    leaves = number | _TEXT | grid
    return st.recursive(leaves, lambda kids: (
        st.lists(kids, max_size=4)
        | st.dictionaries(_TEXT, kids, max_size=4)
        | st.dictionaries(st.integers(-3, 3) | st.sampled_from([0.5, -1e22]), kids, max_size=3)
    ), max_leaves=20)


def _named(o):
    """o with every non-finite float replaced by its name."""
    if isinstance(o, float) and not math.isfinite(o):
        return repr(o)
    if isinstance(o, list):
        return [_named(v) for v in o]
    if isinstance(o, dict):
        return {k: _named(v) for k, v in o.items()}
    return o


def _refuse(token):
    raise ValueError(f"non-JSON token {token}")


_CELLS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                          1e16, 1e22, -1e22])
_INTS = st.integers(-(2 ** 63), 2 ** 63 - 1) | st.integers(-3, 3)
# the edges of repr's two float forms (positional for 1e-4 <= |x| < 1e16),
# subnormals, integral floats around 2^53, the largest float and the names
_TINY = np.finfo(float).tiny
_EDGES = np.array([np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0),
                   1e16, np.nextafter(1e16, math.inf), 0.0, 5e-324, np.nextafter(_TINY, 0),
                   _TINY, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, np.finfo(float).max])
_EDGE_FLOATS = np.concatenate([_EDGES, -_EDGES, [math.inf, -math.inf, math.nan]])
_EDGE_INTS = np.resize([-(2 ** 63), 2 ** 63 - 1, -1, 0, 1], len(_EDGE_FLOATS))
_EDGE_COLUMNS = [_EDGE_INTS, _EDGE_FLOATS, _EDGE_FLOATS[::-1]]
# the edges of _cell_texts' bands (orjson's text below 1e-10, repr's in
# [1e-10, 1e-4) and from 1e16 up), 1e-9 and 1e-5, where repr's exponent
# takes a padding zero, and the least subnormal: each with its two
# neighbours, of both signs, and +-0, as bit patterns
_BAND_EDGES = np.array([1e-10, 1e-9, 1e-5, 1e-4, 1e16, 5e-324])
_BAND_CELLS = np.concatenate([np.nextafter(_BAND_EDGES, 0), _BAND_EDGES,
                              np.nextafter(_BAND_EDGES, math.inf), [0.0]])
_EDGE_BITS = np.concatenate([_BAND_CELLS, -_BAND_CELLS]).view(np.uint64).tolist()
_EMPTY_COLUMNS = [np.array([], dtype=np.int64), np.array([])]


@st.composite
def _column_grids(draw):
    """Int and float columns of one length, which may be 0."""
    count = draw(st.integers(0, 6))
    columns = []
    for kind in draw(st.lists(st.sampled_from([np.int64, np.float64]), min_size=1, max_size=4)):
        cells = _CELLS if kind is np.float64 else _INTS
        columns.append(np.array(draw(st.lists(cells, min_size=count, max_size=count)),
                                dtype=kind))
    return columns


def _library_tables(argv):
    """{key: rows} of the grids that the library gives for ``argv --table``."""
    from domsplit import ap_report, check_domination, fi_profile, svg_profile
    from domsplit.conditions import Thresholds

    args = cli._build_parser().parse_args(argv)
    seq, _ = cli._resolve_sequence(args)
    if args.command == "ap":
        return {"residuals": column_rows(ap_report(seq, args.mu, args.nmax).residual_columns())}
    if args.command == "dom":
        rep = check_domination(seq, Thresholds(n_max=args.nmax), jrange=args.jrange)
        return {"svg": column_rows(rep.svg.table_columns()),
                "fi": column_rows(rep.fi.table_columns())}
    profile = svg_profile if args.command == "svg" else fi_profile
    return {"table": column_rows(profile(seq, args.nmax).table_columns())}


def _report_tables(result, verb):
    """The --table grids of a report's result, keyed as ``_library_tables``."""
    if verb == "dom":
        return {"svg": result["svg"]["table"], "fi": result["fi"]["table"]}
    return {"residuals": result["residuals"]} if verb == "ap" else {"table": result["table"]}


class TestReportEncoder:
    """``_dump_json`` writes what json.dumps(indent=2, sort_keys=True) writes,
    except that non-finite floats are named strings."""

    @settings(max_examples=500, deadline=None)
    @given(_documents(_FINITE))
    def test_finite_documents_match_json(self, doc):
        assert _dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(_documents(st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])))
    def test_non_finite_floats_are_named(self, doc):
        payload = _dump_json(doc)
        assert payload == json.dumps(_named(doc), sort_keys=True, indent=2) + "\n"
        json.loads(payload, parse_constant=_refuse)

    def test_grid_tokens_and_rows(self):
        doc = {"g": [[1, math.inf], [-math.inf, math.nan, True, None], [-0.0]]}
        assert _dump_json(doc) == json.dumps({"g": [
            [1, "inf"], ["-inf", "nan", True, None], [-0.0]]}, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(_column_grids(), st.integers(0, 2))
    @example(columns=[np.array([-1, 0, 2]), np.array([3, 3, 2 ** 62]),
                      np.array([math.inf, -0.0, math.nan]), np.array([1e22, 5e-324, 1e16])],
             depth=1)
    @example(columns=_EMPTY_COLUMNS, depth=1)
    @example(columns=_EDGE_COLUMNS, depth=0)
    def test_columns_match_json_of_rows(self, columns, depth):
        rows = column_rows(columns)
        doc, want = cli._Columns(columns), rows
        for _ in range(depth):
            doc, want = {"t": [doc]}, {"t": [want]}
        assert _dump_json(doc) == json.dumps(_named(want), sort_keys=True, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(_column_grids())
    @example(columns=_EMPTY_COLUMNS)
    @example(columns=_EDGE_COLUMNS)
    def test_csv_table_matches_csv_writer(self, columns):
        header = [f"c{k}" for k in range(len(columns))]
        assert cli._csv_table(columns, header) == csv_writer_text(column_rows(columns), header)

    def test_cell_texts_are_repr_on_random_bit_patterns(self):
        # every finite float64, and again with exponents of the positional
        # form, so that a drift of orjson's text from repr's shows here
        rng = np.random.default_rng(20260601)
        bits = rng.integers(0, 2 ** 64, size=(2, 60_000), dtype=np.uint64)
        bits[1] = (bits[1] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (
            rng.integers(1023 - 14, 1023 + 54, size=60_000, dtype=np.uint64) << np.uint64(52))
        cells = bits.ravel().view(np.float64)
        cells = cells[np.isfinite(cells)]
        assert len(cells) >= 100_000
        assert cli._cell_texts(cells, '"') == list(map(float.__repr__, cells.tolist()))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=64))
    @example(bits=_EDGE_BITS)
    def test_cell_texts_are_repr_on_bit_patterns(self, bits):
        # orjson's own text is kept for every cell below 1e-10 in magnitude:
        # this pins that it writes those cells as repr does
        cells = np.array(bits, dtype=np.uint64).view(np.float64)
        names = {math.inf: '"inf"', -math.inf: '"-inf"'}
        want = [repr(x) if math.isfinite(x) else names.get(x, '"nan"') for x in cells.tolist()]
        assert cli._cell_texts(cells, '"') == want

    def test_unserialisable_values_raise(self):
        with pytest.raises(TypeError):
            _dump_json({"x": {1, 2}})
        with pytest.raises(TypeError):
            _dump_json({(1, 2): 0})

    @pytest.mark.parametrize("argv", [
        ["svg", "--family", "conjugated_dominated", "--seed", "3", "--window", "-30", "30",
         "--nmax", "20"],
        ["fi", "--family", "conjugated_dominated", "--seed", "3", "--window", "-30", "30",
         "--nmax", "20"],
        ["split", "--family", "conjugated_dominated", "--seed", "3", "--window", "-30", "30",
         "--jrange", "-6", "6"],
        ["dom", "--family", "conjugated_dominated", "--seed", "3", "--window", "-30", "30",
         "--jrange", "-6", "6"],
        ["ap", "--family", "ap_family", "--params", '{"mu": 1e4}', "--window", "0", "40",
         "--mu", "1e4", "--nmax", "25"],
    ], ids=["svg", "fi", "split", "dom", "ap"])
    def test_report_round_trip(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json", "--table")
        assert code == 0
        doc = json.loads(out, parse_constant=_refuse)
        assert _dump_json(doc) == out
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out
        if argv[0] != "split":  # the grids the CLI writes from columns
            assert _report_tables(doc["result"], argv[0]) == _library_tables(argv)


# cells of each of _cell_texts' bands: the names, [1e-10, 1e-4) and >= 1e16
# (repr's exponent forms), below 1e-10, positional, and the band edges
_STAIR_CELLS = st.sampled_from([math.inf, -math.inf, math.nan, 1.5e-5, -3e-10, 1e16, 2.5e300,
                                -7e22, 4e-300, 0.5, -0.0, 123.25, *_BAND_CELLS.tolist()])
_STAIR_PAD = 12345.0  # past the staircase: no row may read it


def _stair_grid(count, width, cells):
    """A count x width grid whose row k holds cells at its first width - k
    columns, in (k, column) order, and ``_STAIR_PAD`` past them."""
    grid = np.full((count, width), _STAIR_PAD)
    cells = iter(cells)
    for k in range(count):
        grid[k, :max(width - k, 0)] = [next(cells) for _ in range(max(width - k, 0))]
    return grid


_BAND_GRID = _stair_grid(4, 5, [math.inf, -math.inf, math.nan, 1e-10, 9.99e-5, 1e16, 1.5e17,
                                -2e-9, 3e-11, 0.1, -1e300, 5e-324, 42.0, -0.0])


@st.composite
def _staircases(draw):
    """(j0, n0, grid) of a staircase table: count may exceed width or be 0."""
    count, width = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(_STAIR_CELLS | st.floats(), min_size=count * width,
                          max_size=count * width))
    return draw(st.integers(-5, 5)), draw(st.integers(0, 4)), _stair_grid(count, width, cells)


_STAIR_EXAMPLES = [
    (-3, 0, _stair_grid(5, 2, [0.5, -1.5, 2.5])),  # count > width: depths past the last start
    (2, 1, np.empty((0, 4))),  # count 0: no row
    (0, 3, _stair_grid(3, 1, [7.0])),  # width 1
    (-7, 1, _BAND_GRID),  # a negative j0, the names and repr's exponent forms
]


class TestStaircaseWriter:
    """``_staircase_columns`` reads a report table off its staircase grid:
    the rows of ``RateFit.table_columns`` / ``ApReport.residual_columns``,
    as json.dumps and csv.writer write them."""

    @staticmethod
    def _fit_rows(rows):
        return column_rows(RateFit(0.0, 0.0, 0, 0, 0.0, {}, rows=rows).table_columns())

    @staticmethod
    def _ap_rows(rows, mu):
        report = ApReport(mu, 0.0, 0.0, True, 1.0, None, None, False, rows=rows)
        return column_rows(report.residual_columns())

    @settings(max_examples=300, deadline=None)
    @given(_staircases(), st.integers(0, 2))
    @example(rows=_STAIR_EXAMPLES[0], depth=1)
    @example(rows=_STAIR_EXAMPLES[1], depth=0)
    @example(rows=_STAIR_EXAMPLES[1], depth=2)
    @example(rows=_STAIR_EXAMPLES[2], depth=1)
    @example(rows=_STAIR_EXAMPLES[3], depth=2)
    def test_json_matches_the_rows(self, rows, depth):
        doc, want = cli._staircase_columns(rows), self._fit_rows(rows)
        for _ in range(depth):
            doc, want = {"t": [doc]}, {"t": [want]}
        assert _dump_json(doc) == json.dumps(_named(want), sort_keys=True, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(_staircases())
    @example(rows=_STAIR_EXAMPLES[0])
    @example(rows=_STAIR_EXAMPLES[1])
    @example(rows=_STAIR_EXAMPLES[2])
    @example(rows=_STAIR_EXAMPLES[3])
    def test_csv_matches_csv_writer(self, rows):
        header = ["j", "n", "ratio_log"]
        text = cli._csv_table(cli._staircase_columns(rows), header)
        assert text == csv_writer_text(self._fit_rows(rows), header)

    @pytest.mark.parametrize("mu", [10.0, 1e3, 1e4])
    @pytest.mark.parametrize("rows", _STAIR_EXAMPLES, ids=["deep", "empty", "width1", "bands"])
    def test_ap_bound_column(self, rows, mu):
        table, want = cli._staircase_columns(rows, mu ** -0.5), self._ap_rows(rows, mu)
        assert _dump_json({"r": [table]}) == json.dumps(
            {"r": [_named(want)]}, sort_keys=True, indent=2) + "\n"
        header = ["j", "n", "residual", "bound"]
        assert cli._csv_table(table, header) == csv_writer_text(want, header)

    def test_empty_table_texts(self):
        table = cli._staircase_columns((0, 0, np.empty((0, 3))))
        assert _dump_json({"t": table}) == '{\n  "t": []\n}\n'
        assert cli._csv_table(table, ["j", "n", "ratio_log"]) == "j,n,ratio_log\n"

    @pytest.mark.parametrize("argv", [
        ["svg", "--family", "conjugated_dominated", "--window", "-8", "8", "--nmax", "5"],
        ["fi", "--family", "conjugated_dominated", "--window", "-8", "8", "--nmax", "5"],
        ["dom", "--family", "conjugated_dominated", "--window", "-8", "8", "--nmax", "5"],
        ["ap", "--family", "ap_family", "--params", '{"mu": 1e3}', "--mu", "1e3",
         "--window", "0", "12", "--nmax", "5"],
    ], ids=["svg", "fi", "dom", "ap"])
    def test_verbs_write_from_the_grid(self, capsys, argv):
        # no verb builds the (j, n) columns: those stay library API and oracles
        refuse = mock.Mock(side_effect=AssertionError("a verb read the table columns"))
        with contextlib.ExitStack() as stack:
            for module in (cocycle, conditions, avalanche):
                stack.enter_context(mock.patch.object(module, "_staircase_cells", refuse))
            stack.enter_context(mock.patch.object(RateFit, "table_columns", refuse))
            stack.enter_context(mock.patch.object(ApReport, "residual_columns", refuse))
            for fmt in (["--format", "json", "--table"], ["--format", "csv"]):
                code, out, err = run(capsys, *argv, *fmt)
                assert code in (0, 1, 3) and not err and out


class TestIntLists:
    """A list of ints, bools or floats (``failed_js``) is written as
    json.dumps writes it."""

    @pytest.mark.parametrize("items", [[], [7], [-3, 0, 12, -(2 ** 70)], [1, True, 0, False],
                                       [True], [0, 1.0]],
                             ids=["empty", "one", "negative", "bool-mixed", "bool", "float"])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_matches_json(self, items, depth):
        doc = {"failed_js": items}
        for _ in range(depth):
            doc = {"x": [doc]}
        assert _dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


_EDGE_THRESHOLDS = st.sampled_from(["0", "1e-300", "1e-9", "1", "2", "1e300"])
_VERB_OPTIONS = {
    "svg": ("--epsilon", "--mu-min"),
    "fi": ("--epsilon", "--mu-min"),
    "split": ("--tol",),
    "dom": ("--tol", "--epsilon", "--mu-min", "--sep-min"),
    "ap": ("--mu", "--envelope"),
}


@st.composite
def _verb_runs(draw):
    """The arguments of one verb on a generated window of 1 to 8 entries,
    with --nmax and the verb's thresholds at their edges."""
    verb = draw(st.sampled_from(sorted(_VERB_OPTIONS)))
    lo = draw(st.integers(-4, 4))
    hi = lo + draw(st.integers(0, 7))
    argv = [verb, "--family", draw(st.sampled_from(sorted(FAMILIES))),
            "--seed", str(draw(st.integers(0, 3))), "--window", str(lo), str(hi),
            "--nmax", draw(st.sampled_from(["1", "2", "3", "40"])), "--format", "json"]
    for option in _VERB_OPTIONS[verb]:
        if (verb, option) == ("ap", "--mu") or draw(st.booleans()):
            argv += [option, draw(_EDGE_THRESHOLDS)]
    if verb == "dom" and draw(st.booleans()):
        argv += ["--ncap", draw(st.sampled_from(["0", "1", "40"]))]
    return argv


# the README's exit codes of the outcomes, and of dom's verdicts
_README_EXIT = {"pass": 0, "dominated": 0, "fail": 1, "not_dominated": 1, "inconclusive": 3}


def _recorded_main(argv):
    """main(argv)'s exit code, stdout and stderr, and the arguments and the
    result of the library call that made the verb's report: svg_profile,
    fi_profile, estimate_fields, check_domination or ap_report; (None, None)
    when the verb stopped before one returned."""
    calls = []

    def recorder(fn):
        def call(*args, **kwargs):
            calls.append((args, fn(*args, **kwargs)))
            return calls[-1][1]
        return call

    names = ("svg_profile", "fi_profile", "estimate_fields", "check_domination", "ap_report")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.multiple(cli, **{name: recorder(getattr(cli, name)) for name in names}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    args, report = calls[0] if calls else (None, None)
    return code, out.getvalue(), err.getvalue(), args, report


def _fit_rule_oracle(fit, holds: bool) -> str:
    """The profile verbs' evidence rule, written out from the fit's fields as
    an oracle for ``RateFit.outcome``: a +inf ratio fails; a fit over some n
    whose profile test ``holds`` passes; else fewer than two finite ratios
    at n >= n_lo are inconclusive, and more fail."""
    if any(v == math.inf for v in fit.sup_log.values()):
        return "fail"
    if fit.n_lo <= fit.n_hi and holds:
        return "pass"
    points = sum(1 for n, v in fit.sup_log.items() if n >= fit.n_lo and math.isfinite(v))
    return "inconclusive" if points < 2 else "fail"


def _verb_rule_oracle(verb, args, report) -> str:
    """The outcome, or dom's verdict, of each verb's evidence rule written
    out from the report's fields: the oracle for the library's outcome."""
    if verb in ("svg", "fi"):
        seq, n_max, t = args
        if verb == "svg":
            holds = -report.rate > math.log(t.mu_min)
        else:
            svg = cli.svg_profile(seq, n_max, t)
            holds = report.rate < (1.0 - t.epsilon) * -svg.rate and report.log_c <= t.fi_log_c_max
        return _fit_rule_oracle(report, holds)
    if verb == "split":
        return "pass" if len(report.js) and not report.failed else "inconclusive"
    if verb == "ap":
        if report.conditions_pass and report.c_fit is not None and report.c_fit <= report.envelope:
            return "pass"
        return "inconclusive" if report.c_fit is None else "fail"
    sep, sep_min = report.min_separation, report.thresholds.sep_min
    vanished = any(v == -math.inf for v in report.norm_floor_log.values())
    if vanished or (sep is not None and sep <= sep_min):
        return "not_dominated"
    if not report.failed_js and sep is not None and sep > sep_min and report.n_dom is not None:
        return "dominated"
    return "inconclusive"


def _outcome_of(verb, report) -> str:
    """The report's own outcome, or dom's verdict; split, which has no report
    object, passes when it estimated every site of a jrange that held one."""
    if verb == "dom":
        return report.verdict
    if verb == "split":
        return "pass" if len(report.js) and not report.failed else "inconclusive"
    return report.outcome


class TestVerbContract:
    """Every verb, on short windows with thresholds at their edges, exits
    with a code the README names, writes strict JSON, and exits 0 or 1 only
    on the evidence that code stands for."""

    @settings(max_examples=250, deadline=None)
    @given(_verb_runs())
    def test_exit_codes_match_the_report(self, argv):
        code, out, err, args, report = _recorded_main(argv)
        assert code in (0, 1, 2, 3), err
        assert "internal error" not in err
        if code == 2:
            return
        if report is None:  # a library error before the report
            assert code == 3 and out == "" and err
            return
        verb = argv[0]
        outcome = _outcome_of(verb, report)
        assert code == _README_EXIT[outcome], err
        assert outcome == _verb_rule_oracle(verb, args, report)
        result = json.loads(out, parse_constant=_refuse)["result"]
        if verb == "dom":
            assert (code == 1) == bool(result["witnesses"])
            if code == 0:
                assert result["fields"] and not result["failed_js"]
        elif verb == "ap" and code in (0, 1):
            assert result["c_fit"] is not None
        elif verb in ("svg", "fi", "ap"):
            assert result["passed"] == (code == 0)


def _evidence_file(tmp_path, name):
    """The rank-one window diag(1, 0) at j = 0 .. 29, whose ratios are all
    exactly zero, or a conjugated_dominated window with complementary
    projections at sites 0 and 1, through which every product vanishes."""
    path = tmp_path / f"{name}.json"
    if name == "rank1":
        seq = MatrixSequence({j: Mat2C(1.0, 0.0, 0.0, 0.0) for j in range(30)}, 2.0)
    else:
        seq = vanishing(build_with_truth(GeneratorSpec(
            "conjugated_dominated", (-45, 45), {"rate_mode": "constant"}, 1))[0])
    dump_sequence(seq, str(path))
    return str(path)


_AP_FAMILY = ["--family", "ap_family", "--params", '{"mu": 1e3}', "--mu", "1e3", "--nmax", "3"]
_CD3 = ["--family", "conjugated_dominated", "--seed", "3", "--window", "-30", "30",
        "--jrange", "-6", "6"]
# a gap factor of 1.5 per step: the gap of 2 takes N = 2
_SLOW_GAP = ["--family", "diagonal", "--lplus", "1.5", "--lminus", "1", "--window", "-30", "30",
             "--jrange", "-6", "6"]


class TestOneEvidenceRule:
    """Each report's outcome, which its verb's exit code reads, is the one
    its verb's evidence rule gives, on the edges of that rule."""

    @pytest.mark.parametrize("argv, want", [
        (["svg", "--family", "example1", "--window", "-20", "20", "--nmax", "1"], "inconclusive"),
        (["fi", "--family", "example1", "--window", "-20", "20", "--nmax", "1"], "inconclusive"),
        (["fi", "--family", "diagonal", "--window", "-25", "25", "--nmax", "2"], "inconclusive"),
        (["svg", "--input", "@rank1", "--nmax", "10"], "pass"),
        (["fi", "--input", "@rank1", "--nmax", "10"], "pass"),
        (["svg", "--input", "@vanish"], "fail"),
        (["fi", "--input", "@vanish"], "fail"),
        (["svg", "--family", "diagonal", "--window", "-25", "25"], "pass"),
        (["svg", "--family", "unitary", "--window", "-25", "25", "--nmax", "20"], "fail"),
        (["ap", *_AP_FAMILY, "--window", "0", "0"], "inconclusive"),
        (["ap", *_AP_FAMILY, "--window", "0", "1"], "inconclusive"),
        (["ap", *_AP_FAMILY, "--window", "0", "2"], "pass"),
        (["ap", "--family", "unitary", "--window", "0", "30", "--mu", "1e3", "--nmax", "10"],
         "fail"),
        (["dom", "--family", "example1", "--window", "-40", "40", "--jrange", "-20", "20"],
         "not_dominated"),
        (["dom", "--family", "unitary", "--window", "-45", "45"], "inconclusive"),
        (["dom", *_CD3], "dominated"),
        (["dom", *_SLOW_GAP, "--ncap", "2"], "dominated"),
        (["dom", *_SLOW_GAP, "--ncap", "1"], "inconclusive"),  # no gap depth N within ncap
        (["dom", "--input", "@vanish"], "not_dominated"),
        (["split", "--family", "example1", "--window", "0", "6"], "inconclusive"),
        (["split", *_CD3], "pass"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_verb_outcome(self, tmp_path, argv, want):
        argv = [_evidence_file(tmp_path, a[1:]) if a.startswith("@") else a for a in argv]
        code, _, err, args, report = _recorded_main([*argv, "--format", "json"])
        outcome = _outcome_of(argv[0], report)
        assert (outcome, code) == (want, _README_EXIT[want]), err
        assert outcome == _verb_rule_oracle(argv[0], args, report)

    @pytest.mark.parametrize("spec, n_max, want", [
        (("schrodinger", (0, 40), {"energy": 3.0}), 10, "pass"),
        (("schrodinger", (0, 40), {"energy": 3.0}), 1, "inconclusive"),
        (("schrodinger", (0, 40), {"energy": 0.0}), 10, "fail"),
        (("diagonal", (0, 30), {"lplus": 2.0, "lminus": 0.5}), 3, "pass"),
    ], ids=["hyperbolic", "nmax1", "elliptic", "diagonal"])
    def test_ueg_outcome(self, spec, n_max, want):
        seq, _ = build_with_truth(GeneratorSpec(*spec))
        t = Thresholds(n_max=n_max)
        fit = ueg_check(seq, n_max, t)
        holds = (fit.rate >= math.log(t.ueg_lambda_min)
                 and all(math.isfinite(v) for v in fit.sup_log.values()))
        assert fit.outcome == _fit_rule_oracle(fit, holds) == want
        assert fit.passed == (want == "pass")

    @pytest.mark.parametrize("verb, family, n_max, code, verdict", [
        ("svg", "example1", "1", 3, "inconclusive (fewer than two points to fit)"),
        ("fi", "example1", "1", 3, "inconclusive (fewer than two points to fit)"),
        ("svg", "diagonal", "10", 0, "pass"),
        ("fi", "diagonal", "10", 0, "pass"),
        ("svg", "unitary", "10", 1, "FAIL"),
        ("fi", "example1", "10", 1, "FAIL"),
    ])
    def test_text_verdict_reads_the_outcome(self, capsys, verb, family, n_max, code, verdict):
        got, out, err = run(capsys, verb, "--family", family, "--window", "-20", "20",
                            "--nmax", n_max)
        assert got == code, err
        assert f"  verdict     : {verdict}\n" in out


    def test_dom_text_prints_each_fit_outcome(self, capsys):
        """dom's svg and fi lines print each fit's outcome: fits over no n
        are inconclusive, not FAIL."""
        got, out, err = run(capsys, "dom", "--family", "diagonal", "--window", "-25", "25",
                            "--nmax", "1")
        assert got == 3, err
        assert "  svg            : inconclusive (mu inf)\n" in out
        assert "  fi             : inconclusive (rate -inf, C 2^-inf)\n" in out
        assert "FAIL" not in out


class TestStrictJson:
    """Reports of vanished and rank-one products hold no Infinity or NaN."""

    @pytest.fixture(params=["vanishing", "rank-one"])
    def window(self, request, tmp_path):
        from domsplit import dump_sequence

        if request.param == "vanishing":
            seq = vanishing(build_with_truth(GeneratorSpec(
                "conjugated_dominated", (-45, 45), {"rate_mode": "constant"}, 1))[0])
            extra = []
        else:
            seq, extra = rank_one_window(0), ["--nmax", "12"]
        path = tmp_path / "seq.json"
        dump_sequence(seq, str(path))
        return str(path), extra

    @pytest.mark.parametrize("verb", ["dom", "svg", "fi", "split"])
    def test_report_is_strict(self, capsys, window, verb):
        path, extra = window
        code, out, err = run(capsys, verb, "--input", path, *extra, "--format", "json",
                             "--table")
        assert code in (0, 1, 3) and out, err
        json.loads(out, parse_constant=_refuse)

    @pytest.mark.parametrize("verb", [("dom",), ("svg",), ("fi",),
                                      ("ap", "--mu", "100", "--nmax", "10")], ids=lambda v: v[0])
    def test_table_round_trip(self, capsys, window, verb):
        path, extra = window
        argv = [*verb, "--input", path, *extra]
        try:
            want = {k: _named(v) for k, v in _library_tables(argv).items()}
        except DomsplitError:  # a vanished pair product: no report
            want = None
        code, out, err = run(capsys, *argv, "--format", "json", "--table")
        if want is None:
            assert code == 3 and out == "" and err
            return
        assert code in (0, 1, 3) and out, err
        assert _dump_json(json.loads(out)) == out
        assert _report_tables(json.loads(out)["result"], verb[0]) == want

    def test_ap_report_is_strict(self, tmp_path, capsys):
        from domsplit import dump_sequence

        path = tmp_path / "seq.json"
        dump_sequence(rank_one_window(5), str(path))
        code, out, err = run(capsys, "ap", "--input", str(path), "--mu", "100", "--nmax", "10",
                             "--format", "json", "--table")
        assert out, err
        json.loads(out, parse_constant=_refuse)


def _plain_result(argv, table: bool) -> dict:
    """The result dict that the library's reports give for ``argv``, with
    the --table grids as lists of rows: what the CLI writes, before any
    grid or [n, value] list is handed to the encoder as columns."""
    from domsplit import check_domination, fi_profile, svg_profile
    from domsplit.conditions import Thresholds

    args = cli._build_parser().parse_args(argv)
    seq, _ = cli._resolve_sequence(args)
    if args.command == "dom":
        rep = check_domination(seq, Thresholds(n_max=args.nmax), jrange=args.jrange)
        result = rep.to_json_dict()
        if table:
            result["svg"]["table"] = column_rows(rep.svg.table_columns())
            result["fi"]["table"] = column_rows(rep.fi.table_columns())
        return result
    profile = svg_profile if args.command == "svg" else fi_profile
    fit = profile(seq, args.nmax, Thresholds(n_max=args.nmax))
    result = fit.to_json_dict()
    if table:
        result["table"] = column_rows(fit.table_columns())
    return result


class TestPlainPayload:
    """svg, fi and dom --format json write json.dumps(sort_keys=True,
    indent=2) of the plain report dict, non-finite floats named, byte for
    byte: the [n, value] lists and the grids that the encoder takes as
    columns, on windows whose reports hold inf, -inf, nan and exponent-form
    numbers."""

    @pytest.fixture(scope="class", params=["vanishing", "rank-one", "x1e-150"])
    def window(self, request, tmp_path_factory):
        if request.param == "vanishing":
            seq = vanishing(build_with_truth(GeneratorSpec(
                "conjugated_dominated", (-45, 45), {"rate_mode": "constant"}, 1))[0])
            extra = []
        elif request.param == "rank-one":
            seq, extra = rank_one_window(5), ["--nmax", "12"]
        else:
            base, _ = build_with_truth(GeneratorSpec("conjugated_dominated", (-30, 30), {}, 3))
            seq = MatrixSequence.from_factors(base.lo, base.factors * 1e-150, base.bound_M * 1e-150)
            extra = []
        path = tmp_path_factory.mktemp(request.param) / "seq.json"
        dump_sequence(seq, str(path))
        return str(path), seq.window, extra

    @pytest.mark.parametrize("table", [False, True], ids=["plain", "table"])
    @pytest.mark.parametrize("verb", ["svg", "fi", "dom"])
    def test_payload_is_json_dumps_of_the_report(self, capsys, window, verb, table):
        path, (lo, hi), extra = window
        argv = [verb, "--input", path, *extra]
        code, out, err = run(capsys, *argv, "--format", "json", *(["--table"] if table else []))
        assert code in (0, 1, 3) and out, err
        args = cli._build_parser().parse_args(argv)
        config = {"input": path, "window": [lo, hi], "nmax": args.nmax}
        if verb == "dom":
            config.update(tol=args.tol, thresholds=cli._DEFAULTS.to_json_dict() | {"n_max": args.nmax})
        else:
            config.update(epsilon=args.epsilon, mu_min=args.mu_min)
        doc = {"tool": "domsplit", "version": __version__, "command": verb, "config": config,
               "result": _plain_result(argv, table)}
        assert out == json.dumps(_named(doc), sort_keys=True, indent=2) + "\n"
