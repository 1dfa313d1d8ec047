"""Command-line front end: sequence files or generator specs in, reports out.

Verbs: gen, svg, fi, split, dom, ap.  Exit codes: 0 pass/ok, 1 witnessed
failure, 2 malformed input or precondition violation, 3 inconclusive or
partial.  Reports embed the resolved run configuration and the tool version;
the same configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import __version__
from .avalanche import RESIDUAL_ENVELOPE, ap_report
from .cocycle import MatrixSequence, estimate_fields, invariance_residuals, load_sequence
from .conditions import Thresholds, _field_record, check_domination, fi_profile, svg_profile
from .errors import (
    DomsplitError,
    InvalidSpec,
    NotUnimodular,
    WindowExceeded,
)
from .generators import GeneratorSpec, build_with_truth
from .projective import ProjPoint, dist

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_LN2 = math.log(2.0)
_DEFAULTS = Thresholds()


def _log2str(x: float) -> str:
    if x == float("-inf"):
        return "2^-inf"
    if x == float("inf"):
        return "2^+inf"
    return f"2^{x / _LN2:.4f}"


def _point_str(p: ProjPoint) -> str:
    z = p.affine
    if z is None:
        return "inf"
    if z.imag == 0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _atomic_write(path: str, payload: str) -> None:
    if path == "-":
        sys.stdout.write(payload)
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_payload(rows: list[list], header: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _family_params(args) -> dict:
    params: dict = {}
    if args.params:
        try:
            params.update(json.loads(args.params))
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"--params is not valid JSON: {exc}") from exc
    for key in ("lplus", "lminus", "energy", "theta", "mu"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "potential", None) is not None:
        pot = args.potential
        if pot != "zeros":
            try:
                pot = json.loads(pot)
            except json.JSONDecodeError:
                with open(args.potential, "r", encoding="utf-8") as fh:
                    pot = json.load(fh)
        params["potential"] = pot
    if getattr(args, "insertions", None):
        params["insertions"] = args.insertions
    if getattr(args, "misaligned", False):
        params["misaligned"] = True
    if getattr(args, "rate_mode", None):
        params["rate_mode"] = args.rate_mode
    if args.family == "diagonal":
        params.setdefault("lplus", 2.0)
        params.setdefault("lminus", 1.0)
    return params


def _resolve_sequence(args) -> tuple[MatrixSequence, dict]:
    """Loads --input or generates --family; returns (sequence, config echo)."""
    if args.input and args.family:
        raise InvalidSpec("give either --input or --family, not both")
    if args.input:
        seq = load_sequence(args.input)
        if args.window:
            seq = seq.restrict(args.window[0], args.window[1])
        cfg = {"input": args.input, "window": list(seq.window)}
        return seq, cfg
    if not args.family:
        raise InvalidSpec("one of --input or --family is required")
    if not args.window:
        raise InvalidSpec("--family needs --window LO HI")
    spec = _spec_from_args(args)
    seq, _ = build_with_truth(spec)
    return seq, {"generator": spec.to_json_dict()}


def _spec_from_args(args) -> GeneratorSpec:
    return GeneratorSpec(
        family=args.family,
        window=(args.window[0], args.window[1]),
        params=_family_params(args),
        seed=args.seed,
    )


def _report_doc(command: str, config: dict, result: dict) -> dict:
    return {
        "tool": "domsplit",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }


def _add_io_options(p: argparse.ArgumentParser, with_nmax: bool = True) -> None:
    p.add_argument("--input", help="sequence JSON file")
    p.add_argument("--family", help="generator family (instead of --input)")
    p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="extra family parameters as inline JSON")
    p.add_argument("--lplus", type=float)
    p.add_argument("--lminus", type=float)
    p.add_argument("--energy", type=float)
    p.add_argument("--potential", help="'zeros', inline JSON, or a JSON file path")
    p.add_argument("--theta", type=float)
    p.add_argument("--rate-mode", dest="rate_mode", choices=["perstep", "constant"])
    p.add_argument("--insertions", nargs="*", type=int)
    p.add_argument("--misaligned", action="store_true")
    if with_nmax:
        p.add_argument("--nmax", type=int, default=_DEFAULTS.n_max)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--table", action="store_true", help="emit per-(j, n) grids")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="domsplit", description=__doc__)
    top.add_argument("--version", action="version", version=f"domsplit {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated sequence file")
    _add_io_options(gen, with_nmax=False)
    gen.add_argument("--spec", help="GeneratorSpec JSON file (instead of flags)")

    for name, helptext in (
        ("svg", "singular value gap profile"),
        ("fi", "fast invertibility profile"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_io_options(p)
        p.add_argument("--epsilon", type=float, default=_DEFAULTS.epsilon)
        p.add_argument("--mu-min", dest="mu_min", type=float, default=_DEFAULTS.mu_min)

    split = sub.add_parser("split", help="estimate the invariant directions")
    _add_io_options(split)
    split.add_argument("--tol", type=float, default=_DEFAULTS.split_tol)
    split.add_argument("--jrange", nargs=2, type=int, metavar=("LO", "HI"))

    dom = sub.add_parser("dom", help="full dominated-splitting certificate")
    _add_io_options(dom)
    dom.add_argument("--tol", type=float, default=_DEFAULTS.split_tol)
    dom.add_argument("--jrange", nargs=2, type=int, metavar=("LO", "HI"))
    dom.add_argument("--epsilon", type=float, default=_DEFAULTS.epsilon)
    dom.add_argument("--mu-min", dest="mu_min", type=float, default=_DEFAULTS.mu_min)
    dom.add_argument("--sep-min", dest="sep_min", type=float, default=_DEFAULTS.sep_min)
    dom.add_argument("--ncap", type=int, default=_DEFAULTS.n_cap)

    ap = sub.add_parser("ap", help="avalanche-principle audit")
    _add_io_options(ap)
    ap.add_argument("--mu", type=float, required=True)
    ap.add_argument("--envelope", type=float, default=RESIDUAL_ENVELOPE)

    return top


def _cmd_gen(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = GeneratorSpec.from_json_dict(json.load(fh))
    else:
        if not args.family or not args.window:
            raise InvalidSpec("gen needs --family and --window (or --spec)")
        spec = _spec_from_args(args)
    seq, _ = build_with_truth(spec)
    doc = seq.to_json_dict()
    doc["source"] = spec.to_json_dict()
    _atomic_write(args.out, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return EXIT_OK


def _cmd_profile(args, command: str) -> int:
    seq, cfg = _resolve_sequence(args)
    thresholds = Thresholds(n_max=args.nmax, mu_min=args.mu_min, epsilon=args.epsilon)
    if command == "svg":
        fit = svg_profile(seq, args.nmax, thresholds)
    else:
        fit = fi_profile(seq, args.nmax, thresholds)
    cfg.update({"nmax": args.nmax, "epsilon": args.epsilon, "mu_min": args.mu_min})
    result = fit.to_json_dict(include_table=args.table)

    fit_pts = sum(
        1 for n, v in fit.sup_log.items() if n >= fit.n_lo and math.isfinite(v)
    )
    if any(v == math.inf for v in fit.sup_log.values()):
        code = EXIT_FAIL  # a denominator product vanished
    elif fit.passed:
        code = EXIT_OK  # includes the vacuous case of exactly-zero ratios
    elif fit_pts < 2:
        code = EXIT_INCONCLUSIVE  # no rate could be fitted either way
    else:
        code = EXIT_FAIL

    if args.format == "json":
        payload = _dump_json(_report_doc(command, cfg, result))
    elif args.format == "csv":
        rows = fit.sorted_table()
        payload = _csv_payload(rows, ["j", "n", "ratio_log"])
    else:
        lines = [
            f"{command} profile over window {seq.window}, n <= {args.nmax}",
            f"  fitted mu   : {fit.mu:.6g} (rate {fit.rate:.6g}/step)",
            f"  fitted C    : {_log2str(fit.log_c)}",
            f"  fit residual: {fit.residual_max:.3g}",
            f"  verdict     : {'pass' if fit.passed else 'FAIL'}",
        ]
        for n, v in sorted(fit.sup_log.items()):
            lines.append(f"    n={n:3d}  sup ratio {_log2str(v)}")
        payload = "\n".join(lines) + "\n"
    _atomic_write(args.out, payload)
    return code


def _cmd_split(args) -> int:
    seq, cfg = _resolve_sequence(args)
    sweep = estimate_fields(seq, args.jrange, args.nmax, args.tol)
    jrange = sweep.jrange
    es, eu, failed = sweep.es, sweep.eu, sweep.failed
    cfg.update({"nmax": args.nmax, "tol": args.tol, "jrange": list(jrange)})

    fields = []
    for j, cert in sweep.certs.items():
        rec = _field_record(j, es[j], eu[j], cert)
        rec["separation"] = dist(es[j], eu[j])
        if args.table:
            rec["s_steps"] = [[n, d] for n, d in sorted(cert.s_steps.items())]
            rec["u_steps"] = [[n, d] for n, d in sorted(cert.u_steps.items())]
        fields.append(rec)

    res_js, res_s, res_u = invariance_residuals(seq, sweep)
    seps = [rec["separation"] for rec in fields]
    result = {
        "fields": fields,
        "failed_js": failed,
        "min_separation": min(seps) if seps else None,
        "invariance_residuals": [
            list(r) for r in zip(res_js.tolist(), res_s.tolist(), res_u.tolist())
        ],
    }

    if args.format == "json":
        payload = _dump_json(_report_doc("split", cfg, result))
    elif args.format == "csv":
        rows = []
        for rec in fields:
            def flat(v):
                return "inf" if v == "inf" else f"{v[0]!r}+{v[1]!r}j"
            rows.append([rec["j"], flat(rec["Es"]), flat(rec["Eu"]), rec["separation"],
                         rec["n_star_s"], rec["n_star_u"]])
        payload = _csv_payload(rows, ["j", "Es", "Eu", "separation", "n_star_s", "n_star_u"])
    else:
        lines = [f"invariant directions over jrange {list(jrange)} (window {seq.window})"]
        for rec in fields:
            lines.append(
                f"  j={rec['j']:4d}  Es={_point_str(es[rec['j']])}"
                f"  Eu={_point_str(eu[rec['j']])}  sep={rec['separation']:.6g}"
                f"  n*=({rec['n_star_s']},{rec['n_star_u']})"
            )
        if failed:
            lines.append(f"  no convergence at j in {failed}")
        if seps:
            lines.append(f"  min separation: {min(seps):.6g}")
        payload = "\n".join(lines) + "\n"
    _atomic_write(args.out, payload)
    return EXIT_INCONCLUSIVE if failed else EXIT_OK


def _cmd_dom(args) -> int:
    seq, cfg = _resolve_sequence(args)
    thresholds = Thresholds(
        n_max=args.nmax,
        mu_min=args.mu_min,
        epsilon=args.epsilon,
        sep_min=args.sep_min,
        n_cap=args.ncap,
        split_tol=args.tol,
    )
    report = check_domination(seq, thresholds, jrange=args.jrange)
    cfg.update({"nmax": args.nmax, "tol": args.tol, "thresholds": thresholds.to_json_dict()})
    result = report.to_json_dict(include_table=args.table)

    if args.format == "json":
        payload = _dump_json(_report_doc("dom", cfg, result))
    elif args.format == "csv":
        rows = report.svg.sorted_table()
        payload = _csv_payload(rows, ["j", "n", "ratio_log"])
    else:
        lines = [
            f"dominated-splitting certificate over window {seq.window}",
            f"  verdict        : {report.verdict}",
            f"  svg            : {'pass' if report.svg.passed else 'FAIL'}"
            f" (mu {report.svg.mu:.6g})",
            f"  fi             : {'pass' if report.fi.passed else 'FAIL'}"
            f" (rate {report.fi.rate:+.6g}, C {_log2str(report.fi.log_c)})",
            f"  min separation : {report.min_separation}",
            f"  N_dom          : {report.n_dom} (gap factor {report.lambda_dom})",
            f"  invariance res : {report.invariance_max_residual}",
        ]
        for w in report.witnesses:
            lines.append(f"  witness: {w}")
        for nte in report.notes:
            lines.append(f"  note: {nte}")
        payload = "\n".join(lines) + "\n"
    _atomic_write(args.out, payload)

    if report.verdict == "dominated":
        return EXIT_OK
    if report.verdict == "not_dominated":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def _cmd_ap(args) -> int:
    if args.nmax < 3:
        print("ap: --nmax must be at least 3", file=sys.stderr)
        return EXIT_USAGE
    if args.mu <= 1.0:
        print("ap: --mu must exceed 1", file=sys.stderr)
        return EXIT_USAGE
    seq, cfg = _resolve_sequence(args)
    report = ap_report(seq, args.mu, args.nmax, envelope=args.envelope)
    cfg.update({"nmax": args.nmax, "mu": args.mu, "envelope": args.envelope})
    result = report.to_json_dict(include_table=args.table)

    if args.format == "json":
        payload = _dump_json(_report_doc("ap", cfg, result))
    elif args.format == "csv":
        rows = report.to_json_dict(include_table=True)["residuals"]
        payload = _csv_payload(rows, ["j", "n", "residual", "bound"])
    else:
        lines = [
            f"avalanche audit at mu = {args.mu:g} over window {seq.window}",
            f"  ap3 worst gap ratio : {report.ap3_worst:.6g} (allowed {1 / args.mu:.6g})",
            f"  ap4 worst pair ratio: {report.ap4_worst:.6g} (allowed {args.mu ** 0.25:.6g})",
            f"  conditions          : {'pass' if report.conditions_pass else 'FAIL'}",
            f"  residual C_fit      : {report.c_fit} (envelope {report.envelope})",
            f"  verdict             : {'pass' if report.passed else 'FAIL'}",
        ]
        payload = "\n".join(lines) + "\n"
    _atomic_write(args.out, payload)
    return EXIT_OK if report.passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command in ("svg", "fi"):
            return _cmd_profile(args, args.command)
        if args.command == "split":
            return _cmd_split(args)
        if args.command == "dom":
            return _cmd_dom(args)
        if args.command == "ap":
            return _cmd_ap(args)
        parser.error(f"unknown command {args.command}")
    except (InvalidSpec, WindowExceeded, NotUnimodular) as exc:
        print(f"domsplit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, OSError) as exc:
        print(f"domsplit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomsplitError as exc:
        print(f"domsplit {args.command}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # an estimator failure is no witness: inconclusive, never exit 1
        print(f"domsplit {args.command}: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
