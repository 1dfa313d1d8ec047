"""Command-line front end: sequence files or generator specs in, reports out.

Verbs: gen, svg, fi, split, dom, ap.  Exit codes: 0 pass/ok, 1 witnessed
failure, 2 malformed input or precondition violation, 3 inconclusive or
partial.  Reports embed the resolved run configuration and the tool version;
the same configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .avalanche import RESIDUAL_ENVELOPE, ap_report
from .cocycle import (MatrixSequence, _dist, _sequence_text, estimate_fields,
                      invariance_residuals, load_sequence)
from .conditions import (Thresholds, _field_records, _outcome, check_domination, fi_profile,
                         svg_profile)
from .errors import (
    DomsplitError,
    InvalidSpec,
    NotUnimodular,
    WindowExceeded,
)
from .generators import (DIAGONAL_DEFAULTS, RATE_MODES, GeneratorSpec, build_with_truth,
                         family_params)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
# every report verb's exit code: its report's outcome, or dom's verdict
_EXIT = {"pass": EXIT_OK, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE,
         "dominated": EXIT_OK, "not_dominated": EXIT_FAIL}
_PASS_FAIL = {"pass": "pass", "fail": "FAIL"}  # an inconclusive one also says why

_LN2 = math.log(2.0)
_DEFAULTS = Thresholds()


def _log2str(x: float) -> str:
    if x == float("-inf"):
        return "2^-inf"
    if x == float("inf"):
        return "2^+inf"
    return f"2^{x / _LN2:.4f}"


def _point_str(p) -> str:
    """The text of a field record's point: "inf", or its [re, im]."""
    if p == "inf":
        return p
    re, im = p
    return f"{re:.12g}" if im == 0 else f"{re:.12g}{im:+.12g}i"


def _atomic_write(path: str, payload: str) -> None:
    if path == "-":
        sys.stdout.write(payload)
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _dump_json(doc: dict) -> str:
    """The report encoder: the text of ``json.dumps(doc, sort_keys=True,
    indent=2) + "\\n"``, except that non-finite floats are written as the
    strings "inf", "-inf" and "nan", so every report is strict JSON.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder.  Here
    the small skeleton of a report is written in Python, and each grid in
    one pass over its columns: a table or a list of [n, value] pairs, which
    the CLI passes as ``_Columns`` straight from the report's arrays, whose
    cell texts ``_cell_texts`` makes, or as columns of texts made already.
    That gives the bytes json.dumps would."""
    out: list[str] = []
    _encode(doc, "\n", out)
    out.append("\n")
    return "".join(out)


class _Columns(tuple):
    """A grid given as its columns, int or float arrays or lists of cell
    texts, of one length: the report holds the list of rows read across
    them."""

    __slots__ = ()


def _scalar(o) -> str | None:
    """The JSON text of a string, number, bool or None; None for anything else."""
    if isinstance(o, str):
        return json.encoder.encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return text if o - o == 0.0 else f'"{text}"'  # repr names inf, -inf and nan
    return None


def _encode(o, nl: str, out: list[str]) -> None:
    """Appends the indent=2 text of o, nested at indentation nl (a newline
    and the enclosing container's indent)."""
    text = _scalar(o)
    if text is not None:
        out.append(text)
    elif type(o) is _Columns:
        texts = [a if type(a) is list else _cell_texts(a, '"') for a in o]
        out.append(_grid(texts, nl) if len(o[0]) else "[]")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                key_text = _scalar(key)
                if key_text is None:
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = key_text.strip('"')
            out.append(sep + json.encoder.encode_basestring_ascii(key) + ": ")
            _encode(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _cell_texts(a, quote: str) -> list[str]:
    """The texts of the cells of an int or float array: repr's, with inf,
    -inf and nan between ``quote``s.  orjson writes every int, every
    positional float and every float below 1e-10 in magnitude as repr does,
    so one orjson pass gives those: the last have an exponent of two or
    three digits, which both write as ``e-NN`` or ``e-NNN`` after the same
    shortest digits.  The other finite cells repr writes with an exponent, in
    [1e-10, 1e-4) and from 1e16 up, are taken again with repr, whatever
    form orjson gives them (3.8.3 writes ``0.000015`` and ``1e16`` where
    repr writes ``1.5e-05`` and ``1e+16``), and the others are named by
    mask."""
    import orjson  # here, not at module import: only reports with grids need it

    if not len(a):
        return []
    texts = orjson.dumps(np.ascontiguousarray(a), option=orjson.OPT_SERIALIZE_NUMPY)
    texts = texts[1:-1].decode().split(",")
    if a.dtype.kind == "f":
        mag = np.abs(a)
        finite = mag < math.inf
        # repr writes 0 and 1e-4 <= |x| < 1e16 positionally; below 1e-10 the
        # exponent has two or three digits, which orjson writes as repr does
        redo = np.flatnonzero(((mag >= 1e-10) & (mag < 1e-4)) | ((mag >= 1e16) & finite)).tolist()
        for i, text in zip(redo, map(float.__repr__, a[redo].tolist())):
            texts[i] = text
        if np.count_nonzero(finite) < len(a):
            for name, cells in (("inf", a == math.inf), ("-inf", a == -math.inf), ("nan", a != a)):
                for i in np.flatnonzero(cells).tolist():
                    texts[i] = quote + name + quote
    return texts


def _staircase_columns(rows: tuple, scale: float | None = None) -> _Columns:
    """A report's staircase rows (j0, n0, grid), whose row k holds depth
    n0 + k at grid.shape[1] - k starts from j0, as the columns of its
    [j, n, value] rows in (j, n) order: the values read off the grid by one
    mask, and j and n as texts, one per start and one per depth, which
    their rows share.  With ``scale``, ap's mu^(-1/2), a bound column
    n * scale follows, one text per depth; it is finite, so it takes no
    quote."""
    j0, n0, grid = rows
    count, width = grid.shape
    counts = np.minimum(count, width - np.arange(width)).tolist()  # the depths at each start
    starts: list[str] = []
    for j, c in zip(range(j0, j0 + width), counts):
        starts += [str(j)] * c
    columns = [starts, _by_row([str(n) for n in range(n0, n0 + count)], counts),
               grid.T[np.arange(count) < width - np.arange(width)[:, None]]]
    if scale is not None:
        columns.append(_by_row(_cell_texts(np.arange(n0, n0 + count) * scale, ""), counts))
    return _Columns(columns)


def _by_row(texts: list[str], counts: list[int]) -> list[str]:
    """The texts of a staircase's depths, one per row in (j, n) order: the
    first counts[i] of them at the i-th start."""
    rows: list[str] = []
    for c in counts:
        rows += texts[:c]
    return rows


def _pairs(table: dict) -> _Columns:
    """An {n: float} table as the columns of its [n, value] pairs in
    ascending n: the list that ``to_json_dict`` gives, for the encoder."""
    ns = sorted(table)
    return _Columns((np.array(ns, dtype=np.int64), np.array([table[n] for n in ns], dtype=float)))


def _fit_doc(doc: dict, fit, table: bool) -> dict:
    """The fit's document ``doc``, as ``to_json_dict`` wrote it, with sup_log
    swapped for columns in place, and its table added when ``table`` is set."""
    doc["sup_log"] = _pairs(fit.sup_log)
    if table:
        doc["table"] = _staircase_columns(fit.rows)
    return doc


def _site_steps(grid: np.ndarray) -> list[_Columns]:
    """For each column k of a step grid, its (n, step) pairs at the rows n
    that hold a step, not nan, as columns of texts: one ``_cell_texts`` pass
    over the whole grid, cut column by column."""
    k, n = np.nonzero(~np.isnan(grid.T))  # in (k, n) order
    n_texts, step_texts = _cell_texts(n, '"'), _cell_texts(grid.T[k, n], '"')
    ends = np.cumsum(np.bincount(k, minlength=grid.shape[1])).tolist()
    return [_Columns((n_texts[a:b], step_texts[a:b])) for a, b in zip([0] + ends, ends)]


def _grid(columns: list[list[str]], nl: str) -> str:
    """The indent=2 text, at indentation nl, of the rows read across the
    columns of cell texts, all of one nonzero length."""
    width, count = len(columns), len(columns[0])
    row, item = nl + "  ", nl + "    "
    parts = ["," + item] * (2 * width * count + 1)
    parts[0] = "[" + row + "[" + item
    for c, texts in enumerate(columns):
        parts[2 * c + 1::2 * width] = texts
    parts[2 * width::2 * width] = [row + "]," + row + "[" + item] * count
    parts[-1] = row + "]" + nl + "]"
    return "".join(parts)


def _csv_table(columns, header: list[str]) -> str:
    """The CSV text of the header, then the rows read across the columns,
    int or float arrays or lists of texts, all of one length: csv.writer's
    text, since no number text, nor any text a verb passes, holds a comma, a
    quote or a newline that it would quote."""
    width, count = len(columns), len(columns[0])
    parts = [","] * (2 * width * count)
    for c, a in enumerate(columns):
        parts[2 * c::2 * width] = a if type(a) is list else _cell_texts(a, "")
    parts[2 * width - 1::2 * width] = ["\n"] * count
    return ",".join(header) + "\n" + "".join(parts)


def _same_param(x, y) -> bool:
    """x == y, except that a bool equals only a bool, also inside lists and
    tables: JSON's true is not the number 1."""
    if isinstance(x, bool) or isinstance(y, bool):
        return type(x) is type(y) and x == y
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(map(_same_param, x, y))
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_same_param(v, y[k]) for k, v in x.items())
    return x == y


def _family_params(args) -> dict:
    """--params with the family flags set on top.  A flag and a --params
    key that give one param different values exit 2 naming both: either one
    alone would build another sequence than the other names."""
    params: dict = {}
    if args.params:
        try:
            extra = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"--params is not valid JSON: {exc}") from exc
        if not isinstance(extra, dict):
            raise InvalidSpec("--params must be a JSON object")
        params.update(extra)

    def flag(key: str, value, name: str) -> None:
        if key in params and not _same_param(params[key], value):
            raise InvalidSpec(f"--params {key} {params[key]!r} differs from {name} {value!r}")
        params[key] = value

    for key in ("lplus", "lminus", "energy", "theta"):
        val = getattr(args, key, None)
        if val is not None:
            flag(key, val, f"--{key}")
    # the audit's --mu is also the gap parameter of a family that takes one
    if getattr(args, "mu", None) is not None and "mu" in family_params(args.family):
        flag("mu", args.mu, "--mu")
    if getattr(args, "potential", None) is not None:
        pot = args.potential
        if pot != "zeros":
            try:
                pot = json.loads(pot)
            except json.JSONDecodeError as exc:
                if not os.path.isfile(pot):
                    raise InvalidSpec(f"--potential is not a file or valid JSON: {exc}") from exc
                with open(pot, "r", encoding="utf-8") as fh:
                    pot = json.load(fh)
        flag("potential", pot, "--potential")
    if getattr(args, "insertions", None):
        flag("insertions", args.insertions, "--insertions")
    if getattr(args, "misaligned", False):
        flag("misaligned", True, "--misaligned")
    if getattr(args, "rate_mode", None):
        flag("rate_mode", args.rate_mode, "--rate-mode")
    if args.family == "diagonal":  # so that the config echo records the defaults
        for key, value in DIAGONAL_DEFAULTS.items():
            params.setdefault(key, value)
    return params


def _refuse_unread(args, source: str, *extra: str) -> None:
    """Exit 2 naming the first given option of ``extra`` and of those that
    only a generator reads, in the order of --help: ``source`` reads none."""
    for name in (*extra, "seed", "params", "lplus", "lminus", "energy", "potential", "theta",
                 "rate_mode", "insertions", "misaligned"):
        if getattr(args, name) is not None:
            raise InvalidSpec(f"--{name.replace('_', '-')} is not read with {source}")


def _resolve_sequence(args) -> tuple[MatrixSequence, dict]:
    """Loads --input or generates --family; returns (sequence, config echo)."""
    if args.input and args.family:
        raise InvalidSpec("give either --input or --family, not both")
    if args.input:
        _refuse_unread(args, "--input")
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
        seed=0 if args.seed is None else args.seed,
    )


def _report_doc(command: str, config: dict, result: dict) -> dict:
    return {
        "tool": "domsplit",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }


def _finite(text: str) -> float:
    """The argparse type of every float option: a finite float.  nan, inf
    and non-numbers are usage errors (exit 2)."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _add_io_options(p: argparse.ArgumentParser, report: bool = True) -> None:
    """With ``report``, also the options that only a report reads."""
    if report:
        p.add_argument("--input", help="sequence JSON file")
    p.add_argument("--family", help="generator family (instead of --input)")
    p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"))
    p.add_argument("--seed", type=int)  # 0 where not given
    p.add_argument("--params", help="extra family parameters as inline JSON")
    p.add_argument("--lplus", type=_finite)
    p.add_argument("--lminus", type=_finite)
    p.add_argument("--energy", type=_finite)
    p.add_argument("--potential", help="'zeros', inline JSON, or a JSON file path")
    p.add_argument("--theta", type=_finite)
    p.add_argument("--rate-mode", dest="rate_mode", choices=RATE_MODES)
    p.add_argument("--insertions", nargs="*", type=int)
    p.add_argument("--misaligned", action="store_true", default=None)
    if report:
        p.add_argument("--nmax", type=int, default=_DEFAULTS.n_max)
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    if report:
        p.add_argument("--table", action="store_true", help="emit per-(j, n) grids")


@functools.cache  # built on the first call, then shared: parse_args leaves it as it is
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="domsplit", description=__doc__)
    top.add_argument("--version", action="version", version=f"domsplit {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated sequence file")
    _add_io_options(gen, report=False)
    gen.add_argument("--spec", help="GeneratorSpec JSON file (instead of flags)")

    for name, helptext in (
        ("svg", "singular value gap profile"),
        ("fi", "fast invertibility profile"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_io_options(p)
        p.add_argument("--epsilon", type=_finite, default=_DEFAULTS.epsilon)
        p.add_argument("--mu-min", dest="mu_min", type=_finite, default=_DEFAULTS.mu_min)

    split = sub.add_parser("split", help="estimate the invariant directions")
    _add_io_options(split)
    split.add_argument("--tol", type=_finite, default=_DEFAULTS.split_tol)
    split.add_argument("--jrange", nargs=2, type=int, metavar=("LO", "HI"))

    dom = sub.add_parser("dom", help="full dominated-splitting certificate")
    _add_io_options(dom)
    dom.add_argument("--tol", type=_finite, default=_DEFAULTS.split_tol)
    dom.add_argument("--jrange", nargs=2, type=int, metavar=("LO", "HI"))
    dom.add_argument("--epsilon", type=_finite, default=_DEFAULTS.epsilon)
    dom.add_argument("--mu-min", dest="mu_min", type=_finite, default=_DEFAULTS.mu_min)
    dom.add_argument("--sep-min", dest="sep_min", type=_finite, default=_DEFAULTS.sep_min)
    dom.add_argument("--ncap", type=int, default=_DEFAULTS.n_cap)

    ap = sub.add_parser("ap", help="avalanche-principle audit")
    _add_io_options(ap)
    ap.add_argument("--mu", type=_finite, required=True)
    ap.add_argument("--envelope", type=_finite, default=RESIDUAL_ENVELOPE)

    return top


def _cmd_gen(args) -> int:
    if args.spec:
        _refuse_unread(args, "--spec", "family", "window")
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = GeneratorSpec.from_json_dict(json.load(fh))
    else:
        if not args.family or not args.window:
            raise InvalidSpec("gen needs --family and --window (or --spec)")
        spec = _spec_from_args(args)
    seq, _ = build_with_truth(spec)  # its source is the spec
    _atomic_write(args.out, _sequence_text(seq))
    return EXIT_OK


def _cmd_profile(args) -> int:
    command = args.command
    seq, cfg = _resolve_sequence(args)
    thresholds = Thresholds(n_max=args.nmax, mu_min=args.mu_min, epsilon=args.epsilon)
    fit = (svg_profile if command == "svg" else fi_profile)(seq, args.nmax, thresholds)
    cfg.update({"nmax": args.nmax, "epsilon": args.epsilon, "mu_min": args.mu_min})

    if args.format == "json":
        doc = _fit_doc(fit.to_json_dict(), fit, args.table)
        payload = _dump_json(_report_doc(command, cfg, doc))
    elif args.format == "csv":
        payload = _csv_table(_staircase_columns(fit.rows), ["j", "n", "ratio_log"])
    else:
        verdict = _PASS_FAIL.get(fit.outcome, "inconclusive (fewer than two points to fit)")
        lines = [
            f"{command} profile over window {seq.window}, n <= {args.nmax}",
            f"  fitted mu   : {fit.mu:.6g} (rate {fit.rate:.6g}/step)",
            f"  fitted C    : {_log2str(fit.log_c)}",
            f"  fit residual: {fit.residual_max:.3g}",
            f"  verdict     : {verdict}",
        ]
        for n, v in sorted(fit.sup_log.items()):
            lines.append(f"    n={n:3d}  sup ratio {_log2str(v)}")
        payload = "\n".join(lines) + "\n"
    _atomic_write(args.out, payload)
    return _EXIT[fit.outcome]


def _cmd_split(args) -> int:
    seq, cfg = _resolve_sequence(args)
    sweep = estimate_fields(seq, args.jrange, args.nmax, args.tol)
    jrange, failed = sweep.jrange, sweep.failed
    cfg.update({"nmax": args.nmax, "tol": args.tol, "jrange": list(jrange)})

    fields = _field_records(sweep)
    sep_column = _dist(sweep.es_vec, sweep.eu_vec)
    seps = sep_column.tolist()
    if args.table:  # site j's steps are column j - jrange[0] of the step grid's s and u halves
        site = sweep.js - jrange[0]
        s_steps, u_steps = (_site_steps(g[:, site]) for g in np.split(sweep.steps, 2, axis=1))
    for k, (rec, sep) in enumerate(zip(fields, seps)):
        rec["separation"] = sep
        if args.table:
            rec["s_steps"], rec["u_steps"] = s_steps[k], u_steps[k]

    result = {
        "fields": fields,
        "failed_js": failed,
        "min_separation": min(seps) if seps else None,
        "invariance_residuals": _Columns(invariance_residuals(sweep)),
    }

    if args.format == "json":
        payload = _dump_json(_report_doc("split", cfg, result))
    elif args.format == "csv":
        def flat(v):
            return "inf" if v == "inf" else f"{v[0]!r}+{v[1]!r}j"
        es_texts, eu_texts = ([flat(rec[key]) for rec in fields] for key in ("Es", "Eu"))
        payload = _csv_table((sweep.js, es_texts, eu_texts, sep_column, *sweep.n_star),
                             ["j", "Es", "Eu", "separation", "n_star_s", "n_star_u"])
    else:
        lines = [f"invariant directions over jrange {list(jrange)} (window {seq.window})"]
        for rec in fields:
            lines.append(
                f"  j={rec['j']:4d}  Es={_point_str(rec['Es'])}"
                f"  Eu={_point_str(rec['Eu'])}  sep={rec['separation']:.6g}"
                f"  n*=({rec['n_star_s']},{rec['n_star_u']})"
            )
        if failed:
            lines.append(f"  no convergence at j in {failed}")
        if seps:
            lines.append(f"  min separation: {min(seps):.6g}")
        payload = "\n".join(lines) + "\n"
    _atomic_write(args.out, payload)
    # split witnesses nothing, and a jrange with no site (short window) is no evidence
    return _EXIT[_outcome(False, len(sweep.js) > 0 and not failed)]


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

    if args.format == "json":
        result = report.to_json_dict()
        for key, fit in (("svg", report.svg), ("fi", report.fi)):
            _fit_doc(result[key], fit, args.table)
        result["norm_floor_log"] = _pairs(report.norm_floor_log)
        payload = _dump_json(_report_doc("dom", cfg, result))
    elif args.format == "csv":
        payload = _csv_table(_staircase_columns(report.svg.rows), ["j", "n", "ratio_log"])
    else:
        lines = [
            f"dominated-splitting certificate over window {seq.window}",
            f"  verdict        : {report.verdict}",
            f"  svg            : {_PASS_FAIL.get(report.svg.outcome, 'inconclusive')}"
            f" (mu {report.svg.mu:.6g})",
            f"  fi             : {_PASS_FAIL.get(report.fi.outcome, 'inconclusive')}"
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

    return _EXIT[report.verdict]


def _cmd_ap(args) -> int:
    seq, cfg = _resolve_sequence(args)
    report = ap_report(seq, args.mu, args.nmax, envelope=args.envelope)
    cfg.update({"nmax": args.nmax, "mu": args.mu, "envelope": args.envelope})

    if args.format == "json":
        result = report.to_json_dict()
        if args.table:
            result["residuals"] = _staircase_columns(report.rows, report.mu ** -0.5)
        payload = _dump_json(_report_doc("ap", cfg, result))
    elif args.format == "csv":
        payload = _csv_table(_staircase_columns(report.rows, report.mu ** -0.5),
                             ["j", "n", "residual", "bound"])
    else:
        verdict = _PASS_FAIL.get(report.outcome, "inconclusive (window too short for a residual)")
        lines = [
            f"avalanche audit at mu = {args.mu:g} over window {seq.window}",
            f"  ap3 worst gap ratio : {report.ap3_worst:.6g} (allowed {1 / args.mu:.6g})",
            f"  ap4 worst pair ratio: {report.ap4_worst:.6g} (allowed {args.mu ** 0.25:.6g})",
            f"  conditions          : {'pass' if report.conditions_pass else 'FAIL'}",
            f"  residual C_fit      : {report.c_fit} (envelope {report.envelope})",
            f"  verdict             : {verdict}",
        ]
        payload = "\n".join(lines) + "\n"
    _atomic_write(args.out, payload)
    return _EXIT[report.outcome]


_COMMANDS = {"gen": _cmd_gen, "svg": _cmd_profile, "fi": _cmd_profile, "split": _cmd_split,
             "dom": _cmd_dom, "ap": _cmd_ap}


def main(argv: list[str] | None = None) -> int:
    # the subparsers are required, so argparse admits only the verbs of _COMMANDS
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InvalidSpec, WindowExceeded, NotUnimodular, json.JSONDecodeError, OSError) as exc:
        print(f"domsplit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomsplitError as exc:
        print(f"domsplit {args.command}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # an estimator failure is no witness: inconclusive, never exit 1
        print(f"domsplit {args.command}: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
