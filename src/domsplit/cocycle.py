"""Windowed products over a matrix sequence and the invariant directions.

Products B_n(j) = B(j+n-1) ... B(j) are renormalized after every factor:
the stored core has operator norm 1 and the accumulated log scale carries
sigma1, so products that decay or grow geometrically never leave the
representable range.  log|det| is accumulated factor by factor, each taken
after the exact 2^k prescale of ``singular_values`` so that no factor's
determinant over- or underflows; that keeps sigma2 of a product exact in the
log domain far below the entrywise noise floor of the core determinant.

``MatrixSequence`` screens its factors once, at construction, and keeps
what the screen takes: sigma1, sigma2 and the prescaled |det| with its 2^k
of every B(j).  Every later stage reads those arrays (the band of the
sweep's rescue, log sigma2, the invariance residuals, the avalanche audit's
single norms) and takes no factor's values again.

Two engines share that recurrence.  ``ScaledProduct`` and the scans build
one product at a time from ``Mat2C`` values; ``product_sweep`` builds depth n
for every start j at once as numpy arrays, and is what the certificate, the
avalanche audit and the per-site ``estimate_splitting`` and
``direction_drift`` run on, the last two as a sweep of their one site.
Each of its layers takes one Gram quadratic, of the raw product factor .
core: log sigma1 is the accumulated log scale, and the directions and the
degeneracy test are read off that raw product.  The 2^k prescale of the raw
product reads the exact moduli of its entries, as ``_prescale`` does, and is
a per-row rescue: a core has sigma1 = 1, so sigma1(B . core) lies in
[sigma2(B), sigma1(B)], and a layer whose factors all lie in the band
sigma1 < 1e100, sigma2 > 1e-100 has no row that the prescale would change.
Only the layers that read a factor out of band, which ``MatrixSequence``
finds once at construction, and the layers after a row vanished check sigma1
row by row, and only the rows out of band take the prescale, whose zero
flag is the one test of a vanished row.  Every layer writes into
buffers allocated once per sweep, and sigma1 into its row of one grid, whose
log is taken once after the last layer and whose running sum down the depth
axis is one add per row (``_depth_sums``), as is that of log|det|; the grids
and the step rows a sweep returns share one allocation.  The svg
and fi profiles of ``conditions`` are passes over those
staircase grids.  One stopping rule runs over the s and u columns of every
site.  Every certificate stage reads only the sweep and its sequence, and
the invariance residuals take a rank-one B(j)'s kernel and image lines on
arrays too.  The scalar path (``ScaledProduct``, the scans, ``sn``, ``un``
and ``invariance_residual``) stays as the oracle of the array stages.
These use numpy's own complex arithmetic, complex modulus, hypot and log,
so they agree with the scalar engine within 1e-12 relative to max(1, |x|),
not bit for bit.  They test
a mask with ``np.count_nonzero``, which runs in C, rather than
``ndarray.any`` or ``all``, which pass through numpy's Python wrappers at
about three times the cost, some hundred times a sweep.
"""

from __future__ import annotations

import cmath
import copy
import json
import math
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    Degenerate,
    InvalidSpec,
    KernelHit,
    NoConvergence,
    ProductVanished,
    WindowExceeded,
    ZeroVector,
)
from .matrix2c import (
    DEGENERATE_REL_TOL,
    DET_REL_TOL,
    ENTRY_ZERO_TOL,
    IDENTITY,
    Mat2C,
    Svd2,
    _prescale,
    det,
    mul,
    singular_values,
    svd2,
)
from .projective import (
    _VEC_ZERO_TOL,
    KERNEL_REL_TOL,
    ProjPoint,
    act,
    dist,
    expanding_image,
    image_line,
    kernel_line,
    most_contracted,
)

NEG_INF = float("-inf")
_LN2 = math.log(2.0)
# Largest |j| of a window.  The array stages hold sites as int64 and reach
# j + n past a window's edge, so a window must keep clear of the int64 range.
INDEX_BOUND = 2 ** 62


def _as_index(x) -> int:
    """x as an integer index, from an int or an integral float.  int() would
    also truncate 1.5 to 1 and read True as 1 and "3" as 3; those raise
    ValueError or TypeError here."""
    if isinstance(x, bool):
        raise ValueError(f"index {x!r} is not an integer")
    return int(x) if isinstance(x, float) and x.is_integer() else operator.index(x)


def _check_entries(items, bound_M: float) -> None:
    """The checks of every (j, entry) in turn: a number, finite, not the
    zero matrix, within float range and sigma1 < bound_M.  Raises
    InvalidSpec at the first entry that fails one."""
    for j, m in items:
        try:
            if not (cmath.isfinite(m.a) and cmath.isfinite(m.b)
                    and cmath.isfinite(m.c) and cmath.isfinite(m.d)):
                raise InvalidSpec(f"entry at j={j} is not finite")
            if m.is_zero():
                raise InvalidSpec(f"entry at j={j} is the zero matrix")
            s1, _ = singular_values(m)
        except OverflowError:  # |entry| or sigma1 beyond float range
            raise InvalidSpec(f"entry at j={j} is too large for float arithmetic") from None
        except TypeError:  # a string, None or another non-number
            raise InvalidSpec(f"entry at j={j} is not a number") from None
        if not s1 < bound_M:
            raise InvalidSpec(f"entry at j={j} violates sigma1 < bound_M ({s1} >= {bound_M})")


def _check_window(lo: int, hi: int, bound_M: float) -> None:
    """The window checks of a sequence, in order: not empty, bound_M finite
    and positive, every |j| at most INDEX_BOUND."""
    if hi < lo:
        raise InvalidSpec("sequence window is empty")
    if not (math.isfinite(bound_M) and bound_M > 0.0):
        raise InvalidSpec(f"bound_M must be finite and positive, got {bound_M}")
    if lo < -INDEX_BOUND or hi > INDEX_BOUND:
        raise InvalidSpec(f"window [{lo}, {hi}] reaches past the index bound "
                          f"+-2^62 = +-{INDEX_BOUND}")


def _check_stack(lo: int, factors: np.ndarray, bound_M: float, entries=None,
                 screen: tuple | None = None) -> tuple:
    """The entry checks of a (4, L) stack, and its screen (sigma1, sigma2,
    adet, k) of ``_screen`` with every row filled in.  The checks run on the
    stack first; ``_check_entries`` then takes only the entries it flags, in
    insertion order, so an error is the one that checking every entry in
    turn would raise.  The flagged entries are read from ``entries`` where
    given (the dict a sequence was built from), else from the stack's
    columns.  ``screen`` is the stack's ``_screen`` when the caller took it
    already.  The rows the screen left as nan passed the scalar checks, so
    they are finite and nonzero, and ``_factor_values`` takes them."""
    s1, s2, adet, k = screen or _screen(factors)
    bad = ~(s1 < bound_M * (1.0 - 1e-12))
    if np.count_nonzero(bad):
        flagged = np.flatnonzero(bad).tolist()
        if entries is None:
            items = ((lo + i, Mat2C(*factors[:, i].tolist())) for i in flagged)
        else:
            flagged = {lo + i for i in flagged}
            items = ((j, m) for j, m in entries.items() if j in flagged)
        _check_entries(items, bound_M)
        rows = np.flatnonzero(np.isnan(s1))
        if rows.size:
            s1[rows], s2[rows], adet[rows], k_rows = _factor_values(factors[:, rows])
            if k_rows is not None:
                k = np.zeros(len(s1), dtype=np.int64) if k is None else k
                k[rows] = k_rows
    return s1, s2, adet, k


class MatrixSequence:
    """A finite window j -> B(j) of nonzero matrices with a uniform norm bound.

    Entries are validated once at construction: every |j| at most
    INDEX_BOUND, every entry finite, every matrix nonzero and sigma1(B(j)) <
    bound_M, with bound_M finite and positive.  The entry checks run on the
    factor stack (``_check_stack``), whether the window comes as a {j: Mat2C}
    dict or as a stack through ``from_factors``.  ``factors`` holds the
    entries a, b, c, d of B(lo) .. B(hi) as a read-only (4, L) complex stack,
    and is the one copy of the window that is kept: ``seq[j]`` builds a
    ``Mat2C`` of complex entries from its column j - lo, and ``restrict`` and
    ``to_json_dict`` read it too.  The checks' screen is kept as read-only
    arrays over the window, and every stage that needs a factor's values
    reads them there: ``sigma1`` and ``sigma2`` as ``singular_values`` takes
    them, and ``adet``, the |det| of B(j) after the exact 2^k prescale of
    ``_prescale_rows``, with ``prescale_k`` those k (None when no factor
    takes one), so that ``log_abs_dets`` is log|det B(j)| as
    ``_log_abs_det`` takes it.  ``restrict`` goes through ``from_factors``,
    whose screen, row by row, gives their slices.  ``rescue_layers`` comes
    from them too: a ``product_sweep`` layer n <= rescue_layers reads
    a factor with sigma1 >= 1e100 or sigma2 <= 1e-100, and only such layers
    check their rows' sigma1 for the 2^k rescue (0 on a window in band).
    ``source`` is the generator spec of a generated window, or None.
    Instances are immutable and safe to share.
    """

    __slots__ = ("_lo", "_hi", "bound_M", "source", "factors", "sigma1", "sigma2", "adet",
                 "prescale_k", "rescue_layers")

    def __init__(
        self,
        entries: Mapping[int, Mat2C],
        bound_M: float,
        source: dict | None = None,
    ):
        js = sorted(entries)
        lo, hi = (js[0], js[-1]) if js else (0, -1)
        _check_window(lo, hi, bound_M)
        if hi - lo + 1 != len(js):
            raise InvalidSpec("sequence window has gaps")
        rows = [(m.a, m.b, m.c, m.d) for m in map(entries.__getitem__, range(lo, hi + 1))]
        factors = np.array(rows)
        if factors.dtype.kind in "biufc":
            factors = np.ascontiguousarray(factors.T, dtype=complex)
        else:  # not stackable as numbers (a string, an int beyond float range)
            _check_entries(entries.items(), bound_M)
            factors = np.array(rows, dtype=complex).T.copy()
        self._set(lo, factors, bound_M, source, _check_stack(lo, factors, bound_M, entries))

    @classmethod
    def from_factors(cls, lo: int, factors, bound_M: float, source: dict | None = None,
                     screen: tuple | None = None) -> "MatrixSequence":
        """The window B(lo) .. B(lo + L - 1) of a (4, L) stack of entries a,
        b, c, d, with the checks of the dict constructor run once on the
        stack.  The stack is copied.  ``screen`` is the stack's ``_screen``
        when the caller took it already; the sequence keeps its arrays."""
        factors = np.array(factors, dtype=complex)
        if factors.ndim != 2 or len(factors) != 4:
            raise InvalidSpec(f"factors must be a (4, L) stack, not of shape {factors.shape}")
        lo = operator.index(lo)
        _check_window(lo, lo + factors.shape[1] - 1, bound_M)
        seq = cls.__new__(cls)
        seq._set(lo, factors, bound_M, source, _check_stack(lo, factors, bound_M, screen=screen))
        return seq

    def _set(self, lo, factors, bound_M, source, screen) -> None:
        self.factors = factors
        self.sigma1, self.sigma2, self.adet, k = screen
        self.prescale_k = k if k is not None and np.count_nonzero(k) else None
        for a in (factors, self.sigma1, self.sigma2, self.adet, self.prescale_k):
            if a is not None:
                a.flags.writeable = False
        out = np.flatnonzero(~((self.sigma1 < _BAND) & (self.sigma2 > 1.0 / _BAND)))
        self.rescue_layers = int(out[-1]) + 1 if out.size else 0
        self._lo, self._hi = lo, lo + factors.shape[1] - 1
        self.bound_M = float(bound_M)
        self.source = copy.deepcopy(source)  # shares no dict with the caller's

    @property
    def window(self) -> tuple[int, int]:
        return (self._lo, self._hi)

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        return self._hi

    def __len__(self) -> int:
        return self._hi - self._lo + 1

    def __getitem__(self, j: int) -> Mat2C:
        if not self._lo <= j <= self._hi:
            raise WindowExceeded(f"j={j} outside window [{self._lo}, {self._hi}]")
        return Mat2C(*self.factors[:, j - self._lo].tolist())

    def indices(self) -> range:
        return range(self._lo, self._hi + 1)

    def restrict(self, lo: int, hi: int) -> "MatrixSequence":
        if lo < self._lo or hi > self._hi or lo > hi:
            raise WindowExceeded(f"[{lo}, {hi}] not inside [{self._lo}, {self._hi}]")
        # no source: a generator spec names the window it was built over
        return MatrixSequence.from_factors(lo, self.factors[:, lo - self._lo:hi - self._lo + 1],
                                           self.bound_M)

    def log_abs_dets(self) -> np.ndarray:
        """log|det B(j)| for j = lo .. hi, -inf where det is 0, as
        ``_log_abs_det`` takes it: the log of the prescaled |det| less
        2k log 2."""
        out = np.full(len(self.adet), NEG_INF)
        pos = self.adet > 0.0
        out[pos] = np.log(self.adet[pos])
        return out if self.prescale_k is None else out - 2 * self.prescale_k * _LN2

    def to_json_dict(self) -> dict:
        # [re, im] of a, b, c, d per entry: the stack's (L, 4) complex rows as float pairs
        parts = np.ascontiguousarray(self.factors.T).view(float).reshape(-1, 4, 2).tolist()
        entries = [{"j": j, "m": m} for j, m in zip(self.indices(), parts)]
        doc = {"window": [self._lo, self._hi], "bound_M": self.bound_M, "entries": entries}
        if self.source is not None:
            doc["source"] = copy.deepcopy(self.source)
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "MatrixSequence":
        try:
            lo, hi = (_as_index(x) for x in doc["window"])
            if isinstance(doc["bound_M"], (str, bool)):  # float() would read "4" and true
                raise TypeError(f"bound_M {doc['bound_M']!r} is not a number")
            bound = float(doc["bound_M"])
            factors = _entry_stack(doc["entries"], lo, hi)
            if factors is None:
                entries = {}
                for rec in doc["entries"]:  # "m": [re, im] of a, b, c and d
                    j = _as_index(rec["j"])
                    if j in entries:
                        raise ValueError(f"entry j={j} appears twice")
                    entries[j] = Mat2C(*[complex(re, im) for re, im in rec["m"]])
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            # OverflowError: a bound or entry too large for a float
            raise InvalidSpec(f"malformed sequence document: {exc}") from exc
        if factors is not None:
            return MatrixSequence.from_factors(lo, factors, bound, source=doc.get("source"))
        seq = MatrixSequence(entries, bound, source=doc.get("source"))
        if seq.window != (lo, hi):
            raise InvalidSpec("declared window does not match entries")
        return seq


_PAIRS = {"pairs": True}  # field metadata: an {n: value} table, written as [n, value] pairs


def _json_fields(obj, skip: tuple[str, ...] = ()) -> dict:
    """The JSON document of a report dataclass: every field that takes part
    in == and is not in ``skip``, under its own name.  A value with its own
    ``to_json_dict`` is written as that document, a tuple or a flat list as
    a new list, the table of a field marked ``_PAIRS`` as its [n, value]
    pairs in ascending n, another dict as a deep copy, and a scalar as it
    is: the document shares no list or dict with the report."""
    doc = {}
    for f in fields(obj):
        if f.compare and f.name not in skip:
            value = getattr(obj, f.name)
            if isinstance(value, (tuple, list)):
                value = list(value)
            elif "pairs" in f.metadata:
                value = [[n, v] for n, v in sorted(value.items())]
            elif hasattr(value, "to_json_dict"):
                value = value.to_json_dict()
            elif isinstance(value, dict):
                value = copy.deepcopy(value)
            doc[f.name] = value
    return doc


def _entry_stack(records, lo: int, hi: int) -> np.ndarray | None:
    """The (4, L) stack of the records' "m" lists, read as a whole, when the
    records are the sites lo .. hi in order and every "m" is four [re, im]
    pairs of ints and floats: then it holds what complex(re, im) gives entry
    by entry.  None for any other document, which ``from_json_dict`` reads
    entry by entry, for the errors that loop raises."""
    try:
        js = [rec["j"] for rec in records]
        parts = np.array([rec["m"] for rec in records])
    except (KeyError, TypeError, ValueError, IndexError, OverflowError):
        return None
    if not (parts.shape == (len(js), 4, 2) and parts.dtype.kind in "bif"
            and set(map(type, js)) <= {int, float}  # not True for 1, nor a str
            and len(js) == hi - lo + 1 and js == list(range(lo, hi + 1))):
        return None
    return np.ascontiguousarray(parts, dtype=float).view(complex).reshape(-1, 4).T


# orjson reads what json reads, to the bit, except that it refuses NaN,
# Infinity, numbers beyond float range and lone surrogate escapes, and reads
# an integer literal outside 64 bits as a rounded float.  Such a literal has
# at least 19 digits (2^63 has 19), and its first digit follows "-", "[",
# ",", ":", whitespace or the start of the text: with every digit read as 0
# and each of those characters as "[", it shows as "[" and 19 zeros.
_OPENERS = bytes.maketrans(b"123456789" + b"-,: \t\n\r", b"0" * 9 + b"[" * 7)
_LONG_INTEGER = b"[" + b"0" * 19


def load_sequence(path: str) -> MatrixSequence:
    """The sequence of a JSON file, as ``from_json_dict`` reads
    ``json.load``'s document.  orjson parses it, in a fifth of json's time;
    the text is read again with json where orjson refuses it or may hold an
    integer literal outside 64 bits."""
    import orjson  # here, not at module import: only a sequence file needs it

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError:
        doc = None
    if doc is None or _LONG_INTEGER in ("[" + text).encode().translate(_OPENERS):
        doc = json.loads(text)
    return MatrixSequence.from_json_dict(doc)


def _sequence_text(seq: MatrixSequence) -> str:
    """The text of seq's sequence file, the one that ``gen`` and ``dump_sequence`` write."""
    return json.dumps(seq.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def dump_sequence(seq: MatrixSequence, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_sequence_text(seq))


@dataclass(frozen=True, slots=True)
class ScaledProduct:
    """B_n(start) stored as exp(log_scale) * core with sigma1(core) = 1.

    log_abs_det accumulates log|det| of the factors, so sigma2 of the
    product is available exactly in the log domain even when the core's
    entrywise determinant has been swallowed by rounding.
    """

    log_scale: float
    core: Mat2C
    length: int
    start: int
    log_abs_det: float

    @staticmethod
    def identity(start: int) -> "ScaledProduct":
        return ScaledProduct(0.0, IDENTITY, 0, start, 0.0)

    def left_multiply(self, factor: Mat2C) -> "ScaledProduct":
        """The product factor . B_n(start), i.e. B_{n+1}(start)."""
        return self._step(factor, right=False)

    def _step(self, factor: Mat2C, right: bool) -> "ScaledProduct":
        """One renormalized step: factor . B_n(start), or with ``right``
        B_n(start) . factor, which is B_{n+1}(start - 1)."""
        raw = mul(self.core, factor) if right else mul(factor, self.core)
        if raw.is_zero():
            where = (f"ending at j={self.start + self.length - 1}" if right
                     else f"starting at j={self.start}")
            raise ProductVanished(f"product of length {self.length + 1} {where} vanished")
        s1, _ = singular_values(raw)
        return ScaledProduct(
            self.log_scale + math.log(s1),
            raw.scale(1.0 / s1),
            self.length + 1,
            self.start - 1 if right else self.start,
            self.log_abs_det + _log_abs_det(factor),
        )

    @property
    def log_sigma1(self) -> float:
        s1, _ = singular_values(self.core)
        return self.log_scale + math.log(s1)

    @property
    def log_sigma2(self) -> float:
        return self.log_abs_det - self.log_sigma1

    def svd(self) -> Svd2:
        """SVD of the core; directions of the product itself."""
        return svd2(self.core)

    def matrix(self) -> Mat2C:
        """exp(log_scale) * core; may over/underflow for long products."""
        return self.core.scale(math.exp(self.log_scale))

    def apply_log(self, v: tuple[complex, complex]) -> float:
        """log ||B_n(start) v|| for a unit vector v."""
        w = self.core.apply(v)
        return self.log_scale + math.log(math.hypot(abs(w[0]), abs(w[1])))


def _log_abs_det(m: Mat2C) -> float:
    """log|det m| of a nonzero m, -inf where det is 0.  m is prescaled by
    the 2^k of ``singular_values`` first, so det neither overflows nor
    underflows, and 2k log 2 is taken off the log."""
    m, k = _prescale(m)
    adet = abs(det(m))
    return math.log(adet) - 2 * k * _LN2 if adet > 0.0 else NEG_INF


def window_product(seq: MatrixSequence, j: int, n: int) -> ScaledProduct:
    """B_n(j) = B(j+n-1) ... B(j) with per-factor renormalization: the last
    product of ``forward_scan``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for prod in forward_scan(seq, j, n):
        pass
    return prod


def forward_scan(seq: MatrixSequence, j: int, n_max: int) -> Iterator[ScaledProduct]:
    """Yields B_n(j) for n = 0 .. n_max (requires j + n_max - 1 <= hi)."""
    if n_max > 0 and (j < seq.lo or j + n_max - 1 > seq.hi):
        raise WindowExceeded(f"[{j}, {j + n_max - 1}] not inside [{seq.lo}, {seq.hi}]")
    prod = ScaledProduct.identity(j)
    yield prod
    for k in range(n_max):
        prod = prod.left_multiply(seq[j + k])
        yield prod


def backward_scan(seq: MatrixSequence, j: int, n_max: int) -> Iterator[ScaledProduct]:
    """Yields B_n(j - n) for n = 0 .. n_max: products ending just before j."""
    if n_max > 0 and (j - n_max < seq.lo or j - 1 > seq.hi):
        raise WindowExceeded(f"[{j - n_max}, {j - 1}] not inside [{seq.lo}, {seq.hi}]")
    prod = ScaledProduct.identity(j)
    yield prod
    for k in range(1, n_max + 1):
        # B_{k}(j-k) = B_{k-1}(j-k+1) . B(j-k)
        prod = prod._step(seq[j - k], right=True)
        yield prod


def sn(seq: MatrixSequence, j: int, n: int) -> ProjPoint:
    """Most contracted direction of B_n(j)."""
    prod = window_product(seq, j, n)
    sv = prod.svd()
    if sv.degenerate:
        raise Degenerate(f"B_{n}({j}) has sigma1 ~ sigma2")
    return most_contracted(sv)


def un(seq: MatrixSequence, j: int, n: int) -> ProjPoint:
    """Expanding image direction of B_n(j-n): the n-step past of site j."""
    prod = window_product(seq, j - n, n)
    sv = prod.svd()
    if sv.degenerate:
        raise Degenerate(f"B_{n}({j - n}) has sigma1 ~ sigma2")
    return expanding_image(sv)


@dataclass(frozen=True)
class ConvergenceCert:
    """Per-n consecutive distances and the fitted geometric decay rates.

    ``s_steps`` and ``u_steps`` map n to the step d(pt_n, pt_{n+1}) of each
    side.  ``rows`` holds what they are built from, when first read: the s
    and u halves of the sweep's step grid and k, this site's column in both,
    which holds its step at row n and nan where there is none.
    """

    n_star_s: int
    n_star_u: int
    rate_s: float | None
    rate_u: float | None
    tol: float
    rows: tuple = field(repr=False, compare=False)

    @cached_property
    def s_steps(self) -> dict[int, float]:
        return _step_table(self.rows[0][:, self.rows[2]])

    @cached_property
    def u_steps(self) -> dict[int, float]:
        return _step_table(self.rows[1][:, self.rows[2]])


def _step_table(column: np.ndarray) -> dict[int, float]:
    return {n: d for n, d in enumerate(column.tolist()) if d == d}


def _staircase_cells(j0: int, n0: int, grid: np.ndarray):
    """j, n and value of every cell of a staircase grid, as arrays in (j, n)
    order: row k holds n = n0 + k at the grid.shape[1] - k starts from j0,
    and the padding past them is not read."""
    count, width = grid.shape
    j, k = np.nonzero(np.arange(width)[:, None] < width - np.arange(count))
    return j0 + j, n0 + k, grid[k, j]


# Chordal steps at or below this are rounding noise of the metric (diameter
# 2) and carry no rate signal.
STEP_NOISE_FLOOR = 1e-13


def _fit_lines(
    x: np.ndarray, y: np.ndarray, use: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares lines y = intercept + slope x down each column of a
    finite y, over the rows where ``use`` holds; x is one column.  Returns
    (slope, intercept) per column, the slope nan where fewer than two rows
    are used or their x are all equal.  Every sum runs along one column
    alone, as a row of a C-contiguous transpose, so a column's line depends
    neither on the array's layout nor on the other columns."""
    x, y, use = (np.ascontiguousarray(np.broadcast_to(a, use.shape).T) for a in (x, y, use))
    count = use.sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):  # columns with no points
        xbar = (use * x).sum(axis=-1) / count
        ybar = (use * y).sum(axis=-1) / count
        dx = np.where(use, x - xbar[:, None], 0.0)
        dy = np.where(use, y - ybar[:, None], 0.0)
        sxx = (dx * dx).sum(axis=-1)
        slope = (dx * dy).sum(axis=-1) / sxx
    return np.where((count >= 2) & (sxx > 0.0), slope, np.nan), ybar - slope * xbar


def _fit_rates(steps: np.ndarray) -> list[float | None]:
    """Least-squares slope of log d against n down each column of ``steps``,
    where row n holds the step d(pt_n, pt_{n+1}) and nan marks no step; None
    where fewer than two steps clear STEP_NOISE_FLOOR."""
    use = steps > STEP_NOISE_FLOOR  # False on nan
    ns = np.arange(len(steps), dtype=float)[:, None]
    rates = _fit_lines(ns, np.log(np.where(use, steps, 1.0)), use)[0]
    return [None if r != r else r for r in rates.tolist()]


def estimate_splitting(
    seq: MatrixSequence, j: int, n_max: int, tol: float
) -> tuple[ProjPoint, ProjPoint, ConvergenceCert]:
    """Estimates E^s(j), E^u(j) with a Cauchy-style stopping certificate.

    s_n(j) and u_n(j) are scanned until three successive consecutive
    distances fall below ``tol``; the first index n* opening such a run is
    returned (s_{n*}, u_{n*}).  Degenerate products interrupt the run.  This
    is ``estimate_fields`` at the one site j, over the part of the window
    that its depth n_max reaches, so it answers as the sweep of the whole
    window does at j.  Raises NoConvergence when either side exhausts its
    room in the window, or a product vanishes, before the rule is met;
    InvalidSpec for n_max < 1 or tol <= 0, and WindowExceeded for a j
    outside the window.
    """
    sweep = estimate_fields(_site_window(seq, j, n_max), (j, j), n_max, tol)
    if sweep.failed:
        raise NoConvergence(f"directions at j={j} did not meet tol={tol} within n_max={n_max}")
    return sweep.es[j], sweep.eu[j], sweep.certs[j]


def _site_window(seq: MatrixSequence, j: int, n_max: int) -> MatrixSequence:
    """seq.restrict(j - n_max, j + n_max - 1), cut to the window: every
    factor that s_n(j) or u_n(j) reads for n <= n_max."""
    if n_max < 1:
        raise InvalidSpec(f"n_max must be at least 1, got {n_max}")
    if not seq.lo <= j <= seq.hi:
        raise WindowExceeded(f"j={j} outside window [{seq.lo}, {seq.hi}]")
    return seq.restrict(max(seq.lo, j - n_max), min(seq.hi, j + n_max - 1))


# -- the batched engine ------------------------------------------------------


def _ldexp_c(z: np.ndarray, k: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, k)
    out.imag = np.ldexp(z.imag, k)
    return out


def _apply(m: tuple[np.ndarray, ...], v0: np.ndarray, v1: np.ndarray):
    """``Mat2C.apply`` over arrays of matrices m = (a, b, c, d) and vectors."""
    a, b, c, d = m
    return a * v0 + b * v1, c * v0 + d * v1


def _dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``dist`` over arrays of unit representatives p = (p0, p1), q = (q0, q1)."""
    return 2.0 * np.abs(p[0] * q[1] - p[1] * q[0])


def _pow2_exponents(s: np.ndarray, far: np.ndarray) -> np.ndarray | None:
    """k = -floor(log2 s), which takes s into [1, 2) by an exact 2^k, where
    far holds and 0 elsewhere, in s's shape; None when far holds nowhere."""
    if not np.count_nonzero(far):
        return None
    k = np.zeros(s.shape, dtype=np.int64)
    k[far] = -np.floor(np.log2(s[far])).astype(np.int64)
    return k


def _pow2_rescue(*zs: np.ndarray) -> np.ndarray | None:
    """The exponents of ``rescale_pow2``'s exact 2^k rescue of each vector
    of zs, arrays of one shape: those of s, its largest real or imaginary
    part, where s leaves (1e-280, 1e280), and 0 on the other vectors and on
    zero vectors, which stay zero; None when no vector needs it."""
    s = np.maximum.reduce([np.abs(x) for z in zs for x in (z.real, z.imag)])
    return _pow2_exponents(s, ~((s > 1e-280) & (s < 1e280)) & (s != 0.0))


def _project(v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """``project`` over arrays of vectors (v0, v1): the canonical unit
    representatives as a (2, K) array, each within rounding of the scalar
    function's, normalised by ``_unit``; a lead near the subnormals takes a
    2^k rescue of its own.  Raises ZeroVector if any vector is zero."""
    if not len(v0):  # a sweep without sites, as the avalanche audit runs it
        return np.empty((2, 0), dtype=complex)
    with np.errstate(over="ignore"):  # an inf norm is taken again after _unit's rescue
        norm = np.hypot(np.abs(v0), np.abs(v1))
    if np.count_nonzero(norm <= _VEC_ZERO_TOL):
        raise ZeroVector("cannot project a zero vector")
    x, y = _unit(v0, v1, norm)
    # _phase_to_first_positive with x as the lead; x = 0 is the point at infinity
    at_inf = x == 0
    lead = np.where(at_inf, 1.0, x)
    alead = np.abs(lead)  # about 1 at most, and at most sqrt(2) times its largest part
    if not alead.min() > 4e-280:
        k = _pow2_rescue(lead)
        if k is not None:
            lead = _ldexp_c(lead, k)
            alead = np.abs(lead)
    ph = np.conj(lead) / alead
    out = np.empty((2, len(x)), dtype=complex)
    out[0] = np.where(at_inf, 0.0, np.abs(x * ph))
    out[1] = np.where(at_inf, 1.0, y * ph)
    return out


def _mul_rows(x: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The products x . z over (4, m) stacks of matrices [[a, b], [c, d]],
    each entry summed as ``mul`` sums it: one broadcast product per row pair
    of x against the rows (a, b) and (c, d) of z.  Written into ``out``, a
    C-contiguous (4, m) array, when given."""
    m = z.shape[1]
    x = x.reshape(2, 2, 1, m)
    z = z.reshape(2, 2, m)
    if out is None:
        out = np.empty((4, m), dtype=complex)
    prod = out.reshape(2, 2, m)
    np.multiply(x[:, 0], z[0], out=prod)
    prod += x[:, 1] * z[1]
    return out


def _gram(z: np.ndarray):
    """The Gram-matrix quadratic of ``singular_values`` over a (4, m) stack
    of matrices [[a, b], [c, d]]: (p, r, q, |q|, sigma1^2, sigma1).  The
    root hypot(p - r, 2|q|) is taken as the modulus of the complex number
    (p - r) + 2|q| i, which numpy computes without overflow, within 2 ulp of
    hypot and at a fraction of its cost."""
    z = np.ascontiguousarray(z)
    parts = z.view(float)  # Re, Im interleaved along each row
    sq = parts * parts
    a2 = sq[:, 0::2] + sq[:, 1::2]  # |a|^2, |b|^2, |c|^2, |d|^2
    p, r = a2[:2] + a2[2:]  # p = |a|^2 + |c|^2, r = |b|^2 + |d|^2
    cz = np.conj(z[0::2]) * z[1::2]  # conj(a) b, conj(c) d
    q = cz[0] + cz[1]
    aq = np.abs(q)
    root = np.empty(len(p), dtype=complex)
    np.subtract(p, r, out=root.real)
    np.multiply(aq, 2.0, out=root.imag)
    s1sq = 0.5 * (p + r + np.abs(root))
    return p, r, q, aq, s1sq, np.sqrt(s1sq)


def _right_vectors(p, r, q, aq, s1sq):
    """The top right singular vector of each row of a ``_gram`` quadratic,
    from the Gram row with the larger pivot, as unit (v0, v1); (0, 0) where
    that row is zero (degenerate or vanished rows only)."""
    pivot_p = p >= r
    dr, dp = s1sq - r, s1sq - p
    w0 = np.where(pivot_p, dr, q)
    w1 = np.where(pivot_p, np.conj(q), dp)
    # hypot(|w0|, |w1|) from |q| and the real entries: hypot(x, +-0) = |x|
    # (C99 F.10.4.3) and |conj q| = |q|, so this rounds as the moduli would
    nw = np.hypot(np.where(pivot_p, np.abs(dr), aq), np.where(pivot_p, aq, np.abs(dp)))
    nw[nw == 0.0] = 1.0  # as _unit would, but a few us sooner: every degenerate row comes here
    return _unit(w0, w1, nw)


def _unit(w0: np.ndarray, w1: np.ndarray, nw: np.ndarray):
    """(w0 / nw, w1 / nw) for nw the norm of each vector (w0, w1), arrays of
    one shape; a zero vector stays zero.  numpy's complex division takes the
    reciprocal of nw, which overflows for a subnormal nw, and nw overflows
    past 1.3e308, so when a norm leaves (4e-280, 5e279) the vectors get
    ``_pow2_rescue``'s exact 2^k, as ``rescale_pow2`` in svd2, and their norms
    are taken again.  A largest part lies in [nw / 2, nw], so in-band norms
    leave every part in the rescue's band with a factor 2 to spare."""
    if not (nw.min() > 4e-280 and nw.max() < 5e279):
        k = _pow2_rescue(w0, w1)
        if k is not None:
            w0, w1 = _ldexp_c(w0, k), _ldexp_c(w1, k)
            nw = np.hypot(np.abs(w0), np.abs(w1))
        nw = np.where(nw == 0.0, 1.0, nw)
    return w0 / nw, w1 / nw


def _abs_det(z: np.ndarray) -> np.ndarray:
    """|ad - bc| of each row of a (4, m) stack of matrices [[a, b], [c, d]]."""
    a, b, c, d = z
    return np.abs(a * d - b * c)


def _sigma2(adet: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """sigma2 = adet / sigma1, or 0 where adet <= DET_REL_TOL sigma1^2, for
    adet the |det| of a matrix of largest singular value s1."""
    with np.errstate(invalid="ignore", divide="ignore"):  # sigma1 = 0 rows
        return np.where(adet > DET_REL_TOL * s1 * s1, np.minimum(adet / s1, s1), 0.0)


def _degenerate(p: np.ndarray, r: np.ndarray, s1sq: np.ndarray) -> np.ndarray:
    """The degeneracy test sigma1 - sigma2 <= t sigma1 of ``svd2``, with t =
    DEGENERATE_REL_TOL, read off a ``_gram`` quadratic without a det: it
    holds iff sigma1^2 - sigma2^2, which is 2 sigma1^2 - p - r, is at most
    t (2 - t) sigma1^2.  True on zero rows."""
    t = DEGENERATE_REL_TOL
    return 2.0 * s1sq - p - r <= t * (2.0 - t) * s1sq


def _prescale_rows(z: np.ndarray):
    """``_prescale`` over a (4, m) stack of matrices [[a, b], [c, d]]: the
    rows whose largest entry modulus leaves (1e-120, 1e120) scaled by the
    exact 2^k of ``_pow2_exponents``.  Returns (z, k, zero), k None where no
    row needs it; ``zero`` flags the rows that are the zero matrix (every
    entry at most ENTRY_ZERO_TOL), which stay as they are.  The moduli are
    exact, as ``_prescale`` takes them: hypot of the parts is Python's
    complex abs, bit for bit, where numpy's complex modulus can differ by an
    ulp and so move a row across a threshold."""
    biggest = np.hypot(z.real, z.imag).max(axis=0)
    zero = biggest <= ENTRY_ZERO_TOL
    k = _pow2_exponents(biggest, ~zero & ((biggest <= 1e-120) | (biggest >= 1e120)))
    return (z, None, zero) if k is None else (_ldexp_c(z, k), k, zero)


def _factor_values(z: np.ndarray) -> tuple:
    """(sigma1, sigma2, adet, k) of each row of a (4, m) stack of finite
    matrices: sigma1 and sigma2 as ``singular_values`` takes them, and the
    |det| that its sigma2 reads, that of the row after its exact 2^k
    prescale, with those k (None when no row takes one).  sigma1 is 0 just on
    the zero matrices: the prescale moves every other row into its band."""
    z, k, _ = _prescale_rows(z)
    s1 = _gram(z)[-1]
    adet = _abs_det(z)
    s2 = _sigma2(adet, s1)
    if k is not None:
        s1, s2 = np.ldexp(s1, -k), np.ldexp(s2, -k)
    return s1, s2, adet, k


# A matrix whose largest real or imaginary part s is finite and lies in
# (ENTRY_ZERO_TOL, _SCREEN_MAX] is not the zero matrix (its largest entry
# is at least s), and its moduli and sigma1 (at most 2 sqrt(2) s) are finite.
_SCREEN_MAX = 1e300

# A factor B is in band when sigma1(B) < _BAND and sigma2(B) > 1 / _BAND, and a
# sweep row when the sigma1 of its raw product lies in (1 / _BAND, _BAND).  A
# core has sigma1 = 1, so sigma1(B . core) lies in [sigma2(B), sigma1(B)]: a
# layer whose factors are all in band, with no vanished row, has every row in
# band.  An in-band row's largest entry lies in [sigma1 / 2, sigma1], 20
# decades inside the prescale's band (1e-120, 1e120) and far above
# ENTRY_ZERO_TOL, so ``_prescale_rows`` would leave it as it is.  sigma2 > 0
# means |det| > DET_REL_TOL sigma1^2, so the rounding of det cannot carry a
# factor into the band.
_BAND = 1e100


def _screen(z: np.ndarray) -> tuple:
    """``_factor_values`` of each row of a (4, m) stack of matrices, and nan
    on the rows that it cannot vouch for: a non-finite part, or a largest
    part at most ENTRY_ZERO_TOL or above _SCREEN_MAX (their k is 0).  Only
    those rows can fail a scalar check other than the sigma1 bound."""
    parts = np.abs(np.ascontiguousarray(z).view(float)).max(axis=0)
    s = np.maximum(parts[0::2], parts[1::2])
    ok = (s > ENTRY_ZERO_TOL) & (s <= _SCREEN_MAX)  # False on nan
    if np.count_nonzero(ok) == len(ok):
        return _factor_values(z)
    s1, s2, adet = np.full((3, len(s)), np.nan)
    k = np.zeros(len(s), dtype=np.int64)
    if np.count_nonzero(ok):
        s1[ok], s2[ok], adet[ok], k_ok = _factor_values(z[:, ok])
        if k_ok is not None:
            k[ok] = k_ok
    return s1, s2, adet, k


class _DirectionRuns:
    """The Cauchy stopping rule of ``estimate_splitting`` over W columns at
    once, each one side (s or u) of one site: per-column run counters, the
    point opening the current run, and every consecutive distance, written
    into ``steps``, a (depth, W) array.  Layer n is fed by one ``advance``,
    which updates that state in place."""

    def __init__(self, steps: np.ndarray):
        width = steps.shape[1]
        self.run = np.zeros(width, dtype=np.int64)
        self.done = np.zeros(width, dtype=bool)  # stopped, vanished or out of room
        self.n_star = np.full(width, -1, dtype=np.int64)
        self.prev_ok = np.zeros(width, dtype=bool)  # prev holds a point
        self.prev = np.zeros((2, width), dtype=complex)
        self.cand = np.zeros((2, width), dtype=complex)
        self.steps = steps  # [n - 1]: d(pt_{n-1}, pt_n)
        steps.fill(np.nan)

    def advance(self, n, room, vanished, degenerate, pts, tol):
        """Layer n at each column.  room = (s_end, u_start): the s columns of
        the sites before s_end and the u columns from site u_start on may look
        at depth n; s_end only falls and u_start only rises, so the rest are
        done.  pts is each unit direction as a (2, W) array, meaningful where
        neither flag is set; a flag is None where it holds at no column.  pts
        is None on a layer where every column is degenerate or vanished: the
        flags still count, but no step is taken and every live run restarts."""
        s_end, u_start = room
        half = len(self.done) // 2
        self.done[s_end:half + u_start] = True
        live = ~self.done
        if vanished is not None:
            # the scalar scan raises ProductVanished before it reads this layer
            self.done |= live & vanished
            live &= ~vanished
        if pts is None:
            np.copyto(self.run, 0, where=live)
            np.copyto(self.prev_ok, False, where=live)
            return
        ok = live if degenerate is None else live & ~degenerate
        step = ok & self.prev_ok
        d = _dist(self.prev, pts)
        np.copyto(self.steps[n - 1], d, where=step)
        close = step & (d < tol)
        np.copyto(self.cand, self.prev, where=close & (self.run == 0))
        np.copyto(self.run, 0, where=live & ~close)
        self.run += close
        stop = close & (self.run >= 3)
        np.copyto(self.n_star, n - 3, where=stop)
        self.done |= stop
        np.copyto(self.prev, pts, where=ok)
        np.copyto(self.prev_ok, ok, where=live)


@dataclass(frozen=True)
class ProductSweep:
    """Everything one ``product_sweep`` yields.

    ``log_s1_grid`` is the staircase of log sigma1 of B_n(j): row n holds it
    at columns j - lo for j = lo .. hi - n + 1, n = 0 .. min(n_max, L) + 1
    for L the window's length (layer 0 is the identity and has one start
    more, hi + 1), and +inf in the cells past that; -inf marks a vanished
    product.  ``log_s2_grid`` holds log sigma2 the same way, with -inf past
    the staircase, and is built from the sequence's kept log|det| and the
    log sigma1 grid when first read; every stage reads these two grids.  At
    the sites of ``jrange`` the sweep holds the sites where estimation failed
    and, as columns over the K sites whose fields converged, ``js`` in
    ascending order, the fields' unit representatives ``es_vec`` /
    ``eu_vec`` as (2, K) arrays and the stopping indices ``n_star`` as a
    (2, K) array (rows s, u).  The consecutive distances ``steps`` are a
    (min(n_max, L), 2S) array over all S sites of jrange, converged or not:
    s columns then u columns, row n holding d(pt_n, pt_{n+1}) and nan where
    there is none, since no column has room past depth L.  ``rates``, one
    fit over the converged sites' step columns alone, and the per-site dicts
    ``es``, ``eu`` and ``certs``, whose rates are those, are built from the
    columns when first read.  ``seq`` is the swept sequence, the one source
    of the factor stack and kept factor values that the later stages read.
    ``log_s2_room`` is the array of the log sigma1 grid's shape that
    ``log_s2_grid`` is written into; the sweep allocates it in one block
    with the log sigma1 grid and ``steps``.  ``vanished`` says whether a
    product vanished, which is when the grids hold -inf, so that the stages
    look for -inf cells only then.
    """

    window: tuple[int, int]
    n_max: int
    log_s1_grid: np.ndarray = field(repr=False)
    jrange: tuple[int, int] | None
    tol: float
    failed: list[int]
    js: np.ndarray = field(repr=False)
    es_vec: np.ndarray = field(repr=False)
    eu_vec: np.ndarray = field(repr=False)
    n_star: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    seq: MatrixSequence = field(repr=False)
    log_s2_room: np.ndarray = field(repr=False, compare=False)
    vanished: bool

    @cached_property
    def es(self) -> dict[int, ProjPoint]:
        return dict(zip(self.js.tolist(), map(ProjPoint, *self.es_vec.tolist())))

    @cached_property
    def eu(self) -> dict[int, ProjPoint]:
        return dict(zip(self.js.tolist(), map(ProjPoint, *self.eu_vec.tolist())))

    @cached_property
    def rates(self) -> tuple[list[float | None], list[float | None]]:
        """The converged sites' fitted s and u rates, in ascending j: one
        ``_fit_rates`` over their 2K step columns, j's at j - jrange[0]."""
        k = len(self.js)
        site = self.js - self.jrange[0] if k else self.js
        rates = _fit_rates(self.steps[:, np.concatenate([site, site + self.steps.shape[1] // 2])])
        return rates[:k], rates[k:]

    @cached_property
    def certs(self) -> dict[int, ConvergenceCert]:
        """Each converged site's certificate: site j reads column j - jrange[0]
        of the step grid's s and u halves, and its rates from ``rates``."""
        rows = np.split(self.steps, 2, axis=1)
        sites = (self.js - self.jrange[0]).tolist() if len(self.js) else []
        columns = (self.js.tolist(), sites, *self.n_star.tolist(), *self.rates)
        return {j: ConvergenceCert(ns, nu, rs, ru, self.tol, (*rows, k))
                for j, k, ns, nu, rs, ru in zip(*columns)}

    @cached_property
    def log_s2_grid(self) -> np.ndarray:
        """log sigma2 = log|det| - log sigma1, with log|det| of B_n(j) summed
        factor by factor from B(j) up, as ``ScaledProduct`` sums it: row
        n - 1 of a staircase holds log|det B(j + n - 1)| at column j, from
        the sequence's kept log|det|, and ``_depth_sums`` runs down it."""
        ls1 = self.log_s1_grid
        flog_det = self.seq.log_abs_dets()
        size = len(flog_det)
        ls2 = self.log_s2_room
        ls2.fill(NEG_INF)
        ls2[0] = 0.0
        for n in range(1, min(len(ls2), size + 1)):  # row n holds size - n + 1 starts
            ls2[n, :size - n + 1] = flog_det[n - 1:]
        _depth_sums(ls2, size)
        with np.errstate(invalid="ignore"):  # -inf - -inf on vanished cells, set below
            # past the staircase -inf - +inf: the padding stays -inf
            np.subtract(ls2[1:, :size], ls1[1:, :size], out=ls2[1:, :size])
        if self.vanished:
            ls2[ls1 == NEG_INF] = NEG_INF
        return ls2


def _depth_sums(grid: np.ndarray, size: int) -> None:
    """The running sum down the depth axis of a staircase grid over a window
    of ``size`` starts, in place: row n - 1 is added into row n, which holds
    size - n + 1 cells, cell by cell, n = 1, 2, ...: the additions of
    ``np.add.accumulate`` in its order.  One add per row, rather than one
    accumulate down the axis, whose pass is latency-bound; the cells past
    the staircase are left as they are.  A cell may span trailing axes."""
    for n in range(1, min(len(grid), size + 1)):
        row = slice(0, size - n + 1)
        np.add(grid[n, row], grid[n - 1, row], out=grid[n, row])


def _rescue(raw: np.ndarray, quad: tuple, vanished: np.ndarray | None) -> np.ndarray | None:
    """The rows of a layer's ``_gram`` quadratic ``quad`` of its raw products
    whose sigma1 leaves (1 / _BAND, _BAND), or is nan, taken again from
    their ``_prescale_rows``, in place; sigma1 then is that of the raw
    product.  Rows that vanish join ``vanished``, the mask of the rows that
    had vanished before, which is returned (None while no row has).  A
    vanished row, whose entries are at most ENTRY_ZERO_TOL, has sigma1 0."""
    s1 = quad[-1]
    rescue = ~((s1 > 1.0 / _BAND) & (s1 < _BAND))
    if vanished is not None:
        rescue[vanished] = False
    rows = rescue.nonzero()[0]
    if not rows.size:
        return vanished
    z, k, tiny = _prescale_rows(raw[:, rows])
    if k is not None:  # else z is raw, whose quadratic quad holds
        for whole, part in zip(quad, _gram(z)):
            whole[rows] = part
        s1[rows] = np.ldexp(s1[rows], -k)
    if np.count_nonzero(tiny):
        if vanished is None:
            vanished = np.zeros(len(s1), dtype=bool)
        vanished[rows[tiny]] = True
    return vanished


def product_sweep(
    seq: MatrixSequence,
    n_max: int,
    jrange: tuple[int, int] | None = None,
    tol: float = 0.0,
) -> ProductSweep:
    """B_n(j) for every start j, depth by depth, n = 1 .. n_max + 1.

    Layer n is B(j+n-1) . core_{n-1}(j), renormalized by sigma1: the
    recurrence of ``ScaledProduct.left_multiply``, with the same Gram
    quadratic, power-of-two prescale and degeneracy test, over (4, m) numpy
    stacks of the entries a, b, c, d.  Each layer takes one Gram quadratic,
    of that raw product: log sigma1 of B_n(j) is the accumulated log scale,
    the sum of the raw products' log sigma1, and the directions and the
    degeneracy test are read off the raw product, since neither changes
    under the 2^k prescale or the 1/sigma1 renormalization.  A layer whose
    factors are all in band, with no vanished row, has every row in band
    (``_BAND``), where the prescale changes nothing.  So only the layers
    1 .. ``seq.rescue_layers``, and every layer once a row has vanished,
    check sigma1 per row, and only the rows out of band take the 2^k
    prescale (``_rescue``); a vanished row stays vanished, under a mask.
    The degeneracy test reads sigma2 off the quadratic too
    (``_degenerate``), so a layer takes no determinant, and it takes no
    hypot for sigma1 or for the norm of u.  The layers run in buffers
    allocated once per sweep, so only O(L) core data is held at a time.
    Each layer writes the sigma1 of its raw products into its row
    of one grid, and one log and one add per row down the depth axis
    (``_depth_sums``) turn that into the log sigma1 grid after the last
    layer.  With a ``jrange`` the sweep
    also runs the Cauchy stopping rule of ``estimate_splitting`` at its S
    sites, to depth n_max, as one rule over 2S columns, the s side of each
    site and then its u side: s_n(j) is read from layer n at start j and
    u_n(j) from layer n at start j - n, since B_n(j - n) is the forward
    product starting there.  The sites are a contiguous range, so a layer
    hands ``_DirectionRuns.advance`` the bounds of the columns whose start is
    one of its rows, and takes directions only on the rows those read.
    A layer on which every one of those rows is degenerate, vanished rows
    included, takes no direction at all: no right vector, u image or
    distance, since every live run restarts there, as the scalar rule's
    does on a degenerate product.
    The s columns run on the top right singular vector, whose complement is
    s_n(j) and has the same chordal steps; the complement is taken only for
    the certified fields.  A site fails when either side runs out of room
    or its product vanishes at or before the depth where its run stops.
    The stopping rule runs until every column has stopped, vanished or run
    out of room; the layers go on to n_max + 1.
    """
    if n_max < 1:
        raise InvalidSpec(f"n_max must be at least 1, got {n_max}")
    lo, hi = seq.window
    if jrange is not None and (jrange[0] < lo or jrange[1] > hi):
        raise WindowExceeded(f"jrange [{jrange[0]}, {jrange[1]}] outside window [{lo}, {hi}]")
    size = len(seq)
    factors = seq.factors

    sites = np.arange(jrange[0] - lo, jrange[1] - lo + 1) if jrange is not None else np.arange(0)
    n_sites = len(sites)
    first, last = (int(sites[0]), int(sites[-1])) if n_sites else (0, -1)
    # the sweep's staircase arrays share one allocation: the sigma1 grid, the
    # room that log sigma2 is built in when first read, and the step rows.
    # glibc sets its heap trim threshold from the largest block it has freed,
    # so a caller that drops one sweep while it makes the next keeps reusing
    # the pages of one block; with three blocks a dom-long op handed about
    # 3.8 MB back to the OS and faulted it in again every other call
    rows = min(n_max, size)
    shape = (rows + 2, size + 1)
    cells = shape[0] * shape[1]
    block = np.empty(2 * cells + rows * 2 * n_sites)
    # one column per side of each site, s columns then u columns.  At layer n
    # the s column of site j reads start j (s_n(j)) and its u column start
    # j - n (u_n(j)), while that start is a row of the layer.
    runs = _DirectionRuns(block[2 * cells:].reshape(rows, 2 * n_sites))
    pts = np.zeros((2, 2 * n_sites), dtype=complex)

    # buffers allocated once: raw and core take turns as (4, m) views of the
    # two flat stacks, and row n of s1 holds sigma1 of layer n's raw
    # products, 0 on vanished rows
    stacks = np.zeros((2, 4 * size), dtype=complex)
    core = stacks[0].reshape(4, size)
    core[0] = core[3] = 1.0
    s1 = block[:cells].reshape(shape)
    s1.fill(math.inf)  # +inf past the staircase
    s1[0] = 1.0
    vanished = None  # the rows that vanished, once one has
    for n in range(1, min(n_max + 1, size) + 1):
        m = size - n + 1  # starts lo .. hi - n + 1
        raw = _mul_rows(factors[:, n - 1:n - 1 + m], core[:, :m],
                        out=stacks[n % 2, :4 * m].reshape(4, m))
        if n <= seq.rescue_layers or vanished is not None:
            # rows out of band may overflow the quadratic: they are rescued;
            # 1 / 0 on vanished rows: a vanished core stays zero, so the row
            # stays vanished
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                quad = _gram(raw)
                vanished = _rescue(raw, quad, None if vanished is None else vanished[:m])
                inv = 1.0 / quad[-1]
            if vanished is not None:
                inv[vanished] = 0.0
        else:
            quad = _gram(raw)
            inv = 1.0 / quad[-1]
        p, r, q, aq, s1sq, s1[n, :m] = quad
        core = np.multiply(raw, inv, out=raw)

        if n > n_max or n_sites == 0 or np.count_nonzero(runs.done) == len(runs.done):
            continue
        # the rows a .. b - 1 hold what the columns with room read: the s
        # columns of the sites before s_end and the u columns from site
        # u_start on, the ones whose start is a row here.  The directions and
        # sigma2 / sigma1 do not change under the 2^k prescale or the
        # 1/sigma1 renormalisation, so the raw quadratic answers for core.
        a, b = max(first - n, 0), min(last + 1, m)
        s_end, u_start = min(max(m - first, 0), n_sites), min(max(n - first, 0), n_sites)
        s_rows = slice(first - a, first - a + s_end)
        u_rows = slice(first + u_start - n - a, last + 1 - n - a)
        p, r, q, aq, s1sq = (x[a:b] for x in (p, r, q, aq, s1sq))

        def columns(flag):
            """flag over the rows a .. b - 1 as a flag per column, None where
            it holds at no row."""
            if not np.count_nonzero(flag):
                return None
            out = np.zeros(2 * n_sites, dtype=bool)
            out[:s_end], out[n_sites + u_start:] = flag[s_rows], flag[u_rows]
            return out

        # a vanished row is zero in the quadratic, so degenerate too: when
        # every row is, no column takes a direction at this layer
        degenerate = _degenerate(p, r, s1sq)
        if np.count_nonzero(degenerate) == b - a:
            directions = degenerate = None
        else:
            v0, v1 = _right_vectors(p, r, q, aq, s1sq)
            pts[0, :s_end], pts[1, :s_end] = v0[s_rows], v1[s_rows]
            u = pts[:, n_sites + u_start:]
            u[0], u[1] = _apply(core[:, a + u_rows.start:a + u_rows.stop], v0[u_rows], v1[u_rows])
            # |core v| = sigma1(core) = 1 wherever the row has not vanished, so
            # the sum of its squared parts cannot over- or underflow
            nu = np.sqrt((u.real * u.real + u.imag * u.imag).sum(axis=0))
            nu[nu == 0.0] = 1.0
            u *= 1.0 / nu
            directions, degenerate = pts, columns(degenerate)
        runs.advance(n, (s_end, u_start), None if vanished is None else columns(vanished[a:b]),
                     degenerate, directions, tol)

    # log 0 = -inf on vanished rows, and past the staircase log inf = inf,
    # which the running sum leaves as it is
    with np.errstate(divide="ignore"):
        log_s1 = np.log(s1, out=s1)
    _depth_sums(log_s1, size)
    converged = (runs.n_star >= 0).reshape(2, n_sites).all(axis=0)
    ks = np.flatnonzero(converged)
    cols = (ks + n_sites * np.arange(2)[:, None]).ravel()  # s columns, then u columns
    cand = runs.cand[:, cols]
    n_star = runs.n_star[cols].reshape(2, -1)
    n_conv = len(ks)
    # the s columns ran on the top right singular vector v; E^s is its
    # complement, whose chordal steps are the same bits, as conj is exact
    es_vec = _project(-np.conj(cand[1, :n_conv]), np.conj(cand[0, :n_conv]))
    eu_vec = _project(cand[0, n_conv:], cand[1, n_conv:])
    failed = [lo + int(o) for o in sites[~converged]]
    return ProductSweep((lo, hi), n_max, log_s1, jrange, tol, failed,
                        lo + sites[ks], es_vec, eu_vec, n_star, runs.steps, seq,
                        block[cells:2 * cells].reshape(shape), vanished is not None)


def estimate_fields(
    seq: MatrixSequence,
    jrange: tuple[int, int] | None,
    n_max: int,
    tol: float,
) -> ProductSweep:
    """``estimate_splitting`` at every site of jrange, from one product sweep.

    jrange defaults to the window less four sites at its low end and three
    at its high end, which holds no site on a window of fewer than eight; a
    given jrange must hold at least one.  tol must lie in (0, 2]: at tol <= 0
    no run can stop, and past 2, the chordal diameter, every step closes a
    run.  The returned sweep also carries the log-sigma layers
    to depth n_max + 1 for the gap and invertibility profiles.
    """
    if not tol > 0.0:
        raise InvalidSpec(f"tol must be positive, got {tol}")
    if tol > 2.0:
        raise InvalidSpec(f"tol must be at most 2, the largest chordal distance, got {tol}")
    if jrange is None:
        jrange = (seq.lo + 4, seq.hi - 3)
    elif jrange[0] > jrange[1]:
        raise InvalidSpec(f"jrange [{jrange[0]}, {jrange[1]}] is empty")
    return product_sweep(seq, n_max, tuple(jrange), tol)


def invariance_residual(
    seq: MatrixSequence,
    j: int,
    es_field: Mapping[int, ProjPoint],
    eu_field: Mapping[int, ProjPoint],
) -> tuple[float, float]:
    """Distance from B(j)-pushforward of the fields at j to the fields at j+1.

    When E^s(j) lies on the kernel of B(j) the stable residual becomes the
    distance to the kernel line itself (the line is absorbed); when B(j) is
    singular the unstable residual compares E^u(j+1) against the image line.
    """
    m = seq[j]
    sv = svd2(m)
    try:
        res_s = dist(act(m, es_field[j]), es_field[j + 1])
    except KernelHit:
        res_s = dist(es_field[j], kernel_line(sv))
    if sv.sigma2 == 0.0:
        res_u = dist(image_line(sv), eu_field[j + 1])
    else:
        res_u = dist(act(m, eu_field[j]), eu_field[j + 1])
    return res_s, res_u


def invariance_residuals(sweep: ProductSweep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``invariance_residual`` at every j where the sweep's fields converged
    at both j and j + 1, as arrays (js, res_s, res_u) in ascending j.

    The pushforward B(j)v, the kernel test and the distance to the field at
    j + 1 are taken for all such j at once, with B(j), its sigma1 and sigma2
    read from the sweep's sequence.  On a rank-one B(j) (kept sigma2 = 0)
    the lines of v, the top right singular vector of B(j) after its kept
    2^k, stand in for the pushforward: E^u(j + 1) is measured against the
    image line of B v, and an E^s(j) on the kernel against the kernel line,
    the complement of v.  Only those rows can hit the kernel: a hit needs
    |B(j) E^s(j)| <= KERNEL_REL_TOL sigma1, and a kept sigma2 > 0, which
    bounds it below, exceeds DET_REL_TOL sigma1.
    """
    seq = sweep.seq
    k = np.flatnonzero(sweep.js[1:] == sweep.js[:-1] + 1)
    js = sweep.js[k]
    cols = js - seq.lo
    m = seq.factors[:, cols]
    es, eu = sweep.es_vec, sweep.eu_vec
    w_s, w_u = _apply(m, es[0, k], es[1, k]), _apply(m, eu[0, k], eu[1, k])
    s_next = es[:, k + 1]
    rank_one = np.flatnonzero(seq.sigma2[cols] == 0.0)
    if rank_one.size:
        z = m[:, rank_one]
        if seq.prescale_k is not None:
            z = _ldexp_c(z, seq.prescale_k[cols[rank_one]])
        v0, v1 = _right_vectors(*_gram(z)[:5])
        w_u[0][rank_one], w_u[1][rank_one] = _apply(z, v0, v1)  # the image line
        hit = (np.hypot(np.abs(w_s[0][rank_one]), np.abs(w_s[1][rank_one]))
               <= KERNEL_REL_TOL * seq.sigma1[cols[rank_one]])
        rows = rank_one[hit]
        # the kernel line, against E^s(j) itself
        w_s[0][rows], w_s[1][rows] = -np.conj(v1[hit]), np.conj(v0[hit])
        s_next[:, rows] = es[:, k[rows]]
    return js, _dist(_project(*w_s), s_next), _dist(_project(*w_u), eu[:, k + 1])
