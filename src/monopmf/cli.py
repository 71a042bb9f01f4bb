"""Command-line front end.

Subcommands: estimate, simulate, risk, limits, asymptotics, mixing.
Exit codes: 0 success, 1 usage error, unwritable output file or standard
output, or a run too large for memory, 2 input data error, 3 a simulated replicate failed
the monotone-estimator inequality check.  All files are written atomically (temp file + rename)
and machine-readable numbers carry 17 significant digits, the texts of %.17g.  Tables of a line per replicate,
draw or point (_raw.csv, the limits CSVs, pmf, weights) go through one writer, in byte-matrix pieces whose texts
come from array code (double-double digits, % for the few it leaves out); _summary.csv and risk's lines use %.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .experiments import (
    _SHORT_NAMES,
    EstimatorKind,
    ExperimentConfig,
    ExperimentSummary,
    InequalityViolation,
    TruthSpec,
    _check_sample_size,
    estimate,
    estimate_risk,
    run_experiment,
)
from .limits import _PairwiseSum, _draw_limit_blocks, asymptotics
from .metrics import MetricKind, distance
from .operators import constancy_blocks, mixing_estimate
from .pmf import COUNT_STREAM, float_label, parse_counts, parse_pmf

_MACHINE_FMT = "%.17g"
_HUMAN_FMT = "%.5g"

#: Lines per piece of a table (`_table_pieces`).
_CSV_CHUNK_ROWS = 4096


class DataError(Exception):
    """Unreadable or invalid input data (exit code 2)."""


class OutputError(Exception):
    """An output file that cannot be written (exit code 1)."""


class _ClosedStdout(io.TextIOBase):
    """sys.stdout when descriptor 1 was closed at start, where Python leaves None:
    a write fails as one to that descriptor would, and a flush has nothing to do."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _arg_type(parse):
    """An argparse type from `parse`, its ValueError a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _atomic_write_chunks(path: str, chunks) -> None:
    """Write the bytes-like `chunks` in turn to a temp file, then rename it
    to `path` (mode 0o666 less the umask, as open() gives); OutputError if
    that fails."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".monopmf-", suffix=".tmp")
        try:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)  # drops each chunk before the next is made
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _check_writable(path: str) -> None:
    """OutputError, with the message writing `path` would give, if no file
    can be made in its directory; run before work whose output goes there."""
    try:
        tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))).close()
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _atomic_write(path: str, text: str) -> None:
    _atomic_write_chunks(path, (text.encode("utf-8"),))


def _load(path: str, label: str, parse):
    """parse() of the text of a `label` file; any fault is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read {label} file {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(f"invalid {label} file {path!r}: {exc}") from None


def _out_path(out: str, name: str, names) -> str:
    """The --out file of the sequence `name` of `names`: `out`, with the name inserted when there are several."""
    stem, ext = os.path.splitext(out)
    return f"{stem}.{name}{ext}" if len(names) > 1 else out


def _estimates(args) -> dict:
    """The estimates of args.estimator ("all" for each) from args.counts, made once the counts and then
    --out are checked: counts `_check_sample_size` rejects for these estimators are invalid data."""
    kinds = {name: kind for kind, name in _SHORT_NAMES.items() if args.estimator in ("all", name)}

    def checked(text):
        counts = parse_counts(text)
        _check_sample_size(int(counts.sum()), counts.size, kinds.values())
        return counts

    counts = _load(args.counts, "counts", checked)
    if args.out is not None:
        _check_writable(_out_path(args.out, next(iter(kinds)), kinds))
    return {name: estimate(kind, counts) for name, kind in kinds.items()}


def _emit_sequences(sequences: dict, out) -> None:
    """Write each named sequence, lines "x<TAB>value", to stdout under a '# name' line or to `_out_path`."""
    for name, values in sequences.items():
        table = ["\t"], len(values), [(values[:, None],)], "\n"
        if out is None:
            sys.stdout.writelines(str(piece, "utf-8") for piece in _table_pieces(f"# {name}\n", *table))
        else:
            _atomic_write_chunks(_out_path(out, name, sequences), _table_pieces("", *table))


def _cmd_estimate(args) -> int:
    truth = None if args.truth is None else _load(args.truth, "pmf", parse_pmf)  # checked before any file is written
    estimates = _estimates(args)
    # a written pmf ends at its last positive entry (rear can sort interior zeros to the tail)
    _emit_sequences({name: np.trim_zeros(v, "b") for name, v in estimates.items()}, args.out)
    if truth is not None:
        metrics = [MetricKind.hellinger(), MetricKind.ell(1), MetricKind.ell(2), MetricKind.ell(math.inf)]
        print("estimator\t" + "\t".join(m.label for m in metrics))
        for name, values in estimates.items():
            row = [_HUMAN_FMT % distance(values, truth.probs, m) for m in metrics]
            print(name + "\t" + "\t".join(row))
    return 0


def _config_from_args(args) -> ExperimentConfig:
    """The run's config, from --config or from the flags."""
    given = {k: v for k, v in vars(args).items() if k in ExperimentConfig.__dataclass_fields__}  # in command-line order
    if args.config is not None:
        if given:
            raise ValueError(f"--{next(iter(given))} cannot be combined with --config")
        return _load(args.config, "config", lambda text: ExperimentConfig.from_json(json.loads(text)))
    return ExperimentConfig(**{"n": 100, "reps": 1000, "seed": 0, **given})


_TEXT_WIDTH = 24  # the longest %.17g text of a float64, "-2.2250738585072014e-308"
_POW10_MIN, _POW10_MAX = -300, 300  # covers 10^e and 10^(16-e) for the exponents e of [1e-280, 1e280]
_SPLITTER = 134217729.0  # 2^27 + 1
_PREFIX = np.arange(_TEXT_WIDTH + 1)[:, None] > np.arange(_TEXT_WIDTH)  # row j: the first j of a text's bytes
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)


def _split(x):
    """Veltkamp's split of float64s `x` into head + tail, each of at most 26 significant bits."""
    t = _SPLITTER * x
    head = t - (t - x)
    return head, x - head


@functools.cache
def _digit_tables():
    """(pow10, quads, trailing), built on first use from exact integer arithmetic.  pow10 has rows (hi, head,
    tail, lo) for 10^k, k = _POW10_MIN.._POW10_MAX: hi is 10^k rounded to a float64, lo the float64 nearest
    10^k - hi (so of its exact sign), head + tail = hi Veltkamp's split.  For c < 10^4, quads[c] holds the
    four ASCII digits of c as one "<u4" and trailing[c] the count of its trailing zeros (4 for 0)."""
    pow10 = np.empty((4, _POW10_MAX - _POW10_MIN + 1))
    q = 1
    for m in range(1, 1 - _POW10_MIN):  # 10^-m: int true division rounds correctly, and hi = a/b exactly
        q *= 10
        hi = 1 / q
        a, b = hi.as_integer_ratio()
        pow10[0, -_POW10_MIN - m], pow10[3, -_POW10_MIN - m] = hi, (b - a * q) / (b * q)
    p = 1
    for k in range(_POW10_MAX + 1):
        hi = float(p)
        pow10[0, k - _POW10_MIN], pow10[3, k - _POW10_MIN] = hi, float(p - int(hi))
        p *= 10
    pow10[1], pow10[2] = _split(pow10[0])
    c = np.arange(10000, dtype=np.int16)
    quads = (np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1) + 48).astype(np.uint8).view("<u4").ravel()
    trailing = sum((c % z == 0).astype(np.int8) for z in (10, 100, 1000, 10000))
    return pow10, quads, trailing


def _at_least(a, e, pow10):
    """Whether 10^e <= a, exactly, for float64s `a`."""
    hi, _, _, lo = pow10.take(e - _POW10_MIN, axis=1)
    return (a > hi) | ((a == hi) & (lo <= 0))


def _round_digits(a, e, pow10):
    """(d, tie): d the integer nearest a * 10^(16-e) for positive float64s `a`, from Dekker's double-double
    product with the (hi, lo) of 10^(16-e); tie where that product lies within 2^-30 of a half-integer,
    where d may be off by one.  The product's error is below 2^-47 for a * 10^(16-e) < 10^17."""
    hi, head, tail, lo = pow10.take(16 - e - _POW10_MIN, axis=1)
    p = a * hi
    a_head, a_tail = _split(a)
    err = a_tail * tail - (((p - a_head * head) - a_tail * head) - a_head * tail) + a * lo  # a * hi - p exactly, + a * lo
    whole = np.floor(p)
    f = (p - whole) + err
    g = np.floor(f)
    frac = f - g
    return whole.astype(np.int64) + g.astype(np.int64) + (frac > 0.5), np.abs(frac - 0.5) < 2.0**-30


def _exponents_and_digits(a, pow10):
    """(e, d, ok) for float64s `a` in [1e-280, 1e280]: the decimal exponent e and the 17-digit integer d of
    the %.17g text of each (|v| = d * 10^(e-16) rounded), where ok: where two exact comparisons confirm
    log10's e (10^e <= a < 10^(e+1)), d is below 10^17 (not rounded up to 10^(e+1)) and no tie is near."""
    e = np.floor(np.log10(a)).astype(np.int64)
    d, tie = _round_digits(a, e, pow10)
    return e, d, _at_least(a, e, pow10) & ~_at_least(a, e + 1, pow10) & (d < 10**17) & ~tie


def _float_texts(values) -> np.ndarray:
    """The %.17g texts of the 1-D float64 array `values`: row i of the (n, _TEXT_WIDTH) uint8 result is the
    ASCII text of values[i], then NUL bytes.  Values of magnitude in [1e-280, 1e280] that
    _exponents_and_digits marks ok take array code (the %g layout as bytes), laid out with slices over runs
    of equal sign and notation (contiguous when `values` is sorted).  The rest (zeros, subnormals, inf, NaN,
    larger or smaller magnitudes, exponents not confirmed, digits that round up to the next power of ten or
    lie within 2^-30 of a tie) take one np.char.mod call; so every text is the one %.17g gives."""
    pow10, quads, trailing_zeros = _digit_tables()
    n = values.size
    a = np.abs(values)
    fast = np.flatnonzero((a >= 1e-280) & (a <= 1e280))
    e, d, ok = _exponents_and_digits(a[fast], pow10)
    fast, d, e = fast[ok], d[ok], e[ok]

    packed = np.empty((d.size, 5), dtype="<u4")  # the ASCII digits of d, four per base-10^4 limb
    trailing = np.zeros(d.size, dtype=np.int64)
    lower_zero = np.ones(d.size, dtype=bool)
    for i in range(4, 0, -1):
        q = d // 10000
        limb = d - q * 10000
        packed[:, i] = quads.take(limb)
        trailing += lower_zero * trailing_zeros.take(limb)
        lower_zero &= limb == 0
        d = q
    packed[:, 0] = quads.take(d)
    digits = packed.view(np.uint8)[:, 3:]
    nd = 17 - trailing  # significant digits

    # %g: fixed notation for -4 <= e < 17, else d.ddde+XX; the point follows digit `point` (0 in exponent
    # notation), or, in fixed notation below 1, a lead "0.000"[:1-e] precedes the digits
    neg = values[fast] < 0
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, e, 0)
    lead = np.where(point < 0, 1 - point, 0)
    shown = np.where(point >= 0, np.maximum(nd, point + 1), nd)  # digits written, zeros before the point kept
    end = neg + lead + shown + ((point >= 0) & (nd > point + 1))
    out = np.zeros((fast.size, _TEXT_WIDTH), dtype=np.uint8)
    key = 2 * point + neg
    edges = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    for lo, hi in zip([0, *edges], [*edges, fast.size]):
        if lo == hi:  # no row takes array code
            break
        s, k = int(neg[lo]), int(point[lo])
        if s:
            out[lo:hi, 0] = ord("-")
        if k < 0:
            out[lo:hi, s : s + 1 - k] = _LEAD[: 1 - k]
            out[lo:hi, s + 1 - k : s + 18 - k] = digits[lo:hi]
        else:
            out[lo:hi, s : s + k + 1] = digits[lo:hi, : k + 1]
            out[lo:hi, s + k + 1] = ord(".")
            out[lo:hi, s + k + 2 : s + 18] = digits[lo:hi, k + 1 :]
    out *= _PREFIX.take(end, axis=0)
    r = np.flatnonzero(~fixed)
    t, x = end[r], np.abs(e[r])
    three = x >= 100
    out[r, t] = ord("e")
    out[r, t + 1] = np.where(e[r] < 0, ord("-"), ord("+"))
    out[r[three], t[three] + 2] = x[three] // 100 + 48
    out[r, t + 2 + three] = x // 10 % 10 + 48
    out[r, t + 3 + three] = x % 10 + 48
    if fast.size == n:
        return out
    texts = np.zeros((n, _TEXT_WIDTH), dtype=np.uint8)
    texts[fast] = out
    slow = texts[:, 0] == 0  # an array-code text starts with a sign or a digit
    texts.view(f"S{_TEXT_WIDTH}")[slow, 0] = np.char.mod(_MACHINE_FMT.encode(), values[slow])  # NUL-padded
    return texts


def _format_floats(a) -> tuple[np.ndarray, np.ndarray]:
    """(texts, inverse): the _float_texts rows of the distinct bit patterns of float array `a` (so 0.0 and
    -0.0, and each NaN payload, apart), and for each entry of `a` the index of its row, in `a`'s shape."""
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
    patterns, inverse = np.unique(bits.ravel(), return_inverse=True)
    return _float_texts(patterns.view(np.float64)), inverse.reshape(bits.shape)


def _table_pieces(header: str, mids: list[str], records: int, chunks, end: str):
    """The bytes of a table, in pieces: `header`, then f"{i}{mids[j]}{t_1},...,{t_m}{end}" for each record
    i < `records` and j < len(mids), t_k the %.17g text of column k of record i at j.  `chunks` yields the
    records in order, as tuples of m arrays of shape (rows, len(mids)), column k's rows in the k-th.  With
    `end` "\r\n" the bytes equal csv.writer's (no field needs quoting).  Each chunk is cut into pieces of
    at most _CSV_CHUNK_ROWS lines (or of one record, if it has more); each piece takes the texts of its
    distinct values from _float_texts, is laid out in one uint8 matrix, a row per line (record number
    right-aligned, mid, each text in a _TEXT_WIDTH slot, commas, `end`), and is yielded as the array of its
    bytes other than NUL, the padding, which no number text or record number holds, nor may the mids and
    `end`."""
    step = min(max(1, _CSV_CHUNK_ROWS // len(mids)), max(records, 1))
    encoded = [mid.encode("utf-8") for mid in mids]
    ending = np.frombuffer(end.encode("utf-8"), dtype=np.uint8)
    width = len(str(max(records - 1, 0)))
    first = width + max(map(len, encoded))  # the first field's column
    weights = 10 ** np.arange(width - 1, -1, -1)
    yield header.encode("utf-8")
    buf = None
    done = 0  # records yielded
    for chunk in chunks:
        if buf is None:
            buf = np.zeros((step, len(mids), first + len(chunk) * (_TEXT_WIDTH + 1) - 1 + ending.size), dtype=np.uint8)
            for j, mid in enumerate(encoded):
                buf[:, j, width : width + len(mid)] = np.frombuffer(mid, dtype=np.uint8)
            buf[:, :, first + _TEXT_WIDTH : -ending.size : _TEXT_WIDTH + 1] = ord(",")
            buf[:, :, -ending.size :] = ending
        for lo in range(0, len(chunk[0]), step):
            values = np.stack([column[lo : lo + step] for column in chunk], axis=-1)
            yield _piece(buf[: len(values)], values, done, width, first, weights)
            done += len(values)


def _piece(piece, values, start: int, width: int, first: int, weights) -> np.ndarray:
    """The bytes of records start.. of a `_table_pieces` table, laid out in `piece`, its (rows, mids, line)
    byte matrix, from their (rows, mids, m) `values`."""
    i = np.arange(start, start + len(piece))[:, None]
    piece[:, :, :width] = np.where((i >= weights) | (weights == 1), i // weights % 10 + 48, 0)[:, None, :]
    texts, inverse = _format_floats(values)
    for k in range(values.shape[2]):
        column = first + k * (_TEXT_WIDTH + 1)
        piece[:, :, column : column + _TEXT_WIDTH] = texts.take(inverse[:, :, k], axis=0)
    del texts, inverse  # freed before the mask and the kept bytes are made
    return piece[piece != 0]


def write_experiment(prefix: str, summary: ExperimentSummary) -> None:
    """Write `prefix`_raw.csv (one line per replicate, estimator and metric),
    `prefix`_summary.csv (the statistics) and `prefix`_meta.json (the config)."""
    cfg = summary.config
    labels = [f",{est.value},{metric.label}," for est in cfg.estimators for metric in cfg.metrics]
    raw = summary.raw.reshape(cfg.reps, len(labels))
    pieces = _table_pieces("replicate,estimator,metric,value\r\n", labels, cfg.reps, [(raw,)], "\r\n")
    _atomic_write_chunks(f"{prefix}_raw.csv", pieces)

    text = "estimator,metric,mean,std,min,q1,median,q3,max\r\n"
    for est in cfg.estimators:
        for metric in cfg.metrics:
            s = summary.stat(est, metric)
            values = ",".join(_MACHINE_FMT % v for v in (s.mean, s.std, s.min, s.q1, s.median, s.q3, s.max))
            text += f"{est.value},{metric.label},{values}\r\n"
    _atomic_write(f"{prefix}_summary.csv", text)

    meta = {"version": __version__, "count_stream": COUNT_STREAM, **cfg.to_json(), "quantile_method": "median_unbiased"}
    _atomic_write(f"{prefix}_meta.json", json.dumps(meta, indent=2) + "\n")


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    _check_writable(f"{args.out}_raw.csv")
    write_experiment(args.out, run_experiment(cfg))
    return 0


def _cmd_risk(args) -> int:
    truth = args.truth.to_pmf()
    est = EstimatorKind.parse(args.estimator)
    scale = None
    if 1 <= args.k < math.inf:  # other orders print no scaled lines, or fail in estimate_risk
        try:
            scale = args.n ** (args.k / 2.0)
        except OverflowError:
            raise ValueError(f"the scale n^(k/2) overflows a float at n = {args.n}, k = {float_label(args.k)}") from None
    result = estimate_risk(truth, args.n, args.k, est, args.reps, args.seed)
    print(f"estimator\t{est.value}")
    print(f"k\t{float_label(args.k)}")
    print(f"n\t{args.n}")
    print(f"reps\t{args.reps}")
    print(f"risk_mean\t{_MACHINE_FMT % result.value}")
    print(f"risk_se\t{_MACHINE_FMT % result.se}")
    if scale is not None:
        print(f"scaled_risk\t{_MACHINE_FMT % (scale * result.value)}")
        print(f"scaled_se\t{_MACHINE_FMT % (scale * result.se)}")
    return 0


def _cmd_limits(args) -> int:
    truth = args.truth.to_pmf()
    _check_writable(f"{args.out}_draws.csv")
    sums = _PairwiseSum(args.reps)  # of y, y_rear, y_gren and their squares, point by point

    def chunks():
        for block in _draw_limit_blocks(truth, args.reps, args.seed):  # y, y_rear, y_gren
            sums.add(np.concatenate((*block, *(b * b for b in block)), axis=1))
            yield block

    points = [f",{x}," for x in range(truth.support_size)]
    pieces = _table_pieces("draw,x,y,y_rear,y_gren\r\n", points, args.reps, chunks(), "\r\n")
    _atomic_write_chunks(f"{args.out}_draws.csv", pieces)

    means = (sums.total() / args.reps).reshape(6, len(points), 1)  # the bits of each column's np.mean
    header = "x,mean_y,mean_y_rear,mean_y_gren,mean_sq_y,mean_sq_y_rear,mean_sq_y_gren,var_limit\r\n"
    columns = (*means, (truth.probs * (1.0 - truth.probs))[:, None])
    pieces = _table_pieces(header, [","], len(points), [columns], "\r\n")
    _atomic_write_chunks(f"{args.out}_aggregate.csv", pieces)
    return 0


def _cmd_asymptotics(args) -> int:
    truth = args.truth.to_pmf()
    report = asymptotics(truth)
    print(f"truth\t{args.truth.label}")
    print(f"support_max\t{truth.support_max}")
    for name in ("e_sq_l2_emp", "e_sq_l2_gren", "e_hell_emp", "e_hell_gren", "e_l1_emp"):
        print(f"{name}\t{_HUMAN_FMT % getattr(report, name)}")
    print(f"l2_sq_gap\t{_HUMAN_FMT % (report.e_sq_l2_emp - report.e_sq_l2_gren)}")
    print("block_start\tblock_end\tlevel\tsize")
    for r, s in constancy_blocks(truth):
        print(f"{r}\t{s}\t{_HUMAN_FMT % truth.probs[r]}\t{s - r + 1}")
    return 0


def _cmd_mixing(args) -> int:
    if args.pmf is not None:
        sources = {"pmf": _load(args.pmf, "pmf", parse_pmf).probs}
    else:
        sources = _estimates(args)
    _emit_sequences({name: mixing_estimate(v) for name, v in sources.items()}, args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="monopmf", description=__doc__)
    truth = _arg_type(TruthSpec.parse)
    estimators = _arg_type(lambda text: tuple(map(EstimatorKind.parse, text.split(","))))
    metrics = _arg_type(lambda text: tuple(map(MetricKind.parse, text.split(","))))
    parser.add_argument("--version", action="version", version=f"monopmf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate a pmf from a counts file")
    p.add_argument("--counts", required=True, help="counts file, lines 'x<TAB>count'")
    p.add_argument("--estimator", default="all", choices=[*_SHORT_NAMES.values(), "all"])
    p.add_argument("--out", help="output pmf file (estimator name inserted when several)")
    p.add_argument("--truth", help="pmf file; prints a distance table when given")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo comparison of the estimators")
    p.add_argument("--truth", type=truth, default=argparse.SUPPRESS, help="uniform:y | geometric:theta | mixture:w:y,...")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--reps", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--target", default=argparse.SUPPRESS, choices=["pmf", "mixing"])
    p.add_argument("--estimators", type=estimators, default=argparse.SUPPRESS, help="comma list: empirical,rear,gren")
    p.add_argument("--metrics", type=metrics, default=argparse.SUPPRESS, help="comma list: hellinger,l1,l2,linf,l{k}")
    p.add_argument("--config", help="JSON config file carrying the same fields; no other config flag may be given")
    p.add_argument("--out", required=True, help="output prefix for _raw.csv, _summary.csv, _meta.json")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("risk", help="Monte Carlo risk of one estimator")
    p.add_argument("--truth", type=truth, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--estimator", default="gren")
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_risk)

    p = sub.add_parser("limits", help="draws of the limit fluctuation processes")
    p.add_argument("--truth", type=truth, required=True)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix for _draws.csv and _aggregate.csv")
    p.set_defaults(fn=_cmd_limits)

    p = sub.add_parser("asymptotics", help="closed-form limit moments of a truth")
    p.add_argument("--truth", type=truth, required=True)
    p.set_defaults(fn=_cmd_asymptotics)

    p = sub.add_parser("mixing", help="recover mixing weights from counts or a pmf file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--counts", help="counts file, estimator applied first")
    group.add_argument("--pmf", help="pmf file, weights computed directly")
    p.add_argument("--estimator", default="all", choices=[*_SHORT_NAMES.values(), "all"])
    p.add_argument("--out", help="output weights file")
    p.set_defaults(fn=_cmd_mixing)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.config is None and "truth" not in vars(args):
        parser.error("simulate requires --truth or --config")
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except DataError as exc:
        print(f"monopmf: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OutputError) as exc:
        print(f"monopmf: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # CPython's own allocation failures carry no message
        print(f"monopmf: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except InequalityViolation as exc:
        print(f"monopmf: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every file the commands open handles its own; this is stdout
        if isinstance(exc, BrokenPipeError):  # so the flush at exit finds nowhere to fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"monopmf: cannot write to standard output: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
