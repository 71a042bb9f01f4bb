"""Command-line front end.

Subcommands: estimate, simulate, risk, limits, asymptotics, mixing.
Exit codes: 0 success, 1 usage error, unwritable output file or a run
too large for memory, 2 input data error, 3 a simulated replicate failed
the monotone-estimator inequality check.  All files are written atomically (temp file + rename)
and machine-readable numbers carry 17 significant digits.  A streamed CSV is written in pieces, each one
join of text fragments that formats each distinct value once; its bytes equal %.17g of every value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .experiments import (
    _SHORT_NAMES,
    DEFAULT_ESTIMATORS,
    DEFAULT_METRICS,
    EstimatorKind,
    ExperimentConfig,
    ExperimentSummary,
    InequalityViolation,
    TruthSpec,
    estimate,
    estimate_risk,
    run_experiment,
)
from .limits import asymptotics, draw_limit_batch
from .metrics import MetricKind, distance
from .operators import constancy_blocks, mixing_estimate
from .pmf import COUNT_STREAM, float_label, format_pmf, parse_counts, parse_pmf

_MACHINE_FMT = "%.17g"
_HUMAN_FMT = "%.5g"

#: Lines per piece of a streamed CSV file.
_CSV_CHUNK_ROWS = 4096


class DataError(Exception):
    """Unreadable or invalid input data (exit code 2)."""


class OutputError(Exception):
    """An output file that cannot be written (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Given(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):  # store, and note the flag in `given`
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, self.option_strings[0])


def _arg_type(parse):
    """An argparse type from `parse`, its ValueError a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _atomic_write_chunks(path: str, chunks) -> None:
    """Write the strings of `chunks` in turn to a temp file, then rename it
    to `path` (mode 0o666 less the umask, as open() gives); OutputError if
    that fails."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".monopmf-", suffix=".tmp")
        try:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                for chunk in chunks:
                    fh.write(chunk)
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
    _atomic_write_chunks(path, (text,))


def _load(path: str, label: str, parse):
    """parse() of the text of a `label` file; any fault is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read {label} file {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(f"invalid {label} file {path!r}: {exc}") from None


def _suffixed(path: str, name: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}.{name}{ext}"


def _estimates(args) -> dict:
    """The estimates of args.estimator ("all" for each) from args.counts; counts
    the exact Grenander cannot take (n*(K+1) >= 2^63) are invalid data."""
    kinds = {name: kind for kind, name in _SHORT_NAMES.items() if args.estimator in ("all", name)}

    def estimates(text):
        counts = parse_counts(text)
        n = int(counts.sum())
        return {name: estimate(kind, counts, n) for name, kind in kinds.items()}

    return _load(args.counts, "counts", estimates)


def _emit_sequences(sequences: dict, out) -> None:
    """Write each named sequence to stdout under a '# name' line, or to
    `out` (with the name inserted when there are several)."""
    for name, values in sequences.items():
        text = format_pmf(values)
        if out is None:
            sys.stdout.write(f"# {name}\n{text}")
        else:
            _atomic_write(_suffixed(out, name) if len(sequences) > 1 else out, text)


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
    if args.config is not None:
        if args.given:
            raise ValueError(f"{args.given[0]} cannot be combined with --config")
        return _load(args.config, "config", lambda text: ExperimentConfig.from_json(json.loads(text)))
    return ExperimentConfig(
        truth=args.truth,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        estimators=args.estimators,
        metrics=args.metrics,
        target=args.target,
    )


def _format_floats(a) -> np.ndarray:
    """The %.17g texts of float array `a`, an object array of its shape; each distinct
    bit pattern (so 0.0 and -0.0, and each NaN payload, apart) is formatted once."""
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
    patterns, inverse = np.unique(bits.ravel(), return_inverse=True)
    texts = np.array([_MACHINE_FMT % v for v in patterns.view(np.float64).tolist()], dtype=object)
    return texts[inverse].reshape(bits.shape)


def _write_table(path: str, header: str, mids: list[str], columns) -> None:
    """Write CSV `path` in pieces of about _CSV_CHUNK_ROWS lines, each one join of an object array of
    fragments: `header`, then f"{i}{mids[j]}{t_1},...,{t_m}\r\n" for each record i and j < len(mids),
    t_k the %.17g text of columns[k-1][i, j].  No field needs quoting: the bytes equal csv.writer's."""
    records, m = len(columns[0]), len(columns)
    step = max(1, _CSV_CHUNK_ROWS // len(mids))
    fragments = np.full((min(step, records), len(mids), 2 * m + 2), ",", dtype=object)
    fragments[:, :, 1] = mids
    fragments[:, :, -1] = "\r\n"

    def pieces():
        yield header
        for start in range(0, records, step):
            stop = min(start + step, records)
            piece = fragments[: stop - start]
            piece[:, :, 0] = np.array([str(i) for i in range(start, stop)], dtype=object)[:, None]
            piece[:, :, 2::2] = _format_floats(np.stack([c[start:stop] for c in columns], axis=-1))
            yield "".join(piece.ravel().tolist())

    _atomic_write_chunks(path, pieces())


def write_experiment(prefix: str, summary: ExperimentSummary) -> None:
    """Write `prefix`_raw.csv (one line per replicate, estimator and metric),
    `prefix`_summary.csv (the statistics) and `prefix`_meta.json (the config)."""
    cfg = summary.config
    labels = [f",{est.value},{metric.label}," for est in cfg.estimators for metric in cfg.metrics]
    raw = summary.raw.reshape(cfg.reps, len(labels))
    _write_table(f"{prefix}_raw.csv", "replicate,estimator,metric,value\r\n", labels, (raw,))

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
    result = estimate_risk(truth, args.n, args.k, est, args.reps, args.seed)
    print(f"estimator\t{est.value}")
    print(f"k\t{float_label(args.k)}")
    print(f"n\t{args.n}")
    print(f"reps\t{args.reps}")
    print(f"risk_mean\t{_MACHINE_FMT % result.value}")
    print(f"risk_se\t{_MACHINE_FMT % result.se}")
    if not math.isinf(args.k):
        scale = args.n ** (args.k / 2.0)
        print(f"scaled_risk\t{_MACHINE_FMT % (scale * result.value)}")
        print(f"scaled_se\t{_MACHINE_FMT % (scale * result.se)}")
    return 0


def _cmd_limits(args) -> int:
    truth = args.truth.to_pmf()
    _check_writable(f"{args.out}_draws.csv")
    y, y_rear, y_gren = draw_limit_batch(truth, args.reps, args.seed)
    points = [f",{x}," for x in range(truth.support_size)]
    _write_table(f"{args.out}_draws.csv", "draw,x,y,y_rear,y_gren\r\n", points, (y, y_rear, y_gren))

    text = "x,mean_y,mean_y_rear,mean_y_gren,mean_sq_y,mean_sq_y_rear,mean_sq_y_gren,var_limit\r\n"
    for x, px in enumerate(truth.probs):
        columns = (y[:, x], y_rear[:, x], y_gren[:, x])
        values = [c.mean() for c in columns] + [(c**2).mean() for c in columns] + [px * (1.0 - px)]
        text += f"{x}," + ",".join(_MACHINE_FMT % v for v in values) + "\r\n"
    _atomic_write(f"{args.out}_aggregate.csv", text)
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
    p.add_argument("--truth", type=truth, action=_Given, help="uniform:y | geometric:theta | mixture:w:y,...")
    p.add_argument("--n", type=int, default=100, action=_Given)
    p.add_argument("--reps", type=int, default=1000, action=_Given)
    p.add_argument("--seed", type=int, default=0, action=_Given)
    p.add_argument("--target", default="pmf", choices=["pmf", "mixing"], action=_Given)
    p.add_argument("--estimators", type=estimators, default=DEFAULT_ESTIMATORS, action=_Given,
                   help="comma list: empirical,rear,gren")
    p.add_argument("--metrics", type=metrics, default=DEFAULT_METRICS, action=_Given,
                   help="comma list: hellinger,l1,l2,linf,l{k}")
    p.add_argument("--config", help="JSON config file carrying the same fields; no other config flag may be given")
    p.add_argument("--out", required=True, help="output prefix for _raw.csv, _summary.csv, _meta.json")
    p.set_defaults(fn=_cmd_simulate, given=())

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
    if args.command == "simulate" and args.config is None and args.truth is None:
        parser.error("simulate requires --truth or --config")
    try:
        return args.fn(args)
    except DataError as exc:
        print(f"monopmf: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OutputError, MemoryError) as exc:
        print(f"monopmf: {exc}", file=sys.stderr)
        return 1
    except InequalityViolation as exc:
        print(f"monopmf: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
