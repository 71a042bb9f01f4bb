#!/usr/bin/env python3
"""monopmf benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it imports `src/monopmf`; nothing
needs installing).  Closed loop, one process at a time: each sample is a
fresh interpreter (child.py) running one monopmf command or study script
at the workload's fixed length; the next starts when the previous exits.
Samples come in pairs with the same input seed, and the two must write
the same bytes.  The first sample is a warm-up (file cache, bytecode) and
is checked but not timed; the loop then runs for --seconds and finishes
the pair in progress.

--trace 0 reports the end-to-end metrics, medians over samples:
  setup_s      interpreter start until monopmf is imported and the truth built
  reps_per_s   replicates (limit draws for limits-write) per second after set-up
  peak_rss_mb  peak resident memory of the workload process
Both timings are scaled to the reference machine speed measured by
`calibrate` around each sample; the record keeps the raw values too.
--trace 1 alternates untraced and traced samples (same seed per pair) and
reports per-layer metrics from the traced ones, plus the tracing overhead.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; a full record with every sample is written to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
HARD_LIMIT_S = 170.0  # the whole run, warm-up and checks included, ends within this
CAL_REF_S = 0.05  # calibration time on the reference machine speed (see calibrate)

END_TO_END = {"setup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}

# (metric, unit) reported from traced samples; names follow the monopmf modules.
PER_LAYER = [
    *[(f"{layer}.{stat}", "count" if stat == "calls" else "s")
      for layer in ("pmf.sample", "rng.make_generator", "pmf.empirical_pmf", "metrics.distance",
                    "operators.gren", "operators.rear", "operators.mixing_estimate")
      for stat in ("calls", "s", "self_s")],
    ("pmf.sample.draws", "count"),
    ("operators.gren.elements", "count"),
    ("operators.gren.unpooled_frac", "ratio"),
    ("experiments.run_experiment.self_s", "s"),
    ("experiments.estimate_risk.self_s", "s"),
    ("experiments._summarize.s", "s"),
    ("limits.draw_limit_batch.s", "s"),
    ("limits.draw_limit_batch.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.write.calls", "count"),
    ("cli.write.s", "s"),
    ("cli.write.bytes", "B"),
    ("monopmf.import.s", "s"),
    ("workload.units", "count"),
    ("reps_per_s.untraced", "1/s"),
    ("reps_per_s.traced", "1/s"),
    ("trace.overhead", "ratio"),
]


def calibrate():
    """Seconds for a fixed mix of interpreted Python, small and large numpy calls
    and float formatting, independent of monopmf.

    The speed of the shared machine drifts by up to 1.6x over seconds to
    minutes; timing this loop just before and after every sample and scaling
    the sample's timings by it removes most of that drift from the metrics.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += (i % 7) * 0.5
    small = np.arange(8.0)
    for _ in range(1500):
        np.sort(small)[::-1].copy()
        float(small.sum())
    big = np.linspace(0.0, 1.0, 500000)
    for _ in range(4):
        np.cumsum(big)
        np.sqrt(big)
    "".join("%.17g," % x for x in big[:20000])
    return time.perf_counter() - t0


def digest(outdir, stdout):
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def run_sample(workload, reps, seed, traced, deadline, spans_path):
    """One workload process; returns its sample record (timings, digest, problems, stats)."""
    workdir = OUT_DIR / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record_path = OUT_DIR / "child.json"
    record_path.unlink(missing_ok=True)
    target = workload.target if workload.target == "cli" else str(ROOT / workload.target)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(ROOT / "src"), str(record_path),
           str(spans_path) if traced else "-", target, *workload.argv(reps, seed)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sample = {"seed": seed, "traced": traced}
    cal_before = calibrate()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        sample["problems"] = [f"timed out after {deadline - spawned:.0f} s"]
        return sample, None
    sample["wall_s"] = time.monotonic() - spawned
    sample["cal_s"] = cal = (cal_before + calibrate()) / 2
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if "Traceback" in proc.stderr:
        problems.append("traceback on stderr")
    if problems or not record_path.exists():
        sample["problems"] = problems + (proc.stderr.strip().splitlines()[-1:] or ["no timing record"])
        return sample, None
    rec = json.loads(record_path.read_text())
    units = reps * workload.units_per_rep
    slowdown = cal / CAL_REF_S  # > 1 while the machine runs slower than the reference
    sample.update(
        setup_raw_s=rec["setup_done"] - spawned,
        setup_s=(rec["setup_done"] - spawned) / slowdown,
        run_s=rec["done"] - rec["start"],
        units=units,
        reps_per_s_raw=units / (rec["done"] - rec["start"]),
        reps_per_s=units / (rec["done"] - rec["start"]) * slowdown,
        peak_rss_mb=rec["maxrss_kb"] / 1024.0,
        import_s=rec["import_s"],
        digest=digest(workdir, proc.stdout),
    )
    if "layers" in rec:
        sample["layers"] = rec["layers"]
    try:
        problems, stats = workload.check(workdir, proc.stdout, reps)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems, stats = [f"unreadable output: {exc!r}"], None
    sample["problems"] = problems
    return sample, stats


def run(name, seed, seconds, trace, tiny=False):
    """All samples of one run; returns (result line, full record)."""
    workload = WORKLOADS[name]
    reps = workload.tiny_reps if tiny else workload.reps
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{name}-seed{seed}.spans.csv"
    seeds = random.Random(f"{name}:{seed}")
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    samples, stats = [], []
    deadline = None
    while True:
        k = len(samples)
        if k % 2 == 0:
            pair_seed = seeds.getrandbits(32)
        traced = bool(trace) and k % 2 == 1
        sample, sample_stats = run_sample(workload, reps, pair_seed, traced, hard_deadline, spans_path)
        sample["warmup"] = k == 0
        if k % 2 == 1 and "digest" in sample and "digest" in samples[-1] and sample["digest"] != samples[-1]["digest"]:
            sample["problems"].append("output bytes differ from the same-seed sample before it")
        if k % 2 == 0 and sample_stats is not None:
            stats.append(sample_stats)  # the pair's second sample has the same bytes
        samples.append(sample)
        now = time.monotonic()
        if deadline is None:
            deadline = now + seconds
        if now >= hard_deadline or (k % 2 == 1 and now >= deadline):
            break

    failed = sum(1 for s in samples if s["problems"])
    pooled = workload.pooled(stats) if stats else []
    if pooled:
        failed = len(samples)
    timed = [s for s in samples if not s["warmup"] and not s["problems"]]

    def median(key, rows):
        values = [s[key] for s in rows if key in s]
        return statistics.median(values) if values else 0.0

    if trace:
        untraced = [s for s in timed if not s["traced"]]
        traced_rows = [s for s in timed if s["traced"] and "layers" in s]
        layer_rows = [dict(s["layers"], **{"workload.units": s["units"]}) for s in traced_rows]
        for row in layer_rows:
            calls = row.get("operators.gren.calls", 0)
            row["operators.gren.unpooled_frac"] = row.get("operators.gren.unpooled", 0) / calls if calls else 0.0
        metrics = {key: {"value": statistics.median(r.get(key, 0.0) for r in layer_rows) if layer_rows else 0.0,
                         "unit": unit} for key, unit in PER_LAYER}
        metrics["monopmf.import.s"]["value"] = median("import_s", timed)
        rate_u, rate_t = median("reps_per_s", untraced), median("reps_per_s", traced_rows)
        metrics["reps_per_s.untraced"]["value"] = rate_u
        metrics["reps_per_s.traced"]["value"] = rate_t
        metrics["trace.overhead"]["value"] = 1.0 - rate_t / rate_u if rate_u else 0.0
    else:
        metrics = {key: {"value": median(key, timed), "unit": unit} for key, unit in END_TO_END.items()}

    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reps_per_process": reps,
        "argv": workload.argv(reps, "<seed>"),
        "context": context(),
        "pooled_problems": pooled,
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
        "layers": [s["layers"] for s in samples if "layers" in s],
        "result": result,
    }
    return result, record


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def context():
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_lines": src_lines,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in ("src/monopmf/__init__.py", "scripts/mixing_comparison.py") if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"run.py: not a monopmf checkout ({ROOT}): missing {', '.join(missing)}")

    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for s in record["samples"]:
        if s["problems"]:
            print(f"FAILED sample seed={s['seed']} traced={s['traced']}: {'; '.join(s['problems'])}")
    for problem in record["pooled_problems"]:
        print(f"FAILED run check: {problem}")
    for key, m in result["metrics"].items():
        print(f"{key:36s} {m['value']:.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
