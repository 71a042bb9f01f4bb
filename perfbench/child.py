"""One workload process: set up monopmf, run one CLI command or study script.

Usage (started by run.py, one process at a time):

    python3 child.py SRC RECORD SPANS TARGET ARG...

SRC is the checkout's `src` directory, RECORD the JSON file this process
writes its timings to, SPANS the CSV file for trace spans ("-" runs
untraced), TARGET either `cli` (ARGs are a `monopmf` command line) or the
path of a study script (ARGs are its command line).

Set-up ends once `monopmf` is imported and the truth (CLI) or the
script's module-level configs are built; everything after that, output
writing included, is the timed run.  With tracing on, timing wrappers are
installed around the public functions the replicate loop calls, in every
namespace that binds them by name, and spans are kept in memory until the
process ends.
"""

import importlib.util
import json
import os
import resource
import sys
import time
from collections import defaultdict

# (span name, module, attribute) of every function the traced run wraps.
TRACED = [
    ("pmf.sample", "monopmf.pmf", "sample"),
    ("rng.make_generator", "monopmf.rng", "make_generator"),
    ("pmf.empirical_pmf", "monopmf.pmf", "empirical_pmf"),
    ("metrics.distance", "monopmf.metrics", "distance"),
    ("operators.gren", "monopmf.operators", "gren"),
    ("operators.rear", "monopmf.operators", "rear"),
    ("operators.mixing_estimate", "monopmf.operators", "mixing_estimate"),
    ("experiments.run_experiment", "monopmf.experiments", "run_experiment"),
    ("experiments.estimate_risk", "monopmf.experiments", "estimate_risk"),
    ("experiments._summarize", "monopmf.experiments", "_summarize"),
    ("limits.draw_limit_batch", "monopmf.limits", "draw_limit_batch"),
    ("cli", "monopmf.cli", "main"),
    ("cli.write", "monopmf.cli", "_atomic_write"),
]


class Tracer:
    """In-memory spans (id, parent id, name, start, end, self seconds) plus counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0

    def wrap(self, name, fn, count=None):
        perf_counter = time.perf_counter
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                spans.append((frame[0], -1 if parent is None else parent[0], name, start, end, dur - frame[1]))
            if count is not None:
                for key, value in count(args, result):
                    counters[f"{name}.{key}"] += value
            return result

        return traced

    def layers(self):
        """calls, busy seconds and self seconds per span name, plus the counters."""
        out = defaultdict(float)
        for _, _, name, start, end, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
        out.update(self.counters)
        return dict(out)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end,self_s\n")
            fh.writelines(f"{i},{p},{n},{s!r},{e!r},{x!r}\n" for i, p, n, s, e, x in self.spans)


def _counters(np):
    def sample(args, result):
        yield "draws", int(args[1])

    def gren(args, result):
        yield "elements", result.size
        yield "unpooled", float(np.array_equal(result, args[0]))

    def write(args, result):
        yield "bytes", len(args[1].encode("utf-8"))

    return {"pmf.sample": sample, "operators.gren": gren, "cli.write": write}


def install(tracer, extra_namespaces):
    """Replace each traced function wherever a monopmf module (or script) binds it."""
    import numpy as np

    counters = _counters(np)
    namespaces = [vars(m) for name, m in list(sys.modules.items()) if name.split(".")[0] == "monopmf"]
    namespaces += extra_namespaces
    for name, module, attr in TRACED:
        if module not in sys.modules:  # the study scripts never import the CLI
            continue
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, counters.get(name))
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapper


def peak_rss_kb():
    """Peak resident set of this process image.  ru_maxrss would also count
    the parent's pages from before exec, so read the high-water mark of the
    current address space where Linux provides it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    src, record_path, spans_path, target, *args = sys.argv[1:]
    sys.path.insert(0, src)
    t_import = time.monotonic()
    import monopmf

    import_s = time.monotonic() - t_import
    if not os.path.abspath(monopmf.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported monopmf from {monopmf.__file__}, not from {src}")
    if target == "cli":
        import monopmf.cli

        monopmf.TruthSpec.parse(args[args.index("--truth") + 1]).to_pmf()
        script_ns = []
        entry = lambda: monopmf.cli.main(args)  # noqa: E731  (looked up after tracing is installed)
    else:
        spec = importlib.util.spec_from_file_location("__bench__", target)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script_ns = [vars(script)]
        sys.argv = [target] + args
        entry = lambda: script.main()  # noqa: E731
    setup_done = time.monotonic()

    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        install(tracer, script_ns)
    start = time.monotonic()
    rc = entry()
    done = time.monotonic()
    sys.stdout.flush()

    record = {
        "setup_done": setup_done,
        "start": start,
        "done": done,
        "import_s": import_s,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        record["layers"] = tracer.layers()
        tracer.write_spans(spans_path)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
