"""deolog benchmark: one client, one thread, closed loop.

    python3 benchmarks/run.py --workload paper-claims --seed 1 --seconds 50
    python3 benchmarks/run.py --workload all          # one process each
    python3 benchmarks/run.py --workload model-eval --trace 1

Run from the repository root (any directory works; paths are found from this
file). deolog is imported from `src/` next to this directory, never from an
installed copy, so the checkout's own code is measured.

With `--trace 0` the workload's operations run in passes, each in a fresh
order, until `--seconds` of operation time is spent (whole passes, at least
100 operations). A fixed pure-Python reference loop, unrelated to deolog, is
timed between every two operations, and each operation's latency is divided
by the mean of the reference times on either side of it. The end-to-end
timings are these costs, in reference times: on a shared 2-core virtual
machine the same operation ran 1.6 times slower for tens of seconds at a
time with the load on the host, and the reference slows with it, so the
ratio keeps what deolog does and drops most of what the host does. Each
operation's cost is the median over its samples; the raw latencies are
summarised on standard error. The set-up is repeated at points spread over
the run and its median reported, in seconds.

With `--trace 1` the pool runs once untraced and once traced, so the work
counters are fixed by the seed; the per-layer metrics come from the traced
pass and the spans are written to `.bench_out/`. The last line of standard
output is a JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import tracer as tracing          # noqa: E402
import workloads                  # noqa: E402

SETUP_REPEATS = 5
MIN_SAMPLES = 100
MAX_FAILURE_LINES = 10

END_TO_END = (("op_mean_ref", "ref"), ("op_p50_ref", "ref"),
              ("op_p85_ref", "ref"), ("ok_ratio", "ratio"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def import_deolog():
    """A fresh import of deolog from the checkout's src/."""
    if not (SRC / "deolog" / "__init__.py").is_file():
        raise SystemExit(f"error: no deolog sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "deolog" or n.startswith("deolog.")]:
        del sys.modules[name]
    package = importlib.import_module("deolog")
    if Path(package.__file__).resolve().parent != SRC / "deolog":
        raise SystemExit(f"error: imported deolog from {package.__file__}")
    return workloads.Modules(**{
        name: importlib.import_module(f"deolog.{name}")
        for name in ("syntax", "models", "regimes", "orders", "engine",
                     "documents", "proofs")})


def set_up(workload, seed):
    """Import deolog and build the workload's inputs; return the modules,
    the operations and the seconds it took."""
    start = time.perf_counter()
    dl = import_deolog()
    ops = workloads.WORKLOADS[workload](dl, seed)
    return dl, ops, time.perf_counter() - start


def time_set_up(workload, seed):
    """The seconds of one more set-up, whose result is thrown away: the
    deolog modules the operations were built with are put back."""
    kept = {name: module for name, module in sys.modules.items()
            if name == "deolog" or name.startswith("deolog.")}
    seconds = set_up(workload, seed)[2]
    for name in [n for n in sys.modules
                 if n == "deolog" or n.startswith("deolog.")]:
        del sys.modules[name]
    sys.modules.update(kept)
    return seconds


def reference():
    """The reference loop: hashing, tuples, frozensets and a dict, about
    half a millisecond on a 2.0 GHz Xeon. Never change it: every end-to-end
    timing is in units of its time."""
    table = {}
    for i in range(1000):
        key = (frozenset((i % 7, i % 11)), i % 13)
        table[key] = table.get(key, 0) + 1
    return len(table)


def time_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Pass:
    """Latencies and failures of operations run in order and, if asked,
    their costs in reference times."""

    def __init__(self):
        self.latencies = []
        self.costs = {}           # id(op) -> latency / reference time
        self.failed = 0
        self.messages = []

    def run(self, ops, tracer=None, normalize=False):
        before = time_reference() if normalize else None
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
                tracer.active = True
            start = time.perf_counter()
            try:
                out = op.run()
                problem = None
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            self.latencies.append(latency)
            if normalize:
                after = time_reference()
                self.costs.setdefault(id(op), []).append(
                    2 * latency / (before + after))
                before = after
            if tracer is not None:
                tracer.active = False
            if problem is None:
                try:
                    problem = op.check(out)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                self.failed += 1
                if len(self.messages) < MAX_FAILURE_LINES:
                    self.messages.append(f"{op.label}: {problem}")

    @property
    def busy(self):
        return sum(self.latencies)


def measure(ops, seconds, seed, set_up_again):
    """Whole passes in a fresh order each, until `seconds` of operation time
    is spent (stopping within half a pass of it) and MIN_SAMPLES are in.
    `set_up_again()` is timed SETUP_REPEATS - 1 times between passes, spread
    over the run; returns the record, the passes and those set-up times."""
    rng = random.Random(seed)
    record = Pass()
    passes = 0
    setups = []
    while True:
        order = list(ops)
        rng.shuffle(order)
        record.run(order, normalize=True)
        passes += 1
        while len(setups) < SETUP_REPEATS - 1 and \
                record.busy >= seconds * (len(setups) + 1) / SETUP_REPEATS:
            setups.append(set_up_again())
        per_pass = record.busy / passes
        if len(record.latencies) >= MIN_SAMPLES and \
                record.busy + per_pass / 2 > seconds:
            break
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(set_up_again())
    return record, passes, setups


def end_to_end(record, setup_s):
    """Each operation's median cost in reference times; their mean, median
    and 85th percentile (which has at least ten operations above it in
    pools of 70 or more)."""
    costs = sorted(statistics.median(c) for c in record.costs.values())
    values = {
        "op_mean_ref": statistics.fmean(costs),
        "op_p50_ref": statistics.median(costs),
        "op_p85_ref": statistics.quantiles(costs, n=20)[16],
        "ok_ratio": (len(record.latencies) - record.failed)
        / len(record.latencies),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def all_samples(record):
    """Raw throughput and latency over every sample, for the log."""
    ms = sorted(x * 1e3 for x in record.latencies)
    return (f"all {len(ms)} samples: "
            f"{(len(ms) - record.failed) / record.busy:.4g} ops/s, "
            f"p50 {statistics.median(ms):.4g} ms, "
            f"p90 {statistics.quantiles(ms, n=10)[8]:.4g} ms")


def trace(dl, ops, workload, seed):
    untraced = Pass()
    untraced.run(ops)
    tracer = tracing.Tracer(vars(dl))
    tracer.install()
    try:
        traced = Pass()
        traced.run(ops, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(untraced.busy, traced.busy)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.dump(path, {"workload": workload, "seed": seed,
                       "untraced_s": untraced.busy, "traced_s": traced.busy,
                       "operations": [op.label for op in ops],
                       "fields": ["id", "parent", "name", "op", "start",
                                  "end"]})
    print(f"spans written to {path}", file=sys.stderr)
    return traced, metrics


def run_one(args):
    dl, ops, setup_s = set_up(args.workload, args.seed)
    if args.trace:
        record, metrics = trace(dl, ops, args.workload, args.seed)
        summary = f"{len(ops)} operations traced"
    else:
        record, passes, setups = measure(
            ops, args.seconds, args.seed,
            lambda: time_set_up(args.workload, args.seed))
        metrics = end_to_end(record,
                             statistics.median([setup_s, *setups]))
        summary = f"{passes} passes of {len(ops)} operations; " \
            + all_samples(record)
    for message in record.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {summary}, "
          f"{record.failed} failed", file=sys.stderr)
    print(json.dumps({"correct": record.failed == 0,
                      "attempted": len(record.latencies),
                      "failed": record.failed, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process, so set-up time and peak memory
    belong to it; prints one table."""
    rows = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              check=True)
        sys.stderr.write(done.stderr)
        rows.append((workload, json.loads(done.stdout.splitlines()[-1])))
    print(f"{'metric':36s}" + "".join(f"{w:>16s}" for w, _ in rows))
    for name in rows[0][1]["metrics"]:
        unit = rows[0][1]["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:16.6g}"
                        for _, r in rows)
        print(f"{name + ' (' + unit + ')':36s}{cells}")
    for key in ("attempted", "failed"):
        print(f"{key:36s}" + "".join(f"{r[key]:16d}" for _, r in rows))
    if not args.trace:
        print(f"{'fail_ratio':36s}" + "".join(
            f"{r['failed'] / r['attempted']:16.6g}" for _, r in rows))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
