"""Same-process A/B timing of two deolog source trees on one benchmark workload.

    python tools/ab.py OLD/src src --workload paper-claims --reps 15
    python tools/ab.py src src --workload nested-random --reps 5   # A/A

Each tree's `deolog` package is copied into a temporary directory under its
own package name (deolog's imports are all relative), and both are imported
into this process. One workload is built for each side from
`benchmarks/workloads.py`, which is imported and never changed; the two must
list the same operations in the same order. Each rep runs every operation
once on each side, alternating the sides operation by operation and swapping
which side goes first from one rep to the next, so both sides see the same
state of the machine. Each run goes through benchmarks/run.py's `Pass`, which
times the operation and then, outside the timed region, checks its output.

Printed: each operation's median time on each side, the sum of those
medians and the ratio B/A, and last a JSON line with the same summary. The
exit code is 1 if any operation raised or failed its check on either side.
Two runs of one tree (an A/A run) show how far the ratio strays from 1 on
unchanged code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
MODULES = ("syntax", "models", "regimes", "orders", "engine", "documents",
           "proofs")

# no bytecode is written next to workloads.py or into the copies
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCHMARKS))
import run                        # noqa: E402
import workloads                  # noqa: E402


def import_tree(src, name, into):
    """The workload modules of src/deolog, copied into the directory into
    as the package name and imported from there."""
    package = Path(src) / "deolog"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no deolog package under {src}")
    shutil.copytree(package, Path(into) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return workloads.Modules(**{
        module: importlib.import_module(f"{name}.{module}")
        for module in MODULES})


def compare(ops, reps):
    """Each side's samples of each operation, and the problems seen; ops
    maps each side to its operations."""
    samples = {side: [[] for _ in side_ops] for side, side_ops in ops.items()}
    problems = []
    for rep in range(reps):
        order = "AB" if rep % 2 == 0 else "BA"
        for i in range(len(ops["A"])):
            for side in order:
                timed = run.Pass()
                timed.run([ops[side][i]])
                samples[side][i].append(timed.latencies[0])
                problems += [f"{side} {m}" for m in timed.messages]
    return samples, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the src directory of side A")
    parser.add_argument("b", help="the src directory of side B")
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--reps", type=int, default=15)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    with tempfile.TemporaryDirectory() as into:
        sys.path.insert(0, into)
        build = workloads.WORKLOADS[args.workload]
        ops = {side: build(import_tree(src, f"deolog_side_{side.lower()}",
                                       into), workloads.DEFAULT_SEED)
               for side, src in (("A", args.a), ("B", args.b))}
        labels = [op.label for op in ops["A"]]
        if labels != [op.label for op in ops["B"]]:
            raise SystemExit("error: the two sides build different "
                             "operations")
        samples, problems = compare(ops, args.reps)

    medians = {side: [statistics.median(s) for s in per_op]
               for side, per_op in samples.items()}
    print(f"{'operation':40s} {'A ms':>10s} {'B ms':>10s} {'B/A':>7s}")
    for label, a, b in zip(labels, medians["A"], medians["B"]):
        print(f"{label[:40]:40s} {a * 1e3:10.3f} {b * 1e3:10.3f} "
              f"{b / a if a else float('nan'):7.3f}")
    total_a, total_b = sum(medians["A"]), sum(medians["B"])
    ratio = total_b / total_a
    print(f"sum of medians: A {total_a * 1e3:.1f} ms, "
          f"B {total_b * 1e3:.1f} ms, B/A {ratio:.3f}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload,
                      "seed": workloads.DEFAULT_SEED,
                      "reps": args.reps, "operations": len(labels),
                      "sum_median_a_s": total_a, "sum_median_b_s": total_b,
                      "ratio_b_a": ratio, "failed": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
