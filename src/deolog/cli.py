"""The deolog command line: parse, eval, check, sat, suite, prove.

Exit codes are a stable contract: 0 for positive verdicts (valid, qualified
valid, satisfiable), 1 for negative ones, 2 for budget-limited unknowns,
3 for usage and syntax errors, 4 for internal errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .syntax import ParseError, desugar, parse, pretty
from .models import MissingSelectionError, denote, validate_model
from .regimes import BasicRegime, DeltaRegime, WeightClass, WeightedRegime
from .engine import Sequent, check, parse_formulas, satisfiable
from . import documents, regimes
from .proofs import check_derivation, load_derivation
from .suite import run_suite

EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract says 3
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="deolog",
                     description="preference-semantics workbench for "
                                 "deontic logic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and show its core form")
    p.add_argument("formula")
    p.add_argument("--core", action="store_true",
                   help="print only the desugared core form")
    p.add_argument("--strict-def7", action="store_true")

    p = sub.add_parser("eval", help="evaluate a formula in a model document")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--strict-def7", action="store_true")

    p = sub.add_parser("check", help="decide a sequent 'f1 ; f2 |- g'")
    p.add_argument("sequent")
    _regime_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sat", help="search for a satisfying model and world")
    p.add_argument("formulas", nargs="+",
                   help="formulas (';' inside an argument also separates)")
    _regime_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("suite", help="run the claim regression suite")
    p.add_argument("--only", help="claim-id prefix filter, e.g. Prop4")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("prove", help="check a derivation file")
    p.add_argument("--check", required=True, metavar="FILE",
                   dest="derivation")
    return parser


def _regime_flags(p):
    p.add_argument("--regime", choices=["basic", "delta", "weighted"],
                   default="delta")
    p.add_argument("--class", dest="weight_class", default="",
                   help="weight constraints, e.g. 'q>p,q>r'")
    p.add_argument("--grid", default=",".join(map(str, regimes.DEFAULT_GRID)),
                   help="weight grid: 'a..b' or comma list")
    p.add_argument("--extra-vars", type=int,
                   default=DeltaRegime.extra_variables)
    p.add_argument("--max-worlds", type=int, default=BasicRegime.max_worlds)
    p.add_argument("--strict-def7", action="store_true")


def _parse_grid(text):
    """The weights of 'a..b', as a range that WeightedRegime checks before
    anything iterates it, or of a comma list; blank is the empty grid."""
    text = text.strip()
    if not text:
        return ()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"weight grid {text!r} is not 'a..b' or a comma "
                         f"list of integers") from None


def _regime_from_args(args):
    """The regime --regime names; every regime is built from the flags, so
    a bad flag is a usage error whichever regime it belongs to."""
    built = {"basic": BasicRegime(args.max_worlds),
             "delta": DeltaRegime(args.extra_vars),
             "weighted": WeightedRegime(WeightClass.parse(args.weight_class),
                                        _parse_grid(args.grid),
                                        args.extra_vars)}
    return built[args.regime]


def _out(text):
    """Print a line on stdout. When a reader such as head -1 has closed it,
    the rest goes to os.devnull and the command keeps its exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_parse(args):
    f = parse(args.formula)
    core = desugar(f, strict_def7=args.strict_def7)
    text = pretty(core)   # may refuse an oversized tree: print nothing then
    if args.core:
        _out(text)
    else:
        _out(f"surface: {pretty(f)}")
        _out(f"core:    {text}")
    return 0


def cmd_eval(args):
    try:
        model = documents.load_model(args.model)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot load model: {exc!r}", file=sys.stderr)
        return EXIT_USAGE
    problems = validate_model(model)
    if problems:
        for problem in problems:
            print(f"invalid model: {problem}", file=sys.stderr)
        return EXIT_USAGE
    f = parse(args.formula)
    core = desugar(f, strict_def7=args.strict_def7)
    try:
        prop = denote(model, core)
    except MissingSelectionError as miss:
        print(f"error: {miss}", file=sys.stderr)
        return EXIT_USAGE
    _out(" ".join(sorted(w.name for w in prop)))
    return 0


def cmd_check(args):
    sequent = Sequent.parse(args.sequent)
    verdict = check(sequent, _regime_from_args(args),
                    strict_def7=args.strict_def7)
    _print_verdict(verdict, args.json)
    return verdict.exit_code()


def cmd_sat(args):
    fs = [f for arg in args.formulas for f in parse_formulas(arg)]
    verdict = satisfiable(fs, _regime_from_args(args),
                          strict_def7=args.strict_def7)
    _print_verdict(verdict, args.json)
    return verdict.exit_code()


def _print_verdict(verdict, as_json):
    if as_json:
        _out(json.dumps(documents.verdict_to_doc(verdict), indent=2))
    else:
        _out(documents.format_verdict(verdict))


def cmd_suite(args):
    report = run_suite(only=args.only)
    if args.json:
        _out(json.dumps(report.to_doc(), indent=2))
    else:
        for r in report.results:
            mark = "ok" if r.ok else "MISMATCH"
            _out(f"{r.claim_id:22s} expected={r.expected:15s} "
                 f"observed={r.observed:15s} {mark}  ({r.elapsed:.2f}s)")
        _out("")
        for line in report.group_lines():
            _out(line)
    return 0 if report.ok else 1


def cmd_prove(args):
    try:
        steps = load_derivation(args.derivation)
    except (OSError, ValueError, KeyError, ParseError) as exc:
        print(f"error: cannot load derivation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = check_derivation(steps)
    if result.ok:
        _out(f"theorem: {pretty(result.theorem)}")
        return 0
    _out(f"step {result.step}: {result.reason}")
    return 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"parse": cmd_parse, "eval": cmd_eval, "check": cmd_check,
                "sat": cmd_sat, "suite": cmd_suite, "prove": cmd_prove}
    try:
        code = handlers[args.command](args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except Exception as exc:
        # a crash must not read as a verdict: 1 means invalid or unsat
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
