"""Command line front end.

Exit codes: 0 success, 2 malformed input, 3 a report whose result carries
a fault (`AttributionResult.fault`): numeric non-convergence, a non-finite
result, or a completeness residual above 1e-9 of the change's scale under
any method but naive.  A report run attributes every entity before
printing anything, then writes each report as it is rendered: one bad
entity stops the run with exit 2 and an error naming it, and nothing goes
to stdout; exit 3 means every report was printed and at least one is
flagged.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from .models import ModelError, parse_dag, parse_model, parse_snapshots, read_text
from .reports import mix_effects_demo, render_machine, render_mix_effects, render_text, resolve_method, run_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrib",
        description="Attribute the change of a model's value to its variables.",
    )
    parser.add_argument("--model", metavar="PATH", help="model file (variables, terms, segments)")
    parser.add_argument("--dag", metavar="PATH", help="flow graph file; every method attributes it as it is, without expanding its routes")
    parser.add_argument("--values", metavar="PATH", help="CSV snapshot rows entity,variable,initial,final, for --model or --dag")
    parser.add_argument("--method", metavar="ID",
                        help="ass | ss-brute | as-numeric | naive | random-order:<weights-file> (default: ass);"
                             " for --model, --dag or --axiom-suite")
    parser.add_argument("--tol", metavar="X", type=float, default=None,
                        help="quadrature tolerance for as-numeric, axiom tolerance for --axiom-suite;"
                             " finite and greater than 0 (ass, ss-brute, naive and random-order ignore it;"
                             " the 1e-9 relative completeness check of every result does not change with it)")
    parser.add_argument("--max-refine", metavar="N", type=int, default=None,
                        help="panel doublings allowed before as-numeric gives up (default: 12); 0 or more;"
                             " refining also stops before a pass of more than 2^20 Gauss nodes")
    parser.add_argument("--seed", metavar="N", type=int, help="seed for --axiom-suite instances (default: 0)")
    parser.add_argument("--trials", metavar="N", type=int, help="trials per axiom for --axiom-suite (default: 200)")
    parser.add_argument("--report", choices=("text", "machine"), default="text")
    parser.add_argument("--axiom-suite", action="store_true", help="verify the axioms for --method and exit")
    parser.add_argument("--demo", choices=("mix-effects",), help="run a built-in demonstration")
    return parser


def _axiom_suite(args) -> int:
    from .axioms import InstanceGenerator, run_axiom_suite  # here, so that no other mode loads the suite

    method_id = "ass" if args.method is None else args.method
    seed = 0 if args.seed is None else args.seed
    trials = 200 if args.trials is None else args.trials
    if method_id.startswith("random-order:"):
        raise ModelError(
            f"--axiom-suite cannot check {method_id}: the suite's instances have unnamed variables,"
            " so no weights file can list their orders"
        )
    method = resolve_method(method_id, tol=args.tol, max_refine=args.max_refine)
    gen = InstanceGenerator(seed=seed)
    tol = args.tol if args.tol is not None else 1e-8
    verdicts = run_axiom_suite(method, gen, trials=trials, tol=tol)
    if args.report == "machine":
        print(json.dumps([v.to_dict() for v in verdicts], indent=2))
    else:
        print(f"axiom suite: method={method_id} trials={trials} tol={tol:g} seed={seed}")
        for v in verdicts:
            flag = "PASS" if v.passed else "FAIL"
            note = f"  ({v.note})" if v.note else ""
            print(f"{flag}  {v.axiom:<26} worst violation {v.worst:.3e}{note}")
    return EXIT_OK


_ALL_BUT_DEMO = ("--model", "--dag", "--axiom-suite")
# the flags only some modes read, in the order they are checked, each with the modes that read it
_READERS = (("--values", ("--model", "--dag")), ("--method", _ALL_BUT_DEMO), ("--seed", ("--axiom-suite",)),
            ("--trials", ("--axiom-suite",)), ("--tol", _ALL_BUT_DEMO), ("--max-refine", _ALL_BUT_DEMO))


def _mode(args) -> str | None:
    """The one mode flag given, or None; a ModelError names two modes given together, or a flag the mode does not read.

    `_READERS` maps each flag to the modes that read it: --values goes with --model and --dag, --seed and --trials
    with --axiom-suite, and --method, --tol and --max-refine with every mode but --demo; the message names them.
    """
    flags = (("--demo", args.demo), ("--axiom-suite", args.axiom_suite), ("--model", args.model), ("--dag", args.dag))
    given = [flag for flag, value in flags if value]
    if len(given) > 1:
        raise ModelError(f"give either {given[0]} or {given[1]}, not both")
    if not given:
        return None
    mode = given[0]
    for flag, modes in _READERS:
        if getattr(args, flag[2:].replace("-", "_")) is not None and mode not in modes:
            readers = f"{', '.join(modes[:-1])} or {modes[-1]}" if len(modes) > 1 else modes[0]
            raise ModelError(f"{flag} goes with {readers}; {mode} does not read it")
    return mode


def _run_reports(args) -> int:
    if not args.values:
        raise ModelError("--values is required")
    if args.model:
        model = parse_model(read_text(args.model), args.model)
    else:
        model = parse_dag(read_text(args.dag), args.dag)
    snaps = parse_snapshots(read_text(args.values), args.values)
    if not snaps:
        raise ModelError(f"{args.values}: no snapshot rows")
    method = "ass" if args.method is None else args.method
    reports = run_report(model, snaps, method, tol=args.tol, max_refine=args.max_refine)
    render, sep = (render_machine, "\n") if args.report == "machine" else (render_text, "\n\n")
    try:
        for report in reports[:-1]:
            sys.stdout.write(render(report) + sep)
        sys.stdout.write(render(reports[-1]) + "\n")
    except BrokenPipeError:
        # The reader has gone, leaving records in stdout's buffer that the interpreter would try to flush again
        # at exit; point stdout at devnull, as the SIGPIPE note in Python's signal docs does, so main reports it once.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise
    return EXIT_NUMERIC if any(report.result.fault for report in reports) else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            raise ModelError(f"--tol must be finite and greater than 0, got {args.tol}")
        if args.max_refine is not None and args.max_refine < 0:
            raise ModelError(f"--max-refine must be a nonnegative integer, got {args.max_refine}")
        mode = _mode(args)
        if mode == "--demo":
            demo = mix_effects_demo()
            if args.report == "machine":
                print(render_machine(demo.segmented))
                print(render_machine(demo.aggregate))
            else:
                print(render_mix_effects(demo))
            return EXIT_OK
        if mode == "--axiom-suite":
            return _axiom_suite(args)
        if mode is None:
            parser.error("one of --model, --dag, --axiom-suite, --demo is required")
        return _run_reports(args)
    except (OSError, ValueError) as exc:  # ModelError, the input errors, is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run():
    # Nothing made at import is garbage.  Frozen, numpy's and attrib's import-time objects drop out of the
    # collector's one full pass in a 2,000-entity report run (12-16 ms) and out of its walk at exit (30 ms down
    # to 8 ms; on a 2-vCPU host).  main() does not freeze: tests and the in-process bench run call it repeatedly,
    # and each freeze would keep that call's objects out of the collector for the rest of the process.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
