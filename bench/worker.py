"""Child process of the benchmark: one fresh interpreter per setup sample, library run or traced run.

    python3 bench/worker.py --mode setup|timed|trace --workload NAME --seed N
                            --seconds S --size full|smoke --workdir DIR

`setup` imports the workload's entry module and makes the warm-up calls, then
exits; the parent times it from spawn to exit.  `timed` runs a library
workload for S seconds.  `trace` runs any workload twice per pass, untraced
and under span recorders, for S seconds; the parent starts it with
`-X importtime`.  `timed` and `trace` print one JSON line.

The entry module is imported before anything else, even argparse, so the
parent's import timings and set-up times see the program's imports whole and
not the benchmark's.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--workdir", default=".")
    return p.parse_args(argv)


def warm_up(workload: str):
    """One call per method the library workload times; the CLI gets none, its users pay for the first call."""
    from attrib import ValuePair, exact, product_function, reports

    f, vp = product_function(3), ValuePair((4.0, 1.0, 1.0), (5.0, 12.0, 1.5))
    if workload == "wide-monomial":
        reports.resolve_method("ass")(f, vp)
        exact.attribute_monomial(1.0, (1, 2, 3), vp, 3)
    elif workload == "small-calls":
        for method in ("ass", "as-numeric", "ss-brute"):
            reports.resolve_method(method)(f, vp)


def main(argv) -> int:
    import spec

    entry = spec.entry_module(argv[argv.index("--workload") + 1] if "--workload" in argv else "")
    __import__(entry)  # the import statement's path, which -X importtime logs; importlib's is not logged
    module = sys.modules[entry]
    if os.path.commonpath([os.path.realpath(module.__file__), os.path.realpath(SRC)]) != os.path.realpath(SRC):
        print(f"error: imported {entry} from {module.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    args = _parse(argv)
    warm_up(args.workload)
    if args.mode == "setup":
        return 0

    import json
    from time import perf_counter

    import checks
    import hostspeed
    import spans
    import workloads

    if args.workload in spec.CLI_WORKLOADS:
        workload = workloads.CliInProcess(args.workload, args.seed, args.size, os.path.join(args.workdir, "input.txt"),
                                          os.path.join(args.workdir, "values.csv"))
    else:
        workload = workloads.LIBRARY[args.workload](args.seed, args.size)
    tally = checks.Tally()
    runner = workloads.Runner(workload, tally)
    out = {"attributions_per_pass": workload.attributions_per_pass}
    deadline = perf_counter() + args.seconds
    if args.mode == "timed":
        with hostspeed.sampling():
            while not runner.passes or perf_counter() < deadline:
                runner.run_pass()
        passes, latencies = runner.corrected()
        out.update(passes=passes, raw_passes=[end - start for start, end in runner.passes], latencies=latencies)
    else:
        tracer = spans.Tracer()
        untraced, traced, layers = [], [], []
        while not traced or perf_counter() < deadline:
            untraced.append(runner.run_pass())
            traced.append(runner.run_pass(spans.traced(tracer)))
            layers.append(spans.layer_metrics(tracer))
            tracer.reset()
        out.update(untraced=untraced, traced=traced, layers=layers)
    out["tally"] = tally.to_dict()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
