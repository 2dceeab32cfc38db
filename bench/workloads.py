"""What each workload runs and how its outputs are judged.

The CLI workloads (`report-batch`, `dag-layered`) hand generated files to the
`attrib` command line.  The library workloads (`wide-monomial`,
`small-calls`) call the library in-process.  Library passes look every
function up through its module at call time (`reports.resolve_method`,
`exact.attribute_monomial`), so a traced pass sees exactly the calls an
untraced pass makes.
"""
from __future__ import annotations

import contextlib
import io

import checks
import hostspeed
import inputs
from hostspeed import clock

# Ops expected to fail until the program is fixed, with the defect they show.
# Their failures count in `failed` but do not make a run incorrect.
KNOWN_DEFECTS = {
    f"overflow-probe-m{inputs.PROBE_M}": "the factorial-weight DP carries binomial factors in its row cells "
    "and returns inf for a 1100-variable product moving from 1.0 to 1.01",
    "dp-m2000": "the order weights w_k(2000) underflow to 0 for 1756 of the 2000 k, so the DP drops its "
    "largest terms and returns about a seventh of the true attribution",
}


def cli_args(cli_in: inputs.CliInputs, model_path: str, values_path: str) -> list[str]:
    return [cli_in.flag, model_path, "--values", values_path, "--report", "machine"]


def in_process_reference(cli_in: inputs.CliInputs, names: list[str]) -> dict[str, list[float]]:
    """attribute_ass of the named entities, called in-process on the same files, per model variable."""
    from attrib import ValuePair
    from attrib.exact import attribute_ass
    from attrib.models import compile_dag, compile_model, parse_dag, parse_model

    if cli_in.flag == "--dag":
        spec = compile_dag(parse_dag(cli_in.text))
    else:
        spec = parse_model(cli_in.text)
    f = compile_model(spec)
    by_name = {e.name: e for e in cli_in.entities}
    out = {}
    for name in names:
        e = by_name[name]
        values = {v: (a, b) for v, a, b in zip(cli_in.fn.variables, e.r, e.s)}
        vp = ValuePair(tuple(values[v][0] for v in spec.variables), tuple(values[v][1] for v in spec.variables))
        z = dict(zip(spec.variables, attribute_ass(f, vp).z))
        out[name] = [z[v] for v in cli_in.fn.variables]
    return out


class CliInProcess:
    """A CLI workload driven through `attrib.cli.main` in this process (the traced run)."""

    def __init__(self, workload: str, seed: int, size: str, model_path: str, values_path: str):
        self.inputs = inputs.CLI_INPUTS[workload](seed, size)
        self.argv = cli_args(self.inputs, model_path, values_path)
        sample = inputs.cli_sample([e.name for e in self.inputs.entities], seed, inputs.SIZES[size]["cli_sample"])
        self.same = in_process_reference(self.inputs, sample)
        self.attributions_per_pass = len(self.inputs.entities)

    def run_pass(self, calls: list[tuple[float, float]]):
        import attrib.cli as cli

        buf = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        calls.append((start, clock()))
        return (code, buf.getvalue())

    def check(self, output, tally: checks.Tally):
        code, text = output
        checks.check_machine_output(text, code, self.inputs.fn, self.inputs.entities, self.same, tally)


class WideMonomial:
    """Full attribution of wide products, single DP members at m in the thousands, and the overflow probe."""

    def __init__(self, seed: int, size: str):
        from attrib import ValuePair, product_function

        self.cases = []
        for case in inputs.wide_monomial(seed, size):
            self.cases.append((case, product_function(case.m), ValuePair(tuple(case.r), tuple(case.s))))
        self.attributions_per_pass = len(self.cases)

    def run_pass(self, calls: list[tuple[float, float]]):
        from attrib import exact, reports

        ass = reports.resolve_method("ass")
        outputs = {}
        for case, f, vp in self.cases:
            if case.op.startswith("ass-"):
                start = clock()
                res = ass(f, vp)
                calls.append((start, clock()))
                outputs[case.op] = (res.z, res.residual)
            else:
                ((indices, coeff),) = f.multilinear.terms.items()
                outputs[case.op] = exact.attribute_monomial(coeff, indices, vp, case.m)
        return outputs

    def check(self, outputs, tally: checks.Tally):
        for case, _, _ in self.cases:
            out = outputs[case.op]
            if case.op.startswith("ass-"):
                z, residual = out
                fn = inputs.Multilinear([f"x{i}" for i in range(case.m)], [(1.0, tuple(range(case.m)))])
                delta = checks.multilinear_value(fn, case.s) - checks.multilinear_value(fn, case.r)
                reasons, rr, gap = checks.check_attribution(z, residual, delta, checks.straight_line(fn, case.r, case.s))
                tally.record(case.op, reasons, rr, gap)
                continue
            if case.op.startswith("overflow-probe"):
                want = inputs.probe_expected()
            else:
                want = checks.monomial_member(case.r, case.s, case.m - 1)
            err = abs(out - want) / abs(want)
            reasons = [] if err <= checks.TOL else [f"got {out!r}, expected {want!r} (relative error {err:.3e})"]
            tally.record(case.op, reasons, 0.0, err)


class SmallCalls:
    """Small random instances plus the procurement example, attributed one call at a time.

    Each pass attributes every instance `repeats` times with `ass` (the
    latency samples), and the procurement example and the first
    `small_oracle_instances` once each with `as-numeric` and `ss-brute`.
    """

    def __init__(self, seed: int, size: str):
        from attrib import InstanceGenerator, ValuePair
        from attrib.models import compile_model, procurement_model

        cfg = inputs.SIZES[size]
        self.instances = [("procurement", compile_model(procurement_model()), ValuePair((4.0, 1.0, 1.0), (5.0, 12.0, 1.5)))]
        for trial in range(cfg["small_instances"]):
            # Sizes follow a fixed schedule over n in 1..8 and 1..20 terms, so the
            # seed changes the instances but not their mix of sizes: with sizes
            # drawn freely the median call moved by a third from seed to seed.
            n, terms = 1 + trial % 8, 1 + (trial // 8) % 20
            gen = InstanceGenerator(seed=seed, n_range=(n, n), terms_range=(terms, terms))
            f, vp, _ = gen.instance(trial)
            self.instances.append((f"inst{trial:03d}", f, vp))
        self.repeats = cfg["small_ass_repeats"]
        self.oracle_count = 1 + cfg["small_oracle_instances"]
        self.attributions_per_pass = len(self.instances) * self.repeats + 2 * self.oracle_count

    def run_pass(self, calls: list[tuple[float, float]]):
        from attrib import reports

        ass = reports.resolve_method("ass")
        numeric = reports.resolve_method("as-numeric")
        brute = reports.resolve_method("ss-brute")
        outputs = {}
        for k, (name, f, vp) in enumerate(self.instances):
            for _ in range(self.repeats):
                start = clock()
                res = ass(f, vp)
                calls.append((start, clock()))
            outputs[f"ass-{name}"] = res
            if k < self.oracle_count:
                outputs[f"as-numeric-{name}"] = numeric(f, vp)
                outputs[f"ss-brute-{name}"] = brute(f, vp)
        return outputs

    def check(self, outputs, tally: checks.Tally):
        from attrib import evaluate

        for k, (name, f, vp) in enumerate(self.instances):
            delta = evaluate(f, vp.s) - evaluate(f, vp.r)
            ass = outputs[f"ass-{name}"]
            if k >= self.oracle_count:
                tally.record(f"ass-{name}", *checks.check_attribution(ass.z, ass.residual, delta)[:2])
                continue
            numeric, brute = outputs[f"as-numeric-{name}"], outputs[f"ss-brute-{name}"]
            reasons, rr, gap = checks.check_attribution(ass.z, ass.residual, delta, brute.z)
            tally.record(f"ass-{name}", reasons, rr, gap)
            reasons, rr, gap = checks.check_attribution(numeric.z, numeric.residual, delta, ass.z)
            if not numeric.converged:
                reasons.append("as-numeric did not converge")
            tally.record(f"as-numeric-{name}", reasons, rr, gap)
            reasons, rr, _ = checks.check_attribution(brute.z, brute.residual, delta)
            tally.record(f"ss-brute-{name}", reasons, rr)


LIBRARY = {"wide-monomial": WideMonomial, "small-calls": SmallCalls}


class Runner:
    """Runs passes of one workload and checks their outputs outside the timed region.

    Outputs are checked fully on the first pass, and again whenever a later
    pass's outputs differ from the first.  Passes and calls are recorded as
    (start, end) `hostspeed.clock()` times, so that probes taken around them
    can correct them afterwards.
    """

    def __init__(self, workload, tally: checks.Tally):
        self.workload = workload
        self.tally = tally
        self.passes: list[tuple[float, float]] = []
        self.calls: list[list[tuple[float, float]]] = []  # one list per pass
        self._first = None

    def run_pass(self, around=None) -> float:
        """One pass, returning its raw seconds; `around` is entered just around the timed region."""
        with around if around is not None else contextlib.nullcontext():
            calls: list[tuple[float, float]] = []
            start = clock()
            out = self.workload.run_pass(calls)
            end = clock()
        self.passes.append((start, end))
        self.calls.append(calls)
        if self._first is None or out != self._first:
            self.workload.check(out, self.tally)
            if self._first is None:
                self._first = out
        return end - start

    def corrected(self) -> tuple[list[float], list[list[float]]]:
        """Seconds of each pass and of each call, corrected by the host-speed probes taken around them."""
        passes = [(end - start) * hostspeed.factor(start, end) for start, end in self.passes]
        calls = [[(end - start) * hostspeed.factor(start, end, hostspeed.CALL_PAD_S) for start, end in per_pass]
                 for per_pass in self.calls]
        return passes, calls
