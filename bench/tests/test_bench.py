"""Tests of the benchmark itself: generators, checks, span wrappers and the command's contract.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""
import io
import json
import math
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

import checks
import hostspeed
import inputs
import run
import spans
import spec
import workloads
from attrib import ValuePair, attribute_ass, from_terms
from attrib.models import compile_dag, compile_model, parse_dag, parse_model, payperclick_model

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# generators


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    assert inputs.report_batch(3, "smoke") == inputs.report_batch(3, "smoke")
    assert inputs.report_batch(3, "smoke").entities != inputs.report_batch(4, "smoke").entities
    assert inputs.dag_layered(3, "smoke") == inputs.dag_layered(3, "smoke")
    assert inputs.wide_monomial(3, "smoke") == inputs.wide_monomial(3, "smoke")
    assert inputs.wide_monomial(3, "smoke")[0] != inputs.wide_monomial(4, "smoke")[0]


def test_report_batch_is_payperclick_8_with_2000_entities():
    cli_in = inputs.report_batch(1)
    spec_ = parse_model(cli_in.text)
    ref = payperclick_model(8)
    assert spec_.variables == ref.variables and len(spec_.variables) == 26
    assert compile_model(spec_) == compile_model(ref)
    assert len(cli_in.entities) == 2000
    rows = cli_in.values_csv().splitlines()
    assert len(rows) == 1 + 2000 * 26


def test_layered_dag_matches_the_program_compiler():
    text, fn = inputs.layered_dag(5, 5)
    assert len(fn.variables) == 110
    assert len(fn.terms) == 3125 and {len(idx) for _, idx in fn.terms} == {6}
    ms = compile_dag(parse_dag(text))
    assert set(ms.variables) == set(fn.variables)
    ours = {frozenset(fn.variables[i] for i in idx) for _, idx in fn.terms}
    theirs = {frozenset(names) for names, _ in ms.ml_terms}
    assert ours == theirs


def test_wide_cases_and_probe():
    cases = inputs.wide_monomial(1)
    assert [c.op for c in cases] == ["ass-m50", "ass-m200", "ass-m400", "dp-m1000", "dp-m2000", "overflow-probe-m1100"]
    assert all(0.7 <= v <= 1.4 for c in cases[:3] for v in c.r + c.s)
    assert inputs.probe_expected() == pytest.approx(51.536012747, rel=1e-10)


def test_cli_sample_is_seeded():
    names = [f"e{k}" for k in range(100)]
    assert inputs.cli_sample(names, 5, 10) == inputs.cli_sample(names, 5, 10)
    assert len(inputs.cli_sample(names, 5, 10)) == 10
    assert inputs.cli_sample(names[:3], 5, 10) == names[:3]


# ---------------------------------------------------------------------------
# reference computations


def test_straight_line_oracle_matches_attribute_ass():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 7)
        terms = []
        for _ in range(rng.randint(1, 6)):
            idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            terms.append((rng.uniform(-3, 3), idx))
        fn = inputs.Multilinear([f"x{i}" for i in range(n)], terms)
        r = [rng.uniform(-2, 2) for _ in range(n)]
        s = [rng.uniform(-2, 2) for _ in range(n)]
        f = from_terms(n, _merge(terms))
        want = attribute_ass(f, ValuePair(tuple(r), tuple(s))).z
        got = checks.straight_line(fn, r, s)
        assert max(checks.rel_gap(a, b) for a, b in zip(got, want)) <= 1e-12


def _merge(terms):
    out = {}
    for c, idx in terms:
        key = tuple(i + 1 for i in idx)
        out[key] = out.get(key, 0.0) + c
    return out


def test_monomial_member_matches_straight_line():
    rng = random.Random(3)
    m = 60
    r = [rng.uniform(0.7, 1.4) for _ in range(m)]
    s = [rng.uniform(0.7, 1.4) for _ in range(m)]
    fn = inputs.Multilinear([f"x{i}" for i in range(m)], [(1.0, tuple(range(m)))])
    full = checks.straight_line(fn, r, s)
    for i in (0, 17, m - 1):
        assert checks.monomial_member(r, s, i) == pytest.approx(full[i], rel=1e-12)


# ---------------------------------------------------------------------------
# checks


def test_check_attribution_flags_non_finite_and_residual():
    reasons, rr, gap = checks.check_attribution([1.0, 2.0], 0.0, 3.0, reference=[1.0, 2.0])
    assert reasons == [] and rr == 0.0 and gap == 0.0
    assert checks.check_attribution([math.inf, 2.0], 0.0, 3.0)[0] == ["non-finite attribution or residual"]
    assert checks.check_attribution([math.nan, 2.0], 0.0, 3.0)[0]
    assert "relative residual" in checks.check_attribution([1.0, 2.5], 0.0, 3.0)[0][0]
    assert "oracle gap" in checks.check_attribution([1.0, 2.0], 0.0, 3.0, reference=[1.5, 1.5])[0][0]


def test_tally_counts_an_op_once():
    tally = checks.Tally()
    tally.record("a", ["bad"])
    tally.record("a", ["bad"])
    tally.record("a", ["worse"], rel_res=math.inf)
    tally.record("b", [], rel_res=1e-15, gap=2e-15)
    assert tally.attempted == 2
    assert tally.failures == {"a": ["bad", "worse"]}
    assert tally.max_rel_residual == 1e-15 and tally.max_oracle_gap == 2e-15


@pytest.fixture(scope="module")
def smoke_cli(tmp_path_factory):
    """Smoke report-batch inputs on disk and the real CLI's machine output for them."""
    work = tmp_path_factory.mktemp("cli")
    cli_in = inputs.report_batch(2, "smoke")
    (work / "input.txt").write_text(cli_in.text)
    (work / "values.csv").write_text(cli_in.values_csv())
    import attrib.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = attrib.cli.main(workloads.cli_args(cli_in, str(work / "input.txt"), str(work / "values.csv")))
    names = [e.name for e in cli_in.entities]
    same = workloads.in_process_reference(cli_in, names[:3])
    return cli_in, code, buf.getvalue(), same, work


def _judge(cli_in, code, text, same):
    tally = checks.Tally()
    checks.check_machine_output(text, code, cli_in.fn, cli_in.entities, same, tally)
    return tally


def test_real_cli_output_passes(smoke_cli):
    cli_in, code, text, same, _ = smoke_cli
    tally = _judge(cli_in, code, text, same)
    assert tally.attempted == len(cli_in.entities) + 1
    assert tally.failures == {}
    assert 0 < tally.max_oracle_gap <= 1e-12


def _corrupt_attribution(text, entity, factor):
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        if rec["entity"] == entity and rec["record"] == "attribution" and rec["variable"] == "q":
            rec["attribution"] *= factor
        out.append(json.dumps(rec))
    return "\n".join(out)


def test_corrupted_outputs_count_as_failed(smoke_cli):
    cli_in, code, text, same, _ = smoke_cli
    first, second = cli_in.entities[0].name, cli_in.entities[1].name
    # a wrong number in one entity's records
    assert set(_judge(cli_in, code, _corrupt_attribution(text, first, 1.001), same).failures) == {first}
    # a non-finite number
    bad = text.replace('"attribution": ', '"attribution": NaN, "x": ', 1)
    assert first in _judge(cli_in, code, bad, same).failures
    # a dropped entity
    dropped = "\n".join(line for line in text.splitlines() if json.loads(line)["entity"] != second)
    assert set(_judge(cli_in, code, dropped, same).failures) == {second}
    # a nonzero exit code, garbage on a line, and an echoed value that moved
    assert set(_judge(cli_in, 3, text, same).failures) == {checks.INVOCATION_OP}
    assert checks.INVOCATION_OP in _judge(cli_in, code, text + "\nnot json", same).failures
    shifted = "\n".join(
        json.dumps({**rec, "initial": rec["initial"] + 1.0}) if rec.get("variable") == "b" and rec["entity"] == first else line
        for line, rec in ((line, json.loads(line)) for line in text.splitlines())
    )
    assert set(_judge(cli_in, code, shifted, same).failures) == {first}


def test_sampled_entity_must_match_in_process_attribution(smoke_cli):
    cli_in, code, text, same, _ = smoke_cli
    name = next(iter(same))
    skewed = {**same, name: [v * (1 + 1e-10) for v in same[name]]}
    failures = _judge(cli_in, code, text, skewed).failures
    assert set(failures) == {name} and "in-process" in failures[name][0]


def test_wide_monomial_checks_flag_the_overflow_probe():
    wide = workloads.WideMonomial(1, "smoke")
    outputs = wide.run_pass([])
    tally = checks.Tally()
    wide.check(outputs, tally)
    assert set(tally.failures) == set(workloads.KNOWN_DEFECTS) & set(tally.ops)
    assert "overflow-probe-m1100" in tally.failures
    outputs["ass-m6"] = (tuple(v * 2 for v in outputs["ass-m6"][0]), outputs["ass-m6"][1])
    wide.check(outputs, tally)
    assert "ass-m6" in tally.failures


def test_small_calls_checks_pass_and_catch_a_wrong_kernel():
    small = workloads.SmallCalls(1, "smoke")
    outputs = small.run_pass([])
    tally = checks.Tally()
    small.check(outputs, tally)
    assert tally.failures == {} and tally.attempted == len(small.instances) + 2 * small.oracle_count
    res = outputs["ass-procurement"]
    outputs["ass-procurement"] = type(res)(res.method, (res.z[1], res.z[0], res.z[2]), res.residual)
    small.check(outputs, tally)
    assert "ass-procurement" in tally.failures


# ---------------------------------------------------------------------------
# span wrappers


def test_traced_records_layers_and_restores_originals(smoke_cli):
    cli_in, _, _, _, work = smoke_cli
    import attrib.cli
    import attrib.exact
    import attrib.reports

    before = {(m.__name__, a): getattr(m, a) for m in (attrib.cli, attrib.reports, attrib.exact) for a in dir(m)}
    tracer = spans.Tracer()
    argv = workloads.cli_args(cli_in, str(work / "input.txt"), str(work / "values.csv"))
    with spans.traced(tracer), redirect_stdout(io.StringIO()):
        assert attrib.cli.main(argv) == 0
    layers = spans.layer_metrics(tracer)
    n = len(cli_in.entities)
    assert layers["models.compile_calls"] == n
    assert layers["exact.calls"] == n
    assert layers["models.monomials"] == n * len(cli_in.fn.terms)
    assert layers["exact.monomial_calls"] == n * sum(len(idx) for _, idx in cli_in.fn.terms)
    assert layers["reports.render_bytes"] > 0
    assert 0 < layers["reports.run_report_self_s"] < layers["reports.run_report_s"] < layers["cli.main_s"]
    assert layers["paths.calls"] == layers["oracles.calls"] == 0
    after = {(m.__name__, a): getattr(m, a) for m in (attrib.cli, attrib.reports, attrib.exact) for a in dir(m)}
    assert after == before


def test_resolved_handles_are_traced_per_layer():
    from attrib import product_function, reports

    tracer = spans.Tracer()
    f, vp = product_function(3), ValuePair((4.0, 1.0, 1.0), (5.0, 12.0, 1.5))
    with spans.traced(tracer):
        for method in ("ass", "as-numeric", "ss-brute"):
            reports.resolve_method(method)(f, vp)
    layers = spans.layer_metrics(tracer)
    assert layers["exact.calls"] == layers["paths.calls"] == layers["oracles.calls"] == 1
    assert layers["paths.unconverged"] == 0


def test_missing_target_fails_loudly_and_restores():
    import attrib.reports

    original = attrib.reports.compile_model
    targets = spans.TARGETS[:7] + [("attrib.reports", "no_such_function", "x", None)]
    with pytest.raises(spans.MissingTarget, match="no_such_function"):
        with spans.traced(spans.Tracer(), targets):
            pass
    assert attrib.reports.compile_model is original


def test_self_time_excludes_direct_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0), ("leaf", 2.0, 3.0, 1)]
    totals = tracer.totals()
    assert totals["outer"] == (10.0, 1, 7.0)
    assert totals["inner"] == (3.0, 1, 2.0)


# ---------------------------------------------------------------------------
# host-speed correction


def test_factor_divides_out_the_mean_probe_in_the_window(monkeypatch):
    ref = hostspeed.REF_PROBE_S
    monkeypatch.setattr(hostspeed, "_probes", [(1.0, 9.0), (2.0, ref), (3.0, 3 * ref), (4.0, 9.0)])
    assert hostspeed.factor(2.0, 3.0) == pytest.approx(0.5)
    assert hostspeed.factor(2.5, 2.75, pad=0.25) == pytest.approx(1 / 3)
    assert hostspeed.factor(1.5, 2.5) == pytest.approx(1.0)


def test_factor_probes_once_when_none_was_taken(monkeypatch):
    monkeypatch.setattr(hostspeed, "_probes", [(1.0, 9.0)])
    assert hostspeed.factor(5.0, 6.0) > 0 and len(hostspeed._probes) == 2


def test_sampling_probes_and_clock_leaves_probes_out(monkeypatch):
    monkeypatch.setattr(hostspeed, "_probes", [])
    monkeypatch.setattr(hostspeed, "_paused", 0.0)
    start, wall = hostspeed.clock(), perf_counter()
    with hostspeed.sampling(interval=0.01):
        deadline = perf_counter() + 0.3
        while perf_counter() < deadline:
            pass
    assert len(hostspeed._probes) >= 5
    work, wall = hostspeed.clock() - start, perf_counter() - wall
    assert work == pytest.approx(wall - sum(seconds for _, seconds in hostspeed._probes), abs=5e-5)  # a probe is ~500 us
    stamps = [at for at, _ in hostspeed._probes]
    assert stamps == sorted(stamps) and start <= stamps[0] and stamps[-1] <= start + work
    taken = len(hostspeed._probes)
    deadline = perf_counter() + 0.05
    while perf_counter() < deadline:
        pass
    assert len(hostspeed._probes) == taken  # the timer is off after the block


def test_a_child_reports_its_own_probes(tmp_path):
    probe_file = tmp_path / "child.probes"
    code = "import time\nend = time.perf_counter() + 0.3\nwhile time.perf_counter() < end: pass\n"
    subprocess.run([sys.executable, "-c", code], env=run.child_env(probe_file), check=True, timeout=60)
    child = json.loads(probe_file.read_text())
    assert len(child["probes"]) >= 3  # every 50 ms, and one at exit
    assert child["paused"] == pytest.approx(sum(child["probes"]))
    assert hostspeed.scale(child["probes"]) > 0


def test_scale_leaves_out_descheduled_probes():
    ref = hostspeed.REF_PROBE_S
    assert hostspeed.scale([ref, ref, ref, 10 * ref]) == pytest.approx(1.0)
    assert hostspeed.scale([ref, 3 * ref]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# the command


def test_importtime_parser():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       700 |        800 |       scipy",
        "import time:      5000 |       9000 |     scipy.interpolate",
        "import time:       300 |        300 |     numpy",
        "import time:       200 |       9500 |   attrib.paths",
        "import time:       100 |       9600 | attrib",
        "import time:        50 |       9650 | attrib.cli",
    ])
    assert run.importtime(stderr, "attrib.cli") == (9650e-6, 9000e-6)
    assert run.importtime(stderr, "attrib") == (9600e-6, 9000e-6)


def test_tail_quantile_needs_ten_samples_beyond_p99():
    assert run.tail_quantile(5000) == run.tail_quantile(1000) == 0.99
    assert run.tail_quantile(999) == run.tail_quantile(12) == 0.5


def test_quantile():
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.quantile([1.0, 2.0], 0.99) == pytest.approx(1.99)
    assert run.quantile([5.0], 0.99) == 5.0


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == spec.ALL_WORKLOADS
    assert [m["name"] for m in bench["per_layer"]] == list(spec.LAYER_MAP)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", spec.ALL_WORKLOADS)
def test_smoke_run_prints_the_contract_line(workload, trace):
    proc = _run("--workload", workload, "--seed", "4", "--seconds", "0.2", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in line["metrics"].values())
    record = json.loads((BENCH / "results" / f"{workload}-seed4-trace{trace}.json").read_text())
    assert record["machine"]["nproc"] >= 1 and record["machine"]["numpy"]
    assert record["seed"] == 4 and record["inputs"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = _run("--workload", "small-calls", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
