#!/usr/bin/env python3
"""The attrib benchmark: seeded workloads, end-to-end metrics, per-layer spans, checked outputs.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from its
`src/`.  With `--trace 0` it prints every end-to-end metric of
BENCHMARK.json; with `--trace 1` a separate in-process run under span
recorders prints every per-layer metric.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Each run also
writes bench/results/<workload>-seed<N>-trace<T>.json with the machine, the
inputs, every pass time and every failure.

A run repeats passes for --seconds and reports each timing as the median over
its passes (set-up as the median of its fresh interpreters, call latencies
as quantiles of all calls of the run).  Every timed stretch is corrected by
host-speed probes taken while it runs (see hostspeed.py): on the shared
two-vCPU host the benchmark was built on, identical passes took up to 1.8x as
long as each other, in stretches lasting up to minutes.

Workloads (one at a time; `all` runs the four in turn):
  report-batch   the CLI on a pay-per-click model and 2000 entities
  dag-layered    the CLI on a layered 5x5 flow graph (3125 routes), 8 entities
  wide-monomial  in-process exact attribution of wide products, long DP rows,
                 and a fixed overflow probe
  small-calls    closed loop of single in-process attributions of small instances

`--smoke` runs the same code on tiny inputs; the benchmark's tests use it.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

RUN_BUDGET_S = 170.0  # a run, all its children included, must end within this


class BenchError(RuntimeError):
    pass


def tail_quantile(n: int) -> float:
    """0.99 when at least ten of n samples lie beyond it; else 0.5, as a tail of fewer samples is noise.

    Only small-calls makes a thousand calls in a run; on the other workloads
    call_p99_us therefore reports the median call.
    """
    return 0.99 if n >= 1000 else 0.5


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env(probe_file: Path | None = None) -> dict:
    """The program on the path; with `probe_file`, the child samples host speed into it (site/sitecustomize.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("BENCH_PROBE_FILE", None)
    if probe_file is not None:
        env["PYTHONPATH"] += os.pathsep + str(HERE / "site")
        env["BENCH_PROBE_FILE"] = str(probe_file)
    return env


def spawn(cmd: list[str], workdir: Path, tag: str, deadline: float, env: dict | None = None) -> tuple[float, int, float, str, str]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB, stdout, stderr).

    Output goes to files, so a child writing megabytes never blocks on a pipe;
    os.wait4 gives this child's own resource usage.  A child still running at
    `deadline` (a perf_counter time) is killed and the run fails.
    """
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env or child_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if perf_counter() >= deadline:
        raise BenchError(f"out of time: the run exceeded {RUN_BUDGET_S:.0f} s in {' '.join(cmd[:4])}")
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text()


def worker_cmd(mode: str, args, workdir: Path, importtime: bool = False) -> list[str]:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size, "--workdir", str(workdir)]
    return cmd


def worker_result(cmd, workdir: Path, tag: str, deadline: float):
    wall, code, rss, out, err = spawn(cmd, workdir, tag, deadline)
    if code != 0:
        raise BenchError(f"{tag} worker exited with {code}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1]), rss, err


def probed_spawn(cmd: list[str], workdir: Path, tag: str, deadline: float):
    """spawn() a child that samples host speed itself: (corrected wall, raw wall, exit code, peak RSS, stdout, stderr).

    The raw wall leaves out the child's probes; the corrected one is scaled by them.
    """
    probe_file = workdir / f"{tag}.probes"
    probe_file.unlink(missing_ok=True)
    wall, code, rss, out, err = spawn(cmd, workdir, tag, deadline, child_env(probe_file))
    try:
        child = json.loads(probe_file.read_text())
    except (OSError, ValueError):
        raise BenchError(f"{tag}: the child left no host-speed probes (exit code {code}):\n{err[-4000:]}") from None
    work = wall - child["paused"]
    return work * hostspeed.scale(child["probes"]), work, code, rss, out, err


def setup_seconds(args, workdir: Path) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import of the entry module plus the warm-up calls, timed from spawn to exit.

    Returns the corrected and the raw times.  One unmeasured run first writes
    bytecode caches and warms the file cache, as an installed package would
    have them.
    """
    samples, raw = [], []
    for k in range(spec.SETUP_SAMPLES + 1):
        wall, wall_raw, code, _, _, err = probed_spawn(worker_cmd("setup", args, workdir), workdir, f"setup{k}", args.deadline)
        if code != 0:
            raise BenchError(f"set-up run exited with {code}:\n{err[-4000:]}")
        if k:
            samples.append(wall)
            raw.append(wall_raw)
    return samples, raw


def write_cli_inputs(args, workdir: Path) -> inputs.CliInputs:
    cli_in = inputs.CLI_INPUTS[args.workload](args.seed, args.size)
    (workdir / "input.txt").write_text(cli_in.text)
    (workdir / "values.csv").write_text(cli_in.values_csv())
    return cli_in


def run_cli(args, workdir: Path) -> dict:
    """Time `attrib` CLI invocations in subprocesses for --seconds; check every output."""
    tally = checks.Tally()
    cli_in = write_cli_inputs(args, workdir)
    sample = inputs.cli_sample([e.name for e in cli_in.entities], args.seed, inputs.SIZES[args.size]["cli_sample"])
    same = workloads.in_process_reference(cli_in, sample)
    cmd = [sys.executable, "-m", "attrib.cli", *workloads.cli_args(cli_in, str(workdir / "input.txt"), str(workdir / "values.csv"))]
    walls, raw, rss = [], [], []
    first_digest = None
    deadline = perf_counter() + args.seconds
    while not walls or perf_counter() < deadline:
        wall, wall_raw, code, peak, out, _ = probed_spawn(cmd, workdir, "cli", args.deadline)
        walls.append(wall)
        raw.append(wall_raw)
        rss.append(peak)
        digest = hashlib.sha256(f"{code}\n{out}".encode()).digest()
        if digest != first_digest:
            checks.check_machine_output(out, code, cli_in.fn, cli_in.entities, same, tally)
            first_digest = first_digest or digest
    return {"passes": walls, "raw_passes": raw, "latencies": [[w] for w in walls], "peak_rss_mb": max(rss), "attributions_per_pass": len(cli_in.entities),
            "tally": tally.to_dict()}


def run_library(args, workdir: Path) -> dict:
    result, rss, _ = worker_result(worker_cmd("timed", args, workdir), workdir, "timed", args.deadline)
    result["peak_rss_mb"] = rss
    return result


def importtime(stderr: str, entry: str) -> tuple[float, float]:
    """(entry module's cumulative import seconds, scipy's) from `-X importtime` output.

    Lines are printed children first; a module's parent is the next line at
    a smaller depth.  scipy's time is the sum over scipy modules whose parent
    is not a scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    entry_s = next((cum for depth, name, cum in rows if depth == 0 and name == entry), None)
    if entry_s is None:
        raise BenchError(f"-X importtime output has no line for {entry}")
    scipy_s = 0.0
    for k, (depth, name, cum) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in rows[k + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            scipy_s += cum
    return entry_s, scipy_s


def run_trace(args, workdir: Path) -> dict:
    if args.workload in spec.CLI_WORKLOADS:
        write_cli_inputs(args, workdir)
    result, _, err = worker_result(worker_cmd("trace", args, workdir, importtime=True), workdir, "trace", args.deadline)
    import_s, scipy_s = importtime(err, spec.entry_module(args.workload))
    metrics = {name: min(row[name] for row in result["layers"]) for name in result["layers"][0]}
    metrics.update({
        "startup.import_s": import_s,
        "startup.scipy_import_s": scipy_s,
        "exact.max_rel_residual": result["tally"]["max_rel_residual"],
        "exact.max_oracle_gap": result["tally"]["max_oracle_gap"],
        "trace.overhead_s": min(result["traced"]) - min(result["untraced"]),
    })
    samples = {"traced_passes": len(result["traced"]), "untraced_passes": len(result["untraced"])}
    return {"metrics": metrics, "samples": samples, "tally": result["tally"]}


def end_to_end(args, workdir: Path) -> dict:
    setup, setup_raw = setup_seconds(args, workdir)
    run = (run_cli if args.workload in spec.CLI_WORKLOADS else run_library)(args, workdir)
    wall = quantile(run["passes"], 0.5)
    calls = [t for lat in run["latencies"] for t in lat]
    tail = tail_quantile(len(calls))
    metrics = {
        "wall_s": wall,
        "setup_s": quantile(setup, 0.5),
        "entities_per_s": run["attributions_per_pass"] / wall,
        "call_p50_us": quantile(calls, 0.5) * 1e6,
        "call_p99_us": quantile(calls, tail) * 1e6,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {"calls": len(calls), "call_p99_quantile": tail, "attributions_per_pass": run["attributions_per_pass"],
               "pass_s": run["passes"], "raw_pass_s": run["raw_passes"], "setup_s": setup, "raw_setup_s": setup_raw}
    return {"metrics": metrics, "samples": samples, "tally": run["tally"]}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def fingerprint() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def input_description(args) -> dict:
    cfg = inputs.SIZES[args.size]
    if args.workload == "report-batch":
        return {"model": f"payperclick({cfg['ppc_positions']})", "entities": cfg["report_entities"],
                "variables": 2 + 3 * cfg["ppc_positions"], "monomials": cfg["ppc_positions"], "sample": cfg["cli_sample"]}
    if args.workload == "dag-layered":
        layers, width = cfg["dag_layers"], cfg["dag_width"]
        return {"layers": layers, "width": width, "routes": width**layers, "entities": cfg["dag_entities"],
                "variables": width + width * width * (layers - 1) + width, "sample": cfg["cli_sample"]}
    if args.workload == "wide-monomial":
        return {"ass_m": cfg["wide_ass_m"], "dp_m": cfg["wide_dp_m"], "probe_m": inputs.PROBE_M}
    return {"instances": cfg["small_instances"] + 1, "oracle_instances": cfg["small_oracle_instances"] + 1,
            "ass_repeats": cfg["small_ass_repeats"]}


def run_workload(args, bench: dict) -> dict:
    args.deadline = perf_counter() + RUN_BUDGET_S
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        part = (run_trace if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in part["metrics"]]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": part["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    tally = part["tally"]
    failures = tally["failures"]
    unexpected = sorted(op for op in failures if op not in workloads.KNOWN_DEFECTS)
    line = {"correct": not unexpected, "attempted": tally["attempted"], "failed": len(failures), "metrics": metrics}
    why = next((w["why"] for w in bench["workloads"] if w["name"] == args.workload), "")
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": fingerprint(),
        "inputs": input_description(args),
        "samples": part["samples"],
        "result": line,
        "max_rel_residual": tally["max_rel_residual"],
        "max_oracle_gap": tally["max_oracle_gap"],
        "failures": dict(list(failures.items())[:50]),
        "known_defects": {op: workloads.KNOWN_DEFECTS[op] for op in failures if op in workloads.KNOWN_DEFECTS},
        "layer_map": spec.LAYER_MAP,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def summary(record: dict) -> str:
    res = record["result"]
    parts = [f"{name}={m['value']:.6g}{m['unit']}" for name, m in res["metrics"].items()]
    head = f"[{record['workload']} seed={record['seed']} trace={record['trace']}] ops {res['attempted']} failed {res['failed']}"
    quality = f"max_rel_residual={record['max_rel_residual']:.3e} max_oracle_gap={record['max_oracle_gap']:.3e}"
    lines = [head, "  " + " ".join(parts), "  " + quality]
    for op, reasons in list(record["failures"].items())[:5]:
        known = " (known defect)" if op in record["known_defects"] else ""
        lines.append(f"  FAILED {op}{known}: {'; '.join(reasons)}")
    return "\n".join(lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=spec.ALL_WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_const", const="smoke", default="full", dest="size",
                   help="tiny inputs, same code paths")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "attrib" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'attrib'} is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec.ALL_WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            args.workload = name
            record = run_workload(args, bench)
            print(summary(record), flush=True)
            lines[name] = record["result"]
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        for name in names:
            print(json.dumps({"workload": name, **lines[name]}))
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{m}": v for name, line in lines.items() for m, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
