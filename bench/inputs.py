"""Seeded inputs for the benchmark workloads.

Standard library only: the benchmark writes its own model, graph and snapshot
files, so a defect in the program's formatters cannot corrupt the inputs it is
measured on.  The same seed always gives the same inputs.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Input sizes.  "full" is what the benchmark measures; "smoke" runs the same
# code paths on tiny inputs in a few seconds.  small-calls times `ass` on 1000
# instances, so that its slowest 1% of calls spans about ten instances rather
# than two, and runs the slow oracles on the first 200.
SIZES = {
    "full": {
        "ppc_positions": 8,
        "report_entities": 2000,
        "dag_layers": 5,
        "dag_width": 5,
        "dag_entities": 8,
        "wide_ass_m": (50, 200, 400),
        "wide_dp_m": (1000, 2000),
        "small_instances": 1000,
        "small_oracle_instances": 200,
        "small_ass_repeats": 4,
        "cli_sample": 20,
    },
    "smoke": {
        "ppc_positions": 3,
        "report_entities": 12,
        "dag_layers": 3,
        "dag_width": 2,
        "dag_entities": 2,
        "wide_ass_m": (6, 12),
        "wide_dp_m": (40,),
        "small_instances": 12,
        "small_oracle_instances": 6,
        "small_ass_repeats": 2,
        "cli_sample": 3,
    },
}

# The overflow probe is fixed, not seeded: product of 1100 variables moving
# from 1.0 to 1.01, whose per-variable attribution is (1.01^1100 - 1) / 1100.
PROBE_M = 1100
PROBE_R = 1.0
PROBE_S = 1.01


def probe_expected() -> float:
    return (PROBE_S**PROBE_M - PROBE_R**PROBE_M) / PROBE_M


@dataclass
class Multilinear:
    """Sum of coefficient * product terms over named variables (0-based indices)."""

    variables: list[str]
    terms: list[tuple[float, tuple[int, ...]]]


@dataclass
class Entity:
    name: str
    r: list[float]
    s: list[float]


@dataclass
class CliInputs:
    """Files for one CLI invocation plus what the checks need to judge its output."""

    flag: str  # "--model" or "--dag"
    text: str  # model or graph file contents
    fn: Multilinear  # the function the file denotes, expanded by the benchmark itself
    entities: list[Entity]

    def values_csv(self) -> str:
        rows = ["entity,variable,initial,final"]
        for e in self.entities:
            for name, a, b in zip(self.fn.variables, e.r, e.s):
                rows.append(f"{e.name},{name},{a!r},{b!r}")
        return "\n".join(rows) + "\n"


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def payperclick(positions: int) -> Multilinear:
    """Spend = q * b * sum over positions of p_i * ctr_i * cpc_i (names as payperclick_model)."""
    variables = ["q", "b"]
    terms = []
    for i in range(1, positions + 1):
        base = len(variables)
        variables += [f"p{i}", f"ctr{i}", f"cpc{i}"]
        terms.append((1.0, (0, 1, base, base + 1, base + 2)))
    return Multilinear(variables, terms)


def _model_text(fn: Multilinear) -> str:
    lines = ["[variables]", " ".join(fn.variables), "[multilinear]"]
    for c, idx in fn.terms:
        lines.append(f"{' '.join(fn.variables[i] for i in idx)} : {c!r}")
    return "\n".join(lines) + "\n"


_PPC_RANGES = {"q": (1000.0, 10000.0), "b": (0.5, 1.0), "p": (0.05, 1.0), "ctr": (0.005, 0.1), "cpc": (0.2, 4.0)}


def report_batch(seed: int, size: str = "full") -> CliInputs:
    cfg = SIZES[size]
    fn = payperclick(cfg["ppc_positions"])
    rng = _rng(seed, "report-batch")
    bounds = [_PPC_RANGES[name.rstrip("0123456789")] for name in fn.variables]
    entities = []
    for k in range(cfg["report_entities"]):
        r = [rng.uniform(lo, hi) for lo, hi in bounds]
        s = [rng.uniform(lo, hi) for lo, hi in bounds]
        entities.append(Entity(f"acct{k:05d}", r, s))
    return CliInputs("--model", _model_text(fn), fn, entities)


def layered_dag(layers: int, width: int) -> tuple[str, Multilinear]:
    """Graph text for `layers` layers of `width` nodes, fully joined layer to layer, plus its routes.

    Every first-layer node has a start count; every last-layer node feeds the
    sink.  Routes are expanded here by plain enumeration, independently of the
    program's graph compiler.
    """
    grid = [[f"n{L}_{k}" for k in range(width)] for L in range(layers)]
    starts = [(node, f"s_{node}") for node in grid[0]]
    edges = []
    for L in range(layers - 1):
        for u in grid[L]:
            for v in grid[L + 1]:
                edges.append((u, v, f"p_{u}_{v}"))
    for u in grid[-1]:
        edges.append((u, "sink", f"p_{u}_sink"))
    variables = [var for _, var in starts] + [var for _, _, var in edges]
    index = {var: i for i, var in enumerate(variables)}
    edge_var = {(u, v): var for u, v, var in edges}
    terms = []
    for route in itertools.product(*grid):
        hops = [edge_var[route[L], route[L + 1]] for L in range(layers - 1)]
        hops.append(edge_var[route[-1], "sink"])
        terms.append((1.0, tuple(index[var] for var in [f"s_{route[0]}", *hops])))
    lines = ["[nodes]", " ".join(node for layer in grid for node in layer) + " sink", "[sink]", "sink", "[starts]"]
    lines += [f"{node} : {var}" for node, var in starts]
    lines.append("[edges]")
    lines += [f"{u} {v} : {var}" for u, v, var in edges]
    return "\n".join(lines) + "\n", Multilinear(variables, terms)


def dag_layered(seed: int, size: str = "full") -> CliInputs:
    cfg = SIZES[size]
    text, fn = layered_dag(cfg["dag_layers"], cfg["dag_width"])
    rng = _rng(seed, "dag-layered")
    entities = []
    for k in range(cfg["dag_entities"]):
        pair = []
        for _ in range(2):
            pair.append([rng.uniform(10.0, 1000.0) if v.startswith("s_") else rng.uniform(0.02, 0.3) for v in fn.variables])
        entities.append(Entity(f"site{k:03d}", *pair))
    return CliInputs("--dag", text, fn, entities)


CLI_INPUTS = {"report-batch": report_batch, "dag-layered": dag_layered}


@dataclass
class WideCase:
    """One wide-monomial op: the full attribution of prod x (m variables) or one DP member."""

    op: str
    m: int
    r: list[float]
    s: list[float]


def wide_monomial(seed: int, size: str = "full") -> list[WideCase]:
    """Values in [0.7, 1.4] for the full attribution; near 1/sqrt(2) for the long DP rows.

    DP row cells scale like C(m, k) * value^m, so only values near 0.707 keep
    every cell of a 2000-variable row inside the double range.
    """
    cfg = SIZES[size]
    rng = _rng(seed, "wide-monomial")
    cases = []
    for m in cfg["wide_ass_m"]:
        cases.append(WideCase(f"ass-m{m}", m, [rng.uniform(0.7, 1.4) for _ in range(m)], [rng.uniform(0.7, 1.4) for _ in range(m)]))
    for m in cfg["wide_dp_m"]:
        r = [rng.uniform(0.7035, 0.7095) for _ in range(m)]
        s = [rng.uniform(0.7035, 0.7095) for _ in range(m)]
        cases.append(WideCase(f"dp-m{m}", m, r, s))
    cases.append(WideCase(f"overflow-probe-m{PROBE_M}", PROBE_M, [PROBE_R] * PROBE_M, [PROBE_S] * PROBE_M))
    return cases


def cli_sample(names: list[str], seed: int, k: int) -> list[str]:
    """Seeded sample of entity names whose CLI output is compared with an in-process attribution."""
    return sorted(_rng(seed, "cli-sample").sample(names, min(k, len(names))))
