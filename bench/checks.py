"""Output checks and the benchmark's own reference computations.

Every check returns a list of failure reasons; an empty list means the op
passed.  A failure is counted, never raised, so one wrong output cannot stop
the run that measures the others.

The independent reference is the straight-line integral of the paper:
z_i = (s_i - r_i) * integral_0^1 d_i f(r + t (s - r)) dt.  For a multilinear
term of degree d the integrand is a polynomial of degree d - 1 in t, so
Gauss-Legendre with ceil(d / 2) nodes gives it exactly up to rounding.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from inputs import Entity, Multilinear

TOL = 1e-9  # relative residual, oracle gap and quadrature agreement
SAME_TOL = 1e-12  # CLI output against the same kernel called in-process


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def rel_residual(residual: float, delta: float) -> float:
    """|residual| / (1 + |f(s) - f(r)|)."""
    return abs(residual) / (1.0 + abs(delta))


@lru_cache(maxsize=None)
def _unit_gauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def multilinear_value(fn: Multilinear, x) -> float:
    return math.fsum(c * math.prod(x[i] for i in idx) for c, idx in fn.terms)


def straight_line(fn: Multilinear, r, s) -> np.ndarray:
    """Exact straight-line attribution of a multilinear function, by Gauss-Legendre per term degree."""
    r = np.asarray(r, dtype=float)
    d = np.asarray(s, dtype=float) - r
    z = np.zeros(len(r))
    by_degree: dict[int, list] = {}
    for c, idx in fn.terms:
        if idx:
            by_degree.setdefault(len(idx), []).append((c, idx))
    for deg, group in by_degree.items():
        t, w = _unit_gauss(max(1, math.ceil(deg / 2)))
        idx = np.array([g[1] for g in group])  # (T, deg)
        coef = np.array([g[0] for g in group])  # (T,)
        p = r[idx][None] + t[:, None, None] * d[idx][None]  # (G, T, deg)
        ones = np.ones(p.shape[:2] + (1,))
        before = np.cumprod(np.concatenate([ones, p[..., :-1]], axis=2), axis=2)
        after = np.cumprod(np.concatenate([ones, p[..., :0:-1]], axis=2), axis=2)[..., ::-1]
        partial = np.tensordot(w, before * after, axes=1)  # (T, deg): integral of prod over the other members
        np.add.at(z, idx, coef[:, None] * partial * d[idx])
    return z


def monomial_member(r, s, i: int) -> float:
    """Straight-line attribution to member i (0-based) of prod x, for positive values, in log space.

    Used for rows of thousands of variables, whose products leave the double
    range as plain products.  The integrand exp(sum_j log(r_j + t d_j)) is
    analytic far beyond [0, 1] when every r_j + t d_j stays near its start, so
    64 nodes resolve it to rounding.
    """
    t, w = _unit_gauss(64)
    r = np.asarray(r, dtype=float)
    d = np.asarray(s, dtype=float) - r
    logs = np.log(r[None, :] + t[:, None] * d[None, :])
    logs[:, i] = 0.0
    return float(d[i] * np.dot(w, np.exp(logs.sum(axis=1))))


def check_attribution(z, residual: float, delta: float, reference=None, same=None) -> tuple[list[str], float, float]:
    """Checks one attribution vector; returns (reasons, relative residual, gap to the reference).

    `reference` is an independent oracle (gap must be <= TOL); `same` is the
    same kernel run another way (gap must be <= SAME_TOL).
    """
    if not all(math.isfinite(v) for v in z) or not math.isfinite(residual):
        return ["non-finite attribution or residual"], math.inf, math.inf
    reasons = []
    worst_rr = max(rel_residual(residual, delta), rel_residual(math.fsum(z) - delta, delta))
    if not worst_rr <= TOL:
        reasons.append(f"relative residual {worst_rr:.3e} > {TOL:g}")
    gap = 0.0
    if reference is not None:
        gap = max((rel_gap(a, b) for a, b in zip(z, reference)), default=0.0)
        if not gap <= TOL:
            reasons.append(f"oracle gap {gap:.3e} > {TOL:g}")
    if same is not None:
        same_gap = max((rel_gap(a, b) for a, b in zip(z, same)), default=0.0)
        if not same_gap <= SAME_TOL:
            reasons.append(f"differs from the in-process attribution by {same_gap:.3e}")
    return reasons, worst_rr, gap


class Tally:
    """Per-op failure reasons plus the worst residual and oracle gap seen in a run.

    An op that fails on any execution counts once in `failed`.  The maxima
    cover finite outputs only; a non-finite output is a failed op.
    """

    def __init__(self):
        self.ops: dict[str, list[str]] = {}
        self.max_rel_residual = 0.0
        self.max_oracle_gap = 0.0

    def record(self, op: str, reasons: list[str], rel_res: float = 0.0, gap: float = 0.0):
        self.ops.setdefault(op, [])
        for reason in reasons:
            if reason not in self.ops[op]:
                self.ops[op].append(reason)
        if math.isfinite(rel_res):
            self.max_rel_residual = max(self.max_rel_residual, rel_res)
        if math.isfinite(gap):
            self.max_oracle_gap = max(self.max_oracle_gap, gap)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failures(self) -> dict[str, list[str]]:
        return {op: reasons for op, reasons in self.ops.items() if reasons}

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failures": self.failures,
            "max_rel_residual": self.max_rel_residual,
            "max_oracle_gap": self.max_oracle_gap,
        }


INVOCATION_OP = "invocation"


def check_machine_output(
    text: str,
    exit_code: int,
    fn: Multilinear,
    entities: list[Entity],
    same: dict[str, list[float]],
    tally: Tally,
):
    """Judge one `--report machine` CLI output: one op for the invocation, one per entity.

    The invocation fails on a nonzero exit code, an unparseable line, an
    unknown entity or entities out of input order.  An entity fails when any
    of its records is missing or repeated, a number is not finite, an echoed
    value differs from its input, the relative residual exceeds TOL against
    f(s) - f(r) computed here, or, for the sampled entities in `same`, the
    attributions differ from the in-process attribution or from the
    straight-line oracle.
    """
    invocation = [] if exit_code == 0 else [f"exit code {exit_code}"]
    records: dict[str, dict] = {e.name: {"attr": {}, "summary": [], "dupes": 0} for e in entities}
    seen_order: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            entity = rec["entity"]
            kind = rec["record"]
        except (ValueError, KeyError, TypeError):
            invocation.append(f"unparseable output line {lineno}")
            continue
        if not isinstance(entity, str) or entity not in records:
            invocation.append(f"unknown entity {entity!r}")
            continue
        if not seen_order or seen_order[-1] != entity:
            seen_order.append(entity)
        slot = records[entity]
        if kind == "attribution":
            if rec.get("variable") in slot["attr"]:
                slot["dupes"] += 1
            slot["attr"][rec.get("variable")] = rec
        elif kind == "summary":
            slot["summary"].append(rec)
    if seen_order != [e.name for e in entities if records[e.name]["attr"] or records[e.name]["summary"]]:
        invocation.append("entities out of input order")
    tally.record(INVOCATION_OP, invocation[:10])

    for e in entities:
        slot = records[e.name]
        reasons = []
        if slot["dupes"] or len(slot["summary"]) != 1 or set(slot["attr"]) != set(fn.variables):
            missing = len(set(fn.variables) - set(slot["attr"]))
            reasons.append(f"records: {missing} missing, {slot['dupes']} repeated, {len(slot['summary'])} summaries")
            tally.record(e.name, reasons)
            continue
        summary = slot["summary"][0]
        try:
            z = [float(slot["attr"][v]["attribution"]) for v in fn.variables]
            echoed = [(float(slot["attr"][v]["initial"]), float(slot["attr"][v]["final"])) for v in fn.variables]
            residual = float(summary["residual"])
            total = float(summary["total_change"])
        except (KeyError, TypeError, ValueError):
            tally.record(e.name, ["record missing a number"])
            continue
        if echoed != list(zip(e.r, e.s)):
            reasons.append("echoed initial/final values differ from the input")
        if summary.get("converged") is not True:
            reasons.append("summary not converged")
        if not math.isfinite(total):
            reasons.append("non-finite total change")
        delta = multilinear_value(fn, e.s) - multilinear_value(fn, e.r)
        reference = straight_line(fn, e.r, e.s) if e.name in same else None
        more, rr, gap = check_attribution(z, residual, delta, reference, same.get(e.name))
        tally.record(e.name, reasons + more, rr, gap)
