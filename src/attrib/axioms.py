"""Mechanical verification of attribution axioms on randomized instances.

A method handle is any callable ``(f, vp) -> AttributionResult``.  Each axiom
check builds the instances it needs from a seeded generator, applies the
axiom's literal predicate, and reports the worst normalized violation; the
first failing instance is kept as a counterexample.  Violations are measured
as |lhs - rhs| / (1 + max(|lhs|, |rhs|)), a mixed absolute/relative scale, so
one tolerance works across magnitudes.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass, replace
from typing import Callable

from .core import (
    AttributionResult,
    CharacteristicFunction,
    SeparableTerm,
    ValuePair,
    _change,
    affine_reparameterize,
    combine,
    from_terms,
    partial_derivative,
    permute_variables,
    permute_vector,
)
from .oracles import shapley_shubik_bruteforce
from .paths import QuadratureConfig, attribute_aumann_shapley

__all__ = [
    "AXIOM_IDS",
    "AxiomVerdict",
    "InstanceGenerator",
    "check_axiom",
    "run_axiom_suite",
    "DivergenceReport",
    "divergence_witness",
]

Method = Callable[[CharacteristicFunction, ValuePair], AttributionResult]


@dataclass
class AxiomVerdict:
    axiom: str
    passed: bool
    worst: float
    trials: int
    counterexample: dict | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class InstanceGenerator:
    """Deterministic source of random (function, value pair) instances.

    Each trial index gets its own RNG derived from the seed, so trials are
    reproducible individually and could run in parallel.  ``preload`` holds
    fixed instances tried before any random ones; ``fixed_f`` pins the
    function while values stay random.  A final value equal to its initial
    value is redrawn, so every variable moves.
    """

    seed: int = 0
    n_range: tuple[int, int] = (1, 6)
    terms_range: tuple[int, int] = (1, 12)
    nonneg_coeffs: bool = False
    nonneg_values: bool = False
    separable: bool = True
    fixed_f: CharacteristicFunction | None = None
    preload: tuple[tuple[CharacteristicFunction, ValuePair], ...] = ()

    def rng(self, trial: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + trial)

    def _coeff(self, rng: random.Random) -> float:
        c = rng.uniform(-10.0, 10.0)
        return abs(c) if self.nonneg_coeffs else c

    def pair(self, rng: random.Random, n: int) -> ValuePair:
        lo, hi = (0.0 if self.nonneg_values else -2.0), 2.0
        r = [rng.uniform(lo, hi) for _ in range(n)]
        s = [rng.uniform(lo, hi) for _ in range(n)]
        for i in range(n):
            while s[i] == r[i]:
                s[i] = rng.uniform(lo, hi)
        return ValuePair(tuple(r), tuple(s))

    def function(self, rng: random.Random, n: int, vp: ValuePair) -> CharacteristicFunction:
        terms = []
        for _ in range(rng.randint(*self.terms_range)):
            size = rng.randint(1, n)
            terms.append((rng.sample(range(1, n + 1), size), self._coeff(rng)))
        sep: list[SeparableTerm] = []
        if self.separable:
            for i in range(1, n + 1):
                roll = rng.random()
                if roll < 0.5:
                    continue
                if roll < 0.7:
                    deg = rng.randint(1, 3)
                    sep.append(SeparableTerm(i, "poly", tuple(rng.uniform(-2, 2) for _ in range(deg + 1))))
                elif roll < 0.85:
                    sep.append(SeparableTerm(i, "exp", (rng.uniform(-0.5, 0.5), rng.uniform(-1, 1), rng.uniform(-2, 2))))
                elif vp.r[i - 1] > 0.05 and vp.s[i - 1] > 0.05:
                    # log terms only where the whole edge of the box stays positive
                    sep.append(SeparableTerm(i, "log", (rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0), rng.uniform(-2, 2))))
        return from_terms(n, terms, sep)

    def instance(self, trial: int) -> tuple[CharacteristicFunction, ValuePair, random.Random]:
        if trial < len(self.preload):
            f, vp = self.preload[trial]
            return f, vp, self.rng(trial)
        rng = self.rng(trial)
        n = self.fixed_f.n if self.fixed_f is not None else rng.randint(*self.n_range)
        vp = self.pair(rng, n)
        f = self.fixed_f if self.fixed_f is not None else self.function(rng, n, vp)
        return f, vp, rng


def _gap(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _describe(f: CharacteristicFunction, vp: ValuePair, **params) -> dict:
    out = {"f": f.as_dict(), "r": list(vp.r), "s": list(vp.s)}
    out.update(params)
    return out


def _box_vertices(vp: ValuePair, skip: int) -> list[list[float]]:
    """All corners of [r, s] over the variables other than ``skip``."""
    axes = []
    for j in range(1, vp.n + 1):
        axes.append((vp.r[j - 1],) if j == skip else (vp.r[j - 1], vp.s[j - 1]))
    return [list(p) for p in itertools.product(*axes)]


def _certified_monotone(f: CharacteristicFunction, vp: ValuePair, i: int, floor: float = -1e-12) -> bool:
    """True when d_i of the multilinear part is nonnegative on every box corner.

    The partial is linear in each remaining variable, so vertex signs decide
    the sign on the whole box.
    """
    fi = partial_derivative(CharacteristicFunction(f.multilinear), i)
    return bool((fi.values(_box_vertices(vp, i)) >= floor).all())


# ---------------------------------------------------------------------------
# per-axiom checkers: return (violation, counterexample dict)


def _check_completeness(method: Method, gen: InstanceGenerator, trial: int):
    f, vp, _ = gen.instance(trial)
    res = method(f, vp)
    total = _change(f, vp)
    viol = _gap(math.fsum(res.z), total)
    return viol, _describe(f, vp, z=list(res.z), change=total, residual=math.fsum(res.z) - total)


def _strip_variable(f: CharacteristicFunction, i: int) -> CharacteristicFunction:
    terms = {I: c for I, c in f.multilinear.terms.items() if i not in I}
    sep = tuple(t for t in f.separable if t.index != i)
    return from_terms(f.n, terms, sep)


def _check_dummy(method: Method, gen: InstanceGenerator, trial: int):
    f, vp, rng = gen.instance(trial)
    i = rng.randint(1, f.n)
    f2 = _strip_variable(f, i)
    res = method(f2, vp)
    viol = abs(res.z[i - 1]) / (1.0 + abs(res.z[i - 1]))
    return viol, _describe(f2, vp, variable=i, z_i=res.z[i - 1])


def _check_dummy_on_box(method: Method, gen: InstanceGenerator, trial: int):
    # Variable i appears in f, but every monomial holding i also holds a pin
    # variable j whose box edge is degenerate at 0, so f ignores i on [r, s].
    gen = replace(gen, n_range=(max(2, gen.n_range[0]), max(2, gen.n_range[1])))
    f, vp, rng = gen.instance(trial)
    n = f.n
    i, j = rng.sample(range(1, n + 1), 2)
    terms = []
    pinned_any = False
    for I, c in f.multilinear.terms.items():
        if i in I:
            I = set(I) | {j}
            pinned_any = True
        terms.append((I, c))
    if not pinned_any:
        terms.append(((i, j), 1.0))
    f2 = from_terms(n, terms, tuple(t for t in f.separable if t.index != i))
    r = list(vp.r)
    s = list(vp.s)
    r[j - 1] = s[j - 1] = 0.0
    vp2 = ValuePair(tuple(r), tuple(s))
    fi = partial_derivative(CharacteristicFunction(f2.multilinear), i)
    worst_dep = abs(fi.values(_box_vertices(vp2, i))).max()
    if worst_dep > 1e-12:
        raise AssertionError("construction should not depend on the tested variable inside the box")
    res = method(f2, vp2)
    viol = abs(res.z[i - 1]) / (1.0 + abs(res.z[i - 1]))
    return viol, _describe(f2, vp2, variable=i, pin=j, z_i=res.z[i - 1])


def _check_additivity(method: Method, gen: InstanceGenerator, trial: int):
    f1, vp, rng = gen.instance(trial)
    f2 = gen.function(rng, f1.n, vp)
    res12 = method(combine(f1, f2), vp)
    res1 = method(f1, vp)
    res2 = method(f2, vp)
    viol = max(_gap(res12.z[k], res1.z[k] + res2.z[k]) for k in range(f1.n))
    return viol, _describe(f1, vp, f2=f2.as_dict(), z_sum=list(res12.z))


def _check_anonymity(method: Method, gen: InstanceGenerator, trial: int):
    f, vp, rng = gen.instance(trial)
    n = f.n
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    if n >= 2:
        while all(sigma[k] == k + 1 for k in range(n)):
            rng.shuffle(sigma)
    g = permute_variables(f, sigma)
    vp2 = ValuePair(permute_vector(sigma, vp.r), permute_vector(sigma, vp.s))
    res = method(f, vp)
    res2 = method(g, vp2)
    viol = max(_gap(res2.z[sigma[k] - 1], res.z[k]) for k in range(n))
    return viol, _describe(f, vp, sigma=sigma, z=list(res.z), z_permuted=list(res2.z))


def _positive_gen(gen: InstanceGenerator) -> InstanceGenerator:
    return replace(gen, nonneg_coeffs=True, nonneg_values=True, separable=False, fixed_f=None, preload=())


def _check_conditional_nonnegativity(method: Method, gen: InstanceGenerator, trial: int):
    f, vp, _ = _positive_gen(gen).instance(trial)
    res = method(f, vp)
    viol = 0.0
    for i in range(1, f.n + 1):
        if not _certified_monotone(f, vp, i):
            continue
        signed = res.z[i - 1] if vp.s[i - 1] >= vp.r[i - 1] else -res.z[i - 1]
        viol = max(viol, max(0.0, -signed) / (1.0 + abs(signed)))
    return viol, _describe(f, vp, z=list(res.z))


def _check_monotonicity(method: Method, gen: InstanceGenerator, trial: int):
    f, vp, rng = _positive_gen(gen).instance(trial)
    j = rng.randint(1, f.n)
    s2 = list(vp.s)
    s2[j - 1] += rng.uniform(0.1, 1.0)
    vp2 = ValuePair(vp.r, tuple(s2))
    if not (_certified_monotone(f, vp, j) and _certified_monotone(f, vp2, j)):
        return 0.0, {}
    z1 = method(f, vp).z[j - 1]
    z2 = method(f, vp2).z[j - 1]
    viol = max(0.0, z1 - z2) / (1.0 + max(abs(z1), abs(z2)))
    return viol, _describe(f, vp, variable=j, s_bumped=s2, z=z1, z_bumped=z2)


def _reparam_check(method: Method, gen: InstanceGenerator, trial: int, d_range: tuple[float, float]):
    f, vp, rng = gen.instance(trial)
    j = rng.randint(1, f.n)
    c = math.exp(rng.uniform(-1.2, 1.2))
    d = rng.uniform(*d_range)
    g = affine_reparameterize(f, j, c, d)
    r = list(vp.r)
    s = list(vp.s)
    r[j - 1] = c * r[j - 1] + d
    s[j - 1] = c * s[j - 1] + d
    vp2 = ValuePair(tuple(r), tuple(s))
    res = method(f, vp)
    res2 = method(g, vp2)
    viol = max(_gap(res2.z[k], res.z[k]) for k in range(f.n))
    return viol, _describe(f, vp, variable=j, c=c, d=d, z=list(res.z), z_reparam=list(res2.z))


def _check_scale_invariance(method: Method, gen: InstanceGenerator, trial: int):
    return _reparam_check(method, gen, trial, (0.0, 0.0))


def _check_affine_scale_invariance(method: Method, gen: InstanceGenerator, trial: int):
    return _reparam_check(method, gen, trial, (-3.0, 3.0))


_CHECKERS = {
    "completeness": _check_completeness,
    "dummy": _check_dummy,
    "dummy-on-box": _check_dummy_on_box,
    "additivity": _check_additivity,
    "anonymity": _check_anonymity,
    "conditional-nonnegativity": _check_conditional_nonnegativity,
    "monotonicity": _check_monotonicity,
    "scale-invariance": _check_scale_invariance,
    "affine-scale-invariance": _check_affine_scale_invariance,
}

AXIOM_IDS = tuple(_CHECKERS)


def check_axiom(method: Method, axiom: str, gen: InstanceGenerator, trials: int = 200, tol: float = 1e-8) -> AxiomVerdict:
    """Run `trials` randomized checks of one axiom against a method handle.

    The verdict carries the worst normalized violation; if any trial exceeds
    the tolerance, the first such instance is attached as a counterexample.
    A method that raises fails the axiom with the error in the note.
    """
    if axiom not in _CHECKERS:
        raise ValueError(f"unknown axiom {axiom!r}; known: {', '.join(AXIOM_IDS)}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    checker = _CHECKERS[axiom]
    worst = 0.0
    first_failure = None
    for trial in range(trials):
        try:
            viol, detail = checker(method, gen, trial)
        except Exception as exc:  # method failure counts as an axiom failure
            return AxiomVerdict(axiom, False, math.inf, trial + 1, None, note=f"method raised: {exc!r}")
        if viol > worst:
            worst = viol
        if viol > tol and first_failure is None:
            first_failure = detail
    return AxiomVerdict(axiom, worst <= tol, worst, trials, first_failure)


def run_axiom_suite(method: Method, gen: InstanceGenerator | None = None, trials: int = 200, tol: float = 1e-8) -> list[AxiomVerdict]:
    gen = gen or InstanceGenerator()
    return [check_axiom(method, axiom, gen, trials, tol) for axiom in AXIOM_IDS]


# ---------------------------------------------------------------------------
# divergence witness: straight-line integral vs order enumeration


@dataclass
class DivergenceReport:
    z_as: AttributionResult
    z_ss: AttributionResult
    gaps: tuple[float, ...]
    max_gap: float

    def to_dict(self) -> dict:
        return {
            "z_as": list(self.z_as.z),
            "z_ss": list(self.z_ss.z),
            "gaps": list(self.gaps),
            "max_gap": self.max_gap,
            "as_converged": self.z_as.converged,
        }


def divergence_witness(f, vp: ValuePair, q: QuadratureConfig | None = None) -> DivergenceReport:
    """Compare straight-line and order-average attributions for an arbitrary evaluator.

    The two agree exactly when f is multilinear plus separable; a gap
    witnesses that f lies outside that class.
    """
    z_as = attribute_aumann_shapley(f, vp, q)
    z_ss = shapley_shubik_bruteforce(f, vp)
    gaps = tuple(abs(a - b) for a, b in zip(z_as.z, z_ss.z))
    return DivergenceReport(z_as, z_ss, gaps, max(gaps) if gaps else 0.0)
