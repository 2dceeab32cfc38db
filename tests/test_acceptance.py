"""Acceptance gate: one test per top-level criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import contextlib
import gc
import math
import time

import pytest

from attrib import (
    BlackBoxFunction,
    InstanceGenerator,
    PermutationWeights,
    ValuePair,
    attribute_ass,
    attribute_aumann_shapley,
    attribute_monomial,
    attribute_naive,
    check_axiom,
    divergence_witness,
    product_function,
    random_order_attribution,
    run_axiom_suite,
    shapley_shubik_bruteforce,
    shapley_weight,
)
from attrib.core import _nodes
from attrib.models import compile_model, portfolio_model
from attrib.reports import mix_effects_demo


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_intro_example_reproduction(procurement):
    with criterion("intro example: naive (18, 82.5, 30) vs exact split summing to 86"):
        f, vp = procurement
        naive = attribute_naive(f, vp)
        assert naive.z == (18.0, 82.5, 30.0)
        assert math.fsum(naive.z) == 130.5

        ass = attribute_ass(f, vp)
        assert abs(math.fsum(ass.z) - 86.0) <= 1e-12
        expected = (51.5 / 6, 374 / 6, 90.5 / 6)
        for got, want in zip(ass.z, expected):
            assert rel_gap(got, want) <= 1e-12

        brute = shapley_shubik_bruteforce(f, vp)
        for got, want in zip(ass.z, brute.z):
            assert rel_gap(got, want) <= 1e-12

        best = min(
            (lambda t0: (attribute_ass(f, vp), time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(20)
        )
        assert best < 1e-3, f"single attribution took {best * 1e3:.3f} ms"


def test_oracle_equivalence_100_instances():
    with criterion("oracle equivalence: 100 random instances, gap <= 1e-9, under 30 s"):
        gen = InstanceGenerator(seed=101, n_range=(1, 8), terms_range=(1, 20))
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(100):
            f, vp, _ = gen.instance(trial)
            a = attribute_ass(f, vp)
            b = shapley_shubik_bruteforce(f, vp)
            worst = max(worst, max(rel_gap(x, y) for x, y in zip(a.z, b.z)))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"worst relative gap {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_numeric_path_equivalence_50_instances():
    with criterion("straight-line quadrature matches exact DP to 1e-7 on 50 instances, under 60 s"):
        gen = InstanceGenerator(seed=202, n_range=(1, 6))
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(50):
            f, vp, _ = gen.instance(trial)
            num = attribute_aumann_shapley(f, vp)
            exact = attribute_ass(f, vp)
            assert num.converged
            worst = max(worst, max(rel_gap(x, y) for x, y in zip(num.z, exact.z)))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-7, f"worst relative gap {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_divergence_witness_square_term():
    with criterion("divergence witness: x1^2*x2 gives 1/3 vs 1/2, gap 1/6 within 1e-7"):
        bb = BlackBoxFunction(2, lambda x: x[0] * x[0] * x[1])
        rep = divergence_witness(bb, ValuePair((0.0, 0.0), (1.0, 1.0)))
        assert abs(rep.z_as.z[1] - 1.0 / 3.0) <= 1e-7
        assert abs(rep.z_ss.z[1] - 0.5) <= 1e-12
        assert abs(rep.max_gap - 1.0 / 6.0) <= 1e-7


def test_weight_identity_up_to_twelve():
    with criterion("order weights equal the beta-style integrals to 1e-12 for n <= 12"):
        t, w = _nodes((0.0, 1.0), 16, 1)
        for n in range(1, 13):
            for k in range(n):
                integral = w @ (t**k * (1.0 - t) ** (n - 1 - k))
                assert abs(integral - shapley_weight(k, n)) <= 1e-12


def test_axiom_suite_gate(procurement):
    with criterion("axiom suite: nine passes for the exact method, two canonical failures"):
        verdicts = run_axiom_suite(attribute_ass, InstanceGenerator(seed=303), trials=200, tol=1e-8)
        assert len(verdicts) == 9
        for v in verdicts:
            assert v.passed, f"{v.axiom}: worst violation {v.worst:.3e}"

        f, vp = procurement
        naive_verdict = check_axiom(
            attribute_naive, "completeness", InstanceGenerator(seed=304, preload=((f, vp),)), trials=200, tol=1e-8
        )
        assert not naive_verdict.passed
        assert naive_verdict.counterexample["r"] == [4.0, 1.0, 1.0]
        assert naive_verdict.counterexample["residual"] == pytest.approx(44.5, abs=1e-12)

        single = lambda g, v: random_order_attribution(g, v, PermutationWeights.single((1, 2)))
        anon = check_axiom(
            single, "anonymity", InstanceGenerator(seed=305, fixed_f=product_function(2)), trials=50, tol=1e-8
        )
        assert not anon.passed


def test_mix_effects_demo_numbers():
    with criterion("mix effects: per-segment CPC +150.5 vs aggregate-first -2396.79, opposite signs"):
        demo = mix_effects_demo()
        assert demo.cpc_segmented_total == pytest.approx(150.5, rel=1e-12)
        expected = (400.0 / 10100.0 - 0.505) * (200.0 + 10100.0) / 2.0
        assert demo.cpc_aggregate == pytest.approx(expected, rel=1e-12)
        assert demo.cpc_aggregate == pytest.approx(-2396.79, abs=5e-3)
        assert demo.cpc_segmented_total > 0 > demo.cpc_aggregate
        assert demo.signs_differ


def _time_monomial(n, repeats=3, vp_cache={}):
    if n not in vp_cache:
        import random

        rng = random.Random(n)
        # values near 0.707 keep every DP cell inside normal double range even
        # at n = 2000 (cells scale like C(m, k) * value^m)
        r = tuple(rng.uniform(0.7035, 0.7095) for _ in range(n))
        s = tuple(rng.uniform(0.7035, 0.7095) for _ in range(n))
        vp_cache[n] = ValuePair(r, s)
    vp = vp_cache[n]
    I = range(1, n + 1)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        attribute_monomial(1.0, I, vp, n)
        best = min(best, time.perf_counter() - t0)
    return best


def test_complexity_scaling_and_memory():
    with criterion("monomial DP: n=2000 completes, quadratic time ratios, two-row storage"):
        # structural storage bound: exactly two buffers, each of length <= n+1
        ids, lengths = set(), set()

        def hook(prev, curr):
            ids.update((id(prev), id(curr)))
            lengths.update((len(prev), len(curr)))

        n = 2000
        vp = ValuePair((0.705,) * n, (0.708,) * n)
        value = attribute_monomial(1.0, range(1, n + 1), vp, n, row_hook=hook)
        assert math.isfinite(value)
        assert len(ids) == 2
        assert all(L <= n + 1 for L in lengths)

        _time_monomial(500)  # warm-up
        ratios_1000 = []
        ratios_2000 = []
        for _ in range(5):
            gc.collect()
            t500 = _time_monomial(500, repeats=7)
            t1000 = _time_monomial(1000, repeats=5)
            t2000 = _time_monomial(2000, repeats=3)
            ratios_1000.append(t1000 / t500)
            ratios_2000.append(t2000 / t1000)
        avg_1000 = sum(ratios_1000) / len(ratios_1000)
        avg_2000 = sum(ratios_2000) / len(ratios_2000)
        assert 3.0 <= avg_1000 <= 5.0, f"t(1000)/t(500) averaged {avg_1000:.2f}"
        assert 3.0 <= avg_2000 <= 5.0, f"t(2000)/t(1000) averaged {avg_2000:.2f}"


def test_portfolio_identity_100_assets():
    with criterion("portfolio: attribution matches allocation/selection plus half interaction"):
        import random

        rng = random.Random(404)
        assets = [f"a{k}" for k in range(100)]
        f = compile_model(portfolio_model(assets))
        r, s = [], []
        for _ in assets:
            r += [rng.uniform(0.0, 1.0), rng.uniform(-0.2, 0.2)]
            s += [rng.uniform(0.0, 1.0), rng.uniform(-0.2, 0.2)]
        res = attribute_ass(f, ValuePair(tuple(r), tuple(s)))
        for k in range(len(assets)):
            w1, w2 = r[2 * k], s[2 * k]
            r1, r2 = r[2 * k + 1], s[2 * k + 1]
            interaction = (r2 - r1) * (w2 - w1)
            assert abs(res.z[2 * k] - (r1 * (w2 - w1) + 0.5 * interaction)) <= 1e-12
            assert abs(res.z[2 * k + 1] - (w1 * (r2 - r1) + 0.5 * interaction)) <= 1e-12
