import itertools
import math
import os
import struct
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import attrib
from attrib import (
    BlackBoxFunction,
    SeparableTerm,
    ValuePair,
    attribute_ass,
    attribute_monomial,
    attribute_naive,
    combine,
    evaluate,
    from_terms,
    monomial,
    product_function,
    shapley_weight,
    shapley_weights,
)
from attrib.core import _batch_partials
from attrib.exact import attribute_ass_batch, dp_subset_means
from attrib.reports import resolve_method

from conftest import charfn_pairs, coeffs, exact_product_attribution, flow_graphs


def subset_mean_oracle(r_vals, s_vals, k):
    m = len(r_vals)
    total = 0.0
    for K in itertools.combinations(range(m), k):
        p = 1.0
        for j in range(m):
            p *= s_vals[j] if j in K else r_vals[j]
        total += p
    return total / math.comb(m, k)


class TestShapleyWeights:
    def test_single_variable(self):
        assert shapley_weight(0, 1) == 1.0

    def test_middle_of_three(self):
        assert shapley_weight(1, 3) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_first_of_three_matches_quadrature(self):
        # independent check: integrate (1-t)^2 on [0, 1] by midpoint refinement
        total, steps = 0.0, 4096
        for k in range(steps):
            t = (k + 0.5) / steps
            total += (1.0 - t) ** 2 / steps
        assert shapley_weight(0, 3) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert shapley_weight(0, 3) == pytest.approx(total, rel=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shapley_weight(3, 3)
        with pytest.raises(ValueError, match="need at least one variable"):
            shapley_weights(0)
        with pytest.raises(ValueError):
            shapley_weight(-1, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 40])
    def test_normalization_and_symmetry(self, n):
        w = shapley_weights(n)
        assert all(v > 0 for v in w)
        assert math.fsum(math.comb(n - 1, k) * w[k] for k in range(n)) == pytest.approx(1.0, abs=1e-12)
        for k in range(n):
            assert w[k] == pytest.approx(w[n - 1 - k], rel=1e-12)

    def test_matches_factorial_formula_small(self):
        for n in range(1, 15):
            for k in range(n):
                exact = math.factorial(k) * math.factorial(n - 1 - k) / math.factorial(n)
                assert shapley_weight(k, n) == pytest.approx(exact, rel=1e-13)

    def test_huge_n_does_not_overflow(self):
        w = shapley_weights(400)
        assert w[0] == pytest.approx(1.0 / 400.0, rel=1e-12)
        assert w[399] == pytest.approx(1.0 / 400.0, rel=1e-12)


class TestDp:
    def test_initial_row(self):
        assert dp_subset_means([], []) == [1.0]

    def test_all_ones_gives_ones(self):
        for m in range(1, 10):
            assert dp_subset_means([1.0] * m, [1.0] * m) == [1.0] * (m + 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12])
    def test_matches_enumeration(self, m):
        import random

        rng = random.Random(m)
        r_vals = [rng.uniform(-2, 2) for _ in range(m)]
        s_vals = [rng.uniform(-2, 2) for _ in range(m)]
        row = dp_subset_means(r_vals, s_vals)
        for k in range(m + 1):
            assert row[k] == pytest.approx(subset_mean_oracle(r_vals, s_vals, k), rel=1e-12, abs=1e-12)

    def test_two_buffer_audit(self):
        ids, lengths = set(), set()

        def hook(prev, curr):
            ids.update((id(prev), id(curr)))
            lengths.update((len(prev), len(curr)))

        dp_subset_means([1.0] * 50, [2.0] * 50, row_hook=hook)
        assert len(ids) == 2
        assert lengths == {51}


class TestAttributeMonomial:
    def test_equal_split_from_zero(self):
        vp = ValuePair((0.0, 0.0), (1.0, 1.0))
        assert attribute_monomial(1.0, (1, 2), vp, 1) == pytest.approx(0.5, rel=1e-15)

    def test_procurement_components(self, procurement):
        _, vp = procurement
        assert attribute_monomial(1.0, (1, 2, 3), vp, 1) == pytest.approx(51.5 / 6, rel=1e-13)
        assert attribute_monomial(1.0, (1, 2, 3), vp, 2) == pytest.approx(374 / 6, rel=1e-13)
        assert attribute_monomial(1.0, (1, 2, 3), vp, 3) == pytest.approx(90.5 / 6, rel=1e-13)

    def test_pair_closed_form(self):
        vp = ValuePair((1.0, 2.0), (3.0, 4.0))
        assert attribute_monomial(1.0, (1, 2), vp, 1) == pytest.approx(6.0, rel=1e-15)

    def test_requires_membership(self):
        vp = ValuePair((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            attribute_monomial(1.0, (1, 2), vp, 3)

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((0, 1), "variable index 0 outside 1..3"),
            ((1, 1, 2), "repeated index in monomial (1, 1, 2); degree above 1 per variable is not representable"),
            ((1, 4), "variable index 4 outside 1..3"),
        ],
        ids=["index-0", "repeated-index", "index-above-n"],
    )
    def test_refuses_indices_no_monomial_has(self, indices, message):
        # index 0 would wrap to the last variable, and set() would drop the repeat
        vp = ValuePair((1.0, 2.0, 3.0), (2.0, 3.0, 5.0))
        with pytest.raises(ValueError) as info:
            attribute_monomial(1.0, indices, vp, 1)
        assert str(info.value) == message

    def test_three_variable_closed_form_random(self):
        import random

        rng = random.Random(5)
        for _ in range(20):
            r = tuple(rng.uniform(-2, 2) for _ in range(3))
            s = tuple(rng.uniform(-2, 2) for _ in range(3))
            vp = ValuePair(r, s)
            expect = (s[0] - r[0]) * (2 * r[1] * r[2] + 2 * s[1] * s[2] + r[1] * s[2] + s[1] * r[2]) / 6
            assert attribute_monomial(1.0, (1, 2, 3), vp, 1) == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestAttributeAss:
    def test_procurement(self, procurement):
        f, vp = procurement
        res = attribute_ass(f, vp)
        assert res.z == pytest.approx((51.5 / 6, 374 / 6, 90.5 / 6), rel=1e-13)
        assert math.fsum(res.z) == pytest.approx(86.0, abs=1e-12)
        assert abs(res.residual) <= 1e-12

    def test_separable_rule(self):
        f = from_terms(2, {(1, 2): 1.0}, [SeparableTerm(1, "log", (1.0, 0.0, 1.0))])
        vp = ValuePair((1.0, 0.0), (math.e, 1.0))
        res = attribute_ass(f, vp)
        assert res.z[0] == pytest.approx((math.e - 1) * 0.5 + 1.0, rel=1e-12)
        assert res.z[1] == pytest.approx((1 + math.e) / 2, rel=1e-12)
        assert abs(res.residual) <= 1e-12

    def test_dummy_variable_gets_exact_zero(self):
        f = from_terms(3, {(1, 2): 2.0}, [SeparableTerm(2, "poly", (0.0, 1.0))])
        res = attribute_ass(f, ValuePair((0.5, 1.0, -1.0), (2.0, 3.0, 4.0)))
        assert res.z[2] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            attribute_ass(product_function(2), ValuePair((0.0,), (1.0,)))

    def test_non_finite_result_is_not_converged(self):
        f = from_terms(2, {(1, 2): 1e300})
        assert attribute_ass(f, ValuePair((1.0, 1.0), (2.0, 3.0))).converged
        res = attribute_ass(f, ValuePair((1e10, 1e10), (2e10, 3e10)))
        assert not all(map(math.isfinite, res.z)) and not res.converged


class TestExactNeedsAModelOrAGraph:
    """A black box or a plain callable has no terms to split: a TypeError naming its type, before f.n is read."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, vp: attribute_ass(f, vp),
            lambda f, vp: attribute_ass_batch(f, [vp.r], [vp.s]),
            lambda f, vp: attribute_ass_batch(f, [], []),
            lambda f, vp: resolve_method("ass")(f, vp),
        ],
        ids=["ass", "ass-batch", "empty-batch", "resolve-method"],
    )
    @pytest.mark.parametrize(
        "f, name",
        [(BlackBoxFunction(2, lambda x: x[0] * x[1]), "BlackBoxFunction"), (lambda x: x[0], "function")],
        ids=["black-box", "callable"],
    )
    def test_anything_else_is_a_type_error(self, call, f, name):
        with pytest.raises(TypeError, match=rf"^exact attribution needs a model or a flow graph, got {name}$"):
            call(f, ValuePair((1.0, 1.0), (2.0, 2.0)))

    @pytest.mark.parametrize("call", [attribute_naive, resolve_method("naive")], ids=["naive", "resolve-method"])
    def test_naive_needs_gradients(self, call):
        from attrib.models import ecommerce_dag_example

        vp = ValuePair((1.0, 1.0), (2.0, 2.0))
        with pytest.raises(TypeError, match=r"^naive attribution needs a model, a flow graph or a BlackBoxFunction, got function$"):
            call(lambda x: x[0] * x[1], vp)
        assert call(product_function(2), vp).z == (2.0, 2.0)
        assert call(BlackBoxFunction(2, lambda x: x[0] * x[1], lambda x: (x[1], x[0])), vp).z == (2.0, 2.0)
        d = ecommerce_dag_example()
        r = [1.0 + k for k in range(d.n)]
        assert call(d, ValuePair(r, [2.0 * x for x in r])).change > 0

    def test_a_model_loads_no_file_grammar(self):
        code = (
            "import sys, attrib; f = attrib.product_function(2); vp = attrib.ValuePair((1.0, 2.0), (3.0, 4.0)); "
            "attrib.attribute_ass(f, vp); attrib.exact.attribute_ass_batch(f, [vp.r], [vp.s]); "
            "print(sorted(m for m in ('attrib.models', 'csv', 'graphlib') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(attrib.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
        assert out.strip() == "[]"


def test_each_kernel_takes_each_separable_difference_from_the_term_once_per_row(monkeypatch):
    from attrib.exact import attribute_ass_batch

    f = from_terms(
        3,
        {(1, 2): 1.5, (2, 3): -1.0},
        [SeparableTerm(1, "log", (1.0, 0.0, 1.0)), SeparableTerm(3, "exp", (0.5, 0.0, 1.0)), SeparableTerm(3, "poly", (1.0, 2.0))],
    )
    R = [[1.0, 2.0, 3.0], [2.0, 0.5, -1.0]]
    S = [[2.0, 1.0, 0.5], [0.25, 4.0, 2.0]]
    expected = [(t, r[t.index - 1], s[t.index - 1]) for r, s in zip(R, S) for t in f.separable]
    calls = []
    change = SeparableTerm.change

    def counted(term, a, b):
        calls.append((term, a, b))
        return change(term, a, b)

    monkeypatch.setattr(SeparableTerm, "change", counted)
    for run in (
        lambda: f.changes(R, S),
        lambda: [attribute_ass(f, ValuePair(r, s)) for r, s in zip(R, S)],
        lambda: attribute_ass_batch(f, R, S),
    ):
        calls.clear()
        run()
        assert calls == expected


class TestAttributeNaive:
    def test_procurement(self, procurement):
        f, vp = procurement
        res = attribute_naive(f, vp)
        assert res.z == (18.0, 82.5, 30.0)
        assert math.fsum(res.z) == 130.5
        assert res.residual == pytest.approx(44.5, abs=1e-12)

    def test_linear_function_is_complete(self):
        f = from_terms(3, {(1,): 2.0, (2,): -1.0, (3,): 0.5})
        vp = ValuePair((1.0, 1.0, 1.0), (2.0, 0.0, 3.0))
        res = attribute_naive(f, vp)
        assert res.z == pytest.approx((2.0, 1.0, 1.0), rel=1e-15)
        assert abs(res.residual) <= 1e-12

    def test_no_change_gives_zeros(self, procurement):
        f, _ = procurement
        vp = ValuePair((4.0, 1.0, 1.0), (4.0, 1.0, 1.0))
        assert attribute_naive(f, vp).z == (0.0, 0.0, 0.0)


@given(charfn_pairs(max_n=5))
def test_completeness_property(pair):
    f, vp = pair
    res = attribute_ass(f, vp)
    total = evaluate(f, vp.s) - evaluate(f, vp.r)
    assert abs(res.residual) <= 1e-10 * (1.0 + abs(total))


@given(charfn_pairs(max_n=4))
def test_additivity_property(pair):
    f1, vp = pair
    f2 = product_function(f1.n)
    z12 = attribute_ass(combine(f1, f2), vp).z
    z1 = attribute_ass(f1, vp).z
    z2 = attribute_ass(f2, vp).z
    for a, b, c in zip(z12, z1, z2):
        assert a == pytest.approx(b + c, rel=1e-10, abs=1e-10)


@given(charfn_pairs(max_n=4, with_separable=False))
def test_degenerate_box_coordinates_get_zero(pair):
    f, vp = pair
    s = list(vp.s)
    s[0] = vp.r[0]
    res = attribute_ass(f, ValuePair(vp.r, tuple(s)))
    assert res.z[0] == 0.0


@given(st.integers(1, 30))
def test_product_from_zero_to_one_splits_equally(n):
    f = product_function(n)
    vp = ValuePair((0.0,) * n, (1.0,) * n)
    res = attribute_ass(f, vp)
    assert res.z == pytest.approx((1.0 / n,) * n, rel=1e-12)
    assert abs(res.residual) <= 1e-12


def test_monomial_attribution_matches_exact_rationals():
    import random
    from fractions import Fraction

    from attrib.exact import attribute_ass_batch

    rng = random.Random(59)
    for _ in range(10):
        n = rng.randint(1, 8)
        r = tuple(rng.uniform(-3, 3) for _ in range(n))
        s = tuple(rng.uniform(-3, 3) for _ in range(n))
        i = rng.randint(1, n)
        vp = ValuePair(r, s)
        want = exact_product_attribution(r, s, i)
        for got in (
            attribute_monomial(1.0, range(1, n + 1), vp, i),
            attribute_ass(product_function(n), vp).z[i - 1],
            attribute_ass_batch(product_function(n), [r], [s])[0].z[i - 1],
        ):
            assert abs(Fraction(got) - want) <= Fraction(1, 10**13) * max(Fraction(1), abs(want))


@pytest.mark.parametrize("m", [30, 300, 1100])
def test_wide_product_near_one_matches_closed_form(m):
    # every member of x_1 * ... * x_m moving from 1.0 to 1.01 gets (1.01^m - 1) / m;
    # subset sums of this row overflow doubles near m = 1100, subset means do not
    vp = ValuePair((1.0,) * m, (1.01,) * m)
    want = (1.01**m - 1.0) / m
    assert attribute_ass(product_function(m), vp).z == pytest.approx((want,) * m, rel=1e-12)
    # all members see the same other values, so the DP runs the same
    # arithmetic for each; the first and last stand for the rest
    for i in (1, m):
        assert attribute_monomial(1.0, range(1, m + 1), vp, i) == pytest.approx(want, rel=1e-12)


def _bits(res):
    return [struct.pack("<d", v) for v in res.z + (res.residual,)]


def _ass_by_loop(f, vp):
    """attribute_ass with every monomial on the pure-Python node loop."""
    from attrib import exact

    with mock.patch.object(exact, "_ARRAY_DEGREE", math.inf):
        return exact.attribute_ass(f, vp)


class TestArrayPass:
    """Monomials at or above exact._ARRAY_DEGREE take one array pass over their Gauss nodes, with the loop's bits."""

    @given(data=st.data(), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_loop_bit_for_bit(self, data, m, seed):
        import random
        import warnings

        from attrib import exact

        rng = random.Random(seed)
        r = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        s = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        # members that keep their value, zeros of both signs, and magnitudes
        # whose products overflow to inf, or to nan against a zero
        specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e160, -1e160])
        for j in data.draw(st.sets(st.integers(0, m - 1), max_size=m)):
            kind = data.draw(st.sampled_from(["keep", "r", "s"]))
            if kind == "keep":
                s[j] = r[j]
            elif kind == "r":
                r[j] = data.draw(specials)
            else:
                s[j] = data.draw(specials)
        sub = data.draw(st.sets(st.integers(1, m), min_size=1, max_size=m))
        f = from_terms(m, {tuple(range(1, m + 1)): data.draw(coeffs.filter(bool)), tuple(sorted(sub)): data.draw(coeffs.filter(bool))})
        vp = ValuePair(r, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(exact, "_ARRAY_DEGREE", 1):
                array = exact.attribute_ass(f, vp)
            loop = _ass_by_loop(f, vp)
        assert _bits(array) == _bits(loop)

    def test_wide_overflow_gives_the_loops_inf_and_nan_without_warnings(self):
        import warnings

        from attrib import exact

        m = 3 * exact._ARRAY_DEGREE
        r = [1e30 * (-1) ** j for j in range(m)]
        s = [0.0] + [3e30] * (m - 1)
        vp = ValuePair(r, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = attribute_ass(product_function(m), vp)
            assert _bits(res) == _bits(_ass_by_loop(product_function(m), vp))
        assert any(math.isinf(z) for z in res.z) and any(math.isnan(z) for z in res.z)
        assert not res.converged

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_degrees_around_the_threshold(self, monkeypatch, step):
        import random

        from attrib import exact

        m = exact._ARRAY_DEGREE + step
        rng = random.Random(m)
        vp = ValuePair([rng.uniform(-1.5, 1.5) for _ in range(m)], [rng.uniform(-1.5, 1.5) for _ in range(m)])
        f = from_terms(m, {tuple(range(1, m + 1)): 2.5, (1, m): -1.0})
        array_calls = []
        monkeypatch.setattr(exact, "_batch_partials", lambda x, scale: array_calls.append(x.shape) or _batch_partials(x, scale))
        res = attribute_ass(f, vp)
        assert array_calls == ([] if step < 0 else [((m + 1) // 2, m)])
        assert _bits(res) == _bits(_ass_by_loop(f, vp))
        assert res.z[1] == pytest.approx(2.5 * attribute_monomial(1.0, range(1, m + 1), vp, 2), rel=1e-12)

    def test_blocks_give_the_same_bits(self, monkeypatch):
        from attrib import exact

        m = 50
        vp = ValuePair([0.7 + j / 100 for j in range(m)], [1.4 - j / 80 for j in range(m)])
        whole = attribute_ass(product_function(m), vp)
        monkeypatch.setattr(exact, "_BLOCK_ELEMENTS", 3 * m)  # 3 of the 25 nodes per block
        assert _bits(attribute_ass(product_function(m), vp)) == _bits(whole)

    def test_small_degrees_never_take_the_array_pass(self, monkeypatch):
        from attrib import InstanceGenerator, exact

        assert exact._ARRAY_DEGREE > 8

        def refuse(x, scale):
            raise AssertionError(f"array pass on a monomial of degree {x.shape[-1]}")

        monkeypatch.setattr(exact, "_batch_partials", refuse)
        gen = InstanceGenerator(seed=13, n_range=(1, 8), terms_range=(1, 20))
        for trial in range(200):
            f, vp, _ = gen.instance(trial)
            try:
                attribute_ass(f, vp)
            except ValueError:
                pass  # a log term outside its domain
        attribute_ass(product_function(8), ValuePair((0.5,) * 8, (2.0,) * 8))


class TestModuleTolerances:
    """The exact kernel must meet tolerances well below the harness default."""

    def test_anonymity_to_1e12(self):
        from attrib import InstanceGenerator, check_axiom

        v = check_axiom(attribute_ass, "anonymity", InstanceGenerator(seed=51), trials=100, tol=1e-12)
        assert v.passed, v.worst

    def test_affine_scale_invariance_to_1e10(self):
        from attrib import InstanceGenerator, check_axiom

        v = check_axiom(attribute_ass, "affine-scale-invariance", InstanceGenerator(seed=52), trials=100, tol=1e-10)
        assert v.passed, v.worst

    def test_nonnegativity_floor(self):
        import random

        rng = random.Random(53)
        for _ in range(50):
            n = rng.randint(1, 5)
            terms = {}
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(1, n)
                I = tuple(sorted(rng.sample(range(1, n + 1), size)))
                terms[I] = terms.get(I, 0.0) + rng.uniform(0.0, 10.0)
            f = from_terms(n, terms)
            r = tuple(rng.uniform(0.0, 2.0) for _ in range(n))
            s = tuple(max(v, rng.uniform(0.0, 2.0)) for v in r)
            res = attribute_ass(f, ValuePair(r, s))
            assert all(z >= -1e-12 for z in res.z)


class TestAttributeAssBatch:
    @given(
        seed=st.integers(0, 10**6),
        entities=st.sampled_from([1, 2, 37]),
        still=st.floats(0.0, 0.5),
        constant=st.floats(-5.0, 5.0),
        wide=st.none() | st.integers(0, 24),
        extreme=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_matches_per_pair_kernel(self, seed, entities, still, constant, wide, extreme):
        """Every row has the bits of `attribute_ass`, and a failing row raises its error."""
        from attrib import InstanceGenerator
        from attrib.exact import _ARRAY_DEGREE, attribute_ass_batch

        gen = InstanceGenerator(seed=seed, n_range=(1, 9), terms_range=(0, 12))
        f, vp, rng = gen.instance(0)
        pairs = [vp] + [gen.pair(rng, f.n) for _ in range(entities - 1)]
        terms = list(f.multilinear.terms.items()) + [((), constant)]  # constants change nothing
        n = f.n
        if wide is not None:
            # a monomial that `attribute_ass` also takes through its array pass, over new variables as needed
            n = max(n, _ARRAY_DEGREE + wide)
            terms.append((rng.sample(range(1, n + 1), _ARRAY_DEGREE + wide), rng.uniform(-10.0, 10.0)))
        f = from_terms(n, terms, f.separable)
        # some variables keep their value in every entity; some values are signed zeros, huge or subnormal
        fixed = [i for i in range(n) if rng.random() < still]
        specials = [0.0, -0.0, 1e154, -1e154, 3e307, -3e307, 5e-324, -5e-324]
        rows = []
        for p, q in zip(pairs, [gen.pair(rng, n - len(vp.r)) for _ in pairs]):
            r = [rng.choice(specials) if rng.random() < extreme else v for v in p.r + q.r]
            s = [r[i] if i in fixed else rng.choice(specials) if rng.random() < extreme else v for i, v in enumerate(p.s + q.s)]
            rows.append(ValuePair(r, s))
        want = []
        for p in rows:
            try:
                want.append(attribute_ass(f, p))
            except ValueError as exc:
                want.append(exc)  # a separable term outside its domain or overflowing
                break
        try:
            got = attribute_ass_batch(f, [p.r for p in rows], [p.s for p in rows])
        except ValueError as exc:
            assert isinstance(want[-1], ValueError)
            assert (type(exc), str(exc), exc.row) == (type(want[-1]), str(want[-1]), len(want) - 1)
            return
        assert [repr(res) for res in got] == [repr(res) for res in want]

    def test_change_comes_from_the_columns_not_evaluate(self, monkeypatch):
        """A model's rows take their change from the telescoped pair over the columns, a constant included, not from its values."""
        from attrib.core import CharacteristicFunction
        from attrib.exact import attribute_ass_batch

        f = from_terms(3, {(): 2.5, (1, 2): 1e300, (2, 3): -1e300, (1, 2, 3): 1.5}, [SeparableTerm(3, "poly", (0.0, 0.0, 1.0))])
        R = [[0.5, -1.0, 2.0], [1.0, 1.0, 1.0], [1e10, 1e10, 1e10], [0.0, -0.0, 3.0]]
        S = [[1.5, 2.0, -0.25], [1e10, 1.0, 1.0], [2e10, 3e10, 1e10], [-0.0, 1e-300, 3.0]]
        want = [attribute_ass(f, ValuePair(r, s)) for r, s in zip(R, S)]
        # in row 1, c * (s_1 - r_1) overflows to inf, which times the 0 difference of x_2 gives nan; row 2 overflows too
        assert math.isnan(want[1].change) and math.isnan(want[2].change)

        def refuse(self, X):
            raise AssertionError("attribute_ass_batch called CharacteristicFunction.values")

        monkeypatch.setattr(CharacteristicFunction, "values", refuse)  # f(x) and evaluate read it too
        assert [repr(res) for res in attribute_ass_batch(f, R, S)] == [repr(res) for res in want]

    @pytest.mark.parametrize(
        "model, chunk", [("payperclick", 66), ("layered-dag", 48), ("mixed-degree", 48)], ids=["payperclick", "layered-dag", "mixed-degree"]
    )
    def test_chunks_give_the_same_rows(self, monkeypatch, model, chunk):
        import random

        from attrib import exact
        from attrib.models import DagModel, compile_model, payperclick_model

        if model == "payperclick":
            f = compile_model(payperclick_model(3))  # 11 variables, degree 5: 3 Gauss nodes
        elif model == "mixed-degree":
            # monomials of degree 1, 2, 3 and 5 over 8 variables, each at its own 1, 1, 2 and 3 Gauss nodes
            f = from_terms(8, {(1,): 2.0, (2, 3): -1.5, (4, 5, 6): 0.5, (1, 3, 5, 7, 8): 1.25}, [SeparableTerm(2, "poly", (0.0, 0.0, 1.0))])
        else:
            # 3 layers of 2 nodes into a sink: 12 variables on 7 nodes, degree 4: 2 Gauss nodes
            grid = [[f"n{k}_{j}" for j in range(2)] for k in range(3)]
            edges = [(u, v) for k in range(2) for u in grid[k] for v in grid[k + 1]] + [(u, "t") for u in grid[-1]]
            f = DagModel(tuple(sum(grid, [])) + ("t",), "t", {u: f"s_{u}" for u in grid[0]}, tuple((u, v, f"p_{u}_{v}") for u, v in edges))
        rng = random.Random(7)
        R = [[rng.uniform(0.5, 2.0) for _ in range(f.n)] for _ in range(11)]
        S = [[rng.uniform(0.5, 2.0) for _ in range(f.n)] for _ in range(11)]
        whole = exact.attribute_ass_batch(f, R, S)
        # entities per chunk: 6 of a model (chunk // variables), 2 of the graph (chunk // (Gauss nodes x variables))
        monkeypatch.setattr(exact, "_CHUNK_ELEMENTS", chunk)
        assert exact.attribute_ass_batch(f, R, S) == whole

    def test_functions_without_monomials(self):
        from attrib.exact import attribute_ass_batch

        f = from_terms(2, {(): 3.0}, [SeparableTerm(2, "poly", (0.0, 0.0, 1.0))])
        got = attribute_ass_batch(f, [[1.0, 2.0], [0.0, 0.0]], [[5.0, 3.0], [1.0, -1.0]])
        assert [res.z for res in got] == [(0.0, 5.0), (0.0, 1.0)]
        assert attribute_ass_batch(f, [], []) == []

    def test_rejects_bad_shapes_and_values(self):
        from attrib.exact import attribute_ass_batch

        f = product_function(2)
        with pytest.raises(ValueError, match="dimension"):
            attribute_ass_batch(f, [[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="shape"):
            attribute_ass_batch(f, [[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="finite"):
            attribute_ass_batch(f, [[1.0, math.nan]], [[1.0, 2.0]])

    def test_failing_entity_is_named_by_row(self):
        from attrib import DomainError
        from attrib.exact import attribute_ass_batch

        f = from_terms(1, {}, [SeparableTerm(1, "log", (1.0, 0.0, 1.0))])
        with pytest.raises(DomainError) as info:
            attribute_ass_batch(f, [[1.0], [-1.0], [2.0]], [[2.0], [2.0], [3.0]])
        assert info.value.row == 1 and info.value.index == 1

    def test_overflow_gives_inf_without_numpy_warnings(self):
        import warnings

        from attrib.exact import attribute_ass_batch

        f = from_terms(2, {(1, 2): 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [res] = attribute_ass_batch(f, [[1e10, 1e10]], [[2e10, 3e10]])
        assert res.z == attribute_ass(f, ValuePair((1e10, 1e10), (2e10, 3e10))).z
        assert not all(map(math.isfinite, res.z + (res.residual,)))
        assert not res.converged


def _same_float(a, b):
    """a and b have the same bits, or are both nan (whose sign no printed output shows)."""
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


class TestDomainErrorOrder:
    """Term 1 leaves its domain at r, term 2 at s: each term is tried at s, then r, so term 1's error comes first."""

    f = from_terms(2, {(1, 2): 1.0}, [SeparableTerm(1, "log", (1.0, 0.0, 1.0)), SeparableTerm(2, "log", (1.0, 0.0, 1.0))])
    message = "log term on variable 1 got nonpositive argument -1.0"

    def test_single_pair(self):
        from attrib import DomainError

        with pytest.raises(DomainError) as info:
            attribute_ass(self.f, ValuePair((-1.0, 1.0), (2.0, -1.0)))
        assert str(info.value) == self.message and info.value.index == 1

    def test_batch_names_the_row(self):
        from attrib import DomainError
        from attrib.exact import attribute_ass_batch

        with pytest.raises(DomainError) as info:
            attribute_ass_batch(self.f, [[1.0, 1.0], [-1.0, 1.0]], [[2.0, 2.0], [2.0, -1.0]])
        assert str(info.value) == self.message and info.value.index == 1 and info.value.row == 1


class TestChangeHasTheBitsOfChanges:
    """Every method's change has the bits of ``f.changes``, on models and on graphs.

    `attribute_ass` and the batch run its telescoped rule inside their own
    passes; the other methods call it.  CI runs this class with the
    exit-contract profile (2,000 examples).
    """

    @staticmethod
    def check(f, pairs):
        from attrib.exact import attribute_ass_batch
        from attrib.oracles import PermutationWeights, random_order_attribution, shapley_shubik_bruteforce
        from attrib.paths import QuadratureConfig, attribute_aumann_shapley

        R, S = [vp.r for vp in pairs], [vp.s for vp in pairs]
        want = f.changes(R, S).tolist()
        batch = attribute_ass_batch(f, R, S)
        assert all(_same_float(res.change, w) for res, w in zip(batch, want))
        methods = [attribute_ass, attribute_naive, lambda g, vp: attribute_aumann_shapley(g, vp, QuadratureConfig(max_refine=0))]
        if 1 <= f.n <= 8:
            pw = PermutationWeights.single(range(f.n, 0, -1))
            methods += [shapley_shubik_bruteforce, lambda g, vp: random_order_attribution(g, vp, pw)]
        for vp, w in zip(pairs, want):
            assert all(_same_float(method(f, vp).change, w) for method in methods)
        return batch

    @given(pair=charfn_pairs(max_n=5), data=st.data())
    def test_on_random_models(self, pair, data):
        f, vp = pair
        values = st.floats(min_value=-3, max_value=3, allow_nan=False)
        more = data.draw(st.lists(st.tuples(*[st.tuples(values, values)] * f.n), max_size=3))
        self.check(f, [vp] + [ValuePair(*zip(*rows)) for rows in more])

    @given(d=flow_graphs(), data=st.data())
    def test_on_random_graphs(self, d, data):
        cells = st.lists(st.floats(0.0, 2.0), min_size=d.n, max_size=d.n)
        pairs = [ValuePair(data.draw(cells), data.draw(cells)) for _ in range(data.draw(st.integers(1, 3)))]
        self.check(d, pairs)

    def test_overflowing_product(self):
        # c * r_1 overflows to inf, so the change is not finite and no result is trusted
        [res] = self.check(from_terms(2, {(1, 2): 1e300}), [ValuePair((1e10, 1e10), (2e10, 3e10))])
        assert not math.isfinite(res.change) and not res.converged

    def test_constant_only(self):
        [res] = self.check(from_terms(2, {(): 4.5}), [ValuePair((1.0, 2.0), (3.0, -1.0))])
        assert res.z == (0.0, 0.0) and res.change == 0.0

    def test_zero_difference(self):
        f = from_terms(3, {(1, 2): -2.5, (2, 3): 1.25, (): 1.0}, [SeparableTerm(3, "exp", (0.5, 0.0, 2.0))])
        [res] = self.check(f, [ValuePair((0.3, -1.7, 2.0), (0.3, -1.7, 2.0))])
        assert res.z == (0.0, 0.0, 0.0) and res.change == 0.0 and res.converged


_small_moves = st.floats(-1e-9, 1e-9)


def _floats(lo, hi):
    """Floats in [lo, hi], those below 1e-30 in magnitude taken as 0.0: no product of them is subnormal, where rounding is absolute."""
    return st.floats(lo, hi).map(lambda x: 0.0 if abs(x) < 1e-30 else x)


class TestChangeIsAccurateOnSmallMoves:
    """The change of a model or graph, against its exact value in rationals, on moves s = r (1 + eps) with |eps| <= 1e-9.

    Forward bound: |change - exact| <= gamma_N * T, gamma_N = N u / (1 - N u),
    u = 2^-53.  T sums, over the monomials c * prod_I x, of
    |c| * sum_k |s_k - r_k| * prod_{j != k} max(|r_j|, |s_j|), which bounds
    every telescoped term, plus, over the `poly` separable terms, the
    polynomial with |coefficients| at |r| and at |s|, which bounds Horner's
    error.  For a model, N = 2m + 2d + K + 4, with m the largest monomial
    degree, d the largest poly degree and K the count of terms; for a graph,
    whose monomials are its routes (`compile_dag`), N = D (2 i + 6), with D
    its degree and i its largest in-degree.  f(s) - f(r) misses it by about
    u |f| / (eps T), some 1e7 times.
    """

    @staticmethod
    def exact(f, r, s):
        """The exact change of f and T, both from the doubles r and s, in rationals."""
        from fractions import Fraction

        r, s = [Fraction(x) for x in r], [Fraction(x) for x in s]
        change = bound = Fraction(0)
        for I, c in f.multilinear.terms.items():
            p_r = p_s = Fraction(c)
            for j in I:
                p_r *= r[j - 1]
                p_s *= s[j - 1]
            change += p_s - p_r
            for k in I:
                term = abs(Fraction(c)) * abs(s[k - 1] - r[k - 1])
                for j in I:
                    if j != k:
                        term *= max(abs(r[j - 1]), abs(s[j - 1]))
                bound += term
        for t in f.separable:
            assert t.kind == "poly"
            for x, sign in ((s[t.index - 1], 1), (r[t.index - 1], -1)):
                change += sign * sum(Fraction(c) * x**k for k, c in enumerate(t.params))
                bound += sum(abs(Fraction(c)) * abs(x) ** k for k, c in enumerate(t.params))
        return change, bound

    @classmethod
    def check(cls, f, vp, got, N):
        from fractions import Fraction

        exact, T = cls.exact(f, vp.r, vp.s)
        u = Fraction(1, 2**53)
        assert abs(Fraction(got) - exact) <= N * u / (1 - N * u) * T

    @given(data=st.data())
    def test_on_models(self, data):
        from attrib.exact import attribute_ass_batch

        n = data.draw(st.integers(1, 5))
        terms = {}
        for I in data.draw(st.lists(st.sets(st.integers(1, n)), max_size=6)):
            terms[tuple(sorted(I))] = data.draw(_floats(-10, 10))
        sep = []
        for i in data.draw(st.sets(st.integers(1, n))):
            sep.append(SeparableTerm(i, "poly", tuple(data.draw(st.lists(_floats(-2, 2), min_size=2, max_size=4)))))
        f = from_terms(n, terms, sep)
        pairs = []
        for _ in range(data.draw(st.integers(1, 3))):
            r = [data.draw(_floats(-3, 3)) for _ in range(n)]
            pairs.append(ValuePair(r, [x * (1 + data.draw(_small_moves)) for x in r]))
        m = max(map(len, f.multilinear.terms), default=0)
        d = max((len(t.params) - 1 for t in f.separable), default=0)
        N = 2 * m + 2 * d + len(f.multilinear.terms) + len(f.separable) + 4
        R, S = [vp.r for vp in pairs], [vp.s for vp in pairs]
        for vp, row in zip(pairs, attribute_ass_batch(f, R, S)):
            self.check(f, vp, attribute_ass(f, vp).change, N)
            self.check(f, vp, row.change, N)
        for vp, change in zip(pairs, f.changes(R, S).tolist()):
            self.check(f, vp, change, N)

    @classmethod
    def check_graph(cls, d, vp):
        from collections import Counter

        from attrib.models import compile_dag, compile_model

        f = compile_model(compile_dag(d))
        indegree = max(Counter(v for _, v, _ in d.edges).values(), default=0)
        N = d.degree * (2 * indegree + 6)
        cls.check(f, vp, attribute_ass(d, vp).change, N)
        cls.check(f, vp, float(d.changes([vp.r], [vp.s])[0]), N)

    @given(d=flow_graphs(), data=st.data())
    def test_on_graphs(self, d, data):
        r = data.draw(st.lists(_floats(0.0, 2.0), min_size=d.n, max_size=d.n))
        self.check_graph(d, ValuePair(r, [x * (1 + data.draw(_small_moves)) for x in r]))

    def test_change_that_rounds_away(self):
        from attrib.models import DagModel

        d = DagModel(("v0", "v1"), "v1", {"v0": "s0", "v1": "s1"}, (("v0", "v1", "p0_0_1"),))
        self.check_graph(d, ValuePair(*TestFlowGraphs._ROUNDED_AWAY))


class TestFlowGraphs:
    @given(d=flow_graphs(), data=st.data())
    def test_flow_matches_route_expansion(self, d, data):
        import numpy as np

        from attrib.exact import attribute_ass_batch
        from attrib.models import compile_dag, compile_model

        ms = compile_dag(d)
        f = compile_model(ms)
        assert ms.variables == d.variables
        assert d.degree == max((len(names) for names, _ in ms.ml_terms), default=1)
        E = data.draw(st.integers(1, 3))
        cells = st.lists(st.floats(0.0, 2.0), min_size=d.n, max_size=d.n)
        R = np.array([data.draw(cells) for _ in range(E)]).reshape(E, d.n)
        S = np.array([data.draw(cells) for _ in range(E)]).reshape(E, d.n)

        X = np.concatenate([R, S])
        grads = d.gradients(X)
        assert [d(x) for x in X.tolist()] == pytest.approx([evaluate(f, x) for x in X.tolist()], rel=1e-12, abs=1e-12)
        assert grads == pytest.approx(f.gradients(X), rel=1e-12, abs=1e-12)
        # a point's bits do not depend on how many points share the call
        assert d.gradients(S).tolist() == grads[E:].tolist()
        assert [d.gradients([x])[0].tolist() for x in R.tolist()] == grads[:E].tolist()

        flow = attribute_ass_batch(d, R, S)
        routes = attribute_ass_batch(f, R, S)
        for a, b, r, s in zip(flow, routes, R.tolist(), S.tolist()):
            assert a.method == "ass" and a.converged
            for x, y in zip(a.z, b.z):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))
            delta = evaluate(f, s) - evaluate(f, r)
            assert abs(a.residual) <= 1e-12 * (1.0 + abs(delta))

    @given(d=flow_graphs(), data=st.data())
    def test_every_method_matches_route_expansion(self, d, data):
        from attrib.exact import attribute_naive
        from attrib.models import compile_dag, compile_model
        from attrib.oracles import PermutationWeights, random_order_attribution, shapley_shubik_bruteforce
        from attrib.paths import attribute_aumann_shapley

        f = compile_model(compile_dag(d))
        cells = st.lists(st.floats(0.0, 2.0), min_size=d.n, max_size=d.n).map(tuple)
        vp = ValuePair(data.draw(cells), data.draw(cells))
        methods = [attribute_ass, attribute_naive, attribute_aumann_shapley]
        if 1 <= d.n <= 10:
            orders = data.draw(st.lists(st.permutations(range(1, d.n + 1)).map(tuple), min_size=1, max_size=3, unique=True))
            pw = PermutationWeights({order: 1.0 / len(orders) for order in orders})
            methods += [shapley_shubik_bruteforce, lambda g, v: random_order_attribution(g, v, pw)]
        for method in methods:
            a, b = method(d, vp), method(f, vp)
            assert a.method == b.method and a.converged == b.converged
            for x, y in zip(a.z + (a.residual,), b.z + (b.residual,)):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))

    @pytest.mark.parametrize("r, s", [((1.0, 1.0, 0.0), (1.0, 1e-10, 1.0)), ((1.0, 1e-10, 1.0), (1.0, 1.0, 0.0))])
    def test_change_keeps_what_a_rounded_difference_drops(self, r, s):
        """One route, its edges against file order, where 1e-10 - 1 rounds and the terms of the change nearly cancel."""
        from attrib.models import DagModel, compile_dag, compile_model
        from attrib.oracles import shapley_shubik_bruteforce

        d = DagModel(("v0", "v1", "v2"), "v2", {"v0": "s0"}, (("v1", "v2", "p0"), ("v0", "v1", "p1")))
        f = compile_model(compile_dag(d))
        want = d(s) - d(r)  # the products of 0, 1 and 1e-10 are exact
        assert abs(want) == 1e-10
        assert d.changes([r], [s]).tolist() == f.changes([r], [s]).tolist() == [want]
        for g in (d, f):
            assert shapley_shubik_bruteforce(g, ValuePair(r, s)).converged

    def test_ass_on_a_graph_is_the_one_row_batch(self):
        from attrib.exact import attribute_ass_batch
        from attrib.models import ecommerce_dag_example
        from attrib.reports import resolve_method

        d = ecommerce_dag_example()
        vp = ValuePair((100.0, 40.0, 0.5, 0.25, 0.75, 0.5, 0.25), (120.0, 35.0, 0.25, 0.5, 0.5, 0.75, 0.5))
        [row] = attribute_ass_batch(d, [vp.r], [vp.s])
        assert attribute_ass(d, vp) == row
        assert resolve_method("ass")(d, vp) == row

    # f = s0·p + s1 from (0, 1, 0) to (1, 1, h): z_s0 = z_p = h/2 exactly, but f(s) = 1 + h rounds to 1
    _ROUNDED_AWAY = ((0.0, 1.0, 0.0), (1.0, 1.0, 1.7339923889602518e-176))

    def test_change_that_rounds_away_keeps_the_exact_z(self):
        from attrib.models import DagModel

        d = DagModel(("v0", "v1"), "v1", {"v0": "s0", "v1": "s1"}, (("v0", "v1", "p0_0_1"),))
        res = attribute_ass(d, ValuePair(*self._ROUNDED_AWAY))
        h = self._ROUNDED_AWAY[1][2]
        assert d.variables == ("s0", "s1", "p0_0_1")
        assert res.z == (h / 2, 0.0, h / 2) and res.change == h

    def test_change_that_rounds_away_is_trusted(self):
        from attrib.models import DagModel

        d = DagModel(("v0", "v1"), "v1", {"v0": "s0", "v1": "s1"}, (("v0", "v1", "p0_0_1"),))
        assert attribute_ass(d, ValuePair(*self._ROUNDED_AWAY)).converged

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 16])
    def test_one_point_gets_the_bits_of_many_across_parallel_edges(self, k):
        import random

        from attrib.models import DagModel

        # k parallel edges a -> b and k more b -> t: both passes add k terms at one node
        edges = tuple(("a", "b", f"p{j}") for j in range(k)) + tuple(("b", "t", f"q{j}") for j in range(k))
        d = DagModel(("a", "b", "t"), "t", {"a": "s_a", "b": "s_b"}, edges)
        rng = random.Random(k)
        X = [[rng.uniform(0.0, 2.0) for _ in range(d.n)] for _ in range(100)]
        grads = d.gradients(X)
        assert [d.gradients([x])[0].tolist() for x in X] == grads.tolist()

    def test_variables_in_no_route_get_zero(self):
        from attrib.exact import attribute_ass_batch
        from attrib.models import DagModel, compile_dag

        # b -> d is a dead end, t -> c leaves the sink, and no start feeds e -> t
        edges = (("a", "b", "p_ab"), ("b", "t", "p_bt"), ("b", "d", "p_bd"), ("t", "c", "p_tc"), ("e", "t", "p_et"))
        d = DagModel(("a", "b", "c", "d", "e", "t"), "t", {"a": "s_a"}, edges)
        assert {name for names, _ in compile_dag(d).ml_terms for name in names} == {"s_a", "p_ab", "p_bt"}
        [res] = attribute_ass_batch(d, [[10.0, 0.5, 0.5, 0.5, 0.5, 0.5]], [[20.0, 0.25, 0.25, 0.25, 0.25, 0.25]])
        z = dict(zip(d.variables, res.z))
        assert [(z[name], math.copysign(1.0, z[name])) for name in ("p_bd", "p_tc", "p_et")] == [(0.0, 1.0)] * 3
        assert sum(res.z) == pytest.approx(20 * 0.25**2 - 10 * 0.5**2, abs=1e-13)

    def test_unreachable_start_is_refused(self):
        from attrib.models import DagModel, ModelError

        with pytest.raises(ModelError, match="sink is unreachable from start node 'b'"):
            DagModel(("a", "b", "t"), "t", {"b": "s_b"}, (("a", "t", "p"),))

    def test_shape_checks(self):
        from attrib.exact import attribute_ass_batch
        from attrib.models import ecommerce_dag_example

        d = ecommerce_dag_example()
        with pytest.raises(ValueError, match="dimension mismatch: function has 7 variables, values have 2"):
            attribute_ass_batch(d, [[1.0, 1.0]], [[2.0, 2.0]])
        with pytest.raises(ValueError, match="dimension mismatch: function has 7 variables, values have 2"):
            attribute_ass(d, ValuePair((1.0, 1.0), (2.0, 2.0)))
        with pytest.raises(ValueError, match="dimension mismatch: function has 7 variables, values have 2"):
            attribute_naive(d, ValuePair((1.0, 1.0), (2.0, 2.0)))
        with pytest.raises(ValueError, match="dimension mismatch: function has 3 variables, values have 2"):
            attribute_naive(product_function(3), ValuePair((1.0, 1.0), (2.0, 2.0)))
        with pytest.raises(ValueError, match=r"dimension mismatch: graph has 7 variables, got points of shape \(1, 2\)"):
            d.gradients([[1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            attribute_ass_batch(d, [[math.inf] * 7], [[1.0] * 7])
        assert attribute_ass_batch(d, [], []) == []

    def test_overflow_gives_non_finite_results_without_numpy_warnings(self):
        import warnings

        from attrib.exact import attribute_ass_batch
        from attrib.models import ecommerce_dag_example

        d = ecommerce_dag_example()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [res] = attribute_ass_batch(d, [[1e200] * 7], [[1e201] * 7])
        assert not res.converged
