import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from attrib import (
    PermutationWeights,
    ValuePair,
    attribute_ass,
    evaluate,
    hash_order_weights,
    monomial,
    product_function,
    random_order_attribution,
    shapley_shubik_bruteforce,
    value_variant_attribution,
)
from attrib.axioms import InstanceGenerator
from attrib.oracles import _befores, _shapley_plan, _subset_sum

from conftest import charfn_pairs, exact_product_attribution


def literal_walk(f, vp: ValuePair) -> list[float]:
    """Shapley-Shubik by the book: walk every order corner to corner, add each variable's n! differences with fsum.

    f is called once per corner: the n! (n + 1) steps visit only 2^n of them.
    """
    n = vp.n
    corners = {}

    def at(x):
        key = tuple(x)
        if key not in corners:
            corners[key] = f(x)
        return corners[key]

    contributions = [[] for _ in range(n)]
    for order in itertools.permutations(range(n)):
        x = list(vp.r)
        before = at(x)
        for v in order:
            x[v] = vp.s[v]
            after = at(x)
            contributions[v].append(after - before)
            before = after
    return [math.fsum(c) / math.factorial(n) for c in contributions]


class TestBruteforce:
    def test_equal_split(self):
        res = shapley_shubik_bruteforce(product_function(2), ValuePair((0.0, 0.0), (1.0, 1.0)))
        assert res.z == pytest.approx((0.5, 0.5), rel=1e-15)

    def test_matches_dp_on_procurement(self, procurement):
        f, vp = procurement
        res = shapley_shubik_bruteforce(f, vp)
        assert res.z == pytest.approx((51.5 / 6, 374 / 6, 90.5 / 6), rel=1e-13)

    def test_black_box_square_term(self):
        # two orders by hand: 0.5*(f(1,1)-f(1,0)) + 0.5*(f(0,1)-f(0,0)) for z_2
        res = shapley_shubik_bruteforce(lambda x: x[0] * x[0] * x[1], ValuePair((0.0, 0.0), (1.0, 1.0)))
        assert res.z[1] == pytest.approx(0.5, rel=1e-15)
        assert res.z[0] == pytest.approx(0.5, rel=1e-15)

    def test_cap_enforced(self):
        for n, message in [(11, "order enumeration capped at 10 variables, got 11"), (0, "need at least one variable")]:
            vp = ValuePair((0.0,) * n, (1.0,) * n)
            with pytest.raises(ValueError, match=message):
                shapley_shubik_bruteforce(product_function(n), vp)
            with pytest.raises(ValueError, match=message):
                random_order_attribution(product_function(n), vp, PermutationWeights.single((1,)))

    def test_single_variable(self):
        res = shapley_shubik_bruteforce(lambda x: x[0] ** 3, ValuePair((1.0,), (2.0,)))
        assert res.z == (7.0,)

    def test_completeness_residual_small(self):
        rng = random.Random(0)
        for _ in range(10):
            n = rng.randint(1, 6)
            f = product_function(n)
            vp = ValuePair(tuple(rng.uniform(-2, 2) for _ in range(n)), tuple(rng.uniform(-2, 2) for _ in range(n)))
            res = shapley_shubik_bruteforce(f, vp)
            assert abs(res.residual) <= 1e-10


class TestOrderWalk:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_a_literal_walk(self, n):
        gen = InstanceGenerator(seed=31, n_range=(n, n))
        cases = [gen.instance(trial)[:2] for trial in range(3)]
        # a black box outside the multilinear class, squared in x_1
        black_box = lambda x: x[0] ** 2 * math.prod(x[1:]) + math.exp(x[-1] / 3)
        cases.append((black_box, ValuePair(tuple(0.5 + k / 7 for k in range(n)), tuple(1.5 - k / 5 for k in range(n)))))
        for f, vp in cases:
            want = literal_walk(f, vp)
            got = shapley_shubik_bruteforce(f, vp).z
            scale = max(map(abs, want))
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, want))

    @pytest.mark.parametrize("n", [9, 10])
    def test_nine_and_ten_variables_match_exact_rationals(self, n):
        # the largest plans: 2^(n-1) before-sets per variable, n! orders
        rng = random.Random(n)
        r = tuple(rng.uniform(-3, 3) for _ in range(n))
        s = tuple(rng.uniform(-3, 3) for _ in range(n))
        res = shapley_shubik_bruteforce(product_function(n), ValuePair(r, s))
        for i, got in enumerate(res.z, 1):
            want = exact_product_attribution(r, s, i)
            assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * abs(want)

    def test_a_model_or_graph_answers_every_corner_in_one_values_call(self, monkeypatch):
        from attrib import CharacteristicFunction
        from attrib.models import DagModel, ecommerce_dag_example

        f, vp, _ = InstanceGenerator(seed=4, n_range=(6, 6)).instance(0)
        d = ecommerce_dag_example()
        rng = random.Random(4)
        dvp = ValuePair([rng.uniform(0.1, 2.0) for _ in range(d.n)], [rng.uniform(0.1, 2.0) for _ in range(d.n)])
        cases = [(f, vp), (d, dvp)]
        walks = [shapley_shubik_bruteforce, lambda h, pair: random_order_attribution(h, pair, PermutationWeights.uniform(pair.n))]
        # what each walk gives on a black box that calls the model or graph once per corner
        want = [walk(lambda x, g=g: g(x), pair).z for g, pair in cases for walk in walks]
        calls = []

        def refuse(self, x):
            raise AssertionError("a point-by-point call")

        for cls in (CharacteristicFunction, DagModel):
            values = cls.values
            monkeypatch.setattr(cls, "__call__", refuse)
            monkeypatch.setattr(cls, "values", lambda self, X, values=values: calls.append(len(X)) or values(self, X))
        assert [walk(g, pair).z for g, pair in cases for walk in walks] == want
        assert calls == [1 << 6, 1 << 6, 1 << d.n, 1 << d.n]

    def test_shapley_plan_is_cached_and_read_only(self):
        plan = _shapley_plan(4)
        assert _shapley_plan(4) is plan
        assert plan[0].tolist() == [v for v in range(4) for _ in range(8)]  # each variable, at its 8 sets of the others
        for a in plan:
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cached_table_holds_each_orders_before_masks(self, n):
        # column k holds, for each variable, the mask of the variables that move before it in the k-th lexicographic order
        table = lexicographic_befores(n)
        assert table.shape == (n, math.factorial(n)) and table.dtype == "uint8"
        for k, order in enumerate(itertools.permutations(range(n))):
            want = [0] * n
            mask = 0
            for v in order:
                want[v] = mask
                mask |= 1 << v
            assert table[:, k].tolist() == want, f"order {order}"


@lru_cache(maxsize=None)
def lexicographic_befores(n):
    """The before-mask table of all n! orders over 0..n-1, in lexicographic order (72 MB at n = 10), 2^16 orders at a time."""
    table = np.empty((n, math.factorial(n)), np.uint8 if n <= 8 else np.uint16)
    orders = itertools.permutations(range(n))
    for k in range(0, table.shape[1], 1 << 16):
        block = np.array(list(itertools.islice(orders, 1 << 16)), np.int8)
        table[:, k : k + len(block)] = _befores(block)
    return table


def reference_walk(befores, vals, weights=None):
    """The walk by the book: per order, gather both corners and subtract, at the length of the table.

    Returns each variable's sum, the sum of its terms' sizes, and whether
    every difference it reads is finite.  The orders go in blocks of 2^16,
    each summed by numpy's pairwise sum, so a table of all 10! orders needs
    no more than a few MB at a time.
    """
    n, count = befores.shape
    totals, sizes, finite = np.zeros(n), np.zeros(n), np.ones(n, bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for v, row in enumerate(befores):
            for k in range(0, count, 1 << 16):
                before = row[k : k + (1 << 16)]
                diffs = vals[before | (1 << v)] - vals[before]
                finite[v] &= np.isfinite(diffs).all()
                if weights is not None:
                    diffs *= weights[k : k + (1 << 16)]
                totals[v] += diffs.sum()
                sizes[v] += np.abs(diffs).sum()
    return totals, sizes, finite


# finite values of every size, both infinities, nan, both zeros, the largest floats and subnormals
corner_values = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, math.nan]))


@st.composite
def corner_vectors(draw, n):
    """2^n corner values: scaled normals with a drawn share replaced by drawn values, special ones among them."""
    palette = draw(st.lists(corner_values, min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.standard_normal(1 << n) * 10.0 ** int(rng.integers(-300, 300))
    picked = rng.random(1 << n) < draw(st.floats(0.0, 1.0))
    vals[picked] = rng.choice(np.array(palette), int(picked.sum()))
    return vals


class TestSubsetSumMatchesTheWalk:
    """`oracles._subset_sum` weighs each before-set once; it agrees with the walk by the book over every order.

    Both take the same differences of the same corner values.  The subset
    sum rounds each W_v[S] (a sequential sum of at most E order weights, or
    the 2n steps of `shapley_weights`), each product, and a sequential sum
    of at most 2^(n-1) terms; the reference rounds a product, or its
    division by n!, and a pairwise sum in at most 56 blocks.  So where
    both are finite they agree within (2^n + E + 4n + 64) 2^-52 of the
    sum of the weighted differences' sizes, plus 2^-1074 for each product
    that underflows.  A difference that is not finite makes both sums not
    finite.  CI runs this class with the exit-contract profile (2,000
    examples).
    """

    @staticmethod
    def check(got, want, size, finite, slack):
        bound = slack * 2.0**-52 * size + slack * 2.0**-1074
        for v in range(len(got)):
            if not finite[v]:
                assert not (math.isfinite(got[v]) or math.isfinite(want[v])), v
            elif math.isfinite(got[v]) and math.isfinite(want[v]):
                assert abs(got[v] - want[v]) <= bound[v], v

    @given(n=st.integers(1, 10), data=st.data())
    def test_on_uniform_plans(self, n, data):
        vals = data.draw(corner_vectors(n))
        got = _subset_sum(_shapley_plan(n), vals)
        totals, sizes, finite = reference_walk(lexicographic_befores(n), vals)
        orders = math.factorial(n)
        self.check(got, totals / orders, sizes / orders, finite, 2**n + 4 * n + 64)

    @given(n=st.integers(1, 10), data=st.data())
    def test_on_random_weight_plans(self, n, data):
        orders = data.draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=40, unique_by=tuple))
        raw = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(orders), max_size=len(orders)))
        total = math.fsum(raw)
        assume(total > 0.0)
        pw = PermutationWeights({tuple(o): w / total for o, w in zip(orders, raw)})
        kept = [o for o, w in pw.weights.items() if w > 0.0]  # the plan keeps the orders of positive weight
        befores = _befores(np.array(kept, dtype=np.int8) - 1)
        assert befores.dtype == (np.uint8 if n <= 8 else np.uint16)
        vals = data.draw(corner_vectors(n))
        got = _subset_sum(pw._walk_plan[0], vals)
        totals, sizes, finite = reference_walk(befores, vals, np.array([pw.weights[o] for o in kept]))
        self.check(got, totals, sizes, finite, 2**n + len(kept) + 4 * n + 64)


class TestRandomOrder:
    def test_single_identity_order(self):
        res = random_order_attribution(
            product_function(2), ValuePair((0.0, 0.0), (1.0, 1.0)), PermutationWeights.single((1, 2))
        )
        assert res.z == (0.0, 1.0)

    def test_uniform_equals_equal_split(self):
        res = random_order_attribution(
            product_function(2), ValuePair((0.0, 0.0), (1.0, 1.0)), PermutationWeights.uniform(2)
        )
        assert res.z == pytest.approx((0.5, 0.5), rel=1e-15)

    def test_weights_over_another_variable_count(self):
        vp = ValuePair((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError) as info:
            random_order_attribution(product_function(3), vp, PermutationWeights.single((2, 1)))
        assert str(info.value) == "weights are over 2 variables, values have 3"

    @pytest.mark.parametrize("orders", [{(1, 2): 0.5, (1, 2, 3): 0.5}, {(1, 2): 0.5, (2, 2): 0.5}, {(0, 1): 1.0}])
    def test_weights_reject_a_non_order(self, orders):
        bad = list(orders)[-1]
        with pytest.raises(ValueError) as info:
            PermutationWeights(orders)
        assert str(info.value) == f"not an order over 1..{len(next(iter(orders)))}: {bad}"

    def test_separable_ignores_order(self):
        from attrib import from_terms

        f = from_terms(2, {(1,): 1.0, (2,): 1.0})
        vp = ValuePair((0.25, -1.0), (1.5, 2.0))
        res = random_order_attribution(f, vp, PermutationWeights.single((1, 2)))
        assert res.z == pytest.approx((1.25, 3.0), rel=1e-15)

    def test_uniform_reduction_matches_bruteforce(self):
        rng = random.Random(1)
        for n in range(1, 8):
            f = product_function(n)
            vp = ValuePair(tuple(rng.uniform(-2, 2) for _ in range(n)), tuple(rng.uniform(-2, 2) for _ in range(n)))
            a = random_order_attribution(f, vp, PermutationWeights.uniform(n))
            b = shapley_shubik_bruteforce(f, vp)
            assert a.z == pytest.approx(b.z, rel=1e-12, abs=1e-12)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            PermutationWeights({(1, 2): 0.5, (2, 1): 0.6})
        with pytest.raises(ValueError):
            PermutationWeights({(1, 2): -0.5, (2, 1): 1.5})
        with pytest.raises(ValueError):
            PermutationWeights({(1, 3): 1.0})
        # a nan weight makes the sum nan, which the sum-to-one check lets through
        with pytest.raises(ValueError, match="not a finite nonnegative number"):
            PermutationWeights({(1, 2): math.nan})
        with pytest.raises(ValueError, match="need at least one order"):
            PermutationWeights({})

    def test_weights_are_a_read_only_copy(self):
        w = {(1, 2): 1.0, (2, 1): 0.0}
        pw = PermutationWeights(w)
        vp = ValuePair((0.0, 0.0), (1.0, 1.0))
        before = random_order_attribution(product_function(2), vp, pw)
        with pytest.raises(TypeError):
            pw.weights[(1, 2)] = 5.0
        w[(1, 2)], w[(2, 1)] = 0.0, 1.0
        assert pw.n == 2 and pw.weights == {(1, 2): 1.0, (2, 1): 0.0}
        after = random_order_attribution(product_function(2), vp, pw)
        assert after == before and after.z == (0.0, 1.0)

    def test_weights_pickle_and_copy(self):
        import copy
        import pickle

        pw = PermutationWeights({(1, 2): 0.25, (2, 1): 0.75})
        for twin in (pickle.loads(pickle.dumps(pw)), copy.deepcopy(pw)):
            assert twin == pw and twin.weights == {(1, 2): 0.25, (2, 1): 0.75}

    def test_evaluates_only_the_corners_its_orders_visit(self):
        # two walks over 6 variables visit 7 corners each and share the start and end corners
        calls = []

        def f(x):
            calls.append(tuple(x))
            return math.prod(x)

        vp = ValuePair((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (2.0, 3.0, 4.0, 5.0, 6.0, 7.0))
        pw = PermutationWeights({(1, 2, 3, 4, 5, 6): 0.5, (6, 4, 2, 5, 3, 1): 0.5})
        res = random_order_attribution(f, vp, pw)
        assert len(set(calls)) <= 12
        assert len(calls) == len(set(calls))
        assert abs(res.residual) <= 1e-9

    def test_one_order_over_ten_variables_evaluates_its_eleven_corners(self):
        # the walk subtracts at all 1,024 masks, but f is called only at the corners the order visits
        f, vp, _ = InstanceGenerator(seed=2, n_range=(10, 10), terms_range=(12, 12)).instance(0)
        calls = []

        def counted(x):
            calls.append(tuple(x))
            return f(x)

        order = (3, 10, 1, 7, 2, 9, 5, 4, 8, 6)
        res = random_order_attribution(counted, vp, PermutationWeights.single(order))
        assert len(calls) == vp.n + 1
        def corner(mask):
            return [vp.s[j] if (mask >> j) & 1 else vp.r[j] for j in range(vp.n)]

        # ss-brute's corner values, one call of f per corner, walked along this one order as its prefix loop walks them
        vals = np.array([f(corner(mask)) for mask in range(1 << vp.n)])
        want, mask = [0.0] * vp.n, 0
        for v in (k - 1 for k in order):
            want[v] = float(vals[mask | 1 << v] - vals[mask])
            mask |= 1 << v
        assert res.z == tuple(want)

    def test_monotonicity_under_uniform_weights(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(2, 4)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, n)
                I = tuple(sorted(rng.sample(range(1, n + 1), size)))
                terms[I] = terms.get(I, 0.0) + rng.uniform(0, 5)
            from attrib import from_terms

            f = from_terms(n, terms)
            r = tuple(rng.uniform(0, 2) for _ in range(n))
            s = tuple(rng.uniform(0, 2) for _ in range(n))
            j = rng.randint(1, n)
            s2 = list(s)
            s2[j - 1] += rng.uniform(0.1, 1.0)
            z1 = random_order_attribution(f, ValuePair(r, s), PermutationWeights.uniform(n)).z[j - 1]
            z2 = random_order_attribution(f, ValuePair(r, tuple(s2)), PermutationWeights.uniform(n)).z[j - 1]
            assert z1 <= z2 + 1e-12


class TestOrdinalInvariance:
    def test_bruteforce_ignores_monotone_reparameterization(self):
        # strictly increasing map on one variable, with both the function and
        # the endpoints rewritten; corner values are unchanged so the order
        # enumeration must give identical attributions
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 4)
            f = product_function(n)
            r = tuple(rng.uniform(0.5, 2) for _ in range(n))
            s = tuple(rng.uniform(0.5, 2) for _ in range(n))
            j = rng.randint(1, n)
            phi = lambda v: v ** 3
            phi_inv = lambda v: v ** (1.0 / 3.0)

            def f2(x, j=j, f=f):
                y = list(x)
                y[j - 1] = phi_inv(y[j - 1])
                return f(y)

            r2 = tuple(phi(v) if k == j - 1 else v for k, v in enumerate(r))
            s2 = tuple(phi(v) if k == j - 1 else v for k, v in enumerate(s))
            a = shapley_shubik_bruteforce(f, ValuePair(r, s))
            b = shapley_shubik_bruteforce(f2, ValuePair(r2, s2))
            assert a.z == pytest.approx(b.z, rel=1e-12, abs=1e-12)


class TestValueVariant:
    def test_no_change_gives_zeros(self):
        res = value_variant_attribution(product_function(2), ValuePair((1.0, 2.0), (1.0, 2.0)), hash_order_weights)
        assert res.z == (0.0, 0.0)

    def test_single_variable_gets_everything(self):
        res = value_variant_attribution(lambda x: x[0] ** 2, ValuePair((1.0,), (3.0,)), hash_order_weights)
        assert res.z == (8.0,)

    def test_explicit_weights_through_general_signature(self):
        weights = PermutationWeights({(1, 2): 0.25, (2, 1): 0.75})
        res = value_variant_attribution(
            product_function(2), ValuePair((0.0, 0.0), (1.0, 1.0)), lambda vp: weights
        )
        assert res.z == pytest.approx((0.75, 0.25), rel=1e-15)

    def test_hash_weights_are_reproducible_and_valid(self):
        vp = ValuePair((0.0, 0.5, 1.0), (1.0, 1.5, 2.0))
        w1 = hash_order_weights(vp)
        w2 = hash_order_weights(vp)
        assert w1.weights == w2.weights
        assert len(w1.weights) == 6
        assert math.fsum(w1.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_hash_weights_depend_on_values(self):
        w1 = hash_order_weights(ValuePair((0.0, 0.0), (1.0, 1.0)))
        w2 = hash_order_weights(ValuePair((0.0, 0.0), (1.0, 2.0)))
        assert w1.weights != w2.weights

    def test_completeness_by_construction(self):
        gen = InstanceGenerator(seed=11, n_range=(1, 5))
        for trial in range(20):
            f, vp, _ = gen.instance(trial)
            res = value_variant_attribution(f, vp, hash_order_weights)
            total = evaluate(f, vp.s) - evaluate(f, vp.r)
            assert abs(math.fsum(res.z) - total) <= 1e-10 * (1.0 + abs(total))


@given(charfn_pairs(max_n=5))
def test_random_weight_completeness(pair):
    f, vp = pair
    n = f.n
    orders = list(itertools.permutations(range(1, n + 1)))
    rng = random.Random(n)
    picks = rng.sample(orders, min(3, len(orders)))
    raw = [rng.uniform(0.1, 1.0) for _ in picks]
    total_w = math.fsum(raw)
    pw = PermutationWeights({o: w / total_w for o, w in zip(picks, raw)})
    res = random_order_attribution(f, vp, pw)
    total = evaluate(f, vp.s) - evaluate(f, vp.r)
    assert abs(math.fsum(res.z) - total) <= 1e-10 * (1.0 + abs(total))


def test_oracle_equivalence_seeded_sample():
    gen = InstanceGenerator(seed=23, n_range=(1, 6))
    for trial in range(25):
        f, vp, _ = gen.instance(trial)
        a = attribute_ass(f, vp)
        b = shapley_shubik_bruteforce(f, vp)
        for x, y in zip(a.z, b.z):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))
