import math

import numpy as np
import pytest

from attrib import (
    BlackBoxFunction,
    QuadratureConfig,
    SeparableTerm,
    ValuePair,
    attribute_ass,
    attribute_aumann_shapley,
    attribute_path,
    edge_walk,
    evaluate,
    from_terms,
    monomial,
    product_function,
    shapley_shubik_bruteforce,
    straight_line,
)
from attrib.paths import _nodes
from attrib.axioms import InstanceGenerator


def _edge_walk_mix(f, vp: ValuePair, weight: float) -> tuple[float, ...]:
    """weight times the edge walk moving variable 1 first, plus 1 - weight times the walk moving 2 first."""
    first = attribute_path(f, vp, edge_walk((1, 2))).z
    second = attribute_path(f, vp, edge_walk((2, 1))).z
    return tuple(weight * a + (1.0 - weight) * b for a, b in zip(first, second))


class _CountedGradients:
    """f, recording the shape of every point array its `gradients` is called on."""

    def __init__(self, f):
        self.f, self.shapes = f, []

    def __call__(self, x):
        return self.f(x)

    def gradients(self, X):
        self.shapes.append(X.shape)
        return self.f.gradients(X)


def _affine(base, vp: ValuePair, ts):
    """Points r + (s - r) * gamma(t) and velocities (s - r) * gamma'(t), one row per t."""
    r, d = np.asarray(vp.r), np.asarray(vp.s) - np.asarray(vp.r)
    t = np.asarray(ts, dtype=float)
    return r + d * base.g(t), d * base.dg(t)


class TestAffinePath:
    def test_straight_line_midpoint(self):
        point, velocity = _affine(straight_line(), ValuePair((0.0, 0.0), (2.0, 4.0)), [0.5])
        assert point.tolist() == [[1.0, 2.0]]
        assert velocity.tolist() == [[2.0, 4.0]]

    def test_edge_walk_quarter(self):
        vp = ValuePair((1.0, 10.0), (3.0, 20.0))
        point, _ = _affine(edge_walk((1, 2)), vp, [0.25])
        # at t=0.25 the first variable is halfway, the second has not moved
        assert point.tolist() == [[2.0, 10.0]]

    @pytest.mark.parametrize("order", [(), (1, 3), (1, 1)])
    def test_edge_walk_rejects_non_order(self, order):
        with pytest.raises(ValueError, match="empty order" if not order else "not an order over"):
            edge_walk(order)

    def test_any_path_ends_at_final(self):
        vp = ValuePair((1.0, -1.0, 2.0), (4.0, 5.0, -3.0))
        for base in (straight_line(), edge_walk((2, 3, 1))):
            (start, end), _ = _affine(base, vp, [0.0, 1.0])
            assert start.tolist() == pytest.approx(list(vp.r), abs=1e-12)
            assert end.tolist() == pytest.approx(list(vp.s), abs=1e-12)


class TestAttributePath:
    def test_equal_split_on_straight_line(self):
        res = attribute_path(product_function(2), ValuePair((0.0, 0.0), (1.0, 1.0)), straight_line())
        assert res.converged
        assert res.z == pytest.approx((0.5, 0.5), abs=1e-10)

    def test_path_over_another_variable_count_is_refused(self):
        vp = ValuePair((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="over 2 variables, values have 3"):
            attribute_path(product_function(3), vp, edge_walk((1, 2)))

    def test_black_box_square_straight_line(self):
        res = attribute_path(lambda x: x[0] * x[0] * x[1], ValuePair((0.0, 0.0), (1.0, 1.0)), straight_line())
        assert res.z[1] == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert res.z[0] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_black_box_square_edge_walk_average(self):
        f = lambda x: x[0] * x[0] * x[1]
        vp = ValuePair((0.0, 0.0), (1.0, 1.0))
        z = _edge_walk_mix(f, vp, 0.5)
        assert z[1] == pytest.approx(0.5, abs=1e-8)
        brute = shapley_shubik_bruteforce(f, vp)
        assert z == pytest.approx(brute.z, abs=1e-8)

    def test_analytic_gradient_is_used(self):
        calls = {"grad": 0}

        def grad(x):
            calls["grad"] += 1
            return [x[1], x[0]]

        bb = BlackBoxFunction(2, lambda x: x[0] * x[1], grad=grad)
        res = attribute_path(bb, ValuePair((0.0, 0.0), (1.0, 1.0)), straight_line())
        assert calls["grad"] > 0
        assert res.z == pytest.approx((0.5, 0.5), abs=1e-10)

    def test_characteristic_function_takes_one_gradient_call_per_pass(self):
        f = _CountedGradients(product_function(2))
        res = attribute_path(f, ValuePair((0.0, 0.0), (1.0, 1.0)), straight_line())
        # polynomial integrand: the 8-panel pass and the 16-panel pass agree
        assert res.converged
        assert f.shapes == [(8 * 16, 2), (16 * 16, 2)]

    def test_fine_passes_take_gradients_in_blocks(self, monkeypatch):
        import attrib.paths

        f, vp = _CountedGradients(product_function(2)), ValuePair((0.5, -1.0), (2.0, 3.0))
        whole = attribute_path(f, vp, straight_line())
        f.shapes.clear()
        monkeypatch.setattr(attrib.paths, "_CHUNK_ELEMENTS", 64)
        blocked = attribute_path(f, vp, straight_line())
        assert [rows for rows, _ in f.shapes] == [32] * (4 + 8)
        assert blocked.converged and blocked.z == pytest.approx(whole.z, rel=1e-14)

    def test_no_change_converges_to_zero(self):
        res = attribute_path(product_function(2), ValuePair((1.0, 2.0), (1.0, 2.0)), straight_line())
        assert res.converged
        assert res.z == (0.0, 0.0)

    def test_nonconvergence_is_flagged_not_raised(self):
        rough = BlackBoxFunction(1, lambda x: abs(x[0] - 0.3333) ** 1.5)
        q = QuadratureConfig(tol=1e-14, max_refine=2)
        res = attribute_path(rough, ValuePair((0.0,), (1.0,)), straight_line(), q)
        assert not res.converged
        assert res.z[0] == pytest.approx(rough((1.0,)) - rough((0.0,)), rel=0.1)

    def test_a_non_finite_pass_ends_the_refinement(self):
        # every node's gradient overflows, so no finer pass could agree with the first
        f = _CountedGradients(product_function(6))
        res = attribute_aumann_shapley(f, ValuePair((1e150,) * 6, (2e150,) + (-1e150,) * 5))
        assert not res.converged and not all(map(math.isfinite, res.z))
        assert f.shapes == [(8 * 16, 6)]


class TestAumannShapley:
    def test_matches_exact_on_procurement(self, procurement):
        f, vp = procurement
        res = attribute_aumann_shapley(f, vp)
        exact = attribute_ass(f, vp)
        assert res.method == "as-numeric"
        assert res.z == pytest.approx(exact.z, rel=1e-8)

    def test_separable_reduces_to_endpoint_differences(self):
        f = from_terms(2, {}, [SeparableTerm(1, "exp", (1.0, 0.0, 1.0)), SeparableTerm(2, "poly", (0.0, 0.0, 1.0))])
        vp = ValuePair((0.0, 1.0), (1.0, 2.0))
        res = attribute_aumann_shapley(f, vp)
        assert res.z[0] == pytest.approx(math.e - 1.0, rel=1e-10)
        assert res.z[1] == pytest.approx(3.0, rel=1e-10)

    def test_a_move_past_the_double_range_is_flagged_without_numpy_warnings(self):
        import warnings

        # s - r for -1e308 to 1e308 overflows to inf before any gradient is taken
        vp = ValuePair((-1e308, 2.0), (1e308, 6.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = attribute_aumann_shapley(from_terms(2, {(1, 2): 2.0}), vp)
        assert not res.converged

    def test_zero_change(self):
        res = attribute_aumann_shapley(product_function(3), ValuePair((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)))
        assert res.z == (0.0, 0.0, 0.0)

    def test_agreement_on_random_instances(self):
        gen = InstanceGenerator(seed=31, n_range=(1, 5))
        for trial in range(10):
            f, vp, _ = gen.instance(trial)
            num = attribute_aumann_shapley(f, vp)
            exact = attribute_ass(f, vp)
            assert num.converged
            for a, b in zip(num.z, exact.z):
                assert abs(a - b) <= 1e-7 * max(1.0, abs(a), abs(b))

    def test_affine_scale_invariance_numeric(self):
        from attrib import affine_reparameterize

        gen = InstanceGenerator(seed=37, n_range=(2, 4))
        for trial in range(5):
            f, vp, rng = gen.instance(trial)
            j = rng.randint(1, f.n)
            c, d = 2.5, -1.25
            g = affine_reparameterize(f, j, c, d)
            r = list(vp.r)
            s = list(vp.s)
            r[j - 1] = c * r[j - 1] + d
            s[j - 1] = c * s[j - 1] + d
            a = attribute_aumann_shapley(f, vp)
            b = attribute_aumann_shapley(g, ValuePair(tuple(r), tuple(s)))
            for x, y in zip(a.z, b.z):
                assert abs(x - y) <= 1e-7 * max(1.0, abs(x), abs(y))


class TestConvexCombination:
    def test_even_edge_walk_mix_is_equal_split(self):
        z = _edge_walk_mix(product_function(2), ValuePair((0.0, 0.0), (1.0, 1.0)), 0.5)
        assert z == pytest.approx((0.5, 0.5), abs=1e-10)

    def test_uneven_mix_matches_order_weights(self):
        z = _edge_walk_mix(product_function(2), ValuePair((0.0, 0.0), (1.0, 1.0)), 0.25)
        assert z == pytest.approx((0.75, 0.25), abs=1e-10)


class TestQuadrature:
    def test_exact_for_low_degree_without_refinement(self):
        # single unrefined pass at order 16 is exact for polynomial integrands
        gen = InstanceGenerator(seed=41, n_range=(1, 6), separable=False)
        t, w = _nodes((0.0, 1.0), 16, 1)
        for trial in range(10):
            f, vp, _ = gen.instance(trial)
            point, velocity = _affine(straight_line(), vp, t)
            est = w @ (f.gradients(point) * velocity)
            exact = attribute_ass(f, vp)
            for a, b in zip(est, exact.z):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    @pytest.mark.parametrize("breaks, order, panels", [((0.0, 1.0), 1, 1), ((0.0, 1.0), 16, 1), ((0.0, 1.0), 7, 3), ((0.0, 0.25, 0.5, 1.0), 16, 8)])
    def test_nodes_match_the_panel_loop_bit_for_bit(self, breaks, order, panels):
        x, w = np.polynomial.legendre.leggauss(order)
        want_t, want_w = [], []
        for a, b in zip(breaks, breaks[1:]):
            h = (b - a) / panels
            for p in range(panels):
                mid, half = a + (p + 0.5) * h, 0.5 * h
                want_t += [mid + half * v for v in x]
                want_w += [u * half for u in w]
        t, wt = _nodes(breaks, order, panels)
        assert t.tolist() == want_t and wt.tolist() == want_w
        if breaks == (0.0, 1.0) and panels == 1:
            assert t.tolist() == [0.5 * (v + 1.0) for v in x]  # the rule on [0, 1] the exact kernel has always used

    @pytest.mark.parametrize(
        "base, cap, passes", [(straight_line(), 512, [128, 256, 512]), (straight_line(), 1, [128]), (edge_walk((1, 2, 3)), 512, [384])],
        ids=["straight-line", "first-pass-over-the-cap", "edge-walk"],
    )
    def test_refining_stops_before_a_pass_over_the_node_cap(self, monkeypatch, base, cap, passes):
        # a steep log term never converges at tol 1e-300: without the cap, 40 doublings would build 2^47 nodes
        from attrib import paths

        sizes = []

        def counted(breaks, order, panels):
            sizes.append((len(breaks) - 1) * order * panels)
            assert sizes[-1] <= 1 << 16, sizes  # a missing cap fails here, before the passes outgrow memory
            return _nodes(breaks, order, panels)

        f = from_terms(3, {(1, 2, 3): 1.0}, [SeparableTerm(1, "log", (1.0, 1e-12, 1.0))])
        vp = ValuePair((0.0, 1.0, 2.0), (1.0, 2.0, 0.5))
        monkeypatch.setattr(paths, "_MAX_PASS_NODES", cap)
        monkeypatch.setattr(paths, "_nodes", counted)
        res = attribute_path(f, vp, base, QuadratureConfig(tol=1e-300, max_refine=40))
        assert sizes == passes
        # the estimate of the last pass, unconverged, as when the doublings run out there
        assert repr(res) == repr(attribute_path(f, vp, base, QuadratureConfig(tol=1e-300, max_refine=len(passes) - 1)))
        assert not res.converged

    def test_composite_panels(self):
        t, w = _nodes((0.0, math.pi), 8, 4)
        assert w @ np.sin(t) == pytest.approx(2.0, rel=1e-12)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            QuadratureConfig(max_refine=-1)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                QuadratureConfig(tol=tol)


def test_path_completeness_property():
    gen = InstanceGenerator(seed=43, n_range=(1, 4))
    q = QuadratureConfig()
    for trial in range(8):
        f, vp, rng = gen.instance(trial)
        order = list(range(1, f.n + 1))
        rng.shuffle(order)
        for base in (straight_line(), edge_walk(order)):
            res = attribute_path(f, vp, base, q)
            total = evaluate(f, vp.s) - evaluate(f, vp.r)
            assert abs(math.fsum(res.z) - total) <= 10 * q.tol * (1.0 + abs(total))
