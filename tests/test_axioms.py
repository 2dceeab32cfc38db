import hashlib
import math

import pytest

from attrib import (
    AXIOM_IDS,
    BlackBoxFunction,
    InstanceGenerator,
    PermutationWeights,
    ValuePair,
    attribute_ass,
    attribute_naive,
    check_axiom,
    divergence_witness,
    product_function,
    random_order_attribution,
    run_axiom_suite,
)


def single_order_method(order):
    return lambda f, vp: random_order_attribution(f, vp, PermutationWeights.single(order))


class TestGenerator:
    def test_deterministic_given_seed(self):
        g = InstanceGenerator(seed=9)
        f1, vp1, _ = g.instance(4)
        f2, vp2, _ = g.instance(4)
        assert f1.multilinear.terms == f2.multilinear.terms
        assert vp1 == vp2

    def test_trials_are_independent_of_each_other(self):
        g = InstanceGenerator(seed=9)
        a = g.instance(3)[1]
        _ = g.instance(7)
        b = g.instance(3)[1]
        assert a == b

    def test_distinct_resampling(self):
        g = InstanceGenerator(seed=5, n_range=(3, 3))
        for trial in range(10):
            _, vp, _ = g.instance(trial)
            assert all(r != s for r, s in zip(vp.r, vp.s))

    def test_draws_are_pinned(self):
        # the benchmark's small-calls workload draws its instances here, so a
        # change to the generator must not change what it draws
        h = hashlib.sha256()
        for g in (InstanceGenerator(seed=101), InstanceGenerator(seed=101, nonneg_coeffs=True, nonneg_values=True)):
            for trial in range(20):
                f, vp, _ = g.instance(trial)
                h.update(repr((f.as_dict(), vp.r, vp.s)).encode())
        assert h.hexdigest() == "b9c6d793803e6531b053542ebcd605bb7c0658be46f44d20725c935dfe135b9c"

    def test_fixed_function(self):
        g = InstanceGenerator(seed=1, fixed_f=product_function(2))
        f, vp, _ = g.instance(0)
        assert f.multilinear.terms == {(1, 2): 1.0}
        assert vp.n == 2

    def test_preload_comes_first(self):
        f = product_function(3)
        vp = ValuePair((4.0, 1.0, 1.0), (5.0, 12.0, 1.5))
        g = InstanceGenerator(seed=1, preload=((f, vp),))
        got_f, got_vp, _ = g.instance(0)
        assert got_f is f and got_vp is vp


class TestCheckAxiom:
    def test_unknown_axiom(self):
        with pytest.raises(ValueError):
            check_axiom(attribute_ass, "heroism", InstanceGenerator(), 5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_an_error(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            check_axiom(attribute_ass, "completeness", InstanceGenerator(), trials)
        with pytest.raises(ValueError, match="at least one trial"):
            run_axiom_suite(attribute_ass, trials=trials)

    def test_exact_method_passes_completeness(self):
        v = check_axiom(attribute_ass, "completeness", InstanceGenerator(seed=2), trials=50)
        assert v.passed and v.worst <= 1e-10

    def test_exact_method_dummy_is_exact_zero(self):
        v = check_axiom(attribute_ass, "dummy", InstanceGenerator(seed=3), trials=50)
        assert v.passed and v.worst == 0.0

    def test_naive_fails_completeness_with_reference_counterexample(self, procurement):
        f, vp = procurement
        g = InstanceGenerator(seed=4, preload=((f, vp),))
        v = check_axiom(attribute_naive, "completeness", g, trials=50)
        assert not v.passed
        assert v.counterexample["r"] == [4.0, 1.0, 1.0]
        assert v.counterexample["s"] == [5.0, 12.0, 1.5]
        assert v.counterexample["residual"] == pytest.approx(44.5, abs=1e-12)

    def test_single_order_fails_anonymity_within_50_trials(self):
        g = InstanceGenerator(seed=6, fixed_f=product_function(2))
        v = check_axiom(single_order_method((1, 2)), "anonymity", g, trials=50)
        assert not v.passed
        assert v.counterexample is not None

    def test_single_order_still_satisfies_completeness(self):
        g = InstanceGenerator(seed=7, fixed_f=product_function(2))
        v = check_axiom(single_order_method((1, 2)), "completeness", g, trials=50)
        assert v.passed

    def test_method_exception_becomes_failed_verdict(self):
        def broken(f, vp):
            raise RuntimeError("boom")

        v = check_axiom(broken, "completeness", InstanceGenerator(seed=8), trials=10)
        assert not v.passed
        assert "boom" in v.note
        assert v.worst == math.inf

    def test_degenerate_box_suite(self):
        v = check_axiom(attribute_ass, "dummy-on-box", InstanceGenerator(seed=9), trials=50)
        assert v.passed and v.worst == 0.0

    def test_verdict_serializes(self):
        import json

        v = check_axiom(attribute_naive, "completeness", InstanceGenerator(seed=10), trials=5)
        round_trip = json.loads(json.dumps(v.to_dict()))
        assert round_trip["axiom"] == "completeness"
        assert round_trip["passed"] == v.passed


class TestSuite:
    def test_exact_method_passes_all_nine(self):
        verdicts = run_axiom_suite(attribute_ass, InstanceGenerator(seed=12), trials=40)
        assert [v.axiom for v in verdicts] == list(AXIOM_IDS)
        assert len(verdicts) == 9
        for v in verdicts:
            assert v.passed, f"{v.axiom} worst={v.worst}"


class TestDivergenceWitness:
    def test_square_term_gap_is_one_sixth(self):
        bb = BlackBoxFunction(2, lambda x: x[0] * x[0] * x[1])
        rep = divergence_witness(bb, ValuePair((0.0, 0.0), (1.0, 1.0)))
        assert rep.z_as.z[1] == pytest.approx(1.0 / 3.0, abs=1e-7)
        assert rep.z_ss.z[1] == pytest.approx(0.5, abs=1e-12)
        assert rep.max_gap == pytest.approx(1.0 / 6.0, abs=1e-7)

    def test_multilinear_has_no_gap(self):
        rep = divergence_witness(product_function(2), ValuePair((0.2, -0.4), (1.5, 2.5)))
        assert rep.max_gap <= 1e-7

    def test_separable_has_no_gap(self):
        bb = BlackBoxFunction(2, lambda x: x[0] + math.exp(x[1]))
        rep = divergence_witness(bb, ValuePair((0.0, 0.0), (1.0, 1.0)))
        assert rep.max_gap <= 1e-7

    def test_report_serializes(self):
        import json

        rep = divergence_witness(product_function(2), ValuePair((0.0, 0.0), (1.0, 1.0)))
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["max_gap"] <= 1e-7
