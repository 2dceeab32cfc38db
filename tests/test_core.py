import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from attrib import (
    AttributionResult,
    CharacteristicFunction,
    DomainError,
    MultilinearPoly,
    PermutationWeights,
    SeparableTerm,
    ValuePair,
    affine_reparameterize,
    attribute_ass,
    attribute_aumann_shapley,
    attribute_naive,
    attribute_path,
    combine,
    edge_walk,
    evaluate,
    from_terms,
    monomial,
    partial_derivative,
    permute_variables,
    permute_vector,
    product_function,
    random_order_attribution,
    shapley_shubik_bruteforce,
)

from attrib.core import ReadOnlyDict, _monomial_partials
from attrib.exact import attribute_ass_batch
from conftest import charfn_pairs, charfns, flow_graphs, multilinear_terms


def test_evaluate_single_monomial():
    f = monomial(2, (1, 2))
    assert evaluate(f, (3.0, 4.0)) == 12.0


def test_evaluate_procurement_endpoints(procurement):
    f, vp = procurement
    assert evaluate(f, vp.r) == 4.0
    assert evaluate(f, vp.s) == 90.0


def test_evaluate_with_log_term():
    f = from_terms(2, {(1, 2): 1.0}, [SeparableTerm(1, "log", (1.0, 0.0, 1.0))])
    assert evaluate(f, (1.0, 5.0)) == 5.0


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(product_function(3), (1.0, 2.0))


def test_log_rejects_nonpositive():
    f = from_terms(1, {}, [SeparableTerm(1, "log", (1.0, 0.0, 1.0))])
    with pytest.raises(DomainError):
        evaluate(f, (0.0,))
    with pytest.raises(DomainError):
        evaluate(f, (-1.0,))


def test_monomial_rejects_repeated_index():
    with pytest.raises(ValueError):
        MultilinearPoly(2, {(1, 1): 1.0})


def test_terms_are_canonicalized_and_pruned():
    p = MultilinearPoly(3, [((2, 1), 1.0), ((1, 2), -1.0), ((3,), 2.0)])
    assert p.terms == {(3,): 2.0}


def test_partial_derivative_of_product():
    f = product_function(3)
    d1 = partial_derivative(f, 1)
    assert d1.multilinear.terms == {(2, 3): 1.0}


def test_partial_derivative_with_linear_term():
    f = from_terms(2, {(1, 2): 1.0, (2,): 5.0})
    d2 = partial_derivative(f, 2)
    assert d2.multilinear.terms == {(): 5.0, (1,): 1.0}


def test_partial_derivative_dummy_variable():
    f = from_terms(3, {(1, 2): 1.0})
    d3 = partial_derivative(f, 3)
    assert d3.multilinear.is_zero() and not d3.separable


def test_partial_derivative_index_out_of_range():
    with pytest.raises(ValueError):
        partial_derivative(product_function(2), 3)


def test_second_partial_of_multilinear_part_vanishes():
    f = from_terms(4, {(1, 2, 3): 2.5, (2, 4): -1.0, (1,): 3.0})
    for i in range(1, 5):
        dd = partial_derivative(partial_derivative(f, i), i)
        assert dd.multilinear.is_zero()


def test_combine_cancels_exactly():
    f = monomial(2, (1, 2))
    g = combine(f, f, 1.0, -1.0)
    assert g.multilinear.is_zero()


def test_combine_merges():
    g = combine(monomial(2, (1, 2)), monomial(2, (1,)))
    assert g.multilinear.terms == {(1,): 1.0, (1, 2): 1.0}


def test_combine_weighted_evaluation():
    g = combine(product_function(3), monomial(3, (2, 3)), 2.0, 3.0)
    assert evaluate(g, (1.0, 1.0, 1.0)) == 5.0


def test_combine_dimension_mismatch():
    with pytest.raises(ValueError):
        combine(product_function(2), product_function(3))


def test_permute_linear():
    f = from_terms(2, {(1,): 1.0, (2,): 2.0})
    g = permute_variables(f, (2, 1))
    assert g.multilinear.terms == {(1,): 2.0, (2,): 1.0}


def test_permute_symmetric_monomial():
    f = product_function(3)
    for sigma in ((2, 3, 1), (3, 1, 2), (1, 3, 2)):
        assert permute_variables(f, sigma).multilinear.terms == f.multilinear.terms


def test_permute_relabels_subsets():
    f = monomial(3, (1, 3), 5.0)
    g = permute_variables(f, (2, 3, 1))
    assert g.multilinear.terms == {(1, 2): 5.0}
    x = (0.3, -1.7, 2.0)
    assert evaluate(g, permute_vector((2, 3, 1), x)) == pytest.approx(evaluate(f, x), rel=1e-12)


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_variables(product_function(2), (1, 1))


def test_affine_reparameterize_scaling_only():
    g = affine_reparameterize(monomial(2, (1, 2)), 1, 2.0, 0.0)
    assert g.multilinear.terms == {(1, 2): 0.5}


def test_affine_reparameterize_with_shift():
    g = affine_reparameterize(monomial(2, (1, 2)), 1, 2.0, 1.0)
    assert g.multilinear.terms == {(1, 2): 0.5, (2,): -0.5}
    for x in ((0.5, 3.0), (-2.0, 1.25), (4.0, -0.75)):
        y = (2.0 * x[0] + 1.0, x[1])
        assert evaluate(g, y) == pytest.approx(evaluate(monomial(2, (1, 2)), x), rel=1e-12)


def test_affine_reparameterize_pure_shift():
    g = affine_reparameterize(monomial(1, (1,)), 1, 1.0, 5.0)
    assert g.multilinear.terms == {(): -5.0, (1,): 1.0}


def test_affine_reparameterize_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        affine_reparameterize(product_function(2), 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        affine_reparameterize(product_function(2), 1, -2.0, 1.0)


@pytest.mark.parametrize(
    "c, d, message",
    [
        (math.inf, 0.0, "scale must be finite and greater than 0, got inf"),
        (math.nan, 0.0, "scale must be finite and greater than 0, got nan"),
        (1.0, math.inf, "shift must be finite, got inf"),
        (1.0, math.nan, "shift must be finite, got nan"),
    ],
    ids=["scale-inf", "scale-nan", "shift-inf", "shift-nan"],
)
def test_affine_reparameterize_rejects_non_finite_arguments(c, d, message):
    # an infinite scale gave the zero function, and an infinite shift an error about a monomial the caller never wrote
    f = from_terms(2, {(1, 2): 1.0}, [SeparableTerm(1, "poly", (0.0, 0.0, 1.0))])
    with pytest.raises(ValueError) as info:
        affine_reparameterize(f, 1, c, d)
    assert str(info.value) == message


def test_value_pair_validation():
    with pytest.raises(ValueError):
        ValuePair((1.0,), (1.0, 2.0))
    with pytest.raises(ValueError):
        ValuePair((float("nan"),), (1.0,))


def _cancelling_row():
    """f = ab - ac + d with a 1 -> 1.1, b 1e17 -> 1e17 + 16, c = 1e17, d 0 -> 1: ab - ac cancels in floating point."""
    f = from_terms(4, {(1, 2): 1.0, (1, 3): -1.0, (4,): 1.0})
    return f, ValuePair((1.0, 1e17, 1e17, 0.0), (1.1, 100000000000000016, 1e17, 1.0))


_METHODS = {
    "ass": attribute_ass,
    "ass-batch": lambda f, vp: attribute_ass_batch(f, np.array([vp.r]), np.array([vp.s]))[0],
    "as-numeric": attribute_aumann_shapley,
    "edge-walk": lambda f, vp: attribute_path(f, vp, edge_walk((1, 2, 3, 4))),
    "naive": attribute_naive,
    "ss-brute": shapley_shubik_bruteforce,
    "random-order": lambda f, vp: random_order_attribution(f, vp, PermutationWeights.uniform(4)),
}


@pytest.mark.parametrize(
    "method, residual, converged",
    [
        ("ass", 0.8, False),
        ("ass-batch", 0.8, False),
        ("as-numeric", 1.6, False),
        ("edge-walk", 1.6, False),
        # naive's residual is its point, so the gate leaves it alone
        ("naive", 3.2, True),
        # the order walks telescope to residual 0 against the rounded f(s) - f(r), so no gate on that
        # residual could see their error; test_every_change_comes_from_differences flags them
        ("ss-brute", 0.0, None),
        ("random-order", 0.0, None),
    ],
)
def test_result_is_distrusted_where_completeness_misses(method, residual, converged):
    """z keeps its bits, so sum(z) less the rounded f(s) - f(r) = 17.0 is the residual it always had."""
    f, vp = _cancelling_row()
    res = _METHODS[method](f, vp)
    assert math.fsum(res.z) - (evaluate(f, vp.s) - evaluate(f, vp.r)) == pytest.approx(residual, abs=1e-12)
    assert math.isfinite(res.change) and all(map(math.isfinite, res.z))
    if converged is not None:
        assert res.converged is converged


@pytest.mark.parametrize(
    "method, residual, converged",
    [
        ("ass", -1.2, False),
        ("ass-batch", -1.2, False),
        ("as-numeric", -0.4, False),
        ("edge-walk", -0.4, False),
        # naive's residual is its point, so the gate leaves it alone
        ("naive", 1.2, True),
        # the order walks telescope to f(s) - f(r) = 17.0, so only a change that is not that difference can flag them
        ("ss-brute", -2.0, False),
        ("random-order", -2.0, False),
    ],
)
def test_every_change_comes_from_differences(method, residual, converged):
    """Every method's change, 19.0 (exact 18.6), comes from differences; the rounded f(s) - f(r) is 17.0."""
    f, vp = _cancelling_row()
    res = _METHODS[method](f, vp)
    assert evaluate(f, vp.s) - evaluate(f, vp.r) == 17.0 and res.change == 19.0
    assert res.residual == pytest.approx(residual, abs=1e-12)
    assert all(map(math.isfinite, res.z))
    assert res.converged is converged


@pytest.mark.parametrize(
    "z, change, kernel_converged, fault",
    [
        ((1.0, 2.0), 3.0, True, None),
        ((1.0, 2.0), 3.0, False, "unconverged"),
        # a fault _distrust finds comes before the kernel's own
        ((1.0, 2.0), 4.0, False, "residual"),
        ((math.inf, 2.0), 3.0, False, "non-finite"),
    ],
)
def test_result_carries_one_verdict(z, change, kernel_converged, fault):
    res = AttributionResult("ass", z, change, kernel_converged)
    assert res.fault == fault and res.converged is (fault is None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_multilinear_rejects_non_finite_coefficient(bad):
    with pytest.raises(ValueError, match=r"monomial \(1,\) has non-finite coefficient"):
        from_terms(1, {(1,): bad})
    with pytest.raises(ValueError, match=r"monomial \(1, 2\) has non-finite coefficient"):
        MultilinearPoly(2, {(1, 2): 1.0, (2, 1): bad})


def test_multilinear_rejects_coefficients_that_sum_past_the_double_range():
    with pytest.raises(ValueError, match="non-finite coefficient"):
        MultilinearPoly(1, [((1,), 1e308), ((1,), 1e308)])


@pytest.mark.parametrize("kind, params", [("poly", (math.inf,)), ("affine", (1.0, math.nan)), ("exp", (1.0, 0.0, -math.inf)), ("powlaw", (1.0, 0.0, 1.0, math.inf))])
def test_separable_rejects_non_finite_parameter(kind, params):
    with pytest.raises(ValueError, match=rf"{kind} term on variable 2 has a non-finite parameter"):
        SeparableTerm(2, kind, params)


def test_separable_term_beyond_the_variable_count_rejected():
    with pytest.raises(ValueError) as info:
        from_terms(2, {}, [SeparableTerm(3, "poly", (1.0, 2.0))])
    assert str(info.value) == "separable term index 3 exceeds variable count 2"


class TestReadOnlyRecords:
    def test_read_only_dict_refuses_every_mutator(self):
        d = ReadOnlyDict({"a": 1})
        mutators = [
            lambda: d.__setitem__("b", 2),
            lambda: d.__delitem__("a"),
            d.clear,
            lambda: d.pop("a"),
            d.popitem,
            lambda: d.setdefault("b", 2),
            lambda: d.update(b=2),
        ]
        for mutate in mutators:
            with pytest.raises(TypeError):
                mutate()
        with pytest.raises(TypeError):
            d |= {"b": 2}
        assert d == {"a": 1} and type(d) is ReadOnlyDict

    def test_read_only_dict_pickles_and_copies_as_its_contents(self):
        d = ReadOnlyDict({(1, 2): 0.5, (): -1.0})
        for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
            assert type(twin) is ReadOnlyDict and twin == d and list(twin) == list(d)

    def test_function_refuses_changes_after_its_checks(self):
        f = product_function(2)
        with pytest.raises(TypeError):
            f.multilinear.terms[(3,)] = 1.0
        for record, name in ((f, "separable"), (f, "multilinear"), (f.multilinear, "n"), (f.multilinear, "terms")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
        assert f.multilinear.terms == {(1, 2): 1.0}
        assert attribute_ass(f, ValuePair((1.0, 1.0), (2.0, 3.0))).z == pytest.approx((2.0, 3.0))

    def test_function_keeps_a_copy_of_its_terms(self):
        terms = {(1, 2): 2.0}
        f = from_terms(2, terms)
        terms[(1,)] = 5.0
        assert f.multilinear.terms == {(1, 2): 2.0} and type(f.multilinear.terms) is ReadOnlyDict

    def test_function_pickles_and_copies(self):
        f = from_terms(3, {(1, 2): 2.0, (3,): -1.0}, [SeparableTerm(2, "log", (1.0, 0.5, 2.0))])
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert twin == f and twin((1.0, 2.0, 3.0)) == f((1.0, 2.0, 3.0))
            assert type(twin.multilinear.terms) is ReadOnlyDict


_EVERY_KIND = [
    SeparableTerm(1, "poly", (0.5, -2.0, 3.0)),
    SeparableTerm(1, "affine", (4.0, 1.0)),
    SeparableTerm(1, "log", (2.0, 1.0, 1.5)),
    SeparableTerm(1, "exp", (0.5, -1.0, 3.0)),
    SeparableTerm(1, "powlaw", (1.0, 2.0, 0.5, -3.0)),
]


# pairs where a term's change is taken from b - a: |alpha (b - a)| < 1 for exp, a ratio below 1/2 for log, and for poly
# a move by less than half of a; the powlaw's argument, 0.3 + 2, does not move between 0.3 and the next double up
_NEAR = {"exp": ((0.25, 1.75), (0.3, 0.30000000000000004)), "log": ((0.3, 0.30000000000000004),), "poly": ((0.3, 0.30000000000000004),)}


@pytest.mark.parametrize("term", _EVERY_KIND, ids=lambda t: t.kind + str(len(t.params)))
def test_separable_change_has_the_bits_of_the_value_difference(term):
    """Every kind where a and b are far apart or equal, and powlaw at the near pair too, where its argument does not move."""
    for a, b in ((0.25, 1.75), (3.0, 0.1), (1.0, 1.0), (0.3, 0.30000000000000004)):
        if (a, b) not in _NEAR.get(term.kind, ()):
            assert term.change(a, b).hex() == (term.value(b) - term.value(a)).hex()


@pytest.mark.parametrize(
    "term, a, b, exact",
    [
        # exact values of the terms at the given doubles, from mpmath at 50 digits, each rounded once
        (_EVERY_KIND[3], *_NEAR["exp"][0], 1.396904648718261),
        (_EVERY_KIND[3], *_NEAR["exp"][1], 3.558944238885531e-17),  # the plain difference is 0.0
        (_EVERY_KIND[2], *_NEAR["log"][0], 1.0408340855860843e-16),  # the plain difference is 0.0
        (_EVERY_KIND[2], 0.3, 0.35, 0.09093693272465224),
        (SeparableTerm(1, "exp", (0.5, 0.0, 2.0)), 100.0, 100.0000000001, 518479805657.24133),  # 518480986112.0 plain
    ],
)
def test_separable_change_near_a_is_taken_from_the_difference(term, a, b, exact):
    assert abs(term.change(a, b) - exact) <= math.ulp(exact)


@pytest.mark.parametrize(
    "term, a, b, exact, ulps",
    [
        # exact values of the terms at the given doubles, from fractions.Fraction, each rounded once
        # 3 (a + b) - 2 cancels to -0.2 inside the divided difference, so its roundings count 2 ulps; the plain difference is 0.0
        (_EVERY_KIND[0], *_NEAR["poly"][0], -1.110223024625156e-17, 2),
        (_EVERY_KIND[1], *_NEAR["poly"][0], 2.220446049250313e-16, 1),  # the plain difference is 0.0
        (SeparableTerm(1, "powlaw", (1.0, 0.0, 0.5, -3.0)), 0.3, 0.30000000000000004, -1.0279842820603298e-14, 1),  # -7.1e-15 plain
        (SeparableTerm(1, "poly", (0.0, 0.0, 1.0)), 1e8, 100000000.00000001, 2.9802322387695312, 1),  # 2.0 plain
        (SeparableTerm(1, "powlaw", (1.0, 0.0, 1.0, 2.0)), 1e8, 100000000.00000001, 2.9802322387695312, 1),  # 2.0 plain
        (SeparableTerm(1, "poly", (1e16, 1.0)), 0.0, 1.0, 1.0, 1),  # the values 1e16 and 1e16 + 1 round to one double: 0.0 plain
        (SeparableTerm(1, "poly", (1.0, -2.0, 1.0)), 1.0000001, 1.0000001000000002, 4.440892106023898e-23, 1),  # (x - 1)^2: 0.0 plain
    ],
)
def test_poly_and_powlaw_change_near_a_is_taken_from_the_difference(term, a, b, exact, ulps):
    assert abs(term.change(a, b) - exact) <= ulps * math.ulp(exact)


def _signed_powers(lo, hi):
    """±10^e for e in [lo, hi]: nothing subnormal, so rounding stays relative."""
    return st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(lo, hi))


@given(
    kind=st.sampled_from(["exp", "log"]),
    alpha=_signed_powers(-3, 0.6),
    beta=st.floats(-5, 5),
    scale=_signed_powers(-3, 0.6),
    a=st.floats(-50, 50),
    step=st.one_of(st.just(0.0), _signed_powers(-14, 1)),
)
def test_exp_and_log_changes_against_mpmath(kind, alpha, beta, scale, a, step):
    """Within a few ulps of the exact change, in units of how far rounding the exponent or argument moves it.

    The bound holds near a, where the change comes from b - a, and far from
    it, where the plain difference of two values does not cancel much; the
    plain difference near a misses it by about |value| / |change| ulps.
    """
    mpmath = pytest.importorskip("mpmath")
    b = a + step
    term = SeparableTerm(1, kind, (alpha, beta, scale))
    mpf = mpmath.mpf
    with mpmath.workdps(60):
        alpha_, beta_ = mpf(alpha), mpf(beta)
        if kind == "exp":
            exact = mpf(scale) * (mpmath.exp(alpha_ * mpf(b) + beta_) - mpmath.exp(alpha_ * mpf(a) + beta_))
            spread = 2 + abs(alpha * a) + abs(alpha * b) + abs(beta)
        else:
            lo, hi = alpha * a + beta, alpha * b + beta
            assume(lo > 0.0 and hi > 0.0)
            exact = mpf(scale) * (mpmath.log(alpha_ * mpf(b) + beta_) - mpmath.log(alpha_ * mpf(a) + beta_))
            spread = 2 + (abs(alpha * a) + abs(beta)) / lo + (abs(alpha * b) + abs(beta)) / hi + abs(math.log(lo)) + abs(math.log(hi))
        assert abs(mpf(term.change(a, b)) - exact) <= 8 * mpf(2) ** -53 * spread * abs(exact)


_CHANGE_FLOOR = Fraction(1, 2**1020)


def _divided_sum(coeffs, u, v):
    """sum_j |c_j| sum_{i<j} |u|^i |v|^(j-1-i) in exact rationals: the size of the divided difference's terms."""
    u, v = abs(Fraction(u)), abs(Fraction(v))
    return sum(abs(Fraction(c)) * sum(u**i * v ** (j - 1 - i) for i in range(j)) for j, c in enumerate(coeffs))


@st.composite
def _poly_or_powlaw(draw):
    """A poly (or affine) term of small coefficients, or a powlaw whose slope, offset and scale are ±10^e."""
    kind = draw(st.sampled_from(["poly", "affine", "powlaw"]))
    if kind == "powlaw":
        params = (draw(_signed_powers(-3, 0.6)), draw(st.floats(-5, 5, allow_subnormal=False)), draw(_signed_powers(-3, 0.6)),
                  draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
        return SeparableTerm(1, kind, params)
    return SeparableTerm(1, kind, draw(st.lists(st.floats(-2, 2), min_size=2 if kind == "affine" else 1, max_size=2 if kind == "affine" else 5)))


@example(SeparableTerm(1, "poly", (0.0, 0.0, 1.0)), 1e8, 1.4901161193847656e-08)  # the x^2 row: 2.0 plain, 2.98 exact
@example(SeparableTerm(1, "poly", (1.0, -2.0, 1.0)), 1.0000001, 2.220446049250313e-16)  # (x - 1)^2 near 1
@example(SeparableTerm(1, "poly", (1e16, 1.0)), 0.0, 1.0)  # the two values round to one double
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 0.5, -3.0)), 0.3, 5.551115123125783e-17)
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1.0, -1.0)), 1e-160, 2e-161)  # u v is below the normal range
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1.0, -2.0)), 1e-80, 1e-81)  # so is (u v)^2
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1.0, -1.0)), 1.4723717547227848e224, -2.0e208)  # u v overflows
@given(_poly_or_powlaw(), st.floats(-50, 50), st.one_of(st.just(0.0), _signed_powers(-16, 1)))
def test_poly_and_powlaw_changes_against_exact_rationals(term, a, step):
    """Within a few roundings of the size of the divided difference's terms, near a and far from it.

    A poly's change is (b - a) sum_j c_j sum_{i<j} a^i b^(j-1-i); a
    powlaw's is that of u^k between its arguments u and v, as the term
    rounds them, times its scale, over -(u v)^k for a power -k.  Horner's
    divided difference rounds each of its steps once, so the form is
    within a few roundings of the size of those terms.  Far from a the
    plain difference is taken, within a few times that size too.  Where
    the exact change is within that bound of 0, the form may round to 0
    and give way to the plain difference, so the bound adds its error: a
    few roundings of each value.  A rounding below the normal range is a
    step of 2^-1074 instead, which b - a and powers of x up to 51^4 carry
    up to at most _CHANGE_FLOOR.  The plain difference near a misses the
    bound by about |value| / |change| ulps.
    """
    b = a + step
    try:
        term.value(b), term.value(a)
    except DomainError as error:  # a zero base of a negative power, or a value past the doubles: the change raises it too
        with pytest.raises(DomainError, match=str(error)):
            term.change(a, b)
        return
    p = [Fraction(c) for c in term.params]
    if term.kind == "poly":
        u, v, k, coeffs, scale = a, b, len(p), term.params, Fraction(1)
        exact = sum(c * (Fraction(b) ** j - Fraction(a) ** j) for j, c in enumerate(p))
        values = sum(abs(c) * (abs(Fraction(a)) ** j + abs(Fraction(b)) ** j) for j, c in enumerate(p))
    else:
        u, v, e = term.params[0] * a + term.params[1], term.params[0] * b + term.params[1], int(term.params[3])
        k, coeffs = abs(e), (0.0,) * abs(e) + (1.0,)
        scale = abs(p[2]) / (abs(Fraction(u) * Fraction(v)) ** k if e < 0 else 1)
        exact = p[2] * (Fraction(v) ** e - Fraction(u) ** e)
        values = abs(p[2]) * (abs(Fraction(u) ** e) + abs(Fraction(v) ** e))
    bound = 16 * (k + 2) * _U * abs(Fraction(v) - Fraction(u)) * _divided_sum(coeffs, u, v) * scale
    if abs(exact) <= bound:
        bound += 16 * (k + 2) * _U * values
    bound += _CHANGE_FLOOR
    assert abs(Fraction(term.change(a, b)) - exact) <= bound


@pytest.mark.parametrize(
    "term, a, b, message",
    [
        (SeparableTerm(1, "log", (1.0, 0.0, 1.0)), -1.0, -2.0, "log term on variable 1 got nonpositive argument -2.0"),
        (SeparableTerm(1, "log", (1.0, 0.0, 1.0)), -1.0, 2.0, "log term on variable 1 got nonpositive argument -1.0"),
        (SeparableTerm(1, "exp", (1.0, 0.0, 1.0)), 1000.0, 2000.0, "exp term on variable 1 overflows at x = 2000.0"),
        (SeparableTerm(1, "powlaw", (1.0, 0.0, 1.0, 3.0)), 1e200, 2e200, "powlaw term on variable 1 overflows at x = 2e+200"),
    ],
)
def test_separable_change_raises_the_domain_error_at_b_before_a(term, a, b, message):
    with pytest.raises(DomainError) as info:
        term.change(a, b)
    assert str(info.value) == message and info.value.index == 1


def test_affine_is_stored_as_poly():
    term = SeparableTerm(1, "affine", (4.0, 1.0))
    assert (term.kind, term.params) == ("poly", (1.0, 4.0))
    assert term.value(2.5) == 4.0 * 2.5 + 1.0
    f = from_terms(1, {}, [term, SeparableTerm(1, "poly", (-1.0, 0.0, 2.0))])
    # both terms are kept as given, in sorted order, and add up to the poly 4x + 2x^2
    assert f.separable == (SeparableTerm(1, "poly", (-1.0, 0.0, 2.0)), SeparableTerm(1, "poly", (1.0, 4.0)))
    merged = SeparableTerm(1, "poly", (0.0, 4.0, 2.0))
    for x in (0.0, 0.5, -1.25, 3.0):
        assert f((x,)) == pytest.approx(merged.value(x), rel=1e-15, abs=1e-15)


def test_like_separable_terms_attribute_as_the_terms_merged_by_hand():
    like = [
        SeparableTerm(1, "log", (2.0, 1.0, 1.5)),
        SeparableTerm(1, "log", (2.0, 1.0, -0.25)),
        SeparableTerm(2, "exp", (0.5, -1.0, 3.0)),
        SeparableTerm(2, "exp", (0.5, -1.0, 0.75)),
        SeparableTerm(3, "poly", (1.0, -2.0)),
        SeparableTerm(3, "poly", (0.5, 0.0, 4.0)),
        SeparableTerm(3, "powlaw", (1.0, 2.0, 2.0, -2.0)),
        SeparableTerm(3, "powlaw", (1.0, 2.0, 0.5, -2.0)),
    ]
    merged = [
        SeparableTerm(1, "log", (2.0, 1.0, 1.25)),
        SeparableTerm(2, "exp", (0.5, -1.0, 3.75)),
        SeparableTerm(3, "poly", (1.5, -2.0, 4.0)),
        SeparableTerm(3, "powlaw", (1.0, 2.0, 2.5, -2.0)),
    ]
    terms = {(1, 2): 2.0, (2, 3): -1.0, (3,): 0.5}
    f, g = from_terms(3, terms, like), from_terms(3, terms, merged)
    assert len(f.separable) == 8
    vp = ValuePair((0.25, -1.0, 0.5), (1.5, 2.0, 3.0))
    a, b = attribute_ass(f, vp), attribute_ass(g, vp)
    assert a.z == pytest.approx(b.z, rel=1e-12)
    assert a.change == pytest.approx(b.change, rel=1e-12)
    assert a.converged and b.converged


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: from_terms(2, {(1, 3): 1.0}), "variable index 3 outside 1..2"),
        (lambda: from_terms(2, {(0,): 1.0}), "variable index 0 outside 1..2"),
        (lambda: MultilinearPoly(-1, {}), "variable count must be nonnegative"),
        (lambda: SeparableTerm(0, "poly", (1.0,)), "separable term index must be >= 1"),
        (lambda: SeparableTerm(1, "poly", ()), "poly term needs at least one coefficient"),
        (lambda: affine_reparameterize(product_function(2), 3, 2.0, 1.0), "variable index 3 outside 1..2"),
        (lambda: affine_reparameterize(product_function(2), 0, 2.0, 1.0), "variable index 0 outside 1..2"),
        (lambda: product_function(2).multilinear.partial(3), "variable index 3 outside 1..2"),
    ],
)
def test_constructors_refuse_indices_and_counts_out_of_range(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_separable_derivatives_are_exact():
    cases = [
        (SeparableTerm(1, "poly", (1.0, 2.0, 3.0)), lambda x: 2.0 + 6.0 * x),
        (SeparableTerm(1, "affine", (4.0, 1.0)), lambda x: 4.0),
        (SeparableTerm(1, "log", (2.0, 1.0, 3.0)), lambda x: 6.0 / (2.0 * x + 1.0)),
        (SeparableTerm(1, "exp", (0.5, 0.0, 2.0)), lambda x: math.exp(0.5 * x)),
        (SeparableTerm(1, "powlaw", (1.0, 2.0, 3.0, 2.0)), lambda x: 6.0 * (x + 2.0)),
        (SeparableTerm(1, "powlaw", (2.0, 1.0, 3.0, 1.0)), lambda x: 6.0),
    ]
    for term, expect in cases:
        d = term.derivative()
        for x in (0.25, 1.0, 2.5):
            assert d.value(x) == pytest.approx(expect(x), rel=1e-12)


def test_separable_affine_composition_closed():
    for term in (
        SeparableTerm(1, "poly", (1.0, -2.0, 0.5)),
        SeparableTerm(1, "log", (1.5, 2.0, -0.7)),
        SeparableTerm(1, "exp", (0.3, -0.2, 1.1)),
        SeparableTerm(1, "affine", (2.0, -1.0)),
    ):
        comp = term.compose_affine(2.0, 0.5)
        for y in (0.4, 1.3, 2.0):
            assert comp.value(2.0 * y + 0.5) == pytest.approx(term.value(y), rel=1e-12)
    # a zero top coefficient leaves a zero power of x, which is trimmed
    assert SeparableTerm(1, "poly", (1.0, 0.0)).compose_affine(2.0, 1.0).params == (1.0,)


def test_gradient_matches_partial_derivatives():
    f = from_terms(
        3,
        {(1, 2): 2.0, (2, 3): -1.5, (1,): 0.5},
        [SeparableTerm(2, "exp", (0.4, 0.0, 1.0)), SeparableTerm(3, "poly", (0.0, 1.0, 2.0))],
    )
    x = (0.7, -1.2, 0.9)
    [g] = f.gradients([x])
    for i in range(1, 4):
        assert g[i - 1] == pytest.approx(evaluate(partial_derivative(f, i), x), rel=1e-12)


def _loop_gradient(f, x):
    """Reference: one point at a time, monomials in key order, then each separable term's scalar slope."""
    g = [0.0] * f.n
    for I, c in f.multilinear.terms.items():
        for j, p in zip(I, _monomial_partials([x[j - 1] for j in I], c)):
            g[j - 1] += p
    for t in f.separable:
        g[t.index - 1] += t.slope(x[t.index - 1])
    return g


@given(charfn_pairs(max_n=5))
def test_gradients_rows_equal_the_point_loop_bit_for_bit(pair):
    f, vp = pair
    G = f.gradients([vp.r, vp.s, vp.r])
    assert G.shape == (3, f.n)
    assert G.tolist() == [_loop_gradient(f, vp.r), _loop_gradient(f, vp.s), _loop_gradient(f, vp.r)]
    assert f.gradients([vp.s])[0].tolist() == _loop_gradient(f, vp.s)


def test_gradients_with_shared_separable_variable():
    f = from_terms(
        3,
        {(): 4.0, (1, 2): 2.0, (1, 2, 3): -1.5, (3,): 0.5},
        [SeparableTerm(2, "exp", (0.4, 0.0, 1.0)), SeparableTerm(2, "log", (1.0, 3.0, 2.0)), SeparableTerm(3, "poly", (0.0, 1.0, 2.0))],
    )
    X = [(0.7, -1.2, 0.9), (0.0, 0.0, 0.0), (-2.0, 1.5, 3.0)]
    for x, row in zip(X, f.gradients(X).tolist()):
        assert row == _loop_gradient(f, x)
        for i in range(1, 4):
            assert row[i - 1] == pytest.approx(evaluate(partial_derivative(f, i), x), rel=1e-12)


def test_gradients_of_every_separable_kind_equal_the_point_loop():
    import random

    # derivatives: poly, powlaw with exponents -1, -3 and 2, exp, and exp scaled to overflow
    f = from_terms(
        5,
        {(1, 5): 0.5},
        [
            SeparableTerm(1, "poly", (1.0, -2.0, 0.5, 3.0)),
            SeparableTerm(2, "log", (1.5, 4.0, -0.7)),
            SeparableTerm(3, "powlaw", (0.5, 2.0, 1.3, -2.0)),
            SeparableTerm(3, "powlaw", (-1.0, 0.5, 2.0, 3.0)),
            SeparableTerm(4, "exp", (0.3, -0.2, 1.1)),
            SeparableTerm(5, "exp", (1.0, 700.0, 1e300)),
        ],
    )
    rng = random.Random(3)
    X = [[rng.uniform(-2.0, 2.0) for _ in range(5)] for _ in range(40)]
    assert f.gradients(X).tolist() == [_loop_gradient(f, x) for x in X]


def test_gradients_that_overflow_past_a_separable_derivative_warn_nothing():
    import warnings

    f = from_terms(1, {(1,): 1e308}, [SeparableTerm(1, "poly", (0.0, 1e308))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.gradients([[1.0]]).tolist() == [[math.inf]]


def test_gradients_raise_the_first_points_domain_error():
    f = from_terms(2, {(1, 2): 1.0}, [SeparableTerm(2, "exp", (1000.0, 0.0, 1.0))])
    with pytest.raises(DomainError, match=r"exp term on variable 2 overflows at x = 2\.0") as info:
        f.gradients([(1.0, 0.5), (1.0, 2.0), (1.0, 3.0)])
    assert info.value.index == 2
    # the first failing point wins over the first failing term: x1's term fails only at the third point
    f = from_terms(2, {}, [SeparableTerm(1, "exp", (1000.0, 0.0, 1.0)), SeparableTerm(2, "log", (1.0, 0.0, 1.0))])
    with pytest.raises(DomainError, match=r"log term on variable 2 has no derivative at x = 0\.0") as info:
        f.gradients([(0.5, 1.0), (0.5, 0.0), (3.0, 1.0)])
    assert info.value.index == 2
    with pytest.raises(ValueError, match="dimension mismatch"):
        f.gradients([(1.0, 2.0, 3.0)])


# grid points and offsets that put bases at exactly zero; large scales and slopes that overflow exp and powlaw
_GRID = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0])
_OFFSETS = st.one_of(_GRID, st.floats(-3, 3))
_SLOPES = st.one_of(st.sampled_from([1.0, -1.0, 2.0, 800.0, -1000.0]), st.floats(-2, 2))
_SCALES = st.one_of(st.sampled_from([1.0, 1e300, -1e300]), st.floats(-2, 2))


@st.composite
def _every_kind(draw, n):
    """A separable term of any kind on a variable of 1..n; poly includes the affine spelling."""
    i = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["poly", "affine", "log", "exp", "powlaw"]))
    if kind == "poly":
        return SeparableTerm(i, kind, draw(st.lists(st.floats(-2, 2), min_size=1, max_size=4)))
    if kind == "affine":
        return SeparableTerm(i, kind, (draw(st.floats(-2, 2)), draw(_OFFSETS)))
    params = (draw(_SLOPES), draw(_OFFSETS), draw(_SCALES))
    if kind == "powlaw":
        params += (draw(st.sampled_from([-3, -2, -1, 1, 2, 3, 150, -1100, 1100])),)
    return SeparableTerm(i, kind, params)


@st.composite
def _functions_and_points(draw, cells=st.one_of(_GRID, st.floats(-3, 3))):
    n = draw(st.integers(1, 4))
    f = from_terms(n, draw(multilinear_terms(n)), draw(st.lists(_every_kind(n), max_size=5)))
    X = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=30))
    return f, X


def _bits(rows):
    return [[repr(v) for v in row] for row in rows]  # -0.0 is not 0.0, and every nan is one value


@example((from_terms(1, {}, [SeparableTerm(1, "log", (1.0, 0.0, 1.0))]), [[1.0], [0.0], [2.0]]))  # a zero base, power -2
@example((from_terms(2, {}, [SeparableTerm(1, "exp", (1000.0, 0.0, 1.0)), SeparableTerm(2, "poly", (1.0, 1e300, 1e300))]), [[0.5, 2.0], [1.0, 1.0]]))
@example((from_terms(2, {}, [SeparableTerm(1, "exp", (1000.0, 0.0, 1.0)), SeparableTerm(2, "log", (1.0, 0.0, 1.0))]), [[0.5, 1.0], [0.5, 0.0], [3.0, 1.0]]))
@given(_functions_and_points())
def test_gradients_of_drawn_terms_equal_the_point_loop_or_raise_its_first_error(case):
    """Many points and every kind of term, some outside a derivative's domain: the point loop's rows, or its first error."""
    f, X = case
    try:
        want = [_loop_gradient(f, x) for x in X]
    except DomainError as first:
        with pytest.raises(DomainError) as info:
            f.gradients(X)
        assert (str(info.value), info.value.index) == (str(first), first.index)
    else:
        assert _bits(f.gradients(X).tolist()) == _bits(want)


def test_gradients_take_each_derivative_a_column_at_a_time(monkeypatch):
    """One call over N rows builds no term: a poly's `slope` runs once, on its whole column; any other term's runs only at
    the entries its plain product refuses, here none but the subnormal slope 2e-310 of the added column."""
    f = from_terms(
        4,
        {(1, 2): 1.5},
        [
            SeparableTerm(1, "log", (1.0, 4.0, 1.0)),
            SeparableTerm(2, "exp", (0.5, 0.0, 1.0)),
            SeparableTerm(2, "poly", (1.0, 2.0, 3.0)),
            SeparableTerm(3, "powlaw", (1.0, 4.0, 2.0, 1.0)),
            SeparableTerm(3, "powlaw", (1.0, 4.0, 2.0, 3.0)),
            SeparableTerm(4, "powlaw", (1.0, 0.0, 1.0, 2.0)),
        ],
    )
    X = [[0.5, -1.0, 2.0, 1.0], [1.0, 0.0, -0.5, 1e-310], [2.5, 3.0, 1.0, -2.0], [-1.5, 0.25, 0.0, 0.5]]
    calls = []
    slope = SeparableTerm.slope

    def counted(term, x):
        calls.append((term, np.asarray(x).tolist()))  # a float, or a column as a list
        return slope(term, x)

    def built(term):
        raise AssertionError(f"gradients built the term {term}")

    monkeypatch.setattr(SeparableTerm, "slope", counted)
    monkeypatch.setattr(SeparableTerm, "__post_init__", built)
    G = f.gradients(X)
    columns = np.array(X).T.tolist()
    poly = next(t for t in f.separable if t.kind == "poly")
    assert calls == [(poly, columns[1]), (f.separable[-1], 1e-310)]
    assert G[1, 3] == 2e-310
    monkeypatch.undo()
    assert G.tolist() == [_loop_gradient(f, x) for x in X]


# entries at which a term's argument is subnormal, zero, or past what e^arg or a power keeps in the doubles;
# at 1.0110141566510862e-104 a cube is subnormal
_COLUMN_CELLS = st.one_of(
    _GRID, st.floats(-3, 3), st.sampled_from([1e-310, -5e-324, 1e-160, 1.0110141566510862e-104, 1e200, -1e200, 800.0, -740.0])
)


@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e-300, -2.0)), [1.0, 1e-160])  # x^-2 overflows, the value 1e20 does not
@example(SeparableTerm(1, "log", (1.0, 0.0, 1.0)), [1.0, 0.0, -1.0])  # a zero argument, then a negative one
@example(SeparableTerm(1, "exp", (1.0, 0.0, 1.0)), [-740.0, 1.0, 800.0])  # a subnormal e^arg, then one that overflows
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1.0, 2.0)), [1e-310, 2.0])  # a subnormal slope
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e200, 3.0)), [1e-160, 1.0])  # x^2 = 1e-320 keeps few bits, the slope 3e-120 all
@example(SeparableTerm(1, "powlaw", (1e-200, 0.0, 1e-200, 2.0)), [1e300])  # scale a = 1e-400 is no double, the slope 2e-300 is
@example(SeparableTerm(1, "powlaw", (1e10, 0.0, 1e300, 2.0)), [1e-20])  # scale a = 1e310 is no double, the slope 2e300 is
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e300, 3.0)), [1.0110141566510862e-104, 1.0])  # x^3 = 1e-312 keeps few bits, the value all
@given(_every_kind(1), st.lists(_COLUMN_CELLS, min_size=1, max_size=30))
def test_columns_have_the_bits_of_the_scalar_rule(term, xs):
    """`values` and `slopes` against `value` and `slope` entry by entry, bit for bit, or the first entry's DomainError."""
    for column, rule in ((term.values, term.value), (term.slopes, term.slope)):
        try:
            want = [rule(x) for x in xs]
        except DomainError as first:
            with pytest.raises(DomainError) as info, np.errstate(over="ignore", invalid="ignore"):
                column(np.array(xs))
            assert (str(info.value), info.value.index) == (str(first), first.index)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # as f.values and f.gradients call them
                got = column(np.array(xs))
            assert _bits([got.tolist()]) == _bits([want])


def test_a_slope_whose_power_is_zero_is_exact_at_a_zero_argument():
    # scale a = 1e-400 is not normal, so the slope is carried exactly; there arg^0 is 1, not decimal's NaN for 0^0
    assert SeparableTerm(1, "powlaw", (1e-200, 0.0, 1e-200, 1.0)).slope(0.0) == 0.0
    assert SeparableTerm(1, "powlaw", (1e-200, 0.0, 1e-100, 1.0)).slope(0.0) == 1e-300


def test_a_powlaw_value_past_its_power_is_exact():
    # x^-2 = 1e320 leaves the doubles, but 1e-300 x^-2 is 1e20
    term = SeparableTerm(1, "powlaw", (1.0, 0.0, 1e-300, -2.0))
    assert term.value(1e-160) == 1e20
    assert term.values(np.array([1e-160, 1.0])).tolist() == [1e20, 1e-300]
    with pytest.raises(DomainError, match=r"powlaw term on variable 1 overflows at x = 1e-200"):  # the value itself, 1e700, leaves them too
        SeparableTerm(1, "powlaw", (1.0, 0.0, 1e300, -2.0)).value(1e-200)


_U = Fraction(1, 2**53)  # the unit roundoff of a double
_SLOPE_FLOOR = Fraction(1, 2**1064)  # roundings below the normal range lose a step of 2^-1074 each, carried up by |x|^3 at most


def _exact_slope(term, x):
    """The term's derivative at x in exact rationals, taken at the argument a x + b as the term rounds it, and slope's error bound.

    A poly of m coefficients runs m steps of simultaneous Horner, each
    rounding p and p' once per product and once per sum, so its error is
    within gamma_2m = 2mu / (1 - 2mu) of sum j |c_j| |x|^(j-1).  Any other
    kind is scale a m w, w a power of arg or e^arg: about four roundings,
    of the power and of each product, in plain floats or in mantissas, so
    within 8u of the derivative, with exp's e^arg as math.exp gives it.
    """
    p = [Fraction(v) for v in term.params]
    if term.kind == "poly":
        gamma = 2 * len(p) * _U / (1 - 2 * len(p) * _U)
        size = sum(j * abs(c) * abs(Fraction(x)) ** (j - 1) for j, c in enumerate(p) if j)
        return sum(j * c * Fraction(x) ** (j - 1) for j, c in enumerate(p) if j), gamma * size + _SLOPE_FLOOR
    arg = Fraction(term.params[0] * x + term.params[1])
    if term.kind == "log":
        want = p[2] * p[0] / arg
    elif term.kind == "exp":
        want = p[2] * p[0] * Fraction(math.exp(arg))
    else:
        want = p[3] * p[2] * p[0] * arg ** (int(p[3]) - 1)
    return want, 8 * _U * abs(want) + _SLOPE_FLOOR


@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1.0, 2.0)), 7.593493105513043e-308)  # e (scale x^2) (1 / x) underflows to 0
@example(SeparableTerm(1, "log", (1e-300, 1e-300, 1e-300)), 0.0)  # the derivative term's scale, 1e-600, underflows to 0
@example(SeparableTerm(1, "log", (1e200, 0.0, 1e200)), 1.0)  # the derivative term's scale, 1e400, overflows
@example(SeparableTerm(1, "powlaw", (1e200, 0.0, 1e200, -1.0)), 1.5)  # a (scale e arg^-2) underflows to 0
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e-300, -1.0)), 1e-160)  # x^-2 = 1e320 overflows; the slope is -1e20
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e-300, -3.0)), 1e-100)  # x^-4 = 1e400; the slope is -3e100
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e-300, 1100.0)), 2.0)  # 2^1099: past the power of a mantissa in [1/2, 1) too
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e-300, -1100.0)), 0.5)  # 2^1101
@example(SeparableTerm(1, "log", (1.0, 0.0, 1e-300)), 1e-310)  # 1 / x of a subnormal x
@example(SeparableTerm(1, "powlaw", (1e-200, 0.0, 1e-110, 1100.0)), 1.5e200)  # scale a = 1e-310 keeps few bits, scale a m all
@given(_every_kind(1), st.one_of(_GRID, st.floats(-3, 3)))
def test_slope_is_the_exact_derivative_within_its_error_bound(term, x):
    """Every kind's slope against its exact derivative: an infinity only past the largest double, a DomainError only
    where the derivative is undefined or, as in `value`, e^arg overflows."""
    try:
        got = term.slope(x)
    except DomainError as error:
        assert error.index == 1 and term.kind != "poly"
        arg = term.params[0] * x + term.params[1]
        if term.kind == "exp":
            assert arg > 709.0  # past math.exp's range
        else:
            assert arg == 0.0 and (term.kind == "log" or term.params[3] < 0)  # a zero argument of a log or a negative power
        return
    want, bound = _exact_slope(term, x)
    if math.isinf(got):
        assert (got > 0) == (want > 0) and abs(want) >= Fraction(sys.float_info.max) * (1 - 8 * _U)
    else:
        assert abs(Fraction(got) - want) <= bound


def _exact_value(term, x):
    """The term's value at x in exact rationals, taken at the argument a x + b as the term rounds it, and value's error bound.

    A poly of m coefficients runs m Horner steps, each rounding once per
    product and once per sum, so its error is within gamma_2m of sum |c_j|
    |x|^j.  Any other kind is scale w, w = arg^power, e^arg or ln arg, the
    last two as math.exp and math.log give them: a rounding of the power and
    one of the product, in plain floats or in mantissas, so within 8u, as
    for the slope.
    """
    p = [Fraction(v) for v in term.params]
    if term.kind == "poly":
        gamma = 2 * len(p) * _U / (1 - 2 * len(p) * _U)
        size = sum(abs(c) * abs(Fraction(x)) ** j for j, c in enumerate(p))
        return sum(c * Fraction(x) ** j for j, c in enumerate(p)), gamma * size + _SLOPE_FLOOR
    arg = term.params[0] * x + term.params[1]
    if term.kind == "powlaw":
        want = p[2] * Fraction(arg) ** int(p[3])
    else:
        want = p[2] * Fraction((math.log if term.kind == "log" else math.exp)(arg))
    return want, 8 * _U * abs(want) + _SLOPE_FLOOR


@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e300, 3.0)), 1.0110141566510862e-104)  # x^3 = 1e-312 keeps few bits, the value all
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e-310, 3.0)), 1e100)  # a subnormal scale: 1e-310 x^3 is 1e-10
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 4.713883852262904e307, 3.0)), 1.5623520231577168)  # the plain product rounds to inf
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e300, 1100.0)), 0.5)  # x^1100 underflows to 0; the value is 7.4e-32
@example(SeparableTerm(1, "powlaw", (1.0, 0.0, 1e-300, 1100.0)), 2.0)  # x^1100 overflows; the value is 1.4e31
@given(_every_kind(1), st.one_of(_GRID, st.floats(-3, 3)))
def test_value_is_exact_within_its_error_bound(term, x):
    """Every kind's value against its exact value: an infinity only past the largest double, a DomainError only outside
    the term's domain, where e^arg overflows, or where a powlaw's exact value leaves the doubles."""
    arg = term.params[0] * x + term.params[1] if term.kind != "poly" else None
    try:
        got = term.value(x)
    except DomainError as error:
        assert error.index == 1 and term.kind != "poly"
        if term.kind == "log":
            assert arg <= 0.0
        elif term.kind == "exp":
            assert arg > 709.0  # past math.exp's range
        else:
            assert (arg == 0.0 and term.params[3] < 0) or abs(_exact_value(term, x)[0]) > Fraction(sys.float_info.max)
        return
    want, bound = _exact_value(term, x)
    if math.isinf(got):
        assert (got > 0) == (want > 0) and abs(want) >= Fraction(sys.float_info.max) * (1 - 8 * _U)
    else:
        assert abs(Fraction(got) - want) <= bound


def test_a_derivative_that_overflows_names_the_users_term():
    # d/da of 1e200 ln(1e200 a) is 1e200 / a, but the derivative term's scale, 1e200 * 1e200, overflows
    f = from_terms(2, {(1, 2): 1.0}, [SeparableTerm(1, "log", (1e200, 0.0, 1e200))])
    with pytest.raises(ValueError) as info:
        partial_derivative(f, 1)
    assert str(info.value) == "the derivative of the log term on variable 1 has a non-finite parameter"
    [[da, db]] = f.gradients([[1.0, 2.0]]).tolist()
    assert da == pytest.approx(1e200, rel=1e-15) and db == 1.0


def _point_value(f, x):
    """f at the one point x by a scalar loop, the reference for f.values: monomials in key order, then separable terms."""
    total = 0.0
    for I, c in f.multilinear.terms.items():
        p = c
        for j in I:
            p *= x[j - 1]
        total += p
    for t in f.separable:
        total += t.value(x[t.index - 1])
    return total


# points that overflow a monomial to inf, then to nan against another; signed zeros and non-finite cells
_VALUE_CELLS = st.one_of(_GRID, st.sampled_from([-0.0, 1e200, -1e200, math.inf, -math.inf, math.nan]), st.floats(-3, 3))


class TestValuesHaveTheBitsOfOnePoint:
    """``f.values(X)`` has, row by row, the bits of a scalar loop at that point, or raises the first failing row's error.

    ``f(x)`` is itself the one row of ``f.values([x])``, so the models' reference is `_point_value`.

    CI runs this class with the exit-contract profile (2,000 examples).
    """

    # monomials are added before the separable terms: (1 + 2^-53) - 1 is 0.0, (-1 + 1) + 2^-53 is not
    @example((from_terms(1, {(): 1.0, (1,): 2.0**-53}, [SeparableTerm(1, "poly", (-1.0,))]), [[1.0]]))
    @example((from_terms(2, {(1, 2): 2.0, (1,): -1.0}, [SeparableTerm(2, "powlaw", (1.0, 0.0, 1.0, -1.0))]), [[1e200, 1e200], [1.0, 0.0]]))
    @example((from_terms(2, {}, [SeparableTerm(1, "exp", (1000.0, 0.0, 1.0)), SeparableTerm(2, "log", (1.0, 0.0, 1.0))]), [[0.5, 1.0], [0.5, 0.0], [3.0, 1.0]]))
    @given(_functions_and_points(_VALUE_CELLS))
    def test_on_drawn_models(self, case):
        f, X = case
        try:
            want = [_point_value(f, x) for x in X]
        except DomainError as first:
            with pytest.raises(DomainError) as info:
                f.values(X)
            assert (str(info.value), info.value.index) == (str(first), first.index)
        else:
            assert _bits([f.values(X).tolist()]) == _bits([want])

    @given(d=flow_graphs(), data=st.data())
    def test_on_drawn_graphs(self, d, data):
        X = data.draw(st.lists(st.lists(_VALUE_CELLS, min_size=d.n, max_size=d.n), min_size=1, max_size=30))
        assert _bits([d.values(X).tolist()]) == _bits([[d(x) for x in X]])

    def test_overflow_and_signed_zeros(self):
        f = from_terms(2, {(1, 2): 1e300, (2,): 1e300}, [SeparableTerm(2, "poly", (0.0, -1.0))])
        X = [[1e10, 1.0], [-1e10, 1e10], [-0.0, 0.0], [0.0, -0.0]]
        got = f.values(X).tolist()
        assert _bits([got]) == _bits([[_point_value(f, x) for x in X]])
        assert math.isinf(got[0]) and math.isnan(got[1])

    def test_refuses_a_row_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            product_function(2).values([(1.0, 2.0, 3.0)])


@given(charfn_pairs(max_n=4))
def test_evaluation_linearity(pair):
    (f1, vp) = pair
    f2 = monomial(f1.n, range(1, f1.n + 1), 2.0)
    x = vp.r
    lhs = evaluate(combine(f1, f2, 1.5, -0.5), x)
    rhs = 1.5 * evaluate(f1, x) - 0.5 * evaluate(f2, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(charfn_pairs(max_n=5), st.randoms(use_true_random=False))
def test_permutation_consistency(pair, rnd):
    f, vp = pair
    sigma = list(range(1, f.n + 1))
    rnd.shuffle(sigma)
    g = permute_variables(f, sigma)
    assert evaluate(g, permute_vector(sigma, vp.r)) == pytest.approx(evaluate(f, vp.r), rel=1e-12, abs=1e-12)


@given(charfn_pairs(max_n=4), st.integers(1, 4), st.floats(0.25, 4.0), st.floats(-3.0, 3.0))
def test_reparameterization_consistency(pair, j, c, d):
    f, vp = pair
    j = (j - 1) % f.n + 1
    g = affine_reparameterize(f, j, c, d)
    x = list(vp.s)
    y = list(vp.s)
    y[j - 1] = c * x[j - 1] + d
    assert evaluate(g, y) == pytest.approx(evaluate(f, x), rel=1e-12, abs=1e-12)


@given(charfns(max_n=4, with_separable=False), st.integers(1, 4))
def test_multilinear_second_partial_zero(f, i):
    i = (i - 1) % max(f.n, 1) + 1
    dd = partial_derivative(partial_derivative(f, i), i)
    assert dd.multilinear.is_zero()
