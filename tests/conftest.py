import itertools
import math
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import strategies as st

from attrib import CharacteristicFunction, MultilinearPoly, SeparableTerm, ValuePair, product_function
from attrib.models import DagModel

hypothesis.settings.register_profile("suite", max_examples=60, deadline=None)
# many more examples for the property tests CI runs one by one: pytest --hypothesis-profile exit-contract
hypothesis.settings.register_profile("exit-contract", max_examples=2000, deadline=None)
hypothesis.settings.load_profile("suite")

coeffs = st.floats(min_value=-10, max_value=10, allow_nan=False)
values = st.floats(min_value=-3, max_value=3, allow_nan=False)


@st.composite
def multilinear_terms(draw, n, max_terms=6, allow_constant=True):
    count = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(count):
        size = draw(st.integers(0 if allow_constant else 1, n))
        subset = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=size, max_size=size))))
        terms[subset] = draw(coeffs)
    return terms


@st.composite
def separable_terms(draw, n):
    out = []
    for i in range(1, n + 1):
        kind = draw(st.sampled_from(["none", "none", "poly", "exp"]))
        if kind == "poly":
            deg = draw(st.integers(1, 3))
            out.append(SeparableTerm(i, "poly", tuple(draw(st.floats(-2, 2)) for _ in range(deg + 1))))
        elif kind == "exp":
            out.append(SeparableTerm(i, "exp", (draw(st.floats(-0.5, 0.5)), draw(st.floats(-1, 1)), draw(st.floats(-2, 2)))))
    return tuple(out)


@st.composite
def charfns(draw, max_n=5, with_separable=True):
    n = draw(st.integers(1, max_n))
    terms = draw(multilinear_terms(n))
    sep = draw(separable_terms(n)) if with_separable else ()
    return CharacteristicFunction(MultilinearPoly(n, terms), sep)


@st.composite
def charfn_pairs(draw, max_n=5, with_separable=True):
    f = draw(charfns(max_n, with_separable))
    r = tuple(draw(values) for _ in range(f.n))
    s = tuple(draw(values) for _ in range(f.n))
    return f, ValuePair(r, s)


@st.composite
def flow_graphs(draw, max_nodes=6):
    """A small random DAG with its sink anywhere in node order, so graphs hold edges out of the sink.

    Edges run from lower to higher node index, so the graph is acyclic; a
    pair may repeat (parallel edges), skip layers, or end at a node that
    cannot reach the sink (a dead end).  Starts are drawn from the nodes
    that reach the sink, the sink included, and may be none.
    """
    k = draw(st.integers(1, max_nodes))
    nodes = tuple(f"v{i}" for i in range(k))
    sink = draw(st.integers(0, k - 1))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    edges = tuple((nodes[a], nodes[b], f"p{j}_{a}_{b}") for j, (a, b) in enumerate(chosen))
    reaches = {sink}
    for a in range(k - 1, -1, -1):
        if a != sink and any(u == a and b in reaches for u, b in chosen):
            reaches.add(a)
    starts = draw(st.sets(st.sampled_from(sorted(reaches))))
    return DagModel(nodes, nodes[sink], {nodes[a]: f"s{a}" for a in sorted(starts)}, edges)


def exact_product_attribution(r, s, i) -> Fraction:
    """z_i of x_1 * ... * x_n from r to s, by the subset-weighted formula in exact rationals.

    z_i = (s_i - r_i) * sum over subsets K of the others of |K|! (n-1-|K|)! / n!
    times the product of s_j over K and r_j over the rest: the full-precision
    oracle that the float kernels and the order walk are checked against.
    """
    n = len(r)
    rF = [Fraction(x) for x in r]
    sF = [Fraction(x) for x in s]
    total = Fraction(0)
    others = [j for j in range(n) if j != i - 1]
    for k in range(n):
        wk = Fraction(math.factorial(k) * math.factorial(n - 1 - k), math.factorial(n))
        for K in itertools.combinations(others, k):
            p = Fraction(1)
            for j in others:
                p *= sF[j] if j in K else rF[j]
            total += wk * p
    return (sF[i - 1] - rF[i - 1]) * total


def exact_dp_attribution(r, s, i) -> Fraction:
    """z_i of x_1 * ... * x_n from r to s, by the paper's subset-mean DP in exact rationals.

    Absorbing the j-th of the other variables updates each mean Y_k of the
    k-subsets to r_j Y_k + (k / j) (s_j Y_{k-1} - r_j Y_k), as
    `attrib.exact.dp_subset_means` does in floats, here with weight
    Fraction(k, j); then z_i = (s_i - r_i) (Y_0 + ... + Y_{n-1}) / n.  It
    takes O(n^2) steps, so it checks degrees the subset sum cannot reach.
    """
    n = len(r)
    others = [(Fraction(r[j]), Fraction(s[j])) for j in range(n) if j != i - 1]
    Y = [Fraction(1)]
    for j, (rj, sj) in enumerate(others, 1):
        Y = [rj * Y[0]] + [rj * Y[k] + Fraction(k, j) * (sj * Y[k - 1] - rj * Y[k]) for k in range(1, j)] + [sj * Y[j - 1]]
    return (Fraction(s[i - 1]) - Fraction(r[i - 1])) * sum(Y) / n


@pytest.fixture
def procurement():
    """Expenditure model a*p*c with the quarter-over-quarter values."""
    return product_function(3), ValuePair((4.0, 1.0, 1.0), (5.0, 12.0, 1.5))
