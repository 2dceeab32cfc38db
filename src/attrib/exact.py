"""Exact Aumann-Shapley-Shubik attribution of multilinear-plus-separable functions.

On this function class the factorial-weight split of the paper equals the
straight-line integral of the gradient (Owen's diagonal formula), so
`attribute_ass` computes the latter.  A monomial c * prod_{i in I} x_i of
degree m contributes

    c * (s_i - r_i) * integral_0^1 prod_{j in I, j != i} (r_j + t (s_j - r_j)) dt

to each member i.  The integrand is a polynomial of degree m - 1 in t, so
ceil(m / 2) Gauss-Legendre nodes integrate it exactly up to rounding, and at
each node prefix and suffix products give every member's partial in O(m):
O(m^2) per monomial.  Separable terms use the endpoint rule
f_i(s_i) - f_i(r_i).

`attribute_monomial` keeps the paper's dynamic program as the reference
oracle: for member i it is c * (s_i - r_i) * sum_k w_k(m) * X_k, where
w_k(m) = k! (m-1-k)! / m! and X_k sums, over the k-subsets K of the other
members, the mixed endpoint products prod_K s * prod_rest r.  The DP keeps
the subset means X_k / C(m-1, k) instead of the sums; since
w_k(m) * C(m-1, k) = 1/m the attribution is c * (s_i - r_i) times the mean
of that row, built by a two-buffer recursion in O(m^2) time and O(m) memory.

`attribute_ass_batch` runs the same arithmetic for many value pairs at once:
monomials are grouped by degree, every group is one numpy gather over an
entities x monomials x members array, and the per-member contributions are
folded into z in ascending key order, so each row matches `attribute_ass` on
that pair bit for bit.  Given a flow graph (`attrib.models.DagModel`) it
needs no monomials: the graph's degree D bounds that of every route's term,
so ceil(D / 2) Gauss-Legendre nodes integrate every partial exactly, and
`DagModel.flow` gives the value and the whole gradient at each node by one
forward and one backward pass over the graph, O(ceil(D / 2) (V + E)) per pair
however many routes there are.

Everything runs in plain double precision.  Both kernels multiply only
values that lie between the endpoints of each variable (DP cells are
averages of endpoint products, Gauss nodes are points on the segment), so
their intermediates stay within the range of the products themselves.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import AttributionResult, CharacteristicFunction, ValuePair, _batch_partials, _exact_sum, _monomial_partials, evaluate, gradient
from .models import DagModel
from .paths import _nodes

__all__ = [
    "shapley_weight",
    "shapley_weights",
    "dp_subset_means",
    "attribute_monomial",
    "attribute_ass",
    "attribute_ass_batch",
    "attribute_naive",
]

RowHook = Callable[[list, list], None]

# Largest entities x members temporary `attribute_ass_batch` builds at once.
_CHUNK_ELEMENTS = 1 << 20


@lru_cache(maxsize=None)
def shapley_weights(n: int) -> tuple[float, ...]:
    """All order weights w_k(n) = k! (n-1-k)! / n! for k = 0..n-1.

    Computed by the multiplicative recurrence w_{k+1} = w_k (k+1)/(n-1-k)
    from w_0 = 1/n; raw factorials would overflow doubles near n = 171.  The
    middle weights themselves fall below the double range near n = 1000.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    w = [0.0] * n
    w[0] = 1.0 / n
    for k in range(n - 1):
        w[k + 1] = w[k] * (k + 1) / (n - 1 - k)
    return tuple(w)


def shapley_weight(k: int, n: int) -> float:
    """w_k(n) = k! (n-1-k)! / n!, the weight of a k-subset of predecessors."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"subset size {k} outside 0..{n - 1}")
    return shapley_weights(n)[k]


def dp_subset_means(r_vals: Sequence[float], s_vals: Sequence[float], row_hook: RowHook | None = None) -> list[float]:
    """Row Y_k = mean over k-subsets K of prod_K s * prod_complement r, for k = 0..m.

    Y_k is the subset sum X_k divided by C(m, k).  Absorbing the j-th
    variable (1-based) updates Y_k <- r_j Y_k + (k / j) (s_j Y_{k-1} - r_j Y_k),
    so every cell stays an average of endpoint products where X_k would also
    carry the binomial factor.  Two reusable buffers of length m+1 are the
    only auxiliary storage; if row_hook is given it is called once per
    absorbed variable with both live buffers, which lets callers audit that
    bound.
    """
    m = len(r_vals)
    curr = [0.0] * (m + 1)
    prev = [0.0] * (m + 1)
    curr[0] = 1.0
    for j in range(1, m + 1):
        prev, curr = curr, prev
        rj = r_vals[j - 1]
        sj = s_vals[j - 1]
        curr[0] = rj * prev[0]
        for k in range(1, j):
            a = rj * prev[k]
            curr[k] = a + k / j * (sj * prev[k - 1] - a)
        curr[j] = sj * prev[j - 1]
        if row_hook is not None:
            row_hook(prev, curr)
    return curr


def attribute_monomial(
    coeff: float,
    indices: Iterable[int],
    vp: ValuePair,
    i: int,
    row_hook: RowHook | None = None,
) -> float:
    """Attribution to variable i of the single monomial coeff * prod_I x, by the factorial-weight DP.

    O(m^2) time and O(m) memory for m = |I|.  The remaining variables are
    absorbed in ascending index order; the recursion is commutative so the
    order only fixes reproducibility.
    """
    I = tuple(sorted(set(indices)))
    if i not in I:
        raise ValueError(f"variable {i} is not in the monomial {I}")
    others = [j for j in I if j != i]
    r_vals = [vp.r[j - 1] for j in others]
    s_vals = [vp.s[j - 1] for j in others]
    row = dp_subset_means(r_vals, s_vals, row_hook)
    return coeff * (vp.s[i - 1] - vp.r[i - 1]) * math.fsum(row) / len(I)


@lru_cache(maxsize=None)
def _unit_gauss(count: int) -> tuple[tuple[float, float], ...]:
    """The count-node Gauss-Legendre rule mapped to [0, 1], as (node, weight) pairs of floats."""
    t, w = _nodes((0.0, 1.0), count, 1)
    return tuple(zip(t.tolist(), w.tolist()))


def attribute_ass(f: CharacteristicFunction, vp: ValuePair) -> AttributionResult:
    """Exact attribution of f(s) - f(r): straight-line integral per monomial plus endpoint rule per separable term.

    Cost is O(m^2) per monomial of degree m: ceil(m / 2) Gauss-Legendre
    nodes, each giving all m partials by prefix and suffix products.
    Monomials are folded in ascending key order so results are bit-stable
    across runs.
    """
    if vp.n != f.n:
        raise ValueError(f"dimension mismatch: function has {f.n} variables, values have {vp.n}")
    r, s = vp.r, vp.s
    z = [0.0] * f.n
    for I, c in f.multilinear.terms.items():
        if not I:
            continue  # a constant has no members and changes nothing
        rv = [r[j - 1] for j in I]
        dv = [s[j - 1] - r[j - 1] for j in I]
        acc = [0.0] * len(I)
        for t, w in _unit_gauss((len(I) + 1) // 2):
            acc = list(map(add, acc, _monomial_partials([a + t * d for a, d in zip(rv, dv)], w)))
        for j, d, a in zip(I, dv, acc):
            z[j - 1] += c * d * a
    return _finish(f, z, r, s)


def _finish(f: CharacteristicFunction, z: list[float], r: Sequence[float], s: Sequence[float]) -> AttributionResult:
    """Add the separable endpoint rule to the multilinear attributions z and take the residual."""
    for t in f.separable:
        z[t.index - 1] += t.value(s[t.index - 1]) - t.value(r[t.index - 1])
    residual = _exact_sum(z) - (evaluate(f, s) - evaluate(f, r))
    return AttributionResult("ass", tuple(z), residual)


def attribute_ass_batch(f: CharacteristicFunction | DagModel, R, S) -> list[AttributionResult]:
    """`attribute_ass` of f for every pair of rows (R[e], S[e]) of two E x n arrays.

    Monomials of equal degree m form one (T, m) index array; each of the
    ceil(m / 2) Gauss-Legendre nodes is a single numpy pass over all
    entities, with prefix and suffix products from cumprod.  Entities go in
    chunks that keep every temporary near _CHUNK_ELEMENTS.  The separable
    endpoint rule and the residual are computed per entity exactly as
    `attribute_ass` computes them.  An exception raised while evaluating an
    entity carries that entity's row number as ``exc.row``.

    A `DagModel` f, with columns in the order of ``f.variables``, goes to
    `_attribute_flow` and expands no routes.
    """
    R = np.asarray(R, dtype=float)
    S = np.asarray(S, dtype=float)
    if len(R) == len(S) == 0:
        return []
    if R.ndim != 2 or R.shape != S.shape:
        raise ValueError(f"initial and final arrays must be E x n of one shape, got {R.shape} and {S.shape}")
    if R.shape[1] != f.n:
        raise ValueError(f"dimension mismatch: function has {f.n} variables, values have {R.shape[1]}")
    if not (np.isfinite(R).all() and np.isfinite(S).all()):
        raise ValueError("value vectors must be finite")
    if isinstance(f, DagModel):
        return _attribute_flow(f, R, S)
    # member columns in ascending key order, with the variable each one adds to
    members = [(I, c) for I, c in f.multilinear.terms.items() if I]
    targets = np.array([j - 1 for I, _ in members for j in I], dtype=np.intp)
    groups: dict[int, tuple[list, list, list]] = {}
    col = 0
    for I, c in members:
        idx, coef, cols = groups.setdefault(len(I), ([], [], []))
        idx.append([j - 1 for j in I])
        coef.append(c)
        cols.append(range(col, col + len(I)))
        col += len(I)
    plan = [(m, np.array(idx), np.array(coef)[:, None], np.array(cols)) for m, (idx, coef, cols) in groups.items()]

    E = R.shape[0]
    Z = np.zeros((E, f.n))
    step = max(1, _CHUNK_ELEMENTS // max(col, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, E, step):
            Rc, Sc = R[lo : lo + step], S[lo : lo + step]
            contrib = np.empty((len(Rc), col))
            for m, idx, coef, cols in plan:
                rv = Rc[:, idx]
                dv = Sc[:, idx] - rv
                acc = np.zeros_like(rv)
                for t, w in _unit_gauss((m + 1) // 2):
                    acc += _batch_partials(rv + t * dv, w)
                contrib[:, cols] = coef * dv * acc
            # sequential in-order adds, as attribute_ass accumulates z
            np.add.at(Z[lo : lo + step].T, targets, contrib.T)
    results = []
    for e, (z, r, s) in enumerate(zip(Z.tolist(), R.tolist(), S.tolist())):
        try:
            results.append(_finish(f, z, r, s))
        except (ValueError, OverflowError) as exc:
            exc.row = e
            raise
    return results


def _attribute_flow(d: DagModel, R: np.ndarray, S: np.ndarray) -> list[AttributionResult]:
    """z = (S - R) * sum_g w_g grad f(R + t_g (S - R)) over ceil(D / 2) Gauss-Legendre nodes, from `DagModel.flow`.

    One flow call per chunk of entities takes the G Gauss points of each
    entity and both ends, which give the residual fsum(z) - (f(S) - f(R)).
    """
    E, n = R.shape
    nodes = _unit_gauss((d.degree + 1) // 2)
    t = np.array([tg for tg, _ in nodes])[:, None, None]
    step = max(1, _CHUNK_ELEMENTS // ((len(nodes) + 2) * max(n, len(d.nodes))))
    results = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, E, step):
            Rc, Sc = R[lo : lo + step], S[lo : lo + step]
            Dc = Sc - Rc
            points = (Rc + t * Dc).reshape(len(nodes) * len(Rc), n)  # node-major: rows g * len(Rc) + e
            values, grads = d.flow(np.concatenate([points, Rc, Sc]))
            acc = np.zeros_like(Dc)
            for g, (_, w) in enumerate(nodes):
                acc += w * grads[g * len(Rc) : (g + 1) * len(Rc)]
            f_r, f_s = values[-2 * len(Rc) :].reshape(2, -1).tolist()
            # + 0.0 turns -0.0 into 0.0, so a falling variable in no route gets 0.0, as under route expansion
            for z, a, b in zip((Dc * acc + 0.0).tolist(), f_r, f_s):
                results.append(AttributionResult("ass", tuple(z), _exact_sum(z) - (b - a)))
    return results


def attribute_naive(f: CharacteristicFunction, vp: ValuePair) -> AttributionResult:
    """Endpoint-gradient baseline z_i = d_i f(s) * (s_i - r_i).

    Complete only for functions linear in each changing variable; the
    generally nonzero residual is the point of keeping it around.
    """
    if vp.n != f.n:
        raise ValueError(f"dimension mismatch: function has {f.n} variables, values have {vp.n}")
    g = gradient(f, vp.s)
    z = tuple(g[k] * (vp.s[k] - vp.r[k]) for k in range(f.n))
    residual = _exact_sum(z) - (evaluate(f, vp.s) - evaluate(f, vp.r))
    return AttributionResult("naive", z, residual)
