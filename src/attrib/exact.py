"""Exact Aumann-Shapley-Shubik attribution of multilinear-plus-separable functions.

On this function class the factorial-weight split of the paper equals the
straight-line integral of the gradient (Owen's diagonal formula), so
`attribute_ass` computes the latter.  A monomial c * prod_{i in I} x_i of
degree m contributes

    c * (s_i - r_i) * integral_0^1 prod_{j in I, j != i} (r_j + t (s_j - r_j)) dt

to each member i.  The integrand is a polynomial of degree m - 1 in t, so
ceil(m / 2) Gauss-Legendre nodes integrate it exactly up to rounding, and at
each node prefix and suffix products give every member's partial in O(m):
O(m^2) per monomial.  A monomial of degree _ARRAY_DEGREE or more gets all
its nodes' partials from one numpy pass, which multiplies and adds in the
order of the pure-Python loop that smaller ones take, so the two give the
same bits.  Separable terms use the endpoint rule f_i(s_i) - f_i(r_i).  The
change f(s) - f(r) comes from the same pass: the loop that gathers each
monomial's endpoints also multiplies out its value at r and at s, and each
separable term's two endpoint values go into both the attribution and the
two sums.  Every product and sum is taken in `evaluate`'s order, so the
change has its bits without evaluating f twice more.

`attribute_monomial` keeps the paper's dynamic program as the reference
oracle: for member i it is c * (s_i - r_i) * sum_k w_k(m) * X_k, where
w_k(m) = k! (m-1-k)! / m! and X_k sums, over the k-subsets K of the other
members, the mixed endpoint products prod_K s * prod_rest r.  The DP keeps
the subset means X_k / C(m-1, k) instead of the sums; since
w_k(m) * C(m-1, k) = 1/m the attribution is c * (s_i - r_i) times the mean
of that row, built by a two-buffer recursion in O(m^2) time and O(m) memory.

`attribute_ass_batch` applies the same rule to many value pairs at once.
Each monomial of a model takes the array pass over every pair's row at
once, so each row has `attribute_ass`'s bits.  Every row's f(r) and f(s)
come from one pass over the columns of the value arrays: per monomial, c
times each of its columns in turn, added into a total that starts at 0.0,
which are `evaluate`'s operations in its order.  A flow graph
(`attrib.models.DagModel`) has no monomials: z = (s - r) * sum_g w_g
grad(r + t_g (s - r)) over the ceil(D / 2) Gauss-Legendre nodes of its
degree D, which bounds that of every route's term, with each gradient from
one forward and one backward pass over the graph, O(ceil(D / 2) (V + E))
per pair however many routes there are.

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

from .core import AttributionResult, CharacteristicFunction, ValuePair, _batch_partials, _monomial_partials
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

# Largest points x columns temporary `attribute_ass_batch` builds at once.
_CHUNK_ELEMENTS = 1 << 20

# Lowest monomial degree `attribute_ass` takes through one array pass over its
# Gauss nodes.  Measured on repeated calls, the two cost the same near degree
# 13; the loop is faster below it, the array pass 1.3x faster at 16 and 1.9x
# at 24.  Set a little above the crossover, since a call that finds numpy
# cold pays more.  Every degree gives the same bits.
_ARRAY_DEGREE = 16

# Largest nodes x members block of points that pass builds at once.  Each
# temporary stays within 128 KiB; with blocks twice that size a bench pass
# took about 85 fresh-page faults per degree-200 call and ran slower.
_BLOCK_ELEMENTS = 1 << 14


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


def attribute_ass(f: CharacteristicFunction | DagModel, vp: ValuePair) -> AttributionResult:
    """Exact attribution of f(s) - f(r): straight-line integral per monomial plus endpoint rule per separable term.

    Cost is O(m^2) per monomial of degree m: ceil(m / 2) Gauss-Legendre
    nodes, each giving all m partials by prefix and suffix products.  From
    degree _ARRAY_DEGREE up that is one numpy pass over all the nodes, below
    it a pure-Python loop; both give the same bits.  Monomials are folded in
    ascending key order so results are bit-stable across runs.  One explicit
    loop per monomial gathers r_j and s_j in I order, builds d_j, and
    multiplies out c * prod r_j and c * prod s_j, which are summed in
    `evaluate`'s order; `_finish` adds the separable terms, so the change
    f(s) - f(r) has `evaluate`'s bits.  A flow graph is the one-row
    `attribute_ass_batch`.
    """
    if vp.n != f.n:
        raise ValueError(f"dimension mismatch: function has {f.n} variables, values have {vp.n}")
    if isinstance(f, DagModel):
        return attribute_ass_batch(f, [vp.r], [vp.s])[0]
    r, s = vp.r, vp.s
    z = [0.0] * f.n
    f_r = f_s = 0.0
    for I, c in f.multilinear.terms.items():
        rv, dv = [], []
        p_r = p_s = c
        for j in I:
            a, b = r[j - 1], s[j - 1]
            rv.append(a)
            dv.append(b - a)
            p_r *= a
            p_s *= b
        f_r += p_r
        f_s += p_s
        if not I:
            continue  # a constant has no members and changes nothing
        count = (len(I) + 1) // 2
        if len(I) >= _ARRAY_DEGREE:
            acc = _node_partials_sum(rv, dv, count).tolist()
        else:
            # Seeding the sum with the first node's partials, not 0.0 plus them, can keep a -0.0 that 0.0 + -0.0
            # would make 0.0; z starts at 0.0, so no entry of z is ever -0.0 and its bits are the same.
            (t, w), *rest = _unit_gauss(count)
            acc = _monomial_partials([a + t * d for a, d in zip(rv, dv)], w)
            for t, w in rest:
                acc = list(map(add, acc, _monomial_partials([a + t * d for a, d in zip(rv, dv)], w)))
        for j, d, a in zip(I, dv, acc):
            z[j - 1] += c * d * a
    return _finish(f, z, r, s, f_r, f_s)


@lru_cache(maxsize=None)
def _unit_gauss_arrays(count: int) -> tuple[np.ndarray, np.ndarray]:
    """`_unit_gauss(count)` as a read-only column of nodes and a read-only row of weights."""
    nodes = _unit_gauss(count)
    t = np.array([tg for tg, _ in nodes])[:, None]
    w = np.array([wg for _, wg in nodes])
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _node_partials_sum(r, d, count: int) -> np.ndarray:
    """sum_g w_g * partials of prod(r + t_g d) over `count` Gauss nodes, with the bits of the pure-Python loop.

    r and d are one row of shape (m,) or E rows of shape (E, m), each with
    the bits of its own call.  The points of a block of nodes form one array
    whose partials come from `_batch_partials`, which multiplies in the
    order `_monomial_partials` does.  The nodes are added in order: the
    accumulator goes into a block's first node, and numpy reduces over an
    array's slow axis one node at a time, not pairwise as along a contiguous
    axis.  Blocks hold at most _BLOCK_ELEMENTS coordinates, or one node's.
    """
    t, w = _unit_gauss_arrays(count)
    r, d = np.asarray(r, dtype=float), np.asarray(d, dtype=float)
    lead = (1,) * (r.ndim - 1)  # a node's t and w, the same for every row
    t, w = t.reshape(count, *lead, 1), w.reshape(count, *lead)
    acc = np.zeros_like(r)
    step = max(1, _BLOCK_ELEMENTS // r.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, count, step):
            x = t[lo : lo + step] * d
            x += r  # the loop's a + t * d, without a second temporary
            rows = _batch_partials(x, w[lo : lo + step])
            rows[0] += acc
            acc = np.add.reduce(rows, axis=0)
    return acc


def _finish(f: CharacteristicFunction, z: list[float], r: Sequence[float], s: Sequence[float], f_r: float, f_s: float) -> AttributionResult:
    """Add the separable endpoint rule to z and to the multilinear values f_r and f_s, and take the change f_s - f_r.

    One loop over the terms evaluates each once at s, then once at r, and
    adds v_s - v_r to z, v_s to f_s and v_r to f_r.  The sums follow
    `evaluate`'s order, so the change has its bits.  The first term outside
    its domain, tried at s before r, raises its `DomainError`.
    """
    for t in f.separable:
        i = t.index - 1
        v_s = t.value(s[i])
        v_r = t.value(r[i])
        z[i] += v_s - v_r
        f_s += v_s
        f_r += v_r
    return AttributionResult("ass", tuple(z), f_s - f_r)


def attribute_ass_batch(f: CharacteristicFunction | DagModel, R, S) -> list[AttributionResult]:
    """`attribute_ass` of f for every pair of rows (R[e], S[e]) of two E x n arrays.

    For a model, each monomial, in ``f.multilinear.terms`` order, takes
    `_node_partials_sum` at its own ceil(m / 2) Gauss nodes over all rows
    of a chunk of entities.  Every row's multilinear f(r) and f(s) come from
    one column pass: per monomial in that order, constants included, a
    product that starts at c and is multiplied by each column of I in turn,
    added to a total that starts at 0.0, which are
    ``MultilinearPoly.evaluate``'s operations in its order.  `_finish` adds
    the separable terms to z and to those values: every row has
    `attribute_ass`'s bits.  A `DagModel` has no monomials: z is
    (S - R) * sum_g w_g grad(R + t_g (S - R)) over the ceil(D / 2) nodes of
    its degree D, from one gradient call over all nodes of a chunk, which
    expands no routes, and the change takes f at both ends from chunked
    forward passes of `DagModel.flow`.  Chunks keep every temporary near
    _CHUNK_ELEMENTS.  An exception raised while evaluating an entity
    carries that entity's row number as ``exc.row``.
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
    E = R.shape[0]
    Z = np.zeros_like(R)
    if isinstance(f, DagModel):
        t, w = _unit_gauss_arrays((f.degree + 1) // 2)
        step = max(1, _CHUNK_ELEMENTS // (max(f.n, len(f.nodes)) * len(w)))  # flow keeps V x N arrays
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, E, step):
                Rc, Dc = R[lo : lo + step], S[lo : lo + step] - R[lo : lo + step]
                G = f.gradients((Rc + t[:, None] * Dc).reshape(len(w) * len(Rc), f.n))  # node-major: rows g * len(Rc) + e
                acc = np.zeros_like(Dc)
                for g, wg in enumerate(w.tolist()):
                    acc += wg * G[g * len(Rc) : (g + 1) * len(Rc)]
                Z[lo : lo + step] += Dc * acc
        f_r, f_s = (np.concatenate([f._forward(X[lo : lo + step])[1][f._plan.sink] for lo in range(0, E, step)]).tolist() for X in (R, S))
        return [AttributionResult("ass", tuple(z), b - a) for z, a, b in zip(Z.tolist(), f_r, f_s)]
    step = max(1, _CHUNK_ELEMENTS // max(f.n, 1))  # each monomial's points and partials are E x m, m <= n
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, E, step):
            Rc, Dc, Zc = R[lo : lo + step], S[lo : lo + step] - R[lo : lo + step], Z[lo : lo + step]
            for I, c in f.multilinear.terms.items():
                if I:  # a constant has no members and changes nothing
                    cols = [j - 1 for j in I]
                    Dm = Dc[:, cols]
                    Zc[:, cols] += c * Dm * _node_partials_sum(Rc[:, cols], Dm, (len(I) + 1) // 2)
        # every row's f(r) and f(s) from the columns, with `MultilinearPoly.evaluate`'s operations in its order
        F_r, F_s = np.zeros(E), np.zeros(E)
        for I, c in f.multilinear.terms.items():
            for X, F in ((R, F_r), (S, F_s)):
                p = np.full(E, c)
                for j in I:
                    p *= X[:, j - 1]
                F += p
    results = []
    for e, (z, r, s, f_r, f_s) in enumerate(zip(Z.tolist(), R.tolist(), S.tolist(), F_r.tolist(), F_s.tolist())):
        try:
            results.append(_finish(f, z, r, s, f_r, f_s))
        except (ValueError, OverflowError) as exc:
            exc.row = e
            raise
    return results


def attribute_naive(f, vp: ValuePair) -> AttributionResult:
    """Endpoint-gradient baseline z_i = d_i f(s) * (s_i - r_i), for a model or a flow graph.

    Complete only for functions linear in each changing variable; the
    generally nonzero residual is the point of keeping it around.
    """
    if vp.n != f.n:
        raise ValueError(f"dimension mismatch: function has {f.n} variables, values have {vp.n}")
    g = f.gradients([vp.s])[0].tolist()
    z = tuple(g[k] * (vp.s[k] - vp.r[k]) for k in range(f.n))
    return AttributionResult("naive", z, f(vp.s) - f(vp.r))
