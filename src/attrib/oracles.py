"""Combinatorial reference methods: full n!-order enumeration and friends.

These exist to cross-check the fast kernels, so they stay deliberately
literal: every order contributes each of its n marginal differences.  The
one engine, `_walk`, takes a *before-mask table*: row v holds, for every
order walked, the bitmask of the variables that move before v.  Variable
v's total is then the sum of f(before_v | v) - f(before_v) over the orders,
read from the values of f at the box corners.  Such a difference depends
only on its before-set, so it is computed once per before-set (at most 2^n
of them), gathered per order and summed over the orders in table order.

One builder, `_befores`, makes every table from an array of orders.
Shapley-Shubik enumeration walks all n! orders in lexicographic order.
Their table depends only on n, so it is built once per n (`_before_masks`,
n <= 8, 8 * 8! bytes at most, about 0.36 MB for every n together) and
shared read-only by every call; for n = 9 and 10 the walk goes prefix by
prefix over the n = 8 table, so no larger table is ever built.  A
`PermutationWeights` builds its own table, weight vector and corner list
once, on first use.  Orders are represented as tuples listing variables
(1-based) in the sequence they move, e.g. (2, 1) moves variable 2 first.
A model or a flow graph gives the values at all the corners a walk needs
in one ``f.values`` call, and its change from ``f.changes``.  A black box
is called once per corner, and its change is its corner value at s less
that at r.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import AttributionResult, ReadOnlyDict, ValuePair, _change, _check_permutation

__all__ = [
    "ORDER_CAP",
    "PermutationWeights",
    "shapley_shubik_bruteforce",
    "random_order_attribution",
    "value_variant_attribution",
    "hash_order_weights",
]

ORDER_CAP = 10  # 10! = 3,628,800 orders; enumeration is for verification, not production

_TABLE_N = 8  # largest cached before-mask table; its masks fit uint8


def _check_cap(n: int):
    if n > ORDER_CAP:
        raise ValueError(f"order enumeration capped at {ORDER_CAP} variables, got {n}")
    if n < 1:
        raise ValueError("need at least one variable")


@dataclass(frozen=True)
class PermutationWeights:
    """Finite nonnegative weights over variable orders, summing to 1 within 1e-12, kept as a read-only copy."""

    weights: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        object.__setattr__(self, "weights", ReadOnlyDict(self.weights))  # a read-only copy, so the walk plan stays true to it
        if not self.weights:
            raise ValueError("need at least one order")
        n = len(next(iter(self.weights)))
        total = 0.0
        for order, w in self.weights.items():
            _check_permutation(order, n)
            if not (w >= 0.0 and math.isfinite(w)):
                raise ValueError(f"weight {w} for order {order} is not a finite nonnegative number")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")

    @property
    def n(self) -> int:
        return len(next(iter(self.weights)))

    @classmethod
    def single(cls, order: Sequence[int]) -> "PermutationWeights":
        return cls({tuple(order): 1.0})

    @classmethod
    def uniform(cls, n: int) -> "PermutationWeights":
        _check_cap(n)
        w = 1.0 / math.factorial(n)
        return cls({p: w for p in itertools.permutations(range(1, n + 1))})

    @cached_property
    def _walk_plan(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The before-mask table and weight vector of the orders of positive weight, and the corners they visit.

        Orders go in lexicographic order, so uniform weights walk them as
        `shapley_shubik_bruteforce` does.
        """
        orders = sorted(order for order, w in self.weights.items() if w > 0.0)
        befores = _befores(np.array(orders, dtype=np.int8) - 1)
        # an order's before-masks are the corners it visits, bar the last: all variables moved
        corners = np.unique(befores).tolist() + [(1 << self.n) - 1]
        return befores, np.array([self.weights[order] for order in orders]), corners


def _corner_values(f, vp: ValuePair, masks) -> np.ndarray:
    """f at the box corner of each mask: the corner holds s_j where bit j of the mask is set, r_j elsewhere.

    The corners are built as one array.  A model or a flow graph answers
    them in one ``f.values`` call; a black box is called once per corner,
    on that corner's row, in the order of masks.
    """
    bits = (np.asarray(masks)[:, None] >> np.arange(vp.n)) & 1
    X = np.where(bits.astype(bool), vp.s, vp.r)
    if hasattr(f, "values"):
        return f.values(X)
    return np.array([f(x) for x in X.tolist()], dtype=np.float64)


def _spread(others: Sequence[int]) -> np.ndarray:
    """Map a mask over positions 0..k-1 of others to the mask of those variables: bit j goes to bit others[j]."""
    lut = np.zeros(1 << len(others), np.uint16)
    for j, v in enumerate(others):
        lut[1 << j : 2 << j] = lut[: 1 << j] | (1 << v)
    return lut


def _befores(orders: np.ndarray) -> np.ndarray:
    """The read-only (n, E) before-mask table of an E x n array of 0-based orders: uint8 up to 8 variables, uint16 above."""
    n = orders.shape[1]
    bits = np.left_shift(1, np.arange(n)).astype(np.uint8 if n <= 8 else np.uint16)
    befores = np.empty((n, len(orders)), bits.dtype)
    mask = np.zeros(len(orders), bits.dtype)
    cols = np.arange(len(orders))
    for step in orders.T:
        befores[step, cols] = mask
        mask |= bits[step]
    befores.flags.writeable = False
    return befores


@lru_cache(maxsize=None)
def _before_masks(n: int) -> np.ndarray:
    """The cached (n, n!) before-mask table of all orders over 0..n-1, n <= 8, in lexicographic order."""
    flat = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))), np.int8, n * math.factorial(n))
    return _befores(flat.reshape(-1, n))


def _walk(befores: np.ndarray, vals: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-variable sums of the marginal contributions f(before_v | v) - f(before_v) over the orders of befores.

    vals holds, indexed by mask, f at each box corner an order visits and
    any number elsewhere.  A difference depends only on its before-set, so
    for each v it is taken once per mask, then gathered per order: the same
    subtraction of the same two corner values as gathering both corners per
    order, and a difference at a mask no order visits is never gathered.
    Each difference is multiplied by its order's weight when weights are
    given; numpy's pairwise sum then adds them over the orders, in table
    order.
    """
    totals = np.zeros(len(befores))
    masks = np.arange(len(vals))
    with np.errstate(over="ignore", invalid="ignore"):  # corners that overflow give inf or nan, flagged by the result
        for v, before in enumerate(befores):
            marg = vals[masks | (1 << v)] - vals
            diffs = marg[before]
            if weights is not None:
                diffs *= weights
            totals[v] += diffs.sum()
    return totals


def shapley_shubik_bruteforce(f, vp: ValuePair) -> AttributionResult:
    """Average marginal contribution over all n! variable orders.

    Evaluates f on all 2^n box corners up front (one ``f.values`` call
    for a model or a flow graph), takes each variable's difference once per
    before-set, then walks the orders in lexicographic order: n * n!
    differences, gathered through the cached before-mask table.  Refuses
    n > ORDER_CAP.

    For n > _TABLE_N the walk goes one prefix of n - _TABLE_N variables at a
    time (for smaller n the one prefix is empty).  The orders that start
    with a prefix are the prefix followed by the lexicographic orders of the
    other _TABLE_N variables: a prefix variable's difference is the same in
    each of them, and the others walk the cached table over f's values
    re-indexed onto their own masks.
    """
    n = vp.n
    _check_cap(n)
    vals = _corner_values(f, vp, np.arange(1 << n))
    table = _before_masks(min(n, _TABLE_N))
    suffixes = table.shape[1]
    z = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for prefix in itertools.permutations(range(n), n - len(table)):
            mask = 0
            for v in prefix:
                z[v] += suffixes * (vals[mask | 1 << v] - vals[mask])
                mask |= 1 << v
            others = [v for v in range(n) if v not in prefix]
            z[others] += _walk(table, vals[_spread(others) | mask])
        z /= math.factorial(n)
    return AttributionResult("ss-brute", tuple(float(v) for v in z), _change(f, vp, (vals[0], vals[-1])))


def random_order_attribution(f, vp: ValuePair, pw: PermutationWeights) -> AttributionResult:
    """Convex combination of the order walks given by pw; uniform weights recover Shapley-Shubik.

    f is evaluated once at each corner that an order of positive weight
    visits, and nowhere else.
    """
    n = vp.n
    _check_cap(n)
    if pw.n != n:
        raise ValueError(f"weights are over {pw.n} variables, values have {n}")
    befores, weights, corners = pw._walk_plan
    vals = np.zeros(1 << n)  # every mask is subtracted; those no order visits read 0, and are never gathered
    vals[corners] = _corner_values(f, vp, corners)
    z = _walk(befores, vals, weights)
    return AttributionResult("random-order", tuple(z.tolist()), _change(f, vp, (vals[0], vals[-1])))


def value_variant_attribution(f, vp: ValuePair, weight_fn: Callable[[ValuePair], PermutationWeights]) -> AttributionResult:
    """Random-order attribution whose weights may depend on the value pair.

    With `hash_order_weights` as weight_fn it is complete, dummy, additive
    and conditionally nonnegative, but neither anonymous nor (affine) scale
    invariant, because renaming or rescaling variables changes its weights:
    a witness that those axioms are needed to single out Aumann-Shapley-Shubik.
    """
    res = random_order_attribution(f, vp, weight_fn(vp))
    return AttributionResult("value-variant", res.z, res.change)


def hash_order_weights(vp: ValuePair) -> PermutationWeights:
    """Weights proportional to 1 + H(r, s, order), H a SHA-256 hash mapped into [0, 1).

    The hash is of ``repr((r, s, order))`` so the instance is reproducible
    across runs and platforms while still varying with the value pair.
    """
    import hashlib  # OpenSSL costs a few MB of memory; only this rule needs it

    n = vp.n
    _check_cap(n)
    raw = {}
    for order in itertools.permutations(range(1, n + 1)):
        digest = hashlib.sha256(repr((vp.r, vp.s, order)).encode()).digest()
        raw[order] = 1.0 + int.from_bytes(digest[:8], "big") / 2.0**64
    total = math.fsum(raw.values())
    weights = {o: w / total for o, w in raw.items()}
    # rounding in the division can leave the sum a few ulps per order off 1;
    # absorb the slack into the largest weight
    heaviest = max(weights, key=weights.get)
    weights[heaviest] += 1.0 - math.fsum(weights.values())
    return PermutationWeights(weights)
