"""Combinatorial reference methods: full n!-order enumeration and friends.

These exist to cross-check the fast kernels, so they stay deliberately
literal: every method walks variable orders through one block engine,
`_walk_orders`, which reads f at the box corners each order visits and sums
each variable's marginal contributions.  Orders are represented as tuples
listing variables (1-based) in the sequence they move, e.g. (2, 1) moves
variable 2 first.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import AttributionResult, ValuePair, _check_permutation, _exact_sum

__all__ = [
    "ORDER_CAP",
    "PermutationWeights",
    "shapley_shubik_bruteforce",
    "random_order_attribution",
    "value_variant_attribution",
    "hash_order_weights",
    "value_variant_example",
]

ORDER_CAP = 10  # 10! = 3,628,800 orders; enumeration is for verification, not production

_CHUNK = 100_000


def _check_cap(n: int):
    if n > ORDER_CAP:
        raise ValueError(f"order enumeration capped at {ORDER_CAP} variables, got {n}")
    if n < 1:
        raise ValueError("need at least one variable")


@dataclass(frozen=True)
class PermutationWeights:
    """Finite nonnegative weights over variable orders, summing to 1 within 1e-12."""

    weights: dict[tuple[int, ...], float]

    def __post_init__(self):
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


def _corner(vp: ValuePair, mask: int) -> list[float]:
    """The box corner holding s_j where bit j of mask is set, r_j elsewhere."""
    return [vp.s[j] if (mask >> j) & 1 else vp.r[j] for j in range(vp.n)]


def _walk_orders(n: int, orders: Iterable[tuple[int, ...]], corner_values: Callable, weights: dict | None = None) -> np.ndarray:
    """Per-variable totals of the marginal contributions along the given orders.

    Orders go in blocks of _CHUNK.  The prefix masks of a block name the
    corners each order visits, and corner_values maps a mask array to f
    there.  Differences of successive corners, times the order's weight when
    weights are given, are summed per variable by numpy's pairwise sum.
    """
    z = np.zeros(n, dtype=np.float64)
    orders = iter(orders)
    while block := list(itertools.islice(orders, _CHUNK)):
        perms = np.asarray(block, dtype=np.int64) - 1
        masks = np.zeros((len(block), n + 1), dtype=np.int64)
        for k in range(n):
            masks[:, k + 1] = masks[:, k] | np.left_shift(1, perms[:, k])
        vals = corner_values(masks)
        with np.errstate(over="ignore", invalid="ignore"):  # corners that overflow give inf or nan, flagged by the result
            diffs = vals[:, 1:] - vals[:, :-1]
            if weights is not None:
                diffs *= np.array([weights[order] for order in block])[:, None]
            z += np.array([diffs[perms == v].sum() for v in range(n)])
    return z


def shapley_shubik_bruteforce(f, vp: ValuePair) -> AttributionResult:
    """Average marginal contribution over all n! variable orders.

    Evaluates f on all 2^n box corners up front, then walks the orders in
    lexicographic order.  Refuses n > ORDER_CAP.
    """
    n = vp.n
    _check_cap(n)
    vals = np.array([f(_corner(vp, mask)) for mask in range(1 << n)], dtype=np.float64)
    z = _walk_orders(n, itertools.permutations(range(1, n + 1)), vals.__getitem__) / math.factorial(n)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _exact_sum(z) - (vals[-1] - vals[0])
    return AttributionResult("ss-brute", tuple(float(v) for v in z), residual)


def random_order_attribution(f, vp: ValuePair, pw: PermutationWeights) -> AttributionResult:
    """Convex combination of the order walks given by pw; uniform weights recover Shapley-Shubik.

    f is evaluated once at each corner that an order of positive weight
    visits, and nowhere else.
    """
    n = vp.n
    _check_cap(n)
    if pw.n != n:
        raise ValueError(f"weights are over {pw.n} variables, values have {n}")
    vals = np.empty(1 << n, dtype=np.float64)
    known = np.zeros(1 << n, dtype=bool)

    def corner_values(masks: np.ndarray) -> np.ndarray:
        new = np.unique(masks[~known[masks]])
        vals[new] = [f(_corner(vp, mask)) for mask in new.tolist()]
        known[new] = True
        return vals[masks]

    orders = sorted(order for order, w in pw.weights.items() if w > 0.0)
    z = _walk_orders(n, orders, corner_values, pw.weights)
    # at least one order has positive weight, so both box corners are known
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _exact_sum(z) - (vals[-1] - vals[0])
    return AttributionResult("random-order", tuple(z.tolist()), residual)


def value_variant_attribution(f, vp: ValuePair, weight_fn: Callable[[ValuePair], PermutationWeights]) -> AttributionResult:
    """Random-order attribution whose weights may depend on the value pair."""
    res = random_order_attribution(f, vp, weight_fn(vp))
    return AttributionResult("value-variant", res.z, res.residual)


def hash_order_weights(vp: ValuePair) -> PermutationWeights:
    """Weights proportional to 1 + H(r, s, order), H a SHA-256 hash mapped into [0, 1).

    The hash is of ``repr((r, s, order))`` so the instance is reproducible
    across runs and platforms while still varying with the value pair.
    """
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


def value_variant_example(f, vp: ValuePair) -> AttributionResult:
    """The shipped value-variant instance, using the SHA-256 weight rule."""
    return value_variant_attribution(f, vp, hash_order_weights)
