"""Combinatorial reference methods: Shapley-Shubik over all n! orders and friends.

These exist to cross-check the fast kernels, so they stay literal about
what they sum: each variable's marginal differences f(S | v) - f(S), read
from the values of f at the box corners, weighted by the share of orders
in which exactly the set S moves before v.  Averaging over orders gives the
same number as that weighted sum over before-sets, since a difference
depends only on its before-set.  The one engine, `_subset_sum`, takes a
*plan*: for every variable v, the before-sets S of positive weight W_v[S]
and those weights.  It returns sum_S W_v[S] (f(S | v) - f(S)) for each v.

Shapley-Shubik enumeration weighs every set S without v by the order
weight w_|S|(n) = |S|! (n-1-|S|)! / n! (Shapley 1953), so its plan depends
only on n and is built once per n (`_shapley_plan`).  A call costs 2^n
corner values and n 2^(n-1) weighted differences.  A `PermutationWeights`
sums the weights of its orders into W_v once, on first use, from the
before-mask table of `_befores` (row v holds, for every order, the bitmask
of the variables that move before v); the table itself is not kept.
Orders are represented as tuples listing variables (1-based) in the
sequence they move, e.g. (2, 1) moves variable 2 first.  A model or a flow
graph gives the values at all the corners a walk needs in one ``f.values``
call, and its change from ``f.changes``.  A black box is called once per
corner, and its change is its corner value at s less that at r.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import AttributionResult, ReadOnlyDict, ValuePair, _change, _check_permutation
from .exact import shapley_weights

__all__ = [
    "ORDER_CAP",
    "PermutationWeights",
    "shapley_shubik_bruteforce",
    "random_order_attribution",
    "value_variant_attribution",
    "hash_order_weights",
]

ORDER_CAP = 10  # 10! = 3,628,800 orders; enumeration is for verification, not production


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
    def _walk_plan(self) -> tuple[tuple[np.ndarray, ...], list[int]]:
        """The plan of the orders of positive weight, and the corners they visit, in increasing order of mask.

        W_v[S] sums the weights of the orders in which exactly S moves
        before v.  Every before-set is a corner an order visits, and so is
        the set of all variables.
        """
        orders = [order for order, w in self.weights.items() if w > 0.0]
        weights = np.array([self.weights[order] for order in orders])
        befores = _befores(np.array(orders, dtype=np.int8) - 1)
        plan = _plan(np.stack([np.bincount(before, weights, minlength=1 << self.n) for before in befores]))
        return plan, np.union1d(plan[1], (1 << self.n) - 1).tolist()


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


def _befores(orders: np.ndarray) -> np.ndarray:
    """The (n, E) before-mask table of an E x n array of 0-based orders: uint8 up to 8 variables, uint16 above."""
    n = orders.shape[1]
    bits = np.left_shift(1, np.arange(n)).astype(np.uint8 if n <= 8 else np.uint16)
    befores = np.empty((n, len(orders)), bits.dtype)
    mask = np.zeros(len(orders), bits.dtype)
    cols = np.arange(len(orders))
    for step in orders.T:
        befores[step, cols] = mask
        mask |= bits[step]
    return befores


def _plan(W: np.ndarray) -> tuple[np.ndarray, ...]:
    """The read-only plan of the (n, 2^n) before-set weights W: every v and S with W_v[S] > 0, S | v, and W_v[S].

    Entries go by variable, then by mask.
    """
    owner, before = np.nonzero(W > 0.0)
    plan = owner, before, before | 1 << owner, W[owner, before]
    for a in plan:
        a.flags.writeable = False
    return plan


@lru_cache(maxsize=None)
def _shapley_plan(n: int) -> tuple[np.ndarray, ...]:
    """The cached plan of Shapley-Shubik over n variables: every set S without v, at weight w_|S|(n)."""
    sizes = np.zeros(1 << n, np.intp)
    for j in range(n):  # |S| by halves: the masks from 2^j to 2^(j+1) - 1 are those below 2^j, with j added
        sizes[1 << j : 2 << j] = sizes[: 1 << j] + 1
    by_size = np.array(shapley_weights(n) + (0.0,))  # the set of all n variables is no before-set
    holds = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    return _plan(np.where(holds, 0.0, by_size[sizes]))


def _subset_sum(plan: tuple[np.ndarray, ...], vals: np.ndarray) -> np.ndarray:
    """Each variable v's sum of W_v[S] (vals[S | v] - vals[S]) over its before-sets S of the plan.

    vals holds, indexed by mask, f at each box corner the plan reads and
    any number elsewhere.  Every variable has a before-set of positive
    weight, so the result has one entry per variable.
    """
    owner, before, after, weights = plan
    with np.errstate(over="ignore", invalid="ignore"):  # corners that overflow give inf or nan, flagged by the result
        return np.bincount(owner, weights * (vals[after] - vals[before]))


def shapley_shubik_bruteforce(f, vp: ValuePair) -> AttributionResult:
    """Average marginal contribution over all n! variable orders.

    Evaluates f on all 2^n box corners (one ``f.values`` call for a model
    or a flow graph) and weighs each of the n 2^(n-1) differences
    f(S | v) - f(S) by the share w_|S|(n) of the orders in which S moves
    before v.  Refuses n > ORDER_CAP.
    """
    n = vp.n
    _check_cap(n)
    vals = _corner_values(f, vp, np.arange(1 << n))
    z = _subset_sum(_shapley_plan(n), vals)
    return AttributionResult("ss-brute", tuple(z.tolist()), _change(f, vp, (vals[0], vals[-1])))


def random_order_attribution(f, vp: ValuePair, pw: PermutationWeights) -> AttributionResult:
    """Convex combination of the order walks given by pw; uniform weights recover Shapley-Shubik.

    f is evaluated once at each corner that an order of positive weight
    visits, and nowhere else.
    """
    n = vp.n
    _check_cap(n)
    if pw.n != n:
        raise ValueError(f"weights are over {pw.n} variables, values have {n}")
    plan, corners = pw._walk_plan
    vals = np.zeros(1 << n)  # the plan reads only the corners its orders visit
    vals[corners] = _corner_values(f, vp, corners)
    z = _subset_sum(plan, vals)
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
