"""Numerical path attribution: integrate each partial derivative along a monotone path.

A base path gamma lives on the unit cube with gamma(0) = 0 and gamma(1) = 1
componentwise; pairing it with a value pair gives the path
r + (s - r) * gamma(t), and the attribution to variable i is the integral of
d_i f along that path times the i-th velocity, taken at all the nodes of a
pass at once by one ``f.gradients`` call.  A model, a flow graph and a
`BlackBoxFunction` all answer that call; a plain callable is wrapped in a
black box.  The change comes from ``f.changes`` for a model or a flow
graph, and from a black box's values at s and r.  Integrals use composite
Gauss-Legendre panels that double until two successive estimates agree to
the requested tolerance; failure to converge is flagged on the result
rather than raised, so verification harnesses can report it.  The rule's
nodes and weights (`attrib.core._nodes`) and the largest block a pass
builds (`attrib.core._CHUNK_ELEMENTS`) live in `attrib.core`, which
`attrib.exact` shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import _CHUNK_ELEMENTS, AttributionResult, ValuePair, _change, _check_permutation, _nodes

__all__ = [
    "QuadratureConfig",
    "BlackBoxFunction",
    "BasePath",
    "straight_line",
    "edge_walk",
    "attribute_path",
    "attribute_aumann_shapley",
]


# Gauss-Legendre nodes per panel, and panels per smooth stretch of the path in the first pass.
_ORDER = 16
_PANELS = 8
# Most nodes a pass after the first may have: refining stops, unconverged, before a pass that would have more.
# Each doubling doubles a pass and its node arrays; the default 12 doublings of a straight line reach 2^19 nodes.
_MAX_PASS_NODES = 1 << 20


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10
    max_refine: int = 12

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0) or self.max_refine < 0:
            raise ValueError("invalid quadrature configuration")


@dataclass
class BlackBoxFunction:
    """Opaque evaluator, optionally with an analytic gradient.

    Without a gradient handle, partials fall back to central differences with
    per-coordinate step 1e-6 * (1 + |x_i|).
    """

    n: int
    fn: Callable[[Sequence[float]], float]
    grad: Callable[[Sequence[float]], Sequence[float]] | None = None

    def __call__(self, x: Sequence[float]) -> float:
        return self.fn(x)

    def gradients(self, X) -> np.ndarray:
        """The gradient at every row of the N x n array X, as an N x n array, taken point by point."""
        rows = np.asarray(X, dtype=float).tolist()
        if self.grad is not None:
            return np.array([list(self.grad(x)) for x in rows])
        G = [[0.0] * self.n for _ in rows]
        for x, g in zip(rows, G):
            for i in range(self.n):
                h = 1e-6 * (1.0 + abs(x[i]))
                hi, lo = list(x), list(x)
                hi[i] += h
                lo[i] -= h
                g[i] = (self.fn(hi) - self.fn(lo)) / (2.0 * h)
        return np.array(G)


# ---------------------------------------------------------------------------
# base paths on the unit cube


@dataclass(frozen=True)
class BasePath:
    """A base path gamma and what quadrature needs of it.

    g and dg map an array of N values of t to the arrays of gamma(t) and
    gamma'(t): N x n for a path over n variables, N x 1 for the straight
    line, which broadcasts over any n and so records n as None.  breaks
    bound the panels, so each panel sees a smooth stretch of the path.
    """

    kind: str
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    breaks: tuple[float, ...]
    n: int | None


def straight_line() -> BasePath:
    """gamma_i(t) = t for every component."""
    return BasePath("straight-line", lambda t: t[:, None], lambda t: np.ones((len(t), 1)), (0.0, 1.0), None)


def edge_walk(order: Sequence[int]) -> BasePath:
    """Walk the cube edges, moving one variable at a time in the given order (1-based)."""
    n = len(order)
    if not n:
        raise ValueError("empty order: an edge walk moves at least one variable")
    _check_permutation(order, n)
    rank = np.empty(n)  # 0-based slot in which each variable moves
    rank[[int(v) - 1 for v in order]] = range(n)

    def g(t: np.ndarray) -> np.ndarray:
        return np.clip(t[:, None] * n - rank, 0.0, 1.0)

    def dg(t: np.ndarray) -> np.ndarray:
        tn = t[:, None] * n
        return np.where((rank <= tn) & (tn < rank + 1), float(n), 0.0)

    return BasePath("edge-walk", g, dg, tuple(k / n for k in range(n + 1)), n)


# ---------------------------------------------------------------------------
# quadrature


def attribute_path(f, vp: ValuePair, base: BasePath, q: QuadratureConfig | None = None) -> AttributionResult:
    """Attribution along base path: z_i = integral of d_i f(path(t)) * velocity_i(t) dt.

    Path breakpoints (the edge-walk corners) bound the panels so each panel
    sees a smooth integrand.  Panels double until two successive passes
    agree componentwise within q.tol (relative, with an absolute floor of
    q.tol); out of max_refine doublings, before a pass of more than
    _MAX_PASS_NODES nodes, or at a pass that is not finite, the estimate is
    returned with converged=False.  A pass takes its gradients in one
    ``f.gradients`` call (one per block of _CHUNK_ELEMENTS values on very
    fine passes); f is a model, a flow graph or a `BlackBoxFunction`, and a
    plain callable is wrapped in a black box.
    """
    return _integrate(f, vp, base, q, f"path:{base.kind}")


def attribute_aumann_shapley(f, vp: ValuePair, q: QuadratureConfig | None = None) -> AttributionResult:
    """Path attribution along the straight line from r to s."""
    return _integrate(f, vp, straight_line(), q, "as-numeric")


def _integrate(f, vp: ValuePair, base: BasePath, q: QuadratureConfig | None, method: str) -> AttributionResult:
    """The attribution of `attribute_path`, under the method name given, so that its result and verdict are made once."""
    q = q or QuadratureConfig()
    if base.n is not None and base.n != vp.n:
        raise ValueError(f"{base.kind} path is over {base.n} variables, values have {vp.n}")
    r = np.asarray(vp.r)
    if not hasattr(f, "gradients"):
        f = BlackBoxFunction(vp.n, f)
    step = max(1, _CHUNK_ELEMENTS // max(vp.n, 1))
    z = None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf or nan, and a result flagged unconverged
        d = np.asarray(vp.s) - r  # -1e308 to 1e308 moves by inf
        for k in range(q.max_refine + 1):
            if k and (len(base.breaks) - 1) * _ORDER * _PANELS * 2**k > _MAX_PASS_NODES:
                break
            nodes, weights = _nodes(base.breaks, _ORDER, _PANELS * 2**k)
            blocks = [(nodes[i : i + step], weights[i : i + step]) for i in range(0, len(nodes), step)]
            z, prev = sum(w @ (f.gradients(r + d * base.g(t)) * (d * base.dg(t))) for t, w in blocks), z
            converged = prev is not None and bool(np.all(np.abs(z - prev) <= q.tol * (1.0 + np.abs(z))))
            if converged or not np.isfinite(z).all():
                break
    return AttributionResult(method, tuple(z.tolist()), _change(f, vp), converged)
