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
    "tabulated_path",
    "attribute_path",
    "attribute_aumann_shapley",
    "composite_gauss_legendre",
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


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, cut to 0 where it is not positive, so the end segment stays monotone.

    The secants m0 and m1 are never negative, so the rule's other cut, to
    3 m0 where the secants differ in sign, never applies: d <= 2 m0 there.
    """
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if d > 0.0 else 0.0


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic coefficients (4, intervals), highest power first, of the monotone PCHIP through (x, y).

    Interior slopes are the weighted harmonic means of Fritsch and Butland
    (SIAM J. Sci. Stat. Comput. 5(2), 1984), zero where a neighbouring
    secant vanishes (the samples never decrease, so no secant is negative
    and none differ in sign); end slopes use the one-sided rule above; two
    samples give the straight line.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if len(x) == 2:
        d[:] = m[0]
    else:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def tabulated_path(ts: Sequence[float], components: Sequence[Sequence[float]]) -> BasePath:
    """Componentwise monotone path given by samples, filled in with monotone cubics."""
    ts = tuple(float(t) for t in ts)
    if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("sample grid must increase strictly from 0 to 1")
    comps = []
    for ys in components:
        ys = [float(y) for y in ys]
        if len(ys) != len(ts):
            raise ValueError("each component needs one sample per grid point")
        if ys[0] != 0.0 or ys[-1] != 1.0 or any(b < a for a, b in zip(ys, ys[1:])):
            raise ValueError("component samples must be nondecreasing from 0 to 1")
        comps.append(ys)
    # pchip interpolation preserves the monotonicity of the samples;
    # one (4, components, intervals) table serves every component
    grid = np.asarray(ts)
    tables = [_pchip_coefficients(grid, np.asarray(ys)) for ys in comps]
    coeffs = np.stack(tables, axis=1) if tables else np.empty((4, 0, len(ts) - 1))

    def locate(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (4, N, components) of the interval holding each t, and t's offset (N, 1) into it."""
        k = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
        return coeffs[:, :, k].transpose(0, 2, 1), (t - grid[k])[:, None]

    def g(t: np.ndarray) -> np.ndarray:
        (c3, c2, c1, c0), u = locate(t)
        return ((c3 * u + c2) * u + c1) * u + c0

    def dg(t: np.ndarray) -> np.ndarray:
        (c3, c2, c1, _), u = locate(t)
        return (3.0 * c3 * u + 2.0 * c2) * u + c1

    return BasePath("user", g, dg, ts, len(comps))


# ---------------------------------------------------------------------------
# quadrature


def composite_gauss_legendre(fn: Callable[[float], float], a: float, b: float, order: int = 16, panels: int = 1) -> float:
    """Integral of fn over [a, b] with `panels` equal Gauss-Legendre panels, each of `order` nodes; fn takes one float."""
    for name, count in (("order", order), ("panels", panels)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    t, w = _nodes((a, b), order, panels)
    return float(w @ [fn(v) for v in t.tolist()])


def attribute_path(f, vp: ValuePair, base: BasePath, q: QuadratureConfig | None = None) -> AttributionResult:
    """Attribution along base path: z_i = integral of d_i f(path(t)) * velocity_i(t) dt.

    Path breakpoints (edge-walk corners, tabulation nodes) bound the panels so
    each panel sees a smooth integrand.  Panels double until two successive
    passes agree componentwise within q.tol (relative, with an absolute floor
    of q.tol); out of max_refine doublings, before a pass of more than
    _MAX_PASS_NODES nodes, or at a pass that is not finite, the estimate is
    returned with converged=False.  A pass takes its
    gradients in one ``f.gradients`` call (one per block of _CHUNK_ELEMENTS
    values on very fine passes); f is a model, a flow graph or a
    `BlackBoxFunction`, and a plain callable is wrapped in a black box.
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
