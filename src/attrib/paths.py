"""Numerical path attribution: integrate each partial derivative along a monotone path.

A base path gamma lives on the unit cube with gamma(0) = 0 and gamma(1) = 1
componentwise; pairing it with a value pair gives the affine path
r + (s - r) * gamma(t), and the attribution to variable i is the integral of
d_i f along that path times the i-th velocity.  Integrals use composite
Gauss-Legendre panels that double until two successive estimates agree to the
requested tolerance; failure to converge is flagged on the result rather than
raised, so verification harnesses can report it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core import AttributionResult, CharacteristicFunction, ValuePair, _exact_sum, evaluate, gradient

__all__ = [
    "QuadratureConfig",
    "BlackBoxFunction",
    "straight_line",
    "edge_walk",
    "tabulated_path",
    "affine_path",
    "AffinePath",
    "attribute_path",
    "attribute_aumann_shapley",
    "convex_combination",
    "composite_gauss_legendre",
]


@dataclass(frozen=True)
class QuadratureConfig:
    order: int = 16
    panels: int = 8
    tol: float = 1e-10
    max_refine: int = 12

    def __post_init__(self):
        if self.order < 1 or self.panels < 1 or self.tol <= 0 or self.max_refine < 0:
            raise ValueError("invalid quadrature configuration")


@dataclass
class BlackBoxFunction:
    """Opaque evaluator, optionally with an analytic gradient.

    Without a gradient handle, partials fall back to central differences with
    per-coordinate step fd_scale * (1 + |x_i|).
    """

    n: int
    fn: Callable[[Sequence[float]], float]
    grad: Callable[[Sequence[float]], Sequence[float]] | None = None
    fd_scale: float = 1e-6

    def __call__(self, x: Sequence[float]) -> float:
        return self.fn(x)

    def gradient(self, x: Sequence[float]) -> list[float]:
        if self.grad is not None:
            return list(self.grad(x))
        out = [0.0] * self.n
        base = list(x)
        for i in range(self.n):
            h = self.fd_scale * (1.0 + abs(base[i]))
            hi = list(base)
            lo = list(base)
            hi[i] += h
            lo[i] -= h
            out[i] = (self.fn(hi) - self.fn(lo)) / (2.0 * h)
        return out


# ---------------------------------------------------------------------------
# base paths on the unit cube


class StraightLine:
    """gamma_i(t) = t for every component."""

    kind = "straight-line"

    def resolve(self, n: int):
        ones = [1.0] * n

        def g(t: float) -> list[float]:
            return [t] * n

        def dg(t: float) -> list[float]:
            return ones

        return g, dg, (0.0, 1.0)


class EdgeWalk:
    """Walk the cube edges, moving one variable at a time in the given order."""

    kind = "edge-walk"

    def __init__(self, order: Sequence[int]):
        self.order = tuple(int(v) for v in order)
        if sorted(self.order) != list(range(1, len(self.order) + 1)):
            raise ValueError(f"not an order over 1..{len(self.order)}: {order}")

    def resolve(self, n: int):
        if len(self.order) != n:
            raise ValueError(f"edge walk is over {len(self.order)} variables, path needs {n}")
        rank = [0] * n  # 0-based slot in which each variable moves
        for slot, v in enumerate(self.order):
            rank[v - 1] = slot

        def g(t: float) -> list[float]:
            tn = t * n
            return [min(1.0, max(0.0, tn - rank[i])) for i in range(n)]

        def dg(t: float) -> list[float]:
            tn = t * n
            return [float(n) if rank[i] <= tn < rank[i] + 1 else 0.0 for i in range(n)]

        breaks = tuple(k / n for k in range(n + 1))
        return g, dg, breaks


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, cut back so the end segment stays monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic coefficients (4, intervals), highest power first, of the monotone PCHIP through (x, y).

    Interior slopes are the weighted harmonic means of Fritsch and Butland
    (SIAM J. Sci. Stat. Comput. 5(2), 1984), zero where the neighbouring
    secants differ in sign or vanish; end slopes use the one-sided rule
    above; two samples give the straight line.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if len(x) == 2:
        d[:] = m[0]
    else:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


class TabulatedPath:
    """Componentwise monotone path given by samples, filled in with monotone cubics."""

    kind = "user"

    def __init__(self, ts: Sequence[float], components: Sequence[Sequence[float]]):
        ts = [float(t) for t in ts]
        if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("sample grid must increase strictly from 0 to 1")
        self.ts = tuple(ts)
        comps = []
        for ys in components:
            ys = [float(y) for y in ys]
            if len(ys) != len(ts):
                raise ValueError("each component needs one sample per grid point")
            if ys[0] != 0.0 or ys[-1] != 1.0 or any(b < a for a, b in zip(ys, ys[1:])):
                raise ValueError("component samples must be nondecreasing from 0 to 1")
            comps.append(tuple(ys))
        self.components = tuple(comps)
        # pchip interpolation preserves the monotonicity of the samples;
        # one (4, components, intervals) table serves every component
        grid = np.asarray(self.ts)
        tables = [_pchip_coefficients(grid, np.asarray(ys)) for ys in self.components]
        self._coeffs = np.stack(tables, axis=1) if tables else np.empty((4, 0, len(ts) - 1))

    def _locate(self, t: float) -> tuple[np.ndarray, float]:
        k = min(max(bisect_right(self.ts, t) - 1, 0), len(self.ts) - 2)
        return self._coeffs[:, :, k], t - self.ts[k]

    def resolve(self, n: int):
        if len(self.components) != n:
            raise ValueError(f"path has {len(self.components)} components, needs {n}")

        def g(t: float) -> list[float]:
            (c3, c2, c1, c0), u = self._locate(t)
            return (((c3 * u + c2) * u + c1) * u + c0).tolist()

        def dg(t: float) -> list[float]:
            (c3, c2, c1, _), u = self._locate(t)
            return ((3.0 * c3 * u + 2.0 * c2) * u + c1).tolist()

        return g, dg, self.ts


def straight_line() -> StraightLine:
    return StraightLine()


def edge_walk(order: Sequence[int]) -> EdgeWalk:
    return EdgeWalk(order)


def tabulated_path(ts: Sequence[float], components: Sequence[Sequence[float]]) -> TabulatedPath:
    return TabulatedPath(ts, components)


@dataclass
class AffinePath:
    """Concrete path t -> r + (s - r) * gamma(t) with its componentwise velocity."""

    vp: ValuePair
    gamma: Callable[[float], list[float]]
    dgamma: Callable[[float], list[float]]
    breakpoints: tuple[float, ...]

    def point(self, t: float) -> list[float]:
        g = self.gamma(t)
        return [self.vp.r[i] + (self.vp.s[i] - self.vp.r[i]) * g[i] for i in range(self.vp.n)]

    def velocity(self, t: float) -> list[float]:
        dg = self.dgamma(t)
        return [(self.vp.s[i] - self.vp.r[i]) * dg[i] for i in range(self.vp.n)]


def affine_path(base, vp: ValuePair) -> AffinePath:
    g, dg, breaks = base.resolve(vp.n)
    return AffinePath(vp, g, dg, tuple(breaks))


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=None)
def _leggauss(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def composite_gauss_legendre(fn: Callable[[float], float], a: float, b: float, order: int = 16, panels: int = 1) -> float:
    """Integral of fn over [a, b] with `panels` equal Gauss-Legendre panels."""
    nodes, weights = _leggauss(order)
    h = (b - a) / panels
    total = 0.0
    for p in range(panels):
        mid = a + (p + 0.5) * h
        half = 0.5 * h
        for x, w in zip(nodes, weights):
            total += w * half * fn(mid + half * x)
    return total


def _estimate(integrand: Callable[[float], np.ndarray], breaks: Sequence[float], n: int, order: int, panels: int) -> np.ndarray:
    nodes, weights = _leggauss(order)
    z = np.zeros(n)
    for a, b in zip(breaks, breaks[1:]):
        h = (b - a) / panels
        for p in range(panels):
            mid = a + (p + 0.5) * h
            half = 0.5 * h
            for x, w in zip(nodes, weights):
                z += (w * half) * integrand(mid + half * x)
    return z


def _refine(integrand, breaks, n: int, q: QuadratureConfig) -> tuple[np.ndarray, bool]:
    panels = q.panels
    prev = None
    for _ in range(q.max_refine + 1):
        est = _estimate(integrand, breaks, n, q.order, panels)
        if prev is not None and np.all(np.abs(est - prev) <= q.tol * (1.0 + np.abs(est))):
            return est, True
        prev = est
        panels *= 2
    return prev, False


def _gradient_fn(f, n: int) -> Callable[[Sequence[float]], np.ndarray]:
    if isinstance(f, CharacteristicFunction):
        return lambda x: np.asarray(gradient(f, x))
    if isinstance(f, BlackBoxFunction):
        return lambda x: np.asarray(f.gradient(x))
    if callable(f):
        box = BlackBoxFunction(n, f)
        return lambda x: np.asarray(box.gradient(x))
    raise TypeError(f"cannot take gradients of {type(f)!r}")


def attribute_path(f, vp: ValuePair, base, q: QuadratureConfig | None = None) -> AttributionResult:
    """Attribution along base path: z_i = integral of d_i f(path(t)) * velocity_i(t) dt.

    Path breakpoints (edge-walk corners, tabulation nodes) bound the panels so
    each panel sees a smooth integrand.  Panels double until two successive
    passes agree componentwise within q.tol (relative, with an absolute floor
    of q.tol); if max_refine doublings are exhausted first, the best estimate
    is returned with converged=False.
    """
    q = q or QuadratureConfig()
    path = affine_path(base, vp)
    grad = _gradient_fn(f, vp.n)

    def integrand(t: float) -> np.ndarray:
        g = grad(path.point(t))
        v = path.velocity(t)
        return g * np.asarray(v)

    z, converged = _refine(integrand, path.breakpoints, vp.n, q)
    residual = _exact_sum(z) - (f(list(vp.s)) - f(list(vp.r)))
    return AttributionResult(f"path:{base.kind}", tuple(float(v) for v in z), residual, converged)


def attribute_aumann_shapley(f, vp: ValuePair, q: QuadratureConfig | None = None) -> AttributionResult:
    """Path attribution along the straight line from r to s."""
    res = attribute_path(f, vp, straight_line(), q)
    return replace(res, method="as-numeric")


class _ConvexMethod:
    def __init__(self, parts):
        self.parts = parts

    def __call__(self, f, vp: ValuePair) -> AttributionResult:
        n = vp.n
        z = [0.0] * n
        residual = 0.0
        converged = True
        for method, w in self.parts:
            res = method(f, vp)
            for i in range(n):
                z[i] += w * res.z[i]
            residual += w * res.residual
            converged = converged and res.converged
        return AttributionResult("convex", tuple(z), residual, converged)


def convex_combination(methods: Sequence[tuple[Callable, float]]) -> Callable:
    """Blend attribution methods with nonnegative weights summing to 1.

    Each entry is (method, weight) where method maps (f, vp) to an
    AttributionResult; completeness is preserved by convexity.
    """
    total = math.fsum(w for _, w in methods)
    if any(w < 0 for _, w in methods) or abs(total - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    return _ConvexMethod(list(methods))
