"""Characteristic functions: sparse multilinear part plus additively separable terms.

Variables are numbered 1..n.  A multilinear part is stored as a sparse map
from index subsets to coefficients, so ``{(1, 2): 3.0}`` is ``3*x1*x2`` and
``{(): 5.0}`` is the constant 5.  Separable terms are univariate functions of
a single variable drawn from a small closed registry of kinds, each of which
has an exact symbolic derivative and composes cleanly with affine changes of
variable.  All values are immutable after construction, their mappings held
as a `ReadOnlyDict`, and every operation here is a pure function, so
instances can be shared freely across threads.  The helpers that both
kernel modules share live here too, so `attrib.exact` loads without
`attrib.paths`: `_batch_partials`, the composite Gauss-Legendre rule
`_nodes` and the block size `_CHUNK_ELEMENTS`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

Subset = tuple[int, ...]

__all__ = [
    "DomainError",
    "MultilinearPoly",
    "SeparableTerm",
    "CharacteristicFunction",
    "ValuePair",
    "AttributionResult",
    "evaluate",
    "partial_derivative",
    "combine",
    "permute_variables",
    "affine_reparameterize",
    "permute_vector",
    "monomial",
    "from_terms",
    "product_function",
]


class DomainError(ValueError):
    """A separable term was evaluated outside its domain (e.g. log of x <= 0) or where it overflows a double."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ReadOnlyDict(dict):
    """A dict fixed when built: every mutator raises TypeError, and it pickles and copies as its contents."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


# ---------------------------------------------------------------------------
# multilinear part


def _monomial_indices(n: int, key: Iterable[int]) -> Subset:
    """The variables of a monomial as a sorted tuple; ValueError for a repeated index or one outside 1..n."""
    idx = tuple(int(i) for i in key)
    if len(set(idx)) != len(idx):
        raise ValueError(f"repeated index in monomial {idx}; degree above 1 per variable is not representable")
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
    return tuple(sorted(idx))


def _canonical_terms(n: int, terms) -> dict[Subset, float]:
    items = terms.items() if isinstance(terms, Mapping) else terms
    acc: dict[Subset, float] = {}
    for key, coeff in items:
        k = _monomial_indices(n, key)
        acc[k] = acc.get(k, 0.0) + float(coeff)
    for k, c in acc.items():
        if not math.isfinite(c):
            raise ValueError(f"monomial {k} has non-finite coefficient {c!r}")
    # exact-zero pruning only, so that combine() stays exactly additive
    return {k: c for k, c in sorted(acc.items()) if c != 0.0}


@dataclass(frozen=True)
class MultilinearPoly:
    """Sparse multilinear polynomial: sum of coeff * prod_{i in I} x_i.

    Keys are canonical sorted index tuples; zero coefficients are never stored.
    """

    n: int
    terms: Mapping[Subset, float]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        object.__setattr__(self, "terms", ReadOnlyDict(_canonical_terms(self.n, self.terms)))

    def is_zero(self) -> bool:
        return not self.terms

    def partial(self, i: int) -> "MultilinearPoly":
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} outside 1..{self.n}")
        out = {}
        for I, c in self.terms.items():
            if i in I:
                out[tuple(j for j in I if j != i)] = c
        return MultilinearPoly(self.n, out)


# ---------------------------------------------------------------------------
# separable terms
#
# Registry of univariate kinds, with params:
#   poly    (c0, c1, ...)        c0 + c1*x + c2*x^2 + ...
#   affine  (a, b)               a*x + b, stored as poly (b, a)
#   log     (a, b, scale)        scale * ln(a*x + b), needs a*x + b > 0
#   exp     (a, b, scale)        scale * exp(a*x + b)
#   powlaw  (a, b, scale, p)     scale * (a*x + b)^p, integer p != 0
#
# powlaw exists so that differentiating log stays inside the registry.  Every
# kind is closed under the inner affine substitution x -> (x - d)/c, which is
# what affine_reparameterize needs.

_PARAM_COUNT = {"affine": 2, "log": 3, "exp": 3, "powlaw": 4}

_EXP_SAFE = 709.0  # e^709 is about 8.2e307, so math.exp of an exponent at most this never overflows
_NORMAL, _MAX = 2.0**-1022, sys.float_info.max  # the smallest normal double (a product below it keeps fewer bits), the largest


@dataclass(frozen=True)
class SeparableTerm:
    index: int
    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.index < 1:
            raise ValueError("separable term index must be >= 1")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.kind} term on variable {self.index} has a non-finite parameter: {self.params}")
        if self.kind == "poly":
            if not self.params:
                raise ValueError("poly term needs at least one coefficient")
        elif self.kind in _PARAM_COUNT:
            if len(self.params) != _PARAM_COUNT[self.kind]:
                raise ValueError(f"{self.kind} term takes {_PARAM_COUNT[self.kind]} parameters")
            if self.kind == "powlaw":
                p = self.params[3]
                if p != int(p) or p == 0:
                    raise ValueError("powlaw exponent must be a nonzero integer")
        else:
            raise ValueError(f"unknown separable kind {self.kind!r}")
        if self.kind == "affine":  # a*x + b is the polynomial b + a*x
            object.__setattr__(self, "kind", "poly")
            object.__setattr__(self, "params", self.params[::-1])

    def value(self, x: float) -> float:
        """The term at x: Horner for a poly, scale ln arg for a log, `_product`'s rule for an exp or powlaw."""
        k, p = self.kind, self.params
        if k == "poly":
            acc = 0.0
            for c in reversed(p):
                acc = acc * x + c
            return acc
        if k != "log":
            return self._product(x, False)
        arg = p[0] * x + p[1]
        if arg <= 0.0:
            raise DomainError(f"log term on variable {self.index} got nonpositive argument {arg}", self.index)
        return p[2] * math.log(arg)

    def values(self, x: np.ndarray) -> np.ndarray:
        """`value` at every entry of the 1-d array x, with its bits: Horner on the whole array for a poly, else by `_column`."""
        k, p = self.kind, self.params
        if k != "log":
            return self.value(x) if k == "poly" else self._column(x, False)
        w = self._powers(p[0] * x + p[1], math.log)
        return np.fromiter(map(self.value, x.tolist()), float, len(x)) if w is None else p[2] * w

    def slope(self, x: float) -> float:
        """The derivative at x: Horner for p and p' at once for a poly, on an array x too, else `_product`'s rule."""
        if self.kind != "poly":
            return self._product(x, True)
        acc = d = 0.0
        for c in reversed(self.params):
            d, acc = d * x + acc, acc * x + c
        return d

    def slopes(self, x: np.ndarray) -> np.ndarray:
        """`slope` at every entry of the 1-d array x, with its bits: Horner on the whole array for a poly, else by `_column`."""
        return self.slope(x) if self.kind == "poly" else self._column(x, True)

    def _rule(self, slope: bool) -> tuple[tuple[float, ...], int, float]:
        """(factors, power, scale) of prod(factors) w, w = e^arg or arg^power, the value of an exp or powlaw or a non-poly slope.

        scale is prod(factors) in plain floats, nan once a product along the
        way is no normal double, so has lost bits or overflowed.
        """
        k, p = self.kind, self.params
        if k == "powlaw":
            factors, power = ((p[2], p[0], p[3]), int(p[3]) - 1) if slope else ((p[2],), int(p[3]))
        else:
            factors, power = ((p[2], p[0]) if slope else (p[2],)), -1 if k == "log" else 1
        scale = factors[0]
        for f in factors[1:]:
            scale = scale * f if _NORMAL <= abs(scale * f) <= _MAX else math.nan
        return factors, power, scale

    def _product(self, x: float, slope: bool) -> float:
        """`_rule`'s product at x, the value (slope False) or the slope: the one rule `values` and `slopes` take by columns.

        It is plain where each product along the way of the factors and w
        are normal doubles and the result is finite, so each rounding keeps 53
        bits and a slope has its derivative term's bits without building
        it.  Elsewhere `_exact_product` carries it and rounds once, so it is
        inf only where the exact product is.  Where arg^power overflows, the
        slope is that exact product, and so is a finite value; else, as
        where e^arg overflows or a zero argument has a negative power, it is
        a `DomainError`.  e^arg is ``math.exp``'s, also below the normal
        range, where an exact product would need decimal's exp.
        """
        k, p = self.kind, self.params
        factors, power, scale = self._rule(slope)
        arg = p[0] * x + p[1]
        if arg == 0.0 and power < 0:
            fault = f"has no derivative at x = {x!r}" if slope else "got zero base with negative exponent"
            raise DomainError(f"{k} term on variable {self.index} {fault}", self.index)
        try:
            w = math.exp(arg) if k == "exp" else arg**power
        except OverflowError:
            if k != "exp":
                v = _exact_product(factors, arg, power)
                if slope or math.isfinite(v):
                    return v
            raise DomainError(f"{k} term on variable {self.index} overflows at x = {x!r}", self.index) from None
        if (w >= _NORMAL or w <= -_NORMAL) and -_MAX <= (r := scale * w) <= _MAX:
            return r
        return _exact_product(factors, w if k == "exp" else arg, power)

    def _column(self, x: np.ndarray, slope: bool) -> np.ndarray:
        """`_product` at every entry of the 1-d array x, with its bits.

        The argument and the product are taken in numpy, w by the scalar
        rule's ``math.exp`` or ``pow`` call per entry (numpy's own need not
        round alike).  Entries the plain product refuses call the scalar
        rule, as does the whole column where any call raises, so it alone
        defines every edge case and every `DomainError`.
        """
        _, power, scale = self._rule(slope)
        rule, p = self.slope if slope else self.value, self.params
        w = self._powers(p[0] * x + p[1], math.exp if self.kind == "exp" else power)
        if w is None:
            return np.fromiter(map(rule, x.tolist()), float, len(x))
        r = scale * w
        for i in np.flatnonzero(~((np.abs(w) >= _NORMAL) & (np.abs(r) <= _MAX))).tolist():
            r[i] = rule(float(x[i]))
        return r

    @staticmethod
    def _powers(arg: np.ndarray, fn) -> np.ndarray | None:
        """fn (``math.exp`` or ``math.log``), or the integer power fn, at every entry of arg; None where any call raises."""
        args = arg.tolist()
        calls = map(pow, args, repeat(fn)) if isinstance(fn, int) else map(fn, args)
        try:
            return np.fromiter(calls, float, len(args))
        except (ArithmeticError, ValueError):  # an overflow, a zero base with a negative power, a log of a nonpositive argument
            return None

    def change(self, a: float, b: float) -> float:
        """value(b) - value(a), taken where it would cancel from b - a.

        With slope alpha, offset beta and scale, an exp term changes by
        scale e^(alpha a + beta) expm1(alpha (b - a)) where |alpha (b - a)|
        < 1, and a log term by scale log1p(alpha (b - a) / (alpha a + beta))
        where that ratio is below 1/2 in size (Goldberg, "What every
        computer scientist should know about floating-point arithmetic",
        1991).  A poly, and a powlaw in its argument u = alpha x + beta,
        changes by (v - u) times the divided difference of the polynomial
        at u and v (`_divided_difference`), for a negative power -k the
        change of u^k over -(u v)^k.  It is taken where the argument moves
        by less than half its size, or where the two values are within a
        factor 2 of each other, so their plain difference is exact and
        keeps only the values' own rounding.  Elsewhere, wherever a form is
        0 or not finite, and where a powlaw's power in it is below the
        normal range, the change is the plain difference, tried
        at b first, so a term outside its domain at both raises b's
        `DomainError`.  A form is only taken where neither value raises: an
        exp's exponents are at most _EXP_SAFE, a log's arguments positive
        at both ends, and a poly's or powlaw's values are taken first.
        """
        k, p = self.kind, self.params
        if k == "exp":
            t = p[0] * (b - a)
            if -1.0 < t < 1.0:
                arg = p[0] * a + p[1]
                if arg <= _EXP_SAFE and p[0] * b + p[1] <= _EXP_SAFE:
                    form = p[2] * math.exp(arg) * math.expm1(t)
                    if 0.0 < abs(form) < math.inf:
                        return form
        elif k == "log":
            arg = p[0] * a + p[1]
            if arg > 0.0:
                q = p[0] * (b - a) / arg
                if -0.5 < q < 0.5 and p[0] * b + p[1] > 0.0:
                    form = p[2] * math.log1p(q)
                    if 0.0 < abs(form) < math.inf:
                        return form
        else:
            vb, va = self.value(b), self.value(a)
            u, v = (a, b) if k == "poly" else (p[0] * a + p[1], p[0] * b + p[1])
            if abs(v - u) < 0.5 * abs(u) or abs(vb - va) <= 0.5 * max(abs(va), abs(vb)):
                form = self._power_change(u, v)
                if 0.0 < abs(form) < math.inf:
                    return form
            return vb - va
        return self.value(b) - self.value(a)

    def _power_change(self, u: float, v: float) -> float:
        """A poly's or powlaw's change between the arguments u and v by divided differences.

        For a powlaw of power -k < 0, the change of u^k is divided by u^k
        and then by v^k, so the quotient between stays near the relative
        change and neither over- nor underflows where (u v)^k would.  nan
        where the change of u^k, u^k or v^k overflows or falls below the
        normal range, where it keeps fewer bits.
        """
        p = self.params
        if self.kind == "poly":
            return (v - u) * _divided_difference(p, u, v)
        e = int(p[3])
        form = (v - u) * _divided_difference((0.0,) * abs(e) + (1.0,), u, v)
        if not _NORMAL <= abs(form) < math.inf:
            return math.nan
        if e > 0:
            return p[2] * form
        try:
            pu, pv = u**-e, v**-e
        except OverflowError:
            return math.nan
        if abs(pu) < _NORMAL or abs(pv) < _NORMAL:
            return math.nan
        return -p[2] * (form / pu / pv)

    def derivative(self) -> "SeparableTerm":
        k, p = self.kind, self.params
        try:
            if k == "poly":
                return SeparableTerm(self.index, "poly", tuple(j * c for j, c in enumerate(p))[1:] or (0.0,))
            factors, power, _ = self._rule(True)
            scale = math.prod(factors)
            if k == "exp":
                return SeparableTerm(self.index, "exp", (p[0], p[1], scale))
            if power == 0:
                return SeparableTerm(self.index, "poly", (scale,))
            return SeparableTerm(self.index, "powlaw", (p[0], p[1], scale, float(power)))
        except ValueError:  # the only fault a derived term can have: a product of parameters overflowed
            raise ValueError(f"the derivative of the {k} term on variable {self.index} has a non-finite parameter") from None

    def scaled(self, a: float) -> "SeparableTerm":
        k, p = self.kind, self.params
        if k == "poly":
            return SeparableTerm(self.index, "poly", tuple(a * c for c in p))
        return SeparableTerm(self.index, k, p[:2] + (a * p[2],) + p[3:])

    def compose_affine(self, c: float, d: float) -> "SeparableTerm":
        """Substitute x -> (x - d)/c inside this term."""
        k, p = self.kind, self.params
        if k == "poly":
            return SeparableTerm(self.index, "poly", _poly_compose_affine(p, c, d))
        return SeparableTerm(self.index, k, (p[0] / c, p[1] - p[0] * d / c) + p[2:])

    def reindexed(self, new_index: int) -> "SeparableTerm":
        return SeparableTerm(new_index, self.kind, self.params)


def _exact_product(factors: tuple[float, ...], base: float, power: int) -> float:
    """prod(factors) base^power, carried in 40 significant digits and rounded once: only the result overflows, to inf, or underflows.

    The decimal exponent range reaches 10^(10^18), so no power of a double
    leaves it before the result would leave the doubles.
    """
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal  # only rows past the double range come here

    ctx = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])
    product = ctx.power(Decimal(base), power) if power else Decimal(1)  # decimal's 0^0 is NaN; a power of 0 is 1
    for factor in factors:
        product = ctx.multiply(product, Decimal(factor))
    return float(product)


def _divided_difference(coeffs: Sequence[float], u: float, v: float) -> float:
    """(P(v) - P(u)) / (v - u) for P(x) = sum_j coeffs[j] x^j, by Horner from the top coefficient: D <- P_v + u D, then P_v <- P_v v + c.

    For u = v it is P'(u).  Its error is a few roundings of the size of
    its terms, sum_j |c_j| sum_{i<j} |u|^i |v|^(j-1-i), so a change taken
    as (v - u) times it is within a few roundings of |v - u| times that
    size: it does not lose the bits the two values share when v is near
    u, as their difference does.  Coefficients of mixed signs can still
    cancel inside the sum, to within that bound.
    """
    d = pv = 0.0
    for c in reversed(coeffs):
        d = pv + u * d
        pv = pv * v + c
    return d


def _separable_columns(X: np.ndarray, terms: Sequence[SeparableTerm], column, rule) -> Iterable[tuple[int, np.ndarray]]:
    """(i, column(t, X[:, i])) for each term t in turn, i its column of X; column is `values` or `slopes`.

    On a `DomainError` the point-major loop of rule, `value` or `slope`,
    reruns, so the first failing point's error is raised, as one point's
    call would.
    """
    try:
        for t in terms:
            yield t.index - 1, column(t, X[:, t.index - 1])
    except DomainError:
        for x in X.tolist():
            for t in terms:
                rule(t, x[t.index - 1])
        raise


def _poly_compose_affine(coeffs: tuple[float, ...], c: float, d: float) -> tuple[float, ...]:
    # expand sum_j coeffs[j] * ((x - d)/c)^j in powers of x
    out = [0.0]
    power = [1.0]
    b0, a0 = -d / c, 1.0 / c
    for cj in coeffs:
        while len(out) < len(power):
            out.append(0.0)
        for t, v in enumerate(power):
            out[t] += cj * v
        nxt = [0.0] * (len(power) + 1)
        for t, v in enumerate(power):
            nxt[t] += b0 * v
            nxt[t + 1] += a0 * v
        power = nxt
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# the characteristic function and attribution value types


@dataclass(frozen=True)
class CharacteristicFunction:
    """f(x) = multilinear part + sum of separable terms.

    Separable terms are kept as given, sorted by variable, kind and
    parameters; two terms on one variable are never combined.

    Every method reads f through four calls: ``f(x)``, the value at one
    point, ``f.values(X)``, the values at the N rows of an N x n array,
    ``f.gradients(X)``, the gradients at those rows, and
    ``f.changes(R, S)``, the changes f(s) - f(r) between the E row pairs of
    two E x n arrays.  A flow graph (`attrib.models.DagModel`) answers the
    same four.
    """

    multilinear: MultilinearPoly
    separable: tuple[SeparableTerm, ...] = ()

    def __post_init__(self):
        for t in self.separable:
            if t.index > self.n:
                raise ValueError(f"separable term index {t.index} exceeds variable count {self.n}")
        object.__setattr__(self, "separable", tuple(sorted(self.separable, key=lambda t: (t.index, t.kind, t.params))))

    @property
    def n(self) -> int:
        return self.multilinear.n

    def __call__(self, x: Sequence[float]) -> float:
        return float(self.values([x])[0])

    def _points(self, X) -> np.ndarray:
        """X as an N x n float array; ValueError if its rows are not points of f."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"dimension mismatch: function has {self.n} variables, got points of shape {X.shape}")
        return X

    def values(self, X) -> np.ndarray:
        """f at every row of the N x n array X, as N values; ``f(x)`` is the one row of ``f.values([x])``.

        Each monomial in key order starts from its coefficient and
        multiplies in its columns, into a total that starts at 0.0; then
        each separable term's `_separable_columns` column, in term order, so
        every row has the bits of that loop run at its point alone, or the
        first failing point's `DomainError`.  Products that overflow give
        inf or nan, as in plain float arithmetic.
        """
        X = self._points(X)
        total = np.zeros(len(X))
        with np.errstate(over="ignore", invalid="ignore"):
            for I, c in self.multilinear.terms.items():
                p = np.full(len(X), c)
                for j in I:
                    p *= X[:, j - 1]
                total += p
            for _, v in _separable_columns(X, self.separable, SeparableTerm.values, SeparableTerm.value):
                total += v
        return total

    def gradients(self, X) -> np.ndarray:
        """All partial derivatives of f at every row of the N x n array X, as an N x n array.

        Monomials are added in ascending key order, then each separable
        term's slopes, its `_separable_columns` column, in term order, so
        every row has the bits of one point's call, or the first failing
        point's `DomainError`; products that overflow give inf.
        """
        X = self._points(X)
        G = np.zeros_like(X)
        with np.errstate(over="ignore", invalid="ignore"):
            for I, c in self.multilinear.terms.items():
                if I:
                    cols = [j - 1 for j in I]
                    G[:, cols] += _batch_partials(X[:, cols], c)
            for i, v in _separable_columns(X, self.separable, SeparableTerm.slopes, SeparableTerm.slope):
                G[:, i] += v
        return G

    def changes(self, R, S) -> np.ndarray:
        """f(s) - f(r) for every pair of rows (r, s) of two E x n arrays, as E values, from differences.

        A monomial c * prod_I x changes by the telescoped pair: from q = 0
        and p = c, for each j of I in turn, q <- q r_j + p (s_j - r_j), then
        p <- p s_j.  q then holds c (prod_I s - prod_I r) as a sum of terms
        that each carry one difference s_j - r_j, so nothing cancels when s
        is near r, as f(s) - f(r) would.  What the rounding of each s_j -
        r_j drops, e_j (`_sub_error`), runs through a second pair from
        q' = 0: q' <- q' r_j + p e_j, and q' joins q at the end where it is
        finite.  Without it, when q r_j and p (s_j - r_j) nearly cancel, as
        in a change of 1e-10 between points of size 1, that rounding would
        be the whole of the error, and its size would hang on the order of
        I.  The monomials are added in key
        order into a total that starts at 0.0, then each separable term's
        v_s - v_r, its value tried at s before r.  Products that overflow
        give inf or nan, as in plain float arithmetic.
        """
        R = np.asarray(R, dtype=float)
        S = np.asarray(S, dtype=float)
        if R.ndim != 2 or R.shape != S.shape or R.shape[1] != self.n:
            raise ValueError(f"dimension mismatch: function has {self.n} variables, got points of shapes {R.shape} and {S.shape}")
        out = []
        for r, s in zip(R.tolist(), S.tolist()):
            total = 0.0
            for I, c in self.multilinear.terms.items():
                q, q_err, p = 0.0, 0.0, c
                for j in I:
                    a, b = r[j - 1], s[j - 1]
                    d = b - a
                    q = q * a + p * d
                    q_err = q_err * a + p * _sub_error(a, b, d)
                    p *= b
                if math.isfinite(q_err):
                    q += q_err
                total += q
            for t in self.separable:
                total += t.change(r[t.index - 1], s[t.index - 1])
            out.append(total)
        return np.array(out)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [[list(I), c] for I, c in self.multilinear.terms.items()],
            "separable": [[t.index, t.kind, list(t.params)] for t in self.separable],
        }


@dataclass(frozen=True)
class ValuePair:
    """Initial vector r and final vector s of equal length with finite entries."""

    r: tuple[float, ...]
    s: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(v) for v in self.r))
        object.__setattr__(self, "s", tuple(float(v) for v in self.s))
        if len(self.r) != len(self.s):
            raise ValueError(f"initial and final vectors differ in length: {len(self.r)} vs {len(self.s)}")
        for v in self.r + self.s:
            if not math.isfinite(v):
                raise ValueError("value vectors must be finite")

    @property
    def n(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class AttributionResult:
    """Per-variable attributions z of the change f(s) - f(r), and the completeness residual sum(z) - change.

    The kernel supplies z, the change it evaluated and whether it
    converged; the residual is derived here, from the exact sum of z, and
    so is ``fault``, the one trust verdict: the fault `_distrust` finds,
    else "unconverged" where the kernel did not converge, else None.
    ``converged`` is then ``fault is None``.
    """

    method: str
    z: tuple[float, ...]
    change: float
    converged: bool = True
    residual: float = field(init=False)
    fault: str | None = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "change", float(self.change))
        object.__setattr__(self, "residual", _exact_sum(self.z) - self.change)
        fault = _distrust(self.method, self.z, self.change, self.residual) or (None if self.converged else "unconverged")
        object.__setattr__(self, "fault", fault)
        object.__setattr__(self, "converged", fault is None)


_RESIDUAL_TOL = 1e-9  # largest trusted |residual|, relative to |change| + sum |z_i|


def _distrust(method: str, z: Sequence[float], change: float, residual: float) -> str | None:
    """A result's fault: "non-finite" z or residual, a "residual" over _RESIDUAL_TOL (not for naive, whose point it is), or None."""
    if not (math.isfinite(residual) and all(map(math.isfinite, z))):
        return "non-finite"
    if method != "naive" and abs(residual) > _RESIDUAL_TOL * (abs(change) + _exact_sum(map(abs, z))):
        return "residual"
    return None


# ---------------------------------------------------------------------------
# operations


def _exact_sum(values: Iterable[float]) -> float:
    """math.fsum of values, or nan where they hold both infinities or their sum overflows."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _sub_error(a, b, d):
    """What rounding dropped from d = b - a: the exact b - a less d (Knuth's TwoSum), for floats or arrays alike.

    It is nan where d overflowed.  A telescoped pair that carries these
    errors adds their sum to its result only where that sum is finite, so
    an overflow leaves the result as the pair alone gives it.
    """
    z = d - b
    return (b - (d - z)) - (a + z)


def _change(f, vp: ValuePair, ends: tuple[float, float] | None = None) -> float:
    """The change f(s) - f(r) of a model or flow graph from ``f.changes``; of a black box, its value at s less its value at r.

    A black box has no structure to difference.  A caller that already
    holds its values (f(r), f(s)) passes them as ends, so that it is not
    evaluated again.
    """
    if hasattr(f, "changes"):
        return float(f.changes([vp.r], [vp.s])[0])
    if ends is not None:
        return float(ends[1]) - float(ends[0])
    return float(f(list(vp.s))) - float(f(list(vp.r)))


def evaluate(f: CharacteristicFunction, x: Sequence[float]) -> float:
    """f at the point x (length must equal f.n): the one row of ``f.values([x])``."""
    return f(x)


def _monomial_partials(vals: Sequence[float], scale: float) -> list[float]:
    """scale * prod(vals[u] for u != t) for every position t, in O(len(vals)).

    Prefix products fill the list and suffix products multiply in from the
    right, so no value is divided out and zeros among vals are harmless.
    """
    k = len(vals)
    out = [scale] * k
    for t in range(1, k):
        out[t] = out[t - 1] * vals[t - 1]
    suffix = 1.0
    for t in range(k - 2, -1, -1):
        suffix *= vals[t + 1]
        out[t] *= suffix
    return out


def _batch_partials(x: np.ndarray, scale) -> np.ndarray:
    """`_monomial_partials` along the last axis of x, with the same order of multiplications."""
    out = np.empty_like(x)
    out[..., 0] = scale
    out[..., 1:] = x[..., :-1]
    np.cumprod(out, axis=-1, out=out)
    out[..., :-1] *= np.cumprod(x[..., :0:-1], axis=-1)[..., ::-1]
    return out


# Largest block of elements one pass builds at once, in `attrib.exact` and `attrib.paths`.
_CHUNK_ELEMENTS = 1 << 20


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)  # looked up on first use: numpy loads np.polynomial lazily


def _nodes(breaks: tuple[float, ...], order: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w of the `order`-point Gauss-Legendre rule on `panels` equal panels between successive breaks.

    ``w @ fn(t)`` is then the composite rule for the integral of fn from
    breaks[0] to breaks[-1]; nodes come in ascending order, in read-only
    arrays.  The 16 rules of at most _KEPT_RULE_NODES nodes last asked for
    are kept, so the first passes of a quadrature build none; they hold at
    most 16 MB.
    """
    if (len(breaks) - 1) * order * panels > _KEPT_RULE_NODES:
        return _gauss_rule(breaks, order, panels)
    return _kept_gauss_rule(breaks, order, panels)


_KEPT_RULE_NODES = 1 << 16


def _gauss_rule(breaks: tuple[float, ...], order: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(order)
    a = np.asarray(breaks[:-1], dtype=float)[:, None]
    h = (np.asarray(breaks[1:], dtype=float)[:, None] - a) / panels
    mid = (a + (np.arange(panels) + 0.5) * h)[..., None]  # (segments, panels, 1)
    half = 0.5 * h[..., None]
    t, w = (mid + half * x).ravel(), np.broadcast_to(w * half, mid.shape[:2] + w.shape).ravel()
    t.flags.writeable = w.flags.writeable = False
    return t, w


_kept_gauss_rule = lru_cache(maxsize=16)(_gauss_rule)


def partial_derivative(f: CharacteristicFunction, i: int) -> CharacteristicFunction:
    """Return the partial derivative of f with respect to variable i.

    Monomials containing i drop the factor x_i, monomials without i vanish,
    the separable term on i is replaced by its exact derivative, and all other
    separable terms vanish.
    """
    if not 1 <= i <= f.n:
        raise ValueError(f"variable index {i} outside 1..{f.n}")
    sep = tuple(t.derivative() for t in f.separable if t.index == i)
    return CharacteristicFunction(f.multilinear.partial(i), sep)


def combine(f1: CharacteristicFunction, f2: CharacteristicFunction, a: float = 1.0, b: float = 1.0) -> CharacteristicFunction:
    """Return a*f1 + b*f2.

    `MultilinearPoly` merges the multilinear terms over one index set and
    prunes exact zero coefficients; the separable terms of both functions
    are kept, scaled.
    """
    if f1.n != f2.n:
        raise ValueError(f"dimension mismatch: {f1.n} vs {f2.n} variables")
    terms = [(I, a * c) for I, c in f1.multilinear.terms.items()] + [(I, b * c) for I, c in f2.multilinear.terms.items()]
    sep = tuple(t.scaled(a) for t in f1.separable) + tuple(t.scaled(b) for t in f2.separable)
    return CharacteristicFunction(MultilinearPoly(f1.n, terms), sep)


def _check_permutation(order: Sequence[int], n: int) -> Sequence[int]:
    """order itself, if it lists each of 1..n exactly once; ValueError otherwise."""
    if len(order) != n or sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"not an order over 1..{n}: {order}")
    return order


def permute_variables(f: CharacteristicFunction, sigma: Sequence[int]) -> CharacteristicFunction:
    """Relabel variable i as sigma[i-1] everywhere in f.

    A monomial over the index set I becomes a monomial over sigma(I), so the
    result g satisfies g(y) = f(x) whenever y[sigma(i)-1] = x[i-1].
    """
    sig = tuple(map(int, _check_permutation(sigma, f.n)))
    terms = [(tuple(sig[j - 1] for j in I), c) for I, c in f.multilinear.terms.items()]
    sep = tuple(t.reindexed(sig[t.index - 1]) for t in f.separable)
    return CharacteristicFunction(MultilinearPoly(f.n, terms), sep)


def permute_vector(sigma: Sequence[int], x: Sequence[float]) -> tuple[float, ...]:
    """Move x's entry for variable i into slot sigma[i-1] (companion to permute_variables)."""
    sig = tuple(map(int, _check_permutation(sigma, len(x))))
    out = [0.0] * len(x)
    for i, v in enumerate(x):
        out[sig[i] - 1] = v
    return tuple(out)


def affine_reparameterize(f: CharacteristicFunction, j: int, c: float, d: float) -> CharacteristicFunction:
    """Return g with variable j replaced by (x_j - d)/c, so g(..., c*y + d, ...) = f(..., y, ...).

    Requires c finite and greater than 0, and d finite.  The multilinear
    part stays multilinear because the substitution has degree 1; the
    separable term on j is composed with the inner affine map, which every
    registered kind supports.
    """
    if not 1 <= j <= f.n:
        raise ValueError(f"variable index {j} outside 1..{f.n}")
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"scale must be finite and greater than 0, got {c}")
    if not math.isfinite(d):
        raise ValueError(f"shift must be finite, got {d}")
    terms: list[tuple[Subset, float]] = []
    for I, coeff in f.multilinear.terms.items():
        if j in I:
            terms += [(I, coeff / c), (tuple(i for i in I if i != j), -coeff * d / c)]
        else:
            terms.append((I, coeff))
    sep = tuple(t.compose_affine(c, d) if t.index == j else t for t in f.separable)
    return CharacteristicFunction(MultilinearPoly(f.n, terms), sep)


# ---------------------------------------------------------------------------
# small constructors


def monomial(n: int, indices: Iterable[int], coeff: float = 1.0) -> CharacteristicFunction:
    return CharacteristicFunction(MultilinearPoly(n, {tuple(indices): coeff}))


def from_terms(n: int, terms, separable: Iterable[SeparableTerm] = ()) -> CharacteristicFunction:
    return CharacteristicFunction(MultilinearPoly(n, terms), tuple(separable))


def product_function(n: int) -> CharacteristicFunction:
    """x_1 * x_2 * ... * x_n."""
    return monomial(n, range(1, n + 1))
