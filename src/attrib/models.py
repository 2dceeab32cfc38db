"""Named models, flow graphs, value snapshots, and the file grammars.

Model file grammar (line oriented; ``#`` starts a comment; sections in any
order, ``[variables]`` required)::

    [variables]
    a p c                  # names, whitespace separated, one or more per line
    [segments]             # optional variable -> label map
    a : department
    [multilinear]          # names ':' coefficient; empty name list = constant
    a p c : 1
    [separable]            # name ':' kind param...
    a : poly 0 2 1         # 0 + 2x + x^2
    p : log 1 0 1          # 1 * ln(1*x + 0)

Graph file grammar::

    [nodes]
    a b t
    [sink]
    t
    [starts]               # node ':' start-count variable name
    a : s_a
    [edges]                # from to ':' traversal-probability variable name
    a b : p_ab

A graph's model is the expected arrivals at its sink.  A `DagModel` answers
the four calls every method makes of a compiled model, ``d(x)``,
``d.values(X)``, ``d.gradients(X)`` and ``d.changes(R, S)``, from passes
forward and backward over the graph, with no routes.  `compile_dag`
expands a graph into one term per (start, route) pair; no method needs it,
and it stays as the route expansion that tests check the passes against.

Snapshots are CSV rows ``entity,variable,initial,final`` (header optional),
read in one pass that checks each row as it comes, into one columnar
`SnapshotTable`: entity and variable names, per-row indices into them and
per-row initial and final float arrays, which `SnapshotTable.columns` maps
onto a model's variables as E x n arrays.

Order-weight files, for ``random-order:``, hold one line per variable order::

    a p c : 0.5            # names in the order they move ':' weight

All four grammars live here, and `read_text` is the one reader of their
files: UTF-8, with an optional byte order mark.  A parser checks only the
syntax; `ModelSpec` and `DagModel` check the names when built, in code or
from a file, and a parser puts the file and the line of the item at fault
before their message.  Numbers are parsed as decimal doubles;
``format_model`` writes coefficients with repr so a round trip is bit exact.
"""
from __future__ import annotations

import csv
import graphlib
import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from .core import CharacteristicFunction, ReadOnlyDict, SeparableTerm, _check_permutation, _sub_error, from_terms

if TYPE_CHECKING:
    from .oracles import PermutationWeights

__all__ = [
    "ModelError",
    "ModelSpec",
    "DagModel",
    "SnapshotTable",
    "parse_model",
    "format_model",
    "compile_model",
    "parse_dag",
    "compile_dag",
    "parse_snapshots",
    "parse_order_weights",
    "read_text",
    "procurement_model",
    "payperclick_model",
    "portfolio_model",
    "ecommerce_dag_example",
]


class ModelError(ValueError):
    """Malformed model, graph, or snapshot input."""


@dataclass(frozen=True)
class ModelSpec:
    """Named description of a characteristic function.

    Construction keeps a read-only copy, of tuples and a `ReadOnlyDict`, then
    checks every rule on the names, item by item in the order of the model
    file's sections; the first fault is a ModelError tagged ``exc.item =
    (section, position)``, from which `parse_model` names its line.
    """

    variables: tuple[str, ...]
    ml_terms: tuple[tuple[tuple[str, ...], float], ...] = ()
    sep_terms: tuple[tuple[str, str, tuple[float, ...]], ...] = ()
    segments: Mapping[str, str] = field(default_factory=ReadOnlyDict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "ml_terms", tuple((tuple(names), coeff) for names, coeff in self.ml_terms))
        object.__setattr__(self, "sep_terms", tuple((name, kind, tuple(params)) for name, kind, params in self.sep_terms))
        object.__setattr__(self, "segments", ReadOnlyDict(self.segments))
        declared: dict[str, int] = {}  # name -> its 1-based index
        for i, name in enumerate(self.variables):
            if not name:
                raise _fault(("variables", i), "empty variable name")
            if name in declared:
                raise _fault(("variables", i), f"variable {name!r} declared twice")
            declared[name] = i + 1
        for i, (name, label) in enumerate(self.segments.items()):
            _check_declared((name,), declared, "segment entry", ("segments", i))
            if not label:
                raise _fault(("segments", i), f"variable {name!r} has an empty segment label")
        sums: dict[frozenset[str], float] = {}  # per monomial, its coefficient so far, summed in order as `compile_model` sums it
        for i, (names, coeff) in enumerate(self.ml_terms):
            key = frozenset(names)
            if len(key) != len(names):
                raise _fault(("multilinear", i), f"variable repeated within one term: {names}")
            _check_declared(names, declared, "term", ("multilinear", i))
            sums[key] = sums.get(key, 0.0) + coeff
            if not math.isfinite(sums[key]):
                raise _fault(("multilinear", i), f"coefficients of the terms over {names} add up to {sums[key]}")
        for i, (name, kind, params) in enumerate(self.sep_terms):
            _check_declared((name,), declared, "separable term", ("separable", i))
            try:
                SeparableTerm(declared[name], kind, params)  # checks kind, parameter count and exponent
            except ValueError as exc:
                raise _fault(("separable", i), str(exc)) from None

    @property
    def n(self) -> int:
        return len(self.variables)


def _fault(item: tuple[str, int], message: str) -> ModelError:
    """A ModelError on one item of a spec or graph, tagged ``exc.item = (section, position)``."""
    exc = ModelError(message)
    exc.item = item
    return exc


def _check_declared(names, declared, what: str, item: tuple[str, int]):
    for name in names:
        if name not in declared:
            raise _fault(item, f"{what} references undeclared variable {name!r}")


def _assign(name: str, assigned: set[str], item: tuple[str, int], owner: str):
    if not name:
        raise _fault(item, f"{owner} has an empty variable name")
    if name in assigned:
        raise _fault(item, f"variable {name!r} assigned twice")
    assigned.add(name)


def _built(build, path: str, sections: dict[str, list[tuple[int, str]]]):
    """build(), its ModelError re-raised as ``path:line: message``, the line of the section entry it tags, or ``path: message``."""
    try:
        return build()
    except ModelError as exc:
        item = getattr(exc, "item", None)
        where = path if item is None else f"{path}:{sections[item[0]][item[1]][0]}"
        raise ModelError(f"{where}: {exc}") from None


def compile_model(ms: ModelSpec) -> CharacteristicFunction:
    index = {name: i for i, name in enumerate(ms.variables, 1)}
    terms = [(tuple(index[name] for name in names), coeff) for names, coeff in ms.ml_terms]
    sep = tuple(SeparableTerm(index[name], kind, params) for name, kind, params in ms.sep_terms)
    return from_terms(ms.n, terms, sep)


# ---------------------------------------------------------------------------
# text format


def read_text(path: str) -> str:
    """The text of an input file: UTF-8, a leading byte order mark dropped, newlines read as \\n."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ModelError(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _sections(text: str, path: str, known: tuple[str, ...]) -> dict[str, list[tuple[int, str]]]:
    """Content lines, with their line numbers, under each known [section] header."""
    out: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in known:
                raise ModelError(f"{path}:{lineno}: unknown section [{name}]; expected one of {', '.join(known)}")
            current = out.setdefault(name, [])
        elif current is None:
            raise ModelError(f"{path}:{lineno}: content before any [section] header")
        else:
            current.append((lineno, line))
    return out


def _parse_float(token: str, context: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ModelError(f"{context}: expected a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ModelError(f"{context}: expected a finite number, got {token!r}")
    return value


def parse_model(text: str, path: str = "<model>") -> ModelSpec:
    """Model file as a ModelSpec: this checks the syntax, and `ModelSpec` the names, naming the file and line."""
    sections = _sections(text, path, ("variables", "segments", "multilinear", "separable"))
    if "variables" not in sections:
        raise ModelError(f"{path}: missing [variables] section")
    sections["variables"] = [(lineno, name) for lineno, line in sections["variables"] for name in line.split()]  # an entry per item
    segments = {}
    for lineno, line in sections.get("segments", []):
        name, _, label = (part.strip() for part in line.partition(":"))
        if not label:
            raise ModelError(f"{path}:{lineno}: segment line needs 'name : label', got {line!r}")
        if name in segments:
            raise ModelError(f"{path}:{lineno}: variable {name!r} already has segment {segments[name]!r}")
        segments[name] = label
    ml_terms = []
    for lineno, line in sections.get("multilinear", []):
        if ":" not in line:
            raise ModelError(f"{path}:{lineno}: term line needs 'names : coefficient', got {line!r}")
        lhs, rhs = line.rsplit(":", 1)
        ml_terms.append((tuple(lhs.split()), _parse_float(rhs.strip(), f"{path}:{lineno}")))
    sep_terms = []
    for lineno, line in sections.get("separable", []):
        if ":" not in line:
            raise ModelError(f"{path}:{lineno}: separable line needs 'name : kind params', got {line!r}")
        name, rhs = (part.strip() for part in line.split(":", 1))
        fields = rhs.split()
        if len(fields) < 2:
            raise ModelError(f"{path}:{lineno}: separable line needs a kind and parameters, got {line!r}")
        sep_terms.append((name, fields[0], tuple(_parse_float(tok, f"{path}:{lineno}") for tok in fields[1:])))
    variables = tuple(name for _, name in sections["variables"])
    return _built(lambda: ModelSpec(variables, tuple(ml_terms), tuple(sep_terms), segments), path, sections)


def format_model(ms: ModelSpec) -> str:
    out = io.StringIO()
    out.write("[variables]\n")
    for name in ms.variables:
        out.write(f"{name}\n")
    if ms.segments:
        out.write("[segments]\n")
        for name in ms.variables:
            if name in ms.segments:
                out.write(f"{name} : {ms.segments[name]}\n")
    if ms.ml_terms:
        out.write("[multilinear]\n")
        for names, coeff in ms.ml_terms:
            out.write(f"{' '.join(names)} : {coeff!r}\n")
    if ms.sep_terms:
        out.write("[separable]\n")
        for name, kind, params in ms.sep_terms:
            out.write(f"{name} : {kind} {' '.join(repr(p) for p in params)}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# directed acyclic graph models


ROUTE_CAP = 10**6  # start/route pairs, so terms, that the reference `compile_dag` may expand one graph into


@dataclass(frozen=True)
class DagModel:
    """Flow graph whose expected arrivals at the sink form the model.

    Every (node with a start count, route to the sink) pair is one term:
    coefficient 1 over the start variable and the traversal variables of the
    route.  Routes stop at the sink and repeat no edge, so the function is
    multilinear, of degree 1 plus the edge count of the longest route from a
    start.  Like a `CharacteristicFunction`, ``d(x)`` gives its value at one
    point, ``d.values(X)`` its values at N points, ``d.gradients(X)`` its
    gradients there and ``d.changes(R, S)`` its changes between N pairs of
    points, all from forward and backward passes over the graph, so no
    method expands its routes; the reference `compile_dag` expands them
    into a `ModelSpec`.
    All use the variable order of `variables`.

    A graph keeps a read-only copy, as a `ModelSpec` does, and is checked
    when built: its names item by item in file order, tagged as in
    `ModelSpec`, then the whole graph for a cycle or an unreachable start.
    """

    nodes: tuple[str, ...]
    sink: str
    starts: Mapping[str, str]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))  # a read-only copy, so the plan stays true to it
        object.__setattr__(self, "starts", ReadOnlyDict(self.starts))
        object.__setattr__(self, "edges", tuple(tuple(edge) for edge in self.edges))
        known: set[str] = set()
        for i, name in enumerate(self.nodes):
            if not name:
                raise _fault(("nodes", i), "empty node name")
            if name in known:
                raise _fault(("nodes", i), f"node {name!r} declared twice")
            known.add(name)
        if self.sink not in known:
            raise _fault(("sink", 0), f"sink {self.sink!r} is not a node")
        assigned: set[str] = set()  # start and edge variables so far
        for i, (node, var) in enumerate(self.starts.items()):
            if node not in known:
                raise _fault(("starts", i), f"start entry for unknown node {node!r}")
            _assign(var, assigned, ("starts", i), f"start node {node!r}")
        for i, (u, v, var) in enumerate(self.edges):
            if u not in known or v not in known:
                raise _fault(("edges", i), f"edge {u!r} -> {v!r} uses an unknown node")
            _assign(var, assigned, ("edges", i), f"edge {u!r} -> {v!r}")
        object.__setattr__(self, "_plan", self._build_plan())

    @property
    def variables(self) -> tuple[str, ...]:
        """Start variables in node order, then edge variables in file order."""
        return tuple(self.starts[node] for node in self.nodes if node in self.starts) + tuple(name for _, _, name in self.edges)

    @property
    def n(self) -> int:
        return len(self.starts) + len(self.edges)

    @property
    def degree(self) -> int:
        """1 plus the edge count of the longest route from a start to the sink (1 with no starts)."""
        return self._plan.degree

    def __call__(self, x: Sequence[float]) -> float:
        """Expected sink arrivals at the point x: the one-row `values`."""
        return float(self.values([x])[0])

    def values(self, X) -> np.ndarray:
        """Expected sink arrivals at every row of the N x n array X, as N values: the sink's row of the forward pass.

        A node's edge terms are added in edge order, so a point gets the
        same bits whatever N is.  Products that overflow give inf or nan.
        """
        return self._forward(X)[1][self._plan.sink]

    def gradients(self, X) -> np.ndarray:
        """Gradients of the expected sink arrivals at every row of the N x n array X, as an N x n array.

        Columns of X follow `variables`.  The forward pass, in topological
        order, gives each node's inflow: its start count plus the inflow of
        every edge's tail times the edge's probability.  The backward pass
        gives each node's reach of the sink: 1 at the sink, elsewhere the
        sum over its edges of probability times the reach of the head.  The
        partial of a start variable is the reach of its node, that of an
        edge variable the inflow of its tail times the reach of its head.
        No node after the sink reaches it, so an edge out of the sink has
        partial 0, as routes stop at the sink.  Each node is one numpy
        operation over the N points, so a call costs O(N (V + E)).  A
        node's edge terms are added in edge order, so a point gets the same
        bits whatever N is.  Products that overflow give inf or nan.
        """
        XT, inflow = self._forward(X)
        plan = self._plan
        reach = np.zeros_like(inflow)
        reach[plan.sink] = 1.0
        grad = np.empty_like(XT)
        with np.errstate(over="ignore", invalid="ignore"):
            for k, heads, cols in plan.backward:  # terms added in order, as in `_forward`
                terms = XT[cols] * reach[heads]
                reach[k] = np.add.accumulate(terms, axis=0, out=terms)[-1]
            grad[: len(plan.start_nodes)] = reach[plan.start_nodes]
            grad[len(plan.start_nodes) :] = inflow[plan.tail] * reach[plan.head]
        return grad.T

    def changes(self, R, S) -> np.ndarray:
        """Expected sink arrivals at each row of S less those at the same row of R, two N x n arrays, as N values.

        Beside the forward pass at S, one more pass in the same order
        carries each node's change of inflow: the sum over its edges of the
        tail's change times the edge's probability at r plus the tail's
        inflow at s times the edge's change, in edge order, plus the change
        of its start count; stacked with it in one (2, nodes, N) array, the
        same sums over what the rounding of each difference drops.  Along
        one route this is the telescoped pair of `CharacteristicFunction.changes`
        over the route's variables in route order, so a graph whose routes
        list their edges in file order gets the bits of its route expansion.
        Every term carries one difference, so nothing cancels when S is near
        R, as the sink's inflow at S less that at R would.  Products that
        overflow give inf or nan.
        """
        R = np.asarray(R, dtype=float)
        S = np.asarray(S, dtype=float)
        if R.shape != S.shape:
            raise ValueError(f"dimension mismatch: graph has {self.n} variables, got points of shapes {R.shape} and {S.shape}")
        ST, inflow = self._forward(S)
        RT = np.ascontiguousarray(R.T)
        pair = np.zeros((2, *inflow.shape))  # the change of each node's inflow, and its rounding pair
        with np.errstate(over="ignore", invalid="ignore"):
            DT = ST - RT
            DE = np.stack((DT, _sub_error(RT, ST, DT)))
            for k, tails, cols, start in self._plan.forward:
                if len(tails):
                    terms = pair[:, tails] * RT[cols]
                    terms += inflow[tails] * DE[:, cols]
                    pair[:, k] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
                if start is not None:
                    pair[:, k] += DE[:, start]
            sink, sink_err = pair[:, self._plan.sink]
            return np.add(sink, sink_err, out=sink, where=np.isfinite(sink_err))

    def _build_plan(self) -> _FlowPlan:
        """The index arrays the passes walk and the degree; raises on a cycle, then on the first start that cannot reach the sink."""
        node = {name: k for k, name in enumerate(self.nodes)}
        order = [node[name] for name in _toposort(self)]
        sink = node[self.sink]
        start_nodes = [node[name] for name in self.nodes if name in self.starts]
        start_col = {k: j for j, k in enumerate(start_nodes)}
        tail = np.array([node[u] for u, _, _ in self.edges], dtype=np.intp)
        head = np.array([node[v] for _, v, _ in self.edges], dtype=np.intp)
        col = np.arange(len(start_nodes), self.n)  # edge e's column of X
        into: list[list[int]] = [[] for _ in self.nodes]
        out_of: list[list[int]] = [[] for _ in self.nodes]
        for e, (u, v, _) in enumerate(self.edges):
            into[node[v]].append(e)
            out_of[node[u]].append(e)
        forward = [(k, tail[into[k]], col[into[k]], start_col.get(k)) for k in order if into[k] or k in start_col]
        backward = [(k, head[out_of[k]], col[out_of[k]]) for k in reversed(order) if k != sink and out_of[k]]
        longest = np.full(len(self.nodes), -1)  # per node, the edge count of its longest route to the sink; -1 if none
        longest[sink] = 0
        for k, heads, _ in backward:  # reverse topological order, so every head is done before its tail
            best = longest[heads].max()
            if best >= 0:
                longest[k] = best + 1
        for name in self.starts:
            if longest[node[name]] < 0:
                raise ModelError(f"sink is unreachable from start node {name!r}")
        degree = 1 + int(longest[start_nodes].max(initial=0))
        return _FlowPlan(degree, sink, start_nodes, tail, head, forward, backward)

    def _forward(self, X) -> tuple[np.ndarray, np.ndarray]:
        """The forward pass: X as one row per variable (n x N), and every node's inflow (V x N).

        The value at the points is the sink's row of the inflow.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"dimension mismatch: graph has {self.n} variables, got points of shape {X.shape}")
        XT = np.ascontiguousarray(X.T)  # one row per variable, so each gather takes whole rows
        inflow = np.zeros((len(self.nodes), len(X)))
        with np.errstate(over="ignore", invalid="ignore"):
            # add.accumulate adds rows in order for every N; a sum over one point's column would go pairwise
            for k, tails, cols, start in self._plan.forward:
                if len(tails):
                    terms = inflow[tails] * XT[cols]
                    inflow[k] = np.add.accumulate(terms, axis=0, out=terms)[-1]
                if start is not None:
                    inflow[k] += XT[start]
        return XT, inflow


class _FlowPlan(NamedTuple):
    """What the passes of a `DagModel` walk, and the degree `DagModel.degree` reads; nodes and edges are indices into the graph's tuples."""

    degree: int
    sink: int
    start_nodes: list[int]  # the nodes with a start count, in node order: X's first columns
    tail: np.ndarray  # per edge
    head: np.ndarray  # per edge
    forward: list[tuple[int, np.ndarray, np.ndarray, int | None]]  # (node, in-edge tails, in-edge columns, start column), in order
    backward: list[tuple[int, np.ndarray, np.ndarray]]  # (node, out-edge heads, out-edge columns), reverse order, sink left out


def parse_dag(text: str, path: str = "<dag>") -> DagModel:
    """Graph file as a DagModel: this checks the syntax, and `DagModel` the names and the graph, naming the file and line."""
    sections = _sections(text, path, ("nodes", "sink", "starts", "edges"))
    for required in ("nodes", "sink"):
        if required not in sections:
            raise ModelError(f"{path}: missing [{required}] section")
    sections["nodes"] = [(lineno, name) for lineno, line in sections["nodes"] for name in line.split()]  # an entry per item
    sinks = sections["sink"] = [(lineno, tok) for lineno, line in sections["sink"] for tok in line.split()]
    if len(sinks) > 1:
        raise ModelError(f"{path}:{sinks[1][0]}: exactly one sink expected, got {sinks[0][1]!r} and {sinks[1][1]!r}")
    if not sinks:
        raise ModelError(f"{path}: exactly one sink expected")
    starts = {}
    for lineno, line in sections.get("starts", []):
        node, _, var = (part.strip() for part in line.partition(":"))
        if not var:
            raise ModelError(f"{path}:{lineno}: start line needs 'node : variable', got {line!r}")
        if node in starts:
            raise ModelError(f"{path}:{lineno}: node {node!r} already has start variable {starts[node]!r}")
        starts[node] = var
    edges = []
    for lineno, line in sections.get("edges", []):
        lhs, _, var = (part.strip() for part in line.partition(":"))
        if not var:
            raise ModelError(f"{path}:{lineno}: edge line needs 'from to : variable', got {line!r}")
        ends = lhs.split()
        if len(ends) != 2:
            raise ModelError(f"{path}:{lineno}: edge line needs two node names, got {line!r}")
        edges.append((*ends, var))
    nodes = tuple(name for _, name in sections["nodes"])
    return _built(lambda: DagModel(nodes, sinks[0][1], starts, tuple(edges)), path, sections)


def _toposort(d: DagModel) -> list[str]:
    """The nodes in an order that puts the tail of every edge before its head."""
    sorter = graphlib.TopologicalSorter({node: () for node in d.nodes})
    for u, v, _ in d.edges:
        sorter.add(v, u)
    try:
        return list(sorter.static_order())
    except graphlib.CycleError as exc:
        raise ModelError(f"graph has a cycle: {' -> '.join(exc.args[1])}") from None


def compile_dag(d: DagModel) -> ModelSpec:
    """Expand a graph into one term per (start node, route to sink): the route-expansion reference.

    Raises when the route count exceeds ROUTE_CAP (counted before
    enumeration).  No method calls it: they read the graph through
    ``d(x)``, ``d.gradients(X)`` and ``d.changes(R, S)``, which need no routes.
    """
    plan = d._plan
    routes = [0] * len(d.nodes)  # per node, its count of routes to the sink
    routes[plan.sink] = 1
    for k, heads, _ in plan.backward:
        routes[k] = sum(routes[v] for v in heads.tolist())
    total = sum(routes[k] for k in plan.start_nodes)
    if total > ROUTE_CAP:
        raise ModelError(f"{total} start/route pairs exceed the cap of {ROUTE_CAP} for expanding the graph into terms")
    count = dict(zip(d.nodes, routes))
    out_edges: dict[str, list[tuple[str, str]]] = {n: [] for n in d.nodes}
    for u, v, name in d.edges:
        out_edges[u].append((v, name))
    terms: list[tuple[tuple[str, ...], float]] = []
    for node in d.nodes:
        if node not in d.starts:
            continue
        # depth first, each node's edges in file order, on an explicit stack so long chains cannot overflow
        stack = [(node, (d.starts[node],))]
        while stack:
            at, route = stack.pop()
            if at == d.sink:
                terms.append((route, 1.0))
            else:
                stack.extend((v, (*route, name)) for v, name in reversed(out_edges[at]) if count[v] > 0)
    return ModelSpec(d.variables, tuple(terms))


# ---------------------------------------------------------------------------
# snapshots


_HEADER = ["entity", "variable", "initial", "final"]


@dataclass(frozen=True, eq=False)
class SnapshotTable:
    """Snapshot rows in columns, one row per (entity, variable) cell in file order.

    ``entities`` and ``variables`` hold the distinct names in order of first
    appearance; the int arrays ``entity`` and ``variable`` index them per
    row, and the float arrays ``initial`` and ``final`` hold the row's
    values.  `parse_snapshots` checks every row before it is stored, so
    the values are finite and no entity lists a variable twice.
    """

    entities: tuple[str, ...]
    variables: tuple[str, ...]
    entity: np.ndarray
    variable: np.ndarray
    initial: np.ndarray
    final: np.ndarray

    def __len__(self) -> int:
        return len(self.entities)

    def columns(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """E x n initial and final arrays: row e for entities[e], column j for names[j].

        Raises ModelError naming the first entity, in entity order, that
        misses one of the names or lists a variable not among them.
        """
        col = {name: j for j, name in enumerate(names)}
        cols = np.array([col.get(v, -1) for v in self.variables], dtype=np.intp)[self.variable]
        shape = (len(self.entities), len(names))
        known = cols >= 0
        # no entity lists a variable twice, so one lists every name iff it has n known rows and no other
        bad = np.bincount(self.entity[known], minlength=shape[0]) != shape[1]
        bad |= np.bincount(self.entity[~known], minlength=shape[0]) > 0
        if bad.any():
            raise ModelError(self._mismatch(int(bad.argmax()), names))
        R = np.empty(shape)
        S = np.empty(shape)
        R[self.entity, cols] = self.initial
        S[self.entity, cols] = self.final
        return R, S

    def _mismatch(self, row: int, names: Sequence[str]) -> str:
        """The error for entities[row]: model names it misses, in model order, and names it lists that the model lacks, in file order."""
        listed = [self.variables[v] for v in self.variable[self.entity == row].tolist()]
        present, known = set(listed), set(names)
        parts = []
        missing = [v for v in names if v not in present]
        if missing:
            parts.append(f"missing {', '.join(map(repr, missing))}")
        extra = [v for v in listed if v not in known]
        if extra:
            parts.append(f"unknown {', '.join(map(repr, extra))}")
        return f"entity {self.entities[row]!r} does not match the model: {'; '.join(parts)}"


def parse_snapshots(text: str, path: str = "<values>") -> SnapshotTable:
    """CSV rows ``entity,variable,initial,final`` as a SnapshotTable.

    Rows whose cells are all blank (``,,,`` too) are skipped, and the first
    other row is a header if it reads ``entity,variable,initial,final`` (any
    case or spacing).  Each row is checked as it is read: 4 cells, finite
    numbers (initial, then final), names stripped of surrounding spaces and
    not empty, and no entity listing a variable twice.  The first offending
    row stops the parse with a ModelError naming the file and its physical
    line (the last line of a quoted multi-line row).
    """
    reader = csv.reader(io.StringIO(text))
    entities: dict[str, int] = {}
    variables: dict[str, int] = {}
    cells: set[tuple[int, int]] = set()
    entity, variable, initial, final = [], [], [], []
    header = True  # no non-blank row read yet
    try:
        for row in reader:
            try:
                e, v, a, b = row
                r, s = float(a), float(b)
                ok = math.isfinite(r) and math.isfinite(s)
            except ValueError:
                ok = False
            if not ok:  # a blank row, the header, or an error
                if not any(cell.strip() for cell in row):
                    continue
                if header and [cell.strip().lower() for cell in row] == _HEADER:
                    header = False
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != 4:
                    raise ModelError(f"{where}: expected entity,variable,initial,final")
                e, v, a, b = row
                r, s = _parse_float(a.strip(), where), _parse_float(b.strip(), where)
            header = False
            e, v = e.strip(), v.strip()
            if not (e and v):
                raise ModelError(f"{path}:{reader.line_num}: empty {'variable' if e else 'entity'} name")
            cell = (entities.setdefault(e, len(entities)), variables.setdefault(v, len(variables)))
            if cell in cells:
                raise ModelError(f"{path}:{reader.line_num}: variable {v!r} listed twice for entity {e!r}")
            cells.add(cell)
            entity.append(cell[0])
            variable.append(cell[1])
            initial.append(r)
            final.append(s)
    except csv.Error as exc:  # a cell over the csv module's field size limit, or a NUL before Python 3.11
        raise ModelError(f"{path}:{reader.line_num}: {exc}") from None
    return SnapshotTable(
        tuple(entities),
        tuple(variables),
        np.array(entity, dtype=np.intp),
        np.array(variable, dtype=np.intp),
        np.array(initial, dtype=float),
        np.array(final, dtype=float),
    )


# ---------------------------------------------------------------------------
# order weights


def parse_order_weights(text: str, variables: Sequence[str], path: str = "<weights>") -> PermutationWeights:
    """Weights file: one ``name name ... : weight`` line per variable order; a repeated order adds up.

    An order whose weights add up to a negative or non-finite number is an
    error naming the file, the order's last line and its names.
    """
    index = {name: i for i, name in enumerate(variables, 1)}
    weights: dict[tuple[int, ...], float] = {}
    last: dict[tuple[int, ...], int] = {}  # per order, the line of its last weight
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        if ":" not in line:
            raise ModelError(f"{path}:{lineno}: expected 'names : weight'")
        lhs, rhs = line.rsplit(":", 1)
        names = lhs.split()
        try:
            order = tuple(index[name] for name in names)
            _check_permutation(order, len(variables))
        except KeyError:
            raise ModelError(f"{path}:{lineno}: unknown variable in order {names}") from None
        except ValueError:
            raise ModelError(f"{path}:{lineno}: order {' '.join(names)!r} does not list each of {' '.join(variables)!r} exactly once") from None
        weights[order] = weights.get(order, 0.0) + _parse_float(rhs.strip(), f"{path}:{lineno}")
        last[order] = lineno
    for order, w in weights.items():
        if not (w >= 0.0 and math.isfinite(w)):
            names = " ".join(variables[i - 1] for i in order)
            raise ModelError(f"{path}:{last[order]}: weight {w} for order {names!r} is not a finite nonnegative number")
    from .oracles import PermutationWeights  # here, so that reading a model or a graph does not load the oracles

    try:
        return PermutationWeights(weights)
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# presets


def procurement_model() -> ModelSpec:
    """Expenditure = amount * unit price * currency conversion."""
    return ModelSpec(("a", "p", "c"), ((("a", "p", "c"), 1.0),))


def payperclick_model(positions: int = 4) -> ModelSpec:
    """Spend = eligible queries * budget availability * sum over positions of p * CTR * CPC."""
    if positions < 1:
        raise ModelError("need at least one position")
    names: list[str] = ["q", "b"]
    terms = []
    for i in range(1, positions + 1):
        names += [f"p{i}", f"ctr{i}", f"cpc{i}"]
        terms.append((("q", "b", f"p{i}", f"ctr{i}", f"cpc{i}"), 1.0))
    return ModelSpec(tuple(names), tuple(terms))


def portfolio_model(assets) -> ModelSpec:
    """Performance = sum over asset classes of return * invested weight."""
    assets = tuple(assets)
    names = []
    terms = []
    segments = {}
    for a in assets:
        w, r = f"w_{a}", f"r_{a}"
        names += [w, r]
        terms.append(((w, r), 1.0))
        segments[w] = "allocation"
        segments[r] = "selection"
    return ModelSpec(tuple(names), tuple(terms), (), segments)


def ecommerce_dag_example() -> DagModel:
    """Small storefront graph: landing and catalog pages funneling into checkout."""
    return DagModel(
        nodes=("home", "catalog", "item", "checkout"),
        sink="checkout",
        starts={"home": "s_home", "catalog": "s_catalog"},
        edges=(
            ("home", "catalog", "p_home_catalog"),
            ("home", "item", "p_home_item"),
            ("catalog", "item", "p_catalog_item"),
            ("item", "checkout", "p_item_checkout"),
            ("catalog", "checkout", "p_catalog_checkout"),
        ),
    )
