"""Attribution reports over named models, plus the built-in segment-aggregation demo.

`run_report` takes a model and a `SnapshotTable`, maps the table onto the
model's columns as E x n initial and final arrays, and attributes every
entity in one call of the method's handle.  A model is compiled once.  A
flow graph goes to every method as it is: it answers the same four calls
as a compiled model, the value at a point, and values, gradients and
changes at many points, from forward and backward passes, so no method
expands its routes.  `resolve_method`
maps a method id to its handle, and imports `attrib.oracles` and
`attrib.paths` only for a method other than ass and naive; a
``random-order:`` id reads its weights file through `attrib.models`,
which holds every file grammar.  A `Report` holds its `AttributionResult`,
which both renderers and the CLI's exit code read.  `render_machine` writes
a report's JSON Lines records, one f-string each, byte for byte what
``json.dumps`` writes for each record.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

import numpy as np

from .core import _RESIDUAL_TOL, AttributionResult, ValuePair
from .exact import attribute_ass, attribute_ass_batch, attribute_naive
from .models import DagModel, ModelError, ModelSpec, SnapshotTable, compile_model, parse_order_weights, read_text
from .models import compile_dag  # noqa: F401  no report expands routes; only the bench's span map reads this name

__all__ = [
    "METHOD_IDS",
    "Report",
    "resolve_method",
    "run_report",
    "render_text",
    "render_machine",
    "MixEffectsReport",
    "mix_effects_demo",
    "render_mix_effects",
]

METHOD_IDS = ("ass", "ss-brute", "as-numeric", "naive", "random-order:<weights-file>")


@dataclass
class Report:
    """One entity's values, its `AttributionResult` (method, z, change, residual, fault) and its segment totals, if any."""

    entity: str
    variables: tuple[str, ...]
    initial: tuple[float, ...]
    final: tuple[float, ...]
    result: AttributionResult
    segments: dict[str, float] | None = None


def _method(kernel: Callable, batch: Callable | None = None) -> Callable:
    """A method handle: kernel(f, vp) for one `ValuePair` vp, one result per row for a pair (R, S) of E x n arrays.

    Rows go to batch in one call if it is given, else to kernel one by one, a failing row's number set as ``exc.row``.
    """

    def handle(f, vp: ValuePair | tuple[np.ndarray, np.ndarray]):
        if isinstance(vp, ValuePair):
            return kernel(f, vp)
        if batch is not None:
            return batch(f, *vp)
        results = []
        for e, (r, s) in enumerate(zip(*vp, strict=True)):
            try:
                results.append(kernel(f, ValuePair(r, s)))
            except (ValueError, OverflowError) as exc:
                exc.row = e
                raise
        return results

    return handle


def resolve_method(
    method_id: str,
    variables: Sequence[str] = (),
    tol: float | None = None,
    max_refine: int | None = None,
) -> Callable:
    if method_id == "ass":
        return _method(attribute_ass, attribute_ass_batch)
    if method_id == "naive":
        return _method(attribute_naive)
    # the other methods load their kernels here, so that an ass or naive run never imports them
    from .oracles import ORDER_CAP, random_order_attribution, shapley_shubik_bruteforce
    from .paths import QuadratureConfig, attribute_aumann_shapley

    if (method_id == "ss-brute" or method_id.startswith("random-order:")) and len(variables) > ORDER_CAP:
        raise ModelError(
            f"method {method_id} enumerates variable orders, capped at {ORDER_CAP} variables; the model has {len(variables)}"
        )
    if method_id == "ss-brute":
        return _method(shapley_shubik_bruteforce)
    if method_id == "as-numeric":
        q = QuadratureConfig(
            tol=tol if tol is not None else QuadratureConfig.tol,
            max_refine=max_refine if max_refine is not None else QuadratureConfig.max_refine,
        )
        return _method(lambda f, vp: attribute_aumann_shapley(f, vp, q))
    if method_id.startswith("random-order:"):
        source = method_id.split(":", 1)[1]
        pw = parse_order_weights(read_text(source), variables, source)
        return _method(lambda f, vp: random_order_attribution(f, vp, pw))
    raise ModelError(f"unknown method {method_id!r}; known: {', '.join(METHOD_IDS)}")


def run_report(
    model: ModelSpec | DagModel,
    snaps: SnapshotTable,
    method: str = "ass",
    tol: float | None = None,
    max_refine: int | None = None,
) -> list[Report]:
    """Attribute each entity's change under the named method, one report per entity of snaps.

    The model is compiled and the method resolved once, and the table mapped
    onto the model's variables as E x n arrays; an entity missing a model
    variable or listing one the model lacks is an error naming it.  One call
    of the method's handle attributes every entity; a `DagModel` goes to it
    as it is, with the columns of ``DagModel.variables``.  An error that the
    handle numbers with a row is re-raised naming the row's entity and, if
    known, the variable; any other is raised as it is.  A report holds its
    entity's `AttributionResult`; segment totals are plain sums of member
    attributions.
    """
    if isinstance(model, DagModel):
        f, variables, segments = model, model.variables, {}
    else:
        f, variables, segments = compile_model(model), model.variables, model.segments
    handle = resolve_method(method, variables, tol, max_refine)
    R, S = snaps.columns(variables)
    try:
        results = handle(f, (R, S))
    except (ValueError, OverflowError) as exc:  # the handle numbers the row of the entity it failed on
        if not hasattr(exc, "row"):  # not about one entity
            raise
        idx = getattr(exc, "index", None)
        where = f" (variable {variables[idx - 1]!r})" if idx else ""
        raise ModelError(f"entity {snaps.entities[exc.row]!r}: {exc}{where}") from exc
    rows = zip(snaps.entities, R.tolist(), S.tolist())
    return [Report(entity, variables, tuple(r), tuple(s), res, _segment_totals(variables, segments, res.z))
            for (entity, r, s), res in zip(rows, results)]


def _segment_totals(variables: tuple[str, ...], segments: dict[str, str], z: tuple[float, ...]) -> dict[str, float] | None:
    """The sum of the attributions of each segment's members, or None for a model without segments."""
    if not segments:
        return None
    totals: dict[str, float] = {}
    for name, zv in zip(variables, z):
        label = segments.get(name)
        if label is not None:
            totals[label] = totals.get(label, 0.0) + zv
    return totals


# The warning for each fault a result can carry.
_WARNINGS = {
    "non-finite": "warning: non-finite result; the values overflow double precision, do not trust these attributions",
    "residual": f"warning: the residual exceeds {_RESIDUAL_TOL:g} of |total change| + sum |attribution|;"
    " attributions are best estimates",
    "unconverged": "warning: quadrature did not converge; attributions are best estimates",
}


def render_text(report: Report) -> str:
    res = report.result
    lines = [f"entity: {report.entity}    method: {res.method}"]
    name_w = max(len("variable"), max((len(v) for v in report.variables), default=0))
    lines.append(f"{'variable':<{name_w}}  {'initial':>16}  {'final':>16}  {'attribution':>20}")
    for name, ini, fin, zv in zip(report.variables, report.initial, report.final, res.z):
        lines.append(f"{name:<{name_w}}  {ini:>16.10g}  {fin:>16.10g}  {zv:>20.12g}")
    lines.append(f"total change: {res.change:.12g}    residual: {res.residual:.12g}")
    if res.fault:
        lines.append(_WARNINGS[res.fault])
    if report.segments:
        lines.append("segment totals:")
        for label in sorted(report.segments):
            lines.append(f"  {label}: {report.segments[label]:.12g}")
    return "\n".join(lines)


def render_machine(report: Report) -> str:
    """The report as JSON Lines: one attribution record per variable, one segment record per label, a summary.

    Each line is what ``json.dumps`` writes for the record, non-finite
    numbers as NaN, Infinity or -Infinity included.
    """
    res = report.result
    segments = sorted(report.segments.items()) if report.segments else []
    numbers = (*report.initial, *report.final, *res.z, *(v for _, v in segments), res.change, res.residual)
    # str of a finite float is float.__repr__, as json.dumps writes it; str, not repr, keeps a numpy float's digits bare
    num = str if math.isfinite(sum(numbers)) else json.dumps  # else some number is nan or infinite, or the sum overflows
    entity, method = encode_basestring_ascii(report.entity), encode_basestring_ascii(res.method)
    lines = [
        f'{{"record": "attribution", "entity": {entity}, "method": {method}, "variable": {encode_basestring_ascii(name)},'
        f' "initial": {num(ini)}, "final": {num(fin)}, "attribution": {num(zv)}}}'
        for name, ini, fin, zv in zip(report.variables, report.initial, report.final, res.z)
    ]
    lines += [
        f'{{"record": "segment", "entity": {entity}, "segment": {encode_basestring_ascii(label)}, "attribution": {num(v)}}}'
        for label, v in segments
    ]
    lines.append(
        f'{{"record": "summary", "entity": {entity}, "method": {method}, "total_change": {num(res.change)},'
        f' "residual": {num(res.residual)}, "converged": {"false" if res.fault else "true"}}}'
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# mix effects demo
#
# Built-in advertiser dataset: a search campaign and a content campaign, each
# with a cost per click and a click count.  Per-channel cost rates double
# while content volume explodes, so the blended overall rate falls even
# though both underlying rates rose.

_MIX_SEGMENTED = ModelSpec(
    variables=("cpc_search", "clicks_search", "cpc_content", "clicks_content"),
    ml_terms=(
        (("cpc_search", "clicks_search"), 1.0),
        (("cpc_content", "clicks_content"), 1.0),
    ),
    segments={
        "cpc_search": "cpc",
        "cpc_content": "cpc",
        "clicks_search": "clicks",
        "clicks_content": "clicks",
    },
)

_MIX_VALUES = {
    "cpc_search": (1.0, 2.0),
    "clicks_search": (100.0, 100.0),
    "cpc_content": (0.01, 0.02),
    "clicks_content": (100.0, 10000.0),
}

_MIX_AGGREGATE = ModelSpec(
    variables=("cpc_overall", "clicks_total"),
    ml_terms=((("cpc_overall", "clicks_total"), 1.0),),
)


@dataclass
class MixEffectsReport:
    segmented: Report
    aggregate: Report
    cpc_by_segment: dict[str, float]
    cpc_segmented_total: float
    cpc_aggregate: float
    signs_differ: bool


def mix_effects_demo() -> MixEffectsReport:
    """Attribute ad spend two ways: per channel then summed, versus on blended aggregates.

    The per-channel cost-rate attributions are positive while the blended
    rate's attribution is large and negative, so summing attributions over
    segments is the meaningful way to aggregate; attributing blended
    aggregates can even flip the sign.
    """
    [segmented] = run_report(_MIX_SEGMENTED, _one_entity("advertiser", _MIX_VALUES))

    def spend(cpc_s, clicks_s, cpc_c, clicks_c):
        return cpc_s * clicks_s + cpc_c * clicks_c

    ini = {k: v[0] for k, v in _MIX_VALUES.items()}
    fin = {k: v[1] for k, v in _MIX_VALUES.items()}
    clicks0 = ini["clicks_search"] + ini["clicks_content"]
    clicks1 = fin["clicks_search"] + fin["clicks_content"]
    overall0 = spend(*(ini[k] for k in _MIX_SEGMENTED.variables)) / clicks0
    overall1 = spend(*(fin[k] for k in _MIX_SEGMENTED.variables)) / clicks1
    agg_values = {"cpc_overall": (overall0, overall1), "clicks_total": (clicks0, clicks1)}
    [aggregate] = run_report(_MIX_AGGREGATE, _one_entity("advertiser", agg_values))

    cpc_by_segment = {
        "search": segmented.result.z[_MIX_SEGMENTED.variables.index("cpc_search")],
        "content": segmented.result.z[_MIX_SEGMENTED.variables.index("cpc_content")],
    }
    cpc_segmented_total = segmented.segments["cpc"]
    cpc_aggregate = aggregate.result.z[0]
    return MixEffectsReport(
        segmented=segmented,
        aggregate=aggregate,
        cpc_by_segment=cpc_by_segment,
        cpc_segmented_total=cpc_segmented_total,
        cpc_aggregate=cpc_aggregate,
        signs_differ=(cpc_segmented_total > 0) != (cpc_aggregate > 0),
    )


def _one_entity(entity: str, values: dict[str, tuple[float, float]]) -> SnapshotTable:
    """A snapshot table of one entity with values {variable: (initial, final)}."""
    n = len(values)
    initial, final = zip(*values.values())
    return SnapshotTable((entity,), tuple(values), np.zeros(n, np.intp), np.arange(n), np.array(initial), np.array(final))


def render_mix_effects(demo: MixEffectsReport) -> str:
    lines = ["mix effects demo: ad spend attribution, per-segment vs aggregate-first", ""]
    lines.append("inputs (initial -> final):")
    for name in _MIX_SEGMENTED.variables:
        ini, fin = _MIX_VALUES[name]
        lines.append(f"  {name}: {ini:g} -> {fin:g}")
    lines.append("")
    lines.append("(a) per-segment attribution, then aggregate:")
    lines.append(render_text(demo.segmented))
    lines.append("")
    lines.append("(b) aggregate first, then attribute:")
    lines.append(render_text(demo.aggregate))
    lines.append("")
    lines.append(f"cost-per-click impact, segment route: {demo.cpc_segmented_total:+.12g}")
    lines.append(f"cost-per-click impact, aggregate route: {demo.cpc_aggregate:+.12g}")
    if demo.signs_differ:
        lines.append(
            "conclusion: the two routes disagree in sign; aggregating per-segment "
            "attributions reflects the underlying rate increases, while attributing "
            "the blended aggregate does not."
        )
    return "\n".join(lines)
