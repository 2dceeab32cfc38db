import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import attrib
from attrib import AttributionResult
from attrib.cli import main
from attrib.models import parse_model, parse_snapshots
from attrib.reports import Report, mix_effects_demo, parse_order_weights, render_machine, render_text, run_report

MODEL = """
[variables]
a p c
[segments]
a : manufacturing
p : procurement
c : currency
[multilinear]
a p c : 1
"""

VALUES = "entity,variable,initial,final\nq2,a,4,5\nq2,p,1,12\nq2,c,1,1.5\n"


# the source checkout these tests lie in, which holds pyproject.toml and scripts/
_ROOT = Path(__file__).resolve().parent.parent

# two more entities for MODEL, each with its own values
MORE_VALUES = "q3,a,2,3\nq3,p,5,4\nq3,c,2,1\nq4,a,1,1\nq4,p,2,3\nq4,c,0.5,2\n"


def _child_env() -> dict:
    """The environment for a child interpreter that imports the attrib these tests import."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(attrib.__file__))}


@pytest.fixture
def model_files(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(MODEL)
    values = tmp_path / "values.csv"
    values.write_text(VALUES)
    return str(model), str(values)


class TestRunReport:
    def test_exact_method(self):
        ms = parse_model(MODEL)
        [report] = run_report(ms, parse_snapshots(VALUES))
        assert report.result.z == pytest.approx((51.5 / 6, 374 / 6, 90.5 / 6), rel=1e-12)
        assert report.result.change == pytest.approx(86.0, abs=1e-12)
        assert abs(report.result.residual) <= 1e-12
        assert report.segments == pytest.approx(
            {"manufacturing": 51.5 / 6, "procurement": 374 / 6, "currency": 90.5 / 6}
        )

    def test_naive_reports_residual(self):
        ms = parse_model(MODEL)
        [report] = run_report(ms, parse_snapshots(VALUES), "naive")
        assert report.result.z == (18.0, 82.5, 30.0)
        assert report.result.residual == pytest.approx(44.5, abs=1e-12)

    def test_all_complete_methods_agree(self):
        ms = parse_model(MODEL)
        snaps = parse_snapshots(VALUES)
        [base] = run_report(ms, snaps, "ass")
        for method, tol in (("ss-brute", 1e-12), ("as-numeric", 1e-8)):
            [other] = run_report(ms, snaps, method)
            assert other.result.z == pytest.approx(base.result.z, rel=tol)
            assert abs(other.result.residual) <= 1e-9

    def test_random_order_method(self, tmp_path):
        ms = parse_model(MODEL)
        orders = tmp_path / "orders.txt"
        orders.write_text("a p c : 0.5\nc p a : 0.5\n")
        [report] = run_report(ms, parse_snapshots(VALUES), f"random-order:{orders}")
        assert report.result.change == pytest.approx(86.0, abs=1e-9)
        assert abs(report.result.residual) <= 1e-10

    def test_domain_error_carries_entity_and_variable(self):
        text = MODEL + "[separable]\np : log 1 0 1\n"
        ms = parse_model(text)
        snaps = parse_snapshots("q3,a,4,5\nq3,p,-1,12\nq3,c,1,1.5\n")
        from attrib.models import ModelError

        with pytest.raises(ModelError, match="q3.*'p'"):
            run_report(ms, snaps)

    @pytest.mark.parametrize("method", ["ass", "naive", "ss-brute", "as-numeric", "random-order"])
    def test_per_entity_methods_name_the_failing_entity(self, tmp_path, method):
        # every method's handle numbers the failing row, and run_report names its entity one way
        if method == "random-order":
            orders = tmp_path / "orders.txt"
            orders.write_text("c p a : 1\n")
            method = f"random-order:{orders}"
        ms = parse_model(MODEL + "[separable]\np : log 1 0 1\n")
        snaps = parse_snapshots(VALUES + "q3,a,4,5\nq3,p,-1,12\nq3,c,1,1.5\n")
        from attrib.models import ModelError

        with pytest.raises(ModelError) as info:
            run_report(ms, snaps, method)
        assert str(info.value) == "entity 'q3': log term on variable 2 got nonpositive argument -1.0 (variable 'p')"

    def test_batch_error_about_no_entity_is_raised_as_it_is(self, monkeypatch):
        import attrib.reports

        def failing_batch(f, R, S):
            raise ValueError("not about one entity")

        monkeypatch.setattr(attrib.reports, "attribute_ass_batch", failing_batch)
        with pytest.raises(ValueError) as info:
            run_report(parse_model(MODEL), parse_snapshots(VALUES))
        assert type(info.value) is ValueError and str(info.value) == "not about one entity"

    def test_batch_matches_single_entity_calls(self):
        ms = parse_model(MODEL)
        rows = ["e1,a,4,5\ne1,p,1,12\ne1,c,1,1.5\n", "e2,a,2,1\ne2,p,3,3\ne2,c,-1,2\n"]
        snaps = parse_snapshots("".join(rows))
        for method in ("ass", "naive", "ss-brute", "as-numeric"):
            batch = run_report(ms, snaps, method)
            assert [r.entity for r in batch] == ["e1", "e2"]
            assert batch == [run_report(ms, parse_snapshots(text), method)[0] for text in rows]

    def test_empty_batch(self):
        assert run_report(parse_model(MODEL), parse_snapshots("")) == []

    def test_compiles_once_per_batch(self, monkeypatch):
        from attrib import reports

        calls = []
        compile_model = reports.compile_model
        monkeypatch.setattr(reports, "compile_model", lambda ms: calls.append(ms) or compile_model(ms))
        snaps = parse_snapshots("e1,a,4,5\ne1,p,1,12\ne1,c,1,1.5\ne2,a,2,1\ne2,p,3,3\ne2,c,-1,2\n")
        assert len(run_report(parse_model(MODEL), snaps)) == 2
        assert len(calls) == 1

    def test_graph_with_ass_expands_no_routes(self, monkeypatch):
        from attrib import reports
        from attrib.models import compile_dag, compile_model, ecommerce_dag_example

        d = ecommerce_dag_example()
        rows = [f"e,{name},{1.0 + k},{0.5 * k}\n" for k, name in enumerate(d.variables)]
        snaps = parse_snapshots("".join(rows))
        expected = run_report(compile_dag(d), snaps)

        def refuse(model):
            raise AssertionError("the ass path compiled the graph")

        monkeypatch.setattr(reports, "compile_dag", refuse)
        monkeypatch.setattr(reports, "compile_model", refuse)
        [report] = run_report(d, snaps, "ass")
        assert report.variables == d.variables and report.segments is None
        assert report.result.z == pytest.approx(expected[0].result.z, rel=1e-12, abs=1e-12)
        assert abs(report.result.residual) <= 1e-12 * (1.0 + abs(report.result.change))

    @pytest.mark.parametrize("method", ["naive", "as-numeric", "ss-brute", "random-order"])
    def test_other_methods_attribute_a_graph_without_expanding_it(self, monkeypatch, tmp_path, method):
        from attrib import reports
        from attrib.models import compile_dag, ecommerce_dag_example

        d = ecommerce_dag_example()
        if method == "random-order":
            orders = tmp_path / "orders.txt"
            orders.write_text(" ".join(d.variables) + " : 0.5\n" + " ".join(reversed(d.variables)) + " : 0.5\n")
            method = f"random-order:{orders}"
        rows = [f"e{e},{name},{1.0 + k + e},{0.5 * k}\n" for e in range(2) for k, name in enumerate(d.variables)]
        snaps = parse_snapshots("".join(rows))
        expected = run_report(compile_dag(d), snaps, method)

        def refuse(model):
            raise AssertionError("the report compiled the graph")

        monkeypatch.setattr(reports, "compile_dag", refuse)
        monkeypatch.setattr(reports, "compile_model", refuse)
        got = run_report(d, snaps, method)
        assert [r.entity for r in got] == ["e0", "e1"]
        for a, b in zip(got, expected):
            ra, rb = a.result, b.result
            assert a.variables == b.variables and a.segments is None and ra.fault == rb.fault
            for x, y in zip(ra.z + (ra.change, ra.residual), rb.z + (rb.change, rb.residual)):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))

    def test_non_finite_result_is_flagged(self):
        ms = parse_model("[variables]\na b\n[multilinear]\na b : 1e300\n")
        [report] = run_report(ms, parse_snapshots("e,a,1e10,2e10\ne,b,1e10,3e10\n"))
        assert report.result.fault == "non-finite"
        assert "warning: non-finite result" in render_text(report)
        assert "did not converge" not in render_text(report)

    def test_renderers(self):
        ms = parse_model(MODEL)
        [report] = run_report(ms, parse_snapshots(VALUES))
        text = render_text(report)
        assert "residual" in text and "segment totals:" in text
        records = [json.loads(line) for line in render_machine(report).splitlines()]
        kinds = {r["record"] for r in records}
        assert kinds == {"attribution", "segment", "summary"}
        summary = [r for r in records if r["record"] == "summary"][0]
        assert summary["total_change"] == pytest.approx(86.0)


# (model, values, method argv) for each verdict a report can carry; the warning line render_text prints for it
_VERDICTS = {
    "non-finite": ("[variables]\na b\n[multilinear]\na b : 1e300\n", "e,a,1e10,2e10\ne,b,1e10,3e10\n", [],
                   "warning: non-finite result; the values overflow double precision, do not trust these attributions"),
    # a b - a c cancels in floating point, so ass misses the change by about 1.2
    "residual": ("[variables]\na b c d\n[multilinear]\na b : 1\na c : -1\nd : 1\n",
                 "e,a,1,1.1\ne,b,1e17,100000000000000016\ne,c,1e17,1e17\ne,d,0,1\n", [],
                 "warning: the residual exceeds 1e-09 of |total change| + sum |attribution|; attributions are best estimates"),
    "unconverged": (MODEL, VALUES, ["--method", "as-numeric", "--max-refine", "0"],
                    "warning: quadrature did not converge; attributions are best estimates"),
    None: (MODEL, VALUES, [], None),
}


class TestVerdict:
    @pytest.mark.parametrize("method", ["ass", "naive", "as-numeric", "ss-brute"])
    def test_is_made_once_per_entity(self, monkeypatch, method):
        from attrib import core, reports

        real, calls = core._distrust, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(core, "_distrust", counted)
        monkeypatch.setattr(reports, "_distrust", counted, raising=False)  # a module that imports the name holds its own
        got = run_report(parse_model(MODEL), parse_snapshots(VALUES + MORE_VALUES), method)
        for report in got:
            render_text(report)
        assert len(got) == 3 and len(calls) == 3

    @pytest.mark.parametrize("fault", list(_VERDICTS), ids=str)
    def test_text_machine_and_exit_code_read_one_verdict(self, tmp_path, capsys, fault):
        # each verdict comes from a real run, and its warning text tells the four apart
        model_text, values_text, method, warning = _VERDICTS[fault]
        model, values = tmp_path / "model.txt", tmp_path / "values.csv"
        model.write_text(model_text)
        values.write_text(values_text)
        argv = ["--model", str(model), "--values", str(values), *method]
        assert main(argv) == (0 if fault is None else 3)
        warnings_printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
        assert warnings_printed == ([] if warning is None else [warning])
        assert main(argv + ["--report", "machine"]) == (0 if fault is None else 3)
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["converged"] is (fault is None)


class TestMethodHandles:
    """Every `resolve_method` handle attributes one ValuePair, as its kernel does, or an E x n table, one result per row."""

    R = [[4.0, 1.0, 1.0], [2.0, 3.0, -1.0], [1.0, 0.5, 2.0]]
    S = [[5.0, 12.0, 1.5], [1.0, 3.0, 2.0], [3.0, 0.25, 2.0]]

    @pytest.mark.parametrize("method", ["ass", "naive", "as-numeric", "ss-brute", "random-order"])
    def test_one_pair_and_a_table(self, tmp_path, method):
        import numpy as np

        from attrib import ValuePair
        from attrib.exact import attribute_ass, attribute_ass_batch, attribute_naive
        from attrib.models import compile_model
        from attrib.oracles import random_order_attribution, shapley_shubik_bruteforce
        from attrib.paths import QuadratureConfig, attribute_aumann_shapley
        from attrib.reports import resolve_method

        ms = parse_model(MODEL + "[separable]\nc : exp 0.5 0 2\n")
        f = compile_model(ms)
        kernels = {
            "ass": attribute_ass,
            "naive": attribute_naive,
            "as-numeric": lambda g, vp: attribute_aumann_shapley(g, vp, QuadratureConfig()),
            "ss-brute": shapley_shubik_bruteforce,
        }
        if method == "random-order":
            orders = tmp_path / "orders.txt"
            orders.write_text("a p c : 0.25\nc a p : 0.75\n")
            pw = parse_order_weights(orders.read_text(), ms.variables, str(orders))
            method = f"random-order:{orders}"
            kernels[method] = lambda g, vp: random_order_attribution(g, vp, pw)
        kernel, handle = kernels[method], resolve_method(method, ms.variables)
        pairs = [ValuePair(r, s) for r, s in zip(self.R, self.S)]
        singles = [repr(kernel(f, vp)) for vp in pairs]
        assert [repr(handle(f, vp)) for vp in pairs] == singles
        rows = handle(f, (np.array(self.R), np.array(self.S)))
        if method == "ass":
            assert rows == attribute_ass_batch(f, self.R, self.S)
        else:
            assert [repr(row) for row in rows] == singles


def _machine_records(report: Report) -> list[dict]:
    """render_machine's records built as dicts, the reference its output must match byte for byte."""
    records, res = [], report.result
    for name, ini, fin, zv in zip(report.variables, report.initial, report.final, res.z):
        records.append(
            {
                "record": "attribution",
                "entity": report.entity,
                "method": res.method,
                "variable": name,
                "initial": ini,
                "final": fin,
                "attribution": zv,
            }
        )
    if report.segments:
        for label in sorted(report.segments):
            records.append(
                {"record": "segment", "entity": report.entity, "segment": label, "attribution": report.segments[label]}
            )
    records.append(
        {
            "record": "summary",
            "entity": report.entity,
            "method": res.method,
            "total_change": res.change,
            "residual": res.residual,
            "converged": res.fault is None,
        }
    )
    return records


_names = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f%{}é€\U0001d11e'), st.characters()), max_size=6)
_numbers = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e16, 1e-5]))


@st.composite
def _reports(draw):
    variables = tuple(draw(st.lists(_names, min_size=1, max_size=4, unique=True)))
    n = len(variables)
    result = AttributionResult(
        method=draw(st.one_of(st.sampled_from(["ass", "naive", "random-order"]), _names)),
        z=tuple(draw(st.lists(_numbers, min_size=n, max_size=n))),
        change=draw(_numbers),
        converged=draw(st.booleans()),
    )
    return Report(
        entity=draw(_names),
        variables=variables,
        initial=tuple(draw(st.lists(_numbers, min_size=n, max_size=n))),
        final=tuple(draw(st.lists(_numbers, min_size=n, max_size=n))),
        result=result,
        segments=draw(st.one_of(st.none(), st.dictionaries(_names, _numbers, max_size=3))),
    )


class TestRenderMachine:
    @given(_reports())
    def test_equals_json_dumps_of_each_record(self, report):
        assert render_machine(report) == "\n".join(json.dumps(rec) for rec in _machine_records(report))

    def test_names_with_format_characters_render_verbatim(self):
        result = AttributionResult("ass", (0.5, -0.0, math.nan), math.nan)
        report = Report("e{0}%s", ("a{1}", "%d", "}{"), (1.0, 2.0, 3.0), (4.0, 5.0, 6.0), result, {"{}": 0.5, "%%": 1e300})
        assert result.fault == "non-finite"
        assert render_machine(report) == "\n".join(json.dumps(rec) for rec in _machine_records(report))


class TestOrderWeightsFile:
    def test_parse(self):
        pw = parse_order_weights("a p : 0.25\np a : 0.75\n", ("a", "p"))
        assert pw.weights == {(1, 2): 0.25, (2, 1): 0.75}

    def test_repeated_order_adds_up(self):
        pw = parse_order_weights("a p : -0.25\np a : 0.75\na p : 0.5\n", ("a", "p"))
        assert pw.weights == {(1, 2): 0.25, (2, 1): 0.75}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a p c : 1\nc p a : -0.5\n", "w.txt:2: weight -0.5 for order 'c p a' is not a finite nonnegative number"),
            ("a p c : 1e308\nc p a : 0\na p c : 1e308\n", "w.txt:3: weight inf for order 'a p c' is not a finite nonnegative number"),
        ],
        ids=["negative", "overflowing-sum"],
    )
    def test_bad_weight_names_line_and_order(self, text, message):
        from attrib.models import ModelError

        with pytest.raises(ModelError) as info:
            parse_order_weights(text, ("a", "p", "c"), "w.txt")
        assert str(info.value) == message

    def test_unknown_name(self):
        from attrib.models import ModelError

        with pytest.raises(ModelError):
            parse_order_weights("a q : 1.0\n", ("a", "p"))

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_weight_rejected_with_line(self, token):
        from attrib.models import ModelError

        with pytest.raises(ModelError, match=rf"w\.txt:2: expected a finite number, got '{token}'"):
            parse_order_weights(f"a p : 0.5\np a : {token}\n", ("a", "p"), "w.txt")

    @pytest.mark.parametrize("order", ["a a c", "a c", "a p c p"])
    def test_bad_order_names_line_and_variables(self, order):
        from attrib.models import ModelError

        with pytest.raises(ModelError, match=rf"w\.txt:2: order '{order}' does not list each of 'a p c' exactly once"):
            parse_order_weights(f"a p c : 0.5\n{order} : 0.5\n", ("a", "p", "c"), "w.txt")

    def test_bad_sum(self):
        from attrib.models import ModelError

        with pytest.raises(ModelError):
            parse_order_weights("a p : 0.25\n", ("a", "p"))


class TestMixEffects:
    def test_reference_numbers(self):
        demo = mix_effects_demo()
        assert demo.cpc_by_segment["search"] == pytest.approx(100.0, rel=1e-12)
        assert demo.cpc_by_segment["content"] == pytest.approx(50.5, rel=1e-12)
        assert demo.cpc_segmented_total == pytest.approx(150.5, rel=1e-12)
        expected_aggregate = (400.0 / 10100.0 - 0.505) * (200.0 + 10100.0) / 2.0
        assert demo.cpc_aggregate == pytest.approx(expected_aggregate, rel=1e-12)
        assert demo.cpc_aggregate == pytest.approx(-2396.79, abs=5e-3)
        assert demo.signs_differ
        # segment totals are plain sums of member attributions, nothing more
        assert demo.segmented.segments["cpc"] == demo.cpc_by_segment["search"] + demo.cpc_by_segment["content"]
        # both routes still account for the same total change
        assert demo.segmented.result.change == pytest.approx(299.0, abs=1e-9)
        assert demo.aggregate.result.change == pytest.approx(299.0, abs=1e-9)


class TestCli:
    def test_text_report(self, model_files, capsys):
        model, values = model_files
        assert main(["--model", model, "--values", values]) == 0
        out = capsys.readouterr().out
        assert "entity: q2" in out
        assert "86" in out

    def test_machine_report(self, model_files, capsys):
        model, values = model_files
        assert main(["--model", model, "--values", values, "--report", "machine"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        summary = [r for r in records if r["record"] == "summary"][0]
        assert summary["residual"] == pytest.approx(0.0, abs=1e-12)

    def test_dag_report(self, tmp_path, capsys):
        dag = tmp_path / "graph.txt"
        dag.write_text("[nodes]\na t\n[sink]\nt\n[starts]\na : s_a\n[edges]\na t : p\n")
        values = tmp_path / "values.csv"
        values.write_text("e,s_a,10,20\ne,p,0.5,0.25\n")
        assert main(["--dag", str(dag), "--values", str(values)]) == 0
        out = capsys.readouterr().out
        assert "s_a" in out and "p" in out

    def test_missing_values_is_input_error(self, model_files, capsys):
        model, _ = model_files
        assert main(["--model", model]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_model_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[multilinear]\nx : 1\n")
        values = tmp_path / "values.csv"
        values.write_text("e,x,0,1\n")
        assert main(["--model", str(bad), "--values", str(values)]) == 2

    def test_unknown_method_is_input_error(self, model_files, capsys):
        model, values = model_files
        assert main(["--model", model, "--values", values, "--method", "sorcery"]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["--model", str(tmp_path / "nope.txt"), "--values", str(tmp_path / "nope.csv")]) == 2

    def test_nonconvergence_exit_code(self, model_files, capsys):
        model, values = model_files
        code = main(["--model", model, "--values", values, "--method", "as-numeric", "--max-refine", "0"])
        assert code == 3
        assert "did not converge" in capsys.readouterr().out

    def test_unknown_section_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[variables]\na p c\n[multilinar]\na p c : 1\n")
        values = tmp_path / "values.csv"
        values.write_text(VALUES)
        assert main(["--model", str(bad), "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{bad}:3: unknown section [multilinar]" in captured.err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[separable]\na : foo 1 2\n", "4: unknown separable kind 'foo'"),
            ("[multilinear]\na a : 1\n", "4: variable repeated within one term"),
            ("[multilinear]\na z : 1\n", "4: term references undeclared variable 'z'"),
            ("[variables]\nb a\n", "4: variable 'a' declared twice"),
            ("[segments]\na : x\na : y\n", "5: variable 'a' already has segment 'x'"),
            ("[variables]\np\n[multilinear]\na p : 1e308\np a : 1e308\n", "7: coefficients of the terms over ('p', 'a') add up to inf"),
            ("[separable]\na : powlaw 1 0 1 0.5\n", "4: powlaw exponent must be a nonzero integer"),
            ("[separable]\na : powlaw 1 0 1 0\n", "4: powlaw exponent must be a nonzero integer"),
        ],
    )
    def test_model_term_errors_name_file_and_line(self, tmp_path, capsys, body, message):
        bad = tmp_path / "bad.txt"
        bad.write_text("[variables]\na\n" + body)
        values = tmp_path / "values.csv"
        values.write_text("e,a,0,1\n")
        assert main(["--model", str(bad), "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{bad}:{message}" in captured.err

    def test_like_separable_terms_are_each_evaluated(self, tmp_path, capsys):
        # each term is finite; their scales, added, would overflow to inf
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na p c\n[multilinear]\na p : 1\n[separable]\nc : log 1 2 1e308\nc : log 1 2 1e308\n")
        values = tmp_path / "values.csv"
        values.write_text("e,a,1,2\ne,p,3,4\ne,c,0.1,0.2\n")
        assert main(["--model", str(model), "--values", str(values), "--report", "machine"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert captured.err == "" and records[-1]["record"] == "summary" and records[-1]["converged"] is True
        [c] = [r for r in records if r.get("variable") == "c"]
        # 2e308 * (ln 2.2 - ln 2.1), taken in mpmath from the doubles 0.2 + 2 and 0.1 + 2
        assert c["attribution"] == pytest.approx(9.304003126978579e306, rel=1e-12)
        # from 1 to 2 the terms' sum, f itself, overflows, but each term's change is finite: so is their sum, trusted
        values.write_text("e,a,1,2\ne,p,3,4\ne,c,1,2\n")
        assert main(["--model", str(model), "--values", str(values), "--report", "machine"]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out.splitlines()[-1])
        assert captured.err == "" and summary["record"] == "summary" and summary["converged"] is True
        assert summary["total_change"] == pytest.approx(2 * (1e308 * math.log(4 / 3)), rel=1e-12)

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        assert "one of --model, --dag, --axiom-suite, --demo is required" in capsys.readouterr().err

    def test_unknown_graph_node_names_file(self, tmp_path, capsys):
        dag = tmp_path / "graph.txt"
        dag.write_text("[nodes]\na t\n[sink]\nt\n[starts]\na : s_a\n[edges]\na q : p\n")
        values = tmp_path / "values.csv"
        values.write_text("e,s_a,1,2\ne,p,0,1\n")
        assert main(["--dag", str(dag), "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{dag}:8: edge 'a' -> 'q' uses an unknown node" in captured.err

    def test_graph_edge_without_a_variable_names_file_and_line(self, tmp_path, capsys):
        dag = tmp_path / "graph.txt"
        dag.write_text("[nodes]\na t\n[sink]\nt\n[starts]\na : s_a\n[edges]\na t :\n")
        values = tmp_path / "values.csv"
        values.write_text("e,s_a,1,2\n")
        assert main(["--dag", str(dag), "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {dag}:8: edge line needs 'from to : variable', got 'a t :'\n"

    def test_overflow_is_located_input_error(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na\n[separable]\na : exp 1000 0 1\n")
        values = tmp_path / "values.csv"
        values.write_text("e1,a,0,0.5\ne2,a,1,2\n")
        assert main(["--model", str(model), "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entity 'e2'" in captured.err and "variable 'a'" in captured.err and "Traceback" not in captured.err

    def test_non_finite_result_exits_numeric(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na b\n[multilinear]\na b : 1e300\n")
        values = tmp_path / "values.csv"
        values.write_text("ok,a,1,2\nok,b,1,3\nbig,a,1e10,2e10\nbig,b,1e10,3e10\n")
        assert main(["--model", str(model), "--values", str(values)]) == 3
        captured = capsys.readouterr()
        assert captured.out.count("warning: non-finite result") == 1 and "entity: ok" in captured.out
        assert captured.err == ""  # no numpy overflow warnings
        assert main(["--model", str(model), "--values", str(values), "--report", "machine"]) == 3
        summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines() if '"summary"' in line]
        assert [s["converged"] for s in summaries] == [True, False]

    @pytest.mark.parametrize("method", ["as-numeric", "ss-brute", "random-order"])
    def test_overflow_under_other_methods_prints_no_numpy_warnings(self, tmp_path, capsys, method):
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na b\n[segments]\na : x\nb : y\n[multilinear]\na b : 1\n")
        values = tmp_path / "values.csv"
        values.write_text("e,a,1e200,1e201\ne,b,1e200,1e200\n")
        if method == "random-order":
            orders = tmp_path / "orders.txt"
            orders.write_text("a b : 0.5\nb a : 0.5\n")
            method = f"random-order:{orders}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--model", str(model), "--values", str(values), "--method", method]) == 3
        captured = capsys.readouterr()
        assert "warning: non-finite result" in captured.out and captured.err == ""

    def test_overflowing_graph_entity_prints_no_numpy_warnings(self, tmp_path, capsys):
        dag = tmp_path / "graph.txt"
        dag.write_text("[nodes]\na b t\n[sink]\nt\n[starts]\na : s\n[edges]\na b : p\nb t : q\na t : r\n")
        values = tmp_path / "values.csv"
        values.write_text("e,s,1e200,1e201\ne,p,1e200,1e200\ne,q,1e100,1e100\ne,r,1,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--dag", str(dag), "--values", str(values)]) == 3
        captured = capsys.readouterr()
        assert "warning: non-finite result" in captured.out and captured.err == ""

    def test_graph_beyond_the_route_cap(self, tmp_path, capsys):
        # 8 layers of 8 nodes: 8^8 = 16,777,216 start/route pairs, over the reference expansion's cap of 10^6
        grid = [[f"n{k}_{j}" for j in range(8)] for k in range(8)]
        edges = [(u, v) for k in range(7) for u in grid[k] for v in grid[k + 1]] + [(u, "t") for u in grid[-1]]
        starts = [f"{u} : s_{u}" for u in grid[0]]
        dag = tmp_path / "graph.txt"
        dag.write_text(
            "[nodes]\n" + " ".join(sum(grid, [])) + " t\n[sink]\nt\n[starts]\n" + "\n".join(starts)
            + "\n[edges]\n" + "\n".join(f"{u} {v} : p_{u}_{v}" for u, v in edges) + "\n"
        )
        names = [f"s_{u}" for u in grid[0]] + [f"p_{u}_{v}" for u, v in edges]
        values = tmp_path / "values.csv"
        values.write_text("".join(f"e,{name},{0.5 if name[0] == 'p' else 10},{0.25 if name[0] == 'p' else 20}\n" for name in names))
        for method in ("ass", "naive", "as-numeric"):
            assert main(["--dag", str(dag), "--values", str(values), "--report", "machine", "--method", method]) == 0
            records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            [summary] = [r for r in records if r["record"] == "summary"]
            # every route multiplies its start by eight probabilities: 8 * 8^7 routes, 20 * 0.25^8 - 10 * 0.5^8 each
            assert summary["total_change"] == pytest.approx(8**8 * (20 * 0.25**8 - 10 * 0.5**8), rel=1e-12)
            if method != "naive":
                assert abs(summary["residual"]) <= 1e-12 * (1 + abs(summary["total_change"]))
            assert len(records) == len(names) + 1

    def test_unreachable_start_is_input_error(self, tmp_path, capsys):
        dag = tmp_path / "graph.txt"
        dag.write_text("[nodes]\na b t\n[sink]\nt\n[starts]\nb : s_b\n[edges]\na t : p\n")
        values = tmp_path / "values.csv"
        values.write_text("e,s_b,1,2\ne,p,0.5,0.5\n")
        orders = tmp_path / "orders.txt"
        orders.write_text("s_b p : 1\n")
        for method in ("ass", "naive", "as-numeric", "ss-brute", f"random-order:{orders}"):
            assert main(["--dag", str(dag), "--values", str(values), "--method", method]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {dag}: sink is unreachable from start node 'b'\n"

    def test_bad_entity_in_a_batch_stops_the_run(self, tmp_path, capsys):
        # one bad entity fails the whole run: exit 2, the entity named, nothing printed
        model = tmp_path / "model.txt"
        model.write_text(MODEL + "[separable]\np : log 1 0 1\n")
        values = tmp_path / "values.csv"
        values.write_text(VALUES + "q3,a,4,5\nq3,p,-1,12\nq3,c,1,1.5\n" + VALUES.replace("q2", "q4").split("\n", 1)[1])
        assert main(["--model", str(model), "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entity 'q3'" in captured.err and "variable 'p'" in captured.err

    def test_empty_entity_name_names_file_and_line(self, model_files, tmp_path, capsys):
        # not attributed as an entity named ''
        model, _ = model_files
        values = tmp_path / "values.csv"
        values.write_text(",a,1,2\n")
        assert main(["--model", model, "--values", str(values), "--report", "machine"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {values}:1: empty entity name\n"

    def test_snapshot_mismatch_names_the_entity(self, model_files, tmp_path, capsys):
        model, _ = model_files
        values = tmp_path / "values.csv"
        values.write_text(VALUES + "q3,a,1,2\nq3,z,1,2\n")
        assert main(["--model", model, "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: entity 'q3' does not match the model: missing 'p', 'c'; unknown 'z'\n"

    def test_graph_cycle_names_the_file_and_the_cycle(self, tmp_path, capsys):
        dag = tmp_path / "g.txt"
        dag.write_text("[nodes]\na b t\n[sink]\nt\n[starts]\na : s\n[edges]\na b : x\nb a : y\na t : z\n")
        values = tmp_path / "v.csv"
        values.write_text("e,s,1,2\ne,x,1,2\ne,y,1,2\ne,z,1,2\n")
        assert main(["--dag", str(dag), "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {dag}: graph has a cycle: a -> b -> a\n"

    def test_model_and_dag_together(self, model_files, capsys):
        model, values = model_files
        assert main(["--model", model, "--dag", model, "--values", values]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: give either --model or --dag, not both\n"

    @pytest.mark.parametrize(
        "modes, first, second",
        [
            (["--axiom-suite", "--model", "{model}"], "--axiom-suite", "--model"),
            (["--demo", "mix-effects", "--model", "{model}"], "--demo", "--model"),
            (["--demo", "mix-effects", "--dag", "{model}"], "--demo", "--dag"),
            (["--axiom-suite", "--dag", "{model}"], "--axiom-suite", "--dag"),
            (["--demo", "mix-effects", "--axiom-suite"], "--demo", "--axiom-suite"),
        ],
        ids=["axiom-suite-model", "demo-model", "demo-dag", "axiom-suite-dag", "demo-axiom-suite"],
    )
    def test_two_modes_together(self, model_files, capsys, modes, first, second):
        # neither mode runs and the model is never read: one error line names both flags
        model, values = model_files
        assert main([arg.format(model=model) for arg in modes] + ["--values", values]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: give either {first} or {second}, not both\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--axiom-suite", "--values", "{values}"], "--values goes with --model or --dag; --axiom-suite does not read it"),
            (["--demo", "mix-effects", "--values", "{tmp}/nonexistent.csv"],
             "--values goes with --model or --dag; --demo does not read it"),
            (["--demo", "mix-effects", "--method", "naive"],
             "--method goes with --model, --dag or --axiom-suite; --demo does not read it"),
            (["--demo", "mix-effects", "--method", "ass"],
             "--method goes with --model, --dag or --axiom-suite; --demo does not read it"),
            (["--model", "{tmp}/nonexistent.txt", "--values", "{values}", "--trials", "0"],
             "--trials goes with --axiom-suite; --model does not read it"),
            (["--model", "{tmp}/nonexistent.txt", "--values", "{values}", "--trials", "0", "--seed", "9"],
             "--seed goes with --axiom-suite; --model does not read it"),
            (["--dag", "{tmp}/nonexistent.txt", "--values", "{values}", "--seed", "0"],
             "--seed goes with --axiom-suite; --dag does not read it"),
            (["--demo", "mix-effects", "--trials", "5"], "--trials goes with --axiom-suite; --demo does not read it"),
            (["--demo", "mix-effects", "--tol", "0.5", "--max-refine", "3"],
             "--tol goes with --model, --dag or --axiom-suite; --demo does not read it"),
            (["--demo", "mix-effects", "--tol", "0.5"], "--tol goes with --model, --dag or --axiom-suite; --demo does not read it"),
            (["--demo", "mix-effects", "--max-refine", "3"],
             "--max-refine goes with --model, --dag or --axiom-suite; --demo does not read it"),
        ],
        ids=["axiom-suite", "demo", "demo-method", "demo-default-method", "model-trials", "model-seed-and-trials",
             "dag-seed", "demo-trials", "demo-tol", "demo-tol-alone", "demo-max-refine"],
    )
    def test_values_outside_a_report_run(self, model_files, tmp_path, capsys, argv, message):
        # a flag the mode does not read, even at its default value, is refused: the mode does not run, and no file is opened
        assert main([arg.format(values=model_files[1], tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_domain_errors_keep_their_order(self, tmp_path, capsys):
        # term 1 leaves its domain at r, term 2 at s: the error is term 1's, as each term is tried at s, then r
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na b\n[separable]\na : log 1 0 1\nb : log 1 0 1\n")
        values = tmp_path / "values.csv"
        values.write_text("e1,a,1,2\ne1,b,1,2\ne2,a,-1,2\ne2,b,1,-1\n")
        assert main(["--model", str(model), "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: entity 'e2': log term on variable 1 got nonpositive argument -1.0 (variable 'a')\n"

    def test_values_with_only_a_header(self, model_files, tmp_path, capsys):
        model, _ = model_files
        values = tmp_path / "v.csv"
        values.write_text("entity,variable,initial,final\n")
        assert main(["--model", model, "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {values}: no snapshot rows\n"

    def test_undecodable_values_file_is_named(self, model_files, tmp_path, capsys):
        model, _ = model_files
        values = tmp_path / "v.csv"
        values.write_bytes("q2,a,4,5\nq2,pé,1,12\n".encode("cp1252"))
        assert main(["--model", model, "--values", str(values)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {values}: not UTF-8 text: byte 0xe9 (invalid continuation byte)\n"

    def test_random_order_weights_over_another_variable_count(self, model_files, tmp_path, capsys):
        model, values = model_files
        orders = tmp_path / "w.txt"
        orders.write_text("a p : 0.5\np a : 0.5\n")
        assert main(["--model", model, "--values", values, "--method", f"random-order:{orders}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {orders}:1: order 'a p' does not list each of 'a p c' exactly once\n"

    def test_weights_line_without_a_colon_names_the_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text("[nodes]\na b t\n[sink]\nt\n[starts]\na : s_a\nb : s_b\n[edges]\na b : p_ab\nb t : p_bt\na t : p_at\n")
        (tmp_path / "v.csv").write_text("e,s_a,10,20\ne,s_b,5,4\ne,p_ab,0.5,0.25\ne,p_bt,0.5,0.75\ne,p_at,0.25,0.5\n")
        (tmp_path / "w.txt").write_text("# one order, but no weight\n\ns_a s_b p_ab p_bt p_at\n")
        assert main(["--dag", "g.txt", "--values", "v.csv", "--method", "random-order:w.txt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: w.txt:3: expected 'names : weight'\n"

    def test_files_with_a_byte_order_mark(self, tmp_path, capsys):
        # Excel and Windows editors start UTF-8 files with U+FEFF
        model = tmp_path / "model.txt"
        model.write_text(MODEL, encoding="utf-8-sig")
        values = tmp_path / "values.csv"
        values.write_text(VALUES, encoding="utf-8-sig")
        orders = tmp_path / "orders.txt"
        orders.write_text("a p c : 0.5\nc p a : 0.5\n", encoding="utf-8-sig")
        assert main(["--model", str(model), "--values", str(values), "--method", f"random-order:{orders}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "entity: q2" in captured.out and "total change: 86" in captured.out
        dag = tmp_path / "graph.txt"
        dag.write_text("[nodes]\na t\n[sink]\nt\n[starts]\na : s_a\n[edges]\na t : p\n", encoding="utf-8-sig")
        values.write_text("e,s_a,10,20\ne,p,0.5,0.25\n", encoding="utf-8-sig")
        assert main(["--dag", str(dag), "--values", str(values)]) == 0
        assert "entity: e" in capsys.readouterr().out

    def test_import_does_not_load_scipy(self):
        # scipy is no dependency, and no module or test uses it; hashlib (OpenSSL, a few MB) serves only the
        # value-variant weight rule
        code = (
            "import sys, attrib.cli;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hashlib', '_hashlib')))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_child_env()).stdout
        assert out.strip() == "[]"

    def test_import_does_not_load_the_file_grammars(self):
        # the kernels tell a graph from a model by its type alone; only the CLI and the reports read files
        code = "import sys, attrib; print(sorted(m for m in ('attrib.models', 'csv', 'graphlib') if m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_child_env()).stdout
        assert out.strip() == "[]"

    def test_exact_reports_load_no_axioms_oracles_or_paths(self, model_files, tmp_path):
        # an ass or naive report on a model or a graph never calls them, and a run without bytecode caches
        # would compile them; an ss-brute report loads the oracles, so the check can tell
        model, values = model_files
        dag, dag_values = tmp_path / "graph.txt", tmp_path / "graph.csv"
        dag.write_text("[nodes]\na t\n[sink]\nt\n[starts]\na : s_a\n[edges]\na t : p\n")
        dag_values.write_text("e,s_a,10,20\ne,p,0.5,0.25\n")
        runs = [
            ["--dag", str(dag), "--values", str(dag_values)],
            ["--model", model, "--values", values],
            ["--model", model, "--values", values, "--method", "naive", "--report", "machine"],
            ["--model", model, "--values", values, "--method", "ss-brute"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "import attrib.cli as cli\n"
            "def loaded(): return [m for m in ('attrib.axioms', 'attrib.oracles', 'attrib.paths') if m in sys.modules]\n"
            "seen = [loaded()]\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    seen.append(loaded())\n"
            "print(json.dumps(seen))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_child_env()).stdout
        assert json.loads(out) == [[], [], [], [], ["attrib.oracles", "attrib.paths"]]

    # every name `attrib` exports, by the module that defines it
    _EXPORTS = {
        "core": ("AttributionResult", "CharacteristicFunction", "DomainError", "MultilinearPoly", "SeparableTerm",
                 "ValuePair", "affine_reparameterize", "combine", "evaluate", "from_terms", "monomial",
                 "partial_derivative", "permute_variables", "permute_vector", "product_function"),
        "exact": ("attribute_ass", "attribute_monomial", "attribute_naive", "shapley_weight", "shapley_weights"),
        "oracles": ("PermutationWeights", "hash_order_weights", "random_order_attribution", "shapley_shubik_bruteforce",
                    "value_variant_attribution"),
        "paths": ("BlackBoxFunction", "QuadratureConfig", "attribute_aumann_shapley", "attribute_path", "edge_walk",
                  "straight_line"),
        "axioms": ("AXIOM_IDS", "AxiomVerdict", "InstanceGenerator", "check_axiom", "divergence_witness", "run_axiom_suite"),
    }

    def test_every_exported_name_is_its_home_modules_object(self):
        import importlib

        for home, names in self._EXPORTS.items():
            module = importlib.import_module(f"attrib.{home}")
            assert getattr(attrib, home) is module
            for name in names:
                assert getattr(attrib, name) is getattr(module, name), name
        assert sorted(attrib.__all__) == sorted(name for names in self._EXPORTS.values() for name in names)
        with pytest.raises(AttributeError, match="module 'attrib' has no attribute 'attribute_everything'"):
            attrib.attribute_everything
        with pytest.raises(ImportError):
            from attrib import attribute_everything  # noqa: F401

    def test_exported_names_load_their_module_on_first_use(self):
        code = (
            "import sys, attrib\n"
            "lazy = ('attrib.axioms', 'attrib.oracles', 'attrib.paths')\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "from attrib import edge_walk\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "print(attrib.oracles.__name__, [m for m in lazy if m in sys.modules])\n"
            "from attrib import *\n"
            "print([m for m in lazy if m in sys.modules], InstanceGenerator.__module__)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_child_env()).stdout
        assert out.splitlines() == [
            "[]",
            "['attrib.paths']",
            "attrib.oracles ['attrib.oracles', 'attrib.paths']",
            "['attrib.axioms', 'attrib.oracles', 'attrib.paths'] attrib.axioms",
        ]

    @pytest.mark.parametrize(
        "report, render, sep", [("machine", render_machine, "\n"), ("text", render_text, "\n\n")], ids=["machine", "text"]
    )
    def test_each_report_is_written_as_it_is_rendered(self, model_files, monkeypatch, report, render, sep):
        model, values = model_files
        with open(values, "a") as file:
            file.write(MORE_VALUES)
        reports = run_report(parse_model(MODEL), parse_snapshots(VALUES + MORE_VALUES))
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["--model", model, "--values", values, "--report", report]) == 0
        assert max(map(len, writes)) <= max(len(render(r)) for r in reports) + len(sep)
        assert "".join(writes) == sep.join(render(r) for r in reports) + "\n"

    def test_demo(self, capsys):
        assert main(["--demo", "mix-effects"]) == 0
        out = capsys.readouterr().out
        assert "150.5" in out and "-2396.78960396" in out

    def test_demo_machine(self, capsys):
        assert main(["--demo", "mix-effects", "--report", "machine"]) == 0
        demo = mix_effects_demo()
        records = _machine_records(demo.segmented) + _machine_records(demo.aggregate)
        assert capsys.readouterr().out == "".join(json.dumps(rec) + "\n" for rec in records)
        assert [rec["record"] for rec in records].count("summary") == 2

    def test_axiom_suite_quick(self, capsys):
        assert main(["--axiom-suite", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 9

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_axiom_suite_without_trials_is_input_error(self, trials, capsys):
        assert main(["--axiom-suite", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least one trial" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    @pytest.mark.parametrize("run", ["as-numeric", "ass", "axiom-suite"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol, run):
        # a log term steep near 0: an infinite tolerance would accept an as-numeric attribution 18 short of the change
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na\n[separable]\na : log 1 1e-12 1\n")
        values = tmp_path / "values.csv"
        values.write_text("e,a,0,1\n")
        if run == "axiom-suite":
            argv = ["--axiom-suite", "--trials", "2"]
        else:
            argv = ["--model", str(model), "--values", str(values), "--method", run]
        assert main(argv + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --tol must be finite and greater than 0, got {float(tol)}\n"

    @pytest.mark.parametrize("run", ["as-numeric", "ass", "axiom-suite"])
    def test_max_refine_must_be_nonnegative(self, model_files, capsys, run):
        model, values = model_files
        if run == "axiom-suite":
            argv = ["--axiom-suite", "--trials", "2"]
        else:
            argv = ["--model", model, "--values", values, "--method", run]
        assert main(argv + ["--max-refine", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --max-refine must be a nonnegative integer, got -1\n"

    def test_residual_gate_flags_a_loose_quadrature(self, tmp_path, capsys):
        # with a huge --tol the first quadrature pass is accepted, 18.1 short of the change on this steep log term
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na\n[separable]\na : log 1 1e-12 1\n")
        values = tmp_path / "values.csv"
        values.write_text("e,a,0,1\n")
        argv = ["--model", str(model), "--values", str(values), "--method", "as-numeric", "--tol", "1e300"]
        assert main(argv + ["--report", "machine"]) == 3
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["converged"] is False and summary["residual"] < -18
        assert main(argv) == 3
        assert "warning: the residual exceeds 1e-09 of |total change| + sum |attribution|" in capsys.readouterr().out

    def test_residual_gate_flags_a_cancelling_ass_row(self, tmp_path, capsys):
        # a b - a c cancels in floating point: ass prints z_a = 0 (true 0.8) and a residual of -1.2 (change 19, true 18.6)
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na b c d\n[multilinear]\na b : 1\na c : -1\nd : 1\n")
        values = tmp_path / "values.csv"
        values.write_text("e,a,1,1.1\ne,b,1e17,100000000000000016\ne,c,1e17,1e17\ne,d,0,1\n")
        argv = ["--model", str(model), "--values", str(values)]
        assert main(argv + ["--report", "machine"]) == 3
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records[0]["variable"] == "a" and records[0]["attribution"] == 0.0
        assert records[-1]["converged"] is False and records[-1]["residual"] == pytest.approx(-1.2, rel=1e-3)
        assert main(argv) == 3
        assert "warning: the residual exceeds 1e-09 of |total change| + sum |attribution|" in capsys.readouterr().out

    @pytest.mark.parametrize("method, code", [("ass", 0), ("as-numeric", 0), ("ss-brute", 3)])
    def test_small_move_takes_its_change_from_differences(self, model_files, tmp_path, capsys, method, code):
        # f(s) - f(r) would cancel to 7.99999995138e-08; the change from differences is right to a few ulps, so ass and
        # as-numeric, whose z are right, are trusted, and ss-brute, whose corner walk cancels in z, is flagged
        model, _ = model_files
        values = tmp_path / "small.csv"
        values.write_text("q,a,4,4.00000004\nq,p,1,1.00000001\nq,c,1,1\n")
        assert main(["--model", model, "--values", str(values), "--method", method, "--report", "machine"]) == code
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        exact = 7.999999991380232e-08  # from rationals on the given doubles
        assert abs(summary["total_change"] - exact) <= 4 * math.ulp(exact)
        assert summary["converged"] is (code == 0)

    @pytest.mark.parametrize("method, code", [("ass", 0), ("as-numeric", 0), ("ss-brute", 3)])
    def test_exp_term_on_a_tiny_move_takes_its_change_from_the_difference(self, tmp_path, capsys, method, code):
        # 2 exp(x / 2) from 100 to 100.0000000001: two values near 1e22 would cancel to 518480986112; expm1 of the
        # moved exponent gives the change, so ass and as-numeric are trusted, and ss-brute, whose z cancels, is flagged
        model = tmp_path / "model.txt"
        model.write_text("[variables]\nx\n[separable]\nx : exp 0.5 0 2\n")
        values = tmp_path / "values.csv"
        values.write_text("e,x,100,100.0000000001\n")
        assert main(["--model", str(model), "--values", str(values), "--method", method, "--report", "machine"]) == code
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        exact = 518479805657.24135  # 2 e^50 expm1(alpha (s - r)) on the given doubles, mpmath at 50 digits
        assert abs(records[-1]["total_change"] - exact) <= 4 * math.ulp(exact)
        if code == 0:
            assert abs(records[0]["attribution"] - exact) <= 4 * math.ulp(exact)
        assert records[-1]["converged"] is (code == 0)

    def test_residual_gate_with_an_overflowing_scale(self, tmp_path, capsys):
        # z = (1.7e308, -1.7e308) sums to the change exactly, but sum |z_i| overflows
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na b\n[multilinear]\na : 1\nb : -1\n")
        values = tmp_path / "values.csv"
        values.write_text("e,a,0,1.7e308\ne,b,0,1.7e308\n")
        assert main(["--model", str(model), "--values", str(values), "--report", "machine"]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out.splitlines()[-1])
        assert captured.err == "" and summary["converged"] is True and summary["residual"] == 0.0

    def test_total_change_is_the_change_of_f_under_a_large_residual(self, tmp_path, capsys):
        # naive misses by 18 here; sum(z) - residual would round to 2.8000000000000007
        model = tmp_path / "model.txt"
        model.write_text("[variables]\na b c\n[multilinear]\na b : 1\nc : 1\n")
        values = tmp_path / "values.csv"
        values.write_text("e,a,4,1\ne,b,1,7\ne,c,0.8,0.6\n")
        argv = ["--model", str(model), "--values", str(values), "--method", "naive", "--report", "machine"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["total_change"] == (1.0 * 7.0 + 0.6) - (4.0 * 1.0 + 0.8) == 2.8
        assert summary["residual"] == -18.0

    @pytest.mark.parametrize("method", ["ss-brute", "random-order"])
    def test_order_enumeration_cap_names_the_method(self, tmp_path, capsys, method):
        names = [f"x{i}" for i in range(11)]
        model = tmp_path / "model.txt"
        model.write_text("[variables]\n" + " ".join(names) + "\n[multilinear]\n" + " ".join(names) + " : 1\n")
        values = tmp_path / "values.csv"
        values.write_text("".join(f"e1,{name},1,2\n" for name in names))
        if method == "random-order":
            orders = tmp_path / "orders.txt"
            orders.write_text(" ".join(names) + " : 1\n")
            method = f"random-order:{orders}"
        assert main(["--model", str(model), "--values", str(values), "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: method {method} enumerates variable orders, capped at 10 variables; the model has 11\n"
        )

    def test_axiom_suite_refuses_random_order(self, tmp_path, capsys):
        orders = tmp_path / "w.txt"
        orders.write_text("a p c : 1\n")
        assert main(["--axiom-suite", "--method", f"random-order:{orders}", "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --axiom-suite cannot check random-order:{orders}: the suite's instances have unnamed"
            " variables, so no weights file can list their orders\n"
        )

    def test_axiom_suite_machine(self, capsys):
        assert main(["--axiom-suite", "--trials", "3", "--report", "machine"]) == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert len(verdicts) == 9
        assert all(v["passed"] for v in verdicts)

    def test_random_order_via_file(self, model_files, tmp_path, capsys):
        model, values = model_files
        orders = tmp_path / "orders.txt"
        orders.write_text("a p c : 0.5\nc p a : 0.5\n")
        assert main(["--model", model, "--values", values, "--method", f"random-order:{orders}"]) == 0
        assert "total change: 86" in capsys.readouterr().out


# A model with no segments, for the runs below
_APC = "[variables]\na p c\n[multilinear]\na p c : 1\n"
# README's three-node graph, two entities of values for it, and one order, weight 1, of its five variables
_GRAPH = "[nodes]\na b t\n[sink]\nt\n[starts]\na : s_a\nb : s_b\n[edges]\na b : p_ab\nb t : p_bt\na t : p_at\n"
_GRAPH_VALUES = ("e1,s_a,10,20\ne1,s_b,5,4\ne1,p_ab,0.5,0.25\ne1,p_bt,0.5,0.75\ne1,p_at,0.25,0.5\n"
                 "e2,s_a,1,2\ne2,s_b,3,3\ne2,p_ab,0.1,0.2\ne2,p_bt,0.9,0.8\ne2,p_at,0.4,0.4\n")
_GRAPH_ORDER = "s_a s_b p_ab p_bt p_at : 1\n"
_NINE = [f"x{i}" for i in range(1, 10)]
_PRODUCT9 = f"[variables]\n{' '.join(_NINE)}\n[multilinear]\n{' '.join(_NINE)} : 1\n"
_PRODUCT9_VALUES = "e,x1,1,2\ne,x2,2,1\ne,x3,1,3\ne,x4,0.5,1.5\ne,x5,1,1.25\ne,x6,2,0.5\ne,x7,1,2\ne,x8,3,1\ne,x9,1,1.5\n"
# two log terms on one variable, each of scale 1e308: never added into one term of scale inf
_TWO_LOGS = "[variables]\nc\n[separable]\nc : log 1 2 1e308\nc : log 1 2 1e308\n"
# x's slope, -1e-300 x^-2, is finite from 1e-160 to 2e-160, though x^-2 itself leaves the doubles
_POWLAW_TINY = "[variables]\nx y\n[multilinear]\nx y : 1\n[separable]\nx : powlaw 1 0 1e-300 -1\n"
_SUMMARY = '{"record": "summary"'
_ATTRIBUTION = '{"record": "attribution"'
_CONVERGED = '"converged": true'
_WARNING = "warning: "
_UNCONVERGED = "warning: quadrature did not converge; attributions are best estimates"
_RESIDUAL = "warning: the residual exceeds 1e-09 of |total change| + sum |attribution|; attributions are best estimates"
_METHODS = ["ass", "naive", "as-numeric", "ss-brute", "random-order:{orders}"]

# Whole runs of the command: the files they read (each written to a temporary path that argv and the expected
# stderr name as {key}), argv, the exit code, and stdout and stderr.  A string is the whole expected text; a dict
# maps each text to the number of stdout lines that hold it.
_RUNS = [
    pytest.param({}, ["--axiom-suite", "--method", "ss-brute", "--trials", "50"], 0, {"PASS  ": 9}, "",
                 id="axiom-suite-ss-brute"),
    # the largest plan a row of the tier-1 runs reaches: 256 before-sets per variable
    pytest.param({"model": _PRODUCT9, "values": _PRODUCT9_VALUES},
                 ["--model", "{model}", "--values", "{values}", "--method", "ss-brute", "--report", "machine"], 0,
                 {_ATTRIBUTION: 9, _SUMMARY: 1, _CONVERGED: 1}, "", id="nine-variable-product-ss-brute"),
    *[pytest.param({"graph": _GRAPH, "values": _GRAPH_VALUES, "orders": _GRAPH_ORDER},
                   ["--dag", "{graph}", "--values", "{values}", "--report", "machine", "--method", method], 0,
                   {_SUMMARY: 2}, "", id=f"readme-graph-{method.split(':')[0]}") for method in _METHODS],
    pytest.param({"model": _APC, "values": "q,a,4,5\nq,p,1,12\nq,c,1,oops\n"}, ["--model", "{model}", "--values", "{values}"],
                 2, "", "error: {values}:3: expected a number, got 'oops'\n", id="values-not-a-number"),
    pytest.param({"model": _APC, "values": ",a,1,2\n"}, ["--model", "{model}", "--values", "{values}"],
                 2, "", "error: {values}:1: empty entity name\n", id="values-empty-entity-name"),
    # a header, blank rows and rows of empty cells read as nothing
    pytest.param({"model": _APC, "values": "\n  \nentity,variable,initial,final\nq,a,4,5\n,,,\nq,p,1,12\nq,c,1,1.5\n\n"
                                           "r,a,1,2\n , , , \nr,p,3,4\nr,c,5,6\n"},
                 ["--model", "{model}", "--values", "{values}", "--report", "machine"], 0, {_SUMMARY: 2}, "",
                 id="values-blank-rows-and-header"),
    # quadrature given no doublings converges on no entity: one warning in each entity's report
    pytest.param({"model": _APC, "values": "q,a,4,5\nq,p,1,12\nq,c,1,1.5\nr,a,1,2\nr,p,3,4\nr,c,5,6\n"},
                 ["--model", "{model}", "--values", "{values}", "--method", "as-numeric", "--max-refine", "0"], 3,
                 {_WARNING: 2, _UNCONVERGED: 2}, "", id="max-refine-0-two-entities"),
    # entity q3 leaves the log term's domain: every method stops the run naming it, before printing anything
    *[pytest.param({"model": _APC + "[separable]\np : log 1 0 1\n",
                    "values": "q2,a,4,5\nq2,p,1,12\nq2,c,1,1.5\nq3,a,4,5\nq3,p,-1,12\nq3,c,1,1.5\n", "orders": "c p a : 1\n"},
                   ["--model", "{model}", "--values", "{values}", "--method", method], 2, "",
                   "error: entity 'q3': log term on variable 2 got nonpositive argument -1.0 (variable 'p')\n",
                   id=f"log-domain-{method.split(':')[0]}") for method in _METHODS],
    *[pytest.param({"model": _POWLAW_TINY, "values": "e,x,1e-160,2e-160\ne,y,1,2\n"},
                   ["--model", "{model}", "--values", "{values}", "--method", method, "--report", "machine"], 0,
                   {_ATTRIBUTION: 2, _SUMMARY: 1, _CONVERGED: 1}, "", id=f"powlaw-slope-past-the-doubles-{method}")
      for method in ["naive", "as-numeric"]],
    pytest.param({"model": _TWO_LOGS, "values": "e,c,0.1,0.2\n"}, ["--model", "{model}", "--values", "{values}", "--report", "machine"],
                 0, {_SUMMARY: 1, _CONVERGED: 1}, "", id="two-log-terms"),
    # from 1 to 2 the model's value itself overflows, but each term's change is finite, and so is their sum: trusted
    pytest.param({"model": _TWO_LOGS, "values": "e,c,1,2\n"}, ["--model", "{model}", "--values", "{values}", "--report", "machine"],
                 0, {_SUMMARY: 1, _CONVERGED: 1}, "", id="two-log-terms-overflowing-value"),
    # 40 doublings would build 2^47 nodes; refining stops at the cap of a pass, after 13 doublings.  Near 1e-12 the
    # steep log term leaves a residual that flags the row first; the product's row is flagged only as unconverged.
    pytest.param({"model": "[variables]\na\n[separable]\na : log 1 1e-12 1\n", "values": "e,a,0,1\n"},
                 ["--model", "{model}", "--values", "{values}", "--method", "as-numeric", "--tol", "1e-300", "--max-refine", "40"],
                 3, {_WARNING: 1, _RESIDUAL: 1}, "", id="max-refine-40-steep-log"),
    pytest.param({"model": _APC, "values": "q,a,4,5\nq,p,1,12\nq,c,1,1.5\n"},
                 ["--model", "{model}", "--values", "{values}", "--method", "as-numeric", "--tol", "1e-300", "--max-refine", "40"],
                 3, {_WARNING: 1, _UNCONVERGED: 1}, "", id="max-refine-40-product"),
]


@pytest.mark.parametrize("files, argv, code, out, err", _RUNS)
def test_command_run(tmp_path, capsys, files, argv, code, out, err):
    paths = {key: str(tmp_path / key) for key in files}
    for key, text in files.items():
        (tmp_path / key).write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err.format(**paths)
    if isinstance(out, str):
        assert captured.out == out
    else:
        lines = captured.out.splitlines()
        assert {text: sum(text in line for line in lines) for text in out} == out
        if "machine" in argv:
            assert lines[-1].startswith(_SUMMARY)  # a machine report ends with its last entity's summary


class TestEntryPoint:
    """`python -m attrib.cli` goes through `run()`, which freezes the import-time objects out of the collector."""

    def test_console_script_calls_run(self):
        # the installed `attrib` script calls run() too, so one call of it checks what these tests do not
        assert '\n[project.scripts]\nattrib = "attrib.cli:run"\n' in (_ROOT / "pyproject.toml").read_text()

    @pytest.mark.parametrize("case", ["ok", "flagged", "bad-entity"])
    @pytest.mark.parametrize("report", ["machine", "text"])
    def test_same_output_as_main(self, tmp_path, capsys, case, report):
        model = tmp_path / "model.txt"
        values = tmp_path / "values.csv"
        if case == "flagged":  # entity 'big' overflows: exit 3
            model.write_text("[variables]\na b\n[multilinear]\na b : 1e300\n")
            values.write_text("ok,a,1,2\nok,b,1,3\nbig,a,1e10,2e10\nbig,b,1e10,3e10\n")
        else:  # segments and a separable term; entity 'q3' leaves the log term's domain: exit 2
            model.write_text(MODEL + "[separable]\np : log 1 0 1\n")
            values.write_text(VALUES + (MORE_VALUES if case == "ok" else "q3,a,4,5\nq3,p,-1,12\nq3,c,1,1.5\n"))
        argv = ["--model", str(model), "--values", str(values), "--report", report]
        child = subprocess.run([sys.executable, "-m", "attrib.cli", *argv], capture_output=True, env=_child_env(), timeout=120)
        code = main(argv)
        captured = capsys.readouterr()
        assert (child.returncode, child.stdout, child.stderr.decode()) == (code, captured.out.encode(), captured.err)
        assert code == {"ok": 0, "flagged": 3, "bad-entity": 2}[case]

    @pytest.mark.parametrize(
        "report, read", [("machine", 0), ("text", 0), ("machine", 1), ("text", 1)],
        ids=["machine", "text", "machine-after-one-byte", "text-after-one-byte"],
    )
    def test_closed_stdout_is_one_error_line(self, tmp_path, report, read):
        # 600 entities, more output than a pipe holds.  Entity e1's 8,000-character name makes its report one large
        # write after e0's small one, so e0's records still sit in stdout's buffer when the write fails, and the
        # interpreter's flush at exit would fail on them again.  PYTHONUNBUFFERED would leave nothing buffered.
        # The reader closes its end at once, or after one byte, as `| head -c 1` does.
        model = tmp_path / "model.txt"
        model.write_text(MODEL)
        values = tmp_path / "values.csv"
        rows = VALUES.split("\n", 1)[1]
        values.write_text("".join(rows.replace("q2", f"e{k}" + "x" * 8000 * (k == 1)) for k in range(600)))
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, "-m", "attrib.cli", "--model", str(model), "--values", str(values), "--report", report]
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        child.stdout.read(read)
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert err.decode() == "error: [Errno 32] Broken pipe\n"  # one line: no traceback, no "Exception ignored"
        assert child.returncode == 2


def test_walk_convergence_script():
    # the script README documents: it fails here if the public API it imports changes
    argv = [sys.executable, str(_ROOT / "scripts" / "walk_convergence.py"), "--grids", "1", "2", "4", "--walks", "200"]
    child = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.splitlines()[:2] == ["straight-line attribution: [0.666667, 0.333333]", "order-walk average:        [0.5, 0.5]"]
