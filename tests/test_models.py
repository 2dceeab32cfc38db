import copy
import csv
import dataclasses
import io
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrib import ValuePair, attribute_ass, evaluate
from attrib import models
from attrib.models import (
    DagModel,
    ModelError,
    ModelSpec,
    compile_dag,
    compile_model,
    ecommerce_dag_example,
    format_model,
    parse_dag,
    parse_model,
    parse_snapshots,
    payperclick_model,
    portfolio_model,
    procurement_model,
    read_text,
)

MODEL_TEXT = """
# procurement expenditure
[variables]
a p c
[segments]
a : manufacturing
p : procurement
[multilinear]
a p c : 1
: 2.5        # constant offset
[separable]
a : poly 0 1
"""

DAG_TEXT = """
[nodes]
a b t
[sink]
t
[starts]
a : s_a
b : s_b
[edges]
a b : p_ab
b t : p_bt
a t : p_at
"""


def _basketball(players) -> ModelSpec:
    """Points = sum over players of games * minutes * attempts * accuracy, accuracy in percent.

    The 1/100 rescaling sits in the 0.01 coefficient of each degree-four term.
    """
    names, terms = [], []
    for p in players:
        player = (f"games_{p}", f"minutes_{p}", f"attempts_{p}", f"accuracy_{p}")
        names += player
        terms.append((player, 0.01))
    return ModelSpec(tuple(names), tuple(terms))


class TestModelFormat:
    def test_parse_basic(self):
        ms = parse_model(MODEL_TEXT)
        assert ms.variables == ("a", "p", "c")
        assert ms.segments == {"a": "manufacturing", "p": "procurement"}
        assert (("a", "p", "c"), 1.0) in ms.ml_terms
        assert ((), 2.5) in ms.ml_terms
        assert ms.sep_terms == (("a", "poly", (0.0, 1.0)),)

    def test_compile(self):
        f = compile_model(parse_model(MODEL_TEXT))
        assert evaluate(f, (2.0, 3.0, 4.0)) == 2.0 * 3.0 * 4.0 + 2.5 + 2.0

    def test_round_trip_is_bit_exact(self):
        ms = parse_model(MODEL_TEXT)
        again = parse_model(format_model(ms))
        assert again == ms

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError):
            ModelSpec(("a", "a"))

    def test_undeclared_reference_rejected(self):
        with pytest.raises(ModelError):
            ModelSpec(("a",), ((("b",), 1.0),))

    def test_needs_variables_section(self):
        with pytest.raises(ModelError):
            parse_model("[multilinear]\nx : 1\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ModelError):
            parse_model("[variables]\na\n[multilinear]\na : one\n")

    def test_unknown_section_names_file_and_line(self):
        with pytest.raises(ModelError, match=r"m\.txt:3: unknown section \[multilinar\]"):
            parse_model("[variables]\na b\n[multilinar]\na b : 1\n", "m.txt")

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_numbers_rejected_with_line(self, token):
        with pytest.raises(ModelError, match=rf"m\.txt:4: expected a finite number, got '{token}'"):
            parse_model(f"[variables]\na b\n[multilinear]\na b : {token}\n", "m.txt")
        with pytest.raises(ModelError, match=rf"m\.txt:4: expected a finite number, got '{token}'"):
            parse_model(f"[variables]\na\n[separable]\na : exp 1 {token} 1\n", "m.txt")

    def test_unknown_separable_kind_names_file_and_line(self):
        with pytest.raises(ModelError, match=r"m\.txt:4: unknown separable kind 'foo'"):
            parse_model("[variables]\na\n[separable]\na : foo 1 2\n", "m.txt")

    def test_wrong_parameter_count_names_file_and_line(self):
        with pytest.raises(ModelError, match=r"m\.txt:5: exp term takes 3 parameters"):
            parse_model("[variables]\na\n[separable]\na : poly 1\na : exp 1 2\n", "m.txt")

    def test_repeated_variable_in_term_names_file_and_line(self):
        with pytest.raises(ModelError, match=r"m\.txt:4: variable repeated within one term: \('a', 'a'\)"):
            parse_model("[variables]\na\n[multilinear]\na a : 1\n", "m.txt")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[multilinear]\na z : 1\n", "term references undeclared variable 'z'"),
            ("[separable]\nz : poly 0 1\n", "separable term references undeclared variable 'z'"),
            ("[segments]\nz : misc\n", "segment entry references undeclared variable 'z'"),
        ],
    )
    def test_undeclared_variable_names_file_and_line(self, body, message):
        with pytest.raises(ModelError, match=rf"m\.txt:4: {message}"):
            parse_model("[variables]\na b\n" + body, "m.txt")

    def test_repeated_variable_name_names_file_line_and_name(self):
        with pytest.raises(ModelError, match=r"m\.txt:3: variable 'a' declared twice"):
            parse_model("[variables]\na b\nc a\n", "m.txt")

    def test_second_segment_line_for_a_variable_names_file_and_line(self):
        with pytest.raises(ModelError, match=r"m\.txt:5: variable 'a' already has segment 'x'"):
            parse_model("[variables]\na\n[segments]\na : x\na : y\n", "m.txt")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a b\n[variables]\na b\n", "m.txt:1: content before any [section] header"),
            ("[variables]\na b\n[segments]\na x\n", "m.txt:4: segment line needs 'name : label', got 'a x'"),
            ("[variables]\na b\n[segments]\na :\n", "m.txt:4: segment line needs 'name : label', got 'a :'"),
            ("[variables]\na b\n[multilinear]\na b 1\n", "m.txt:4: term line needs 'names : coefficient', got 'a b 1'"),
            ("[variables]\na b\n[separable]\na poly 0 1\n", "m.txt:4: separable line needs 'name : kind params', got 'a poly 0 1'"),
            ("[variables]\na b\n[separable]\na : poly\n", "m.txt:4: separable line needs a kind and parameters, got 'a : poly'"),
        ],
    )
    def test_malformed_lines_name_file_and_line(self, text, message):
        with pytest.raises(ModelError) as info:
            parse_model(text, "m.txt")
        assert str(info.value) == message

    def test_compile_rejects_repeated_variable_in_spec_built_in_code(self):
        with pytest.raises(ModelError, match="variable repeated within one term"):
            ModelSpec(("a",), ((("a", "a"), 1.0),))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((("a", ""),), "empty variable name"),
            ((("a", "b", "a"),), "variable 'a' declared twice"),
            ((("a",), (), (), {"a": ""}), "variable 'a' has an empty segment label"),
            ((("a",), (), (), {"": "x"}), "segment entry references undeclared variable ''"),
            ((("a", "b"), ((("a", "b"), 1.0), (("b", "a", "b"), 1.0))), "variable repeated within one term: ('b', 'a', 'b')"),
            ((("a", "b"), ((("a", "b"), 1e308), (("b", "a"), 1e308))), "coefficients of the terms over ('b', 'a') add up to inf"),
            ((("a",), ((("a",), math.nan),)), "coefficients of the terms over ('a',) add up to nan"),
            ((("a", "b"), (), (("b", "powlaw", (1.0, 0.0, 1.0, 0.5)),)), "powlaw exponent must be a nonzero integer"),
            ((("a",), (), (("", "poly", (1.0,)),)), "separable term references undeclared variable ''"),
        ],
    )
    def test_specs_built_in_code_are_checked(self, args, message):
        # parse_model gets these from the constructor too, and puts the file and line before them
        with pytest.raises(ModelError) as info:
            ModelSpec(*args)
        assert str(info.value) == message


class TestModelSpecIsReadOnly:
    def test_segments_refuse_changes(self):
        ms = ModelSpec(("a",))
        with pytest.raises(TypeError):
            ms.segments["b"] = ""
        assert ms.segments == {}

    def test_fields_refuse_assignment(self):
        ms = ModelSpec(("a",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ms.ml_terms = ((("a", "a"), 1.0),)
        assert ms.ml_terms == () and compile_model(ms).multilinear.terms == {}

    def test_keeps_a_copy_of_what_it_is_given(self):
        variables, segments = ["a", "b"], {"a": "x"}
        ms = ModelSpec(variables, (), (), segments)
        variables.append("c")
        segments["b"] = "y"
        assert ms.variables == ("a", "b") and ms.segments == {"a": "x"}

    def test_sequences_become_tuples_equal_to_the_parsed_file(self):
        ms = ModelSpec(["a", "b"], [(["a", "b"], 2.0)], [("a", "poly", [0.0, 1.0])], {"a": "s"})
        assert ms == parse_model("[variables]\na b\n[segments]\na : s\n[multilinear]\na b : 2\n[separable]\na : poly 0 1\n")
        assert ms.ml_terms == ((("a", "b"), 2.0),) and ms.sep_terms == (("a", "poly", (0.0, 1.0)),)

    def test_pickles_and_copies(self):
        ms = parse_model(MODEL_TEXT)
        for twin in (pickle.loads(pickle.dumps(ms)), copy.deepcopy(ms)):
            assert twin == ms and compile_model(twin) == compile_model(ms)
            with pytest.raises(TypeError):
                twin.segments["c"] = "z"


class TestDag:
    def test_parse(self):
        d = parse_dag(DAG_TEXT)
        assert d.nodes == ("a", "b", "t")
        assert d.sink == "t"
        assert d.starts == {"a": "s_a", "b": "s_b"}

    def test_single_edge(self):
        d = DagModel(("a", "t"), "t", {"a": "s_a"}, (("a", "t", "p"),))
        ms = compile_dag(d)
        assert ms.ml_terms == ((("s_a", "p"), 1.0),)

    def test_three_routes_by_hand(self):
        ms = compile_dag(parse_dag(DAG_TEXT))
        terms = {tuple(sorted(names)) for names, _ in ms.ml_terms}
        assert terms == {("p_ab", "p_bt", "s_a"), ("p_at", "s_a"), ("p_bt", "s_b")}

    def test_cycle_rejected(self):
        with pytest.raises(ModelError, match="graph has a cycle: a -> b -> a"):
            DagModel(("a", "b", "t"), "t", {"a": "s_a"}, (("a", "b", "x"), ("b", "a", "y"), ("a", "t", "z")))

    def test_cycle_is_refused_before_an_unreachable_start(self):
        # b -> a -> b never reaches t, and b is a start: the cycle is the error
        with pytest.raises(ModelError, match="graph has a cycle: "):
            DagModel(("a", "b", "t"), "t", {"b": "s_b"}, (("a", "b", "x"), ("b", "a", "y")))

    def test_flow_plan_is_built_once(self, monkeypatch):
        from attrib import models

        sorts, real = [], models._toposort
        monkeypatch.setattr(models, "_toposort", lambda d: sorts.append(d) or real(d))
        d = parse_dag(DAG_TEXT)  # construction checks the graph and builds the plan every later call reads
        x = [1.0, 2.0, 0.5, 0.25, 0.75]
        for _ in range(3):
            d(x)
            d.gradients([x, x])
            d.changes([x], [x])
            d.degree
            compile_dag(d)
        assert len(sorts) == 1

    def test_graph_is_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            parse_dag(DAG_TEXT).edges = ()

    def test_starts_are_a_read_only_copy(self):
        shop = ecommerce_dag_example()
        starts = dict(shop.starts)
        d = DagModel(shop.nodes, shop.sink, starts, shop.edges)
        vp = ValuePair((1.0,) * 7, (2.0,) * 7)
        n, variables, value, result = d.n, d.variables, d([1.0] * 7), attribute_ass(d, vp)
        with pytest.raises(TypeError):
            d.starts["item"] = "s_item"
        starts["item"] = "s_item"
        assert d.starts == {"home": "s_home", "catalog": "s_catalog"}
        assert (d.n, d.variables, d([1.0] * 7), attribute_ass(d, vp)) == (n, variables, value, result)
        assert value == 5.0

    def test_graph_sequences_become_tuples(self):
        shop = ecommerce_dag_example()
        d = DagModel(list(shop.nodes), shop.sink, dict(shop.starts), [list(edge) for edge in shop.edges])
        assert d == shop and type(d.nodes) is tuple and all(type(edge) is tuple for edge in d.edges)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.edges = ()

    def test_graph_pickles_and_copies(self):
        import copy
        import pickle

        d = ecommerce_dag_example()
        for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert twin == d and twin([1.0] * 7) == d([1.0] * 7)

    def test_first_unreachable_start_in_starts_order_is_named(self):
        with pytest.raises(ModelError) as info:
            DagModel(("a", "b", "c", "t"), "t", {"c": "s_c", "a": "s_a", "b": "s_b"}, (("a", "t", "p"),))
        assert str(info.value) == "sink is unreachable from start node 'c'"

    def test_unreachable_start_rejected(self):
        with pytest.raises(ModelError) as info:
            DagModel(("a", "b", "t"), "t", {"b": "s_b"}, (("a", "t", "p"),))
        assert str(info.value) == "sink is unreachable from start node 'b'"

    def test_unknown_section_names_file_and_line(self):
        with pytest.raises(ModelError, match=r"g\.txt:5: unknown section \[edge\]"):
            parse_dag("[nodes]\na t\n[sink]\nt\n[edge]\na t : p\n", "g.txt")

    def test_graph_errors_name_the_file(self):
        with pytest.raises(ModelError, match=r"g\.txt:8: edge 'a' -> 'q' uses an unknown node"):
            parse_dag("[nodes]\na t\n[sink]\nt\n[starts]\na : s_a\n[edges]\na q : p\n", "g.txt")
        with pytest.raises(ModelError, match=r"g\.txt:4: sink 'x' is not a node"):
            parse_dag("[nodes]\na t\n[sink]\nx\n", "g.txt")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[sink]\nt\n", "g.txt: missing [nodes] section"),
            ("[nodes]\na t\n", "g.txt: missing [sink] section"),
            ("[nodes]\na t\n[sink]\n", "g.txt: exactly one sink expected"),
            ("[nodes]\na t\n[sink]\na t\n", "g.txt:4: exactly one sink expected, got 'a' and 't'"),
            ("[nodes]\na t\n[sink]\nt\na\n", "g.txt:5: exactly one sink expected, got 't' and 'a'"),
            ("[nodes]\na t\n[sink]\nt\n[starts]\na s_a\n", "g.txt:6: start line needs 'node : variable', got 'a s_a'"),
            ("[nodes]\na t\n[sink]\nt\n[starts]\na :\n", "g.txt:6: start line needs 'node : variable', got 'a :'"),
            ("[nodes]\na t\n[sink]\nt\n[edges]\na t p\n", "g.txt:6: edge line needs 'from to : variable', got 'a t p'"),
            ("[nodes]\na t\n[sink]\nt\n[edges]\na t :\n", "g.txt:6: edge line needs 'from to : variable', got 'a t :'"),
            ("[nodes]\na b t\n[sink]\nt\n[edges]\na b t : p\n", "g.txt:6: edge line needs two node names, got 'a b t : p'"),
            ("[nodes]\na t\n[sink]\nt\n[edges]\na : p\n", "g.txt:6: edge line needs two node names, got 'a : p'"),
            ("[nodes]\na b\nt a\n[sink]\nt\n", "g.txt:3: node 'a' declared twice"),
            ("[nodes]\na b t\n[sink]\nt\n[starts]\na : s\nb : s\n", "g.txt:7: variable 's' assigned twice"),
            ("[nodes]\na t\n[sink]\nt\n[starts]\na : s\n[edges]\na t : s\n", "g.txt:8: variable 's' assigned twice"),
            ("[nodes]\na t\n[sink]\nt\n[edges]\na t : p\nt a : p\n", "g.txt:7: variable 'p' assigned twice"),
            ("[nodes]\na t\n[sink]\nt\n[starts]\nq : s\n", "g.txt:6: start entry for unknown node 'q'"),
            ("[nodes]\na t\n[sink]\nt\n[edges]\nq t : p\n", "g.txt:6: edge 'q' -> 't' uses an unknown node"),
        ],
    )
    def test_malformed_graphs_name_the_file(self, text, message):
        with pytest.raises(ModelError) as info:
            parse_dag(text, "g.txt")
        assert str(info.value) == message

    def test_cycle_names_the_file_and_the_cycle(self):
        text = "[nodes]\na b c t\n[sink]\nt\n[starts]\na : s\n[edges]\na b : x\nb c : y\nc a : w\na t : z\n"
        with pytest.raises(ModelError) as info:
            parse_dag(text, "g.txt")
        assert str(info.value) == "g.txt: graph has a cycle: a -> b -> c -> a"

    def test_chain_longer_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 100
        nodes = tuple(f"v{k}" for k in range(n))
        edges = tuple((nodes[k], nodes[k + 1], f"e{k}") for k in range(n - 1))
        ms = compile_dag(DagModel(nodes, nodes[-1], {nodes[0]: "s"}, edges))
        assert ms.ml_terms == ((("s", *(f"e{k}" for k in range(n - 1))), 1.0),)

    def test_routes_in_depth_first_file_order(self):
        ms = compile_dag(ecommerce_dag_example())
        assert [names for names, _ in ms.ml_terms] == [
            ("s_home", "p_home_catalog", "p_catalog_item", "p_item_checkout"),
            ("s_home", "p_home_catalog", "p_catalog_checkout"),
            ("s_home", "p_home_item", "p_item_checkout"),
            ("s_catalog", "p_catalog_item", "p_item_checkout"),
            ("s_catalog", "p_catalog_checkout"),
        ]

    def test_route_cap(self, monkeypatch):
        monkeypatch.setattr("attrib.models.ROUTE_CAP", 2)
        d = parse_dag(DAG_TEXT)
        with pytest.raises(ModelError):
            compile_dag(d)

    def test_second_start_line_for_a_node_names_file_and_line(self):
        with pytest.raises(ModelError, match=r"g\.txt:7: node 'a' already has start variable 's_a'"):
            parse_dag("[nodes]\na t\n[sink]\nt\n[starts]\na : s_a\na : s_b\n[edges]\na t : p\n", "g.txt")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ModelError):
            DagModel(("a", "t"), "t", {"a": "p"}, (("a", "t", "p"),))

    @pytest.mark.parametrize(
        "nodes, sink, starts, edges, message",
        [
            (("a", "a", "t"), "t", {}, (), "node 'a' declared twice"),
            (("a", "t"), "x", {}, (), "sink 'x' is not a node"),
            (("a", "t"), "t", {"q": "s"}, (), "start entry for unknown node 'q'"),
            (("a", "b", "t"), "t", {"a": "s", "b": "s"}, (("a", "t", "p"), ("b", "t", "q")), "variable 's' assigned twice"),
            (("a", "t"), "t", {}, (("a", "q", "p"),), "edge 'a' -> 'q' uses an unknown node"),
            (("a", "", "t"), "t", {}, (), "empty node name"),
            (("a", "t"), "t", {"a": ""}, (("a", "t", "p"),), "start node 'a' has an empty variable name"),
            (("a", "t"), "t", {"a": "s"}, (("a", "t", ""),), "edge 'a' -> 't' has an empty variable name"),
            (("a", "t"), "t", {"": "s"}, (), "start entry for unknown node ''"),
        ],
    )
    def test_graphs_built_in_code_are_checked(self, nodes, sink, starts, edges, message):
        # parse_dag finds these first, with the line; a graph built in code gets the same checks
        with pytest.raises(ModelError) as info:
            DagModel(nodes, sink, starts, edges)
        assert str(info.value) == message

    def test_compiled_value_matches_flow_recursion(self):
        # independent oracle: expected arrivals via memoized recursion on the
        # graph, no route enumeration involved
        rng = random.Random(17)
        for _ in range(20):
            n_mid = rng.randint(1, 4)
            nodes = tuple(f"v{k}" for k in range(n_mid)) + ("t",)
            edges = []
            for a in range(n_mid):
                for b in range(a + 1, n_mid + 1):
                    if rng.random() < 0.6:
                        edges.append((nodes[a], nodes[b], f"e{a}_{b}"))
            if len(edges) > 12:
                edges = edges[:12]
            starts = {nodes[a]: f"s{a}" for a in range(n_mid) if rng.random() < 0.7}
            if not starts:
                starts = {nodes[0]: "s0"}
            try:
                ms = compile_dag(DagModel(nodes, "t", starts, tuple(edges)))
            except ModelError:
                continue  # a start that cannot reach the sink; not this test's concern
            f = compile_model(ms)
            values = {v: rng.uniform(0.1, 2.0) for v in ms.variables}
            x = tuple(values[v] for v in ms.variables)

            memo = {}

            def reach(node):
                if node == "t":
                    return 1.0
                if node not in memo:
                    memo[node] = sum(values[name] * reach(v) for u, v, name in edges if u == node)
                return memo[node]

            expected = sum(values[var] * reach(node) for node, var in starts.items())
            assert evaluate(f, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_example_graph_compiles(self):
        ms = compile_dag(ecommerce_dag_example())
        assert len(ms.ml_terms) == 5  # home: 3 routes, catalog: 2 routes


class TestSnapshots:
    def test_parse_with_header(self):
        text = "entity,variable,initial,final\nq2,a,4,5\nq2,p,1,12\nq2,c,1,1.5\n"
        snaps = parse_snapshots(text)
        assert len(snaps) == 1
        R, S = snaps.columns(procurement_model().variables)
        assert ValuePair(*R.tolist(), *S.tolist()) == ValuePair((4.0, 1.0, 1.0), (5.0, 12.0, 1.5))

    def test_multiple_entities_preserve_order(self):
        text = "e2,a,1,2\ne1,a,3,4\ne2,p,0,0\ne2,c,0,0\ne1,p,0,0\ne1,c,0,0\n"
        snaps = parse_snapshots(text)
        assert snaps.entities == ("e2", "e1")

    def test_missing_variable_rejected(self):
        snaps = parse_snapshots("q2,a,4,5\n")
        with pytest.raises(ModelError):
            snaps.columns(procurement_model().variables)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ModelError):
            parse_snapshots("q2,a,4,5\nq2,a,4,6\n")

    def test_short_row_rejected(self):
        with pytest.raises(ModelError):
            parse_snapshots("q2,a,4\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_file_line(self, token):
        text = f"entity,variable,initial,final\n\nq2,a,4,5\nq2,p,1,{token}\n"
        with pytest.raises(ModelError, match=rf"v\.csv:4: expected a finite number, got '{token}'"):
            parse_snapshots(text, "v.csv")

    def test_columns_follow_the_model_order(self):
        text = "e1,c,3,30\ne2,p,5,50\ne1,a,1,10\n e2 ,c,6,60\ne1, p ,2,20\ne2,a,4,40\n"
        R, S = parse_snapshots(text).columns(("a", "p", "c"))
        assert R.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert S.tolist() == [[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]]

    def test_header_any_case_and_blank_rows_are_skipped(self):
        text = "\n  \n,,,\n Entity , VARIABLE ,Initial,FINAL\nq,a,1,2\n\n , , , \nq,p,3,4\n"
        snaps = parse_snapshots(text)
        assert snaps.variables == ("a", "p")
        assert snaps.initial.tolist() == [1.0, 3.0] and snaps.final.tolist() == [2.0, 4.0]

    def test_cell_over_the_csv_field_limit_names_file_and_line(self):
        big = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(ModelError) as info:
            parse_snapshots(f"entity,variable,initial,final\nq,a,1,2\nq,{big},1,2\n", "v.csv")
        assert str(info.value) == f"v.csv:3: field larger than field limit ({csv.field_size_limit()})"
        # an earlier bad line is still the one reported
        with pytest.raises(ModelError) as info:
            parse_snapshots(f"q,a,x,2\nq,{big},1,2\n", "v.csv")
        assert str(info.value) == "v.csv:1: expected a number, got 'x'"

    @pytest.mark.parametrize(
        "text, message",
        [
            # a header is only the first non-blank row
            ("q,a,1,2\nentity,variable,initial,final\n", "v.csv:2: expected a number, got 'initial'"),
            ("q,a,1,2\nq,p,1\n", "v.csv:2: expected entity,variable,initial,final"),
            ("q,a,1,2,3\n", "v.csv:1: expected entity,variable,initial,final"),
            ("\n  \n,,,\nq,a,1,x\n", "v.csv:4: expected a number, got 'x'"),
            ("q,a,,2\n", "v.csv:1: expected a number, got ''"),
            ("q,a,a,b\n", "v.csv:1: expected a number, got 'a'"),
            ("q,a,1, 1e999 \n", "v.csv:1: expected a finite number, got '1e999'"),
            ("q,a,1,2\nq,p,1,2\n q ,a ,3,4\n", "v.csv:3: variable 'a' listed twice for entity 'q'"),
            # the first offending line in file order, whatever its kind
            ("q,a,1,2\nq,a,1,2\nq,p,x,2\n", "v.csv:2: variable 'a' listed twice for entity 'q'"),
            ("q,a,1,2\nq,p,x,2\nq,a,1,2\n", "v.csv:2: expected a number, got 'x'"),
            # a quoted cell spanning lines: the line is the row's last physical line
            ('"q\nx",a,1,2\n"q\nx",p,1,oops\n', "v.csv:4: expected a number, got 'oops'"),
            # a name of spaces is empty once stripped; the numbers are checked first
            (",a,1,2\n", "v.csv:1: empty entity name"),
            ("q,a,1,2\n  ,p,1,2\n", "v.csv:2: empty entity name"),
            ("q,,1,2\n", "v.csv:1: empty variable name"),
            ("q,a,1,2\n , ,1,2\n", "v.csv:2: empty entity name"),
            (",a,x,2\n", "v.csv:1: expected a number, got 'x'"),
        ],
    )
    def test_row_errors_name_file_and_line(self, text, message):
        with pytest.raises(ModelError) as info:
            parse_snapshots(text, "v.csv")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("q,a,1,2\nq,p,1,2\n", "entity 'q' does not match the model: missing 'c'"),
            ("q,a,1,2\nq,p,1,2\nq,c,1,2\nq,z,1,2\nq,y,1,2\n", "entity 'q' does not match the model: unknown 'z', 'y'"),
            # the first bad entity in entity order; unknown names in its file order
            (
                "r,a,1,2\nq,x,1,2\nq,y,1,2\nr,y,1,2\nr,x,1,2\n",
                "entity 'r' does not match the model: missing 'p', 'c'; unknown 'y', 'x'",
            ),
            # quoted names show an invisible character
            pytest.param(
                "q,a,1,2\nq,p\0,1,2\nq,c,1,2\n",
                "entity 'q' does not match the model: missing 'p'; unknown 'p\\x00'",
                marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="the csv module reads NUL only from Python 3.11"),
            ),
        ],
    )
    def test_entity_mismatch_names_the_entity(self, text, message):
        snaps = parse_snapshots(text)
        with pytest.raises(ModelError) as info:
            snaps.columns(procurement_model().variables)
        assert str(info.value) == message


def _reference_rows(text: str, path: str) -> list[tuple[str, str, str, str]]:
    """parse_snapshots spelled out row by row: (entity, variable, initial.hex(), final.hex()) per data row."""
    reader = csv.reader(io.StringIO(text))
    out, seen, header = [], set(), True
    try:
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if all(not cell.strip() for cell in row):
                continue
            if header:
                header = False
                if [cell.strip().lower() for cell in row] == ["entity", "variable", "initial", "final"]:
                    continue
            if len(row) != 4:
                raise ModelError(f"{where}: expected entity,variable,initial,final")
            values = []
            for token in (row[2].strip(), row[3].strip()):
                try:
                    value = float(token)
                except ValueError:
                    raise ModelError(f"{where}: expected a number, got {token!r}") from None
                if not math.isfinite(value):
                    raise ModelError(f"{where}: expected a finite number, got {token!r}")
                values.append(value.hex())
            entity, variable = row[0].strip(), row[1].strip()
            for name, what in ((entity, "entity"), (variable, "variable")):
                if not name:
                    raise ModelError(f"{where}: empty {what} name")
            if (entity, variable) in seen:
                raise ModelError(f"{where}: variable {variable!r} listed twice for entity {entity!r}")
            seen.add((entity, variable))
            out.append((entity, variable, *values))
    except csv.Error as exc:
        raise ModelError(f"{path}:{reader.line_num}: {exc}") from None
    return out


_CELLS = ["q", " q ", "r", "a", "p ", "", " ", '"q\nx"', '" a"', "1", " 2 ", "-0", "2.5e3", "1e999", "nan", "-inf", "x",
          "entity", " Variable", "INITIAL", "final"]
_VALID_ROW = st.tuples(*[st.sampled_from(["q", "r", " a", "p", "c"])] * 2, *[st.sampled_from(["1", "0.5", " 3 ", "-2"])] * 2)
_ROWS = st.one_of(
    st.sampled_from(["", "  ", ",,,", " , , , ", "entity,variable,initial,final", " Entity , VARIABLE ,Initial,FINAL"]),
    st.lists(st.sampled_from(_CELLS), min_size=1, max_size=6).map(",".join),
    st.tuples(*[st.sampled_from(_CELLS)] * 4).map(",".join),
    _VALID_ROW.map(",".join),
    _VALID_ROW.map(",".join),
    # good numbers, and names that may be empty or spaces
    st.tuples(*[st.sampled_from(["", " ", "q"])] * 2, st.just("1"), st.just("2")).map(",".join),
)


class TestSnapshotsOnePass:
    @settings(max_examples=400)
    @given(rows=st.lists(_ROWS, max_size=8), newline=st.sampled_from(["\n", "\r\n"]))
    def test_matches_a_row_by_row_reference(self, rows, newline):
        text = newline.join(rows) + newline
        try:
            expected = _reference_rows(text, "v.csv")
        except ModelError as exc:
            with pytest.raises(ModelError) as info:
                parse_snapshots(text, "v.csv")
            assert str(info.value) == str(exc)
            return
        t = parse_snapshots(text, "v.csv")
        got = [(t.entities[e], t.variables[v], a.hex(), b.hex())
               for e, v, a, b in zip(t.entity.tolist(), t.variable.tolist(), t.initial.tolist(), t.final.tolist())]
        assert got == expected
        assert t.entities == tuple(dict.fromkeys(row[0] for row in expected))
        assert t.variables == tuple(dict.fromkeys(row[1] for row in expected))

    @pytest.mark.parametrize(
        "text, error",
        [
            ("entity,variable,initial,final\n,,,\nq,a,1,2\n , , , \nq,p,3,4\n", None),
            ("q,a,1,2\nq,p,1\nq,c,1,2\n", "v.csv:2: expected entity,variable,initial,final"),
        ],
    )
    def test_reads_the_text_with_one_csv_reader(self, monkeypatch, text, error):
        calls = []
        reader = csv.reader

        def counted(*args, **kwargs):
            calls.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(models.csv, "reader", counted)
        if error is None:
            assert parse_snapshots(text, "v.csv").variables == ("a", "p")
        else:
            with pytest.raises(ModelError, match=error):
                parse_snapshots(text, "v.csv")
        assert len(calls) == 1

    def test_number_cells_are_read_stripped(self):
        # str.strip drops the separators \x1c..\x1f and float alone does not: the row checks and the stored value agree
        snaps = parse_snapshots("q,a,\x1c1\x1f,2\n")
        assert snaps.initial.tolist() == [1.0] and snaps.final.tolist() == [2.0]


_NAMES = ["a", "b", "c", "x_1", "y.2"]


class _File:
    """File text built line by line, with the line of each (section, position) item."""

    def __init__(self):
        self.lines: list[str] = []
        self.line_of: dict[tuple[str, int], int] = {}

    def section(self, header: str):
        self.lines += ["# a comment", f"[{header}]", ""]

    def add(self, text: str, *items: tuple[str, int]):
        self.lines.append(text)
        self.line_of.update((item, len(self.lines)) for item in items)

    def names(self, section: str, names, per_line: int):
        for k in range(0, len(names), per_line):
            self.add(" ".join(names[k : k + per_line]), *((section, j) for j in range(k, min(k + per_line, len(names)))))

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _renamed(d: dict, i: int, new: str) -> dict:
    """d with its i-th key renamed, keeping the order."""
    return {(new if j == i else key): value for j, (key, value) in enumerate(d.items())}


@st.composite
def _model_draws(draw):
    """ModelSpec arguments with at most one fault, and the (section, position) of the item at fault, or None."""
    variables = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5, unique=True))
    segments = {name: draw(st.sampled_from(["x", "y"])) for name in draw(st.lists(st.sampled_from(variables), unique=True))}
    names = st.lists(st.sampled_from(variables), unique=True).map(tuple)
    ml_terms = draw(st.lists(st.tuples(names, st.sampled_from([1.0, -2.5, 0.1])), max_size=4))
    kinds = st.sampled_from([("poly", (0.0, 2.0)), ("exp", (1.0, 0.0, 0.5)), ("powlaw", (1.0, 2.0, 1.0, -2.0))])
    sep_terms = [(name, *kind) for name, kind in draw(st.lists(st.tuples(st.sampled_from(variables), kinds), max_size=3))]
    fault = draw(st.sampled_from([None, "duplicate", "undeclared", "empty", "repeated"]))
    where = None
    if fault == "duplicate":
        k = draw(st.integers(1, len(variables)))
        variables.insert(k, draw(st.sampled_from(variables[:k])))
        where = ("variables", k)
    elif fault in ("undeclared", "empty"):
        new = "zz" if fault == "undeclared" else ""
        spots = [("segments", i) for i in range(len(segments))] + [("separable", i) for i in range(len(sep_terms))]
        if fault == "undeclared":
            spots += [("multilinear", i) for i, (names, _) in enumerate(ml_terms) if names]
        if spots:
            where = section, i = draw(st.sampled_from(spots))
            if section == "segments":
                segments = _renamed(segments, i, new)
            elif section == "separable":
                sep_terms[i] = (new, *sep_terms[i][1:])
            else:
                names, coeff = ml_terms[i]
                j = draw(st.integers(0, len(names) - 1))
                ml_terms[i] = ((*names[:j], new, *names[j + 1 :]), coeff)
    elif fault == "repeated":
        spots = [i for i, (names, _) in enumerate(ml_terms) if names]
        if spots:
            i = draw(st.sampled_from(spots))
            names, coeff = ml_terms[i]
            ml_terms[i] = ((*names, draw(st.sampled_from(names))), coeff)
            where = ("multilinear", i)
    return (tuple(variables), tuple(ml_terms), tuple(sep_terms), segments), where


def _model_file(variables, ml_terms, sep_terms, segments, per_line: int) -> _File:
    out = _File()
    out.section("variables")
    out.names("variables", variables, per_line)
    out.section("segments")
    for i, (name, label) in enumerate(segments.items()):
        out.add(f"{name} : {label}", ("segments", i))
    out.section("multilinear")
    for i, (names, coeff) in enumerate(ml_terms):
        out.add(f"{' '.join(names)} : {coeff!r}", ("multilinear", i))
    out.section("separable")
    for i, (name, kind, params) in enumerate(sep_terms):
        out.add(f"{name} : {kind} {' '.join(map(repr, params))}", ("separable", i))
    return out


@st.composite
def _graph_draws(draw):
    """DagModel arguments with at most one fault, and the (section, position) of the item at fault, or None.

    Fault-free draws are acyclic, every edge going from a lower node to a
    higher one, and every start reaches the sink, the last node.
    """
    k = draw(st.integers(2, 5))
    nodes = [f"n{j}" for j in range(k)]
    sink = nodes[-1]
    pairs = draw(st.lists(st.sampled_from([(i, j) for i in range(k) for j in range(i + 1, k)]), max_size=6))
    edges = [(nodes[i], nodes[j], f"p{e}") for e, (i, j) in enumerate(pairs)]
    reach = {k - 1}
    for i, j in sorted(pairs, reverse=True):  # tails in decreasing order, so each head is settled before its tails
        if j in reach:
            reach.add(i)
    starts = {nodes[i]: f"s{i}" for i in draw(st.lists(st.sampled_from(sorted(reach)), unique=True))}
    fault = draw(st.sampled_from([None, "duplicate", "unknown", "empty", "reused"]))
    where = None
    if fault == "duplicate":
        j = draw(st.integers(1, k))
        nodes.insert(j, draw(st.sampled_from(nodes[:j])))
        where = ("nodes", j)
    elif fault == "unknown":
        spots = [("sink", 0)] + [("starts", i) for i in range(len(starts))] + [("edges", i) for i in range(len(edges))]
        where = section, i = draw(st.sampled_from(spots))
        if section == "sink":
            sink = "zz"
        elif section == "starts":
            starts = _renamed(starts, i, "zz")
        else:
            u, v, var = edges[i]
            edges[i] = ("zz", v, var) if draw(st.booleans()) else (u, "zz", var)
    elif fault == "empty" and starts:
        i = draw(st.integers(0, len(starts) - 1))
        starts = _renamed(starts, i, "")
        where = ("starts", i)
    elif fault == "reused":
        spots = [("starts", i) for i in range(len(starts))] + [("edges", i) for i in range(len(edges))]
        if len(spots) > 1:
            m = draw(st.integers(1, len(spots) - 1))
            used = [*starts.values(), *(var for _, _, var in edges)][draw(st.integers(0, m - 1))]
            where = section, i = spots[m]
            if section == "starts":
                starts[list(starts)[i]] = used
            else:
                edges[i] = (*edges[i][:2], used)
    return (tuple(nodes), sink, starts, tuple(edges)), where


def _graph_file(nodes, sink, starts, edges, per_line: int) -> _File:
    out = _File()
    out.section("nodes")
    out.names("nodes", nodes, per_line)
    out.section("sink")
    out.add(sink, ("sink", 0))
    out.section("starts")
    for i, (node, var) in enumerate(starts.items()):
        out.add(f"{node} : {var}", ("starts", i))
    out.section("edges")
    for i, (u, v, var) in enumerate(edges):
        out.add(f"{u} {v} : {var}", ("edges", i))
    return out


class TestParserAndConstructorAgree:
    """A file and the same items built in code give the same fault, the file's error adding the item's line."""

    @given(drawn=_model_draws(), per_line=st.integers(1, 3))
    def test_model(self, drawn, per_line):
        args, where = drawn
        out = _model_file(*args, per_line)
        try:
            built = ModelSpec(*args)
        except ModelError as exc:
            assert where is not None
            with pytest.raises(ModelError) as info:
                parse_model(out.text, "m.txt")
            assert str(info.value) == f"m.txt:{out.line_of[where]}: {exc}"
        else:
            assert where is None
            assert parse_model(out.text, "m.txt") == built

    @given(drawn=_graph_draws(), per_line=st.integers(1, 3))
    def test_graph(self, drawn, per_line):
        args, where = drawn
        out = _graph_file(*args, per_line)
        try:
            built = DagModel(*args)
        except ModelError as exc:
            assert where is not None
            with pytest.raises(ModelError) as info:
                parse_dag(out.text, "g.txt")
            assert str(info.value) == f"g.txt:{out.line_of[where]}: {exc}"
        else:
            assert where is None
            assert parse_dag(out.text, "g.txt") == built


class TestReadText:
    def test_byte_order_mark_and_newlines(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"\xef\xbb\xbf[variables]\r\na\rb\n")
        assert read_text(str(path)) == "[variables]\na\nb\n"

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_bytes("q,pé,1,2\n".encode("cp1252"))
        with pytest.raises(ModelError) as info:
            read_text(str(path))
        assert str(info.value) == f"{path}: not UTF-8 text: byte 0xe9 (invalid continuation byte)"


class TestPresets:
    def test_procurement(self):
        f = compile_model(procurement_model())
        assert evaluate(f, (5.0, 12.0, 1.5)) == 90.0

    def test_payperclick_needs_a_position(self):
        with pytest.raises(ModelError, match="need at least one position"):
            payperclick_model(0)

    def test_payperclick_positions(self):
        ms = payperclick_model()
        assert len(ms.ml_terms) == 4  # default position count
        ms2 = payperclick_model(positions=2)
        assert len(ms2.ml_terms) == 2
        f = compile_model(ms2)
        x = (2.0, 0.5) + (0.25, 0.1, 1.5) + (0.5, 0.05, 0.75)
        expected = 2.0 * 0.5 * (0.25 * 0.1 * 1.5 + 0.5 * 0.05 * 0.75)
        assert evaluate(f, x) == pytest.approx(expected, rel=1e-15)

    def test_portfolio_example(self):
        ms = portfolio_model(["equity"])
        f = compile_model(ms)
        vp = ValuePair((0.6, 0.05), (0.5, 0.08))
        res = attribute_ass(f, vp)
        assert res.z[0] == pytest.approx(-0.0065, rel=1e-12)  # weight side
        assert res.z[1] == pytest.approx(0.0165, rel=1e-12)  # return side
        assert math.fsum(res.z) == pytest.approx(0.01, abs=1e-15)

    def test_portfolio_matches_allocation_selection_split(self):
        # attribution equals allocation + half interaction on the weight side
        # and selection + half interaction on the return side
        rng = random.Random(23)
        assets = [f"a{k}" for k in range(100)]
        ms = portfolio_model(assets)
        f = compile_model(ms)
        r, s = [], []
        for _ in assets:
            r += [rng.uniform(0.0, 1.0), rng.uniform(-0.2, 0.2)]
            s += [rng.uniform(0.0, 1.0), rng.uniform(-0.2, 0.2)]
        vp = ValuePair(tuple(r), tuple(s))
        res = attribute_ass(f, vp)
        for k in range(len(assets)):
            w1, w2 = r[2 * k], s[2 * k]
            r1, r2 = r[2 * k + 1], s[2 * k + 1]
            allocation = r1 * (w2 - w1)
            selection = w1 * (r2 - r1)
            interaction = (r2 - r1) * (w2 - w1)
            assert res.z[2 * k] == pytest.approx(allocation + 0.5 * interaction, abs=1e-12)
            assert res.z[2 * k + 1] == pytest.approx(selection + 0.5 * interaction, abs=1e-12)

    def test_basketball_degree_four_and_round_trip(self):
        ms = _basketball(["pg", "sg"])
        assert all(len(names) == 4 for names, _ in ms.ml_terms)
        assert all(coeff == 0.01 for _, coeff in ms.ml_terms)
        again = parse_model(format_model(ms))
        assert again == ms
        f = compile_model(ms)
        x = (70.0, 30.0, 1.2, 45.0, 65.0, 28.0, 0.9, 50.0)
        expected = 70 * 30 * 1.2 * 45 / 100 + 65 * 28 * 0.9 * 50 / 100
        assert evaluate(f, x) == pytest.approx(expected, rel=1e-15)

    def test_basketball_accuracy_units_do_not_change_attributions(self):
        # percent units with the 1/100 coefficient attribute the same as rates
        from attrib import affine_reparameterize

        ms = _basketball(["c"])
        f = compile_model(ms)
        vp = ValuePair((60.0, 30.0, 1.0, 40.0), (70.0, 32.0, 1.1, 45.0))
        g = affine_reparameterize(f, 4, 1.0 / 100.0, 0.0)  # accuracy now a 0..1 rate
        vp2 = ValuePair(vp.r[:3] + (0.40,), vp.s[:3] + (0.45,))
        assert attribute_ass(g, vp2).z == pytest.approx(attribute_ass(f, vp).z, rel=1e-12)
