"""The CLI's three-exit contract, checked on mutated input files.

Every run of `attrib.cli.main` on a model or graph, a snapshot CSV and,
for ``random-order:``, a weights file ends in one of three ways: exit 0
with finite numbers only, every summary converged; exit 2 with nothing on
stdout and one ``error: ...`` line on stderr that names an input file or
an entity; or exit 3 with every report printed and at least one flagged
unconverged.  No exception escapes.

Hypothesis starts from small valid files and mutates them line by line
and token by token.  The default profile keeps this test to a few seconds;
CI runs it once more under the ``exit-contract`` profile of
``conftest.py``, with many more examples.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import event, given
from hypothesis import strategies as st

from attrib.cli import main

MODEL = """[variables]
a b c d
[segments]
a : x
b : x
[multilinear]
a b : 2
a c : -1
d : 1.5
[separable]
c : log 1 2 1
d : poly 0 1 0.5
"""

GRAPH = """[nodes]
u v t
[sink]
t
[starts]
u : a
[edges]
u v : b
v t : c
u t : d
"""

VALUES = """entity,variable,initial,final
e1,a,2,5
e1,b,3,4
e1,c,3,1
e1,d,0,1
e2,a,-1,4
e2,b,2,6
e2,c,1.5,2.5
e2,d,1,-1
"""

WEIGHTS = "a b c d : 0.5\nd c b a : 0.5\n"

METHODS = ("ass", "ss-brute", "as-numeric", "naive", "random-order")

# numbers that overflow when multiplied, half the time, or that cancel (1e17 and its neighbour)
_NUMBERS = st.one_of(
    st.sampled_from(["1e154", "-1e154", "3e307", "1e308", "-1e308"]),
    st.sampled_from(["0", "-1", "0.5", "1e17", "100000000000000016", "5e-324"]),
)
_TOKENS = st.one_of(
    _NUMBERS,
    st.sampled_from(
        [
            "", "nan", "inf", "1e999", "x", "a", "b", "e3", ":", ",", " ", '"', "#", "é", "\x00",
            "[variables]", "[multilinear]", "[separable]", "[segments]", "[nodes]", "[edges]", "[starts]", "[sink]",
            "log", "exp", "powlaw", "poly", "affine",
        ]
    ),
    st.text(max_size=3),
)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def _edited(draw, text: str, sep: str) -> str:
    """text after one edit of its lines, its tokens split at sep.

    The edit puts a finite number in place of a number (a CSV row's value,
    a term's coefficient or parameter, a weight), puts any token anywhere,
    or deletes, repeats, inserts or swaps a line.
    """
    lines = text.splitlines()
    op = draw(st.sampled_from(["number"] * 4 + ["token", "delete", "repeat", "insert", "swap"]))
    numbers = [(i, k) for i, line in enumerate(lines) for k, cell in enumerate(line.split(sep)) if _is_number(cell)]
    if op == "number" and numbers:
        j, k = draw(st.sampled_from(numbers))
        cells = lines[j].split(sep)
        cells[k] = draw(_NUMBERS)
        lines[j] = sep.join(cells)
        return "\n".join(lines) + "\n"
    j = draw(st.integers(0, len(lines)))
    if op == "insert" or j == len(lines):
        lines.insert(j, sep.join(draw(st.lists(_TOKENS, max_size=4))))
    elif op in ("number", "token"):
        cells = lines[j].split(sep)
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_TOKENS)
        lines[j] = sep.join(cells)
    elif op == "delete":
        del lines[j]
    elif op == "repeat":
        lines.insert(j, lines[j])
    else:
        k = draw(st.integers(0, len(lines) - 1))
        lines[j], lines[k] = lines[k], lines[j]
    return "\n".join(lines) + "\n"


@given(graph=st.booleans(), method=st.sampled_from(METHODS), data=st.data())
def test_every_run_ends_in_one_of_three_exits(graph, method, data):
    texts = {"function": GRAPH if graph else MODEL, "values": VALUES, "weights": WEIGHTS}
    for _ in range(data.draw(st.sampled_from((1, 1, 2, 3)), label="edits")):
        name = data.draw(st.sampled_from(list(texts) if method == "random-order" else ["function", "values"]), label="file")
        texts[name] = data.draw(_edited(texts[name], "," if name == "values" else " "), label=name)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text, encoding="utf-8")
        argv = ["--dag" if graph else "--model", str(paths["function"]), "--values", str(paths["values"])]
        argv += ["--report", "machine", "--method", f"random-order:{paths['weights']}" if method == "random-order" else method]
        # three doublings bound each as-numeric entity's work; the contract does not depend on the count
        argv += ["--max-refine", "3"] if method == "as-numeric" else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3), (code, out, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        # it says where: an input file or an entity, or, for the order-enumeration cap, the method
        assert any(str(path) in err for path in paths.values()) or "entity '" in err or "enumerates variable orders" in err, err
        return
    assert err == ""
    records = [json.loads(line) for line in out.splitlines()]
    summaries = [r for r in records if r["record"] == "summary"]
    assert summaries
    if code == 0:
        for record in records:
            assert all(math.isfinite(v) for v in record.values() if isinstance(v, float)), record
        assert all(s["converged"] is True for s in summaries)
    else:
        assert any(s["converged"] is False for s in summaries)
