"""Known wrong results, each run through the command line as a strict expected failure.

Each case states the right outcome: the true value with exit 0, or exit 3
where the item's fix is to flag the row.  A case still marked exits 0 with
a wrong value, so it fails.  The reason names the ROADMAP item whose fix
makes it pass; that fix then fails the strict mark, and the mark comes off
in the same change.  The exp term's separable cancellation cases are
mended (item 2) and stay as regression tests; the poly term's are open.
"""
import json
import math

import pytest

from attrib.cli import main

# f(x) = 2 exp(x / 2), x from 100 to 100.0000000001: the difference of two values near 1e22 cancels
EXP_MODEL = "[variables]\nx\n[separable]\nx : exp 0.5 0 2\n"
EXP_VALUES = "e,x,100,100.0000000001\n"
EXP_TRUE = 518479805657.24135  # 2 e^50 expm1(5e-11), to 50 digits with mpmath

# f(x) = x^2, x from 1e8 to the next double up: the difference of two values near 1e16, 2 apart there, cancels
SQUARE_MODEL = "[variables]\nx\n[separable]\nx : poly 0 0 1\n"
SQUARE_VALUES = "e,x,1e8,100000000.00000001\n"
SQUARE_TRUE = 2.9802322387695312  # s^2 - r^2 of those floats, from fractions.Fraction, rounded once
SQUARE_OPEN = pytest.mark.xfail(strict=True, reason="ROADMAP item 2")

# f = (a - e)(b - c) g, with b crossing 2^57, where the float spacing doubles; true z_a = 48, z_e = -48
BINADE_MODEL = "[variables]\na b c e g\n[multilinear]\na b g : 1\na c g : -1\ne b g : -1\ne c g : 1\n"
BINADE_VALUES = (
    "e,a,1,2\ne,b,1.441151880758559e17,1.441151880758558e17\ne,c,1.441151880758558e17,1.441151880758558e17\n"
    "e,e,2,3\ne,g,1,1\n"
)

# InstanceGenerator(seed=5, separable=False) trial 237, each value moved by a factor 1 + eps, |eps| <= 1e-9
SMALL_MOVE_MODEL = """[variables]
x1 x2 x3 x4
[multilinear]
x1 x2 x3 x4 : 14.722298753752266
x1 x3 : -5.059634101426534
x1 x3 x4 : 0.174478400744718
x2 : 9.02932227690481
x2 x3 : -6.371300725393429
x2 x4 : -8.447879291989661
"""
SMALL_MOVE_VALUES = (
    "e,x1,1.35365848221014,1.3536584825418565\ne,x2,-0.730126055664206,-0.7301260562556984\n"
    "e,x3,-1.3229474215458583,-1.3229474227899716\ne,x4,-0.8235471296249477,-0.823547130109712\n"
)
# the exact attributions of those floats, from fractions.Fraction, each rounded once
SMALL_MOVE_TRUE = {
    "x1": -1.6013804200148437e-09,
    "x2": -2.7284505165153637e-08,
    "x3": -1.1932885558471652e-08,
    "x4": -1.2170159422293613e-08,
}


def _run(tmp_path, capsys, model: str, values: str, method: str) -> tuple[int, dict[str, float]]:
    """The exit code and each variable's attribution of a one-entity machine report."""
    (tmp_path / "model.txt").write_text(model)
    (tmp_path / "values.csv").write_text(values)
    code = main(["--model", str(tmp_path / "model.txt"), "--values", str(tmp_path / "values.csv"),
                 "--method", method, "--report", "machine"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, {r["variable"]: r["attribution"] for r in records if r["record"] == "attribution"}


def _close(x: float, true: float, scale: float) -> bool:
    return math.isclose(x, true, rel_tol=0.0, abs_tol=1e-15 * scale)


@pytest.mark.parametrize(
    "model, values, true, method",
    [
        pytest.param(EXP_MODEL, EXP_VALUES, EXP_TRUE, "ass", id="ass"),
        pytest.param(EXP_MODEL, EXP_VALUES, EXP_TRUE, "ss-brute", id="ss-brute"),
        pytest.param(SQUARE_MODEL, SQUARE_VALUES, SQUARE_TRUE, "ass", id="square-ass", marks=SQUARE_OPEN),
        pytest.param(SQUARE_MODEL, SQUARE_VALUES, SQUARE_TRUE, "ss-brute", id="square-ss-brute", marks=SQUARE_OPEN),
    ],
)
def test_separable_cancellation_is_right_or_flagged(tmp_path, capsys, model, values, true, method):
    code, z = _run(tmp_path, capsys, model, values, method)
    assert code == 3 or (code == 0 and _close(z["x"], true, true))


@pytest.mark.parametrize(
    "model, values, true",
    [
        pytest.param(EXP_MODEL, EXP_VALUES, EXP_TRUE, id="exp"),
        # the quadrature's z is right, but its residual is taken against the cancelled change, so the row is flagged
        pytest.param(SQUARE_MODEL, SQUARE_VALUES, SQUARE_TRUE, id="square", marks=SQUARE_OPEN),
    ],
)
def test_separable_cancellation_is_trusted_under_quadrature(tmp_path, capsys, model, values, true):
    code, z = _run(tmp_path, capsys, model, values, "as-numeric")
    assert code == 0 and _close(z["x"], true, true)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 3 and 4")
@pytest.mark.parametrize("method", ["ass", "ss-brute"])
def test_cancellation_across_monomials_is_right_or_flagged(tmp_path, capsys, method):
    code, z = _run(tmp_path, capsys, BINADE_MODEL, BINADE_VALUES, method)
    assert code == 3 or (code == 0 and _close(z["a"], 48.0, 192.0) and _close(z["e"], -48.0, 192.0))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_small_move_order_walk_is_right_or_flagged(tmp_path, capsys):
    code, z = _run(tmp_path, capsys, SMALL_MOVE_MODEL, SMALL_MOVE_VALUES, "ss-brute")
    scale = sum(abs(v) for v in SMALL_MOVE_TRUE.values())
    assert code == 3 or (code == 0 and all(_close(z[k], v, scale) for k, v in SMALL_MOVE_TRUE.items()))
