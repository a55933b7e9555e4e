"""Each hypothesis of the theory is checked and worded in one place.

manifold.py's require_* helpers are the only code that raises a
HypothesisError naming a hypothesis; every entry point that checks the same
hypothesis therefore refuses with the same message.
"""

import ast
from pathlib import Path

import pytest

import gauge5
from gauge5 import HypothesisError, LieGroupSpec, Localization, ManifoldSpec
from gauge5.classification import classify_looped_manifold
from gauge5.decomposition import loops2_gauge
from gauge5.exponents import best_bound, exp_bound_regular, exp_bound_theriault
from gauge5.manifold import bundle_classes

SRC = Path(gauge5.__file__).resolve().parent


def _message_head(node: ast.expr) -> str:
    """The literal text a message expression starts with ('' if none)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        return _message_head(node.values[0])
    return ""


def _hypothesis_raises() -> list[tuple[str, str, int]]:
    """(file, enclosing function, line) of each raise HypothesisError("hypothesis ...")."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                    continue
                call = node.exc
                if not (isinstance(call.func, ast.Name) and call.func.id == "HypothesisError"):
                    continue
                if call.args and _message_head(call.args[0]).startswith("hypothesis"):
                    found.append((path.name, func.name, node.lineno))
    return found


def test_hypotheses_are_raised_only_by_the_manifold_helpers():
    found = _hypothesis_raises()
    assert found, "the scan found no hypothesis refusal at all"
    stray = [f for f in found if f[0] != "manifold.py" or not f[1].startswith("require_")]
    assert stray == []


def test_bott_raises_no_hypothesis_error_itself():
    # the stable layer's one hypothesis, spin or 2 inverted, is a manifold helper
    tree = ast.parse((SRC / "bott.py").read_text(encoding="utf-8"))
    raised = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and any(isinstance(n, ast.Name) and n.id == "HypothesisError" for n in ast.walk(node.exc))
    ]
    assert raised == []


def _refusal(call) -> str:
    with pytest.raises(HypothesisError) as info:
        call()
    return str(info.value)


def test_six_divides_c_is_refused_with_one_message():
    M, G = ManifoldSpec(c=12, m=2), LieGroupSpec("SU", 4)
    messages = {
        _refusal(lambda: loops2_gauge(M, G, 0)),
        _refusal(lambda: classify_looped_manifold(M, G, 2)),
        _refusal(lambda: exp_bound_regular(M, G, 5)),
        _refusal(lambda: exp_bound_theriault(M, G, 5)),
        _refusal(lambda: best_bound(M, G, 5)),
    }
    assert messages == {"hypothesis 6 ∤ c fails: c = 12"}


@pytest.mark.parametrize("ctx", [None, Localization.at_prime(2)])
def test_nontrivial_pi4_is_refused_with_one_message(ctx):
    M, G = ManifoldSpec(c=5, m=2), LieGroupSpec("Sp", 2)
    messages = {
        _refusal(lambda: loops2_gauge(M, G, 0, ctx)),
        _refusal(lambda: classify_looped_manifold(M, G, 2, ctx)),
        _refusal(lambda: bundle_classes(M, G, ctx)),
    }
    assert len(messages) == 1
    assert messages.pop().startswith("hypothesis pi_4(G) = 0 fails: pi_4(Sp(2)) = Z/2")
