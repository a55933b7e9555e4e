"""Each hypothesis of the theory is checked and worded in one place.

manifold.py's require_* helpers are the only code that raises a
HypothesisError naming a hypothesis; every entry point that checks the same
hypothesis therefore refuses with the same message. The order c >= 2, of
pi_1(M) or of a Moore space, is checked by require_moore_order alone, with
a plain ValueError.
"""

import ast

import pytest

from gauge5 import HypothesisError, LieGroupSpec, Localization, ManifoldSpec
from gauge5.classification import (
    classify_looped_manifold,
    classify_moore,
    dirichlet_min,
    same_type_moore,
    trivial_case,
)
from gauge5.decomposition import loops2_gauge
from gauge5.exponents import best_bound, exp_bound_regular, exp_bound_theriault
from gauge5.spaces import SpaceExpr
from gauge5.manifold import (
    WedgeAtom,
    bundle_classes,
    pi6_P4,
    pi_moore_self,
    pi_with_coefficients,
    suspension_image_order,
)
from test_single_source import library_trees


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
    for name, tree in library_trees().items():
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
                    found.append((name, func.name, node.lineno))
    return found


def test_hypotheses_are_raised_only_by_the_manifold_helpers():
    found = _hypothesis_raises()
    assert found, "the scan found no hypothesis refusal at all"
    stray = [f for f in found if f[0] != "manifold.py" or not f[1].startswith("require_")]
    assert stray == []


def test_bott_raises_no_hypothesis_error_itself():
    # the stable layer's one hypothesis, spin or 2 inverted, is a manifold helper
    tree = library_trees()["bott.py"]
    raised = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and any(isinstance(n, ast.Name) and n.id == "HypothesisError" for n in ast.walk(node.exc))
    ]
    assert raised == []


def _refusal(call, error=HypothesisError) -> str:
    with pytest.raises(error) as info:
        call()
    assert info.type is error
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


def test_a_moore_order_below_2_is_refused_with_one_message():
    G = LieGroupSpec("SU", 3)
    messages = {
        _refusal(lambda: classify_moore(G, 1), ValueError),
        _refusal(lambda: same_type_moore(0, 1, G, 1), ValueError),
        _refusal(lambda: trivial_case(G, 5, 1), ValueError),
        _refusal(lambda: pi_moore_self(3, 1), ValueError),
        _refusal(lambda: pi6_P4(1), ValueError),
        _refusal(lambda: suspension_image_order(1), ValueError),
        _refusal(lambda: pi_with_coefficients("P3@4", 1), ValueError),
        _refusal(lambda: ManifoldSpec(1, 2), ValueError),
        _refusal(lambda: SpaceExpr((), c=1), ValueError),
        _refusal(lambda: WedgeAtom("moore", n=4, c=1), ValueError),
        _refusal(lambda: dirichlet_min(1, 24, 1, 3), ValueError),
    }
    assert messages == {"c must be >= 2, got 1"}
