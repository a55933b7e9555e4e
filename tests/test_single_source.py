"""Each Lie-family fact is read in one function.

Spin's parity is read only by lie._family_key, which maps Spin(2n+1) to
('SpinOdd', n) and Spin(2n) to ('SpinEven', n); every per-family formula
branches on that key. "p is an odd prime" is checked only by
lie._require_odd_prime, which every odd-primary entry point calls. The scans
below fail if a later change re-derives either fact somewhere else.
"""

import ast
from pathlib import Path

import gauge5

SRC = Path(gauge5.__file__).resolve().parent


def _sites(match) -> set[tuple[str, str | None]]:
    """(file, innermost enclosing function) of each node `match` accepts."""
    found = set()

    def visit(node, where, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if match(node):
            found.add((where, func))
        for child in ast.iter_child_nodes(node):
            visit(child, where, func)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def _reads_spin_parity(node) -> bool:
    # G.n % 2 or G.n // 2
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Mod, ast.FloorDiv))
        and ast.unparse(node.left) == "G.n"
        and ast.unparse(node.right) == "2"
    )


def _compares_p_with_2(node) -> bool:
    # p == 2, p != 2, args.p == 2, ...
    if not (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Eq, ast.NotEq))):
        return False
    operands = [ast.unparse(x) for x in (node.left, *node.comparators)]
    return "2" in operands and any(x == "p" or x.endswith(".p") for x in operands)


def test_spin_parity_is_read_only_by_the_family_key():
    assert _sites(_reads_spin_parity) == {("lie.py", "_family_key")}


def test_p_is_compared_with_2_only_by_the_odd_prime_check():
    assert _sites(_compares_p_with_2) == {("lie.py", "_require_odd_prime")}
