"""Each Lie-family fact is read in one function, and each table in one module.

Spin's parity is read only by lie._family_key, which maps Spin(2n+1) to
('SpinOdd', n) and Spin(2n) to ('SpinEven', n); every per-family formula
branches on that key. "p is an odd prime" is checked only by
lie._require_odd_prime, which every odd-primary entry point calls. Which
groups have pi_4 = Z/2 (SU(2), every Sp(n), Spin(5)) is stated only by
manifold._pi4_is_z2, which manifold.pi4 and manifold.pi4_is_trivial both
call. The Bott groups, bott._STABLE, are defined and read only in bott,
and "r is at least the stable family's least r" is checked only by
bott._stable_family, which stable_pi, stability_threshold and StableQuery
call. No library code calls GcdClass.__new__: its __init__ alone builds a
class, and copy and pickle restore one as they restore every Value. Only
spaces._LOOPS holds prebuilt G and Omega^j G atoms, which loops_g and
group_itself return. A Lie group's 'family:param' token is written only by
LieGroupSpec.token, the inverse of LieGroupSpec.parse. Which catalog row
answers (G, p) is decided only by lie._lookup; G's rows (lie._rows) are read
only by _lookup and classification._order, the one p-blind read, which takes
G's first row whatever p; a prime tag's K is read only by
CatalogRow.__init__, once, as the row is built; which primes a row
covers, only by CatalogRow._holds_at, and only _lookup, the loader's
lie._ord_clash and the CLI's exceptional table filter ask it; and the loop-filtration
arms (A, B) only by lie._arms, which the theriault route evaluates and each
exceptional catalog row checks its published arms against. Each range, an
inequality on l(G) with a polynomial in p for its bound, is stated only in
lie._RANGES, which names only the p_regular and theriault ranges and the
catalog's three range tags; l(G) is compared with p only by lie._within,
which only is_p_regular, in_theriault_range, exponents._routes and a row's
range tag (CatalogRow._holds_at) call, so the one-type criterion has no
range of its own and reads the row that holds at p;
arith.legendre_valuation's p - 1 is not a range. The scans below
fail if a later change re-derives any of these facts somewhere else.

The last scans keep the library free of code nothing reaches: every def in
src/gauge5 is named by other library code, exported, or listed in ALLOWLIST
with its reason, and no def is named like a public method of a builtin type
(whose calls the bare-name scan cannot tell from the def's) unless ALLOWLIST
gives its reason; every import in src/gauge5 and tests/ is read by code, not
only by a doctest; and every parameter of a library function is read.

Every source scan of the suite, here and in test_hypotheses, test_records
and test_value, reads the library through `library_trees`, which parses
each module once per run.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

import gauge5
from gauge5 import lie

SRC = Path(gauge5.__file__).resolve().parent


@functools.cache
def library_trees() -> dict[str, ast.Module]:
    """File name -> parsed tree of each module of src/gauge5, in name order.
    Shared by every caller, so a scan must not change a tree."""
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


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

    for name, tree in library_trees().items():
        visit(tree, name, None)
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


_PI4_PARAM = {"'SU'": "2", "'Spin'": "5"}


def _equality(node) -> tuple[str, str] | None:
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], ast.Eq):
        return ast.unparse(node.left), ast.unparse(node.comparators[0])
    return None


def _reads_pi4_family(node) -> bool:
    # G.family == "Sp", or G.family == "SU" and G.n == 2, or Spin with n == 5
    eq = _equality(node)
    if eq is not None:
        return eq[0].endswith("family") and eq[1] == "'Sp'"
    if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)):
        return False
    eqs = [e for e in map(_equality, node.values) if e is not None]
    families = {right for left, right in eqs if left.endswith("family")}
    params = {right for left, right in eqs if left == "n" or left.endswith(".n")}
    return any(_PI4_PARAM.get(f) in params for f in families)


def test_pi4_family_is_read_only_by_its_predicate():
    assert _sites(_reads_pi4_family) == {("manifold.py", "_pi4_is_z2")}
    tree = library_trees()["manifold.py"]
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for name in ("pi4", "pi4_is_trivial"):
        calls = {ast.unparse(c.func) for c in ast.walk(funcs[name]) if isinstance(c, ast.Call)}
        assert "_pi4_is_z2" in calls, name
        # the triviality test builds no group: it never asks pi4
        assert name == "pi4" or "pi4" not in calls


def _compares_r_with_least(node) -> bool:
    # r < least, q.r >= _STABLE[family][0], ...
    if not isinstance(node, ast.Compare):
        return False
    operands = [ast.unparse(x) for x in (node.left, *node.comparators)]
    return any(x == "r" or x.endswith(".r") for x in operands) and any(
        "least" in x or "_STABLE" in x or "_stable_family" in x for x in operands
    )


def test_r_is_compared_with_the_least_stable_r_only_by_the_family_lookup():
    assert _sites(_compares_r_with_least) == {("bott.py", "_stable_family")}


def _names_the_bott_groups(node) -> bool:
    # _STABLE or _stable_family, as a name, an attribute, a definition or an import
    names = {"_STABLE", "_stable_family"}
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in names
    if isinstance(node, ast.FunctionDef):
        return node.name in names
    return isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)


def test_the_bott_groups_live_only_in_bott():
    assert {where for where, _ in _sites(_names_the_bott_groups)} == {"bott.py"}
    tree = library_trees()["bott.py"]
    from_lie = [
        a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lie"
        for a in node.names
    ]
    assert not [name for name in from_lie if name.startswith("_")]


def test_gcd_class_is_built_only_through_its_constructor():
    tree = library_trees()["classification.py"]
    assert not [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]


def _builds_loop_atom(node) -> bool:
    # loops_g(j), group_itself(), SpaceAtom("loops_g", ...) or SpaceAtom("group")
    if not isinstance(node, ast.Call):
        return False
    func = ast.unparse(node.func)
    if func in ("loops_g", "group_itself"):
        return True
    return func == "SpaceAtom" and bool(node.args) and ast.unparse(node.args[0]) in (
        "'loops_g'", "'group'"
    )


def test_only_spaces_holds_a_table_of_loop_atoms():
    # a module-level value that builds G or Omega^j G atoms is a table of them
    tables = set()
    for name, tree in library_trees().items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(map(_builds_loop_atom, ast.walk(stmt.value))):
                tables.add((name, ast.unparse(stmt.targets[0])))
    assert tables == {("spaces.py", "_LOOPS")}


def _formats_group_token(node) -> bool:
    # f"...:{G.n}" or f"{family}:{n}": a ':' piece followed by a group parameter
    if not isinstance(node, ast.JoinedStr):
        return False
    return any(
        isinstance(a, ast.Constant) and a.value.endswith(":")
        and isinstance(b, ast.FormattedValue)
        and (ast.unparse(b.value) == "n" or ast.unparse(b.value).endswith(".n"))
        for a, b in zip(node.values, node.values[1:])
    )


def test_the_group_token_is_written_only_by_its_parser_inverse():
    assert _sites(_formats_group_token) == {("lie.py", "token")}


def _calls(name: str):
    """A match for a call of `name`, bare or as an attribute."""
    def match(node) -> bool:
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
    return match


def test_only_the_lookup_the_ord_clash_and_the_table_filter_ask_where_a_row_holds():
    assert _sites(_calls("_holds_at")) == {
        ("lie.py", "_lookup"), ("lie.py", "_ord_clash"), ("cli.py", "_run_exponent"),
    }


def test_only_the_lookup_and_the_classification_order_read_a_groups_rows():
    assert _sites(_calls("_rows")) == {("lie.py", "_lookup"), ("classification.py", "_order")}


def _tests_a_tag_prefix(node) -> bool:
    # a call or comparison with 'p=' or 'p>=', the prefixes before a prime tag's K
    operands = node.args if isinstance(node, ast.Call) else getattr(node, "comparators", ())
    return any(isinstance(a, ast.Constant) and a.value in ("p=", "p>=") for a in operands)


def test_a_prime_tag_is_parsed_only_as_its_row_is_built():
    assert _sites(_tests_a_tag_prefix) == {("lie.py", "__init__")}
    # the tag parser that the CLI once called a second time is folded into CatalogRow
    assert not _sites(lambda node: "prime_cond_interval" in _names(node))


def test_the_loop_filtration_arms_are_computed_once_for_both_readers():
    assert _sites(_calls("_arms")) == {("exponents.py", "_routes"), ("lie.py", "__init__")}


def _subtracts_from_p(node) -> bool:
    # p - 1, p - 2: the factors of a range's bound, a polynomial in p
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and ast.unparse(node.left) == "p"
        and isinstance(node.right, ast.Constant)
    )


def _compares_l_with_p(node) -> bool:
    # l <= bound(p), p >= l_of(G) + 1, ...: a comparison reading both l(G) and p
    if not isinstance(node, ast.Compare):
        return False
    names = _names(node)
    return "p" in names and bool({"l", "l_of", "_l_at"} & set(names))


def test_each_range_is_stated_only_in_the_range_table():
    # arith.legendre_valuation's (m - s) // (p - 1) is Legendre's identity, not a range
    assert _sites(_subtracts_from_p) == {("lie.py", None), ("arith.py", "legendre_valuation")}
    tree = library_trees()["lie.py"]
    (table,) = (
        node for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_RANGES"
    )
    count = lambda node: sum(map(_subtracts_from_p, ast.walk(node)))
    assert count(table) == count(tree)  # in lie, only the range table's entries
    assert _sites(_compares_l_with_p) == {("lie.py", "_within")}
    # two predicates' ranges and the catalog's tags: no caller keeps a private range
    assert set(lie._RANGES) == {"p_regular", "theriault", *lie._TAGS}
    assert _sites(_calls("_within")) == {
        ("lie.py", "is_p_regular"), ("lie.py", "in_theriault_range"),
        ("exponents.py", "_routes"), ("lie.py", "_holds_at"),
    }


# qualified def, or function(parameter), that no library code reaches -> why it stays
ALLOWLIST = {
    "abelian.parse_machine": "bench/queries.py calls it",
    "spaces.parse_machine": "bench/queries.py calls it",
    "spaces.SpaceExpr.rational_rank": "bench/queries.py calls it",
    "spaces.SpaceExpr.of": "tests/test_acceptance.py builds its random expressions with it",
    "manifold.WedgeExpr.reduced_homology": "tests/test_manifold.py checks the splittings with it",
    "decomposition.gauge_away_from_c(k)": "bench/queries.py passes it by position",
    "lie.CatalogRow.family_key": "bench/spans.py reads it, the family column's earlier name",
}


# public method names of the builtin types: `"x".replace(...)` names `replace`
# as a bare attribute, so a library def of that name would pass as reached
_BUILTIN_METHODS = frozenset(
    name
    for kind in (str, bytes, list, dict, tuple, set, frozenset, int, float)
    for name in dir(kind) if not name.startswith("_")
)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(node) -> Counter:
    """How often each bare name is used under node, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _reads(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _defs(tree):
    """(qualname, node) of each top-level function or class, and of each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not _is_dunder(method.name):
                    yield f"{node.name}.{method.name}", method


def _unreached(library: dict, tests: dict) -> set[str]:
    """Defs no other library code names, imports nothing reads and library
    parameters their function never reads, given the parsed library and test
    modules by name. Names match bare, so a def that shares its name with a
    reached one hides: this is a lower bound. A def named like a builtin
    type's method is flagged whatever names it, exported or not."""
    named = sum(map(_names, library.values()), Counter())  # counted once per name
    found = set()
    for module, tree in library.items():
        for qualname, node in _defs(tree):
            if _is_dunder(node.name):
                continue
            if node.name in _BUILTIN_METHODS or (
                qualname not in gauge5.__all__
                and named[node.name] == _names(node)[node.name]  # named only inside itself
            ):
                found.add(f"{module}.{qualname}")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
                args = node.args
                params = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                unread = {a.arg for a in params if a} - _reads(node) - {"self", "cls"}
                found.update(f"{module}.{node.name}({name})" for name in unread)
    for module, tree in (library | tests).items():
        read = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:  # a doctest's use is a string, not a read
                        found.add(f"{module} imports {name}")
    return found


@functools.cache
def _unreached_in_repo() -> frozenset[str]:
    library = {name.removesuffix(".py"): tree for name, tree in library_trees().items()}
    tests = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(Path(__file__).resolve().parent.glob("*.py"))
    }
    return frozenset(_unreached(library, tests))


def _kind(entry: str) -> str:
    return "import" if " imports " in entry else "parameter" if "(" in entry else "def"


# equality with ALLOWLIST, not inclusion: an entry that no longer needs its reason fails too
@pytest.mark.parametrize("kind", ["def", "import", "parameter"])
def test_every_def_import_and_parameter_is_reached(kind):
    found = {e for e in _unreached_in_repo() if _kind(e) == kind}
    assert found == {e for e in ALLOWLIST if _kind(e) == kind}


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("def lcm_of(a, b):\n    return a * b\n", {"m.lcm_of"}),
        ("from math import gcd\n\ndef f(a):\n    return a\n\nf(1)\n", {"m imports gcd"}),
        ("def f(a, c):\n    return a\n\nf(1, 2)\n", {"m.f(c)"}),
        # named by the str method's call, and still flagged
        ("class C:\n    def replace(self):\n        return self\n\nprint(C, 'a'.replace('a', 'b'))\n",
         {"m.C.replace"}),
    ],
    ids=["unreferenced-def", "unused-import", "unread-parameter", "builtin-method-name"],
)
def test_the_scan_flags_each_kind_of_unreached_code(source, flagged):
    tree = ast.parse(source)
    assert _unreached({"m": tree}, {}) == flagged
