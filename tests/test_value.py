"""The `Value` base of every record type: the behaviour the frozen
dataclasses it replaced had, and the import cost it exists to avoid."""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gauge5
from gauge5.abelian import FGAbelianGroup
from gauge5.arith import PrimePower
from gauge5.bott import StableQuery
from gauge5.classification import ClassificationReport, GcdClass, classify_moore
from gauge5.exponents import ExponentBound, best_bound
from gauge5.lie import CatalogRow, LieGroupSpec, load_catalog
from gauge5.localization import Localization
from gauge5.manifold import ManifoldSpec, WedgeAtom, WedgeExpr, moore, opaque, sphere
from gauge5.rational import GeneratorLedger, HilbertSeries, RationalGroupModel
from gauge5.spaces import SpaceAtom, SpaceExpr, loops_g, moore_gauge, sphere_factor
from gauge5.value import Value
from test_single_source import library_trees

SRC = Path(gauge5.__file__).resolve().parent
M = ManifoldSpec(5, 2)

# (value, its repr as the frozen dataclasses printed it)
CASES = [
    (PrimePower(3, 2), "PrimePower(p=3, e=2)"),
    (FGAbelianGroup(), "FGAbelianGroup('0')"),
    (FGAbelianGroup(2, (PrimePower(3, 1), PrimePower(2, 2))), "FGAbelianGroup('Z^2 + Z/4 + Z/3')"),
    (
        Localization("integral"),
        "Localization(kind='integral', inverted_set=frozenset(), prime=None)",
    ),
    (
        Localization.away_from([6]),
        "Localization(kind='away_from', inverted_set=frozenset({2, 3}), prime=None)",
    ),
    (Localization.at_prime(5), "Localization(kind='at_prime', inverted_set=frozenset(), prime=5)"),
    (LieGroupSpec("SU", 4), "LieGroupSpec(family='SU', n=4)"),
    (LieGroupSpec("E8"), "LieGroupSpec(family='E8', n=None)"),
    (
        load_catalog()[0],
        "CatalogRow(family='SU', param=2, prime_cond='p>=3', ord_spec='3',"
        " cells=('nu_p((n-1)!)',))",
    ),
    (M, "ManifoldSpec(c=5, m=2, spin=True, stably_parallelizable=False, single_top_cell=False)"),
    (
        ManifoldSpec(9, 3, spin=False, stably_parallelizable=True),
        "ManifoldSpec(c=9, m=3, spin=False, stably_parallelizable=True, single_top_cell=False)",
    ),
    (sphere(4), "WedgeAtom(kind='sphere', n=4, c=None, tag='', ledger=())"),
    (moore(6, 5), "WedgeAtom(kind='moore', n=6, c=5, tag='', ledger=())"),
    (
        WedgeExpr((sphere(4), moore(6, 5))),
        "WedgeExpr(atoms=(WedgeAtom(kind='sphere', n=4, c=None, tag='', ledger=()),"
        " WedgeAtom(kind='moore', n=6, c=5, tag='', ledger=())))",
    ),
    (SpaceAtom("group"), "SpaceAtom(kind='group', j=0, k=None, n=None)"),
    (moore_gauge(2, 1), "SpaceAtom(kind='moore_gauge', j=2, k=1, n=None)"),
    (sphere_factor(3), "SpaceAtom(kind='sphere', j=0, k=None, n=3)"),
    (
        SpaceExpr.of(
            [loops_g(2), loops_g(2), moore_gauge(1, 1)],
            Localization.away_from([5]),
            LieGroupSpec("SU", 3),
            5,
        ),
        "SpaceExpr(atoms=((SpaceAtom(kind='moore_gauge', j=1, k=1, n=None), 1),"
        " (SpaceAtom(kind='loops_g', j=2, k=None, n=None), 2)),"
        " localization=Localization(kind='away_from', inverted_set=frozenset({5}), prime=None),"
        " group=LieGroupSpec(family='SU', n=3), c=5)",
    ),
    (
        SpaceExpr(()),
        "SpaceExpr(atoms=(), localization=Localization(kind='integral',"
        " inverted_set=frozenset(), prime=None), group=None, c=None)",
    ),
    (
        StableQuery(M, "SU", 0, 9),
        "StableQuery(M=ManifoldSpec(c=5, m=2, spin=True, stably_parallelizable=False,"
        " single_top_cell=False), family='SU', k=0, r=9, ctx='away_c')",
    ),
    (
        classify_moore(LieGroupSpec("SU", 3), 9),
        "ClassificationReport(G=LieGroupSpec(family='SU', n=3), c=9, ord=24,"
        " order_validity='all', d=3, count_integral=2, count_at_p=((3, 2),),"
        " classes=((1, GcdClass(c=9, d=3, g=1)), (3, GcdClass(c=9, d=3, g=3))),"
        " looped=None)",
    ),
    (GcdClass(9, 3, 1), "GcdClass(c=9, d=3, g=1)"),
    (
        ExponentBound(5, 4, "regular"),
        "ExponentBound(p=5, exponent=4, route='regular', assumptions=(), alternatives=())",
    ),
    (
        best_bound(M, LieGroupSpec("SU", 4), 5),
        "ExponentBound(p=5, exponent=4, route='regular', assumptions=('SU(4) p-regular at 5',),"
        " alternatives=(ExponentBound(p=5, exponent=4, route='theriault',"
        " assumptions=('(SU(4), p = 5) in the loop-filtration range',), alternatives=()),))",
    ),
    (HilbertSeries((1, 0, 0, 0, 1)), "HilbertSeries('1 + t^4')"),
    (
        RationalGroupModel((5, 3), (4,)),
        "RationalGroupModel(exterior_degrees=(3, 5), polynomial_degrees=(4,))",
    ),
    (RationalGroupModel((3,)), "RationalGroupModel(exterior_degrees=(3,), polynomial_degrees=())"),
    (
        GeneratorLedger(((5, "exterior"), (2, "polynomial"))),
        "GeneratorLedger(generators=((2, 'polynomial'), (5, 'exterior')))",
    ),
]
VALUES = [v for v, _ in CASES]
IDS = [type(v).__name__ for v in VALUES]


def _fields(v):
    return tuple(getattr(v, f) for f in v._fields)


def test_every_value_class_is_covered():
    covered = {type(v) for v in VALUES}
    # the module's own doctest defines a subclass too
    assert covered == {c for c in Value.__subclasses__() if c.__module__ != "gauge5.value"}
    assert len(covered) == 17


@pytest.mark.parametrize("value, expected", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(value, expected):
    assert repr(value) == expected


# GcdClass writes its own equality and hash, which read its members
FIELD_EQ = [v for v in VALUES if not isinstance(v, GcdClass)]


def _rebuild(value):
    """value built again through its constructor: the report from (G, c,
    looped), every other value from its fields."""
    if isinstance(value, ClassificationReport):
        return ClassificationReport(value.G, value.c, value.looped)
    return type(value)(**dict(zip(value._fields, _fields(value))))


@pytest.mark.parametrize("value", FIELD_EQ, ids=[type(v).__name__ for v in FIELD_EQ])
def test_eq_and_hash_are_those_of_the_field_tuple(value):
    twin = _rebuild(value)
    assert twin is not value and twin == value and not twin != value
    assert hash(value) == hash(_fields(value)) == hash(twin)
    assert value != _fields(value)  # another class never compares equal
    assert value.__eq__(_fields(value)) is NotImplemented


def test_gcd_class_rebuilds_an_equal_class():
    # its equality and hash read the members (tests/test_classification.py)
    value = GcdClass(9, 3, 1)
    twin = _rebuild(value)
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert GcdClass(9, 3, 3) != value


def test_values_of_different_classes_never_compare_equal():
    # both field tuples are ((),)
    assert WedgeExpr(()) != GeneratorLedger(()) and not WedgeExpr(()) == GeneratorLedger(())


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value):
    name = value._fields[0]
    with pytest.raises(AttributeError, match=repr(name)):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=repr(name)):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        assert hash(twin) == hash(value)


def test_the_constructor_canonicalizes_checks_and_derives():
    changed = FGAbelianGroup(1, (PrimePower(2, 1), PrimePower(2, 3)))
    assert changed == FGAbelianGroup.from_cyclic_orders(0, 8, 2)
    with pytest.raises(ValueError, match="m must be >= 1"):
        ManifoldSpec(5, 0)
    with pytest.raises(TypeError):
        ManifoldSpec(5, 2, q=1)
    report = classify_moore(LieGroupSpec("SU", 3), 9)
    looped = ClassificationReport(report.G, report.c, looped=2)
    assert looped.looped == 2 and report.looped is None
    assert _fields(looped)[:-1] == _fields(report)[:-1]  # every derived field


def test_positional_keyword_and_default_construction_agree():
    assert ManifoldSpec(5, 2, True, False, False) == ManifoldSpec(c=5, m=2) == M
    assert ExponentBound(5, 4, "regular") == ExponentBound(
        p=5, exponent=4, route="regular", assumptions=(), alternatives=()
    )
    assert SpaceAtom("loops_g", 2) == SpaceAtom(kind="loops_g", j=2, k=None, n=None)
    assert SpaceExpr(()).localization == Localization.integral()
    assert SpaceExpr(()).localization is SpaceExpr(((loops_g(1), 1),)).localization
    assert Localization("integral").inverted_set == frozenset()
    assert FGAbelianGroup() == FGAbelianGroup(0, ()) == FGAbelianGroup(free_rank=0)
    assert StableQuery(M, "SU", 0, 9) == StableQuery(M=M, family="SU", k=0, r=9, ctx="away_c")
    assert WedgeAtom("moore", 4, 5) == moore(4, 5)
    assert opaque("x", {}).n is None
    with pytest.raises(TypeError):
        LieGroupSpec()
    with pytest.raises(TypeError):
        CatalogRow("SU", None, "all", "3")


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: Localization("integral", inverted_set=frozenset({2})), "integral takes no"),
        (lambda: Localization("rational", prime=5), "rational takes no prime"),
        (lambda: Localization("at_prime", frozenset({2}), 5), "at_prime takes no"),
        (lambda: Localization("away_from", frozenset({2}), 3), "away_from takes no prime"),
        (lambda: WedgeAtom("sphere", n=4, c=5), "sphere atom takes no order"),
        (lambda: WedgeAtom("sphere", n=4, tag="x"), "sphere atom takes no tag"),
        (
            lambda: WedgeAtom("moore", n=4, c=5, ledger=((3, FGAbelianGroup.cyclic(5)),)),
            "moore atom takes no tag",
        ),
        (lambda: WedgeAtom("opaque", n=4, tag="x"), "opaque atom takes no dimension"),
        (lambda: WedgeAtom("opaque", c=3, tag="x"), "opaque atom takes no order"),
    ],
)
def test_each_kind_takes_only_the_fields_it_reads(build, named):
    # a field its kind ignores would make two values that act alike compare unequal
    with pytest.raises(ValueError, match=f"^{named}"):
        build()


def test_space_atom_hash_is_the_field_tuple_hash():
    # SpaceAtom writes its hash out (it is on the hot path); it must agree with the base's
    assert "__hash__" in vars(SpaceAtom)
    for atom in (SpaceAtom("group"), moore_gauge(2, 1), sphere_factor(3), loops_g(4)):
        assert hash(atom) == hash((atom.kind, atom.j, atom.k, atom.n))


def test_equality_and_hash_are_the_base_class_methods():
    # no class carries a generated pair: only members and a cached hash are written out
    own = {
        (cls.__name__, name)
        for cls in Value.__subclasses__()
        for name in ("__eq__", "__hash__")
        if name in vars(cls)
    }
    assert own == {("GcdClass", "__eq__"), ("GcdClass", "__hash__"), ("SpaceAtom", "__hash__")}


def test_value_classes_keep_their_own_methods():
    # a class that writes its own repr keeps it
    assert repr(HilbertSeries((1, 0, 2))) == "HilbertSeries('1 + 2t^2')"
    assert ClassificationReport._fields[-1] == "looped"
    assert CatalogRow._fields == ("family", "param", "prime_cond", "ord_spec", "cells")


def test_values_are_built_in_one_step():
    # each __init__ stores its canonical fields once; FGAbelianGroup alone keeps a
    # second step, through which the benchmark counts group constructions
    classes = [c for c in Value.__subclasses__() if c.__module__ != "gauge5.value"]
    two_step = [c.__name__ for c in classes if "__post_init__" in vars(c)]
    overwrites = [c.__name__ for c in classes if "object.__setattr__" in inspect.getsource(c)]
    assert two_step == overwrites == ["FGAbelianGroup"]


# -- the import-cost guards --------------------------------------------------------

# `__future__` too: a `from __future__ import` statement imports it at run time
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib", "argparse", "__future__")


def loaded_after(code: str, prefix: str = "gauge5") -> list[str]:
    """The sorted names, starting with `prefix`, of the modules a fresh
    `python -S` holds once it has run `code`, with the package on its path."""
    probe = f"{code}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_cli_import_loads_no_heavy_stdlib_module():
    assert set(loaded_after("import gauge5.cli", prefix="")) & set(HEAVY) == set()


def test_cold_catalog_load_imports_exactly_these_modules():
    # `import gauge5` plus the first load_catalog(), the path setup_s times: a
    # module added to it shows up here
    assert loaded_after("import gauge5; gauge5.lie.load_catalog()") == [
        "gauge5", "gauge5.arith", "gauge5.errors", "gauge5.lie", "gauge5.value",
    ]


def _import_sites(module: str) -> list[str]:
    """file:line of each import of `module` (or a submodule) in the package."""
    hits = []
    for name, tree in library_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == module for n in names):
                hits.append(f"{name}:{node.lineno}")
    return hits


def test_no_module_imports_dataclasses():
    assert _import_sites("dataclasses") == []


def test_no_module_has_a_future_import():
    # Python >= 3.10 evaluates `int | None` itself; the statement would only
    # cost every launch an import of `__future__`
    assert _import_sites("__future__") == []
