"""The library's refusals that no other test reaches, one table row each.

A row gives the call, the exception type it raises (exactly that type) and
the whole message. The catalog loader's messages begin with the file's
path, which `_load` cuts off. The last tests read two answers no other test
reads: an even sphere's rational ranks and the empty wedge's name.
"""

import tempfile
from pathlib import Path

import pytest

from gauge5 import abelian, spaces
from gauge5.abelian import FGAbelianGroup
from gauge5.arith import gcd_class
from gauge5.classification import dirichlet_min
from gauge5.errors import CatalogError
from gauge5.exponents import ExponentBound
from gauge5.lie import LieGroupSpec, load_catalog, ord_partial1_tilde
from gauge5.localization import Localization
from gauge5.manifold import WedgeAtom, WedgeExpr
from gauge5.rational import GeneratorLedger, HilbertSeries
from gauge5.spaces import SpaceAtom, SpaceExpr, group_itself, loops_g, sphere_factor


def _load(text: str):
    """load_catalog on a file holding `text`, its path cut from any refusal."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.txt"
        path.write_text(text, encoding="utf-8")
        try:
            return load_catalog(path)
        except CatalogError as exc:
            raise CatalogError(str(exc).removeprefix(str(path))) from None


HEADER = "expr localization=integral group=- c=-"

REFUSALS = [
    # abelian
    (lambda: FGAbelianGroup(-1), ValueError, "free rank must be >= 0, got -1"),
    (
        lambda: FGAbelianGroup.from_cyclic_orders(-1),
        ValueError,
        "cyclic order must be >= 0, got -1",
    ),
    (lambda: abelian.parse_machine(HEADER), ValueError, f"not a group record: {HEADER!r}"),
    (
        lambda: FGAbelianGroup.trivial() + 1,
        TypeError,
        "unsupported operand type(s) for +: 'FGAbelianGroup' and 'int'",
    ),
    # arith, classification, exponents
    (lambda: gcd_class(1, 0), ValueError, "gcd_class needs d >= 1, got 0"),
    (lambda: dirichlet_min(1, 0, 5, 3), ValueError, "need ord >= 1, N >= 1"),
    (lambda: dirichlet_min(1, 24, 5, 0), ValueError, "need ord >= 1, N >= 1"),
    (lambda: ExponentBound(5, -1, "regular"), ValueError, "exponent must be >= 0, got -1"),
    # lie, and the catalog loader
    (lambda: LieGroupSpec.parse("SU:x"), ValueError, "bad group parameter 'x' in 'SU:x'"),
    (
        lambda: ord_partial1_tilde(LieGroupSpec("SU", 3), 4),
        ValueError,
        "expected a prime or None, got 4",
    ),
    (lambda: _load("SU 3 all 24\n"), CatalogError, ":1: expected 5 columns, got 4"),
    (lambda: _load("Su 3 all 24 1\n"), CatalogError, ":1: unknown family 'Su'"),
    (lambda: _load("SU 3 all n^3 1\n"), CatalogError, ":1: unknown ord spec 'n^3'"),
    (lambda: _load("SU 3 all 24 r!\n"), CatalogError, ":1: unknown r spec 'r!'"),
    # localization
    (lambda: Localization("local"), ValueError, "unknown localization kind 'local'"),
    (lambda: Localization.integral().inverts(4), ValueError, "inverts expects a prime, got 4"),
    # manifold
    (lambda: WedgeAtom("disk"), ValueError, "unknown wedge atom kind 'disk'"),
    (lambda: WedgeAtom("sphere", n=1), ValueError, "wedge atom dimension must be >= 2, got 1"),
    (lambda: WedgeAtom("moore", n=4), ValueError, "Moore atom needs an order c"),
    # rational
    (lambda: HilbertSeries((1, -1)), ValueError, "Betti numbers must be nonnegative"),
    (lambda: GeneratorLedger(((3, "free"),)), ValueError, "unknown generator kind 'free'"),
    (
        lambda: GeneratorLedger(((0, "exterior"),)),
        ValueError,
        "generator degree must be >= 1, got 0",
    ),
    (
        lambda: GeneratorLedger(((4, "exterior"),)),
        ValueError,
        "exterior generators have odd degree, got 4",
    ),
    (
        lambda: GeneratorLedger(((3, "polynomial"),)),
        ValueError,
        "polynomial generators have even degree, got 3",
    ),
    # spaces
    (lambda: SpaceAtom("torus"), ValueError, "unknown atom kind 'torus'"),
    (lambda: SpaceAtom("sphere"), ValueError, "sphere atom needs a dimension"),
    (
        lambda: SpaceExpr(((loops_g(1), -1),)),
        ValueError,
        "negative multiplicity for SpaceAtom(kind='loops_g', j=1, k=None, n=None)",
    ),
    (
        lambda: SpaceExpr(((group_itself(), 1),)).rational_rank(3),
        ValueError,
        "expression has group factors but no group context",
    ),
    (
        lambda: spaces.parse_machine("expr localization=local group=- c=-"),
        ValueError,
        "bad localization record 'local'",
    ),
    (
        lambda: spaces.parse_machine("expr localization=integral group=Lie c=-"),
        ValueError,
        "bad group record 'Lie'",
    ),
    (
        lambda: spaces.parse_machine(f"{HEADER}\n\nfactor kind=group"),  # a blank line is skipped
        ValueError,
        "bad machine record 'factor kind=group'",
    ),
    (
        lambda: spaces.parse_machine("atom kind=group j=0 n=- k=- mult=1"),
        ValueError,
        "machine text has no expr header",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS, ids=[m for _, _, m in REFUSALS])
def test_each_refusal_names_its_failed_check(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message


def test_an_even_sphere_has_rational_homotopy_in_degrees_n_and_2n_minus_1():
    expr = SpaceExpr(((sphere_factor(4), 2), (sphere_factor(3), 1)))
    assert [expr.rational_rank(q) for q in range(1, 9)] == [0, 0, 1, 2, 0, 0, 2, 0]


def test_the_empty_wedge_is_a_point():
    assert str(WedgeExpr(())) == "*" and WedgeExpr(()).reduced_homology() == {}
