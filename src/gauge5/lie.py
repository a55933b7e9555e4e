"""Catalog of simply connected compact simple Lie groups.

Static data and derived predicates: the rational type (exponents of the
sphere product), l(G) and rank, triviality of pi_4, p-regularity, the
Theriault range, the order of the degree-4 connecting map (drives bundle
classification over Moore spaces), the loop-power offset r(G, p) used by the
exponent bounds, and the stable homotopy of the SU and Spin families.

Numeric rows live in data/catalog.txt (override with the GAUGE_CATALOG
environment variable); this module parses and interprets them. Each catalog
path is parsed, checked and indexed once: its rows are grouped by (family
key, parameter), specific rows before * rows and each group in file order,
and every p=K / p>=K tag is resolved to its prime interval and every
integer cell parsed on the row. A lookup then reads one short group instead
of scanning the file's rows.
"""

import math
import os

from .abelian import FGAbelianGroup
from .arith import MILLER_RABIN_BOUND, is_prime, legendre_valuation, prime_divisors
from .errors import CatalogError
from .localization import Localization
from .value import Value

FAMILIES = ("SU", "Sp", "Spin", "G2", "F4", "E6", "E7", "E8")
EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")

_EXCEPTIONAL_TYPE = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}


class LieGroupSpec(Value):
    """A simple compact Lie group given by family and parameter.

    >>> LieGroupSpec.parse("SU:4")
    LieGroupSpec(family='SU', n=4)
    >>> str(LieGroupSpec.parse("Spin:8")), str(LieGroupSpec.parse("E8"))
    ('Spin(8)', 'E8')
    """

    family: str
    n: int | None

    def __init__(self, family: str, n: int | None = None) -> None:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if family in EXCEPTIONAL:
            if n is not None:
                raise ValueError(f"{family} takes no parameter")
        elif n is None:
            raise ValueError(f"{family} needs a parameter")
        else:
            low = {"SU": 2, "Sp": 1, "Spin": 5}[family]
            if n < low:
                raise ValueError(f"{family} parameter must be >= {low}, got {n}")
        self.__dict__.update(family=family, n=n)

    @staticmethod
    def parse(text: str) -> "LieGroupSpec":
        """Parse 'family:param' (exceptionals take no ':param')."""
        if ":" in text:
            fam, _, num = text.partition(":")
            try:
                n = int(num)
            except ValueError:
                raise ValueError(f"bad group parameter {num!r} in {text!r}") from None
            return LieGroupSpec(fam, n)
        return LieGroupSpec(text)

    def __str__(self) -> str:
        if self.n is None:
            return self.family
        return f"{self.family}({self.n})"


# -- rational type -----------------------------------------------------------


def _family_key(G: LieGroupSpec) -> tuple[str, int | None]:
    """The catalog family key and formula parameter of G: Spin(2n+1) is
    ('SpinOdd', n) and Spin(2n) is ('SpinEven', n).

    The one reader of Spin's parity: every per-family formula branches on
    this key, and Spin(2n+1) shares Sp(n)'s formulas throughout.
    """
    if G.family == "Spin":
        if G.n % 2:
            return "SpinOdd", G.n // 2
        return "SpinEven", G.n // 2
    if G.family in EXCEPTIONAL:
        return G.family, None
    return G.family, G.n


def type_of(G: LieGroupSpec) -> tuple[int, ...]:
    """The type multiset: exponents n_i with G rationally a product of
    spheres S^(2 n_i + 1), sorted ascending.

    >>> type_of(LieGroupSpec("SU", 4))
    (1, 2, 3)
    >>> type_of(LieGroupSpec("Spin", 8))
    (1, 3, 3, 5)
    >>> type_of(LieGroupSpec("G2"))
    (1, 5)
    """
    key, n = _family_key(G)
    if key == "SU":
        return tuple(range(1, n))
    if key == "SpinEven":  # Spin(2n): 1, 3, ..., 2n-3 plus n-1
        return tuple(sorted(tuple(range(1, 2 * n - 2, 2)) + (n - 1,)))
    if key in EXCEPTIONAL:
        return _EXCEPTIONAL_TYPE[key]
    return tuple(range(1, 2 * n, 2))  # Sp(n) and Spin(2n+1): 1, 3, ..., 2n-1


def l_of(G: LieGroupSpec) -> int:
    """l(G) = max(type_of(G)), read per family without building the type.

    >>> l_of(LieGroupSpec("SU", 10**12)), l_of(LieGroupSpec("Spin", 8)), l_of(LieGroupSpec("E8"))
    (999999999999, 5, 29)
    """
    key, n = _family_key(G)
    if key == "SU":
        return n - 1
    if key == "SpinEven":
        return 2 * n - 3
    if key in EXCEPTIONAL:
        return _EXCEPTIONAL_TYPE[key][-1]
    return 2 * n - 1  # Sp(n) and Spin(2n+1)


def rank_of(G: LieGroupSpec) -> int:
    """rank(G) = len(type_of(G)), read per family without building the type.

    >>> rank_of(LieGroupSpec("SU", 10**12)), rank_of(LieGroupSpec("Spin", 9))
    (999999999999, 4)
    """
    key, n = _family_key(G)
    if key == "SU":
        return n - 1
    if key in EXCEPTIONAL:
        return len(_EXCEPTIONAL_TYPE[key])
    return n  # Sp(n), Spin(2n+1) and Spin(2n)


def rational_degrees(G: LieGroupSpec) -> tuple[int, ...]:
    """Degrees of the rational sphere factors, 2 n_i + 1."""
    return tuple(2 * n + 1 for n in type_of(G))


# -- pi_4 and regularity -----------------------------------------------------


def _pi4_is_z2(G: LieGroupSpec) -> bool:
    """Is pi_4(G) = Z/2? True for SU(2), every Sp(n) and Spin(5); every
    other G has pi_4(G) = 0. The one statement of which groups carry pi_4."""
    return (G.family == "SU" and G.n == 2) or G.family == "Sp" or (G.family == "Spin" and G.n == 5)


def pi4(G: LieGroupSpec) -> FGAbelianGroup:
    """Integral pi_4: Z/2 where _pi4_is_z2 says so, else 0."""
    return FGAbelianGroup.cyclic(2) if _pi4_is_z2(G) else FGAbelianGroup.trivial()


def pi4_is_trivial(G: LieGroupSpec, ctx: Localization) -> bool:
    """Does pi_4(G) vanish in the localization?

    Equal to pi4(G).localize(ctx).is_trivial() without building a group:
    pi_4 is Z/2 or 0, and localizing drops the Z/2 exactly when ctx inverts 2.

    >>> pi4_is_trivial(LieGroupSpec("Sp", 2), Localization.integral())
    False
    >>> pi4_is_trivial(LieGroupSpec("Sp", 2), Localization.away_from([2]))
    True
    """
    return not _pi4_is_z2(G) or ctx.inverts(2)


def is_p_regular(G: LieGroupSpec, p: int) -> bool:
    """p-regularity: p >= l(G) + 1 and no p-torsion in H*(G; Z).

    Only the first condition is tested, because it implies the second:
    every torsion prime of H*(G; Z) is at most l(G). The torsion primes are
    2 for Spin(n >= 7) and G2 (l >= 5), 2 and 3 for F4, E6 and E7, and 2, 3
    and 5 for E8 (l = 11, 11, 17 and 29); SU(n) and Sp(n) have none.

    >>> is_p_regular(LieGroupSpec("SU", 4), 5)
    True
    >>> is_p_regular(LieGroupSpec("SU", 4), 3)
    False
    """
    _require_odd_prime(p)
    return p >= l_of(G) + 1


def in_theriault_range(G: LieGroupSpec, p: int) -> bool:
    """Range of validity of the looped-sphere filtration bound.

    >>> in_theriault_range(LieGroupSpec("SU", 7), 5)
    True
    >>> in_theriault_range(LieGroupSpec("SU", 14), 5)
    False
    """
    _require_odd_prime(p)
    return _in_range(*_family_key(G), p)


def _in_range(key: str, n: int | None, p: int) -> bool:
    """in_theriault_range for G's family key and parameter, at an odd prime p."""
    bound = (p - 1) * (p - 2)
    if key == "SU":
        return n - 1 <= bound
    if key == "SpinEven":
        return 2 * (n - 1) <= bound
    if key in EXCEPTIONAL:
        return p >= (7 if key in ("E7", "E8") else 5)
    return 2 * n <= bound  # Sp(n) and Spin(2n+1)


def _require_odd_prime(p: int) -> None:
    """The one check that p is an odd prime, for every odd-primary entry
    point; a ValueError names what failed."""
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    if p == 2:
        raise ValueError("odd primes only")


# -- catalog file ------------------------------------------------------------

_DEFAULT_CATALOG = os.path.join(os.path.dirname(__file__), "data", "catalog.txt")

_ORD_FORMULAS = {
    "n(n^2-1)": lambda n: n * (n * n - 1),
    "n(2n+1)": lambda n: n * (2 * n + 1),
    "(n-1)(2n-1)": lambda n: (n - 1) * (2 * n - 1),
}
_R_FORMULAS = {
    "nu_p((n-1)!)": lambda n, p: legendre_valuation(n - 1, p),
    "nu_p((2n-1)!)": lambda n, p: legendre_valuation(2 * n - 1, p),
    "nu_p((2n-3)!)": lambda n, p: legendre_valuation(2 * n - 3, p),
}
_RANGE_TAGS = {
    "su_range": lambda n, p: p >= 3 and n <= (p - 1) ** 2 + 1,
    "symp_range": lambda n, p: p >= 3 and 2 * n <= (p - 1) ** 2 + 1,
    "spin_even_range": lambda n, p: p >= 5 and 2 * (n - 1) <= (p - 1) ** 2 + 1,
}
_FAMILY_KEYS = ("SU", "Sp", "SpinOdd", "SpinEven", "G2", "F4", "E6", "E7", "E8")


def prime_cond_interval(tag: str) -> tuple[int, float]:
    """The least and greatest prime covered by a 'p=K' or 'p>=K' tag.

    >>> prime_cond_interval("p=5"), prime_cond_interval("p>=11")
    ((5, 5), (11, inf))
    """
    if tag.startswith("p>="):
        return int(tag[3:]), math.inf
    if tag.startswith("p="):
        return int(tag[2:]), int(tag[2:])
    raise CatalogError(f"unknown prime condition {tag!r}")


def prime_cond_holds(tag: str, p: int, n: int | None = None) -> bool:
    """Does the catalog prime condition `tag` hold at p, for the family
    parameter n (read by the range tags only)?

    >>> prime_cond_holds("p>=11", 13), prime_cond_holds("p=5", 7)
    (True, False)
    """
    if tag == "all":
        return True
    if tag in _RANGE_TAGS:
        return _RANGE_TAGS[tag](n, p)
    least, greatest = prime_cond_interval(tag)
    return least <= p <= greatest


class CatalogRow(Value):
    family_key: str
    param: int | None  # None means any n (a * row) or no parameter (a - row)
    prime_cond: str
    ord_spec: str
    r_spec: str

    def __init__(
        self, family_key: str, param: int | None, prime_cond: str, ord_spec: str, r_spec: str
    ) -> None:
        self.__dict__.update(
            family_key=family_key, param=param, prime_cond=prime_cond, ord_spec=ord_spec,
            r_spec=r_spec,
            # not fields, parsed here once: the (least, greatest) prime of a
            # p=K / p>=K tag (None for the tags that need n), and the integer
            # ord and r cells (None for a formula)
            interval=(
                None if prime_cond == "all" or prime_cond in _RANGE_TAGS
                else prime_cond_interval(prime_cond)
            ),
            ord_int=int(ord_spec) if ord_spec.isdecimal() else None,
            r_int=int(r_spec) if r_spec.isdecimal() else None,
        )

    def _holds_at(self, p: int | None, n: int | None) -> bool:
        """prime_cond_holds for this row's tag, without parsing it again;
        p = None asks whether the row holds at every prime."""
        if p is None:
            return self.prime_cond == "all"
        if self.interval is None:
            return prime_cond_holds(self.prime_cond, p, n)
        return self.interval[0] <= p <= self.interval[1]

    def ord_value(self, n: int | None) -> int:
        if self.ord_int is None:
            return _ORD_FORMULAS[self.ord_spec](n)
        return self.ord_int

    def r_value(self, n: int | None, p: int) -> int:
        if self.r_int is None:
            return _R_FORMULAS[self.r_spec](n, p)
        return self.r_int


# path -> (rows in file order, (family key, param) -> rows a lookup reads)
_catalog_cache: dict[str, tuple[tuple[CatalogRow, ...], dict]] = {}


def _catalog_key(path: str | os.PathLike | None) -> str:
    if path is None:
        path = os.environ.get("GAUGE_CATALOG") or _DEFAULT_CATALOG
    return str(path)


def load_catalog(path: str | os.PathLike | None = None) -> tuple[CatalogRow, ...]:
    """Parse the catalog data file (GAUGE_CATALOG env var overrides the
    packaged default). Each path is parsed and indexed once."""
    key = _catalog_key(path)
    if key not in _catalog_cache:
        rows = _parse_catalog(key)
        _catalog_cache[key] = rows, _index_rows(rows)
    return _catalog_cache[key][0]


def _parse_catalog(path: str) -> tuple[CatalogRow, ...]:
    rows: list[CatalogRow] = []
    seen: dict[tuple[str, int | None, str], int] = {}  # (family, param, primes) -> line
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise CatalogError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
        fam, param_s, primes, ord_s, r_s = parts
        if fam not in _FAMILY_KEYS:
            raise CatalogError(f"{path}:{lineno}: unknown family {fam!r}")
        if fam in EXCEPTIONAL:
            if param_s != "-":
                raise CatalogError(
                    f"{path}:{lineno}: {fam} takes no parameter; write -, got {param_s!r}"
                )
            param = None
        elif param_s == "*":
            param = None
        else:
            try:
                param = int(param_s)
            except ValueError:
                raise CatalogError(
                    f"{path}:{lineno}: {fam} needs an integer parameter or *, got {param_s!r}"
                ) from None
        try:
            row = CatalogRow(fam, param, primes, ord_s, r_s)  # parses the tag
        except (CatalogError, ValueError):
            raise CatalogError(f"{path}:{lineno}: unknown prime condition {primes!r}") from None
        if row.interval is not None:  # a p=K or p>=K tag
            K = row.interval[0]
            if not (K < MILLER_RABIN_BOUND and is_prime(K)):
                raise CatalogError(f"{path}:{lineno}: {primes} needs a prime K, got K = {K}")
        if row.ord_int is None and ord_s not in _ORD_FORMULAS:
            raise CatalogError(f"{path}:{lineno}: unknown ord spec {ord_s!r}")
        if row.r_int is None and r_s not in _R_FORMULAS:
            raise CatalogError(f"{path}:{lineno}: unknown r spec {r_s!r}")
        if fam in EXCEPTIONAL:
            _check_exceptional_row(row, f"{path}:{lineno}")
        first = seen.setdefault((fam, param, primes), lineno)
        if first != lineno:
            raise CatalogError(f"{path}:{lineno}: repeats line {first} ({fam} {param_s} {primes})")
        rows.append(row)
    return tuple(rows)


def _check_exceptional_row(row: CatalogRow, where: str) -> None:
    """What the exceptional lookups and the exponent table read of every
    exceptional row: a prime interval, integer cells, ord >= 1, and, for a
    p>=K row, an ord with no prime factor >= K, so that nu_p(ord) = 0 at
    every prime the row covers and its least prime K stands for them all."""
    fam, primes, ord_s = row.family_key, row.prime_cond, row.ord_spec
    if row.interval is None:
        raise CatalogError(f"{where}: {fam} needs a p=K or p>=K tag, got {primes!r}")
    if row.ord_int is None or row.r_int is None:
        raise CatalogError(
            f"{where}: {fam} needs integer ord and r, got {ord_s!r} and {row.r_spec!r}"
        )
    if row.ord_int < 1:
        raise CatalogError(f"{where}: {fam} needs ord >= 1, got {ord_s}")
    least = row.interval[0]
    if row.interval[1] == math.inf and any(q >= least for q in prime_divisors(row.ord_int)):
        raise CatalogError(
            f"{where}: {fam} {primes} needs ord free of primes >= {least}, so that"
            f" p = {least} stands for every prime it covers; got ord {ord_s}"
        )


def _index_rows(rows: tuple[CatalogRow, ...]) -> dict:
    """(family key, param) -> the rows a lookup reads, specific rows first,
    each kind in file order; (family key, None) holds the * and - rows."""
    general: dict[str, list[CatalogRow]] = {}
    specific: dict[tuple[str, int], list[CatalogRow]] = {}
    for row in rows:
        if row.param is None:
            general.setdefault(row.family_key, []).append(row)
        else:
            specific.setdefault((row.family_key, row.param), []).append(row)
    index: dict = {(fam, None): tuple(group) for fam, group in general.items()}
    for (fam, n), group in specific.items():
        index[fam, n] = tuple(group + general.get(fam, []))
    return index


def _index() -> dict:
    # Every lookup loads through the public load_catalog, once, so a wrapper
    # around it (bench/spans.py) sees the catalog each lookup read. The key
    # is passed in so that a lookup reads the environment only once.
    key = _catalog_key(None)
    load_catalog(key)
    return _catalog_cache[key][1]


def _rows_for(G: LieGroupSpec) -> tuple[tuple[CatalogRow, ...], int | None]:
    """Catalog rows matching G, specific-parameter rows first."""
    key, n = _family_key(G)
    index = _index()
    return index.get((key, n)) or index.get((key, None), ()), n


def ord_partial1_tilde(G: LieGroupSpec, p: int | None = None) -> int:
    """Order of the lifted degree-4 connecting map, from the catalog.

    p = None asks for the integral statement; only rows marked valid at all
    primes answer it. A prime p asks for the p-local statement.

    >>> ord_partial1_tilde(LieGroupSpec("SU", 3))
    24
    >>> ord_partial1_tilde(LieGroupSpec("G2"), 5)
    21
    """
    rows, n = _rows_for(G)
    if p is not None and not is_prime(p):
        raise ValueError(f"expected a prime or None, got {p}")
    return _ord_at(G, _row_at(rows, n, p), n, p)


def _row_at(rows: tuple[CatalogRow, ...], n: int | None, p: int | None) -> CatalogRow | None:
    """The first of G's rows (_rows_for) holding at p, or None: one scan finds both cells."""
    for row in rows:
        if row._holds_at(p, n):
            return row
    return None


def _ord_at(G: LieGroupSpec, row: CatalogRow | None, n: int | None, p: int | None) -> int:
    """ord_partial1_tilde from G's row at a checked p (_row_at)."""
    if row is None:
        raise CatalogError(f"order unknown for ({G}, {'integral' if p is None else f'p={p}'})")
    return row.ord_value(n)


def catalog_order(G: LieGroupSpec) -> tuple[int, str]:
    """The raw table value for G and the validity tag of its row.

    Classification uses this as an upper-bound order even when the row is
    only a p-local statement; callers must surface the validity tag.
    """
    rows, n = _rows_for(G)
    if not rows:
        raise CatalogError(f"no catalog row for {G}")
    row = rows[0]
    return row.ord_value(n), row.prime_cond


def r_of(G: LieGroupSpec, p: int) -> int:
    """Loop-power offset r(G, p) for the exponent bound.

    >>> r_of(LieGroupSpec("SU", 7), 5)
    1
    >>> r_of(LieGroupSpec("G2"), 5)
    1
    >>> r_of(LieGroupSpec("E8"), 7)
    2
    """
    if not in_theriault_range(G, p):
        raise CatalogError(f"({G}, p={p}) outside the loop-filtration range")
    rows, n = _rows_for(G)
    return _r_at(G, rows, _row_at(rows, n, p), n, p)


def _r_at(G: LieGroupSpec, rows: tuple, row: CatalogRow | None, n: int | None, p: int) -> int:
    """r_of from G's rows (_rows_for) and, for an exceptional G, its row at p (_row_at)."""
    if G.family in EXCEPTIONAL:
        if row is None:
            raise CatalogError(f"no r value for ({G}, p={p})")
        return row.r_value(n, p)
    if not rows:
        raise CatalogError(f"no catalog row for {G}")
    return rows[0].r_value(n, p)


def _exceptional_catalog() -> tuple[tuple[str, tuple[CatalogRow, ...]], ...]:
    """(family, its rows in file order) for each exceptional family, from one
    read of the catalog index; feeds the exponent-table emitter. The loader
    has proved what the table reads of each row (_check_exceptional_row)."""
    index = _index()
    return tuple((family, index.get((family, None), ())) for family in EXCEPTIONAL)


# -- stable homotopy ---------------------------------------------------------

# Each stable family's least r and pi_r of its stable groups by residue of r:
# SU mod 2, Spin mod 8 (as cyclic orders, 0 encoding Z and 1 the zero group).
# Groups are immutable, so every caller shares these.
_STABLE = {
    "SU": (1, (FGAbelianGroup.trivial(), FGAbelianGroup.free(1))),
    "Spin": (2, tuple(FGAbelianGroup.cyclic(n) for n in (2, 2, 1, 0, 1, 1, 1, 0))),
}


def _stable_family(family: str, r: int | None = None) -> tuple[int, tuple[FGAbelianGroup, ...]]:
    """(least r, Bott groups by residue of r) of the SU or Spin family; the
    one check that a given r is at least the family's least r."""
    try:
        least, groups = _STABLE[family]
    except (KeyError, TypeError):
        raise ValueError(f"stable families are SU and Spin, got {family!r}") from None
    if r is not None and r < least:
        raise ValueError(f"need r >= {least} for {family}, got {r}")
    return least, groups


def stable_pi(family: str, r: int) -> FGAbelianGroup:
    """Stable pi_r for the SU or Spin family (Bott periodicity).

    >>> str(stable_pi("SU", 7)), str(stable_pi("SU", 8))
    ('Z', '0')
    >>> str(stable_pi("Spin", 11)), str(stable_pi("Spin", 13))
    ('Z', '0')
    """
    groups = _stable_family(family, r)[1]
    return groups[r % len(groups)]
