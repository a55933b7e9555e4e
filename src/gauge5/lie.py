"""Catalog of simply connected compact simple Lie groups.

Static data and derived predicates: the rational type (exponents of the
sphere product), l(G) and rank, the ranges, the order of the degree-4
connecting map (drives bundle classification over Moore spaces) and the
loop-power offset r(G, p) of the exponent bounds. pi_4(G) lives in
manifold, and the stable SU and Spin groups in bott.

Each range is one inequality at an odd prime p, stated once in _RANGES:
p >= its least prime and l(G) <= p - 1 (p_regular), (p-1)(p-2) (theriault)
or (p-1)^2 (the catalog's range tags, from p = 5 for spin_even_range, and
trivial_range).

Numeric rows live in data/catalog.txt (override with the GAUGE_CATALOG
environment variable); this module parses and interprets them. Each catalog
path is parsed, checked and indexed once. A CatalogRow is the one check of
a row's tag and cells; it reads its tag once, at build, and _holds_at is the
one answer to which primes it covers. An exceptional row keeps its
published arms (A, B) as base and offset, derives r = B - nu_K(ord) from
them and its group's one ord line, and checks them against _arms; these rows
are the exceptional exponent table. The loader checks the raw columns, each
ord line on its own line, repeats (tags naming the same primes) and the ord
a specific row restates of its * row (_ord_clash), and names the file and
line of any refusal. It groups the rows once, by (family key, parameter), as
it reads them: the repeat check scans a row's group, and the index a lookup
reads is those groups, each specific group followed by its family's * or -
rows, each kind in file order. _lookup is the one resolution of (G, p) of
every catalog reader but catalog_order: one index read (_rows) and one scan,
which returns G's first row that holds at p and nothing else, so an ord or r
is read only from a row that holds.
"""

import math
import os

from .arith import MILLER_RABIN_BOUND, is_prime, legendre_valuation, nu_p, prime_divisors
from .errors import CatalogError
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

    def token(self) -> str:
        """The 'family:param' text that parse reads back; machine records carry it."""
        return self.family if self.n is None else f"{self.family}:{self.n}"

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
    return _l_at(*_family_key(G))


def _l_at(key: str, n: int | None) -> int:
    """l_of for G's family key and parameter (_family_key)."""
    if n is None:  # an exceptional key
        return _EXCEPTIONAL_TYPE[key][-1]
    if key == "SU":
        return n - 1
    if key == "SpinEven":
        return 2 * n - 3
    return 2 * n - 1  # Sp(n) and Spin(2n+1)


def rational_degrees(G: LieGroupSpec) -> tuple[int, ...]:
    """Degrees of the rational sphere factors, 2 n_i + 1."""
    return tuple(2 * n + 1 for n in type_of(G))


# -- ranges ------------------------------------------------------------------

# name -> (least, bound): p >= least and l(G) <= bound(p); trivial_range is trivial_case's
_RANGES = {
    "p_regular": (3, lambda p: p - 1),
    "theriault": (3, lambda p: (p - 1) * (p - 2)),
    "su_range": (3, lambda p: (p - 1) ** 2),
    "symp_range": (3, lambda p: (p - 1) ** 2),
    "spin_even_range": (5, lambda p: (p - 1) ** 2),
    "trivial_range": (3, lambda p: (p - 1) ** 2),
}
_TAGS = ("su_range", "symp_range", "spin_even_range")  # the ranges a catalog row may name


def _within(name: str, l: int, p: int) -> bool:
    """Is l = l(G) in the range `name` at p (_RANGES)?"""
    least, bound = _RANGES[name]
    return p >= least and l <= bound(p)


def is_p_regular(G: LieGroupSpec, p: int) -> bool:
    """p-regularity: l(G) <= p - 1 and no p-torsion in H*(G; Z).

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
    return _within("p_regular", l_of(G), p)


def in_theriault_range(G: LieGroupSpec, p: int) -> bool:
    """Range of validity of the looped-sphere filtration bound: l(G) <= (p-1)(p-2),
    which is p >= 5 for G2, F4 and E6 and p >= 7 for E7 and E8.

    >>> in_theriault_range(LieGroupSpec("SU", 13), 5)
    True
    >>> in_theriault_range(LieGroupSpec("SU", 14), 5)
    False
    """
    _require_odd_prime(p)
    return _within("theriault", l_of(G), p)


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
_FAMILY_KEYS = frozenset(("SU", "Sp", "SpinOdd", "SpinEven", "G2", "F4", "E6", "E7", "E8"))


def _exceptional_ord(family: str, ord_spec: str) -> int:
    """An exceptional group's ord: an integer >= 1, the rule its ord line and its rows keep."""
    if not ord_spec.isdecimal():
        raise CatalogError(f"{family} needs an integer ord, got {ord_spec!r}")
    ord_int = int(ord_spec)
    if ord_int < 1:
        raise CatalogError(f"{family} needs ord >= 1, got {ord_spec}")
    return ord_int


class CatalogRow(Value):
    """One catalog row, checked whole as it is built: the one check of a row's
    tag and cells. The loader adds what reads raw text (columns, family,
    parameter, ord lines), the repeat check and the file:line of a refusal."""

    family: str  # the file's family column: SpinOdd and SpinEven for Spin
    param: int | None  # None means any n (a * row) or no parameter (a - row)
    prime_cond: str
    ord_spec: str  # an exceptional row's is its group's, from the ord line
    cells: tuple[str, ...]  # (r,) on a classical row, the published (A, B) on an exceptional one

    def __init__(
        self, family: str, param: int | None, prime_cond: str, ord_spec: str, cells: tuple
    ) -> None:
        interval = None  # the (least, greatest) prime of a p=K / p>=K tag; the others read n
        if prime_cond != "all" and prime_cond not in _TAGS:
            open_ended = prime_cond.startswith("p>=")
            k = prime_cond[3:] if open_ended else prime_cond[2:] if prime_cond[:2] == "p=" else ""
            try:
                least = int(k)  # K, the least prime the tag covers
            except ValueError:  # 'any', 'p>=x', 'p=': no K, or a malformed one
                raise CatalogError(f"unknown prime condition {prime_cond!r}") from None
            interval = least, math.inf if open_ended else least
            if not (least < MILLER_RABIN_BOUND and is_prime(least)):
                raise CatalogError(f"{prime_cond} needs a prime K, got K = {least}")
        base = offset = None  # the published arms (A, B) of an exceptional row
        if family not in _EXCEPTIONAL_TYPE:  # a classical row
            ord_int = int(ord_spec) if ord_spec.isdecimal() else None  # None for a formula
            if ord_int is None and ord_spec not in _ORD_FORMULAS:
                raise CatalogError(f"unknown ord spec {ord_spec!r}")
            (r_spec,) = cells
            r_int = int(r_spec) if r_spec.isdecimal() else None
            if r_int is None and r_spec not in _R_FORMULAS:
                raise CatalogError(f"unknown r spec {r_spec!r}")
        else:
            # what the exceptional lookups and the table read: a prime interval, integer cells,
            # ord >= 1, a p>=K ord free of primes >= K (K stands for them all), arms that fit at K
            if interval is None:
                raise CatalogError(f"{family} needs a p=K or p>=K tag, got {prime_cond!r}")
            a_spec, b_spec = cells
            if not (a_spec.isdecimal() and b_spec.isdecimal()):
                raise CatalogError(
                    f"{family} needs integer ord, A and B, got {ord_spec!r} and {cells}"
                )
            ord_int = _exceptional_ord(family, ord_spec)
            if interval[1] == math.inf and any(q >= least for q in prime_divisors(ord_int)):
                raise CatalogError(
                    f"{family} {prime_cond} needs ord free of primes >= {least}, so that"
                    f" p = {least} stands for every prime it covers; got ord {ord_spec}"
                )
            base, offset = int(a_spec), int(b_spec)
            nu_ord = nu_p(ord_int, least)
            r_int = offset - nu_ord
            want = _arms(r_int, nu_ord, _l_at(family, None))[0]
            if r_int < 0 or base != want:
                raise CatalogError(
                    f"{family} {prime_cond} needs r = B - nu_{least}(ord {ord_spec}) = {r_int}"
                    f" >= 0 and A = B + r + l(G) = {want}; got A = {base}"
                )
        self.__dict__.update(  # the last five derived once, not fields
            family=family, param=param, prime_cond=prime_cond, ord_spec=ord_spec, cells=cells,
            interval=interval, ord_int=ord_int, r_int=r_int, base=base, offset=offset,
        )

    @property
    def family_key(self) -> str:
        """The family column under its earlier name, which bench/spans.py reads."""
        return self.family

    def _holds_at(self, p: int | None, n: int | None) -> bool:
        """Does this row hold at the prime p, for the family parameter n (read by the range
        tags only, as l(G) of the row's family)? p = None asks whether it holds at every
        prime. The tag was read once, at build; this is the one answer to it."""
        if p is None:
            return self.prime_cond == "all"
        if self.interval is not None:
            return self.interval[0] <= p <= self.interval[1]
        return self.prime_cond == "all" or _within(self.prime_cond, _l_at(self.family, n), p)

    def ord_value(self, n: int | None) -> int:
        if self.ord_int is None:
            return _ORD_FORMULAS[self.ord_spec](n)
        return self.ord_int

    def r_value(self, n: int | None, p: int) -> int:
        if self.r_int is None:
            return _R_FORMULAS[self.cells[0]](n, p)
        return self.r_int


def _arms(r: int, nu_ord: int, l: int) -> tuple[int, int]:
    """The arms (A, B) = (2r + nu_p(ord) + l, r + nu_p(ord)) of the loop-filtration exponent
    r + nu_p(ord) + max(r + l, nu_p(c)) = max(A, nu_p(c) + B): its arithmetic, stated once."""
    return 2 * r + nu_ord + l, r + nu_ord


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
        _catalog_cache[key] = _parse_catalog(key)
    return _catalog_cache[key][0]


def _parse_catalog(path: str) -> tuple[tuple[CatalogRow, ...], dict]:
    """(the rows in file order, their index): (family key, param) -> the rows a lookup
    reads, specific rows first, each kind in file order; (family key, None) holds the
    * and - rows. Each row joins its group as it is read."""
    rows: list[CatalogRow] = []
    groups: dict[tuple, list[tuple[int, CatalogRow]]] = {}  # (family, param) -> (line, row)
    earlier: dict[str, list[tuple[int, CatalogRow]]] = {}  # classical family -> (line, row) so far
    ords: dict[str, tuple[int, str]] = {}  # exceptional family -> (line, ord) of its ord line
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#"):  # a comment line, the most common kind
            continue
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        try:
            if len(parts) == 3 and parts[1] == "ord" and parts[0] in EXCEPTIONAL:
                fam = parts[0]  # "family ord N": an exceptional group's one ord, before its rows
                _exceptional_ord(fam, parts[2])
                if fam in ords:
                    raise CatalogError(f"repeats line {ords[fam][0]} ({fam} ord)")
                ords[fam] = lineno, parts[2]
                continue
            if len(parts) != 5:
                raise CatalogError(f"expected 5 columns, got {len(parts)}")
            fam, param_s, primes, ord_s, cell = parts
            if fam not in _FAMILY_KEYS:
                raise CatalogError(f"unknown family {fam!r}")
            param, cells = None, (cell,)  # a - or * row; a classical row's r
            if fam in _EXCEPTIONAL_TYPE:
                if param_s != "-":
                    raise CatalogError(f"{fam} takes no parameter; write -, got {param_s!r}")
                if fam not in ords:
                    raise CatalogError(f"{fam} row before its ord line ({fam} ord N)")
                ord_s, cells = ords[fam][1], (ord_s, cell)  # the row's cells are A and B
            elif param_s != "*":
                try:
                    param = int(param_s)
                except ValueError:
                    raise CatalogError(
                        f"{fam} needs an integer parameter or *, got {param_s!r}"
                    ) from None
            row = CatalogRow(fam, param, primes, ord_s, cells)  # checks the tag and cells
            group = groups.setdefault((fam, param), [])
            for first, other in group:  # a repeat: a tag naming the same primes
                if (other.interval or other.prime_cond) == (row.interval or primes):
                    raise CatalogError(f"repeats line {first} ({fam} {param_s} {primes})")
            group.append((lineno, row))
            if fam not in _EXCEPTIONAL_TYPE:  # an exceptional row restates no ord
                for other_line, other in earlier.setdefault(fam, []):
                    clash = _ord_clash(row, other, other_line)
                    if clash:
                        raise CatalogError(clash)
                earlier[fam].append((lineno, row))
        except CatalogError as exc:
            raise CatalogError(f"{path}:{lineno}: {exc}") from None
        rows.append(row)
    index = {key: tuple(row for _, row in group) for key, group in groups.items()}
    for fam, n in index:
        if n is not None:
            index[fam, n] += index.get((fam, None), ())
    return tuple(rows), index


def _ord_clash(row: CatalogRow, other: CatalogRow, other_line: int) -> str | None:
    """How a classical row contradicts `other`, a row of its family on an earlier line, or
    None: a specific row restates each * row's ord at its n, p-locally where both hold."""
    if (row.param is None) == (other.param is None):
        return None
    n = row.param if other.param is None else other.param
    a, b = row.ord_value(n), other.ord_value(n)
    if a == b or min(a, b) < 1:  # ord 0 has no p-local reading
        return None

    def text(r: CatalogRow) -> str:
        value = "" if r.ord_int is not None else f" = {r.ord_value(n)}"
        return f"{r.family} {'*' if r.param is None else r.param} ord {r.ord_spec}{value}"

    g = math.gcd(a, b)
    for q in prime_divisors(a // g * (b // g)):  # the primes where a and b differ
        if row._holds_at(q, n) and other._holds_at(q, n):
            return f"{text(row)} differs at p = {q} from line {other_line}'s {text(other)}"
    return None


def _entry() -> tuple[tuple[CatalogRow, ...], dict]:
    # Every lookup loads through the public load_catalog, once, so a wrapper
    # around it (bench/spans.py) sees the catalog each lookup read. The key
    # is passed in so that a lookup reads the environment only once.
    key = _catalog_key(None)
    load_catalog(key)
    return _catalog_cache[key]


def _rows(G: LieGroupSpec) -> tuple[tuple, int | None]:
    """(G's catalog rows, specific-parameter rows first; G's parameter n)."""
    key, n = _family_key(G)
    index = _entry()[1]
    return index.get((key, n)) or index.get((key, None), ()), n


def _lookup(G: LieGroupSpec, p: int | None) -> tuple[CatalogRow | None, int | None]:
    """(the first of G's catalog rows (_rows) that holds at p, or None; G's
    parameter n): the one resolution of (G, p) behind every catalog reader
    but catalog_order, one index read and one scan."""
    rows, n = _rows(G)
    for row in rows:
        if row._holds_at(p, n):
            return row, n
    return None, n


def ord_partial1_tilde(G: LieGroupSpec, p: int | None = None) -> int:
    """Order of the lifted degree-4 connecting map, from the catalog.

    p = None asks for the integral statement; only rows marked valid at all
    primes answer it. A prime p asks for the p-local statement.

    >>> ord_partial1_tilde(LieGroupSpec("SU", 3))
    24
    >>> ord_partial1_tilde(LieGroupSpec("G2"), 5)
    21
    """
    row, n = _lookup(G, p)
    if p is not None and not is_prime(p):
        raise ValueError(f"expected a prime or None, got {p}")
    return _ord_at(G, row, n, p)


def _ord_at(G: LieGroupSpec, row: CatalogRow | None, n: int | None, p: int | None) -> int:
    """ord_partial1_tilde from G's row at a checked p (_lookup)."""
    if row is None:
        raise CatalogError(f"order unknown for ({G}, {'integral' if p is None else f'p={p}'})")
    return row.ord_value(n)


def catalog_order(G: LieGroupSpec) -> tuple[int, str]:
    """The raw table value for G and the validity tag of its row.

    Classification uses this as an upper-bound order even when the row is
    only a p-local statement; callers must surface the validity tag.
    """
    rows, n = _rows(G)  # the first row: no scan
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
    return _r_at(G, *_lookup(G, p), p)


def _r_at(G: LieGroupSpec, row: CatalogRow | None, n: int | None, p: int) -> int:
    """r_of from G's row at p (_lookup)."""
    if row is None:
        raise CatalogError(f"no r value for ({G}, p={p})")
    return row.r_value(n, p)
