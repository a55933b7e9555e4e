"""Formal product expressions for decompositions of looped gauge groups.

An expression is a multiset of atomic factors together with a localization
context, an ambient group, and (where Moore spaces are involved) the cyclic
order c. Atom kinds:

  group         the ambient group G itself
  loops_g       Omega^j G
  loop_fiber    Omega^j G{c}, with G{c} the homotopy fiber of the c-th
                power map on G
  moore_gauge   Omega^j of the gauge group, labeled k, of the 4-dimensional
                mod-c Moore space
  moore_map     Omega^j Map*_0(P^n(c), G)
  map_cp2       Omega^j Map*_0(CP^2, G)
  sphere        S^n (rational factor)
  em            K(Q, n) (rational factor)

normalize() rewrites to a canonical form: pointed mapping spaces out of
Moore spaces become loop fibers; atoms that are contractible in the
expression's localization are removed; the CP^2 factor splits into loop
factors once 2 is inverted; atoms are merged and sorted.

Equality of normalized expressions is structural equality of the underlying
decompositions; nothing finer is claimed.
"""

from . import records
from .arith import is_prime
from .lie import LieGroupSpec, l_of, rational_degrees
from .localization import Localization
from .manifold import require_moore_order
from .value import Value

_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")

_KIND_ORDER = {
    "group": 0,
    "moore_gauge": 1,
    "map_cp2": 2,
    "loop_fiber": 3,
    "moore_map": 4,
    "loops_g": 5,
    "sphere": 6,
    "em": 7,
}


def _by_atom(pair: tuple) -> tuple:  # sort key of an (atom, multiplicity) pair
    return pair[0]._key


def _sup(j: int) -> str:
    return str(j).translate(_SUP)


def _sub(j: int) -> str:
    return str(j).translate(_SUB)


class SpaceAtom(Value):
    kind: str
    j: int  # outer loop degree (loop kinds only)
    k: int | None  # gauge component label (moore_gauge only)
    n: int | None  # dimension (moore_map, sphere, em)

    def __init__(self, kind: str, j: int = 0, k: int | None = None, n: int | None = None) -> None:
        if kind not in _KIND_ORDER:
            raise ValueError(f"unknown atom kind {kind!r}")
        if j < 0:
            raise ValueError(f"loop degree must be >= 0, got {j}")
        if kind == "moore_gauge" and (k is None or k < 0):
            raise ValueError("moore_gauge atom needs a component label k >= 0")
        if kind in ("moore_map", "sphere", "em") and n is None:
            raise ValueError(f"{kind} atom needs a dimension")
        if kind == "moore_map" and n < 2:
            raise ValueError(f"Moore mapping space needs dimension >= 2, got {n}")
        # each kind takes only the fields it reads: unequal atoms never share a key
        if n is not None and kind not in ("moore_map", "sphere", "em"):
            raise ValueError(f"{kind} atom takes no dimension n, got n={n}")
        if k is not None and kind != "moore_gauge":
            raise ValueError(f"{kind} atom takes no component label k, got k={k}")
        if j and kind in ("group", "sphere", "em"):
            raise ValueError(f"{kind} atom takes no loop degree j, got j={j}")
        if not j and kind == "loops_g":
            raise ValueError("loops_g atom needs a loop degree j >= 1 (j = 0 is the group atom)")
        self.__dict__.update(
            kind=kind, j=j, k=k, n=n,
            # not fields: computed once, as each SpaceExpr hashes and sorts its atoms
            _hash=hash((kind, j, k, n)), _key=(_KIND_ORDER[kind], j, n or 0, k or 0),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a string's hash differs between processes
        return SpaceAtom, (self.kind, self.j, self.k, self.n)

    def pretty(self, c: int | None) -> str:
        loops = "" if self.j == 0 else ("Ω" if self.j == 1 else "Ω" + _sup(self.j))
        cc = "c" if c is None else str(c)
        if self.kind in ("group", "loops_g"):
            return loops + "G"
        if self.kind == "loop_fiber":
            return f"{loops}G{{{cc}}}"
        if self.kind == "moore_gauge":
            return f"{loops}G{_sub(self.k)}(P⁴({cc}))"
        if self.kind == "map_cp2":
            return f"{loops}Map*₀(CP²,G)"
        if self.kind == "moore_map":
            return f"{loops}Map*₀(P{_sup(self.n)}({cc}),G)"
        if self.kind == "sphere":
            return "S" + _sup(self.n)
        return f"K(Q,{self.n})"


# G and Omega^j G for the loop degrees the theorems read: immutable, so shared
_LOOPS = {0: SpaceAtom("group"), **{j: SpaceAtom("loops_g", j=j) for j in range(1, 9)}}


def group_itself() -> SpaceAtom:
    return _LOOPS[0]


def loops_g(j: int) -> SpaceAtom:
    """Omega^j G (Omega^0 G is G), shared for j <= 8 and built for a larger j."""
    return _LOOPS.get(j) or SpaceAtom("loops_g", j=j)


def loop_fiber(j: int) -> SpaceAtom:
    return SpaceAtom("loop_fiber", j=j)


def moore_gauge(j: int, k: int) -> SpaceAtom:
    return SpaceAtom("moore_gauge", j=j, k=k)


def moore_map(n: int, j: int = 0) -> SpaceAtom:
    return SpaceAtom("moore_map", j=j, n=n)


def map_cp2(j: int) -> SpaceAtom:
    return SpaceAtom("map_cp2", j=j)


def sphere_factor(n: int) -> SpaceAtom:
    return SpaceAtom("sphere", n=n)


def em_factor(n: int) -> SpaceAtom:
    return SpaceAtom("em", n=n)


def group_degrees(group) -> tuple[int, ...]:
    """Rational homotopy degrees of a group context: a LieGroupSpec or a
    rational.RationalGroupModel, the two kinds the package builds."""
    return rational_degrees(group) if isinstance(group, LieGroupSpec) else group.all_degrees()


class SpaceExpr(Value):
    """Multiset of (atom, multiplicity) with localization and context.

    The constructor reduces each moore_gauge label k mod c (when c is set),
    merges and sorts; normalize() additionally applies the rewrite rules
    described in the module docstring.
    """

    atoms: tuple[tuple[SpaceAtom, int], ...]
    localization: Localization
    group: object | None
    c: int | None

    def __init__(
        self,
        atoms: tuple[tuple[SpaceAtom, int], ...],
        localization: Localization = Localization.integral(),
        group: object | None = None,
        c: int | None = None,
    ) -> None:
        if c is not None:
            require_moore_order(c)
        merged: dict[SpaceAtom, int] = {}
        for atom, mult in atoms:
            if mult < 0:
                raise ValueError(f"negative multiplicity for {atom}")
            if c is not None and atom.kind == "moore_gauge" and atom.k >= c:
                atom = moore_gauge(atom.j, atom.k % c)  # G_k depends on k mod c only
            if mult:
                merged[atom] = merged.get(atom, 0) + mult
        canon = tuple(sorted(merged.items(), key=_by_atom) if len(merged) > 1 else merged.items())
        self.__dict__.update(atoms=canon, localization=localization, group=group, c=c)

    @staticmethod
    def of(atoms, localization=None, group=None, c=None) -> "SpaceExpr":
        """Build from an iterable of atoms or (atom, multiplicity) pairs."""
        pairs = tuple((item, 1) if isinstance(item, SpaceAtom) else item for item in atoms)
        return SpaceExpr(pairs, localization or Localization.integral(), group, c)

    # -- normalization -----------------------------------------------------

    def normalize(self) -> "SpaceExpr":
        """Canonical form, in one pass; idempotent. Each atom is rewritten and
        its products then meet the drop rules, so no rule sees an atom another
        has yet to produce and the order the rules fire does not matter. When
        no rule fires, the expression itself comes back."""
        ctx = self.localization
        away_c = self.c is not None and ctx.inverts_all_of(self.c)
        drops_looped = ctx.kind == "rational" and self.group is not None
        top = None  # the group's top rational degree, read once, by the first looped atom
        changed, out = False, []
        for atom, mult in self.atoms:
            new = atom
            if new.kind == "moore_map":  # a map out of a Moore space is a looped power-map fiber
                new = loop_fiber(new.j + new.n - 1)
            if away_c and new.kind == "loop_fiber":
                changed = True  # the fiber of a now-invertible power map
                continue
            if away_c and new.kind == "moore_gauge":  # over a contractible Moore space: G itself
                new = loops_g(new.j)
            split = new.kind == "map_cp2" and ctx.inverts(2)  # the suspended CP^2 splits away from 2
            changed = changed or split or new is not atom
            for new in (loops_g(new.j + 2), loops_g(new.j + 4)) if split else (new,):
                if new.kind in ("sphere", "em") and new.n <= 1:
                    changed = True  # a point in the simply connected rational model
                    continue
                if drops_looped and new.kind in ("loops_g", "moore_gauge"):
                    if top is None and isinstance(self.group, LieGroupSpec):
                        top = 2 * l_of(self.group) + 1  # without building the type of G
                    elif top is None:
                        top = max(group_degrees(self.group), default=0)
                    if new.j >= top:
                        changed = True  # looped beyond the top rational degree
                        continue
                out.append((new, mult))
        return SpaceExpr(tuple(out), self.localization, self.group, self.c) if changed else self

    # -- rational ranks ------------------------------------------------------

    def rational_rank(self, q: int) -> int:
        """rank of pi_q of the expression after rationalization, q >= 1."""
        if q < 1:
            raise ValueError(f"rational_rank needs q >= 1, got {q}")
        total = 0
        degrees: tuple[int, ...] | None = None
        for atom, mult in self.atoms:
            if atom.kind in ("loop_fiber", "moore_map"):
                continue  # rationally trivial: torsion fiber data only
            if atom.kind == "sphere":
                if atom.n % 2:
                    total += mult * (1 if q == atom.n else 0)
                else:
                    total += mult * (1 if q in (atom.n, 2 * atom.n - 1) else 0)
                continue
            if atom.kind == "em":
                total += mult * (1 if q == atom.n else 0)
                continue
            if degrees is None:
                if self.group is None:
                    raise ValueError("expression has group factors but no group context")
                degrees = group_degrees(self.group)
            if atom.kind in ("group", "loops_g", "moore_gauge"):
                # the Moore-space gauge group is rationally the group itself
                total += mult * degrees.count(q + atom.j)
            elif atom.kind == "map_cp2":
                total += mult * (
                    degrees.count(q + atom.j + 2) + degrees.count(q + atom.j + 4)
                )
        return total

    # -- printing ------------------------------------------------------------

    def pretty(self) -> str:
        """Product notation, e.g. 'Ω²G₁(P⁴(5)) × Ω³G{5} × Ω⁴G'."""
        if not self.atoms:
            return "*"
        parts = []
        for atom, mult in self.atoms:
            body = atom.pretty(self.c)
            parts.append(body if mult == 1 else f"({body}){_sup(mult)}")
        return " × ".join(parts)

    def __str__(self) -> str:
        return self.pretty()

    # -- machine format --------------------------------------------------------

    def machine(self) -> str:
        """Line-delimited records; parse_machine inverts exactly."""
        lines = [
            records.record(
                "expr", localization=_machine_localization(self.localization),
                group=_machine_group(self.group), c=self.c,
            )
        ]
        for a, mult in self.atoms:
            lines.append(records.record("atom", kind=a.kind, j=a.j, n=a.n, k=a.k, mult=mult))
        return "\n".join(lines)


def _machine_localization(ctx: Localization) -> str:
    if ctx.kind in ("integral", "rational"):
        return ctx.kind
    if ctx.kind == "at_prime":
        return f"at:{ctx.prime}"
    return "away:" + ",".join(str(p) for p in sorted(ctx.inverted_set))


def _parse_localization(text: str, line: str) -> Localization:
    if text in ("integral", "rational"):
        return Localization(text)
    if text.startswith("at:"):
        return Localization.at_prime(records.integer(text[3:], "localization", line))
    if text.startswith("away:"):
        primes = frozenset(records.integer(p, "localization", line) for p in text[5:].split(","))
        for p in primes:  # the constructor trusts its set to hold primes; outside text may not
            if not is_prime(p):
                raise ValueError(f"field 'localization' inverts only primes, got {p}: {text!r}")
        return Localization("away_from", inverted_set=primes)
    raise ValueError(f"bad localization record {text!r}")


def _machine_group(group) -> str | None:
    if group is None:
        return None
    if isinstance(group, LieGroupSpec):
        return f"lie:{group.token()}"
    ext = ",".join(str(d) for d in group.exterior_degrees)
    poly = ",".join(str(d) for d in group.polynomial_degrees)
    return f"model:{ext}/{poly}"


def _parse_group(text: str):
    if text == "-":
        return None
    if text.startswith("lie:"):
        return LieGroupSpec.parse(text[4:])
    if text.startswith("model:"):
        from .rational import RationalGroupModel

        return RationalGroupModel.parse(text[6:])
    raise ValueError(f"bad group record {text!r}")


def parse_machine(text: str) -> SpaceExpr:
    """Rebuild a SpaceExpr from its machine records.

    >>> e = SpaceExpr.of([loops_g(4), loops_g(4), loop_fiber(3)], c=5)
    >>> parse_machine(e.machine()) == e
    True
    """
    header: dict | None = None
    pairs: list[tuple[SpaceAtom, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tag, fields = records.parse(line)

        def get(key: str) -> str:
            if key not in fields:
                raise ValueError(f"machine record lacks field {key!r}: {line!r}")
            return fields[key]

        def number(key: str, absent: bool = False) -> int | None:  # '-' is None if absent
            value = get(key)
            return None if absent and value == "-" else records.integer(value, key, line)

        if tag == "expr":
            header = dict(
                localization=_parse_localization(get("localization"), line),
                group=_parse_group(get("group")),
                c=number("c", absent=True),
            )
        elif tag == "atom":
            atom = SpaceAtom(
                get("kind"), j=number("j"), k=number("k", absent=True), n=number("n", absent=True)
            )
            pairs.append((atom, number("mult")))
        else:
            raise ValueError(f"bad machine record {line!r}")
    if header is None:
        raise ValueError("machine text has no expr header")
    return SpaceExpr(tuple(pairs), **header)
