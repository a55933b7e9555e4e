"""Five-manifold data model, homology, and suspension splittings.

A manifold spec records the invariants the decomposition theory consumes:
the order c of the (cyclic) fundamental group, the rank m - 1 of H_2, a spin
flag, stable parallelizability, and whether the top cell is a single 5-cell.
Alongside it live the Moore-space homotopy groups that feed the gauge-group
computations, and the wedge splittings of the 2-, 3-, and 4-fold suspensions.

Hypotheses on c (odd, or coprime to 6) are enforced exactly where the
underlying statements require them; nothing is extrapolated to even c.
The require_* helpers below are the one place where each hypothesis of the
theory is checked and worded; every other module calls them.
"""

from math import gcd

from .abelian import FGAbelianGroup
from .errors import HypothesisError, require_listable
from .localization import Localization
from .value import Value


class ManifoldSpec(Value):
    """A closed orientable 5-manifold with pi_1 = Z/c and torsion-free H_2.

    >>> M = ManifoldSpec(c=5, m=3)
    >>> M.spin, M.stably_parallelizable, M.single_top_cell
    (True, False, False)
    """

    c: int
    m: int
    spin: bool
    stably_parallelizable: bool
    single_top_cell: bool

    def __init__(
        self,
        c: int,
        m: int,
        spin: bool = True,
        stably_parallelizable: bool = False,
        single_top_cell: bool = False,
    ) -> None:
        require_moore_order(c)  # a finite nontrivial pi_1
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.__dict__.update(
            c=c, m=m, spin=spin, stably_parallelizable=stably_parallelizable,
            single_top_cell=single_top_cell,
        )


# -- hypotheses ----------------------------------------------------------------


def require_moore_order(c: int) -> None:
    """c >= 2: the one check of the order c, of pi_1(M) or of a Moore space."""
    if c < 2:
        raise ValueError(f"c must be >= 2, got {c}")


def require_odd(c: int) -> None:
    """2 ∤ c, after require_moore_order, so a bare c below 2 is refused first."""
    require_moore_order(c)
    if c % 2 == 0:
        raise HypothesisError(f"hypothesis 2 ∤ c fails: c = {c}")


def require_not_divisible_by_6(c: int) -> None:
    """6 ∤ c."""
    if c % 6 == 0:
        raise HypothesisError(f"hypothesis 6 ∤ c fails: c = {c}")


def require_coprime_to_6(c: int) -> None:
    """gcd(6, c) = 1; the message says 6 ∤ c, which callers match on."""
    if c % 2 == 0 or c % 3 == 0:
        raise HypothesisError(f"hypothesis 6 ∤ c fails: c = {c}")


def require_m_at_least_2(M: ManifoldSpec) -> None:
    """m >= 2, i.e. H_2(M) nonzero."""
    if M.m < 2:
        raise HypothesisError(f"hypothesis m >= 2 fails: m = {M.m}")


def require_stably_parallelizable(M: ManifoldSpec) -> None:
    if not M.stably_parallelizable:
        raise HypothesisError("hypothesis stably_parallelizable fails")


def require_single_top_cell(M: ManifoldSpec) -> None:
    if not M.single_top_cell:
        raise HypothesisError("hypothesis single_top_cell fails")


def require_spin_or_away_from_2(M: ManifoldSpec, away_from_2: bool) -> None:
    """M spin, or 2 inverted: the non-spin form splits only away from 2."""
    if not M.spin and not away_from_2:
        raise HypothesisError("non-spin manifolds need localization away from 2c")


def require_pi4_trivial(G: "LieGroupSpec", ctx: Localization) -> None:
    """pi_4(G) = 0 in ctx: pi_4(G) is Z/2 for SU(2), every Sp(n) and Spin(5),
    else 0, and ctx drops the Z/2 exactly when it inverts 2, so a refusal shows Z/2."""
    z2 = (G.family == "SU" and G.n == 2) or G.family == "Sp" or (G.family == "Spin" and G.n == 5)
    if z2 and not ctx.inverts(2):
        raise HypothesisError(f"hypothesis pi_4(G) = 0 fails: pi_4({G}) = Z/2 ({ctx})")


def homology(M: ManifoldSpec) -> list[FGAbelianGroup]:
    """Integral homology H_0 .. H_5 in canonical form.

    >>> [str(h) for h in homology(ManifoldSpec(c=5, m=3))]
    ['Z', 'Z/5', 'Z^2', 'Z^2 ⊕ Z/5', '0', 'Z']
    """
    Z = FGAbelianGroup.free(1)
    Zc = FGAbelianGroup.cyclic(M.c)
    free_part = FGAbelianGroup.free(M.m - 1)
    return [Z, Zc, free_part, free_part + Zc, FGAbelianGroup.trivial(), Z]


def bundle_classes(
    M: ManifoldSpec, G: "LieGroupSpec", ctx: Localization | None = None
) -> FGAbelianGroup:
    """Principal G-bundles over M up to isomorphism: Z/c when pi_4(G) = 0.

    >>> from gauge5.lie import LieGroupSpec
    >>> str(bundle_classes(ManifoldSpec(c=7, m=2), LieGroupSpec("SU", 3)))
    'Z/7'
    """
    require_pi4_trivial(G, ctx or Localization.integral())
    return FGAbelianGroup.cyclic(M.c)


# -- Moore space homotopy ----------------------------------------------------


def pi_moore_self(n: int, c: int) -> FGAbelianGroup:
    """pi_n of the Moore space P^n(c) for odd c: Z/c at n = 3, zero above.

    >>> str(pi_moore_self(3, 9)), str(pi_moore_self(4, 9))
    ('Z/9', '0')
    """
    require_odd(c)
    if n < 3:
        raise HypothesisError(f"pi_moore_self needs n >= 3, got {n}")
    return FGAbelianGroup.cyclic(c) if n == 3 else FGAbelianGroup.trivial()


def pi6_P4(c: int) -> FGAbelianGroup:
    """pi_6(P^4(c)) = Z/c + Z/gcd(3, c) for odd c.

    >>> str(pi6_P4(9))
    'Z/9 ⊕ Z/3'
    >>> str(pi6_P4(5))
    'Z/5'
    """
    require_odd(c)
    return FGAbelianGroup.from_cyclic_orders(c, gcd(3, c))


# pi_7(P^5(c)) equals pi_6(P^4(c)) in the stable range.
pi7_P5 = pi6_P4


def suspension_image_order(c: int) -> int:
    """Order of the image of the suspension pi_6(P^4(c)) -> pi_7(P^5(c)).

    >>> suspension_image_order(9), suspension_image_order(5)
    (3, 1)
    """
    require_odd(c)
    return gcd(3, c)


_COEFFICIENT_TARGETS = ("S3@4", "S4@5", "P3@4", "P4@5")


def pi_with_coefficients(target: str, c: int) -> FGAbelianGroup:
    """Homotopy with Z/c coefficients for the four fixed targets.

    Target syntax 'space@degree': S3@4 means pi_4(S^3; Z/c), P3@4 means
    pi_4(P^3(c); Z/c), and so on.

    >>> str(pi_with_coefficients("P3@4", 9))
    'Z/9'
    >>> str(pi_with_coefficients("S3@4", 9))
    '0'
    """
    require_odd(c)
    if target not in _COEFFICIENT_TARGETS:
        raise HypothesisError(
            f"unsupported coefficient target {target!r}; known: {_COEFFICIENT_TARGETS}"
        )
    if target == "P3@4":
        return FGAbelianGroup.cyclic(c)
    return FGAbelianGroup.trivial()


# -- wedge expressions and suspension splittings -------------------------------


class WedgeAtom(Value):
    """One summand of a wedge: a sphere, a Moore space, or an opaque rest.

    kind 'sphere': S^n; kind 'moore': P^n(c) = S^(n-1) with an n-cell glued
    by degree c; kind 'opaque': an unidentified complex carrying only its
    reduced-homology ledger (degree -> group), so homology checks stay
    possible. Only a Moore atom has an order c, and only a sphere or Moore
    atom a dimension n; the others have None.
    """

    kind: str
    n: int | None
    c: int | None
    tag: str
    ledger: tuple[tuple[int, FGAbelianGroup], ...]

    def __init__(
        self,
        kind: str,
        n: int | None = None,
        c: int | None = None,
        tag: str = "",
        ledger: tuple[tuple[int, FGAbelianGroup], ...] = (),
    ) -> None:
        if kind not in ("sphere", "moore", "opaque"):
            raise ValueError(f"unknown wedge atom kind {kind!r}")
        if kind in ("sphere", "moore") and (n is None or n < 2):
            raise ValueError(f"wedge atom dimension must be >= 2, got {n}")
        if kind == "moore":
            if c is None:
                raise ValueError("Moore atom needs an order c")
            require_moore_order(c)
        # each kind takes only the fields it reads: atoms that print alike compare equal
        if c is not None and kind != "moore":
            raise ValueError(f"{kind} atom takes no order c, got c={c}")
        if n is not None and kind == "opaque":
            raise ValueError(f"opaque atom takes no dimension n, got n={n}")
        if (tag or ledger) and kind != "opaque":
            raise ValueError(f"{kind} atom takes no tag or ledger")
        self.__dict__.update(kind=kind, n=n, c=c, tag=tag, ledger=ledger)

    def reduced_homology(self) -> dict[int, FGAbelianGroup]:
        if self.kind == "sphere":
            return {self.n: FGAbelianGroup.free(1)}
        if self.kind == "moore":
            return {self.n - 1: FGAbelianGroup.cyclic(self.c)}
        return {deg: grp for deg, grp in self.ledger}

    def __str__(self) -> str:
        if self.kind == "sphere":
            return f"S^{self.n}"
        if self.kind == "moore":
            return f"P^{self.n}({self.c})"
        return f"[{self.tag}]"


def sphere(n: int) -> WedgeAtom:
    return WedgeAtom("sphere", n=n)


def moore(n: int, c: int) -> WedgeAtom:
    return WedgeAtom("moore", n=n, c=c)


def opaque(tag: str, ledger: dict[int, FGAbelianGroup]) -> WedgeAtom:
    items = tuple(sorted(ledger.items(), key=lambda kv: kv[0]))
    return WedgeAtom("opaque", tag=tag, ledger=items)


_WEDGE_KIND_ORDER = {"sphere": 0, "moore": 1, "opaque": 2}


class WedgeExpr(Value):
    """A formal wedge of atoms, kept in canonical multiset order.

    >>> w = WedgeExpr((sphere(4), moore(6, 5), sphere(4)))
    >>> str(w)
    'S^4 ∨ S^4 ∨ P^6(5)'
    """

    atoms: tuple[WedgeAtom, ...]

    def __init__(self, atoms: tuple[WedgeAtom, ...]) -> None:
        canon = tuple(
            sorted(atoms, key=lambda a: (_WEDGE_KIND_ORDER[a.kind], a.n or 0, a.c or 0, a.tag))
        )
        self.__dict__.update(atoms=canon)

    def reduced_homology(self) -> dict[int, FGAbelianGroup]:
        """Degreewise direct sum over the atoms; trivial degrees omitted."""
        out: dict[int, FGAbelianGroup] = {}
        for atom in self.atoms:
            for deg, grp in atom.reduced_homology().items():
                out[deg] = out.get(deg, FGAbelianGroup.trivial()) + grp
        return {deg: grp for deg, grp in sorted(out.items()) if not grp.is_trivial()}

    def __str__(self) -> str:
        if not self.atoms:
            return "*"
        return " ∨ ".join(str(a) for a in self.atoms)


def suspension_splitting(M: ManifoldSpec, t: int) -> WedgeExpr:
    """Wedge decomposition of the t-fold suspension, t in {2, 3, 4}.

    t = 2 splits the double suspension of the 4-skeleton (2 does not divide
    c); t = 3 splits the full triple suspension up to one opaque summand
    (6 coprime to c, m >= 2); t = 4 needs a single top cell and stable
    parallelizability on top of odd c, and splits completely.

    >>> str(suspension_splitting(ManifoldSpec(c=5, m=3), 2))
    'S^4 ∨ S^4 ∨ S^5 ∨ S^5 ∨ P^4(5) ∨ P^6(5)'
    """
    c, m = M.c, M.m
    if t == 2:
        require_odd(c)
        atoms, spheres, times = [moore(6, c), moore(4, c)], [sphere(5), sphere(4)], m - 1
    elif t == 3:
        require_coprime_to_6(c)
        require_m_at_least_2(M)
        # The remainder complex: its reduced homology is what is left of the
        # shifted homology of M after the split-off summands are removed.
        Z = FGAbelianGroup.free(1)
        rest = opaque("suspended core", {5: Z, 6: Z, 8: Z})
        atoms, spheres, times = [rest, moore(5, c), moore(7, c)], [sphere(6), sphere(5)], m - 2
    elif t == 4:
        require_odd(c)
        require_single_top_cell(M)
        require_stably_parallelizable(M)
        atoms, spheres, times = [sphere(9), moore(8, c), moore(6, c)], [sphere(7), sphere(6)], m - 1
    else:
        raise ValueError(f"suspension splitting only for t in 2..4, got {t}")
    require_listable(len(atoms) + len(spheres) * times)
    return WedgeExpr(tuple(atoms + spheres * times))
