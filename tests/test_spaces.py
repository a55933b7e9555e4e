"""Symbolic space expressions: normalization, rendering, serialization."""

import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauge5
from gauge5 import LieGroupSpec, Localization, RationalGroupModel, SpaceExpr
from gauge5.lie import EXCEPTIONAL
from gauge5.spaces import (
    SpaceAtom,
    em_factor,
    group_degrees,
    group_itself,
    loop_fiber,
    loops_g,
    map_cp2,
    moore_gauge,
    moore_map,
    parse_machine,
    sphere_factor,
)
from test_acceptance import _random_atom

SRC = Path(gauge5.__file__).resolve().parent.parent

_LOCALIZATIONS = (
    Localization.integral(),
    Localization.rational(),
    Localization.at_prime(3),
    Localization.at_prime(5),
    Localization.away_from([2]),
    Localization.away_from([6]),
)

_GROUPS = (
    None,
    LieGroupSpec("SU", 4),
    LieGroupSpec("E7"),
    RationalGroupModel.parse("3,5"),
    RationalGroupModel.parse("3/4"),
)


def _random_expr(rng: random.Random) -> SpaceExpr:
    atoms = [_random_atom(rng) for _ in range(rng.randint(0, 7))]
    return SpaceExpr.of(
        atoms,
        localization=rng.choice(_LOCALIZATIONS),
        group=rng.choice(_GROUPS),
        c=rng.choice([5, 9, 12, 30]),
    )


def test_atoms_merge_and_sort_on_construction():
    e = SpaceExpr.of([loops_g(5), loops_g(4), loops_g(5), group_itself()], c=5)
    assert e.atoms == ((group_itself(), 1), (loops_g(4), 1), (loops_g(5), 2))
    assert dict(e.atoms).get(loops_g(5), 0) == 2
    assert sum(m for _, m in e.atoms) == 4


def test_normalize_moore_mapping_space_becomes_power_map_fiber():
    e = SpaceExpr.of([moore_map(4)], c=9)
    assert e.normalize().atoms == ((loop_fiber(3), 1),)
    e2 = SpaceExpr.of([moore_map(3, 2)], c=9)
    assert e2.normalize().atoms == ((loop_fiber(4), 1),)


def test_normalize_drops_power_map_fiber_away_from_c():
    e = SpaceExpr.of([loop_fiber(3)], localization=Localization.away_from([5]), c=5)
    assert not e.normalize().atoms
    kept = SpaceExpr.of([loop_fiber(3)], localization=Localization.away_from([2]), c=5)
    assert kept.normalize().atoms


def test_normalize_collapses_moore_gauge_away_from_c():
    ctx = Localization.away_from([10])
    e = SpaceExpr.of([moore_gauge(2, 1), moore_gauge(0, 3)], localization=ctx, c=5)
    assert e.normalize().atoms == ((group_itself(), 1), (loops_g(2), 1))


def test_normalize_splits_suspended_projective_plane_away_from_two():
    ctx = Localization.away_from([6])
    e = SpaceExpr.of([map_cp2(1)], localization=ctx, c=3)
    assert e.normalize().atoms == ((loops_g(3), 1), (loops_g(5), 1))
    untouched = SpaceExpr.of([map_cp2(1)], localization=Localization.away_from([3]), c=3)
    assert untouched.normalize().atoms == ((map_cp2(1), 1),)


def test_normalize_drops_low_spheres_and_rational_tail():
    model = RationalGroupModel.parse("3,5")
    e = SpaceExpr.of(
        [sphere_factor(1), em_factor(0), sphere_factor(3), loops_g(5), loops_g(4)],
        localization=Localization.rational(),
        group=model,
        c=5,
    )
    # top rational degree of the model is 5: loops beyond survive only below it
    assert e.normalize().atoms == ((loops_g(4), 1), (sphere_factor(3), 1))


_LIE_UP_TO_60 = [
    LieGroupSpec(family, n)
    for family, low in (("SU", 2), ("Sp", 1), ("Spin", 5))
    for n in range(low, 61)
] + [LieGroupSpec(family) for family in EXCEPTIONAL]

_MODELS = st.builds(
    RationalGroupModel,
    st.lists(st.integers(1, 40).map(lambda i: 2 * i + 1), max_size=5),
    st.lists(st.integers(1, 40).map(lambda i: 2 * i), max_size=3),
)


def test_rational_normalize_keeps_loops_just_below_the_top_degree_of_every_small_group():
    for G in _LIE_UP_TO_60:
        top = max(group_degrees(G))
        e = SpaceExpr.of(
            [loops_g(top - 1), loops_g(top), moore_gauge(top - 1, 1), moore_gauge(top, 1)],
            localization=Localization.rational(), group=G,
        )
        assert e.normalize().atoms == ((moore_gauge(top - 1, 1), 1), (loops_g(top - 1), 1)), G


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.sampled_from(_LIE_UP_TO_60), _MODELS),
    st.lists(st.tuples(st.booleans(), st.integers(0, 130)), max_size=6),
    st.sampled_from([None, 5]),
)
def test_rational_normalize_drops_what_the_per_atom_rule_dropped(group, looped, c):
    # the rule normalize once applied to each looped atom: drop it at or past
    # max(group_degrees(group)), which built a Lie group's whole type tuple
    top = max(group_degrees(group), default=0)
    atoms = [moore_gauge(j, 1) if gauge else loops_g(j) for gauge, j in looped]
    e = SpaceExpr.of(atoms, localization=Localization.rational(), group=group, c=c)
    # a rational context inverts c, so a Moore-space gauge group collapses to G
    rewritten = [loops_g(a.j) if c is not None and a.kind == "moore_gauge" else a for a in atoms]
    kept = [a for a in rewritten if a.kind not in ("loops_g", "moore_gauge") or a.j < top]
    assert e.normalize() == SpaceExpr.of(kept, localization=e.localization, group=group, c=c)


def test_normalize_idempotent_and_order_insensitive():
    rng = random.Random(31)
    for _ in range(500):
        e = _random_expr(rng)
        once = e.normalize()
        assert once.normalize() == once
        shuffled = list(e.atoms)
        rng.shuffle(shuffled)
        again = SpaceExpr(tuple(shuffled), e.localization, e.group, e.c).normalize()
        assert again == once


def test_normalize_confluent_under_partial_rewrites():
    # applying the mapping-space rule by hand first must not change the result
    rng = random.Random(32)
    for _ in range(300):
        e = _random_expr(rng)
        rewritten = [
            (loop_fiber(atom.j + atom.n - 1) if atom.kind == "moore_map" else atom, mult)
            for atom, mult in e.atoms
        ]
        partial = SpaceExpr(tuple(rewritten), e.localization, e.group, e.c)
        assert partial.normalize() == e.normalize()


def test_machine_round_trip():
    rng = random.Random(33)
    for _ in range(400):
        e = _random_expr(rng)
        assert parse_machine(e.machine()) == e
        n = e.normalize()
        assert parse_machine(n.machine()) == n


def test_pretty_rendering():
    e = SpaceExpr.of(
        [moore_gauge(2, 1), loop_fiber(3), loops_g(4), loops_g(5), loops_g(7)], c=5
    )
    assert e.pretty() == "Ω²G₁(P⁴(5)) × Ω³G{5} × Ω⁴G × Ω⁵G × Ω⁷G"
    powers = SpaceExpr.of([loops_g(4), loops_g(4), map_cp2(3)], c=5)
    assert powers.pretty() == "Ω³Map*₀(CP²,G) × (Ω⁴G)²"
    assert SpaceExpr.of([], c=5).pretty() == "*"
    assert SpaceExpr.of([map_cp2(1), group_itself()], c=3).pretty() == "G × ΩMap*₀(CP²,G)"
    assert SpaceExpr.of([sphere_factor(3), em_factor(4)], c=2).pretty() == "S³ × K(Q,4)"


def test_moore_gauge_labels_are_read_mod_c():
    e = SpaceExpr.of([moore_gauge(2, 7)], c=5)
    assert e == SpaceExpr.of([moore_gauge(2, 2)], c=5)
    assert e.pretty() == "Ω²G₂(P⁴(5))"
    assert e.normalize() == SpaceExpr.of([moore_gauge(2, 2)], c=5).normalize()
    # labels k and k + c merge into one factor
    assert SpaceExpr.of([moore_gauge(2, 1), moore_gauge(2, 6)], c=5).atoms == (
        (moore_gauge(2, 1), 2),
    )
    # without c there is nothing to reduce by
    assert SpaceExpr.of([moore_gauge(2, 7)]).atoms == ((moore_gauge(2, 7), 1),)
    record = "expr localization=integral group=- c=5\natom kind=moore_gauge j=2 n=- k=7 mult=1"
    assert parse_machine(record) == e
    with pytest.raises(ValueError, match="c must be >= 2"):
        SpaceExpr.of([moore_gauge(2, 7)], c=0)


def test_atom_validation():
    with pytest.raises(ValueError):
        loops_g(-1)
    with pytest.raises(ValueError):
        moore_map(1)  # needs a cell dimension >= 2
    with pytest.raises(ValueError):
        moore_gauge(2, -1)


@pytest.mark.parametrize(
    "kind, fields, named",
    [
        ("loops_g", dict(j=1, n=0), "n=0"),
        ("group", dict(n=3), "n=3"),
        ("map_cp2", dict(j=2, n=4), "n=4"),
        ("group", dict(k=0), "k=0"),
        ("loop_fiber", dict(j=3, k=1), "k=1"),
        ("sphere", dict(n=3, k=2), "k=2"),
        ("group", dict(j=2), "j=2"),
        ("sphere", dict(j=3, n=5), "j=3"),
        ("em", dict(j=1, n=4), "j=1"),
        ("loops_g", dict(), "j >= 1"),
    ],
)
def test_atom_refuses_fields_its_kind_never_reads(kind, fields, named):
    with pytest.raises(ValueError, match=rf"^{kind} atom .*{named}"):
        SpaceAtom(kind, **fields)
    # the machine parser builds atoms through the same constructor
    text = f"expr localization=integral group=- c=5\natom kind={kind} j={fields.get('j', 0)}"
    text += f" n={fields.get('n', '-')} k={fields.get('k', '-')} mult=1"
    with pytest.raises(ValueError, match=rf"^{kind} atom "):
        parse_machine(text)


def test_loop_atoms_inside_the_table_are_shared():
    for j in range(9):
        assert loops_g(j) is loops_g(j)
    assert group_itself() is group_itself() is loops_g(0)


@pytest.mark.parametrize("j", range(13))
def test_loop_atoms_equal_a_fresh_atom_past_the_table(j):
    fresh = SpaceAtom("loops_g", j=j) if j else SpaceAtom("group")
    assert loops_g(j) == fresh
    assert hash(loops_g(j)) == hash(fresh)


def test_omega_zero_is_the_group_atom():
    # Omega^0 G once printed like G yet compared unequal to it, so the
    # canonical form depended on input order
    assert loops_g(0) == group_itself()
    assert SpaceExpr.of([group_itself(), loops_g(0)]).pretty() == "(G)²"


def test_pickled_atom_rehashes_under_another_hash_seed():
    # the hash is stored at construction, and a string's hash depends on the
    # process; a pickle must not carry it into another process
    atom = moore_gauge(2, 1)
    code = (
        "import pickle, sys; from gauge5.spaces import moore_gauge;"
        " a = pickle.loads(sys.stdin.buffer.read());"
        " print(hash(a) == hash(moore_gauge(2, 1)), {a: 1}.get(moore_gauge(2, 1)))"
    )
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(atom), capture_output=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}, check=True,
        )
        assert out.stdout.decode().split() == ["True", "1"]


_ATOMS = st.one_of(
    st.just(group_itself()),
    st.builds(loops_g, st.integers(1, 9)),
    st.builds(loop_fiber, st.integers(0, 9)),
    st.builds(moore_gauge, st.integers(0, 6), st.integers(0, 8)),
    st.builds(moore_map, st.integers(2, 6), st.integers(0, 5)),
    st.builds(map_cp2, st.integers(0, 6)),
    st.builds(sphere_factor, st.integers(0, 9)),
    st.builds(em_factor, st.integers(0, 9)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_ATOMS, st.integers(1, 3)), max_size=8),
    st.sampled_from(_LOCALIZATIONS),
    st.sampled_from(_GROUPS),
    st.sampled_from([5, 9, 12, 30]),
    st.data(),
)
def test_canonical_form_ignores_order_and_splitting(pairs, ctx, group, c, data):
    def build(items):
        return SpaceExpr(tuple(items), localization=ctx, group=group, c=c)

    e = build(pairs)
    assert build(data.draw(st.permutations(pairs))) == e
    # one multiplicity split across repeated entries
    split = [(atom, 1) for atom, mult in pairs for _ in range(mult)]
    assert build(data.draw(st.permutations(split))) == e
    for expr in (e, e.normalize()):
        keys = [atom._key for atom, _ in expr.atoms]
        assert keys == sorted(set(keys))  # ascending, and no two atoms share a key
        assert len({atom.pretty(c) for atom, _ in expr.atoms}) == len(keys)
    assert e.normalize().normalize() == e.normalize()
    for atom, _ in pairs:
        assert hash(SpaceAtom(atom.kind, atom.j, atom.k, atom.n)) == hash(atom)


def test_rational_rank_of_group_counts_type_degrees():
    G = LieGroupSpec("SU", 4)  # rational degrees 3, 5, 7
    alone = SpaceExpr.of([group_itself()], group=G, c=5)
    for q, expected in ((3, 1), (5, 1), (7, 1), (4, 0), (9, 0)):
        assert alone.rational_rank(q) == expected
    assert SpaceExpr.of([], group=G, c=5).rational_rank(3) == 0


def test_rational_rank_sees_through_loops_and_ignores_torsion_atoms():
    G = LieGroupSpec("SU", 4)
    e = SpaceExpr.of(
        [moore_gauge(2, 1), loop_fiber(3), loops_g(4), loops_g(5), loops_g(7)],
        group=G,
        c=5,
    )
    # q=1: moore_gauge(2) sees pi_3, loops_g(4) sees pi_5; the fiber is torsion
    assert e.rational_rank(1) == 2
    assert e.rational_rank(2) == 1  # pi_7 through loops_g(5)
    # the suspended-plane factor contributes pi_{q+j+2} and pi_{q+j+4}
    cp = SpaceExpr.of([map_cp2(3)], group=LieGroupSpec("SU", 5), c=5)
    assert cp.rational_rank(2) == 2  # degrees 7 and 9 both present for SU(5)
    assert cp.rational_rank(3) == 0
    with pytest.raises(ValueError):
        cp.rational_rank(0)


def _two_pass_normalize(e: SpaceExpr) -> SpaceExpr:
    """The earlier body of normalize(), kept as the oracle: every rewrite in
    one pass, every drop in a second, and a fresh expression either way."""
    ctx = e.localization
    away_c = e.c is not None and ctx.inverts_all_of(e.c)
    rewritten = []
    for atom, mult in e.atoms:
        if atom.kind == "moore_map":
            atom = loop_fiber(atom.j + atom.n - 1)
        if away_c and atom.kind == "loop_fiber":
            continue
        if away_c and atom.kind == "moore_gauge":
            atom = loops_g(atom.j)
        if atom.kind == "map_cp2" and ctx.inverts(2):
            rewritten.append((loops_g(atom.j + 2), mult))
            rewritten.append((loops_g(atom.j + 4), mult))
            continue
        rewritten.append((atom, mult))
    out = []
    for atom, mult in rewritten:
        if atom.kind in ("sphere", "em") and atom.n <= 1:
            continue
        looped = atom.kind in ("loops_g", "moore_gauge")
        if ctx.kind == "rational" and e.group is not None and looped:
            if atom.j >= max(group_degrees(e.group), default=0):
                continue
        out.append((atom, mult))
    return SpaceExpr(tuple(out), e.localization, e.group, e.c)


# every localization kind, with inverted sets that hold all, some or none of c's primes
_EVERY_LOCALIZATION = _LOCALIZATIONS + (
    Localization.at_prime(2),
    Localization.away_from([3]),
    Localization.away_from([5]),
    Localization.away_from([2, 3, 5]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_ATOMS, st.integers(1, 3)), max_size=8),
    st.sampled_from(_EVERY_LOCALIZATION),
    st.sampled_from(_GROUPS + (LieGroupSpec("SU", 2), LieGroupSpec("G2"))),
    st.sampled_from([None, 2, 4, 12, 30, 3, 5, 9, 15]),
)
def test_one_pass_normalize_equals_the_two_pass_oracle(pairs, ctx, group, c):
    e = SpaceExpr(tuple(pairs), localization=ctx, group=group, c=c)
    want = _two_pass_normalize(e)
    got = e.normalize()
    assert got == want
    # no rule fires exactly when the oracle changes nothing, and then e itself comes back
    assert (got is e) == (want == e)
    assert got.normalize() is got  # idempotent: a normal form fires no rule


def test_normalize_returns_the_expression_itself_when_no_rule_fires():
    G = LieGroupSpec("SU", 4)
    for e in (
        SpaceExpr.of([group_itself(), loops_g(5), (loops_g(2), 3), (loops_g(3), 3)],
                     localization=Localization.away_from([2]), group=G, c=4),
        SpaceExpr.of([moore_gauge(2, 1), loop_fiber(3), loops_g(7)], group=G, c=5),
        SpaceExpr.of([map_cp2(1), loops_g(2)], localization=Localization.at_prime(2), c=3),
        SpaceExpr.of([sphere_factor(3), em_factor(2)], localization=Localization.rational()),
        SpaceExpr.of([]),
    ):
        assert e.normalize() is e
        assert e.normalize().normalize() is e
    fired = SpaceExpr.of([moore_map(3, 1), loops_g(2)], group=G, c=5)
    normal = fired.normalize()
    assert normal is not fired and normal.normalize() is normal
