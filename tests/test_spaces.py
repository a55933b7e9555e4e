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
from gauge5.spaces import (
    SpaceAtom,
    em_factor,
    group_itself,
    loop_fiber,
    loops_g,
    map_cp2,
    moore_gauge,
    moore_map,
    parse_machine,
    sphere_factor,
)

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


def _random_atom(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return group_itself()
    if kind == 1:
        return loops_g(rng.randint(0, 9))
    if kind == 2:
        return loop_fiber(rng.randint(0, 9))
    if kind == 3:
        return moore_gauge(rng.randint(0, 6), rng.randint(0, 8))
    if kind == 4:
        return moore_map(rng.randint(2, 6), rng.randint(0, 5))
    if kind == 5:
        return map_cp2(rng.randint(0, 6))
    if kind == 6:
        return sphere_factor(rng.randint(0, 9))
    return em_factor(rng.randint(0, 9))


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
    assert e.multiplicity(loops_g(5)) == 2
    assert e.total_factors() == 4


def test_normalize_moore_mapping_space_becomes_power_map_fiber():
    e = SpaceExpr.of([moore_map(4)], c=9)
    assert e.normalize().atoms == ((loop_fiber(3), 1),)
    e2 = SpaceExpr.of([moore_map(3, 2)], c=9)
    assert e2.normalize().atoms == ((loop_fiber(4), 1),)


def test_normalize_drops_power_map_fiber_away_from_c():
    e = SpaceExpr.of([loop_fiber(3)], localization=Localization.away_from([5]), c=5)
    assert e.normalize().is_empty()
    kept = SpaceExpr.of([loop_fiber(3)], localization=Localization.away_from([2]), c=5)
    assert not kept.normalize().is_empty()


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
        keys = [atom.sort_key() for atom, _ in expr.atoms]
        assert keys == sorted(set(keys))  # ascending, and no two atoms share a key
        assert len({atom.pretty(c) for atom, _ in expr.atoms}) == len(keys)
    assert e.normalize().normalize() == e.normalize()
    for atom, _ in pairs:
        assert hash(atom.replace()) == hash(atom)


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
