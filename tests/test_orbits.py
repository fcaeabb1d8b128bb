import json

import pytest

from superchar import orbits
from superchar.errors import VerificationError
from superchar.involution_group import GroupSpec, build_group
from superchar.linalg import transpose
from superchar.orbits import (
    closure_of,
    g_left_matrix,
    g_right_matrix,
    h_orbit_of_functional,
    h_orbit_partition_dual,
    left_orbit_in_u,
    left_orbit_of_g_functional,
    left_orbit_partition_g_dual,
    orbit_dump_lines,
    orbit_partition_dual,
    orbit_partition_u,
    partition_space,
    two_sided_canonical,
    two_sided_orbit_partition_g,
    two_sided_orbit_partition_g_dual,
    u_action_matrix,
    walk_moves,
)
from superchar.sct import _constancy_check, theory
from superchar.triangular import MirrorPoset, TriMatrix, linear_kernel, strict_positions

from reference import full_sweep_orbit_u, left_orbit_of_g_element, map_from_matrix, mul_encs

TYPE_D_POSET = MirrorPoset.from_pairs(4, [pos for pos in strict_positions(4) if pos != (2, 3)])
WALK_SPECS = [
    dict(family="UO", n=4, p=3),
    dict(family="USp", n=4, p=3),
    dict(family="UU", n=3, p=3, k=2),
    dict(family="UT", n=4, p=3),
    dict(family="UO", n=4, p=3, poset=TYPE_D_POSET),
]
WALK_IDS = ["UO4", "USp4", "UU3", "UT4", "UO4-typeD"]
# the groups that `verify` runs on in the benchmark's ladder, and UT3(F_5)
LADDER_SPECS = [
    dict(family="UO", n=4, p=3),
    dict(family="USp", n=4, p=3),
    dict(family="UO", n=5, p=3),
    dict(family="UU", n=4, p=3, k=2),
    dict(family="UT", n=3, p=5),
]
LADDER_IDS = ["UO4", "USp4", "UO5", "UU4", "UT3"]
# how many maps walk_moves drops from each walk that
# test_walk_moves_find_the_orbits_of_walk_maps compares
DROPPED = {
    "UO4(F_3)": [2, 2, 2],
    "USp4(F_3)": [1, 1, 1],
    "UO5(F_3)": [1, 1, 1],
    "UU4(F_9)": [2, 2, 2],
    "UT3(F_5)": [2, 2, 1],
}


def test_zero_is_a_fixed_point():
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    oi = orbit_partition_u(bg)
    zero = (0,) * bg.u_basis.dim
    assert oi.orbits[oi.orbit_id(zero)].size == 1
    od = orbit_partition_dual(bg)
    assert od.orbits[od.orbit_id(zero)].size == 1


def test_partitions_share_one_point_list_per_space():
    bg = build_group(GroupSpec(family="UO", n=5, p=3))
    parts = [orbit_partition_u(bg), orbit_partition_dual(bg), h_orbit_partition_dual(bg)]
    assert all(oi.space is bg.u_points[0] and oi.index is bg.u_points[1] for oi in parts)
    ut = build_group(GroupSpec(family="UT", n=3, p=3))
    parts = [
        two_sided_orbit_partition_g(ut),
        two_sided_orbit_partition_g_dual(ut),
        left_orbit_partition_g_dual(ut),
    ]
    assert all(oi.space is ut.g_points[0] and oi.index is ut.g_points[1] for oi in parts)


@pytest.mark.parametrize(
    "kwargs,count",
    [
        (dict(family="UU", n=3, p=3, k=2), 11),
        (dict(family="UO", n=4, p=3), 5),
        (dict(family="UU", n=4, p=3, k=2), 41),
    ],
)
def test_orbit_counts(kwargs, count):
    bg = build_group(GroupSpec(**kwargs))
    oi = orbit_partition_u(bg)
    assert oi.count == count
    assert sum(o.size for o in oi.orbits) == bg.sc.size**bg.u_basis.dim


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UO", n=3, p=3),
        dict(family="UO", n=4, p=3),
        dict(family="USp", n=4, p=3),
        dict(family="UU", n=3, p=3, k=2),
    ],
)
def test_bfs_equals_full_group_sweep(kwargs):
    """Generator sufficiency: BFS orbits equal the naive |G|-sweeps."""
    bg = build_group(GroupSpec(**kwargs))
    assert bg.order_G <= 10**5
    oi = orbit_partition_u(bg)
    for orbit in oi.orbits:
        swept = full_sweep_orbit_u(bg, orbit.rep)
        assert swept == {oi.space[i] for i in orbit.members}


@pytest.mark.parametrize(
    "kwargs", [dict(family="UO", n=4, p=3), dict(family="UU", n=3, p=3, k=2)], ids=["UO4", "UU3"]
)
def test_dual_orbits_equal_full_group_sweep(kwargs):
    """Generator sufficiency on u*: each orbit of the G and H partitions of
    the dual space is {g lam} for g over all of G, or all of H, where
    (g lam)_j = lam(g^{-1} . b_j) on u's basis b_j."""
    bg = build_group(GroupSpec(**kwargs))
    assert bg.order_G <= 10**5
    dot = bg.sc.dot
    sweep = []  # (in H, [coords of g^{-1} . b_j for each j]) for every g in G
    for g in bg.enumerate_G():
        g_inv = g.inverse()
        rows = [bg.u_space.coords(bg.flatten(bg.act(g_inv, b))) for b in bg.u_basis.matrices]
        sweep.append((bg.in_h_encs(g.encs), rows))
    assert sum(in_h for in_h, _ in sweep) == bg.order_H
    for oi, only_h in [(orbit_partition_dual(bg), False), (h_orbit_partition_dual(bg), True)]:
        for orbit in oi.orbits:
            swept = {
                tuple(dot(orbit.rep, row) for row in rows)
                for in_h, rows in sweep
                if in_h or not only_h
            }
            assert swept == {oi.space[i] for i in orbit.members}, (only_h, orbit.rep)


def _closure_order(bg, gens):
    """|<gens>|: the identity closed under right multiplication by each."""
    m = len(strict_positions(bg.n))
    maps = [lambda x, t=g.encs: mul_encs(bg.n, bg.tower, x, t, True) for g in gens]
    return len(closure_of((0,) * m, maps))


@pytest.mark.parametrize("kwargs", WALK_SPECS, ids=WALK_IDS)
def test_walk_generators_generate_G_and_H(kwargs):
    bg = build_group(GroupSpec(**kwargs))
    assert len(bg.G_walk) < len(bg.G_gens)
    assert _closure_order(bg, bg.G_walk) == bg.order_G
    assert _closure_order(bg, bg.H_walk) == bg.order_H


@pytest.mark.parametrize("kwargs", WALK_SPECS, ids=WALK_IDS)
def test_walk_partitions_equal_all_root_element_partitions(kwargs):
    """Each partition the library walks over G_walk or H_walk, against the
    same walk over every root element with the reference linear maps."""
    bg = build_group(GroupSpec(**kwargs))

    def by_roots(points, matrices):
        return partition_space(points, [map_from_matrix(M, bg.sc) for M in matrices])

    def dual(gens, matrix_fn):
        return [transpose(matrix_fn(bg, g.inverse())) for g in gens]

    G, H = bg.G_gens, bg.H_gens
    pairs = [
        (
            two_sided_orbit_partition_g(bg),
            by_roots(
                bg.g_points,
                [g_left_matrix(bg, g) for g in G] + [g_right_matrix(bg, g) for g in G],
            ),
        ),
    ]
    if bg.involution is not None:
        pairs += [
            (
                orbit_partition_u(bg),
                by_roots(bg.u_points, [u_action_matrix(bg, g) for g in G]),
            ),
            (orbit_partition_dual(bg), by_roots(bg.u_points, dual(G, u_action_matrix))),
            (h_orbit_partition_dual(bg), by_roots(bg.u_points, dual(H, u_action_matrix))),
        ]
    else:
        pairs += [
            (
                two_sided_orbit_partition_g_dual(bg),
                by_roots(bg.g_points, dual(G, g_left_matrix) + dual(G, g_right_matrix)),
            ),
            (left_orbit_partition_g_dual(bg), by_roots(bg.g_points, dual(G, g_left_matrix))),
        ]
    for walked, full in pairs:
        assert walked.orbit_of == full.orbit_of
        assert [o.rep for o in walked.orbits] == [o.rep for o in full.orbits]
        # each orbit is numbered by its least member, which is its rep
        least = [min(o.members) for o in walked.orbits]
        assert least == sorted(least) and all(o.members == sorted(o.members) for o in walked.orbits)
        assert [walked.space[i] for i in least] == [o.rep for o in walked.orbits]


def test_partition_space_rejects_a_map_leaving_the_space():
    bg = build_group(GroupSpec(family="UO", n=4, p=3))
    swap = {0: 5, 5: 0}  # 5 encodes no element of F_3
    leave = lambda v: (swap.get(v[0], v[0]),) + v[1:]
    with pytest.raises(VerificationError, match="generator image left the space"):
        partition_space(bg.u_points, [leave])


def test_orbit_sizes_divide_group_order():
    for kwargs in [
        dict(family="UU", n=4, p=3, k=2),
        dict(family="USp", n=4, p=3),
    ]:
        bg = build_group(GroupSpec(**kwargs))
        for engine in (orbit_partition_u, orbit_partition_dual):
            for orbit in engine(bg).orbits:
                assert bg.order_G % orbit.size == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UU", n=3, p=3, k=2),
        dict(family="UO", n=4, p=3),
        dict(family="USp", n=4, p=3),
        dict(family="UU", n=4, p=3, k=2),
    ],
)
def test_primal_dual_orbit_count_duality(kwargs):
    bg = build_group(GroupSpec(**kwargs))
    assert orbit_partition_u(bg).count == orbit_partition_dual(bg).count


def test_two_sided_orbits_ut2():
    bg = build_group(GroupSpec(family="UT", n=2, p=3))
    o2 = two_sided_orbit_partition_g(bg)
    assert o2.count == 3  # the action is trivial on a 1-dim algebra
    assert sorted(o.size for o in o2.orbits) == [1, 1, 1]


def test_two_sided_orbits_ut3_match_labeled_partitions():
    from superchar.unitary import enumerate_labeled

    bg = build_group(GroupSpec(family="UT", n=3, p=3))
    o2 = two_sided_orbit_partition_g(bg)
    assert o2.count == enumerate_labeled(3, 2) == 11
    od2 = two_sided_orbit_partition_g_dual(bg)
    assert od2.count == o2.count


def test_two_sided_dual_count_matches_primal_ut3_f9():
    bg = build_group(
        GroupSpec(family="UT", n=3, p=3, k=2, scalar_degree=2)
    )
    assert (
        two_sided_orbit_partition_g(bg).count
        == two_sided_orbit_partition_g_dual(bg).count
    )


def test_type_d_strictly_finer_orbits():
    """The two stated elements: one ambient orbit, two poset orbits."""
    full = build_group(GroupSpec(family="UO", n=4, p=3))
    pairs = [(i, j) for (i, j) in strict_positions(4) if (i, j) != (2, 3)]
    restricted = build_group(
        GroupSpec(family="UO", n=4, p=3, poset=MirrorPoset.from_pairs(4, pairs))
    )
    x1 = TriMatrix.from_entries(4, full.tower, {(1, 2): 1, (3, 4): 2})
    x2 = TriMatrix.from_entries(
        4, full.tower, {(1, 2): 1, (3, 4): 2, (1, 3): 1, (2, 4): 2}
    )
    o_full = orbit_partition_u(full)
    o_rest = orbit_partition_u(restricted)
    c = lambda bg, m: bg.u_space.coords(bg.flatten(m))
    assert o_full.orbit_id(c(full, x1)) == o_full.orbit_id(c(full, x2))
    assert o_rest.orbit_id(c(restricted, x1)) != o_rest.orbit_id(c(restricted, x2))
    assert o_rest.count > o_full.count
    # every restricted orbit sits inside one ambient orbit (finer partition)
    for orbit in o_rest.orbits:
        ambient_ids = {
            o_full.orbit_id(c(full, restricted.unflatten(restricted.u_space.combine(v))))
            for v in (o_rest.space[i] for i in orbit.members)
        }
        assert len(ambient_ids) == 1


def test_left_multiplication_collapse():
    """Gx ∩ u lies inside the dagger orbit of x (one direction of the
    superclass-intersection argument)."""
    bg = build_group(GroupSpec(family="USp", n=4, p=3))
    oi = orbit_partition_u(bg)
    for orbit in oi.orbits:
        flat = bg.u_space.combine(orbit.rep)
        for img in left_orbit_of_g_element(bg, flat):
            coords = bg.u_space.coords(img)
            if coords is not None:
                assert oi.orbit_id(coords) == oi.orbit_id(orbit.rep)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UO", n=5, p=3),
        dict(family="USp", n=4, p=3),
        dict(family="UU", n=3, p=3, k=2),
        dict(family="UU", n=4, p=3, k=2),
    ],
    ids=["UO5", "USp4", "UU3", "UU4"],
)
def test_left_orbit_in_u_is_brute_force_meet(kwargs):
    """The affine set x + W in u-coordinates is exactly the BFS closure
    G x cut down to u, for every u-orbit rep x."""
    bg = build_group(GroupSpec(**kwargs))
    for orbit in orbit_partition_u(bg).orbits:
        closure = left_orbit_of_g_element(bg, bg.u_space.combine(orbit.rep))
        brute = {bg.u_space.coords(y) for y in closure} - {None}
        assert set(left_orbit_in_u(bg, orbit.rep).coset(orbit.rep)) == brute, orbit.rep


def test_h_suborbits_refine_dual_orbits():
    bg = build_group(GroupSpec(family="USp", n=4, p=3))
    od = orbit_partition_dual(bg)
    oh = h_orbit_partition_dual(bg)
    for orbit in od.orbits:
        h_ids = {oh.orbit_of[i] for i in orbit.members}
        # the H-orbits tile the G-orbit and all have the same size
        sizes = {oh.orbits[h].size for h in h_ids}
        assert len(sizes) == 1
        assert sizes.pop() * len(h_ids) == orbit.size


def test_h_orbit_closure_matches_partition():
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    oh = h_orbit_partition_dual(bg)
    for orbit in oh.orbits[:6]:
        closure = h_orbit_of_functional(bg, orbit.rep)
        assert closure == {oh.space[i] for i in orbit.members}


def _per_generator_maps(bg, gens, actions, dual):
    """The reference walk: one compiled map per generator and action, the
    identities and repeats kept."""
    mats = [orbits._MATRIX_FNS[a](bg, g) for a in actions for g in gens]
    if dual:
        mats = [transpose(M) for M in mats]
    return [linear_kernel(bg.tower, M, len(M)) for M in mats]


@pytest.mark.parametrize("kwargs", LADDER_SPECS, ids=LADDER_IDS)
def test_walk_moves_find_the_orbits_of_walk_maps(monkeypatch, kwargs):
    """walk_moves drops the identity and the repeats from the per-generator
    maps, which leaves the generated group, so every orbit, as it is: each
    whole-space partition (u, u* and u* under H; for UT, g and g*
    two-sided and g* under the left action) equals its partition under
    the per-generator maps, and so does every H.eta that verify walks.
    Each partition keeps the maps it walked, and axiom-constancy reads
    the dual partition's."""
    bg = build_group(GroupSpec(**kwargs))

    def against_reference(partition, points, gens, actions, dual=False):
        maps, oi = _per_generator_maps(bg, gens, actions, dual), partition(bg)
        moves = oi.maps
        assert moves == walk_moves(bg, gens, actions, dual)
        assert len(set(moves)) == len(moves) and set(moves) <= set(maps)
        # a linear map is the identity exactly when it fixes every unit vector
        dim = len(points[0][0])
        units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        assert all(any(mp(e) != e for e in units) for mp in moves)
        dropped.append(len(maps) - len(moves))
        by_maps = partition_space(points, maps)
        assert oi.orbit_of == by_maps.orbit_of
        assert [o.rep for o in oi.orbits] == [o.rep for o in by_maps.orbits]

    dropped = []
    if bg.involution is None:
        both = ["left", "right"]
        against_reference(two_sided_orbit_partition_g, bg.g_points, bg.G_walk, both)
        against_reference(two_sided_orbit_partition_g_dual, bg.g_points, bg.G_walk, both, True)
        against_reference(left_orbit_partition_g_dual, bg.g_points, bg.G_walk, ["left"], True)
    else:
        against_reference(orbit_partition_u, bg.u_points, bg.G_walk, ["u"])
        against_reference(orbit_partition_dual, bg.u_points, bg.G_walk, ["u"], True)
        against_reference(h_orbit_partition_dual, bg.u_points, bg.H_walk, ["u"], True)
        h_left = _per_generator_maps(bg, bg.H_walk, ["left"], True)
        for orbit in orbit_partition_dual(bg).orbits:
            eta = bg.extension_map(orbit.rep)
            assert left_orbit_of_g_functional(bg, eta, bg.H_walk) == closure_of(eta, h_left)
    # UO4: 2 of the 3 walk generators act on u as the identity; UU4: 2 of 6
    assert dropped == DROPPED[bg.label()]

    sc_table, scht = theory(bg)
    od, calls = sc_table.record.dual(bg), []
    walked = od.maps
    monkeypatch.setattr(od, "maps", [lambda mu, mp=mp: calls.append(mp) or mp(mu) for mp in walked])
    assert _constancy_check(bg, scht, sc_table).passed
    assert calls == [mp for mp in walked for _ in od.space]


def test_h_orbit_of_functional_walks_each_functional_once(monkeypatch):
    bg = build_group(GroupSpec(family="UU", n=4, p=3, k=2))
    lams = [orbit.rep for orbit in orbit_partition_dual(bg).orbits]
    first = [h_orbit_of_functional(bg, lam) for lam in lams]
    walks = []
    monkeypatch.setattr(orbits, "closure_of", lambda *args: walks.append(args))
    assert all(h_orbit_of_functional(bg, lam) is orbit for lam, orbit in zip(lams, first))
    assert walks == []


@pytest.mark.parametrize("kwargs", WALK_SPECS, ids=WALK_IDS)
def test_row_stabiliser_orbit_is_the_whole_space_partitions_orbit(kwargs):
    """Each row's |H.lam| is one closure of its representative (for UT,
    G lam under the left action).  The whole-space partition is the
    reference: its orbit at lam is that closure, and its orbit size is
    the same at every member of the row's dual orbit."""
    bg = build_group(GroupSpec(**kwargs))
    _, scht = theory(bg)
    rec = scht.sc_table.record
    od = rec.dual(bg)
    if bg.involution is not None:
        whole = h_orbit_partition_dual(bg)
    else:
        whole = left_orbit_partition_g_dual(bg)
    for row in scht.rows:
        members = whole.orbits[whole.orbit_id(row.lam)].members
        assert rec.stabiliser(bg, row.lam) == {whole.space[i] for i in members}
        dual_orbit = od.orbits[od.orbit_id(row.lam)]
        sizes = {whole.orbits[whole.orbit_of[i]].size for i in dual_orbit.members}
        assert sizes == {row.h_orbit_size}, row.lam


def test_orbit_dump_lines_format():
    bg = build_group(GroupSpec(family="UO", n=3, p=3))
    oi, key = orbit_partition_u(bg), bg.u_basis.element_encs
    lines = [json.loads(line) for line in orbit_dump_lines(oi, key)]
    assert len(lines) == 3
    assert set(lines[0]) == {"rep", "size", "orbit_id"}
    # each rep is its orbit's least key, and the orbits are numbered by it
    reps = sorted(min(key(oi.space[i]) for i in o.members) for o in oi.orbits)
    assert [line["rep"] for line in lines] == list(map(list, reps))
    assert [line["orbit_id"] for line in lines] == [0, 1, 2]



@pytest.mark.parametrize("n,p,e", [(4, 3, 1), (3, 3, 2), (4, 5, 1), (3, 5, 2)])
def test_two_sided_canonical_matches_scan(n, p, e):
    """Grouping all of ut_n(F_q) by the canonical form gives the scanned
    two-sided orbits; each form is quasi-monomial, lies in the orbit it
    names, and is its own canonical form."""
    bg = build_group(GroupSpec(family="UT", n=n, p=p, e=e))
    oi = two_sided_orbit_partition_g(bg)
    by_form: dict = {}
    for i, flat in enumerate(oi.space):
        by_form.setdefault(two_sided_canonical(bg.unflatten(flat).encs, n, bg.tower), []).append(i)
    assert {frozenset(ids) for ids in by_form.values()} == {
        frozenset(o.members) for o in oi.orbits
    }
    for form, ids in by_form.items():
        x = TriMatrix.from_encs(n, bg.tower, form)
        support = list(x.entries)
        assert len({i for i, _ in support}) == len({j for _, j in support}) == len(support)
        assert oi.orbit_id(bg.flatten(x)) == oi.orbit_of[ids[0]]
        assert two_sided_canonical(form, n, bg.tower) == form
