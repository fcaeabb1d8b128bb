import itertools

import pytest

from superchar.cyclotomic import CycloValue, root_power
from superchar.errors import NonIntegralityError
from superchar.involution_group import GroupSpec, build_group
from superchar.linalg import Subspace
from superchar.sct import (
    _generator_walk,
    _orbit_sum_values,
    algebra_group_sct,
    alternate_theta,
    ambient_group,
    conjugacy_classes,
    conjugation_index,
    induction_oracle,
    intersection_check,
    standard_theta,
    supercharacters,
    superclasses,
    theory,
    verify_algebra_axioms,
    verify_axioms,
    verify_duality,
    verify_induction,
    verify_springer_independence,
    verify_structure,
    verify_subfield_independence,
    verify_theta_independence,
)
from superchar.triangular import MirrorPoset, TriMatrix, strict_positions

SMALL_SPECS = [
    dict(family="UO", n=3, p=3),
    dict(family="UO", n=4, p=3),
    dict(family="USp", n=4, p=3),
    dict(family="UU", n=2, p=3, k=2),
    dict(family="UU", n=3, p=3, k=2),
]


@pytest.fixture(scope="module")
def groups():
    return {tuple(sorted(kw.items())): build_group(GroupSpec(**kw)) for kw in SMALL_SPECS}


def _bg(groups, **kw):
    return groups[tuple(sorted(kw.items()))]


def test_identity_superclass_is_singleton(groups):
    bg = _bg(groups, family="UU", n=3, p=3, k=2)
    sct = superclasses(bg, "cayley")
    assert sct.classes[0].rep == TriMatrix.identity(3, bg.tower)
    assert sct.classes[0].size == 1


def test_uu3_superclass_sizes(groups):
    bg = _bg(groups, family="UU", n=3, p=3, k=2)
    sct = superclasses(bg, "cayley")
    assert sct.count == 11
    assert sorted(K.size for K in sct.classes) == [1, 1, 1] + [3] * 8
    assert sum(K.size for K in sct.classes) == 27


def test_uo4_degrees_and_sizes(groups):
    bg = _bg(groups, family="UO", n=4, p=3)
    sct, scht = theory(bg)
    assert sorted(K.size for K in sct.classes) == [1, 1, 1, 3, 3]
    assert sorted(r.degree for r in scht.rows) == [1, 1, 1, 3, 3]
    assert all(r.n_lambda == 1 for r in scht.rows)


def test_trivial_row_is_first_and_all_ones(groups):
    for kw in SMALL_SPECS:
        bg = _bg(groups, **kw)
        _, scht = theory(bg)
        assert all(v == 1 for v in scht.rows[0].values)
        assert scht.rows[0].degree == 1


def test_degree_equals_h_orbit_size(groups):
    for kw in SMALL_SPECS:
        bg = _bg(groups, **kw)
        _, scht = theory(bg)
        for row in scht.rows:
            assert row.degree == row.h_orbit_size
            assert row.degree * row.n_lambda == row.orbit_size


def test_theta_lambda_f_orthonormal_on_elements(groups):
    """The functions theta∘lambda∘f over all lambda in u* form an
    orthonormal family for the element-level partition of U."""
    from superchar.cyclotomic import inner_product
    from superchar.orbits import _dual_space_list

    bg = _bg(groups, family="UO", n=4, p=3)
    theta = standard_theta(bg)
    fwd, _ = bg.springer("cayley")
    points = [bg.u_space.coords(bg.flatten(fwd(u))) for u in bg.U]
    rows = []
    for lam in _dual_space_list(bg):
        rows.append(
            [(root_power(3, theta.exponent(bg.sc.dot(lam, x))), 1) for x in points]
        )
    for a, fa in enumerate(rows):
        for b, fb in enumerate(rows):
            assert inner_product(fa, fb, bg.order_U) == (1 if a == b else 0)


def test_uo3_rows_are_additive_characters(groups):
    # U is cyclic of order 3 and G acts trivially: the table must be the
    # full character table of Z/3 in some row order
    bg = _bg(groups, family="UO", n=3, p=3)
    _, scht = theory(bg)
    rows = {tuple(v.coeffs for v in r.values) for r in scht.rows}
    expected = set()
    for a in range(3):
        expected.add(tuple(root_power(3, (a * x) % 3).coeffs for x in range(3)))
    # class order may permute the nonidentity columns, so compare as
    # multisets of rows after trying both column orders
    cols_orders = [(0, 1, 2), (0, 2, 1)]
    assert any(
        {tuple(r[i] for i in order) for r in rows} == expected for order in cols_orders
    )


@pytest.mark.parametrize("kw", SMALL_SPECS)
def test_axioms(groups, kw):
    bg = _bg(groups, **kw)
    sct, scht = theory(bg)
    rep = verify_axioms(bg, sct, scht)
    assert rep.ok, [r.line() for r in rep.results if r.passed is False]


@pytest.mark.parametrize("kw", SMALL_SPECS)
def test_induction_identity(groups, kw):
    bg = _bg(groups, **kw)
    sct, scht = theory(bg)
    rep = verify_induction(bg, sct, scht)
    assert rep.ok, [r.line() for r in rep.results]


def test_induction_oracle_identity_row(groups):
    bg = _bg(groups, family="USp", n=4, p=3)
    sct = superclasses(bg, "cayley")
    values, degree = induction_oracle(bg, (0,) * bg.u_basis.dim, standard_theta(bg), sct)
    assert degree == 1
    assert all(v == 1 for v in values)


@pytest.mark.parametrize("kw", SMALL_SPECS)
def test_duality(groups, kw):
    assert verify_duality(_bg(groups, **kw)).ok


@pytest.mark.parametrize("kw", SMALL_SPECS)
def test_structure(groups, kw):
    rep = verify_structure(_bg(groups, **kw))
    assert rep.ok, [r.line() for r in rep.results if r.passed is False]


@pytest.mark.parametrize(
    "kw", [dict(family="UO", n=3, p=3), dict(family="UU", n=3, p=3, k=2)]
)
def test_springer_independence_where_log_defined(groups, kw):
    bg = _bg(groups, **kw)
    assert "log" in bg.springer_names()
    rep = verify_springer_independence(bg)
    assert rep.ok
    assert all(r.passed for r in rep.results)


def test_log_unavailable_for_n4():
    bg = build_group(GroupSpec(family="UO", n=4, p=3))
    assert bg.springer_names() == ["cayley"]
    rep = verify_springer_independence(bg)
    assert rep.ok  # informational skip, not a failure
    assert rep.results[0].passed is None


@pytest.mark.parametrize("kw", SMALL_SPECS)
def test_theta_independence(groups, kw):
    rep = verify_theta_independence(_bg(groups, **kw))
    assert rep.ok


def test_theta_actually_permutes_rows(groups):
    bg = _bg(groups, family="UU", n=3, p=3, k=2)
    sct = superclasses(bg, "cayley")
    std = supercharacters(bg, "cayley", standard_theta(bg), sc_table=sct)
    alt = supercharacters(bg, "cayley", alternate_theta(bg), sc_table=sct)
    assert [r.values for r in std.rows] != [r.values for r in alt.rows]
    assert std.row_value_set() == alt.row_value_set()


# -- algebra-group theory ------------------------------------------------------


def test_algebra_ut2():
    bg = build_group(GroupSpec(family="UT", n=2, p=3))
    th = algebra_group_sct(bg)
    assert len(th.classes) == 3
    assert sorted(r.degree for r in th.rows) == [1, 1, 1]
    assert verify_algebra_axioms(bg, th).ok


def test_algebra_ut3_class_count_is_labeled_partition_count():
    from superchar.unitary import enumerate_labeled

    bg = build_group(GroupSpec(family="UT", n=3, p=3))
    th = algebra_group_sct(bg)
    assert len(th.classes) == enumerate_labeled(3, 2) == 11
    rep = verify_algebra_axioms(bg, th)
    assert rep.ok, [r.line() for r in rep.results]


def test_algebra_left_orbit_lemma_ut3():
    """G lam = {mu : mu|_{l_lam} = lam|_{l_lam}}, enumerated both ways."""
    from superchar.linalg import Subspace
    from superchar.orbits import left_orbit_partition_g_dual

    bg = build_group(GroupSpec(family="UT", n=3, p=3))
    odl = left_orbit_partition_g_dual(bg)
    for orbit in odl.orbits:
        lam = orbit.rep
        rows = [
            tuple(bg.sc.dot(lam, bg.flatten(y * b)) for b in bg.g_basis_mats)
            for y in bg.g_basis_mats
        ]
        l_space = Subspace.kernel(bg.sc, bg.flat_dim, rows)
        members = {odl.space[i] for i in orbit.members}
        affine = {
            mu
            for mu in odl.space
            if all(
                bg.sc.dot(mu, row) == bg.sc.dot(lam, row) for row in l_space.rows
            )
        }
        assert members == affine


def test_algebra_induction_oracle_ut3():
    bg = build_group(GroupSpec(family="UT", n=3, p=3))
    th = algebra_group_sct(bg)
    for row in th.rows:
        assert induction_oracle(bg, row.lam, th.theta, th.sc_table)[0] == row.values


def test_non_integral_induced_character_raises():
    bg = build_group(GroupSpec(family="UT", n=3, p=3))
    th = algebra_group_sct(bg)
    # give the identity's conjugacy class two elements: the trivial row's
    # value there becomes |G| / (2 |L_0|) = 1/2, since L_0 = G
    cc = conjugacy_classes(th.sc_table.record)
    cc.sizes[cc.class_of[0]] = 2
    with pytest.raises(NonIntegralityError):
        induction_oracle(bg, th.rows[0].lam, th.theta, th.sc_table)


# -- the oracle's conjugacy classes and Frobenius's formula, against brute force ------


def _oracle_group(nonabelian, groups, which):
    if which == "UO5":
        return nonabelian["UO"]
    if which == "UU3":
        return _bg(groups, family="UU", n=3, p=3, k=2)
    return build_group(GroupSpec(family="UT", n=3, p=5))


@pytest.mark.parametrize("which", ["UO5", "UU3", "UT3_F5"])
def test_conjugacy_classes_match_brute_force(nonabelian, groups, which):
    bg = _oracle_group(nonabelian, groups, which)
    rec = superclasses(bg, "cayley").record
    cc = conjugacy_classes(rec)
    E = rec.elements
    orbits = {
        frozenset(rec.index[(h * x * E[rec.inverse[h_id]]).serialize()] for h_id, h in enumerate(E))
        for x in E
    }
    members: dict = {}
    for idx, cid in enumerate(cc.class_of):
        members.setdefault(cid, []).append(idx)
    assert {frozenset(ids) for ids in members.values()} == orbits
    assert [len(members[cid]) for cid in range(len(cc.sizes))] == cc.sizes
    # classes are numbered in the order of their least members
    firsts = [members[cid][0] for cid in range(len(cc.sizes))]
    assert firsts == sorted(firsts)


def _counted_induction(bg, lam, theta, sct):
    """The induced character counted as (1/|S|) sum over h in E of
    phi°(h g h^-1), through conjugation_index and Subspace.contains."""
    rec = sct.record
    p = bg.tower.p
    space = rec.subgroup(lam)
    points, flats = rec.element_data()
    phi = {
        i: theta.exponent(bg.sc.dot(lam, points[i]))
        for i, flat in enumerate(flats)
        if space.contains(flat)
    }
    values = []
    for targets in conjugation_index(bg, sct):
        counts = [0] * p
        for t in targets:
            if t in phi:
                counts[phi[t]] += 1
        values.append(CycloValue.from_exponents(p, counts).divexact(len(phi)))
    return values, len(rec.elements) // len(phi)


@pytest.mark.parametrize("theta_fn", [standard_theta, alternate_theta])
@pytest.mark.parametrize("which", ["UO5", "UU3", "UT3_F5"])
def test_oracle_matches_conjugation_count(nonabelian, groups, which, theta_fn):
    bg = _oracle_group(nonabelian, groups, which)
    theta = theta_fn(bg)
    sct = superclasses(bg, "cayley")
    scht = supercharacters(bg, "cayley", theta, sc_table=sct)
    for row in scht.rows:
        got = induction_oracle(bg, row.lam, theta, sct)
        assert got == _counted_induction(bg, row.lam, theta, sct), row.lam
        assert got == (row.values, row.degree), row.lam


# -- the oracle's closure check, given a wrong subgroup ----------------------------

NOT_CLOSED = "not closed under multiplication"
NOT_MULTIPLICATIVE = "not multiplicative"


def _stub_subgroup(monkeypatch, sct, space):
    monkeypatch.setattr(sct.record, "subgroup", lambda lam: space)


def test_closure_check_refuses_ut3_subsets(monkeypatch):
    bg = build_group(GroupSpec(family="UT", n=3, p=3))
    sct, scht = theory(bg)
    flat = {
        (i, j): bg.flatten(TriMatrix.elementary(3, bg.tower, i, j))
        for i, j in strict_positions(3)
    }
    # 1 + span(e12, e23) is not a group: (1 + e12)(1 + e23) has an e13 entry
    _stub_subgroup(
        monkeypatch, sct, Subspace.from_spanning(bg.sc, bg.flat_dim, [flat[1, 2], flat[2, 3]])
    )
    with pytest.raises(AssertionError, match=NOT_CLOSED):
        induction_oracle(bg, scht.rows[0].lam, scht.theta, sct)
    # all of G is a group, but lambda = e13* is not additive on g - 1
    _stub_subgroup(monkeypatch, sct, bg.g_space)
    with pytest.raises(NonIntegralityError, match=NOT_MULTIPLICATIVE):
        induction_oracle(bg, flat[1, 3], scht.theta, sct)


def test_closure_check_refuses_uo5_subsets(monkeypatch, nonabelian):
    # |U| = 81 is under the closure limit: the generator walk decides
    bg = nonabelian["UO"]
    sct, scht = theory(bg)
    a, b = next((a, b) for a, b in itertools.combinations(bg.U, 2) if a * b != b * a)
    pair = [bg.flatten(u.nilpotent_part()) for u in (a, b)]
    _stub_subgroup(monkeypatch, sct, Subspace.from_spanning(bg.sc, bg.flat_dim, pair))
    with pytest.raises(AssertionError, match=NOT_CLOSED):
        induction_oracle(bg, scht.rows[0].lam, scht.theta, sct)
    _stub_subgroup(monkeypatch, sct, bg.g_space)
    refused = 0
    for row in scht.rows:
        try:
            induction_oracle(bg, row.lam, scht.theta, sct)
        except NonIntegralityError as exc:
            assert NOT_MULTIPLICATIVE in str(exc)
            refused += 1
    assert (refused, len(scht.rows)) == (4, 13)


def test_closure_check_refuses_uu4_subsets(monkeypatch):
    # |U| = 729 and the stubbed subset has 297 elements, both above the 256
    # where the oracle used to sample pairs: the walk must still refuse
    bg = build_group(GroupSpec(family="UU", n=4, p=3, k=2))
    sct, scht = theory(bg)
    flats = sct.record.element_data()[1]
    span = Subspace.from_spanning(bg.sc, bg.flat_dim, flats)
    # span(U - 1) less one basis row, the first such hyperplane to hold
    # more than 256 elements of U - 1
    for drop in range(span.dim):
        rows = span.rows[:drop] + span.rows[drop + 1 :]
        hyper = Subspace.from_spanning(bg.sc, bg.flat_dim, rows)
        if sum(map(hyper.contains, flats)) > 256:
            break
    assert sum(map(hyper.contains, flats)) == 297
    _stub_subgroup(monkeypatch, sct, hyper)
    with pytest.raises(AssertionError, match=NOT_CLOSED):
        induction_oracle(bg, scht.rows[0].lam, scht.theta, sct)
    _stub_subgroup(monkeypatch, sct, bg.g_space)
    refused = 0
    for row in scht.rows:
        try:
            induction_oracle(bg, row.lam, scht.theta, sct)
        except NonIntegralityError as exc:
            assert NOT_MULTIPLICATIVE in str(exc)
            refused += 1
    assert (refused, len(scht.rows)) == (14, 41)


def test_identity_must_map_to_zero(monkeypatch, nonabelian):
    # S = {1} has no generators, so no walk step covers phi(1) = 0
    bg = nonabelian["UO"]
    sct, scht = theory(bg)
    rec = sct.record
    lam = scht.rows[1].lam
    points, flats = rec.element_data()
    j = next(j for j, c in enumerate(lam) if scht.theta.exponent(c))
    unit = tuple(int(i == j) for i in range(len(lam)))
    assert scht.theta.exponent(bg.sc.dot(lam, unit))
    monkeypatch.setattr(rec, "_element_data", ([unit] + points[1:], flats))
    _stub_subgroup(monkeypatch, sct, Subspace.from_spanning(bg.sc, bg.flat_dim, []))
    with pytest.raises(NonIntegralityError, match=NOT_MULTIPLICATIVE):
        induction_oracle(bg, lam, scht.theta, sct)


@pytest.mark.parametrize("which", ["UO5", "UU3", "UT3_F5"])
def test_generator_walk_reaches_members_and_records_products(nonabelian, groups, which):
    bg = _oracle_group(nonabelian, groups, which)
    sct, scht = theory(bg)
    rec = sct.record
    flats = rec.element_data()[1]
    subsets = {tuple(range(len(rec.elements)))}
    for row in scht.rows:
        space = rec.subgroup(row.lam)
        subsets.add(tuple(i for i, flat in enumerate(flats) if space.contains(flat)))
    assert len(subsets) >= 2
    walks = {}
    for members in sorted(subsets):
        gens, reached, right = walk = _generator_walk(rec, members)
        assert _generator_walk(rec, list(members)) is walk
        assert reached[0] == 0 and sorted(reached) == list(members)
        assert set(gens) <= set(members) and len(right) == len(gens)
        for t, row in zip(gens, right):
            assert row == [
                rec.index[(rec.elements[r] * rec.elements[t]).serialize()] for r in reached
            ]
        walks[members] = walk
    assert len({id(w) for w in walks.values()}) == len(subsets)


def test_verify_axioms_refuses_u_not_closed(monkeypatch, nonabelian):
    # with one element's key gone, some product of the walk over U lands
    # outside U
    bg = nonabelian["UO"]
    sct, scht = theory(bg)
    rec = sct.record
    dropped = rec.elements[len(rec.elements) // 2].serialize()
    monkeypatch.setattr(rec, "index", {k: v for k, v in rec.index.items() if k != dropped})
    with pytest.raises(AssertionError, match="U is not closed under multiplication"):
        verify_axioms(bg, sct, scht)


# -- the rows' exponent-vector kernel against direct orbit sums -----------------------


@pytest.mark.parametrize("theta_fn", [standard_theta, alternate_theta])
@pytest.mark.parametrize("which", ["UO5", "UU3", "UT3_F5"])
def test_row_cells_match_orbit_sums(nonabelian, groups, which, theta_fn):
    if which == "UO5":
        bg = nonabelian["UO"]
    elif which == "UU3":
        bg = _bg(groups, family="UU", n=3, p=3, k=2)
    else:
        bg = build_group(GroupSpec(family="UT", n=3, p=5))
    theta = theta_fn(bg)
    sct = superclasses(bg, "cayley")
    scht = supercharacters(bg, "cayley", theta, sc_table=sct)
    rec = sct.record
    od = rec.dual(bg)
    points = [rec.point(K.rep) for K in sct.classes]
    for row in scht.rows:
        members = od.members(od.orbit_id(row.lam))
        sums = _orbit_sum_values(bg.tower.p, members, points, bg.sc.dot, theta.exponent)
        assert [v * row.n_lambda for v in row.values] == sums, row.lam


# -- injected faults: each must fail by the check that guards it ---------------


def _move_noncentral_element(bg, sct, scht):
    # the rep of a class that conjugation moves, put into the next class
    conj = conjugation_index(bg, sct)
    K = next(K for K, row in zip(sct.classes, conj) if len(set(row)) > 1)
    sct.class_of[K.member_ids[0]] = (K.class_id + 1) % sct.count


def _wrong_n_lambda(bg, sct, scht):
    scht.rows[1].n_lambda += 1


def _perturbed_cell(bg, sct, scht):
    row = scht.rows[1]
    row.values[1] = row.values[1] + 1


FAULTS = {
    "class-partition": (_move_noncentral_element, {"superclasses-union-of-conjugacy"}),
    "n-lambda": (_wrong_n_lambda, {"axiom-regular-sum"}),
    "cell": (_perturbed_cell, {"axiom-constancy", "induction-values"}),
}


@pytest.fixture(scope="module")
def nonabelian():
    # UO4(F_3) is abelian, so no class partition of it can break
    # union-of-conjugacy; UO5(F_3) and UT3(F_3) are not
    return {
        "UO": build_group(GroupSpec(family="UO", n=5, p=3)),
        "UT": build_group(GroupSpec(family="UT", n=3, p=3)),
    }


def test_union_of_conjugacy_fails_on_moved_element_uu4():
    # |U| = 729, above the 256 elements where the constancy check turns to
    # sampling; union-of-conjugacy must still see every element
    bg = build_group(GroupSpec(family="UU", n=4, p=3, k=2))
    assert bg.order_U == 729
    sct, scht = theory(bg)
    _move_noncentral_element(bg, sct, scht)
    results = verify_axioms(bg, sct, scht).results
    assert [r.passed for r in results if r.name == "superclasses-union-of-conjugacy"] == [False]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("family", ["UO", "UT"])
def test_injected_fault_fails_by_name(nonabelian, family, fault):
    bg = nonabelian[family]
    sct, scht = theory(bg)
    inject, expected = FAULTS[fault]
    inject(bg, sct, scht)
    results = verify_axioms(bg, sct, scht).results
    if "induction-values" in expected:
        results += verify_induction(bg, sct, scht).results
    failed = {r.name for r in results if r.passed is False}
    assert expected <= failed, [r.line() for r in results]


# -- intersection with the ambient theory -----------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(family="UO", n=4, p=3),
        dict(family="USp", n=4, p=3),
        dict(family="UU", n=3, p=3, k=2),
    ],
)
def test_intersection_theorem(groups, kw):
    rep = intersection_check(_bg(groups, **kw))
    assert rep.ok, [r.line() for r in rep.results]


@pytest.mark.parametrize("which", ["UO5", "UU3"])
def test_intersection_fails_on_moved_element(nonabelian, groups, which):
    if which == "UO5":
        bg = nonabelian["UO"]
    else:
        bg = _bg(groups, family="UU", n=3, p=3, k=2)
    sct = superclasses(bg, "cayley")
    _move_noncentral_element(bg, sct, None)
    results = intersection_check(bg, sc_table=sct).results
    assert [r.passed for r in results if r.name == "intersection-partition"] == [False]


def test_intersection_poset_restricted():
    pairs = [(i, j) for (i, j) in strict_positions(4) if (i, j) != (2, 3)]
    bg = build_group(
        GroupSpec(family="UO", n=4, p=3, poset=MirrorPoset.from_pairs(4, pairs))
    )
    rep = intersection_check(bg)
    assert rep.ok, [r.line() for r in rep.results]
    amb = ambient_group(bg)
    assert len(amb.positions) == 5


def test_block_poset_matches_algebra_theory_of_ut2():
    poset = MirrorPoset.from_pairs(4, [(1, 2), (3, 4)])
    blk = build_group(GroupSpec(family="UO", n=4, p=3, poset=poset))
    sct, scht = theory(blk)
    ut2 = build_group(GroupSpec(family="UT", n=2, p=3))
    th = algebra_group_sct(ut2)
    assert sct.count == len(th.classes)
    assert sorted(r.degree for r in scht.rows) == sorted(r.degree for r in th.rows)
    assert intersection_check(blk).ok


# -- the subfield-independence report ----------------------------------------------


def test_subfield_independence_reports_equal_theories():
    bg = build_group(GroupSpec(family="UU", n=2, p=3, e=2, k=2))
    rep = verify_subfield_independence(bg)
    details = " / ".join(r.detail for r in rep.results)
    assert "equal" in details and "DIFFER" not in details


def test_springer_tables_identical_uu3(groups):
    bg = _bg(groups, family="UU", n=3, p=3, k=2)
    sct_c, scht_c = theory(bg, "cayley")
    sct_l, scht_l = theory(bg, "log")
    assert sct_c.partition_sets() == sct_l.partition_sets()
    assert [r.values for r in scht_c.rows] == [r.values for r in scht_l.rows]
