import itertools
import random
from types import SimpleNamespace

import pytest

from superchar import sct as sct_module
from superchar.cli import main
from superchar.cyclotomic import CycloRational, CycloValue, Lanes, root_power
from superchar.errors import NonIntegralityError, VerificationError
from superchar.gf import Theta, make_tower
from superchar.involution_group import GroupSpec, build_group, unsplit_positions
from superchar.linalg import Subspace
from superchar.orbits import left_orbit_in_u, orbit_partition_dual, orbit_partition_u
from superchar.sct import (
    DigitColumns,
    Superclass,
    SuperclassTable,
    SupercharRow,
    SupercharTable,
    Report,
    _generator_walk,
    _gram_rows,
    _orthogonality_check,
    _regular_sums,
    _springer_image_pass,
    _subgroup_data,
    _theory_record,
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
from superchar.triangular import MirrorPoset, TriMatrix, slot_index, strict_positions

from reference import (
    additive_along_walk,
    algebra_l_lam,
    direct_histograms,
    inner_product,
    left_orbit_of_g_element,
    orbit_sum_values,
    product_order_histograms,
    walk_defects,
)

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
    assert sct.classes[0].rep == TriMatrix.identity(3, bg.tower).encs
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
    bg = _bg(groups, family="UO", n=4, p=3)
    theta = standard_theta(bg)
    fwd, _ = bg.springer("cayley")
    points = [bg.u_space.coords(bg.flatten_encs(fwd(u.encs))) for u in bg.U]
    rows = []
    for lam in bg.u_points[0]:
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


def _collapse_result(rep):
    return [r.passed for r in rep.results if r.name == "left-multiplication-collapse"]


@pytest.mark.parametrize(
    "kw", [dict(family="UO", n=5, p=3), dict(family="UU", n=4, p=3, k=2)], ids=["UO5", "UU4"]
)
def test_left_multiplication_collapse_fails_on_moved_point(kw):
    # a point y != x of G x ∩ u is given another orbit id in the u-orbit index
    bg = build_group(GroupSpec(**kw))
    oi = orbit_partition_u(bg)
    for orbit in oi.orbits:
        closure = left_orbit_of_g_element(bg, bg.u_space.combine(orbit.rep))
        others = sorted({bg.u_space.coords(y) for y in closure} - {None, orbit.rep})
        if others:
            break
    assert others
    oi.orbit_of[oi.index[others[0]]] = (orbit.orbit_id + 1) % oi.count
    assert _collapse_result(verify_structure(bg)) == [False]


def test_left_multiplication_collapse_fails_on_point_outside_u():
    # an empty annihilator of u lets all of g x into the meet, so some meet
    # vector has no u-coordinates; it must fail the check, not be skipped.
    # A fresh group, as the fault changes a cache entry it keeps
    bg = build_group(GroupSpec(family="USp", n=4, p=3))
    assert _collapse_result(verify_structure(bg)) == [True]
    bg.cache["u_annihilator"] = []
    assert any(left_orbit_in_u(bg, o.rep) is None for o in orbit_partition_u(bg).orbits)
    assert _collapse_result(verify_structure(bg)) == [False]


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
    if which == "UO3_F131":
        # p > 127: the kernels' lanes are lists of ints, not bytes
        return build_group(GroupSpec(family="UO", n=3, p=131))
    return build_group(GroupSpec(family="UT", n=3, p=5))


@pytest.mark.parametrize("which", ["UO5", "UU3", "UT3_F5"])
def test_conjugacy_classes_match_brute_force(nonabelian, groups, which):
    bg = _oracle_group(nonabelian, groups, which)
    rec = superclasses(bg, "cayley").record
    cc = conjugacy_classes(rec)
    E = [TriMatrix.from_encs(bg.n, bg.tower, e, True) for e in rec.elements]
    orbits = {
        frozenset(rec.index[(h * x * h.inverse()).encs] for h in E)
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


def test_records_of_one_group_share_what_depends_on_the_elements():
    # UU3(F_9) has log (n <= p), and its record lists the same U as
    # cayley's; only the oracle's subgroup data, which reads the points,
    # is made per Springer name
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    cayley, log = (theory(bg, name)[0].record for name in ("cayley", "log"))
    assert cayley is not log
    assert conjugacy_classes(cayley) is conjugacy_classes(log)
    assert cayley.element_data() is log.element_data()
    assert cayley.walk_order() is log.walk_order()
    assert _subgroup_data(cayley, bg.g_space) is not _subgroup_data(log, bg.g_space)
    for name in ("cayley", "log"):
        assert verify_induction(bg, *theory(bg, name)).ok
    keys = set(bg.cache)
    for name in ("cayley", "log"):
        assert verify_induction(bg, *theory(bg, name)).ok
    assert set(bg.cache) == keys


def _reference_points(rec):
    """f(e) for every element by its definition: the u-coordinates of the
    Springer map, or flat(g - 1) for the algebra-group theory."""
    bg = rec.group
    if rec.symbol == "G":
        elements = [TriMatrix.from_encs(bg.n, bg.tower, e, True) for e in rec.elements]
        return [bg.flatten(g.nilpotent_part()) for g in elements]
    fwd, _ = bg.springer(rec.springer_name)
    return [bg.u_space.coords(bg.flatten_encs(fwd(e))) for e in rec.elements]


@pytest.mark.parametrize(
    "kw,springer",
    [
        (dict(family="UO", n=5, p=3), "cayley"),
        (dict(family="UU", n=3, p=3, k=2), "cayley"),
        (dict(family="UU", n=3, p=3, k=2), "log"),
        (dict(family="USp", n=4, p=5), "log"),
        (dict(family="UT", n=3, p=5), "cayley"),
    ],
    ids=["UO5-cayley", "UU3-cayley", "UU3-log", "USp4_F5-log", "UT3_F5"],
)
def test_record_points_are_f_of_elements(kw, springer):
    # the points are paired with the elements through f^-1; evaluating f on
    # every element must give them back
    bg = build_group(GroupSpec(**kw))
    rec = superclasses(bg, springer).record
    assert rec.points == _reference_points(rec)
    assert sorted(rec.points) == sorted((bg.u_points if rec.symbol == "U" else bg.g_points)[0])
    if rec.symbol == "U":
        assert rec.elements is bg.cayley_pairing[0]
    assert superclasses(bg, springer).record is rec


def test_log_record_refuses_a_non_bijective_exp(monkeypatch):
    # exp sending a second point of u to the identity leaves an element of U
    # without a point; cayley, which builds U, is left as it is
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    springer = bg.springer
    target = bg.u_basis.element_encs(bg.u_points[0][1])

    def collapsed(name):
        fwd, inverse = springer(name)
        if name != "log":
            return fwd, inverse
        return fwd, lambda y: inverse((0,) * len(y) if y == target else y)

    monkeypatch.setattr(bg, "springer", collapsed)
    with pytest.raises(VerificationError, match="not a bijection"):
        superclasses(bg, "log")


def test_springer_pairings_and_image_pass_take_no_matrix_arithmetic(monkeypatch):
    # both Springer maps run as layout kernels on slot encodings: the log
    # record's pairing and the image and leading-term pass build no
    # TriMatrix product and scale none
    bg = build_group(GroupSpec(family="USp", n=4, p=5))

    def refuse(*args):
        raise AssertionError("TriMatrix arithmetic on a Springer path")

    monkeypatch.setattr(TriMatrix, "__mul__", refuse)
    monkeypatch.setattr(TriMatrix, "scale", refuse)
    assert _theory_record(bg, "log").elements is bg.cayley_pairing[0]
    rep = Report("springer")
    _springer_image_pass(bg, rep)
    assert [(r.name, r.passed) for r in rep.results] == [
        ("springer-cayley-image", True),
        ("springer-log-image", True),
        ("springer-cayley-leading-term", True),
        ("springer-log-leading-term", True),
    ]


def _counted_induction(bg, lam, theta, sct, conj):
    """The induced character counted as (1/|S|) sum over h in E of
    phi°(h g h^-1), through ``conj`` = conjugation_index(bg, sct) and
    Subspace.contains."""
    rec = sct.record
    p = bg.tower.p
    space = rec.subgroup(lam)
    points, flats = _reference_points(rec), rec.element_data()
    phi = {
        i: theta.exponent(bg.sc.dot(lam, points[i]))
        for i, flat in enumerate(flats)
        if space.contains(flat)
    }
    values = []
    for targets in conj:
        counts = [0] * p
        for t in targets:
            if t in phi:
                counts[phi[t]] += 1
        values.append(CycloValue.from_exponents(p, counts).divexact(len(phi)))
    return values, len(rec.elements) // len(phi)


@pytest.mark.parametrize("theta_fn", [standard_theta, alternate_theta])
@pytest.mark.parametrize("which", ["UO5", "UU3", "UT3_F5", "UO3_F131"])
def test_oracle_matches_conjugation_count(nonabelian, groups, which, theta_fn):
    bg = _oracle_group(nonabelian, groups, which)
    theta = theta_fn(bg)
    sct = superclasses(bg, "cayley")
    scht = supercharacters(bg, "cayley", theta, sc_table=sct)
    conj = conjugation_index(bg, sct)
    for row in scht.rows:
        got = induction_oracle(bg, row.lam, theta, sct)
        assert got == _counted_induction(bg, row.lam, theta, sct, conj), row.lam
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
    with pytest.raises(VerificationError, match=NOT_CLOSED):
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
    with pytest.raises(VerificationError, match=NOT_CLOSED):
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
    flats = sct.record.element_data()
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
    with pytest.raises(VerificationError, match=NOT_CLOSED):
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


def _refuses_identity_off_zero(monkeypatch, bg):
    # S = {1} has no generators, so no walk step covers phi(1) = 0.  A fresh
    # group: the oracle keeps what it learns of each S, patched points too
    sct, scht = theory(bg)
    rec = sct.record
    lam = scht.rows[1].lam
    points = rec.points
    j = next(j for j, c in enumerate(lam) if scht.theta.exponent(c))
    unit = tuple(int(i == j) for i in range(len(lam)))
    assert scht.theta.exponent(bg.sc.dot(lam, unit))
    monkeypatch.setattr(rec, "points", [unit] + points[1:])
    _stub_subgroup(monkeypatch, sct, Subspace.from_spanning(bg.sc, bg.flat_dim, []))
    with pytest.raises(NonIntegralityError, match=NOT_MULTIPLICATIVE):
        induction_oracle(bg, lam, scht.theta, sct)


def test_identity_must_map_to_zero(monkeypatch):
    _refuses_identity_off_zero(monkeypatch, build_group(GroupSpec(family="UO", n=5, p=3)))


def test_identity_must_map_to_zero_on_list_lanes(monkeypatch):
    # p > 127: the kernel's lanes are lists of ints, not bytes
    _refuses_identity_off_zero(monkeypatch, build_group(GroupSpec(family="UO", n=3, p=131)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UO", n=5, p=3),
        dict(family="UU", n=4, p=3, k=2),
        dict(family="UT", n=3, p=5),
        dict(family="UU", n=3, p=3, e=2, k=2),
    ],
    ids=["UO5", "UU4_F9", "UT3_F5", "UU3_e2"],
)
def test_subgroup_members_are_the_space_members(kwargs):
    # every distinct S, all of g (no annihilator rows: S = E) and the zero
    # space (S = {1}); the members' walk is the one the oracle cached
    bg = build_group(GroupSpec(**kwargs))
    sct, scht = theory(bg)
    rec = sct.record
    flats = rec.element_data()
    zero = Subspace.from_spanning(bg.sc, bg.flat_dim, [])
    spaces = {(): zero, tuple(bg.g_space.rows): bg.g_space}
    for row in scht.rows:
        space = rec.subgroup(row.lam)
        spaces[tuple(space.rows)] = space
    assert Subspace.kernel(bg.sc, bg.flat_dim, bg.g_space.rows).dim == 0
    for space in spaces.values():
        size = _subgroup_data(rec, space)[0]
        members = [i for i, flat in enumerate(flats) if space.contains(flat)]
        assert size == len(members)
        cached = len(bg.cache)
        reached = _generator_walk(rec, members)[1]
        assert len(bg.cache) == cached and sorted(reached) == members
    assert _subgroup_data(rec, bg.g_space)[0] == len(rec.elements)
    assert _subgroup_data(rec, zero)[0] == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UO", n=5, p=3),
        dict(family="UU", n=4, p=3, k=2),
        dict(family="UT", n=3, p=5),
        dict(family="UU", n=3, p=3, e=2, k=2),
    ],
    ids=["UO5", "UU4_F9", "UT3_F5", "UU3_e2"],
)
def test_per_subgroup_additivity_agrees_with_per_row_walk_check(monkeypatch, kwargs):
    # every row's lambda against every distinct S, so both verdicts occur
    bg = build_group(GroupSpec(**kwargs))
    sct, scht = theory(bg)
    rec = sct.record
    flats = rec.element_data()
    spaces = {}
    for row in scht.rows:
        space = rec.subgroup(row.lam)
        spaces[tuple(space.rows)] = space
    verdicts = set()
    for space in spaces.values():
        members = [i for i, flat in enumerate(flats) if space.contains(flat)]
        monkeypatch.setattr(rec, "subgroup", lambda lam: space)
        for row in scht.rows:
            want = additive_along_walk(rec, members, row.lam, scht.theta)
            try:
                induction_oracle(bg, row.lam, scht.theta, sct)
                got = True
            except NonIntegralityError as exc:
                assert NOT_MULTIPLICATIVE in str(exc)
                got = False
            assert got == want, (row.lam, len(members))
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "kwargs",
    [dict(family="UO", n=5, p=3), dict(family="UU", n=4, p=3, k=2), dict(family="UT", n=3, p=5)],
    ids=["UO5", "UU4_F9", "UT3_F5"],
)
def test_oracle_refuses_a_point_patched_inside_a_proper_subgroup(monkeypatch, kwargs):
    # a freshly built group, so that no per-S defect basis was made from the
    # unpatched points
    bg = build_group(GroupSpec(**kwargs))
    sct, scht = theory(bg)
    rec, theta = sct.record, scht.theta
    flats = rec.element_data()
    for row in scht.rows:
        space = rec.subgroup(row.lam)
        members = [i for i, flat in enumerate(flats) if space.contains(flat)]
        if 1 < len(members) < len(rec.elements) and any(map(theta.exponent, row.lam)):
            break
    else:
        raise AssertionError("no row has a proper subgroup")
    lam, i = row.lam, members[-1]
    # move f(s) for one member s != 1 by w with theta(lam(w)) != 0
    j = next(j for j, c in enumerate(lam) if theta.exponent(c))
    add = bg.tower.add_table
    patched = tuple(add[x][1] if k == j else x for k, x in enumerate(rec.points[i]))
    assert theta.exponent(bg.sc.dot(lam, patched)) != theta.exponent(
        bg.sc.dot(lam, rec.points[i])
    )
    monkeypatch.setattr(rec, "points", rec.points[:i] + [patched] + rec.points[i + 1 :])
    with pytest.raises(NonIntegralityError, match=NOT_MULTIPLICATIVE):
        induction_oracle(bg, lam, theta, sct)


def _digit_rows(kernel, segment):
    """The points of one segment of a ``DigitColumns``, as their rows of
    F_p-digits, sorted."""
    s, e = kernel.bounds[segment]
    return sorted(zip(*(col[s:e] for col in kernel.columns)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UO", n=4, p=3),
        dict(family="USp", n=4, p=3),
        dict(family="UU", n=3, p=3, k=2),
        dict(family="UT", n=3, p=3),
        dict(family="UO", n=3, p=131),
    ],
    ids=["UO4", "USp4", "UU3_F9", "UT3", "UO3_F131"],
)
def test_oracle_last_segment_is_the_per_step_defect_set(kwargs):
    # every distinct S of the rows; UO3(F_131) keeps its lanes as ints
    bg = build_group(GroupSpec(**kwargs))
    sct, scht = theory(bg)
    rec = sct.record
    flats = rec.element_data()
    spaces = {}
    for row in scht.rows:
        space = rec.subgroup(row.lam)
        spaces[tuple(space.rows)] = space
    steps = 0
    for space in spaces.values():
        members = [i for i, flat in enumerate(flats) if space.contains(flat)]
        want = walk_defects(rec, members)
        kernel = _subgroup_data(rec, space)[2]
        assert kernel.bounds[-1][1] - kernel.bounds[-1][0] == len(want)
        assert _digit_rows(kernel, -1) == _digit_rows(DigitColumns(bg.sc, [list(want)]), 0)
        steps += len(members) > 1
    assert steps, "no S takes a step"


def test_verify_solves_each_g_eta_once(capsys, monkeypatch):
    # the structure check and the induction oracle share one solve per lam
    calls = []
    solve = sct_module.kernel_in_g
    monkeypatch.setattr(sct_module, "kernel_in_g", lambda *a: calls.append(a) or solve(*a))
    assert main(["verify", "--family", "UU", "--n", "3", "--p", "3"]) == 0
    assert "checks passed" in capsys.readouterr().out
    orbits = orbit_partition_dual(build_group(GroupSpec(family="UU", n=3, p=3, k=2))).count
    assert len(calls) == orbits


@pytest.mark.parametrize("kwargs", [dict(n=3, p=5), dict(n=4, p=3)], ids=["UT3_F5", "UT4_F3"])
def test_algebra_subgroup_matches_per_product_rows(kwargs):
    bg = build_group(GroupSpec(family="UT", **kwargs))
    rec = superclasses(bg, "cayley").record
    for lam in sorted(set(rec.points))[:: max(1, len(rec.points) // 60)]:
        assert rec.subgroup(lam).rows == algebra_l_lam(bg, lam).rows, lam


@pytest.mark.parametrize("which", ["UO5", "UU3", "UT3_F5"])
def test_generator_walk_reaches_members_and_records_products(nonabelian, groups, which):
    bg = _oracle_group(nonabelian, groups, which)
    sct, scht = theory(bg)
    rec = sct.record
    flats = rec.element_data()
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
            t_mat = TriMatrix.from_encs(bg.n, bg.tower, rec.elements[t], True)
            assert row == [
                rec.index[(TriMatrix.from_encs(bg.n, bg.tower, rec.elements[r], True) * t_mat).encs]
                for r in reached
            ]
        walks[members] = walk
    assert len({id(w) for w in walks.values()}) == len(subsets)


@pytest.mark.parametrize(
    "kwargs,count",
    [
        (dict(family="USp", n=4, p=3), 2),
        (dict(family="UO", n=5, p=3), 2),
        (dict(family="UU", n=4, p=3, k=2), 3),
    ],
    ids=["USp4_F3", "UO5_F3", "UU4_F9"],
)
def test_u_walk_picks_a_minimal_generating_set(kwargs, count):
    # e -> the height-1 coordinates of flat(e - 1) is a homomorphism onto
    # an elementary abelian p-group of order p^r, so every generating set
    # of U has at least r members; the walk's has exactly r (serialization
    # order picked log_p |U| = 4, 4 and 6)
    bg = build_group(GroupSpec(**kwargs))
    rec = superclasses(bg, "cayley").record
    low = [
        k for k, (i, j) in enumerate(pos for pos in bg.positions for _ in range(bg.kdim))
        if j - i == 1
    ]
    image = {tuple(flat[k] for k in low) for flat in rec.element_data()}
    gens = _generator_walk(rec, range(len(rec.elements)))[0]
    assert len(image) == bg.tower.p**count
    assert len(gens) == count


def test_verify_axioms_refuses_u_not_closed(monkeypatch):
    # with one element's key gone, some product of the walk over U lands
    # outside U; the group is built here, so that no walk is cached yet
    bg = build_group(GroupSpec(family="UO", n=5, p=3))
    sct, scht = theory(bg)
    rec = sct.record
    dropped = rec.elements[len(rec.elements) // 2]
    monkeypatch.setattr(rec, "index", {k: v for k, v in rec.index.items() if k != dropped})
    with pytest.raises(VerificationError, match="U is not closed under multiplication"):
        verify_axioms(bg, sct, scht)


# -- the histogram kernel against exponent vectors and direct sums ---------------------

# (p, e, k): the scalar field is F_{p^e} inside F_{p^(e k)}; for F_9 in
# F_81 the scalar field is not spanned by low powers of t, and for p = 131
# a byte lane cannot take a folded value plus one column
KERNEL_FIELDS = [(3, 1, 1), (5, 1, 1), (3, 2, 2), (5, 2, 1), (131, 1, 1)]


def _random_segments(rng, sc, dim, count):
    return [
        [tuple(rng.choice(sc.elements) for _ in range(dim)) for _ in range(rng.randint(1, 30))]
        for _ in range(count)
    ]


@pytest.mark.parametrize("theta_kind", ["standard", "alternate"])
@pytest.mark.parametrize("p,e,k", KERNEL_FIELDS)
def test_digit_columns_match_exponent_vectors(p, e, k, theta_kind):
    sc = make_tower(p, e, k).base
    theta = getattr(Theta, theta_kind)(sc)
    rng = random.Random(20240813 + p * 100 + e * 10 + k)
    for dim in range(1, 5 if sc.size < 100 else 3):
        segments = _random_segments(rng, sc, dim, rng.randint(1, 6))
        kernel = DigitColumns(sc, segments)
        for _ in range(5):
            coeffs = tuple(rng.choice(sc.elements) for _ in range(dim))
            expect = product_order_histograms(segments, coeffs, theta)
            assert kernel.histograms(coeffs, theta) == expect, (dim, coeffs)


def test_digit_columns_without_columns():
    # dim u = 0 (UO1, UO2): one point, the empty tuple, and theta(0) = 1
    sc = make_tower(3, 1, 1).base
    theta = Theta.standard(sc)
    kernel = DigitColumns(sc, [[()]])
    assert kernel.histograms((), theta) == [(1, 0, 0)]
    assert product_order_histograms([[()]], (), theta) == [(1, 0, 0)]


@pytest.mark.parametrize("p,dim", [(3, 300), (5, 200)])
def test_digit_columns_fold_lanes_before_they_overflow(p, dim):
    # every column of the all-(p - 1) point scales to p - 1 under the
    # all-ones coefficients, so its lane reaches 255 between folds
    sc = make_tower(p, 1, 1).base
    theta = Theta.standard(sc)
    rng = random.Random(p)
    top = (p - 1,) * dim
    segments = [[top] + seg for seg in _random_segments(rng, sc, dim, 4)] + [[top] * 3]
    kernel = DigitColumns(sc, segments)
    for coeffs in [(1,) * dim] + [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(3)]:
        assert kernel.histograms(coeffs, theta) == direct_histograms(segments, coeffs, theta)


@pytest.mark.parametrize("p,e,k", KERNEL_FIELDS)
def test_prime_digits_are_coordinates_in_the_subfield(p, e, k):
    sc = make_tower(p, e, k).base
    basis, digits = sc.prime_digits
    assert len(basis) == e and set(basis) <= set(sc.elements)
    for a in sc.elements:
        ds = [digit[a] for digit in digits]
        assert all(0 <= d < p for d in ds)
        assert sc.dot(ds, basis) == a
    assert all(len(digit) == sc.size for digit in digits)


def test_equal_cells_share_one_value(groups):
    bg = _bg(groups, family="USp", n=4, p=3)
    sct = superclasses(bg, "cayley")
    scht = supercharacters(bg, "cayley", standard_theta(bg), sc_table=sct)
    ids: dict = {}
    for row in scht.rows:
        for v in row.values:
            ids.setdefault((row.n_lambda, v.coeffs), set()).add(id(v))
    assert all(len(s) == 1 for s in ids.values())
    assert len(ids) < sum(len(row.values) for row in scht.rows)


# -- the rows' histogram kernel against direct orbit sums -----------------------------


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
    reference = _reference_points(rec)
    points = [reference[rec.index[K.rep]] for K in sct.classes]
    for row in scht.rows:
        members = [od.space[i] for i in od.orbits[od.orbit_id(row.lam)].members]
        sums = orbit_sum_values(bg.tower.p, members, points, bg.sc.dot, theta.exponent)
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


def _duplicate_row(bg, sct, scht):
    scht.rows[2].values = list(scht.rows[1].values)


FAULTS = {
    "class-partition": (_move_noncentral_element, {"superclasses-union-of-conjugacy"}),
    "n-lambda": (_wrong_n_lambda, {"axiom-regular-sum"}),
    "cell": (_perturbed_cell, {"axiom-constancy", "induction-values"}),
    "duplicate-row": (_duplicate_row, {"axiom-orthogonality"}),
}


# UO4(F_3) is abelian, so no class partition of it can break
# union-of-conjugacy; UO5(F_3) and UT3(F_3) are not
NONABELIAN_SPECS = {"UO": dict(family="UO", n=5, p=3), "UT": dict(family="UT", n=3, p=3)}


@pytest.fixture(scope="module")
def nonabelian():
    return {family: build_group(GroupSpec(**kw)) for family, kw in NONABELIAN_SPECS.items()}


def test_springer_image_fails_on_swapped_points(monkeypatch, groups):
    # two elements of U with their points exchanged: f(U) is still u, but
    # the pairing every table is built from is wrong.  The first of them is
    # not central, so the pairing no longer commutes with conjugation;
    # swapping the points of two central elements would keep it equivariant
    bg = _bg(groups, family="UU", n=3, p=3, k=2)
    rec = superclasses(bg, "cayley").record
    cc = conjugacy_classes(rec)
    i = cc.class_of.index(next(cid for cid, size in enumerate(cc.sizes) if size > 1))
    swapped = list(rec.points)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    monkeypatch.setattr(rec, "points", swapped)
    results = verify_structure(bg).results
    assert {r.name: r.passed for r in results if r.name.endswith("-image")} == {
        "springer-cayley-image": False,
        "springer-log-image": True,
    }
    assert [r.passed for r in results if r.name == "springer-adjoint-equivariance"] == [False]


def _point_moved_at_unsplit_slot(monkeypatch, bg, springer):
    # one paired point moved by a basis vector of u that is nonzero at an
    # unsplit position: f(e) - (e - 1) then has a degree-1 term there
    rec = superclasses(bg, springer).record
    slots = {slot_index(bg.n)[pos] for pos in unsplit_positions(bg.positions)}
    j = next(j for j, b in enumerate(bg.u_basis.matrices) if any(b.encs[s] for s in slots))
    i = len(rec.points) // 2
    add = bg.tower.add_table
    moved = tuple(add[x][1] if k == j else x for k, x in enumerate(rec.points[i]))
    monkeypatch.setattr(rec, "points", rec.points[:i] + [moved] + rec.points[i + 1 :])
    return {r.name for r in verify_structure(bg).results if r.passed is False}


def test_springer_leading_term_fails_on_point_changed_at_unsplit_slot(monkeypatch):
    bg = build_group(GroupSpec(family="USp", n=4, p=3))
    failed = _point_moved_at_unsplit_slot(monkeypatch, bg, "cayley")
    assert "springer-cayley-leading-term" in failed


def test_springer_log_leading_term_fails_on_point_changed_at_unsplit_slot(monkeypatch):
    # log is defined on USp4 from p = 5; the moved point leaves log's image too
    bg = build_group(GroupSpec(family="USp", n=4, p=5))
    failed = _point_moved_at_unsplit_slot(monkeypatch, bg, "log")
    assert {"springer-log-image", "springer-log-leading-term"} <= failed


def test_leading_term_slots_are_those_outside_the_span_of_products(groups):
    # the products of two elements of g vanish exactly at the unsplit slots
    for kw in SMALL_SPECS:
        bg = _bg(groups, **kw)
        g = bg.g_basis_mats
        flats = [bg.flatten(a * b) for a in g for b in g]
        products = Subspace.from_spanning(bg.sc, bg.flat_dim, flats)
        unsplit = unsplit_positions(bg.positions)
        for b in g:
            (pos,) = b.entries
            assert products.contains(bg.flatten(b)) == (pos not in unsplit), (kw, pos)


def test_dagger_action_fails_without_the_dagger_term(monkeypatch):
    # g . x = g x g^dagger with the right factor dropped is g x, which is
    # not conjugation; the first run fills the caches that the action built
    bg = build_group(GroupSpec(family="UO", n=5, p=3))
    assert verify_structure(bg).ok
    monkeypatch.setattr(bg, "act", lambda g, x: x + g.nilpotent_part() * x)
    failed = {r.name for r in verify_structure(bg).results if r.passed is False}
    assert "dagger-action-restricts-to-conjugation" in failed


def _antisymmetric_basis(monkeypatch, bg):
    # g's basis replaced by the parts b - b^dagger, which span only u: no
    # symmetric element is left to pin eta down off u
    monkeypatch.setattr(bg, "g_basis_mats", [b - bg.dagger(b) for b in bg.g_basis_mats])


def _eta_off_antisymmetric(monkeypatch, bg):
    # eta + delta for a nonzero delta that vanishes on u: the restriction
    # to u still holds, but delta(x^dagger) = -delta(x) would force delta = 0
    (delta, *_) = Subspace.kernel(bg.sc, bg.flat_dim, bg.u_space.rows).rows
    extend, add = bg.extension_map, bg.tower.add_table
    monkeypatch.setattr(
        bg, "extension_map", lambda lam: tuple(add[a][b] for a, b in zip(extend(lam), delta))
    )


def _g_eta_is_all_of_g(monkeypatch, bg):
    # eta(x y) = 0 holds on g_eta, not on all of g for a nonzero eta
    monkeypatch.setattr(superclasses(bg, "cayley").record, "subgroup", lambda lam: bg.g_space)


def _form_halves_swapped(monkeypatch, bg):
    # the rows eta(b y^dagger) in place of eta(y b): g_eta, which stacks
    # both halves, is unchanged, but the span read as ann(l_eta) is ann(r_eta)
    forms = bg.eta_forms

    def swapped(eta):
        rows = forms(eta)
        half = len(rows) // 2
        return rows[half:] + rows[:half]

    monkeypatch.setattr(bg, "eta_forms", swapped)


def _h_orbit_of_lambda_is_lambda(monkeypatch, bg):
    monkeypatch.setattr("superchar.sct.h_orbit_of_functional", lambda bg, lam: frozenset([lam]))


EXTENSION_FAULTS = {
    "extension-unique": _antisymmetric_basis,
    "extension-antisymmetry": _eta_off_antisymmetric,
    "eta-kernel-on-g_eta": _g_eta_is_all_of_g,
    "h-orbit-as-affine-set": _form_halves_swapped,
    "restriction-set-equality": _h_orbit_of_lambda_is_lambda,
}


@pytest.mark.parametrize(
    "kw", [dict(family="UO", n=5, p=3), dict(family="UU", n=3, p=3, k=2)], ids=["UO5", "UU3"]
)
@pytest.mark.parametrize("check", sorted(EXTENSION_FAULTS))
def test_extension_check_fails_on_its_fault(monkeypatch, check, kw):
    # a fresh group, as each fault patches it; the first run fills the
    # caches, so the fault reaches the named check and no other
    bg = build_group(GroupSpec(**kw))
    assert verify_structure(bg).ok
    EXTENSION_FAULTS[check](monkeypatch, bg)
    assert {r.name for r in verify_structure(bg).results if r.passed is False} == {check}


def _u_cut_to_height_one(monkeypatch, bg):
    # u read as the span of its basis vectors on the first superdiagonal,
    # which their commutators leave
    flats = [
        bg.flatten(b) for b in bg.u_basis.matrices if all(j - i == 1 for (i, j) in b.entries)
    ]
    monkeypatch.setattr(bg, "u_space", Subspace.from_spanning(bg.sc, bg.flat_dim, flats))


def _star_without_the_dagger_term(monkeypatch, bg):
    # y * x read as y x: h . x = h x h^dagger is then not (h - 1) * x + x
    monkeypatch.setattr("superchar.sct._star", lambda bg, y, x: y * x)


def _h_counted_short(monkeypatch, bg):
    # |H| one F_q-coordinate short, so |H||U|/|H ∩ U| falls below |G|
    monkeypatch.setattr(bg, "order_H", bg.order_H // bg.sc.size)


def _h_without_its_corner(monkeypatch, bg):
    # h read without the corner (1, n), where the products y b and b y land
    kept = [m for m in bg.h_basis.matrices if (1, bg.n) not in m.entries]
    flats = [bg.flatten(m) for m in kept]
    monkeypatch.setattr(bg, "h_space", Subspace.from_spanning(bg.sc, bg.flat_dim, flats))


def _h_gens_with_an_outsider(monkeypatch, bg):
    # a generator of G outside H listed among H's: its conjugates leave H
    outsider = next(g for g in bg.G_gens if not bg.in_h_encs(g.encs))
    monkeypatch.setattr(bg, "H_gens", bg.H_gens + [outsider])


STRUCTURE_FAULTS = {
    "u-lie-closed": _u_cut_to_height_one,
    "h-action-linearization": _star_without_the_dagger_term,
    "g-equals-hu": _h_counted_short,
    "h-two-sided-ideal": _h_without_its_corner,
    "H-normal-in-G": _h_gens_with_an_outsider,
}


@pytest.mark.parametrize(
    "kw", [dict(family="UO", n=5, p=3), dict(family="UU", n=4, p=3, k=2)], ids=["UO5", "UU4"]
)
@pytest.mark.parametrize("check", sorted(STRUCTURE_FAULTS))
def test_structure_check_fails_on_its_fault(monkeypatch, check, kw):
    # a fresh group, as each fault patches it; the first run fills the
    # caches.  A fault may reach other checks too (a wrong u_space reaches
    # the extension checks), but it must fail the one it is named for
    bg = build_group(GroupSpec(**kw))
    assert verify_structure(bg).ok
    STRUCTURE_FAULTS[check](monkeypatch, bg)
    assert check in {r.name for r in verify_structure(bg).results if r.passed is False}


def _dagger_term_dropped(monkeypatch, bg):
    monkeypatch.setattr(bg, "act", lambda g, x: x + g.nilpotent_part() * x)


U_ACTION_FAULTS = {
    "dagger-action-restricts-to-conjugation": _dagger_term_dropped,
    "u-lie-closed": _u_cut_to_height_one,
}


@pytest.mark.parametrize(
    "kw", [dict(family="UO", n=5, p=3), dict(family="UU", n=4, p=3, k=2)], ids=["UO5", "UU4"]
)
@pytest.mark.parametrize("check", sorted(U_ACTION_FAULTS))
def test_structure_fails_by_name_where_the_u_action_leaves_u(monkeypatch, check, kw):
    # no warm-up run: the fault reaches the first build of a u-action
    # matrix, which fails the lemma that was running, and the lemmas after
    # it stop there
    bg = build_group(GroupSpec(**kw))
    U_ACTION_FAULTS[check](monkeypatch, bg)
    results = verify_structure(bg).results
    assert check in {r.name for r in results if r.passed is False}
    last = results[-1]
    assert (last.name, last.passed, last.detail) == (
        "springer-adjoint-equivariance",
        False,
        "the dagger action left u",
    )


def _one_row_repeated(sct, scht):
    return sct, scht.replace(rows=scht.rows + scht.rows[-1:])


def _one_row_dropped(sct, scht):
    return sct, scht.replace(rows=scht.rows[:-1])


def _one_class_grown(sct, scht):
    *kept, last = sct.classes
    return sct.replace(classes=kept + [last.replace(size=last.size + 1)]), scht


@pytest.mark.parametrize(
    "check, fault",
    [
        ("axiom-count", _one_row_repeated),
        ("axiom-count", _one_row_dropped),
        ("superclasses-partition", _one_class_grown),
    ],
)
@pytest.mark.parametrize("family", ["UO", "UT"])
def test_axiom_check_fails_on_a_copied_table(check, fault, family):
    bg = build_group(GroupSpec(**NONABELIAN_SPECS[family]))
    results = verify_axioms(bg, *fault(*theory(bg))).results
    assert check in {r.name for r in results if r.passed is False}, [r.line() for r in results]


@pytest.mark.parametrize("family", ["UO", "UT"])
def test_constancy_names_the_dual_orbit_of_a_dropped_row(nonabelian, family):
    bg = nonabelian[family]
    sct, scht = theory(bg)
    missing = sct.record.dual(bg).orbit_id(scht.rows[-1].lam)
    results = verify_axioms(bg, *_one_row_dropped(sct, scht)).results
    (constancy,) = [r for r in results if r.name == "axiom-constancy"]
    assert constancy.line() == f"FAIL   axiom-constancy: dual orbit {missing} has no row"


def test_springer_partition_fails_on_a_moved_log_class():
    # a fresh group, as the fault changes the log table that theory() keeps;
    # its rows are untouched, so springer-rows still passes
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    _move_noncentral_element(bg, *theory(bg, "log"))
    results = verify_springer_independence(bg).results
    assert [r.name for r in results if r.passed is False] == ["springer-partition"]


@pytest.mark.parametrize("which", ["UO5", "UT3"])
def test_constancy_fails_on_member_moved_between_dual_orbits(which):
    # a fresh group, as the fault changes the dual partition it keeps.  The
    # member moves in orbit_of and in the member lists alike, so the lists
    # still agree with orbit_of, and only the walk generators' transposes
    # can tell that the new partition is not invariant
    bg = build_group(GroupSpec(**NONABELIAN_SPECS[which[:2]]))
    sct, scht = theory(bg)
    od = sct.record.dual(bg)
    source = next(o for o in od.orbits if o.size > 1)
    target = od.orbits[(source.orbit_id + 1) % od.count]
    moved = source.members.pop()
    target.members.append(moved)
    od.orbit_of[moved] = target.orbit_id
    results = verify_axioms(bg, sct, scht).results
    (constancy,) = [r for r in results if r.name == "axiom-constancy"]
    assert not constancy.passed and "is not invariant" in constancy.detail


def test_induction_values_fail_on_swapped_theta():
    # rows built with the standard theta, checked against the alternate one;
    # a fresh group, as the test changes the table that theory() keeps
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    sct, scht = theory(bg, "cayley", standard_theta(bg))
    alt = alternate_theta(bg)
    assert [r.values for r in scht.rows] != [
        r.values for r in supercharacters(bg, "cayley", alt, sc_table=sct).rows
    ]
    scht.theta = alt
    results = verify_induction(bg, sct, scht).results
    assert [r.name for r in results if r.passed is False] == ["induction-values"]


def test_union_of_conjugacy_fails_on_moved_element_uu4():
    # |U| = 729, above the 256 elements where the constancy check used to
    # sample; union-of-conjugacy must see every element
    bg = build_group(GroupSpec(family="UU", n=4, p=3, k=2))
    assert bg.order_U == 729
    sct, scht = theory(bg)
    _move_noncentral_element(bg, sct, scht)
    results = verify_axioms(bg, sct, scht).results
    assert [r.passed for r in results if r.name == "superclasses-union-of-conjugacy"] == [False]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("family", ["UO", "UT"])
def test_injected_fault_fails_by_name(family, fault):
    # a fresh group, as the fault changes the tables that theory() keeps
    bg = build_group(GroupSpec(**NONABELIAN_SPECS[family]))
    sct, scht = theory(bg)
    inject, expected = FAULTS[fault]
    inject(bg, sct, scht)
    results = verify_axioms(bg, sct, scht).results
    if "induction-values" in expected:
        results += verify_induction(bg, sct, scht).results
    failed = {r.name for r in results if r.passed is False}
    assert expected <= failed, [r.line() for r in results]


@pytest.mark.parametrize("family", ["UO", "UT"])
def test_duplicate_row_fails_orthogonality_naming_the_pair(family):
    # rows 0 and 1 are untouched, so the first pair that fails is (1, 2),
    # and its inner product is <chi_1, chi_1>, reported exactly
    bg = build_group(GroupSpec(**NONABELIAN_SPECS[family]))
    sct, scht = theory(bg)
    sizes = [K.size for K in sct.classes]
    norm = inner_product(
        zip(scht.rows[1].values, sizes), zip(scht.rows[1].values, sizes), len(sct.record.elements)
    )
    _duplicate_row(bg, sct, scht)
    (result,) = [r for r in verify_axioms(bg, sct, scht).results if r.name == "axiom-orthogonality"]
    assert not result.passed
    assert result.detail == f"rows 1,2 not orthogonal: {norm!r}"


def test_regular_sum_fails_on_n_lambda_below_one():
    # the packed sum needs nonnegative multipliers; rows from
    # supercharacters() always have n_lambda >= 1
    bg = build_group(GroupSpec(**NONABELIAN_SPECS["UO"]))
    sct, scht = theory(bg)
    scht.rows[1].n_lambda = 0
    (result,) = [r for r in verify_axioms(bg, sct, scht).results if r.name == "axiom-regular-sum"]
    assert not result.passed and result.detail == f"n_lambda = 0 for row {scht.rows[1].lam}"


# -- the packed-lane checks against direct Z[zeta_p] arithmetic -------------------


@pytest.mark.parametrize(
    "kw",
    [dict(family="UT", n=3, p=5), dict(family="UU", n=3, p=3, k=2), dict(family="UO", n=4, p=7)],
    ids=["UT3_F5", "UU3_F9", "UO4_F7"],
)
def test_packed_checks_match_direct_sums(kw):
    bg = build_group(GroupSpec(**kw))
    sct, scht = theory(bg)
    p, order = bg.tower.p, len(sct.record.elements)
    sizes = [K.size for K in sct.classes]
    assert any(not v.is_integer() for row in scht.rows for v in row.values)
    for a, (lanes, acc) in enumerate(_gram_rows(p, scht)):
        f = list(zip(scht.rows[a].values, sizes))
        for b in range(a, scht.count):
            expected = inner_product(f, zip(scht.rows[b].values, sizes), order)
            assert CycloRational(lanes.value(acc, b - a), order) == expected, (a, b)
    for cid, (lanes, acc) in enumerate(_regular_sums(p, scht)):
        direct = CycloValue.zero(p)
        for row in scht.rows:
            direct = direct + row.values[cid] * row.n_lambda
        assert lanes.value(acc) == direct, cid


def _synthetic_table(p, order, sizes, rows):
    """A table of the given cells, for the checks that read only the
    cells, the class sizes, n_lambda and |E|."""
    record = SimpleNamespace(elements=range(order))
    classes = [Superclass(cid, None, size, []) for cid, size in enumerate(sizes)]
    sct = SuperclassTable(record, classes, [])
    table = [
        SupercharRow((i,), 1, 1, 1, 1, [CycloValue(p, c) for c in cells])
        for i, cells in enumerate(rows)
    ]
    return SimpleNamespace(tower=SimpleNamespace(p=p)), SupercharTable(sct, None, table)


def test_orthogonality_lane_width_is_tight(monkeypatch):
    # p = 3, classes of sizes 109 and 1; row 0 is (37 zeta^2, 1), row 1 is
    # (65 zeta^2, zeta).  The largest lane sum and lane of a lifted cell
    # are both 65, so the lanes are bounded by 110 * 65 * 65 = 464,750, 19
    # bits.  |E| <chi_0, chi_1> has raw lanes (0, 0, 1, 2^18 + 1, 0), which
    # fold to 2^18 + 1 + zeta^2, not 0; at 18 bits lane 3 carries into
    # lane 4, and the folded lanes read (1, 1, 1), which is 0.  Row 0's
    # norm, 109 * 37^2 + 1 = |E|, fits in 18 bits, so at 18 bits the
    # pair (0, 1) is the one that the narrower width lets through
    sizes, order = [109, 1], 109 * 37**2 + 1
    rows = [[(-37, -37), (1, 0)], [(-65, -65), (0, 1)]]
    bg, scht = _synthetic_table(3, order, sizes, rows)
    assert 109 * 37 * 65 == 2**18 + 1
    (lanes, _), *_ = _gram_rows(3, scht)
    assert lanes.width == 19
    a, b = ([CycloValue(3, c) for c in row] for row in rows)
    total = sum((x * y.conjugate() * s for x, y, s in zip(a, b, sizes)), CycloValue.zero(3))
    ip = CycloRational(total, order)
    assert ip != 0
    result = _orthogonality_check(bg, scht)
    assert not result.passed and result.detail == f"rows 0,1 not orthogonal: {ip!r}"

    class Narrower(Lanes):
        def __init__(self, p, bound, lanes):
            super().__init__(p, bound >> 1, lanes)

    monkeypatch.setattr("superchar.sct.Lanes", Narrower)
    (lanes, acc), *_ = _gram_rows(3, scht)
    assert lanes.width == 18 and lanes.unpack(acc, 1) == [1, 1, 1]
    # the pair passes, and only row 1's own norm, also too wide, fails
    narrow = _orthogonality_check(bg, scht)
    assert narrow.detail.startswith("<chi,chi> not a positive integer for row 1:")


def test_passing_axioms_build_no_cyclo_rational(monkeypatch):
    # the exact quotient is built only to report a failure
    bg = build_group(GroupSpec(family="UU", n=4, p=3, k=2))
    sct, scht = theory(bg)

    def refuse(*args):
        raise AssertionError("CycloRational built on a passing table")

    monkeypatch.setattr("superchar.sct.CycloRational", refuse)
    assert verify_axioms(bg, sct, scht).ok


def _one_point_stabiliser_orbit(monkeypatch, bg):
    """The record's stabiliser patched so that the first row with
    |H.lam| > 1 gets the one-point orbit {lam}; returns that lam."""
    rec = superclasses(bg, "cayley").record
    stabiliser = rec.stabiliser
    lam = next(o.rep for o in rec.dual(bg).orbits if len(stabiliser(bg, o.rep)) > 1)
    monkeypatch.setattr(
        rec, "stabiliser", lambda bg, mu: frozenset([mu]) if mu == lam else stabiliser(bg, mu)
    )
    return lam


@pytest.mark.parametrize(
    "kw", [dict(family="UO", n=4, p=3), dict(family="UU", n=3, p=3, k=2)], ids=["UO4", "UU3"]
)
def test_one_point_stabiliser_orbit_fails_by_name(monkeypatch, kw):
    # the row is scaled by n_lambda = |G.lam| where |G.lam| / |H.lam| is
    # right; its degree reads 1, so only the checks that compare the row
    # with the rest of the theory can tell.  A fresh group, as the rows
    # that theory() keeps are built under the fault
    bg = build_group(GroupSpec(**kw))
    lam = _one_point_stabiliser_orbit(monkeypatch, bg)
    sct, scht = theory(bg)
    (row,) = [r for r in scht.rows if r.lam == lam]
    assert row.h_orbit_size == row.degree == 1 and row.n_lambda == row.orbit_size
    results = verify_axioms(bg, sct, scht).results + verify_induction(bg, sct, scht).results
    assert {r.name for r in results if r.passed is False} == {
        "axiom-orthogonality",
        "induction-degree",
    }


def test_one_point_stabiliser_orbit_is_not_integral_usp4(monkeypatch):
    # here some cell of the orbit sum is not divisible by |G.lam|
    bg = build_group(GroupSpec(family="USp", n=4, p=3))
    _one_point_stabiliser_orbit(monkeypatch, bg)
    with pytest.raises(NonIntegralityError):
        theory(bg)


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
def test_intersection_fails_on_moved_element(which):
    # a fresh group, as the test moves an element in the superclass table
    # that theory() keeps and intersection_check reads
    spec = NONABELIAN_SPECS["UO"] if which == "UO5" else dict(family="UU", n=3, p=3, k=2)
    bg = build_group(GroupSpec(**spec))
    sct, _ = theory(bg)
    _move_noncentral_element(bg, sct, None)
    results = intersection_check(bg).results
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


@pytest.mark.parametrize(
    "family,n,dropped",
    [("USp", 4, [(2, 3)]), ("UO", 5, [(1, 2), (4, 5)])],
    ids=["USp4-type-D", "UO5-without-12-45"],
)
def test_intersection_fallback_fails_on_moved_element(family, n, dropped):
    # a nonabelian group on a non-chain poset, where the check scans the
    # ambient g; UO5 without (2,3)/(3,4) is abelian, so it cannot serve
    pairs = [pos for pos in strict_positions(n) if pos not in dropped]
    bg = build_group(
        GroupSpec(family=family, n=n, p=3, poset=MirrorPoset.from_pairs(n, pairs))
    )
    assert bg.poset != MirrorPoset.chain(n)
    sct, _ = theory(bg)
    assert intersection_check(bg).ok
    _move_noncentral_element(bg, sct, None)
    results = intersection_check(bg).results
    assert [r.passed for r in results if r.name == "intersection-partition"] == [False]


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


def test_one_point_segments_match_exponent_vectors():
    # UO3(F_27): u is one-dimensional and abelian, so every dual orbit is
    # a single point and every row cell is read from a unit histogram
    bg = build_group(GroupSpec(family="UO", n=3, p=3, e=3))
    theta = standard_theta(bg)
    sct, scht = theory(bg)
    od = sct.record.dual(bg)
    segments = [[od.space[i] for i in orbit.members] for orbit in od.orbits]
    assert all(len(seg) == 1 for seg in segments) and len(segments) == 27
    kernel = DigitColumns(bg.sc, segments)
    expect: dict = {}
    for K in sct.classes:
        x = sct.record.points[K.member_ids[0]]
        counts = product_order_histograms(segments, x, theta)
        assert kernel.histograms(x, theta) == counts
        for (mu,), c in zip(segments, counts):
            expect.setdefault(mu, []).append(CycloValue.from_exponents(3, c))
    assert {row.lam: row.values for row in scht.rows} == expect
