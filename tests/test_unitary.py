import pytest

from superchar import unitary
from superchar.errors import ShapeError
from superchar.gf import make_tower
from superchar.involution_group import GroupSpec, build_group
from superchar.orbits import orbit_partition_u
from superchar.sct import standard_theta, superclasses, theory
from superchar.triangular import TriMatrix
from superchar.unitary import (
    TwistedSetPartition,
    blocked,
    bruteforce_degree,
    count_twisted,
    degree_audit,
    elementary_degree,
    ennola_degree_check,
    enumerate_labeled,
    enumerate_twisted,
    factor_elementary,
    formula_grid_check,
    formula_value,
    lambda_functional,
    nst,
    printed_degree_formulas,
    rep_group_element,
    rep_matrix,
)

T9 = make_tower(3, 1, 2)


@pytest.fixture(scope="module")
def uu3():
    return build_group(GroupSpec(family="UU", n=3, p=3, k=2))


@pytest.fixture(scope="module")
def uu4():
    return build_group(GroupSpec(family="UU", n=4, p=3, k=2))


def trace_zero_labels(tower):
    return [
        a
        for a in range(1, tower.size)
        if tower.add_enc(tower.frobenius_q_enc(a), a) == 0
    ]


# -- enumeration ------------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_twisted(1, T9)) == 1
    assert len(enumerate_twisted(2, T9)) == 3
    assert len(enumerate_twisted(3, T9)) == 11
    assert len(enumerate_twisted(4, T9)) == 41
    t25 = make_tower(5, 1, 2)
    assert len(enumerate_twisted(2, t25)) == 5  # empty + 4 trace-zero labels


def test_enumerate_n3_structure():
    parts = enumerate_twisted(3, T9)
    empties = [p for p in parts if not p.arcs]
    pairs = [p for p in parts if len(p.arcs) == 2]
    selfs = [p for p in parts if len(p.arcs) == 1]
    assert len(empties) == 1 and len(pairs) == 8 and len(selfs) == 2
    for p in selfs:
        ((i, j, a),) = p.arcs
        assert (i, j) == (1, 3)
        assert T9.add_enc(T9.frobenius_q_enc(a), a) == 0


@pytest.mark.parametrize("p, e, top", [(3, 1, 7), (5, 1, 5), (3, 2, 5)], ids=["F9", "F25", "F81"])
def test_count_twisted_is_the_listed_count(p, e, top):
    tower = make_tower(p, e, 2)
    for n in range(1, top + 1):
        assert count_twisted(n, tower) == len(enumerate_twisted(n, tower)), n


def test_count_twisted_reaches_sizes_that_listing_cannot():
    assert count_twisted(10, T9) == 362931
    assert count_twisted(12, T9) == 10429625


# enumerate_labeled's values while it ran a recursion of its own
LABELED_COUNTS = {3: [1, 1, 3, 11, 49, 257, 1539], 5: [1, 1, 5, 29, 201, 1657, 15821]}


@pytest.mark.parametrize("p", sorted(LABELED_COUNTS))
def test_enumerate_labeled_keeps_its_values(p):
    assert [enumerate_labeled(n, p - 1) for n in range(7)] == LABELED_COUNTS[p]


def test_enumeration_is_duplicate_free():
    parts = enumerate_twisted(4, T9)
    assert len({p.arcs for p in parts}) == len(parts)


def test_mirror_closure_enforced():
    unclosed = TwistedSetPartition(3, frozenset({(1, 2, 1)}))  # missing mirror arc
    with pytest.raises(ShapeError):
        unclosed.validate(T9)
    # from_arcs closes automatically
    part = TwistedSetPartition.from_arcs(3, T9, [(1, 2, 1)])
    assert len(part.arcs) == 2
    (arc,) = {a for a in part.arcs if a[:2] == (2, 3)}
    assert arc[2] == T9.neg_enc(T9.frobenius_q_enc(1))


def test_selfmirror_label_condition():
    bad = [a for a in range(1, 9) if T9.add_enc(T9.frobenius_q_enc(a), a) != 0]
    with pytest.raises(ShapeError):
        TwistedSetPartition.from_arcs(3, T9, [(1, 3, bad[0])])
    good = trace_zero_labels(T9)[0]
    part = TwistedSetPartition.from_arcs(3, T9, [(1, 3, good)])
    assert len(part.arcs) == 1


def test_endpoint_collisions_rejected():
    with pytest.raises(ShapeError):
        TwistedSetPartition.from_arcs(4, T9, [(1, 3, 1), (1, 4, 1)])


def test_labeled_partition_counts():
    assert enumerate_labeled(1, 2) == 1
    assert enumerate_labeled(2, 2) == 3
    assert enumerate_labeled(3, 2) == 11
    assert enumerate_labeled(3, 8) == 1 + 3 * 8 + 8 * 8  # F_9 labels


# -- representatives ---------------------------------------------------------------


def test_rep_matrix_and_group_element(uu3):
    empty = enumerate_twisted(3, T9)[0]
    assert not empty.arcs
    assert rep_matrix(uu3, empty) == TriMatrix.zero(3, T9)
    assert rep_group_element(uu3, empty) == TriMatrix.identity(3, T9)
    a = trace_zero_labels(T9)[0]
    part = TwistedSetPartition.from_arcs(3, T9, [(1, 3, a)])
    x = rep_matrix(uu3, part)
    assert x == TriMatrix.from_entries(3, T9, {(1, 3): a})
    assert uu3.dagger(x) == -x


def test_rep_matrix_mirror_pair_is_antisymmetric(uu3):
    part = TwistedSetPartition.from_arcs(3, T9, [(1, 2, 5)])
    x = rep_matrix(uu3, part)
    assert uu3.dagger(x) == -x
    assert set(x.entries) == {(1, 2), (2, 3)}


def test_lambda_functional_is_fq_valued(uu3):
    for part in enumerate_twisted(3, T9):
        lam = lambda_functional(uu3, part)  # raises if a value leaves F_q
        assert len(lam) == uu3.u_basis.dim


# -- the combinatorial statistics ----------------------------------------------------


def test_nst_examples():
    a = trace_zero_labels(T9)[0]
    eta14 = TwistedSetPartition.from_arcs(4, T9, [(1, 4, a)])
    nu23 = TwistedSetPartition.from_arcs(4, T9, [(2, 3, a)])
    empty = TwistedSetPartition(4, frozenset())
    assert nst(empty, eta14) == 0
    assert nst(eta14, nu23) == 1
    nu12 = TwistedSetPartition.from_arcs(4, T9, [(1, 2, 1)])
    assert nst(eta14, nu12) == 0  # shares an endpoint, not nested


def test_blocking_condition():
    a = trace_zero_labels(T9)[0]
    eta = TwistedSetPartition.from_arcs(3, T9, [(1, 3, a)])
    nu = TwistedSetPartition.from_arcs(3, T9, [(1, 2, 1)])
    assert blocked(eta, nu)
    assert not blocked(eta, eta)


def test_factor_elementary(uu3, uu4):
    single = TwistedSetPartition.from_arcs(3, T9, [(1, 2, 1)])
    assert factor_elementary(single) == [single]
    a = trace_zero_labels(T9)[0]
    double = TwistedSetPartition.from_arcs(4, T9, [(1, 4, a), (2, 3, a)])
    parts = factor_elementary(double)
    assert len(parts) == 2
    assert [p.positions() for p in parts] == [[(1, 4)], [(2, 3)]]
    for part in enumerate_twisted(4, T9):
        deg = 1
        for f in factor_elementary(part):
            deg *= elementary_degree(uu4, f)
        assert deg == bruteforce_degree(uu4, part)


# -- values -----------------------------------------------------------------------


def test_formula_trivial_character(uu3):
    empty = TwistedSetPartition(3, frozenset())
    theta = standard_theta(uu3)
    for nu in enumerate_twisted(3, T9):
        assert formula_value(uu3, empty, nu, theta) == 1


def test_formula_at_identity_is_degree(uu4):
    empty = TwistedSetPartition(4, frozenset())
    theta = standard_theta(uu4)
    for eta in enumerate_twisted(4, T9):
        v = formula_value(uu4, eta, empty, theta)
        assert v == bruteforce_degree(uu4, eta)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_formula_matches_bruteforce_table(n):
    bg = build_group(GroupSpec(family="UU", n=n, p=3, k=2))
    sct, scht = theory(bg)
    rep = formula_grid_check(bg, sct, scht)
    assert rep.ok, [r.line() for r in rep.results if r.passed is False]


def test_formula_matches_bruteforce_table_q5():
    bg = build_group(GroupSpec(family="UU", n=2, p=5, k=2))
    sct, scht = theory(bg)
    assert formula_grid_check(bg, sct, scht).ok


def test_formula_with_alternate_theta(uu3):
    from superchar.sct import alternate_theta, supercharacters

    sct = superclasses(uu3, "cayley")
    scht = supercharacters(uu3, "cayley", alternate_theta(uu3), sc_table=sct)
    assert formula_grid_check(uu3, sct, scht).ok


# -- injected faults: each must fail by the check that guards it ----------------


def _labels_forgotten(n):
    """A map from each twisted partition of [n] to the first one with its
    positions, as a formula that reads the arcs but not their labels would."""
    first = {}
    for eta in enumerate_twisted(n, T9):
        first.setdefault(tuple(eta.positions()), eta)
    return lambda eta: first[tuple(eta.positions())]


@pytest.mark.parametrize(
    "name, check",
    [("lambda_functional", "lambda-transversal"), ("rep_group_element", "class-transversal")],
)
def test_transversal_fails_when_labels_are_forgotten(monkeypatch, uu3, name, check):
    forget, built = _labels_forgotten(3), getattr(unitary, name)
    monkeypatch.setattr(unitary, name, lambda bg, eta, *rest: built(bg, forget(eta), *rest))
    results = formula_grid_check(uu3, *theory(uu3)).results
    assert [r.name for r in results if r.passed is False] == [check]


def test_degree_product_fails_when_a_factor_is_dropped(monkeypatch, uu4):
    # only the last elementary factor: {1~4, 2~3} loses the degree of 1~4
    factors = unitary.factor_elementary
    monkeypatch.setattr(unitary, "factor_elementary", lambda eta: factors(eta)[-1:])
    results = formula_grid_check(uu4, *theory(uu4)).results
    assert [r.name for r in results if r.passed is False] == ["degree-product"]


def test_zero_pattern_fails_when_nothing_is_blocked(monkeypatch, uu3):
    monkeypatch.setattr(unitary, "blocked", lambda eta, nu: False)
    results = formula_grid_check(uu3, *theory(uu3)).results
    assert {r.name for r in results if r.passed is False} == {
        "formula-values", "formula-zero-pattern",
    }


# -- degrees ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ennola_degrees_are_powers_of_q_squared(n):
    bg = build_group(GroupSpec(family="UU", n=n, p=3, k=2))
    _, scht = theory(bg)
    assert ennola_degree_check(scht).ok


def test_degree_audit_reproduces_known_discrepancy(uu3):
    """The printed n-odd self-arc degree formula disagrees with brute
    force at n = 3 (q^4 printed vs q^2 actual); the audit must surface
    it rather than paper over it."""
    rows = degree_audit(uu3)
    selfarc = next(r for r in rows if r.positions == ((1, 3),))
    assert selfarc.brute == 9
    assert list(selfarc.formulas.values()) == [81]
    assert not selfarc.any_match


def test_degree_audit_n4(uu4):
    rows = degree_audit(uu4)
    audit = {r.positions: r for r in rows}
    assert audit[((1, 2), (3, 4))].brute == 1 and audit[((1, 2), (3, 4))].all_match
    assert audit[((1, 3), (2, 4))].brute == 9 and audit[((1, 3), (2, 4))].all_match
    assert audit[((2, 3),)].brute == 1 and audit[((2, 3),)].all_match
    # the self-arc case (1,4) disagrees with the printed n-even formula too
    assert audit[((1, 4),)].brute == 9
    assert not audit[((1, 4),)].any_match


def test_degree_label_independence(uu4):
    rows = degree_audit(uu4)
    pair_row = next(r for r in rows if r.positions == ((1, 2), (3, 4)))
    assert pair_row.labels_seen == 8  # every label checked, all agree


def test_printed_formula_readings():
    a = trace_zero_labels(T9)[0]
    eta = TwistedSetPartition.from_arcs(3, T9, [(1, 2, 1)])
    vals = printed_degree_formulas(3, 3, eta)
    # the two mirror readings of the same elementary pair disagree for odd n
    assert sorted(vals.values()) == [1, 9]


# -- transversal cross-checks -----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_twisted_count_matches_class_and_orbit_count(n):
    bg = build_group(GroupSpec(family="UU", n=n, p=3, k=2))
    sct = superclasses(bg, "cayley")
    oi = orbit_partition_u(bg)
    assert len(enumerate_twisted(n, T9)) == sct.count == oi.count


def test_stabilizer_description_a2ulambda(uu4):
    """u_{lambda_eta} from the kernel solve equals the positionwise
    description {x in u : x_{ij} = 0 if i~k in eta, j < k, 2j <= n+1},
    and equals f(U_lambda)."""
    from superchar.sct import _theory_record
    from reference import stabilizer_subgroup

    bg = uu4
    subgroup = _theory_record(bg, "cayley").subgroup
    for eta in enumerate_twisted(4, T9):
        g_eta = subgroup(lambda_functional(bg, eta))
        arcs = {(i, j) for (i, j, _) in eta.arcs}
        described = set()
        in_kernel = set()
        springer_image = set()
        for coords in bg.u_points[0]:
            flat = bg.u_space.combine(coords)
            x = bg.unflatten(flat)
            blocked_positions = [
                (i, j)
                for (i, j) in x.entries
                if any(ik == i and j < k for (ik, k) in arcs) and 2 * j <= bg.n + 1
            ]
            if not blocked_positions:
                described.add(x.encs)
            if g_eta.contains(flat):
                in_kernel.add(x.encs)
        for u in stabilizer_subgroup(bg, g_eta):
            fwd, _ = bg.springer("cayley")
            springer_image.add(fwd(u.encs))
        assert described == in_kernel == springer_image
