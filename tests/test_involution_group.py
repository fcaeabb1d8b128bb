import json
import math

import pytest

from superchar.errors import SizeGuardError, SpringerUndefinedError, VerificationError
from superchar.involution_group import (
    GroupSpec,
    build_group,
    h_u_product_order,
    kernel_in_g,
    load_spec,
)
from superchar.linalg import Subspace
from superchar.triangular import (
    MirrorPoset,
    TriMatrix,
    kernel,
    slot_index,
    strict_positions,
)

import reference
from reference import element_encs, evaluate, stabilizer_subgroup


def exhaustive_U(bg):
    """Oracle: filter the enumerated pattern group for u^dagger = u^(-1)."""
    return sorted(
        (g.encs for g in bg.enumerate_G() if bg.dagger(g) == g.inverse()),
    )


@pytest.mark.parametrize(
    "kwargs,dim,order",
    [
        (dict(family="UU", n=3, p=3, k=2), 3, 27),
        (dict(family="UO", n=3, p=3), 1, 3),
        (dict(family="USp", n=2, p=3), 1, 3),
        (dict(family="UO", n=4, p=3), 2, 9),
        (dict(family="USp", n=4, p=3), 4, 81),
        (dict(family="UU", n=2, p=3, k=2), 1, 3),
        (dict(family="UU", n=2, p=5, k=2), 1, 5),
    ],
)
def test_build_U_and_u_dimensions(kwargs, dim, order):
    bg = build_group(GroupSpec(**kwargs))
    assert bg.u_basis.dim == dim
    assert bg.order_U == order == bg.sc.size**dim


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UU", n=3, p=3, k=2),
        dict(family="UO", n=3, p=3),
        dict(family="UO", n=4, p=3),
        dict(family="USp", n=4, p=3),
    ],
)
def test_build_U_matches_exhaustive_filter(kwargs):
    bg = build_group(GroupSpec(**kwargs))
    assert bg.cayley_pairing[0] == [u.encs for u in bg.U] == exhaustive_U(bg)


def test_ut2_order():
    bg = build_group(GroupSpec(family="UT", n=2, p=3))
    assert bg.order_G == 3
    assert bg.u_basis is None


def test_u_antisymmetry_exhaustive():
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    for coords in bg.u_points[0]:
        x = TriMatrix.from_encs(bg.n, bg.tower, bg.u_basis.element_encs(coords))
        assert bg.dagger(x) == -x


def test_uo3_u_is_one_dimensional_line():
    bg = build_group(GroupSpec(family="UO", n=3, p=3))
    (b,) = bg.u_basis.matrices
    slot = slot_index(3)
    # x_23 = -x_12 and x_13 = 0 forced in odd characteristic
    assert b.encs[slot[2, 3]] == bg.tower.neg_enc(b.encs[slot[1, 2]]) != 0
    assert b.encs[slot[1, 3]] == 0


def test_H_positions_and_orders():
    bg3 = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    assert bg3.h_positions == strict_positions(3)  # h = g when n = 3
    assert bg3.order_H == bg3.order_G
    bg4 = build_group(GroupSpec(family="UO", n=4, p=3))
    assert bg4.h_positions == [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UU", n=4, p=3, k=2),
        dict(family="UO", n=4, p=3),
        dict(family="USp", n=4, p=3),
        dict(family="UU", n=3, p=3, k=2),
    ],
)
def test_G_equals_HU(kwargs):
    bg = build_group(GroupSpec(**kwargs))
    assert h_u_product_order(bg) == bg.order_G


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(family="USp", n=3, p=3)
    with pytest.raises(ValueError):
        GroupSpec(family="UU", n=3, p=3, k=1)
    with pytest.raises(ValueError):
        GroupSpec(family="XX", n=3, p=3)


def test_spec_file_loading(tmp_path):
    poset_file = tmp_path / "poset.txt"
    poset_file.write_text("4\n1 2\n3 4\n")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps({"family": "UO", "n": 4, "p": 3, "e": 1, "k": 1, "poset": "poset.txt"})
    )
    spec = load_spec(spec_file)
    assert spec.family == "UO" and spec.poset == MirrorPoset.from_pairs(4, [(1, 2), (3, 4)])
    bg = build_group(spec)
    assert bg.order_U == 3


def test_size_guard_on_u():
    bg = build_group(GroupSpec(family="UU", n=8, p=5, k=2))
    with pytest.raises(SizeGuardError):
        bg.U


def test_build_group_leaves_U_unbuilt():
    bg = build_group(GroupSpec(family="UU", n=6, p=3, k=2))
    assert bg.order_U == 3**15
    assert "U" not in bg.__dict__ and "u_points" not in bg.__dict__


def test_U_refuses_a_non_injective_springer_preimage(monkeypatch):
    """Two points of u sent to one element must not pass as |U| = q^dim u."""
    bg = build_group(GroupSpec(family="UO", n=4, p=3))
    springer = bg.springer
    target = bg.u_basis.element_encs(bg.u_points[0][1])

    def collapsed(name):
        # cayley^-1 sends a second point of u, as 0 does, to the identity
        fwd, inverse = springer(name)
        return fwd, lambda y: inverse((0,) * len(y) if y == target else y)

    monkeypatch.setattr(bg, "springer", collapsed)
    with pytest.raises(VerificationError, match="not injective"):
        bg.U


LOG_POSET = MirrorPoset.from_pairs(5, [(1, 2), (4, 5), (1, 3), (3, 5)])


def _series(x, coeffs):
    """sum c_i x^i over i = 1, 2, ... for coeffs = [c_1, c_2, ...], by
    TriMatrix products and ``scale``."""
    total = power = x
    for c in coeffs[1:]:
        power = power * x
        total = total + power.scale(c)
    return total


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="USp", n=4, p=5),
        dict(family="UO", n=5, p=5),
        dict(family="UU", n=3, p=3, k=2),
        # m = 3 = p < n, so log and exp stop at the poset's nilpotency index
        dict(family="UO", n=5, p=3, poset=LOG_POSET),
    ],
    ids=["USp4_F5", "UO5_F5", "UU3_F9", "UO5_F3-poset"],
)
def test_log_and_exp_kernels_are_the_truncated_series(kwargs):
    bg = build_group(GroupSpec(**kwargs))
    p, m = bg.tower.p, bg.nilpotency
    log_c = [(-1) ** (i + 1) * pow(i, -1, p) % p for i in range(1, m)]
    exp_c = [pow(math.factorial(i), -1, p) for i in range(1, m)]
    log, exp = bg.springer("log")
    for g in bg.U:
        x = _series(g.nilpotent_part(), log_c)
        assert log(g.encs) == x.encs
        assert exp(x.encs) == _series(x, exp_c).encs == g.encs
        assert exp(log(g.encs)) == g.encs
    # the series stop at the nilpotency index m, not at n, which may pass p
    assert (log, exp) == (kernel(bg.tower, "log", bg.n, m), kernel(bg.tower, "exp", bg.n, m))


def test_log_and_exp_refuse_nilpotency_above_p():
    bg = build_group(GroupSpec(family="UO", n=4, p=3))  # m = 4 > p = 3
    assert "log" not in bg.springer_names()
    with pytest.raises(SpringerUndefinedError):
        bg.springer("log")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UU", n=3, p=3, k=2),
        dict(family="USp", n=4, p=3),
        dict(family="UO", n=5, p=3),
        dict(family="UU", n=4, p=3, k=2, poset=MirrorPoset.from_pairs(4, [(1, 2), (3, 4)])),
        dict(family="UO", n=1, p=3),  # no slots, dim u = 0
        dict(family="UO", n=2, p=3),  # one slot, dim u = 0
    ],
)
def test_element_combines_basis_slots(kwargs):
    """element_encs(c) sums the basis matrices' slots; it must equal the
    unflattened combination of the flat basis rows at every point of u,
    and the interpreted slot-by-slot combination."""
    bg = build_group(GroupSpec(**kwargs))
    for c in bg.u_points[0]:
        encs = bg.u_basis.element_encs(c)
        assert encs == bg.unflatten(bg.u_space.combine(c)).encs
        assert encs == element_encs(bg.u_basis, c)


def test_flatten_roundtrip():
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    import itertools

    for combo in itertools.islice(
        itertools.product(range(bg.tower.size), repeat=3), 0, 200, 7
    ):
        mat = TriMatrix(3, bg.tower, False, dict(zip(bg.positions, combo)))
        assert bg.unflatten(bg.flatten(mat)) == mat


# -- functionals ---------------------------------------------------------------


def test_extend_functional_zero():
    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    eta = bg.extension_map((0,) * bg.u_basis.dim)
    assert all(c == 0 for c in eta)


def test_extend_functional_restriction_and_antisymmetry():
    bg = build_group(GroupSpec(family="USp", n=4, p=3))
    for lam in [(1, 0, 0, 0), (0, 1, 2, 0), (2, 2, 1, 1)]:
        eta = bg.extension_map(lam)
        for b in bg.u_basis.matrices:
            assert evaluate(bg.g_basis, eta, b) == evaluate(bg.u_basis, lam, b)
        for c in bg.g_basis_mats:
            assert evaluate(bg.g_basis, eta, bg.dagger(c)) == bg.sc.neg(
                evaluate(bg.g_basis, eta, c)
            )


def test_sub_l_r_g_trivial_functional():
    # the reference's l_eta, r_eta and g_eta, and the compiled rows' g_eta
    bg = build_group(GroupSpec(family="UO", n=4, p=3))
    eta = (0,) * bg.flat_dim
    l, r, g = reference.sub_l_r_g(bg, eta)
    assert l.dim == r.dim == g.dim == bg.flat_dim
    assert kernel_in_g(bg, bg.eta_forms(eta)).dim == bg.flat_dim


def test_sub_l_r_g_unitary_selfarc():
    # lambda for the arc 1~3 with a trace-zero label; l_eta = {x : x_23 = 0}
    from superchar.sct import _theory_record

    bg = build_group(GroupSpec(family="UU", n=3, p=3, k=2))
    t = bg.tower.p  # the encoding of t, a trace-zero label of F_9
    arc = TriMatrix.from_entries(3, bg.tower, {(1, 3): t})
    lam = tuple(bg.tower.mul_enc(t, b.encs[slot_index(3)[1, 3]]) for b in bg.u_basis.matrices)
    assert evaluate(bg.u_basis, lam, arc) != 0
    eta = bg.extension_map(lam)
    l, _, g_eta = reference.sub_l_r_g(bg, eta)
    assert l.dim == bg.flat_dim - 2  # one F_9 entry killed
    e23 = TriMatrix.elementary(3, bg.tower, 2, 3)
    e12 = TriMatrix.elementary(3, bg.tower, 1, 2)
    e13 = TriMatrix.elementary(3, bg.tower, 1, 3)
    assert not l.contains(bg.flatten(e23))
    assert l.contains(bg.flatten(e12)) and l.contains(bg.flatten(e13))
    # the oracle's g_eta is the reference's, and eta(xy) vanishes on it
    assert _theory_record(bg, "cayley").subgroup(lam).rows == g_eta.rows
    mats = [bg.unflatten(row) for row in g_eta.rows]
    for x in mats:
        for y in mats:
            assert evaluate(bg.g_basis, eta, x * y) == 0


_TYPE_D_UO4 = MirrorPoset.from_pairs(4, [pos for pos in strict_positions(4) if pos != (2, 3)])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="UO", n=4, p=3),
        dict(family="USp", n=4, p=3),
        dict(family="UO", n=5, p=3),
        dict(family="UU", n=4, p=3, k=2),
        dict(family="UO", n=4, p=3, e=2),
        dict(family="UU", n=3, p=3, e=2, k=2),
        dict(family="UO", n=4, p=3, poset=_TYPE_D_UO4),
    ],
    ids=["UO4", "USp4", "UO5", "UU4_F9", "UO4_e2", "UU3_e2", "UO4_typeD"],
)
def test_compiled_extension_and_subalgebras_match_per_product_reference(kwargs):
    from superchar.orbits import orbit_partition_dual
    from superchar.sct import _theory_record

    bg = build_group(GroupSpec(**kwargs))
    subgroup = _theory_record(bg, "cayley").subgroup
    reps = [o.rep for o in orbit_partition_dual(bg).orbits]
    for lam in reps:
        eta = bg.extension_map(lam)
        assert eta == reference.extend_functional(bg, lam), lam
        l_eta, _, g_eta = reference.sub_l_r_g(bg, eta)
        rows = bg.eta_forms(eta)
        left = rows[: len(rows) // 2]
        assert kernel_in_g(bg, left).rows == l_eta.rows, lam
        # the oracle's g_eta, solved from the stacked rows alone
        got = subgroup(lam)
        assert (got.rows, got.pivots) == (g_eta.rows, g_eta.pivots), lam
        # ann(l_eta) is the span of the left rows, as verify_structure reads it
        ann = Subspace.kernel(bg.sc, bg.flat_dim, l_eta.rows)
        assert Subspace.from_spanning(bg.sc, bg.flat_dim, left).rows == ann.rows, lam
    assert len(reps) > 1


def test_stabilizer_subgroup_of_zero_is_U():
    from superchar.sct import _theory_record

    bg = build_group(GroupSpec(family="UO", n=4, p=3))
    g_eta = _theory_record(bg, "cayley").subgroup((0, 0))
    assert len(stabilizer_subgroup(bg, g_eta)) == bg.order_U


def test_poset_restricted_group():
    pairs = [(i, j) for (i, j) in strict_positions(4) if (i, j) != (2, 3)]
    poset = MirrorPoset.from_pairs(4, pairs)
    bg = build_group(GroupSpec(family="UO", n=4, p=3, poset=poset))
    assert len(bg.positions) == 5
    assert bg.u_basis.dim == 2
    assert bg.order_U == 9
