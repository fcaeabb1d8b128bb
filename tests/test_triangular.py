import itertools
import random

import pytest

from superchar import triangular
from superchar.errors import ShapeError, SpringerUndefinedError
from superchar.gf import _TABLE_LIMIT, make_tower
from superchar.triangular import (
    Involution,
    MirrorPoset,
    TriMatrix,
    _layout,
    cayley,
    cayley_inv,
    kernel,
    linear_kernel,
    pattern_space,
    strict_positions,
    trunc_exp,
    trunc_log,
)

from reference import inverse_encs, map_from_matrix, mul_encs

T9 = make_tower(3, 1, 2)
T3 = make_tower(3, 1, 1)
T25 = make_tower(5, 1, 2)
T2187 = make_tower(3, 7, 1)  # above _TABLE_LIMIT: its tables fill on first use

# (n, tower) pairs for the seeded oracle loops: prime and extension
# fields, with every product carrying at least one middle index
ORACLE_CASES = [(4, T3), (5, T3), (4, T9), (3, T25)]


def dense(mat):
    """Dense n x n integer-encoding matrix, the oracle representation."""
    n = mat.n
    out = [[0] * n for _ in range(n)]
    if mat.unipotent:
        for i in range(n):
            out[i][i] = 1
    for (i, j), v in mat.entries.items():
        out[i - 1][j - 1] = v.enc
    return out


def dense_mul(a, b, tower):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = tower.add_enc(acc, tower.mul_enc(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def random_unipotent(n, tower, rng):
    entries = {pos: rng.randrange(tower.size) for pos in strict_positions(n)}
    return TriMatrix(n, tower, True, entries)


def test_mul_single_term():
    a = TriMatrix.from_entries(3, T9, {(1, 2): 1}, unipotent=True)
    b = TriMatrix.from_entries(3, T9, {(2, 3): 1}, unipotent=True)
    assert (a * b).serialize() == (1, 1, 1)


def test_nilpotent_square_vanishes():
    x = TriMatrix.from_entries(3, T9, {(1, 2): 1})
    assert not (x * x).entries


def test_mul_against_dense_oracle():
    rng = random.Random(1)
    for n, tower in ORACLE_CASES:
        for unipotent in (True, False):
            for _ in range(25):
                a = random_unipotent(n, tower, rng)
                b = random_unipotent(n, tower, rng)
                if not unipotent:
                    a, b = a.nilpotent_part(), b.nilpotent_part()
                assert dense(a * b) == dense_mul(dense(a), dense(b), tower), (
                    n, tower.size, unipotent
                )


def test_inverse():
    assert TriMatrix.identity(3, T9).inverse() == TriMatrix.identity(3, T9)
    g = TriMatrix.from_entries(3, T3, {(1, 2): 1}, unipotent=True)
    assert g.inverse().serialize() == (2, 0, 0)
    g = TriMatrix.from_entries(3, T3, {(1, 2): 1, (2, 3): 1}, unipotent=True)
    assert g.inverse().serialize() == (2, 1, 2)  # 1 - e12 - e23 + e13
    rng = random.Random(2)
    for n, tower in ORACLE_CASES:
        for _ in range(20):
            a = random_unipotent(n, tower, rng)
            assert a * a.inverse() == TriMatrix.identity(n, tower), (n, tower.size)
            assert a.inverse() * a == TriMatrix.identity(n, tower), (n, tower.size)


# -- generated kernels against the interpreted reference loops ---------------------


def _random_encs(rng, tower, m):
    """m encodings, about a third of them zero."""
    return tuple(rng.choice((0, rng.randrange(tower.size))) for _ in range(m))


@pytest.mark.parametrize("tower", [T3, T9, T25, T2187], ids=["F3", "F9", "F25", "F3^7"])
@pytest.mark.parametrize("n", range(1, 7))
def test_generated_kernels_match_reference_loops(n, tower):
    """Products, inverses and both Cayley maps on a seeded sample, for the
    one slot layout per n that every family (UT, UO, USp, UU) uses."""
    assert T2187.size > _TABLE_LIMIT >= T25.size
    rng = random.Random(100 * n + tower.size)
    m = len(_layout(n)[0])
    mul, neg = tower.mul_table, tower.neg_table
    half = pow(2, -1, tower.p)
    for _ in range(40):
        x, y = _random_encs(rng, tower, m), _random_encs(rng, tower, m)
        for unipotent in (False, True):
            a = TriMatrix.from_encs(n, tower, x, unipotent)
            b = TriMatrix.from_encs(n, tower, y, unipotent)
            assert (a * b).encs == mul_encs(n, tower, x, y, unipotent), (x, y, unipotent)
        g = TriMatrix.from_encs(n, tower, x, True)
        assert g.inverse().encs == inverse_encs(n, tower, x)
        # cayley(1+x) = x z + x and cayley_inv(x) = 1 + x z' + x, with
        # 1 + z = (1 + x/2)^-1 and 1 + z' = (1 - x/2)^-1
        for fn, c, unipotent in ((cayley, half, False), (cayley_inv, neg[half], True)):
            z = inverse_encs(n, tower, tuple(mul[c][v] for v in x))
            expect = mul_encs(n, tower, x, z, False)
            expect = tuple(tower.add_table[e][v] for e, v in zip(expect, x))
            got = fn(TriMatrix.from_encs(n, tower, x, not unipotent))
            assert (got.encs, got.unipotent) == (expect, unipotent), (fn.__name__, x)
    assert kernel(tower, "umul", n) is kernel(tower, "umul", n)  # compiled once


@pytest.mark.parametrize("tower", [T3, T9, T2187], ids=["F3", "F9", "F3^7"])
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (6, 6), (9, 4)])
def test_linear_kernel_is_matrix_vector_product(tower, rows, cols):
    rng = random.Random(rows * 10 + cols)
    for _ in range(10):
        M = [_random_encs(rng, tower, cols) for _ in range(rows)]
        fn = linear_kernel(tower, M, cols)
        for _ in range(10):
            v = _random_encs(rng, tower, cols)
            expect = []
            for row in M:
                acc = 0
                for a, b in zip(row, v):
                    acc = tower.add_enc(acc, tower.mul_enc(a, b))
                expect.append(acc)
            assert fn(v) == tuple(expect)
            if rows == cols:
                assert fn(v) == map_from_matrix(M, tower.full)(v)


def test_linear_kernel_on_near_identity_matrices():
    """Orbit-walk generators are the identity off a few rows; the kernel
    must copy those coordinates as the reference loop leaves them."""
    rng = random.Random(7)
    for dim in (1, 2, 5):
        for _ in range(10):
            M = [[int(i == j) for j in range(dim)] for i in range(dim)]
            M[rng.randrange(dim)] = list(_random_encs(rng, T9, dim))
            fn, ref = linear_kernel(T9, M, dim), map_from_matrix(M, T9.full)
            for _ in range(10):
                v = _random_encs(rng, T9, dim)
                assert fn(v) == ref(v)


def test_linear_kernel_compiles_each_matrix_once(monkeypatch):
    """Equal matrices, as lists or as tuples, get the one function that
    the first call compiled; another matrix or width gets its own."""
    compiles = []
    compile_program = triangular.straight_line
    monkeypatch.setattr(
        triangular, "straight_line", lambda *a: compiles.append(a) or compile_program(*a)
    )
    monkeypatch.setattr(T9, "kernels", {})
    M = [[1, 2, 0], [0, 1, 2]]
    fn = linear_kernel(T9, M, 3)
    assert linear_kernel(T9, [list(row) for row in M], 3) is fn
    assert linear_kernel(T9, tuple(map(tuple, M)), 3) is fn
    assert len(compiles) == 1
    assert linear_kernel(T9, [[1, 2, 0], [0, 1, 1]], 3) is not fn
    assert linear_kernel(T9, M, 4) is not fn
    assert len(compiles) == 3
    assert linear_kernel(T3, M, 3) is not fn  # each tower keeps its own


@pytest.mark.parametrize("tower", [T3, T9, T25, T2187], ids=["F3", "F9", "F25", "F3^7"])
@pytest.mark.parametrize("dim", range(7))
def test_identity_and_zero_linear_kernels_store_no_output(tower, dim):
    """A row that reads one slot as it is, or nothing, stores no variable:
    the kernel returns that slot, or the literal 0, in the row's place."""
    v = _random_encs(random.Random(dim), tower, dim)
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    zero = [[0] * dim for _ in range(dim)]
    for matrix, expect in ((identity, v), (zero, (0,) * dim)):
        fn = linear_kernel(tower, matrix, dim)
        assert fn.__code__.co_varnames == ("v", *(f"v{i}" for i in range(dim)))
        assert fn(v) == expect


def test_flag_mismatch_is_error():
    a = TriMatrix.from_entries(3, T9, {(1, 2): 1}, unipotent=True)
    x = TriMatrix.from_entries(3, T9, {(1, 2): 1})
    with pytest.raises(ShapeError):
        a * x
    with pytest.raises(ShapeError):
        x.inverse()
    with pytest.raises(ShapeError):
        a + a


@pytest.mark.parametrize("bad", [-1, T9.size, 1.0, "1", None])
def test_entries_must_be_encodings(bad):
    """An entry outside range(tower.size), or not an int, is refused; -1
    is not read as p - 1."""
    with pytest.raises(ValueError):
        TriMatrix.from_entries(3, T9, {(1, 2): bad})
    with pytest.raises(ValueError):
        TriMatrix.elementary(3, T9, 1, 2, bad, unipotent=True)
    assert TriMatrix.elementary(3, T9, 1, 2, T9.size - 1).encs == (T9.size - 1, 0, 0)


# -- involutions against the dense matrix oracle --------------------------------


def dense_transpose(m):
    n = len(m)
    return [[m[j][i] for j in range(n)] for i in range(n)]


def anti_J(n):
    return [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]


def omega(n, tower):
    half = n // 2
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][n - 1 - i] = tower.neg_enc(1) if i < half else 1
    return out


def dense_neg(m, tower):
    return [[tower.neg_enc(x) for x in row] for row in m]


def dense_frob(m, tower):
    return [[tower.frobenius_q_enc(x) for x in row] for row in m]


def oracle_dagger(mat, kind):
    tower = mat.tower
    n = mat.n
    d = dense(mat)
    if kind == "orthogonal":
        J = anti_J(n)
        return dense_mul(dense_mul(J, dense_transpose(d), tower), J, tower)
    if kind == "symplectic":
        Om = omega(n, tower)
        return dense_neg(
            dense_mul(dense_mul(Om, dense_transpose(d), tower), Om, tower), tower
        )
    J = anti_J(n)
    return dense_mul(dense_mul(J, dense_transpose(dense_frob(d, tower)), tower), J, tower)


def test_dagger_orthogonal_position_reflection():
    inv = Involution("orthogonal", 3, T9)
    e12 = TriMatrix.elementary(3, T9, 1, 2)
    assert inv.apply(e12).serialize() == (0, 0, 1)  # e23


def test_dagger_unitary_frobenius_on_selfmirror():
    inv = Involution("unitary", 3, T9)
    t = T9.p  # the encoding of t
    x = TriMatrix.from_entries(3, T9, {(1, 3): t})
    assert inv.apply(x) == TriMatrix.from_entries(3, T9, {(1, 3): T9.frobenius_q_enc(t)})
    assert T9.frobenius_q_enc(t) == T9.neg_enc(t)


@pytest.mark.parametrize(
    "kind,n,tower",
    [
        ("orthogonal", 3, T3),
        ("orthogonal", 4, T3),
        ("symplectic", 2, T3),
        ("symplectic", 4, T3),
        ("unitary", 3, T9),
        ("unitary", 4, T9),
    ],
)
def test_dagger_matches_dense_oracle_on_basis(kind, n, tower):
    inv = Involution(kind, n, tower)
    scalars = [1, tower.size - 1] if tower.size > 3 else [1, 2]
    for (i, j) in strict_positions(n):
        for s in scalars:
            x = TriMatrix.from_entries(n, tower, {(i, j): s})
            assert dense(inv.apply(x)) == oracle_dagger(x, kind)


@pytest.mark.parametrize(
    "kind,n,tower",
    [("orthogonal", 4, T3), ("symplectic", 4, T3), ("unitary", 3, T9)],
)
def test_dagger_antiautomorphism_and_involutive(kind, n, tower):
    inv = Involution(kind, n, tower)
    basis = [
        TriMatrix.elementary(n, tower, i, j, s)
        for (i, j) in strict_positions(n)
        for s in (1, tower.size - 1)
    ]
    for x in basis:
        assert inv.apply(inv.apply(x)) == x
        for y in basis:
            assert inv.apply(x * y) == inv.apply(y) * inv.apply(x)
    # involutive on all of g for a small case
    if tower is T3 and n == 4:
        for combo in itertools.product(range(3), repeat=6):
            x = TriMatrix(n, tower, False, dict(zip(strict_positions(n), combo)))
            assert inv.apply(inv.apply(x)) == x


@pytest.mark.parametrize(
    "kind,n,tower",
    [("orthogonal", 4, T3), ("symplectic", 4, T3), ("unitary", 3, T9)],
)
def test_dagger_on_encodings_matches_apply(kind, n, tower):
    inv = Involution(kind, n, tower)
    rng = random.Random(5)
    for _ in range(50):
        x = TriMatrix.from_encs(n, tower, [rng.randrange(tower.size) for _ in strict_positions(n)])
        assert inv.apply_encs(x.encs) == inv.apply(x).encs


def test_dagger_single_entry_lands_on_mirror_position():
    for kind, n, tower in [
        ("orthogonal", 4, T3),
        ("symplectic", 4, T3),
        ("unitary", 4, T9),
    ]:
        inv = Involution(kind, n, tower)
        for (i, j) in strict_positions(n):
            img = inv.apply(TriMatrix.elementary(n, tower, i, j))
            assert set(img.entries) == {(n + 1 - j, n + 1 - i)}
            assert next(iter(img.entries.values())).enc != 0


def test_symplectic_needs_even_n():
    with pytest.raises(ValueError):
        Involution("symplectic", 3, T3)


def test_unitary_needs_quadratic_extension():
    with pytest.raises(ValueError):
        Involution("unitary", 3, T3)


# -- Springer morphisms ---------------------------------------------------------


def test_cayley_small_cases():
    assert cayley(TriMatrix.identity(3, T9)) == TriMatrix.zero(3, T9)
    g = TriMatrix.from_entries(3, T9, {(1, 2): 1}, unipotent=True)
    assert cayley(g) == TriMatrix.from_entries(3, T9, {(1, 2): 1})


def test_cayley_roundtrip_random():
    rng = random.Random(3)
    for _ in range(30):
        g = random_unipotent(4, T3, rng)
        assert cayley_inv(cayley(g)) == g
    for _ in range(10):
        g = random_unipotent(4, T9, rng)
        assert cayley_inv(cayley(g)) == g


def test_trunc_log_series_value():
    g = TriMatrix.from_entries(3, T3, {(1, 2): 1, (2, 3): 1}, unipotent=True)
    # x - x^2/2 = x + x^2 in characteristic 3
    assert trunc_log(g) == TriMatrix.from_entries(
        3, T3, {(1, 2): 1, (2, 3): 1, (1, 3): 1}
    )
    assert trunc_log(TriMatrix.identity(3, T3)) == TriMatrix.zero(3, T3)


def test_trunc_log_oracle_direct_series():
    rng = random.Random(4)
    half = T3.inv_enc(2)
    for _ in range(20):
        g = random_unipotent(3, T3, rng)
        x = g.nilpotent_part()
        expect = x - (x * x).scale(half)
        assert trunc_log(g) == expect
        assert trunc_exp(trunc_log(g)) == g


def test_trunc_log_refuses_high_nilpotency():
    g = TriMatrix.from_entries(4, T3, {(1, 2): 1}, unipotent=True)
    with pytest.raises(SpringerUndefinedError):
        trunc_log(g)  # n = 4 > p = 3


def test_cayley_adjoint_equivariance():
    rng = random.Random(5)
    for _ in range(20):
        g = random_unipotent(4, T3, rng)
        h = random_unipotent(4, T3, rng)
        lhs = cayley(h * g * h.inverse())
        # h x h^{-1} computed in the algebra
        x = cayley(g)
        m = x + h.nilpotent_part() * x
        z = h.inverse().nilpotent_part()
        assert lhs == m + m * z


# -- posets ----------------------------------------------------------------------


def test_chain_pattern_space():
    assert pattern_space(MirrorPoset.chain(4)) == strict_positions(4)


def test_type_d_omitted_pair_poset():
    pairs = [(i, j) for (i, j) in strict_positions(4) if (i, j) != (2, 3)]
    poset = MirrorPoset.from_pairs(4, pairs)
    assert len(pattern_space(poset)) == 5
    assert (2, 3) not in poset.pairs


def test_block_poset():
    poset = MirrorPoset.from_pairs(4, [(1, 2), (3, 4)])
    assert pattern_space(poset) == [(1, 2), (3, 4)]


def test_poset_transitive_closure_and_product_closure():
    poset = MirrorPoset.from_pairs(4, [(1, 2), (2, 3), (3, 4)])
    assert poset == MirrorPoset.chain(4)
    for (i, j) in poset.pairs:
        for (k, l) in poset.pairs:
            if j == k:
                assert (i, l) in poset.pairs


def test_poset_mirror_violation_names_the_pair():
    with pytest.raises(ValueError, match=r"\(3, 4\)"):
        MirrorPoset.from_pairs(4, [(1, 2)])  # mirror (3,4) missing


def test_poset_file_roundtrip(tmp_path):
    path = tmp_path / "poset.txt"
    path.write_text("4\n1 2\n3 4\n")
    poset = MirrorPoset.from_file(path)
    assert pattern_space(poset) == [(1, 2), (3, 4)]
    bad = tmp_path / "bad.txt"
    bad.write_text("4\n1 2\n")
    with pytest.raises(ValueError, match=r"\(3, 4\)"):
        MirrorPoset.from_file(bad)


def test_longest_chain():
    assert MirrorPoset.chain(4).longest_chain() == 4
    assert MirrorPoset.from_pairs(4, [(1, 2), (3, 4)]).longest_chain() == 2
