import operator
import random

import pytest

from superchar.errors import ShapeError, SizeGuardError
from superchar.gf import (
    _TABLE_LIMIT,
    Theta,
    _coeffs_to_enc,
    _enc_to_coeffs,
    _Memo,
    _poly_mod,
    _poly_mul,
    make_tower,
)
from superchar.triangular import TriMatrix
from superchar.unitary import _self_labels


def brute_irreducible(coeffs, p):
    """Independent irreducibility oracle: check for factorizations by
    multiplying out all pairs of lower-degree monic polynomials."""
    import itertools

    deg = len(coeffs) - 1

    def polys(d):
        for tail in itertools.product(range(p), repeat=d):
            yield tail + (1,)

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    for d1 in range(1, deg):
        d2 = deg - d1
        for a in polys(d1):
            for b in polys(d2):
                if mul(a, b) == tuple(coeffs):
                    return False
    return True


def test_modulus_f9_is_lex_smallest_irreducible():
    tower = make_tower(3, 1, 2)
    assert tower.modulus == (1, 0, 1)  # t^2 + 1
    # oracle: scan candidates in constant-first lexicographic order
    import itertools

    for c in itertools.product(range(3), repeat=2):
        cand = c + (1,)
        if brute_irreducible(cand, 3):
            assert cand == tower.modulus
            break


def test_modulus_f25():
    tower = make_tower(5, 1, 2)
    assert brute_irreducible(tower.modulus, 5)
    assert tower.modulus == (1, 1, 1)  # t^2 + t + 1


def test_prime_field_trivial_modulus():
    tower = make_tower(3, 1, 1)
    assert tower.size == 3
    assert len(tower.modulus) == 2


def test_even_characteristic_rejected():
    with pytest.raises(ValueError):
        make_tower(2, 1, 1)


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        make_tower(9, 1, 1)


def test_size_guard():
    with pytest.raises(SizeGuardError):
        make_tower(3, 1, 20)


def test_encoding_roundtrip_bijective():
    for args in [(3, 1, 2), (5, 1, 2), (3, 2, 1), (3, 2, 2)]:
        tower = make_tower(*args)
        seen = set()
        for enc in range(tower.size):
            coeffs = _enc_to_coeffs(enc, tower.p, tower.degree)
            assert _coeffs_to_enc(coeffs, tower.p) == enc
            seen.add(coeffs)
        assert len(seen) == tower.size


def test_field_axioms_exhaustive_f9():
    tower = make_tower(3, 1, 2)
    add, mul = tower.add_enc, tower.mul_enc
    els = range(tower.size)
    for a in els:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        if a:
            assert mul(a, tower.inv_enc(a)) == 1
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
    # spot associativity/distributivity on all triples
    for a in els:
        for b in els:
            for c in els:
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_frobenius_involution_and_fixed_field():
    tower = make_tower(3, 1, 2)
    frob = tower.frobenius_q_enc
    fixed = []
    for a in range(tower.size):
        assert frob(frob(a)) == a
        if frob(a) == a:
            fixed.append(a)
    assert sorted(fixed) == [0, 1, 2]
    assert tuple(sorted(fixed)) == tower.base.elements


def test_frobenius_on_generator():
    tower = make_tower(3, 1, 2)
    t = tower.p  # the encoding of t, the residue of the indeterminate
    assert tower.mul_enc(t, t) == 2  # t^2 = -1
    assert tower.frobenius_q_enc(t) == tower.neg_enc(t)  # t^3 = -t = 2t


@pytest.mark.parametrize("p", [3, 5])
def test_herm_trace_linear_image_and_kernel(p):
    """a -> a + a^q maps F_{q^2} additively into F_q; its nonzero kernel is
    the set of labels that a twisted partition allows on a self-mirror arc."""
    tower = make_tower(p, 1, 2)
    add, frob = tower.add_enc, tower.frobenius_q_enc
    trace = [add(a, frob(a)) for a in range(tower.size)]
    assert all(tower.base.contains(t) for t in trace)
    for a in range(tower.size):
        for b in range(tower.size):
            assert trace[add(a, b)] == add(trace[a], trace[b])
    kernel = [a for a in range(tower.size) if trace[a] == 0]
    assert len(kernel) == p
    assert _self_labels(tower) == kernel[1:]


def test_additive_char_exponent_prime_field_is_identity():
    tower = make_tower(3, 1, 1)
    for a in range(tower.size):
        assert tower.base.trace_exponent(a) == a


def test_additive_char_exponent_trace_on_f9_top():
    tower = make_tower(3, 2, 1)  # F_9 as the base field itself
    trace = tower.base.trace_exponent
    t = tower.p  # the encoding of t
    assert trace(t) == 0  # t + t^3 = 0
    # additive homomorphism onto Z/p (nontrivial)
    hits = set()
    for a in range(tower.size):
        hits.add(trace(a))
        for b in range(tower.size):
            assert trace(tower.add_enc(a, b)) == (trace(a) + trace(b)) % 3
    assert hits == {0, 1, 2}


def test_char_exponent_requires_subfield_membership():
    tower = make_tower(3, 1, 2)
    with pytest.raises(ValueError):
        tower.base.trace_exponent(tower.p)  # t, encoded p, is not in F_3


def test_theta_standard_and_alternate_differ():
    tower = make_tower(3, 1, 2)
    std = Theta.standard(tower.base)
    alt = Theta.alternate(tower.base)
    assert alt.c_enc not in (0, 1)
    assert any(std.exponent(a) != alt.exponent(a) for a in tower.base.elements)
    # both are homomorphisms onto Z/p
    for th in (std, alt):
        assert {th.exponent(a) for a in tower.base.elements} == {0, 1, 2}


def test_cross_tower_arithmetic_is_an_error():
    a = TriMatrix.elementary(3, make_tower(3, 1, 2), 1, 2)
    b = TriMatrix.elementary(3, make_tower(5, 1, 2), 1, 2)
    for op in (operator.add, operator.mul):
        with pytest.raises(ShapeError):
            op(a, b)


def test_subfield_coords_roundtrip():
    tower = make_tower(3, 2, 2)  # F_81 over F_9
    base = tower.base
    assert base.size == 9 and base.index == 2
    for enc in range(tower.size):
        assert base.combine(base.coords(enc)) == enc
        assert all(base.contains(c) for c in base.coords(enc))


@pytest.mark.parametrize("p,e,k", [(3, 1, 2), (5, 1, 2), (3, 3, 1), (3, 2, 2)])
def test_additive_ops_match_coefficientwise_arithmetic(p, e, k):
    """add_enc, neg_enc and sub_enc against coefficient vectors mod p,
    exhaustively on F_9, F_25, F_27 and F_81."""
    tower = make_tower(p, e, k)
    d = tower.degree
    coeffs = [_enc_to_coeffs(a, p, d) for a in range(tower.size)]
    for a, ca in enumerate(coeffs):
        assert tower.neg_enc(a) == _coeffs_to_enc([-x % p for x in ca], p)
        for b, cb in enumerate(coeffs):
            assert tower.add_enc(a, b) == _coeffs_to_enc(
                [(x + y) % p for x, y in zip(ca, cb)], p
            )
            assert tower.sub_enc(a, b) == _coeffs_to_enc(
                [(x - y) % p for x, y in zip(ca, cb)], p
            )


# (p, e, k) of F_25, F_27, F_81 and F_3^7; the last is above _TABLE_LIMIT,
# so its tables are filled on first use
FIELDS_BEYOND_F9 = [(5, 1, 2), (3, 3, 1), (3, 2, 2), (3, 7, 1)]
FIELD_IDS = ["F25", "F27", "F81", "F2187"]


@pytest.mark.parametrize("p,e,k", FIELDS_BEYOND_F9, ids=FIELD_IDS)
def test_multiplicative_laws_random(p, e, k):
    """mul_enc, inv_enc and pow_enc on seeded random triples: the product
    equals the polynomial product reduced by the modulus, and the field
    laws hold."""
    tower = make_tower(p, e, k)
    assert isinstance(tower.mul_table, _Memo) == (tower.size > _TABLE_LIMIT)
    add, mul, power = tower.add_enc, tower.mul_enc, tower.pow_enc
    rng = random.Random(tower.size)
    for _ in range(300):
        a, b, c = (rng.randrange(tower.size) for _ in range(3))
        ca, cb = (_enc_to_coeffs(x, p, tower.degree) for x in (a, b))
        assert mul(a, b) == _coeffs_to_enc(_poly_mod(_poly_mul(ca, cb, p), tower.modulus, p), p)
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, 1) == a and mul(a, 0) == 0
        m, n = rng.randrange(3 * tower.size), rng.randrange(3 * tower.size)
        assert power(a, m + n) == mul(power(a, m), power(a, n))
        assert power(mul(a, b), m) == mul(power(a, m), power(b, m))
        if a:
            assert mul(a, tower.inv_enc(a)) == 1
            assert tower.inv_enc(tower.inv_enc(a)) == a
            assert power(a, tower.size - 1) == 1


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)], ids=["F25", "F81"])
def test_frobenius_q_is_a_ring_automorphism_random(p, e):
    """a -> a^q on F_{q^2}: additive, multiplicative, an involution, and
    fixing exactly the base field F_q."""
    tower = make_tower(p, e, 2)
    add, mul, frob = tower.add_enc, tower.mul_enc, tower.frobenius_q_enc
    assert (frob(0), frob(1)) == (0, 1)
    rng = random.Random(tower.size)
    for _ in range(300):
        a, b = rng.randrange(tower.size), rng.randrange(tower.size)
        assert frob(add(a, b)) == add(frob(a), frob(b))
        assert frob(mul(a, b)) == mul(frob(a), frob(b))
        assert frob(frob(a)) == a
        assert (frob(a) == a) == tower.base.contains(a)


# (p, degree) of every table-backed field checked exhaustively, up to F_243;
# the tables depend on (p, e k) only, since the modulus does
EXHAUSTIVE_TABLE_FIELDS = [
    (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 1), (5, 2), (5, 3),
    (7, 1), (7, 2), (11, 2), (13, 2), (131, 1), (241, 1),
]


@pytest.mark.parametrize("p,degree", EXHAUSTIVE_TABLE_FIELDS)
def test_tables_equal_raw_arithmetic_exhaustive(p, degree):
    tower = make_tower(p, degree, 1)
    n = tower.size
    for a in range(n):
        add_row, mul_row = tower.add_table[a], tower.mul_table[a]
        assert add_row == [tower._add_raw(a, b) for b in range(n)], a
        assert mul_row == [tower._mul_raw(a, b) for b in range(n)], a


def test_tables_equal_raw_arithmetic_on_a_sample():
    tower = make_tower(3, 6, 1)  # F_729, the largest table-backed field of p = 3
    sample = random.Random(729).sample(range(tower.size), 200)
    for a in sample:
        add_row, mul_row = tower.add_table[a], tower.mul_table[a]
        assert [add_row[b] for b in sample] == [tower._add_raw(a, b) for b in sample], a
        assert [mul_row[b] for b in sample] == [tower._mul_raw(a, b) for b in sample], a
