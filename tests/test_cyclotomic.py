import itertools
import random

import pytest

from superchar.cyclotomic import (
    CycloRational,
    CycloValue,
    Lanes,
    conjugate_lift,
    fold,
    lift,
    read_integer,
    root_power,
)

from reference import inner_product


def test_root_powers_basis_and_reduction():
    assert root_power(3, 0) == CycloValue.integer(3, 1)
    assert root_power(3, 2).coeffs == (0, 0, 1)[:2] or root_power(3, 2).coeffs == (-1, -1)
    # zeta^2 = -1 - zeta for p = 3
    assert root_power(3, 2).coeffs == (-1, -1)
    assert root_power(5, 3).coeffs == (0, 0, 0, 1)


def test_all_roots_sum_to_zero():
    for p in (3, 5, 7):
        acc = CycloValue.zero(p)
        for j in range(p):
            acc = acc + root_power(p, j)
        assert acc.is_zero()


def test_ring_axioms_distributivity_exhaustive_p3():
    vals = [
        CycloValue(3, c) for c in itertools.product(range(-2, 3), repeat=2)
    ]
    for a in vals:
        for b in vals:
            assert a + b == b + a
            assert a * b == b * a
    small = vals[::6]
    for a in small:
        for b in small:
            for c in small:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_ring_axioms_random_p7():
    rng = random.Random(7)
    vals = [
        CycloValue(7, [rng.randint(-9, 9) for _ in range(6)]) for _ in range(12)
    ]
    one = CycloValue.integer(7, 1)
    for a in vals:
        assert a * one == a
        for b in vals:
            for c in vals[:4]:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


def test_conjugate_involutive_and_multiplicative():
    rng = random.Random(11)
    for p in (3, 5):
        vals = [
            CycloValue(p, [rng.randint(-5, 5) for _ in range(p - 1)])
            for _ in range(10)
        ]
        for a in vals:
            assert a.conjugate().conjugate() == a
            for b in vals:
                assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_conjugate_examples():
    assert CycloValue.integer(3, 1).conjugate() == 1
    z = root_power(3, 1)
    assert z.conjugate() == root_power(3, 2)
    assert (1 + z).conjugate() == -z  # 1 + zeta^2 = -zeta


def test_divexact():
    v = CycloValue(3, (6, -9))
    assert v.divexact(3) == CycloValue(3, (2, -3))
    with pytest.raises(ValueError):
        v.divexact(4)


def test_json_roundtrip_and_rendering():
    # the two cell formats of ``table``: a JSON object, whose keys are the
    # constructor's arguments, and a CSV string
    v = CycloValue(5, (1, 0, -2, 7))
    assert v.to_json() == {"p": 5, "coeffs": [1, 0, -2, 7]}
    assert CycloValue(**v.to_json()) == v
    assert v.to_string() == "1-2·z^2+7·z^3"
    assert CycloValue.zero(3).to_string() == "0"


def test_cyclo_rational_reduction():
    r = CycloRational(CycloValue(3, (4, 2)), 6)
    assert r.num.coeffs == (2, 1) and r.den == 3
    assert CycloRational(CycloValue.integer(3, 9), 3) == 3


def test_inner_product_trivial_character():
    # <1, 1> = 1 on any partition
    one = CycloValue.integer(3, 1)
    f = [(one, 2), (one, 3), (one, 4)]
    assert inner_product(f, f, 9) == 1


def test_inner_product_additive_characters_orthonormal():
    # element-level partition of Z/3; theta^a vs theta^b
    p = 3
    for a in range(p):
        fa = [(root_power(p, (a * x) % p), 1) for x in range(p)]
        for b in range(p):
            fb = [(root_power(p, (b * x) % p), 1) for x in range(p)]
            ip = inner_product(fa, fb, p)
            assert ip == (1 if a == b else 0)


def test_inner_product_validates_sizes():
    one = CycloValue.integer(3, 1)
    with pytest.raises(ValueError):
        inner_product([(one, 2)], [(one, 3)], 2)
    with pytest.raises(ValueError):
        inner_product([(one, 2)], [(one, 2)], 3)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ring_laws_seeded_property(p):
    rng = random.Random(1000 + p)

    def value():
        return CycloValue(p, [rng.randint(-20, 20) for _ in range(p - 1)])

    zero, one = CycloValue.zero(p), CycloValue.integer(p, 1)
    for _ in range(60):
        a, b, c = value(), value(), value()
        n = rng.randint(-9, 9)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a * zero == zero
        assert a + (-a) == zero and a - b == a + (-b)
        assert a * n == a * CycloValue.integer(p, n) and a + n == a + CycloValue.integer(p, n)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        if n:
            assert (a * n).divexact(n) == a
        i, j = rng.randrange(p), rng.randrange(p)
        assert root_power(p, i) * root_power(p, j) == root_power(p, i + j)
        # the normal form is unique: a value is zero only with zero coefficients
        assert (a - b).is_zero() == (a.coeffs == b.coeffs)


# -- packed lanes ------------------------------------------------------------------


def test_lift_examples():
    # zeta^2 = -1 - zeta for p = 3: its lift is one lane at zeta^2
    assert lift(root_power(3, 2)) == (0, 0, 1)
    assert lift(CycloValue(3, (4, -7))) == (11, 0, 7)
    assert lift(CycloValue(5, (2, 0, 1, 3))) == (2, 0, 1, 3, 0)
    assert conjugate_lift((1, 2, 3, 4, 5)) == (1, 5, 4, 3, 2)
    assert fold([1, 2, 3, 4, 5], 3) == [5, 7, 3]
    assert read_integer([9, 2, 2]) == 7 and read_integer([9, 2, 3]) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_packed_products_are_exact(p):
    # sum_k w_k a_k conj(b_k) through packed lanes, one column per term
    # with the conjugates of several values in its slots, against direct
    # arithmetic; lanes read 0 and integers as the value says
    rng = random.Random(2000 + p)

    def value():
        return CycloValue(p, [rng.randint(-30, 30) for _ in range(p - 1)])

    for _ in range(20):
        terms = [(rng.randint(1, 50), value(), [value() for _ in range(4)]) for _ in range(5)]
        lifts = [lift(v) for _, a, bs in terms for v in [a, *bs]]
        bound = sum(w for w, _, _ in terms) * max(map(sum, lifts)) * max(map(max, lifts))
        lanes = Lanes(p, bound, 2 * p - 1)
        acc = sum(
            w * lanes.pack(lift(a)) * int.from_bytes(
                b"".join(
                    lanes.pack(conjugate_lift(lift(b))).to_bytes(lanes.slot, "little") for b in bs
                ),
                "little",
            )
            for w, a, bs in terms
        )
        flags = lanes.nonzero(acc, 4)
        for j in range(4):
            direct = sum((a * bs[j].conjugate() * w for w, a, bs in terms), CycloValue.zero(p))
            assert lanes.value(acc, j) == direct
            raw = lanes.unpack(acc, j)
            assert (read_integer(raw) == direct.coeffs[0]) == direct.is_integer()
            nonzero = (flags >> (8 * lanes.slot * j)) % (1 << (8 * lanes.slot)) != 0
            assert nonzero == (not direct.is_zero())
    # a slot that holds 0 without zero lanes: v conj(v) plus the lift of
    # -v conj(v); every lane stays below 10^6 for coefficients up to 30
    v = value()
    lanes = Lanes(p, 10**6, 2 * p - 1)
    zero = lanes.pack(lift(v)) * lanes.pack(conjugate_lift(lift(v))) + lanes.pack(
        lift(-(v * v.conjugate()))
    )
    assert lanes.value(zero).is_zero() and lanes.nonzero(zero, 1) == 0
