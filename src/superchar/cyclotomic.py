"""Exact arithmetic in Z[zeta_p] and Q(zeta_p) for an odd prime p.

Values are stored against the power basis {1, zeta, ..., zeta^(p-2)}; the
relation 1 + zeta + ... + zeta^(p-1) = 0 reduces the top power, so the
representation is a unique normal form and equality is a coefficient
compare.  Coefficients are arbitrary-precision integers; no floating
point enters any value computation.

``Lanes`` checks many identities at once on packed integers.  ``lift``
writes a value as p nonnegative raw coefficients r_0, ..., r_(p-1) by
adding m (1 + zeta + ... + zeta^(p-1)) = 0; the lanes of one int hold
them, w bits each, and a sum of products of packed ints is a sum of
polynomial products in zeta, lane by lane, as long as no lane reaches
2^w.  Lane p + i of a product folds onto lane i (zeta^p = 1).  p raw
coefficients are 0 in Z[zeta_p] exactly when they are all equal (the
kernel of Z[x]/(x^p - 1) -> Z[zeta_p] is spanned by 1 + x + ... +
x^(p-1)), and the integer n exactly when lanes 1, ..., p-1 are equal,
with n = r_0 - r_1.  The folded lanes give the exact value back, so a
failed identity is still reported with its exact value.
"""

from __future__ import annotations

import itertools
import math


class CycloValue:
    """An element of Z[zeta_p] in reduced power-basis form."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"need exactly {p - 1} coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycloValue":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def integer(cls, p: int, n: int) -> "CycloValue":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def from_exponents(cls, p: int, counts) -> "CycloValue":
        """sum counts[i] * zeta^i for i in 0..p-1, reducing the top power."""
        out = list(counts[: p - 1]) + [0] * (p - 1 - len(counts[: p - 1]))
        if len(counts) == p and counts[p - 1]:
            c = counts[p - 1]
            for i in range(p - 1):
                out[i] -= c
        return cls(p, out)

    # -- ring structure -------------------------------------------------------

    def _match(self, other) -> "CycloValue":
        if isinstance(other, int):
            return CycloValue.integer(self.p, other)
        if not isinstance(other, CycloValue):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("mixed root orders")
        return other

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloValue(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloValue(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return CycloValue.integer(self.p, other) - self

    def __neg__(self):
        return CycloValue(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloValue(self.p, tuple(a * other for a in self.coeffs))
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        raw = [0] * p  # exponents mod p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[(i + j) % p] += a * b
        return CycloValue.from_exponents(p, raw)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloValue":
        """Complex conjugation zeta -> zeta^(-1); a ring involution."""
        p = self.p
        raw = [0] * p
        for i, a in enumerate(self.coeffs):
            raw[(p - i) % p] += a
        return CycloValue.from_exponents(p, raw)

    def divexact(self, n: int) -> "CycloValue":
        """Divide by a nonzero integer, raising if not exact."""
        if n == 0:
            raise ZeroDivisionError
        out = []
        for a in self.coeffs:
            q, r = divmod(a, n)
            if r:
                raise ValueError(f"{self!r} is not divisible by {n}")
            out.append(q)
        return CycloValue(self.p, out)

    # -- predicates and rendering ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        return (
            isinstance(other, CycloValue)
            and other.p == self.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def to_json(self) -> dict:
        return {"p": self.p, "coeffs": list(self.coeffs)}

    def to_string(self) -> str:
        """Render as "c0+c1·z+c2·z^2+..." with zero terms dropped."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}·z")
            else:
                terms.append(f"{c}·z^{i}")
        if not terms:
            return "0"
        return "+".join(terms).replace("+-", "-")

    def __repr__(self):
        return f"Cyclo({self.p}; {self.to_string()})"


def root_power(p: int, exponent: int) -> CycloValue:
    """The canonical representation of zeta_p^exponent."""
    counts = [0] * p
    counts[exponent % p] = 1
    return CycloValue.from_exponents(p, counts)


class CycloRational:
    """A quotient v / den with v in Z[zeta_p] and den a positive integer.

    Reduced by the gcd of the coefficient content and the denominator;
    equality is representation equality of the reduced form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: CycloValue, den: int = 1):
        if den == 0:
            raise ZeroDivisionError
        if den < 0:
            num, den = -num, -den
        g = den
        for c in num.coeffs:
            g = math.gcd(g, c)
        if g > 1:
            num = num.divexact(g)
            den //= g
        self.num = num
        self.den = den

    def __eq__(self, other):
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return (
            isinstance(other, CycloRational)
            and other.den == self.den
            and other.num == self.num
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == 1:
            return f"CycloRat({self.num.to_string()})"
        return f"CycloRat(({self.num.to_string()})/{self.den})"


# -- packed lanes ------------------------------------------------------------------


def lift(value: CycloValue) -> tuple:
    """p nonnegative raw coefficients r_i with sum r_i zeta^i = value:
    coefficient i plus m for i < p - 1, and m at zeta^(p-1), for m the
    largest negated coefficient (0 if none is negative)."""
    m = max(0, -min(value.coeffs))
    return (*(c + m for c in value.coeffs), m)


def conjugate_lift(raw) -> tuple:
    """The raw coefficients of the conjugate: r_i moves to zeta^(p-i)."""
    return (raw[0], *reversed(raw[1:]))


def fold(raw, p: int) -> list:
    """The p raw coefficients of a product's 2p - 1: lane p + i adds onto
    lane i, as zeta^p = 1."""
    return [a + b for a, b in itertools.zip_longest(raw[:p], raw[p:], fillvalue=0)]


def read_integer(raw):
    """The integer that p raw coefficients make, or None if they make none."""
    return raw[0] - raw[1] if len(set(raw[1:])) == 1 else None


class Lanes:
    """Nonnegative raw coefficients, ``width`` bits per lane, packed into
    one int: ``lanes`` lanes make a slot of ``slot`` bytes, and slot b of
    a packed column starts at byte b * slot.  ``bound`` must bound every
    lane that a sum of packed terms can reach; the width is its bit
    length, so no lane carries into the next.  A product of two p-lane
    values takes 2p - 1 lanes."""

    __slots__ = ("p", "width", "lanes", "slot")

    def __init__(self, p: int, bound: int, lanes: int):
        self.p, self.lanes = p, lanes
        self.width = max(1, bound.bit_length())
        self.slot = -(-lanes * self.width // 8)

    def pack(self, raw) -> int:
        w = self.width
        return sum(r << (w * i) for i, r in enumerate(raw))

    def unpack(self, acc: int, b: int = 0) -> list:
        """The lanes of slot b of acc, folded if they hold a product."""
        w, mask = self.width, (1 << self.width) - 1
        acc >>= 8 * self.slot * b
        raw = [(acc >> (w * i)) & mask for i in range(self.lanes)]
        return fold(raw, self.p) if self.lanes > self.p else raw

    def value(self, acc: int, b: int = 0) -> CycloValue:
        """The exact value that slot b of acc holds."""
        return CycloValue.from_exponents(self.p, self.unpack(acc, b))

    def nonzero(self, acc: int, count: int) -> int:
        """For slots that hold products: an int that is 0 at slot b, for
        b < count, exactly when slot b of acc folds to 0.  Every slot is
        folded at once and compared with its lane 0 copied into each lane,
        with no Python loop over the slots."""
        p, w = self.p, self.width

        def every(bits):  # the low ``bits`` bits of each slot
            return int.from_bytes(((1 << bits) - 1).to_bytes(self.slot, "little") * count, "little")

        folded = (acc & every(p * w)) + ((acc >> (p * w)) & every((p - 1) * w))
        copies = sum(1 << (w * i) for i in range(p))
        return folded ^ ((folded & every(w)) * copies)
