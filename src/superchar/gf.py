"""Exact arithmetic in a finite-field tower F_p <= F_q <= F_{q^k}, odd p.

Elements are residues of F_p[t] modulo a fixed monic irreducible m(t) of
degree e*k.  The modulus is chosen deterministically (lexicographically
smallest irreducible, constant coefficient compared first) so that every
serialized artifact is reproducible.  The canonical integer encoding of an
element is the base-p evaluation of its coefficient vector, constant
coefficient least significant; this encoding is the wire format used by
every other module, and all arithmetic is on encodings, through the
tower's add, mul and neg tables.  Towers with equal (p, e, k) have
equal moduli and compare equal.
"""

from __future__ import annotations

import functools
import itertools

from .errors import SizeGuardError, VerificationError

TOWER_SIZE_LIMIT = 1 << 16
_TABLE_LIMIT = 1024


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over Z/p, little-endian coefficient tuples --------


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _trim(a)


def _poly_is_irreducible(m, p):
    """Exhaustive trial division; adequate at guarded sizes."""
    d = len(m) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if m[0] == 0:  # root at 0
        return False
    for ddiv in range(1, d // 2 + 1):
        for enc in range(p**ddiv):
            cand = _enc_to_coeffs(enc, p, ddiv) + (1,)
            if not _poly_mod(m, cand, p):
                return False
    return True


def _enc_to_coeffs(enc, p, length):
    out = []
    for _ in range(length):
        out.append(enc % p)
        enc //= p
    return tuple(out)


def _coeffs_to_enc(coeffs, p):
    enc = 0
    for c in reversed(coeffs):
        enc = enc * p + c
    return enc


class _Memo(dict):
    """A dict that fills each missing key with fn(key) on first lookup."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class FieldTower:
    """The field F_{p^{e*k}} together with its distinguished subfields.

    q = p^e is the base of the tower and k the top extension degree; the
    constructions downstream view everything as vector spaces over F_q
    while matrix entries live in F_{q^k}.
    """

    def __init__(self, p: int, e: int, k: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported (p must be odd)")
        if e < 1 or k < 1:
            raise ValueError("extension degrees must be positive")
        degree = e * k
        size = p**degree
        if size > TOWER_SIZE_LIMIT:
            raise SizeGuardError(
                f"p^(e*k) = {size} exceeds the enumeration guard {TOWER_SIZE_LIMIT}"
            )
        self.p = p
        self.e = e
        self.k = k
        self.q = p**e
        self.degree = degree
        self.size = size
        self.modulus = self._smallest_irreducible(p, degree)
        # reduction rows: t^(degree+i) mod m, for products of degree < 2*degree-1
        self._red = []
        cur = self._mod(tuple([0] * degree + [1]))
        for _ in range(degree - 1):
            self._red.append(cur)
            cur = self._mod(_poly_mul(cur, (0, 1), p))
        # tables indexed [a][b]; above _TABLE_LIMIT entries are made on first use
        if size <= _TABLE_LIMIT:
            self.add_table, self.mul_table = self._tables()
        else:
            self.add_table = _Memo(lambda a: _Memo(functools.partial(self._add_raw, a)))
            self.mul_table = _Memo(lambda a: _Memo(functools.partial(self._mul_raw, a)))
        # -a digit by digit: the lowest digit negated, the rest from a // p
        self.neg_table = [0] * size
        for a in range(1, size):
            self.neg_table[a] = -a % p + p * self.neg_table[a // p]
        self._inverse = _Memo(lambda a: self.pow_enc(a, self.size - 2))
        self._frobenius = _Memo(lambda a: self.pow_enc(a, self.q))
        self._subfields = _Memo(functools.partial(Subfield, self))
        # straight-line kernels: triangular.kernel's by (name, n, bound), and
        # triangular.linear_kernel's by (width, matrix)
        self.kernels: dict = {}

    def _tables(self):
        """The full add and mul tables, equal entry for entry to
        ``_add_raw`` and ``_mul_raw``.  a + b is the sum of the lowest
        digits mod p plus p (a // p + b // p), read from an earlier row.
        a b is exp[log a + log b] over the powers of the least primitive
        element, found by walking the powers of each candidate in turn."""
        p, size = self.p, self.size
        add = [list(range(size))]
        for a in range(1, size):
            low = [(a + d) % p for d in range(p)]
            add.append([p * high + x for high in add[a // p][: size // p] for x in low])
        for g in range(2, size):
            exp = [1]
            while (x := self._mul_raw(exp[-1], g)) != 1:
                exp.append(x)
            if len(exp) == size - 1:
                break
        log = [0] * size
        for i, x in enumerate(exp):
            log[x] = i
        logs = log[1:]
        exp += exp
        mul = [[0] * size]
        for a in range(1, size):
            mul.append([0, *map(exp[log[a] :].__getitem__, logs)])
        return add, mul

    @functools.cached_property
    def primitive(self) -> int:
        """The least primitive element of the top field, whose powers
        ``_tables`` lays out: the least g with g^((size - 1) / r) != 1 for
        every prime r dividing size - 1."""
        order = self.size - 1
        primes = [r for r in range(2, order + 1) if order % r == 0 and _is_prime(r)]
        return next(
            g for g in range(2, self.size) if all(self.pow_enc(g, order // r) != 1 for r in primes)
        )

    @staticmethod
    def _smallest_irreducible(p, degree):
        # lexicographic on (c0, ..., c_{d-1}), constant coefficient first
        for coeffs in itertools.product(range(p), repeat=degree):
            cand = coeffs + (1,)
            if _poly_is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _key(self):
        return (self.p, self.e, self.k)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FieldTower) and self._key() == other._key()
        )

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, k={self.k})"

    def _mod(self, coeffs):
        return _poly_mod(coeffs, self.modulus, self.p)

    # -- encoding-level arithmetic ----------------------------------------

    def add_enc(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_enc(self, a: int) -> int:
        return self.neg_table[a]

    def sub_enc(self, a: int, b: int) -> int:
        return self.add_enc(a, self.neg_enc(b))

    def _mul_raw(self, a: int, b: int) -> int:
        ca = _enc_to_coeffs(a, self.p, self.degree)
        cb = _enc_to_coeffs(b, self.p, self.degree)
        prod = list(_poly_mul(ca, cb, self.p))
        # reduce the overflow terms with the precomputed rows
        out = [0] * self.degree
        for i, c in enumerate(prod):
            if i < self.degree:
                out[i] = (out[i] + c) % self.p
            elif c:
                row = self._red[i - self.degree]
                for j, r in enumerate(row):
                    out[j] = (out[j] + c * r) % self.p
        return _coeffs_to_enc(out, self.p)

    def mul_enc(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def pow_enc(self, a: int, n: int) -> int:
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.mul_enc(out, base)
            base = self.mul_enc(base, base)
            n >>= 1
        return out

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inverse[a]

    def frobenius_q_enc(self, a: int) -> int:
        """a -> a^q, the generator of Gal(F_{q^k}/F_q)."""
        return self._frobenius[a]

    # -- subfields ----------------------------------------------------------

    def subfield(self, degree: int) -> "Subfield":
        """The subfield F_{p^degree}; degree must divide e*k."""
        return self._subfields[degree]

    @property
    def base(self) -> "Subfield":
        """F_q, the scalar field of all functionals and bases."""
        return self.subfield(self.e)


class Subfield:
    """A subfield F_{p^d} of the tower, presented as canonical encodings.

    Doubles as the scalar field for all linear algebra: the encodings are
    closed under the tower's arithmetic, and ``coords``/``combine`` give
    the F_{p^d}-coordinates of a tower element against the power basis
    {1, t, ..., t^(m-1)} where m = (e*k)/d.
    """

    def __init__(self, tower: FieldTower, degree: int):
        if degree < 1 or tower.degree % degree != 0:
            raise ValueError(f"degree {degree} does not divide {tower.degree}")
        self.tower = tower
        self.degree = degree
        self.size = tower.p**degree
        self.index = tower.degree // degree
        fixed = tuple(
            a for a in range(tower.size) if tower.pow_enc(a, self.size) == a
        )
        if len(fixed) != self.size:
            raise VerificationError("subfield enumeration has wrong cardinality")
        self.elements = fixed
        self.add = tower.add_enc
        self.sub = tower.sub_enc
        self.neg = tower.neg_enc
        self.mul = tower.mul_enc
        self.inv = tower.inv_enc
        self.zero = 0
        self.one = 1
        self._elem_set = frozenset(fixed)
        # coordinates of every tower element against {t^i} over this subfield
        self.power_basis = tuple(tower.pow_enc(tower.p, i) for i in range(self.index))
        combine = {
            tup: self.dot(tup, self.power_basis)
            for tup in itertools.product(fixed, repeat=self.index)
        }
        coords = {enc: tup for tup, enc in combine.items()}
        if len(coords) != tower.size:
            raise VerificationError("power basis failed to span the tower")
        # the tables' own lookups, so that a map over them runs at C speed
        self.coords, self.combine = coords.__getitem__, combine.__getitem__
        self._trace_exp = {}
        for a in fixed:
            t = 0
            for i in range(degree):
                t = tower.add_enc(t, tower.pow_enc(a, tower.p**i))
            if t >= tower.p:
                raise VerificationError("trace left the prime field")
            self._trace_exp[a] = t

    def contains(self, enc: int) -> bool:
        return enc in self._elem_set

    def trace_exponent(self, enc: int) -> int:
        """Tr_{F_{p^d}/F_p} as an integer exponent mod p."""
        try:
            return self._trace_exp[enc]
        except KeyError:
            raise ValueError(f"encoding {enc} is not in the degree-{self.degree} subfield")

    @functools.cached_property
    def prime_digits(self):
        """(basis, digits): an F_p-basis b_1, ..., b_d of this subfield,
        each b_j the least element outside the span of those before it, and
        one dict per b_j: digits[j][a] = c_j for a = sum c_j b_j, each c_j
        an integer in [0, p).  The base-p digits of an encoding are
        coordinates against powers of t, which need not lie in the
        subfield."""
        p, add, mul = self.tower.p, self.tower.add_table, self.tower.mul_table
        basis, coords = [], {0: ()}
        for a in self.elements:
            if a not in coords:
                multiples = [mul[c][a] for c in range(p)]  # c < p encodes c in F_p
                coords = {
                    add[s][m]: cs + (c,)
                    for s, cs in coords.items()
                    for c, m in enumerate(multiples)
                }
                basis.append(a)
        digits = tuple({a: cs[j] for a, cs in coords.items()} for j in range(len(basis)))
        return tuple(basis), digits

    def dot(self, u, v) -> int:
        acc = 0
        add, mul = self.tower.add_table, self.tower.mul_table
        for a, b in zip(u, v):
            if a and b:
                acc = add[acc][mul[a][b]]
        return acc

    def __repr__(self):
        return f"Subfield(F_{self.size} of {self.tower!r})"


class FieldElement:
    """An element of the tower's top field, immutable and hashable: the
    read-only view that ``TriMatrix.entries`` gives of one encoding.  All
    arithmetic is on encodings, through the tower's tables."""

    __slots__ = ("tower", "enc")

    def __init__(self, tower: FieldTower, enc: int):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "enc", enc)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.tower == self.tower
            and other.enc == self.enc
        )

    def __hash__(self):
        return hash((self.enc, self.tower.p, self.tower.degree))

    def __repr__(self):
        return f"<{self.enc}:F_{self.tower.size}>"


@functools.lru_cache(maxsize=None)
def make_tower(p: int, e: int, k: int) -> FieldTower:
    """Build (and cache) the tower F_p <= F_{p^e} <= F_{p^{e*k}}."""
    return FieldTower(p, e, k)


class Theta:
    """An additive character a -> zeta_p^{Tr(c*a)} of a subfield.

    ``standard`` uses c = 1.  ``alternate`` uses the smallest scalar
    c != 0, 1, giving a second independent character for the
    theta-independence checks.
    """

    def __init__(self, subfield: Subfield, c_enc: int, name: str):
        if not subfield.contains(c_enc) or c_enc == 0:
            raise ValueError("character multiplier must be a nonzero subfield scalar")
        self.subfield = subfield
        self.c_enc = c_enc
        self.name = name
        tower = subfield.tower
        self._exp = {
            a: subfield.trace_exponent(tower.mul_enc(c_enc, a))
            for a in subfield.elements
        }

    def exponent(self, enc: int) -> int:
        return self._exp[enc]

    @property
    def p(self) -> int:
        return self.subfield.tower.p

    @classmethod
    def standard(cls, subfield: Subfield) -> "Theta":
        return cls(subfield, 1, "standard")

    @classmethod
    def alternate(cls, subfield: Subfield) -> "Theta":
        c = next(a for a in subfield.elements if a not in (0, 1))
        return cls(subfield, c, "alternate")

    def __repr__(self):
        return f"Theta({self.name}, c={self.c_enc}, F_{self.subfield.size})"
