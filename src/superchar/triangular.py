"""Unipotent and nilpotent triangular matrices, mirror posets,
anti-involutions and Springer morphisms.

A TriMatrix stores only its strictly-upper entries; the ``unipotent``
flag says whether it stands for 1+x (a group element) or x (an algebra
element).  The two readings share a representation but the Springer
morphisms are the only sanctioned bridge between them, so every map is
explicit about which side it acts on.
"""

from __future__ import annotations

from .errors import ShapeError, SpringerUndefinedError
from .gf import FieldElement, FieldTower, frobenius_q


def strict_positions(n: int):
    """All (i, j) with 1 <= i < j <= n in row-major order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


class TriMatrix:
    """A unipotent (1+x) or nilpotent (x) upper-triangular matrix."""

    __slots__ = ("n", "tower", "unipotent", "entries", "_key")

    def __init__(self, n, tower, unipotent, entries):
        self.n = n
        self.tower = tower
        self.unipotent = unipotent
        self.entries = {pos: v for pos, v in entries.items() if v.enc}
        self._key = None

    @classmethod
    def zero(cls, n: int, tower: FieldTower) -> "TriMatrix":
        return cls(n, tower, False, {})

    @classmethod
    def identity(cls, n: int, tower: FieldTower) -> "TriMatrix":
        return cls(n, tower, True, {})

    @classmethod
    def from_entries(cls, n, tower, entries, unipotent=False) -> "TriMatrix":
        clean = {}
        for (i, j), v in entries.items():
            if not (1 <= i < j <= n):
                raise ShapeError(f"position ({i},{j}) is not strictly upper for n={n}")
            v = tower.element(v) if isinstance(v, int) else v
            if v.tower != tower:
                raise ShapeError("entry from a different tower")
            if v.enc:
                clean[(i, j)] = v
        return cls(n, tower, unipotent, clean)

    @classmethod
    def elementary(cls, n, tower, i, j, value=1, unipotent=False) -> "TriMatrix":
        return cls.from_entries(n, tower, {(i, j): value}, unipotent)

    def get(self, i: int, j: int) -> FieldElement:
        return self.entries.get((i, j), self.tower.zero)

    def serialize(self) -> tuple:
        """Row-major strict-upper entries as canonical integer encodings."""
        if self._key is None:
            self._key = tuple(
                self.entries[pos].enc if pos in self.entries else 0
                for pos in strict_positions(self.n)
            )
        return self._key

    def _check(self, other: "TriMatrix"):
        if (
            other.n != self.n
            or other.tower != self.tower
            or other.unipotent != self.unipotent
        ):
            raise ShapeError("operands differ in size, tower or unipotent flag")

    # -- algebra operations (nilpotent side) ------------------------------

    def __add__(self, other: "TriMatrix") -> "TriMatrix":
        self._check(other)
        if self.unipotent:
            raise ShapeError("addition is an algebra operation; use nilpotent matrices")
        out = dict(self.entries)
        for pos, v in other.entries.items():
            out[pos] = out[pos] + v if pos in out else v
        return TriMatrix(self.n, self.tower, False, out)

    def __sub__(self, other: "TriMatrix") -> "TriMatrix":
        return self + (-other)

    def __neg__(self) -> "TriMatrix":
        if self.unipotent:
            raise ShapeError("negation is an algebra operation")
        return TriMatrix(
            self.n, self.tower, False, {pos: -v for pos, v in self.entries.items()}
        )

    def scale(self, c) -> "TriMatrix":
        if self.unipotent:
            raise ShapeError("scaling is an algebra operation")
        c = self.tower.element(c) if isinstance(c, int) else c
        return TriMatrix(
            self.n, self.tower, False, {pos: c * v for pos, v in self.entries.items()}
        )

    def _nilp_product(self, other: "TriMatrix") -> dict:
        out: dict = {}
        for (i, k), a in self.entries.items():
            for (k2, j), b in other.entries.items():
                if k == k2:
                    pos = (i, j)
                    v = a * b
                    out[pos] = out[pos] + v if pos in out else v
        return out

    def __mul__(self, other: "TriMatrix") -> "TriMatrix":
        self._check(other)
        if not self.unipotent:
            return TriMatrix(self.n, self.tower, False, self._nilp_product(other))
        # (1+x)(1+y) = 1 + (x + y + xy)
        x = self.nilpotent_part()
        y = other.nilpotent_part()
        return (x + y + x * y).as_unipotent()

    def inverse(self) -> "TriMatrix":
        """(1+x)^(-1) = 1 + sum (-x)^i, truncated at nilpotency."""
        if not self.unipotent:
            raise ShapeError("inverse is a group operation; use unipotent matrices")
        x = self.nilpotent_part()
        neg = -x
        acc = neg
        total = neg
        for _ in range(self.n - 2):
            acc = acc * neg
            if not acc.entries:
                break
            total = total + acc
        return total.as_unipotent()

    def nilpotent_part(self) -> "TriMatrix":
        return TriMatrix(self.n, self.tower, False, dict(self.entries))

    def as_unipotent(self) -> "TriMatrix":
        return TriMatrix(self.n, self.tower, True, dict(self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, TriMatrix)
            and other.n == self.n
            and other.tower == self.tower
            and other.unipotent == self.unipotent
            and other.serialize() == self.serialize()
        )

    def __hash__(self):
        return hash((self.n, self.unipotent, self.serialize()))

    def __repr__(self):
        kind = "1+" if self.unipotent else ""
        body = " + ".join(
            f"{v.enc}·e{i}{j}" for (i, j), v in sorted(self.entries.items())
        )
        return f"Tri({kind}{body or '0'}, n={self.n})"


class MirrorPoset:
    """A sub-order of the chain on [n], transitively closed and mirror
    symmetric: i < j in the order forces n+1-j < n+1-i.
    """

    def __init__(self, n: int, strict_pairs):
        self.n = n
        self.pairs = frozenset(strict_pairs)
        for i, j in self.pairs:
            if not (1 <= i < j <= n):
                raise ValueError(f"pair ({i},{j}) violates the chain sub-order")
        # transitivity must already hold
        for i, j in self.pairs:
            for k, l in self.pairs:
                if j == k and (i, l) not in self.pairs:
                    raise ValueError(f"relation is not transitive at ({i},{l})")
        for i, j in self.pairs:
            m = (n + 1 - j, n + 1 - i)
            if m not in self.pairs:
                raise ValueError(
                    f"mirror property violated: ({i},{j}) present but {m} missing"
                )

    @classmethod
    def chain(cls, n: int) -> "MirrorPoset":
        return cls(n, strict_positions(n))

    @classmethod
    def from_pairs(cls, n: int, generators) -> "MirrorPoset":
        """Close the generating pairs transitively, then validate."""
        pairs = set()
        for i, j in generators:
            if not (1 <= i < j <= n):
                raise ValueError(f"generator ({i},{j}) violates the chain sub-order")
            pairs.add((i, j))
        changed = True
        while changed:
            changed = False
            for i, j in list(pairs):
                for k, l in list(pairs):
                    if j == k and (i, l) not in pairs:
                        pairs.add((i, l))
                        changed = True
        return cls(n, pairs)

    @classmethod
    def from_file(cls, path) -> "MirrorPoset":
        """Format: first line n, then one "i j" generator per line."""
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError(f"{path}: empty poset file")
        n = int(lines[0])
        gens = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed line {ln!r}")
            gens.append((int(parts[0]), int(parts[1])))
        return cls.from_pairs(n, gens)

    def longest_chain(self) -> int:
        """Number of nodes on the longest strictly increasing chain."""
        best = {i: 1 for i in range(1, self.n + 1)}
        for i in sorted(range(1, self.n + 1), reverse=True):
            for a, b in self.pairs:
                if a == i:
                    best[i] = max(best[i], 1 + best[b])
        return max(best.values()) if best else 1

    def __eq__(self, other):
        return (
            isinstance(other, MirrorPoset)
            and other.n == self.n
            and other.pairs == self.pairs
        )

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return f"MirrorPoset(n={self.n}, pairs={sorted(self.pairs)})"


def pattern_space(poset: MirrorPoset):
    """Ordered admissible positions (i, j), i < j; the common support of
    the pattern subgroup and the pattern subalgebra."""
    return [pos for pos in strict_positions(poset.n) if pos in poset.pairs]


class Involution:
    """An entrywise anti-involution (x^t)_{ij} = eps_{ij}
    * sigma(x_{n+1-j, n+1-i}) of the triangular matrices.

    sigma is the identity for the orthogonal and symplectic kinds and the
    q-power Frobenius for the unitary kind; the sign table eps is +1
    except in the symplectic case, where it carries the Omega-block signs.
    All sign bookkeeping lives here and nowhere else.
    """

    KINDS = ("orthogonal", "symplectic", "unitary")

    def __init__(self, kind: str, n: int, tower: FieldTower):
        if kind not in self.KINDS:
            raise ValueError(f"unknown involution kind {kind!r}")
        if kind == "symplectic" and n % 2:
            raise ValueError("the symplectic involution needs even n")
        if kind == "unitary" and tower.k != 2:
            raise ValueError("the unitary involution needs a quadratic top extension")
        self.kind = kind
        self.n = n
        self.tower = tower
        self.eps = {}
        if kind == "symplectic":
            half = n // 2
            omega = {i: (-1 if i <= half else 1) for i in range(1, n + 1)}
            for i, j in strict_positions(n):
                self.eps[(i, j)] = -omega[i] * omega[n + 1 - j]
        else:
            for pos in strict_positions(n):
                self.eps[pos] = 1

    def _sigma(self, v: FieldElement) -> FieldElement:
        if self.kind == "unitary":
            return frobenius_q(v)
        return v

    def apply(self, x: TriMatrix) -> TriMatrix:
        if x.n != self.n or x.tower != self.tower:
            raise ShapeError("matrix does not match the involution's shape")
        n = self.n
        out = {}
        for (i, j), v in x.entries.items():
            ti, tj = n + 1 - j, n + 1 - i
            w = self._sigma(v)
            if self.eps[(ti, tj)] < 0:
                w = -w
            out[(ti, tj)] = w
        return TriMatrix(n, self.tower, x.unipotent, out)

    def __repr__(self):
        return f"Involution({self.kind}, n={self.n})"


def dagger(x: TriMatrix, inv: Involution) -> TriMatrix:
    """Apply the anti-involution; extends to unipotents by (1+x)^t = 1+x^t."""
    return inv.apply(x)


# -- Springer morphisms ----------------------------------------------------


def _inv_one_plus(y: TriMatrix) -> TriMatrix:
    """(1 + y)^(-1) - 1 for nilpotent y, as a nilpotent matrix."""
    return y.as_unipotent().inverse().nilpotent_part()


def cayley(g: TriMatrix) -> TriMatrix:
    """The Cayley-type morphism 1+x -> 2x(x+2)^(-1) = x(1 + x/2)^(-1)."""
    if not g.unipotent:
        raise ShapeError("cayley maps group elements to algebra elements")
    half = g.tower.element(2).inverse()
    x = g.nilpotent_part()
    z = _inv_one_plus(x.scale(half))
    return x * z + x


def cayley_inv(y: TriMatrix) -> TriMatrix:
    """Inverse of ``cayley``: y -> 1 + 2y(2-y)^(-1) = 1 + y(1 - y/2)^(-1)."""
    if y.unipotent:
        raise ShapeError("cayley_inv maps algebra elements to group elements")
    half = y.tower.element(2).inverse()
    z = _inv_one_plus(-(y.scale(half)))
    return (y * z + y).as_unipotent()


def nilpotency_index(poset: MirrorPoset) -> int:
    """Least m with x^m = 0 for every x in the pattern subalgebra."""
    return poset.longest_chain()


def trunc_log(g: TriMatrix, bound: int | None = None) -> TriMatrix:
    """The truncated logarithm sum (-1)^(i+1) x^i / i.

    Only a Springer morphism when x^p = 0 for all x in the ambient
    algebra; the caller passes the algebra's nilpotency index so the map
    can refuse rather than silently truncate.
    """
    if not g.unipotent:
        raise ShapeError("trunc_log maps group elements to algebra elements")
    p = g.tower.p
    m = bound if bound is not None else g.n
    if m > p:
        raise SpringerUndefinedError(
            f"truncated logarithm needs nilpotency index <= p; got {m} > {p}"
        )
    x = g.nilpotent_part()
    acc = x
    total = x
    sign = 1
    for i in range(2, m):
        acc = acc * x
        if not acc.entries:
            break
        sign = -sign
        coeff = g.tower.element(sign) * g.tower.element(i).inverse()
        total = total + acc.scale(coeff)
    return total


def trunc_exp(y: TriMatrix, bound: int | None = None) -> TriMatrix:
    """Inverse of ``trunc_log``: the truncated exponential series."""
    if y.unipotent:
        raise ShapeError("trunc_exp maps algebra elements to group elements")
    p = y.tower.p
    m = bound if bound is not None else y.n
    if m > p:
        raise SpringerUndefinedError(
            f"truncated exponential needs nilpotency index <= p; got {m} > {p}"
        )
    acc = y
    total = y
    fact = 1
    for i in range(2, m):
        acc = acc * y
        if not acc.entries:
            break
        fact *= i
        total = total + acc.scale(y.tower.element(fact).inverse())
    return total.as_unipotent()
