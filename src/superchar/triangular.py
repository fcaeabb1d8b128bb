"""Unipotent and nilpotent triangular matrices, mirror posets,
anti-involutions and Springer morphisms.

A TriMatrix stores its strictly-upper entries as a tuple of field
encodings, one per slot of the row-major layout defined here; that tuple
is also its serialization.  Every constructor and ``scale`` take
encodings, and ``entries`` is a read-only view of the nonzero slots as
FieldElements; no arithmetic goes through them.  A TriMatrix is the
value type of a group's construction (bases, generators, action
matrices); once a group is built, its elements are the slot-encoding
tuples themselves, and the layout kernels act on them directly.
The ``unipotent`` flag says whether it stands for 1+x (a group element)
or x (an algebra element).  The two readings share a representation but
the Springer morphisms are the only sanctioned bridge between them, so
every map is explicit about which side it acts on.

The arithmetic on slot encodings is generated: ``straight_line`` turns
a list of sums of products into one Python function over the tower's
add, mul and neg tables, with every slot unrolled.  It emits a step only
when the step computes something: a step whose value is 0 or a single
variable is substituted wherever it is read, and in the returned tuple.
``kernel`` compiles the product, the inverse, both Cayley maps and the
truncated logarithm and exponential once per (tower, n, name) on first
use; ``linear_kernel`` compiles each distinct F_q-linear map once per
tower, as the orbit walks and ``SpaceBasis.element_encs`` use them.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .errors import ShapeError
from .gf import FieldElement, FieldTower


@functools.lru_cache(maxsize=None)
def _layout(n: int):
    """The slot layout for size n: the strict-upper positions in row-major
    order, the slot of each position, and for each slot (i, j) the slot
    pairs ((i, k), (k, j)) with i < k < j that a product sums over."""
    positions = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    index = {pos: s for s, pos in enumerate(positions)}
    pairs = tuple(
        tuple((index[(i, k)], index[(k, j)]) for k in range(i + 1, j))
        for (i, j) in positions
    )
    return positions, MappingProxyType(index), pairs


def strict_positions(n: int):
    """All (i, j) with 1 <= i < j <= n in row-major (slot) order."""
    return list(_layout(n)[0])


def slot_index(n: int):
    """The read-only map from each position (i, j) to its TriMatrix slot."""
    return _layout(n)[1]


# -- generated straight-line kernels ------------------------------------------


def straight_line(tower: FieldTower, params, steps, result):
    """Compile a straight-line program over the tower's add, mul and neg
    tables into a Python function: the one place code is generated, and
    the only code path of every product, inverse, Springer and linear-map
    kernel.

    ``params`` lists (name, length) for each argument, a tuple of
    encodings whose i-th entry becomes the variable f"{name}{i}".  Each
    step (target, terms, negate) assigns target = ±(sum of the terms),
    where a term is a variable (v,) or a product (a, v) of a variable or
    int encoding a with a variable v (just v when a = 1).  Every target is
    assigned by one step.  ``result`` lists the variables of the returned
    tuple.  Each term is its own statement, so no expression nests deeper
    than A[t][M[a][v]] however wide the layout, and a program with no
    slots (n = 1, dim 0) still compiles to ``return ()``.

    A step is emitted only when it computes something.  A term that reads
    0 is dropped; a step left with no term has the value 0, and one left
    with a single variable, not negated, has that variable's value.  Such
    a step stores nothing: later steps and the returned tuple read its
    value in its place.  So an identity row of a linear map returns its
    argument's slot and a zero row returns the literal 0.
    """
    body = [
        f"    {''.join(f'{name}{i}, ' for i in range(length))}= {name}"
        for name, length in params
        if length
    ]
    value: dict = {}  # a target that stores nothing -> the variable or 0 it reads as
    for target, terms, negate in steps:
        kept = []  # each term read through ``value``, as (v,) or (a, v) with a != 1
        for term in terms:
            term = [value.get(x, x) for x in term]
            if 0 not in term:
                kept.append(term[1:] if term[0] == 1 else term)
        if not kept or (len(kept) == 1 and len(kept[0]) == 1 and not negate):
            value[target] = kept[0][0] if kept else 0
            continue
        exprs = [f"M[{t[0]}][{t[1]}]" if len(t) == 2 else t[0] for t in kept]
        body.append(f"    {target} = {exprs[0]}")
        body += [f"    {target} = A[{target}][{e}]" for e in exprs[1:]]
        if negate:
            body.append(f"    {target} = N[{target}]")
    body.append(f"    return ({''.join(f'{value.get(r, r)}, ' for r in result)})")
    args = ", ".join(name for name, _ in params)
    namespace = {"A": tower.add_table, "M": tower.mul_table, "N": tower.neg_table}
    exec("\n".join([f"def kernel({args}):"] + body), namespace)
    return namespace["kernel"]


def _slot_products(n, out, lead, x, y, negate=False):
    """Steps out_s = ±(the lead variables' slot s + sum x_a y_b over the
    slot pairs (a, b) of s), one per slot in slot order."""
    return [
        (
            f"{out}{s}",
            [(f"{v}{s}",) for v in lead] + [(f"{x}{a}", f"{y}{b}") for a, b in terms],
            negate,
        )
        for s, terms in enumerate(_layout(n)[2])
    ]


def _kernel_program(tower: FieldTower, name: str, n: int, bound):
    """(params, steps, result) of the layout kernel ``name`` on size-n
    slot encodings x (and y):

    * "mul": x y; "umul": (1+x)(1+y) - 1 = x + y + x y;
    * "inverse": y with 1 + y = (1+x)^(-1), i.e. y = -(x + x y), solved
      from the last slot up, since y_ij needs only y_kj with k > i;
    * "cayley": x (1 + x/2)^(-1) = x z + x with 1 + z = (1 + x/2)^(-1);
      "cayley_inv": y (1 - y/2)^(-1), the same with -1/2 for 1/2;
    * "log" and "exp": sum c_i x^i over 1 <= i < max(bound, 2), with the
      powers x^i = x^(i-1) x, and c_i = (-1)^(i+1)/i for log (of 1 + x)
      and 1/i! for exp (the slots of exp(x) - 1).
    """
    m = len(_layout(n)[0])
    xs = [("x", m)]
    if name in ("mul", "umul"):
        lead = ["x", "y"] if name == "umul" else []
        return xs + [("y", m)], _slot_products(n, "z", lead, "x", "y"), [f"z{s}" for s in range(m)]
    if name == "inverse":
        steps = _slot_products(n, "y", ["x"], "x", "y", negate=True)[::-1]
        return xs, steps, [f"y{s}" for s in range(m)]
    if name in ("log", "exp"):
        p, steps, powers, fact = tower.p, [], [(1, "x")], 1
        for i in range(2, bound):
            fact *= i
            c = (-1) ** (i + 1) * pow(i, -1, p) if name == "log" else pow(fact, -1, p)
            steps += _slot_products(n, f"x{i}_", [], powers[-1][1], "x")
            powers.append((c % p, f"x{i}_"))
        steps += [(f"r{s}", [(c, f"{v}{s}") for c, v in powers], False) for s in range(m)]
        return xs, steps, [f"r{s}" for s in range(m)]
    half = pow(2, -1, tower.p)
    c = {"cayley": half, "cayley_inv": tower.neg_table[half]}[name]
    steps = [(f"h{s}", [(c, f"x{s}")], False) for s in range(m)]
    steps += _slot_products(n, "z", ["h"], "h", "z", negate=True)[::-1]
    steps += _slot_products(n, "r", ["x"], "x", "z")
    return xs, steps, [f"r{s}" for s in range(m)]


def kernel(tower: FieldTower, name: str, n: int, bound=None):
    """The compiled layout kernel ``name`` (see ``_kernel_program``) for
    size-n slot encodings over ``tower``, with the truncation ``bound`` of
    "log" and "exp"; compiled on first use and kept in ``tower.kernels``
    under the key (name, n, bound)."""
    key = (name, n, bound)
    fn = tower.kernels.get(key)
    if fn is None:
        fn = tower.kernels[key] = straight_line(tower, *_kernel_program(tower, *key))
    return fn


def linear_kernel(tower: FieldTower, matrix, width: int):
    """The compiled map v -> M v for a matrix of encodings with ``width``
    columns; each output is one sum over its row's nonzero entries.
    Kept in ``tower.kernels`` under the key (width, M), so equal matrices
    share one function, compiled once."""
    rows = tuple(map(tuple, matrix))
    fn = tower.kernels.get((width, rows))
    if fn is None:
        steps = [
            (f"o{i}", [(a, f"v{j}") for j, a in enumerate(row) if a], False)
            for i, row in enumerate(rows)
        ]
        outputs = [f"o{i}" for i in range(len(rows))]
        fn = tower.kernels[width, rows] = straight_line(tower, [("v", width)], steps, outputs)
    return fn


class TriMatrix:
    """A unipotent (1+x) or nilpotent (x) upper-triangular matrix, stored
    as ``encs``, the encodings of x over ``strict_positions(n)``."""

    __slots__ = ("n", "tower", "unipotent", "encs")

    def __init__(self, n, tower, unipotent, entries):
        """The matrix with the encodings {(i, j): enc} of ``entries``,
        trusted as given."""
        index = slot_index(n)
        encs = [0] * len(index)
        for pos, v in entries.items():
            encs[index[pos]] = v
        self.n = n
        self.tower = tower
        self.unipotent = unipotent
        self.encs = tuple(encs)

    @classmethod
    def from_encs(cls, n, tower, encs, unipotent=False) -> "TriMatrix":
        """The matrix whose slots hold ``encs``, trusted as given."""
        mat = object.__new__(cls)
        mat.n = n
        mat.tower = tower
        mat.unipotent = unipotent
        mat.encs = tuple(encs)
        return mat

    @classmethod
    def zero(cls, n: int, tower: FieldTower) -> "TriMatrix":
        return cls(n, tower, False, {})

    @classmethod
    def identity(cls, n: int, tower: FieldTower) -> "TriMatrix":
        return cls(n, tower, True, {})

    @classmethod
    def from_entries(cls, n, tower, entries, unipotent=False) -> "TriMatrix":
        """The matrix with the encodings {(i, j): enc} of ``entries``,
        each checked to be a strictly upper position and an encoding."""
        for (i, j), v in entries.items():
            if not (1 <= i < j <= n):
                raise ShapeError(f"position ({i},{j}) is not strictly upper for n={n}")
            if not isinstance(v, int) or not 0 <= v < tower.size:
                raise ValueError(f"entry {v!r} at ({i},{j}) is not an encoding of {tower!r}")
        return cls(n, tower, unipotent, entries)

    @classmethod
    def elementary(cls, n, tower, i, j, value=1, unipotent=False) -> "TriMatrix":
        """The encoding ``value`` at (i, j), checked as in ``from_entries``."""
        return cls.from_entries(n, tower, {(i, j): value}, unipotent)

    def _like(self, encs) -> "TriMatrix":
        return TriMatrix.from_encs(self.n, self.tower, encs, self.unipotent)

    @property
    def entries(self) -> dict:
        """The nonzero entries as {(i, j): FieldElement}, in slot order."""
        positions = _layout(self.n)[0]
        return {pos: FieldElement(self.tower, v) for pos, v in zip(positions, self.encs) if v}

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
        add = self.tower.add_table
        return self._like([add[a][b] for a, b in zip(self.encs, other.encs)])

    def __sub__(self, other: "TriMatrix") -> "TriMatrix":
        return self + (-other)

    def __neg__(self) -> "TriMatrix":
        if self.unipotent:
            raise ShapeError("negation is an algebra operation")
        neg = self.tower.neg_table
        return self._like([neg[a] for a in self.encs])

    def scale(self, c: int) -> "TriMatrix":
        """c x for the encoding c."""
        if self.unipotent:
            raise ShapeError("scaling is an algebra operation")
        row = self.tower.mul_table[c]
        return self._like([row[a] for a in self.encs])

    def __mul__(self, other: "TriMatrix") -> "TriMatrix":
        """x y, or for unipotents (1+x)(1+y) = 1 + (x + y + xy)."""
        self._check(other)
        product = kernel(self.tower, "umul" if self.unipotent else "mul", self.n)
        return self._like(product(self.encs, other.encs))

    def inverse(self) -> "TriMatrix":
        """(1+x)^(-1) = 1+y with y = -(x + xy)."""
        if not self.unipotent:
            raise ShapeError("inverse is a group operation; use unipotent matrices")
        return self._like(kernel(self.tower, "inverse", self.n)(self.encs))

    def nilpotent_part(self) -> "TriMatrix":
        return TriMatrix.from_encs(self.n, self.tower, self.encs, False)

    def as_unipotent(self) -> "TriMatrix":
        return TriMatrix.from_encs(self.n, self.tower, self.encs, True)

    def __eq__(self, other):
        return (
            isinstance(other, TriMatrix)
            and other.n == self.n
            and other.tower == self.tower
            and other.unipotent == self.unipotent
            and other.encs == self.encs
        )

    def __hash__(self):
        return hash((self.n, self.unipotent, self.encs))

    def __repr__(self):
        kind = "1+" if self.unipotent else ""
        body = " + ".join(f"{v.enc}·e{i}{j}" for (i, j), v in self.entries.items())
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
        if kind == "unitary":
            sigma = [tower.frobenius_q_enc(a) for a in range(tower.size)]
        else:
            sigma = list(range(tower.size))
        neg_sigma = [tower.neg_enc(a) for a in sigma]
        # per target slot (i, j): the source slot and the table a -> eps_ij sigma(a)
        self._moves = []
        for i, j in strict_positions(n):
            # symplectic eps_ij = -omega_i omega_{n+1-j}, with omega = -1 on [1, n/2]
            flip = kind == "symplectic" and (2 * i <= n) == (2 * (n + 1 - j) <= n)
            source = slot_index(n)[(n + 1 - j, n + 1 - i)]
            self._moves.append((source, neg_sigma if flip else sigma))

    def apply(self, x: TriMatrix) -> TriMatrix:
        """x^dagger; on unipotents (1+x)^dagger = 1 + x^dagger."""
        if x.n != self.n or x.tower != self.tower:
            raise ShapeError("matrix does not match the involution's shape")
        return x._like(self.apply_encs(x.encs))

    def apply_encs(self, encs) -> tuple:
        """The slot encodings of x^dagger, from those of x."""
        return tuple([table[encs[src]] for src, table in self._moves])

    def __repr__(self):
        return f"Involution({self.kind}, n={self.n})"


# -- Springer morphisms ----------------------------------------------------


def cayley(g: TriMatrix) -> TriMatrix:
    """The Cayley-type morphism 1+x -> 2x(x+2)^(-1) = x(1 + x/2)^(-1)."""
    if not g.unipotent:
        raise ShapeError("cayley maps group elements to algebra elements")
    return TriMatrix.from_encs(g.n, g.tower, kernel(g.tower, "cayley", g.n)(g.encs))


def nilpotency_index(poset: MirrorPoset) -> int:
    """Least m with x^m = 0 for every x in the pattern subalgebra."""
    return poset.longest_chain()
