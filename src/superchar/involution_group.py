"""Construction of U = {u : u^dagger = u^(-1)} inside a pattern group G,
its Lie algebra u = {x : x^dagger = -x}, the normal subgroup H, and the
compiled maps behind the functionals (extension lambda -> eta and the
rows that cut out g_eta).

All linear algebra is over the scalar subfield F_q of F_{q^k}: matrices
are flattened position-by-position to F_q-coordinate tuples, so k = 1 and
k = 2 go through one code path.  A functional is its coefficient tuple
against an explicit basis (u's for lambda, g's standard one for eta) and
is evaluated by dot products; it is never identified with matrix entries.
"""

from __future__ import annotations

import functools
import itertools
import operator
from pathlib import Path

from .errors import ShapeError, SizeGuardError, SpringerUndefinedError, VerificationError
from .gf import FieldTower, Subfield, make_tower
from .linalg import Subspace, transpose
from .record import FrozenRecord
from .triangular import (
    Involution,
    MirrorPoset,
    TriMatrix,
    kernel,
    linear_kernel,
    nilpotency_index,
    pattern_space,
    slot_index,
)

FAMILIES = ("UT", "UO", "USp", "UU")
U_SPACE_GUARD = 1 << 20
# The ambient scan (BuiltGroup.g_points and a partition over it) peaks
# at 230-280 bytes per point: 31.9 MB at 59k points and 139 MB at 531k,
# over 15.6 MB for the import.  1 << 22 points is about 1.2 GB; ut_6(F_3),
# at 3^15 points and some 3.5-4 GB, stays refused.
G_SPACE_GUARD = 1 << 22

_KIND_BY_FAMILY = {"UO": "orthogonal", "USp": "symplectic", "UU": "unitary"}


class GroupSpec(FrozenRecord):
    """Which group to build: family, size, field tower, optional poset."""

    family: str
    n: int
    p: int
    e: int = 1
    k: int = 1
    poset: MirrorPoset | None = None
    scalar_degree: int | None = None

    def _check(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.family == "USp" and self.n % 2:
            raise ValueError("USp needs even n")
        if self.family == "UU" and self.k != 2:
            raise ValueError("UU needs k = 2")
        if self.poset is not None and self.poset.n != self.n:
            raise ValueError("poset size does not match n")

    @property
    def tower(self) -> FieldTower:
        return make_tower(self.p, self.e, self.k)

    def label(self) -> str:
        base = f"{self.family}{self.n}(F_{self.p ** (self.e * self.k)})"
        if self.poset is not None and self.poset != MirrorPoset.chain(self.n):
            base += "|poset"
        return base


def load_spec(path) -> GroupSpec:
    """Read a spec file {"family","n","p","e","k","poset": optional path}."""
    import json

    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"spec file {path} must hold a JSON object")
    missing = [key for key in ("family", "n", "p") if key not in data]
    if missing:
        raise ValueError(f"spec file {path} lacks {', '.join(missing)}")
    for key in ("n", "p", "e", "k"):
        if key in data and type(data[key]) is not int:
            raise ValueError(f"spec file {path}: {key} must be an integer")
    if data.get("poset") is not None and not isinstance(data["poset"], str):
        raise ValueError(f"spec file {path}: poset must be a file path")
    poset = None
    if data.get("poset"):
        poset_path = Path(data["poset"])
        if not poset_path.is_absolute():
            poset_path = path.parent / poset_path
        poset = MirrorPoset.from_file(poset_path)
    return GroupSpec(
        family=data["family"],
        n=data["n"],
        p=data["p"],
        e=data.get("e", 1),
        k=data.get("k", 1),
        poset=poset,
    )


class SpaceBasis:
    """An F_q-basis of a subspace of g: the RREF subspace plus its basis
    vectors materialized as matrices on first use."""

    def __init__(self, group: "BuiltGroup", space: Subspace):
        self.group = group
        self.space = space

    @functools.cached_property
    def matrices(self):
        return [self.group.unflatten(row) for row in self.space.rows]

    @property
    def dim(self) -> int:
        return self.space.dim

    @functools.cached_property
    def element_encs(self):
        """coords -> the slot encodings of sum c_i b_i over the basis
        matrices b_i, a linear kernel compiled on first use; unflatten is
        F_q-linear, so this is unflatten(space.combine(coords)).encs."""
        width = len(slot_index(self.group.n))
        columns = [[m.encs[s] for m in self.matrices] for s in range(width)]
        return linear_kernel(self.group.tower, columns, self.dim)

    def coords(self, mat: TriMatrix):
        return self.space.coords(self.group.flatten(mat))

    def __repr__(self):
        return f"SpaceBasis(dim={self.dim} over F_{self.group.sc.size})"


class BuiltGroup:
    """Everything derived from a GroupSpec: the pattern group G, the
    involution, u, U, H, and the action machinery."""

    def __init__(self, spec: GroupSpec, force: bool = False):
        self.spec = spec
        self.n = spec.n
        self.tower = spec.tower
        self.poset = spec.poset or MirrorPoset.chain(spec.n)
        self.positions = pattern_space(self.poset)
        # the TriMatrix slot of each position, in flat (position-major) order
        self.slots = [slot_index(spec.n)[pos] for pos in self.positions]
        self.force = force
        # every keyed build of the group, by key (``cached``)
        self.cache: dict = {}
        degree = spec.scalar_degree if spec.scalar_degree is not None else spec.e
        if self.tower.degree % degree:
            raise ValueError("scalar degree must divide e*k")
        if spec.family == "UU" and spec.e % degree:
            raise ValueError("unitary scalars must fix the Frobenius subfield")
        self.sc: Subfield = self.tower.subfield(degree)
        self.kdim = self.tower.degree // degree
        self.flat_dim = len(self.positions) * self.kdim
        self.order_G = self.tower.size ** len(self.positions)
        self.nilpotency = nilpotency_index(self.poset)

        if spec.family == "UT":
            self.involution = None
        else:
            self.involution = Involution(_KIND_BY_FAMILY[spec.family], spec.n, self.tower)
            for (i, j) in self.positions:
                if (self.n + 1 - j, self.n + 1 - i) not in self.poset.pairs:
                    raise ShapeError("poset is not mirror symmetric")

        # standard basis of g over the scalar field: position-major, power-minor
        self.g_basis_mats = [
            TriMatrix.elementary(self.n, self.tower, i, j, b)
            for (i, j) in self.positions
            for b in self.sc.power_basis
        ]
        self.g_space = Subspace.from_spanning(
            self.sc, self.flat_dim, [self.flatten(m) for m in self.g_basis_mats]
        )
        self.g_basis = SpaceBasis(self, self.g_space)

        # generators of G: 1 + t^l e_{ij}, an F_p-basis per admissible position
        pbasis = (
            [1]
            if self.tower.degree == 1
            else [self.tower.pow_enc(self.tower.p, i) for i in range(self.tower.degree)]
        )
        self.G_gens = [
            TriMatrix.elementary(self.n, self.tower, i, j, b, True)
            for (i, j) in self.positions
            for b in pbasis
        ]

        # H = {h in G : h_{ij} = 0 if 2j <= n} and its ideal h
        self.h_positions = [(i, j) for (i, j) in self.positions if 2 * j > self.n]
        self.order_H = self.tower.size ** len(self.h_positions)
        h_set = set(self.h_positions)
        self._outside_h = [s for pos, s in slot_index(self.n).items() if pos not in h_set]
        h_flat = [self.flatten(m) for m in self.g_basis_mats if self.in_h_encs(m.encs)]
        self.h_space = Subspace.from_spanning(self.sc, self.flat_dim, h_flat)
        self.h_basis = SpaceBasis(self, self.h_space)
        self.H_gens = [g for g in self.G_gens if self.in_h_encs(g.encs)]
        # what the orbit walks close under: the root elements at unsplit positions
        self.G_walk = walk_generators(self.G_gens, self.positions)
        self.H_walk = walk_generators(self.H_gens, self.h_positions)

        if self.involution is not None:
            self._build_u()
            self.order_U = self.sc.size**self.u_basis.dim
        else:
            self.u_basis = None

    def cached(self, key, build):
        """build(), made once per group and key: the one memo of every
        keyed build, such as an orbit partition, a theory record or a
        closure walk.  Builds with no key are cached properties."""
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def in_h_encs(self, encs) -> bool:
        """Whether the matrix with slot encodings ``encs`` vanishes off the
        positions of H, so lies in H or h."""
        return not any(encs[s] for s in self._outside_h)

    # -- flattening ---------------------------------------------------------

    def flatten(self, mat: TriMatrix):
        """Scalar-field coordinates of a nilpotent matrix, position-major."""
        return self.flatten_encs(mat.encs)

    def flatten_encs(self, encs):
        """``flatten`` of the matrix with slot encodings ``encs``: one
        C-level pass that picks the group's slots and chains their
        coordinates out of the subfield's table."""
        coords = map(self.sc.coords, map(encs.__getitem__, self.slots))
        return tuple(itertools.chain.from_iterable(coords))

    def unflatten(self, flat) -> TriMatrix:
        combine = self.sc.combine
        k = self.kdim
        encs = [0] * len(slot_index(self.n))
        for idx, s in enumerate(self.slots):
            encs[s] = combine(flat[idx * k : (idx + 1) * k])
        return TriMatrix.from_encs(self.n, self.tower, encs)

    # -- the involution and the action ---------------------------------------

    def dagger(self, x: TriMatrix) -> TriMatrix:
        if self.involution is None:
            raise ShapeError("family UT carries no involution")
        return self.involution.apply(x)

    def act(self, g: TriMatrix, x: TriMatrix) -> TriMatrix:
        """g . x = g x g^dagger for unipotent g and nilpotent x.  With
        a = g - 1 and y = x + a x, that is y + y a^dagger, taken on slot
        encodings through the product kernel; g^dagger = 1 + a^dagger
        shares its slot encodings with a^dagger."""
        if x.unipotent or x.n != self.n or x.tower != self.tower:
            raise ShapeError("the action is on nilpotent matrices of the group's shape")
        mul, add = kernel(self.tower, "mul", self.n), self.tower.add_table
        y = [add[s][t] for s, t in zip(x.encs, mul(g.encs, x.encs))]
        return x._like([add[s][t] for s, t in zip(y, mul(y, self.dagger(g).encs))])

    # -- u and U ---------------------------------------------------------------

    def _build_u(self):
        cols = []
        for b in self.g_basis_mats:
            img = self.dagger(b) + b  # x^dagger + x must vanish on u
            cols.append(self.flatten(img))
        self.u_space = Subspace.kernel(self.sc, self.flat_dim, transpose(cols))
        self.u_basis = SpaceBasis(self, self.u_space)

    @functools.cached_property
    def U(self):
        """``cayley_pairing``'s elements as TriMatrix objects, built on
        first use; None for family UT.  The library reads the slot
        encodings themselves; this view is for ``perfbench/layers.py``
        and the tests, which take U as matrices."""
        if self.involution is None:
            return None
        return [TriMatrix.from_encs(self.n, self.tower, u, True) for u in self.cayley_pairing[0]]

    @functools.cached_property
    def cayley_pairing(self):
        """(elements, points): U = cayley^-1(u) as slot encodings, one
        element per point of ``u_points``, sorted by serialization, and the
        point of u that each element came from, so points[i] =
        cayley(elements[i]) without evaluating cayley."""
        element, dagger = self.u_basis.element_encs, self.involution.apply_encs
        _, preimage = self.springer("cayley")
        inverse = kernel(self.tower, "inverse", self.n)
        pairs = []
        for coords in self.u_points[0]:
            u = preimage(element(coords))
            # u in U: u^dagger = u^-1
            if dagger(u) != inverse(u):
                raise VerificationError("Springer preimage left U; involution broken")
            pairs.append((u, coords))
        pairs.sort()
        elems = [u for u, _ in pairs]
        # q^dim u points give |U| = q^dim u elements only if no two coincide
        if any(map(operator.eq, elems, elems[1:])):
            raise VerificationError("|U| disagrees with q^dim(u): cayley^-1 is not injective")
        return elems, [x for _, x in pairs]

    @functools.cached_property
    def U_index(self):
        """The position of each element of U in ``cayley_pairing``, by its
        slot encodings."""
        return {u: i for i, u in enumerate(self.cayley_pairing[0])}

    # -- enumerated coordinate spaces ------------------------------------------

    @functools.cached_property
    def u_points(self):
        """(points, index): every coordinate vector of u over F_q, in
        itertools.product order, and the position of each.  The one listing
        of this space: U, the orbit partitions of u, u* and u* under H, and
        the Springer image check read it.  Guarded by U_SPACE_GUARD."""
        return self._points(self.u_basis.dim, U_SPACE_GUARD, "|u|")

    @functools.cached_property
    def g_points(self):
        """(points, index) for the flat coordinates of g, as ``u_points``
        is for u; the two-sided and left orbit partitions of g and g* read
        it.  Guarded by G_SPACE_GUARD."""
        return self._points(self.flat_dim, G_SPACE_GUARD, "|g|")

    def _points(self, dim, guard, name):
        size = self.sc.size**dim
        if size > guard and not self.force:
            raise SizeGuardError(f"{name} = {size} exceeds the guard {guard}")
        points = list(itertools.product(self.sc.elements, repeat=dim))
        return points, {v: i for i, v in enumerate(points)}

    # -- Springer morphisms ----------------------------------------------------

    def springer_names(self):
        names = ["cayley"]
        if self.nilpotency <= self.tower.p:
            names.append("log")
        return names

    def springer(self, name: str):
        """(forward, inverse) of the named Springer morphism as layout
        kernels on slot encodings: the slots of 1 + x go to those of
        f(1 + x), and back.  The truncated log and exp stop at the
        nilpotency index of g, refused above p."""
        if name == "cayley":
            return kernel(self.tower, "cayley", self.n), kernel(self.tower, "cayley_inv", self.n)
        if name == "log":
            if self.nilpotency > self.tower.p:
                raise SpringerUndefinedError(
                    f"truncated logarithm undefined: nilpotency {self.nilpotency} "
                    f"> p = {self.tower.p}"
                )
            m = self.nilpotency
            return kernel(self.tower, "log", self.n, m), kernel(self.tower, "exp", self.n, m)
        raise ValueError(f"unknown Springer morphism {name!r}")

    # -- the compiled maps behind eta and g_eta -----------------------------------

    @functools.cached_property
    def extension_map(self):
        """lambda -> eta on coefficient vectors, compiled on first use:
        eta(b) = (1/2) lambda(b - b^dagger) = sum_i lambda_i c_bi for each
        b in g's basis, with c_b = (1/2) coords_u(b - b^dagger)."""
        times_half = self.tower.mul_table[self.tower.inv_enc(2)]
        matrix = [
            [times_half[c] for c in self.u_basis.coords(b - self.dagger(b))]
            for b in self.g_basis_mats
        ]
        return linear_kernel(self.tower, matrix, self.u_basis.dim)

    @functools.cached_property
    def eta_forms(self):
        """eta -> the rows eta(y b) for y in h's basis, then the rows
        eta(b y^dagger), over g's basis b (``form_rows``): the constraints
        that cut out l_eta and r_eta.  Compiled on first use."""
        h, g = self.h_basis.matrices, self.g_basis_mats
        pairs = [(y, b) for y in h for b in g]
        pairs += [(b, self.dagger(y)) for y in h for b in g]
        return form_rows(self, pairs)

    @functools.cached_property
    def g_forms(self):
        """eta -> the matrix of (x, y) -> eta(x y) over g's basis, compiled."""
        g = self.g_basis_mats
        return form_rows(self, [(y, b) for y in g for b in g])

    # -- enumeration of G ---------------------------------------------------------

    def enumerate_G(self):
        """1 + x for every point x of ``g_points``, in that order."""
        return (self.unflatten(x).as_unipotent() for x in self.g_points[0])

    def label(self) -> str:
        return self.spec.label()

    def __repr__(self):
        return f"BuiltGroup({self.label()})"


def build_group(spec: GroupSpec, force: bool = False) -> BuiltGroup:
    return BuiltGroup(spec, force=force)


def unsplit_positions(positions) -> set:
    """The positions (i, k) that no j splits, that is, with no (i, j) and
    (j, k) both in ``positions``: for G, the covering relations of the
    poset.  e_ij e_jk = e_ik, so the products of two elements of g span
    exactly the matrices that vanish at every unsplit position."""
    inside = set(positions)
    return {
        (i, k)
        for (i, k) in positions
        if not any((i, j) in inside and (j, k) in inside for j in range(i + 1, k))
    }


def walk_generators(root_elements, positions):
    """The root elements 1 + t^l e_ik at the unsplit positions
    (``unsplit_positions``).

    They generate the same group as all of ``root_elements``, for G and
    for H alike (their positions are closed: (i, j) and (j, k) in them
    force (i, k)), so every orbit walk over them finds the same orbits.
    Proof by induction on k - i.  For a split (i, k), the commutator of
    x_ij(a) = 1 + a e_ij and x_jk(b) is x_ik(ab) exactly, since
    e_ij e_jk = e_ik and every other product of the two units vanishes.
    (i, j) and (j, k) are shorter, so every x_ij(a) and x_jk(b) lies in
    the generated group; with b = 1 and a over F_q, so does every x_ik(a).
    The t^l span F_q over F_p, so the x_ik(t^l) themselves generate the
    root subgroup of an unsplit (i, k)."""
    unsplit = unsplit_positions(positions)
    return [g for g in root_elements if next(iter(g.entries)) in unsplit]


# -- the bilinear-form rows behind eta and g_eta ---------------------------------


def form_rows(group: BuiltGroup, pairs):
    """The compiled map eta -> eta(x y) for each (x, y) in ``pairs``, cut
    into rows of |g| values, for eta given by its coefficients against g's
    basis.  That basis is the standard one, so eta(m) is the dot product of
    the coefficients with flatten(m), and each value is one sum over the
    nonzero coordinates of flatten(x y)."""
    apply = linear_kernel(group.tower, [group.flatten(x * y) for x, y in pairs], group.flat_dim)
    width = group.flat_dim

    def rows(coeffs):
        values = apply(coeffs)
        return [values[i : i + width] for i in range(0, len(values), max(width, 1))]

    return rows


def kernel_in_g(group: BuiltGroup, rows) -> Subspace:
    """The x in g with r . flat(x) = 0 for every row r; all of g for no
    rows."""
    return Subspace.kernel(group.sc, group.flat_dim, rows) if rows else group.g_space


def h_u_product_order(group: BuiltGroup) -> int:
    """|H U| computed from |H| |U| / |H ∩ U|; equals |G| when G = HU."""
    hu = [u for u in group.cayley_pairing[0] if group.in_h_encs(u)]
    return group.order_H * group.order_U // len(hu)
