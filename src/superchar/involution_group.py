"""Construction of U = {u : u^dagger = u^(-1)} inside a pattern group G,
its Lie algebra u = {x : x^dagger = -x}, the normal subgroup H, and the
functional machinery (extension lambda -> eta and the subalgebras
l_eta, r_eta, g_eta).

All linear algebra is over the scalar subfield F_q of F_{q^k}: matrices
are flattened position-by-position to F_q-coordinate tuples, so k = 1 and
k = 2 go through one code path.  Functionals are stored as coefficient
vectors against explicit bases and evaluated by dot products; they are
never identified with matrix entries.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ShapeError, SizeGuardError, SpringerUndefinedError
from .gf import FieldTower, Subfield, make_tower
from .linalg import Subspace, transpose
from .triangular import (
    Involution,
    MirrorPoset,
    TriMatrix,
    cayley,
    cayley_inv,
    nilpotency_index,
    pattern_space,
    slot_index,
    trunc_exp,
    trunc_log,
)

FAMILIES = ("UT", "UO", "USp", "UU")
U_SPACE_GUARD = 1 << 20
# The ambient scan (orbits._g_space_list and the partition over it) peaks
# at 340-390 bytes per point: 38.5 MB at 59k points, 57 MB at 118k and
# 195 MB at 531k, over 15.6 MB for the import.  1 << 22 points is about
# 1.7 GB; ut_6(F_3), at 3^15 points and some 5-6 GB, stays refused.
G_SPACE_GUARD = 1 << 22

_KIND_BY_FAMILY = {"UO": "orthogonal", "USp": "symplectic", "UU": "unitary"}


@dataclass(frozen=True)
class GroupSpec:
    """Which group to build: family, size, field tower, optional poset."""

    family: str
    n: int
    p: int
    e: int = 1
    k: int = 1
    poset: MirrorPoset | None = None
    scalar_degree: int | None = None

    def __post_init__(self):
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
    vectors materialized as matrices."""

    def __init__(self, group: "BuiltGroup", space: Subspace):
        self.group = group
        self.space = space
        self.matrices = [group.unflatten(row) for row in space.rows]

    @property
    def dim(self) -> int:
        return self.space.dim

    def coords(self, mat: TriMatrix):
        return self.space.coords(self.group.flatten(mat))

    def contains(self, mat: TriMatrix) -> bool:
        return self.space.contains(self.group.flatten(mat))

    def element(self, coords) -> TriMatrix:
        return self.group.unflatten(self.space.combine(coords))

    def enumerate_coords(self, force: bool = False):
        sc = self.group.sc
        count = sc.size**self.dim
        if count > U_SPACE_GUARD and not force:
            raise SizeGuardError(
                f"space of size {count} exceeds the guard {U_SPACE_GUARD}"
            )
        return list(itertools.product(sc.elements, repeat=self.dim))

    def __repr__(self):
        return f"SpaceBasis(dim={self.dim} over F_{self.group.sc.size})"


class Functional:
    """A scalar-field linear functional on a subspace of g, stored as a
    coefficient vector against the subspace's basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: SpaceBasis, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != basis.dim:
            raise ShapeError("coefficient vector does not match the basis dimension")
        self.basis = basis
        self.coeffs = coeffs

    def evaluate_flat(self, flat) -> int:
        coords = self.basis.space.coords(flat)
        if coords is None:
            raise ShapeError("argument lies outside the functional's domain")
        return self.basis.group.sc.dot(self.coeffs, coords)

    def evaluate(self, mat: TriMatrix) -> int:
        return self.evaluate_flat(self.basis.group.flatten(mat))

    def __eq__(self, other):
        return (
            isinstance(other, Functional)
            and other.basis is self.basis
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Functional{self.coeffs}"


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
            TriMatrix.elementary(self.n, self.tower, i, j, self.tower.from_enc(b))
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
            TriMatrix.elementary(self.n, self.tower, i, j, self.tower.from_enc(b), True)
            for (i, j) in self.positions
            for b in pbasis
        ]

        # H = {h in G : h_{ij} = 0 if 2j <= n} and its ideal h
        self.h_positions = [(i, j) for (i, j) in self.positions if 2 * j > self.n]
        self.order_H = self.tower.size ** len(self.h_positions)
        h_set = set(self.h_positions)
        self._outside_h = [s for pos, s in slot_index(self.n).items() if pos not in h_set]
        h_flat = [self.flatten(m) for m in self.g_basis_mats if self.in_h(m)]
        self.h_space = Subspace.from_spanning(self.sc, self.flat_dim, h_flat)
        self.h_basis = SpaceBasis(self, self.h_space)
        self.H_gens = [g for g in self.G_gens if self.in_h(g)]

        if self.involution is not None:
            self._build_u()
            self._build_U()
        else:
            self.u_basis = None
            self.U = None

    def in_h(self, mat: TriMatrix) -> bool:
        """Whether mat vanishes off the positions of H, so lies in H or h."""
        return not any(mat.encs[s] for s in self._outside_h)

    # -- flattening ---------------------------------------------------------

    def flatten(self, mat: TriMatrix):
        """Scalar-field coordinates of a nilpotent matrix, position-major."""
        coords = self.sc.coords
        encs = mat.encs
        return tuple(c for s in self.slots for c in coords(encs[s]))

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
        """g . x = g x g^dagger for unipotent g and nilpotent x."""
        a = g.nilpotent_part()
        ad = self.dagger(a)
        ax = a * x
        return x + ax + (x + ax) * ad

    # -- u and U ---------------------------------------------------------------

    def _build_u(self):
        cols = []
        for b in self.g_basis_mats:
            img = self.dagger(b) + b  # x^dagger + x must vanish on u
            cols.append(self.flatten(img))
        self.u_space = Subspace.kernel(self.sc, self.flat_dim, transpose(cols))
        self.u_basis = SpaceBasis(self, self.u_space)

    def _build_U(self):
        size = self.sc.size**self.u_basis.dim
        if size > U_SPACE_GUARD and not self.force:
            raise SizeGuardError(f"|U| = {size} exceeds the guard {U_SPACE_GUARD}")
        elems = []
        for coords in self.u_basis.enumerate_coords(force=self.force):
            x = self.u_basis.element(coords)
            u = cayley_inv(x)
            if self.dagger(u) != u.inverse():
                raise AssertionError("Springer preimage left U; involution broken")
            elems.append(u)
        elems.sort(key=lambda m: m.serialize())
        self.U = elems
        self.U_index = {m.serialize(): i for i, m in enumerate(elems)}
        self.order_U = len(elems)
        if self.order_U != size:
            raise AssertionError("|U| disagrees with q^dim(u)")
        self.U_inverse = []
        for m in elems:
            inv = m.inverse()
            key = inv.serialize()
            if key not in self.U_index:
                raise AssertionError("U is not closed under inversion")
            self.U_inverse.append(self.U_index[key])

    # -- Springer morphisms ----------------------------------------------------

    def springer_names(self):
        names = ["cayley"]
        if self.nilpotency <= self.tower.p:
            names.append("log")
        return names

    def springer(self, name: str):
        if name == "cayley":
            return cayley, cayley_inv
        if name == "log":
            if self.nilpotency > self.tower.p:
                raise SpringerUndefinedError(
                    f"truncated logarithm undefined: nilpotency {self.nilpotency} "
                    f"> p = {self.tower.p}"
                )
            bound = self.nilpotency
            return (
                lambda g: trunc_log(g, bound),
                lambda y: trunc_exp(y, bound),
            )
        raise ValueError(f"unknown Springer morphism {name!r}")

    # -- enumeration of G (oracle use only) -------------------------------------

    def enumerate_G(self, force: bool = False):
        if self.order_G > G_SPACE_GUARD and not (force or self.force):
            raise SizeGuardError(f"|G| = {self.order_G} exceeds {G_SPACE_GUARD}")
        encs = [0] * len(slot_index(self.n))
        for combo in itertools.product(range(self.tower.size), repeat=len(self.positions)):
            for s, enc in zip(self.slots, combo):
                encs[s] = enc
            yield TriMatrix.from_encs(self.n, self.tower, encs, unipotent=True)

    # -- functionals -------------------------------------------------------------

    def functional_on_u(self, coeffs) -> Functional:
        return Functional(self.u_basis, coeffs)

    def functional_on_g(self, coeffs) -> Functional:
        return Functional(self.g_basis, coeffs)

    def label(self) -> str:
        return self.spec.label()

    def __repr__(self):
        return f"BuiltGroup({self.label()})"


def build_group(spec: GroupSpec, force: bool = False) -> BuiltGroup:
    return BuiltGroup(spec, force=force)


# -- the lambda -> eta extension and the eta-subalgebras -----------------------


def extend_functional(group: BuiltGroup, lam: Functional) -> Functional:
    """The unique eta on g with eta|_u = lambda and eta(x^dagger) = -eta(x);
    concretely eta(x) = (1/2) lambda(x - x^dagger)."""
    if lam.basis is not group.u_basis:
        raise ShapeError("expected a functional on u")
    half = group.tower.inv_enc(2)
    sc = group.sc
    coeffs = []
    for b in group.g_basis_mats:
        w = b - group.dagger(b)
        coeffs.append(sc.mul(half, lam.evaluate(w)))
    eta = group.functional_on_g(coeffs)
    return eta


def sub_l_r_g(group: BuiltGroup, eta: Functional):
    """The subalgebras l_eta, r_eta and g_eta = l_eta ∩ r_eta.

    l_eta kills eta(y x) for y in h; r_eta kills eta(x y) for y in
    h^dagger; both are solved as kernels of bilinear-form rows.
    """
    if eta.basis is not group.g_basis:
        raise ShapeError("expected a functional on g")
    # g's basis is the standard one, so a matrix's coordinates against it
    # are its flat form, and eta(x) is a dot product with flatten(x)
    dot, flatten, coeffs = group.sc.dot, group.flatten, eta.coeffs
    left_rows = []
    right_rows = []
    for y in group.h_basis.matrices:
        yd = group.dagger(y)
        left_rows.append(tuple(dot(coeffs, flatten(y * b)) for b in group.g_basis_mats))
        right_rows.append(tuple(dot(coeffs, flatten(b * yd)) for b in group.g_basis_mats))

    def _solve(rows):
        # rows constrain coefficient vectors against g_basis_mats, which are
        # exactly the flat coordinates
        return Subspace.kernel(group.sc, group.flat_dim, rows) if rows else group.g_space

    l_space = _solve(left_rows)
    r_space = _solve(right_rows)
    g_space = _solve(left_rows + right_rows)
    return (
        SpaceBasis(group, l_space),
        SpaceBasis(group, r_space),
        SpaceBasis(group, g_space),
    )


def stabilizer_subgroup(group: BuiltGroup, g_eta: SpaceBasis):
    """U_lambda = U ∩ (1 + g_eta), as a sub-list of U's element list."""
    out = []
    for u in group.U:
        if g_eta.contains(u.nilpotent_part()):
            out.append(u)
    return out


def h_u_product_order(group: BuiltGroup) -> int:
    """|H U| computed from |H| |U| / |H ∩ U|; equals |G| when G = HU."""
    hu = [u for u in group.U if group.in_h(u)]
    return group.order_H * group.order_U // len(hu)
