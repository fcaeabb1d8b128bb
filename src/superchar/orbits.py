"""Orbit enumeration for the group actions in play.

The engine works on coordinate tuples over the scalar field: each
generator's action is linear, so it is applied as its matrix compiled
to straight-line code (``triangular.linear_kernel``), once per group by
``walk_moves``, which drops the maps that act as the identity and the
repeats.  Each orbit is the BFS closure of one point under those maps
(``closure_of``), started at the least point not yet in an orbit, so
every partition numbers its orbits by their least members.
The walks close under ``BuiltGroup.G_walk`` and ``H_walk``, the root
elements at positions that no intermediate index splits (for G, the
covering relations of the poset); commutators give every other root
element (``involution_group.walk_generators``), so the orbits are those
of the whole group.  For the full chain, a two-sided orbit on g is also
named without any enumeration, by its quasi-monomial normal form
(``two_sided_canonical``).
"""

from __future__ import annotations

import functools

from .errors import VerificationError
from .involution_group import BuiltGroup
from .linalg import Subspace, combine, transpose
from .record import Record
from .triangular import TriMatrix, linear_kernel, slot_index


class Orbit(Record):
    orbit_id: int
    rep: tuple  # the least member
    members: list  # point ids, ascending
    size: int


class OrbitIndex:
    """A partition of an enumerated space into orbits, numbered by each
    orbit's least member in space order.  ``space`` and ``index`` are the
    group's shared (points, index) pair, and ``maps`` the maps whose walks
    found the orbits."""

    def __init__(self, points, orbits, orbit_of, maps):
        self.space, self.index = points
        self.orbits = orbits
        self.orbit_of = orbit_of
        self.maps = maps

    @property
    def count(self) -> int:
        return len(self.orbits)

    def orbit_id(self, vec) -> int:
        return self.orbit_of[self.index[vec]]


def closure_of(start, maps) -> frozenset:
    """BFS closure of a single hashable point under a family of self-maps;
    the one orbit walk, behind every orbit partition and conjugacy class."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for mp in maps:
                w = mp(v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def partition_space(points, maps) -> OrbitIndex:
    """Partition the space of ``points``, a (list, index) pair such as
    ``BuiltGroup.u_points``, into orbits of the group generated by ``maps``.

    The least point not yet labelled starts one ``closure_of`` walk, whose
    members are its orbit: every map is a bijection of a finite set, and
    generators of finite order close the group.  So each orbit is numbered
    as it is found, by its least member, which is its rep.  A member
    outside the space raises VerificationError.
    """
    space, index = points
    orbit_of = [-1] * len(space)
    orbits = []
    for start, v in enumerate(space):
        if orbit_of[start] < 0:
            members = []
            for w in closure_of(v, maps):
                i = index.get(w)
                if i is None:
                    raise VerificationError("generator image left the space")
                orbit_of[i] = len(orbits)
                members.append(i)
            members.sort()
            orbits.append(Orbit(len(orbits), v, members, len(members)))
    return OrbitIndex(points, orbits, orbit_of, maps)


# -- matrices of the linear actions ---------------------------------------


def u_action_matrix(bg: BuiltGroup, g: TriMatrix):
    """Matrix (over the scalar field) of x -> g x g^dagger on u."""
    cols = []
    for b in bg.u_basis.matrices:
        img = bg.act(g, b)
        coords = bg.u_space.coords(bg.flatten(img))
        if coords is None:
            raise VerificationError("the dagger action left u")
        cols.append(coords)
    return transpose(cols)


def g_left_matrix(bg: BuiltGroup, g: TriMatrix):
    """Matrix of x -> g x on the flat coordinates of g."""
    a = g.nilpotent_part()
    cols = [bg.flatten(b + a * b) for b in bg.g_basis_mats]
    return transpose(cols)


def g_right_matrix(bg: BuiltGroup, g: TriMatrix):
    a = g.nilpotent_part()
    cols = [bg.flatten(b + b * a) for b in bg.g_basis_mats]
    return transpose(cols)


_MATRIX_FNS = {"u": u_action_matrix, "left": g_left_matrix, "right": g_right_matrix}


def walk_moves(bg: BuiltGroup, gens, actions, dual=False):
    """The compiled maps of an orbit walk, made once per group: for each
    action in ``actions`` ("u" for x -> g x g^dagger on u, "left" and
    "right" for x -> g x and x -> x g on g), the matrix P of each
    generator in ``gens`` (``bg.G_walk`` or ``bg.H_walk``) as a linear
    kernel on coordinate tuples.  With ``dual`` each map is mu -> P^T mu
    instead, so (P^T mu) . x = mu . (P x): the dual action
    (g mu)(x) = mu(g^-1 x) of g^-1, and the inverses of a generating set
    generate the same group.  The identities are dropped before they are
    compiled and the repeats after, which leaves the generated group, so every walk, whole-space or
    single orbit, finds the same orbits with fewer map calls."""
    key = ("walk moves", tuple(g.encs for g in gens), tuple(actions), dual)

    def build():
        mats = [_MATRIX_FNS[a](bg, g) for a in actions for g in gens]
        if dual:
            mats = [transpose(M) for M in mats]
        mats = [M for M in mats if not _is_identity(M)]
        # equal matrices share one kernel, so dict.fromkeys drops repeats
        return list(dict.fromkeys(linear_kernel(bg.tower, M, len(M)) for M in mats))

    return bg.cached(key, build)


def _is_identity(matrix) -> bool:
    """Whether a square matrix of encodings is the identity (1 encodes one)."""
    return all(a == (i == j) for i, row in enumerate(matrix) for j, a in enumerate(row))


# -- the orbit partitions and single orbits ---------------------------------------


def orbit_partition_u(bg: BuiltGroup) -> OrbitIndex:
    """Orbits of G acting by g . x = g x g^dagger on the enumerated u."""
    maps = walk_moves(bg, bg.G_walk, ["u"])
    return bg.cached("u", lambda: partition_space(bg.u_points, maps))


def orbit_partition_dual(bg: BuiltGroup) -> OrbitIndex:
    """Orbits of G on the full dual space of u; (g.lam)(x) = lam(g^{-1}.x)."""
    maps = walk_moves(bg, bg.G_walk, ["u"], dual=True)
    return bg.cached("dual", lambda: partition_space(bg.u_points, maps))


def h_orbit_partition_dual(bg: BuiltGroup) -> OrbitIndex:
    """The same dual space partitioned by the normal subgroup H."""
    maps = walk_moves(bg, bg.H_walk, ["u"], dual=True)
    return bg.cached("dual_h", lambda: partition_space(bg.u_points, maps))


def h_orbit_of_functional(bg: BuiltGroup, coeffs) -> frozenset:
    """H.lam, the closure of one u* vector under H's ``walk_moves`` (no
    full-space enumeration), walked once per group and lam
    (``bg.cached``): every table, ``verify_structure`` and the degree
    grid read the same walk."""
    return bg.cached(
        ("H orbit", coeffs),
        lambda: closure_of(coeffs, walk_moves(bg, bg.H_walk, ["u"], dual=True)),
    )


def left_orbit_of_g_functional(bg: BuiltGroup, coeffs, gens) -> frozenset:
    """Closure of one g* vector under the left action of the group that
    ``gens`` generate (G or H): (g mu)(x) = mu(g^{-1} x)."""
    return closure_of(coeffs, walk_moves(bg, gens, ["left"], dual=True))


def left_orbit_in_u(bg: BuiltGroup, coords):
    """G x ∩ u for the point x of u with u-coordinates ``coords``, as the
    subspace W of u-coordinates with G x ∩ u = coords + W; None if a
    vector of the meet has no u-coordinates.

    G is a pattern group, so G = 1 + g and G x = {x + a x : a in g} =
    x + g x, where g x = span{b x : b in g_basis_mats} is a subspace of g
    since a -> a x is linear.  As x lies in u, x + w lies in u exactly
    when w does, so G x ∩ u = x + (g x ∩ u).  With r_i a basis of g x and
    c running over the annihilator of u (the kernel of u's rows),
    sum k_i r_i lies in u exactly when sum k_i (c . r_i) = 0 for every c;
    so g x ∩ u is the image of the kernel K of the matrix [c . r_i], and
    W is spanned by the u-coordinates of the images of K's basis.  With
    x = sum_i c_i u_i over u's basis, flat(b x) = sum_i c_i flat(b u_i),
    from one list of products flat(b u_i) made once per group."""
    sc, width = bg.sc, bg.flat_dim
    products = bg.cached(
        "g u products",
        lambda: [[bg.flatten(b * u) for u in bg.u_basis.matrices] for b in bg.g_basis_mats],
    )
    spanning = [combine(bg.tower, rows, coords, width) for rows in products]
    gx = Subspace.from_spanning(sc, width, spanning)
    annihilator = bg.cached(
        "u_annihilator", lambda: Subspace.kernel(sc, width, bg.u_space.rows).rows
    )
    meet = Subspace.kernel(sc, gx.dim, [[sc.dot(c, r) for r in gx.rows] for c in annihilator])
    w = [bg.u_space.coords(gx.combine(k)) for k in meet.rows]
    return None if None in w else Subspace.from_spanning(sc, bg.u_basis.dim, w)


# -- ambient algebra-group orbits ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _slot_grid(n: int):
    """grid[i][j] = the slot of (i, j), for 1 <= i < j <= n."""
    index = slot_index(n)
    return tuple(
        tuple(index.get((i, j)) for j in range(n + 1)) for i in range(n + 1)
    )


def two_sided_canonical(encs, n: int, tower) -> tuple:
    """The slot encodings of the quasi-monomial matrix (at most one nonzero
    entry in each row and column) in the orbit of the nilpotent size-n
    matrix x with slot encodings ``encs`` over ``tower``, under
    x -> g x h^{-1}, g, h in UT_n over the full field.  A group element
    1 + x shares its slot encodings with x, so it stands for x.

    Rows are taken from the last up.  The leftmost nonzero (i, j) of row
    i clears the rest of its row by column operations col_l -= c col_j
    (l > j), then the entries above it in column j by row operations.
    Each row below i already has at most one nonzero, never in column j
    (a pivot clears its column above it), so neither step disturbs them.
    Each orbit holds exactly one quasi-monomial matrix, so the result
    names the orbit."""
    add, mul, neg = tower.add_table, tower.mul_table, tower.neg_table
    grid = _slot_grid(n)
    x = list(encs)
    for i in range(n - 1, 0, -1):
        row = grid[i]
        for j in range(i + 1, n + 1):
            if x[row[j]]:
                break
        else:
            continue
        a_inv = tower.inv_enc(x[row[j]])
        above = [(grid[r], x[grid[r][j]]) for r in range(1, i + 1) if x[grid[r][j]]]
        for l in range(j + 1, n + 1):
            b = x[row[l]]
            if b:
                c = neg[mul[b][a_inv]]
                for r_row, v in above:
                    s = r_row[l]
                    x[s] = add[x[s]][mul[c][v]]
        for r in range(1, i):
            x[grid[r][j]] = 0
    return tuple(x)


def two_sided_orbit_partition_g(bg: BuiltGroup) -> OrbitIndex:
    """Orbits of G x G acting by (g, h) . x = g x h^{-1} on g."""
    maps = walk_moves(bg, bg.G_walk, ["left", "right"])
    return bg.cached("g2", lambda: partition_space(bg.g_points, maps))


def two_sided_orbit_partition_g_dual(bg: BuiltGroup) -> OrbitIndex:
    """Orbits on g* under ((g,h).lam)(x) = lam(g^{-1} x h)."""
    maps = walk_moves(bg, bg.G_walk, ["left", "right"], dual=True)
    return bg.cached("g2_dual", lambda: partition_space(bg.g_points, maps))


def left_orbit_partition_g_dual(bg: BuiltGroup) -> OrbitIndex:
    """Orbits on g* under the left action of G."""
    maps = walk_moves(bg, bg.G_walk, ["left"], dual=True)
    return bg.cached("g_left_dual", lambda: partition_space(bg.g_points, maps))


def orbit_dump_lines(oi: OrbitIndex, key):
    """JSON-lines rendering {"rep": [...], "size": s, "orbit_id": i}, with
    each orbit's least key(point) as its rep, and the orbits numbered in
    the order of those reps."""
    import json

    reps = sorted((min(key(oi.space[i]) for i in o.members), o.size) for o in oi.orbits)
    return [
        json.dumps({"rep": list(rep), "size": size, "orbit_id": i})
        for i, (rep, size) in enumerate(reps)
    ]
