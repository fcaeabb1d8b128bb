"""Reference implementations the tests compare the library against: the
interpreted per-slot and per-column loops that the generated kernels
replaced, and brute-force orbit and subgroup oracles."""

from superchar.linalg import combine
from superchar.orbits import closure_of, g_left_matrix
from superchar.triangular import _layout, slot_index


def _dot_slots(acc, terms, x, y, add, mul) -> int:
    """acc + the sum of x[a] y[b] over the slot pairs (a, b) in terms."""
    for a, b in terms:
        u = x[a]
        if u:
            v = y[b]
            if v:
                acc = add[acc][mul[u][v]]
    return acc


def mul_encs(n, tower, x, y, unipotent):
    """The slot encodings of x y, or of (1+x)(1+y) - 1 for unipotents."""
    add, mul = tower.add_table, tower.mul_table
    return tuple(
        _dot_slots(add[x[s]][y[s]] if unipotent else 0, terms, x, y, add, mul)
        for s, terms in enumerate(_layout(n)[2])
    )


def inverse_encs(n, tower, x):
    """y with 1 + y = (1 + x)^(-1): y = -(x + x y), slot by slot from the
    last row up."""
    add, mul, neg = tower.add_table, tower.mul_table, tower.neg_table
    pairs = _layout(n)[2]
    y = [0] * len(x)
    for s in reversed(range(len(x))):
        y[s] = neg[_dot_slots(x[s], pairs[s], x, y, add, mul)]
    return tuple(y)


def map_from_matrix(M, sc):
    """Apply a linear map by rewriting only the coordinates whose rows
    differ from the identity."""
    dim = len(M)
    deltas = []
    for i, row in enumerate(M):
        if any(row[j] != (sc.one if j == i else sc.zero) for j in range(dim)):
            deltas.append((i, [(j, v) for j, v in enumerate(row) if v]))
    add, mul = sc.tower.add_table, sc.tower.mul_table

    def apply(v):
        out = list(v)
        for i, cols in deltas:
            acc = 0
            for j, a in cols:
                b = v[j]
                if b:
                    acc = add[acc][mul[a][b]]
            out[i] = acc
        return tuple(out)

    return apply


def element_encs(basis, coords):
    """sum c_i b_i over a SpaceBasis's matrices, combined slot by slot."""
    group = basis.group
    rows = [m.encs for m in basis.matrices]
    return combine(group.tower, rows, coords, len(slot_index(group.n)))


def left_orbit_of_g_element(bg, flat) -> frozenset:
    """G x for one element x of g, by BFS under left multiplication by
    every root element; the brute-force reference for ``left_orbit_in_u``."""
    if "reference_g_left_maps" not in bg.cache:
        bg.cache["reference_g_left_maps"] = [
            map_from_matrix(g_left_matrix(bg, g), bg.sc) for g in bg.G_gens
        ]
    return closure_of(flat, bg.cache["reference_g_left_maps"])


def full_sweep_orbit_u(bg, coords) -> frozenset:
    """{g . x : g in G} by enumerating all of G; the generator-sufficiency
    oracle for the orbit walks."""
    x = bg.u_basis.element(coords)
    return frozenset(bg.u_space.coords(bg.flatten(bg.act(g, x))) for g in bg.enumerate_G())


def stabilizer_subgroup(group, g_eta):
    """U_lambda = U ∩ (1 + g_eta), as a sub-list of U's element list."""
    return [u for u in group.U if g_eta.contains(u.nilpotent_part())]
