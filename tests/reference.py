"""Reference implementations the tests compare the library against: the
interpreted per-slot and per-column loops that the generated kernels
replaced, functional evaluation on coefficient tuples, the per-product
extension and eta-subalgebras l_eta, r_eta and g_eta, the oracle's
per-row additivity check and per-step walk defects, the direct orbit
sums and the exponent vectors that the histogram kernel replaced,
brute-force orbit and subgroup oracles, and the Hermitian inner product
of class functions."""

import operator

from superchar.cyclotomic import CycloRational, CycloValue
from superchar.linalg import Subspace, combine
from superchar.orbits import closure_of, g_left_matrix
from superchar.sct import _generator_walk
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
    maps = bg.cached(
        "reference_g_left_maps",
        lambda: [map_from_matrix(g_left_matrix(bg, g), bg.sc) for g in bg.G_gens],
    )
    return closure_of(flat, maps)


def full_sweep_orbit_u(bg, coords) -> frozenset:
    """{g . x : g in G} by enumerating all of G; the generator-sufficiency
    oracle for the orbit walks."""
    x = bg.u_basis.element(coords)
    return frozenset(bg.u_space.coords(bg.flatten(bg.act(g, x))) for g in bg.enumerate_G())


def stabilizer_subgroup(group, g_eta):
    """U_lambda = U ∩ (1 + g_eta), as a sub-list of U's element list, for
    the subspace g_eta of g."""
    return [u for u in group.U if g_eta.contains(group.flatten(u.nilpotent_part()))]


def rref(rows, sc):
    """Reduced row echelon form through the field's mul, sub and inv calls,
    one call per entry."""
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = sc.inv(rows[r][c])
        rows[r] = [sc.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [sc.sub(x, sc.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows[:r]], pivots


def evaluate(basis, coeffs, mat) -> int:
    """The functional with coefficient tuple ``coeffs`` against a
    SpaceBasis, at a matrix of its span: the dot product of the
    coefficients with the matrix's coordinates against the basis."""
    coords = basis.coords(mat)
    assert coords is not None, "argument lies outside the functional's domain"
    return basis.group.sc.dot(coeffs, coords)


def extend_functional(group, lam):
    """The coefficients of eta against g's basis, from those of lambda
    against u's: eta(b) = (1/2) lambda(b - b^dagger) for each matrix b of
    g's basis, one evaluation of lambda per basis matrix."""
    half = group.tower.inv_enc(2)
    return tuple(
        group.sc.mul(half, evaluate(group.u_basis, lam, b - group.dagger(b)))
        for b in group.g_basis_mats
    )


def sub_l_r_g(group, eta):
    """The subspaces (l_eta, r_eta, g_eta) of g for eta's coefficients,
    from the rows eta(y b) and eta(b y^dagger), one product and one dot
    product per y in h's basis and b in g's, each subspace solved on its
    own."""
    dot, flatten = group.sc.dot, group.flatten
    left_rows, right_rows = [], []
    for y in group.h_basis.matrices:
        yd = group.dagger(y)
        left_rows.append(tuple(dot(eta, flatten(y * b)) for b in group.g_basis_mats))
        right_rows.append(tuple(dot(eta, flatten(b * yd)) for b in group.g_basis_mats))

    def solve(rows):
        return Subspace.kernel(group.sc, group.flat_dim, rows) if rows else group.g_space

    return tuple(solve(rows) for rows in (left_rows, right_rows, left_rows + right_rows))


def algebra_l_lam(bg, lam):
    """l_lam = {x : lam(y x) = 0 for every y in g}, one product and one
    dot product per pair of basis matrices."""
    rows = [
        tuple(bg.sc.dot(lam, bg.flatten(y * b)) for b in bg.g_basis_mats)
        for y in bg.g_basis_mats
    ]
    return Subspace.kernel(bg.sc, bg.flat_dim, rows)


def additive_along_walk(rec, members, lam, theta) -> bool:
    """Whether phi = theta∘lam∘f on the members S has phi(1) = 0 and
    phi(r t) = phi(r) + phi(t) at every step of the generator walk over
    S: the oracle's check, made row by row."""
    p = rec.group.tower.p
    phi = {i: theta.exponent(rec.group.sc.dot(lam, rec.points[i])) for i in members}
    gens, reached, right = _generator_walk(rec, members)
    return not phi[0] and all(
        phi[k] == (phi[r] + phi[t]) % p for t, row in zip(gens, right) for r, k in zip(reached, row)
    )


def walk_defects(rec, members) -> set:
    """f(1) and f(r t) - f(r) - f(t) at every step r -> r t of the
    generator walk over the members S, one step at a time with the
    scalar field's subtraction."""
    sub, points = rec.group.sc.sub, rec.points
    gens, reached, right = _generator_walk(rec, members)
    return {points[0]} | {
        tuple(sub(sub(a, b), c) for a, b, c in zip(points[k], points[r], points[t]))
        for t, row in zip(gens, right)
        for r, k in zip(reached, row)
    }


def orbit_sum_values(p, members, points, dot, theta_exp):
    """sum over mu in members of theta(mu(x)), for each x in points."""
    out = []
    for x in points:
        counts = [0] * p
        for mu in members:
            counts[theta_exp(dot(mu, x))] += 1
        out.append(CycloValue.from_exponents(p, counts))
    return out


def exponent_vector(x, elements, theta, p):
    """theta(mu . x) as an exponent, for every mu in
    product(elements, repeat=len(x)) in that order.  mu . x is additive in
    mu, so the vector grows one coordinate at a time: each prefix value v
    is followed by v + theta(c x_i) for every scalar c."""
    mul = theta.subfield.tower.mul_table
    vec = [0]
    for xi in x:
        digit = [theta.exponent(mul[c][xi]) for c in elements]
        shifted = [[(v + e) % p for e in digit] for v in range(p)]
        vec = [a for v in vec for a in shifted[v]]
    return vec


def gather(ids):
    """vec -> the tuple of vec[i] for i in ids, also for a single id."""
    if len(ids) == 1:
        (i,) = ids
        return lambda vec: (vec[i],)
    return operator.itemgetter(*ids)


def product_order_histograms(segments, coeffs, theta):
    """The counts of each exponent of theta(coeffs . x) over each segment
    of points, read through gathers off ``exponent_vector`` at the
    points' positions in the product order of the scalar field."""
    sc, p = theta.subfield, theta.p
    position = {a: i for i, a in enumerate(sc.elements)}
    vec = exponent_vector(coeffs, sc.elements, theta, p)

    def where(x):
        i = 0
        for a in x:
            i = i * sc.size + position[a]
        return i

    return [
        tuple(gather([where(x) for x in seg])(vec).count(v) for v in range(p)) for seg in segments
    ]


def direct_histograms(segments, coeffs, theta):
    """The same counts, one dot product per point."""
    dot, p = theta.subfield.dot, theta.p
    return [
        tuple(sum(theta.exponent(dot(coeffs, x)) == v for x in seg) for v in range(p))
        for seg in segments
    ]


def inner_product(f, g, group_order: int) -> CycloRational:
    """Hermitian inner product (1/|U|) sum over classes |K| f(K) conj(g(K)).

    Both functions are given as parallel (value, class size) sequences over
    a common class partition; the sizes must sum to the group order.
    """
    f = list(f)
    g = list(g)
    if len(f) != len(g):
        raise ValueError("class functions live on different partitions")
    total = 0
    acc = None
    for (fv, fs), (gv, gs) in zip(f, g):
        if fs != gs:
            raise ValueError("class sizes disagree between the two functions")
        total += fs
        term = fv * gv.conjugate() * fs
        acc = term if acc is None else acc + term
    if total != group_order:
        raise ValueError(f"class sizes sum to {total}, expected {group_order}")
    if acc is None:
        raise ValueError("empty class partition")
    return CycloRational(acc, group_order)
