"""Assembly and verification of the supercharacter theories.

Two theories share every stage here:

* the involution theory on U: superclasses pull the orbit partition of u
  back through a Springer morphism, supercharacters are scaled orbit sums
  over the dual space, with n_lambda = |G.lam| / |H.lam|;
* the algebra-group theory on a pattern group G itself, driven by the
  two-sided orbits on g and g* with f(g) = g - 1 and
  n_lambda = |G lam G| / |G lam|.

A TheoryRecord holds what differs between the two; class assembly, the
rows, the induction oracle and the axiom checks are written once.

Every character value is exact in Z[zeta_p]; any failed division would
falsify the construction and raises immediately.  The verification
entry points return named check results rather than asserting, so the
CLI can render a report and pick an exit code.

Orthogonality and the regular-character sum are checked on packed
integer lanes (``cyclotomic.Lanes``): each distinct cell is lifted once
to p nonnegative raw coefficients, and a row's inner products with every
later row come from one multiply-sum over the classes.  The lane width
is the bit length of a bound read from the table (``_gram_rows``), so
the folded lanes hold the exact sums, and a FAIL detail prints the exact
value.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from collections.abc import Callable
from functools import cached_property

from .cyclotomic import CycloRational, CycloValue, Lanes, conjugate_lift, lift, read_integer
from .errors import NonIntegralityError, SizeGuardError, VerificationError
from .gf import Theta
from .involution_group import (
    BuiltGroup,
    build_group,
    h_u_product_order,
    kernel_in_g,
    sort_paired,
    unsplit_positions,
)
from .linalg import Subspace, combine
from .orbits import (
    closure_of,
    h_orbit_of_functional,
    left_orbit_in_u,
    left_orbit_of_g_functional,
    orbit_partition_dual,
    orbit_partition_u,
    two_sided_canonical,
    two_sided_orbit_partition_g,
    two_sided_orbit_partition_g_dual,
    walk_maps,
)
from .record import Record
from .triangular import (
    MirrorPoset,
    TriMatrix,
    kernel,
    linear_kernel,
    slot_index,
    strict_positions,
)

_ALGEBRA_ENUM_GUARD = 1 << 14
_coeffs = operator.attrgetter("coeffs")


class TheoryRecord(Record):
    """What one supercharacter theory takes from its group, made once per
    group and Springer name by ``_theory_record``.

    ``elements`` is sorted by serialization.  ``points[i]`` = f(elements[i])
    is the vector that dual vectors are dotted with: each point x of the
    primal space is paired with its element f^-1(x) as the two lists are
    built, so only ``verify_structure``'s image check evaluates f.
    ``primal`` and ``dual`` give the orbit partitions of the points and of
    the functionals (one row per orbit); ``stabiliser(bg, lam)`` gives the
    orbit of the one functional lam under the subgroup whose orbit size is
    a row's degree, H.lam (for UT, G lam under the left action).
    ``subgroup(lam)`` is the subspace S of g such that the induction
    oracle's subgroup is {e : e - 1 in S}, solved once per group and lam.
    ``element_data()`` holds flat(e - 1) for every element, and
    ``walk_order()`` the order in which ``_generator_walk`` tries
    generators.  ``_generator_walk`` is
    the one closure check, exhaustive at every size, for the elements
    themselves and for each oracle subgroup.
    ``conjugacy_classes(record)`` partitions the elements over
    ``conjugation_table(record)``, and the oracle evaluates Frobenius's
    formula over those classes.  ``_subgroup_data`` holds what the oracle
    needs of each distinct S: its size and a histogram kernel over its
    points and its walk's defects.
    All of these are built on first use by ``BuiltGroup.cached``, and the
    table path needs none of them.  Every record of a group lists the
    same elements under the same ``symbol``, so only ``_subgroup_data``,
    which reads the points, is kept per Springer name.
    """

    group: BuiltGroup
    springer_name: str
    symbol: str  # how reports name the element set: "U" or "G"
    elements: list
    index: dict  # serialization -> position in ``elements``
    points: list
    primal: Callable
    dual: Callable
    stabiliser: Callable
    subgroup: Callable

    def element_data(self):
        """flat(e - 1) for every element, in element order, made once per
        element set."""
        return self.group.cached(
            ("element data", self.symbol),
            lambda: [self.group.flatten(e.nilpotent_part()) for e in self.elements],
        )

    def walk_order(self):
        """Element ids by weight, ties by id, made once per element set: the
        weight of e is the sum of the heights j - i of the nonzero entries
        of e - 1.  The Frattini subgroup of any group S of these elements is
        generated by commutators and p-th powers, which vanish at height
        1; so light members tend to lie outside it, and a walk that tries
        them first tends to close S on d(S) generators, the fewest there
        are (Burnside's basis theorem), where serialization order picks
        log_p |S|.  The order moves only the walk's cost, not its
        verdict."""

        def build():
            heights = [j - i for i, j in strict_positions(self.group.n)]
            weight = [sum(itertools.compress(heights, e.encs)) for e in self.elements]
            return sorted(range(len(weight)), key=weight.__getitem__)

        return self.group.cached(("walk order", self.symbol), build)


def _theory_record(bg: BuiltGroup, springer_name: str) -> TheoryRecord:
    """The involution theory of U for the named Springer morphism; for the
    UT family, which has no involution, the algebra-group theory of G.
    Made once per group and name."""
    if bg.spec.family == "UT":
        return bg.cached(("record", "g-1"), lambda: _algebra_record(bg))
    return bg.cached(("record", springer_name), lambda: _involution_record(bg, springer_name))


def _involution_record(bg: BuiltGroup, springer_name: str) -> TheoryRecord:
    """U paired with u: cayley's pairing is the one that built U; any other
    map's inverse sends each point of u to an element of U, looked up by
    serialization."""
    if springer_name == "cayley":
        elements, points = bg.cayley_pairing
    else:
        _, inverse = bg.springer(springer_name)
        element, index = bg.u_basis.element, bg.U_index
        elements, points = bg.U, [None] * bg.order_U
        for x in bg.u_points[0]:
            i = index.get(inverse(element(x)).encs)
            # |u| = |U|, so a map into U that hits no element twice hits each once
            if i is None or points[i] is not None:
                raise VerificationError(f"{springer_name}^-1 is not a bijection from u onto U")
            points[i] = x

    def subgroup(lam_coeffs):
        # U_lam = U ∩ (1 + g_eta) for the antisymmetric extension eta of lam;
        # g_eta is solved alone, from the stacked rows of l_eta and r_eta,
        # once per lam for every Springer name
        return bg.cached(
            ("g_eta", lam_coeffs),
            lambda: kernel_in_g(bg, bg.eta_forms(bg.extension_map(lam_coeffs))),
        )

    return TheoryRecord(
        bg,
        springer_name,
        "U",
        elements,
        bg.U_index,
        points,
        primal=orbit_partition_u,
        dual=orbit_partition_dual,
        stabiliser=h_orbit_of_functional,
        subgroup=subgroup,
    )


def _algebra_record(bg: BuiltGroup) -> TheoryRecord:
    """The record of the pattern group G, with f(g) = g - 1: each point x
    of g is paired with 1 + x."""
    if bg.kdim != 1:
        raise ValueError("algebra theory expects a UT-family group over its full field")
    if bg.order_G > _ALGEBRA_ENUM_GUARD and not bg.force:
        raise SizeGuardError(
            f"|G| = {bg.order_G} too large to enumerate for the algebra theory"
        )
    elements, points = sort_paired(list(bg.enumerate_G()), bg.g_points[0])
    index = {m.serialize(): i for i, m in enumerate(elements)}

    def subgroup(lam_coeffs):
        # L_lam = 1 + l_lam with l_lam = {x : lam(y x) = 0 for all y in g}
        return bg.cached(
            ("l_lam", lam_coeffs),
            lambda: Subspace.kernel(bg.sc, bg.flat_dim, bg.g_forms(lam_coeffs)),
        )

    return TheoryRecord(
        bg,
        "g-1",
        "G",
        elements,
        index,
        points,
        primal=two_sided_orbit_partition_g,
        dual=two_sided_orbit_partition_g_dual,
        stabiliser=lambda bg, lam: left_orbit_of_g_functional(bg, lam, bg.G_walk),
        subgroup=subgroup,
    )


class Superclass(Record):
    class_id: int
    rep: TriMatrix
    size: int
    member_ids: list


class SuperclassTable(Record):
    record: TheoryRecord
    classes: list
    class_of: list  # superclass id per element of record.elements

    @property
    def count(self):
        return len(self.classes)

    def partition_sets(self):
        """The classes as sets of element ids, read from ``class_of``."""
        members: dict = {}
        for idx, cid in enumerate(self.class_of):
            members.setdefault(cid, []).append(idx)
        return {frozenset(ids) for ids in members.values()}

    @cached_property
    def rep_conjugacy(self):
        """The conjugacy class id (``conjugacy_classes``) of each class
        rep, read once per table for every row of the induction oracle."""
        rec = self.record
        class_of = conjugacy_classes(rec).class_of
        return [class_of[rec.index[K.rep.serialize()]] for K in self.classes]


class SupercharRow(Record):
    lam: tuple
    orbit_size: int
    h_orbit_size: int  # the stabiliser-orbit size
    n_lambda: int
    degree: int
    values: list


class SupercharTable(Record):
    sc_table: SuperclassTable
    theta: Theta
    rows: list

    @property
    def classes(self):
        return self.sc_table.classes

    @property
    def count(self):
        return len(self.rows)

    def row_value_set(self):
        return sorted(tuple(v.coeffs for v in r.values) for r in self.rows)


def standard_theta(bg: BuiltGroup) -> Theta:
    return Theta.standard(bg.sc)


def alternate_theta(bg: BuiltGroup) -> Theta:
    return Theta.alternate(bg.sc)


def _divexact(value: CycloValue, divisor: int, what: str) -> CycloValue:
    try:
        return value.divexact(divisor)
    except ValueError as exc:
        raise NonIntegralityError(f"{what} is not divisible by {divisor}: {exc}") from exc


# -- superclasses -------------------------------------------------------------


def superclasses(bg: BuiltGroup, springer_name: str) -> SuperclassTable:
    """K_e = {v : f(v) in the primal orbit of f(e)}: the dagger orbits on u
    pulled back through the Springer morphism, or for UT the two-sided
    orbits on g pulled back through g - 1, read off the record's points
    without evaluating f.  Classes are numbered by first occurrence in the
    sorted elements, that is, by their least serialized member, so the
    identity's class comes first."""
    rec = _theory_record(bg, springer_name)
    oi = rec.primal(bg)
    number: dict = {}
    class_of = [number.setdefault(oi.orbit_id(x), len(number)) for x in rec.points]
    if len(number) != oi.count:
        raise VerificationError("the point map is not surjective onto the primal space")
    member_ids = [[] for _ in number]
    for idx, cid in enumerate(class_of):
        member_ids[cid].append(idx)
    classes = [
        Superclass(cid, rec.elements[ids[0]], len(ids), ids) for cid, ids in enumerate(member_ids)
    ]
    if classes[0].rep != TriMatrix.identity(bg.n, bg.tower):
        raise VerificationError("identity superclass is not first")
    return SuperclassTable(rec, classes, class_of)


# -- supercharacters -----------------------------------------------------------


class DigitColumns:
    """The histogram kernel of the rows and of the induction oracle: for
    points x of F_q^m, cut into segments, and a coefficient vector c, the
    counts of each exponent of theta(c . x) over each segment.

    Each coordinate is written in F_p-digits against the basis b_1, ...,
    b_d of the scalar field (``Subfield.prime_digits``): x_i = sum_j
    d_ij b_j.  theta(c . x) has exponent sum_ij d_ij w_ij mod p, with
    w_ij the exponent of theta(b_j c_i), since Tr is F_p-linear.  The
    points are stored once, as m d byte columns: column (i, j) holds d_ij
    of every point.  For each c, column (i, j) is scaled by w_ij through
    ``bytes.translate`` and added as an integer with one byte lane per
    point, so no Python loop runs over the points.  The lanes are folded
    mod p before any of them can pass 255, and each segment's counts are
    read off the folded bytes.  For p > 127 a byte cannot hold a folded
    lane plus one column, and the lanes are a list of ints instead.

    ``differences`` reads the same columns at lists of point ids, and
    gives the distinct differences of the points paired by two lists."""

    def __init__(self, sc, segments):
        self.sc = sc
        self.p = p = sc.tower.p
        self.mul = sc.tower.mul_table
        self.basis, self.digits = sc.prime_digits
        points = [x for seg in segments for x in seg]
        self.n = len(points)
        self.bounds = list(itertools.pairwise(itertools.accumulate(map(len, segments), initial=0)))
        # a folded lane holds up to p - 1, and so does each scaled column
        self.cap = 255 // (p - 1)
        self.pack = tuple if self.cap < 2 else bytes
        self.columns = [
            self.pack(map(digit.__getitem__, coordinate))
            for coordinate in zip(*points)
            for digit in self.digits
        ]
        if self.cap >= 2:
            self.scale = [bytes(d * w % p for d in range(256)) for w in range(p)]
            self.fold = bytes(b % p for b in range(256))
        # the histogram of a one-point segment whose lane reads v
        self.units = [tuple(int(u == v) for u in range(p)) for v in range(p)]

    def histograms(self, coeffs, theta: Theta):
        """[(#x with theta(c . x) = zeta^v, for v in range(p))] per segment."""
        mul, exponent = self.mul, theta.exponent
        weights = [exponent(mul[b][c]) for c in coeffs for b in self.basis]
        lanes = self._lanes(self.n, zip(self.columns, weights))
        units = self.units
        return [
            units[lanes[s]] if e - s == 1 else tuple(map(lanes[s:e].count, range(self.p)))
            for s, e in self.bounds
        ]

    def differences(self, base, others):
        """For each list in ``others``, the set of distinct x_o - x_b over
        the id pairs (o, b) of zip(list, base), as points of F_q^m.  Ids
        number the points in segment order, and every list holds the
        same number of ids, at least two.

        Each digit column is gathered at the ids by one
        ``operator.itemgetter`` and, as lanes, o + (p - 1) b is folded mod
        p (``_lanes``): one pass per digit column and list, with no Python
        loop over the pairs.  One ``set(zip(...))`` then keeps the distinct
        rows of digits, and only those are read back as points."""
        p, d, pick = self.p, len(self.basis), operator.itemgetter(*base)
        negated = [(self.pack(pick(col)), p - 1) for col in self.columns]
        point = {tuple(digit[a] for digit in self.digits): a for a in self.sc.elements}
        found = []
        for ids in others:
            pick = operator.itemgetter(*ids)
            lanes = [
                self._lanes(len(base), [(self.pack(pick(col)), 1), b])
                for col, b in zip(self.columns, negated)
            ]
            found.append(
                {
                    tuple(point[row[i : i + d]] for i in range(0, len(row), d))
                    for row in set(zip(*lanes))
                }
            )
        return found

    def _lanes(self, n, weighted):
        """The n lanes of sum w col over the (col, w) pairs, mod p."""
        p = self.p
        if self.cap < 2:
            lanes = [0] * n
            for col, w in weighted:
                if w:
                    lanes = [(a + d * w) % p for a, d in zip(lanes, col)]
            return lanes
        acc, height = 0, 0  # height: the bound on every lane, in units of p - 1
        for col, w in weighted:
            if w:
                if height == self.cap:
                    acc, height = int.from_bytes(self._folded(acc, n), "little"), 1
                acc += int.from_bytes(col.translate(self.scale[w]), "little")
                height += 1
        return self._folded(acc, n)

    def _folded(self, acc, n):
        """The n byte lanes of acc, each reduced mod p."""
        return acc.to_bytes(n, "little").translate(self.fold)


def _dual_kernel(rec: TheoryRecord) -> DigitColumns:
    """The rows' histogram kernel, with one segment per dual orbit, made
    once per theory: every Springer name and theta reads the same dual
    partition."""
    bg = rec.group

    def build():
        od = rec.dual(bg)
        return DigitColumns(bg.sc, [[od.space[i] for i in o.members] for o in od.orbits])

    return bg.cached(("dual kernel", rec.symbol), build)


def supercharacters(
    bg: BuiltGroup,
    springer_name: str,
    theta: Theta,
    sc_table: SuperclassTable,
) -> SupercharTable:
    """chi_lambda = (1/n_lambda) sum over the dual orbit of lambda of
    theta(mu(f(.))), with n_lambda = |dual orbit| / |stabiliser orbit|,
    for the superclass table ``sc_table`` of the Springer map named
    ``springer_name``.

    The stabiliser orbit is one ``closure_of`` of the row's
    representative lam (``TheoryRecord.stabiliser``).  Its size is the
    same at every member g lam of the dual orbit: H is normal in G, so
    H.(g lam) = g (g^-1 H g).lam = g H.lam; for UT, x -> g x commutes with
    the right action.  ``verify`` checks both sides: H-normal-in-G checks
    the normality, induction-degree compares every row's degree with
    [E : S], and axiom-orthogonality fails on a row scaled by a wrong
    n_lambda.

    The dual space is listed once, in orbit order, as ``DigitColumns``;
    for each class rep x, one call gives the histogram of the exponents
    theta(mu(f(x))) over every dual orbit at once.  Equal cells of equal
    n_lambda share one divided value, made once per table."""
    rec = sc_table.record
    od = rec.dual(bg)
    points = [rec.points[K.member_ids[0]] for K in sc_table.classes]
    p = bg.tower.p
    elements = bg.sc.elements
    dim = len(od.space[0])
    # the rows sum theta(mu . x) over the orbits of all of F_q^dim
    if len(od.space) != len(elements) ** dim or not all(
        map(operator.eq, od.space, itertools.product(elements, repeat=dim))
    ):
        raise VerificationError("the dual space is not the full product space")
    rows = []
    for orbit in od.orbits:
        h_size = len(rec.stabiliser(bg, orbit.rep))
        if orbit.size % h_size:
            raise NonIntegralityError(
                "n_lambda = |dual orbit| / |stabiliser orbit| is not integral"
            )
        # the degree is read off the identity column once all cells are in
        rows.append(SupercharRow(orbit.rep, orbit.size, h_size, orbit.size // h_size, 0, []))
    kernel = _dual_kernel(rec)
    cells: dict = {}  # (n_lambda, counts) -> the divided cell
    for x in points:
        for row, counts in zip(rows, kernel.histograms(x, theta)):
            key = (row.n_lambda, counts)
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = _divexact(
                    CycloValue.from_exponents(p, counts), row.n_lambda, "orbit sum"
                )
            row.values.append(cell)
    for row in rows:
        row.degree = row.values[0].as_integer()
        if row.degree != row.h_orbit_size:
            raise VerificationError("chi(1) != stabiliser-orbit size; orbit bookkeeping broken")
    rows.sort(key=lambda r: r.lam)
    if any(not v == 1 for v in rows[0].values):
        raise VerificationError("the zero functional did not give the trivial character")
    return SupercharTable(sc_table, theta, rows)


def _superclass_table(bg: BuiltGroup, springer_name: str) -> SuperclassTable:
    """The superclass table, built once per group and Springer name."""
    return bg.cached(("classes", springer_name), lambda: superclasses(bg, springer_name))


def theory(bg: BuiltGroup, springer_name: str = "cayley", theta: Theta | None = None):
    """(superclass table, supercharacter table) for the Springer map and
    theta (the standard one by default).  Every table is built here, once
    per group: the superclass table per Springer name, the rows per name
    and theta's multiplier; both are kept by ``bg.cached``, and every check
    that reads them fetches them here.  The tables are shared, so callers
    do not mutate them."""
    theta = theta or standard_theta(bg)
    sct = _superclass_table(bg, springer_name)
    scht = bg.cached(
        ("rows", springer_name, theta.c_enc),
        lambda: supercharacters(bg, springer_name, theta, sc_table=sct),
    )
    return sct, scht


def algebra_group_sct(bg: BuiltGroup, theta: Theta | None = None) -> SupercharTable:
    """The two-sided-orbit supercharacter theory of a pattern group,
    with f(g) = g - 1 and chi_lambda = (|G lam| / |G lam G|) * orbit sum."""
    if bg.spec.family != "UT":
        raise ValueError("algebra theory expects a UT-family group over its full field")
    return theory(bg, theta=theta)[1]


# -- induction oracle -----------------------------------------------------------


def conjugation_index(bg: BuiltGroup, sc_table: SuperclassTable):
    """For each class rep g, the list [index of h g h^{-1} for h in the
    elements]."""
    rec = sc_table.record
    pairs = [(h, h.inverse()) for h in rec.elements]
    return [
        [rec.index[(h * K.rep * h_inv).serialize()] for h, h_inv in pairs]
        for K in sc_table.classes
    ]


def _generator_walk(rec: TheoryRecord, members):
    """(T, reached, right): the generators T that a walk from the identity
    picks from ``members`` (element ids), the members in the order the
    walk reached them, and right[g][i], the id of reached[i] . T[g].
    Made once per element set and member tuple, in the group's cache:
    the records of every Springer name pair the same list U.

    The walk starts from the identity, rec.elements[0] (elements sort by
    serialization), and takes members in ``rec.walk_order()`` until all
    are reached; a member not yet reached becomes a new generator.  Each
    reached r meets each generator t once, earlier generators and later
    ones alike: the product r t must be a member, and joins the reached
    set, so the walk costs |reached| |T| products.  The first product
    outside the members raises VerificationError.

    The walk passes exactly when the members S are closed under
    multiplication.  Every step is one of the |S|^2 pairs, so a closed S
    passes.  If the walk passes, S . T ⊆ S, every member is reached, and
    each reached element is a word t_1 ... t_m in T; so s s' stays in S
    one letter at a time, for any s and s' in S."""
    members = tuple(members)

    def build():
        elements, index = rec.elements, rec.index
        product = kernel(rec.group.tower, "umul", rec.group.n)
        inside = set(members)
        what = rec.symbol if len(inside) == len(elements) else "the oracle's subgroup"
        reached, seen = [0], {0}
        gens, right = [], []
        for s in rec.walk_order():
            if len(reached) == len(inside):
                break
            if s in seen or s not in inside:
                continue
            gens.append(s)
            right.append([])
            while any(len(row) < len(reached) for row in right):
                for t, row in zip(gens, right):
                    t_encs = elements[t].encs
                    while len(row) < len(reached):
                        r = reached[len(row)]
                        k = index.get(product(elements[r].encs, t_encs))
                        if k not in inside:
                            raise VerificationError(f"{what} is not closed under multiplication")
                        row.append(k)
                        if k not in seen:
                            seen.add(k)
                            reached.append(k)
        return gens, reached, right

    return rec.group.cached(("closure walk", rec.symbol, members), build)


def conjugation_table(rec: TheoryRecord):
    """(T, tables): the generators T (element ids) that ``_generator_walk``
    picks over all of the record's elements E, and for each t in T an
    array('i') whose entry i is the id of t^-1 e_i t, made once per
    element set.  The walk proves E a group and records g -> g t, so
    t^-1 g t = ((g t)^-1 t)^-1 takes no product, only each element's
    inverse.  The conjugacy classes and the equivariance check read it."""

    def build():
        elements, index = rec.elements, rec.index
        inverse = kernel(rec.group.tower, "inverse", rec.group.n)
        gens, reached, right = _generator_walk(rec, range(len(elements)))
        inv = [index[inverse(e.encs)] for e in elements]
        tables = []
        for row in right:
            times_t = [0] * len(elements)  # g -> g t, by element id
            for r, k in zip(reached, row):
                times_t[r] = k
            tables.append(array("i", [inv[times_t[inv[k]]] for k in times_t]))
        return gens, tables

    return rec.group.cached(("conjugation", rec.symbol), build)


class ConjugacyClasses(Record):
    class_of: list  # conjugacy class id per element, numbered by least member
    sizes: list


def conjugacy_classes(rec: TheoryRecord) -> ConjugacyClasses:
    """The conjugacy classes of the record's elements E, made once per
    element set: the orbits of E under conjugation by the generators T of
    ``conjugation_table``, read off its index tables (``closure_of``).  E
    is finite and generated by T, so these orbits are the classes of all
    of E.  Each unlabelled id, in order, starts a class, so classes are
    numbered by least member."""

    def build():
        maps = [table.__getitem__ for table in conjugation_table(rec)[1]]
        class_of, sizes = [-1] * len(rec.elements), []
        for start in range(len(class_of)):
            if class_of[start] < 0:
                members = closure_of(start, maps)
                for i in members:
                    class_of[i] = len(sizes)
                sizes.append(len(members))
        return ConjugacyClasses(class_of, sizes)

    return rec.group.cached(("conjugacy", rec.symbol), build)


def _subgroup_data(rec: TheoryRecord, space: Subspace):
    """What the induction oracle needs of S = {e : flat(e - 1) in space},
    whatever the row, made once per Springer name and space, keyed by the
    space's RREF rows: (|S|, class ids, kernel).

    S is found by one compiled map: flat(e - 1) lies in the space exactly
    when the space's annihilator (the kernel of its rows) sends it to 0.
    ``_generator_walk`` then proves S closed (VerificationError if not).
    The kernel is ``DigitColumns`` over the points f(s) of S, one segment
    per conjugacy class (``conjugacy_classes``) that meets S, in the order
    of the class ids, and one last segment: f(1) and the distinct defects
    f(r t) - f(r) - f(t) over the walk's steps r -> r t.  For each
    generator t, ``DigitColumns.differences`` over all of the record's
    points gives the distinct f(r t) - f(r) on whole digit columns, and
    f(t) is subtracted from those alone."""
    bg = rec.group

    def build():
        tower, points = bg.tower, rec.points
        annihilator = Subspace.kernel(bg.sc, space.ambient, space.rows).rows
        test = linear_kernel(tower, annihilator, space.ambient)
        members = [i for i, v in enumerate(map(test, rec.element_data())) if not any(v)]
        gens, reached, right = _generator_walk(rec, members)
        defects = {points[0]}
        if gens:  # S = {1} takes no step
            digits = bg.cached(
                ("point digits", rec.springer_name), lambda: DigitColumns(bg.sc, [points])
            )
            # f(r t) - f(r) over each generator's steps, less f(t)
            for t, found in zip(gens, digits.differences(reached, right)):
                defects.update(tuple(map(tower.sub_enc, x, points[t])) for x in found)
        class_of = conjugacy_classes(rec).class_of
        by_class: dict = {}  # conjugacy class id -> the points of its members in S
        for i in members:
            by_class.setdefault(class_of[i], []).append(points[i])
        kernel = DigitColumns(bg.sc, [*by_class.values(), list(defects)])
        return len(members), list(by_class), kernel

    return bg.cached(("subgroup", rec.springer_name, tuple(space.rows)), build)


def induction_oracle(bg: BuiltGroup, lam_coeffs, theta: Theta, sc_table: SuperclassTable):
    """Ind_S^E(Res theta∘lam∘f), evaluated at every class rep, for the
    record's elements E and its subgroup S for lam: U_lam = U ∩ (1 + g_eta)
    in the involution theory, L_lam = 1 + l_lam in the algebra theory.

    Everything that depends only on S is made once per distinct S by
    ``_subgroup_data``: the members, the closure walk and the defects.
    The restriction phi of theta∘lam∘f to S must be a linear character,
    and a failure is fatal (NonIntegralityError).  theta∘lam is
    additive, so phi(r t) = phi(r) + phi(t) at a walk step holds exactly
    when theta∘lam reads 1 on the step's defect d = f(r t) - f(r) - f(t).
    The row's one kernel call also histograms the last segment, f(1) and
    every distinct defect, and every lane there must read exponent 0.
    That proves phi(s s') = phi(s) + phi(s') on all of S x S: write s' =
    t_1 ... t_m as the walk reached it; then phi(s') = phi(1) + sum
    phi(t_i), and s t_1 ... t_j stays in S with phi growing by phi(t_j)
    at each letter.  f(1) is in the segment because no step covers
    phi(1) = 0 when S = {1}.

    The values come from Frobenius's formula over the conjugacy classes
    of E (``conjugacy_classes``): with phi° = phi on S and 0 off S,

        Ind phi(g) = (1/|S|) sum_{h in E} phi°(h g h^-1)
                   = |E| / (|cl(g)| |S|) sum_{x in cl(g)} phi°(x),

    since h -> h g h^-1 maps E onto cl(g) and each fibre is a coset of the
    centraliser, of size |C_E(g)| = |E| / |cl(g)|.  Every row reads the
    histogram of phi on each conjugacy class of S from that same call,
    over the points of S only.  |E| / |cl(g)| is an integer, so the
    division by
    |cl(g)| |S| is exact exactly when the defining sum is divisible by
    |S|.  Each distinct (histogram, |cl(g)| |S|) is divided once per
    element set, and the reps' conjugacy classes are read once per table
    (``SuperclassTable.rep_conjugacy``).  Returns the values and
    |E| / |S|.
    """
    rec = sc_table.record
    size, cids, kernel = _subgroup_data(rec, rec.subgroup(lam_coeffs))
    p = bg.tower.p
    *hists, vanish = kernel.histograms(lam_coeffs, theta)
    if any(vanish[1:]):
        raise NonIntegralityError(
            "restriction of theta∘lambda∘f to the oracle's subgroup is not multiplicative"
        )
    sizes = conjugacy_classes(rec).sizes
    # conjugacy class id -> counts of each exponent of phi on S
    hist = dict(zip(cids, hists))
    order, absent = len(rec.elements), (0,) * p
    cells = bg.cached(("induced", rec.symbol), dict)
    values = []
    for cid in sc_table.rep_conjugacy:
        key = (hist.get(cid, absent), sizes[cid] * size)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _divexact(
                CycloValue.from_exponents(p, key[0]) * order, key[1], "induced character"
            )
        values.append(cell)
    return values, order // size


# -- named verification checks ----------------------------------------------------


class CheckResult(Record):
    name: str
    passed: bool | None  # None marks an informational (reported) result
    detail: str = ""

    def line(self) -> str:
        tag = "REPORT" if self.passed is None else ("PASS" if self.passed else "FAIL")
        return f"{tag:6s} {self.name}" + (f": {self.detail}" if self.detail else "")


class Report(Record):
    label: str
    results: list = list

    def add(self, name, passed, detail=""):
        self.results.append(CheckResult(name, passed, detail))

    def extend(self, results):
        self.results.extend(results)

    @property
    def ok(self) -> bool:
        return all(r.passed is not False for r in self.results)

    def lines(self):
        out = [f"== {self.label}"]
        out.extend(r.line() for r in self.results)
        return out


def _conjugation_closure_check(bg, sct: SuperclassTable) -> CheckResult:
    """Each superclass must be a union of conjugacy classes: every
    conjugacy class (``conjugacy_classes``) lies in one superclass."""
    cc = conjugacy_classes(sct.record)
    superclass_of: dict = {}  # conjugacy class id -> superclass of its first member
    for cid, k in zip(cc.class_of, sct.class_of):
        first = superclass_of.setdefault(cid, k)
        if first != k:
            return CheckResult(
                "superclasses-union-of-conjugacy",
                False,
                f"conjugacy class {cid} meets superclasses {first} and {k}",
            )
    return CheckResult("superclasses-union-of-conjugacy", True, "exhaustive")


def _constancy_check(bg, scht: SupercharTable, sct: SuperclassTable) -> CheckResult:
    """Each row must be constant on every superclass, with the values the
    table holds.  The primal walk closes under the maps P of
    ``orbits.walk_maps`` and the dual walk under their transposes,
    ``od.maps``.  An orbit sum s_O(x) = sum_{mu in O} theta(mu . x) has
    s_O(P x) = s_{P^T O}(x); so if every P^T maps every dual orbit onto
    itself, which takes |dual space| |T| map calls, each s_O is constant
    on the primal orbits, whose preimages under f are the superclasses.
    Then every cell is read again at the last member of its class, and
    compared with n_lambda times the table's value without dividing, so
    that a wrong n_lambda fails the check rather than raising; each
    distinct (n_lambda, histogram, value) is compared once."""
    rec = sct.record
    od = rec.dual(bg)
    orbit_of = od.orbit_of
    # the rows sum over the member lists, which must be the orbits of orbit_of
    stray = [o.orbit_id for o in od.orbits if any(orbit_of[i] != o.orbit_id for i in o.members)]
    for mp in od.maps:
        stray += [a for a, mu in zip(orbit_of, od.space) if orbit_of[od.index[mp(mu)]] != a]
    if stray:
        return CheckResult("axiom-constancy", False, f"dual orbit {min(stray)} is not invariant")
    kernel, p = _dual_kernel(rec), bg.tower.p
    by_orbit = {od.orbit_id(row.lam): row for row in scht.rows}
    rows = [by_orbit.get(orbit.orbit_id) for orbit in od.orbits]
    if None in rows:
        orbit = od.orbits[rows.index(None)]
        return CheckResult("axiom-constancy", False, f"dual orbit {orbit.orbit_id} has no row")
    same: dict = {}  # (n_lambda, counts, value's coefficients) -> equal?
    for K in sct.classes:
        hists = kernel.histograms(rec.points[K.member_ids[-1]], scht.theta)
        for row, counts in zip(rows, hists):
            value = row.values[K.class_id]
            key = (row.n_lambda, counts, value.coeffs)
            if key not in same:
                same[key] = CycloValue.from_exponents(p, counts) == value * row.n_lambda
            if not same[key]:
                return CheckResult(
                    "axiom-constancy",
                    False,
                    f"row {row.lam} is not constant on class {K.class_id}",
                )
    return CheckResult("axiom-constancy", True, "exhaustive")


def _lifts(scht: SupercharTable) -> dict:
    """Every distinct cell of the table, by coefficients, as its lift
    (``cyclotomic.lift``): each is lifted once."""
    values = list(itertools.chain.from_iterable(row.values for row in scht.rows))
    return {c: lift(v) for c, v in dict(zip(map(_coeffs, values), values)).items()}


def _gram_rows(p: int, scht: SupercharTable):
    """(lanes, acc) for each row a in turn, where slot j of acc holds the
    raw lanes of |E| <chi_a, chi_b> = sum_K |K| chi_a(K) conj(chi_b(K))
    for b = a + j, every row b >= a (``cyclotomic.Lanes``).

    Each class K packs the lifted conjugates of every row's cell at K,
    row b at slot b, into one column, and each row a takes one
    multiply-sum: |K| times a's packed cell at K times K's column, summed
    over the classes.  The columns then drop their first slot, so row
    a + 1 starts at slot 0.  Lane k of a slot sums |K| r_i r'_j over
    i + j = k, at most sum_K |K| (sum_i r_i) max_j r'_j; so sum_K |K|
    times the largest lane sum of a lifted cell times its largest lane
    bounds every lane, folded or not."""
    sizes = [K.size for K in scht.classes]
    lifts = _lifts(scht)
    bound = sum(sizes) * max(map(sum, lifts.values())) * max(map(max, lifts.values()))
    lanes = Lanes(p, bound, 2 * p - 1)
    packed = {c: lanes.pack(raw) for c, raw in lifts.items()}
    conj = {
        c: lanes.pack(conjugate_lift(raw)).to_bytes(lanes.slot, "little")
        for c, raw in lifts.items()
    }
    columns = [
        int.from_bytes(b"".join(map(conj.__getitem__, map(_coeffs, column))), "little")
        for column in zip(*(row.values for row in scht.rows))
    ]
    for row in scht.rows:
        weighted = map(operator.mul, sizes, map(packed.__getitem__, map(_coeffs, row.values)))
        yield lanes, sum(map(operator.mul, weighted, columns))
        columns = [c >> (8 * lanes.slot) for c in columns]


def _orthogonality_check(bg, scht: SupercharTable) -> CheckResult:
    """<chi_a, chi_b> = (1/|E|) sum_K |K| chi_a(K) conj(chi_b(K)) for every
    pair of rows, exactly, on the packed lanes of ``_gram_rows``: row a's
    norm, read from slot 0, must be a positive integer, and every later
    slot must fold to 0, read for all of them at once by
    ``Lanes.nonzero``.  The first failing pair is reported with the exact
    inner product that its slot holds."""
    order = len(scht.sc_table.record.elements)
    for a, (lanes, acc) in enumerate(_gram_rows(bg.tower.p, scht)):
        norm = read_integer(lanes.unpack(acc))
        if norm is None or norm <= 0 or norm % order:
            ip = CycloRational(lanes.value(acc), order)
            return CheckResult(
                "axiom-orthogonality",
                False,
                f"<chi,chi> not a positive integer for row {a}: {ip!r}",
            )
        slot = 8 * lanes.slot
        later = lanes.nonzero(acc, len(scht.rows)) >> slot
        if later:
            j = ((later & -later).bit_length() - 1) // slot + 1
            ip = CycloRational(lanes.value(acc, j), order)
            return CheckResult(
                "axiom-orthogonality", False, f"rows {a},{a + j} not orthogonal: {ip!r}"
            )
    return CheckResult("axiom-orthogonality", True, f"{len(scht.rows)} rows, exact")


def _regular_sums(p: int, scht: SupercharTable):
    """(lanes, acc) for each class K in turn, where acc holds the lanes
    of sum_lambda n_lambda chi_lambda(K): one multiply-sum of n_lambda
    times each row's packed cell at K.  With every n_lambda at least 1,
    sum n_lambda times the largest lane of a lifted cell bounds the
    lanes."""
    ns = [row.n_lambda for row in scht.rows]
    lifts = _lifts(scht)
    lanes = Lanes(p, sum(ns) * max(map(max, lifts.values())), p)
    packed = {c: lanes.pack(raw) for c, raw in lifts.items()}
    for column in zip(*(row.values for row in scht.rows)):
        yield lanes, sum(map(operator.mul, ns, map(packed.__getitem__, map(_coeffs, column))))


def _regular_character_check(bg, scht: SupercharTable) -> CheckResult:
    """sum_lambda n_lambda chi_lambda is the regular character: |E| at
    the identity's class and 0 at every other, read off the lanes of
    ``_regular_sums``; a failing class is reported with its exact sum."""
    order = len(scht.sc_table.record.elements)
    low = next((row for row in scht.rows if row.n_lambda < 1), None)
    if low is not None:
        return CheckResult(
            "axiom-regular-sum", False, f"n_lambda = {low.n_lambda} for row {low.lam}"
        )
    for cid, (lanes, acc) in enumerate(_regular_sums(bg.tower.p, scht)):
        expect = order if cid == 0 else 0
        if read_integer(lanes.unpack(acc)) != expect:
            return CheckResult(
                "axiom-regular-sum",
                False,
                f"sum n_lambda chi_lambda = {lanes.value(acc)!r} at class {cid}, expected {expect}",
            )
    return CheckResult("axiom-regular-sum", True, "exact")


def verify_axioms(bg, sct: SuperclassTable, scht: SupercharTable) -> Report:
    """The supercharacter-theory axioms, via executable criteria:
    counts match; constancy; exact orthogonality; the scaled rows sum to
    the regular character.  Together with the induction identity these
    pin every irreducible constituent to exactly one row."""
    rep = Report(f"axioms {bg.label()}")
    rep.add(
        "axiom-count",
        sct.count == scht.count,
        f"|X| = {scht.count}, |K| = {sct.count}",
    )
    order = len(sct.record.elements)
    sizes_ok = sum(K.size for K in sct.classes) == order
    rep.add("superclasses-partition", sizes_ok, f"sizes sum to |{sct.record.symbol}| = {order}")
    rep.results.append(_conjugation_closure_check(bg, sct))
    rep.results.append(_constancy_check(bg, scht, sct))
    rep.results.append(_orthogonality_check(bg, scht))
    rep.results.append(_regular_character_check(bg, scht))
    return rep


def verify_induction(bg, sct, scht) -> Report:
    """Exact equality of every row with its induced character."""
    rep = Report(f"induction {bg.label()}")
    for row in scht.rows:
        values, degree = induction_oracle(bg, row.lam, scht.theta, sct)
        if degree != row.degree:
            rep.add("induction-degree", False, f"row {row.lam}: {degree} != {row.degree}")
            return rep
        if list(map(_coeffs, values)) != list(map(_coeffs, row.values)):
            rep.add("induction-values", False, f"row {row.lam} differs from Ind")
            return rep
    rep.add("induction-identity", True, f"{len(scht.rows)} rows, exact")
    return rep


def verify_algebra_axioms(bg, th: SupercharTable, with_induction: bool = True) -> Report:
    """verify_axioms, then verify_induction, on an algebra_group_sct table."""
    rep = verify_axioms(bg, th.sc_table, th)
    if with_induction:
        rep.extend(verify_induction(bg, th.sc_table, th).results)
    return rep


def verify_duality(bg) -> Report:
    rep = Report(f"orbit duality {bg.label()}")
    oi = orbit_partition_u(bg)
    od = orbit_partition_dual(bg)
    rep.add(
        "orbit-count-duality",
        oi.count == od.count,
        f"primal {oi.count}, dual {od.count}",
    )
    return rep


def verify_springer_independence(bg) -> Report:
    """Identical tables, for the standard theta, under the Cayley map and
    the truncated logarithm; each table comes from ``theory``."""
    rep = Report(f"springer independence {bg.label()}")
    if "log" not in bg.springer_names():
        rep.add("springer-independence", None, "trunc_log undefined here; skipped")
        return rep
    sct_c, scht_c = theory(bg, "cayley")
    sct_l, scht_l = theory(bg, "log")
    same_partition = sct_c.partition_sets() == sct_l.partition_sets()
    rep.add("springer-partition", same_partition, "superclass partitions equal")
    same_rows = [r.values for r in scht_c.rows] == [r.values for r in scht_l.rows]
    rep.add("springer-rows", same_rows, "tables cell-identical")
    return rep


def verify_theta_independence(bg, springer_name: str = "cayley") -> Report:
    """The character SET must not depend on the choice of theta: the rows
    for the standard and the alternate theta, each from ``theory``."""
    rep = Report(f"theta independence {bg.label()}")
    _, scht_std = theory(bg, springer_name, standard_theta(bg))
    _, scht_alt = theory(bg, springer_name, alternate_theta(bg))
    same_set = scht_std.row_value_set() == scht_alt.row_value_set()
    identical = [r.values for r in scht_std.rows] == [r.values for r in scht_alt.rows]
    rep.add("theta-row-set", same_set, "row sets equal up to permutation")
    rep.add(
        "theta-permuted",
        None,
        "rows literally identical" if identical else "rows permuted, as expected",
    )
    return rep


# -- intersection with the ambient theory ---------------------------------------------


def ambient_group(bg: BuiltGroup) -> BuiltGroup:
    """The pattern group of bg's spec viewed as an algebra group over its
    full coefficient field, made once per group."""
    spec = bg.spec.replace(family="UT", scalar_degree=bg.tower.degree)
    return bg.cached("ambient", lambda: build_group(spec, force=bg.force))


def intersection_check(bg: BuiltGroup, springer_name: str = "cayley") -> Report:
    """Superclasses of U are exactly the nonempty U ∩ K_g for ambient
    superclasses K_g of the pattern group.  It reads the superclass table
    that ``theory`` keeps, and builds no rows.

    K_g is the two-sided orbit of g - 1.  On the full chain it is named by
    its quasi-monomial normal form (``two_sided_canonical``), |U|
    reductions and no ambient group; for any other poset no normal form
    is known, and the orbits come from the scan of the ambient g."""
    rep = Report(f"intersection {bg.label()}")
    if bg.poset == MirrorPoset.chain(bg.n):
        ambient_key = two_sided_canonical
    else:
        amb = ambient_group(bg)
        o2 = two_sided_orbit_partition_g(amb)
        ambient_key = lambda x: o2.orbit_id(amb.flatten(x))
    sct = _superclass_table(bg, springer_name)
    by_ambient: dict = {}
    for idx, u in enumerate(bg.U):
        by_ambient.setdefault(ambient_key(u.nilpotent_part()), []).append(idx)
    ours = sct.partition_sets()
    theirs = {frozenset(ids) for ids in by_ambient.values()}
    if ours == theirs:
        rep.add("intersection-partition", True, f"{len(ours)} classes")
    else:
        only_ours = ours - theirs
        rep.add(
            "intersection-partition",
            False,
            f"{len(only_ours)} superclasses not of the form U ∩ K_g",
        )
    return rep


# -- structural lemmas -------------------------------------------------------------


def _star(bg: BuiltGroup, y: TriMatrix, x: TriMatrix) -> TriMatrix:
    """The auxiliary left action y * x = y x + x y^dagger."""
    return y * x + x * bg.dagger(y)


def verify_structure(bg: BuiltGroup) -> Report:
    """The structural lemmas behind the construction, as executable
    checks: bracket closure of u, the action/conjugation agreement, the
    H-action linearization, G = HU, ideal/normality of h and H, the
    Springer conditions, and the functional-extension properties.  Each
    is exhaustive: on basis pairs, on all of U, or on generators where
    both sides are actions of U and linear.  T is the generating set of
    ``conjugation_table``: t x t^dagger = t x t^-1 is checked on T x
    u's basis, and f(t^-1 g t) = t^-1 . f(g) on T x U, read off the
    pairing.

    ``springer-{name}-image`` is the one pass of f over all of U: it
    checks f(e) = x for every element e and its paired point x in the
    theory record that every table is built from.  The same pass checks
    that x and e - 1 agree at every unsplit position: the products of g
    span the matrices that vanish there, so f(e) - (e - 1) has degree
    >= 2 (``springer-{name}-leading-term``).  The extension checks run on
    every dual-orbit representative.

    ``left-multiplication-collapse`` checks, for every u-orbit rep x,
    that each point of G x ∩ u lies in the dagger orbit of x.  It visits
    only those points, in u-coordinates: ``left_orbit_in_u`` solves
    G x ∩ u = x + W once per rep, and a meet vector without u-coordinates
    fails the check."""
    rep = Report(f"structure {bg.label()}")
    ub, sc, tower = bg.u_basis.matrices, bg.sc, bg.tower

    ok = all(
        bg.u_space.contains(bg.flatten(x * y - y * x))
        for x in ub
        for y in ub
    )
    rep.add("u-lie-closed", ok, "exhaustive on basis pairs")

    base = _theory_record(bg, "cayley")
    gen_ids, tables = conjugation_table(base)
    gens = [base.elements[t] for t in gen_ids]
    # 1 + t x t^dagger against t (1 + x) t^-1 = 1 + t x t^-1
    ok = all(
        bg.act(t, x).as_unipotent() == t * x.as_unipotent() * t.inverse() for t in gens for x in ub
    )
    rep.add("dagger-action-restricts-to-conjugation", ok, "exhaustive on U's generators x basis")

    ok = all(
        bg.act(h, b) == _star(bg, h.nilpotent_part(), b) + b
        for h in bg.H_gens
        for b in bg.g_basis_mats
    )
    rep.add("h-action-linearization", ok, "exhaustive on generators x basis")

    rep.add("g-equals-hu", h_u_product_order(bg) == bg.order_G, "|H||U|/|H∩U| = |G|")

    hset = bg.h_space
    ok = all(
        hset.contains(bg.flatten(y * b)) and hset.contains(bg.flatten(b * y))
        for y in bg.h_basis.matrices
        for b in bg.g_basis_mats
    )
    rep.add("h-two-sided-ideal", ok, "exhaustive on basis pairs")

    ok = all(bg.in_h(g * h * g.inverse()) for g in bg.G_gens for h in bg.H_gens)
    rep.add("H-normal-in-G", ok, "on generators")

    # f(e) = x for each element e and its paired point x; every point of u
    # is paired once, so this also proves f(U) = u
    element = bg.u_basis.element_encs
    unsplit = [slot_index(bg.n)[pos] for pos in sorted(unsplit_positions(bg.positions))]
    leading = []  # reported after every image line
    for name in bg.springer_names():
        fwd, _ = bg.springer(name)
        rec = _theory_record(bg, name)
        image = lead = True
        for e, x in zip(rec.elements, rec.points):
            y = element(x)
            image = image and fwd(e).encs == y
            lead = lead and [y[s] for s in unsplit] == [e.encs[s] for s in unsplit]
        rep.add(f"springer-{name}-image", image, "f(U) = u")
        leading.append((f"springer-{name}-leading-term", lead))
    for name, lead in leading:
        rep.add(name, lead, "f(1+x) - x has degree >= 2, all of U")

    # every record pairs the same list of elements, bg.U, that the table indexes
    acts = walk_maps(bg, [t.inverse() for t in gens], ["u"])
    ok = True
    for name in bg.springer_names():
        points = _theory_record(bg, name).points
        for act, table in zip(acts, tables):
            ok = ok and list(map(act, points)) == [points[j] for j in table]
    rep.add("springer-adjoint-equivariance", ok, "f(hgh^-1) = h.f(g), U's generators x U")

    # uniqueness of the antisymmetric extension: the homogeneous system
    # {mu|_u = 0, mu(b + b^dagger) = 0 for b in g's basis} must have
    # trivial kernel
    u_rows = bg.u_space.rows
    sym = [bg.flatten(b + bg.dagger(b)) for b in bg.g_basis_mats]
    kern = Subspace.kernel(sc, bg.flat_dim, u_rows + sym)
    rep.add("extension-unique", kern.dim == 0, f"kernel dim {kern.dim}")

    # every functional is its coefficient tuple: lambda against u's basis,
    # eta against g's standard basis, so eta(x) = eta . flat(x), and
    # restrict(mu) = (mu(b_i)) over u's basis b_i is mu|_u
    dot = sc.dot
    restrict = linear_kernel(tower, u_rows, bg.flat_dim)
    ok_restr = ok_anti = ok_kernel = ok_hlam = ok_seteq = True
    for orbit in orbit_partition_dual(bg).orbits:
        lam = orbit.rep
        eta = bg.extension_map(lam)
        ok_restr = ok_restr and restrict(eta) == lam
        ok_anti = ok_anti and not any(dot(eta, s) for s in sym)
        # eta(x y) = sum_ij x_i y_j eta(b_i b_j) over g's standard basis b,
        # on the oracle's own g_eta
        form = bg.g_forms(eta)
        g_eta = base.subgroup(lam).rows
        x_forms = [combine(tower, form, x, bg.flat_dim) for x in g_eta]
        ok_kernel = ok_kernel and not any(dot(f, y) for f in x_forms for y in g_eta)
        # H eta (left action on g*) = {mu : mu|_l = eta|_l} = eta + ann(l_eta),
        # and l_eta is the kernel of the rows eta(y b), y in h, so its
        # annihilator is their span
        h_eta = left_orbit_of_g_functional(bg, eta, bg.H_walk)
        rows = bg.eta_forms(eta)
        left = Subspace.from_spanning(sc, bg.flat_dim, rows[: len(rows) // 2])
        ok_hlam = ok_hlam and h_eta == frozenset(left.coset(eta))
        # {mu|_u : mu in H eta} = H . lambda
        ok_seteq = ok_seteq and set(map(restrict, h_eta)) == h_orbit_of_functional(bg, lam)
    rep.add("extension-restriction", ok_restr, "eta|_u = lambda (all dual-orbit representatives)")
    rep.add("extension-antisymmetry", ok_anti, "eta(x^dagger) = -eta(x)")
    rep.add("eta-kernel-on-g_eta", ok_kernel, "eta(xy) = 0 on g_eta, basis pairs")
    rep.add("h-orbit-as-affine-set", ok_hlam, "H.eta = {mu : mu|_l = eta|_l}")
    rep.add("restriction-set-equality", ok_seteq, "{mu|_u : mu in H.eta} = H.lambda")

    # G x ∩ u = x + W for each u-orbit rep x, read point by point in
    # u-coordinates straight off the u partition
    oi = orbit_partition_u(bg)
    ok = True
    for o in oi.orbits:
        meet = left_orbit_in_u(bg, o.rep)
        ok = ok and meet is not None and all(
            oi.orbit_id(y) == o.orbit_id for y in meet.coset(o.rep)
        )
    rep.add(
        "left-multiplication-collapse",
        ok,
        "Gx ∩ u stays inside the dagger orbit",
    )
    return rep


def verify_subfield_independence(bg: BuiltGroup) -> Report:
    """Rebuild the theory with prime-field scalars and compare; the
    outcome is reported, not asserted."""
    rep = Report(f"subfield independence {bg.label()}")
    if bg.spec.family != "UU":
        rep.add("subfield-comparison", None, "only run for the unitary family")
        return rep
    spec = bg.spec
    if (spec.scalar_degree or spec.e) == 1:
        rep.add("subfield-comparison", None, "scalars already prime; nothing to compare")
        return rep
    other = build_group(spec.replace(scalar_degree=1), force=bg.force)
    sct_a, scht_a = theory(bg)
    sct_b, scht_b = theory(other)
    same_u = [u.serialize() for u in bg.U] == [u.serialize() for u in other.U]
    part_a, part_b = sct_a.partition_sets(), sct_b.partition_sets()
    rep.add(
        "subfield-partitions",
        None,
        f"superclass partitions {'equal' if same_u and part_a == part_b else 'DIFFER'}",
    )
    rows_a = scht_a.row_value_set()
    rows_b = scht_b.row_value_set()
    rep.add(
        "subfield-row-sets",
        None,
        f"character row sets {'equal' if rows_a == rows_b else 'DIFFER'} "
        f"({len(rows_a)} vs {len(rows_b)} rows)",
    )
    return rep
