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
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .cyclotomic import CycloRational, CycloValue
from .errors import NonIntegralityError, SizeGuardError
from .gf import Theta
from .involution_group import (
    BuiltGroup,
    GroupSpec,
    build_group,
    extend_functional,
    h_u_product_order,
    sub_l_r_g,
)
from .linalg import Subspace
from .orbits import (
    h_left_orbit_of_g_functional,
    h_orbit_of_functional,
    h_orbit_partition_dual,
    left_orbit_of_g_element,
    left_orbit_partition_g_dual,
    orbit_partition_dual,
    orbit_partition_u,
    two_sided_canonical,
    two_sided_orbit_partition_g,
    two_sided_orbit_partition_g_dual,
)
from .triangular import MirrorPoset, TriMatrix

SAMPLE_SEED = 20240813
_FULL_CHECK_LIMIT = 256
_ALGEBRA_ENUM_GUARD = 1 << 14
_FUNCTIONAL_CHECK_LIMIT = 12


@dataclass
class TheoryRecord:
    """What one supercharacter theory takes from its group.

    ``elements`` is sorted by serialization.  ``point`` sends an element e
    to the vector f(e) that dual vectors are dotted with.  ``primal``,
    ``dual`` and ``stabiliser`` give the orbit partitions of the points,
    of the functionals (one row per orbit) and of the same dual space
    under the subgroup whose orbit size is a row's degree.
    ``subgroup(lam)`` is the subspace S of g such that the induction
    oracle's subgroup is {e : e - 1 in S}.  ``element_data()`` holds f(e)
    and flat(e - 1) for every element, and ``conjugacy_classes(record)``
    the conjugacy classes of the elements; the oracle evaluates
    Frobenius's formula over those classes.  ``_generator_walk`` is the
    one closure check, exhaustive at every size, for the elements
    themselves and for each oracle subgroup; its walks are kept in
    ``_walks``, keyed by the member ids.  All of these are built on first
    use, and the table path needs none of them.
    """

    group: BuiltGroup
    springer_name: str
    symbol: str  # how reports name the element set: "U" or "G"
    elements: list
    index: dict  # serialization -> position in ``elements``
    inverse: list  # position of each element's inverse
    point: Callable
    primal: Callable
    dual: Callable
    stabiliser: Callable
    subgroup: Callable
    _element_data: tuple | None = field(default=None, repr=False)
    _conjugacy: ConjugacyClasses | None = field(default=None, repr=False)
    _walks: dict = field(default_factory=dict, repr=False)

    def element_data(self):
        """(points, flats): f(e) and flat(e - 1) for every element, in
        element order, made on first use."""
        if self._element_data is None:
            flatten = self.group.flatten
            self._element_data = (
                [self.point(e) for e in self.elements],
                [flatten(e.nilpotent_part()) for e in self.elements],
            )
        return self._element_data


def _theory_record(bg: BuiltGroup, springer_name: str) -> TheoryRecord:
    """The involution theory of U for the named Springer morphism; for the
    UT family, which has no involution, the algebra-group theory of G."""
    if bg.spec.family == "UT":
        return _algebra_record(bg)
    fwd, _ = bg.springer(springer_name)

    def subgroup(lam_coeffs):
        # U_lam = U ∩ (1 + g_eta) for the antisymmetric extension eta of lam
        eta = extend_functional(bg, bg.functional_on_u(lam_coeffs))
        return sub_l_r_g(bg, eta)[2].space

    return TheoryRecord(
        bg,
        springer_name,
        "U",
        bg.U,
        bg.U_index,
        bg.U_inverse,
        point=lambda u: bg.u_space.coords(bg.flatten(fwd(u))),
        primal=orbit_partition_u,
        dual=orbit_partition_dual,
        stabiliser=h_orbit_partition_dual,
        subgroup=subgroup,
    )


def _algebra_record(bg: BuiltGroup) -> TheoryRecord:
    """The record of the pattern group G, with f(g) = g - 1; G is
    enumerated on first use and kept on bg."""
    if bg.kdim != 1:
        raise ValueError("algebra theory expects a UT-family group over its full field")
    cached = getattr(bg, "_algebra_record", None)
    if cached is not None:
        return cached
    if bg.order_G > _ALGEBRA_ENUM_GUARD and not bg.force:
        raise SizeGuardError(
            f"|G| = {bg.order_G} too large to enumerate for the algebra theory"
        )
    elements = sorted(bg.enumerate_G(), key=lambda m: m.serialize())
    index = {m.serialize(): i for i, m in enumerate(elements)}
    inverse = [index[m.inverse().serialize()] for m in elements]

    def subgroup(lam_coeffs):
        # L_lam = 1 + l_lam with l_lam = {x : lam(y x) = 0 for all y in g}
        rows = [
            tuple(bg.sc.dot(lam_coeffs, bg.flatten(y * b)) for b in bg.g_basis_mats)
            for y in bg.g_basis_mats
        ]
        return Subspace.kernel(bg.sc, bg.flat_dim, rows)

    bg._algebra_record = TheoryRecord(
        bg,
        "g-1",
        "G",
        elements,
        index,
        inverse,
        point=lambda g: bg.flatten(g.nilpotent_part()),
        primal=two_sided_orbit_partition_g,
        dual=two_sided_orbit_partition_g_dual,
        stabiliser=left_orbit_partition_g_dual,
        subgroup=subgroup,
    )
    return bg._algebra_record


@dataclass
class Superclass:
    class_id: int
    rep: TriMatrix
    size: int
    member_ids: list


@dataclass
class SuperclassTable:
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


@dataclass
class SupercharRow:
    lam: tuple
    orbit_size: int
    h_orbit_size: int  # the stabiliser-orbit size
    n_lambda: int
    degree: int
    values: list


@dataclass
class SupercharTable:
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
    orbits on g pulled back through g - 1."""
    rec = _theory_record(bg, springer_name)
    oi = rec.primal(bg)
    members: dict = {}
    class_of = []
    for idx, e in enumerate(rec.elements):
        oid = oi.orbit_id(rec.point(e))
        members.setdefault(oid, []).append(idx)
        class_of.append(oid)
    if len(members) != oi.count:
        raise AssertionError("the point map is not surjective onto the primal space")
    # canonical class order: by the least serialized member, which is the
    # first id of each class since the elements are sorted
    ordered = sorted(members.values(), key=lambda ids: ids[0])
    classes = []
    remap = {}
    for cid, ids in enumerate(ordered):
        remap[class_of[ids[0]]] = cid
        classes.append(Superclass(cid, rec.elements[ids[0]], len(ids), ids))
    class_of = [remap[oid] for oid in class_of]
    if classes[0].rep != TriMatrix.identity(bg.n, bg.tower):
        raise AssertionError("identity superclass is not first")
    return SuperclassTable(rec, classes, class_of)


# -- supercharacters -----------------------------------------------------------


def _orbit_sum_values(p, members, points, dot, theta_exp):
    """sum over mu in members of theta(mu(x)), for each x in points."""
    out = []
    for x in points:
        counts = [0] * p
        for mu in members:
            counts[theta_exp(dot(mu, x))] += 1
        out.append(CycloValue.from_exponents(p, counts))
    return out


def _exponent_vector(x, elements, theta: Theta, p):
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


def _gather(ids):
    """vec -> the tuple of vec[i] for i in ids, also for a single id."""
    if len(ids) == 1:
        (i,) = ids
        return lambda vec: (vec[i],)
    return operator.itemgetter(*ids)


def supercharacters(
    bg: BuiltGroup,
    springer_name: str,
    theta: Theta,
    sc_table: SuperclassTable | None = None,
) -> SupercharTable:
    """chi_lambda = (1/n_lambda) sum over the dual orbit of lambda of
    theta(mu(f(.))), with n_lambda = |dual orbit| / |stabiliser orbit|.

    For each class rep x the exponents theta(mu(f(x))) are laid out over
    the whole dual space at once (``_exponent_vector``); each cell is then
    the histogram of that vector over the members of one dual orbit."""
    if sc_table is None:
        sc_table = superclasses(bg, springer_name)
    rec = sc_table.record
    od = rec.dual(bg)
    oh = rec.stabiliser(bg)
    points = [rec.point(K.rep) for K in sc_table.classes]
    p = bg.tower.p
    elements = bg.sc.elements
    dim = len(od.space[0])
    # the exponent vectors index the dual space by its product order
    if len(od.space) != len(elements) ** dim or not all(
        map(operator.eq, od.space, itertools.product(elements, repeat=dim))
    ):
        raise AssertionError("the dual space is not the full product space")
    rows = []
    for orbit in od.orbits:
        # od and oh enumerate the same dual space in the same order
        h_sizes = {oh.orbits[oh.orbit_of[i]].size for i in orbit.members}
        if len(h_sizes) != 1:
            raise AssertionError("the stabiliser-orbit size varies across a dual orbit")
        h_size = h_sizes.pop()
        if orbit.size % h_size:
            raise NonIntegralityError(
                "n_lambda = |dual orbit| / |stabiliser orbit| is not integral"
            )
        # the degree is read off the identity column once all cells are in
        rows.append(SupercharRow(orbit.rep, orbit.size, h_size, orbit.size // h_size, 0, []))
    gathers = [_gather(orbit.members) for orbit in od.orbits]
    for x in points:
        vec = _exponent_vector(x, elements, theta, p)
        for row, gather in zip(rows, gathers):
            got = gather(vec)
            counts = [got.count(e) for e in range(p)]
            row.values.append(
                _divexact(CycloValue.from_exponents(p, counts), row.n_lambda, "orbit sum")
            )
    for row in rows:
        row.degree = row.values[0].as_integer()
        if row.degree != row.h_orbit_size:
            raise AssertionError("chi(1) != stabiliser-orbit size; orbit bookkeeping broken")
    rows.sort(key=lambda r: r.lam)
    if any(not v == 1 for v in rows[0].values):
        raise AssertionError("the zero functional did not give the trivial character")
    return SupercharTable(sc_table, theta, rows)


def theory(bg: BuiltGroup, springer_name: str = "cayley", theta: Theta | None = None):
    theta = theta or standard_theta(bg)
    sct = superclasses(bg, springer_name)
    scht = supercharacters(bg, springer_name, theta, sc_table=sct)
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
    elements]; shared by every induction run on the same class table."""
    cache = getattr(sc_table, "_conj_index", None)
    if cache is None:
        rec = sc_table.record
        cache = []
        for K in sc_table.classes:
            row = []
            for h_id, h in enumerate(rec.elements):
                conj = h * K.rep * rec.elements[rec.inverse[h_id]]
                row.append(rec.index[conj.serialize()])
            cache.append(row)
        sc_table._conj_index = cache
    return cache


def _generator_walk(rec: TheoryRecord, members):
    """(T, reached, right): the generators T that a walk from the identity
    picks from ``members`` (element ids), the members in the order the
    walk reached them, and right[g][i], the id of reached[i] . T[g].
    Made once per member tuple and kept on the record.

    The walk starts from the identity, rec.elements[0] (elements sort by
    serialization), and takes members in order; a member not yet reached
    becomes a new generator.  Each reached r meets each generator t
    once, earlier generators and later ones alike: the product r t must
    be a member, and joins the reached set, so the walk costs
    |reached| |T| products.  The first product outside the members
    raises AssertionError.

    The walk passes exactly when the members S are closed under
    multiplication.  Every step is one of the |S|^2 pairs, so a closed S
    passes.  If the walk passes, S . T ⊆ S, every member is reached, and
    each reached element is a word t_1 ... t_m in T; so s s' stays in S
    one letter at a time, for any s and s' in S."""
    members = tuple(members)
    walk = rec._walks.get(members)
    if walk is None:
        elements, index = rec.elements, rec.index
        inside = set(members)
        what = rec.symbol if len(inside) == len(elements) else "the oracle's subgroup"
        reached, seen = [0], {0}
        gens, right = [], []
        for s in members:
            if s in seen:
                continue
            gens.append(s)
            right.append([])
            while any(len(row) < len(reached) for row in right):
                for t, row in zip(gens, right):
                    while len(row) < len(reached):
                        r = reached[len(row)]
                        k = index.get((elements[r] * elements[t]).serialize())
                        if k not in inside:
                            raise AssertionError(f"{what} is not closed under multiplication")
                        row.append(k)
                        if k not in seen:
                            seen.add(k)
                            reached.append(k)
        walk = rec._walks[members] = (gens, reached, right)
    return walk


@dataclass
class ConjugacyClasses:
    class_of: list  # conjugacy class id per element, numbered by least member
    sizes: list


def conjugacy_classes(rec: TheoryRecord) -> ConjugacyClasses:
    """The conjugacy classes of the record's elements E, made once per
    record.

    ``_generator_walk`` over all of E picks generators T and checks, at
    |E| |T| products, that E is closed under multiplication; this is the
    one closure check of E, and it runs on the verify path only.  Each
    class is then the orbit of its least member under x -> t x t^-1 for t
    in T, found by a stack walk that conjugates every element once by
    every generator (2 |E| |T| products).  E is finite and generated by
    T, so these orbits are the orbits of all of E."""
    if rec._conjugacy is None:
        elements, index = rec.elements, rec.index
        gens = [
            (elements[t], elements[rec.inverse[t]])
            for t in _generator_walk(rec, range(len(elements)))[0]
        ]
        class_of = [-1] * len(elements)
        sizes = []
        for first in range(len(elements)):
            if class_of[first] >= 0:
                continue
            cid = len(sizes)
            class_of[first] = cid
            stack, size = [first], 0
            while stack:
                x = elements[stack.pop()]
                size += 1
                for t, t_inv in gens:
                    k = index[(t * x * t_inv).serialize()]
                    if class_of[k] < 0:
                        class_of[k] = cid
                        stack.append(k)
            sizes.append(size)
        rec._conjugacy = ConjugacyClasses(class_of, sizes)
    return rec._conjugacy


def induction_oracle(bg: BuiltGroup, lam_coeffs, theta: Theta, sc_table: SuperclassTable):
    """Ind_S^E(Res theta∘lam∘f), evaluated at every class rep, for the
    record's elements E and its subgroup S for lam: U_lam = U ∩ (1 + g_eta)
    in the involution theory, L_lam = 1 + l_lam in the algebra theory.

    S is found by an annihilator test: flat(e - 1) lies in the subgroup's
    space exactly when c . flat(e - 1) = 0 for every c in a basis of the
    space's annihilator (the kernel of its rows).  The restriction phi of
    theta∘lam∘f to S must be a linear character, and a failure is fatal.
    Both halves are exhaustive at every |S|.  ``_generator_walk`` proves S
    closed (AssertionError if not) and records right[g][i] = r t for each
    reached r and generator t; rows with the same S share one walk.  Then
    phi(1) = 0 and phi(r t) = phi(r) + phi(t) along ``right``, with no
    further products, give phi(s s') = phi(s) + phi(s') on all of S x S:
    write s' = t_1 ... t_m as the walk reached it; then phi(s') =
    phi(1) + sum phi(t_i), and s t_1 ... t_j stays in S with phi growing
    by phi(t_j) at each letter.  Each checked equation is one of the
    pair loop's, so the two pass and fail on the same inputs
    (NonIntegralityError if not).  phi(1) = 0 is checked on its own, as
    no step covers it when S = {1}.

    The values come from Frobenius's formula over the conjugacy classes
    of E (``conjugacy_classes``): with phi° = phi on S and 0 off S,

        Ind phi(g) = (1/|S|) sum_{h in E} phi°(h g h^-1)
                   = |E| / (|cl(g)| |S|) sum_{x in cl(g)} phi°(x),

    since h -> h g h^-1 maps E onto cl(g) and each fibre is a coset of the
    centraliser, of size |C_E(g)| = |E| / |cl(g)|.  One pass over S fills
    a histogram of phi per conjugacy class.  |E| / |cl(g)| is an integer,
    so the division by |cl(g)| |S| is exact exactly when the defining sum
    is divisible by |S|.  Returns the values and |E| / |S|.
    """
    rec = sc_table.record
    space = rec.subgroup(lam_coeffs)
    p = bg.tower.p
    points, flats = rec.element_data()
    dot, exponent = bg.sc.dot, theta.exponent
    add, mul = bg.tower.add_table, bg.tower.mul_table
    # each annihilator row c as its nonzero terms (column, row of x -> c_j x)
    constraints = [
        [(j, mul[c_j]) for j, c_j in enumerate(c) if c_j]
        for c in Subspace.kernel(bg.sc, space.ambient, space.rows).rows
    ]
    phi = {}  # element id -> exponent of theta∘lam∘f, for the elements of S
    for i, flat in enumerate(flats):
        for terms in constraints:
            acc = 0
            for j, times in terms:
                acc = add[acc][times[flat[j]]]
            if acc:
                break
        else:
            phi[i] = exponent(dot(lam_coeffs, points[i]))
    gens, reached, right = _generator_walk(rec, phi)
    if phi[0] or any(
        phi[k] != (phi[r] + phi[t]) % p
        for t, row in zip(gens, right)
        for r, k in zip(reached, row)
    ):
        raise NonIntegralityError(
            "restriction of theta∘lambda∘f to the oracle's subgroup is not multiplicative"
        )
    cc = conjugacy_classes(rec)
    hist: dict = {}  # conjugacy class id -> counts of each exponent of phi
    for s, e in phi.items():
        hist.setdefault(cc.class_of[s], [0] * p)[e] += 1
    order = len(rec.elements)
    values = []
    for K in sc_table.classes:
        cid = cc.class_of[rec.index[K.rep.serialize()]]
        counts = CycloValue.from_exponents(p, hist.get(cid, [0] * p))
        values.append(
            _divexact(counts * order, cc.sizes[cid] * len(phi), "induced character")
        )
    return values, order // len(phi)


# -- named verification checks ----------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool | None  # None marks an informational (reported) result
    detail: str = ""

    def line(self) -> str:
        tag = "REPORT" if self.passed is None else ("PASS" if self.passed else "FAIL")
        return f"{tag:6s} {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class Report:
    label: str
    results: list = field(default_factory=list)
    seed: int = SAMPLE_SEED

    def add(self, name, passed, detail=""):
        self.results.append(CheckResult(name, passed, detail))

    def extend(self, results):
        self.results.extend(results)

    @property
    def ok(self) -> bool:
        return all(r.passed is not False for r in self.results)

    def lines(self):
        out = [f"== {self.label} (sample seed {self.seed})"]
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
    """Each row, recomputed as an orbit sum at class members, must be
    n_lambda times its class value; comparing without dividing makes a
    wrong n_lambda a failed check rather than an exception."""
    rec = sct.record
    full = len(rec.elements) <= _FULL_CHECK_LIMIT
    if full:
        items = [
            (row, K) for row in scht.rows for K in sct.classes
        ]
        mode = "exhaustive"
    else:
        rng = random.Random(SAMPLE_SEED)
        items = [
            (scht.rows[rng.randrange(len(scht.rows))], sct.classes[rng.randrange(len(sct.classes))])
            for _ in range(32)
        ]
        mode = "sampled"
    od = rec.dual(bg)
    for row, K in items:
        expect = row.values[K.class_id] * row.n_lambda
        member_ids = K.member_ids if full else K.member_ids[:8]
        members = od.members(od.orbit_id(row.lam))
        points = [rec.point(rec.elements[mid]) for mid in member_ids]
        sums = _orbit_sum_values(bg.tower.p, members, points, bg.sc.dot, scht.theta.exponent)
        if any(s != expect for s in sums):
            return CheckResult(
                "axiom-constancy",
                False,
                f"row {row.lam} is not constant on class {K.class_id}",
            )
    return CheckResult("axiom-constancy", True, mode)


def _orthogonality_check(bg, scht: SupercharTable) -> CheckResult:
    """<chi_a, chi_b> = (1/|E|) sum_K |K| chi_a(K) conj(chi_b(K)) for every
    pair of rows.  Each row is weighted by the class sizes and conjugated
    once; a pair's product is accumulated as a raw exponent vector, one
    dot product over the classes per pair of power-basis coefficients."""
    p = bg.tower.p
    sizes = [K.size for K in scht.classes]
    order = len(scht.sc_table.record.elements)
    # columns over the classes: weighted[a][i] holds coefficient i of
    # |K| chi_a(K), conj[b][j] coefficient j of conj(chi_b(K))
    weighted = [
        list(zip(*([c * s for c in v.coeffs] for v, s in zip(row.values, sizes))))
        for row in scht.rows
    ]
    conj = [list(zip(*(v.conjugate().coeffs for v in row.values))) for row in scht.rows]
    for a in range(len(scht.rows)):
        for b in range(a, len(scht.rows)):
            raw = [0] * p
            for i, x in enumerate(weighted[a]):
                for j, y in enumerate(conj[b]):
                    raw[(i + j) % p] += sum(map(operator.mul, x, y))
            ip = CycloRational(CycloValue.from_exponents(p, raw), order)
            if a == b:
                if not (ip.is_integer() and ip.as_integer() > 0):
                    return CheckResult(
                        "axiom-orthogonality",
                        False,
                        f"<chi,chi> not a positive integer for row {a}: {ip!r}",
                    )
                if ip != ip.conjugate():
                    return CheckResult(
                        "axiom-orthogonality", False, f"norm not conjugation-fixed, row {a}"
                    )
            elif not ip.is_zero():
                return CheckResult(
                    "axiom-orthogonality", False, f"rows {a},{b} not orthogonal: {ip!r}"
                )
    return CheckResult("axiom-orthogonality", True, f"{len(scht.rows)} rows, exact")


def _regular_character_check(bg, scht: SupercharTable) -> CheckResult:
    order = len(scht.sc_table.record.elements)
    for cid, K in enumerate(scht.classes):
        acc = CycloValue.zero(bg.tower.p)
        for row in scht.rows:
            acc = acc + row.values[cid] * row.n_lambda
        expect = order if cid == 0 else 0
        if acc != expect:
            return CheckResult(
                "axiom-regular-sum",
                False,
                f"sum n_lambda chi_lambda = {acc!r} at class {cid}, expected {expect}",
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
        if values != row.values:
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


def verify_springer_independence(bg, theta: Theta | None = None) -> Report:
    """Identical tables for the Cayley map and the truncated logarithm."""
    rep = Report(f"springer independence {bg.label()}")
    theta = theta or standard_theta(bg)
    if "log" not in bg.springer_names():
        rep.add("springer-independence", None, "trunc_log undefined here; skipped")
        return rep
    sct_c, scht_c = theory(bg, "cayley", theta)
    sct_l, scht_l = theory(bg, "log", theta)
    same_partition = sct_c.partition_sets() == sct_l.partition_sets()
    rep.add("springer-partition", same_partition, "superclass partitions equal")
    same_rows = [r.values for r in scht_c.rows] == [r.values for r in scht_l.rows]
    rep.add("springer-rows", same_rows, "tables cell-identical")
    return rep


def verify_theta_independence(bg, springer_name: str = "cayley") -> Report:
    """The character SET must not depend on the choice of theta."""
    rep = Report(f"theta independence {bg.label()}")
    sct, scht_std = theory(bg, springer_name, standard_theta(bg))
    scht_alt = supercharacters(bg, springer_name, alternate_theta(bg), sc_table=sct)
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
    full coefficient field."""
    cached = getattr(bg, "_ambient", None)
    if cached is None:
        spec = bg.spec
        cached = build_group(
            GroupSpec(
                family="UT",
                n=spec.n,
                p=spec.p,
                e=spec.e,
                k=spec.k,
                poset=spec.poset,
                scalar_degree=spec.e * spec.k,
            ),
            force=bg.force,
        )
        bg._ambient = cached
    return cached


def intersection_check(
    bg: BuiltGroup,
    springer_name: str = "cayley",
    sc_table: SuperclassTable | None = None,
) -> Report:
    """Superclasses of U are exactly the nonempty U ∩ K_g for ambient
    superclasses K_g of the pattern group.

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
    sct = sc_table if sc_table is not None else superclasses(bg, springer_name)
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


def _conjugate_nilpotent(u: TriMatrix, x: TriMatrix) -> TriMatrix:
    """u x u^{-1} inside the algebra, for unipotent u and nilpotent x."""
    a = u.nilpotent_part()
    m = x + a * x
    z = u.inverse().nilpotent_part()
    return m + m * z


def _star(bg: BuiltGroup, y: TriMatrix, x: TriMatrix) -> TriMatrix:
    """The auxiliary left action y * x = y x + x y^dagger."""
    return y * x + x * bg.dagger(y)


def verify_structure(bg: BuiltGroup) -> Report:
    """The structural lemmas behind the construction, as executable
    checks: bracket closure of u, the action/conjugation agreement, the
    H-action linearization, G = HU, ideal/normality of h and H, the
    Springer conditions, and the functional-extension properties."""
    rep = Report(f"structure {bg.label()}")
    rng = random.Random(SAMPLE_SEED)
    ub = bg.u_basis.matrices

    ok = all(
        bg.u_space.contains(bg.flatten(x * y - y * x))
        for x in ub
        for y in ub
    )
    rep.add("u-lie-closed", ok, "exhaustive on basis pairs")

    ok = True
    for _ in range(24):
        u = bg.U[rng.randrange(bg.order_U)]
        x = bg.u_basis.element(
            tuple(bg.sc.elements[rng.randrange(bg.sc.size)] for _ in range(bg.u_basis.dim))
        )
        if bg.act(u, x) != _conjugate_nilpotent(u, x):
            ok = False
            break
    rep.add("dagger-action-restricts-to-conjugation", ok, "random samples")

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

    u_keys = {
        bg.unflatten(bg.u_space.combine(c)).serialize()
        for c in bg.u_basis.enumerate_coords(force=bg.force)
    }
    for name in bg.springer_names():
        fwd, _ = bg.springer(name)
        image = {fwd(u).serialize() for u in bg.U}
        rep.add(f"springer-{name}-image", image == u_keys, "f(U) = u")

    # the series must start with the identity term: f(1+x) - x lies in
    # the span of all degree->=2 products
    sq = Subspace.from_spanning(
        bg.sc,
        bg.flat_dim,
        [bg.flatten(a * b) for a in bg.g_basis_mats for b in bg.g_basis_mats],
    )
    for name in bg.springer_names():
        fwd, _ = bg.springer(name)
        ok = True
        for _ in range(16):
            x = bg.u_basis.element(
                tuple(bg.sc.elements[rng.randrange(bg.sc.size)] for _ in range(bg.u_basis.dim))
            )
            if not sq.contains(bg.flatten(fwd(x.as_unipotent()) - x)):
                ok = False
        rep.add(f"springer-{name}-leading-term", ok, "f(1+x) - x has degree >= 2")

    ok = True
    for name in bg.springer_names():
        fwd, _ = bg.springer(name)
        for _ in range(16):
            h = bg.U[rng.randrange(bg.order_U)]
            g = bg.U[rng.randrange(bg.order_U)]
            if fwd(h * g * h.inverse()) != bg.act(h, fwd(g)):
                ok = False
    rep.add("springer-adjoint-equivariance", ok, "f(hgh^-1) = h.f(g), samples")

    # uniqueness of the antisymmetric extension: the homogeneous system
    # {mu|_u = 0, mu(x) + mu(x^dagger) = 0} must have trivial kernel
    rows = [bg.flatten(b) for b in ub]
    for c in bg.g_basis_mats:
        fa = bg.flatten(c)
        fb = bg.flatten(bg.dagger(c))
        rows.append(tuple(bg.sc.add(x, y) for x, y in zip(fa, fb)))
    kern = Subspace.kernel(bg.sc, bg.flat_dim, rows)
    rep.add("extension-unique", kern.dim == 0, f"kernel dim {kern.dim}")

    od = orbit_partition_dual(bg)
    reps = [o.rep for o in od.orbits]
    mode = "all dual-orbit representatives"
    if len(reps) > _FUNCTIONAL_CHECK_LIMIT:
        reps = random.Random(SAMPLE_SEED).sample(reps, _FUNCTIONAL_CHECK_LIMIT)
        mode = f"{_FUNCTIONAL_CHECK_LIMIT} sampled representatives"
    ok_restr = ok_anti = ok_kernel = ok_hlam = ok_seteq = True
    for lam_coeffs in reps:
        lam = bg.functional_on_u(lam_coeffs)
        eta = extend_functional(bg, lam)
        for b in ub:
            if eta.evaluate(b) != lam.evaluate(b):
                ok_restr = False
        for c in bg.g_basis_mats:
            if eta.evaluate(bg.dagger(c)) != bg.sc.neg(eta.evaluate(c)):
                ok_anti = False
        l_sp, _, g_sp = sub_l_r_g(bg, eta)
        for x in g_sp.matrices:
            for y in g_sp.matrices:
                if eta.evaluate(x * y) != 0:
                    ok_kernel = False
        # H eta (left action on g*) = {mu : mu|_l = eta|_l}
        h_eta = h_left_orbit_of_g_functional(bg, eta.coeffs)
        kern_l = Subspace.kernel(bg.sc, bg.flat_dim, l_sp.space.rows)
        affine = {
            tuple(bg.sc.add(a, b) for a, b in zip(eta.coeffs, w))
            for w in _space_vectors(kern_l)
        }
        if h_eta != frozenset(affine):
            ok_hlam = False
        # {mu|_u : mu in H eta} = H . lambda
        restr = {
            tuple(
                bg.sc.dot(mu, bg.flatten(b)) for b in ub
            )
            for mu in h_eta
        }
        if restr != set(h_orbit_of_functional(bg, lam_coeffs)):
            ok_seteq = False
    rep.add("extension-restriction", ok_restr, f"eta|_u = lambda ({mode})")
    rep.add("extension-antisymmetry", ok_anti, "eta(x^dagger) = -eta(x)")
    rep.add("eta-kernel-on-g_eta", ok_kernel, "eta(xy) = 0 on g_eta, basis pairs")
    rep.add("h-orbit-as-affine-set", ok_hlam, "H.eta = {mu : mu|_l = eta|_l}")
    rep.add("restriction-set-equality", ok_seteq, "{mu|_u : mu in H.eta} = H.lambda")

    oi = orbit_partition_u(bg)
    ok = True
    for o in oi.orbits:
        x_flat = bg.u_space.combine(o.rep)
        for y_flat in left_orbit_of_g_element(bg, x_flat):
            c = bg.u_space.coords(y_flat)
            if c is not None and oi.orbit_id(c) != oi.orbit_id(o.rep):
                ok = False
    rep.add(
        "left-multiplication-collapse",
        ok,
        "Gx ∩ u stays inside the dagger orbit",
    )
    return rep


def _space_vectors(space: Subspace):
    """All vectors of a (small) subspace."""
    out = []
    for combo in itertools.product(space.sc.elements, repeat=space.dim):
        out.append(space.combine(combo))
    return out


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
    other = build_group(
        GroupSpec(
            family=spec.family,
            n=spec.n,
            p=spec.p,
            e=spec.e,
            k=spec.k,
            poset=spec.poset,
            scalar_degree=1,
        ),
        force=bg.force,
    )
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
