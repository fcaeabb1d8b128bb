"""Twisted set partitions and the closed-form supercharacter formula for
the unipotent unitary family.

A twisted F_q-set partition of [n] is an arc set {(i, j, a)} over
F_{q^2} with i < j, distinct left endpoints, distinct right endpoints,
closed under mirroring (i,j,a) -> (n+1-j, n+1-i, -a^q); an arc on a
self-mirror position (i, n+1-i) must carry a label with a^q + a = 0.
These index both the superclasses and the supercharacters.

The value formula is

    chi^eta(u_nu) = deg(eta) / (-q)^nst * theta(sum of label products)

when no arc of eta is "blocked" by nu, and 0 otherwise.  Degrees are
sourced from brute-force H-orbit sizes (the printed closed forms are
evaluated alongside and diffed in the audit, not trusted).
"""

from __future__ import annotations

import functools
import itertools
import math

from .cyclotomic import CycloValue, root_power
from .errors import NonIntegralityError, ShapeError, VerificationError
from .gf import FieldTower, Theta
from .involution_group import BuiltGroup
from .orbits import h_orbit_of_functional, orbit_partition_dual
from .record import FrozenRecord, Record
from .sct import Report, SuperclassTable, SupercharTable
from .triangular import TriMatrix, slot_index, strict_positions


def _mirror_pos(n: int, i: int, j: int):
    return (n + 1 - j, n + 1 - i)


def _mirror_label(tower: FieldTower, a: int) -> int:
    return tower.neg_enc(tower.frobenius_q_enc(a))


class TwistedSetPartition(FrozenRecord):
    """An arc-labeled set partition with mirror closure; labels are
    canonical field encodings in F_{q^2}^x."""

    n: int
    arcs: frozenset  # (i, j, label_enc), full mirror closure

    @classmethod
    def from_arcs(cls, n: int, tower: FieldTower, arcs) -> "TwistedSetPartition":
        closed = set()
        for (i, j, a) in arcs:
            closed.add((i, j, a))
            mi, mj = _mirror_pos(n, i, j)
            closed.add((mi, mj, _mirror_label(tower, a)))
        part = cls(n, frozenset(closed))
        part.validate(tower)
        return part

    def validate(self, tower: FieldTower):
        lefts = set()
        rights = set()
        for (i, j, a) in self.arcs:
            if not (1 <= i < j <= self.n):
                raise ShapeError(f"arc ({i},{j}) is not an increasing pair in [{self.n}]")
            if a == 0:
                raise ShapeError("arc labels must be nonzero")
            if i in lefts or j in rights:
                raise ShapeError("arc endpoints collide; not a set partition")
            lefts.add(i)
            rights.add(j)
            mi, mj = _mirror_pos(self.n, i, j)
            mirror = (mi, mj, _mirror_label(tower, a))
            if mirror not in self.arcs:
                raise ShapeError(f"mirror closure violated at arc ({i},{j})")
        # a self-mirror arc must satisfy a^q + a = 0; that is exactly the
        # statement that it equals its own mirror, checked above

    def positions(self):
        return sorted((i, j) for (i, j, _) in self.arcs)

    @functools.cached_property
    def labels(self) -> dict:
        """The arcs as {(i, j): label}, made on first use: the value
        formula reads it for every cell of its row or column."""
        return {(i, j): a for (i, j, a) in self.arcs}

    def sort_key(self):
        return tuple(sorted(self.arcs))

    def mirror_orbits(self):
        """Arcs grouped into mirror orbits, ordered by left endpoint."""
        seen = set()
        out = []
        for arc in sorted(self.arcs):
            if arc in seen:
                continue
            (i, j, a) = arc
            mi, mj = _mirror_pos(self.n, i, j)
            group = {arc}
            seen.add(arc)
            if (mi, mj) != (i, j):
                mirror = next(
                    x for x in self.arcs if (x[0], x[1]) == (mi, mj)
                )
                group.add(mirror)
                seen.add(mirror)
            out.append(frozenset(group))
        return out

    def __repr__(self):
        body = ", ".join(f"{i}~{j}:{a}" for (i, j, a) in sorted(self.arcs))
        return f"Twisted[{body or 'empty'}; n={self.n}]"


# -- enumeration ----------------------------------------------------------------


def _self_labels(tower: FieldTower):
    """Nonzero labels with a^q + a = 0."""
    return [
        a
        for a in range(1, tower.size)
        if tower.add_enc(tower.frobenius_q_enc(a), a) == 0
    ]


def _arc_sets(groups):
    """Every choice of ``groups``, (positions, labels) pairs, whose
    positions have distinct left and distinct right endpoints, as the
    tuple of chosen pairs."""

    def rec(idx, lefts, rights, chosen):
        if idx == len(groups):
            yield chosen
            return
        yield from rec(idx + 1, lefts, rights, chosen)
        ls = {i for (i, _) in groups[idx][0]}
        rs = {j for (_, j) in groups[idx][0]}
        if not (ls & lefts or rs & rights):
            yield from rec(idx + 1, lefts | ls, rights | rs, chosen + (groups[idx],))

    return rec(0, frozenset(), frozenset(), ())


def _count(groups) -> int:
    """The labeled arc sets over ``groups``, counted without listing."""
    return sum(math.prod(len(labels) for _, labels in arcs) for arcs in _arc_sets(groups))


def _twisted_groups(n: int, tower: FieldTower):
    """The mirror orbits of positions, in position order, with their
    labels: a^q + a = 0 on a self-mirror position, any nonzero a on a
    mirror pair."""
    if tower.k != 2:
        raise ValueError("twisted partitions need a quadratic extension")
    nonzero, selfz = range(1, tower.size), _self_labels(tower)
    groups = []
    for pos in strict_positions(n):
        mirror = _mirror_pos(n, *pos)
        if mirror == pos:
            groups.append(((pos,), selfz))
        elif mirror > pos:
            groups.append(((pos, mirror), nonzero))
    return groups


def enumerate_twisted(n: int, tower: FieldTower):
    """All twisted F_q-set partitions of [n], canonically ordered."""
    out = [
        TwistedSetPartition.from_arcs(
            n, tower, [(*orbit[0], a) for (orbit, _), a in zip(arcs, labels)]
        )
        for arcs in _arc_sets(_twisted_groups(n, tower))
        for labels in itertools.product(*(ls for _, ls in arcs))
    ]
    out.sort(key=TwistedSetPartition.sort_key)
    return out


def count_twisted(n: int, tower: FieldTower) -> int:
    """``len(enumerate_twisted(n, tower))``, counted without listing."""
    return _count(_twisted_groups(n, tower))


def enumerate_labeled(n: int, num_labels: int) -> int:
    """Count of ordinary labeled set partitions of [n] (arcs i<j with
    distinct left and right endpoints, labels from a set of the given
    size); the type-A counting oracle."""
    return _count([((pos,), range(num_labels)) for pos in strict_positions(n)])


# -- representatives -------------------------------------------------------------


def rep_matrix(bg: BuiltGroup, eta: TwistedSetPartition) -> TriMatrix:
    """x_eta: the element of u with (x_eta)_{ij} = a for each arc."""
    x = TriMatrix(bg.n, bg.tower, False, {(i, j): a for (i, j, a) in eta.arcs})
    if bg.dagger(x) != -x:
        raise ShapeError("x_eta is not antisymmetric; invalid twisted partition")
    rows = [i for (i, j, _) in eta.arcs]
    cols = [j for (i, j, _) in eta.arcs]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ShapeError("x_eta has a repeated row or column")
    return x


def rep_group_element(
    bg: BuiltGroup, eta: TwistedSetPartition, springer_name: str = "cayley"
) -> TriMatrix:
    """u_eta, the group element with f(u_eta) = x_eta."""
    _, inv = bg.springer(springer_name)
    return TriMatrix.from_encs(bg.n, bg.tower, inv(rep_matrix(bg, eta).encs), True)


def lambda_functional(bg: BuiltGroup, eta: TwistedSetPartition) -> tuple:
    """lambda_eta(x) = sum of a * x_{ij} over arcs, as its coefficient
    tuple against u's basis; lands in F_q on u."""
    slots = [(a, slot_index(bg.n)[i, j]) for (i, j, a) in eta.arcs]
    coeffs = []
    for b in bg.u_basis.matrices:
        acc = 0
        for a, s in slots:
            acc = bg.tower.add_enc(acc, bg.tower.mul_enc(a, b.encs[s]))
        if not bg.sc.contains(acc):
            raise VerificationError("lambda_eta left the scalar subfield")
        coeffs.append(acc)
    return tuple(coeffs)


# -- the value formula --------------------------------------------------------------


def nst(eta: TwistedSetPartition, nu: TwistedSetPartition) -> int:
    """Nesting count |{i<j<k<l : j~k in nu, i~l in eta}| over unlabeled arcs."""
    count = 0
    for (i, l, _) in eta.arcs:
        for (j, k, _) in nu.arcs:
            if i < j and k < l:
                count += 1
    return count


def blocked(eta: TwistedSetPartition, nu: TwistedSetPartition) -> bool:
    """True when some eta-arc (i,j) sees a nu-arc i~k or k~j with i<k<j."""
    nu_pos = nu.labels
    for (i, j, _) in eta.arcs:
        for k in range(i + 1, j):
            if (i, k) in nu_pos or (k, j) in nu_pos:
                return True
    return False


def factor_elementary(eta: TwistedSetPartition):
    """Split into elementary partitions (one mirror orbit each), ordered
    by left endpoint."""
    return [
        TwistedSetPartition(eta.n, orbit) for orbit in eta.mirror_orbits()
    ]


def elementary_degree(bg: BuiltGroup, eta_r: TwistedSetPartition) -> int:
    """|H . lambda_{eta_r}| by direct orbit closure; the authoritative
    degree of an elementary supercharacter."""
    lam = lambda_functional(bg, eta_r)
    return len(h_orbit_of_functional(bg, lam))


def bruteforce_degree(bg: BuiltGroup, eta: TwistedSetPartition) -> int:
    deg = 1
    for part in factor_elementary(eta):
        deg *= elementary_degree(bg, part)
    return deg


def formula_value(
    bg: BuiltGroup,
    eta: TwistedSetPartition,
    nu: TwistedSetPartition,
    theta: Theta,
    degree: int | None = None,
    powers: dict | None = None,
) -> CycloValue:
    """The closed-form value chi^eta(u_nu).  ``powers`` keeps each value
    zeta^e * scalar by (e, scalar), for callers that evaluate many cells."""
    p = bg.tower.p
    if blocked(eta, nu):
        return CycloValue.zero(p)
    degree = bruteforce_degree(bg, eta) if degree is None else degree
    q = bg.tower.q
    nests = nst(eta, nu)
    power = q ** nests
    if degree % power:
        raise NonIntegralityError(
            f"degree {degree} is not divisible by (-q)^nst = {power}"
        )
    scalar = degree // power
    if nests % 2:
        scalar = -scalar
    add, mul, nu_labels = bg.tower.add_table, bg.tower.mul_table, nu.labels
    acc = 0
    for (i, j, a) in eta.arcs:
        b = nu_labels.get((i, j))
        if b is not None:
            acc = add[acc][mul[a][b]]
    if not bg.sc.contains(acc):
        raise VerificationError("label product sum left F_q")
    powers = {} if powers is None else powers
    key = (theta.exponent(acc), scalar)
    if key not in powers:
        powers[key] = root_power(p, key[0]) * scalar
    return powers[key]


# -- printed degree formulas and the audit ----------------------------------------


def printed_degree_formulas(n: int, q: int, eta_r: TwistedSetPartition) -> dict:
    """The closed-form degrees as printed, evaluated for every admissible
    reading of the elementary partition (both arcs of a mirror pair)."""
    positions = eta_r.positions()
    out = {}
    if len(positions) == 1:
        (i, j) = positions[0]
        if n % 2 == 0:
            out[f"self({i},{j}) n even: q^(2(n-2i))"] = q ** (2 * (n - 2 * i))
        else:
            out[f"self({i},{j}) n odd: q^(2(n+1-2i))"] = q ** (2 * (n + 1 - 2 * i))
    else:
        for (i, j) in positions:
            if n % 2 == 0:
                out[f"pair({i},{j}) n even: q^(2(j-i-1))"] = q ** (2 * (j - i - 1))
            elif 2 * j <= n + 1:
                out[f"pair({i},{j}) n odd, j<=(n+1)/2: q^(2(j-i-1))"] = q ** (
                    2 * (j - i - 1)
                )
            else:
                out[f"pair({i},{j}) n odd, j>(n+1)/2: q^(2(j-i))"] = q ** (2 * (j - i))
    return out


class DegreeAuditRow(Record):
    positions: tuple
    labels_seen: int
    brute: int
    formulas: dict

    @property
    def any_match(self) -> bool:
        return self.brute in self.formulas.values()

    @property
    def all_match(self) -> bool:
        return all(v == self.brute for v in self.formulas.values())

    def line(self) -> str:
        parts = ", ".join(f"{k} = {v}" for k, v in self.formulas.items())
        flag = "OK" if self.all_match else ("PARTIAL" if self.any_match else "MISMATCH")
        return f"{flag:8s} arcs {list(self.positions)}: brute |H.lambda| = {self.brute}; printed: {parts}"


def degree_audit(bg: BuiltGroup) -> list:
    """Brute-force elementary degrees vs the printed formulas.

    One row per mirror orbit of positions, from its elementary
    partitions, one for each label.  The degree must not depend on the
    labels; that is asserted.  The formula disagreements are reported,
    never patched over.
    """
    q = bg.tower.q
    rows = []
    for orbit, labels in _twisted_groups(bg.n, bg.tower):
        etas = [TwistedSetPartition.from_arcs(bg.n, bg.tower, [(*orbit[0], a)]) for a in labels]
        degrees = {elementary_degree(bg, eta) for eta in etas}
        if len(degrees) > 1:
            raise VerificationError("elementary degree depends on the label")
        rows.append(
            DegreeAuditRow(
                orbit, len(etas), degrees.pop(), printed_degree_formulas(bg.n, q, etas[0])
            )
        )
    return rows


def ennola_degree_check(scht: SupercharTable) -> Report:
    """Every degree must be a power of q^2; the degree multiset is
    reported for the external q -> -q comparison."""
    bg = scht.sc_table.record.group
    q2 = bg.tower.q ** 2
    rep = Report(f"ennola degrees {bg.label()}")
    bad = []
    for row in scht.rows:
        d = row.degree
        while d % q2 == 0:
            d //= q2
        if d != 1:
            bad.append(row.degree)
    rep.add(
        "ennola-degree-powers",
        not bad,
        f"degrees {sorted(r.degree for r in scht.rows)}"
        + (f"; offenders {bad}" if bad else ""),
    )
    return rep


# -- the headline grid check ---------------------------------------------------------


def formula_grid_check(
    bg: BuiltGroup,
    sct: SuperclassTable,
    scht: SupercharTable,
) -> Report:
    """formula_value(eta, nu) against the brute-force table entry for
    every pair, with the twisted partitions pinned to rows and columns."""
    rep = Report(f"unitary formula {bg.label()}")
    partitions = enumerate_twisted(bg.n, bg.tower)
    rep.add(
        "twisted-count",
        len(partitions) == len(scht.rows) == len(sct.classes),
        f"{len(partitions)} partitions, {len(scht.rows)} rows, {len(sct.classes)} classes",
    )
    od = orbit_partition_dual(bg)
    row_by_rep = {row.lam: i for i, row in enumerate(scht.rows)}
    row_of = {}
    seen_orbits = set()
    for eta in partitions:
        lam = lambda_functional(bg, eta)
        oid = od.orbit_id(lam)
        if oid in seen_orbits:
            rep.add("lambda-transversal", False, f"{eta!r} repeats a dual orbit")
            return rep
        seen_orbits.add(oid)
        row_of[eta.sort_key()] = row_by_rep[od.orbits[oid].rep]
    rep.add("lambda-transversal", True, "one dual orbit per twisted partition")
    class_of = {}
    seen_classes = set()
    for nu in partitions:
        u = rep_group_element(bg, nu, sct.record.springer_name)
        cid = sct.class_of[bg.U_index[u.encs]]
        if cid in seen_classes:
            rep.add("class-transversal", False, f"{nu!r} repeats a superclass")
            return rep
        seen_classes.add(cid)
        class_of[nu.sort_key()] = cid
    rep.add("class-transversal", True, "one superclass per twisted partition")

    degrees = {
        eta.sort_key(): bruteforce_degree(bg, eta) for eta in partitions
    }
    mismatches = 0
    zero_mismatches = 0
    classes = [class_of[nu.sort_key()] for nu in partitions]
    powers: dict = {}
    for eta in partitions:
        row = scht.rows[row_of[eta.sort_key()]]
        if degrees[eta.sort_key()] != row.degree:
            rep.add(
                "degree-product",
                False,
                f"{eta!r}: product of elementary degrees != |H.lambda|",
            )
            return rep
        for nu, cid in zip(partitions, classes):
            want = row.values[cid]
            got = formula_value(bg, eta, nu, scht.theta, degree=row.degree, powers=powers)
            if got != want:
                mismatches += 1
            if got.is_zero() != want.is_zero():
                zero_mismatches += 1
    total = len(partitions) ** 2
    rep.add("degree-product", True, "elementary factorization consistent")
    rep.add(
        "formula-values",
        mismatches == 0,
        f"{total - mismatches}/{total} cells match exactly",
    )
    rep.add(
        "formula-zero-pattern",
        zero_mismatches == 0,
        "vanishing sets coincide" if not zero_mismatches else f"{zero_mismatches} cells",
    )
    return rep
