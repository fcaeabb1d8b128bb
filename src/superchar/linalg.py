"""Gaussian elimination over a finite scalar field given by encodings.

Vectors are tuples of canonical field encodings; the scalar field is a
``gf.Subfield`` (possibly the full top field).  Everything here is
deterministic: spanning sets reduce to a unique RREF basis, kernels get
their standard free-column basis in ascending column order.
"""

from __future__ import annotations

from .gf import Subfield


def rref(rows, sc: Subfield):
    """Reduced row echelon form.  Returns (rows, pivot_columns).  Rows are
    scaled and combined through the tower's add, mul and neg tables."""
    tower = sc.tower
    add, mul, neg = tower.add_table, tower.mul_table, tower.neg_table
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if rows[r][c] != 1:
            times = mul[tower.inv_enc(rows[r][c])]
            rows[r] = [times[x] for x in rows[r]]
        pivot = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                times = mul[neg[row[c]]]  # y -> -row[c] y
                rows[i] = [add[x][times[y]] for x, y in zip(row, pivot)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


class Subspace:
    """A subspace stored as an RREF row basis over a scalar subfield."""

    def __init__(self, sc: Subfield, ambient: int, rows, pivots):
        self.sc = sc
        self.ambient = ambient
        self.rows = [tuple(r) for r in rows]
        self.pivots = list(pivots)

    @classmethod
    def from_spanning(cls, sc: Subfield, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return cls(sc, ambient, [], [])
        rows, pivots = rref(vectors, sc)
        return cls(sc, ambient, rows, pivots)

    @classmethod
    def kernel(cls, sc: Subfield, ambient: int, constraint_rows) -> "Subspace":
        """Solution space of the homogeneous system given by the rows."""
        rows, pivots = rref(constraint_rows, sc)
        pivot_set = set(pivots)
        free = [c for c in range(ambient) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [sc.zero] * ambient
            v[fc] = sc.one
            for row, pc in zip(rows, pivots):
                v[pc] = sc.neg(row[fc])
            basis.append(tuple(v))
        # re-reduce so coords() can read coefficients off the pivots: the
        # free-column basis carries entries at pivot columns left of its
        # leading 1, so it is not in RREF (for u on UO4, USp4, UU3 and UO5
        # alike), and u's RREF basis fixes the lambda column of every table
        return cls.from_spanning(sc, ambient, basis)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coords(self, v):
        """Coefficients of v against the RREF basis, or None if outside."""
        tower = self.sc.tower
        add, mul, neg = tower.add_table, tower.mul_table, tower.neg_table
        cs = tuple(v[p] for p in self.pivots)
        residual = list(v)
        for c, row in zip(cs, self.rows):
            if c:
                times = mul[neg[c]]  # x -> -c x
                for j, x in enumerate(row):
                    if x:
                        residual[j] = add[residual[j]][times[x]]
        if any(residual):
            return None
        return cs

    def contains(self, v) -> bool:
        return self.coords(v) is not None

    def coset(self, origin):
        """Every point of origin + the subspace, each made once: the points
        so far, shifted by every nonzero multiple of one row at a time."""
        tower = self.sc.tower
        add, mul = tower.add_table, tower.mul_table
        points = [tuple(origin)]
        for row in self.rows:
            shifts = [[mul[c][x] for x in row] for c in self.sc.elements if c]
            points += [tuple(add[a][b] for a, b in zip(pt, s)) for s in shifts for pt in points]
        return points

    def combine(self, coeffs):
        return combine(self.sc.tower, self.rows, coeffs, self.ambient)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def combine(tower, rows, coeffs, width):
    """sum c_i rows_i over the tower's tables, for rows of ``width``
    encodings."""
    add, mul = tower.add_table, tower.mul_table
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            times = mul[c]
            for j, x in enumerate(row):
                if x:
                    out[j] = add[out[j]][times[x]]
    return tuple(out)


def transpose(rows):
    return [tuple(col) for col in zip(*rows)]
