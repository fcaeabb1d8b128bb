import itertools
import random

import pytest

from superchar.gf import make_tower
from superchar.linalg import Subspace, rref

import reference

# F_3 inside F_9 (the unitary scalar case), F_5, and F_25 over itself
SCALARS = {
    "F_3<F_9": lambda: make_tower(3, 1, 2).subfield(1),
    "F_5": lambda: make_tower(5, 1, 1).base,
    "F_25": lambda: make_tower(5, 2, 1).base,
}
# small enough to enumerate every vector of the ambient space
AMBIENT = {"F_3<F_9": 5, "F_5": 4, "F_25": 3}


def _random_vector(rng, sc, n):
    return tuple(rng.choice(sc.elements) for _ in range(n))


def _combine_ref(sc, ambient, rows, coeffs):
    """sum c_i row_i through the field's add and mul calls."""
    out = [0] * ambient
    for c, row in zip(coeffs, rows):
        out = [sc.add(o, sc.mul(c, x)) for o, x in zip(out, row)]
    return tuple(out)


def _random_subspaces(sc, ambient, seed):
    rng = random.Random(seed)
    for count in range(1, ambient + 1):
        yield rng, Subspace.from_spanning(
            sc, ambient, [_random_vector(rng, sc, ambient) for _ in range(count)]
        )


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_coords_inverts_combine(name):
    sc, ambient = SCALARS[name](), AMBIENT[name]
    for rng, space in _random_subspaces(sc, ambient, seed=11):
        for _ in range(20):
            c = _random_vector(rng, sc, space.dim)
            v = space.combine(c)
            assert v == _combine_ref(sc, ambient, space.rows, c)
            assert space.coords(v) == c


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_coords_is_none_outside(name):
    sc, ambient = SCALARS[name](), AMBIENT[name]
    vectors = list(itertools.product(sc.elements, repeat=ambient))
    for rng, space in _random_subspaces(sc, ambient, seed=12):
        span = {space.combine(c) for c in itertools.product(sc.elements, repeat=space.dim)}
        assert len(span) == sc.size**space.dim
        for v in vectors:
            assert (space.coords(v) is not None) == (v in span)
        free = [j for j in range(ambient) if j not in space.pivots]
        if free:
            # a nonzero entry off the pivots moves a span vector out of the span
            v = list(space.combine(_random_vector(rng, sc, space.dim)))
            v[free[0]] = sc.add(v[free[0]], sc.one)
            assert space.coords(tuple(v)) is None


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_kernel_rows_annihilate_the_constraints(name):
    sc, ambient = SCALARS[name](), AMBIENT[name]
    rng = random.Random(13)
    vectors = list(itertools.product(sc.elements, repeat=ambient))
    for count in range(1, ambient + 1):
        constraints = [_random_vector(rng, sc, ambient) for _ in range(count)]
        kern = Subspace.kernel(sc, ambient, constraints)
        rank = Subspace.from_spanning(sc, ambient, constraints).dim
        assert kern.dim == ambient - rank
        for row in kern.rows:
            assert all(sc.dot(c, row) == 0 for c in constraints)
        solutions = {v for v in vectors if all(sc.dot(c, v) == 0 for c in constraints)}
        assert solutions == {v for v in vectors if kern.contains(v)}


@pytest.mark.parametrize("tower", [(3, 1, 1), (3, 2, 1), (5, 2, 1), (3, 7, 1)])
def test_rref_matches_per_entry_reference(tower):
    # F_3^7 is above the size where the tower keeps full tables
    sc = make_tower(*tower).base
    rng = random.Random(sum(tower))
    for _ in range(40):
        width = rng.randint(1, 7)
        rows = [
            tuple(rng.choice(sc.elements) if rng.random() < 0.6 else 0 for _ in range(width))
            for _ in range(rng.randint(0, 6))
        ]
        # repeat a combination of two rows now and then, so ranks fall short
        if len(rows) > 2:
            rows.append(tuple(sc.add(a, sc.mul(2, b)) for a, b in zip(rows[0], rows[1])))
        assert rref(rows, sc) == reference.rref(rows, sc), rows
