"""The torus and scalar moves: ``table`` histograms only the first class
of each orbit of the moves and fills every other column by a row
permutation; ``verify``'s torus-equivariance check compares both sides
on the table built without moves."""

import pytest

from superchar import cli, sct
from superchar.cyclotomic import CycloValue
from superchar.errors import VerificationError
from superchar.involution_group import GroupSpec, build_group
from superchar.sct import (
    alternate_theta,
    standard_theta,
    supercharacters,
    theory,
    torus_moves,
    verify_torus_equivariance,
)
from superchar.triangular import MirrorPoset


def _group(family, n, p, e=1, poset=None):
    k = 2 if family == "UU" else 1
    pairs = None if poset is None else MirrorPoset.from_pairs(n, poset)
    return build_group(GroupSpec(family=family, n=n, p=p, e=e, k=k, poset=pairs))


def _histogram_calls(monkeypatch, bg, moves):
    """The rows built along ``moves``, and the number of histogram passes
    they took."""
    calls = []
    histograms = sct.DigitColumns.histograms
    monkeypatch.setattr(
        sct.DigitColumns,
        "histograms",
        lambda self, *args: calls.append(args) or histograms(self, *args),
    )
    sc_table = sct._superclass_table(bg, "cayley")
    scht = supercharacters(bg, "cayley", standard_theta(bg), sc_table, moves)
    return scht, len(calls)


# (family, n, p, e): (classes, columns that take a histogram pass)
COLUMN_ORBITS = {
    ("UO", 4, 3, 1): (5, 3),
    ("USp", 4, 3, 1): (17, 8),
    ("UO", 5, 3, 1): (13, 6),
    ("UU", 4, 3, 1): (41, 7),
    ("UU", 3, 3, 1): (11, 3),
    ("UO", 6, 3, 1): (29, 11),
    ("USp", 4, 5, 1): (49, 8),
    ("UO", 4, 3, 2): (17, 3),
    ("UO", 3, 3, 3): (27, 2),
    ("UU", 3, 5, 1): (29, 3),
}


@pytest.mark.parametrize("spec", sorted(COLUMN_ORBITS), ids=str)
def test_moves_leave_one_histogram_per_column_orbit(monkeypatch, spec):
    bg = _group(*spec)
    scht, passes = _histogram_calls(monkeypatch, bg, torus_moves(bg))
    assert (scht.count, passes) == COLUMN_ORBITS[spec]
    # without moves every column takes its own pass
    assert _histogram_calls(monkeypatch, bg, ())[1] == scht.count


def _fill_specs():
    """Every family on the chain with n <= 5 that the guards admit, at
    p = 3 and 5; F_9 scalars; the two non-chain posets that verify pins."""
    specs = [
        (family, n, p, 1, None)
        for p in (3, 5)
        for family, sizes in (("UO", range(1, 6)), ("USp", (2, 4)), ("UU", range(1, 6)))
        for n in sizes
        if not (family == "UU" and n == 5 and p == 5)  # |u| = 5^10 is past u's guard
    ]
    specs += [("UO", 4, 3, 2, None), ("USp", 4, 3, 2, None), ("UU", 3, 3, 2, None)]
    specs += [("UU", 4, 3, 1, [(1, 2), (3, 4)]), ("UO", 5, 3, 1, [(1, 2), (4, 5), (1, 3), (3, 5)])]
    return specs


@pytest.mark.parametrize("spec", _fill_specs(), ids=str)
def test_filled_table_equals_the_direct_table(spec):
    family, n, p, e, poset = spec
    bg = _group(family, n, p, e, poset)
    moves = torus_moves(bg)
    for name in bg.springer_names():
        sc_table = sct._superclass_table(bg, name)
        for theta in (standard_theta(bg), alternate_theta(bg)):
            direct = supercharacters(bg, name, theta, sc_table)
            filled = supercharacters(bg, name, theta, sc_table, moves)
            assert [(r.lam, r.n_lambda, r.degree) for r in filled.rows] == [
                (r.lam, r.n_lambda, r.degree) for r in direct.rows
            ]
            assert [r.values for r in filled.rows] == [r.values for r in direct.rows]


def test_table_cli_passes_the_moves_and_verify_builds_without(capsys, monkeypatch):
    passed = []
    tables = cli._tables
    monkeypatch.setattr(
        cli, "_tables", lambda bg, args, *moves: passed.append(moves) or tables(bg, args, *moves)
    )
    spec = ["--family", "USp", "--n", "4", "--p", "3"]
    assert cli.main(["table", *spec]) == 0
    assert cli.main(["table", "--family", "UT", "--n", "3", "--p", "3"]) == 0
    assert cli.main(["verify", *spec, "--check", "torus-equivariance"]) == 0
    assert "PASS   torus-equivariance: 3 moves x 17 classes x 17 rows, exhaustive" in (
        capsys.readouterr().out
    )
    bg = build_group(GroupSpec(family="USp", n=4, p=3))
    assert passed == [(torus_moves(bg),), ((),), ()]


# -- faults ---------------------------------------------------------------------


def _check(bg):
    (result,) = verify_torus_equivariance(bg, *theory(bg)).results
    return result


def test_equivariance_fails_on_a_perturbed_row_map(monkeypatch):
    bg = _group("USp", 4, 3)
    assert _check(bg).passed
    move_maps = sct._move_maps

    def swapped(sc_table, rows, images):
        class_map, row_map = move_maps(sc_table, rows, images)
        if images == torus_moves(bg)[0]:
            row_map = [row_map[1], row_map[0], *row_map[2:]]
        return class_map, row_map

    monkeypatch.setattr(sct, "_move_maps", swapped)
    result = _check(bg)
    assert result.name == "torus-equivariance" and result.passed is False
    assert result.detail.startswith("move 0 maps class ")


def test_equivariance_fails_on_a_perturbed_filled_cell():
    bg = _group("UO", 5, 3)
    sc_table, scht = theory(bg)
    # a class that some move reaches from another: table fills its column
    class_map, _ = sct._move_maps(sc_table, scht.rows, torus_moves(bg)[0])
    k = next(b for a, b in enumerate(class_map) if a != b)
    rows = list(scht.rows)
    values = list(rows[-1].values)
    values[k] = values[k] + CycloValue.integer(bg.tower.p, 1)
    rows[-1] = rows[-1].replace(values=values)
    (result,) = verify_torus_equivariance(bg, sc_table, scht.replace(rows=rows)).results
    assert result.name == "torus-equivariance" and result.passed is False
    assert _check(bg).passed  # the kept table is left as it was


def _zero_move(bg):
    return (((0,) * bg.u_basis.dim,) * bg.u_basis.dim,)


def test_table_refuses_a_move_whose_class_map_is_not_a_permutation():
    bg = _group("UO", 4, 3)
    sc_table = sct._superclass_table(bg, "cayley")
    with pytest.raises(VerificationError, match="class map is not a permutation"):
        supercharacters(bg, "cayley", standard_theta(bg), sc_table, _zero_move(bg))


def test_table_refuses_a_move_whose_row_map_is_not_a_permutation(monkeypatch):
    # A^T read as the zero map sends every row to the zero functional's
    bg = _group("UO", 4, 3)
    sc_table = sct._superclass_table(bg, "cayley")
    monkeypatch.setattr(sct, "transpose", lambda rows: [(0,) * len(rows)] * len(rows))
    with pytest.raises(VerificationError, match="row map is not a permutation"):
        supercharacters(bg, "cayley", standard_theta(bg), sc_table, torus_moves(bg))


def test_table_refuses_a_move_that_changes_n_lambda():
    # one row's stabiliser orbit read as a single point: its n_lambda
    # grows, and a move sends it to a row whose n_lambda did not
    bg = _group("USp", 4, 3)
    sc_table, scht = theory(bg)
    moved = next(
        scht.rows[r]
        for images in torus_moves(bg)
        for r, b in enumerate(sct._move_maps(sc_table, scht.rows, images)[1])
        if r != b and scht.rows[r].h_orbit_size > 1
    )
    rec = sc_table.record
    stabiliser = rec.stabiliser
    faulted = rec.replace(
        stabiliser=lambda g, lam: {lam} if lam == moved.lam else stabiliser(g, lam)
    )
    with pytest.raises(VerificationError, match="does not keep n_lambda"):
        supercharacters(
            bg, "cayley", standard_theta(bg), sc_table.replace(record=faulted), torus_moves(bg)
        )


def test_table_exits_2_on_a_bad_move(capsys, monkeypatch):
    monkeypatch.setattr(cli, "torus_moves", _zero_move)
    code = cli.main(["table", "--family", "UO", "--n", "4", "--p", "3"])
    assert code == 2
    assert "class map is not a permutation" in capsys.readouterr().err


def test_verify_fails_by_name_on_a_bad_move(capsys, monkeypatch):
    monkeypatch.setattr(sct, "torus_moves", _zero_move)
    code = cli.main(["verify", "--family", "UO", "--n", "4", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL   torus-equivariance: a torus move's class map is not a permutation" in out
