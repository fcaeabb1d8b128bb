"""The package's plain record classes, and what importing the CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from superchar.gf import make_tower
from superchar.involution_group import GroupSpec
from superchar.record import Record
from superchar.sct import CheckResult, Report
from superchar.triangular import MirrorPoset
from superchar.unitary import TwistedSetPartition

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_no_dataclasses_or_json():
    # -S: no site hooks, so only what the interpreter itself loads is there
    code = (
        "import sys; before = set(sys.modules); import superchar.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "superchar.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "random"}


class _Pair(Record):
    left: int
    right: list = list
    _memo: dict = dict


def test_record_defaults_repr_equality_and_replace():
    a = _Pair(1)
    assert a.right == [] and a.right is not _Pair(1).right and a._memo == {}
    assert repr(a) == "_Pair(left=1, right=[])"
    assert a == _Pair(left=1, right=[], _memo={}) and a != _Pair(1, [2])
    b = a.replace(left=2)
    assert (b.left, a.left) == (2, 1) and b.right is a.right
    with pytest.raises(TypeError):
        hash(a)


def test_record_constructor_errors():
    with pytest.raises(TypeError, match="needs the field 'p'"):
        GroupSpec("UO", 3)
    with pytest.raises(TypeError, match="takes 7 fields"):
        GroupSpec("UO", 3, 3, 1, 1, None, None, 9)
    with pytest.raises(TypeError, match="unexpected fields"):
        GroupSpec("UO", 3, 3, n=3)
    with pytest.raises(TypeError, match="unexpected fields"):
        GroupSpec("UO", 3, 3).replace(q=9)


def test_group_spec_equality_hash_and_replace():
    spec = GroupSpec("UU", 3, 3, k=2)
    assert (spec.e, spec.k, spec.poset, spec.scalar_degree) == (1, 2, None, None)
    same = GroupSpec(family="UU", n=3, p=3, e=1, k=2, poset=None, scalar_degree=None)
    assert spec == same and len({spec, same}) == 1
    assert hash(spec) == hash(("UU", 3, 3, 1, 2, None, None))
    assert spec != GroupSpec("UU", 3, 5, k=2) and spec != ("UU", 3, 3, 1, 2, None, None)
    assert repr(spec) == (
        "GroupSpec(family='UU', n=3, p=3, e=1, k=2, poset=None, scalar_degree=None)"
    )
    wider = spec.replace(scalar_degree=2)
    assert (wider.scalar_degree, wider.n, spec.scalar_degree) == (2, 3, None)
    with pytest.raises(AttributeError):
        spec.n = 4


@pytest.mark.parametrize(
    "fields,message",
    [
        (dict(family="UX", n=3, p=3), "unknown family"),
        (dict(family="UO", n=0, p=3), "n must be positive"),
        (dict(family="USp", n=3, p=3), "USp needs even n"),
        (dict(family="UU", n=3, p=3), "UU needs k = 2"),
        (dict(family="UO", n=4, p=3, poset=MirrorPoset.chain(3)), "poset size"),
    ],
)
def test_group_spec_validation(fields, message):
    with pytest.raises(ValueError, match=message):
        GroupSpec(**fields)


def test_group_spec_replace_validates():
    with pytest.raises(ValueError, match="USp needs even n"):
        GroupSpec("USp", 4, 3).replace(n=5)


def test_twisted_set_partition_hashes_by_its_fields():
    T9 = make_tower(3, 1, 2)
    a = TwistedSetPartition.from_arcs(3, T9, [(1, 2, 1)])
    b = TwistedSetPartition(3, frozenset(a.arcs))
    assert a == b and len({a, b}) == 1 and hash(a) == hash((3, a.arcs))
    assert a != TwistedSetPartition.from_arcs(3, T9, [(1, 2, 5)])
    assert repr(a).startswith("Twisted[")
    with pytest.raises(AttributeError):
        a.n = 4


def test_check_result_line():
    assert CheckResult("axiom", True).line() == "PASS   axiom"
    assert CheckResult("axiom", False, "2 rows").line() == "FAIL   axiom: 2 rows"
    assert CheckResult(name="audit", passed=None, detail="x").line() == "REPORT audit: x"
    assert CheckResult("a", True) == CheckResult("a", True, "")


def test_report_defaults():
    first, second = Report("X"), Report("Y")
    assert first.results == []
    first.add("a", True)
    assert second.results == []
    assert first.lines() == ["== X", "PASS   a"]
    assert first.ok and not Report("Z", [CheckResult("b", False)]).ok
