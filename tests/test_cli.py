import hashlib
import json

import pytest

from superchar.cli import main
from superchar.involution_group import G_SPACE_GUARD

# sha256 of `superchar table` stdout, captured before the involution and
# algebra-group theories shared one pipeline
TABLE_SHA256 = {
    ("UT", "2", "json"): "b605f37e9c5c0fda37415d1eed4edfeba5403a03fb6f40f3a54acb12d3648f44",
    ("UT", "2", "csv"): "5b9c2f52f3593738fc59f074df93fd25bf2fec535dd4df0a500bf8b051d41ffd",
    ("UT", "3", "json"): "4f07c53cdfc3755b226c9c24899d2c4323de216afa0b5cc60a38ef8565fc82fa",
    ("UT", "3", "csv"): "af7c55d4f68feee020d5eb63b35bdc027d15c418dae549246e59792c9cd68ecf",
    ("UO", "4", "json"): "eb1a272a4d9ae51caf273ab80454ac2bd53e02f272c6c09f23351874d57a566b",
    ("UO", "4", "csv"): "47009fc74b9d9eca7498ec0f1a563d3146f10c67ffec5484188dd9bf6bfd48ee",
    ("USp", "4", "json"): "513a07ba996201aa714d05cbfc80dc2c6c1b1cdfaeb5d415435b25fe62730c31",
    ("USp", "4", "csv"): "7d7f82b6b758afbcc1badfa5c7793159ca0633c755c9639df1524dae8b3aea0f",
    ("UU", "3", "json"): "058fe1f7c6ddaef6db5c1f953f66f6603a7ceeacf33c7000a79c310899863758",
    ("UU", "3", "csv"): "13977968042ae41aad0ff3cc809d102a482adbc8fccabee7891799d585c79598",
    # captured before the rows were read off exponent vectors
    ("UO", "5", "json"): "f10b4dad628dd6fc4bfb772934845e3d4d2aee6b3def614aba1d00c2999b700d",
}

# sha256 of `superchar verify` and `superchar orbits` stdout, keyed by
# (command, family, n, p, extra flags), captured before TriMatrix stored
# its entries as a tuple of encodings
COMMAND_SHA256 = {
    ("verify", "UO", "4", "3"): "db887dd47a1f1a0d8e205eea569beee7fbb4d16657ac20e35cccf8371f997701",
    ("verify", "USp", "4", "3"):
        "be5506436c37ef45cd4f6ab04a8d1ff9fed9b5ffbba5d1288f42367efe4e3926",
    ("verify", "UT", "3", "3"): "068daf6f1a60ef93b9ba40359f7e152992fb0d7a9ec07a9ea4e2df79ae874f19",
    ("verify", "UU", "3", "3"): "0243a612ad05e8d3fa511efdbaa411293ccd24d6e5a686543a5c1f1853284045",
    ("orbits", "UO", "4", "3", "--space", "u"):
        "e6b20e4b7bb3368f7083b9f50b341fa8b9f0c58c3398bea031cd8ad9936f73fc",
    ("orbits", "UO", "4", "3", "--space", "dual"):
        "e375b06f1cbf773b34cb8aa92a7bc8510c580634974fde9f2a4f14a2b0ca1f16",
    ("orbits", "UO", "4", "3", "--space", "two-sided"):
        "bef4065d7254c8ae20eba43aaf521e5ff0bf0e60c0f06fdedb3380be7f393ce0",
    # kdim = 2: orbit order comes from the serialized matrix, not the flat tuple
    ("orbits", "UU", "3", "3", "--space", "u"):
        "f78f8c6169ee87ac834640f90503ad73aaa2df5cce67f068e08dba4941376300",
    # the closure walk of the induction oracle; captured before it
    ("verify", "UT", "3", "5"):
        "09677187987f1a4afff3c6ae34d36e66eacd550be107dbe3e10dfeec2a2a495d",
    # captured before the oracle used Frobenius's formula over conjugacy classes
    ("verify", "UO", "5", "3"):
        "302460253be58ea58ab52e960e9d9685ee22c8e90838e3ebc9eaafa95710330c",
    # captured after it: |U| = 729, and union-of-conjugacy became exhaustive
    # (it sampled 200 pairs before; no other line changed)
    ("verify", "UU", "4", "3"):
        "0578426177ed737e7a8ef458fd520980d42d7532feb0c5dfbe0fb09ee36d187d",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_json_uu3(capsys, tmp_path):
    out = tmp_path / "table.json"
    code, _, _ = run(
        capsys, "table", "--family", "UU", "--n", "3", "--p", "3", "--k", "2",
        "-o", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["spec"]["family"] == "UU"
    assert len(data["superclasses"]) == 11
    assert len(data["rows"]) == 11
    assert data["rows"][0]["degree"] == 1
    assert all(set(v) == {"p", "coeffs"} for v in data["rows"][0]["values"])


def test_table_ut2_abelian(capsys):
    code, out, _ = run(capsys, "table", "--family", "UT", "--n", "2", "--p", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 3 and len(data["superclasses"]) == 3


def test_table_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "UO", "--n", "3", "--p", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert lines[0].startswith("lambda,n_lambda,degree")
    assert "·z" in out  # cyclotomic rendering


def test_usp_odd_n_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--family", "USp", "--n", "3", "--p", "3")
    assert code == 1
    assert "even" in err


def test_missing_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "table")
    assert code == 1


def test_log_rejected_when_undefined(capsys):
    code, _, err = run(
        capsys, "table", "--family", "UO", "--n", "4", "--p", "3", "--springer", "log"
    )
    assert code == 1
    assert "logarithm" in err


def test_springer_rejected_for_ut(capsys):
    for springer in ("cayley", "log"):
        code, out, err = run(
            capsys, "table", "--family", "UT", "--n", "2", "--p", "3",
            "--springer", springer,
        )
        assert code == 1
        assert out == ""
        assert "g - 1" in err


def test_size_guard_exit_code(capsys):
    code, _, err = run(capsys, "table", "--family", "UT", "--n", "6", "--p", "5", "--e", "2")
    assert code == 3


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, "table", "--family", "UO", "--n", "3", "--p", "3",
        "-o", str(tmp_path / "no" / "such" / "dir" / "t.json"),
    )
    assert code == 4


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--family", "UO", "--n", "4", "--p", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "induction-identity" in out
    assert "intersection-partition" in out


def test_verify_single_check(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "UU", "--n", "3", "--p", "3", "--k", "2",
        "--check", "springer-independence",
    )
    assert code == 0
    assert "springer-rows" in out


def _verify_injected_fault(capsys, family):
    code, out, _ = run(
        capsys, "verify", "--family", family, "--n", "3", "--p", "3",
        "--check", "axioms", "--inject-fault",
    )
    assert code == 2
    assert "FAIL" in out and "axiom-" in out


def test_verify_fault_injection_names_axiom(capsys):
    _verify_injected_fault(capsys, "UO")


def test_verify_fault_injection_names_axiom_ut(capsys):
    _verify_injected_fault(capsys, "UT")


def test_verify_ut_family(capsys):
    code, out, _ = run(capsys, "verify", "--family", "UT", "--n", "3", "--p", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "superclasses-union-of-conjugacy" in out
    assert "induction-identity" in out


def test_verify_unknown_check(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "UO", "--n", "3", "--p", "3", "--check", "nope"
    )
    assert code == 1


def test_orbits_dump(capsys):
    code, out, _ = run(
        capsys, "orbits", "--family", "UU", "--n", "3", "--p", "3", "--k", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    rec = json.loads(lines[0])
    assert rec["orbit_id"] == 0 and rec["size"] == 1


def test_orbits_two_sided_for_ut(capsys):
    code, out, _ = run(
        capsys, "orbits", "--family", "UT", "--n", "3", "--p", "3",
        "--space", "two-sided",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 11


def test_orbits_u_space_rejected_for_ut(capsys):
    code, _, err = run(capsys, "orbits", "--family", "UT", "--n", "3", "--p", "3")
    assert code == 1


def test_unitary_check(capsys):
    code, out, _ = run(
        capsys, "unitary-check", "--family", "UU", "--n", "3", "--p", "3", "--k", "2"
    )
    assert code == 0
    assert "formula-values" in out
    assert "degree audit" in out
    assert "MISMATCH" in out  # the flagged n-odd self-arc degree formula


def test_unitary_check_requires_uu(capsys):
    code, _, err = run(capsys, "unitary-check", "--family", "UO", "--n", "3", "--p", "3")
    assert code == 1


def test_count_partitions(capsys):
    code, out, _ = run(
        capsys, "count-partitions", "--family", "UU", "--n", "3", "--p", "3"
    )
    assert code == 0 and "11" in out
    code, out, _ = run(
        capsys, "count-partitions", "--family", "UT", "--n", "3", "--p", "3"
    )
    assert code == 0 and "11" in out
    code, _, _ = run(capsys, "count-partitions", "--family", "UO", "--n", "3", "--p", "3")
    assert code == 1


def test_spec_file(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "UU", "n": 2, "p": 3, "k": 2}))
    code, out, _ = run(capsys, "table", "--spec", str(spec))
    assert code == 0
    assert json.loads(out)["spec"]["n"] == 2


@pytest.mark.parametrize(
    "data",
    [{"family": "UO", "p": 3}, {"family": "UO", "n": "4", "p": 3}, [1, 2]],
    ids=["missing-n", "string-n", "not-an-object"],
)
def test_malformed_spec_file_is_usage_error(capsys, tmp_path, data):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    code, out, err = run(capsys, "table", "--spec", str(spec))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_poset_flag(capsys, tmp_path):
    poset = tmp_path / "poset.txt"
    poset.write_text("4\n1 2\n3 4\n")
    code, out, _ = run(
        capsys, "table", "--family", "UO", "--n", "4", "--p", "3",
        "--poset", str(poset),
    )
    assert code == 0
    assert len(json.loads(out)["superclasses"]) == 3


def test_poset_mirror_rejection(capsys, tmp_path):
    poset = tmp_path / "poset.txt"
    poset.write_text("4\n1 2\n")
    code, _, err = run(
        capsys, "table", "--family", "UO", "--n", "4", "--p", "3",
        "--poset", str(poset),
    )
    assert code == 1
    assert "(3, 4)" in err


def test_byte_identical_outputs_across_runs(capsys, tmp_path):
    blobs = []
    for i in range(2):
        out = tmp_path / f"r{i}.csv"
        code, _, _ = run(
            capsys, "table", "--family", "USp", "--n", "4", "--p", "3",
            "--format", "csv", "-o", str(out),
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_theta_flag_changes_rows_but_not_classes(capsys):
    outs = []
    for theta in ("standard", "alternate"):
        code, out, _ = run(
            capsys, "table", "--family", "UU", "--n", "3", "--p", "3", "--k", "2",
            "--theta", theta,
        )
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["superclasses"] == outs[1]["superclasses"]
    assert outs[0]["rows"] != outs[1]["rows"]


def test_table_bytes_match_pinned_digests(capsys):
    for (family, n, fmt), digest in TABLE_SHA256.items():
        k = "2" if family == "UU" else "1"
        code, out, _ = run(
            capsys, "table", "--family", family, "--n", n, "--p", "3", "--k", k,
            "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, n, fmt)


def test_verify_and_orbits_bytes_match_pinned_digests(capsys):
    for (cmd, family, n, p, *extra), digest in COMMAND_SHA256.items():
        k = "2" if family == "UU" else "1"
        code, out, _ = run(
            capsys, cmd, "--family", family, "--n", n, "--p", p, "--k", k, *extra
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (cmd, family, n, p, *extra)


def test_ambient_scan_guard_refuses_ut6_f3(capsys):
    # ut_6(F_3) has 3^15 points; check the guard before anything is built.
    # The two-sided orbit dump still scans the whole ambient space.
    assert 3**15 > G_SPACE_GUARD
    code, _, err = run(
        capsys, "orbits", "--family", "UO", "--n", "6", "--p", "3",
        "--space", "two-sided",
    )
    assert code == 3
    assert "guard" in err


def test_verify_uo6_intersection(capsys):
    # the chain poset needs no ambient scan: U is grouped by canonical forms
    code, out, _ = run(
        capsys, "verify", "--family", "UO", "--n", "6", "--p", "3",
        "--check", "intersection",
    )
    assert code == 0
    assert "PASS   intersection-partition" in out
