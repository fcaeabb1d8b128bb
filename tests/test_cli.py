import ast
import hashlib
import json
import random
import shlex
from pathlib import Path

import pytest

from superchar import cli
from superchar.cli import main
from superchar.cyclotomic import CycloValue
from superchar.involution_group import G_SPACE_GUARD

BENCH_RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

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

# sha256 of `superchar verify`, `orbits` and `table` stdout, keyed by
# (command, family, n, p, extra flags); the first ones captured before
# TriMatrix stored its entries as a tuple of encodings.  Each entry marked
# "exhaustive" was re-captured when every sampled check became exhaustive:
# only the detail strings of dagger-action-restricts-to-conjugation,
# springer-*-leading-term, springer-adjoint-equivariance,
# extension-restriction and axiom-constancy changed, and for unitary-check
# the two report headers, which lost their "(sample seed N)".  Every
# UO, USp and UU verify pin was re-captured when torus-equivariance joined
# verify: only its PASS line and the summary count changed
COMMAND_SHA256 = {
    # exhaustive
    ("verify", "UO", "4", "3"): "dfd5f6775b741d656cec6a37042e9abeb39d8d0e93a526a2ab5d117d62f1788f",
    # exhaustive
    ("verify", "USp", "4", "3"):
        "0625b34bcc07cc6996e9754b7d36521e3182c3b6a812415dbea75dd0d541aa7a",
    ("verify", "UT", "3", "3"): "068daf6f1a60ef93b9ba40359f7e152992fb0d7a9ec07a9ea4e2df79ae874f19",
    # exhaustive
    ("verify", "UU", "3", "3"): "6894ba84c4aef32e1b4862e11e15ba47b0ca1ce3ac8402d54cf9d718819d90d0",
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
    # captured before the oracle used Frobenius's formula over conjugacy
    # classes; exhaustive
    ("verify", "UO", "5", "3"):
        "d45047aaeaed45124c18b668b70d4cd57bdd134897adc68b3c1b1164bed19045",
    # captured after it: |U| = 729, and union-of-conjugacy became exhaustive
    # (it sampled 200 pairs before; no other line changed); exhaustive
    ("verify", "UU", "4", "3"):
        "2c08345742ae5e1868bf3d3f0a7f47584e4746ceff837a043d9b775040470bdc",
    # captured while left-multiplication-collapse walked all of G x; exhaustive
    ("verify", "UO", "6", "3", "--check", "structure"):
        "0e14df12745f86c5ca63eff0e56783f25ae19aa833e691ac30e9acb5b2e4dbaf",
    # captured once U was built on first use; before, build_group refused
    # UU6(F_9) at the guard (exit 3) although the audit never reads U
    ("verify", "UU", "6", "3", "--check", "degree-audit"):
        "80c07cb83c0df2e3ff27d25e1e3cb594d64a48f99ff62a3c55c4b27fa52ab186",
    # the truncated logarithm's tables and checks; captured while every
    # table evaluated f on all of U; the two verify pins exhaustive
    ("table", "UU", "3", "3", "--springer", "log"):
        "8669ce56a4103faae548c1b595ac7f6228d131a391e833cf0e0abad53a50454a",
    ("table", "USp", "4", "5", "--springer", "log"):
        "dfb8b721728faaf26746bae463fa53001c45962d45140a400fe38cbd6606fae2",
    ("verify", "USp", "4", "5"): "cb9de9e64b23ddb6d62259ffca9120c65bd1535a8159d290d0e68d45853c5369",
    ("verify", "UO", "4", "5"): "863f5d1326954b6b95c07304cb15721e324cbc42fe4a9776a764b3cfb12c8e32",
    # edge layouts, captured before the kernels were generated: dim u = 0
    # (UO1, and UO2 with its one slot outside u) and a single slot (UT2);
    # the UO1 and UO2 verify pins exhaustive
    ("table", "UO", "1", "3"): "a13b04061072132a08d3d5f1fb9f84b9f497b63a0ec327bb93879acebac9785f",
    ("verify", "UO", "1", "3"): "2612ed40643280e39a2141a74d5848735125c9b89500d7979c3660272693c301",
    ("table", "UO", "2", "3"): "86dfdaeb66a4b59ce7922f5e69ab9e3f604a8cfcfe62dd8082bb738675c1589b",
    ("verify", "UO", "2", "3"): "9d82ce37556dc57d24b9d09b8c151a30b1c74a3a25c0f52938722811687c6aee",
    ("table", "UT", "2", "3"): "b605f37e9c5c0fda37415d1eed4edfeba5403a03fb6f40f3a54acb12d3648f44",
    ("verify", "UT", "2", "3"): "854fa88af1de4d3f8eed3a1e4727d51af999e8c742150a15ee58f4e24c3023aa",
    # scalars F_9 with p = 3: the F_p-span of a set of vectors is larger
    # than its F_q-span; captured while the oracle checked every row's
    # additivity along the walk; exhaustive
    ("verify", "UO", "4", "3", "--e", "2"):
        "10cdca636c2cbe530a2e06bd89385e2eca86fa452cdcb4bac70b4fb2df9107f2",
    ("verify", "UU", "3", "3", "--e", "2"):
        "ae27462843fc2d3d2798b1973b1b0d0365a97eb83e05ecf8b073c0fafa682b83",
    # the log map with the alternate theta, and the unitary check under it;
    # captured while the CLI kept each run's tables in its own state; all
    # three exhaustive
    ("verify", "UU", "3", "3", "--springer", "log", "--theta", "alternate"):
        "6894ba84c4aef32e1b4862e11e15ba47b0ca1ce3ac8402d54cf9d718819d90d0",
    ("verify", "USp", "4", "5", "--springer", "log", "--theta", "alternate"):
        "cb9de9e64b23ddb6d62259ffca9120c65bd1535a8159d290d0e68d45853c5369",
    ("unitary-check", "UU", "3", "3", "--theta", "alternate"):
        "f37a09920ec4a8be606e8b6fe6cc2223f0ab0b931426997472f380da99632476",
    # captured while the rows and the oracle read exponent vectors laid out
    # over the whole product space: the benchmark's own table, and scalars
    # F_9 inside F_81 (two F_p-digits per coordinate) with the alternate theta
    ("table", "USp", "6", "3"): "4858dcbd1c0581cd72b89aab028eb081280ccd6ff265fe9f945d30010ba6dd93",
    ("table", "UU", "3", "3", "--e", "2", "--theta", "alternate"):
        "77a5d2f8b38517ea0e1fbd208ba3ec17ce57f46fe0bebde15ea377d3a29b415e",
    # p = 7: six power-basis coefficients per cell; captured while the
    # orthogonality and regular-sum checks summed CycloValue objects one
    # pair at a time
    ("verify", "UT", "3", "7"): "15d1aed552b31f29e72ded0017ec93352660e48e3c56a049fccb83e78030e5cc",
    ("verify", "UO", "4", "7"): "2cd25df5ae4a57f3efd5ec14e17c439b0c334f90af9baafcac763a7a38ab6290",
    # captured while each orbit partition was sorted by a key: scalars F_3
    # inside F_9, so a point's coordinates and its slot encodings, the key
    # the dump prints, order the orbits differently
    ("orbits", "UT", "3", "3", "--k", "2", "--space", "two-sided"):
        "e040345062517f5d935fb2662d4abc79edeae3ccaab080d20e5953e8a4b034c6",
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


@pytest.mark.parametrize(
    "n,p,message", [("0", "3", "n must be positive"), ("3", "0", "p = 0 is not prime")]
)
def test_zero_n_or_p_reports_the_spec_error(capsys, n, p, message):
    """--n 0 and --p 0 are given flags, so the spec's own error is shown."""
    for cmd in ("table", "count-partitions"):
        code, out, err = run(capsys, cmd, "--family", "UU", "--n", n, "--p", p)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


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
    assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")


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


def _with_fault(bg, scht):
    """A copy of the table with one cell of one row (its copy) off by 1;
    the table given, which ``theory`` keeps, is left as it is."""
    i = min(1, len(scht.rows) - 1)
    row = scht.rows[i]
    cid = min(1, len(row.values) - 1)
    values = list(row.values)
    values[cid] = values[cid] + CycloValue.integer(bg.tower.p, 1)
    rows = list(scht.rows)
    rows[i] = row.replace(values=values)
    return scht.replace(rows=rows)


@pytest.fixture
def faulted(monkeypatch):
    """Every table that ``verify`` fetches through ``cli._tables`` (the
    axiom, induction and unitary checks) comes back as a faulted copy of
    its rows; the independence checks still compare the clean cached
    tables."""
    tables = cli._tables

    def faulted_tables(bg, args):
        sct, scht = tables(bg, args)
        return sct, _with_fault(bg, scht)

    monkeypatch.setattr(cli, "_tables", faulted_tables)


def _verify_injected_fault(capsys, family):
    code, out, _ = run(
        capsys, "verify", "--family", family, "--n", "3", "--p", "3", "--check", "axioms"
    )
    assert code == 2
    assert "FAIL" in out and "axiom-" in out


def test_verify_fault_injection_names_axiom(capsys, faulted):
    _verify_injected_fault(capsys, "UO")


def test_verify_fault_injection_names_axiom_ut(capsys, faulted):
    _verify_injected_fault(capsys, "UT")


def test_inject_fault_is_not_a_verify_flag(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "UO", "--n", "3", "--p", "3", "--inject-fault"
    )
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "--inject-fault" in err


# sha256 of a full faulted `verify` (exit 2), captured while every check
# built its own tables and the fault came from a hidden CLI flag: the
# shared, faulted table reaches only the checks that read it, and
# theta-independence still compares clean rows.  Re-captured when every
# sampled check became exhaustive: only the structure checks' detail
# strings changed; and when torus-equivariance joined verify: it reads
# the faulted table and fails, so its FAIL line and the summary changed
FAULT_SHA256 = {
    "UO": "759e98ffab1fefc60d0a83d47fdae20dae1ba2e73aac06befee7379d2ce86e68",
    "USp": "ab066d5cc6a37ff5665cf162647dbaad6b10dc9cf730f3b38266772671b7c9f9",
}


@pytest.mark.parametrize("family", sorted(FAULT_SHA256))
def test_verify_fault_injection_full_run_is_pinned(capsys, faulted, family):
    code, out, _ = run(capsys, "verify", "--family", family, "--n", "4", "--p", "3")
    assert code == 2
    assert "PASS   theta-row-set" in out and "PASS   intersection-partition" in out
    assert hashlib.sha256(out.encode()).hexdigest() == FAULT_SHA256[family]


def test_verify_fault_injection_with_flags_is_pinned(capsys, faulted):
    """Under --springer log --theta alternate the faulted rows reach the
    axiom and induction checks only: springer-rows and theta-row-set
    compare clean rows, so they pass only while the faulted copy stays
    out of the cache.  Captured while the CLI kept each run's tables in
    its own state; re-captured when every sampled check became
    exhaustive: |U| = 625, where axiom-constancy used to sample, and it
    now fails too (27/31 checks pass, not 28/31).  Re-captured when
    torus-equivariance joined verify: it reads the faulted rows and fails
    too (27/32)."""
    code, out, _ = run(
        capsys, "verify", "--family", "USp", "--n", "4", "--p", "5",
        "--springer", "log", "--theta", "alternate",
    )
    assert code == 2
    assert "PASS   springer-rows" in out and "PASS   theta-row-set" in out
    assert "FAIL   axiom-constancy" in out and "== 27/32 checks passed" in out
    assert "FAIL   torus-equivariance" in out
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "88ec93600674af10f6e34fcbde43c381382b85637b5fc42a291734fc8fb78c6a"
    )


def _tables_built(capsys, monkeypatch, *argv):
    """(exit code, the tables that ``verify`` builds) as (primitive,
    Springer name, theta name) triples; every table is built in sct."""
    from superchar import sct

    built = []

    def counting(name):
        real = getattr(sct, name)

        def wrapper(bg, springer_name, *args, **kwargs):
            theta = args[0].name if args else None
            built.append((name, springer_name, theta))
            return real(bg, springer_name, *args, **kwargs)

        monkeypatch.setattr(sct, name, wrapper)

    counting("superclasses")
    counting("supercharacters")
    code, _, _ = run(capsys, "verify", *argv)
    return code, sorted(built)


def test_verify_builds_each_table_once(capsys, monkeypatch):
    """The intersection, springer-independence and theta-independence
    checks read the superclass table and standard rows that the axiom
    checks built; springer-independence builds only the log tables."""
    code, built = _tables_built(
        capsys, monkeypatch, "--family", "UU", "--n", "3", "--p", "3", "--k", "2"
    )
    assert code == 0
    assert built == sorted([
        ("superclasses", "cayley", None),  # shared
        ("supercharacters", "cayley", "standard"),  # shared
        ("superclasses", "log", None),  # springer-independence
        ("supercharacters", "log", "standard"),
        ("supercharacters", "cayley", "alternate"),  # theta-independence
    ])


def test_verify_with_log_and_alternate_builds_each_table_once(capsys, monkeypatch):
    """Under --springer log --theta alternate the log rows for the
    standard theta serve both independence checks, and the log superclass
    table every check that reads one."""
    code, built = _tables_built(
        capsys, monkeypatch, "--family", "UU", "--n", "3", "--p", "3", "--k", "2",
        "--springer", "log", "--theta", "alternate",
    )
    assert code == 0
    assert built == sorted([
        ("superclasses", "log", None),  # shared
        ("supercharacters", "log", "alternate"),  # shared
        ("superclasses", "cayley", None),  # springer-independence
        ("supercharacters", "cayley", "standard"),
        ("supercharacters", "log", "standard"),  # both independence checks
    ])


def test_verify_intersection_builds_only_the_superclass_table(capsys, monkeypatch):
    code, built = _tables_built(
        capsys, monkeypatch, "--family", "UO", "--n", "4", "--p", "3",
        "--check", "intersection",
    )
    assert code == 0
    assert built == [("superclasses", "cayley", None)]


def test_with_fault_leaves_the_cached_rows_unchanged():
    from superchar.involution_group import GroupSpec, build_group
    from superchar.sct import theory

    bg = build_group(GroupSpec(family="UO", n=4, p=3))
    _, scht = theory(bg)
    before = [(r.lam, r.n_lambda, r.degree, list(r.values)) for r in scht.rows]
    faulted = _with_fault(bg, scht)
    assert [r.values for r in faulted.rows] != [r.values for r in scht.rows]
    assert _with_fault(bg, scht).rows == faulted.rows
    assert theory(bg)[1] is scht
    assert [(r.lam, r.n_lambda, r.degree, list(r.values)) for r in scht.rows] == before


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


def test_unitary_check_exits_2_when_the_ennola_check_fails(capsys, monkeypatch):
    from superchar import unitary
    from superchar.sct import Report

    def failing(scht):
        rep = Report("ennola degrees")
        rep.add("ennola-degree-powers", False, "injected")
        return rep

    monkeypatch.setattr(unitary, "ennola_degree_check", failing)
    code, out, _ = run(
        capsys, "unitary-check", "--family", "UU", "--n", "3", "--p", "3", "--k", "2"
    )
    assert code == 2
    assert "FAIL   ennola-degree-powers: injected" in out.splitlines()


@pytest.mark.parametrize("n", ["3", "4"])
def test_unitary_check_runs_the_checks_of_verify(capsys, n):
    """The PASS and FAIL lines of unitary-check are those of verify
    --check unitary-formula, then of verify --check ennola-degrees."""

    def results(out):
        return [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]

    spec = ["--family", "UU", "--n", n, "--p", "3", "--k", "2"]
    code, out, _ = run(capsys, "unitary-check", *spec)
    assert code == 0
    verified = []
    for check in ("unitary-formula", "ennola-degrees"):
        code, checked, _ = run(capsys, "verify", *spec, "--check", check)
        assert code == 0
        verified += results(checked)
    assert results(out) == verified and len(verified) == 7


def test_verify_hit_by_a_guard_keeps_the_report(capsys, monkeypatch, tmp_path):
    """Off the chain the intersection check scans the ambient g (|g| =
    3^5 for the type-D UO4 poset).  With the guard below that, the
    results of every check before it are written, to stdout or -o, with
    no summary line, and the guard ends the run with exit 3."""
    monkeypatch.setattr("superchar.involution_group.G_SPACE_GUARD", 100)
    poset = tmp_path / "poset.txt"
    poset.write_text("4\n1 2\n1 3\n1 4\n2 4\n3 4\n")
    spec = ["--family", "UO", "--n", "4", "--p", "3", "--poset", str(poset)]
    code, out, err = run(capsys, "verify", *spec)
    assert code == 3
    assert err == "size guard: |g| = 243 exceeds the guard 100 (use --force to override)\n"
    lines = out.splitlines()
    assert lines[0] == "== verify UO4(F_3)|poset =="
    assert all(line.startswith("PASS   ") for line in lines[1:])
    names = {line.split()[1].rstrip(":") for line in lines[1:]}
    assert {
        "left-multiplication-collapse", "axiom-regular-sum", "induction-identity",
    } <= names
    assert lines[-1] == "PASS   orbit-count-duality: primal 9, dual 9"
    assert "intersection-partition" not in names and "checks passed" not in out
    written = tmp_path / "report.txt"
    code, stdout, _ = run(capsys, "verify", *spec, "-o", str(written))
    assert code == 3 and stdout == ""
    assert written.read_text() == out


def test_unitary_check_past_the_guard_prints_the_degree_audit(capsys):
    # UU6(F_9) has |u| = 3^15, past u's guard, but its degree audit needs no
    # table: it is written, then the guard ends the run with exit 3
    spec = ["--family", "UU", "--n", "6", "--p", "3", "--k", "2"]
    code, out, err = run(capsys, "unitary-check", *spec)
    assert code == 3
    assert err.startswith("size guard: |u| = 14348907") and err.count("\n") == 1
    lines = out.splitlines()
    assert lines[0] == "== degree audit UU6(F_9)"
    assert lines[-1].startswith("== 2 printed degree formulas disagree with brute force")
    code, audit, _ = run(capsys, "verify", *spec, "--check", "degree-audit")
    assert code == 0
    prefix = "REPORT degree-audit: "
    reported = [line[len(prefix) :] for line in audit.splitlines() if line.startswith(prefix)]
    assert lines[1:-1] == reported


def test_no_line_says_sample(capsys):
    # every check runs exhaustively, and the report headers carry no seed
    runs = [
        ("verify", "UO", "4", "3"), ("verify", "USp", "4", "3"), ("verify", "UO", "5", "3"),
        ("verify", "UU", "4", "3"), ("verify", "UT", "3", "5"), ("unitary-check", "UU", "4", "3"),
    ]
    for cmd, family, n, p in runs:
        k = "2" if family == "UU" else "1"
        code, out, _ = run(capsys, cmd, "--family", family, "--n", n, "--p", p, "--k", k)
        assert code == 0
        assert [line for line in out.splitlines() if "sampl" in line] == [], (cmd, family, n)


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
    "fields, flags",
    [
        ({"family": "UU", "n": 3, "p": 3}, ["--family", "UU", "--n", "3", "--p", "3"]),
        ({"family": "UO", "n": 3, "p": 3}, ["--family", "UO", "--n", "3", "--p", "3"]),
    ],
    ids=["UU", "UO"],
)
def test_spec_file_without_k_takes_the_flags_default(capsys, tmp_path, fields, flags):
    # k defaults to 2 for UU and 1 otherwise, from a spec file as from flags
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields))
    code, out, err = run(capsys, "table", "--spec", str(spec))
    assert (code, err) == (0, "")
    assert run(capsys, "table", *flags) == (0, out, "")


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


# sha256 of `superchar orbits` on UO4(F_3) with the poset {(1,2),(3,4)},
# captured while union-find built the orbit partitions
NON_CHAIN_ORBITS_SHA256 = {
    "u": "ff5e83fb69620581f0023a7cd0d8be9e1d4d28ec3bec6701f03188a38327595b",
    "dual": "3f9f5c6caa8956a3cf94a3d0f769be782720ea1228fae49eceb3ca887d70ff3a",
    "two-sided": "7fa0169a72f574ae91934d9c6a1902afdd093584f92fb1573f4859d8bf334602",
}


# sha256 of `superchar verify` on two non-chain posets, captured while U
# was a list of TriMatrix objects: the intersection check keys each element
# of U by its orbit in the scan of the ambient g, not by a normal form.
# Re-captured when torus-equivariance joined verify: only its PASS line and
# the summary count changed
POSET_VERIFY_SHA256 = {
    ("UU", "4", "3", "2", "4\n1 2\n3 4\n"):
        "46f4776acc7b033df61abd411b40239df941dbf079725986a7cef41e3434ac14",
    ("UO", "5", "3", "1", "5\n1 2\n4 5\n1 3\n3 5\n"):
        "41467352dfe4bdcc3fc770588842964163212b5b8e1c14fa5093d7285a911701",
}


def test_non_chain_verify_matches_pinned_digests(capsys, tmp_path):
    for (family, n, p, k, pairs), digest in POSET_VERIFY_SHA256.items():
        poset = tmp_path / f"{family}.txt"
        poset.write_text(pairs)
        code, out, _ = run(
            capsys, "verify", "--family", family, "--n", n, "--p", p, "--k", k,
            "--poset", str(poset),
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, family


def test_non_chain_orbit_dumps_match_pinned_digests(capsys, tmp_path):
    poset = tmp_path / "poset.txt"
    poset.write_text("4\n1 2\n3 4\n")
    for space, digest in NON_CHAIN_ORBITS_SHA256.items():
        code, out, _ = run(
            capsys, "orbits", "--family", "UO", "--n", "4", "--p", "3",
            "--poset", str(poset), "--space", space,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, space


def test_unitary_checks_need_the_chain(capsys, tmp_path):
    # the twisted-partition formulas and printed degrees are the chain's:
    # on a non-chain poset verify leaves them out, and asking for them is
    # a usage error
    poset = tmp_path / "poset.txt"
    poset.write_text("4\n1 2\n3 4\n")
    spec = ["--family", "UU", "--n", "4", "--p", "3", "--k", "2", "--poset", str(poset)]
    code, out, _ = run(capsys, "verify", *spec)
    assert code == 0
    assert "twisted-count" not in out and "degree-audit" not in out
    assert "PASS   ennola-degree-powers" in out
    code, _, err = run(capsys, "verify", *spec, "--check", "degree-audit")
    assert code == 1 and "inapplicable check 'degree-audit'" in err
    code, _, err = run(capsys, "unitary-check", *spec)
    assert code == 1 and "full chain" in err


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


# The straight-line compiles and the closure_of walks of one `verify`, from
# towers that hold no compiled kernel yet.  Each distinct map compiles once,
# and each H-orbit is walked once, so a compile or walk done twice moves
# these counts; before that, UO4 took 26 compiles and 39 walks, UU4 39 and 383.
# A walk matrix that is the identity is never compiled (17, 30 and 24
# compiles while it was).  USp4(F_5) has the truncated log, whose two kernels
# are among its compiles
VERIFY_WORK = {
    ("UO", "4", "3"): (16, 29),
    ("UU", "4", "3"): (28, 221),
    ("USp", "4", "5"): (22, 245),
}


@pytest.mark.parametrize("family,n,p", sorted(VERIFY_WORK))
def test_verify_compiles_and_walks_each_job_once(capsys, monkeypatch, family, n, p):
    from superchar import orbits, sct, triangular
    from superchar.gf import make_tower

    k = "2" if family == "UU" else "1"
    compiles, walks = [], []
    compile_program, walk = triangular.straight_line, orbits.closure_of
    monkeypatch.setattr(
        triangular, "straight_line", lambda *a: compiles.append(a) or compile_program(*a)
    )
    for module in (orbits, sct):
        monkeypatch.setattr(module, "closure_of", lambda *a: walks.append(a) or walk(*a))
    monkeypatch.setattr(make_tower(int(p), 1, int(k)), "kernels", {})
    code, out, _ = run(capsys, "verify", "--family", family, "--n", n, "--p", p, "--k", k)
    assert code == 0 and "FAIL" not in out
    assert (len(compiles), len(walks)) == VERIFY_WORK[family, n, p]


def test_each_action_matrix_is_built_once_per_group(capsys, monkeypatch):
    """table USp4(F_5) walks u, u* and u* under H, over 4 distinct
    generators; each generator's u-action matrix is built once and the
    dual walks read its transpose (9 builds while each walk built its own)."""
    from superchar import orbits

    built, build = [], orbits._MATRIX_FNS["u"]
    monkeypatch.setitem(
        orbits._MATRIX_FNS, "u", lambda bg, g: built.append(g.encs) or build(bg, g)
    )
    code, _, _ = run(capsys, "table", "--family", "USp", "--n", "4", "--p", "5")
    assert code == 0
    assert len(built) == len(set(built)) == 4


# Once a group is built its elements are slot-encoding tuples, so no
# command builds a TriMatrix for each element: on USp4(F_5), |U| = 625, each
# command below builds fewer than |U|/2 of them, counted through
# TriMatrix.__init__ and from_encs.  While U was a list of TriMatrix objects
# they built 726, 726, 839, 678 and 727
@pytest.mark.parametrize(
    "argv",
    [("table",)]
    + [
        ("verify", "--check", check)
        for check in ("axioms", "induction", "intersection", "springer-independence")
    ],
    ids=["table", "axioms", "induction", "intersection", "springer-independence"],
)
def test_no_command_builds_a_trimatrix_per_element(capsys, monkeypatch, argv):
    from superchar.triangular import TriMatrix

    built = []
    init, from_encs = TriMatrix.__init__, TriMatrix.from_encs.__func__
    monkeypatch.setattr(TriMatrix, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(
        TriMatrix, "from_encs", classmethod(lambda cls, *a: built.append(a) or from_encs(cls, *a))
    )
    code, out, _ = run(capsys, argv[0], "--family", "USp", "--n", "4", "--p", "5", *argv[1:])
    assert code == 0 and "FAIL" not in out
    assert 0 < len(built) < 625 // 2


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


def test_only_verification_errors_exit_2(capsys, monkeypatch):
    """A failed invariant (VerificationError) is reported with exit code 2;
    a bare AssertionError is a bug and propagates out of main."""
    from superchar import cli
    from superchar.errors import VerificationError

    argv = ["verify", "--family", "UO", "--n", "3", "--p", "3", "--check", "duality"]

    def failing(exc):
        def check(bg):
            raise exc

        return check

    monkeypatch.setattr(cli, "verify_duality", failing(VerificationError("broken invariant")))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "verification failure: broken invariant" in err
    monkeypatch.setattr(cli, "verify_duality", failing(AssertionError("a bug")))
    with pytest.raises(AssertionError, match="a bug"):
        main(argv)


# each subcommand's --help and one usage error, the root's help, no
# command, an unknown command and an option before the command
PARSE_CASES = [[name, "--help"] for name in cli._COMMANDS] + [
    ["table", "--format", "xml"],
    ["verify", "--n", "four"],
    ["orbits", "--space", "left"],
    ["unitary-check", "--theta", "other"],
    ["count-partitions", "--bogus"],
    ["--help"],
    [],
    ["frobnicate", "--family", "UO"],
    ["--family", "UO", "verify"],
]


def _parse(capsys, parser, argv):
    """What parsing argv does: the namespace, the usage error or the exit
    code, with the bytes written to stdout and stderr."""
    try:
        outcome = ("args", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    except cli._UsageError as exc:
        outcome = ("usage error", str(exc))
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parser_for_one_command_prints_what_the_full_parser_does(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    lazy = _parse(capsys, cli.build_parser(argv), argv)
    assert lazy == _parse(capsys, cli.build_parser(), argv)
    assert lazy[0][0] != "args"
    # main writes the same usage error as the full parser and exits 1
    if lazy[0][0] == "usage error":
        assert run(capsys, *argv) == (1, "", f"usage error: {lazy[0][1]}\n")


def test_parser_fills_in_only_the_named_command():
    parser = cli.build_parser(["verify", "--n", "3"])
    assert parser.parse_args(["verify", "--n", "3"]).n == 3
    with pytest.raises(cli._UsageError, match="unrecognized arguments: --n 3"):
        parser.parse_args(["table", "--n", "3"])


# sha256 of json.dumps([exit code, stdout, stderr]) of main(argv) with
# COLUMNS=80, keyed by " ".join(argv): the root's help, each subcommand's
# help and each usage error of PARSE_CASES; captured while argparse read
# every command line; "--help" re-captured when the root parser took a
# one-line description of its own instead of the module's docstring
PARSE_SHA256 = {
    "--help": "db3f0ceaefed6a54c00eed846690cd7e4de2b41c88900ab1b0e1dc521f3fd694",
    "table --help": "b0b10ef12dac83db52db56c26a5114c9cd8987eaa9f1d5ae60e6db4c3cb0aff1",
    "verify --help": "ee30fd519d6782207fb5b2ed6c6fe7f0da7e7e3f8430c632b16571e0d1964dfa",
    "orbits --help": "47acb99b2ba8b9c6e9c33e2b4d76939712238cb7832785760076d6bdcab6a96a",
    "unitary-check --help": "355e3e3dcb2898076d675bbbb307a562f8e520992ca86ab96b0d849a17be343a",
    "count-partitions --help": "c645787d304e6ef427bfcdc687010326231553e2b749467f40f401ded50db70f",
    "table --format xml": "66ad05b12369db388dd32f2fb1151c3d928c88e93028ee9b38fcc7175795847f",
    "verify --n four": "e88f35d05f564dbab26ab6b446e8d7a974f83318055b36819d8d35b4f8a27830",
    "orbits --space left": "ee09dc124fdd994994fbd59f2269bc0a70493913d0b338ff92a17f7f3e1b7818",
    "unitary-check --theta other":
        "8f358851e9984d4a514464c464e00a75ca943e180d600b253814a48d7aff009f",
    "count-partitions --bogus": "d10fb04e6d7418e3f7d5d234af46aa9f5a4aaf2fe3d23f71769d73735f1852f4",
    "": "5804634dee7c84ec973dcce5fb0209817910960c7c8422d8b49044721fed11ba",
    "frobnicate --family UO": "6240d0c7889e7c433919bd0335350d558aaa034da42663ab5c386f23181b2989",
    "--family UO verify": "c0deadccfdd70f8b2943af7c635c488f706b96ac49f56948f198669e2f10719e",
}


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_help_and_usage_errors_match_pinned_digests(capsys, monkeypatch, argv):
    """The exact-form reader refuses each case, so argparse writes the
    same bytes as when it read every command line."""
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._read_exact(argv) is None
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help exits from inside argparse
        code = exc.code
    captured = capsys.readouterr()
    got = json.dumps([code, captured.out, captured.err]).encode()
    assert hashlib.sha256(got).hexdigest() == PARSE_SHA256[" ".join(argv)]


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, from the lazy and the full
    parser, which agree."""
    lazy = vars(cli.build_parser(argv).parse_args(argv))
    assert lazy == vars(cli.build_parser().parse_args(argv))
    return lazy


def _benchmark_specs():
    """The benchmark's cmd:family:n:p specs, read from perfbench/run.py
    without running it."""
    tree = ast.parse(BENCH_RUNNER.read_text(), str(BENCH_RUNNER))
    (workloads,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WORKLOADS"]
    ]
    return sorted({spec for specs in workloads.values() for spec in specs})


def _scripted_command_lines():
    """The benchmark's command lines, each spec as both verify and table
    (the runner's argv form), and the README's CLI examples."""
    from test_readme import _examples

    lines = []
    for spec in _benchmark_specs():
        _, family, n, p = spec.split(":")
        for command in ("verify", "table"):
            lines.append([command, "--family", family, "--n", n, "--p", p])
    for line in _examples():
        lines.append(shlex.split(line.partition("#")[0])[1:])
    return lines


@pytest.mark.parametrize("argv", _scripted_command_lines(), ids=" ".join)
def test_reader_takes_every_scripted_command_line(argv):
    args = cli._read_exact(argv)
    assert args is not None
    assert vars(args) == _argparse_vars(argv)


# values for each option, all valid; int() takes signs, padding, underscores
# and other digits as argparse's type=int does
_STRINGS = ["spec.json", "a b", "", "=", "verify", "UU", "x=1"]
_INTS = ["3", "007", "+4", " 5 ", "1_0", "٣"]


def _valid_values(keywords):
    if "choices" in keywords:
        return keywords["choices"]
    return _INTS if keywords.get("type") is int else _STRINGS


def _broken_forms(argv, i):
    """argv broken at the option that starts at argv[i], in each way the
    exact form excludes."""
    flag, rest = argv[i], argv[i + 1 :]
    valued = bool(rest) and not rest[0].startswith("-")
    token = argv[i : i + 1 + valued]
    forms = [
        argv + token,  # a repeat
        argv + ["--bogus"],
        argv + ["stray"],
        argv + ["--help"],
        argv[1:] + argv[:1],  # the options before the command
    ]
    if len(flag) > 4:
        forms.append(argv[:i] + [flag[:-1]] + rest)  # an abbreviation
    if valued:
        forms += [
            argv[:i] + [f"{flag}={rest[0]}"] + rest[1:],
            argv[: i + 1] + ["-1"] + rest[1:],  # a value starting with "-"
            argv[:i] + rest[1:] + [flag],  # no value
        ]
    return forms


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_reader_matches_argparse_on_generated_command_lines(command):
    """Random subsets of a command's options in random orders, with valid
    values: the reader takes each, with argparse's namespace.  Each
    command line broken at one option in a way the exact form excludes
    is refused and left to argparse."""
    rng = random.Random(command)
    options = cli._COMMANDS[command][1]
    for _ in range(150):
        argv, starts = [command], []
        for flags, keywords in rng.sample(options, rng.randint(0, len(options))):
            starts.append(len(argv))
            argv.append(rng.choice(flags))
            if "action" not in keywords:
                argv.append(rng.choice(_valid_values(keywords)))
        args = cli._read_exact(argv)
        assert args is not None, argv
        assert vars(args) == _argparse_vars(argv), argv
        for form in _broken_forms(argv, rng.choice(starts)) if starts else [argv + ["-h"]]:
            assert cli._read_exact(form) is None, form
