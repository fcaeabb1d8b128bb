"""The process entry point, ``cli.run``, against in-process ``cli.main``.

Every other CLI test calls ``main`` in-process; these run
``python -m superchar.cli`` in a child, which goes through ``run`` and
its ``os._exit``, and require the same exit status, stdout, stderr and
``-o`` bytes.  Children get the environment that perfbench gives them:
no PYTHON* variable (so stdout is block-buffered, not unbuffered) and
PYTHONPATH at the checkout's src."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from superchar.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# argparse wraps --help to the terminal width; fix it on both sides
COLUMNS = "80"


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), COLUMNS=COLUMNS)
    return env


def _child(argv, stdout=subprocess.PIPE, entry=("-m", "superchar.cli")):
    return subprocess.run(
        [sys.executable, *entry, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
        timeout=120,
    )


def _in_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    try:
        code = main(argv)
    except SystemExit as exc:  # --help exits from inside argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


UO4 = ["--family", "UO", "--n", "4", "--p", "3"]
CASES = {
    "verify-pass": (["verify", *UO4], 0),
    "table-o": (["table", *UO4, "-o", "{tmp}/table.json"], 0),
    "usage": (["verify", "--family", "USp", "--n", "3", "--p", "3"], 1),
    "guard": (["table", "--family", "UT", "--n", "6", "--p", "5", "--e", "2"], 3),
    "unwritable-o": (["table", *UO4, "-o", "{tmp}/no/such/dir/t.json"], 4),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_module_run_matches_in_process_main(capsys, monkeypatch, tmp_path, case):
    template, want = CASES[case]
    sides = {}
    for side in ("child", "main"):
        (tmp_path / side).mkdir()
        argv = [a.format(tmp=tmp_path / side) for a in template]
        if side == "child":
            done = _child(argv)
            got = (done.returncode, done.stdout, done.stderr)
        else:
            got = _in_process(capsys, monkeypatch, argv)
        # the -o path appears in an i/o error's message; compare it unprefixed
        got = tuple(
            x.replace(str(tmp_path / side).encode(), b"TMP") if isinstance(x, bytes) else x
            for x in got
        )
        written = tmp_path / side / "table.json"
        sides[side] = got + (written.read_bytes() if written.exists() else None,)
    assert sides["child"] == sides["main"]
    assert sides["child"][0] == want
    if case == "table-o":
        assert sides["child"][1] == b"" and sides["child"][3]


# A well-formed command line is read without argparse, so a run loads
# neither argparse nor the gettext and locale that its messages import; nor
# the unitary module off the UU family.  Help and usage errors come from
# argparse.
@pytest.mark.parametrize(
    "argv,code,parser",
    [
        (["verify", *UO4], 0, False),
        (["table", *UO4], 0, False),
        (["--help"], 0, True),
        (["verify", "--n", "four"], 1, True),
    ],
    ids=["verify", "table", "help", "usage"],
)
def test_only_help_and_usage_errors_import_argparse(argv, code, parser):
    done = _child(argv, entry=("-X", "importtime", "-m", "superchar.cli"))
    assert done.returncode == code
    lines = done.stderr.decode().splitlines()
    loaded = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    assert "superchar.sct" in loaded  # the trace sees the CLI's own imports
    if parser:
        assert "argparse" in loaded
    else:
        assert not loaded & {"argparse", "gettext", "locale", "superchar.unitary"}
    if argv == ["--help"]:
        assert done.stdout.startswith(b"usage: superchar [-h]")


REFERENCE = ("-c", "import sys; from superchar.cli import main; sys.exit(main())")
COUNT = ["count-partitions", "--family", "UU", "--n", "4", "--p", "3"]


def _with_closed(closed, argv, entry):
    """(exit status, stderr) of a child whose stdout reader closed before
    it wrote ("reader"), or whose stdout or stderr descriptor was closed
    when it started."""
    if closed == "reader":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _child(argv, stdout=write_end, entry=entry)
        finally:
            os.close(write_end)
    else:
        fd = {"stdout": 1, "stderr": 2}[closed]
        done = subprocess.run(
            ["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, *entry, *argv],
            stdout=subprocess.PIPE if fd == 2 else None,
            stderr=subprocess.PIPE if fd == 1 else None,
            env=_child_env(),
            cwd=ROOT,
            timeout=120,
        )
    return done.returncode, done.stderr


# Pinned against the module's entry before ``run``, sys.exit(main()).
# With the reader gone, a short output waits in stdout's buffer, the
# final flush fails, and the interpreter reports it and exits 120; an
# output larger than the buffer fails inside main, which reports an i/o
# error and exits 4.  A descriptor closed at start leaves its stream
# None, and print writes nothing there.
@pytest.mark.parametrize(
    "closed,argv,code",
    [
        ("reader", COUNT, 120),
        ("reader", ["verify", *UO4], 120),
        ("reader", ["table", "--family", "UO", "--n", "5", "--p", "3"], 4),
        ("stdout", ["verify", *UO4], 0),
        ("stdout", [*COUNT, "--bogus"], 1),
        ("stderr", ["verify", *UO4], 0),
    ],
    ids=["reader-count", "reader-verify", "reader-table-UO5", "stdout", "stdout-usage", "stderr"],
)
def test_closed_streams_end_as_before(closed, argv, code):
    got = _with_closed(closed, argv, ("-m", "superchar.cli"))
    assert got == _with_closed(closed, argv, REFERENCE)
    assert got[0] == code
    if closed == "reader":
        want = b"BrokenPipeError" if code == 120 else b"i/o error: [Errno 32] Broken pipe\n"
        assert want in got[1]


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["superchar"] == "superchar.cli:run"


def test_count_partitions_counts_without_listing():
    """UU_10(F_9) has 362,931 twisted partitions; listing them took about
    490 MB, and counting them needs no more than the interpreter."""
    argv = ["count-partitions", "--family", "UU", "--n", "10", "--p", "3"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "superchar.cli", *argv],
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
    )
    with proc.stdout:
        out = proc.stdout.read()
    # wait4 reaps this child alone, with its own peak RSS (KiB on Linux)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert (proc.returncode, out) == (0, b"twisted set partitions of [10]: 362931\n")
    assert usage.ru_maxrss < 100 * 1024
