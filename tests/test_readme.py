"""The README's CLI section against the CLI: its examples run, and its
list of verify's checks is the catalogue that ``verify`` runs."""

import re
import shlex
from pathlib import Path

import pytest

from superchar import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_section():
    text = README.read_text()
    return text[text.index("\n## CLI\n") :].split("\n## ", 2)[1]


def _examples():
    block = re.search(r"```\n(.*?)```", _cli_section(), re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize(
    "line", _examples(), ids=lambda line: line.partition("#")[0].split(None, 1)[1].strip()
)
def test_readme_cli_example_runs(capsys, tmp_path, line):
    """Each example exits 0, with its -o file written into tmp_path."""
    program, *argv = shlex.split(line.partition("#")[0])
    assert program == "superchar"
    for i, arg in enumerate(argv[:-1]):
        if arg in ("-o", "--output"):
            argv[i + 1] = str(tmp_path / argv[i + 1])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "-o" in argv:
        assert out == "" and Path(argv[argv.index("-o") + 1]).read_text()
    else:
        assert out


def test_readme_count_partitions_example_prints_41(capsys):
    (line,) = [line for line in _examples() if "count-partitions --family UU --n 4 --p 3" in line]
    assert line.partition("#")[2].strip() == "41"
    assert cli.main(shlex.split(line.partition("#")[0])[1:]) == 0
    assert capsys.readouterr().out == "twisted set partitions of [4]: 41\n"


# the README's words for who runs a check by default, as catalogue entries
RUNS = {
    "all families": ("UT", "UO", "USp", "UU", "UU|poset"),
    "UO, USp, UU": ("UO", "USp", "UU", "UU|poset"),
    "UU on the full chain": ("UU",),
    "UU on any poset": ("UU", "UU|poset"),
    "only when `--check` names it": (),
}


def test_readme_lists_verify_checks_in_catalogue_order():
    listed = re.findall(r"^\d+\. `([a-z-]+)` \(([^)]*)\)", _cli_section(), re.M)
    assert [name for name, _ in listed] == list(cli._CHECKS)
    for name, who in listed:
        assert set(RUNS[who]) == set(cli._CHECKS[name][0]), name
