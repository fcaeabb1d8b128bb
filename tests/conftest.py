"""Every command line that a test hands to ``cli.main`` in-process is
read by argparse too: wherever the exact-form reader takes it, the
reader's namespace must equal argparse's, so the whole suite is a corpus
for ``cli._read_exact``."""

import pytest

from superchar import cli


@pytest.fixture(autouse=True)
def reader_agrees_with_argparse(monkeypatch):
    read = cli._read_exact

    def checked(argv):
        args = read(argv)
        if args is not None:
            assert vars(args) == vars(cli.build_parser(argv).parse_args(argv)), argv
        return args

    monkeypatch.setattr(cli, "_read_exact", checked)
