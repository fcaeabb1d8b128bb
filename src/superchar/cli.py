"""Command-line front end: build groups, compute tables, run checks.

Exit codes: 0 success, 1 usage, 2 verification failure, 3 size guard
exceeded, 4 I/O error; any other exception is a bug and ends in a
traceback.  ``unitary-check`` writes its degree audit, which needs no
table, even when its tables hit a guard, and then exits 3; ``verify``
hit by a guard writes the results of the checks before it, with no
summary line, and exits 3.  Identical invocations produce byte-identical
output files.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import ShapeError, SizeGuardError, SpringerUndefinedError, VerificationError
from .involution_group import GroupSpec, build_group, default_k, load_spec
from .orbits import (
    orbit_dump_lines,
    orbit_partition_dual,
    orbit_partition_u,
    two_sided_orbit_partition_g,
)
from .sct import (
    Report,
    alternate_theta,
    ambient_group,
    intersection_check,
    standard_theta,
    theory,
    verify_axioms,
    verify_duality,
    verify_induction,
    verify_springer_independence,
    verify_structure,
    verify_subfield_independence,
    verify_theta_independence,
)
from .triangular import MirrorPoset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_GUARD = 3
EXIT_IO = 4


class _UsageError(Exception):
    pass


def _spec_from_args(args) -> GroupSpec:
    if args.spec:
        return load_spec(args.spec)
    if args.family is None or args.n is None or args.p is None:
        raise _UsageError("need either --spec or --family/--n/--p")
    k = args.k if args.k is not None else default_k(args.family)
    poset = MirrorPoset.from_file(args.poset) if args.poset else None
    return GroupSpec(family=args.family, n=args.n, p=args.p, e=args.e, k=k, poset=poset)


def _springer(bg, args) -> str:
    """The --springer choice; the UT family has none and uses g - 1."""
    if args.springer and bg.spec.family == "UT":
        raise _UsageError("--springer does not apply to family UT, which uses g - 1")
    return args.springer or "cayley"


def _theta(bg, args):
    return alternate_theta(bg) if args.theta == "alternate" else standard_theta(bg)


def _tables(bg, args):
    """The superclass and supercharacter tables for the --springer and
    --theta flags."""
    return theory(bg, _springer(bg, args), _theta(bg, args))


def _spec_json(spec: GroupSpec) -> dict:
    out = {"family": spec.family, "n": spec.n, "p": spec.p, "e": spec.e, "k": spec.k}
    if spec.poset is not None:
        out["poset_pairs"] = sorted(list(p) for p in spec.poset.pairs)
    return out


def _write_output(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# -- table -------------------------------------------------------------------


def _table_payload(spec, springer_name, theta_name, classes, rows) -> dict:
    return {
        "spec": _spec_json(spec),
        "springer": springer_name,
        "theta": theta_name,
        "superclasses": [
            {"rep": list(K.rep), "size": K.size} for K in classes
        ],
        "rows": [
            {
                "lambda": list(r.lam),
                "n_lambda": r.n_lambda,
                "degree": r.degree,
                "values": [v.to_json() for v in r.values],
            }
            for r in rows
        ],
    }


def _table_csv(classes, rows) -> str:
    header = ["lambda", "n_lambda", "degree"] + [
        "K" + "_".join(str(x) for x in K.rep) for K in classes
    ]
    lines = [",".join(header)]
    for r in rows:
        cells = ["|".join(str(c) for c in r.lam), str(r.n_lambda), str(r.degree)]
        cells += [v.to_string() for v in r.values]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    spec = _spec_from_args(args)
    bg = build_group(spec, force=args.force)
    sct, scht = _tables(bg, args)
    if args.format == "csv":
        _write_output(args, _table_csv(sct.classes, scht.rows))
    else:
        import json

        payload = _table_payload(
            spec, sct.record.springer_name, scht.theta.name, sct.classes, scht.rows
        )
        _write_output(args, json.dumps(payload, indent=2, check_circular=False) + "\n")
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _on_chain(bg) -> bool:
    """The twisted-partition formulas and the printed degrees are the
    paper's for the full chain; the Ennola property holds on any poset."""
    return bg.poset == MirrorPoset.chain(bg.n)


def _unitary():
    """The unitary module, imported where a UU check or command reads it,
    so that a run on any other family never loads it."""
    from . import unitary

    return unitary


def _audit_report(bg) -> Report:
    rep, rows = Report(f"degree audit {bg.label()}"), _unitary().degree_audit(bg)
    for row in rows:
        rep.add("degree-audit", None, row.line())
    flagged = sum(not r.all_match for r in rows)
    rep.add(
        "degree-audit-discrepancies",
        None,
        f"{flagged} elementary degree formulas disagree with brute force (reported, not patched)",
    )
    return rep


_INVOLUTION = ("UO", "USp", "UU", "UU|poset")

# Every check of ``verify`` in run order: name -> (the groups that run it
# by default, its report for the group, the arguments and the --springer
# name).  "UU" is UU on the full chain poset, "UU|poset" UU on any other;
# a check that no group runs by default runs only when --check names it.
# Each call looks its check and ``_tables`` up as it runs, so a patched
# module attribute reaches it.
_CHECKS = {
    "structure": (_INVOLUTION, lambda bg, *_: verify_structure(bg)),
    "axioms": (("UT",) + _INVOLUTION, lambda bg, args, _: verify_axioms(bg, *_tables(bg, args))),
    "induction": (
        ("UT",) + _INVOLUTION, lambda bg, args, _: verify_induction(bg, *_tables(bg, args))
    ),
    "duality": (_INVOLUTION, lambda bg, *_: verify_duality(bg)),
    "intersection": (_INVOLUTION, lambda bg, _, springer: intersection_check(bg, springer)),
    "springer-independence": (_INVOLUTION, lambda bg, *_: verify_springer_independence(bg)),
    "theta-independence": (
        _INVOLUTION, lambda bg, _, springer: verify_theta_independence(bg, springer)
    ),
    "unitary-formula": (
        ("UU",), lambda bg, args, _: _unitary().formula_grid_check(bg, *_tables(bg, args))
    ),
    "ennola-degrees": (
        ("UU", "UU|poset"), lambda bg, args, _: _unitary().ennola_degree_check(_tables(bg, args)[1])
    ),
    "degree-audit": (("UU",), lambda bg, *_: _audit_report(bg)),
    "subfield-independence": ((), lambda bg, *_: verify_subfield_independence(bg)),
}


def _run_checks(bg, args, names):
    """The reports of the named checks of ``_CHECKS``, in order, and the
    size guard that stopped them, if one did."""
    springer, reports = _springer(bg, args), []
    try:
        for name in names:
            reports.append(_CHECKS[name][1](bg, args, springer))
    except SizeGuardError as exc:
        return reports, exc
    return reports, None


def _report(args, lines, guard, failed) -> int:
    """Write the lines of what ran, to stdout or -o; then re-raise the
    size guard that stopped the run, if one did."""
    _write_output(args, "\n".join(lines) + "\n")
    if guard is not None:
        raise guard
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    bg = build_group(spec, force=args.force)
    kind = "UU|poset" if spec.family == "UU" and not _on_chain(bg) else spec.family
    checks = [name for name, (kinds, _) in _CHECKS.items() if kind in kinds]
    if args.check:
        valid = [name for name, (kinds, _) in _CHECKS.items() if name in checks or not kinds]
        if args.check not in valid:
            raise _UsageError(
                f"unknown or inapplicable check {args.check!r}; choose from {valid}"
            )
        checks = [args.check]
    reports, guard = _run_checks(bg, args, checks)
    results = [r for rep in reports for r in rep.results]
    lines = [f"== verify {spec.label()} =="]
    lines += [r.line() for r in results]
    failed = [r for r in results if r.passed is False]
    if guard is None:
        lines.append(
            f"== {len(results) - len(failed)}/{len(results)} checks passed"
            + (f"; FAILED: {', '.join(r.name for r in failed)}" if failed else "")
        )
    return _report(args, lines, guard, failed)


# -- orbits ---------------------------------------------------------------------


def cmd_orbits(args) -> int:
    spec = _spec_from_args(args)
    bg = build_group(spec, force=args.force)
    if args.space in ("u", "dual") and spec.family == "UT":
        raise _UsageError("family UT has no involution; use --space two-sided")
    # each orbit is printed with its least point, read as slot encodings on u
    # and g
    if args.space == "u":
        oi, key = orbit_partition_u(bg), bg.u_basis.element_encs
    elif args.space == "dual":
        oi, key = orbit_partition_dual(bg), lambda v: v
    else:
        amb = ambient_group(bg) if spec.family != "UT" else bg
        oi, key = two_sided_orbit_partition_g(amb), amb.g_basis.element_encs
    _write_output(args, "\n".join(orbit_dump_lines(oi, key)) + "\n")
    return EXIT_OK


# -- unitary-check -----------------------------------------------------------------


def cmd_unitary_check(args) -> int:
    """verify's unitary-formula and ennola-degrees checks, each report under
    its header, then the degree audit; exit 2 when any check it runs fails."""
    spec = _spec_from_args(args)
    if spec.family != "UU":
        raise _UsageError("unitary-check requires --family UU")
    bg = build_group(spec, force=args.force)
    if not _on_chain(bg):
        raise _UsageError("unitary-check requires the full chain poset")
    reports, guard = _run_checks(bg, args, ("unitary-formula", "ennola-degrees"))
    lines = [line for rep in reports for line in rep.lines()]
    lines.append(f"== degree audit {bg.label()}")
    rows = _unitary().degree_audit(bg)
    lines += [r.line() for r in rows]
    flagged = [r for r in rows if not r.all_match]
    lines.append(
        f"== {len(flagged)} printed degree formulas disagree with brute force"
        " (reported, not patched)"
    )
    return _report(args, lines, guard, not all(rep.ok for rep in reports))


# -- count-partitions ----------------------------------------------------------------


def cmd_count_partitions(args) -> int:
    spec = _spec_from_args(args)
    if spec.family == "UU":
        count = _unitary().count_twisted(spec.n, spec.tower)
        kind = "twisted"
    elif spec.family == "UT":
        count = _unitary().enumerate_labeled(spec.n, spec.tower.size - 1)
        kind = "labeled"
    else:
        raise _UsageError("count-partitions supports families UU and UT")
    _write_output(args, f"{kind} set partitions of [{spec.n}]: {count}\n")
    return EXIT_OK


# -- entry point ------------------------------------------------------------------------

# Each option of the commands, once: its flags and the keywords argparse's
# add_argument takes for it
_SPEC_OPTIONS = (
    (("--spec",), {"help": "JSON spec file (overrides the inline flags)"}),
    (("--family",), {"choices": ["UT", "UO", "USp", "UU"]}),
    (("--n",), {"type": int}),
    (("--p",), {"type": int}),
    (("--e",), {"type": int, "default": 1}),
    (("--k",), {"type": int, "default": None}),
    (("--poset",), {"help": "poset file (first line n, then 'i j' generators)"}),
    (("--force",), {"action": "store_true", "help": "override the size guards"}),
)
_TABLE_OPTIONS = (
    (("--springer",), {"choices": ["cayley", "log"]}),
    (("--theta",), {"choices": ["standard", "alternate"], "default": "standard"}),
)
_OUTPUT = (("--output", "-o"), {})

# Every subcommand in help order: name -> (help, its options in help order,
# the function that runs it)
_COMMANDS = {
    "table": (
        "compute and write a supercharacter table",
        _SPEC_OPTIONS
        + _TABLE_OPTIONS
        + ((("--format",), {"choices": ["json", "csv"], "default": "json"}), _OUTPUT),
        cmd_table,
    ),
    "verify": (
        "run the named verification checks",
        _SPEC_OPTIONS
        + _TABLE_OPTIONS
        + ((("--check",), {"help": "run a single named check"}), _OUTPUT),
        cmd_verify,
    ),
    "orbits": (
        "dump an orbit partition as JSON lines",
        _SPEC_OPTIONS
        + ((("--space",), {"choices": ["u", "dual", "two-sided"], "default": "u"}), _OUTPUT),
        cmd_orbits,
    ),
    "unitary-check": (
        "closed-form value grid and degree audit (UU)",
        _SPEC_OPTIONS + _TABLE_OPTIONS + (_OUTPUT,),
        cmd_unitary_check,
    ),
    "count-partitions": ("count the indexing set partitions", _SPEC_OPTIONS, cmd_count_partitions),
}


def _dest(flags) -> str:
    """The attribute argparse stores an option in, named by its first flag."""
    return flags[0].lstrip("-").replace("-", "_")


def _read_exact(argv):
    """The namespace argparse makes of ``argv``, read without argparse
    when ``argv`` has the exact form: a command, then options of that
    command, none twice, each an exact flag of the table, and each but
    ``--force`` followed by one value that converts by its type, lies in
    its choices and does not start with "-".  None for any other
    ``argv`` (help, abbreviations, --opt=value, repeats, unknown tokens,
    bad values, an option before the command), which argparse reads, so
    it alone writes help and usage errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, func = _COMMANDS[argv[0]]
    option_of = {flag: (flags, keywords) for flags, keywords in options for flag in flags}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in option_of:
            return None
        flags, keywords = option_of[token]
        dest = _dest(flags)
        if dest in values:
            return None
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a flag at the end has no value
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", [value]):
            return None
        values[dest] = value
    # argparse's defaults: the keyword's, else False for a store_true flag
    # and None for an option with a value
    attrs = {
        _dest(flags): keywords.get(
            "default", False if keywords.get("action") == "store_true" else None
        )
        for flags, keywords in options
    }
    return SimpleNamespace(command=argv[0], **{**attrs, **values}, func=func)


def build_parser(argv=()):
    """The argparse parser with every subcommand registered, and the
    arguments of only the one that ``argv`` names filled in; of all five
    when it names none.  argparse reads the command as the first argument
    that is not an option, and no name starts with "-", so the first name
    in ``argv`` is the command whenever the command is valid; otherwise
    parsing stops at the root parser, before any subcommand's arguments
    are read.  argparse is imported here, for help and usage errors only."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="superchar", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (help_text, options, func) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if named in (None, name):
            for flags, keywords in options:
                sub.add_argument(*flags, **keywords)
            sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_exact(argv) or build_parser(argv).parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"size guard: {exc} (use --force to override)", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, ShapeError, SpringerUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run(argv=None):
    """The process entry point: ``main(argv)``, then exit with its code.

    Once stdout and stderr are flushed, ``os._exit`` ends the process
    without the interpreter's teardown, which only frees what the kernel
    reclaims at exit anyway; ``main`` has closed every file it opened.
    If a flush fails (say, the reader closed stdout), ``sys.exit`` hands
    the exit to the interpreter, which reports it as it would without
    ``run``.  A stream is None when its descriptor was closed at start,
    and there is nothing to flush.  Exceptions out of ``main`` propagate
    as they would too."""
    code = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
