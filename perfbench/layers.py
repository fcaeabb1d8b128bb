"""Child process of the benchmark: set-up timing and the traced layer run.

Two modes, each run in a fresh interpreter with ``src`` on PYTHONPATH:

    python3 perfbench/layers.py setup verify:UO:4:3 verify:UU:4:3 ...
        import superchar and build every listed group, then exit.

    python3 perfbench/layers.py trace verify:UU:4:3 [--probe-seed N]
        build one group and call the library's public layers in the
        order the CLI command uses them, timing each call from outside.
        Every cache (``_orbit_cache``, ``_ambient``, ``_conj_index``) is
        filled inside its own span.  With ``--probe-seed`` the kernel
        probes then run on a seeded sample of the group's elements.

The trace mode prints one JSON object on stdout: span seconds, counts,
kernel rates, whether every check passed, and the sha256 of the
rendered output.  Spans are kept in memory and written at the end.
Nothing here changes the library.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

PROBE_SAMPLES = 4000


def parse_spec(text):
    """``cmd:family:n:p`` -> (cmd, family, n, p)."""
    cmd, family, n, p = text.split(":")
    return cmd, family, int(n), int(p)


def group_spec(family, n, p):
    from superchar.involution_group import GroupSpec

    return GroupSpec(family=family, n=n, p=p, k=2 if family == "UU" else 1)


class Spans:
    """Wall-clock spans around calls into the library, summed by name."""

    def __init__(self):
        self.seconds = {}
        self.counts = {}

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def orbits(self, space, fn, arg, generators):
        with self.span(f"orbits.{space}.s"):
            oi = fn(arg)
        self.count(f"orbits.{space}.points", len(oi.space))
        self.count(f"orbits.{space}.generators", generators)
        self.count(f"orbits.{space}.orbits", oi.count)
        return oi


def trace_involution(tr, cmd, spec):
    """The pipeline of ``superchar table`` / ``verify`` on UO, USp and UU."""
    from superchar import cli
    from superchar.involution_group import build_group
    from superchar.orbits import (
        h_orbit_partition_dual,
        orbit_partition_dual,
        orbit_partition_u,
        two_sided_orbit_partition_g,
    )
    from superchar.sct import (
        ambient_group,
        conjugation_index,
        intersection_check,
        standard_theta,
        supercharacters,
        superclasses,
        verify_axioms,
        verify_duality,
        verify_induction,
        verify_springer_independence,
        verify_structure,
        verify_theta_independence,
    )
    from superchar.unitary import degree_audit, ennola_degree_check, formula_grid_check

    with tr.span("involution_group.build_s"):
        bg = build_group(spec)
    tr.count("involution_group.order", bg.order_U)
    gens, h_gens = len(bg.G_gens), len(bg.H_gens)
    tr.orbits("u", orbit_partition_u, bg, gens)
    tr.orbits("dual", orbit_partition_dual, bg, gens)
    tr.orbits("dual_h", h_orbit_partition_dual, bg, h_gens)
    theta = standard_theta(bg)
    with tr.span("sct.superclasses_s"):
        sct = superclasses(bg, "cayley")
    with tr.span("sct.supercharacters_s"):
        scht = supercharacters(bg, "cayley", theta, sc_table=sct)
    tr.count("sct.classes", len(sct.classes))
    tr.count("sct.rows", len(scht.rows))

    if cmd == "table":
        with tr.span("cli.render_s"):
            payload = cli._table_payload(spec, "cayley", theta.name, sct.classes, scht.rows)
            text = json.dumps(payload, indent=2) + "\n"
        return bg, True, text

    results = []
    with tr.span("sct.verify_structure_s"):
        results += verify_structure(bg).results
    with tr.span("sct.verify_axioms_s"):
        results += verify_axioms(bg, sct, scht).results
    with tr.span("sct.conjugation_index_s"):
        conjugation_index(bg, sct)
    tr.count("sct.conjugation_products", len(sct.classes) * bg.order_U)
    with tr.span("sct.verify_induction_s"):
        results += verify_induction(bg, sct, scht).results
    with tr.span("sct.verify_duality_s"):
        results += verify_duality(bg).results
    with tr.span("involution_group.ambient_build_s"):
        amb = ambient_group(bg)
    tr.orbits("g2", two_sided_orbit_partition_g, amb, 2 * len(amb.G_gens))
    tr.count("orbits.g2.useful", bg.order_U)
    with tr.span("sct.intersection_s"):
        results += intersection_check(bg, "cayley").results
    with tr.span("sct.verify_springer_independence_s"):
        results += verify_springer_independence(bg).results
    with tr.span("sct.verify_theta_independence_s"):
        results += verify_theta_independence(bg, "cayley").results
    audit_lines = []
    if spec.family == "UU":
        with tr.span("unitary.formula_grid_s"):
            results += formula_grid_check(bg, sct, scht).results
        with tr.span("unitary.ennola_s"):
            results += ennola_degree_check(scht).results
        with tr.span("unitary.degree_audit_s"):
            audit_lines = [row.line() for row in degree_audit(bg)]
    ok = all(r.passed is not False for r in results)
    with tr.span("cli.render_s"):
        text = "\n".join([r.line() for r in results] + audit_lines) + "\n"
    return bg, ok, text


def trace_algebra(tr, spec):
    """The pipeline of ``superchar verify`` on the UT family."""
    from superchar.involution_group import build_group
    from superchar.orbits import (
        left_orbit_partition_g_dual,
        two_sided_orbit_partition_g,
        two_sided_orbit_partition_g_dual,
    )
    from superchar.sct import algebra_group_sct, verify_algebra_axioms

    with tr.span("involution_group.build_s"):
        bg = build_group(spec)
    tr.count("involution_group.order", bg.order_G)
    gens = len(bg.G_gens)
    tr.orbits("g2", two_sided_orbit_partition_g, bg, 2 * gens)
    tr.count("orbits.g2.useful", bg.order_G)
    tr.orbits("g2_dual", two_sided_orbit_partition_g_dual, bg, 2 * gens)
    tr.orbits("g_left_dual", left_orbit_partition_g_dual, bg, gens)
    with tr.span("sct.algebra_group_sct_s"):
        th = algebra_group_sct(bg)
    tr.count("sct.classes", len(th.classes))
    tr.count("sct.rows", len(th.rows))
    with tr.span("sct.verify_algebra_axioms_s"):
        results = verify_algebra_axioms(bg, th).results
    # the induction oracle conjugates every class rep by every g, once per row
    tr.count("sct.conjugation_products", len(th.rows) * len(th.classes) * bg.order_G)
    ok = all(r.passed is not False for r in results)
    with tr.span("cli.render_s"):
        text = "\n".join(r.line() for r in results) + "\n"
    return bg, ok, text


def _rate(fn, items):
    start = time.perf_counter()
    for item in items:
        fn(*item)
    return len(items) / (time.perf_counter() - start)


def kernel_probes(bg, seed, samples=PROBE_SAMPLES):
    """Calls per second of the hot kernels on a seeded sample of the
    group's own elements (U for the involution families, G for UT)."""
    from superchar.cyclotomic import CycloValue
    from superchar.triangular import cayley

    rng = random.Random(seed)
    elems = bg.U if bg.U is not None else list(bg.enumerate_G())
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(samples)]
    singles = [(a,) for a, _ in pairs]
    tower = bg.tower
    encs = [v.enc for a, b in pairs for v in (*a.entries.values(), *b.entries.values())]
    enc_pairs = [(rng.choice(encs), rng.choice(encs)) for _ in range(samples)]
    space = bg.u_space if bg.U is not None else bg.g_space
    flats = [(bg.flatten(cayley(a)),) for (a,) in singles]
    p = tower.p
    cyclo = []
    for _ in range(samples):
        d = rng.choice((1, p, p * p))
        cyclo.append((p, [d * rng.randrange(64) for _ in range(p)], d))
    return {
        "triangular.mul_per_s": _rate(lambda a, b: a * b, pairs),
        "triangular.inverse_per_s": _rate(lambda a: a.inverse(), singles),
        "triangular.cayley_per_s": _rate(cayley, singles),
        "triangular.samples": samples,
        "gf.add_enc_per_s": _rate(tower.add_enc, enc_pairs),
        "gf.mul_enc_per_s": _rate(tower.mul_enc, enc_pairs),
        "gf.samples": samples,
        "linalg.coords_per_s": _rate(space.coords, flats),
        "linalg.samples": samples,
        "cyclotomic.orbit_sum_per_s": _rate(
            lambda p, counts, d: CycloValue.from_exponents(p, counts).divexact(d), cyclo
        ),
        "cyclotomic.samples": samples,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "trace"])
    parser.add_argument("specs", nargs="+", help="cmd:family:n:p")
    parser.add_argument("--probe-seed", type=int, default=None)
    args = parser.parse_args(argv)
    specs = [parse_spec(s) for s in args.specs]

    if args.mode == "setup":
        import superchar  # noqa: F401
        from superchar.involution_group import build_group

        for _, family, n, p in specs:
            build_group(group_spec(family, n, p))
        return 0

    if len(specs) != 1:
        parser.error("trace takes exactly one spec")
    cmd, family, n, p = specs[0]
    tr = Spans()
    spec = group_spec(family, n, p)
    if family == "UT":
        bg, ok, text = trace_algebra(tr, spec)
    else:
        bg, ok, text = trace_involution(tr, cmd, spec)
    total = time.perf_counter() - T0
    out = {
        "spans": tr.seconds,
        "counts": tr.counts,
        "total_s": total,
        "ok": ok,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if args.probe_seed is not None:
        out["probes"] = kernel_probes(bg, args.probe_seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
