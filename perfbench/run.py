"""Benchmark runner for the superchar CLI.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  Every superchar process is a fresh
child, started only after the previous one has exited (a closed loop
with one client), with SUPERCHAR_THREADS removed, no --threads flag,
PYTHONHASHSEED fixed and PYTHONPATH pointing at the checkout's src.

The runner and every child are pinned to one CPU, and a thread of the
runner times a fixed calibration loop on that CPU throughout the run;
every timed child is rescaled to the reference speed of that loop (see
SpeedSampler), because the shared machine's own speed swings by more
than any bound within minutes.

--trace 0 measures the end-to-end metrics: whole passes over the
workload's commands run for as long as the next pass still fits in
--seconds (at least one pass); set-up is timed repeatedly before and
after the passes, so its samples span the run; medians are reported.
--trace 1 runs one untraced pass for the per-command figures, then one
traced child per spec (perfbench/layers.py) that times calls into each
library layer from outside, then the seeded kernel probes.  --seed
picks only the kernel-probe sample; the CLI always gets the fixed specs
below.

Every output is checked: `table` stdout against a sha256 digest of the
reference output, `verify` for exit 0, no FAIL line and a final
"== N/N checks passed".  A failed check counts in "failed" and its
timing stays in the statistics.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAYERS = os.path.join(ROOT, "perfbench", "layers.py")

# Specs are cmd:family:n:p; UU uses k = 2, so UU4 at p = 3 is over F_9.
WORKLOADS = {
    "verify-ladder": ["verify:UO:4:3", "verify:USp:4:3", "verify:UO:5:3", "verify:UU:4:3"],
    "table-usp6": ["table:USp:6:3"],
    "verify-ut3": ["verify:UT:3:5"],
    # tiny specs for the self-test; not a workload of BENCHMARK.json
    "smoke": ["verify:UO:4:3", "table:UO:4:3", "verify:UT:3:3"],
}
BENCH_WORKLOADS = ["verify-ladder", "table-usp6", "verify-ut3"]

# sha256 of `superchar table ...` stdout at the seed commit 5ed4053
# (identical over repeated runs and hash seeds).
TABLE_SHA256 = {
    "table:USp:6:3": "4858dcbd1c0581cd72b89aab028eb081280ccd6ff265fe9f945d30010ba6dd93",
    "table:UO:4:3": "eb1a272a4d9ae51caf273ab80454ac2bd53e02f272c6c09f23351874d57a566b",
}

# Set-up runs before the passes and again after them, each time until
# SETUP_MIN_S seconds have passed (at least one run).  Spreading the
# samples over the run evens out the multi-second phases of a shared
# machine's speed; one run per side keeps the 8 s set-up of table-usp6
# inside the time budget.
SETUP_MIN_S = 1.5
RUN_LIMIT_S = 170.0  # stop starting children after this; the run must end by 180 s

# Host-speed calibration.  The loop takes CALIBRATION_REF_S of CPU time
# on the reference machine in a quiet phase; a child's wall time is
# multiplied by CALIBRATION_REF_S / (mean loop time around the child).
CALIBRATION_LOOPS = 15000
CALIBRATION_REF_S = 0.006
CALIBRATION_PERIOD_S = 0.2
# Samples this close to a child count for it; wider than the period, so
# every child has some.
CALIBRATION_MARGIN_S = 0.5

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

CLI_FIELDS = [("wall_s", "s"), ("cpu_s", "s"), ("rss_mb", "MB"), ("stdout_bytes", "bytes")]
SPACES = ["u", "dual", "dual_h", "g2", "g2_dual", "g_left_dual"]
SCT_SPANS = [
    "superclasses_s",
    "supercharacters_s",
    "verify_structure_s",
    "verify_axioms_s",
    "conjugation_index_s",
    "verify_induction_s",
    "verify_duality_s",
    "intersection_s",
    "verify_springer_independence_s",
    "verify_theta_independence_s",
    "algebra_group_sct_s",
    "verify_algebra_axioms_s",
]
KERNEL_RATES = {
    "triangular": ["mul_per_s", "inverse_per_s", "cayley_per_s"],
    "gf": ["add_enc_per_s", "mul_enc_per_s"],
    "linalg": ["coords_per_s"],
    "cyclotomic": ["orbit_sum_per_s"],
}


def spec_label(spec):
    """verify:UU:4:3 -> ("verify", "UU4_F9")."""
    cmd, family, n, p = spec.split(":")
    q = int(p) ** (2 if family == "UU" else 1)
    return cmd, f"{family}{n}_F{q}"


def cli_metric_names(spec):
    cmd, label = spec_label(spec)
    return [(f"cli.{cmd}.{label}.{f}", unit) for f, unit in CLI_FIELDS]


def per_layer_catalogue():
    """(name, unit) of every --trace 1 metric, in BENCHMARK.json order."""
    out = []
    for workload in BENCH_WORKLOADS:
        for spec in WORKLOADS[workload]:
            out += cli_metric_names(spec)
    out.append(("cli.render_s", "s"))
    out += [
        ("involution_group.build_s", "s"),
        ("involution_group.order", "count"),
        ("involution_group.ambient_build_s", "s"),
    ]
    for space in SPACES:
        out.append((f"orbits.{space}.s", "s"))
        out += [(f"orbits.{space}.{c}", "count") for c in ("points", "generators", "orbits")]
    out.append(("orbits.g2.useful_frac", "ratio"))
    out += [(f"sct.{name}", "s") for name in SCT_SPANS]
    out += [(f"sct.{c}", "count") for c in ("classes", "rows", "conjugation_products")]
    out += [(f"unitary.{n}", "s") for n in ("formula_grid_s", "ennola_s", "degree_audit_s")]
    for layer, rates in KERNEL_RATES.items():
        out += [(f"{layer}.{r}", "1/s") for r in rates]
        out.append((f"{layer}.samples", "count"))
    out += [("trace.total_s", "s"), ("trace.coverage", "ratio"), ("trace.overhead_s", "s")]
    return out


# -- children ------------------------------------------------------------------


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    start: float  # time.perf_counter() stamps
    end: float
    cpu_s: float
    rss_mb: float

    @property
    def wall_s(self):
        return self.end - self.start


def calibration_loop():
    """CPU seconds of a fixed mix of modular int arithmetic, tuple hashing
    and dict updates, the operations the library's inner loops are made of."""
    table = {}
    acc = 0
    start = time.thread_time()
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) % 1000003
        key = (i % 97, i % 89, acc % 83)
        table[key] = table.get(key, 0) + 1
    return time.thread_time() - start


class SpeedSampler(threading.Thread):
    """Times calibration_loop every CALIBRATION_PERIOD_S on the runner's CPU.

    The shared machine runs the same code 25% faster or slower in phases
    of seconds to minutes, and CPU time swings with wall time, so raw
    times of runs made minutes apart disagree by more than any bound.
    The sampler shares the children's CPU, so it sees the speed they
    get; it counts its own thread's CPU time, so the child's share of
    that CPU does not enter a sample.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.stopping = threading.Event()
        self.samples = []  # (time.perf_counter() at the end, loop seconds)

    def run(self):
        while True:
            loop_s = calibration_loop()
            self.samples.append((time.perf_counter(), loop_s))
            if self.stopping.wait(CALIBRATION_PERIOD_S):
                return

    def stop(self):
        self.stopping.set()
        self.join()

    def scale(self, child):
        """CALIBRATION_REF_S / mean loop time while the child ran."""
        near = [
            loop_s
            for t, loop_s in self.samples
            if child.start - CALIBRATION_MARGIN_S <= t <= child.end + CALIBRATION_MARGIN_S
        ]
        return CALIBRATION_REF_S / statistics.fmean(near)


def child_env():
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "SUPERCHAR_THREADS" and not k.startswith("PYTHON")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    """Starts one child at a time and keeps the run inside its time limit."""

    def __init__(self):
        # Pin to the last CPU allowed; children and threads inherit it.
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0

    def time_left(self):
        return self.deadline - time.monotonic()

    def spawn(self, argv) -> Child:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        killer = threading.Timer(max(1.0, self.time_left()), proc.kill)
        killer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        killer.cancel()
        # wait4 reaps the child and gives its own rusage (peak RSS, CPU)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Child(
            proc.returncode,
            out,
            err[0],
            start,
            end,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )

    def record(self, ok, what, child):
        self.attempted += 1
        if not ok:
            self.failed += 1
            tail = child.err.decode(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED {what} (exit {child.code}): {' | '.join(tail)}", file=sys.stderr)

    def cli(self, spec) -> Child:
        cmd, family, n, p = spec.split(":")
        argv = [sys.executable, "-m", "superchar.cli", cmd]
        argv += ["--family", family, "--n", n, "--p", p]
        child = self.spawn(argv)
        self.record(output_ok(spec, child), spec, child)
        return child

    def setup(self, specs) -> Child:
        child = self.spawn([sys.executable, LAYERS, "setup", *specs])
        self.record(child.code == 0, "setup", child)
        return child

    def trace(self, spec, probe_seed=None) -> dict:
        argv = [sys.executable, LAYERS, "trace", spec]
        if probe_seed is not None:
            argv += ["--probe-seed", str(probe_seed)]
        child = self.spawn(argv)
        data = None
        if child.code == 0:
            data = json.loads(child.out.decode().strip().splitlines()[-1])
        ok = data is not None and data["ok"]
        if ok and spec in TABLE_SHA256:
            ok = data["sha256"] == TABLE_SHA256[spec]
        self.record(ok, f"trace {spec}", child)
        return data


_SUMMARY = re.compile(r"== (\d+)/(\d+) checks passed")


def output_ok(spec, child) -> bool:
    """The correctness gate for one CLI command."""
    if child.code != 0:
        return False
    if spec in TABLE_SHA256:
        return hashlib.sha256(child.out).hexdigest() == TABLE_SHA256[spec]
    lines = child.out.decode(errors="replace").splitlines()
    if not lines or any(line.startswith("FAIL") for line in lines):
        return False
    m = _SUMMARY.fullmatch(lines[-1])
    return bool(m) and m.group(1) == m.group(2)


# -- the two modes ---------------------------------------------------------------


def run_pass(runner, specs):
    return [(spec, runner.cli(spec)) for spec in specs]


def pass_wall(done):
    return sum(child.wall_s for _, child in done)


def time_setups(runner, specs):
    children = []
    while sum(c.wall_s for c in children) < SETUP_MIN_S:
        children.append(runner.setup(specs))
    return children


def measure_end_to_end(runner, specs, seconds):
    sampler = SpeedSampler()
    sampler.start()
    try:
        setups = time_setups(runner, specs)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(runner, specs))
            longest = max(pass_wall(done) for done in passes)
            elapsed = time.perf_counter() - start
            if elapsed + longest > seconds or longest > runner.time_left():
                break
        setups += time_setups(runner, specs)
    finally:
        sampler.stop()

    def scaled(child):
        return child.wall_s * sampler.scale(child)

    values = {
        "wall_s": statistics.median(sum(scaled(c) for _, c in done) for done in passes),
        "setup_s": statistics.median(scaled(c) for c in setups),
        "peak_rss_mb": statistics.median(max(c.rss_mb for _, c in done) for done in passes),
    }
    units = dict(END_TO_END)
    raw = {
        "raw_wall_s": statistics.median(pass_wall(done) for done in passes),
        "raw_setup_s": statistics.median(c.wall_s for c in setups),
        "calibration_s": statistics.fmean(loop_s for _, loop_s in sampler.samples),
        "calibration_samples": len(sampler.samples),
        "passes": len(passes),
        "setups": len(setups),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, raw


def measure_layers(runner, specs, seed):
    units = dict(per_layer_catalogue())
    values = dict.fromkeys(units, 0)

    timed = run_pass(runner, specs)
    for spec, child in timed:
        measured = (child.wall_s, child.cpu_s, child.rss_mb, len(child.out))
        for (name, unit), v in zip(cli_metric_names(spec), measured):
            values[name] = v
            units[name] = unit

    spans = {}
    counts = {}
    total = 0.0
    for i, spec in enumerate(specs):
        last = i == len(specs) - 1
        data = runner.trace(spec, probe_seed=seed if last else None)
        if data is None:
            continue
        total += data["total_s"]
        for k, v in data["spans"].items():
            spans[k] = spans.get(k, 0.0) + v
        for k, v in data["counts"].items():
            counts[k] = counts.get(k, 0) + v
        values.update(data.get("probes", {}))
    values.update(spans)
    values.update((k, v) for k, v in counts.items() if k in values)
    if counts.get("orbits.g2.points"):
        values["orbits.g2.useful_frac"] = counts["orbits.g2.useful"] / counts["orbits.g2.points"]
    values["trace.total_s"] = total
    values["trace.coverage"] = sum(spans.values()) / total if total else 0
    values["trace.overhead_s"] = total - pass_wall(timed)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def environment(cpu):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
            )
            sha = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="superchar benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "superchar", "cli.py")):
        print(f"error: no superchar sources under {SRC}", file=sys.stderr)
        return 2

    specs = WORKLOADS[args.workload]
    runner = Runner()
    print("env " + json.dumps(environment(runner.cpu)))
    if args.trace:
        metrics = measure_layers(runner, specs, args.seed)
    else:
        metrics, raw = measure_end_to_end(runner, specs, args.seconds)
        shown = ", ".join(f"{k} {m['value']:.4f} {m['unit']}" for k, m in metrics.items())
        print(
            f"{args.workload}: {shown} (at the reference speed); unscaled wall_s "
            f"{raw['raw_wall_s']:.4f} s, setup_s {raw['raw_setup_s']:.4f} s; calibration "
            f"loop {raw['calibration_s'] * 1e3:.3f} ms mean of {raw['calibration_samples']} "
            f"against {CALIBRATION_REF_S * 1e3:.3f} ms; {raw['passes']} pass(es), "
            f"{raw['setups']} set-up(s)"
        )
    fail_frac = runner.failed / runner.attempted
    print(
        f"{args.workload}: fail_frac {fail_frac:.4f} ratio "
        f"({runner.failed} of {runner.attempted} commands failed)"
    )
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
