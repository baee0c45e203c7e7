#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the repro simulator.

One command, one workload per invocation::

    python3 perfbench/run.py --workload warm-sim --seed 0 --seconds 30 --trace 0

``--trace 0`` measures what a user waits for and prints every
end-to-end metric; ``--trace 1`` is the separate traced pass that
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and the layer map are described in README.md next
to this file.

Load is a closed loop with one client: each op starts after the
previous one finished.  The engine and the daemon use two workers and
the benchmark never holds more than two client connections.  Every
file the benchmark writes lives under ``.perfbench/`` in the checkout
and is removed when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pstats
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import boot

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BOOT = os.path.join(HERE, "boot.py")
GOLDEN = os.path.join(ROOT, "tests", "data", "determinism_golden.json")

TECHNIQUES = ("nowp", "instrec", "conv", "wpemul")
WORKLOADS = ("warm-sim", "sweep", "sample")
#: ``--seed`` value that keeps every workload's registry-default data,
#: the only data the determinism goldens are pinned to.
DEFAULT_SEED = 0
#: Per-command limit; a run must end within 180 s, and ops take seconds.
OP_TIMEOUT = 60
JOBS = "2"

E2E_UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
             "sim_ips": "1/s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "cli.import_s": "s",
    "workloads.build_s": "s",
    "compile.calls": "count", "compile.s": "s",
    "compile.artifact_compiles": "count",
    "functional.prepare_s": "s", "functional.compiled_frac": "frac",
    "core.process_batch_s": "s", "core.compiled_frac": "frac",
    "wrongpath.compiled_frac": "frac", "wrongpath.wp_per_kinstr": "1/kinstr",
    "cache.l1d_mpki": "1/kinstr", "cache.llc_mpki": "1/kinstr",
    "cache.wp_access_frac": "frac", "branch.mpki": "1/kinstr",
    "simulator.functional_pass_s": "s",
    "simulator.snapshot_capture_s": "s",
    "simulator.snapshot_restore_s": "s",
    "simulator.intervals": "count", "simulator.snapshot_kb": "KiB",
    "engine.fingerprint_s": "s", "engine.store_get_s": "s",
    "engine.store_put_s": "s", "engine.queue_wait_s": "s",
    "engine.job_sim_s": "s", "engine.hit_frac": "frac",
    "engine.retries": "count",
    "service.start_s": "s", "service.overhead_s": "s",
    "service.executed": "count", "service.hits": "count",
    "service.shared": "count",
    "trace.overhead_frac": "frac",
    "slowdown.instrec_x": "x", "slowdown.conv_x": "x",
    "slowdown.wpemul_x": "x",
    **{f"warm.{t}.ips": "1/s" for t in TECHNIQUES},
}
LAYER_UNITS.update({f"share.{layer}": "frac" for layer in boot.LAYERS})

#: Op sizes.  ``quick`` is the self-test's minimal size.
SIZES = {
    "full": {"warm": ("medium", 100000),
             "sweep": ("small", 30000), "sample": "medium",
             "sample_args": ("--max-instructions", "150000")},
    "quick": {"warm": ("tiny", 3000),
              "sweep": ("tiny", 3000), "sample": "tiny",
              "sample_args": ("--max-instructions", "12000",
                              "--detail-length", "2000",
                              "--ff-length", "2000")},
}
WARM_KERNELS = ("gap.bfs", "gap.pr")
SWEEP_KERNELS = ("gap.bfs", "gap.pr", "spec.int.xz_like")
SAMPLE_TECHNIQUES = ("nowp", "conv")

#: Fields of ``repro run``'s table compared across paths and rounds.
RUN_FIELDS = ("instructions", "cycles", "IPC", "branch MPKI",
              "mispredict windows", "WP instructions fetched",
              "WP instructions executed", "WP addresses recovered",
              "L1D miss rate", "L2 miss rate")


def result_digest(payload: dict) -> str:
    """SHA-256 of a ``to_dict()`` payload without its host wall time
    (the determinism goldens' digest)."""
    payload = dict(payload)
    payload.pop("wall_seconds", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_fields(result) -> dict:
    """``repro run``'s table fields, formatted as the CLI prints them."""
    stats = result.stats
    return {"instructions": str(stats.instructions),
            "cycles": str(stats.cycles),
            "IPC": f"{result.ipc:.4f}",
            "branch MPKI": f"{result.branch_mpki:.2f}",
            "mispredict windows": str(stats.mispredict_windows),
            "WP instructions fetched": str(stats.wp_fetched),
            "WP instructions executed": str(stats.wp_executed),
            "WP addresses recovered": str(stats.wp_addr_recovered),
            "L1D miss rate":
                f"{result.cache_stats['l1d']['miss_rate'] * 100:.2f}%",
            "L2 miss rate":
                f"{result.cache_stats['l2']['miss_rate'] * 100:.2f}%",
            "output": str(result.output) if result.output else ""}


def parse_run(stdout: str) -> dict:
    fields = {"output": ""}
    for line in stdout.splitlines():
        match = re.match(r"(\S.*?)\s{2,}(\S+)\s*$", line)
        if match and match.group(1) in RUN_FIELDS:
            fields[match.group(1)] = match.group(2)
        elif line.startswith("program output: "):
            fields["output"] = line[len("program output: "):]
    return fields


def parse_sweep(stdout: str) -> dict:
    """``(workload, technique) -> (IPC, hit|run)`` from the sweep table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 8 and parts[1] in TECHNIQUES:
            rows[(parts[0], parts[1])] = (parts[3], parts[7])
    return rows


#: Iterations of the host gauge's reference kernel, and the kernel time
#: that defines one reference second (about its median on the 2-vCPU VM
#: the bounds were set on).  See ``Bench.reference``.
GAUGE_ITERATIONS = 8000
REFERENCE_KERNEL_S = 0.0015
#: A gauge reading younger than this still counts as "right before".
GAUGE_FRESH_S = 0.05


def reference_kernel(iterations=GAUGE_ITERATIONS):
    """A fixed loop of the interpreter work the simulator's hot path
    does: integer arithmetic, dict reads and writes, list appends."""
    table = {}
    items = []
    acc = 0
    for i in range(iterations):
        key = i & 63
        acc = (acc * 31 + i) & 0xFFFF
        table[key] = table.get(key, 0) + acc
        if acc & 1:
            items.append(key)
    return acc + len(items) + len(table)


def host_gauge():
    """Seconds the reference kernel takes on this host right now: the
    median of five timings after one untimed warm-up."""
    reference_kernel()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond
    it, never below the median: ``(value, percentile, samples beyond)``."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


class Bench:
    """One benchmark invocation: work directory, child processes,
    op bookkeeping and verification state."""

    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.size = SIZES["quick" if args.quick else "full"]
        self.work = os.path.join(ROOT, ".perfbench",
                                 f"{args.workload}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        self.env["REPRO_CACHE_DIR"] = os.path.join(self.work, "cache")
        self.ops = []            # dicts: id, kind, wall, seconds,
                                 # instructions
        self.failed = set()      # op ids that failed
        self.notes = []
        self.daemons = []        # (process, socket path)
        self.corrupt = args.corrupt_expected
        self.table = []          # (name, value, unit, note)
        self.metric_notes = {}   # metric name -> note printed beside it
        self.gauges = []         # host_gauge() readings of this run
        self.gauge_at = None     # perf_counter() of the last reading

    # -- seeds ---------------------------------------------------------------

    @property
    def build_seed(self):
        """The workload data seed handed to ``build_workload``."""
        return None if self.seed == DEFAULT_SEED else self.seed

    def seed_args(self):
        return [] if self.build_seed is None else ["--seed", str(self.seed)]

    def build_kwargs(self, scale):
        kwargs = {"scale": scale, "check": False}
        if self.build_seed is not None:
            kwargs["seed"] = self.build_seed
        return kwargs

    # -- host speed ----------------------------------------------------------

    def gauge(self):
        """Read the host gauge and keep the reading."""
        self.gauges.append(host_gauge())
        self.gauge_at = time.perf_counter()
        return self.gauges[-1]

    def reference(self, wall, before):
        """``wall`` host seconds of work that began right after the gauge
        reading ``before``, in reference seconds.

        On a shared 2-vCPU VM the host's speed drifts by up to ±40%
        within minutes, so every time the metrics count is scaled by the
        reference kernel's nominal time over its mean time in the
        readings right before and right after the work.  In-process ops
        follow the gauge closely (correlation 0.82-0.86 per op).
        Fresh-process ops follow it loosely op by op (0.2-0.5), which
        widens their spread a little, but over an hour of host drift
        their scaled times moved by 11-25% where their host times moved
        by 50-60%."""
        after = self.gauge()
        return wall * 2 * REFERENCE_KERNEL_S / (before + after)

    def measure(self, fn):
        """Run ``fn()``: ``(value, host seconds, reference seconds)``."""
        if (self.gauge_at is None
                or time.perf_counter() - self.gauge_at > GAUGE_FRESH_S):
            self.gauge()
        before = self.gauges[-1]
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
        return value, wall, self.reference(wall, before)

    # -- ops and checks --------------------------------------------------------

    def add_op(self, kind, wall, ok=True, instructions=0, note="",
               seconds=None):
        """Record an op of ``wall`` host seconds that has just ended, and
        ``seconds``, its reference seconds, if ``measure`` timed it.
        Otherwise the op began right after the last gauge reading: ops
        run back to back, and ``rounds`` reads the gauge first."""
        if seconds is None:
            seconds = self.reference(
                wall, self.gauges[-1] if self.gauges else self.gauge())
        op = {"id": len(self.ops), "kind": kind, "wall": wall,
              "seconds": seconds, "instructions": instructions}
        self.ops.append(op)
        if not ok:
            self.fail([op["id"]], f"{kind}: {note}")
        return op

    def fail(self, op_ids, note):
        self.failed.update(op_ids)
        self.notes.append(note)

    def expect(self, op_ids, actual, expected, what):
        """Check one output against its expected value; a mismatch
        fails every op in ``op_ids``.  ``--corrupt-expected`` corrupts
        the first expected value (the self-test's negative check)."""
        if self.corrupt:
            self.corrupt = False
            expected = "corrupted:" + repr(expected)
        if actual != expected:
            self.fail(op_ids, f"{what}: {actual!r} != {expected!r}")
            return False
        return True

    # -- processes -------------------------------------------------------------

    def repro(self, argv, traced=None):
        """``python -m repro ARGV`` (or its traced/profiled form via
        boot.py when ``traced=(mode, out, op)``) as a fresh process.
        Returns ``(wall, returncode, stdout, stderr)``; returncode is
        None on timeout."""
        if traced is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, BOOT, *traced, *argv]
        return self.spawn(cmd)

    def spawn(self, cmd):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            code = None
        return time.perf_counter() - start, code, out, err

    def fresh_setup(self, code, repeats=5):
        """Median reference seconds of ``repeats`` fresh interpreters
        running ``code`` (process start and imports included)."""
        times = []
        for _ in range(repeats):
            (_, rc, _, err), _, seconds = self.measure(
                lambda: self.spawn([sys.executable, "-c", code]))
            if rc != 0:
                raise RuntimeError(f"set-up probe failed: {err[-500:]}")
            times.append(seconds)
        return statistics.median(times)

    def build_probe(self, kernels, scale):
        return ("import repro.cli\n"
                "from repro.workloads import build_workload\n"
                f"for name in {tuple(kernels)!r}:\n"
                f"    build_workload(name, **{self.build_kwargs(scale)!r})\n")

    def start_daemon(self, name, traced=False):
        """Start ``repro serve`` and wait until it answers a ping;
        returns ``(reference seconds, socket path, cache dir)``."""
        from repro.service import connect_or_none
        # AF_UNIX paths are short (108 bytes): keep the name brief.
        sock = os.path.join(os.path.dirname(self.work),
                            f"{name[0]}{os.getpid()}.sock")
        cache = os.path.join(self.work, f"{name}-cache")
        argv = ["serve", "--socket", sock, "--jobs", JOBS,
                "--cache-dir", cache]
        if traced:
            cmd = [sys.executable, BOOT, "trace", self.spans_dir, name,
                   *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        before = self.gauge()
        start = time.perf_counter()
        with open(os.path.join(self.work, f"{name}.log"), "w") as log:
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
        self.daemons.append((proc, sock))
        deadline = start + 60
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"daemon {name} exited with "
                                   f"{proc.returncode}")
            client = connect_or_none(sock, connect_timeout=1.0)
            if client is not None:
                with client:
                    client.ping()
                return (self.reference(time.perf_counter() - start,
                                       before), sock, cache)
            time.sleep(0.01)
        raise RuntimeError(f"daemon {name} did not start")

    def stop_daemons(self):
        from repro.service import connect_or_none
        while self.daemons:
            proc, sock = self.daemons.pop()
            if proc.poll() is None:
                client = connect_or_none(sock, connect_timeout=1.0)
                if client is not None:
                    try:
                        client.shutdown()
                    except (OSError, RuntimeError):
                        pass
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()

    @property
    def spans_dir(self):
        return os.path.join(self.work, "spans")

    # -- loop ------------------------------------------------------------------

    def rounds(self, one_round):
        """Closed loop: whole rounds until ``--seconds`` is used up
        (at least two, so every output can be checked for repeats)."""
        start = time.perf_counter()
        self.gauge()
        done = 0
        while True:
            t0 = time.perf_counter()
            one_round(done)
            done += 1
            now = time.perf_counter()
            if done >= 2 and now - start + (now - t0) / 2 \
                    >= self.args.seconds:
                return done

    def latency_metrics(self, latencies, what="ops"):
        """Median and tail of per-op seconds."""
        value, pct, beyond = tail(latencies)
        self.metric_notes["latency_tail_s"] = (
            f"p{pct:.0f} of {len(latencies)} {what}, {beyond} beyond")
        return {"latency_p50_s": statistics.median(latencies),
                "latency_tail_s": value}

    def select(self, kinds=None):
        return [op for op in self.ops if kinds is None or op["kind"] in kinds]

    def ips(self, kinds=None):
        ops = self.select(kinds)
        return (sum(op["instructions"] for op in ops)
                / sum(op["seconds"] for op in ops))

    def host_table(self, kinds=None):
        """The run's host gauge and median op in host seconds, so that a
        reader can relate reference seconds to this host."""
        self.table.append(("host.gauge_ms", 1000 * statistics.median(
            self.gauges), "ms", f"reference kernel; "
            f"{1000 * REFERENCE_KERNEL_S:g} ms is one reference second"))
        self.table.append(("host.op_p50_s", statistics.median(
            op["wall"] for op in self.select(kinds)), "s",
            "median op, host seconds"))


def peak_rss_mb(who=resource.RUSAGE_CHILDREN):
    """Largest resident set of the benchmark's child processes (and
    their pool workers), or of this process for ``RUSAGE_SELF``."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def conv_error_pct(results_by_kernel) -> float:
    """Mean over kernels of |IPC(conv) - IPC(wpemul)| / IPC(wpemul)."""
    errors = [abs(r["conv"].ipc - r["wpemul"].ipc) / r["wpemul"].ipc
              for r in results_by_kernel.values()]
    return 100.0 * sum(errors) / len(errors)


def check_techniques_agree(bench, results_by_kernel, op_ids):
    """Retired instructions and program output must not depend on the
    wrong-path technique."""
    for kernel, results in results_by_kernel.items():
        base = results["nowp"]
        for technique, result in results.items():
            bench.expect(op_ids, (result.instructions, result.output),
                         (base.instructions, base.output),
                         f"{kernel}/{technique} vs nowp retired/output")


# -- warm-sim --------------------------------------------------------------------


class WarmSim:
    """Long-lived process: builds once, then ``Simulator.run`` ops."""

    def __init__(self, bench):
        self.bench = bench
        self.scale, self.cap = bench.size["warm"]
        self.specs = [(k, t) for k in WARM_KERNELS for t in TECHNIQUES]
        self.expected = {}           # spec -> digest from the warm-up
        self.last = {}               # spec -> last result

    def setup(self):
        bench = self.bench
        imports = bench.fresh_setup(
            "import repro.simulator.simulation, repro.workloads")
        from repro import CoreConfig, Simulator
        from repro.workloads import build_workload
        self.Simulator, self.config = Simulator, CoreConfig.scaled()
        builds = []
        for _ in range(3):
            self.programs, _, seconds = bench.measure(lambda: {
                k: build_workload(k, **bench.build_kwargs(self.scale))
                for k in WARM_KERNELS})
            builds.append(seconds)
        warmup = 0.0
        for spec in self.specs:
            result, _, seconds = bench.measure(lambda: self.simulate(spec))
            warmup += seconds
            self.expected[spec] = result_digest(result.to_dict())
        return imports + statistics.median(builds) + warmup

    def simulate(self, spec):
        kernel, technique = spec
        wl = self.programs[kernel]
        return self.Simulator(wl.program, config=self.config,
                              technique=technique,
                              max_instructions=self.cap,
                              name=wl.name).run()

    def one_round(self, _):
        bench = self.bench
        for spec in self.specs:
            result, wall, seconds = bench.measure(
                lambda: self.simulate(spec))
            op = bench.add_op("/".join(spec), wall, seconds=seconds,
                              instructions=result.instructions)
            self.last[spec] = result
            bench.expect([op["id"]], result_digest(result.to_dict()),
                         self.expected[spec], f"{spec} digest repeat")

    def slowdown(self, ops):
        """Section V-B table: host time relative to nowp, averaged over
        kernels, and simulated instructions per host second."""
        walls = {}
        for op in ops:
            walls.setdefault(op["kind"], []).append(op)
        out = {}
        for technique in TECHNIQUES:
            mine = [op for k in WARM_KERNELS
                    for op in walls[f"{k}/{technique}"]]
            out[f"warm.{technique}.ips"] = (
                sum(op["instructions"] for op in mine)
                / sum(op["seconds"] for op in mine))
            if technique != "nowp":
                ratios = [statistics.median(
                    op["seconds"] for op in walls[f"{k}/{technique}"])
                    / statistics.median(
                    op["seconds"] for op in walls[f"{k}/nowp"])
                    for k in WARM_KERNELS]
                out[f"slowdown.{technique}_x"] = sum(ratios) / len(ratios)
        return out

    def verify(self, op_ids):
        bench = self.bench
        by_kernel = {}
        for (kernel, technique), result in self.last.items():
            by_kernel.setdefault(kernel, {})[technique] = result
        check_techniques_agree(bench, by_kernel, op_ids)
        bench.table.append(("conv_err_pct", conv_error_pct(by_kernel), "%",
                            "simulated; repeats exactly"))

    def golden(self):
        """The determinism goldens: full CoreConfig, small, 30k."""
        bench = self.bench
        from repro.workloads import build_workload
        with open(GOLDEN) as fh:
            goldens = json.load(fh)
        for key in sorted(goldens):
            kernel, technique = key.split("/")
            wl = build_workload(kernel, scale="small", check=False)
            start = time.perf_counter()
            result = self.Simulator(wl.program, technique=technique,
                                    max_instructions=30000,
                                    name=wl.name).run()
            op = bench.add_op("golden", time.perf_counter() - start)
            bench.expect([op["id"]], result_digest(result.to_dict()),
                         goldens[key], f"golden {key}")


def warm_sim(bench):
    warm = WarmSim(bench)
    setup = warm.setup()
    bench.rounds(warm.one_round)
    ops = list(bench.ops)
    metrics = {"setup_s": setup,
               **bench.latency_metrics([op["seconds"] for op in ops]),
               "sim_ips": bench.ips(),
               "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF)}
    bench.host_table()
    warm.verify([op["id"] for op in ops])
    for name, value in sorted(warm.slowdown(ops).items()):
        bench.table.append((name, value, LAYER_UNITS[name],
                            "Section V-B, host time"))
    if bench.seed == DEFAULT_SEED:
        warm.golden()
    else:
        bench.notes.append("golden digests skipped off the default seed")
    return metrics


# -- sweep -----------------------------------------------------------------------


def sweep_argv(bench, extra):
    scale, cap = bench.size["sweep"]
    return ["sweep", "--workloads", ",".join(SWEEP_KERNELS),
            "--techniques", ",".join(TECHNIQUES), "--scale", scale,
            "--max-instructions", str(cap), "--jobs", JOBS,
            *bench.seed_args(), *extra]


def sweep_grid(bench):
    from repro.engine import expand_grid
    scale, cap = bench.size["sweep"]
    return expand_grid(list(SWEEP_KERNELS), list(TECHNIQUES), scale=scale,
                       seed=bench.build_seed, max_instructions=cap)


PHASES = ("sweep_cold", "sweep_warm", "daemon_cold", "daemon_warm")


def sweep_cycle(bench, cycle, sock, traced=None):
    """One cycle of the four phases; returns
    ``{phase: (op, rows, cache dir)}``.
    ``traced`` is ``(mode, out)`` for boot.py, or None."""
    from repro.service import ServiceClient
    cache = os.path.join(bench.work, f"sweep-{cycle}")
    phases = {}
    for phase in PHASES:
        if phase == "daemon_cold":
            with ServiceClient(sock) as client:      # untimed: empty it
                client.cache_gc(0)
        target = (["--daemon", sock] if phase.startswith("daemon")
                  else ["--cache-dir", cache])
        boot = None if traced is None else (*traced, phase)
        wall, rc, out, err = bench.repro(sweep_argv(bench, target), boot)
        rows = parse_sweep(out)
        want = "run" if phase.endswith("cold") else "hit"
        ok = (rc == 0 and len(rows) == len(SWEEP_KERNELS) * len(TECHNIQUES)
              and all(state == want for _, state in rows.values()))
        op = bench.add_op(phase, wall, ok, note=f"rc={rc} {err[-300:]}")
        phases[phase] = (op, rows, cache)
    return phases


def sweep_reference(bench, grid):
    """In-process results of the grid: ``{(workload, technique): r}``."""
    from repro import CoreConfig, Simulator
    from repro.workloads import build_workload
    out = {}
    for job in grid:
        wl = build_workload(job.workload, **bench.build_kwargs(job.scale))
        out[(job.workload, job.technique)] = Simulator(
            wl.program, config=CoreConfig.scaled(),
            technique=job.technique, max_instructions=job.max_instructions,
            name=wl.name).run()
    return out


def sweep_verify(bench, grid, cycles, sock):
    """Every spec gives one digest through the in-process simulator,
    the engine pool (blobs it wrote), a cache hit, the daemon and the
    CLI's printed IPC; one spec per run, rotating with the seed, also
    through ``repro run``."""
    from repro.engine import ExperimentEngine, ResultStore
    from repro.service import ServiceClient
    reference = sweep_reference(bench, grid)
    want = {spec: result_digest(r.to_dict())
            for spec, r in reference.items()}
    job = grid[bench.seed % len(grid)]
    wall, rc, out, err = bench.repro(
        ["run", job.workload, "--technique", job.technique, "--scale",
         job.scale, "--max-instructions", str(job.max_instructions),
         *bench.seed_args()])
    op = bench.add_op("repro-run", wall, rc == 0, note=err[-300:])
    bench.expect([op["id"]], parse_run(out), run_fields(
        reference[(job.workload, job.technique)]), f"repro run {job.label}")
    for phases in cycles:
        for phase, (op, rows, cache) in phases.items():
            for spec, (ipc, _) in rows.items():
                bench.expect([op["id"]], ipc, f"{reference[spec].ipc:.4f}",
                             f"{phase} printed IPC {spec}")
            if phase.endswith("cold"):
                op["instructions"] = sum(r.instructions
                                         for r in reference.values())
        op, _, cache = phases["sweep_cold"]
        store = ResultStore(cache)
        for job in grid:
            stored = store.get(job)
            bench.expect([op["id"]], stored and result_digest(
                stored.to_dict()), want[(job.workload, job.technique)],
                f"engine pool blob {job.label}")
    hit_ops = [p["sweep_warm"][0]["id"] for p in cycles]
    engine = ExperimentEngine(store=ResultStore(cycles[0]["sweep_cold"][2]),
                              jobs=1)
    for outcome in engine.run(grid):
        bench.expect(hit_ops, (outcome.cached, result_digest(
            outcome.result.to_dict())), (True, want[(
                outcome.job.workload, outcome.job.technique)]),
            f"cache hit {outcome.job.label}")
    daemon_ops = [p[ph][0]["id"] for p in cycles
                  for ph in ("daemon_cold", "daemon_warm")]
    with ServiceClient(sock) as client:
        for outcome in client.run(grid):
            bench.expect(daemon_ops, outcome.result and result_digest(
                outcome.result.to_dict()), want[(
                    outcome.job.workload, outcome.job.technique)],
                f"daemon {outcome.job.label}")
    by_kernel = {}
    for (kernel, technique), result in reference.items():
        by_kernel.setdefault(kernel, {})[technique] = result
    check_techniques_agree(bench, by_kernel, [op["id"] for op in bench.ops])
    bench.table.append(("conv_err_pct", conv_error_pct(by_kernel), "%",
                        "simulated; repeats exactly"))


def sweep(bench):
    imports = bench.fresh_setup("import repro.cli")
    start, sock, _ = bench.start_daemon("daemon")
    setup = imports + start
    cycles = []
    bench.rounds(lambda i: cycles.append(sweep_cycle(bench, i, sock)))
    grid = sweep_grid(bench)
    sweep_verify(bench, grid, cycles, sock)
    bench.stop_daemons()
    # One op is one cycle of the workflow.  Its four commands differ in
    # cost by about four times, so percentiles over single commands
    # would fall between them.
    latencies = [sum(p[phase][0]["seconds"] for phase in PHASES)
                 for p in cycles]
    metrics = {"setup_s": setup,
               **bench.latency_metrics(latencies, "cycles"),
               "sim_ips": bench.ips(PHASES), "peak_rss_mb": peak_rss_mb()}
    bench.host_table(PHASES)
    for phase in PHASES:
        walls = [p[phase][0]["seconds"] for p in cycles]
        bench.table.append((f"{phase}_s", statistics.median(walls), "s",
                            f"median of {len(walls)} commands"))
    return metrics


# -- sample ----------------------------------------------------------------------


def sample_argv(bench, cache):
    return ["sample", "--workloads", "gap.bfs", "--techniques",
            ",".join(SAMPLE_TECHNIQUES), "--scale", bench.size["sample"],
            "--jobs", JOBS, "--cache-dir", cache,
            *bench.size["sample_args"], *bench.seed_args()]


def sample_op(bench, index, boot=None):
    """One sample command into an empty cache; returns
    ``(op, combined digest, cache dir)``."""
    cache = os.path.join(bench.work, f"sample-{index}")
    wall, rc, out, err = bench.repro(sample_argv(bench, cache), boot)
    match = re.search(r"combined digest ([0-9a-f]{16})", out)
    rows = [line.split() for line in out.splitlines()
            if line.startswith("gap.bfs ")]
    instructions = sum(int(row[-1]) for row in rows if row[-1].isdigit())
    ok = rc == 0 and match is not None and len(rows) == 2
    op = bench.add_op("sample", wall, ok, instructions,
                      f"rc={rc} {err[-300:]}")
    return op, match.group(1) if match else None, cache


def sample_reference(bench) -> str:
    """Combined digest of the same plan sampled in-process."""
    from repro.simulator.sampling import sample_workload
    args = bench.size["sample_args"]
    options = dict(zip(args[::2], args[1::2]))
    kwargs = {"max_instructions": int(options["--max-instructions"])}
    if "--detail-length" in options:
        kwargs["detail_length"] = int(options["--detail-length"])
        kwargs["fastforward_length"] = int(options["--ff-length"])
    digests = [sample_workload("gap.bfs", technique=t,
                               scale=bench.size["sample"],
                               seed=bench.build_seed, **kwargs).digest()
               for t in SAMPLE_TECHNIQUES]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def sample(bench):
    setup = bench.fresh_setup(bench.build_probe(["gap.bfs"],
                                                bench.size["sample"]))
    results = []
    bench.rounds(lambda i: results.append(sample_op(bench, i)))
    metrics = {"setup_s": setup,
               **bench.latency_metrics([op["seconds"] for op in bench.ops]),
               "sim_ips": bench.ips(), "peak_rss_mb": peak_rss_mb()}
    bench.host_table()
    first = results[0][1]
    for op, digest, _ in results:
        bench.expect([op["id"]], digest, first, "sample digest repeat")
    bench.expect([op["id"] for op, _, _ in results], first,
                 sample_reference(bench), "sample pool vs in-process")
    return metrics


# -- traced pass -----------------------------------------------------------------


def profile_shares(stats_list):
    """Host-time share of each layer over the profiled ops."""
    totals = dict.fromkeys(boot.LAYERS, 0.0)
    for stats in stats_list:
        for layer, seconds in boot.layer_seconds(stats).items():
            totals[layer] += seconds
    whole = sum(totals.values()) or 1.0
    return {f"share.{layer}": seconds / whole
            for layer, seconds in totals.items()}


def layer_metrics(spans, traced_ops, cold_ops, entries):
    """Per-layer metrics from the spans of the traced ops (seconds are
    self time per op) and the engine journal ``entries``."""
    def per_op(name, ops=traced_ops):
        mine = [s for s in spans if s["name"] == name and s["op"] in ops]
        return sum(s["self"] for s in mine) / len(ops), len(mine)

    def counters(name):
        return [s["counters"] for s in spans
                if s["name"] == name and s["counters"]]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    builds = [s["end"] - s["start"] for s in spans
              if s["name"] == "workloads.build"]
    m["workloads.build_s"] = ratio(sum(builds), len(builds))
    m["compile.s"], calls = per_op("compile", cold_ops)
    m["compile.calls"] = calls / len(cold_ops)
    cores = counters("core.finalize")
    cold_cores = [s["counters"] for s in spans if s["name"] ==
                  "core.finalize" and s["op"] in cold_ops]
    m["compile.artifact_compiles"] = ratio(
        sum(c["artifact_compiles"] for c in cold_cores), len(cold_ops))
    m["functional.prepare_s"], _ = per_op("functional.prepare")
    # A functional pass reports cumulative counts at each capture: keep
    # the last capture of each pass.
    passes = {}
    for s in spans:
        if s["name"] == "simulator.snapshot_capture":
            passes[(s["pid"], s["parent"])] = s["counters"]
    functional = counters("simulator.run") + list(passes.values())
    m["functional.compiled_frac"] = ratio(
        sum(c["superblock_instructions"] for c in functional),
        sum(c["functional_instructions"] for c in functional))
    m["core.process_batch_s"], _ = per_op("core.process_batch")
    instructions = sum(c["instructions"] for c in cores)
    m["core.compiled_frac"] = ratio(
        sum(c["timingblock_instructions"] for c in cores), instructions)
    wrong = [c for c in cores if c["technique"] != "nowp"]
    wp = sum(c["wp_fetched"] for c in wrong)
    m["wrongpath.compiled_frac"] = ratio(
        sum(c["streamblock_instructions"] for c in wrong), wp)
    m["wrongpath.wp_per_kinstr"] = 1000 * ratio(
        wp, sum(c["instructions"] for c in wrong))
    m["cache.l1d_mpki"] = 1000 * ratio(
        sum(c["cache_stats"]["l1d"]["misses"] for c in cores), instructions)
    m["cache.llc_mpki"] = 1000 * ratio(
        sum(c["cache_stats"]["llc"]["misses"] for c in cores), instructions)
    m["cache.wp_access_frac"] = ratio(
        sum(c["cache_stats"]["l1d"]["wp_accesses"] for c in cores),
        sum(c["cache_stats"]["l1d"]["accesses"] for c in cores))
    m["branch.mpki"] = 1000 * ratio(
        sum(c["branch_mispredicts"] for c in cores), instructions)
    m["simulator.functional_pass_s"], _ = per_op(
        "simulator.functional_pass")
    m["simulator.snapshot_capture_s"], captures = per_op(
        "simulator.snapshot_capture")
    m["simulator.snapshot_restore_s"], _ = per_op(
        "simulator.snapshot_restore")
    m["simulator.intervals"] = captures / len(traced_ops)
    sizes = [c["snapshot_bytes"] for c in
             counters("simulator.snapshot_capture")]
    m["simulator.snapshot_kb"] = ratio(sum(sizes), len(sizes)) / 1024
    m["engine.fingerprint_s"], _ = per_op("engine.fingerprint")
    m["engine.store_get_s"], _ = per_op("engine.store_get")
    m["engine.store_put_s"], _ = per_op("engine.store_put")
    ran = [e for e in entries if e["status"] == "ok"]
    m["engine.queue_wait_s"] = ratio(
        sum(e["wall_seconds"] - e["sim_wall_seconds"] for e in ran),
        len(ran))
    m["engine.job_sim_s"] = ratio(
        sum(e["sim_wall_seconds"] for e in ran), len(ran))
    m["engine.hit_frac"] = ratio(sum(1 for e in entries if e["cached"]),
                                 len(entries))
    m["engine.retries"] = sum(max(0, e["attempts"] - 1) for e in entries)
    return m


def traced_warm_sim(bench):
    import cProfile

    import repro.workloads
    warm = WarmSim(bench)
    warm.setup()
    # The traced round sits between two untraced rounds, so host-speed
    # drift weighs on both sides of the overhead alike.
    warm.one_round(0)
    recorder = boot.install(bench.spans_dir, "build")
    try:
        for kernel in WARM_KERNELS:     # through the patched module
            repro.workloads.build_workload(
                kernel, **bench.build_kwargs(warm.scale))
        traced_ops = []
        for spec in warm.specs:
            recorder.op = "/".join(spec)
            traced_ops.append(recorder.op)
            start = time.perf_counter()
            result = warm.simulate(spec)
            op = bench.add_op("traced", time.perf_counter() - start)
            bench.expect([op["id"]], result_digest(result.to_dict()),
                         warm.expected[spec], f"{spec} traced digest")
    finally:
        recorder.uninstall()
    recorder.write()
    warm.one_round(1)
    plain_ops = [op for op in bench.ops if op["kind"] != "traced"]
    traced_wall = sum(op["wall"] for op in bench.ops
                      if op["kind"] == "traced")
    stats = []
    for technique in TECHNIQUES:
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.runcall(warm.simulate, ("gap.bfs", technique))
        bench.add_op("profile", time.perf_counter() - start)
        profiler.create_stats()
        stats.append(pstats.Stats(profiler))
    m = layer_metrics(boot.load_spans(bench.spans_dir), traced_ops,
                      traced_ops, [])
    m.update(profile_shares(stats))
    m.update(warm.slowdown(plain_ops))
    m["trace.overhead_frac"] = (
        2 * traced_wall / sum(op["wall"] for op in plain_ops) - 1)
    m["cli.import_s"] = bench.fresh_setup("import repro.cli")
    return m


def traced_sweep(bench):
    from repro.engine import RunJournal
    from repro.service import ServiceClient
    start, sock, _ = bench.start_daemon("daemon")
    plain = sweep_cycle(bench, 0, sock)
    _, traced_sock, traced_cache = bench.start_daemon("traced", traced=True)
    traced = sweep_cycle(bench, 1, traced_sock, ("trace", bench.spans_dir))
    with ServiceClient(traced_sock) as client:
        counters = client.status()["counters"]
    daemon_journal = RunJournal(
        os.path.join(traced_cache, "journal.jsonl")).entries()
    cold_sim = sum(e["sim_wall_seconds"] or 0 for e in daemon_journal
                   if e["status"] == "ok")
    path = os.path.join(bench.work, "profile-sweep")
    wall, rc, _, err = bench.repro(
        sweep_argv(bench, ["--cache-dir",
                           os.path.join(bench.work, "sweep-profile")]),
        ("profile", path, "p"))
    bench.add_op("profile", wall, rc == 0, note=err[-300:])
    bench.stop_daemons()
    entries = RunJournal(os.path.join(traced["sweep_cold"][2],
                                      "journal.jsonl")).entries()
    m = layer_metrics(boot.load_spans(bench.spans_dir), list(PHASES),
                      ["sweep_cold"], entries)
    m.update(profile_shares([pstats.Stats(path)]))
    m["trace.overhead_frac"] = (sum(p[0]["wall"] for p in traced.values())
                                / sum(p[0]["wall"] for p in plain.values())
                                - 1)
    m["service.start_s"] = start
    m["service.overhead_s"] = (traced["daemon_cold"][0]["wall"]
                               - cold_sim / int(JOBS))
    for name in ("executed", "hits", "shared"):
        m[f"service.{name}"] = counters[name]
    m["cli.import_s"] = bench.fresh_setup("import repro.cli")
    return m


def traced_sample(bench):
    from repro.engine import RunJournal
    plain, digest, _ = sample_op(bench, 0)
    traced, traced_digest, cache = sample_op(
        bench, 1, ("trace", bench.spans_dir, "sample"))
    path = os.path.join(bench.work, "profile-sample")
    profiled, profiled_digest, _ = sample_op(bench, 2,
                                             ("profile", path, "p"))
    for op, got in ((traced, traced_digest), (profiled, profiled_digest)):
        bench.expect([op["id"]], got, digest, "sample traced digest")
    entries = RunJournal(os.path.join(cache, "journal.jsonl")).entries()
    m = layer_metrics(boot.load_spans(bench.spans_dir), ["sample"],
                      ["sample"], entries)
    m.update(profile_shares([pstats.Stats(path)]))
    m["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1
    m["cli.import_s"] = bench.fresh_setup("import repro.cli")
    return m


# -- entry point -----------------------------------------------------------------

UNTRACED = {"warm-sim": warm_sim, "sweep": sweep, "sample": sample}
TRACED = {"warm-sim": traced_warm_sim, "sweep": traced_sweep,
          "sample": traced_sample}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload data seed (0 = registry defaults, "
                             "the only seed the golden digests cover)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimal op sizes (self-test)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="corrupt the first expected output, so one "
                             "op must count as failed (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args)
    shutil.rmtree(bench.work, ignore_errors=True)
    os.makedirs(bench.work)
    sys.path.insert(0, SRC)
    try:
        if args.trace:
            values = TRACED[args.workload](bench)
            units = LAYER_UNITS
        else:
            values = UNTRACED[args.workload](bench)
            units = E2E_UNITS
    finally:
        bench.stop_daemons()
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass
    for name in units:
        if name not in values:
            values[name] = 0.0
            bench.metric_notes[name] = "layer not engaged by this workload"
    attempted = len(bench.ops)
    failed = len(bench.failed)
    for note in bench.notes:
        print(f"note: {note}")
    rows = [(name, values[name], units[name],
             bench.metric_notes.get(name, "")) for name in units]
    rows += bench.table
    rows.append(("failed_frac", failed / attempted, "frac",
                 f"{failed} of {attempted} ops"))
    for name, value, unit, note in rows:
        print(f"{name:32s} {value:14.6g} {unit:9s} {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
