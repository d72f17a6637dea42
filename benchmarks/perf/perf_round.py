"""One benchmark round, run in a fresh process by ``run.py``.

A round sets its workload up (imports, fixed binaries, spawn images),
then runs the timed phase once and prints one JSON object on stdout:
timings, per-op samples, counter deltas, the correctness digest and,
in a traced round, the per-layer span table.  Rounds of one workload
and seed are identical by construction, so their digests must agree.

    PYTHONPATH=src python benchmarks/perf/perf_round.py \
        --workload fleet-mix --seed 0 --trace 0 --work DIR \
        --spawned-at "$(python -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List

import perf_spans

#: What one round runs, per workload, at scale 1.  ``tail`` is the
#: reported tail quantile: p99 where a round has thousands of ops, p90
#: where it has a hundred or fewer programs (spec, chaos).  Their p95
#: sits among the few slowest programs, so it jumps by a whole program
#: when the input set shifts by one.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fleet-mix": {
        "kind": "fleet", "requests": 1000, "slice": 1000, "jobs": 1, "tail": 0.99,
    },
    "fleet-sharded": {
        "kind": "fleet", "requests": 2000, "slice": 100, "jobs": 2, "tail": 0.99,
    },
    "spec-suite": {"kind": "spec", "schemes": ("ssp", "pssp"), "tail": 0.90},
    "chaos-cases": {"kind": "chaos", "budget": 100, "tail": 0.90},
}

#: Op root per workload kind (see perf_spans.LAYERS).
OP_ROOT = {"fleet": "fleet.server", "spec": "harness.metrics", "chaos": "faults.campaign"}

#: Counters whose deltas over the timed phase feed the metrics.
COUNTERS = (
    "machine_instructions_total",
    "machine_cycles_total",
    "jit_block_entries_total",
    "jit_blocks_compiled_total",
    "memory_page_faults_total",
    "kernel_forks_total",
    "build_cache_hits_total",
    "build_cache_misses_total",
    "snapshot_cache_hits_total",
    "snapshot_cache_misses_total",
)


def base_seed(workload: str, seed: int) -> int:
    """The program seed a benchmark seed stands for (0 = the defaults).

    Campaigns run seeds ``base .. base + n - 1``, so neighbouring
    benchmark seeds share most chaos cases and fleet slices: the inputs
    change with the seed while the amount of work stays comparable.
    """
    if workload.startswith("fleet"):
        return 20180625 + seed
    if workload == "chaos-cases":
        return 2018 + seed
    return 97 + seed


def scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def canonical_sha(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- workloads: set up, then a timed phase returning the round's outcome ---


def fleet_round(config, seed, scale, serial, timed):
    from repro.fleet.campaign import DEFAULT_FLEET_SCHEMES, run_fleet
    from repro.fleet.server import FleetServer

    schemes = DEFAULT_FLEET_SCHEMES
    seed = base_seed("fleet", seed)
    requests = scaled(config["requests"], scale)
    slice_requests = min(requests, scaled(config["slice"], scale))
    for scheme in schemes:
        FleetServer.boot(scheme, seed)
    with timed:
        report = run_fleet(
            requests, schemes=schemes, base_seed=seed,
            slice_requests=slice_requests,
            jobs=1 if serial else config["jobs"],
        )
    served = report.total_requests
    lost = sum(
        min(slice_requests, requests - (lost_seed - seed) * slice_requests)
        for scheme_report in report.reports for lost_seed in scheme_report.lost
    )
    failed = lost
    problems = []
    for scheme_report in report.reports:
        if scheme_report.campaign_divergences:
            failed += scheme_report.requests
        else:
            failed += sum(s.requests for s in scheme_report.slices if s.audit_divergences)
        problems.extend(
            f"{scheme_report.scheme}: {line}" for line in scheme_report.audit_divergences
        )
        problems.extend(
            f"{scheme_report.scheme}: slice seed {lost_seed} lost"
            for lost_seed in scheme_report.lost
        )
    digest = canonical_sha([r.summary() for r in report.reports])
    return served, served + lost, failed, problems, digest, {}


def spec_round(config, seed, scale, serial, timed):
    from repro.core.deploy import build, deploy
    from repro.harness import metrics
    from repro.kernel.kernel import Kernel
    from repro.workloads.spec import SPEC_PROGRAMS

    seed = base_seed("spec-suite", seed)
    programs = SPEC_PROGRAMS[: scaled(len(SPEC_PROGRAMS), scale)]
    schemes = config["schemes"]
    for scheme in schemes:
        for program in programs:
            deploy(Kernel(seed), build(program.source, scheme, name=program.name), scheme)
    runs: Dict[str, Dict[str, Any]] = {}
    with timed:
        for scheme in schemes:
            for program in programs:
                runs.setdefault(program.name, {})[scheme] = metrics.run_program(
                    program.source, scheme, name=program.name, seed=seed
                )
    table = {}
    failed = 0
    problems = []
    for name, by_scheme in runs.items():
        checksums = {m.exit_status for m in by_scheme.values()}
        crashed = [s for s, m in by_scheme.items() if m.crashed]
        if len(checksums) != 1 or crashed:
            failed += len(by_scheme)
            problems.append(
                f"{name}: checksums {sorted(checksums)} across schemes, "
                f"crashed under {crashed}"
            )
        table[name] = {
            "checksum": min(checksums),
            **{scheme: m.cycles for scheme, m in by_scheme.items()},
        }
    ops = len(programs) * len(schemes)
    ratios = [math.log(row["pssp"] / row["ssp"]) for row in table.values()]
    extra = {"sim_overhead_pct": (math.exp(sum(ratios) / len(ratios)) - 1) * 100}
    return ops, ops, failed, problems, table, extra


def chaos_round(config, seed, scale, serial, timed):
    from repro.faults.campaign import run_campaign

    budget = scaled(config["budget"], scale)
    with timed:
        report = run_campaign(budget, base_seed=base_seed("chaos-cases", seed), jobs=1)
    problems = [run.render() for run in report.violating_runs]
    problems.extend(f"seed {s}: infrastructure error: {d}" for s, d in report.infra_errors)
    done = len(report.runs) + len(report.infra_errors)
    failed = len(report.violating_runs) + len(report.infra_errors) + (budget - done)
    return budget, budget, failed, problems, report.outcome_tally(), {}


ROUNDS = {"fleet": fleet_round, "spec": spec_round, "chaos": chaos_round}


# -- the host-speed probe ------------------------------------------------------


class _ProbeMachine:
    """A register machine small enough to stay in cache: the probe's work
    is method dispatch, list and dict access and integer arithmetic, like
    the simulator's, but uses no program code."""

    def __init__(self) -> None:
        self.regs = [0] * 8
        self.acc = 0

    def add(self, a: int, b: int) -> None:
        self.regs[a] = (self.regs[a] + self.regs[b] + 1) & 0xFFFF

    def xor(self, a: int, b: int) -> None:
        self.regs[a] ^= (self.regs[b] << 1) & 0xFFFF

    def mov(self, a: int, b: int) -> None:
        self.regs[a] = self.regs[b]

    def fold(self, a: int, b: int) -> None:
        self.acc = (self.acc * 31 + self.regs[a]) & 0xFFFFFFFF


#: Iterations of one full probe pass, and of the short pass the pacer runs.
PROBE_ITERATIONS = 2500
PACE_ITERATIONS = 500
#: An untraced timed phase probes the host's speed after the first op
#: that ends this long after the previous probe.
PACE_INTERVAL_S = 0.05


def _probe_pass(iterations: int = PROBE_ITERATIONS) -> float:
    """Host time of a fixed pass of the probe machine, in seconds."""
    machine = _ProbeMachine()
    program = [
        (machine.add, 1, 2), (machine.xor, 2, 1), (machine.mov, 3, 1),
        (machine.fold, 3, 0), (machine.add, 4, 3), (machine.xor, 0, 4),
    ] * 4
    seen: Dict[int, int] = {}
    start = time.perf_counter()
    for _ in range(iterations):
        for op, a, b in program:
            op(a, b)
        seen[machine.acc & 1023] = seen.get(machine.acc & 1023, 0) + 1
    return time.perf_counter() - start


def _probe_best(_: object = None) -> float:
    return min(_probe_pass() for _ in range(3))


def probe_s(jobs: int) -> float:
    """The host's speed now: the best of three probe passes, run in
    ``jobs`` processes at once so that it meets the contention the
    round's own workers meet, averaged over the processes.

    A shared host can run for seconds or minutes at up to half its
    speed.  A probe next to the timed phase slows with it, so host times
    scaled by it repeat where raw ones do not (see README.md).
    """
    if jobs == 1:
        return _probe_best()
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        return statistics.mean(pool.map(_probe_best, range(jobs)))


class Pacer:
    """Probes the host's speed between the ops of a timed phase.

    Run after every op, outside its timing: once ``PACE_INTERVAL_S`` has
    passed since the last probe, it times a short probe pass and records
    it, at full-pass scale, with the number of ops done so far.  Pool
    workers inherit it through fork and probe their own cores.
    """

    def __init__(self, table: perf_spans.SpanTable) -> None:
        self.table = table
        self.next_at = 0.0

    def __call__(self) -> None:
        now = time.perf_counter()
        if now < self.next_at:
            return
        seconds = _probe_pass(PACE_ITERATIONS) * PROBE_ITERATIONS / PACE_ITERATIONS
        self.table.probes.append((len(self.table.op_ms), seconds))
        end = time.perf_counter()
        self.table.probe_spent_s += end - now
        self.next_at = end + PACE_INTERVAL_S


class Timed:
    """The timed phase: records set-up end, wall time and counter deltas,
    and probes the host's speed just before it, between its ops and just
    after it."""

    def __init__(self, spawned_at: float, table: perf_spans.SpanTable, jobs: int) -> None:
        self.spawned_at = spawned_at
        self.table = table
        self.jobs = jobs

    def __enter__(self):
        from repro import telemetry

        self.registry = telemetry.registry()
        self.setup_s = time.monotonic() - self.spawned_at
        self.probes = [probe_s(self.jobs)]
        self.before = {name: self.registry.value(name) for name in COUNTERS}
        self.table.reset()
        self.table.after_op = Pacer(self.table)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.start
        self.table.after_op = None
        self.counters = {
            name: self.registry.value(name) - self.before[name] for name in COUNTERS
        }
        self.probes.append(probe_s(self.jobs))
        return False


def own_peak_kb() -> int:
    """This process's peak RSS since it started its program.

    On Linux ``RUSAGE_SELF``'s ``ru_maxrss`` also counts the process it
    was spawned from, up to the exec, so it would follow the size of
    ``run.py``; the ``VmHWM`` line of ``/proc/self/status`` does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_round(
    workload: str,
    seed: int,
    *,
    traced: bool,
    spawned_at: float,
    work: str,
    scale: float = 1.0,
    serial: bool = False,
) -> Dict[str, Any]:
    """Set up ``workload``, run its timed phase once, and describe it."""
    config = WORKLOADS[workload]
    jobs = 1 if serial else config.get("jobs", 1)
    table = perf_spans.SpanTable()
    worker_log = tempfile.mkdtemp(prefix="round-", dir=work) if jobs > 1 else None
    restore = perf_spans.install(
        table, root=OP_ROOT[config["kind"]], traced=traced, worker_log=worker_log
    )
    timed = Timed(spawned_at, table, jobs)
    try:
        ops, attempted, failed, problems, outputs, extra = ROUNDS[config["kind"]](
            config, seed, scale, serial, timed
        )
        # Reap pool workers so their peak RSS reaches RUSAGE_CHILDREN.
        for child in multiprocessing.active_children():
            child.join()
        distinct = len(table.decoded)
        if worker_log is not None:
            distinct += perf_spans.merge_worker_lines(table, worker_log)
            if not table.op_ms:
                problems.append(
                    "pool workers recorded no ops: they did not inherit the "
                    "span wrappers (the pool must fork)"
                )
                failed = attempted
    finally:
        restore()
        if worker_log is not None:
            shutil.rmtree(worker_log, ignore_errors=True)
    peak_kb = max(own_peak_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "jobs": jobs,
        "setup_s": timed.setup_s,
        "wall_s": timed.wall_s,
        "probe_s": statistics.mean(timed.probes),
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        # Simulated cycles are pinned with the outputs, so a change that
        # moves ``sim_cycles_per_op`` fails the digest check.
        "digest": {
            "outputs": outputs,
            "machine_cycles_total": timed.counters["machine_cycles_total"],
        },
        "extra": extra,
        "op_ms": table.op_ms,
        "paced_probes": table.probes,
        "probe_spent_s": table.probe_spent_s,
        "peak_rss_mb": peak_kb / 1024,
        "counters": timed.counters,
    }
    if traced:
        result["layers"] = {
            "self_s": table.self_s,
            "total_s": table.total_s,
            "calls": table.calls,
            "decoded_distinct": distinct,
            "worker_slice_s": table.slice_s,
        }
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--serial", action="store_true",
                        help="run a sharded workload with jobs=1 (digest recording)")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--work", required=True, help="scratch directory for pool workers")
    args = parser.parse_args(argv)
    result = run_round(
        args.workload, args.seed,
        traced=bool(args.trace),
        spawned_at=args.spawned_at,
        work=args.work,
        scale=args.scale,
        serial=args.serial,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
