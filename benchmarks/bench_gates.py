#!/usr/bin/env python
"""One perf gate: paired, interleaved host-time ratios for the fast tiers.

Every gate here times two configurations of the same work, or one
host-scaled cost.  Bit-identity and the deterministic counts (pages
copied per fork, build-cache hits, JIT entries on a spec-suite slice,
the fleet's supervision numbers) are exact tier-1 tests under tests/;
this script only times.

Configurations alternate call by call: forward order on even rounds,
reversed on odd ones.  Each gate reads the median of the per-round
ratios, so a host that slows midway slows both sides of a round alike
and the swing cancels instead of flaking the gate.  Garbage is
collected before every timed call, and the collector is off during it.

    python benchmarks/bench_gates.py --smoke --json gates.json   # CI size
    python benchmarks/bench_gates.py                             # full

Full mode runs more rounds at the larger workload sizes, and serves the
10^6-request fleet campaign, whose summaries must equal
tests/fleet/corpus/fleet-mixed-1m.json exactly.

Exit status: 0 when every bound holds, 1 when a perf bound fails, 2 when
the sides of a round computed different accounting (or a fleet campaign
lost slices, failed its audit or drifted off its record): a correctness
bug, never retried.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

from perf_round import probe_s  # noqa: E402
from run import REFERENCE_PROBE_S  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.core.deploy import build, deploy  # noqa: E402
from repro.fleet.campaign import run_fleet, run_fleet_slice  # noqa: E402
from repro.fleet.traffic import TrafficConfig  # noqa: E402
from repro.fuzz.fuzzer import run_fuzz  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402
from repro.parallel import build_cache, reset_build_cache  # noqa: E402
from repro.trace import SliceTracer, TraceConfig  # noqa: E402

# -- bounds --------------------------------------------------------------------

#: Fast path (JIT on) over slow-oracle throughput, per workload.
FAST_OVER_SLOW_MIN = {"alu_loop": 8.0, "call_dense": 6.0, "canary_heavy": 0.88}
#: JIT-on over JIT-off throughput on the same fast interpreter, per
#: workload, and its geomean over the hot straight-line and call-dense
#: workloads (canary-heavy code side-exits at every protected prologue).
JIT_OVER_NOJIT_MIN = {"alu_loop": 1.76, "call_dense": 1.60, "canary_heavy": 0.68}
JIT_GEOMEAN_MIN = 2.0
JIT_GEOMEAN_WORKLOADS = ("alu_loop", "call_dense")
#: Telemetry-off over telemetry-on fast-path throughput, geomean over
#: the workloads.
TELEMETRY_OVERHEAD_MAX = 1.05
#: Fork time at a 4 MiB stack over a 64 KiB one (a copying fork shows
#: the ~10x page ratio), and eager deep-copy over COW clone at 4 MiB.
FORK_SIZE_RATIO_MAX = 5.0
EAGER_OVER_COW_MIN = 7.5
#: Serial over sharded fuzz campaign time, armed on hosts with the cores.
FUZZ_JOBS = 4
FUZZ_SPEEDUP_MIN = 1.5
#: Smoke fleet campaign wall requests/s: a quarter of the 2,284 measured
#: on a 1-core reference run.
FLEET_RPS_MIN = 571
#: Untraced host time of one fleet request at the reference host speed
#: (``benchmarks/perf/run.py``'s ``REFERENCE_PROBE_S``), as the tracing
#: gate measures it: the median of ten ``--smoke`` runs on a 2-core
#: x86-64 host, CPython 3.11.7.  Tracing may add a quarter of it; a
#: bound on the added time does not tighten as requests get faster, as
#: a traced/untraced ratio would.
UNTRACED_REQUEST_US = 128.0
TRACE_ADDED_US_MAX = 0.25 * UNTRACED_REQUEST_US

# -- workloads -----------------------------------------------------------------

ALU_LOOP = """
int main() {
    int acc; int i;
    acc = 1;
    for (i = 0; i < %ITER%; i = i + 1) {
        acc = acc + i * 3 - (acc / 7);
        acc = acc ^ (i + 11);
        if (acc > 1000000) {
            acc = acc - 1000000;
        }
    }
    return acc - (acc / 256) * 256;
}
"""

CALL_DENSE = """
int leaf(int n) {
    char buf[16];
    buf[0] = n;
    return buf[0] + 1;
}

int main() {
    int total; int i;
    total = 0;
    for (i = 0; i < %ITER%; i = i + 1) {
        total = total + leaf(i - (i / 128) * 128);
    }
    return total - (total / 256) * 256;
}
"""

CANARY_HEAVY = """
int inner(int n) {
    char buf[32];
    buf[0] = n;
    return buf[0] * 2;
}

int outer(int n) {
    char buf[48];
    int total; int i;
    total = 0;
    for (i = 0; i < 4; i = i + 1) {
        total = total + inner(n + i);
    }
    buf[0] = total;
    return buf[0];
}

int main() {
    int total; int i;
    total = 0;
    for (i = 0; i < %ITER%; i = i + 1) {
        total = total + outer(i - (i / 64) * 64);
    }
    return total - (total / 256) * 256;
}
"""

#: (name, scheme, source template, smoke iterations, full iterations)
WORKLOADS = (
    ("alu_loop", "none", ALU_LOOP, 6_000, 40_000),
    ("call_dense", "none", CALL_DENSE, 1_200, 8_000),
    ("canary_heavy", "pssp-owf", CANARY_HEAVY, 250, 1_500),
)

FORK_WORKLOAD = """
int handler(int n) {
    char buf[64];
    int i;
    for (i = 0; i < 64; i = i + 1) {
        buf[i - (i / 64) * 64] = i + n;
    }
    return buf[0] + buf[63];
}
int main() { return handler(7); }
"""
FORK_STACKS = (0x10000, 0x400000)
FORKS_PER_CALL = 20

TRACE_SCHEMES = ("ssp", "pssp")
TRACE_SEED = 20180625
TRACE_REQUESTS = 200

FLEET_CORPUS = ROOT / "tests" / "fleet" / "corpus" / "fleet-mixed-1m.json"

# -- the paired loop -----------------------------------------------------------


class Divergence(Exception):
    """The sides of a round computed different accounting."""


@dataclass
class Check:
    name: str
    value: float
    bound: float
    at_most: bool = False
    samples: List[float] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.value <= self.bound if self.at_most else self.value >= self.bound

    def line(self) -> str:
        op = "<=" if self.at_most else ">="
        return (f"{'ok  ' if self.ok else 'FAIL'} {self.name:32s} "
                f"{self.value:9.3f}  (bound {op} {self.bound:g})")


def interleave(sides: Dict[str, Callable], rounds: int, account: Callable,
               before_round: Callable = lambda: None) -> Dict[str, List[float]]:
    """Time every side once per round, in alternating order; return each
    side's host seconds per round.  ``account`` maps a side's result to
    what every side of a round must agree on, outside the timing."""
    times: Dict[str, List[float]] = {name: [] for name in sides}
    order = list(sides)
    for round_ in range(rounds):
        before_round()
        seen = {}
        for name in order if round_ % 2 == 0 else order[::-1]:
            gc.collect()
            gc.disable()
            start = perf_counter()
            try:
                result = sides[name]()
            finally:
                times[name].append(perf_counter() - start)
                gc.enable()
            seen[name] = account(result)
        first = next(iter(seen.values()))
        if any(value != first for value in seen.values()):
            raise Divergence(f"round {round_} of {'/'.join(order)}: {seen!r:.400}")
    return times


def ratios(times: Dict[str, List[float]], num: str, den: str) -> List[float]:
    """Per-round ``times[num] / times[den]``."""
    return [a / b for a, b in zip(times[num], times[den])]


def ratio_check(name, samples, bound, at_most=False) -> Check:
    return Check(name, statistics.median(samples), bound, at_most, samples)


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- gates -----------------------------------------------------------------------


def _process(source, scheme, *, jit=True, observed=True, **deploy_options):
    """A warmed process, deployed with ``deploy``'s defaults unless told
    otherwise, and a call that runs its ``main`` once more."""
    process, _ = deploy(Kernel(seed=42), build(source, scheme, name="bench"),
                        scheme, cycle_limit=4_000_000_000, **deploy_options)
    process.cpu.jit = jit
    if process.run().crashed:
        raise SystemExit(f"gate workload crashed under {scheme}")

    def call():
        (telemetry.enable if observed else telemetry.disable)()
        return process, process.call("main")
    return call


def _accounting(result):
    process, call = result
    cpu = process.cpu
    return cpu.cycles, cpu.instructions_executed, cpu.tsc.value, call.exit_status


def interpreter_gate(smoke: bool) -> List[Check]:
    """fast/slow, jit/nojit and telemetry on/off on the three workloads;
    the slow oracle runs once per round."""
    slow_rounds, fast_rounds = (5, 15) if smoke else (7, 21)
    checks, jit_medians, overheads = [], {}, []
    try:
        for name, scheme, template, smoke_iter, full_iter in WORKLOADS:
            source = template.replace("%ITER%", str(smoke_iter if smoke else full_iter))
            times = interleave({
                "slow": _process(source, scheme, fast=False, jit=False),
                "fast": _process(source, scheme),
            }, slow_rounds, _accounting)
            checks.append(ratio_check(f"fast/slow {name}", ratios(times, "slow", "fast"),
                                      FAST_OVER_SLOW_MIN[name]))
            times = interleave({
                "nojit": _process(source, scheme, jit=False),
                "jit": _process(source, scheme),
                "quiet": _process(source, scheme, observed=False),
            }, fast_rounds, _accounting)
            check = ratio_check(f"jit/nojit {name}", ratios(times, "nojit", "jit"),
                                JIT_OVER_NOJIT_MIN[name])
            checks.append(check)
            jit_medians[name] = check.value
            overheads.append(statistics.median(ratios(times, "jit", "quiet")))
    finally:
        telemetry.enable()
    checks.append(Check("jit/nojit geomean alu+call",
                        geomean([jit_medians[n] for n in JIT_GEOMEAN_WORKLOADS]),
                        JIT_GEOMEAN_MIN))
    checks.append(Check("telemetry on/off geomean", geomean(overheads),
                        TELEMETRY_OVERHEAD_MAX, at_most=True, samples=overheads))
    return checks


def _forker(stack_size):
    kernel = Kernel(9001)
    process, _ = deploy(kernel, build(FORK_WORKLOAD, "pssp", name="forkbench"),
                        "pssp", stack_size=stack_size)
    process.run()
    # The first fork freezes the parent's dirty pages, as in a fork server.
    kernel.reap(kernel.fork(process))

    def call():
        for _ in range(FORKS_PER_CALL):
            child = kernel.fork(process)
            kernel.reap(child)
        return child
    return process, call


def _memory_digest(memory) -> str:
    digest = hashlib.sha256()
    for segment in memory.segments():
        digest.update(segment.tobytes())
    return digest.hexdigest()


def fork_gate(smoke: bool) -> List[Check]:
    """Fork cost across a 64x stack range, and COW against eager clones."""
    rounds = 9 if smoke else 21
    (_, small), (parent, large) = (_forker(size) for size in FORK_STACKS)
    times = interleave({"small": small, "large": large}, rounds,
                       lambda child: child.memory.page_stats()["private_pages"])
    checks = [ratio_check("fork 4 MiB/64 KiB", ratios(times, "large", "small"),
                          FORK_SIZE_RATIO_MAX, at_most=True)]
    memory = parent.memory

    def cloner(eager):
        def call():
            for _ in range(FORKS_PER_CALL):
                copy = memory.clone(eager=eager)
            return copy
        return call
    times = interleave({"eager": cloner(True), "cow": cloner(False)}, rounds, _memory_digest)
    checks.append(ratio_check("eager/cow clone 4 MiB", ratios(times, "eager", "cow"),
                              EAGER_OVER_COW_MIN))
    return checks


def tracing_gate(smoke: bool) -> List[Check]:
    """Host µs a tracer adds to a fleet request, at reference host speed."""
    rounds = 21 if smoke else 61
    added, untraced = [], []
    for scheme in TRACE_SCHEMES:
        run_fleet_slice(scheme, TRACE_SEED, request_budget=20)  # warm-up

        def serve(traced, scheme=scheme):
            def call():
                tracer = (SliceTracer(scheme, TRACE_SEED, config=TraceConfig(series_interval=25))
                          if traced else None)
                return run_fleet_slice(scheme, TRACE_SEED, request_budget=TRACE_REQUESTS,
                                       tracer=tracer)
            return call
        # The host's speed, probed on either side of every round, scales
        # that round's times to the reference host.
        probes: List[float] = []
        times = interleave({"off": serve(False), "on": serve(True)}, rounds,
                           lambda record: record.to_json(),
                           before_round=lambda: probes.append(probe_s(1)))
        probes.append(probe_s(1))
        for r, (on, off) in enumerate(zip(times["on"], times["off"])):
            scale = 1e6 / TRACE_REQUESTS * REFERENCE_PROBE_S / statistics.mean(probes[r:r + 2])
            added.append((on - off) * scale)
            untraced.append(off * scale)
    print(f"     untraced request {statistics.median(untraced):.1f} us "
          "at reference host speed")
    return [ratio_check("tracing added us/request", added, TRACE_ADDED_US_MAX, at_most=True)]


def fleet_gate(smoke: bool) -> List[Check]:
    """Wall throughput of the sharded fleet campaign; in full mode, its
    10^6-request summaries against the committed record."""
    record = json.loads(FLEET_CORPUS.read_text())
    budget = 2_000 if smoke else record["request_budget"]
    start = perf_counter()
    report = run_fleet(budget, schemes=tuple(record["schemes"]), base_seed=record["base_seed"],
                       slice_requests=record["slice_requests"],
                       config=TrafficConfig.from_json(record["config"]), jobs=2)
    wall = perf_counter() - start
    if report.lost_slices or report.audit_divergences:
        raise Divergence(f"fleet campaign: {report.lost_slices} lost slice(s), "
                         f"{len(report.audit_divergences)} audit divergence(s)")
    if not smoke:
        produced = {r.scheme: json.loads(json.dumps(r.summary())) for r in report.reports}
        if produced != record["expected"] or report.total_requests < 1_000_000:
            drifted = sorted(s for s in produced if produced[s] != record["expected"].get(s))
            raise Divergence(f"fleet campaign of {report.total_requests:,d} requests "
                             f"drifted off {FLEET_CORPUS.name}: {drifted}")
    return [Check("fleet requests/s", report.total_requests / wall, FLEET_RPS_MIN)]


def fuzz_gate(smoke: bool) -> List[Check]:
    """Serial over sharded fuzz campaign time, when the host has the cores."""
    cores = os.cpu_count() or 1
    if cores < FUZZ_JOBS:
        print(f"skip fuzz serial/jobs-{FUZZ_JOBS} ({cores} cores)")
        return []
    budget = 24 if smoke else 200
    serial_cache = {}

    def campaign(jobs):
        def call():
            reset_build_cache()
            report = run_fuzz(budget, base_seed=2018, shrink=False, health=False, jobs=jobs)
            if jobs == 1:
                serial_cache.update(build_cache().stats())
            return report
        return call
    times = interleave({"serial": campaign(1), "sharded": campaign(FUZZ_JOBS)}, 3,
                       lambda report: json.dumps(report.to_json(), sort_keys=True))
    check = ratio_check(f"fuzz serial/jobs-{FUZZ_JOBS}", ratios(times, "serial", "sharded"),
                        FUZZ_SPEEDUP_MIN)
    # The nightly build-cache record: one serial campaign's hits and misses.
    check.detail = {"budget": budget, "build_cache": serial_cache}
    return [check]


GATES = (interpreter_gate, fork_gate, tracing_gate, fleet_gate, fuzz_gate)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fewer rounds, smaller workloads)")
    parser.add_argument("--json", metavar="OUT", help="write every check to OUT")
    args = parser.parse_args(argv)

    checks, status, divergence = [], 0, None
    try:
        for gate in GATES:
            for check in gate(args.smoke):
                print(check.line(), flush=True)
                checks.append(check)
    except Divergence as exc:
        divergence = str(exc)
        print(f"ACCOUNTING DIVERGENCE (correctness bug): {exc}", file=sys.stderr)
        status = 2
    failed = [check.name for check in checks if not check.ok]
    if failed and not status:
        print(f"PERF REGRESSION: {', '.join(failed)}", file=sys.stderr)
        status = 1
    if args.json:
        Path(args.json).write_text(json.dumps({
            "mode": "smoke" if args.smoke else "full",
            "status": status,
            "cores": os.cpu_count() or 1,
            "divergence": divergence,
            "checks": [dict(asdict(check), ok=check.ok) for check in checks],
        }, indent=2) + "\n")
    if not status:
        print("every perf gate passed")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
