"""The repository's performance benchmark: whole-system and per-layer.

    python benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--json OUT]

Every workload runs as identical rounds, each in a fresh subprocess
(so set-up and peak memory are measured every round), interleaved
round-robin across workloads, until each workload has used ``--seconds``
of rounds.  Each metric is the median over rounds; host times are scaled
to a reference host speed by the host-speed probes each round takes
(``perf_round.probe_s`` and ``perf_round.Pacer``).  Untraced rounds give
the end-to-end metrics; ``--trace`` alternates untraced and traced rounds
and reports the per-layer table from the traced ones instead.  Every
round's outputs are checked against the committed digests
(``digests.json``); a mismatch, a lost slice, an audit divergence or a
chaos violation counts as failed ops and makes the run exit 2.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perf_round import WORKLOADS
from perf_spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DIGESTS = HERE / "digests.json"

#: The benchmark's inputs are this many committed input sets; ``--seed N``
#: picks set ``N mod INPUT_SETS``, so every run is checked against a
#: committed digest.
INPUT_SETS = 32
#: Every round's size multiplier (the harness tests shrink it).
SCALE = 1.0
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
#: A full probe pass on a reference host, about at rest.  Host-time
#: end-to-end metrics are reported at that host's speed: a round's host
#: times are multiplied by ``REFERENCE_PROBE_S`` over its own probe time.
REFERENCE_PROBE_S = 0.008
#: An op's host time is scaled by this many paced probes on either side.
PACE_WINDOW = 2
#: A traced breakdown whose unattributed remainder exceeds this share of
#: host time does not add up, which is a bug in the benchmark.
MAX_UNATTRIBUTED_PCT = 5.0


class RoundError(RuntimeError):
    """A round process failed to produce a result."""


# -- running rounds ----------------------------------------------------------


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_round(
    workload: str, seed: int, *, traced: bool, work: str, serial: bool = False,
) -> Dict[str, Any]:
    """Run one round in a fresh process and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "perf_round.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--scale", repr(SCALE),
        "--work", work, "--spawned-at", repr(spawned_at),
    ]
    if serial:
        command.append("--serial")
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
    finally:
        # The round's own process group: pool workers die with it.
        _kill_group(process.pid)
        process.wait()
    if process.returncode != 0:
        raise RoundError(f"{workload} round exited {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RoundError(f"{workload} round printed no result")
    result = json.loads(lines[-1])
    result["round_s"] = time.monotonic() - spawned_at
    return result


class Campaign:
    """The rounds of one workload in one run, and their checks."""

    def __init__(self, workload: str, seed: int, expected: Optional[Any]) -> None:
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.rounds: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.spent_s = 0.0
        self.longest_s = 0.0
        self.broken = False

    def add(self, result: Dict[str, Any]) -> None:
        self.spent_s += result["round_s"]
        self.longest_s = max(self.longest_s, result["round_s"])
        self.attempted += result["attempted"]
        failed = result["failed"]
        self.problems.extend(result["problems"])
        reference = self.expected
        if reference is None and self.rounds:
            reference = self.rounds[0]["digest"]
        if reference is not None and result["digest"] != reference:
            failed = result["attempted"]
            origin = "committed digest" if self.expected is not None else "first round"
            self.problems.append(
                f"{self.workload} seed {self.seed}: outputs differ from the {origin}: "
                f"{_digest_diff(reference, result['digest'])}"
            )
        self.failed += failed
        self.rounds.append(result)

    def fail(self, error: Exception) -> None:
        nominal = self.rounds[-1]["attempted"] if self.rounds else 1
        self.attempted += nominal
        self.failed += nominal
        self.problems.append(str(error))
        self.broken = True

    def wants_round(self, seconds: float) -> bool:
        if self.broken:
            return False
        if len(self.rounds) < MIN_ROUNDS:
            return True
        return self.spent_s + self.longest_s <= seconds

    def next_is_traced(self, traced: bool) -> bool:
        # Trace runs alternate: untraced, traced, untraced, ...
        return traced and len(self.rounds) % 2 == 1


def _digest_diff(want: Any, got: Any) -> str:
    """The first few differing leaves, by dotted key."""
    def leaves(value: Any, prefix: str = "") -> Dict[str, Any]:
        if not isinstance(value, dict):
            return {prefix or "digest": value}
        out: Dict[str, Any] = {}
        for key, item in value.items():
            out.update(leaves(item, f"{prefix}{key}."))
        return out

    flat_want, flat_got = leaves(want), leaves(got)
    keys = sorted(k for k in set(flat_want) | set(flat_got)
                  if flat_want.get(k) != flat_got.get(k))
    return "; ".join(
        f"{k.rstrip('.')}: {flat_want.get(k)!r} != {flat_got.get(k)!r}" for k in keys[:5]
    )


def run_campaigns(
    workloads: Sequence[str], seed: int, *, seconds: float, traced: bool,
    digests: Dict[str, Any], work: str,
) -> Dict[str, Campaign]:
    """Interleave rounds round-robin until every workload is done."""
    campaigns = {
        name: Campaign(name, seed, expected_digest(digests, name, seed))
        for name in workloads
    }
    while True:
        pending = [c for c in campaigns.values() if c.wants_round(seconds)]
        if not pending:
            return campaigns
        for campaign in pending:
            try:
                campaign.add(run_round(
                    campaign.workload, seed,
                    traced=campaign.next_is_traced(traced),
                    work=work,
                ))
            except RoundError as error:
                campaign.fail(error)


def expected_digest(digests: Dict[str, Any], workload: str, seed: int):
    if digests.get("scale") != SCALE:
        return None
    by_seed = digests.get(workload, {})
    return by_seed.get(str(seed), by_seed.get("*"))


# -- metrics -----------------------------------------------------------------


def spread(values: Sequence[float]) -> Dict[str, Any]:
    """Median with quartiles (``statistics.quantiles``) and count."""
    values = list(values)
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return {"median": value, "q1": value, "q3": value, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tail(samples: Sequence[float], quantile: float) -> Dict[str, Any]:
    """Nearest-rank ``quantile`` of pooled samples, with what lies beyond."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return {
        "median": ordered[rank - 1],
        "quantile": quantile,
        "n": len(ordered),
        "beyond": len(ordered) - rank,
    }


def at_reference(result: Dict[str, Any], host_time: float) -> float:
    """``host_time`` from ``result``'s round, at the reference host's speed,
    by the probes taken just before and just after its timed phase."""
    return host_time * REFERENCE_PROBE_S / result["probe_s"]


def timed_s(result: Dict[str, Any]) -> float:
    """Host time of the timed phase's work: its wall time less the time
    the pacer's probes took (spread over ``jobs`` pool workers)."""
    return result["wall_s"] - result["probe_spent_s"] / result["jobs"]


def ops_at_reference(result: Dict[str, Any]) -> List[float]:
    """Every op's host time at the reference host's speed, each by the
    ``PACE_WINDOW`` probes paced on either side of it."""
    paced = result["paced_probes"]
    done = [ops for ops, _ in paced]
    inverse = [1 / s for _, s in paced]
    out = []
    for index, ms in enumerate(result["op_ms"]):
        after = bisect.bisect_right(done, index)
        window = inverse[max(0, after - PACE_WINDOW): after + PACE_WINDOW]
        out.append(ms * REFERENCE_PROBE_S * statistics.fmean(window))
    return out


def timed_at_reference(result: Dict[str, Any]) -> float:
    """The timed phase's host time at the reference host's speed, scaled
    as its ops were, weighted by their host time."""
    return timed_s(result) * sum(ops_at_reference(result)) / sum(result["op_ms"])


def ops_per_s(result: Dict[str, Any]) -> float:
    return result["ops"] / timed_at_reference(result)


def end_to_end(campaign: Campaign) -> Dict[str, Dict[str, Any]]:
    rounds = [r for r in campaign.rounds if not r["traced"]]
    op_ms = [ops_at_reference(r) for r in rounds]

    def per_round(fn) -> Dict[str, Any]:
        return spread([fn(r) for r in rounds])

    return {
        "ops_per_s": per_round(ops_per_s),
        "op_p50_ms": spread([statistics.median(ms) for ms in op_ms]),
        "op_tail_ms": tail(
            [ms for round_ms in op_ms for ms in round_ms],
            WORKLOADS[campaign.workload]["tail"],
        ),
        "setup_s": per_round(lambda r: at_reference(r, r["setup_s"])),
        "peak_rss_mb": per_round(lambda r: r["peak_rss_mb"]),
        "guest_minstr_per_s": per_round(
            lambda r: r["counters"]["machine_instructions_total"]
            / timed_at_reference(r) / 1e6
        ),
        "sim_cycles_per_op": per_round(
            lambda r: r["counters"]["machine_cycles_total"] / r["ops"]
        ),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_row(result: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced round (``trace_overhead_pct``
    excepted: it compares rounds)."""
    table = result["layers"]
    counters = result["counters"]
    # The pacer's probes run between ops, outside every layer's self time.
    base = result["wall_s"] + table["worker_slice_s"] - result["probe_spent_s"]
    ops = result["ops"]
    row: Dict[str, float] = {}
    for layer in LAYERS:
        row[f"{layer}.self_s"] = table["self_s"][layer]
        row[f"{layer}.share_pct"] = 100 * table["self_s"][layer] / base
        row[f"{layer}.calls"] = table["calls"][layer]
    unattributed = base - sum(table["self_s"].values())
    row["unattributed.self_s"] = unattributed
    row["unattributed.share_pct"] = 100 * unattributed / base
    row["unattributed.calls"] = ops
    calls = table["calls"]
    cpu_s = table["self_s"]["machine.cpu.fast"] + table["self_s"]["machine.cpu.slow"]
    row.update({
        "machine.decode.per_op": calls["machine.decode"] / ops,
        "machine.decode.distinct_ratio": _ratio(
            table["decoded_distinct"], calls["machine.decode"]
        ),
        "machine.jit.entries_per_op": counters["jit_block_entries_total"] / ops,
        "machine.jit.compiled_blocks": counters["jit_blocks_compiled_total"],
        "machine.cpu.ns_per_instr": _ratio(
            cpu_s * 1e9, counters["machine_instructions_total"]
        ),
        "crypto.aes.per_op": calls["crypto.aes"] / ops,
        "kernel.fork.pages_copied_per_fork": _ratio(
            counters["memory_page_faults_total"], counters["kernel_forks_total"]
        ),
        "parallel.buildcache.hit_rate": _ratio(
            counters["build_cache_hits_total"],
            counters["build_cache_hits_total"] + counters["build_cache_misses_total"],
        ),
        "parallel.snapcache.hit_rate": _ratio(
            counters["snapshot_cache_hits_total"],
            counters["snapshot_cache_hits_total"]
            + counters["snapshot_cache_misses_total"],
        ),
        "parallel.executor.worker_busy_pct": _ratio(
            100 * table["worker_slice_s"],
            result["jobs"] * table["total_s"]["parallel.executor"],
        ),
    })
    return row


def per_layer(campaign: Campaign) -> Dict[str, Dict[str, Any]]:
    traced = [r for r in campaign.rounds if r["traced"]]
    rows = [layer_row(r) for r in traced]
    metrics = {name: spread([row[name] for row in rows]) for name in rows[0]}
    untraced = [ops_per_s(r) for r in campaign.rounds if not r["traced"]]
    with_spans = statistics.median(ops_per_s(r) for r in traced)
    metrics["trace_overhead_pct"] = {
        "median": (statistics.median(untraced) / with_spans - 1) * 100,
        "n": len(traced),
    }
    return metrics


# -- output ------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_workload(campaign, e2e, layers_out, units) -> List[str]:
    name = campaign.workload
    lines = [
        f"{name}: {len(campaign.rounds)} round(s), failed_share "
        f"{_fmt(_ratio(campaign.failed, campaign.attempted))} fraction "
        f"({campaign.failed}/{campaign.attempted} ops)"
    ]
    for metric, stats in {**(e2e or {}), **(layers_out or {})}.items():
        extra = ""
        if "q1" in stats:
            extra = f"  q1 {_fmt(stats['q1'])}  q3 {_fmt(stats['q3'])}"
        if "quantile" in stats:
            extra = f"  p{100 * stats['quantile']:g} of {stats['n']}, {stats['beyond']} beyond"
        lines.append(
            f"  {metric:40s} {_fmt(stats['median']):>12s} {units[metric]:<10s}"
            f"{extra}  n={stats['n']}"
        )
    if campaign.rounds:
        probe = spread(1e3 * r["probe_s"] for r in campaign.rounds)
        lines.append(
            f"  {'host speed probe (reference ' + _fmt(1e3 * REFERENCE_PROBE_S) + ' ms)':40s} "
            f"{_fmt(probe['median']):>12s} ms        q1 {_fmt(probe['q1'])}  "
            f"q3 {_fmt(probe['q3'])}  n={probe['n']}"
        )
    overhead = [r["extra"]["sim_overhead_pct"] for r in campaign.rounds
                if "sim_overhead_pct" in r["extra"]]
    if overhead:
        lines.append(
            f"  {'sim_overhead_pct (pssp/ssp geomean - 1)':40s} "
            f"{_fmt(statistics.median(overhead)):>12s} %"
        )
    lines.extend(f"  PROBLEM: {problem}" for problem in campaign.problems)
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Whole-system and per-layer performance benchmark."
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help=f"input set (taken mod {INPUT_SETS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="round time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer table")
    parser.add_argument("--json", metavar="OUT", help="write the full results here")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"run every input set once and rewrite {DIGESTS.name}")
    args = parser.parse_args(argv)

    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} set; every REPRO_* knob "
              "changes what is measured", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"refusing to run: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace)
    seed = args.seed % INPUT_SETS

    # Scratch for pool workers' span lines; it stays inside the checkout.
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if args.record_digests:
            return record_digests(workloads, work)
        digests = json.loads(DIGESTS.read_text())
        # Rounds at another scale (the harness tests) are only checked
        # against each other; a full-size run needs a committed digest.
        unverified = [name for name in workloads
                      if digests["scale"] == SCALE
                      and expected_digest(digests, name, seed) is None]
        if unverified:
            print(f"refusing to run: no committed digest in {DIGESTS.name} for "
                  f"{unverified} at input set {seed}", file=sys.stderr)
            return 2
        campaigns = run_campaigns(
            workloads, seed, seconds=seconds, traced=traced,
            digests=digests, work=work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results: Dict[str, Any] = {}
    metrics: Dict[str, Dict[str, Any]] = {}
    missing = []
    for name, campaign in campaigns.items():
        has_untraced = any(not r["traced"] for r in campaign.rounds)
        has_traced = any(r["traced"] for r in campaign.rounds)
        if not has_untraced or (traced and not has_traced):
            missing.append(name)
            print("\n".join(report_workload(campaign, None, None, units)))
            continue
        e2e = end_to_end(campaign)
        layers_out = per_layer(campaign) if traced else None
        print("\n".join(report_workload(campaign, e2e, layers_out, units)))
        chosen = layers_out if traced else e2e
        prefix = "" if len(campaigns) == 1 else f"{name}/"
        for metric in (spec["per_layer"] if traced else spec["end_to_end"]):
            metrics[prefix + metric["name"]] = {
                "value": chosen[metric["name"]]["median"], "unit": metric["unit"],
            }
        results[name] = {
            "rounds": len(campaign.rounds),
            "attempted": campaign.attempted,
            "failed": campaign.failed,
            "failed_share": _ratio(campaign.failed, campaign.attempted),
            "problems": campaign.problems,
            "end_to_end": e2e,
            "per_layer": layers_out,
            "digest": campaign.rounds[0]["digest"],
            "probe_ms": spread(1e3 * r["probe_s"] for r in campaign.rounds),
            "sim_overhead_pct": next(
                (r["extra"]["sim_overhead_pct"] for r in campaign.rounds
                 if "sim_overhead_pct" in r["extra"]), None),
        }
        if traced and SCALE == 1.0:
            # Shrunken rounds boot a server per handful of requests, so
            # only full-size rounds are held to the accounting limit.
            share = layers_out["unattributed.share_pct"]["median"]
            if share > MAX_UNATTRIBUTED_PCT:
                campaign.problems.append(
                    f"{name}: unattributed host time is {share:.2f}% "
                    f"(limit {MAX_UNATTRIBUTED_PCT}%): the breakdown does not add up"
                )
                print(f"  PROBLEM: {campaign.problems[-1]}")

    if missing:
        print(f"no measurement for {missing}: every round failed", file=sys.stderr)
        return 2
    attempted = sum(c.attempted for c in campaigns.values())
    failed = sum(c.failed for c in campaigns.values())
    problems = sum(len(c.problems) for c in campaigns.values())
    if args.json:
        Path(args.json).write_text(json.dumps({
            "host": host_facts(),
            "seed": args.seed, "input_set": seed, "seconds": seconds, "scale": SCALE,
            "traced": traced, "workloads": results,
        }, indent=2) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and problems == 0 else 2


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def record_digests(workloads, work: str) -> int:
    """Write each workload's outputs for every input set to ``DIGESTS``.

    A sharded workload is recorded from its serial twin, so every later
    sharded round proves ``jobs=N`` equal to serial.  A workload whose
    outputs do not depend on the seed is stored once, under ``"*"``.
    Workloads not named keep their committed digests.
    """
    digests: Dict[str, Any] = {"scale": SCALE}
    if DIGESTS.exists():
        previous = json.loads(DIGESTS.read_text())
        if previous.get("scale") == SCALE:
            digests = previous
    for workload in workloads:
        by_seed = {}
        for seed in range(INPUT_SETS):
            result = run_round(workload, seed, traced=False, work=work, serial=True)
            if result["failed"]:
                print(f"{workload} seed {seed}: {result['problems']}", file=sys.stderr)
                return 2
            by_seed[str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
        values = list(by_seed.values())
        digests[workload] = (
            {"*": values[0]}
            if len(values) > 1 and all(v == values[0] for v in values)
            else by_seed
        )
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
