#!/usr/bin/env python
"""Telemetry overhead benchmark: fast path with telemetry on vs off.

The telemetry plane's contract is *zero slowdown*: machine counters are
flushed once per run loop, and only canary-site steps carry the wrapped
canary probe.  This benchmark measures that claim on the same three
workload shapes as ``bench_interpreter.py`` and gates the ratio —
telemetry-on must stay within ``--threshold`` (default 5%) of
telemetry-off throughput, by geomean across workloads.

It also re-checks the bit-identity contract: enabling telemetry must not
change a single cycle, instruction, or TSC tick of the simulated run —
a divergence is a correctness bug (exit 2), not a perf problem.

Usage::

    python benchmarks/bench_telemetry.py                  # full run
    python benchmarks/bench_telemetry.py --smoke          # CI-sized run
    python benchmarks/bench_telemetry.py --json OUT.json  # write results

The committed ``benchmarks/BENCH_telemetry.json`` records a reference
run; CI regenerates the measurement and enforces the threshold on every
push (the gate is absolute, so the reference file is a record, not a
moving baseline).

Exit status: 0 on success, 1 if overhead exceeds the threshold, 2 if
telemetry-on and telemetry-off accounting diverge.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import telemetry  # noqa: E402
from repro.core.deploy import build, deploy  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402

from bench_interpreter import WORKLOADS  # noqa: E402

#: Maximum tolerated geomean slowdown with telemetry enabled (1.05 = 5%).
DEFAULT_THRESHOLD = 1.05


def run_measurement(source: str, scheme: str, *, enabled: bool, repeats: int):
    """Best-of-``repeats`` fast-path throughput with telemetry on or off."""
    if enabled:
        telemetry.enable()
    else:
        telemetry.disable()
    try:
        kernel = Kernel(seed=42)
        binary = build(source, scheme, name="bench")
        process, _ = deploy(
            kernel, binary, scheme, cycle_limit=4_000_000_000, fast=True
        )
        warm = process.run()
        if warm.crashed:
            raise SystemExit(f"workload crashed under {scheme}: {warm.crash}")
        best_ips = 0.0
        instructions = 0
        for _ in range(repeats):
            start = time.perf_counter()
            result = process.call("main")
            elapsed = time.perf_counter() - start
            instructions = result.instructions
            if elapsed and instructions / elapsed > best_ips:
                best_ips = instructions / elapsed
        return {
            "instructions_per_second": best_ips,
            "instructions_per_call": instructions,
            "cycles": process.cpu.cycles,
            "total_instructions": process.cpu.instructions_executed,
            "tsc": process.cpu.tsc.value,
            "exit_status": result.exit_status,
        }
    finally:
        telemetry.enable()


def run_benchmark(smoke: bool, repeats: int) -> dict:
    results = {}
    divergences = []
    for name, scheme, template, full_iter, smoke_iter in WORKLOADS:
        iterations = smoke_iter if smoke else full_iter
        source = template.replace("%ITER%", str(iterations))
        on = run_measurement(source, scheme, enabled=True, repeats=repeats)
        off = run_measurement(source, scheme, enabled=False, repeats=repeats)
        for key in ("cycles", "total_instructions", "tsc", "exit_status"):
            if on[key] != off[key]:
                divergences.append(
                    f"{name}: {key} telemetry-on={on[key]} off={off[key]}"
                )
        overhead = (
            off["instructions_per_second"] / on["instructions_per_second"]
            if on["instructions_per_second"]
            else 0.0
        )
        results[name] = {
            "scheme": scheme,
            "iterations": iterations,
            "on_instructions_per_second": on["instructions_per_second"],
            "off_instructions_per_second": off["instructions_per_second"],
            "overhead_ratio": overhead,
        }
    ratios = [w["overhead_ratio"] for w in results.values()]
    return {
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "workloads": results,
        "divergences": divergences,
        "summary": {
            "max_overhead_ratio": max(ratios),
            "geomean_overhead_ratio": _geomean(ratios),
        },
    }


def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized workloads (~seconds instead of ~a minute)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed calls per workload per mode, best-of (default: 3)",
    )
    parser.add_argument(
        "--json", metavar="OUT", help="write the results report to OUT"
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="maximum geomean on/off slowdown ratio (default: 1.05)",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.smoke, args.repeats)

    print(f"telemetry overhead benchmark ({report['mode']}, "
          f"repeats={args.repeats})")
    print(f"{'workload':>14s} {'scheme':>10s} {'on i/s':>12s} "
          f"{'off i/s':>12s} {'overhead':>9s}")
    for name, row in report["workloads"].items():
        print(
            f"{name:>14s} {row['scheme']:>10s} "
            f"{row['on_instructions_per_second']:12,.0f} "
            f"{row['off_instructions_per_second']:12,.0f} "
            f"{(row['overhead_ratio'] - 1.0) * 100:8.2f}%"
        )
    summary = report["summary"]
    print(
        f"geomean overhead {(summary['geomean_overhead_ratio'] - 1) * 100:.2f}%, "
        f"max {(summary['max_overhead_ratio'] - 1) * 100:.2f}% "
        f"(threshold {(args.threshold - 1) * 100:.0f}%)"
    )

    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")

    if report["divergences"]:
        print("TELEMETRY ON/OFF DIVERGENCE (correctness bug):", file=sys.stderr)
        for line in report["divergences"]:
            print(f"  {line}", file=sys.stderr)
        return 2

    if summary["geomean_overhead_ratio"] > args.threshold:
        print(
            f"TELEMETRY OVERHEAD REGRESSION: geomean "
            f"{summary['geomean_overhead_ratio']:.4f} exceeds "
            f"{args.threshold:.4f}",
            file=sys.stderr,
        )
        return 1

    print("telemetry overhead gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
