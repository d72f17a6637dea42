"""Command-line interface: ``python -m repro <command>``.

Commands regenerate individual experiments or the whole report:

.. code-block:: console

    $ python -m repro schemes            # list registered protections
    $ python -m repro table 1           # regenerate Table I
    $ python -m repro figure 5          # regenerate Figure 5
    $ python -m repro attack --scheme ssp
    $ python -m repro effectiveness
    $ python -m repro fuzz --budget 50
    $ python -m repro chaos --budget 50
    $ python -m repro serve --scheme pssp
    $ python -m repro fleet --budget 10000 --jobs 4
    $ python -m repro trace --scheme pssp --series
    $ python -m repro postmortem bundles/<digest>.pmb
    $ python -m repro report -o EXPERIMENTS.md

Exit codes (``fuzz`` and ``chaos``, consumed by CI):

====  ========================================================
0     all checks passed
1     contract/invariant violation (a real, reproducible finding)
2     usage error (argparse)
3     infrastructure error (builds or reference runs fell over)
4     deadline exceeded (campaign stopped early; resumable)
====  ========================================================
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from . import telemetry
from .core.deploy import SCHEMES, build, deploy
from .errors import (  # noqa: F401  (re-exported; tests import cli.EXIT_*)
    EXIT_DEADLINE,
    EXIT_INFRASTRUCTURE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
)
from .parallel import (
    add_jobs_argument,
    add_shard_retries_argument,
    resolve_jobs,
    resolve_shard_retries,
)
from .harness import figures as _figures
from .harness import tables as _tables
from .harness.report import generate_report
from .kernel.kernel import Kernel


def _cmd_schemes(args: argparse.Namespace) -> int:
    print(f"{'scheme':22s} {'pass':16s} {'runtime':12s} {'notes'}")
    for name, spec in sorted(SCHEMES.items()):
        if spec.runtime_factory is None:
            runtime = "-"
        else:
            instance = spec.make_runtime()
            runtime = type(instance).__name__.replace("Runtime", "") or "yes"
        notes = []
        if spec.rewrite:
            notes.append("rewritten")
        if spec.dbi_multiplier != 1.0:
            notes.append(f"instr tax ×{spec.dbi_multiplier}")
        if not spec.fork_correct:
            notes.append("breaks fork correctness")
        if not spec.prevents_brop:
            notes.append("no BROP prevention")
        print(f"{name:22s} {spec.pass_name:16s} {runtime:12s} {', '.join(notes)}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    regenerators = {
        1: lambda: _tables.table1(
            spec_names=_tables.DEFAULT_SPEC_SUBSET, attack_trials=args.trials
        ),
        2: _tables.table2,
        3: _tables.table3,
        4: _tables.table4,
        5: _tables.table5,
    }
    try:
        regenerate = regenerators[args.number]
    except KeyError:
        print(f"no table {args.number}; the paper has tables 1-5", file=sys.stderr)
        return 2
    print(regenerate().render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    number = args.number
    if number == 1:
        for figure in _figures.figure1().values():
            print(figure.render())
    elif number == 2:
        captured = _figures.figure2()
        for figure in captured.values():
            print(figure.render())
        print("pssp frames share canary:",
              _figures.frames_share_canary(captured["pssp"]))
        print("pssp-nt frames share canary:",
              _figures.frames_share_canary(captured["pssp-nt"]))
    elif number in (3, 4):
        print(_figures.figure3().render())
    elif number == 5:
        result = _figures.figure5()
        if getattr(args, "plot", False):
            from .harness.plots import figure5_chart

            print(figure5_chart(result))
        else:
            print(result.render())
        if getattr(args, "csv", None):
            with open(args.csv, "w") as handle:
                handle.write(result.to_csv())
            print(f"wrote {args.csv}")
    elif number == 6:
        print(_figures.figure6().render())
    else:
        print(f"no figure {number}; the paper has figures 1-6", file=sys.stderr)
        return 2
    return 0


_ATTACK_VICTIM = """
int handler(int n) {
    char buf[64];
    read(0, buf, 4096);
    return 0;
}
int main() { return 0; }
"""


def _telemetry_capture_start(path: Optional[str]) -> Dict[str, object]:
    """Arm telemetry capture for a campaign with ``--telemetry-out``.

    Turns on event-stream sampling (the default keeps it off so the fast
    path pays nothing) and returns the baseline counter snapshot.
    """
    if path is None:
        return {}
    telemetry.ring().sample_every = 100
    return telemetry.snapshot()


def _telemetry_capture_write(path: Optional[str], before: Dict[str, object]) -> None:
    """Write the counter delta + event stream collected since arming."""
    if path is None:
        return
    payload = {
        "counters": telemetry.delta(before),
        "events": telemetry.ring().to_json(),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    telemetry.ring().sample_every = 0
    print(f"wrote {path}")


def _campaign_jobs(args: argparse.Namespace):
    """Resolve ``--jobs`` for a campaign command.

    Returns ``(jobs, None)`` on success or ``(None, EXIT_USAGE)`` when
    the flag or the ``REPRO_JOBS`` environment default is invalid.
    """
    try:
        return resolve_jobs(args.jobs), None
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return None, EXIT_USAGE


def _shard_retries(args: argparse.Namespace):
    """Resolve ``--shard-retries`` for a campaign command.

    Returns ``(retries, None)`` on success or ``(None, EXIT_USAGE)``
    when the value is invalid (negative).
    """
    try:
        return resolve_shard_retries(args.shard_retries), None
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return None, EXIT_USAGE


def _cmd_attack(args: argparse.Namespace) -> int:
    from .attacks import ForkingServer, byte_by_byte_attack, frame_map
    from .attacks.trials import attack_campaign

    jobs, usage = _campaign_jobs(args)
    if usage is not None:
        return usage
    shard_retries, usage = _shard_retries(args)
    if usage is not None:
        return usage

    if args.repeats > 1:
        before = _telemetry_capture_start(args.telemetry_out)
        report = attack_campaign(
            args.scheme, base_seed=args.seed, repeats=args.repeats,
            max_trials=args.trials, source=_ATTACK_VICTIM, jobs=jobs,
            shard_retries=shard_retries,
        )
        print(report.render())
        _telemetry_capture_write(args.telemetry_out, before)
        if report.lost:
            return EXIT_INFRASTRUCTURE
        return EXIT_OK if not report.successes else EXIT_VIOLATION

    before = _telemetry_capture_start(args.telemetry_out)
    kernel = Kernel(args.seed)
    binary = build(_ATTACK_VICTIM, args.scheme, name="server")
    parent, _ = deploy(kernel, binary, args.scheme)
    server = ForkingServer(kernel, parent)
    frame = frame_map(binary, "handler")
    report = byte_by_byte_attack(server, frame, max_trials=args.trials)
    print(f"scheme:    {args.scheme}")
    print(f"success:   {report.success}")
    print(f"trials:    {report.trials}")
    print(f"recovered: {report.recovered.hex() or '(nothing)'}")
    _telemetry_capture_write(args.telemetry_out, before)
    return 0 if not report.success else 1  # exit 1 = defence broken


def _cmd_effectiveness(args: argparse.Namespace) -> int:
    jobs, usage = _campaign_jobs(args)
    if usage is not None:
        return usage
    print(_tables.effectiveness(max_trials=args.trials, jobs=jobs).render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.kind == "density":
        from statistics import mean

        from .crypto.random import EntropySource
        from .harness.metrics import overhead_percent, run_program
        from .workloads.generator import (
            call_density_sweep_configs,
            generate_program,
        )

        print(f"{'calls/kcycle':>13s} {'pssp %':>8s} {'pssp-nt %':>10s}")
        for index, config in enumerate(call_density_sweep_configs()):
            source = generate_program(config, EntropySource(1000 + index))
            base = run_program(source, "ssp", name=f"sweep{index}")
            pssp = run_program(source, "pssp", name=f"sweep{index}")
            nt = run_program(source, "pssp-nt", name=f"sweep{index}")
            density = (config.functions * config.outer_iterations
                       / base.cycles * 1000)
            print(f"{density:13.2f} {overhead_percent(base, pssp):8.3f} "
                  f"{overhead_percent(base, nt):10.3f}")
        return 0
    if args.kind == "width":
        from .attacks.exhaustive import survival_probability_montecarlo

        print(f"{'scheme':14s} {'survival P (16-bit scale)':>26s}")
        for scheme in ("ssp", "pssp", "pssp-binary"):
            rate = survival_probability_montecarlo(
                scheme, bits=16, samples=args.samples
            )
            print(f"{scheme:14s} {rate:26.6f}")
        return 0
    print(f"unknown sweep {args.kind!r}", file=sys.stderr)
    return 2


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .harness.matrix import properties_matrix

    print(properties_matrix(attack_trials=args.trials).render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .harness.validate import validate_all

    report = validate_all(seed=args.seed)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import run_fuzz
    from .fuzz.fuzzer import replay_seed, write_failure_artifacts
    from .fuzz.mutants import (
        kill_report_ok,
        mutation_kill_report,
        render_kill_report,
    )
    from .workloads.generator import render_program

    schemes = args.schemes.split(",") if args.schemes else None

    if args.self_check:
        verdicts = mutation_kill_report(
            budget=args.kill_budget, base_seed=args.seed,
            **({"schemes": schemes} if schemes else {}),
        )
        print(render_kill_report(verdicts))
        return 0 if kill_report_ok(verdicts) else 1

    if args.replay is not None:
        spec, source, failures = replay_seed(
            args.replay, **({"schemes": schemes} if schemes else {})
        )
        print(f"# seed {args.replay}"
              + (" (fork)" if spec.uses_fork else "")
              + (" (setjmp)" if spec.uses_setjmp else ""))
        print(render_program(spec))
        for failure in failures:
            print(failure)
        print("CONFORMANCE OK" if not failures
              else f"{len(failures)} failure(s)")
        return 0 if not failures else 1

    jobs, usage = _campaign_jobs(args)
    if usage is not None:
        return usage
    shard_retries, usage = _shard_retries(args)
    if usage is not None:
        return usage
    before = _telemetry_capture_start(args.telemetry_out)
    report = run_fuzz(
        args.budget,
        base_seed=args.seed,
        shrink=not args.no_shrink,
        health=not args.no_health,
        progress=lambda line: print(f"  {line}", flush=True),
        jobs=jobs,
        shard_retries=shard_retries,
        **({"schemes": schemes} if schemes else {}),
    )
    print(report.render())
    _telemetry_capture_write(args.telemetry_out, before)
    if args.out and report.failures:
        for path in write_failure_artifacts(report, args.out):
            print(f"wrote {path}")
    if report.ok:
        return EXIT_OK
    return EXIT_INFRASTRUCTURE if report.infra_only else EXIT_VIOLATION


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import (
        chaos_kill_report,
        chaos_kill_report_ok,
        render_chaos_kill_report,
        replay_case,
        run_campaign,
    )
    from .errors import CampaignError

    if args.self_check:
        verdicts = chaos_kill_report()
        print(render_chaos_kill_report(verdicts))
        return EXIT_OK if chaos_kill_report_ok(verdicts) else EXIT_VIOLATION

    if args.replay is not None:
        try:
            run = replay_case(args.replay)
        except CampaignError as error:
            print(f"infrastructure error: {error}", file=sys.stderr)
            return EXIT_INFRASTRUCTURE
        print(run.render())
        print("FAULT-OUTCOME INVARIANT OK" if run.ok
              else f"{len(run.violations)} violation(s)")
        return EXIT_OK if run.ok else EXIT_VIOLATION

    jobs, usage = _campaign_jobs(args)
    if usage is not None:
        return usage
    shard_retries, usage = _shard_retries(args)
    if usage is not None:
        return usage
    before = _telemetry_capture_start(args.telemetry_out)
    try:
        report = run_campaign(
            args.budget,
            base_seed=args.seed,
            retries=args.retries,
            shard_retries=shard_retries,
            deadline=args.deadline,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            schemes=tuple(args.schemes.split(",")) if args.schemes else None,
            progress=lambda line: print(f"  {line}", flush=True),
            jobs=jobs,
        )
    except CampaignError as error:  # e.g. a checkpoint from another campaign
        print(f"infrastructure error: {error}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE
    print(report.render())
    _telemetry_capture_write(args.telemetry_out, before)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"wrote {args.out}")
    if report.violating_runs:
        return EXIT_VIOLATION
    if report.timed_out:
        return EXIT_DEADLINE
    if report.infra_errors:
        return EXIT_INFRASTRUCTURE
    return EXIT_OK


#: Benign workload driven by ``repro stats``: a protected hot function
#: called repeatedly, so every scheme's prologue/epilogue counters tick.
_STATS_BENIGN = """
int work(int n) {
    char buf[32];
    int i; int acc;
    acc = 0;
    for (i = 0; i < n; i = i + 1) {
        buf[i % 16] = i;
        acc = acc + buf[i % 16];
    }
    return acc;
}
int main() {
    int i; int total;
    total = 0;
    for (i = 0; i < 40; i = i + 1) { total = total + work(24); }
    return total & 255;
}
"""

#: Smash workload: a deliberate overflow so detection counters tick too.
_STATS_SMASH = """
int victim(int n) {
    char buf[16];
    int i;
    for (i = 0; i < 64; i = i + 1) { buf[i] = 65; }
    return 0;
}
int main() { return victim(1); }
"""

#: Counters surfaced in the default `repro stats` text table.
_STATS_COLUMNS = (
    ("machine_instructions_total", "instructions"),
    ("machine_cycles_total", "cycles"),
    ("canary_prologue_stores_total", "prologues"),
    ("canary_epilogue_checks_total", "epilogues"),
    ("rdrand_draws_total", "rdrand"),
    ("canary_smashes_detected_total", "smashes"),
    ("degradations_total", "degraded"),
)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Per-scheme telemetry report over a benign + a smashing workload."""
    from .harness.metrics import run_program

    schemes = (
        args.schemes.split(",") if args.schemes
        else ["none", "ssp", "pssp", "pssp-nt", "pssp-lv", "pssp-owf"]
    )
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        print(f"unknown scheme(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE

    per_scheme: Dict[str, Dict[str, object]] = {}
    for scheme in schemes:
        before = telemetry.snapshot()
        run_program(_STATS_BENIGN, scheme, name=f"stats-{scheme}", seed=args.seed)
        if args.smash:
            run_program(
                _STATS_SMASH, scheme, name=f"stats-smash-{scheme}", seed=args.seed
            )
        per_scheme[scheme] = telemetry.delta(before)

    if args.json:
        payload = {
            "schemes": per_scheme,
            "events": telemetry.ring().to_json(),
        }
        text = json.dumps(payload, indent=2)
    elif args.prom:
        text = telemetry.registry().render_prometheus()
    else:
        lines = [
            f"{'scheme':10s}" + "".join(f"{label:>14s}" for _, label in _STATS_COLUMNS)
        ]
        for scheme, delta in per_scheme.items():
            cells = []
            for counter_name, _ in _STATS_COLUMNS:
                value = delta.get(counter_name, 0)
                cells.append(f"{value:>14,.0f}" if isinstance(value, float)
                             else f"{value:>14,d}")
            lines.append(f"{scheme:10s}" + "".join(cells))
        text = "\n".join(lines)

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


#: The `repro profile` demo: a P-SSP call tree with distinct hot spots.
_PROFILE_DEMO = """
int leaf_sum(int n) {
    char buf[24];
    int i; int acc;
    acc = 0;
    for (i = 0; i < n; i = i + 1) {
        buf[i % 8] = i;
        acc = acc + buf[i % 8];
    }
    return acc;
}
int mid_mix(int n) {
    char scratch[40];
    int i; int acc;
    acc = 0;
    for (i = 0; i < n; i = i + 1) {
        scratch[i % 16] = i;
        acc = acc + leaf_sum(6);
    }
    return acc;
}
int main() {
    int i; int total;
    total = 0;
    for (i = 0; i < 30; i = i + 1) { total = total + mid_mix(8); }
    return total & 255;
}
"""


def _cmd_profile(args: argparse.Namespace) -> int:
    """Per-function cycle attribution + Chrome trace-event export."""
    from .telemetry.profile import Profiler

    source = _PROFILE_DEMO
    if args.source:
        with open(args.source, "r", encoding="utf-8") as handle:
            source = handle.read()

    kernel = Kernel(args.seed)
    binary = build(source, args.scheme, name="profile")
    process, _ = deploy(kernel, binary, args.scheme)
    profiler = Profiler()
    process.cpu.profiler = profiler
    result = process.run()
    process.cpu.profiler = None

    print(f"scheme: {args.scheme}  "
          f"cycles: {result.cycles:,.0f}  "
          f"instructions: {result.instructions:,d}  "
          f"{'CRASHED' if result.crashed else 'exit ' + str(result.exit_status)}")
    print(profiler.render(limit=args.limit))
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(profiler.chrome_trace(process_name=f"repro-{args.scheme}"),
                      handle, indent=2)
        print(f"wrote {args.out} (load in chrome://tracing or Perfetto)")
    return EXIT_OK


def _fleet_config(args: argparse.Namespace):
    """Parse the fleet traffic flags into a TrafficConfig (or usage error)."""
    from .fleet import TrafficConfig

    try:
        return TrafficConfig.parse_rate(
            args.attack_rate, brute_trial_cap=args.brute_cap
        ), None
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return None, EXIT_USAGE


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve one slice of fleet traffic on one server (the demo loop)."""
    from .fleet import run_fleet_slice

    config, usage = _fleet_config(args)
    if usage is not None:
        return usage
    record = run_fleet_slice(
        args.scheme, args.seed, config=config, request_budget=args.requests
    )
    print(f"scheme:          {args.scheme}")
    print(f"seed:            {record.seed}")
    print(f"requests:        {record.requests} "
          f"({record.benign_requests} benign, "
          f"{record.attack_requests} attack)")
    print("sessions:        "
          + ", ".join(f"{kind}={count}"
                      for kind, count in record.sessions.items()))
    print(f"detections:      {record.detections}")
    print(f"crashes:         {record.crashes}")
    print(f"breaches:        {record.breaches} {record.breaches_by_kind}")
    first = record.first_detection_request
    print(f"first detection: "
          f"{'request ' + str(first) if first is not None else 'never'}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record.to_json(), handle, indent=2)
        print(f"wrote {args.out}")
    for line in record.audit_divergences:
        print(f"AUDIT DIVERGENCE: {line}", file=sys.stderr)
    return EXIT_VIOLATION if record.audit_divergences else EXIT_OK


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a sharded multi-scheme fleet campaign."""
    import signal

    from .errors import CampaignError, ShutdownRequested
    from .fleet import run_fleet

    config, usage = _fleet_config(args)
    if usage is not None:
        return usage
    schemes = tuple(args.schemes.split(",")) if args.schemes else None
    if schemes:
        unknown = [s for s in schemes if s not in SCHEMES]
        if unknown:
            print(f"unknown scheme(s): {', '.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE
    jobs, usage = _campaign_jobs(args)
    if usage is not None:
        return usage
    shard_retries, usage = _shard_retries(args)
    if usage is not None:
        return usage
    if args.chaos_seed is not None and not args.chaos:
        print("--chaos-seed requires --chaos", file=sys.stderr)
        return EXIT_USAGE
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return EXIT_USAGE
    trace_config = None
    if args.trace_out is not None or args.bundle_dir is not None:
        from .trace import TraceConfig

        trace_config = TraceConfig(series_interval=args.series_interval)

    def _on_signal(signum, frame):
        raise ShutdownRequested(f"received signal {signum}")

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    before = _telemetry_capture_start(args.telemetry_out)
    try:
        report = run_fleet(
            args.budget,
            **({"schemes": schemes} if schemes else {}),
            base_seed=args.seed,
            slice_requests=args.slice,
            config=config,
            jobs=jobs,
            chaos=args.chaos,
            chaos_seed=args.chaos_seed,
            shard_retries=shard_retries,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            trace=trace_config,
            progress=lambda line: print(f"  {line}", flush=True),
        )
    except ShutdownRequested as stop:
        # run_fleet checkpoints after every completed slice/shard, so
        # the file already reflects all finished work; just exit typed.
        if args.checkpoint:
            print(
                f"shutdown: {stop}; resume with --checkpoint "
                f"{args.checkpoint} --resume",
                file=sys.stderr,
            )
        else:
            print(f"shutdown: {stop}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE
    except CampaignError as error:
        print(f"infrastructure error: {error}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(report.render())
    _telemetry_capture_write(args.telemetry_out, before)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"wrote {args.out}")
    if report.trace is not None:
        from .trace import write_bundles, write_trace

        print(report.trace.render())
        if args.trace_out:
            write_trace(report.trace, args.trace_out)
            print(f"wrote {args.trace_out} "
                  "(load in chrome://tracing or Perfetto)")
        if args.bundle_dir:
            for path in write_bundles(report.trace, args.bundle_dir):
                print(f"wrote {path}")
    if report.lost_slices:
        return EXIT_INFRASTRUCTURE
    if report.audit_divergences:
        return EXIT_VIOLATION
    if args.require_detections:
        blind = [r.scheme for r in report.reports if r.detections == 0]
        if blind:
            print(f"no detections under: {', '.join(blind)}", file=sys.stderr)
            return EXIT_VIOLATION
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one fleet slice: spans, flight recorder, series, bundles."""
    from .fleet import run_fleet_slice
    from .trace import (
        CampaignTrace,
        SliceTracer,
        TraceConfig,
        render_series,
        write_bundles,
        write_trace,
    )

    config, usage = _fleet_config(args)
    if usage is not None:
        return usage
    try:
        trace_config = TraceConfig(series_interval=args.series_interval)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    tracer = SliceTracer(
        args.scheme, args.seed, config=trace_config,
        chaos_seed=args.chaos_seed,
    )
    record = run_fleet_slice(
        args.scheme, args.seed, config=config,
        request_budget=args.requests, chaos_seed=args.chaos_seed,
        tracer=tracer,
    )
    campaign = CampaignTrace(config=trace_config, slices=[tracer.trace])
    print(campaign.render())
    if args.series:
        print(render_series(tracer.trace.series))
    if args.out:
        write_trace(campaign, args.out)
        print(f"wrote {args.out} (load in chrome://tracing or Perfetto)")
    if args.bundle_dir:
        for path in write_bundles(campaign, args.bundle_dir):
            print(f"wrote {path}")
    for line in record.audit_divergences:
        print(f"AUDIT DIVERGENCE: {line}", file=sys.stderr)
    return EXIT_VIOLATION if record.audit_divergences else EXIT_OK


def _cmd_postmortem(args: argparse.Namespace) -> int:
    """Replay a post-mortem bundle and demand an exact reproduction."""
    from .errors import BundleError
    from .trace import load_bundle, replay_bundle

    try:
        payload = load_bundle(args.bundle)
        result = replay_bundle(payload)
    except BundleError as error:
        print(f"infrastructure error: {error}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE
    print(result.render())
    return EXIT_OK if result.ok else EXIT_VIOLATION


def _cmd_report(args: argparse.Namespace) -> int:
    text = generate_report(attack_trials=args.trials)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P-SSP reproduction (DSN 2018) experiment driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list registered protection schemes")

    table = sub.add_parser("table", help="regenerate a paper table (1-5)")
    table.add_argument("number", type=int)
    table.add_argument("--trials", type=int, default=4000)

    figure = sub.add_parser("figure", help="regenerate a paper figure (1-6)")
    figure.add_argument("number", type=int)
    figure.add_argument("--plot", action="store_true",
                        help="render figure 5 as a terminal bar chart")
    figure.add_argument("--csv", default=None,
                        help="also write figure 5 data as CSV")

    attack = sub.add_parser("attack", help="run the byte-by-byte attack")
    attack.add_argument("--scheme", default="ssp", choices=sorted(SCHEMES))
    attack.add_argument("--trials", type=int, default=6000)
    attack.add_argument("--seed", type=int, default=20180625)
    attack.add_argument("--repeats", type=int, default=1,
                        help="independent seeded campaigns (seed+i); "
                             ">1 prints the cost distribution")
    add_jobs_argument(attack)
    add_shard_retries_argument(attack)
    attack.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="write telemetry counters + event stream as JSON")

    eff = sub.add_parser("effectiveness", help="regenerate §VI-C")
    eff.add_argument("--trials", type=int, default=4000)
    add_jobs_argument(eff)

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("kind", choices=("density", "width"))
    sweep.add_argument("--samples", type=int, default=100_000)

    validate = sub.add_parser("validate",
                              help="health-check every registered scheme")
    validate.add_argument("--seed", type=int, default=1234)

    matrix = sub.add_parser("matrix",
                            help="measure the scheme-properties matrix")
    matrix.add_argument("--trials", type=int, default=3000)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing (schemes × interpreter paths)",
    )
    fuzz.add_argument("--budget", type=int, default=50,
                      help="number of generated programs (default 50)")
    fuzz.add_argument("--seed", type=int, default=2018,
                      help="base seed; program i uses seed+i")
    fuzz.add_argument("--schemes", default=None,
                      help="comma-separated scheme subset (default: all)")
    fuzz.add_argument("--replay", type=int, default=None, metavar="SEED",
                      help="re-run one seed through the full contract")
    fuzz.add_argument("--self-check", action="store_true",
                      help="mutation-kill check: plant known bugs, "
                           "verify the oracle catches every one")
    fuzz.add_argument("--kill-budget", type=int, default=3,
                      help="programs per mutant during --self-check")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip auto-shrinking failing programs")
    fuzz.add_argument("--no-health", action="store_true",
                      help="skip the detection/polymorphism probes")
    fuzz.add_argument("--out", default=None, metavar="DIR",
                      help="write failing programs as JSON artifacts")
    add_jobs_argument(fuzz)
    add_shard_retries_argument(fuzz)
    fuzz.add_argument("--telemetry-out", default=None, metavar="FILE",
                      help="write telemetry counters + event stream as JSON")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaigns (fault-outcome invariant)",
    )
    chaos.add_argument("--budget", type=int, default=50,
                       help="number of fault schedules (default 50)")
    chaos.add_argument("--seed", type=int, default=2018,
                       help="base seed; schedule i uses seed+i")
    chaos.add_argument("--replay", type=int, default=None, metavar="SEED",
                       help="re-run one campaign case bit-identically")
    chaos.add_argument("--self-check", action="store_true",
                       help="chaos mutation kill: disable each degradation "
                            "mechanism, verify the campaign flags it")
    chaos.add_argument("--schemes", default=None,
                       help="comma list: only run schedules targeting these "
                            "schemes (the per-scheme CI smoke jobs)")
    chaos.add_argument("--retries", type=int, default=1,
                       help="re-attempts per case on infrastructure errors")
    chaos.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget; exceeding it exits 4")
    chaos.add_argument("--checkpoint", default=None, metavar="FILE",
                       help="write a JSON checkpoint after every case")
    chaos.add_argument("--resume", action="store_true",
                       help="skip cases already in the checkpoint file")
    chaos.add_argument("--out", default=None, metavar="FILE",
                       help="write the full campaign report as JSON")
    add_jobs_argument(chaos)
    add_shard_retries_argument(chaos)
    chaos.add_argument("--telemetry-out", default=None, metavar="FILE",
                       help="write telemetry counters + event stream as JSON")

    stats = sub.add_parser(
        "stats",
        help="per-scheme telemetry counters (text, --json, or --prom)",
    )
    stats.add_argument("--schemes", default=None,
                       help="comma-separated scheme subset (default: core six)")
    stats.add_argument("--seed", type=int, default=97)
    stats.add_argument("--smash", action="store_true",
                       help="also run a smashing workload so detection "
                            "counters tick")
    stats.add_argument("--json", action="store_true",
                       help="emit per-scheme deltas + events as JSON")
    stats.add_argument("--prom", action="store_true",
                       help="emit the registry in Prometheus text format")
    stats.add_argument("--out", default=None, metavar="FILE",
                       help="write the report to a file instead of stdout")

    profile = sub.add_parser(
        "profile",
        help="per-function cycle attribution + Chrome trace-event JSON",
    )
    profile.add_argument("--scheme", default="pssp", choices=sorted(SCHEMES))
    profile.add_argument("--seed", type=int, default=97)
    profile.add_argument("--source", default=None, metavar="FILE",
                         help="profile this C source instead of the demo")
    profile.add_argument("--limit", type=int, default=20,
                         help="rows in the attribution table")
    profile.add_argument("--out", default=None, metavar="FILE",
                         help="write a Chrome trace-event JSON file")

    serve = sub.add_parser(
        "serve",
        help="serve one slice of fleet traffic on one forking server",
    )
    serve.add_argument("--scheme", default="pssp", choices=sorted(SCHEMES))
    serve.add_argument("--requests", type=int, default=500,
                       help="request budget for the slice (default 500)")
    serve.add_argument("--seed", type=int, default=20180625)
    serve.add_argument("--attack-rate", default="1/8", metavar="N/D",
                       help="fraction of sessions that are attacks")
    serve.add_argument("--brute-cap", type=int, default=1600,
                       help="request cap per byte-by-byte attack session")
    serve.add_argument("--out", default=None, metavar="FILE",
                       help="write the slice record as JSON")

    fleet = sub.add_parser(
        "fleet",
        help="sharded multi-scheme fleet campaign (the §VI-C service mix)",
    )
    fleet.add_argument("--budget", type=int, default=10_000,
                       help="requests per scheme (default 10000)")
    fleet.add_argument("--schemes", default=None,
                       help="comma-separated scheme subset "
                            "(default: ssp,pssp,pssp-nt,pssp-owf)")
    fleet.add_argument("--seed", type=int, default=20180625,
                       help="base seed; slice i uses seed+i")
    fleet.add_argument("--slice", type=int, default=1000,
                       help="requests per slice / shard unit (default 1000)")
    fleet.add_argument("--attack-rate", default="1/8", metavar="N/D",
                       help="fraction of sessions that are attacks")
    fleet.add_argument("--brute-cap", type=int, default=1600,
                       help="request cap per byte-by-byte attack session")
    fleet.add_argument("--require-detections", action="store_true",
                       help="exit 1 if any scheme ends with 0 detections")
    fleet.add_argument("--chaos", action="store_true",
                       help="thread seeded fault schedules into the slice "
                            "workers (chaos-under-traffic)")
    fleet.add_argument("--chaos-seed", type=int, default=None, metavar="SEED",
                       help="seed for the chaos schedules "
                            "(default: the campaign base seed; "
                            "requires --chaos)")
    fleet.add_argument("--checkpoint", default=None, metavar="FILE",
                       help="write a resumable checkpoint after every "
                            "completed slice")
    fleet.add_argument("--resume", action="store_true",
                       help="skip slices already in --checkpoint")
    fleet.add_argument("--out", default=None, metavar="FILE",
                       help="write the full fleet report as JSON")
    add_jobs_argument(fleet)
    add_shard_retries_argument(fleet)
    fleet.add_argument("--telemetry-out", default=None, metavar="FILE",
                       help="write telemetry counters + event stream as JSON")
    fleet.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the campaign's Perfetto trace-event JSON "
                            "(byte-identical under any --jobs)")
    fleet.add_argument("--bundle-dir", default=None, metavar="DIR",
                       help="write captured post-mortem bundles (.pmb) here")
    fleet.add_argument("--series-interval", type=int, default=100,
                       help="requests per time-series bucket when tracing")

    trace = sub.add_parser(
        "trace",
        help="trace one fleet slice (spans, flight recorder, bundles)",
    )
    trace.add_argument("--scheme", default="pssp", choices=sorted(SCHEMES))
    trace.add_argument("--requests", type=int, default=500,
                       help="request budget for the slice (default 500)")
    trace.add_argument("--seed", type=int, default=20180625)
    trace.add_argument("--attack-rate", default="1/8", metavar="N/D",
                       help="fraction of sessions that are attacks")
    trace.add_argument("--brute-cap", type=int, default=1600,
                       help="request cap per byte-by-byte attack session")
    trace.add_argument("--chaos-seed", type=int, default=None, metavar="SEED",
                       help="arm the slice's seeded fault schedule")
    trace.add_argument("--series", action="store_true",
                       help="render the counter time-series table")
    trace.add_argument("--series-interval", type=int, default=100,
                       help="requests per time-series bucket (default 100)")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write the Perfetto trace-event JSON")
    trace.add_argument("--bundle-dir", default=None, metavar="DIR",
                       help="write captured post-mortem bundles (.pmb) here")

    postmortem = sub.add_parser(
        "postmortem",
        help="replay a .pmb bundle and demand an exact reproduction",
    )
    postmortem.add_argument("bundle", metavar="BUNDLE",
                            help="path to a .pmb post-mortem bundle")

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("-o", "--output", default=None)
    report.add_argument("--trials", type=int, default=4000)

    return parser


_COMMANDS = {
    "schemes": _cmd_schemes,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "attack": _cmd_attack,
    "effectiveness": _cmd_effectiveness,
    "sweep": _cmd_sweep,
    "matrix": _cmd_matrix,
    "validate": _cmd_validate,
    "fuzz": _cmd_fuzz,
    "chaos": _cmd_chaos,
    "stats": _cmd_stats,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "trace": _cmd_trace,
    "postmortem": _cmd_postmortem,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
