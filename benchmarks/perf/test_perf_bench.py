"""Harness tests for the layered benchmark, at tiny sizes.

    python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import perf_round  # noqa: E402
import perf_spans  # noqa: E402
import run  # noqa: E402
from repro.fleet.server import FleetServer  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SCALE = 0.02


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run the benchmark's ``main`` on tiny rounds; returns (exit code, stdout lines)."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    monkeypatch.setattr(run, "SCALE", TINY_SCALE)

    def invoke(*args):
        code = run.main(["--seconds", "0", *args])
        return code, capsys.readouterr().out.strip().splitlines()

    return invoke


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(bench, trace):
    code, lines = bench("--trace", trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    catalogue = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    expected = {
        f"{workload['name']}/{metric['name']}": metric["unit"]
        for workload in SPEC["workloads"] for metric in catalogue
    }
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for metric in catalogue:
        assert f"{metric['name']} " in text and metric["unit"] in text


def test_nested_spans_split_time_into_self_times():
    table = perf_spans.SpanTable()

    def inner():
        time.sleep(0.002)

    traced_inner = table.span("kernel.fork", inner)

    def outer():
        time.sleep(0.001)
        traced_inner()
        traced_inner()

    table.span("fleet.server", outer, op=True)()
    self_total = table.self_s["fleet.server"] + table.self_s["kernel.fork"]
    assert self_total == pytest.approx(table.total_s["fleet.server"], rel=1e-9)
    assert table.total_s["kernel.fork"] == table.self_s["kernel.fork"]
    assert table.calls == {**dict.fromkeys(perf_spans.LAYERS, 0),
                           "fleet.server": 1, "kernel.fork": 2}
    assert table.op_ms == [pytest.approx(table.total_s["fleet.server"] * 1e3)]


def _round_on_host(slowdowns):
    """A fake untraced round of 500 ms ops, op ``i`` run while the host
    is ``slowdowns[i]`` times slower than the reference host."""
    probe = run.REFERENCE_PROBE_S
    return {
        "traced": False, "ops": len(slowdowns), "jobs": 1,
        "wall_s": 0.5 * sum(slowdowns) + 0.25, "probe_spent_s": 0.25,
        "setup_s": 0.5 * slowdowns[0],
        "op_ms": [500 * s for s in slowdowns],
        "paced_probes": [[i + 1, probe * s] for i, s in enumerate(slowdowns)],
        "probe_s": probe * slowdowns[0], "peak_rss_mb": 30.0,
        "counters": {"machine_instructions_total": 4e6, "machine_cycles_total": 1e3},
    }


def test_host_times_are_reported_at_the_reference_speed():
    reported = []
    for slowdown in (1.0, 2.0):
        campaign = run.Campaign("fleet-mix", 0, None)
        campaign.rounds = [_round_on_host([slowdown] * 4)] * 3
        reported.append({k: v["median"] for k, v in run.end_to_end(campaign).items()})
    assert reported[1] == pytest.approx(reported[0])
    assert reported[0]["op_p50_ms"] == pytest.approx(500)
    assert reported[0]["ops_per_s"] == pytest.approx(2.0)


def test_a_slow_phase_inside_a_round_is_scaled_op_by_op():
    # The host halves its speed halfway through the round.
    result = _round_on_host([1.0] * 4 + [2.0] * 4)
    scaled = run.ops_at_reference(result)
    assert scaled[0] == pytest.approx(500)
    assert scaled[-1] == pytest.approx(500)
    assert run.ops_per_s(result) == pytest.approx(2.0, rel=0.1)
    assert result["ops"] / run.at_reference(result, run.timed_s(result)) < 1.5


@pytest.mark.parametrize("traced", [False, True])
def test_a_round_paces_probes_between_its_ops(tmp_path, monkeypatch, traced):
    monkeypatch.setattr(perf_round, "PACE_INTERVAL_S", 0.0)
    result = perf_round.run_round(
        "fleet-mix", 0, traced=traced, spawned_at=time.monotonic(),
        work=str(tmp_path), scale=TINY_SCALE,
    )
    done = [ops for ops, _ in result["paced_probes"]]
    assert done == list(range(1, len(result["op_ms"]) + 1))
    assert all(seconds > 0 for _, seconds in result["paced_probes"])
    assert 0 < result["probe_spent_s"] < result["wall_s"]


@pytest.mark.parametrize("workload", ["fleet-mix", "fleet-sharded"])
def test_layer_self_times_and_unattributed_add_up_to_host_time(
    workload, tmp_path, monkeypatch,
):
    # A probe after every op: the pacing must stay out of every layer.
    monkeypatch.setattr(perf_round, "PACE_INTERVAL_S", 0.0)
    result = perf_round.run_round(
        workload, 0, traced=True, spawned_at=time.monotonic(),
        work=str(tmp_path), scale=TINY_SCALE,
    )
    assert result["paced_probes"]
    layers = perf_spans.LAYERS
    row = run.layer_row(result)
    base = (result["wall_s"] + result["layers"]["worker_slice_s"]
            - result["probe_spent_s"])
    total = sum(row[f"{layer}.self_s"] for layer in layers) + row["unattributed.self_s"]
    assert total == pytest.approx(base, rel=1e-9)
    assert all(row[f"{layer}.self_s"] >= 0 for layer in layers)
    assert row["unattributed.self_s"] >= 0, "spans overlap: self times double-count"
    shares = sum(row[f"{layer}.share_pct"] for layer in (*layers, "unattributed"))
    assert shares == pytest.approx(100)
    assert row["fleet.server.calls"] == len(result["op_ms"]) > 0


def test_wrong_digest_fails_the_run(bench, tmp_path, monkeypatch):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"scale": TINY_SCALE, "fleet-mix": {"0": "not-the-digest"}}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    code, lines = bench("--workload", "fleet-mix")
    assert code == 2
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("failed_share 1 " in line for line in lines)


def test_a_missing_committed_digest_refuses_to_run(bench, tmp_path, monkeypatch):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"scale": TINY_SCALE, "fleet-mix": {"1": "other-seed"}}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    code, lines = bench("--workload", "fleet-mix", "--seed", str(run.INPUT_SETS))
    assert code == 2
    assert lines == []


def test_a_repro_knob_refuses_to_run(bench, monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    code, lines = bench("--workload", "fleet-mix")
    assert code == 2
    assert lines == []


def test_untraced_round_wraps_only_its_op_root(tmp_path, monkeypatch):
    original_fork = Kernel.__dict__["fork"]
    original_handler = FleetServer.__dict__["handle_request"]
    seen = {}
    install = perf_spans.install

    def spy(table, **kwargs):
        restore = install(table, **kwargs)
        seen["fork"] = Kernel.__dict__["fork"]
        seen["handler"] = FleetServer.__dict__["handle_request"]
        return restore

    monkeypatch.setattr(perf_spans, "install", spy)
    result = perf_round.run_round(
        "fleet-mix", 0, traced=False, spawned_at=time.monotonic(),
        work=str(tmp_path), scale=TINY_SCALE,
    )
    assert seen["fork"] is original_fork
    assert seen["handler"] is not original_handler
    assert "layers" not in result and result["op_ms"]
    assert FleetServer.__dict__["handle_request"] is original_handler
