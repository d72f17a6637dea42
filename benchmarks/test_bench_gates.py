"""Self-test of the paired-timing perf gate, on synthetic timings.

    python -m pytest benchmarks/test_bench_gates.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_gates  # noqa: E402


class FakeHost:
    """A host clock that each side of a round advances by its work
    times the host's current slowdown."""

    def __init__(self) -> None:
        self.now = 0.0
        self.calls = 0
        self.slow_after = None

    def clock(self) -> float:
        return self.now

    def side(self, work: float, accounting=0):
        def call():
            self.calls += 1
            slowdown = 2.0 if self.slow_after and self.calls > self.slow_after else 1.0
            self.now += work * slowdown
            return accounting
        return call


@pytest.fixture
def host(monkeypatch):
    fake = FakeHost()
    monkeypatch.setattr(bench_gates, "perf_counter", fake.clock)
    return fake


def test_host_halving_speed_midway_still_yields_the_true_ratio(host):
    # The host halves its speed between the two sides of round 5 of 10.
    host.slow_after = 11
    times = bench_gates.interleave(
        {"fast": host.side(1.0), "slow": host.side(3.0)}, 10, lambda x: x
    )
    samples = bench_gates.ratios(times, "slow", "fast")
    assert bench_gates.ratio_check("x", samples, 3.0).value == pytest.approx(3.0)
    # Unpaired totals would read the swing as part of the ratio.
    assert sum(times["slow"]) / sum(times["fast"]) != pytest.approx(3.0)


def test_rounds_alternate_their_order(host):
    order = []
    sides = {name: (lambda name=name: order.append(name)) for name in "abc"}
    bench_gates.interleave(sides, 2, lambda x: None)
    assert order == ["a", "b", "c", "c", "b", "a"]


def _gate(host, *, speedup, accounting=(0, 0)):
    def gate(smoke):
        times = bench_gates.interleave({
            "slow": host.side(speedup, accounting[0]),
            "fast": host.side(1.0, accounting[1]),
        }, 3, lambda x: x)
        return [bench_gates.ratio_check(
            "synthetic", bench_gates.ratios(times, "slow", "fast"), 2.0
        )]
    return gate


def test_bounds_holding_exit_0(host, monkeypatch):
    monkeypatch.setattr(bench_gates, "GATES", (_gate(host, speedup=2.5),))
    assert bench_gates.main(["--smoke"]) == 0


def test_a_violated_bound_exits_1(host, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_gates, "GATES", (_gate(host, speedup=1.5),))
    out = tmp_path / "gates.json"
    assert bench_gates.main(["--smoke", "--json", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == 1
    assert [(c["name"], c["ok"]) for c in report["checks"]] == [("synthetic", False)]


def test_diverging_accounting_exits_2(host, monkeypatch, tmp_path):
    monkeypatch.setattr(
        bench_gates, "GATES", (_gate(host, speedup=2.5, accounting=(1, 2)),)
    )
    out = tmp_path / "gates.json"
    assert bench_gates.main(["--json", str(out)]) == 2
    assert "slow/fast" in json.loads(out.read_text())["divergence"]


def test_a_divergence_outranks_a_failed_bound(host, monkeypatch):
    monkeypatch.setattr(bench_gates, "GATES", (
        _gate(host, speedup=1.5), _gate(host, speedup=2.5, accounting=(1, 2)),
    ))
    assert bench_gates.main([]) == 2
