"""Repeated byte-by-byte attack trials as a shardable campaign.

One trial is fully determined by ``(scheme, seed, victim source)``: the
kernel seed fixes the canary stream, so trial ``i`` of a campaign —
seeded ``base_seed + i`` — reproduces bit-for-bit, exactly like a fuzz
or chaos seed.  That makes attack-cost distributions (``repro attack
--repeats N`` and ``benchmarks/bench_security.py``) a third consumer of
:mod:`repro.parallel`: the seed range shards across a process pool and
merges in seed order, so ``jobs=N`` reports match ``jobs=1`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import telemetry
from .byte_by_byte import byte_by_byte_attack
from .oracle import ForkingServer
from .payloads import frame_map

#: The §VI-C forking-server victim (a read into a fixed frame).
DEFAULT_VICTIM = """
int handler(int n) {
    char buf[64];
    read(0, buf, 4096);
    return 0;
}
int main() { return 0; }
"""


@dataclass
class AttackTrial:
    """One seeded byte-by-byte campaign against one server."""

    seed: int
    success: bool
    trials: int
    recovered: str  #: hex of the recovered canary-region bytes
    #: Defender-side view: ``canary_smashes_detected_total`` delta.
    smashes: int

    @property
    def recovered_bytes(self) -> int:
        return len(self.recovered) // 2

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "success": self.success,
            "trials": self.trials,
            "recovered": self.recovered,
            "smashes": self.smashes,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "AttackTrial":
        return cls(
            seed=int(data["seed"]),
            success=bool(data["success"]),
            trials=int(data["trials"]),
            recovered=data["recovered"],
            smashes=int(data["smashes"]),
        )


@dataclass
class AttackCampaignReport:
    """Outcome of ``repeats`` seeded trials against one scheme."""

    scheme: str
    base_seed: int
    repeats: int
    max_trials: int
    trials: List[AttackTrial] = field(default_factory=list)
    #: Seeds whose shard was lost to a crashed worker (after retries).
    lost: List[int] = field(default_factory=list)
    #: Shards that needed more than one attempt, ``"first..last" ->
    #: attempts`` (empty on serial and healthy parallel runs).
    shard_attempts: Dict[str, int] = field(default_factory=dict)

    @property
    def successes(self) -> int:
        return sum(1 for trial in self.trials if trial.success)

    @property
    def mean_trials(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.trials for t in self.trials) / len(self.trials)

    def to_json(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "base_seed": self.base_seed,
            "repeats": self.repeats,
            "max_trials": self.max_trials,
            "trials": [trial.to_json() for trial in self.trials],
            "lost": list(self.lost),
            "shard_attempts": dict(sorted(self.shard_attempts.items())),
        }

    def render(self) -> str:
        lines = [
            f"attack: scheme={self.scheme} repeats={self.repeats} "
            f"base seed {self.base_seed}"
        ]
        for trial in self.trials:
            lines.append(
                f"  seed {trial.seed}: "
                f"{'BROKEN' if trial.success else 'held'} after "
                f"{trial.trials} trial(s), "
                f"{trial.recovered_bytes} byte(s) recovered, "
                f"{trial.smashes} smash(es) detected"
            )
        for span, attempts in sorted(self.shard_attempts.items()):
            lines.append(f"  shard {span}: {attempts} attempt(s)")
        for seed in self.lost:
            lines.append(f"  seed {seed}: LOST (worker crashed)")
        lines.append(
            f"{self.successes}/{len(self.trials)} attack(s) succeeded, "
            f"mean {self.mean_trials:.0f} trial(s)"
        )
        return "\n".join(lines)


def run_attack_trial(
    scheme: str,
    seed: int,
    *,
    max_trials: int = 6000,
    source: str = DEFAULT_VICTIM,
) -> AttackTrial:
    """Build the victim, run one byte-by-byte campaign, count smashes."""
    from ..core.deploy import build, deploy
    from ..kernel.kernel import Kernel

    kernel = Kernel(seed)
    binary = build(source, scheme, name="server")
    parent, _ = deploy(kernel, binary, scheme)
    server = ForkingServer(kernel, parent)
    frame = frame_map(binary, "handler")
    before = telemetry.snapshot()
    report = byte_by_byte_attack(server, frame, max_trials=max_trials)
    delta = telemetry.delta(before)
    smashes = int(delta.get("canary_smashes_detected_total", 0) or 0)
    return AttackTrial(
        seed=seed,
        success=report.success,
        trials=report.trials,
        recovered=report.recovered.hex(),
        smashes=smashes,
    )


def _attack_unit(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign unit (see :mod:`repro.parallel.campaign`): one trial."""
    return run_attack_trial(
        config["scheme"], seed,
        max_trials=config["max_trials"], source=config["source"],
    ).to_json()


def attack_campaign(
    scheme: str,
    *,
    base_seed: int = 20180625,
    repeats: int = 1,
    max_trials: int = 6000,
    source: str = DEFAULT_VICTIM,
    jobs: int = 1,
    shard_retries: int = 1,
) -> AttackCampaignReport:
    """Run ``repeats`` seeded trials (seeds ``base_seed + i``).

    ``jobs > 1`` shards the seed range; the report is merged in seed
    order and is bit-identical to a serial run.  Seeds on a shard whose
    worker died (after ``shard_retries`` re-queues) are listed in
    ``report.lost``; shards that needed more than one attempt land in
    ``report.shard_attempts``.
    """
    from ..parallel import run_units

    config = {"scheme": scheme, "max_trials": max_trials, "source": source}
    result = run_units(
        _attack_unit, config, base_seed, repeats,
        jobs=jobs, shard_retries=shard_retries,
    )
    return AttackCampaignReport(
        scheme=scheme, base_seed=base_seed, repeats=repeats,
        max_trials=max_trials,
        trials=[AttackTrial.from_json(r) for r in result.records.values()],
        lost=[seed for lost in result.lost for seed in lost.seeds],
        shard_attempts=result.shard_attempts,
    )
