"""Post-mortem bundles: content-addressed forensics, replayable by seed.

When a slice hits a breach, an audit divergence, or a crash-loop trip —
or the campaign loses a shard worker — the tracer freezes the moment
into a *bundle*: the parent's architectural-snapshot digest, the
flight-recorder tail, the fault-plane ledgers, the supervisor's breaker
and deadline state, and the rolling traffic-session transcript, plus
the replay identity (seeds and configs) that produced it.

Bundles are written as ``.pmb`` JSON files named by the sha256 of their
canonical serialization, so a bundle *is* its content: two campaigns
that captured the same incident write the same file, and a corrupted
artifact can never masquerade as the incident it claims to be.

``repro postmortem <bundle>`` re-runs the recorded slice seed with a
fresh tracer and asserts the re-captured bundle is byte-identical —
every recorded event, ledger entry, and digest must reproduce exactly,
which is only possible because every layer underneath (traffic, chaos,
supervision, entropy) is a pure function of the same seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import BundleError
from ..persist import atomic_write

BUNDLE_KIND = "repro-postmortem"
BUNDLE_VERSION = 1
BUNDLE_SUFFIX = ".pmb"

#: Everything that may freeze a bundle, in severity order.
BUNDLE_TRIGGERS = (
    "breach", "audit-divergence", "crash-loop-trip", "worker-lost",
)


def canonical_json(payload: Dict[str, Any]) -> str:
    """The canonical serialization bundles are addressed and compared by."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def bundle_digest(payload: Dict[str, Any]) -> str:
    """Hex sha256 of the canonical serialization."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def build_bundle(tracer, trigger: str, detail: str = "") -> Dict[str, Any]:
    """Freeze one tracer's current moment into a bundle payload."""
    if trigger not in BUNDLE_TRIGGERS:
        raise ValueError(f"unknown bundle trigger {trigger!r}")
    trace = tracer.trace
    return {
        "kind": BUNDLE_KIND,
        "version": BUNDLE_VERSION,
        "trigger": trigger,
        "detail": detail,
        #: Which capture this was within its slice — replay matches the
        #: recorded and re-captured bundles up by (trigger, ordinal).
        "ordinal": len(trace.bundles),
        "scheme": trace.scheme,
        "seed": trace.seed,
        "chaos_seed": trace.chaos_seed,
        "session_index": tracer._session_index,
        "request_index": tracer._request_index,
        "clock_cycles": tracer.clock.hex(),
        "trace_config": tracer.config.to_json(),
        "slice": dict(tracer.replay_identity),
        "parent_digest": tracer.parent_digest(),
        "events": [event.to_json() for event in tracer.ring.events()],
        "supervisor": tracer.supervisor_state(),
        "faults": tracer.fault_ledgers(),
        "transcript": tracer.transcript(),
    }


def build_lost_bundle(
    scheme: str,
    seeds: List[int],
    identity: Dict[str, Any],
) -> Dict[str, Any]:
    """A campaign-level bundle for slices lost with their shard worker.

    There is no tracer to freeze — the worker died — so the bundle holds
    only the replay identity; :func:`replay_bundle` re-runs every lost
    seed serially and demands a clean, audited slice from each.
    """
    return {
        "kind": BUNDLE_KIND,
        "version": BUNDLE_VERSION,
        "trigger": "worker-lost",
        "detail": f"{len(seeds)} slice(s) lost with their shard worker",
        "ordinal": 0,
        "scheme": scheme,
        "seed": seeds[0] if seeds else 0,
        "seeds": list(seeds),
        "chaos_seed": identity.get("chaos_seed"),
        "slice": dict(identity),
    }


def write_bundle(payload: Dict[str, Any], directory: str) -> str:
    """Write one content-addressed ``.pmb`` file; returns its path."""
    name = f"{bundle_digest(payload)[:16]}{BUNDLE_SUFFIX}"
    path = os.path.join(directory, name)
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bundle(path: str) -> Dict[str, Any]:
    """Read and validate one ``.pmb`` file: its kind, its version, and
    that its content digest is the name :func:`write_bundle` gave it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise BundleError(f"unreadable bundle {path}: {error}")
    if not isinstance(payload, dict) or payload.get("kind") != BUNDLE_KIND:
        raise BundleError(f"{path} is not a post-mortem bundle")
    if payload.get("version") != BUNDLE_VERSION:
        raise BundleError(
            f"{path}: bundle version {payload.get('version')!r}, "
            f"this build reads {BUNDLE_VERSION}"
        )
    named = os.path.basename(path)
    if named.endswith(BUNDLE_SUFFIX):
        named = named[: -len(BUNDLE_SUFFIX)]
    digest = bundle_digest(payload)[:16]
    if named != digest:
        raise BundleError(
            f"{path}: content digest {digest} does not match the "
            f"digest {named!r} it is named by"
        )
    return payload


@dataclass
class ReplayResult:
    """Verdict of one bundle replay."""

    ok: bool
    trigger: str
    seed: int
    divergences: List[str] = field(default_factory=list)
    replayed: Optional[Dict[str, Any]] = None

    def render(self) -> str:
        lines = [
            f"bundle: trigger {self.trigger}, slice seed {self.seed}",
        ]
        for line in self.divergences:
            lines.append(f"  REPLAY DIVERGENCE: {line}")
        lines.append(
            "POST-MORTEM REPLAY EXACT" if self.ok
            else f"{len(self.divergences)} replay divergence(s)"
        )
        return "\n".join(lines)


def _slice_kwargs(identity: Dict[str, Any]) -> Dict[str, Any]:
    from ..fleet.supervisor import SupervisorConfig
    from ..fleet.traffic import TrafficConfig

    raw_chaos = identity.get("chaos_seed")
    return {
        "config": TrafficConfig.from_json(identity["traffic"]),
        "request_budget": int(identity["request_budget"]),
        "supervision": SupervisorConfig.from_json(identity["supervision"]),
        "chaos_seed": None if raw_chaos is None else int(raw_chaos),
        "audit": True,
    }


def replay_bundle(payload: Dict[str, Any]) -> ReplayResult:
    """Re-run the bundle's slice seed and compare moment for moment.

    The recorded and re-captured bundles must be *byte-identical* under
    canonical serialization — the recorded event sequence, ledger state,
    and parent digest all reproduce, or the divergent sections are named
    in the result.
    """
    from ..fleet.campaign import run_fleet_slice
    from .tracer import SliceTracer, TraceConfig

    identity = payload.get("slice") or {}
    if "traffic" not in identity:
        raise BundleError(
            "bundle carries no replay identity (captured outside a "
            "fleet slice run)"
        )
    kwargs = _slice_kwargs(identity)
    trigger = payload.get("trigger", "")
    seed = int(payload["seed"])
    scheme = payload["scheme"]

    if trigger == "worker-lost":
        divergences: List[str] = []
        budgets = payload.get("budgets", {})
        for lost_seed in payload.get("seeds", [seed]):
            seed_kwargs = dict(kwargs)
            seed_kwargs["request_budget"] = int(
                budgets.get(str(lost_seed), kwargs["request_budget"])
            )
            record = run_fleet_slice(scheme, int(lost_seed), **seed_kwargs)
            if record.requests == 0:
                divergences.append(
                    f"seed {lost_seed}: replayed slice served no requests"
                )
            for line in record.audit_divergences:
                divergences.append(f"seed {lost_seed}: {line}")
        return ReplayResult(
            ok=not divergences, trigger=trigger, seed=seed,
            divergences=divergences,
        )

    tracer = SliceTracer(
        scheme, seed,
        config=TraceConfig.from_json(payload["trace_config"]),
        chaos_seed=kwargs["chaos_seed"],
    )
    record = run_fleet_slice(scheme, seed, tracer=tracer, **kwargs)
    wanted = (trigger, int(payload.get("ordinal", 0)))
    replayed = None
    for bundle in tracer.trace.bundles:
        if (bundle["trigger"], bundle["ordinal"]) == wanted:
            replayed = bundle
            break
    if replayed is None:
        return ReplayResult(
            ok=False, trigger=trigger, seed=seed,
            divergences=[
                f"replay captured no {trigger!r} bundle with ordinal "
                f"{wanted[1]} (slice ended with {record.requests} "
                f"request(s), {len(tracer.trace.bundles)} bundle(s))"
            ],
        )
    if canonical_json(replayed) == canonical_json(payload):
        return ReplayResult(
            ok=True, trigger=trigger, seed=seed, replayed=replayed
        )
    divergences = [
        f"section {key!r}: recorded != replayed"
        for key in sorted(set(payload) | set(replayed))
        if payload.get(key) != replayed.get(key)
    ]
    return ReplayResult(
        ok=False, trigger=trigger, seed=seed,
        divergences=divergences, replayed=replayed,
    )
