"""Campaign trace container + Perfetto/Chrome trace-event export.

A :class:`CampaignTrace` is the seed-ordered collection of slice traces
one ``run_fleet`` produced (plus any worker-lost bundles).  Export goes
through the same emitter the profiler uses
(:func:`repro.telemetry.profile.chrome_trace_container` and the
``CLOCK_HZ`` conversion), so a ``--trace-out`` file loads in
``chrome://tracing`` / Perfetto next to a ``repro profile --out`` file
and shares its simulated timeline semantics.

Layout: each slice is a Perfetto *process* (pid = position in scheme ×
seed order, name ``scheme/slice-seed``) with two threads — sessions on
tid 1, requests on tid 2 — and instants pinned to the request thread.
Everything is derived from the deterministic slice traces, so the
export is byte-identical for serial and ``--jobs N`` campaigns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..persist import atomic_write
from ..telemetry.profile import chrome_trace_container, cycles_to_us
from .spans import SliceTrace
from .tracer import TraceConfig


@dataclass
class CampaignTrace:
    """Every slice trace of one campaign, in scheme × seed order."""

    config: TraceConfig = field(default_factory=TraceConfig)
    slices: List[SliceTrace] = field(default_factory=list)
    #: Worker-lost bundles (campaign-level; no slice trace survived).
    lost_bundles: List[Dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "repro-campaign-trace",
            "trace_config": self.config.to_json(),
            "slices": [trace.to_json() for trace in self.slices],
            "lost_bundles": [dict(bundle) for bundle in self.lost_bundles],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CampaignTrace":
        return cls(
            config=TraceConfig.from_json(data["trace_config"]),
            slices=[SliceTrace.from_json(s) for s in data["slices"]],
            lost_bundles=[dict(b) for b in data.get("lost_bundles", [])],
        )

    # -- aggregation ------------------------------------------------------

    def bundles(self) -> List[Dict[str, Any]]:
        """Every captured bundle, slice order first, lost bundles last."""
        found: List[Dict[str, Any]] = []
        for trace in self.slices:
            found.extend(trace.bundles)
        found.extend(self.lost_bundles)
        return found

    def schemes(self) -> List[str]:
        seen: List[str] = []
        for trace in self.slices:
            if trace.scheme not in seen:
                seen.append(trace.scheme)
        return seen

    # -- Perfetto export --------------------------------------------------

    def perfetto(self) -> Dict[str, Any]:
        """Chrome trace-event JSON over every slice (see module docstring)."""
        trace_events: List[Dict[str, Any]] = []
        spans_total = 0
        for pid, trace in enumerate(self.slices, start=1):
            process = f"{trace.scheme}/slice-{trace.seed}"
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                "args": {"name": process},
            })
            for tid, thread in ((1, "sessions"), (2, "requests")):
                trace_events.append({
                    "name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"name": thread},
                })
            for span in trace.spans:
                tid = 1 if span.category == "session" else 2
                trace_events.append({
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": cycles_to_us(span.begin_cycles),
                    "dur": cycles_to_us(span.end_cycles - span.begin_cycles),
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        **span.args,
                    },
                })
                spans_total += 1
            for instant in trace.instants:
                trace_events.append({
                    "name": instant.name,
                    "cat": instant.category,
                    "ph": "i",
                    "s": "t",
                    "ts": cycles_to_us(instant.at_cycles),
                    "pid": pid,
                    "tid": 2,
                    "args": {
                        "parent_id": instant.parent_id,
                        **instant.args,
                    },
                })
        return chrome_trace_container(trace_events, {
            "slices": len(self.slices),
            "spans": spans_total,
            "bundles": len(self.bundles()),
        })

    def render(self) -> str:
        """Terminal summary of the campaign trace."""
        lines = []
        for trace in self.slices:
            lines.append(
                f"  {trace.scheme}/slice-{trace.seed}: "
                f"{trace.sessions} session(s), {trace.requests} request(s), "
                f"{len(trace.spans)} span(s), {len(trace.instants)} "
                f"instant(s), {len(trace.bundles)} bundle(s)"
                + (f", {trace.spans_dropped} span(s) dropped"
                   if trace.spans_dropped else "")
            )
        for bundle in self.lost_bundles:
            lines.append(
                f"  {bundle['scheme']}: worker-lost bundle covering "
                f"seeds {bundle.get('seeds', [])}"
            )
        return "\n".join(lines)


def write_trace(trace: CampaignTrace, path: str) -> None:
    """Write the Perfetto export (the ``--trace-out`` artifact)."""
    atomic_write(path, json.dumps(trace.perfetto(), indent=2) + "\n")


def write_bundles(trace: CampaignTrace, directory: str) -> List[str]:
    """Write every captured bundle as a ``.pmb`` file; returns paths."""
    from .bundle import write_bundle

    return [write_bundle(payload, directory) for payload in trace.bundles()]
