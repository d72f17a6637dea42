"""Typed instrument registry: counters, gauges, histograms.

One process-wide :class:`Registry` (reachable via :func:`registry`) holds
every instrument by name.  Recording is designed around the interpreter
fast path's constraint: the hot loop never calls into this module per
instruction — subsystems accumulate locally (the CPU's batched
cycle/instruction accounting, the decode-time canary group leaders) and
flush aggregate deltas at batch boundaries.  Instruments therefore stay
plain Python objects with attribute arithmetic, no locks, no callbacks.

Instrument taxonomy (documented in docs/observability.md):

* :class:`Counter`   — monotonic; ``add`` rejects negative deltas.
* :class:`Gauge`     — last-write-wins level (``set``/``add``).
* :class:`Histogram` — fixed upper-bound buckets chosen at creation;
  ``observe`` is O(buckets) with no allocation.

Enable/disable is global and **generational**: every state flip bumps
``Registry.generation``, which the CPU's decode cache watches so stale
telemetry wrappers are re-decoded away instead of checked per step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]

#: Default histogram upper bounds: wide log-spaced cycle-ish buckets.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
)


class Counter:
    """A monotonically increasing value (int or float)."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def add(self, delta: Number = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name}: negative add {delta!r}")
        self.value += delta

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Number:
        return self.value


class Gauge:
    """A level that may move in either direction."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, delta: Number) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Number:
        return self.value


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative exposition).

    ``bounds`` are ascending upper bounds; observations above the last
    bound land in the implicit +Inf bucket.
    """

    __slots__ = ("name", "help", "bounds", "counts", "total", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bounds must ascend")
        self.name = name
        self.help = help
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.total: float = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def snapshot(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


Instrument = Union[Counter, Gauge, Histogram]


class Snapshot:
    """A mergeable plain-data view of a registry's instruments.

    Wraps the ``name → value`` mapping produced by
    :meth:`Registry.snapshot` / :meth:`Registry.delta` (scalars for
    counters and gauges, ``{bounds, counts, sum, count}`` dicts for
    histograms) so per-worker telemetry can cross a process boundary as
    JSON and be aggregated in the parent.  :meth:`merge` is associative
    and has ``Snapshot()`` as its identity, which is what lets a
    sharded campaign fold worker deltas in canonical shard order and
    land on one deterministic aggregate regardless of completion order.
    """

    __slots__ = ("data",)

    def __init__(self, data: Optional[Dict[str, object]] = None) -> None:
        self.data: Dict[str, object] = dict(data or {})

    @classmethod
    def capture(cls, reg: Optional["Registry"] = None) -> "Snapshot":
        """Snapshot the given (default: process-wide) registry."""
        return cls((reg or _DEFAULT).snapshot())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Snapshot):
            return self.data == other.data
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.data)

    @staticmethod
    def _merge_histograms(name: str, left: Dict, right: Dict) -> Dict:
        if list(left["bounds"]) != list(right["bounds"]):
            raise ValueError(
                f"histogram {name!r}: cannot merge differing bounds "
                f"{left['bounds']!r} vs {right['bounds']!r}"
            )
        return {
            "bounds": list(left["bounds"]),
            "counts": [a + b for a, b in zip(left["counts"], right["counts"])],
            "sum": left["sum"] + right["sum"],
            "count": left["count"] + right["count"],
        }

    def merge(self, other: "Snapshot") -> "Snapshot":
        """Return a new snapshot combining both sides.

        Counters and gauges add; histograms add counts/sum/count
        (bounds must agree); instruments present on one side only are
        carried over unchanged.  Mixing a scalar and a histogram under
        one name is a programming error and raises ``ValueError``.
        """
        merged: Dict[str, object] = {}
        for name in sorted(set(self.data) | set(other.data)):
            left, right = self.data.get(name), other.data.get(name)
            if left is None:
                merged[name] = right if not isinstance(right, dict) else dict(right)
            elif right is None:
                merged[name] = left if not isinstance(left, dict) else dict(left)
            elif isinstance(left, dict) and isinstance(right, dict):
                merged[name] = self._merge_histograms(name, left, right)
            elif isinstance(left, dict) or isinstance(right, dict):
                raise ValueError(
                    f"instrument {name!r}: scalar/histogram shape mismatch"
                )
            else:
                merged[name] = left + right
        return Snapshot(merged)

    def to_json(self) -> Dict[str, object]:
        return dict(self.data)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "Snapshot":
        return cls(data)


class Registry:
    """All instruments of one process, plus the global enable switch."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self.enabled = True
        #: Bumped on every enable/disable/reset so decode-time telemetry
        #: wrappers (bound when a function was lowered) can be invalidated
        #: with one integer compare instead of per-step checks.
        self.generation = 0

    # -- instrument creation / lookup ------------------------------------

    def _get(self, name: str, factory, kind: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"instrument {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self,
        name: str,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, bounds, help), "histogram")

    def instruments(self) -> List[Instrument]:
        return [self._instruments[name] for name in sorted(self._instruments)]

    def value(self, name: str) -> Number:
        """Current scalar value of a counter/gauge; 0 when unregistered.

        One dict lookup + attribute read — cheap enough for per-request
        polling (the fleet tracer attributes canary lifecycle counters to
        request spans this way), and never creates the instrument.
        """
        instrument = self._instruments.get(name)
        if instrument is None or isinstance(instrument, Histogram):
            return 0
        return instrument.value

    # -- state -----------------------------------------------------------

    def enable(self) -> None:
        if not self.enabled:
            self.enabled = True
            self.generation += 1

    def disable(self) -> None:
        if self.enabled:
            self.enabled = False
            self.generation += 1

    def reset(self) -> None:
        """Zero every instrument (structure kept, values dropped)."""
        for instrument in self._instruments.values():
            instrument.reset()
        self.generation += 1

    def absorb(self, snapshot: "Snapshot") -> None:
        """Fold a (merged) worker snapshot into this registry.

        The inverse of shipping :meth:`delta` across a process
        boundary: scalars add onto the existing instrument (a counter
        is created for unseen non-negative scalars, a gauge for
        negative ones, since the plain-data shape does not carry the
        kind), histograms add counts/sum/count bucket-wise.  No-op on
        the empty snapshot.
        """
        for name in sorted(snapshot.data):
            value = snapshot.data[name]
            if isinstance(value, dict):
                histogram = self.histogram(name, tuple(value["bounds"]))
                if list(histogram.bounds) != list(value["bounds"]):
                    raise ValueError(
                        f"histogram {name!r}: absorb bounds mismatch"
                    )
                for index, count in enumerate(value["counts"]):
                    histogram.counts[index] += count
                histogram.total += value["sum"]
                histogram.count += value["count"]
            elif name in self._instruments:
                self._instruments[name].add(value)
            elif value < 0:
                self.gauge(name).add(value)
            else:
                self.counter(name).add(value)

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of every instrument, sorted by name."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def delta(self, before: Dict[str, object]) -> Dict[str, object]:
        """Difference of the current state against a prior snapshot.

        Counters/gauges subtract; histograms subtract counts and sums.
        Instruments created since ``before`` report their full value.
        """
        result: Dict[str, object] = {}
        for name, value in self.snapshot().items():
            prior = before.get(name)
            if isinstance(value, dict):
                prior_counts = prior["counts"] if isinstance(prior, dict) else None
                result[name] = {
                    "bounds": value["bounds"],
                    "counts": [
                        c - (prior_counts[i] if prior_counts else 0)
                        for i, c in enumerate(value["counts"])
                    ],
                    "sum": value["sum"]
                    - (prior["sum"] if isinstance(prior, dict) else 0.0),
                    "count": value["count"]
                    - (prior["count"] if isinstance(prior, dict) else 0),
                }
            else:
                result[name] = value - (prior if isinstance(prior, (int, float)) else 0)
        return result

    def to_json(self) -> Dict[str, object]:
        return {"enabled": self.enabled, "instruments": self.snapshot()}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (counters/gauges/histograms).

        Every instrument gets a ``# HELP`` and a ``# TYPE`` line — a
        scrape-valid exposition even for instruments whose help text was
        lost crossing a process boundary (``absorb`` only ships values),
        which fall back to their own name.  Help text is escaped per the
        exposition format (backslash and newline).
        """
        lines: List[str] = []
        for instrument in self.instruments():
            name = instrument.name
            help_text = (instrument.help or name).replace(
                "\\", "\\\\"
            ).replace("\n", "\\n")
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                cumulative = 0
                for bound, count in zip(instrument.bounds, instrument.counts):
                    cumulative += count
                    lines.append(
                        f'{name}_bucket{{le="{bound:g}"}} {cumulative}'
                    )
                cumulative += instrument.counts[-1]
                lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{name}_sum {instrument.total:g}")
                lines.append(f"{name}_count {instrument.count}")
            else:
                lines.append(f"{name} {instrument.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide default registry (see module docstring).
_DEFAULT = Registry()


def registry() -> Registry:
    """The process-wide default registry."""
    return _DEFAULT
