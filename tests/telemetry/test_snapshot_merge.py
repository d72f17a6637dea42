"""Snapshot merging and absorption: the cross-process telemetry path.

A sharded campaign ships each worker's counter/histogram delta back as
plain data, merges the deltas in canonical shard order, and absorbs
the result into the parent registry.  These tests pin the algebra that
makes that deterministic: ``merge`` is associative with ``Snapshot()``
as identity, and ``absorb`` is exactly "add the delta".
"""

import pytest

from repro.telemetry import Snapshot
from repro.telemetry.registry import Registry


def _hist(bounds, counts, total, count):
    return {"bounds": list(bounds), "counts": list(counts),
            "sum": total, "count": count}


class TestMergeAlgebra:
    def test_empty_is_identity(self):
        snap = Snapshot({"a": 3, "h": _hist((1, 2), [1, 0, 2], 5.0, 3)})
        assert snap.merge(Snapshot()) == snap
        assert Snapshot().merge(snap) == snap
        assert not Snapshot()

    def test_scalars_add(self):
        merged = Snapshot({"a": 2, "b": 1}).merge(Snapshot({"a": 5}))
        assert merged.data == {"a": 7, "b": 1}

    def test_disjoint_names_carry_over(self):
        merged = Snapshot({"a": 1}).merge(Snapshot({"b": 2}))
        assert merged.data == {"a": 1, "b": 2}

    def test_histograms_add_bucketwise(self):
        left = Snapshot({"h": _hist((10, 100), [1, 2, 0], 42.0, 3)})
        right = Snapshot({"h": _hist((10, 100), [0, 1, 4], 500.0, 5)})
        merged = left.merge(right)
        assert merged.data["h"] == _hist((10, 100), [1, 3, 4], 542.0, 8)

    def test_associative(self):
        a = Snapshot({"x": 1, "h": _hist((1,), [1, 0], 0.5, 1)})
        b = Snapshot({"x": 2, "y": 7})
        c = Snapshot({"h": _hist((1,), [0, 3], 9.0, 3), "y": 1})
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_does_not_mutate_inputs(self):
        left = Snapshot({"h": _hist((1,), [1, 1], 2.0, 2)})
        right = Snapshot({"h": _hist((1,), [1, 1], 2.0, 2)})
        left.merge(right)
        assert left.data["h"]["counts"] == [1, 1]

    def test_bounds_mismatch_rejected(self):
        left = Snapshot({"h": _hist((1, 2), [0, 0, 0], 0.0, 0)})
        right = Snapshot({"h": _hist((1, 3), [0, 0, 0], 0.0, 0)})
        with pytest.raises(ValueError):
            left.merge(right)

    def test_scalar_histogram_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Snapshot({"x": 1}).merge(
                Snapshot({"x": _hist((1,), [0, 0], 0.0, 0)})
            )

    def test_json_roundtrip(self):
        snap = Snapshot({"a": 3, "h": _hist((1,), [1, 2], 4.0, 3)})
        assert Snapshot.from_json(snap.to_json()) == snap


class TestAbsorb:
    def test_scalar_adds_onto_existing_counter(self):
        reg = Registry()
        reg.counter("jobs_total").add(2)
        reg.absorb(Snapshot({"jobs_total": 3}))
        assert reg.snapshot()["jobs_total"] == 5

    def test_unseen_scalar_becomes_counter(self):
        reg = Registry()
        reg.absorb(Snapshot({"fresh_total": 4}))
        assert reg.counter("fresh_total").value == 4

    def test_unseen_negative_scalar_becomes_gauge(self):
        reg = Registry()
        reg.absorb(Snapshot({"pressure": -2}))
        assert reg.gauge("pressure").value == -2

    def test_histogram_adds_bucketwise(self):
        reg = Registry()
        hist = reg.histogram("lat", (10.0, 100.0))
        hist.observe(5)
        reg.absorb(Snapshot({"lat": _hist((10.0, 100.0), [1, 0, 2], 2005.0, 3)}))
        snap = reg.snapshot()["lat"]
        assert snap["counts"] == [2, 0, 2]
        assert snap["count"] == 4

    def test_histogram_bounds_mismatch_rejected(self):
        reg = Registry()
        reg.histogram("lat", (10.0,))
        with pytest.raises(ValueError):
            reg.absorb(Snapshot({"lat": _hist((99.0,), [0, 0], 0.0, 0)}))

    def test_worker_delta_roundtrip(self):
        # The real campaign flow: worker snapshots, works, ships the
        # delta; the parent absorbs and ends up exactly where a serial
        # run would have.
        parent = Registry()
        parent.counter("seeds_total").add(10)
        worker = Registry()
        worker.counter("seeds_total").add(10)  # inherited pre-fork state
        before = worker.snapshot()
        worker.counter("seeds_total").add(7)
        worker.histogram("cost", (1.0, 10.0)).observe(3.0)
        parent.absorb(Snapshot(worker.delta(before)))
        assert parent.snapshot()["seeds_total"] == 17
        assert parent.snapshot()["cost"]["count"] == 1
