"""A reaped fleet worker is freed by reference counting alone.

Every request forks a worker.  If a worker outlived its reap as cyclic
garbage (process ↔ CPU back-reference, or a crash traceback whose
frames hold the process), each request would feed the cyclic GC.  These
tests run with the collector disabled and check, through a weakref,
that the worker is gone as soon as its request returns.
"""

import gc
import weakref

import pytest

from repro.attacks.payloads import PayloadBuilder, frame_map
from repro.fleet.campaign import _SliceDriver
from repro.fleet.server import FleetServer
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.traffic import TrafficConfig
from repro.kernel.kernel import Kernel


@pytest.fixture()
def workers(monkeypatch):
    """Weak references to every process forked while the test runs."""
    refs = []
    fork = Kernel.fork

    def recording(self, *args, **kwargs):
        child = fork(self, *args, **kwargs)
        refs.append(weakref.ref(child))
        return child

    monkeypatch.setattr(Kernel, "fork", recording)
    return refs


def _served_without_gc(server, workers, request):
    builder = PayloadBuilder(frame_map(server.binary, "handler"))
    gc.collect()
    gc.disable()
    try:
        request(server, builder)
        alive = [ref() is not None for ref in workers]
    finally:
        gc.enable()
    assert alive and not any(alive), alive


@pytest.mark.parametrize("supervised", [False, True], ids=["raw", "supervised"])
@pytest.mark.parametrize("kind", ["benign", "smash"])
def test_request_worker_is_freed_at_reap(workers, kind, supervised):
    server = FleetServer.boot("pssp", 424242)
    if supervised:
        FleetSupervisor(seed=1).attach(server)

    def request(server, builder):
        payload = builder.benign(24) if kind == "benign" else builder.smash()
        response = server.handle_request(payload)
        assert response.smashed == (kind == "smash")

    _served_without_gc(server, workers, request)


def test_leak_session_worker_is_freed_at_release(workers):
    server = FleetServer.boot("pssp", 424242)
    FleetSupervisor(seed=1).attach(server)
    _served_without_gc(
        server,
        workers,
        lambda server, _: _SliceDriver(server, TrafficConfig(), 2)._leak_session(),
    )


def test_crash_keeps_the_fault_without_its_traceback():
    server = FleetServer.boot("pssp", 424242)
    builder = PayloadBuilder(frame_map(server.binary, "handler"))
    worker = server.fork_worker()
    worker.feed_stdin(builder.smash())
    result = worker.call(server.handler, (len(builder.smash()),))
    assert result.smashed and result.crash.__traceback__ is None
    server.release_worker(worker)
    assert worker.cpu.process is None
