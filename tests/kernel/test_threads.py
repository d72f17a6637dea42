"""Thread creation: shared memory, private stack and TLS."""

from repro.core.deploy import build, deploy
from repro.kernel.kernel import Kernel

SIMPLE = """
int main() { return 0; }
"""

THREADED = """
int worker(int arg) {
    char scratch[16];
    scratch[0] = 1;
    return arg * 2;
}
int main() {
    int tid;
    pthread_create(&tid, 0, worker, 21);
    pthread_join(tid, 0);
    return tid;
}
"""


def spawn(source, scheme="ssp", seed=5):
    kernel = Kernel(seed)
    binary = build(source, scheme, name="t")
    process, _ = deploy(kernel, binary, scheme)
    return kernel, process


class TestThreadContexts:
    def test_thread_shares_memory_object(self):
        kernel, process = spawn(SIMPLE)
        thread = kernel.create_thread(process)
        assert thread.memory is process.memory

    def test_thread_has_own_stack_segment(self):
        kernel, process = spawn(SIMPLE)
        thread = kernel.create_thread(process)
        assert process.memory.segment("stack_t1").size == 0x20000
        assert thread.registers.read("rsp") != process.registers.read("rsp")

    def test_thread_has_own_tls_with_same_canary(self):
        kernel, process = spawn(SIMPLE)
        thread = kernel.create_thread(process)
        assert thread.registers.fs_base != process.registers.fs_base
        assert thread.tls.canary == process.tls.canary

    def test_thread_hooks_run(self):
        kernel, process = spawn(SIMPLE)
        seen = []
        process.thread_hooks.append(lambda t, p: seen.append(t.name))
        kernel.create_thread(process)
        assert len(seen) == 1

    def test_thread_shares_pid(self):
        kernel, process = spawn(SIMPLE)
        thread = kernel.create_thread(process)
        assert thread.pid == process.pid

    def test_threads_get_disjoint_heap_arenas(self):
        kernel, process = spawn(SIMPLE)
        a = kernel.create_thread(process)
        b = kernel.create_thread(process)
        assert a.brk != b.brk


class TestPthreadCreate:
    def test_thread_function_runs(self):
        _, process = spawn(THREADED)
        result = process.run()
        assert result.state == "exited"
        assert result.exit_status == 1  # tid written back through pointer

    def test_thread_under_pssp_gets_fresh_shadow(self):
        kernel, process = spawn(SIMPLE, scheme="pssp")
        thread = kernel.create_thread(process)
        # Both must satisfy C0 ^ C1 == C, with distinct pairs.
        c = process.tls.canary
        assert process.tls.shadow_c0 ^ process.tls.shadow_c1 == c
        assert thread.tls.shadow_c0 ^ thread.tls.shadow_c1 == c
        assert thread.tls.shadow_c0 != process.tls.shadow_c0
