"""CPU execution semantics, driven through assembled programs."""

import math
from fractions import Fraction

import pytest

from repro.errors import (
    CpuLimitExceeded,
    DivisionFault,
    IllegalInstruction,
    InvalidJump,
)
from repro.machine.memory import TLS_BASE


class TestArithmetic:
    def test_mov_imm_and_return(self, asm):
        h = asm("f:\n mov rax, 42\n ret\n")
        assert h.run("f") == 42

    def test_add_sub(self, asm):
        h = asm("f:\n mov rax, 10\n add rax, 32\n sub rax, 2\n ret\n")
        assert h.run("f") == 40

    def test_xor_self_zeroes(self, asm):
        h = asm("f:\n mov rax, 123\n xor rax, rax\n ret\n")
        assert h.run("f") == 0

    def test_wraparound_64bit(self, asm):
        h = asm("f:\n mov rax, -1\n add rax, 2\n ret\n")
        assert h.run("f") == 1

    def test_shifts(self, asm):
        h = asm("f:\n mov rax, 1\n shl rax, 4\n shr rax, 1\n ret\n")
        assert h.run("f") == 8

    def test_imul(self, asm):
        h = asm("f:\n mov rax, 6\n mov rcx, 7\n imul rax, rcx\n ret\n")
        assert h.run("f") == 42

    def test_idiv_quotient_and_remainder(self, asm):
        h = asm("f:\n mov rax, 17\n mov rcx, 5\n idiv rcx\n ret\n")
        assert h.run("f") == 3
        assert h.cpu.registers.read("rdx") == 2

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("dividend, divisor", [
        (2**62 + 1, 3), (-(2**62 + 1), 3), (2**62 + 1, -3), (-(2**62 + 1), -3),
        (2**63 - 1, 10), (-(2**63 - 1), 7), (2**63 - 1, -(2**62 + 1)),
        (-(2**63 - 1), 2**62 + 1), (7, 2), (-7, 2), (7, -2), (-7, -2),
        (1, -5), (-1, 5), (0, -3),
    ])
    def test_idiv_is_exact_and_truncates_toward_zero(
        self, asm, fast, dividend, divisor
    ):
        h = asm(
            f"f:\n mov rax, {dividend}\n mov rcx, {divisor}\n"
            " idiv rcx\n ret\n"
        )
        h.cpu.fast = fast
        quotient = math.trunc(Fraction(dividend, divisor))
        mask = 2**64 - 1
        assert h.run("f") == quotient & mask
        remainder = dividend - quotient * divisor
        assert abs(remainder) < abs(divisor)
        assert h.cpu.registers.read("rdx") == remainder & mask

    def test_idiv_by_zero_faults(self, asm):
        h = asm("f:\n mov rax, 1\n mov rcx, 0\n idiv rcx\n ret\n")
        with pytest.raises(DivisionFault):
            h.run("f")

    def test_neg_not_inc_dec(self, asm):
        h = asm("f:\n mov rax, 5\n neg rax\n neg rax\n inc rax\n dec rax\n dec rax\n ret\n")
        assert h.run("f") == 4


class TestFlagsAndBranches:
    def test_je_taken_on_equal(self, asm):
        h = asm(
            "f:\n mov rax, 3\n cmp rax, 3\n je .eq\n mov rax, 0\n ret\n"
            ".eq:\n mov rax, 1\n ret\n"
        )
        assert h.run("f") == 1

    def test_signed_less_than(self, asm):
        h = asm(
            "f:\n mov rax, -5\n cmp rax, 3\n jl .lt\n mov rax, 0\n ret\n"
            ".lt:\n mov rax, 1\n ret\n"
        )
        assert h.run("f") == 1

    def test_unsigned_below(self, asm):
        # -5 as unsigned is huge, so NOT below 3.
        h = asm(
            "f:\n mov rax, -5\n cmp rax, 3\n jb .lt\n mov rax, 0\n ret\n"
            ".lt:\n mov rax, 1\n ret\n"
        )
        assert h.run("f") == 0

    def test_xor_sets_zero_flag(self, asm):
        # The SSP epilogue idiom: xor then je.
        h = asm(
            "f:\n mov rax, 7\n mov rcx, 7\n xor rax, rcx\n je .ok\n"
            " mov rax, 99\n ret\n.ok:\n mov rax, 1\n ret\n"
        )
        assert h.run("f") == 1

    def test_loop_with_jne(self, asm):
        h = asm(
            "f:\n mov rax, 0\n mov rcx, 0\n"
            ".loop:\n add rax, rcx\n inc rcx\n cmp rcx, 5\n jne .loop\n ret\n"
        )
        assert h.run("f") == 0 + 1 + 2 + 3 + 4

    def test_flags_survive_call_and_ret(self, asm):
        # The instrumented epilogue relies on ZF riding across ret.
        h = asm(
            "setz:\n cmp rax, rax\n ret\n"
            "f:\n mov rax, 5\n call setz\n je .ok\n mov rax, 0\n ret\n"
            ".ok:\n mov rax, 1\n ret\n"
        )
        assert h.run("f") == 1


class TestStackAndCalls:
    def test_push_pop(self, asm):
        h = asm("f:\n mov rax, 11\n push rax\n mov rax, 0\n pop rax\n ret\n")
        assert h.run("f") == 11

    def test_call_ret_roundtrip(self, asm):
        h = asm("g:\n mov rax, 9\n ret\nf:\n call g\n add rax, 1\n ret\n")
        assert h.run("f") == 10

    def test_arguments_via_registers(self, asm):
        h = asm("f:\n mov rax, rdi\n add rax, rsi\n ret\n")
        assert h.run("f", (30, 12)) == 42

    def test_frame_with_leave(self, asm):
        h = asm(
            "f:\n push rbp\n mov rbp, rsp\n sub rsp, 0x20\n"
            " mov [rbp-8], rdi\n mov rax, [rbp-8]\n leave\n ret\n"
        )
        assert h.run("f", (77,)) == 77

    def test_recursion(self, asm):
        # factorial(5) with an explicit stack frame.
        h = asm(
            "fact:\n push rbp\n mov rbp, rsp\n cmp rdi, 1\n jle .base\n"
            " push rdi\n sub rdi, 1\n call fact\n pop rdi\n imul rax, rdi\n"
            " leave\n ret\n"
            ".base:\n mov rax, 1\n leave\n ret\n"
        )
        assert h.run("fact", (5,)) == 120

    def test_corrupted_return_address_faults(self, asm):
        h = asm(
            "f:\n push rbp\n mov rbp, rsp\n mov rax, 0x41414141\n"
            " mov [rbp+8], rax\n pop rbp\n ret\n"
        )
        with pytest.raises(InvalidJump):
            h.run("f")

    def test_ret_to_instruction_boundary_succeeds(self, asm):
        # Overwrite the return address with a *valid* code address: the
        # control-flow hijack must succeed (that is what attackers do).
        # win halts rather than returning — the hijack destroyed the
        # genuine return linkage, as in a real exploit.
        h = asm(
            "win:\n mov rax, 57\n hlt\n"
            "f:\n push rbp\n mov rbp, rsp\n lea rax, win\n"
            " mov [rbp+8], rax\n pop rbp\n ret\n"
        )
        assert h.run("f") == 57


class TestMemoryOperands:
    def test_tls_access(self, asm):
        h = asm("f:\n mov rax, fs:[0x28]\n ret\n")
        h.memory.write_word(TLS_BASE + 0x28, 0x5EC2E7)
        assert h.run("f") == 0x5EC2E7

    def test_indexed_addressing(self, asm):
        h = asm(
            "f:\n mov rcx, rdi\n mov rdx, 2\n mov rax, [rcx+rdx*8]\n ret\n"
        )
        base = h.memory.segment("heap").base
        h.memory.write_word(base + 16, 555)
        assert h.run("f", (base,)) == 555

    def test_byte_ops(self, asm):
        h = asm(
            "f:\n movb [rdi], rsi\n movzxb rax, [rdi]\n ret\n"
        )
        base = h.memory.segment("heap").base
        assert h.run("f", (base, 0x1FF)) == 0xFF  # only the low byte lands

    def test_lea_computes_without_access(self, asm):
        h = asm("f:\n lea rax, [rdi+24]\n ret\n")
        assert h.run("f", (100,)) == 124


class TestSpecialInstructions:
    def test_rdrand_sets_carry_and_value(self, asm):
        h = asm("f:\n rdrand rax\n ret\n")
        value = h.run("f")
        assert h.cpu.registers.cf is True
        assert 0 <= value < 2**64

    def test_rdrand_draws_differ(self, asm):
        h = asm("f:\n rdrand rax\n ret\n")
        assert h.run("f") != h.run("f")

    def test_rdtsc_monotonic(self, asm):
        h = asm("f:\n rdtsc\n shl rdx, 32\n or rax, rdx\n ret\n")
        first = h.run("f")
        second = h.run("f")
        assert second > first

    def test_xmm_pack_and_compare(self, asm):
        h = asm(
            "f:\n mov rax, 7\n movq xmm15, rax\n mov rcx, 9\n"
            " movhps xmm1, rcx\n movq xmm1, rax\n punpckhdq xmm1, rcx\n"
            " comiss xmm15, xmm15\n je .same\n mov rax, 0\n ret\n"
            ".same:\n movq rax, xmm1\n ret\n"
        )
        assert h.run("f") == 7
        assert h.cpu.registers.read("xmm1") == (9 << 64) | 7

    def test_movdqu_roundtrip(self, asm):
        h = asm(
            "f:\n mov rax, 1\n movq xmm15, rax\n mov rcx, 2\n"
            " punpckhdq xmm15, rcx\n movdqu [rdi], xmm15\n"
            " pxor xmm15, xmm15\n movdqu xmm15, [rdi]\n movq rax, xmm15\n ret\n"
        )
        base = asm_base = h.memory.segment("heap").base
        assert h.run("f", (base,)) == 1
        assert h.memory.read_word(asm_base + 8) == 2

    def test_raw_syscall_is_illegal(self, asm):
        h = asm("f:\n syscall\n ret\n")
        with pytest.raises(IllegalInstruction):
            h.run("f")


class TestLimitsAndAccounting:
    def test_cycle_limit(self, asm):
        h = asm("f:\n.spin:\n jmp .spin\n")
        h.cpu.cycle_limit = 1000
        with pytest.raises(CpuLimitExceeded):
            h.run("f")

    def test_cycles_accumulate(self, asm):
        h = asm("f:\n mov rax, 1\n ret\n")
        h.run("f")
        assert h.cpu.cycles > 0
        assert h.cpu.instructions_executed == 2

    def test_dbi_multiplier_scales_cycles(self, asm):
        plain = asm("f:\n mov rax, 1\n ret\n")
        plain.run("f")
        taxed = asm("f:\n mov rax, 1\n ret\n")
        taxed.cpu.dbi_multiplier = 2.0
        taxed.run("f")
        assert taxed.cpu.cycles == pytest.approx(2.0 * plain.cpu.cycles)

    def test_run_off_function_end_faults(self, asm):
        h = asm("f:\n nop\n")
        with pytest.raises(InvalidJump):
            h.run("f")
