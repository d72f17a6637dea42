"""Byte-length model: the rewriter's layout math depends on these."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AssemblerError
from repro.isa.assembler import assemble_one
from repro.isa.encoding import encode, encoded_length, function_length
from repro.isa.instructions import Imm, Label, Mem, Reg, Sym, ins
from repro.machine.tls import CANARY_OFFSET, SHADOW_C0_OFFSET


class TestKnownLengths:
    def test_single_byte_instructions(self):
        for op in ("ret", "leave", "nop", "hlt"):
            assert encoded_length(ins(op)) == 1

    def test_push_pop_classic_registers(self):
        assert encoded_length(ins("push", Reg("rbp"))) == 1
        assert encoded_length(ins("pop", Reg("rdi"))) == 1

    def test_push_pop_extended_registers(self):
        assert encoded_length(ins("push", Reg("r12"))) == 2
        assert encoded_length(ins("pop", Reg("r13"))) == 2

    def test_call_rel32(self):
        assert encoded_length(ins("call", Sym("__stack_chk_fail"))) == 5

    def test_conditional_jump_rel8(self):
        assert encoded_length(ins("je", Label(".ok"))) == 2

    def test_xor_tls_is_nine_bytes(self):
        # Matches real x86-64: 64 48 33 14 25 <disp32> — the byte count the
        # epilogue-rewrite budget depends on.
        instruction = ins("xor", Reg("rdx"), Mem(seg="fs", disp=CANARY_OFFSET))
        assert encoded_length(instruction) == 9

    def test_tls_loads_same_length_for_both_offsets(self):
        # The rewriter swaps fs:0x28 → fs:0x2a8 in place; both must encode
        # identically for the prologue substitution to be layout-safe.
        load_canary = ins("mov", Reg("rax"), Mem(seg="fs", disp=CANARY_OFFSET))
        load_shadow = ins("mov", Reg("rax"), Mem(seg="fs", disp=SHADOW_C0_OFFSET))
        assert encoded_length(load_canary) == encoded_length(load_shadow)

    def test_rewrite_epilogue_budget(self):
        # Old window: xor(9) + je(2) + call(5) == new window:
        # push+push+pop+call+pop+je+call (1+1+1+5+1+2+5).
        old = [
            ins("xor", Reg("rdx"), Mem(seg="fs", disp=CANARY_OFFSET)),
            ins("je", Label(".ok")),
            ins("call", Sym("__stack_chk_fail")),
        ]
        new = [
            ins("push", Reg("rdi")),
            ins("push", Reg("rdx")),
            ins("pop", Reg("rdi")),
            ins("call", Sym("__stack_chk_fail")),
            ins("pop", Reg("rdi")),
            ins("je", Label(".ok")),
            ins("call", Sym("__stack_chk_fail")),
        ]
        assert function_length(new) == function_length(old)

    def test_disp8_shorter_than_disp32(self):
        near = encoded_length(ins("mov", Reg("rax"), Mem(base="rbp", disp=-8)))
        far = encoded_length(ins("mov", Reg("rax"), Mem(base="rbp", disp=-0x1000)))
        assert near < far

    def test_rdrand_and_rdtsc(self):
        assert encoded_length(ins("rdrand", Reg("rax"))) == 4
        assert encoded_length(ins("rdtsc")) == 2


class TestEncode:
    def test_encode_length_matches_model(self):
        function = assemble_one(
            "f:\n push rbp\n mov rbp, rsp\n mov rax, fs:[0x28]\n"
            " mov [rbp-8], rax\n leave\n ret\n"
        )
        for instruction in function.body:
            assert len(encode(instruction)) == encoded_length(instruction)

    def test_encode_deterministic(self):
        instruction = ins("mov", Reg("rax"), Imm(7))
        assert encode(instruction) == encode(instruction)

    def test_encode_content_sensitive(self):
        a = encode(ins("mov", Reg("rax"), Imm(7)))
        b = encode(ins("mov", Reg("rax"), Imm(8)))
        assert a != b

    def test_function_length_sums(self):
        body = [ins("nop"), ins("ret")]
        assert function_length(body) == 2



class TestUnencodableOperands:
    """r/m-only forms take a register or memory, never an immediate or
    symbol: the length model says so as a typed error naming the
    instruction, not an ``AttributeError`` from deep inside it."""

    def test_dec_immediate(self):
        with pytest.raises(AssemblerError, match=r"dec \$0"):
            encoded_length(ins("dec", Imm(0)))

    def test_pop_immediate(self):
        with pytest.raises(AssemblerError, match=r"pop \$1"):
            encoded_length(ins("pop", Imm(1)))

    def test_push_symbol(self):
        with pytest.raises(AssemblerError, match="push <win>"):
            encoded_length(ins("push", Sym("win")))


_SAFE_REGS = st.sampled_from(["rax", "rcx", "rdx", "rdi", "rsi", "r8", "r11"])


@settings(max_examples=60, deadline=None)
@given(
    op=st.sampled_from(["mov", "add", "sub", "xor", "and", "or", "cmp"]),
    dst=_SAFE_REGS,
    disp=st.integers(min_value=-4096, max_value=4096),
)
def test_every_two_operand_form_has_positive_length(op, dst, disp):
    for operands in (
        (Reg(dst), Imm(disp)),
        (Reg(dst), Mem(base="rbp", disp=disp)),
        (Mem(base="rbp", disp=disp), Reg(dst)),
    ):
        instruction = ins(op, *operands)
        assert encoded_length(instruction) >= 2
        assert len(encode(instruction)) == encoded_length(instruction)
