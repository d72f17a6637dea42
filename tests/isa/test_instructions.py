"""Instruction/operand model invariants."""

import pytest

from repro.isa.instructions import (
    Function,
    Imm,
    Instruction,
    Label,
    Mem,
    Reg,
    Sym,
    ins,
)


class TestOperands:
    def test_reg_validates_name(self):
        Reg("rax")
        Reg("xmm15")
        with pytest.raises(ValueError):
            Reg("eax")  # 32-bit aliases are not modelled

    def test_mem_str_frame_relative(self):
        assert str(Mem(base="rbp", disp=-8)) == "-0x8(%rbp)"

    def test_mem_str_tls(self):
        assert str(Mem(seg="fs", disp=0x28)) == "%fs:0x28"

    def test_mem_str_indexed(self):
        text = str(Mem(base="rcx", index="rdx", scale=8))
        assert "rcx" in text and "rdx" in text and "8" in text

    def test_imm_str(self):
        assert str(Imm(5)) == "$5"
        assert str(Imm(0x28)) == "$0x28"

    def test_sym_and_label_str(self):
        assert str(Sym("fork")) == "<fork>"
        assert str(Label(".out")) == ".out"


class TestInstruction:
    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError):
            Instruction("bogus")

    def test_att_style_printing_swaps_operands(self):
        instruction = ins("mov", Reg("rax"), Mem(seg="fs", disp=0x28))
        assert str(instruction) == "mov %fs:0x28,%rax"

    def test_no_operand_printing(self):
        assert str(ins("ret")) == "ret"

    def test_instructions_are_hashable_values(self):
        a = ins("xor", Reg("rax"), Reg("rax"))
        b = ins("xor", Reg("rax"), Reg("rax"))
        assert a == b
        assert hash(a) == hash(b)


class TestFunction:
    def test_emit_and_len(self):
        function = Function("f")
        function.emit("push", Reg("rbp"))
        function.emit("ret")
        assert len(function) == 2

    def test_label_here(self):
        function = Function("f")
        function.emit("nop")
        function.label_here(".after")
        assert function.labels[".after"] == 1

    def test_fresh_label_unique(self):
        function = Function("f")
        names = set()
        for _ in range(5):
            name = function.fresh_label("x")
            function.labels[name] = 0
            names.add(name)
        assert len(names) == 5

    def test_fresh_labels_taken_before_placement_do_not_collide(self):
        function = Function("f")
        first = function.fresh_label("x")
        second = function.fresh_label("x")
        assert first != second
        function.emit("nop")
        function.label_here(second)
        function.label_here(first)
        assert function.labels == {first: 1, second: 1}

    def test_emit_checks_the_mnemonic(self):
        function = Function("f")
        function.emit("mov", Reg("rax"), Imm(1), note="n")
        assert function.body == [ins("mov", Reg("rax"), Imm(1), note="n")]
        with pytest.raises(ValueError):
            function.emit("bogus")

    def test_copy_independent(self):
        function = Function("f")
        function.emit("nop")
        function.meta["key"] = 1
        clone = function.copy()
        clone.emit("ret")
        clone.meta["key"] = 2
        assert len(function) == 1
        assert function.meta["key"] == 1

    def test_disassemble_contains_labels(self):
        function = Function("f")
        function.emit("nop")
        function.label_here(".end")
        function.emit("ret")
        listing = function.disassemble()
        assert "f:" in listing and ".end:" in listing and "ret" in listing
