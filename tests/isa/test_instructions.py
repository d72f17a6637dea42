"""Instruction/operand model invariants."""

import pytest

from repro.isa.instructions import (
    REGS,
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


class TestInterning:
    """``emit`` and ``ins`` hand out one shared object per value."""

    SOURCE = "int main() { char buf[8]; buf[0] = 7; return buf[0]; }"

    def test_separately_compiled_programs_share_instructions(self):
        from repro.core.deploy import build

        first, second = (
            build(self.SOURCE, "pssp", name=name).function("main")
            for name in ("first", "second")
        )
        assert first is not second
        assert first.body == second.body
        assert all(a is b for a, b in zip(first.body, second.body))

    def test_emit_and_ins_share_one_object_per_value(self):
        function = Function("f")
        function.emit("mov", Reg("rax"), Mem(base="rbp", disp=-8), note="n")
        shared = ins("mov", Reg("rax"), Mem(base="rbp", disp=-8), note="n")
        assert function.body[0] is shared
        # Equal operands are interned across instructions too.
        lea = ins("lea", Reg("rcx"), Mem(base="rbp", disp=-8))
        assert lea.operands[1] is shared.operands[1]

    def test_a_different_note_is_a_different_object(self):
        plain = ins("xor", Reg("rax"), Reg("rax"))
        noted = ins("xor", Reg("rax"), Reg("rax"), note="ssp-prologue")
        assert plain is not noted and plain != noted

    def test_direct_construction_stays_an_equal_value(self):
        direct = Instruction("add", (Reg("rax"), Imm(1)))
        shared = ins("add", Reg("rax"), Imm(1))
        assert direct is not shared
        assert direct == shared and hash(direct) == hash(shared)

    def test_pickling_keeps_the_value_not_the_cached_hash(self):
        import pickle

        instruction = ins("push", Reg("rbp"), note="frame")
        hash(instruction)
        clone = pickle.loads(pickle.dumps(instruction))
        assert clone == instruction and "_hash" not in vars(clone)

    def test_register_table_holds_one_validated_reg_per_name(self):
        assert REGS["rax"] == Reg("rax") and REGS["xmm15"] == Reg("xmm15")
        assert "eax" not in REGS


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
