"""MiniC code generation.

A deliberately simple one-pass code generator: expression values travel in
``rax``, temporaries ride the hardware stack (``push``/``pop``), locals
live at fixed ``rbp``-relative slots assigned by the protection pass's
frame plan.  Simplicity keeps the generated code *predictable*, which is
what the binary rewriter's pattern matcher and the cycle-accounting
experiments need.

Function shape::

    push rbp
    mov rbp, rsp
    sub rsp, <frame>
    <parameter spills>
    <protection-pass prologue>       ; canary setup
    <body>
    xor rax, rax                     ; implicit return 0
  .Lret:
    <protection-pass epilogue check> ; canary verification
    leave
    ret

``return`` statements evaluate into ``rax`` and jump to ``.Lret`` so the
canary check guards *every* exit, as the paper's pass does by inserting
the epilogue "right before each ret instruction".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..binfmt.elf import DYNAMIC, Binary
from ..errors import CompileError
from ..isa.instructions import REGS, Function, Imm, Label, Mem, Sym
from ..isa.registers import ARG_REGS
from . import ast_nodes as ast
from .parser import parse
from .passes.base import FramePlan, ProtectionPass
from .passes.manager import get_pass

_RETURN_LABEL = ".Lret"


class _FunctionEmitter:
    """Emits one function."""

    def __init__(
        self,
        decl: ast.FunctionDecl,
        protection: ProtectionPass,
        program: ast.Program,
        rodata: Dict[str, bytes],
    ) -> None:
        self.decl = decl
        self.protection = protection
        self.program = program
        self.rodata = rodata
        self.plan: FramePlan = protection.plan_frame(decl)
        self.function = Function(decl.name)
        self.function.has_buffer = decl.has_buffer()
        self.function.frame_size = self.plan.frame_size
        if self.plan.protected:
            self.function.protected = protection.name
        self.function.meta = {
            "canary_slots": list(self.plan.canary_slots),
            "buffers": {
                name: (var.offset, var.ctype.size)
                for name, var in self.plan.vars.items()
                if var.ctype.is_array
            },
            "owf_nonce_offset": self.plan.owf_nonce_offset,
            "owf_cipher_offset": self.plan.owf_cipher_offset,
        }
        #: (break_label, continue_label) stack for loops.
        self._loops: List[Tuple[str, str]] = []
        self._string_counter = len(rodata)

    # -- helpers ------------------------------------------------------------

    def _var(self, name: str):
        try:
            return self.plan.var(name)
        except KeyError:
            raise CompileError(
                f"{self.decl.name}: undeclared variable {name!r}"
            ) from None

    def _intern_string(self, text: str) -> str:
        blob = text.encode("utf-8") + b"\x00"
        for symbol, existing in self.rodata.items():
            if existing == blob:
                return symbol
        symbol = f"str_lit_{len(self.rodata)}"
        self.rodata[symbol] = blob
        return symbol

    # -- top level -----------------------------------------------------------

    def emit_function(self) -> Function:
        self.function.emit("push", REGS["rbp"], note="frame")
        self.function.emit("mov", REGS["rbp"], REGS["rsp"], note="frame")
        if self.plan.frame_size:
            self.function.emit("sub", REGS["rsp"], Imm(self.plan.frame_size), note="frame")
        for param, register in zip(self.decl.params, ARG_REGS):
            slot = self.plan.var(param.name)
            self.function.emit("mov", Mem(base="rbp", disp=-slot.offset), REGS[register],
                               note="spill")
        self.protection.emit_prologue(self.function, self.plan)
        for statement in self.decl.body:
            self.gen_statement(statement)
        self.function.emit("xor", REGS["rax"], REGS["rax"], note="implicit-return")
        self.function.label_here(_RETURN_LABEL)
        self.protection.emit_epilogue_check(self.function, self.plan)
        self.function.emit("leave", note="frame")
        self.function.emit("ret", note="frame")
        return self.function

    # -- statements -----------------------------------------------------------

    def gen_statement(self, statement: ast.Stmt) -> None:
        if isinstance(statement, ast.Declaration):
            if statement.init is not None:
                target = ast.VarRef(line=statement.line, name=statement.name)
                self.gen_value(
                    ast.Assign(line=statement.line, target=target,
                               value=statement.init)
                )
            return
        if isinstance(statement, ast.ExprStmt):
            self.gen_value(statement.expr)
            return
        if isinstance(statement, ast.Return):
            if statement.value is not None:
                self.gen_value(statement.value)
            else:
                self.function.emit("xor", REGS["rax"], REGS["rax"])
            self.function.emit("jmp", Label(_RETURN_LABEL))
            return
        if isinstance(statement, ast.If):
            self.gen_if(statement)
            return
        if isinstance(statement, ast.While):
            self.gen_while(statement)
            return
        if isinstance(statement, ast.For):
            self.gen_for(statement)
            return
        if isinstance(statement, ast.Break):
            if not self._loops:
                raise CompileError("break outside a loop", statement.line)
            self.function.emit("jmp", Label(self._loops[-1][0]))
            return
        if isinstance(statement, ast.Continue):
            if not self._loops:
                raise CompileError("continue outside a loop", statement.line)
            self.function.emit("jmp", Label(self._loops[-1][1]))
            return
        raise CompileError(f"cannot generate statement {statement!r}", statement.line)

    def gen_if(self, statement: ast.If) -> None:
        else_label = self.function.fresh_label("else")
        end_label = self.function.fresh_label("endif")
        self.gen_value(statement.cond)
        self.function.emit("test", REGS["rax"], REGS["rax"])
        self.function.emit("je", Label(else_label))
        for inner in statement.then:
            self.gen_statement(inner)
        self.function.emit("jmp", Label(end_label))
        self.function.label_here(else_label)
        for inner in statement.otherwise:
            self.gen_statement(inner)
        self.function.label_here(end_label)

    def gen_while(self, statement: ast.While) -> None:
        head = self.function.fresh_label("while")
        end = self.function.fresh_label("wend")
        self.function.label_here(head)
        self.gen_value(statement.cond)
        self.function.emit("test", REGS["rax"], REGS["rax"])
        self.function.emit("je", Label(end))
        self._loops.append((end, head))
        for inner in statement.body:
            self.gen_statement(inner)
        self._loops.pop()
        self.function.emit("jmp", Label(head))
        self.function.label_here(end)

    def gen_for(self, statement: ast.For) -> None:
        head = self.function.fresh_label("for")
        step_label = self.function.fresh_label("fstep")
        end = self.function.fresh_label("fend")
        if statement.init is not None:
            self.gen_statement(statement.init)
        self.function.label_here(head)
        if statement.cond is not None:
            self.gen_value(statement.cond)
            self.function.emit("test", REGS["rax"], REGS["rax"])
            self.function.emit("je", Label(end))
        self._loops.append((end, step_label))
        for inner in statement.body:
            self.gen_statement(inner)
        self._loops.pop()
        self.function.label_here(step_label)
        if statement.step is not None:
            self.gen_value(statement.step)
        self.function.emit("jmp", Label(head))
        self.function.label_here(end)

    # -- lvalues -----------------------------------------------------------------

    def gen_address(self, expr: ast.Expr) -> ast.Type:
        """Emit code leaving an object's address in rax; return its type."""
        if isinstance(expr, ast.VarRef):
            var = self._var(expr.name)
            self.function.emit("lea", REGS["rax"], Mem(base="rbp", disp=-var.offset))
            return var.ctype
        if isinstance(expr, ast.Index):
            element = self._gen_index_address(expr)
            return element
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointee_holder = self.gen_value(expr.operand)
            if not (pointee_holder.is_pointer or pointee_holder.is_array):
                raise CompileError("dereference of a non-pointer", expr.line)
            return pointee_holder.decay().element()
        raise CompileError("expression is not assignable", expr.line)

    def _gen_index_address(self, expr: ast.Index) -> ast.Type:
        base_type = self.gen_value(expr.array)
        if not (base_type.is_pointer or base_type.is_array):
            raise CompileError("subscript of a non-array", expr.line)
        element = base_type.decay().element()
        self.function.emit("push", REGS["rax"])
        self.gen_value(expr.index)
        self.function.emit("mov", REGS["rcx"], REGS["rax"])
        self.function.emit("pop", REGS["rax"])
        if element.size == 8:
            self.function.emit("shl", REGS["rcx"], Imm(3))
        elif element.size != 1:
            self.function.emit("imul", REGS["rcx"], Imm(element.size))
        self.function.emit("add", REGS["rax"], REGS["rcx"])
        return element

    def _load(self, ctype: ast.Type) -> None:
        """Load from the address in rax, honoring the access width."""
        if ctype.access_width == 1:
            self.function.emit("movzxb", REGS["rax"], Mem(base="rax"))
        else:
            self.function.emit("mov", REGS["rax"], Mem(base="rax"))

    # -- rvalues -----------------------------------------------------------------

    def gen_value(self, expr: ast.Expr) -> ast.Type:
        """Emit code leaving the expression value in rax; return its type."""
        if isinstance(expr, ast.IntLiteral):
            self.function.emit("mov", REGS["rax"], Imm(expr.value))
            return ast.INT
        if isinstance(expr, ast.StringLiteral):
            symbol = self._intern_string(expr.value)
            self.function.emit("lea", REGS["rax"], Sym(symbol))
            return ast.Type("char", 1)
        if isinstance(expr, ast.VarRef):
            if expr.name not in self.plan.vars:
                # Not a local: a reference to another function in this
                # translation unit yields its address (function pointers
                # for pthread_create and friends); anything else is a
                # genuine undeclared identifier.
                if any(f.name == expr.name for f in self.program.functions):
                    self.function.emit("lea", REGS["rax"], Sym(expr.name))
                    return ast.Type("void", 1)
            var = self._var(expr.name)
            if var.ctype.is_array:
                self.function.emit("lea", REGS["rax"], Mem(base="rbp", disp=-var.offset))
                return var.ctype.decay()
            if var.ctype.access_width == 1:
                self.function.emit("movzxb", REGS["rax"], Mem(base="rbp", disp=-var.offset))
            else:
                self.function.emit("mov", REGS["rax"], Mem(base="rbp", disp=-var.offset))
            return var.ctype
        if isinstance(expr, ast.Unary):
            return self.gen_unary(expr)
        if isinstance(expr, ast.Binary):
            return self.gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self.gen_assign(expr)
        if isinstance(expr, ast.Index):
            element = self._gen_index_address(expr)
            if element.is_array:
                return element.decay()
            self._load(element)
            return element
        if isinstance(expr, ast.Call):
            return self.gen_call(expr)
        raise CompileError(f"cannot generate expression {expr!r}", expr.line)

    def gen_unary(self, expr: ast.Unary) -> ast.Type:
        if expr.op == "&":
            ctype = self.gen_address(expr.operand)
            return ctype.decay() if ctype.is_array else ast.Type(
                ctype.base, ctype.pointer + 1
            )
        if expr.op == "*":
            base_type = self.gen_value(expr.operand)
            if not (base_type.is_pointer or base_type.is_array):
                raise CompileError("dereference of a non-pointer", expr.line)
            element = base_type.decay().element()
            self._load(element)
            return element
        if expr.op == "-":
            self.gen_value(expr.operand)
            self.function.emit("neg", REGS["rax"])
            return ast.INT
        if expr.op == "~":
            self.gen_value(expr.operand)
            self.function.emit("not", REGS["rax"])
            return ast.INT
        if expr.op == "!":
            self.gen_value(expr.operand)
            true_label = self.function.fresh_label("not")
            self.function.emit("test", REGS["rax"], REGS["rax"])
            self.function.emit("mov", REGS["rax"], Imm(1))
            self.function.emit("je", Label(true_label))
            self.function.emit("mov", REGS["rax"], Imm(0))
            self.function.label_here(true_label)
            return ast.INT
        raise CompileError(f"unknown unary operator {expr.op!r}", expr.line)

    _COMPARISONS = {"==": "je", "!=": "jne", "<": "jl", "<=": "jle",
                    ">": "jg", ">=": "jge"}

    def gen_binary(self, expr: ast.Binary) -> ast.Type:
        if expr.op in ("&&", "||"):
            return self._gen_logical(expr)
        left_type = self.gen_value(expr.left)
        self.function.emit("push", REGS["rax"])
        right_type = self.gen_value(expr.right)
        self.function.emit("mov", REGS["rcx"], REGS["rax"])
        self.function.emit("pop", REGS["rax"])

        if expr.op in self._COMPARISONS:
            done = self.function.fresh_label("cmp")
            self.function.emit("cmp", REGS["rax"], REGS["rcx"])
            self.function.emit("mov", REGS["rax"], Imm(1))
            self.function.emit(self._COMPARISONS[expr.op], Label(done))
            self.function.emit("mov", REGS["rax"], Imm(0))
            self.function.label_here(done)
            return ast.INT

        pointerish = left_type.is_pointer or left_type.is_array
        right_pointerish = right_type.is_pointer or right_type.is_array
        if expr.op == "-" and pointerish and right_pointerish:
            # Pointer difference: byte delta divided by the element size.
            element = left_type.decay().element()
            self.function.emit("sub", REGS["rax"], REGS["rcx"])
            if element.size == 8:
                self.function.emit("sar", REGS["rax"], Imm(3))
            elif element.size != 1:
                self.function.emit("mov", REGS["rcx"], Imm(element.size))
                self.function.emit("idiv", REGS["rcx"])
            return ast.INT
        if expr.op in ("+", "-") and pointerish:
            element = left_type.decay().element()
            if element.size == 8:
                self.function.emit("shl", REGS["rcx"], Imm(3))
            elif element.size != 1:
                self.function.emit("imul", REGS["rcx"], Imm(element.size))
            self.function.emit("add" if expr.op == "+" else "sub", REGS["rax"], REGS["rcx"])
            return left_type.decay()

        simple = {"+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor",
                  "<<": "shl", ">>": "shr", "*": "imul"}
        if expr.op in simple:
            self.function.emit(simple[expr.op], REGS["rax"], REGS["rcx"])
            return ast.INT
        if expr.op in ("/", "%"):
            self.function.emit("idiv", REGS["rcx"])
            if expr.op == "%":
                self.function.emit("mov", REGS["rax"], REGS["rdx"])
            return ast.INT
        raise CompileError(f"unknown binary operator {expr.op!r}", expr.line)

    def _gen_logical(self, expr: ast.Binary) -> ast.Type:
        false_label = self.function.fresh_label("sc_false")
        true_label = self.function.fresh_label("sc_true")
        end_label = self.function.fresh_label("sc_end")
        if expr.op == "&&":
            self.gen_value(expr.left)
            self.function.emit("test", REGS["rax"], REGS["rax"])
            self.function.emit("je", Label(false_label))
            self.gen_value(expr.right)
            self.function.emit("test", REGS["rax"], REGS["rax"])
            self.function.emit("je", Label(false_label))
            self.function.emit("mov", REGS["rax"], Imm(1))
            self.function.emit("jmp", Label(end_label))
            self.function.label_here(false_label)
            self.function.emit("mov", REGS["rax"], Imm(0))
            self.function.label_here(end_label)
            self.function.label_here(true_label)  # unused but keeps labels defined
            return ast.INT
        self.gen_value(expr.left)
        self.function.emit("test", REGS["rax"], REGS["rax"])
        self.function.emit("jne", Label(true_label))
        self.gen_value(expr.right)
        self.function.emit("test", REGS["rax"], REGS["rax"])
        self.function.emit("jne", Label(true_label))
        self.function.emit("mov", REGS["rax"], Imm(0))
        self.function.emit("jmp", Label(end_label))
        self.function.label_here(true_label)
        self.function.emit("mov", REGS["rax"], Imm(1))
        self.function.label_here(end_label)
        self.function.label_here(false_label)
        return ast.INT

    def gen_assign(self, expr: ast.Assign) -> ast.Type:
        target_type = self.gen_address(expr.target)
        self.function.emit("push", REGS["rax"])
        self.gen_value(expr.value)
        self.function.emit("pop", REGS["rcx"])
        if target_type.access_width == 1:
            self.function.emit("movb", Mem(base="rcx"), REGS["rax"])
        else:
            self.function.emit("mov", Mem(base="rcx"), REGS["rax"])
        return target_type

    def gen_call(self, expr: ast.Call) -> ast.Type:
        if len(expr.args) > len(ARG_REGS):
            raise CompileError(
                f"call to {expr.name}: more than {len(ARG_REGS)} arguments",
                expr.line,
            )
        for argument in expr.args:
            self.gen_value(argument)
            self.function.emit("push", REGS["rax"])
        for register in reversed(ARG_REGS[: len(expr.args)]):
            self.function.emit("pop", REGS[register])
        self.function.emit("call", Sym(expr.name))
        self.protection.post_call_check(self.function, self.plan, expr.name)
        return ast.INT


def compile_program(
    program: ast.Program,
    *,
    protection: "str | ProtectionPass | None" = "ssp",
    name: str = "a.out",
    link_type: str = DYNAMIC,
    entry: str = "main",
    optimize: bool = False,
) -> Binary:
    """Compile a parsed program into a :class:`Binary`.

    ``optimize`` enables constant folding and the flag-safe peephole
    (``repro.compiler.optimizer``).  Off by default so measured numbers
    correspond to the straightforward -O0-style code the experiments are
    calibrated on.
    """
    protection_pass = get_pass(protection)
    if optimize:
        from .optimizer import fold_program

        program = fold_program(program)
    binary = Binary(name, entry=entry, link_type=link_type,
                    protection=protection_pass.name)
    rodata: Dict[str, bytes] = {}
    for decl in program.functions:
        emitter = _FunctionEmitter(decl, protection_pass, program, rodata)
        function = emitter.emit_function()
        if optimize:
            from .optimizer import peephole

            function = peephole(function)
        binary.add_function(function)
    binary.rodata.update(rodata)
    return binary


def compile_source(
    source: str,
    *,
    protection: "str | ProtectionPass | None" = "ssp",
    name: str = "a.out",
    link_type: str = DYNAMIC,
    entry: str = "main",
    optimize: bool = False,
) -> Binary:
    """Compile MiniC source text into a :class:`Binary`.

    ``protection`` selects the registered pass by name (``"ssp"``,
    ``"pssp"``, ``"pssp-nt"``, ``"pssp-lv"``, ``"pssp-owf"``,
    ``"pssp-gb"``, ``"dynaguard"``, ``"dcr"``) or ``None`` for an
    unprotected build.
    """
    return compile_program(
        parse(source), protection=protection, name=name,
        link_type=link_type, entry=entry, optimize=optimize,
    )
