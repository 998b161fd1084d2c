"""Machine-readable operand roles: the def/use sets of every opcode.

Until now the def/use behaviour of the instruction set lived implicitly
in the interpreter's handlers (:mod:`repro.cpu.core`) and, duplicated,
in the block engine's code emitter — fine for execution, useless for
analysis.  The static vulnerability analysis (:mod:`repro.staticlint`)
needs to know, per instruction, which registers are *defined* (written)
and which are *used* (read), including the implicit ones the assembly
syntax never shows:

* ``BL``/``BLR`` write the ABI link register (``BLR`` reads its target
  from ``rn`` *before* the write, so ``blr lr`` is well defined);
* ``RET`` reads the link register;
* ``CMP``/``CMPI``/``FCMP`` define all four NZCV flags; ``TST`` defines
  N and Z but *preserves* C and V (so C/V stay live across it);
* ``BCC``/``CSET`` read the flag subset their condition tests;
* ``SVC`` hands the ABI argument registers to the kernel and receives
  the result in the ABI return register;
* stores read their ``rd`` field (it is the *source* operand);
* the FP↔GPR movement opcodes (``FMOVRG``/``FMOVGR``/``SCVTF``/
  ``FCVTZS``) and FP memory ops mix the two register files.

This table is the single authority; a differential test executes every
opcode against the reference interpreter through recording register
files and asserts the observed reads/writes match the declared roles.

Role tokens name instruction fields (``"rd"``/``"rn"``/``"rm"``; a
``None`` field resolves to nothing, so one entry covers both addressing
modes of the memory ops) or ABI registers (``"lr"``, ``"ret"``,
``"args"``), resolved per architecture by :func:`gpr_defs` and friends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Set, Tuple

from repro.errors import SimulatorError
from repro.isa.arch import Abi
from repro.isa.instructions import Cond, Instr, Op

#: Role tokens naming instruction fields.
RD, RN, RM = "rd", "rn", "rm"
#: Role tokens naming ABI registers (resolved against an :class:`Abi`).
LR, RET_REG, ARG_REGS = "lr", "ret", "args"

_FIELD_TOKENS = (RD, RN, RM)
_ABI_TOKENS = (LR, RET_REG, ARG_REGS)

FLAG_N, FLAG_Z, FLAG_C, FLAG_V = "N", "Z", "C", "V"
ALL_FLAGS: FrozenSet[str] = frozenset((FLAG_N, FLAG_Z, FLAG_C, FLAG_V))

#: Flags each condition code reads (mirrors ``_COND_EXPRS`` in
#: :mod:`repro.cpu.engine`: EQ/NE test Z, LT/GE test N^V, GT/LE test
#: Z and N^V, LO/HS test C, MI/PL test N, AL tests nothing).
COND_FLAG_USES: dict[Cond, FrozenSet[str]] = {
    Cond.EQ: frozenset((FLAG_Z,)),
    Cond.NE: frozenset((FLAG_Z,)),
    Cond.LT: frozenset((FLAG_N, FLAG_V)),
    Cond.GE: frozenset((FLAG_N, FLAG_V)),
    Cond.GT: frozenset((FLAG_N, FLAG_Z, FLAG_V)),
    Cond.LE: frozenset((FLAG_N, FLAG_Z, FLAG_V)),
    Cond.LO: frozenset((FLAG_C,)),
    Cond.HS: frozenset((FLAG_C,)),
    Cond.MI: frozenset((FLAG_N,)),
    Cond.PL: frozenset((FLAG_N,)),
    Cond.AL: frozenset(),
}


@dataclass(frozen=True)
class OpRoles:
    """Def/use roles of one opcode.

    ``gpr_*``/``fpr_*`` are role tokens; ``flag_defs``/``flag_uses``
    are NZCV letters.  ``uses_cond_flags`` marks opcodes whose flag
    uses depend on the instruction's ``cond`` field (``BCC``/``CSET``)
    — resolve them with :func:`flag_uses`, not from this record alone.
    """

    gpr_defs: Tuple[str, ...] = ()
    gpr_uses: Tuple[str, ...] = ()
    fpr_defs: Tuple[str, ...] = ()
    fpr_uses: Tuple[str, ...] = ()
    flag_defs: FrozenSet[str] = frozenset()
    flag_uses: FrozenSet[str] = frozenset()
    uses_cond_flags: bool = False
    reads_memory: bool = False
    writes_memory: bool = False
    is_call: bool = False
    is_return: bool = False


_INT_RR = OpRoles(gpr_defs=(RD,), gpr_uses=(RN, RM))
_INT_RI = OpRoles(gpr_defs=(RD,), gpr_uses=(RN,))
_FP_RR = OpRoles(fpr_defs=(RD,), fpr_uses=(RN, RM))
_FP_R = OpRoles(fpr_defs=(RD,), fpr_uses=(RN,))

#: The def/use table itself: every opcode of the ISA has exactly one
#: entry (a structural test asserts full coverage against ``Op``).
OPERAND_ROLES: dict[Op, OpRoles] = {
    # integer register-register
    Op.ADD: _INT_RR,
    Op.SUB: _INT_RR,
    Op.RSB: _INT_RR,
    Op.MUL: _INT_RR,
    Op.MULHU: _INT_RR,
    Op.UDIV: _INT_RR,
    Op.SDIV: _INT_RR,
    Op.AND: _INT_RR,
    Op.ORR: _INT_RR,
    Op.EOR: _INT_RR,
    Op.BIC: _INT_RR,
    Op.LSL: _INT_RR,
    Op.LSR: _INT_RR,
    Op.ASR: _INT_RR,
    # integer register-immediate
    Op.ADDI: _INT_RI,
    Op.SUBI: _INT_RI,
    Op.ANDI: _INT_RI,
    Op.ORRI: _INT_RI,
    Op.EORI: _INT_RI,
    Op.LSLI: _INT_RI,
    Op.LSRI: _INT_RI,
    Op.ASRI: _INT_RI,
    Op.MULI: _INT_RI,
    # moves and compares
    Op.MOV: _INT_RI,
    Op.MOVI: OpRoles(gpr_defs=(RD,)),
    Op.MVN: _INT_RI,
    Op.CMP: OpRoles(gpr_uses=(RN, RM), flag_defs=ALL_FLAGS),
    Op.CMPI: OpRoles(gpr_uses=(RN,), flag_defs=ALL_FLAGS),
    # TST writes N/Z from the AND result but re-installs the *old* C/V,
    # so C and V are upstream dependencies, not definitions.
    Op.TST: OpRoles(
        gpr_uses=(RN, RM),
        flag_defs=frozenset((FLAG_N, FLAG_Z)),
        flag_uses=frozenset((FLAG_C, FLAG_V)),
    ),
    Op.CSET: OpRoles(gpr_defs=(RD,), uses_cond_flags=True),
    # memory (rm is None in immediate-offset form and resolves to nothing)
    Op.LDR: OpRoles(gpr_defs=(RD,), gpr_uses=(RN, RM), reads_memory=True),
    Op.STR: OpRoles(gpr_uses=(RD, RN, RM), writes_memory=True),
    Op.LDRB: OpRoles(gpr_defs=(RD,), gpr_uses=(RN, RM), reads_memory=True),
    Op.STRB: OpRoles(gpr_uses=(RD, RN, RM), writes_memory=True),
    # control flow
    Op.B: OpRoles(),
    Op.BCC: OpRoles(uses_cond_flags=True),
    Op.CBZ: OpRoles(gpr_uses=(RN,)),
    Op.CBNZ: OpRoles(gpr_uses=(RN,)),
    Op.BL: OpRoles(gpr_defs=(LR,), is_call=True),
    Op.BLR: OpRoles(gpr_defs=(LR,), gpr_uses=(RN,), is_call=True),
    Op.RET: OpRoles(gpr_uses=(LR,), is_return=True),
    # hardware floating point
    Op.FADD: _FP_RR,
    Op.FSUB: _FP_RR,
    Op.FMUL: _FP_RR,
    Op.FDIV: _FP_RR,
    Op.FMIN: _FP_RR,
    Op.FMAX: _FP_RR,
    Op.FSQRT: _FP_R,
    Op.FNEG: _FP_R,
    Op.FABS: _FP_R,
    Op.FCMP: OpRoles(fpr_uses=(RN, RM), flag_defs=ALL_FLAGS),
    Op.FMOV: _FP_R,
    Op.FMOVI: OpRoles(fpr_defs=(RD,)),
    Op.FLDR: OpRoles(fpr_defs=(RD,), gpr_uses=(RN, RM), reads_memory=True),
    Op.FSTR: OpRoles(fpr_uses=(RD,), gpr_uses=(RN, RM), writes_memory=True),
    Op.SCVTF: OpRoles(fpr_defs=(RD,), gpr_uses=(RN,)),
    Op.FCVTZS: OpRoles(gpr_defs=(RD,), fpr_uses=(RN,)),
    Op.FMOVRG: OpRoles(fpr_defs=(RD,), gpr_uses=(RN,)),
    Op.FMOVGR: OpRoles(gpr_defs=(RD,), fpr_uses=(RN,)),
    # system: SVC's interface contract with the kernel is "arguments in
    # the ABI argument registers, result in the ABI return register"
    # (see repro.kernel.syscalls) — a conservative summary, since a
    # given syscall may read fewer registers.
    Op.SVC: OpRoles(gpr_uses=(ARG_REGS,), gpr_defs=(RET_REG,)),
    Op.NOP: OpRoles(),
    Op.HALT: OpRoles(),
    Op.WFI: OpRoles(),
}


def roles_of(op: Op) -> OpRoles:
    """The :class:`OpRoles` record for one opcode (raises on unknown)."""
    try:
        return OPERAND_ROLES[op]
    except KeyError:
        raise SimulatorError(f"opcode {op!r} has no operand-role entry") from None


def _resolve(tokens: Iterable[str], instr: Instr, abi: Abi) -> Set[int]:
    """Resolve role tokens into concrete register indices."""
    out: Set[int] = set()
    for token in tokens:
        if token in _FIELD_TOKENS:
            value: Optional[int] = getattr(instr, token)
            if value is not None:
                out.add(value)
        elif token == LR:
            out.add(abi.lr)
        elif token == RET_REG:
            out.add(abi.ret_reg)
        elif token == ARG_REGS:
            out.update(abi.arg_regs)
        else:  # pragma: no cover - table construction error
            raise SimulatorError(f"unknown operand-role token {token!r}")
    return out


def gpr_defs(instr: Instr, abi: Abi) -> Set[int]:
    """Integer registers the instruction writes."""
    return _resolve(roles_of(instr.op).gpr_defs, instr, abi)


def gpr_uses(instr: Instr, abi: Abi) -> Set[int]:
    """Integer registers the instruction reads."""
    return _resolve(roles_of(instr.op).gpr_uses, instr, abi)


def fpr_defs(instr: Instr, abi: Abi) -> Set[int]:
    """Floating point registers the instruction writes."""
    return _resolve(roles_of(instr.op).fpr_defs, instr, abi)


def fpr_uses(instr: Instr, abi: Abi) -> Set[int]:
    """Floating point registers the instruction reads."""
    return _resolve(roles_of(instr.op).fpr_uses, instr, abi)


def flag_defs(instr: Instr) -> FrozenSet[str]:
    """NZCV flags the instruction (re)defines."""
    return roles_of(instr.op).flag_defs


def flag_uses(instr: Instr) -> FrozenSet[str]:
    """NZCV flags the instruction reads (condition-dependent for BCC/CSET)."""
    roles = roles_of(instr.op)
    if roles.uses_cond_flags:
        if instr.cond is None:
            return frozenset()
        return COND_FLAG_USES[Cond(instr.cond)]
    return roles.flag_uses
