"""Pre-decoded basic-block execution engine: the simulator's fast path.

The reference interpreter (:meth:`repro.cpu.core.Core.step`) pays an
opcode-table dispatch, two bounds checks and a dozen attribute lookups
for every guest instruction.  At campaign scale (millions of
injections, each replaying tens of thousands of instructions) that
overhead is the binding constraint on how much of the scenario matrix
fits in a compute budget.

This module removes it without changing a single architecturally
visible bit.  Instruction semantics live in exactly two places: the
interpreter's handlers and the code emitter :func:`_emit_instr`.
Decoded blocks run on one of two tiers, compiled or interpreter:

Superblocks
    Straight-line runs (ending at a branch, ``SVC`` or ``HALT`` — see
    :data:`repro.isa.instructions.BLOCK_TERMINATOR_OPS`) become blocks
    that execute as a unit: PC alignment/bounds checks and the
    thread/halt checks happen once per block.  A block entry exists for
    *every* instruction index (the suffix of its run), so branching into
    the middle of a run — or resuming a paused simulation there — costs
    nothing.  Decode records only each instruction's static
    class-statistics counters.

Compiled tier
    A block that reaches :data:`_COMPILE_THRESHOLD` executions is fused
    into one generated Python function running the whole block as
    straight-line code (:func:`_compile_block`).  Its
    ``cycles``/``instructions``/instruction-class counters accumulate in
    burst-local integers flushed once per burst.

Interpreter tier
    Cold blocks (below the threshold) and blocks the emitter cannot
    compile (undefined opcodes, invalid condition codes) run through
    ``core.step()`` once per instruction.  The interpreter keeps exact
    PC and live statistics at every raise point by construction.

Prefix blocks
    An execution budget that ends inside a block runs that block's
    *prefix* of the remaining length, so ``stop_at_instruction`` pauses
    at the exact boundary (schedule-neutral resume for checkpoints and
    the fault injector).  Prefixes are :class:`Block` objects cached per
    :class:`DecodedText`, keyed by ``(start, length)``; they go through
    the same threshold and the same compiler.  Quantum and breakpoint
    boundaries repeat, so almost every prefix execution is compiled.

Cache modelling
    With ``model_caches`` hot blocks compile I-side accounting per
    *I-cache line*: the first instruction on each line performs the real
    ``l1i.access`` inline and the rest of the line's fetches are provably
    pure hits batched as one counter delta per burst (see
    :func:`_compile_block`).  D-side accounting is emitted inline in
    program order, so the shared L2 observes the exact interleaving of
    instruction and data misses the interpreter produces.

Determinism contracts
    The engine is bit-exact against the interpreter at every instruction
    boundary:

    * every generated statement that can raise (memory operations,
      syscalls) is preceded by a store of its statically known next PC,
      so a fault raised anywhere mid-block leaves the interpreter's PC
      and — after :func:`_account_fault` replays the completed prefix's
      counter deltas — the interpreter's statistics;
    * a block whose last op is not a terminator (a prefix, or a run that
      falls off the end of the text) ends with an explicit PC store;
    * a per-instruction ``trace_hook`` (the functional profiler) forces
      the interpreter path entirely;
    * decode specializes only on the *instruction encodings* (and the
      ``model_caches`` flag), never on register or memory values, so
      register-file and memory fault injection cannot invalidate a
      decoded block.  Mutating the text itself must be announced via
      :func:`invalidate_text` (or ``Core.invalidate_decode`` for the
      per-core reference).

Decoded text is cached per ``(text identity, text base, arch,
model_caches, icache geometry)`` — compiled programs are shared across
systems by the ``build_program`` LRU cache, so a whole campaign decodes
and compiles each program once.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cpu import alu, fpu
from repro.errors import AlignmentFault, InstructionFault, SimulatorError
from repro.isa.instructions import BLOCK_TERMINATOR_OPS, Op

__all__ = [
    "COND_FUNCS",
    "DecodedText",
    "decode_text",
    "execute_burst",
    "invalidate_text",
]


# ---------------------------------------------------------------------------
# condition evaluation (indexed by Cond value; shared with the interpreter)
# ---------------------------------------------------------------------------

#: condition-code expressions over the live flags, indexed by Cond value
_COND_EXPRS = (
    "core.flag_z",
    "not core.flag_z",
    "core.flag_n != core.flag_v",
    "core.flag_n == core.flag_v",
    "(not core.flag_z) and core.flag_n == core.flag_v",
    "core.flag_z or core.flag_n != core.flag_v",
    "not core.flag_c",
    "core.flag_c",
    "core.flag_n",
    "not core.flag_n",
    "True",
)

#: ``COND_FUNCS[Cond.X]`` evaluates condition X against a core's flags
#: (built from the same expressions the code emitter inlines).
COND_FUNCS = tuple(eval(f"lambda core: {expr}", {"__builtins__": {}}) for expr in _COND_EXPRS)


# ---------------------------------------------------------------------------
# decoded representation
# ---------------------------------------------------------------------------

#: ``Block.hits`` of a block the emitter cannot compile: it never reaches
#: the threshold again and stays on the interpreter tier.
_UNCOMPILABLE = -1 << 40


class Block:
    """A straight-line run of ``length`` instructions starting at ``start``.

    Either the suffix of a superblock run (``DecodedText.entries``) or a
    budget-limited prefix of one (``DecodedText.prefixes``).
    ``instr_items`` holds each instruction's static class-statistics
    deltas as ``(STAT_FIELDS index, delta)`` pairs, so a fault raised
    mid-block can replay the completed prefix exactly; ``items`` is
    their sum, applied as one batched delta after a compiled run, while
    ``cycles`` and ``instructions`` advance by ``length``.  ``recheck``
    marks blocks after which the driver must re-test the thread/halt
    state (the terminator was SVC or HALT).  ``hits`` counts executions
    on the interpreter tier until ``compiled`` — the fused function —
    is built at :data:`_COMPILE_THRESHOLD` (``_UNCOMPILABLE`` when the
    emitter refused the block).

    Cache-modelling decode additionally splits the block's instruction
    fetches into *leaders* and *repeats* (see the I-side batching notes
    in :func:`_compile_block`): ``repeat_prefix[k]`` counts the repeat
    fetches among instructions ``0..k`` of the block, ``i_repeats`` is
    the block total, ``i_repeat_cycles`` its latency contribution
    (``i_repeats * i_hit``) and ``i_hit`` the L1i hit latency the
    repeats were compiled against.
    """

    __slots__ = (
        "start",
        "length",
        "items",
        "instr_items",
        "recheck",
        "hits",
        "compiled",
        "repeat_prefix",
        "i_repeats",
        "i_repeat_cycles",
        "i_hit",
    )

    def __init__(self, start, instr_items, recheck, repeat_prefix=None, i_hit=0):
        self.start = start
        self.length = len(instr_items)
        self.instr_items = instr_items
        totals: dict[int, int] = {}
        for items in instr_items:
            for index, delta in items:
                totals[index] = totals.get(index, 0) + delta
        self.items = tuple(sorted(totals.items()))
        self.recheck = recheck
        self.hits = 0
        self.compiled = None
        self.repeat_prefix = repeat_prefix
        self.i_repeats = repeat_prefix[-1] if repeat_prefix else 0
        self.i_repeat_cycles = self.i_repeats * i_hit
        self.i_hit = i_hit


class DecodedText:
    """Pre-decoded view of one text segment for one configuration."""

    __slots__ = ("text", "text_base", "length", "entries", "prefixes", "model_caches", "stale", "ctx")

    def __init__(self, text, text_base, length, entries, model_caches, ctx):
        self.text = text
        self.text_base = text_base
        self.length = length
        #: ``entries[i]`` is the Block for the suffix starting at index i
        self.entries = entries
        #: lazily built prefix Blocks, keyed by ``(start, length)``
        self.prefixes: dict[tuple[int, int], Block] = {}
        self.model_caches = model_caches
        #: set by :func:`invalidate_text` when the underlying
        #: instruction list was mutated; forces a re-decode
        self.stale = False
        #: decode context, kept for lazy superblock compilation
        self.ctx = ctx


# ---------------------------------------------------------------------------
# per-instruction decode: static class statistics
# ---------------------------------------------------------------------------

_INT = (("int_ops", 1),)
_FLOAT = (("float_ops", 1),)

#: Class-statistics counters ``Core.step`` commits for each opcode whose
#: deltas do not depend on the architecture.  Dynamic counters — taken
#: conditional branches, syscalls — are updated live by the generated
#: code itself.
_STATIC_ITEMS = {
    **dict.fromkeys(
        (Op.ADD, Op.SUB, Op.RSB, Op.MUL, Op.MULHU, Op.UDIV, Op.SDIV, Op.AND, Op.ORR, Op.EOR,
         Op.BIC, Op.LSL, Op.LSR, Op.ASR, Op.ADDI, Op.SUBI, Op.ANDI, Op.ORRI, Op.EORI, Op.LSLI,
         Op.LSRI, Op.ASRI, Op.MULI, Op.MOV, Op.MOVI, Op.MVN, Op.CMP, Op.CMPI, Op.TST, Op.CSET),
        _INT,
    ),
    **dict.fromkeys(
        (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FMIN, Op.FMAX, Op.FSQRT, Op.FNEG, Op.FABS,
         Op.FCMP, Op.FMOV, Op.FMOVI, Op.SCVTF, Op.FCVTZS, Op.FMOVRG, Op.FMOVGR),
        _FLOAT,
    ),
    Op.B: (("branches", 1), ("branches_taken", 1)),
    Op.BCC: (("branches", 1),),
    Op.CBZ: (("branches", 1),),
    Op.CBNZ: (("branches", 1),),
    Op.BL: (("branches", 1), ("branches_taken", 1), ("calls", 1)),
    Op.BLR: (("branches", 1), ("branches_taken", 1), ("calls", 1)),
    Op.RET: (("branches", 1), ("branches_taken", 1), ("returns", 1)),
    Op.WFI: (("idle_cycles", 1),),
}


def _static_items(instr, ctx) -> tuple:
    """The ``(counter_name, delta)`` class statistics of one instruction."""
    op = instr.op
    if op in (Op.LDR, Op.LDRB):
        return (("loads", 1), ("bytes_read", ctx["word_bytes"] if op == Op.LDR else 1))
    if op in (Op.STR, Op.STRB):
        return (("stores", 1), ("bytes_written", ctx["word_bytes"] if op == Op.STR else 1))
    if op == Op.FLDR:
        return (("loads", 1), ("float_ops", 1), ("bytes_read", ctx["float_bytes"]))
    if op == Op.FSTR:
        return (("stores", 1), ("float_ops", 1), ("bytes_written", ctx["float_bytes"]))
    return _STATIC_ITEMS.get(op, ())


# ---------------------------------------------------------------------------
# text decode (cached)
# ---------------------------------------------------------------------------

#: Decoded-text cache.  Keys embed ``id(text)``; entries hold a strong
#: reference to the text list, so an id can never be reused while its
#: entry lives.  LRU-bounded: campaigns cycle through a handful of
#: programs (the build_program LRU shares their instruction lists).
_DECODE_CACHE: "OrderedDict[tuple, DecodedText]" = OrderedDict()
_DECODE_CACHE_CAPACITY = 64


def decode_text(text, text_base, arch, model_caches, icache=None):
    """Decode ``text`` (cached) for one architecture/configuration.

    ``icache`` is the L1 instruction cache's :class:`CacheConfig` when
    ``model_caches`` is set: the compiled tier bakes its line geometry
    and hit latency into the per-block fetch batching, so the cache key
    must distinguish icache geometries.  Cache-modelling decode without
    ``icache`` stays valid (and interpreter-exact) but never compiles —
    every block runs on the interpreter tier.
    """
    icache_key = (
        (icache.line_bytes, icache.hit_latency) if (model_caches and icache is not None) else None
    )
    key = (id(text), text_base, arch.name, bool(model_caches), icache_key)
    cached = _DECODE_CACHE.get(key)
    if cached is not None and cached.text is text and not cached.stale:
        _DECODE_CACHE.move_to_end(key)
        return cached
    decoded = _decode_uncached(text, text_base, arch, model_caches, icache)
    _DECODE_CACHE[key] = decoded
    _DECODE_CACHE.move_to_end(key)
    while len(_DECODE_CACHE) > _DECODE_CACHE_CAPACITY:
        # Mark evicted entries stale: cores may still hold a per-core
        # reference, and invalidate_text can no longer reach an entry
        # that left the cache — without this, an announced text
        # mutation could leave such a core executing stale decode.
        _DECODE_CACHE.popitem(last=False)[1].stale = True
    return decoded


def invalidate_text(text) -> int:
    """Invalidate every decoded view of ``text`` (after in-place mutation).

    Returns the number of cache entries dropped.  Cores additionally
    drop their per-core decoded reference lazily: a stale entry is
    detected on the next burst.
    """
    stale_keys = [key for key, entry in _DECODE_CACHE.items() if entry.text is text]
    for key in stale_keys:
        _DECODE_CACHE[key].stale = True
        del _DECODE_CACHE[key]
    return len(stale_keys)


def decode_cache_info() -> dict:
    """Occupancy and tier state of the decode cache (tests, docs, benchmarks).

    Counted by walking the cached entries, so the hot path carries no
    counters: ``blocks`` are superblock suffix entries, of which
    ``compiled`` run fused and ``uncompilable`` were refused by the
    emitter; ``prefixes`` are the budget-tail prefix blocks built so
    far, of which ``compiled_prefixes`` run fused.
    """
    info = {
        "entries": len(_DECODE_CACHE),
        "capacity": _DECODE_CACHE_CAPACITY,
        "blocks": 0,
        "compiled": 0,
        "uncompilable": 0,
        "prefixes": 0,
        "compiled_prefixes": 0,
    }
    for decoded in _DECODE_CACHE.values():
        info["blocks"] += len(decoded.entries)
        for block in decoded.entries:
            if block.compiled is not None:
                info["compiled"] += 1
            elif block.hits == _UNCOMPILABLE:
                info["uncompilable"] += 1
        info["prefixes"] += len(decoded.prefixes)
        info["compiled_prefixes"] += sum(
            1 for block in decoded.prefixes.values() if block.compiled is not None
        )
    return info


#: Canonical counter order for index-based stat deltas (matches the
#: field order of :class:`repro.cpu.statistics.CoreStats`).
STAT_FIELDS = (
    "instructions",
    "cycles",
    "int_ops",
    "float_ops",
    "branches",
    "branches_taken",
    "calls",
    "returns",
    "loads",
    "stores",
    "bytes_read",
    "bytes_written",
    "syscalls",
    "idle_cycles",
    "context_switches",
)
_STAT_INDEX = {name: index for index, name in enumerate(STAT_FIELDS)}


def _decode_uncached(text, text_base, arch, model_caches, icache=None):
    n = len(text)
    ctx = {
        "mask": arch.word_mask,
        "xlen": arch.xlen,
        "sign_bit": arch.sign_bit,
        "word_bytes": arch.word_bytes,
        "float_bytes": arch.float_bytes,
        "fmask": (1 << 64) - 1 if arch.has_hw_float else (1 << 32) - 1,
        "lr": arch.abi.lr,
        "text_base": text_base,
        "model_caches": bool(model_caches),
        # L1i geometry for the cached compile tier (None = unknown:
        # decode stays valid but blocks never leave the interpreter).
        "i_line_shift": None,
        "i_hit": 0,
    }
    if model_caches and icache is not None:
        ctx["i_line_shift"] = icache.line_bytes.bit_length() - 1
        ctx["i_hit"] = icache.hit_latency
    line_shift = ctx["i_line_shift"]
    instr_items = [
        tuple((_STAT_INDEX[name], delta) for name, delta in _static_items(instr, ctx))
        for instr in text
    ]

    entries = [None] * n
    start = 0
    while start < n:
        end = start
        while end < n and text[end].op not in BLOCK_TERMINATOR_OPS:
            end += 1
        if end < n:
            end += 1  # include the terminator in its run
        recheck = text[end - 1].op in (Op.SVC, Op.HALT)
        for first in range(start, end):
            repeat_prefix = None
            if line_shift is not None:
                # An instruction is a *repeat* fetch when the previous
                # instruction of the block sits on the same I-cache line
                # (consecutive PCs make the line sequence monotonic, so
                # each line is one contiguous stretch).  A block's first
                # instruction is always a leader — the engine cannot know
                # the line is resident at a branched-to block entry.
                total = 0
                prefix = []
                for i in range(first, end):
                    if i > first and (text_base + 4 * i) >> line_shift == (text_base + 4 * i - 4) >> line_shift:
                        total += 1
                    prefix.append(total)
                repeat_prefix = tuple(prefix)
            entries[first] = Block(
                first, tuple(instr_items[first:end]), recheck, repeat_prefix, ctx["i_hit"]
            )
        start = end
    return DecodedText(text, text_base, n, entries, bool(model_caches), ctx)


def _prefix_block(decoded, block, length):
    """The cached ``length``-instruction prefix of ``block``.

    A prefix is strictly shorter than its block, so it never holds the
    SVC/HALT terminator and needs no thread/halt re-check.
    """
    key = (block.start, length)
    prefix = decoded.prefixes.get(key)
    if prefix is None:
        prefix = decoded.prefixes[key] = Block(
            block.start,
            block.instr_items[:length],
            False,
            block.repeat_prefix[:length] if block.repeat_prefix else None,
            block.i_hit,
        )
    return prefix


# ---------------------------------------------------------------------------
# superblock compilation (the hot tier)
# ---------------------------------------------------------------------------
#
# A block that stays hot on the interpreter tier is fused into one
# generated Python function executing the whole run as straight-line
# code — no per-instruction call, loop or dispatch overhead at all.  The
# generated source mirrors ``Core.step``'s handlers statement for
# statement (the differential tests run hot workloads and force
# compilation, so the emitter is checked against the interpreter).
# Compilation is lazy so decode stays cheap for short-lived programs
# (unit tests); campaigns re-execute the same few hundred blocks
# millions of times, amortizing the one-time ``compile()`` cost to
# nothing.

#: interpreter-tier executions after which a block is fused
_COMPILE_THRESHOLD = 4

_CODEGEN_GLOBALS = {
    "__builtins__": {},
    "bool": bool,
    "min": min,
    "max": max,
    "abs": abs,
    "float": float,
    "udiv": alu.unsigned_divide,
    "sdiv": alu.signed_divide,
    "asr": alu.arithmetic_shift_right,
    "b2d": fpu.bits_to_double,
    "d2b": fpu.double_to_bits,
    "b2s": fpu.bits_to_single,
    "s2b": fpu.single_to_bits,
    "fsqrt": fpu.fp_sqrt,
    "f2i": fpu.float_to_int,
    "fp_binary": fpu.fp_binary,
    "fcmp": fpu.fp_compare,
    "SimulatorError": SimulatorError,
}


def _emit_instr(instr, index, ctx, lines) -> bool:
    """Append the straight-line source for one instruction to ``lines``.

    Returns False when the instruction cannot be compiled (undefined
    opcode, invalid condition code): the block then stays on the
    interpreter tier, which raises those faults at execute time.
    """
    op = instr.op
    rd, rn, rm, imm = instr.rd, instr.rn, instr.rm, instr.imm
    mask = ctx["mask"]
    xlen = ctx["xlen"]
    xm = xlen - 1
    text_base = ctx["text_base"]
    this_pc = text_base + 4 * index
    next_pc = this_pc + 4
    fmask = ctx["fmask"]

    def cond_expr(cond):
        if isinstance(cond, int) and 0 <= cond < len(_COND_EXPRS):
            return _COND_EXPRS[cond]
        return None

    def addr_expr():
        if rm is None:
            return f"(v[{rn}] + {imm}) & {mask}"
        return f"(v[{rn}] + (v[{rm}] << {imm})) & {mask}"

    if op == Op.ADD:
        lines.append(f"v[{rd}] = (v[{rn}] + v[{rm}]) & {mask}")
    elif op == Op.SUB:
        lines.append(f"v[{rd}] = (v[{rn}] - v[{rm}]) & {mask}")
    elif op == Op.RSB:
        lines.append(f"v[{rd}] = (v[{rm}] - v[{rn}]) & {mask}")
    elif op == Op.MUL:
        lines.append(f"v[{rd}] = (v[{rn}] * v[{rm}]) & {mask}")
    elif op == Op.MULHU:
        lines.append(f"v[{rd}] = ((v[{rn}] * v[{rm}]) >> {xlen}) & {mask}")
    elif op == Op.UDIV:
        lines.append(f"v[{rd}] = udiv(v[{rn}], v[{rm}], {xlen})")
    elif op == Op.SDIV:
        lines.append(f"v[{rd}] = sdiv(v[{rn}], v[{rm}], {xlen})")
    elif op == Op.AND:
        lines.append(f"v[{rd}] = v[{rn}] & v[{rm}]")
    elif op == Op.ORR:
        lines.append(f"v[{rd}] = v[{rn}] | v[{rm}]")
    elif op == Op.EOR:
        lines.append(f"v[{rd}] = v[{rn}] ^ v[{rm}]")
    elif op == Op.BIC:
        lines.append(f"v[{rd}] = v[{rn}] & ~v[{rm}] & {mask}")
    elif op == Op.LSL:
        lines.append(f"v[{rd}] = (v[{rn}] << (v[{rm}] & {xm})) & {mask}")
    elif op == Op.LSR:
        lines.append(f"v[{rd}] = v[{rn}] >> (v[{rm}] & {xm})")
    elif op == Op.ASR:
        lines.append(f"v[{rd}] = asr(v[{rn}], v[{rm}] & {xm}, {xlen})")
    elif op == Op.ADDI:
        lines.append(f"v[{rd}] = (v[{rn}] + {imm}) & {mask}")
    elif op == Op.SUBI:
        lines.append(f"v[{rd}] = (v[{rn}] - {imm}) & {mask}")
    elif op == Op.ANDI:
        lines.append(f"v[{rd}] = v[{rn}] & {imm} & {mask}")
    elif op == Op.ORRI:
        lines.append(f"v[{rd}] = (v[{rn}] | {imm}) & {mask}")
    elif op == Op.EORI:
        lines.append(f"v[{rd}] = (v[{rn}] ^ {imm}) & {mask}")
    elif op == Op.LSLI:
        lines.append(f"v[{rd}] = (v[{rn}] << {imm & xm}) & {mask}")
    elif op == Op.LSRI:
        lines.append(f"v[{rd}] = v[{rn}] >> {imm & xm}")
    elif op == Op.ASRI:
        lines.append(f"v[{rd}] = asr(v[{rn}], {imm & xm}, {xlen})")
    elif op == Op.MULI:
        lines.append(f"v[{rd}] = (v[{rn}] * {imm}) & {mask}")
    elif op == Op.MOV:
        lines.append(f"v[{rd}] = v[{rn}]")
    elif op == Op.MOVI:
        lines.append(f"v[{rd}] = {imm & mask}")
    elif op == Op.MVN:
        lines.append(f"v[{rd}] = ~v[{rn}] & {mask}")
    elif op in (Op.CMP, Op.TST, Op.CMPI):
        sign = ctx["sign_bit"]
        if op == Op.TST:
            lines.append(f"r = v[{rn}] & v[{rm}]")
            lines.append(f"core.flag_n = bool(r >> {xm})")
            lines.append("core.flag_z = r == 0")
        else:
            if op == Op.CMP:
                lines.append(f"a = v[{rn}]")
                lines.append(f"b = v[{rm}]")
                b_neg = f"bool(b & {sign})"
            else:
                operand = alu.to_unsigned(imm, xlen)
                lines.append(f"a = v[{rn}]")
                lines.append(f"b = {operand}")
                b_neg = "True" if operand & sign else "False"
            lines.append(f"r = (a - b) & {mask}")
            lines.append(f"core.flag_n = bool(r >> {xm})")
            lines.append("core.flag_z = r == 0")
            lines.append("core.flag_c = a >= b")
            lines.append(f"sn = bool(a & {sign})")
            lines.append(f"core.flag_v = sn != {b_neg} and bool(r & {sign}) != sn")
    elif op == Op.CSET:
        expr = cond_expr(instr.cond)
        if expr is None:
            return False
        lines.append(f"v[{rd}] = 1 if {expr} else 0")
    elif op in (Op.LDR, Op.LDRB):
        size = ctx["word_bytes"] if op == Op.LDR else 1
        lines.append(f"core.pc = {next_pc}")
        if ctx["model_caches"]:
            # Effective address computed once, D-cache accounting before
            # the architectural read (pending-fault commit order — see
            # Core._data_access_cycles).
            lines.append(f"a = {addr_expr()}")
            lines.append("st.cycles += da(a, False)")
            lines.append(f"v[{rd}] = mr(a, {size})")
        else:
            lines.append(f"v[{rd}] = mr({addr_expr()}, {size})")
    elif op in (Op.STR, Op.STRB):
        size = ctx["word_bytes"] if op == Op.STR else 1
        value = f"v[{rd}]" if op == Op.STR else f"v[{rd}] & 255"
        lines.append(f"core.pc = {next_pc}")
        if ctx["model_caches"]:
            lines.append(f"a = {addr_expr()}")
            lines.append("st.cycles += da(a, True)")
            lines.append(f"mw(a, {value}, {size})")
        else:
            lines.append(f"mw({addr_expr()}, {value}, {size})")
    elif op == Op.B:
        lines.append(f"core.pc = {text_base + 4 * imm}")
    elif op in (Op.BCC, Op.CBZ, Op.CBNZ):
        if op == Op.BCC:
            expr = cond_expr(instr.cond)
            if expr is None:
                return False
        elif op == Op.CBZ:
            expr = f"v[{rn}] == 0"
        else:
            expr = f"v[{rn}] != 0"
        lines.append(f"if {expr}:")
        lines.append("    core.stats.branches_taken += 1")
        lines.append(f"    core.pc = {text_base + 4 * imm}")
        lines.append("else:")
        lines.append(f"    core.pc = {next_pc}")
    elif op == Op.BL:
        lines.append(f"v[{ctx['lr']}] = {next_pc & mask}")
        lines.append(f"core.pc = {text_base + 4 * imm}")
    elif op == Op.BLR:
        lines.append(f"t = v[{rn}]")
        lines.append(f"v[{ctx['lr']}] = {next_pc & mask}")
        lines.append("core.pc = t")
    elif op == Op.RET:
        lines.append(f"core.pc = v[{ctx['lr']}]")
    elif op in (Op.FADD, Op.FSUB, Op.FMUL):
        sym = {Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*"}[op]
        lines.append(f"f[{rd}] = d2b(b2d(f[{rn}]) {sym} b2d(f[{rm}])) & {fmask}")
    elif op == Op.FMIN:
        lines.append(f"f[{rd}] = d2b(min(b2d(f[{rn}]), b2d(f[{rm}]))) & {fmask}")
    elif op == Op.FMAX:
        lines.append(f"f[{rd}] = d2b(max(b2d(f[{rn}]), b2d(f[{rm}]))) & {fmask}")
    elif op == Op.FDIV:
        lines.append(f"f[{rd}] = d2b(fp_binary('div', b2d(f[{rn}]), b2d(f[{rm}]))) & {fmask}")
    elif op == Op.FSQRT:
        lines.append(f"f[{rd}] = d2b(fsqrt(b2d(f[{rn}]))) & {fmask}")
    elif op == Op.FNEG:
        lines.append(f"f[{rd}] = d2b(-b2d(f[{rn}])) & {fmask}")
    elif op == Op.FABS:
        lines.append(f"f[{rd}] = d2b(abs(b2d(f[{rn}]))) & {fmask}")
    elif op == Op.FCMP:
        lines.append(
            f"core.flag_n, core.flag_z, core.flag_c, core.flag_v = fcmp(b2d(f[{rn}]), b2d(f[{rm}]))"
        )
    elif op == Op.FMOV:
        lines.append(f"f[{rd}] = f[{rn}]")
    elif op == Op.FMOVI:
        lines.append(f"f[{rd}] = {imm & fmask}")
    elif op in (Op.FLDR, Op.FSTR):
        size = ctx["float_bytes"]
        single = size == 4
        cached = ctx["model_caches"]
        lines.append(f"core.pc = {next_pc}")
        if cached:
            lines.append(f"a = {addr_expr()}")
        addr = "a" if cached else addr_expr()
        if op == Op.FLDR:
            if cached:
                lines.append("st.cycles += da(a, False)")
            lines.append(f"bits = mr({addr}, {size})")
            if single:
                lines.append("bits = d2b(b2s(bits))")
            lines.append(f"f[{rd}] = bits & {fmask}")
        else:
            lines.append(f"bits = f[{rd}]")
            if single:
                lines.append("bits = s2b(b2d(bits))")
            if cached:
                lines.append("st.cycles += da(a, True)")
            lines.append(f"mw({addr}, bits, {size})")
    elif op == Op.SCVTF:
        lines.append(f"x = v[{rn}]")
        lines.append(f"if x & {ctx['sign_bit']}:")
        lines.append(f"    x -= {1 << xlen}")
        lines.append(f"f[{rd}] = d2b(float(x)) & {fmask}")
    elif op == Op.FCVTZS:
        lines.append(f"v[{rd}] = f2i(b2d(f[{rn}]), {xlen})")
    elif op == Op.FMOVRG:
        lines.append(f"f[{rd}] = v[{rn}] & {fmask}")
    elif op == Op.FMOVGR:
        lines.append(f"v[{rd}] = f[{rn}] & {mask}")
    elif op == Op.SVC:
        lines.append(f"core.pc = {next_pc}")
        lines.append("core.stats.syscalls += 1")
        lines.append("h = core.syscall_handler")
        lines.append("if h is None:")
        lines.append(
            "    raise SimulatorError('SVC executed but no syscall handler installed (bare-metal core)')"
        )
        lines.append(f"h(core, {imm})")
    elif op == Op.NOP or op == Op.WFI:
        pass  # WFI's idle_cycles ride the batched block delta
    elif op == Op.HALT:
        lines.append(f"core.pc = {next_pc}")
        lines.append("core.halted = True")
    else:
        return False  # undefined opcode: stays on the interpreter tier
    return True


#: Opcodes whose generated source touches the FP register file.
_FP_SRC_OPS = frozenset(
    {
        Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FSQRT, Op.FNEG, Op.FABS, Op.FMIN,
        Op.FMAX, Op.FCMP, Op.FMOV, Op.FMOVI, Op.FLDR, Op.FSTR, Op.SCVTF,
        Op.FCVTZS, Op.FMOVRG, Op.FMOVGR,
    }
)


def _compile_block(block, decoded):
    """Fuse one block into a single generated function, or None.

    The function has the interpreter's exact semantics: a PC store
    before every raising operation, the same live counters
    (``branches_taken``, ``syscalls``), the same final PC.  The batched
    block delta still comes from the driver.

    Cache modelling: every PC of a straight-line block is known here,
    so I-side accounting splits per line.  The first instruction
    touching each I-cache line (*leader* — block entry is always one)
    does the real ``l1i.access`` inline, in program order relative to
    the block's D-accesses (both can reach the shared L2, so their
    interleaving decides L2 LRU state).  The remaining instructions of
    the line (*repeats*) are provably pure hits — the leader left the
    line resident, MRU and pending-free, and D-accesses cannot disturb
    the L1i — so their effect is exactly a static counter delta
    (``hits``/``read_accesses``/``cycles += hit latency``), batched
    into the burst accumulator by the driver.  D-side accounting is
    emitted inline against the hoisted ``l1d.access`` with the
    effective address computed once per memory operation.
    """
    text = decoded.text
    ctx = decoded.ctx
    model_caches = decoded.model_caches
    line_shift = ctx["i_line_shift"]
    if model_caches and line_shift is None:
        return None  # no icache geometry at decode time: stay on the interpreter
    start = block.start
    end = start + block.length
    lines: list[str] = []
    needs_f = False
    needs_read = False
    needs_write = False
    prev_line = -1
    for index in range(start, end):
        instr = text[index]
        op = instr.op
        if op in _FP_SRC_OPS:
            needs_f = True
        if op in (Op.LDR, Op.LDRB, Op.FLDR):
            needs_read = True
        elif op in (Op.STR, Op.STRB, Op.FSTR):
            needs_write = True
        if model_caches:
            pc = ctx["text_base"] + 4 * index
            iline = pc >> line_shift
            if index == start or iline != prev_line:
                lines.append(f"st.cycles += fa({pc})")
            prev_line = iline
        if not _emit_instr(instr, index, ctx, lines):
            return None
    if text[end - 1].op not in BLOCK_TERMINATOR_OPS:
        # A prefix, or a run that falls off the end of the text: leave
        # the interpreter's exact PC for whatever executes next (for the
        # latter, the out-of-range fetch fault that follows).
        lines.append(f"core.pc = {ctx['text_base'] + 4 * end}")
    # Hoisted per-block bindings: the address space never changes
    # mid-block (only syscalls swap it, and SVC is always block-final);
    # cache objects and the stats record only change between bursts.
    if needs_write:
        lines.insert(0, "mw = core.mem.write")
    if needs_read:
        lines.insert(0, "mr = core.mem.read")
    if model_caches and (needs_read or needs_write):
        lines.insert(0, "da = core.caches.l1d.access")
    if model_caches:
        lines.insert(0, "fa = core.caches.l1i.access")
        lines.insert(0, "st = core.stats")
    if needs_f:
        lines.insert(0, "f = core.fregs._values")
    source = "def _block(core, v):\n" + "\n".join("    " + line for line in lines)
    namespace: dict = {}
    exec(compile(source, f"<superblock@{ctx['text_base'] + 4 * start:#x}>", "exec"), _CODEGEN_GLOBALS, namespace)
    return namespace["_block"]


# ---------------------------------------------------------------------------
# execution driver
# ---------------------------------------------------------------------------


def _account_fault(core, acc, block) -> None:
    """Replay the statistics of a compiled block interrupted by an exception.

    Every generated statement that can raise is preceded by a store of
    its next PC, so the PC at the raise site identifies the faulting
    instruction.  The interpreter would have committed: all counters of
    the completed prefix, plus the fetch cycle of the faulting
    instruction (its class counters and the ``instructions`` increment
    never happen — matching ``Core.step``'s raise points exactly).
    Deltas land in the burst accumulator, which the driver flushes
    before the exception leaves.
    """
    j = ((core.pc - core.text_base) >> 2) - 1 - block.start
    if j < 0:
        j = 0
    elif j >= block.length:
        j = block.length - 1
    acc[0] += j
    acc[1] += j + 1
    for items in block.instr_items[:j]:
        for index, delta in items:
            acc[index] += delta


def _account_fault_cached(core, acc, block) -> None:
    """Replay a cached compiled block interrupted by an exception.

    Leader fetches and D-access latencies were committed inline before
    the raise (matching the interpreter's order exactly); what is still
    pending is the batched repeat-fetch effect.  The interpreter would
    have committed: class counters and ``instructions`` for the
    completed prefix, plus the *fetch* of the faulting instruction —
    so repeats are replayed through index ``j`` inclusive.
    """
    j = ((core.pc - core.text_base) >> 2) - 1 - block.start
    if j < 0:
        j = 0
    elif j >= block.length:
        j = block.length - 1
    acc[0] += j
    repeats = block.repeat_prefix[j]
    acc[1] += repeats * block.i_hit
    acc[15] += repeats
    for items in block.instr_items[:j]:
        for index, delta in items:
            acc[index] += delta


def _flush(stats, acc) -> None:
    """Commit one burst's accumulated counter deltas to the core stats."""
    stats.instructions += acc[0]
    stats.cycles += acc[1]
    stats.int_ops += acc[2]
    stats.float_ops += acc[3]
    stats.branches += acc[4]
    stats.branches_taken += acc[5]
    stats.calls += acc[6]
    stats.returns += acc[7]
    stats.loads += acc[8]
    stats.stores += acc[9]
    stats.bytes_read += acc[10]
    stats.bytes_written += acc[11]
    stats.syscalls += acc[12]
    stats.idle_cycles += acc[13]
    stats.context_switches += acc[14]


def execute_burst(core, decoded, budget: int, stop_on_halt: bool) -> int:
    """Run ``core`` for at most ``budget`` instructions on decoded text.

    Stops early when the core's thread changes (a syscall detached or
    killed it) or — with ``stop_on_halt`` — when HALT executes; those
    state tests run on entry and after SVC/HALT blocks (the only ops
    that can change them).  Returns the executed instruction count.

    Compiled-block statistics accumulate in burst-local counters and
    are flushed to ``core.stats`` on every exit path (including a
    mid-block guest fault, where :func:`_account_fault` first
    reconstructs the interrupted block's exact prefix); interpreter-tier
    blocks commit their counters live.  The counters are therefore
    interpreter-exact whenever control leaves this function.  Syscall
    handlers run mid-burst and must not read ``core.stats`` — none do:
    the kernel touches counters only via ``attach`` during scheduling,
    which happens between bursts.
    """
    stats = core.stats
    thread = core.thread
    base = decoded.text_base
    entries = decoded.entries
    length = decoded.length
    model_caches = decoded.model_caches
    regs = core.regs
    executed = 0
    check_state = True
    acc = [0] * 16
    try:
        while executed < budget:
            if check_state:
                if core.thread is not thread:
                    break
                if stop_on_halt and core.halted:
                    break
            pc = core.pc
            offset = pc - base
            if offset & 0x3:
                raise AlignmentFault(
                    f"misaligned instruction fetch at {pc:#x}", address=pc, core_id=core.core_id
                )
            index = offset >> 2
            if index < 0 or index >= length:
                raise InstructionFault(
                    f"instruction fetch outside text segment at {pc:#x}", address=pc, core_id=core.core_id
                )
            block = entries[index]
            blen = block.length
            if blen > budget - executed:
                # The budget ends inside this block: run its prefix so
                # stop_at_instruction pauses on the precise boundary.
                blen = budget - executed
                block = _prefix_block(decoded, block, blen)
            compiled = block.compiled
            if compiled is None:
                hits = block.hits = block.hits + 1
                if hits >= _COMPILE_THRESHOLD:
                    compiled = block.compiled = _compile_block(block, decoded)
                    if compiled is None:
                        block.hits = _UNCOMPILABLE
                if compiled is None:
                    # Interpreter tier: exact PC and live statistics at
                    # every raise point, no accounting needed here.
                    step = core.step
                    for _ in range(blen):
                        step()
                    executed += blen
                    check_state = block.recheck
                    continue
            # Compiled tier: the whole block as one fused function.
            # Statistics land as one batched delta; with caches
            # modelled, leader fetches and D-accesses were accounted
            # inline and only the repeat-fetch hits ride the
            # accumulator (slot 15 -> L1i counters).
            try:
                compiled(core, regs._values)
            except BaseException:
                if model_caches:
                    _account_fault_cached(core, acc, block)
                else:
                    _account_fault(core, acc, block)
                raise
            acc[0] += blen
            if model_caches:
                acc[1] += block.i_repeat_cycles
                acc[15] += block.i_repeats
            else:
                acc[1] += blen
            for stat_index, delta in block.items:
                acc[stat_index] += delta
            executed += blen
            check_state = block.recheck
    finally:
        _flush(stats, acc)
        repeats = acc[15]
        if repeats:
            # Batched repeat fetches: each one is an L1i read hit at hit
            # latency (the cycles already flushed through acc[1]).
            istats = core.caches.l1i.stats
            istats.hits += repeats
            istats.read_accesses += repeats
    return executed
