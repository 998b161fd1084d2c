"""Kernel tests: loader, scheduler, system calls, threads, messages, faults.

Most tests compile tiny MiniC programs and run them on a full system,
since the kernel is only reachable through the SVC interface.
"""

import pytest

from repro.compiler import ast
from repro.compiler.ast import ExprStmt, FuncAddr, Function, GlobalVar, If, Module, Return, assign, call, var
from repro.compiler.linker import link
from repro.errors import DeadlockError, WatchdogTimeout
from repro.isa.arch import ARMV7, ARMV8
from repro.kernel.loader import ProgramLoader, TEXT_BASE, make_context
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.threads import Thread, ThreadState
from repro.soc.multicore import build_system


def build(main_body, locals_=None, functions=(), globals_=(), arch=ARMV8, name="prog"):
    main = Function(
        name="main",
        params=[("rank", ast.INT), ("nranks", ast.INT), ("nthreads", ast.INT)],
        locals=locals_ or [],
        body=main_body,
        return_type=ast.INT,
    )
    module = Module(name, list(functions) + [main], list(globals_))
    return link([module], arch, name=name)


def run_program(program, cores=1, isa=None, max_instructions=200_000, nthreads_hint=1):
    system = build_system(program.arch.name, cores=cores)
    system.load_process(program, name="t", nthreads_hint=nthreads_hint)
    system.run(max_instructions=max_instructions)
    return system


class TestLoader:
    def test_address_space_layout(self):
        program = build([Return(ast.const(0))])
        loader = ProgramLoader(ARMV8)
        space, layout = loader.build_address_space(program, "p")
        names = [segment.name for segment in space.segments]
        assert names == ["text", "data", "heap"]
        assert layout["heap_limit"] > layout["heap_base"]
        text = space.segment_by_name("text")
        assert not text.perms.write and text.perms.execute

    def test_arch_mismatch_rejected(self):
        program = build([Return(ast.const(0))], arch=ARMV7)
        loader = ProgramLoader(ARMV8)
        with pytest.raises(Exception):
            loader.build_address_space(program, "p")

    def test_make_context_sets_abi_registers(self):
        ctx = make_context(ARMV8, pc=0x10000, sp=0x9000, gp=0x100000, args=(3, 4))
        assert ctx.pc == 0x10000
        assert ctx.gprs[ARMV8.abi.sp] == 0x9000
        assert ctx.gprs[ARMV8.abi.gp] == 0x100000
        assert ctx.gprs[ARMV8.abi.arg_regs[0]] == 3
        assert ctx.gprs[ARMV8.abi.arg_regs[1]] == 4

    def test_stack_guard_gap_between_threads(self):
        program = build([Return(ast.const(0))])
        system = build_system("armv8", cores=1)
        process = system.kernel.launch(program, name="p")
        thread2 = system.kernel._spawn_thread(process, TEXT_BASE, 0)
        stacks = sorted(
            (s for s in process.address_space.segments if s.name.startswith("stack")),
            key=lambda s: s.base,
        )
        assert len(stacks) == 2
        # an unmapped guard gap separates consecutive stacks
        assert stacks[1].base > stacks[0].end


class TestScheduler:
    #: Threads reference their process weakly (the kernel's process list
    #: owns it), so the stand-in process must outlive the threads.
    _process = type("P", (), {"is_live": lambda self: True})()

    def _thread(self):
        return Thread(tid=1, process=self._process)

    def test_fifo_order(self):
        scheduler = RoundRobinScheduler()
        t1, t2 = self._thread(), self._thread()
        scheduler.add(t1)
        scheduler.add(t2)
        assert scheduler.next_ready() is t1
        assert scheduler.next_ready() is t2
        assert scheduler.next_ready() is None

    def test_skips_exited_threads(self):
        scheduler = RoundRobinScheduler()
        t1 = self._thread()
        scheduler.add(t1)
        t1.state = ThreadState.EXITED
        assert scheduler.next_ready() is None

    def test_preemption_requires_ready_thread(self):
        scheduler = RoundRobinScheduler(quantum=100)
        t1 = self._thread()
        t1.state = ThreadState.RUNNING
        t1.slice_used = 1000
        assert not scheduler.should_preempt(t1)
        scheduler.add(self._thread())
        assert scheduler.should_preempt(t1)


class TestBasicSyscalls:
    @pytest.mark.parametrize("arch", [ARMV7, ARMV8])
    def test_exit_code_from_main_return(self, arch):
        program = build([Return(ast.const(7))], arch=arch)
        system = run_program(program)
        process = system.kernel.processes[0]
        assert process.state.value == "exited"
        assert process.exit_code == 7

    def test_print_int_and_char(self):
        program = build([
            ExprStmt(call("print_int", ast.const(-42), type=ast.VOID)),
            ExprStmt(call("print_char", ast.const(65), type=ast.VOID)),
            Return(ast.const(0)),
        ])
        system = run_program(program)
        assert system.combined_output() == "-42\nA"

    def test_identity_syscalls(self):
        program = build([
            ExprStmt(call("print_int", call("get_rank"), type=ast.VOID)),
            ExprStmt(call("print_int", call("get_nranks"), type=ast.VOID)),
            ExprStmt(call("print_int", call("get_ncores"), type=ast.VOID)),
            ExprStmt(call("print_int", call("get_tid"), type=ast.VOID)),
            Return(ast.const(0)),
        ])
        system = run_program(program, cores=2)
        assert system.combined_output().split() == ["0", "1", "2", "1"]

    def test_sbrk_allocates_monotonically(self):
        program = build(
            [
                assign("a", call("sbrk", ast.const(64))),
                assign("b", call("sbrk", ast.const(64))),
                ExprStmt(call("print_int", ast.sub(var("b"), var("a")), type=ast.VOID)),
                Return(ast.const(0)),
            ],
            locals_=[("a", ast.INT), ("b", ast.INT)],
        )
        system = run_program(program)
        assert system.combined_output().strip() == "64"

    def test_abort_kills_process(self):
        program = build([ExprStmt(call("abort", type=ast.VOID)), Return(ast.const(0))])
        system = run_program(program)
        process = system.kernel.processes[0]
        assert process.state.value == "killed"
        assert process.fault_kind == "abort"

    def test_unknown_syscall_returns_error(self):
        # an invalid SVC number (e.g. from a corrupted immediate) must not
        # crash the kernel; it returns an error code like ENOSYS
        from repro.kernel.syscalls import SyscallError
        program = build([Return(ast.const(0))])
        system = build_system("armv8", cores=1)
        system.load_process(program, name="t")
        system.run(max_instructions=100_000, stop_at_instruction=3)
        core = system.cores[0]
        assert core.thread is not None
        system.kernel.handle_syscall(core, 999)
        assert core.regs.read(core.arch.abi.ret_reg) == SyscallError.INVALID


class TestSegfaultDelivery:
    def test_wild_store_is_killed_as_segfault(self):
        program = build([
            ast.StoreDeref(ast.const(0x0F00_0000), ast.const(1)),
            Return(ast.const(0)),
        ])
        system = run_program(program)
        process = system.kernel.processes[0]
        assert process.state.value == "killed"
        assert process.fault_kind == "segfault"
        assert process.exit_code == 139

    def test_write_to_text_segment_is_killed(self):
        program = build([
            ast.StoreDeref(ast.const(TEXT_BASE), ast.const(1)),
            Return(ast.const(0)),
        ])
        system = run_program(program)
        assert system.kernel.processes[0].fault_kind == "segfault"


class TestThreadsAndSync:
    def _worker(self):
        return Function(
            name="worker",
            params=[("arg", ast.INT)],
            body=[
                ast.store("results", var("arg"), ast.mul(var("arg"), ast.const(10))),
                Return(var("arg")),
            ],
            return_type=ast.INT,
        )

    def test_thread_create_join(self):
        program = build(
            [
                assign("tid1", call("thread_create", FuncAddr("worker"), ast.const(1))),
                assign("tid2", call("thread_create", FuncAddr("worker"), ast.const(2))),
                assign("r1", call("thread_join", var("tid1"))),
                assign("r2", call("thread_join", var("tid2"))),
                ExprStmt(call("print_int", ast.add(var("r1"), var("r2")), type=ast.VOID)),
                ExprStmt(call("print_int", ast.load("results", ast.const(1)), type=ast.VOID)),
                ExprStmt(call("print_int", ast.load("results", ast.const(2)), type=ast.VOID)),
                Return(ast.const(0)),
            ],
            locals_=[("tid1", ast.INT), ("tid2", ast.INT), ("r1", ast.INT), ("r2", ast.INT)],
            functions=[self._worker()],
            globals_=[GlobalVar("results", ast.INT, 8)],
            arch=ARMV8,
        )
        system = run_program(program, cores=2)
        assert system.combined_output().split() == ["3", "10", "20"]

    def test_threads_multiplex_on_single_core(self):
        # more threads than cores: the round-robin scheduler must still finish
        program = build(
            [
                assign("tid1", call("thread_create", FuncAddr("worker"), ast.const(1))),
                assign("tid2", call("thread_create", FuncAddr("worker"), ast.const(2))),
                ExprStmt(call("thread_join", var("tid1"))),
                ExprStmt(call("thread_join", var("tid2"))),
                Return(ast.const(0)),
            ],
            locals_=[("tid1", ast.INT), ("tid2", ast.INT)],
            functions=[self._worker()],
            globals_=[GlobalVar("results", ast.INT, 8)],
        )
        system = run_program(program, cores=1)
        assert system.kernel.processes[0].state.value == "exited"

    def test_semaphores_block_and_wake(self):
        poster = Function(
            name="poster",
            params=[("arg", ast.INT)],
            body=[ExprStmt(call("sem_post", ast.const(9), type=ast.VOID)), Return(ast.const(0))],
            return_type=ast.INT,
        )
        program = build(
            [
                assign("tid", call("thread_create", FuncAddr("poster"), ast.const(0))),
                ExprStmt(call("sem_wait", ast.const(9), type=ast.VOID)),
                ExprStmt(call("thread_join", var("tid"))),
                ExprStmt(call("print_int", ast.const(1), type=ast.VOID)),
                Return(ast.const(0)),
            ],
            locals_=[("tid", ast.INT)],
            functions=[poster],
        )
        system = run_program(program, cores=2)
        assert system.combined_output().strip() == "1"

    def test_mutex_protects_critical_section(self):
        incrementer = Function(
            name="incr",
            params=[("arg", ast.INT)],
            locals=[("i", ast.INT)],
            body=[
                ast.for_range("i", ast.const(0), ast.const(50), [
                    ExprStmt(call("mutex_lock", ast.const(1), type=ast.VOID)),
                    ast.store("counter", ast.const(0), ast.add(ast.load("counter", ast.const(0)), ast.const(1))),
                    ExprStmt(call("mutex_unlock", ast.const(1), type=ast.VOID)),
                ]),
                Return(ast.const(0)),
            ],
            return_type=ast.INT,
        )
        program = build(
            [
                assign("t1", call("thread_create", FuncAddr("incr"), ast.const(0))),
                assign("t2", call("thread_create", FuncAddr("incr"), ast.const(1))),
                ExprStmt(call("thread_join", var("t1"))),
                ExprStmt(call("thread_join", var("t2"))),
                ExprStmt(call("print_int", ast.load("counter", ast.const(0)), type=ast.VOID)),
                Return(ast.const(0)),
            ],
            locals_=[("t1", ast.INT), ("t2", ast.INT)],
            functions=[incrementer],
            globals_=[GlobalVar("counter", ast.INT, 1)],
        )
        system = run_program(program, cores=2, max_instructions=500_000)
        assert system.combined_output().strip() == "100"

    def test_deadlock_detection(self):
        program = build([ExprStmt(call("sem_wait", ast.const(3), type=ast.VOID)), Return(ast.const(0))])
        system = build_system("armv8", cores=1)
        system.load_process(program, name="d")
        with pytest.raises(DeadlockError):
            system.run(max_instructions=100_000)

    def test_watchdog_detection(self):
        program = build([ast.While(ast.const(1), [assign("x", ast.add(var("x"), ast.const(1)))]), Return(ast.const(0))],
                        locals_=[("x", ast.INT)])
        system = build_system("armv8", cores=1)
        system.load_process(program, name="w")
        with pytest.raises(WatchdogTimeout):
            system.run(max_instructions=5_000)


class TestMessagePassing:
    def _mpi_program(self, arch=ARMV8):
        from repro.runtime import runtime_modules
        main = Function(
            name="main",
            params=[("rank", ast.INT), ("nranks", ast.INT)],
            locals=[("value", ast.INT)],
            body=[
                If(
                    ast.eq(var("rank"), ast.const(0)),
                    [
                        ast.store("buf", ast.const(0), ast.const(1234)),
                        ExprStmt(call("mpi_send_ints", ast.const(1), ast.GlobalAddr("buf"), ast.const(1), ast.const(5))),
                    ],
                    [
                        ExprStmt(call("mpi_recv_ints", ast.const(0), ast.GlobalAddr("buf"), ast.const(1), ast.const(5))),
                        ExprStmt(call("print_int", ast.load("buf", ast.const(0)), type=ast.VOID)),
                    ],
                ),
                ExprStmt(call("mpi_barrier")),
                Return(ast.const(0)),
            ],
            return_type=ast.INT,
        )
        module = Module("msg", [main], [GlobalVar("buf", ast.INT, 4)])
        return link([module] + runtime_modules(arch, "mpi"), arch, name="msg")

    @pytest.mark.parametrize("arch", [ARMV7, ARMV8])
    def test_send_recv_across_ranks(self, arch):
        program = self._mpi_program(arch)
        system = build_system(arch.name, cores=2)
        system.load_mpi_job(program, nranks=2, name="msg")
        system.run(max_instructions=500_000)
        assert system.combined_output().strip() == "1234"
        assert all(p.state.value == "exited" for p in system.kernel.processes)

    def test_mpi_ranks_have_private_memory(self):
        # each rank writes its own copy of the same global; values must not leak
        from repro.runtime import runtime_modules
        main = Function(
            name="main",
            params=[("rank", ast.INT), ("nranks", ast.INT)],
            body=[
                ast.store("buf", ast.const(0), ast.add(var("rank"), ast.const(100))),
                ExprStmt(call("mpi_barrier")),
                ExprStmt(call("print_int", ast.load("buf", ast.const(0)), type=ast.VOID)),
                Return(ast.const(0)),
            ],
            return_type=ast.INT,
        )
        module = Module("priv", [main], [GlobalVar("buf", ast.INT, 1)])
        program = link([module] + runtime_modules(ARMV8, "mpi"), ARMV8, name="priv")
        system = build_system("armv8", cores=2)
        system.load_mpi_job(program, nranks=2, name="priv")
        system.run(max_instructions=500_000)
        assert sorted(system.combined_output().split()) == ["100", "101"]

    def test_send_to_dead_rank_reports_error(self):
        from repro.kernel.syscalls import SyscallError
        from repro.runtime import runtime_modules
        main = Function(
            name="main",
            params=[("rank", ast.INT), ("nranks", ast.INT)],
            locals=[("status", ast.INT)],
            body=[
                assign("status", call("msg_send", ast.const(7), ast.GlobalAddr("buf"), ast.const(4), ast.const(1))),
                ExprStmt(call("print_int", ast.eq(var("status"), ast.const(int(SyscallError.INVALID))), type=ast.VOID)),
                Return(ast.const(0)),
            ],
            return_type=ast.INT,
        )
        module = Module("dead", [main], [GlobalVar("buf", ast.INT, 1)])
        program = link([module] + runtime_modules(ARMV8, "mpi"), ARMV8, name="dead")
        system = build_system("armv8", cores=1)
        system.load_mpi_job(program, nranks=1, name="dead")
        system.run(max_instructions=100_000)
        assert system.combined_output().strip() == "1"
