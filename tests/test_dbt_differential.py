"""Differential testing: translated code vs the reference interpreter.

Random straight-line instruction sequences are executed by both engines from
identical initial state; final registers and memory must match exactly.
This is the guard that keeps the DBT backend semantically equal to the
interpreter oracle across the whole ISA.
"""

from hypothesis import given, settings, strategies as st

from repro.dbt import CPUState, ExecutionEngine, StopKind
from repro.isa import SPECS, Instruction, assemble, encode
from repro.isa.instructions import Fmt
from repro.mem import FlatMemory

TEXT = 0x1_0000
BUF = 0x10_0000  # data buffer page, preloaded in a fixed register
BUF_REG = 9  # s1 — never clobbered by generated code
M64 = 2**64 - 1

# Mnemonics safe in random straight-line blocks (no control flow / traps).
_COMPUTE = [
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra",
    "mul", "mulh", "mulhu", "div", "divu", "rem", "remu", "slt", "sltu",
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltiu",
    "movz", "movk", "movn",
    "fadd", "fsub", "fmul", "fdiv", "fmin", "fmax", "fsqrt",
    "fcvt.d.l", "fcvt.l.d", "feq", "flt", "fle",
]
_LOADS = ["lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"]
_STORES = ["sb", "sh", "sw", "sd"]
_ATOMICS = ["lr", "sc", "cas", "amoadd", "amoswap"]

# rd is drawn from registers that are not BUF_REG and not x0-only cases.
gp_regs = st.integers(1, 31).filter(lambda r: r != BUF_REG)
any_src = st.integers(0, 31)


@st.composite
def random_instr(draw):
    group = draw(st.sampled_from(["compute"] * 6 + ["load"] * 2 + ["store"] * 2 + ["atomic"]))
    if group == "compute":
        m = draw(st.sampled_from(_COMPUTE))
        spec = SPECS[m]
        if spec.fmt is Fmt.M:
            return Instruction(spec, rd=draw(gp_regs), imm=draw(st.integers(0, 0xFFFF)),
                               hw=draw(st.integers(0, 3)))
        if spec.fmt is Fmt.I:
            return Instruction(spec, rd=draw(gp_regs), rs1=draw(any_src),
                               imm=draw(st.integers(-(1 << 13), (1 << 13) - 1)))
        return Instruction(spec, rd=draw(gp_regs), rs1=draw(any_src), rs2=draw(any_src))
    if group == "load":
        m = draw(st.sampled_from(_LOADS))
        spec = SPECS[m]
        off = draw(st.integers(0, 500)) * 8  # aligned, within the buffer page
        return Instruction(spec, rd=draw(gp_regs), rs1=BUF_REG, imm=off)
    if group == "store":
        m = draw(st.sampled_from(_STORES))
        spec = SPECS[m]
        off = draw(st.integers(0, 500)) * 8
        return Instruction(spec, rs1=BUF_REG, rs2=draw(any_src), imm=off)
    m = draw(st.sampled_from(_ATOMICS))
    spec = SPECS[m]
    off = draw(st.integers(0, 500)) * 8
    # Atomics take the address from rs1 directly; stage it via BUF_REG + imm
    # is not possible, so use an addi into a temp first.
    addr_setup = Instruction(SPECS["addi"], rd=28, rs1=BUF_REG, imm=off)
    if m == "lr":
        return [addr_setup, Instruction(spec, rd=draw(gp_regs), rs1=28)]
    return [addr_setup,
            Instruction(spec, rd=draw(gp_regs.filter(lambda r: r != 28)),
                        rs1=28, rs2=draw(any_src))]


@st.composite
def programs(draw):
    instrs: list[Instruction] = []
    for item in draw(st.lists(random_instr(), min_size=1, max_size=30)):
        if isinstance(item, list):
            instrs.extend(item)
        else:
            instrs.append(item)
    return instrs


@st.composite
def initial_regs(draw):
    return [0] + [draw(st.integers(0, M64)) for _ in range(31)]


def _run(instrs, regs, mode, **engine_kwargs):
    mem = FlatMemory()
    words = b"".join(encode(i).to_bytes(4, "little") for i in instrs)
    ecall = encode(Instruction(SPECS["ecall"])).to_bytes(4, "little")
    mem.write_bytes(TEXT, words + ecall)
    # deterministic, non-zero data buffer
    mem.write_bytes(BUF, bytes((i * 37 + 11) % 256 for i in range(4096)))
    cpu = CPUState(pc=TEXT, tid=1)
    cpu.regs = list(regs)
    cpu.regs[BUF_REG] = BUF
    engine = ExecutionEngine(mem, mode=mode, **engine_kwargs)
    stop = engine.run_quantum(cpu, 100_000_000)
    assert stop.kind is StopKind.SYSCALL, stop
    return cpu, mem


@settings(max_examples=150, deadline=None)
@given(programs(), initial_regs())
def test_dbt_matches_interpreter(instrs, regs):
    cpu_i, mem_i = _run(instrs, regs, "interp")
    cpu_d, mem_d = _run(instrs, regs, "dbt")
    assert cpu_i.regs == cpu_d.regs
    assert cpu_i.pc == cpu_d.pc
    assert mem_i.read_bytes(BUF, 4096) == mem_d.read_bytes(BUF, 4096)


@settings(max_examples=50, deadline=None)
@given(programs(), initial_regs())
def test_x0_never_modified(instrs, regs):
    cpu, _ = _run(instrs, regs, "dbt")
    assert cpu.regs[0] == 0


@settings(max_examples=50, deadline=None)
@given(programs(), initial_regs())
def test_all_registers_stay_64_bit(instrs, regs):
    cpu, _ = _run(instrs, regs, "dbt")
    assert all(0 <= r <= M64 for r in cpu.regs)


@settings(max_examples=100, deadline=None)
@given(programs(), initial_regs())
def test_fused_dbt_matches_interpreter(instrs, regs):
    """Idiom fusion must never change architectural state, whatever
    random combination of fusable pairs the generator produces."""
    cpu_i, mem_i = _run(instrs, regs, "interp")
    cpu_f, mem_f = _run(instrs, regs, "dbt", fusion=True)
    assert cpu_i.regs == cpu_f.regs
    assert cpu_i.pc == cpu_f.pc
    assert mem_i.read_bytes(BUF, 4096) == mem_f.read_bytes(BUF, 4096)


# -- hot-path identity on looping programs -----------------------------------
#
# Hypothesis programs are straight-line, so superblocks barely
# trigger.  These crafted loops exercise every hot-path feature at once and
# diff the full architectural state against the interpreter.

HOT_LOOP = """
_start:
  li s0, 0
  li t0, 0
  li t6, 300
outer:
  la t2, table
  andi t3, t0, 7
  slli t3, t3, 3
  add t2, t2, t3
  ld t4, 0(t2)
  add s0, s0, t4
  addi t0, t0, 1
  slt t5, t0, t6
  bne t5, zero, outer
  ecall
.data
table: .quad 3, 1, 4, 1, 5, 9, 2, 6
"""

SPIN_LOOP = """
_start:
  la a0, cell
  li s0, 0
  li t0, 0
  li t6, 40
loop:
take:
  lr t1, (a0)
  bne t1, zero, take
  li t1, 1
  sc t2, t1, (a0)
  bne t2, zero, take
  ld t3, 0(a0)
  add s0, s0, t3
  sd zero, 0(a0)
  addi t0, t0, 1
  slt t5, t0, t6
  bne t5, zero, loop
  ecall
.data
.align 8
cell: .quad 0
"""


def _run_asm(source, mode, **engine_kwargs):
    prog = assemble(source)
    mem = FlatMemory()
    mem.load_image(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
    engine = ExecutionEngine(mem, mode=mode, **engine_kwargs)
    stop = engine.run_quantum(cpu, 1_000_000_000)
    assert stop.kind is StopKind.SYSCALL, stop
    return cpu, engine


class TestHotPathIdentity:
    HOT = dict(superblock_threshold=8, superblock_max_blocks=8, fusion=True)

    def test_hot_loop_identical_under_full_hot_path(self):
        ref, _ = _run_asm(HOT_LOOP, "interp")
        hot, engine = _run_asm(HOT_LOOP, "dbt", **self.HOT)
        assert hot.regs == ref.regs and hot.pc == ref.pc
        # and the hot path actually engaged, this is not a vacuous pass:
        assert engine.superblocks_formed >= 1
        assert engine.fusion_hits.get("cmp_branch", 0) > 0
        assert engine.fusion_hits.get("load_op", 0) > 0

    def test_spin_loop_identical_under_full_hot_path(self):
        ref, _ = _run_asm(SPIN_LOOP, "interp")
        hot, engine = _run_asm(SPIN_LOOP, "dbt", **self.HOT)
        assert hot.regs == ref.regs and hot.pc == ref.pc
        assert engine.fusion_hits.get("atomic_branch", 0) > 0

    def test_each_feature_alone_is_identical(self):
        ref, _ = _run_asm(HOT_LOOP, "interp")
        for kwargs in (
            dict(fusion=True),
            dict(superblock_threshold=4),
            dict(superblock_threshold=2, superblock_max_blocks=3),
        ):
            got, _ = _run_asm(HOT_LOOP, "dbt", **kwargs)
            assert got.regs == ref.regs and got.pc == ref.pc, kwargs
