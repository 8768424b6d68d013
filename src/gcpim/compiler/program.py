"""Scheduled micro-op programs: emission, refresh insertion, audits, JSON.

A compiled program is a straight-line sequence of micro-ops for one
sub-array: constant writes, operand writes, one LOGIC op per netlist gate
in topological order, and one READ per program output.  Each LOGIC op
carries the netlist ``node`` it computes and each READ the ``output`` it
senses, so the op list alone is the program.  ``emit_ops`` builds each op
once, timed back to back from t=0, and the program, its JSON file and a
run's ledger hold that op.  Refresh insertion splices REFRESH ops in
front of any op that would otherwise consume a value older than the
logic retention budget, plus (for very long programs) wherever a live
value would outlive the read retention window and become unrefreshable;
it re-stamps only the ops whose start moved.
A value is live only while a later op consumes it: once its last consumer
has fired it is never refreshed, even before its row is rewritten.
Insertion is greedy latest-possible: a refresh lands immediately before
the op that needs it, never earlier than required, found with a heap of
read deadlines in O((ops + refreshes) * log rows).  Insertion drives the
retention-age rule (``_RowAges``) op by op; the audits and the worst-case
level replay (``level_intervals``) read one replay of it, ``PimProgram.senses``.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii

from gcpim.charge import (ConfigError, ModelConfig, decay_scalar, known_keys,
                          overdrive_scalar, residual_scalar)
from gcpim.subarray import MicroOp, OpKind, TimingEnergyConfig
from gcpim.compiler.allocate import RowAssignment, allocate_rows
from gcpim.compiler.expr import parse_program
from gcpim.compiler.netlist import NorNetlist, lower_program

__all__ = [
    "AuditViolation",
    "CompilerConfig",
    "MalformedProgramError",
    "PimProgram",
    "RefreshScheduleError",
    "audit_refresh_safety",
    "audit_row_soundness",
    "compile_program",
    "emit_ops",
    "insert_refresh",
    "level_intervals",
    "worst_margin",
]

# the members as globals: in Python 3.11 an Enum class attribute read costs ~0.1 us
_WRITE, _READ, _REFRESH, _LOGIC = OpKind

PROGRAM_FORMAT = "gcpim-program"
PROGRAM_VERSION = 2


class MalformedProgramError(ValueError):
    """A program file that does not describe a sound program."""


class RefreshScheduleError(RuntimeError):
    """A required refresh could not be placed while its row was still
    readable, an op's stale inputs cannot all be refreshed inside the
    logic window, or refreshing the live rows never leaves room for the
    next op.  Greedy latest-possible placement hits the first at
    tight windows with refresh bandwidth to spare, e.g. ripple-32 (256
    rows) at drt_read_ns/drt_logic_ns = 1000/300: inputs written back to
    back expire together.  Ripple-8 at 400/100 compiles (19 refreshes)."""


@dataclass(frozen=True)
class CompilerConfig:
    """Array shape and lowering knobs.  The last two rows hold the
    constants, the first ``rows - 2`` the program's values."""

    rows: int = 64
    cols: int = 64
    max_nor_arity: int = 2
    insert_refreshes: bool = True

    def __post_init__(self) -> None:
        if self.rows < 4 or self.cols < 1:
            raise ConfigError(f"implausible array shape {self.rows}x{self.cols}")
        if not (2 <= self.max_nor_arity <= self.rows - 3):
            raise ConfigError("max_nor_arity out of range for the row budget")


@dataclass(frozen=True)
class PimProgram:
    """Timestamped micro-op program plus the metadata to run and audit it."""

    ops: tuple[MicroOp, ...]
    netlist: NorNetlist
    timing: TimingEnergyConfig
    drt_logic_ns: int
    drt_read_ns: int
    rows: int
    cols: int

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.netlist.inputs

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.netlist.outputs)

    @property
    def n_refresh(self) -> int:
        return sum(1 for op in self.ops if op.kind is _REFRESH)

    @property
    def duration_ns(self) -> int:
        if not self.ops:
            return 0
        last = self.ops[-1]
        return last.t_start_ns + self.timing.duration_ns(last.kind)

    @property
    def energy_fj(self) -> float:
        # correctly rounded, so it equals the ledger's ``read_totals`` on any Python
        energy = self.timing.op_energies_fj(self.cols)
        return math.fsum([energy[op.kind, len(op.rows) == 1] for op in self.ops])

    @cached_property
    def source_nodes(self) -> dict[str, int]:  # a WRITE's source -> the node it stores
        return {f"input:{n.name}" if n.op == "input" else f"const:{n.value}": i
                for i, n in enumerate(self.netlist.nodes) if n.op != "nor"}

    @cached_property
    def senses(self) -> list[list[tuple[int, int, int | None, int | None]]]:
        """Per op, ``(row, t_sense, age, held)`` per row it senses, as
        ``_RowAges.sensed`` plus ``held``: the row's netlist node (a REFRESH
        keeps it), None if anonymous or unwritten.  One replay, on first use."""
        sources, held = self.source_nodes, {}
        ages, table = _RowAges(self.timing), []
        offset, t_valid = ages.sense_offset, ages.t_valid
        for op in self.ops:
            if op.kind is _WRITE:  # senses nothing
                table.append([])
                held[op.rows[0]] = sources.get(op.source)
            else:  # sensed() inlined, each row's tuple built once
                t = op.t_start_ns + offset[op.kind]
                table.append([(r, t, t - t_valid[r] if r in t_valid else None, held.get(r))
                              for r in op.rows])
                if op.kind is _LOGIC:
                    held[op.out_row] = op.node
            ages.commit(op, op.t_start_ns)
        return table

    @property
    def peak_rows(self) -> int:
        """1 + the highest value row (below the two constant rows) any op
        touches.  The allocator takes the lowest free row, so this is its
        peak liveness."""
        values = self.rows - 2
        return 1 + max((r for op in self.ops for r in (*op.rows, op.out_row)
                        if r is not None and r < values), default=-1)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        ops = []
        for op in self.ops:
            entry: dict = {"op": op.kind.value, "rows": list(op.rows),
                           "t_start_ns": op.t_start_ns}
            for key in ("out_row", "source", "node", "output"):
                if getattr(op, key) is not None:
                    entry[key] = getattr(op, key)
            ops.append(entry)
        return {**self._header_dict(), "ops": ops}

    def _header_dict(self) -> dict:
        return {
            "format": PROGRAM_FORMAT,
            "version": PROGRAM_VERSION,
            "rows": self.rows,
            "cols": self.cols,
            "drt_logic_ns": self.drt_logic_ns,
            "drt_read_ns": self.drt_read_ns,
            "timing_energy": asdict(self.timing),
            "netlist": self.netlist.to_json_dict(),
        }

    def to_json(self, path) -> None:
        """One JSON object: everything but the ops on the first line, then
        ``"ops"`` last with one compact op per line, so files diff op by op."""
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        ops = ",\n".join(map(_op_line, self.ops))
        with open(path, "w") as fh:
            fh.write(f'{encode(self._header_dict())[:-1]},"ops":[\n{ops}\n]}}\n')

    @staticmethod
    def from_json_dict(data: dict) -> "PimProgram":
        """Reads versions 1 and 2 alike: version 1's ``row_assignment``
        and ``stats`` were derived data and are ignored.  Raises
        MalformedProgramError saying what is wrong for a missing key, a
        wrong-typed value, an empty array, retention windows outside
        ``0 < drt_logic_ns <= drt_read_ns`` or an op, netlist or timing
        section that breaks its own rules."""
        try:
            if data.get("format") != PROGRAM_FORMAT:
                raise ValueError("not a compiled program file")
            if data.get("version") not in (1, PROGRAM_VERSION):
                raise ValueError(f"unsupported program version {data.get('version')}")
            timing = TimingEnergyConfig(**known_keys(
                "timing_energy", TimingEnergyConfig, data["timing_energy"]))
            header = {key: data[key] for key in ("rows", "cols", "drt_logic_ns",
                                                 "drt_read_ns")}
            if not all(type(value) is int for value in header.values()):
                raise TypeError(f"header {header}")
            if min(header["rows"], header["cols"]) <= 0:
                raise ValueError(f"a {header['rows']}x{header['cols']} array has no cells")
            if not 0 < header["drt_logic_ns"] <= header["drt_read_ns"]:
                raise ValueError(f"need 0 < drt_logic_ns <= drt_read_ns, got "
                                 f"{header['drt_logic_ns']} and {header['drt_read_ns']}")
            return PimProgram(ops=tuple(map(_op_from_json, data["ops"])),
                              netlist=NorNetlist.from_json_dict(data["netlist"]),
                              timing=timing, **header)
        except KeyError as exc:
            raise MalformedProgramError(f"program file lacks the {exc} key") from exc
        except (TypeError, AttributeError) as exc:
            raise MalformedProgramError(
                f"program file holds a wrong-typed value: {exc}") from exc
        except ValueError as exc:
            raise MalformedProgramError(str(exc)) from exc

    @staticmethod
    def from_json(path) -> "PimProgram":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise MalformedProgramError(f"{path}: JSON nests too deeply") from None
        return PimProgram.from_json_dict(data)


_OP_NAME = {kind: f'"op":{json.dumps(kind.value)}' for kind in OpKind}


def _op_line(op: MicroOp) -> str:
    """The op's ``to_json_dict`` entry as the sorted compact encoder writes
    it, for fields of ints and strings, as compiled and loaded ops hold."""
    line = "{"
    if op.node is not None:
        line += f'"node":{op.node},'
    line += _OP_NAME[op.kind]
    if op.out_row is not None:
        line += f',"out_row":{op.out_row}'
    if op.output is not None:
        line += f',"output":{encode_basestring_ascii(op.output)}'
    line += f',"rows":[{",".join(map(str, op.rows))}]'
    if op.source is not None:
        line += f',"source":{encode_basestring_ascii(op.source)}'
    return f'{line},"t_start_ns":{op.t_start_ns}}}'


_OP_KIND = {kind.value: kind for kind in OpKind}
_OP_KEYS = frozenset(("op", "rows", "t_start_ns", "out_row", "source", "node", "output"))
_INT, _INT_OR_NONE, _STR_OR_NONE = {int}, (int, type(None)), (str, type(None))


def _op_from_json(entry: dict) -> MicroOp:
    """An op entry with every field type-checked (``type(True)`` is bool,
    not int), so a wrong-typed value is refused on load instead of
    crashing an audit.  An absent optional field reads as None, and any
    other key is refused.  Each value is read once and the op is built
    from it positionally."""
    get = entry.get
    rows, t_start = entry["rows"], entry["t_start_ns"]
    out_row, node, source, output = get("out_row"), get("node"), get("source"), get("output")
    if not (type(rows) is list and type(t_start) is int
            and type(out_row) in _INT_OR_NONE and type(node) in _INT_OR_NONE
            and type(source) in _STR_OR_NONE and type(output) in _STR_OR_NONE
            and _INT.issuperset(map(type, rows))):
        raise TypeError(f"op {entry}")
    kind = _OP_KIND.get(entry["op"])
    if kind is None:
        raise ValueError(f"unknown op {entry['op']!r}")
    op = MicroOp(kind, tuple(rows), out_row, source, t_start, node, output)
    if not _OP_KEYS.issuperset(entry):  # after MicroOp, which names a WRITE without a source
        raise ValueError(f"op entry has unknown keys {sorted(entry.keys() - _OP_KEYS)}")
    return op


def emit_ops(netlist: NorNetlist, assignment: RowAssignment,
             timing: TimingEnergyConfig) -> list[MicroOp]:
    """Constants, operands, gates, output reads, back to back from t=0."""
    t_write, t_logic, t_read = timing.t_write_ns, timing.t_logic_ns, timing.t_read_ns
    writes = [(assignment.const_rows[v], f"const:{v}") for v in sorted(assignment.const_rows)]
    writes += [(assignment.input_rows[name], f"input:{name}") for name in netlist.inputs]
    ops = [MicroOp(_WRITE, (row,), source=source, t_start_ns=i * t_write)
           for i, (row, source) in enumerate(writes)]
    t, row_of, nodes = len(ops) * t_write, assignment.row_of, netlist.nodes
    gates = netlist.gate_ids()
    ops += [MicroOp(_LOGIC, tuple(map(row_of.__getitem__, nodes[nid].args)), row_of[nid],
                    None, t + i * t_logic, nid)  # positional: a keyword call costs more
            for i, nid in enumerate(gates)]
    t += len(gates) * t_logic
    ops += [MicroOp(_READ, (row_of[nid],), t_start_ns=t + i * t_read, output=name)
            for i, (name, nid) in enumerate(netlist.outputs)]
    return ops


class _RowAges:
    """The one retention-age rule.  READ and REFRESH sense their row at
    pulse start, LOGIC its input rows when evaluation begins.  The row
    an op writes (WRITE, REFRESH, LOGIC output) is fresh from the end of
    its pulse; ``t_valid`` maps each written row to that instant."""

    def __init__(self, timing: TimingEnergyConfig, heap: list | None = None) -> None:
        self.sense_offset = {k: timing.t_init_ns if k is _LOGIC else 0
                             for k in OpKind}
        self.duration = {k: timing.duration_ns(k) for k in OpKind}
        self.t_valid: dict[int, int] = {}
        self.heap = heap  # gets (t_valid, row) per write, if given

    def sensed(self, op: MicroOp, t_start: int) -> list[tuple[int, int, int | None]]:
        """(row, t_sense, age) per row the op senses when started at
        t_start; age is None for a row that was never written."""
        if op.kind is _WRITE:
            return []
        t = t_start + self.sense_offset[op.kind]
        t_valid = self.t_valid
        return [(r, t, t - t_valid[r] if r in t_valid else None) for r in op.rows]

    def commit(self, op: MicroOp, t_start: int) -> None:
        if op.kind is not _READ:
            row = op.out_row if op.kind is _LOGIC else op.rows[0]
            written = self.t_valid[row] = t_start + self.duration[op.kind]
            if self.heap is not None:
                heapq.heappush(self.heap, (written, row))


def level_intervals(program: "PimProgram", model: ModelConfig):
    """Worst-case level replay: yield ``(op_index, op, lo1, hi0)`` per READ
    and REFRESH, the weakest '1' and strongest '0' a nominal cell of the
    sensed row can hold at that instant, for any input vector.  WRITE and
    REFRESH store rails, a never-written row holds (0, 0).  A LOGIC '1'
    (every input '0') gets the residual of all inputs' summed overdrives
    at their ``hi0``, a '0' that of the smallest single-input overdrive at
    ``lo1``.  The laws are monotone, so ``hi0 < v_sa_read <= lo1`` means
    the sense reads the netlist value.  Ages come from ``program.senses``.
    """
    tau, v_t, rails = model.tau_ns, model.v_t_drive, (model.vdd, 0.0)
    levels = {}  # row -> (lo1, hi0) at its t_valid
    for i, (op, sensed) in enumerate(zip(program.ops, program.senses)):
        if op.kind is _LOGIC:
            total, weakest = 0.0, float("inf")
            for row, _, age, _ in sensed:
                lo1, hi0 = levels.get(row, (0.0, 0.0))
                total += overdrive_scalar(decay_scalar(hi0, age or 0, tau), v_t)
                drive = overdrive_scalar(decay_scalar(lo1, age or 0, tau), v_t)
                if drive < weakest:
                    weakest = drive
            levels[op.out_row] = (residual_scalar(total, model), residual_scalar(weakest, model))
        else:
            for row, _, age, _ in sensed:  # the row of a READ or REFRESH
                lo1, hi0 = levels.get(row, (0.0, 0.0))
                yield i, op, decay_scalar(lo1, age or 0, tau), decay_scalar(hi0, age or 0, tau)
            if op.kind is not _READ:
                levels[op.rows[0]] = rails


def worst_margin(program: "PimProgram", model: ModelConfig) -> tuple[float, int | None]:
    """The smallest ``min(lo1 - v_sa_read, v_sa_read - hi0)`` (volts) of
    ``level_intervals`` and its first op index; (inf, None) if none."""
    v = model.v_sa_read
    return min(((min(lo1 - v, v - hi0), i) for i, _, lo1, hi0 in level_intervals(program, model)),
               default=(float("inf"), None))


def insert_refresh(program: "PimProgram") -> "PimProgram":
    """Splice in the refreshes needed to honor the program's retention
    budgets.

    Every consumed value must be at most drt_logic_ns old at its
    consumption instant, and every live value must stay young enough
    (drt_read_ns) that a refresh can still sense it correctly.
    Timestamps are recomputed from t=0; the result is a new program that
    keeps every op whose start did not move and rebuilds the others,
    checked, at their new start.

    Each row write pushes ``(t_valid, row)`` on a deadline heap.  Before
    op i, entries due by its end are popped, dropped if the row was
    rewritten since or the value's last consumer (found in one backward
    pass) is not after op i: a value is refreshed only while a later op
    consumes it.  The due and stale rows are refreshed lowest row first:
    O((ops + refreshes) * log rows).
    Raises RefreshScheduleError when a refresh would sense an expired
    value, when an op's inputs can never all be fresh at once, or when
    refreshing the live rows returns to a state it was in: the op never starts.
    """
    budget, drt_read, timing = program.drt_logic_ns, program.drt_read_ns, program.timing

    # last_use[i]: index of the last op that consumes the value op i
    # writes, -1 if none does; one backward pass over the original ops
    ops = program.ops
    last_use = [-1] * len(ops)
    consumer: dict[int, int] = {}  # row -> last consumer of its next value
    for i, op in reversed(list(enumerate(ops))):
        if op.kind in (_WRITE, _LOGIC):
            last_use[i] = consumer.pop(op.out_row if op.kind is _LOGIC else op.rows[0], -1)
        if op.kind in (_READ, _LOGIC):
            for r in op.rows:
                consumer.setdefault(r, i)

    new_ops: list[MicroOp] = []
    t = 0
    deadlines: list[tuple[int, int]] = []  # (t_valid, row) per row write
    ages = _RowAges(timing, deadlines)
    dies: dict[int, int] = {}  # row -> last_use of the value it holds

    def emit_refresh(row: int) -> None:
        nonlocal t
        op = MicroOp(_REFRESH, (row,), t_start_ns=t)
        [(_, _, age)] = ages.sensed(op, t)
        if age > drt_read:
            raise RefreshScheduleError(
                f"row {row} is {age}ns old at t={t}ns; its "
                f"refresh would sense garbage (limit {drt_read}ns)")
        new_ops.append(op)
        ages.commit(op, t)
        t += timing.t_refresh_ns

    for i, op in enumerate(ops):
        if op.kind is _REFRESH:
            # re-inserting over an already-refreshed program: drop old
            # refreshes, they are re-derived below
            continue
        dur = ages.duration[op.kind]
        t_op = t
        due, seen = set(), set()  # rows due now; loop states past t_op's logic window
        while True:
            while deadlines and deadlines[0][0] + drt_read < t + dur:
                written, row = heapq.heappop(deadlines)
                if ages.t_valid[row] == written and dies[row] > i:
                    due.add(row)
            due.update([r for r, _, age in ages.sensed(op, t)
                        if age is not None and age > budget])
            if not due:
                break
            # once no value written before t_op is fresh enough, every
            # input needs a refresh, and refreshes t_refresh_ns apart
            # cannot fit them all in the window: this loop would not end
            offset = ages.sense_offset[op.kind]
            span = timing.t_refresh_ns * (len(set(op.rows)) - 1) + offset
            if t + offset - budget > t_op:
                if span > budget:
                    raise RefreshScheduleError(
                        f"op {i} senses rows {sorted(set(op.rows))} at t={t}ns; refreshing "
                        f"them takes {span}ns, more than the {budget}ns logic window")
                # from here on the loop reads only the due rows and the live
                # rows' ages (alike past drt_read): a state seen before recurs forever
                state = (frozenset(due), tuple((r, min(t - v, drt_read + 1)) for r, v
                                               in ages.t_valid.items() if r in op.rows or dies[r] > i))
                if state in seen:
                    raise RefreshScheduleError(
                        f"op {i} never starts: {len(state[1])} live rows, refreshed "
                        f"{timing.t_refresh_ns}ns apart, outlast the {drt_read}ns read window")
                seen.add(state)
            emit_refresh(row := min(due))
            due.discard(row)
        new_ops.append(op if op.t_start_ns == t else MicroOp(
            op.kind, op.rows, op.out_row, op.source, t, op.node, op.output))
        ages.commit(op, t)
        if op.kind is not _READ:
            dies[op.out_row if op.kind is _LOGIC else op.rows[0]] = last_use[i]
        t += dur

    return replace(program, ops=tuple(new_ops))


@dataclass(frozen=True)
class AuditViolation:
    op_index: int
    t_ns: int
    row: int | None
    kind: str
    message: str


def audit_refresh_safety(program: PimProgram) -> list[AuditViolation]:
    """Every op that starts before the previous one ends, then every sense
    in ``program.senses`` of a never-written row, of a consumed value older
    than the logic window or of a refreshed one older than the read window."""
    ops, duration = program.ops, program.timing.duration_ns
    violations = [
        AuditViolation(i, op.t_start_ns, None, "overlap",
                       f"op {i} starts at {op.t_start_ns}ns, before op {i - 1} "
                       f"ends at {prev.t_start_ns + duration(prev.kind)}ns")
        for i, (prev, op) in enumerate(zip(ops, ops[1:]), 1)
        if op.t_start_ns < prev.t_start_ns + duration(prev.kind)]
    for i, (op, sensed) in enumerate(zip(ops, program.senses)):
        refresh = op.kind is _REFRESH
        for row, t, age, _ in sensed:
            if age is None:
                violations.append(AuditViolation(
                    i, t, row, "unwritten",
                    f"refresh of never-written row {row}" if refresh
                    else f"row {row} consumed before any write"))
            elif refresh and age > program.drt_read_ns:
                violations.append(AuditViolation(
                    i, t, row, "stale-refresh",
                    f"refresh senses row {row} at age {age}ns (> {program.drt_read_ns}ns)"))
            elif not refresh and age > program.drt_logic_ns:
                violations.append(AuditViolation(
                    i, t, row, "stale-value",
                    f"row {row} consumed at age {age}ns (> {program.drt_logic_ns}ns)"))
    return violations


def audit_row_soundness(program: PimProgram) -> list[AuditViolation]:
    """Every consumed row must hold the netlist value the op was compiled
    against (``held`` in ``program.senses``), and every output must be
    read.  Rows outside the array and names the netlist lacks are
    violations too, so a malformed file is caught before any array runs."""
    netlist = program.netlist
    sources = program.source_nodes
    gates = set(netlist.gate_ids())
    output_map = netlist.output_map
    unread = set(output_map)
    violations: list[AuditViolation] = []

    def flag(i: int, op: MicroOp, row, kind: str, message: str) -> None:
        violations.append(AuditViolation(i, op.t_start_ns, row, kind, message))

    for i, (op, sensed) in enumerate(zip(program.ops, program.senses)):
        for row in (*op.rows, op.out_row):
            if row is not None and not 0 <= row < program.rows:
                flag(i, op, row, "outside-array",
                     f"row {row} is outside the {program.rows}-row array")
        if op.kind is _WRITE:
            if op.source not in sources:
                flag(i, op, op.rows[0], "unknown-name",
                     f"write of unknown source {op.source!r}")
        elif op.kind is _LOGIC:
            nid = op.node
            if nid is not None and nid not in gates:
                flag(i, op, op.out_row, "unknown-name",
                     f"LOGIC computes node {nid!r}, not a gate of the netlist")
            elif nid is not None:
                expected_args = set(netlist.nodes[nid].args)
                found_args = {held for _, _, _, held in sensed}
                if found_args != expected_args:
                    flag(i, op, op.out_row, "clobbered",
                         f"gate {nid} reads rows holding {sorted(map(str, found_args))}, "
                         f"expected nodes {sorted(expected_args)}")
        elif op.kind is _READ and op.output is not None:
            [(row, _, _, held)] = sensed
            expected = output_map.get(op.output)
            if expected is None:
                flag(i, op, row, "unknown-name",
                     f"READ senses output {op.output!r}, not an output of the netlist")
            elif held != expected:
                flag(i, op, row, "clobbered",
                     f"row {row} holds node {held}, expected node {expected}")
            unread.discard(op.output)
    for name in sorted(unread):
        violations.append(AuditViolation(len(program.ops), program.duration_ns, None,
                                         "unread-output", f"output {name!r} is never read"))
    return violations


def compile_program(
    source: str,
    compiler_cfg: CompilerConfig | None = None,
    model_cfg: ModelConfig | None = None,
    timing_cfg: TimingEnergyConfig | None = None,
) -> PimProgram:
    """Full pipeline on program text: parse, lower, allocate, emit, then
    insert refreshes unless ``compiler_cfg`` turns that off."""
    cfg = compiler_cfg or CompilerConfig()
    model = model_cfg or ModelConfig()
    timing = timing_cfg or TimingEnergyConfig()

    netlist = lower_program(parse_program(source), cfg.max_nor_arity)
    program = PimProgram(
        ops=tuple(emit_ops(netlist, allocate_rows(netlist, cfg.rows - 2), timing)),
        netlist=netlist,
        timing=timing,
        drt_logic_ns=model.drt_logic_ns,
        drt_read_ns=model.drt_read_ns,
        rows=cfg.rows,
        cols=cfg.cols,
    )
    if cfg.insert_refreshes:
        program = insert_refresh(program)
    return program
