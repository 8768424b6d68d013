"""Scheduled micro-op programs: emission, refresh insertion, audits, JSON.

A compiled program is a straight-line sequence of micro-ops for one
sub-array: constant writes, operand writes, one LOGIC op per netlist gate
in topological order, and one READ per program output.  Each LOGIC op
carries the netlist ``node`` it computes and each READ the ``output`` it
senses, so the ops alone are the program.  A program holds them in one
``OpTable``: ``emit_ops`` writes its columns, timed back to back from
t=0, and the audits, the level replay, the op totals and both writers
read them; no path builds a ``MicroOp`` unless a caller indexes or
iterates the table.  A program file's op entries are checked by the op
rules as they load; the compiler's ops are valid by construction.
Refresh insertion splices REFRESH ops in
front of any op that would otherwise consume a value older than the
logic retention budget, plus (for very long programs) wherever a live
value would outlive the read retention window and become unrefreshable;
a moved op keeps its columns with a new start.
A value is live only while a later op consumes it: once its last consumer
has fired it is never refreshed, even before its row is rewritten.
Insertion is greedy latest-possible: a refresh lands immediately before
the op that needs it, never earlier than required, found with a heap of
read deadlines in O((ops + refreshes) * log rows).  The retention-age
rule (``_age_rule``) is defined once and read by two loops: insertion,
which keeps each row's ``t_valid`` as it places ops, and one replay of the
whole table, ``PimProgram.senses``, which the audits and the worst-case
level replay (``level_intervals``) read.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from gcpim.charge import (ConfigError, ModelConfig, decay_scalar, known_keys, overdrive_scalar,
                          residual_scalar)
from gcpim.subarray import OpKind, OpTable, TimingEnergyConfig, _check_op
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
            raise ConfigError(f"max_nor_arity {self.max_nor_arity} out of range for {self.rows} "
                              "rows: needs 2 <= max_nor_arity and rows >= max_nor_arity + 3")


@dataclass(frozen=True)
class PimProgram:
    """Timestamped micro-op program plus the metadata to run and audit it."""

    ops: OpTable  # a sequence of MicroOps is stored as its table
    netlist: NorNetlist
    timing: TimingEnergyConfig
    drt_logic_ns: int
    drt_read_ns: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", OpTable.of(self.ops))

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.netlist.inputs

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.netlist.outputs)

    @property
    def n_refresh(self) -> int:
        return self.ops.kind.count(_REFRESH)

    @property
    def duration_ns(self) -> int:
        if not self.ops:
            return 0
        return self.ops.start[-1] + self.timing.duration_ns(self.ops.kind[-1])

    @property
    def energy_fj(self) -> float:
        # correctly rounded, so it equals the ledger's ``read_totals`` on any Python
        energy = self.timing.op_energies_fj(self.cols)
        return math.fsum([energy[kind, len(rows) == 1]
                          for kind, rows in zip(self.ops.kind, self.ops.rows)])

    @cached_property
    def source_nodes(self) -> dict[str, int]:  # a WRITE's source -> the node it stores
        return {f"input:{n.name}" if n.op == "input" else f"const:{n.value}": i
                for i, n in enumerate(self.netlist.nodes) if n.op != "nor"}

    @cached_property
    def senses(self) -> "Senses":
        """Every row an op senses, by one replay of the ages, on first use."""
        return _replay(self)

    @property
    def peak_rows(self) -> int:
        """1 + the highest value row (below the two constant rows) any op
        touches.  The allocator takes the lowest free row, so this is its
        peak liveness."""
        values = self.rows - 2
        return 1 + max((r for r in chain(chain.from_iterable(self.ops.rows), self.ops.out_row)
                        if r is not None and r < values), default=-1)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        ops = [{"op": kind.value, "rows": list(rows), "t_start_ns": start, **{
            key: value for key, value in (("out_row", out_row), ("source", source),
                                          ("node", node), ("output", output)) if value is not None}}
               for kind, rows, out_row, source, start, node, output in zip(*self.ops.columns)]
        return {**self._header_dict(), "netlist": self.netlist.to_json_dict(), "ops": ops}

    def _header_dict(self) -> dict:
        return {
            "format": PROGRAM_FORMAT,
            "version": PROGRAM_VERSION,
            "rows": self.rows,
            "cols": self.cols,
            "drt_logic_ns": self.drt_logic_ns,
            "drt_read_ns": self.drt_read_ns,
            "timing_energy": asdict(self.timing),
        }

    def to_json(self, path) -> None:
        """One JSON object: everything but the ops on the first line, then
        ``"ops"`` last with one compact op per line, so files diff op by op.
        Both are what the sorted compact encoder writes for ``to_json_dict``;
        the netlist's nodes and the ops fill one ``%`` template each."""
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        header, net = self._header_dict(), self.netlist
        nodes = ",".join(_node_lines(net.nodes))
        netlist = (f'{{"inputs":{encode(list(net.inputs))},"nodes":[{nodes}],'
                   f'"outputs":{encode([list(o) for o in net.outputs])}}}')
        before = encode({k: v for k, v in header.items() if k < "netlist"})[:-1]
        after = encode({k: v for k, v in header.items() if k > "netlist"})[1:-1]
        ops = ",\n".join(_op_lines(self.ops))
        with open(path, "w") as fh:
            fh.write(f'{before},"netlist":{netlist},{after},"ops":[\n{ops}\n]}}\n')

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
            return PimProgram(ops=_op_table(data["ops"]),
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


def _node_lines(nodes) -> list[str]:
    """Each node's ``NorNetlist.to_json_dict`` entry as the sorted compact
    encoder writes it; a NOR node fills one ``%`` template per arity."""
    lines, templates = [], {}
    for n in nodes:
        if n.op == "nor":
            template = templates.get(len(n.args)) or templates.setdefault(
                len(n.args), '{"args":[%s],"op":"nor"}' % ",".join(["%d"] * len(n.args)))
            lines.append(template % n.args)
        elif n.op == "input":
            lines.append('{"name":%s,"op":"input"}' % encode_basestring_ascii(n.name))
        else:
            lines.append('{"op":"const","value":%d}' % n.value)
    return lines


def _line_template(kind: OpKind, n_rows: int, node: bool, output: bool) -> str:
    """The ``%`` template of an op line, keys in sorted order: a WRITE has a
    source and a LOGIC op an out_row, and no other op has either."""
    return "{" + ",".join(text for text, present in (
        ('"node":%d', node), (f'"op":{json.dumps(kind.value)}', True),
        ('"out_row":%d', kind is _LOGIC), ('"output":%s', output),
        (f'"rows":[{",".join(["%d"] * n_rows)}]', True), ('"source":%s', kind is _WRITE),
        ('"t_start_ns":%d', True)) if present) + "}"


def _op_lines(ops: OpTable) -> list[str]:
    """Each op's ``to_json_dict`` entry as the sorted compact encoder writes
    it (ints and strings, as tables hold), filled in one ``%``."""
    lines, templates = [], {}
    for kind, rows, out_row, source, start, node, output in zip(*ops.columns):
        key = kind, len(rows), node is not None, output is not None
        template = templates.get(key) or templates.setdefault(key, _line_template(*key))
        if kind is _LOGIC:
            values = (out_row, *rows) if node is None else (node, out_row, *rows)
        elif kind is _WRITE:
            values = (*rows, encode_basestring_ascii(source))
        else:  # a READ, of an output or not, or a REFRESH
            values = rows if output is None else (encode_basestring_ascii(output), *rows)
        lines.append(template % (*values, start))
    return lines


_OP_KIND = {kind.value: kind for kind in OpKind}
_OP_KEYS = frozenset(("op", "rows", "t_start_ns", "out_row", "source", "node", "output"))
_INT, _INT_OR_NONE, _STR_OR_NONE = {int}, (int, type(None)), (str, type(None))


def _op_table(entries: list) -> OpTable:
    """The op entries as a table, each entry checked as it is read, in this
    order: its field types (``type(True)`` is bool, not int, so a wrong-typed
    value is refused on load instead of crashing an audit), its op, the op
    rules (``_check_op``) and its keys.  An absent optional field reads as
    None.  The first bad entry names the error."""
    records = []
    for entry in entries:
        get = entry.get
        rows, start = entry["rows"], entry["t_start_ns"]
        out_row, node, source, output = get("out_row"), get("node"), get("source"), get("output")
        if not (type(rows) is list and type(start) is int
                and type(out_row) in _INT_OR_NONE and type(node) in _INT_OR_NONE
                and type(source) in _STR_OR_NONE and type(output) in _STR_OR_NONE
                and _INT.issuperset(map(type, rows))):
            raise TypeError(f"op {entry}")
        kind = _OP_KIND.get(entry["op"])
        if kind is None:
            raise ValueError(f"unknown op {entry['op']!r}")
        record = (kind, tuple(rows), out_row, source, start, node, output)
        _check_op(*record)
        if not _OP_KEYS.issuperset(entry):
            raise ValueError(f"op entry has unknown keys {sorted(entry.keys() - _OP_KEYS)}")
        records.append(record)
    return OpTable(*(list(zip(*records)) or [()] * 7))


def emit_ops(netlist: NorNetlist, assignment: RowAssignment,
             timing: TimingEnergyConfig) -> OpTable:
    """Constants, operands, gates, output reads, back to back from t=0."""
    t_write, t_logic, t_read = timing.t_write_ns, timing.t_logic_ns, timing.t_read_ns
    writes = [(assignment.const_rows[v], f"const:{v}") for v in sorted(assignment.const_rows)]
    writes += [(assignment.input_rows[name], f"input:{name}") for name in netlist.inputs]
    row_of, nodes, gates = assignment.row_of, netlist.nodes, netlist.gate_ids()
    outputs = netlist.outputs
    w, g, r = len(writes), len(gates), len(outputs)
    t_gates, t_reads = w * t_write, w * t_write + g * t_logic
    return OpTable(
        [_WRITE] * w + [_LOGIC] * g + [_READ] * r,
        [(row,) for row, _ in writes] + [tuple(map(row_of.__getitem__, nodes[nid].args))
                                        for nid in gates] + [(row_of[nid],) for _, nid in outputs],
        [None] * w + [row_of[nid] for nid in gates] + [None] * r,
        [source for _, source in writes] + [None] * (g + r),
        [i * t_write for i in range(w)] + [t_gates + i * t_logic for i in range(g)]
        + [t_reads + i * t_read for i in range(r)],
        [None] * w + gates + [None] * r,
        [None] * (w + g) + [name for name, _ in outputs])


def _age_rule(timing: TimingEnergyConfig) -> tuple[dict, dict]:
    """The one retention-age rule, per kind.  READ and REFRESH sense their
    row at pulse start and LOGIC its input rows when evaluation begins:
    ``t_start + sense_offset``.  The row an op writes (WRITE, REFRESH,
    LOGIC output) is fresh from the end of its pulse: ``t_start + duration``."""
    return ({k: timing.t_init_ns if k is _LOGIC else 0 for k in OpKind},
            {k: timing.duration_ns(k) for k in OpKind})


class Senses(NamedTuple):
    """One entry per row an op senses, in op order, then row order."""

    op: tuple[int, ...]
    row: tuple[int, ...]
    t: tuple[int, ...]  # the sense instant
    age: tuple[int | None, ...]  # t minus when the row was fresh from; None if never written
    # the netlist node the row holds (a REFRESH keeps it); None if anonymous or never written
    held: tuple[int | None, ...]


def _replay(program: "PimProgram") -> Senses:
    """``_age_rule`` over the table, op by op, and each row's node."""
    ops, sources = program.ops, program.source_nodes
    sense_offset, duration = _age_rule(program.timing)
    t_valid, held, columns = {}, {}, ([], [], [], [], [])
    s_op, s_row, s_t, s_age, s_held = columns
    for i, (kind, rows, out_row, source, start, node) in enumerate(zip(
            ops.kind, ops.rows, ops.out_row, ops.source, ops.start, ops.node)):
        if kind is _WRITE:
            t_valid[rows[0]], held[rows[0]] = start + duration[kind], sources.get(source)
            continue
        t = start + sense_offset[kind]
        for row in rows:
            s_op.append(i)
            s_row.append(row)
            s_t.append(t)
            s_age.append(t - t_valid[row] if row in t_valid else None)
            s_held.append(held.get(row))
        if kind is _LOGIC:
            t_valid[out_row], held[out_row] = start + duration[kind], node
        elif kind is _REFRESH:
            t_valid[rows[0]] = start + duration[kind]
    return Senses(*map(tuple, columns))


def _levels(program: "PimProgram", model: ModelConfig):
    """``level_intervals`` without the ops: ``(op_index, lo1, hi0)``.  A
    sensed row's ``fade`` is ``decay_scalar(1.0, age, tau)``, so ``v * fade``
    is ``decay_scalar(v, age, tau)`` to the bit; one exp per sensed row
    instead of one per level takes about 15% off the XOR chain's replay."""
    tau, v_t, rails = model.tau_ns, model.v_t_drive, (model.vdd, 0.0)
    ops, ages, k = program.ops, program.senses.age, 0
    levels = {}  # row -> (lo1, hi0) at its t_valid
    for i, (kind, rows, out_row) in enumerate(zip(ops.kind, ops.rows, ops.out_row)):
        if kind is _LOGIC:
            total, weakest = 0.0, float("inf")
            for row in rows:
                lo1, hi0 = levels.get(row, (0.0, 0.0))
                fade, k = decay_scalar(1.0, ages[k] or 0, tau), k + 1
                total += overdrive_scalar(hi0 * fade, v_t)
                drive = overdrive_scalar(lo1 * fade, v_t)
                if drive < weakest:
                    weakest = drive
            levels[out_row] = (residual_scalar(total, model), residual_scalar(weakest, model))
        elif kind is _WRITE:
            levels[rows[0]] = rails
        else:  # a READ or REFRESH senses its row
            lo1, hi0 = levels.get(rows[0], (0.0, 0.0))
            fade, k = decay_scalar(1.0, ages[k] or 0, tau), k + 1
            yield i, lo1 * fade, hi0 * fade
            if kind is _REFRESH:
                levels[rows[0]] = rails


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
    return ((i, program.ops[i], lo1, hi0) for i, lo1, hi0 in _levels(program, model))


def worst_margin(program: "PimProgram", model: ModelConfig) -> tuple[float, int | None]:
    """The smallest ``min(lo1 - v_sa_read, v_sa_read - hi0)`` (volts) of
    ``level_intervals`` and its first op index; (inf, None) if none."""
    v = model.v_sa_read
    return min(((min(lo1 - v, v - hi0), i) for i, lo1, hi0 in _levels(program, model)),
               default=(float("inf"), None))


def insert_refresh(program: "PimProgram") -> "PimProgram":
    """Splice in the refreshes needed to honor the program's retention
    budgets.

    Every consumed value must be at most drt_logic_ns old at its
    consumption instant, and every live value must stay young enough
    (drt_read_ns) that a refresh can still sense it correctly.
    Timestamps are recomputed from t=0; the result is a new program whose
    table takes each kept op's columns with its new start (the table
    itself when no op moved).

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
    kinds, rows_of, out_rows = ops.kind, ops.rows, ops.out_row
    last_use = [-1] * len(ops)
    consumer: dict[int, int] = {}  # row -> last consumer of its next value
    for i in reversed(range(len(ops))):
        kind = kinds[i]
        if kind is _WRITE or kind is _LOGIC:
            last_use[i] = consumer.pop(out_rows[i] if kind is _LOGIC else rows_of[i][0], -1)
        if kind is _READ or kind is _LOGIC:
            for r in rows_of[i]:
                consumer.setdefault(r, i)

    picks: list[int] = []  # per new op, its index in ops, or ~row for a refresh of row
    starts: list[int] = []
    t = 0
    sense_offset, duration = _age_rule(timing)
    t_valid: dict[int, int] = {}  # row -> the instant its value is fresh from
    deadlines: list[tuple[int, int]] = []  # (t_valid, row) per row write
    dies: dict[int, int] = {}  # row -> last_use of the value it holds

    def emit_refresh(row: int) -> None:
        nonlocal t
        age = t + sense_offset[_REFRESH] - t_valid[row]  # due and stale rows were written
        if age > drt_read:
            raise RefreshScheduleError(
                f"row {row} is {age}ns old at t={t}ns; its "
                f"refresh would sense garbage (limit {drt_read}ns)")
        picks.append(~row)
        starts.append(t)
        t_valid[row] = written = t + duration[_REFRESH]
        heapq.heappush(deadlines, (written, row))
        t += timing.t_refresh_ns

    for i, (kind, rows) in enumerate(zip(kinds, rows_of)):
        if kind is _REFRESH:
            # re-inserting over an already-refreshed program: drop old
            # refreshes, they are re-derived below
            continue
        dur, offset = duration[kind], sense_offset[kind]
        t_op = t
        due, seen = set(), set()  # rows due now; loop states past t_op's logic window
        while True:
            while deadlines and deadlines[0][0] + drt_read < t + dur:
                written, row = heapq.heappop(deadlines)
                if t_valid[row] == written and dies[row] > i:
                    due.add(row)
            if kind is not _WRITE:  # the rows it senses past the logic window
                oldest = t + offset - budget
                due.update(r for r in rows if t_valid.get(r, oldest) < oldest)
            if not due:
                break
            # once no value written before t_op is fresh enough, every
            # input needs a refresh, and refreshes t_refresh_ns apart
            # cannot fit them all in the window: this loop would not end
            span = timing.t_refresh_ns * (len(set(rows)) - 1) + offset
            if t + offset - budget > t_op:
                if span > budget:
                    raise RefreshScheduleError(
                        f"op {i} senses rows {sorted(set(rows))} at t={t}ns; refreshing "
                        f"them takes {span}ns, more than the {budget}ns logic window")
                # from here on the loop reads only the due rows and the live
                # rows' ages (alike past drt_read): a state seen before recurs forever
                state = (frozenset(due), tuple((r, min(t - v, drt_read + 1)) for r, v
                                               in t_valid.items() if r in rows or dies[r] > i))
                if state in seen:
                    raise RefreshScheduleError(
                        f"op {i} never starts: {len(state[1])} live rows, refreshed "
                        f"{timing.t_refresh_ns}ns apart, outlast the {drt_read}ns read window")
                seen.add(state)
            emit_refresh(row := min(due))
            due.discard(row)
        picks.append(i)
        starts.append(t)
        if kind is not _READ:
            row = out_rows[i] if kind is _LOGIC else rows[0]
            t_valid[row] = written = t + dur
            heapq.heappush(deadlines, (written, row))
            dies[row] = last_use[i]
        t += dur

    if len(picks) == len(ops) and tuple(starts) == ops.start and min(picks, default=0) >= 0:
        return replace(program, ops=ops)
    out_row, source, node, output = ([column[j] if j >= 0 else None for j in picks]
                                     for column in (out_rows, ops.source, ops.node, ops.output))
    return replace(program, ops=OpTable(
        [kinds[j] if j >= 0 else _REFRESH for j in picks],
        [rows_of[j] if j >= 0 else (~j,) for j in picks],
        out_row, source, starts, node, output))


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
    ops, budget, drt_read = program.ops, program.drt_logic_ns, program.drt_read_ns
    _, duration = _age_rule(program.timing)
    violations = [
        AuditViolation(i, start, None, "overlap",
                       f"op {i} starts at {start}ns, before op {i - 1} "
                       f"ends at {prev + duration[kind]}ns")
        for i, (kind, prev, start) in enumerate(zip(ops.kind, ops.start, ops.start[1:]), 1)
        if start < prev + duration[kind]]
    s, limit = program.senses, min(budget, drt_read)  # a violating age is None or past it
    for j in [j for j, age in enumerate(s.age) if age is None or age > limit]:
        i, row, t, age = s.op[j], s.row[j], s.t[j], s.age[j]
        refresh = ops.kind[i] is _REFRESH
        if age is None:
            violations.append(AuditViolation(
                i, t, row, "unwritten",
                f"refresh of never-written row {row}" if refresh
                else f"row {row} consumed before any write"))
        elif refresh and age > drt_read:
            violations.append(AuditViolation(
                i, t, row, "stale-refresh",
                f"refresh senses row {row} at age {age}ns (> {drt_read}ns)"))
        elif not refresh and age > budget:
            violations.append(AuditViolation(
                i, t, row, "stale-value",
                f"row {row} consumed at age {age}ns (> {budget}ns)"))
    return violations


def audit_row_soundness(program: PimProgram) -> list[AuditViolation]:
    """Every consumed row must hold the netlist value the op was compiled
    against (``held`` in ``program.senses``), and every output must be read.
    Rows outside the array and names the netlist lacks are violations
    too, so a malformed file is caught before any array runs."""
    netlist, ops, n_rows = program.netlist, program.ops, program.rows
    sources, output_map, held = program.source_nodes, netlist.output_map, program.senses.held
    gates = set(netlist.gate_ids())
    violations: list[AuditViolation] = []
    k = 0  # op i's sensed rows hold held[k:k + len(rows)]; a WRITE senses none

    def flag(i: int, row, kind: str, message: str) -> None:
        violations.append(AuditViolation(i, ops.start[i], row, kind, message))

    for i, (kind, rows, out_row, source, node, output) in enumerate(zip(
            ops.kind, ops.rows, ops.out_row, ops.source, ops.node, ops.output)):
        for row in rows if out_row is None else (*rows, out_row):
            if not 0 <= row < n_rows:
                flag(i, row, "outside-array", f"row {row} is outside the {n_rows}-row array")
        if kind is _WRITE:
            if source not in sources:
                flag(i, rows[0], "unknown-name", f"write of unknown source {source!r}")
            continue
        found, k = held[k:k + len(rows)], k + len(rows)
        if kind is _LOGIC and node is not None:
            if node not in gates:
                flag(i, out_row, "unknown-name",
                     f"LOGIC computes node {node!r}, not a gate of the netlist")
            # a compiled op's rows hold its node's args in order
            elif found != (expected := netlist.nodes[node].args) and set(found) != set(expected):
                flag(i, out_row, "clobbered",
                     f"gate {node} reads rows holding {sorted(map(str, set(found)))}, "
                     f"expected nodes {sorted(set(expected))}")
        elif kind is _READ and output is not None:
            expected = output_map.get(output)
            if expected is None:
                flag(i, rows[0], "unknown-name",
                     f"READ senses output {output!r}, not an output of the netlist")
            elif found[0] != expected:
                flag(i, rows[0], "clobbered",
                     f"row {rows[0]} holds node {found[0]}, expected node {expected}")
    for name in sorted(set(output_map) - set(ops.output)):
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
        ops=emit_ops(netlist, allocate_rows(netlist, cfg.rows - 2), timing),
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
