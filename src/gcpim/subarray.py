"""Sub-array simulator: writes, nondestructive reads, refresh, and the
two-phase stateful logic pulse, plus the micro-op and event-ledger types.

The sub-array is 64x64 by default and keeps only cell state.  Every op
writes a whole row at one instant, so each row stores its cells'
voltages as of one ``last_update`` timestamp and is decayed on demand,
through ``charge.decay``, when an operation touches it; that is exact
for the single-pole decay law.  Reads sense through ``charge.sense``.
Per-cell variation (tau multiplier, drive offset) and per-column sense
thresholds are plain numpy grids so one operation evaluates a whole row
at once; the array keeps the first two only as the per-cell time
constants (``tau``) and drive thresholds (``v_drive``) it derives from
them once, when it is built.

``SubArray.run`` executes timestamped micro-ops, resolving each WRITE's
source itself; nominal runs, program Monte Carlo and gate campaigns all
drive the array through it, and a refresh is a read plus a write-back.
An op's time and energy follow from its kind and row count, never from
the cells, so the CLI writes a run's ``ledger.csv`` from the program's ops.
With tracing on, the array records one ``(time_ns, row, voltages)``
entry per sampled row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from gcpim.charge import (
    ConfigError,
    ModelConfig,
    decay,
    drive_threshold,
    overdrive,
    residual_from_overdrive,
    sense,
    time_constant,
)

__all__ = [
    "EventLedger",
    "MicroOp",
    "OpKind",
    "SubArray",
    "TimingEnergyConfig",
]


class OpKind(str, Enum):
    WRITE = "WRITE"
    READ = "READ"
    REFRESH = "REFRESH"
    LOGIC = "LOGIC"


# the members as globals: in Python 3.11 an Enum class attribute read costs ~0.1 us
_WRITE, _READ, _REFRESH, _LOGIC = OpKind


@dataclass(frozen=True, slots=True, init=False)
class MicroOp:
    """One array instruction.

    ``rows`` is the written/read/refreshed row for WRITE/READ/REFRESH, or the
    input rows for LOGIC (``out_row`` then names the destination).  A WRITE
    names the ``source`` of its bits ("input:<name>", "const:0",
    "const:1"), resolved when the program runs.  A compiled op also says
    what it means to the netlist: a LOGIC op the ``node`` it computes, a
    READ the program ``output`` it senses.  Ops without them are
    anonymous; the soundness audit does not track their values.

    Frozen, slotted, equal by fields: ``__init__`` (``dataclasses.replace``
    too) checks the fields, then stores each through its slot descriptor;
    ``restamped`` moves a checked op to another start, unchecked.
    """

    kind: OpKind
    rows: tuple[int, ...]
    out_row: int | None = None
    source: str | None = None
    t_start_ns: int = 0
    node: int | None = None
    output: str | None = None

    def __init__(self, kind: OpKind, rows: tuple[int, ...], out_row: int | None = None,
                 source: str | None = None, t_start_ns: int = 0, node: int | None = None,
                 output: str | None = None) -> None:
        _check_rows(kind, rows, out_row)
        if t_start_ns < 0:
            raise ValueError(f"{kind.value} op starts at a negative time {t_start_ns}ns")
        if (source is None) == (kind is _WRITE):
            raise ValueError("WRITE needs a source" if kind is _WRITE
                             else f"{kind.value} op carries no data")
        if node is not None and kind is not _LOGIC:
            raise ValueError(f"{kind.value} op computes no node")
        if output is not None and kind is not _READ:
            raise ValueError(f"{kind.value} op senses no output")
        _set_kind(self, kind)
        _set_rows(self, rows)
        _set_out_row(self, out_row)
        _set_source(self, source)
        _set_t_start(self, t_start_ns)
        _set_node(self, node)
        _set_output(self, output)

    def restamped(self, t_start_ns: int) -> "MicroOp":
        """This op at ``t_start_ns``, which the caller vouches is not negative."""
        op = object.__new__(MicroOp)
        _set_kind(op, self.kind)
        _set_rows(op, self.rows)
        _set_out_row(op, self.out_row)
        _set_source(op, self.source)
        _set_t_start(op, t_start_ns)
        _set_node(op, self.node)
        _set_output(op, self.output)
        return op


(_set_kind, _set_rows, _set_out_row, _set_source, _set_t_start, _set_node,
 _set_output) = (getattr(MicroOp, f.name).__set__ for f in fields(MicroOp))


def _check_rows(kind: OpKind, rows: tuple[int, ...], out_row: int | None) -> None:
    """The structural rules on an op's rows (disjoint LOGIC rows etc)."""
    try:  # fast test: a valid op on one row, or a valid gate of one or two inputs
        if kind is not _LOGIC:
            if out_row is None and len(rows) == 1 and rows[0] >= 0:
                return
        elif out_row is not None and len(rows) in (1, 2) and out_row >= 0:
            a, b = rows[0], rows[-1]
            if a >= 0 and b >= 0 and out_row != a and out_row != b and (a != b or len(rows) == 1):
                return
    except (TypeError, LookupError):  # an odd value: the rules below name its error
        pass
    if len(rows) == 0:
        raise ValueError(f"{kind.value} op needs at least one row")
    if min(rows) < 0:
        raise ValueError(f"negative row in {rows}")
    if out_row is not None and out_row < 0:
        raise ValueError(f"negative row {out_row} as the output")
    if kind is _LOGIC:
        if out_row is None:
            raise ValueError("LOGIC op needs an output row")
        if out_row in rows:
            raise ValueError(f"in-place logic is undefined: output row {out_row} "
                             "is also an input")
        if len(set(rows)) != len(rows):
            raise ValueError(f"duplicate input rows in {rows}")
    else:
        if len(rows) != 1:
            raise ValueError(f"{kind.value} op takes exactly one row")
        if out_row is not None:
            raise ValueError(f"{kind.value} op has no output row")


@dataclass(frozen=True)
class TimingEnergyConfig:
    """Pulse durations (ns) and per-active-column energies (fJ).

    The logic pulse splits into a 1 ns init phase that precharges the output
    row and a 2 ns evaluation phase during which the asserted input rows
    conditionally discharge it.
    """

    t_write_ns: int = 1
    t_read_ns: int = 3
    t_init_ns: int = 1
    t_eval_ns: int = 2
    e_write_fj: float = 5.7
    e_read_fj: float = 13.3
    e_not_fj: float = 13.4
    e_nor_fj: float = 13.5

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"{f.name} must be positive")
        # per-op lookups, built once: duration by kind, and energy per
        # active column by kind and whether the op has a single row
        object.__setattr__(self, "_duration", {
            OpKind.WRITE: self.t_write_ns, OpKind.READ: self.t_read_ns,
            OpKind.REFRESH: self.t_refresh_ns, OpKind.LOGIC: self.t_logic_ns})
        per_col = {OpKind.WRITE: self.e_write_fj, OpKind.READ: self.e_read_fj,
                   OpKind.REFRESH: self.e_read_fj + self.e_write_fj}
        object.__setattr__(self, "_per_col", {
            (kind, one): per_col.get(kind, self.e_not_fj if one else self.e_nor_fj)
            for kind in OpKind for one in (True, False)})

    @property
    def t_logic_ns(self) -> int:
        return self.t_init_ns + self.t_eval_ns

    @property
    def t_refresh_ns(self) -> int:
        return self.t_read_ns + self.t_write_ns

    def duration_ns(self, kind: OpKind) -> int:
        return self._duration[kind]

    def energy_fj(self, kind: OpKind, n_inputs: int, active_columns: int) -> float:
        """Ledger energy for one op; logic energy depends on gate arity."""
        return self._per_col[kind, n_inputs == 1] * active_columns


LEDGER_CSV_HEADER = ["start_ns", "duration_ns", "op", "rows", "energy_fj"]


class EventLedger:
    """The ops a run executed on ``cols`` active columns, in start-time
    order.  Each ledger row derives from its op and the timing."""

    def __init__(self, timing: TimingEnergyConfig, cols: int,
                 ops: Iterable[MicroOp] = ()) -> None:
        self.timing = timing
        self.cols = cols
        self.ops: list[MicroOp] = []
        for op in ops:
            self.append(op)

    def append(self, op: MicroOp) -> None:
        if self.ops and op.t_start_ns < self.ops[-1].t_start_ns:
            raise ValueError(
                f"ledger entries must be appended in start-time order: "
                f"{op.t_start_ns} after {self.ops[-1].t_start_ns}"
            )
        self.ops.append(op)

    def to_csv(self, path) -> None:
        """One row per op; a LOGIC op lists its input rows, then ``>`` and
        its output row."""
        duration, name = self.timing._duration, {kind: kind.value for kind in OpKind}
        energy = {key: repr(per_col * self.cols)  # one string per kind and arity
                  for key, per_col in self.timing._per_col.items()}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(LEDGER_CSV_HEADER)
            writer.writerows(
                [op.t_start_ns, duration[op.kind], name[op.kind],
                 "+".join(map(str, op.rows)) + ("" if op.out_row is None
                                                else f">{op.out_row}"),
                 energy[op.kind, len(op.rows) == 1]]
                for op in self.ops)

    @staticmethod
    def read_csv_rows(path) -> list[dict]:
        """Parse a ledger CSV back into dicts (used by the report command),
        skipping blank lines.  A row without five cells, an op kind,
        non-negative integer times and a finite energy raises ValueError
        at path:line."""
        rows, kinds = [], {kind.value for kind in OpKind}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != LEDGER_CSV_HEADER:
                raise ValueError(f"{path}: not a ledger CSV (header {header})")
            for line in filter(None, reader):
                try:
                    start, duration, op, label, energy = line
                    start, duration, energy = int(start), int(duration), float(energy)
                    if min(start, duration) < 0 or not math.isfinite(energy):
                        raise ValueError(f"negative time or non-finite energy in {line}")
                    if op not in kinds:
                        raise ValueError(f"unknown op {op!r}")
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
                rows.append({"start_ns": start, "duration_ns": duration, "op": op,
                             "rows": label, "energy_fj": energy})
        return rows


class SubArray:
    """A tile of gain cells plus its per-column sense amplifiers: 64x64
    by default, any shape for a block array of side-by-side trials.

    Operations are strictly sequential within a tile: callers supply each
    op's start time, and an op must not start before the previous one
    ends.  The retention audit rejects a program whose ops overlap; on the
    tile, sensing a row before its last write has ended raises
    ValueError from ``charge.decay``.  Distinct tiles share no state and
    may be simulated concurrently.
    """

    def __init__(
        self,
        model: ModelConfig,
        timing: TimingEnergyConfig | None = None,
        rows: int = 64,
        cols: int = 64,
        *,
        tau_scale=None,
        drive_offset=None,
        sa_threshold=None,
        trace: bool = False,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigError(f"bad dimensions {rows}x{cols}")
        self.model = model
        self.timing = timing or TimingEnergyConfig()
        self.rows = rows
        self.cols = cols
        self.voltage = np.zeros((rows, cols))
        self.last_update = np.zeros(rows, dtype=np.int64)
        tau_scale = self._grid(tau_scale, 1.0)
        self.v_drive = drive_threshold(self._grid(drive_offset, 0.0), model)
        if sa_threshold is None:
            self.sa_threshold = np.full(cols, model.v_sa_read)
        else:
            self.sa_threshold = np.asarray(sa_threshold, dtype=float).copy()
            if self.sa_threshold.shape != (cols,):
                raise ConfigError(
                    f"sa_threshold must have one entry per column ({cols})"
                )
        if np.any(tau_scale <= 0):
            raise ConfigError("tau_scale grid must be strictly positive")
        self.tau = time_constant(tau_scale, model)
        # (time_ns, row, copy of the row's voltages) per sampled row
        self.trace_rows: list[tuple[int, int, np.ndarray]] | None = (
            [] if trace else None)

    def _grid(self, values, fill: float) -> np.ndarray:
        """A per-cell input grid; the array keeps only what it derives
        from it, so the caller's array is not copied."""
        if values is None:
            return np.full((self.rows, self.cols), fill)
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.rows, self.cols):
            raise ConfigError(
                f"grid shape {arr.shape} does not match {self.rows}x{self.cols}"
            )
        return arr

    # -- state access -------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not (0 <= row < self.rows):
            raise IndexError(f"row {row} out of range [0, {self.rows})")

    def _row_voltage_at(self, row: int, t: int) -> np.ndarray:
        """Row voltages decayed to time ``t`` (no state change)."""
        return decay(self.voltage[row], t - self.last_update.item(row), self.tau[row])

    def _sample_row(self, t: int, row: int, values: np.ndarray) -> None:
        if self.trace_rows is not None:
            self.trace_rows.append((t, row, values.copy()))

    # -- operations ---------------------------------------------------

    def write_row(self, row: int, bits: Sequence[int], t_now: int) -> None:
        """Drive the row to full rail levels; the data is valid (and starts
        decaying) at the end of the 1 ns write pulse."""
        self._check_row(row)
        bits = np.asarray(bits)
        if bits.shape != (self.cols,):
            raise ValueError(f"need exactly {self.cols} bits, got shape {bits.shape}")
        t_done = t_now + self.timing.t_write_ns
        self.voltage[row] = np.where(bits != 0, self.model.vdd, 0.0)
        self.last_update[row] = t_done
        self._sample_row(t_done, row, self.voltage[row])

    def read_row(self, row: int, t_now: int) -> np.ndarray:
        """Sense the row against the per-column thresholds.

        Nondestructive: cell charge is untouched apart from the decay that
        time itself causes; the elapsed decay is folded into the stored
        state, so ``voltage[row]`` holds the sensed level as of
        ``last_update[row] == t_now``.
        """
        self._check_row(row)
        level = self._row_voltage_at(row, t_now)
        bits = sense(level, self.sa_threshold)
        self.voltage[row] = level
        self.last_update[row] = t_now
        self._sample_row(t_now, row, level)
        return bits

    def refresh_row(self, row: int, t_now: int) -> np.ndarray:
        """Sense the row, then write the sensed bits back at full level
        once the read ends: ``t_read_ns + t_write_ns`` = 4 ns, so a full
        64-row sweep costs 256 ns."""
        bits = self.read_row(row, t_now)
        self.write_row(row, bits, t_now + self.timing.t_read_ns)
        return bits

    def run(self, ops: Iterable[MicroOp],
            inputs: Mapping[str, np.ndarray] | None = None) -> list[np.ndarray]:
        """Execute timestamped ops in order; returns each READ's sensed
        bits.  A WRITE stores ``inputs[name]``, one bit per array column,
        for source ``input:<name>`` and a constant row for ``const:0`` or
        ``const:1``; any other source raises ConfigError."""
        reads = []
        for op in ops:
            t = op.t_start_ns
            if op.kind is _WRITE:
                self.write_row(op.rows[0], self._source_bits(op.source, inputs), t)
            elif op.kind is _READ:
                reads.append(self.read_row(op.rows[0], t))
            elif op.kind is _REFRESH:
                self.refresh_row(op.rows[0], t)
            else:
                self.exec_logic(op.rows, op.out_row, t, checked=True)
        return reads

    def _source_bits(self, source: str, inputs) -> np.ndarray:
        kind, _, arg = source.partition(":")
        if kind == "input" and inputs is not None and arg in inputs:
            return inputs[arg]
        if kind == "const" and arg in ("0", "1"):
            return np.full(self.cols, int(arg), dtype=np.uint8)
        raise ConfigError(f"unknown write source {source!r}")

    def exec_logic(self, in_rows: Sequence[int], out_row: int, t_now: int, *,
                   checked: bool = False) -> None:
        """Two-phase stateful gate: NOT for one input row, NOR for several.

        Phase 1 (1 ns) precharges every output-row cell to '1'.  Phase 2
        (2 ns) asserts the input rows' read word lines; any input cell still
        holding enough charge opens a discharge path and pulls its column's
        output cell low.  Input cells only age; they are never disturbed.

        ``checked`` says the rows come from a ``MicroOp``, whose
        construction already enforced the structural rules; only the
        array bounds are left to check.
        """
        if not checked:
            in_rows = tuple(in_rows)
            _check_rows(OpKind.LOGIC, in_rows, out_row)
        if not (0 <= out_row < self.rows and max(in_rows) < self.rows):
            for r in (*in_rows, out_row):
                self._check_row(r)
        t_eval = t_now + self.timing.t_init_ns
        t_done = t_now + self.timing.t_logic_ns
        tracing = self.trace_rows is not None

        if tracing:
            self._sample_row(t_now, out_row, self._row_voltage_at(out_row, t_now))
            self._sample_row(t_eval, out_row, np.full(self.cols, self.model.vdd))

        # the drives add in row order; the first one starts the sum, which
        # is bit for bit the same as adding it to zeros
        total = None
        for r in in_rows:
            level = self._row_voltage_at(r, t_eval)
            drive = overdrive(level, self.v_drive[r])
            total = drive if total is None else total + drive
            if tracing:
                self._sample_row(t_eval, r, level)

        self.voltage[out_row] = residual_from_overdrive(total, self.model)
        self.last_update[out_row] = t_done
        if tracing:
            self._sample_row(t_done, out_row, self.voltage[out_row])
