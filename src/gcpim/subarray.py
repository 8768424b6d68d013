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

``SubArray.run`` executes a list of timestamped micro-ops; nominal runs,
program Monte Carlo and gate campaigns all drive the array through it.
Op time and energy depend on the op list and the active columns, never
on the cells, so a run's ledger is built from its timestamped ops with
``EventLedger.from_ops``.  With tracing on, the array records one
``(time_ns, row, voltages)`` entry per sampled row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Iterable, Sequence

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
    "LedgerEntry",
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


@dataclass(frozen=True)
class MicroOp:
    """One array instruction.

    ``rows`` is the written/read/refreshed row for WRITE/READ/REFRESH, or the
    input rows for LOGIC (``out_row`` then names the destination).  WRITE
    carries either literal ``bits`` or a ``source`` binding ("input:<name>",
    "const:0", "const:1") resolved when the program runs.  A compiled op
    also says what it means to the netlist: a LOGIC op the ``node`` it
    computes, a READ the program ``output`` it senses.  Ops without them
    are anonymous; the soundness audit does not track their values.
    """

    kind: OpKind
    rows: tuple[int, ...]
    out_row: int | None = None
    bits: tuple[int, ...] | None = None
    source: str | None = None
    t_start_ns: int = 0
    node: int | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        _check_rows(self.kind, self.rows, self.out_row)
        if self.kind is OpKind.WRITE:
            if (self.bits is None) == (self.source is None):
                raise ValueError("WRITE needs exactly one of bits or source")
        elif self.bits is not None or self.source is not None:
            raise ValueError(f"{self.kind.value} op carries no data")
        if self.node is not None and self.kind is not OpKind.LOGIC:
            raise ValueError(f"{self.kind.value} op computes no node")
        if self.output is not None and self.kind is not OpKind.READ:
            raise ValueError(f"{self.kind.value} op senses no output")


def _check_rows(kind: OpKind, rows: tuple[int, ...], out_row: int | None) -> None:
    """The structural rules on an op's rows (disjoint LOGIC rows etc)."""
    if len(rows) == 0:
        raise ValueError(f"{kind.value} op needs at least one row")
    if any(r < 0 for r in rows):
        raise ValueError(f"negative row in {rows}")
    if kind is OpKind.LOGIC:
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

    @property
    def t_logic_ns(self) -> int:
        return self.t_init_ns + self.t_eval_ns

    @property
    def t_refresh_ns(self) -> int:
        return self.t_read_ns + self.t_write_ns

    def duration_ns(self, kind: OpKind) -> int:
        return {
            OpKind.WRITE: self.t_write_ns,
            OpKind.READ: self.t_read_ns,
            OpKind.REFRESH: self.t_refresh_ns,
            OpKind.LOGIC: self.t_logic_ns,
        }[kind]

    def energy_fj(self, kind: OpKind, n_inputs: int, active_columns: int) -> float:
        """Ledger energy for one op; logic energy depends on gate arity."""
        if kind is OpKind.WRITE:
            per_col = self.e_write_fj
        elif kind is OpKind.READ:
            per_col = self.e_read_fj
        elif kind is OpKind.REFRESH:
            per_col = self.e_read_fj + self.e_write_fj
        else:
            per_col = self.e_not_fj if n_inputs == 1 else self.e_nor_fj
        return per_col * active_columns


@dataclass(frozen=True)
class LedgerEntry:
    start_ns: int
    duration_ns: int
    op: str
    rows: tuple[int, ...]
    active_columns: int
    energy_fj: float

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def rows_label(self) -> str:
        if self.op == OpKind.LOGIC.value:
            *ins, out = self.rows
            return "+".join(str(r) for r in ins) + ">" + str(out)
        return "+".join(str(r) for r in self.rows)


LEDGER_CSV_HEADER = ["start_ns", "duration_ns", "op", "rows", "energy_fj"]


class EventLedger:
    """Append-only, time-ordered record of executed operations."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []

    @classmethod
    def from_ops(cls, ops: Sequence[MicroOp], timing: TimingEnergyConfig,
                 cols: int) -> "EventLedger":
        """The ledger of a run of the timestamped ``ops`` on ``cols`` active
        columns.  A LOGIC entry lists its input rows, then its output row."""
        ledger = cls()
        for op in ops:
            ledger.append(LedgerEntry(
                start_ns=op.t_start_ns,
                duration_ns=timing.duration_ns(op.kind),
                op=op.kind.value,
                rows=op.rows if op.out_row is None else (*op.rows, op.out_row),
                active_columns=cols,
                energy_fj=timing.energy_fj(op.kind, len(op.rows), cols),
            ))
        return ledger

    def append(self, entry: LedgerEntry) -> None:
        if self.entries and entry.start_ns < self.entries[-1].start_ns:
            raise ValueError(
                f"ledger entries must be appended in start-time order: "
                f"{entry.start_ns} after {self.entries[-1].start_ns}"
            )
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def total_energy_fj(self) -> float:
        return sum(e.energy_fj for e in self.entries)

    def makespan_ns(self) -> int:
        """End of the last operation, measured from simulation time 0."""
        return max((e.end_ns for e in self.entries), default=0)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(LEDGER_CSV_HEADER)
            for e in self.entries:
                writer.writerow(
                    [e.start_ns, e.duration_ns, e.op, e.rows_label(), repr(e.energy_fj)]
                )

    @staticmethod
    def read_csv_rows(path) -> list[dict]:
        """Parse a ledger CSV back into dicts (used by the report command)."""
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != LEDGER_CSV_HEADER:
                raise ValueError(
                    f"{path}: not a ledger CSV (header {reader.fieldnames})"
                )
            rows = []
            for line in reader:
                rows.append(
                    {
                        "start_ns": int(line["start_ns"]),
                        "duration_ns": int(line["duration_ns"]),
                        "op": line["op"],
                        "rows": line["rows"],
                        "energy_fj": float(line["energy_fj"]),
                    }
                )
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
        return decay(self.voltage[row], t - self.last_update[row], self.tau[row])

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
        """Sense the row, then rewrite the sensed bits at full level.

        Takes ``t_read_ns + t_write_ns`` = 4 ns, so a full 64-row sweep
        costs 256 ns.
        """
        self._check_row(row)
        level = self._row_voltage_at(row, t_now)
        bits = sense(level, self.sa_threshold)
        t_done = t_now + self.timing.t_refresh_ns
        self.voltage[row] = np.where(bits != 0, self.model.vdd, 0.0)
        self.last_update[row] = t_done
        self._sample_row(t_now, row, level)
        self._sample_row(t_done, row, self.voltage[row])
        return bits

    def run(self, ops: Iterable[MicroOp],
            write_bits: Callable[[MicroOp], np.ndarray]) -> list[np.ndarray]:
        """Execute timestamped ops in order; each WRITE stores
        ``write_bits(op)``.  Returns each READ's sensed bits, in op order."""
        reads = []
        for op in ops:
            t = op.t_start_ns
            if op.kind is OpKind.WRITE:
                self.write_row(op.rows[0], write_bits(op), t)
            elif op.kind is OpKind.READ:
                reads.append(self.read_row(op.rows[0], t))
            elif op.kind is OpKind.REFRESH:
                self.refresh_row(op.rows[0], t)
            else:
                self.exec_logic(op.rows, op.out_row, t, checked=True)
        return reads

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

        if self.trace_rows is not None:
            self._sample_row(t_now, out_row, self._row_voltage_at(out_row, t_now))
            self._sample_row(t_eval, out_row, np.full(self.cols, self.model.vdd))

        # the drives add in row order; the first one starts the sum, which
        # is bit for bit the same as adding it to zeros
        total = None
        for r in in_rows:
            level = self._row_voltage_at(r, t_eval)
            drive = overdrive(level, self.v_drive[r])
            total = drive if total is None else total + drive
            self._sample_row(t_eval, r, level)

        self.voltage[out_row] = residual_from_overdrive(total, self.model)
        self.last_update[out_row] = t_done
        self._sample_row(t_done, out_row, self.voltage[out_row])
