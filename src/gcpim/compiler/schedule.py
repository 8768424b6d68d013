"""Gang-scheduling of compiled programs across parallel sub-arrays.

Programs are assigned round-robin; each sub-array executes its queue
back to back.  Two control models are supported:

* relaxed: sub-arrays run independently (each has its own sequencer).
* strict: sub-arrays share one controller, so in any cycle every active
  sub-array must issue the same op kind or sit idle.  The kind issued is
  whatever the lowest-indexed busy sub-array needs next.

Strict lockstep can only lengthen the schedule; the makespan is the
interesting output.  Stretching a program's ops apart also ages its
values longer than the compiler assumed, so the schedule exposes the
same refresh-safety audit used on single programs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from gcpim.charge import ConfigError
from gcpim.subarray import MicroOp
from gcpim.compiler.program import AuditViolation, PimProgram, audit_refresh_safety

__all__ = ["ScheduledOp", "SystemSchedule", "schedule"]


@dataclass(frozen=True)
class ScheduledOp:
    program_index: int
    op: MicroOp


@dataclass(frozen=True)
class SystemSchedule:
    mode: str
    n_subarrays: int
    programs: tuple[PimProgram, ...]
    streams: tuple[tuple[ScheduledOp, ...], ...]  # one per sub-array
    makespan_ns: int

    @property
    def busy_ns(self) -> tuple[int, ...]:
        totals = []
        for stream in self.streams:
            totals.append(sum(
                self.programs[s.program_index].timing.duration_ns(s.op.kind)
                for s in stream
            ))
        return tuple(totals)

    @property
    def total_energy_fj(self) -> float:
        total = 0.0
        for stream in self.streams:
            for s in stream:
                prog = self.programs[s.program_index]
                total += prog.timing.energy_fj(s.op.kind, len(s.op.rows), prog.cols)
        return total

    def audit_refresh(self) -> list[AuditViolation]:
        """Refresh-safety audit of every program at its scheduled times.

        Each violation's op_index points into its program's own ops.
        """
        violations = []
        for k, stream in enumerate(self.streams):
            ops_of: dict[int, list[MicroOp]] = {}
            for s in stream:
                ops_of.setdefault(s.program_index, []).append(s.op)
            for pi, ops in ops_of.items():
                violations += (
                    replace(v, message=f"sub-array {k}, program {pi}: {v.message}")
                    for v in audit_refresh_safety(replace(self.programs[pi], ops=tuple(ops)))
                )
        return violations


def schedule(
    programs, n_subarrays: int, mode: str = "relaxed"
) -> SystemSchedule:
    """Round-robin the programs onto n_subarrays and lay out their ops."""
    programs = tuple(programs)
    if n_subarrays < 1:
        raise ConfigError("need at least one sub-array")
    if mode not in ("relaxed", "strict"):
        raise ConfigError(f"unknown schedule mode {mode!r}")
    if mode == "strict":
        timings = {p.timing for p in programs}
        if len(timings) > 1:
            raise ConfigError(
                "strict lockstep requires all programs to share one timing config"
            )

    queues: list[list[int]] = [[] for _ in range(n_subarrays)]
    for i in range(len(programs)):
        queues[i % n_subarrays].append(i)

    if mode == "relaxed":
        streams = []
        makespan = 0
        for queue in queues:
            stream: list[ScheduledOp] = []
            t = 0
            for pi in queue:
                prog = programs[pi]
                for op in prog.ops:
                    stream.append(ScheduledOp(pi, replace(
                        op, t_start_ns=op.t_start_ns + t)))
                t += prog.duration_ns
            streams.append(tuple(stream))
            makespan = max(makespan, t)
        return SystemSchedule(mode, n_subarrays, programs, tuple(streams), makespan)

    # strict lockstep: one shared sequencer
    pending: list[list[tuple[int, MicroOp]]] = []
    for queue in queues:
        flat = []
        for pi in queue:
            flat.extend((pi, op) for op in programs[pi].ops)
        pending.append(flat)
    cursors = [0] * n_subarrays
    streams2: list[list[ScheduledOp]] = [[] for _ in range(n_subarrays)]
    t = 0
    while True:
        busy = [k for k in range(n_subarrays) if cursors[k] < len(pending[k])]
        if not busy:
            break
        lead = busy[0]
        kind = pending[lead][cursors[lead]][1].kind
        dur = programs[pending[lead][cursors[lead]][0]].timing.duration_ns(kind)
        for k in busy:
            pi, op = pending[k][cursors[k]]
            if op.kind is kind:
                streams2[k].append(ScheduledOp(pi, replace(op, t_start_ns=t)))
                cursors[k] += 1
        t += dur
    return SystemSchedule(
        mode, n_subarrays, programs, tuple(tuple(s) for s in streams2), t
    )
