"""Greedy liveness-driven assignment of netlist nodes to sub-array rows.

Inputs get dedicated rows (never reclaimed: operands stay readable after
the program runs).  Constants occupy the reserved rows past the value
region.  Each gate takes the lowest-numbered free row; rows of values
whose last consumer just executed are reclaimed immediately afterwards.
Allocating the output row before reclaiming guarantees a gate never
targets one of its own input rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from gcpim.compiler.netlist import NorNetlist

__all__ = ["CapacityError", "RowAssignment", "allocate_rows"]


class CapacityError(ValueError):
    """Peak liveness exceeds the available value rows."""

    def __init__(self, message: str, peak_live: int, live_nodes: tuple[int, ...]) -> None:
        super().__init__(message)
        self.peak_live = peak_live
        self.live_nodes = live_nodes


@dataclass(frozen=True)
class RowAssignment:
    row_of: dict[int, int]          # node id -> row (rows are reused over time)
    input_rows: dict[str, int]
    const_rows: dict[int, int]      # constant value -> reserved row
    peak_live: int


def allocate_rows(netlist: NorNetlist, rows_available: int = 62) -> RowAssignment:
    """Map every node to a row, reusing rows once values die.

    Raises CapacityError naming the node set live at the point where the
    demand first exceeds rows_available.
    """
    if rows_available < 1:
        raise CapacityError("no value rows available", 0, ())

    last_consumer: dict[int, int] = {}
    for nid, node in enumerate(netlist.nodes):
        for a in node.args:
            last_consumer[a] = nid

    protected = set()  # never reclaimed: inputs, constants, outputs
    output_ids = {nid for _, nid in netlist.outputs}

    row_of: dict[int, int] = {}
    input_rows: dict[str, int] = {}
    const_rows: dict[int, int] = {}
    free = list(range(rows_available - 1, -1, -1))  # pop() yields lowest first
    live: set[int] = set()

    def take_row(nid: int) -> None:
        if not free:
            raise CapacityError(
                f"{len(live) + 1} values live at node {nid} but only "
                f"{rows_available} rows are available",
                len(live) + 1,
                tuple(sorted(live | {nid})),
            )
        row_of[nid] = free.pop()
        live.add(nid)

    # inputs first, in declaration order, so operand rows are stable
    for name in netlist.inputs:
        nid = next(
            i for i, n in enumerate(netlist.nodes)
            if n.op == "input" and n.name == name
        )
        take_row(nid)
        input_rows[name] = row_of[nid]
        protected.add(nid)

    peak = len(live)
    for nid, node in enumerate(netlist.nodes):
        if node.op == "input":
            continue
        if node.op == "const":
            # reserved rows sit just past the value region
            row_of[nid] = rows_available + node.value
            const_rows[node.value] = row_of[nid]
            protected.add(nid)
            continue
        take_row(nid)
        peak = max(peak, len(live))
        if nid in output_ids:
            protected.add(nid)
        for a in set(node.args):
            if a in protected or a not in live:
                continue
            if last_consumer[a] == nid:
                live.discard(a)
                free.append(row_of[a])
                free.sort(reverse=True)

    return RowAssignment(row_of=row_of, input_rows=input_rows,
                         const_rows=const_rows, peak_live=peak)
