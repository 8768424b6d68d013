"""Greedy liveness-driven assignment of netlist nodes to sub-array rows.

Inputs get dedicated rows (never reclaimed: operands stay readable after
the program runs).  Constants occupy the reserved rows past the value
region.  Each gate takes the lowest-numbered free row; rows of values
whose last consumer just executed are reclaimed immediately afterwards.
Allocating the output row before reclaiming guarantees a gate never
targets one of its own input rows.
"""

from __future__ import annotations

import heapq
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
    """Map every node to a row, reusing rows once values die.  Raises
    CapacityError naming the node set live where the demand first exceeds
    rows_available."""
    if rows_available < 1:
        raise CapacityError("no value rows available", 0, ())

    nodes = netlist.nodes
    # last_use[nid]: the last gate reading node nid; inputs, constants and
    # outputs are never reclaimed, so theirs is set past every node
    last_use, kept = [-1] * len(nodes), len(nodes)
    for nid, node in enumerate(nodes):
        for a in node.args:
            last_use[a] = nid
    for _, nid in netlist.outputs:
        last_use[nid] = kept

    row_of: dict[int, int] = {}
    input_rows: dict[str, int] = {}
    const_rows: dict[int, int] = {}
    free, live, peak = list(range(rows_available)), set(), 0  # free: a heap, lowest row first
    # inputs first, in declaration order, so operand rows are stable; then
    # the other nodes in id order, each gate taking the lowest free row
    input_ids = {n.name: i for i, n in enumerate(nodes) if n.op == "input"}
    order = [input_ids[name] for name in netlist.inputs]
    for nid in order + [nid for nid, n in enumerate(nodes) if n.op != "input"]:
        node = nodes[nid]
        if node.op == "const":  # reserved rows sit just past the value region
            row_of[nid] = const_rows[node.value] = rows_available + node.value
            last_use[nid] = kept
            continue
        if not free:
            raise CapacityError(f"{len(live) + 1} values live at node {nid} but only "
                                f"{rows_available} rows are available",
                                len(live) + 1, tuple(sorted(live | {nid})))
        row_of[nid] = heapq.heappop(free)
        live.add(nid)
        if len(live) > peak:
            peak = len(live)
        if node.op == "input":
            input_rows[node.name], last_use[nid] = row_of[nid], kept
        for a in node.args:  # the operands this gate reads last give their rows back
            if last_use[a] == nid:
                last_use[a] = -1  # once, should a gate list it twice
                live.discard(a)
                heapq.heappush(free, row_of[a])

    return RowAssignment(row_of=row_of, input_rows=input_rows,
                         const_rows=const_rows, peak_live=peak)
