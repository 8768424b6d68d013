"""Exact refresh-schedule search: the fewest REFRESH ops that, spliced into
a program in its op order, pass the retention audit.

A 0-1 breadth-first search over states (op index, ages of the rows live
there): ops and refreshes run back to back from t=0, as refresh insertion
places them, and an op costs 0 and a refresh 1.  A LOGIC or READ sense may
be at most ``drt_logic_ns`` old, a REFRESH sense at most ``drt_read_ns``; a
live row past ``drt_read_ns`` ends the branch, since no refresh may sense
it.  A row is live before op i while an op from i on consumes its value.

``small_random_programs`` makes the seeded programs that the property test
and ``scripts/schedule_search.py`` run the search and insertion on.
"""

import random
from collections import deque
from dataclasses import replace

from gcpim.charge import ModelConfig
from gcpim.compiler import CompilerConfig, compile_program
from gcpim.subarray import MicroOp, OpKind


def small_random_source(rng: random.Random) -> str:
    """1-4 statements over 2-5 inputs, each a random expression of depth at
    most 3 that may read the statements before it."""
    names = [f"x{k}" for k in range(rng.randint(2, 5))]

    def expr(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(names)
        if rng.random() < 0.2:
            return f"~{expr(depth - 1)}"
        return f"({expr(depth - 1)} {rng.choice('&|^')} {expr(depth - 1)})"

    lines = []
    for k in range(rng.randint(1, 4)):
        lines.append(f"o{k} = {expr(3)};")
        names.append(f"o{k}")
    return "\n".join(lines)


def small_random_programs(seed: int):
    """Endless ``(source, program)`` pairs from ``random.Random(seed)``:
    each program compiled without refreshes, of at most 30 ops, at a logic
    window of 6-20 ns and a read window up to 2 x logic + 10 ns."""
    rng = random.Random(seed)
    while True:
        source, logic = small_random_source(rng), rng.randint(6, 20)
        model = ModelConfig(drt_read_ns=rng.randint(logic, 2 * logic + 10), drt_logic_ns=logic)
        bare = compile_program(source, CompilerConfig(insert_refreshes=False), model)
        if len(bare.ops) <= 30:
            yield source, bare


def _base_ops(program) -> list[MicroOp]:
    """The program's ops without its refreshes, which the search re-derives."""
    return [op for op in program.ops if op.kind is not OpKind.REFRESH]


def _live_rows(ops) -> list[frozenset]:
    """live[i]: the rows whose value before op i an op from i on consumes."""
    live = [frozenset()] * (len(ops) + 1)
    for i in reversed(range(len(ops))):
        op, after = ops[i], set(live[i + 1])
        if op.kind is not OpKind.READ:
            after.discard(op.out_row if op.kind is OpKind.LOGIC else op.rows[0])
        if op.kind is OpKind.LOGIC or op.kind is OpKind.READ:
            after.update(op.rows)
        live[i] = frozenset(after)
    return live


def search_refreshes(program, cap: int = 20_000):
    """``(n, schedule)`` with the fewest refreshes ``n``, each ``(i, row)``
    of the schedule a refresh of ``row`` before op i, in order; ``("none",
    None)`` if no schedule exists; ``("unknown", None)`` past ``cap`` states."""
    ops, timing = _base_ops(program), program.timing
    live, logic, read = _live_rows(ops), program.drt_logic_ns, program.drt_read_ns
    start = (0, ())
    cost, parent, done, queue = {start: 0}, {start: None}, set(), deque([start])

    def age_all(ages: dict, by: int, fresh, i: int):
        """The ages ``by`` ns on, ``fresh`` just written, over live[i]; None
        if a live row is past the read window."""
        aged = {r: 0 if r == fresh else ages[r] + by for r in live[i] if r == fresh or r in ages}
        return None if any(a > read for a in aged.values()) else (i, tuple(sorted(aged.items())))

    while queue:
        state = queue.popleft()
        if state in done:
            continue
        done.add(state)
        i, ages = state[0], dict(state[1])
        if i == len(ops):
            schedule, at = [], state
            while parent[at] is not None:
                at, row = parent[at]
                if row is not None:
                    schedule.append((at[0], row))
            return cost[state], schedule[::-1]
        if len(done) > cap:
            return "unknown", None
        op, steps = ops[i], []
        offset = timing.t_init_ns if op.kind is OpKind.LOGIC else 0
        if op.kind is OpKind.WRITE or all(r in ages and ages[r] + offset <= logic
                                          for r in op.rows):
            written = {OpKind.WRITE: op.rows[0], OpKind.LOGIC: op.out_row}.get(op.kind)
            steps.append((0, age_all(ages, timing.duration_ns(op.kind), written, i + 1), None))
        for row in sorted(ages):  # every live row may be refreshed before op i
            steps.append((1, age_all(ages, timing.duration_ns(OpKind.REFRESH), row, i), row))
        for step, nxt, row in steps:
            if nxt is not None and cost[state] + step < cost.get(nxt, float("inf")):
                cost[nxt], parent[nxt] = cost[state] + step, (state, row)
                if step:
                    queue.append(nxt)
                else:
                    queue.appendleft(nxt)
    return "none", None


def splice(program, schedule):
    """The program with the schedule's refreshes, all ops back to back from t=0."""
    before, out, t = {}, [], 0
    for i, row in schedule:
        before.setdefault(i, []).append(row)
    for i, op in enumerate(_base_ops(program)):
        for row in before.get(i, ()):
            out.append(MicroOp(OpKind.REFRESH, (row,), t_start_ns=t))
            t += program.timing.duration_ns(OpKind.REFRESH)
        out.append(replace(op, t_start_ns=t))
        t += program.timing.duration_ns(op.kind)
    return replace(program, ops=tuple(out))
