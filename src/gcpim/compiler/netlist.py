"""NOR-only DAG and the lowering from the Boolean AST onto it.

Every internal node is an n-input NOR (arity 1 is NOT).  Lowering uses
complemented edges, as and-inverter graphs do: an expression lowers to
``(node, negated)``, and a NOT is a gate only where a NOR needs a
positive operand or a program output its value.  ``~`` flips the bit,

    a & b & ...  = NOR(~a, ~b, ...)    a | b | ... = ~NOR(a, b, ...)
    a ^ b        = ~XNOR(a, b),  XNOR(a,b) = n1=NOR(a,b); NOR(NOR(a,n1), NOR(b,n1))

and XOR folds its operands' bits into its own: ``XOR(~y, c)`` is the
4-gate ``XNOR(y, c)``.  A statement's value keeps its bit, so negations
cross statements for free, and a chain of one edge is that edge (``a & a``
is ``a``).  Identical subterms are shared (hash-consing: a node is built
only when its key is new); no other minimization is attempted.  NOR
argument lists are canonicalized (sorted, deduplicated), which is sound
because the gate is symmetric and a row cannot be asserted twice in one
pulse anyway.

Gate arity is capped by configuration (default 2: the validated case);
an ``&`` or ``|`` chain is one NOR, split by OR-reducing argument groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from itertools import chain
from operator import or_

import numpy as np

from gcpim.charge import ConfigError
from gcpim.compiler.expr import (
    TOO_DEEP, And, Const, Expr, Not, Or, ParseError, Program, Var, Xor, parse_program,
)

__all__ = ["NetlistBuilder", "Node", "NorNetlist", "lower_program", "lower_to_nor"]


@dataclass(frozen=True, slots=True, init=False)
class Node:
    """Frozen, slotted, equal by fields; built through its slots' setters,
    not the frozen dataclass's ``object.__setattr__`` per field."""

    op: str  # "input" | "const" | "nor"
    args: tuple[int, ...] = ()
    name: str | None = None
    value: int | None = None

    def __init__(self, op: str, args: tuple[int, ...] = (), name: str | None = None,
                 value: int | None = None) -> None:
        _set_op(self, op)
        _set_args(self, args)
        _set_name(self, name)
        _set_value(self, value)


_set_op, _set_args, _set_name, _set_value = (getattr(Node, f.name).__set__ for f in fields(Node))
_INT = {int}


@dataclass(frozen=True)
class NorNetlist:
    """Topologically ordered NOR DAG with named inputs and outputs."""

    nodes: tuple[Node, ...]
    inputs: tuple[str, ...]
    outputs: tuple[tuple[str, int], ...]  # (name, node id), ordered

    def __post_init__(self) -> None:
        for i, node in enumerate(self.nodes):
            if node.args and not 0 <= min(node.args) <= max(node.args) < i:
                raise ValueError(f"node {i} references a node outside 0..{i - 1}: {node}")
        if any(not 0 <= nid < len(self.nodes) for _, nid in self.outputs):
            raise ValueError(f"outputs {list(self.outputs)} name a node outside the netlist")
        named = sorted(n.name for n in self.nodes if n.op == "input")
        if len(set(self.inputs)) != len(self.inputs) or sorted(self.inputs) != named:
            raise ValueError(f"inputs {list(self.inputs)} do not name the input nodes "
                             f"{named} once each")
        names = [name for name, _ in self.outputs]
        if len(set(names)) != len(names):
            raise ValueError(f"outputs {list(self.outputs)} name an output more than once")
        # every node's arguments precede it, so (by induction from the last
        # node) all are reachable exactly when each non-output is an argument
        used = set(chain.from_iterable(n.args for n in self.nodes))
        if len(used.union(nid for _, nid in self.outputs)) != len(self.nodes):
            orphans = sorted(set(range(len(self.nodes))) - self.reachable_ids())
            raise ValueError(f"unreachable nodes: {orphans}")

    def reachable_ids(self) -> set[int]:
        seen, stack = set(), [nid for _, nid in self.outputs]
        while stack:
            nid = stack.pop()
            if nid not in seen:
                seen.add(nid)
                stack.extend(self.nodes[nid].args)
        return seen

    @property
    def output_map(self) -> dict[str, int]:
        return dict(self.outputs)

    def gate_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.op == "nor"]

    @property
    def n_gates(self) -> int:
        return len(self.gate_ids())

    def evaluate(self, env: dict) -> dict[str, np.ndarray]:
        """Bitwise evaluation; env maps input name -> bit or bit array, and
        every output takes the inputs' broadcast shape.  The gates run on
        Python ints, bit j holding element j of the flattened inputs."""
        missing = [n for n in self.inputs if n not in env]
        if missing:
            raise KeyError(f"no value bound for inputs {missing}")
        bits = {n.name: np.asarray(env[n.name], dtype=np.uint8)
                for n in self.nodes if n.op == "input"}
        bad = [name for name, v in bits.items() if np.any(v > 1)]
        if bad:
            raise ValueError(f"input {bad[0]!r} has non-bit values")
        shape = np.broadcast_shapes(*(v.shape for v in bits.values()))
        size = math.prod(shape)
        ones, values = (1 << size) - 1, []
        for node in self.nodes:
            if node.op == "nor":
                values.append(ones ^ reduce(or_, map(values.__getitem__, node.args)))
            elif node.op == "input":
                packed = np.packbits(np.broadcast_to(bits[node.name], shape), bitorder="little")
                values.append(int.from_bytes(packed.tobytes(), "little"))
            else:
                values.append(ones if node.value else 0)
        outputs = {}
        for name, nid in self.outputs:
            packed = np.frombuffer(values[nid].to_bytes(-(-size // 8), "little"), dtype=np.uint8)
            outputs[name] = np.unpackbits(packed, count=size, bitorder="little").reshape(shape)
        return outputs

    def to_json_dict(self) -> dict:
        nodes = [{"op": "nor", "args": list(n.args)} if n.op == "nor"
                 else {"op": "input", "name": n.name} if n.op == "input"
                 else {"op": "const", "value": n.value} for n in self.nodes]
        return {"nodes": nodes, "inputs": list(self.inputs),
                "outputs": [[name, nid] for name, nid in self.outputs]}

    @staticmethod
    def from_json_dict(data: dict) -> "NorNetlist":
        """Fields are type-checked, not coerced: a wrong type raises TypeError."""
        nodes = []
        for n in data["nodes"]:
            op = n["op"]
            if op == "nor":
                if type(args := n.get("args")) is list and _INT.issuperset(map(type, args)):
                    nodes.append(Node("nor", tuple(args)))
                    continue
            elif op == "input":
                if type(name := n.get("name")) is str:
                    nodes.append(Node("input", (), name))
                    continue
            elif op == "const" and type(value := n.get("value")) is int and value in (0, 1):
                nodes.append(Node("const", (), None, value))
                continue
            raise TypeError(f"node {n}")
        inputs, outputs = data["inputs"], data["outputs"]
        if not (type(inputs) is list and all(type(name) is str for name in inputs)
                and type(outputs) is list
                and all(type(o) is list and list(map(type, o)) == [str, int] for o in outputs)):
            raise TypeError(f"inputs {inputs} or outputs {outputs}")
        return NorNetlist(nodes=tuple(nodes), inputs=tuple(inputs),
                          outputs=tuple(map(tuple, outputs)))


class NetlistBuilder:
    """Bottom-up interning builder: node ids in topological order, each built once."""

    def __init__(self, max_nor_arity: int = 2) -> None:
        if max_nor_arity < 2:
            raise ConfigError("max_nor_arity must be at least 2")
        self.max_nor_arity = max_nor_arity
        self.nodes: list[Node] = []
        self._intern: dict[tuple, int] = {}  # ("input", name), ("const", value) or NOR args

    def _add(self, key: tuple, node: Node) -> int:
        """Intern a node under a key that is not interned yet."""
        nid = self._intern[key] = len(self.nodes)
        self.nodes.append(node)
        return nid

    def input(self, name: str) -> int:
        nid = self._intern.get(("input", name))
        return self._add(("input", name), Node("input", name=name)) if nid is None else nid

    def const(self, value: int) -> int:
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value}")
        nid = self._intern.get(("const", value))
        return self._add(("const", value), Node("const", value=value)) if nid is None else nid

    def nor(self, args) -> int:
        """The NOR of the argument ids, sorted and deduplicated: one or two
        are ordered by hand, more sorted.  Checked before it is built."""
        if len(args) == 2:
            a, b = args
            key = (a, b) if a < b else (b, a) if b < a else (a,)
        else:
            key = tuple(args) if len(args) == 1 else tuple(sorted(set(args)))
        nid = self._intern.get(key)
        if nid is None:
            if not key:
                raise ValueError("NOR needs at least one argument")
            if len(key) > self.max_nor_arity:
                raise ValueError(f"NOR arity {len(key)} exceeds the cap {self.max_nor_arity}")
            if key[0] < 0 or key[-1] >= len(self.nodes):  # sorted ends
                raise ValueError(f"unknown argument node in {key}")
            nid = self._add(key, Node("nor", key))
        return nid

    def nor_wide(self, args) -> int:
        """NOR of any arity, split to respect the arity cap."""
        cap = self.max_nor_arity
        if len(args) <= cap:
            return self.nor(args)
        args = list(dict.fromkeys(args))  # dedupe, preserve order
        while len(args) > cap:
            head, args = args[:cap], args[cap:]
            args.insert(0, self.nor([self.nor(head)]))  # OR of the head group
        return self.nor(args)

    def positive(self, node: int, negated: bool) -> int:
        """The edge's value as a node: a NOT gate only when it is negated."""
        return self.nor((node,)) if negated else node


def _flatten(expr: Expr, kind: type, out: list[Expr]) -> list[Expr]:
    """The operands of a chain of ``kind``, left to right, appended to ``out``."""
    if type(expr) is kind:
        _flatten(expr.a, kind, out)
        _flatten(expr.b, kind, out)
    else:
        out.append(expr)
    return out


def _lower_expr(builder: NetlistBuilder, expr: Expr, env: dict) -> tuple[int, bool]:
    """The expression as an edge ``(node, negated)``; ``env`` holds every
    input's and earlier statement's edge.  Each gate's operands are
    lowered before it, so ids stay topological."""
    kind = type(expr)
    if kind is Var:
        return env[expr.name]
    if kind is Not:
        node, negated = _lower_expr(builder, expr.a, env)
        return node, not negated
    if kind is Xor:  # XNOR, negated unless exactly one operand is
        a, neg_a = _lower_expr(builder, expr.a, env)
        b, neg_b = _lower_expr(builder, expr.b, env)
        n1 = builder.nor((a, b))
        return builder.nor((builder.nor((a, n1)), builder.nor((b, n1)))), neg_a == neg_b
    if kind is And or kind is Or:
        # AND is the NOR of the operands' complements, OR the complement of their NOR
        is_and = kind is And
        edges = [_lower_expr(builder, e, env) for e in _flatten(expr, kind, [])]
        if edges.count(edges[0]) == len(edges):  # a & a is a, as a | a is
            return edges[0]
        args = [builder.positive(n, neg != is_and) for n, neg in edges]
        return builder.nor_wide(args), not is_and
    if kind is Const:
        return builder.const(expr.value), False
    raise TypeError(f"not an expression node: {expr!r}")


def lower_program(program: Program, max_nor_arity: int = 2) -> NorNetlist:
    """Lower a parsed multi-statement program to one shared NOR DAG; a
    negated output takes its NOT right after its statement."""
    builder = NetlistBuilder(max_nor_arity)
    # env: name -> (node, negated); inputs are bound first so their ids lead
    env = {name: (builder.input(name), False) for name in program.inputs}
    outputs = set(program.outputs)
    for st in program.statements:
        try:
            edge = _lower_expr(builder, st.expr, env)
        except RecursionError:
            raise ParseError(TOO_DEEP, st.line, st.col) from None
        env[st.name] = (builder.positive(*edge), False) if st.name in outputs else edge
    return NorNetlist(nodes=tuple(builder.nodes), inputs=program.inputs,
                      outputs=tuple((name, env[name][0]) for name in program.outputs))


def lower_to_nor(text: str, max_nor_arity: int = 2) -> NorNetlist:
    """Lower program text, or a single expression (its output named
    "out"), to a NOR DAG."""
    program = parse_program(text if "=" in text else f"out = {text};")
    return lower_program(program, max_nor_arity)
