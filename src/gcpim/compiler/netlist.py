"""NOR-only DAG and the lowering from the Boolean AST onto it.

Every internal node is an n-input NOR (arity 1 is NOT).  Lowering uses
the classical identities

    NOT(x)    = NOR(x)
    OR(a,b)   = NOT(NOR(a,b))
    AND(a,b)  = NOR(NOT(a), NOT(b))
    XOR(a,b)  = n1=NOR(a,b); NOT(NOR(NOR(a,n1), NOR(b,n1)))

and one fold: ``~`` over a ``|`` chain, ``~(a | b | ...)``, is one n-ary
NOR, and over an ``&`` chain a NAND, NOT(NOR(NOT(a), NOT(b), ...)).
Structurally identical subterms are shared (hash-consing); no other
minimization is attempted.  NOR argument lists are canonicalized (sorted,
deduplicated), which is sound because the gate is symmetric and a row
cannot be asserted twice in one pulse anyway.

Gate arity is capped by configuration (default 2: the validated case);
wider NORs are split by OR-reducing argument groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from operator import or_

import numpy as np

from gcpim.charge import ConfigError
from gcpim.compiler.expr import (
    TOO_DEEP, And, Const, Expr, Not, Or, ParseError, Program, Var, Xor, parse_program,
)

__all__ = ["NetlistBuilder", "Node", "NorNetlist", "lower_program", "lower_to_nor"]


@dataclass(frozen=True, slots=True, init=False)
class Node:
    """Frozen, slotted, equal by fields; stored as ``MicroOp`` stores its."""

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
        reachable = self.reachable_ids()
        if len(reachable) != len(self.nodes):
            orphans = sorted(set(range(len(self.nodes))) - reachable)
            raise ValueError(f"unreachable nodes: {orphans}")

    def reachable_ids(self) -> set[int]:
        seen: set[int] = set()
        stack = [nid for _, nid in self.outputs]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
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
        nodes = []
        for n in self.nodes:
            if n.op == "input":
                nodes.append({"op": "input", "name": n.name})
            elif n.op == "const":
                nodes.append({"op": "const", "value": n.value})
            else:
                nodes.append({"op": "nor", "args": list(n.args)})
        return {
            "nodes": nodes,
            "inputs": list(self.inputs),
            "outputs": [[name, nid] for name, nid in self.outputs],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "NorNetlist":
        """Fields are type-checked, not coerced: a wrong type raises TypeError."""
        nodes = []
        for n in data["nodes"]:
            op, args, name, value = n["op"], n.get("args"), n.get("name"), n.get("value")
            if op == "nor" and type(args) is list and set(map(type, args)) <= {int}:
                nodes.append(Node("nor", tuple(args)))
            elif op == "input" and type(name) is str:
                nodes.append(Node("input", name=name))
            elif op == "const" and type(value) is int and value in (0, 1):
                nodes.append(Node("const", value=value))
            else:
                raise TypeError(f"node {n}")
        inputs, outputs = data["inputs"], data["outputs"]
        if not (type(inputs) is list and all(type(name) is str for name in inputs)
                and type(outputs) is list
                and all(type(o) is list and list(map(type, o)) == [str, int] for o in outputs)):
            raise TypeError(f"inputs {inputs} or outputs {outputs}")
        return NorNetlist(nodes=tuple(nodes), inputs=tuple(inputs),
                          outputs=tuple(map(tuple, outputs)))


class NetlistBuilder:
    """Bottom-up interning builder; node ids come out topologically sorted."""

    def __init__(self, max_nor_arity: int = 2) -> None:
        if max_nor_arity < 2:
            raise ConfigError("max_nor_arity must be at least 2")
        self.max_nor_arity = max_nor_arity
        self.nodes: list[Node] = []
        self._intern: dict[tuple, int] = {}

    def _add(self, key: tuple, node: Node) -> int:
        nid = self._intern.get(key)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(node)
            self._intern[key] = nid
        return nid

    def input(self, name: str) -> int:
        return self._add(("input", name), Node("input", name=name))

    def const(self, value: int) -> int:
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value}")
        return self._add(("const", value), Node("const", value=value))

    def nor(self, args) -> int:
        canonical = tuple(sorted(set(args)))
        if not canonical:
            raise ValueError("NOR needs at least one argument")
        if len(canonical) > self.max_nor_arity:
            raise ValueError(
                f"NOR arity {len(canonical)} exceeds the cap {self.max_nor_arity}"
            )
        if canonical[0] < 0 or canonical[-1] >= len(self.nodes):  # sorted ends
            raise ValueError(f"unknown argument node in {canonical}")
        return self._add(("nor", canonical), Node("nor", canonical))

    def nor_wide(self, args) -> int:
        """NOR of any arity, split to respect the arity cap."""
        args = list(dict.fromkeys(args))  # dedupe, preserve order
        cap = self.max_nor_arity
        while len(args) > cap:
            head, args = args[:cap], args[cap:]
            args.insert(0, self.nor([self.nor(head)]))  # OR of the head group
        return self.nor(args)


def _flatten(expr: Expr, op) -> list[Expr]:
    if isinstance(expr, op):
        return _flatten(expr.a, op) + _flatten(expr.b, op)
    return [expr]


def _lower_expr(builder: NetlistBuilder, expr: Expr, env: dict[str, int]) -> int:
    """Each gate's operands are lowered before it, so ids stay topological."""
    if isinstance(expr, Var):
        if expr.name in env:
            return env[expr.name]
        return builder.input(expr.name)
    if isinstance(expr, Const):
        return builder.const(expr.value)
    nor = builder.nor
    if isinstance(expr, Not):
        inner = expr.a
        if not isinstance(inner, (Or, And)):
            return nor([_lower_expr(builder, inner, env)])
        args = [_lower_expr(builder, a, env) for a in _flatten(inner, type(inner))]
        if isinstance(inner, Or):
            return builder.nor_wide(args)
        return nor([builder.nor_wide([nor([a]) for a in args])])
    if not isinstance(expr, (And, Or, Xor)):
        raise TypeError(f"not an expression node: {expr!r}")
    a, b = _lower_expr(builder, expr.a, env), _lower_expr(builder, expr.b, env)
    if isinstance(expr, And):
        return nor([nor([a]), nor([b])])
    if isinstance(expr, Or):
        return nor([nor([a, b])])
    n1 = nor([a, b])
    return nor([nor([nor([a, n1]), nor([b, n1])])])


def lower_program(program: Program, max_nor_arity: int = 2) -> NorNetlist:
    """Lower a parsed multi-statement program to one shared NOR DAG."""
    builder = NetlistBuilder(max_nor_arity)
    for name in program.inputs:  # bind inputs first so their ids lead
        builder.input(name)
    env: dict[str, int] = {}
    for st in program.statements:
        try:
            env[st.name] = _lower_expr(builder, st.expr, env)
        except RecursionError:
            raise ParseError(TOO_DEEP, st.line, st.col) from None
    return NorNetlist(nodes=tuple(builder.nodes), inputs=program.inputs,
                      outputs=tuple((name, env[name]) for name in program.outputs))


def lower_to_nor(text: str, max_nor_arity: int = 2) -> NorNetlist:
    """Lower program text, or a single expression (its output named
    "out"), to a NOR DAG."""
    program = parse_program(text if "=" in text else f"out = {text};")
    return lower_program(program, max_nor_arity)
