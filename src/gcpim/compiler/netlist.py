"""NOR-only DAG and the lowering from the Boolean AST onto it.

Every internal node is an n-input NOR (arity 1 is NOT).  Lowering uses
the classical identities

    NOT(x)    = NOR(x)
    OR(a,b)   = NOT(NOR(a,b))
    AND(a,b)  = NOR(NOT(a), NOT(b))
    NAND(a,b) = NOT(AND(a,b))
    XOR(a,b)  = n1=NOR(a,b); NOT(NOR(NOR(a,n1), NOR(b,n1)))

and shares structurally identical subterms (hash-consing).  No other
minimization is attempted.  NOR argument lists are canonicalized (sorted,
deduplicated), which is sound because the gate is symmetric and a row
cannot be asserted twice in one pulse anyway.

Gate arity is capped by configuration (default 2: the validated case);
wider NORs are split by OR-reducing argument groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gcpim.charge import ConfigError
from gcpim.compiler.expr import (
    TOO_DEEP, And, Const, Expr, Nand, Nor, Not, Or, ParseError, Program, Var, Xor,
    parse_program,
)

__all__ = ["NetlistBuilder", "Node", "NorNetlist", "lower_program", "lower_to_nor"]


@dataclass(frozen=True)
class Node:
    op: str  # "input" | "const" | "nor"
    args: tuple[int, ...] = ()
    name: str | None = None
    value: int | None = None


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

    @property
    def n_not(self) -> int:
        return sum(1 for n in self.nodes if n.op == "nor" and len(n.args) == 1)

    @property
    def n_nor(self) -> int:
        return sum(1 for n in self.nodes if n.op == "nor" and len(n.args) >= 2)

    def evaluate(self, env: dict) -> dict[str, np.ndarray]:
        """Bitwise evaluation; env maps input name -> bit or bit array."""
        missing = [n for n in self.inputs if n not in env]
        if missing:
            raise KeyError(f"no value bound for inputs {missing}")
        values: list[np.ndarray] = []
        for node in self.nodes:
            if node.op == "input":
                v = np.asarray(env[node.name], dtype=np.uint8)
                if np.any(v > 1):
                    raise ValueError(f"input {node.name!r} has non-bit values")
                values.append(v)
            elif node.op == "const":
                values.append(np.asarray(node.value, dtype=np.uint8))
            else:
                acc = values[node.args[0]].astype(bool)
                for a in node.args[1:]:
                    acc = acc | values[a].astype(bool)
                values.append((~acc).astype(np.uint8))
        return {name: values[nid] for name, nid in self.outputs}

    def truth_table(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Exhaustive (input bits, output bits) rows, inputs in MSB-first
        counting order.  Intended for small input counts."""
        k = len(self.inputs)
        if k > 16:
            raise ValueError(f"{k} inputs is too many for exhaustive enumeration")
        combos = np.arange(2**k)
        env = {
            name: ((combos >> (k - 1 - i)) & 1).astype(np.uint8)
            for i, name in enumerate(self.inputs)
        }
        out = {
            n: np.broadcast_to(np.asarray(v), combos.shape)
            for n, v in self.evaluate(env).items()
        }
        rows = []
        for c in range(2**k):
            in_bits = tuple(int(env[n][c]) for n in self.inputs)
            out_bits = tuple(int(out[n][c]) for n, _ in self.outputs)
            rows.append((in_bits, out_bits))
        return rows

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
        return self._add(("nor", canonical), Node("nor", args=canonical))

    # -- capped gate constructors -------------------------------------

    def not_(self, a: int) -> int:
        return self.nor([a])

    def nor_wide(self, args) -> int:
        """NOR of any arity, split to respect the arity cap."""
        args = list(dict.fromkeys(args))  # dedupe, preserve order
        cap = self.max_nor_arity
        while len(args) > cap:
            head, args = args[:cap], args[cap:]
            args.insert(0, self.not_(self.nor(head)))  # OR of the head group
        return self.nor(args)

    def or_wide(self, args) -> int:
        return self.not_(self.nor_wide(args))

    def and_wide(self, args) -> int:
        return self.nor_wide([self.not_(a) for a in args])

    def nand_wide(self, args) -> int:
        return self.not_(self.and_wide(args))

    def xor2(self, a: int, b: int) -> int:
        n1 = self.nor([a, b])
        return self.not_(self.nor([self.nor([a, n1]), self.nor([b, n1])]))

    def finish(self, outputs: dict[str, int], inputs: tuple[str, ...]) -> NorNetlist:
        return NorNetlist(
            nodes=tuple(self.nodes),
            inputs=tuple(inputs),
            outputs=tuple(outputs.items()),
        )


def _lower_expr(builder: NetlistBuilder, expr: Expr, env: dict[str, int]) -> int:
    if isinstance(expr, Var):
        if expr.name in env:
            return env[expr.name]
        return builder.input(expr.name)
    if isinstance(expr, Const):
        return builder.const(expr.value)
    if isinstance(expr, Not):
        return builder.not_(_lower_expr(builder, expr.a, env))
    if isinstance(expr, And):
        return builder.and_wide(
            [_lower_expr(builder, expr.a, env), _lower_expr(builder, expr.b, env)]
        )
    if isinstance(expr, Or):
        return builder.or_wide(
            [_lower_expr(builder, expr.a, env), _lower_expr(builder, expr.b, env)]
        )
    if isinstance(expr, Xor):
        return builder.xor2(
            _lower_expr(builder, expr.a, env), _lower_expr(builder, expr.b, env)
        )
    if isinstance(expr, Nor):
        return builder.nor_wide([_lower_expr(builder, a, env) for a in expr.args])
    if isinstance(expr, Nand):
        return builder.nand_wide([_lower_expr(builder, a, env) for a in expr.args])
    raise TypeError(f"not an expression node: {expr!r}")


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
    outputs = {name: env[name] for name in program.outputs}
    return builder.finish(outputs, program.inputs)


def lower_to_nor(text: str, max_nor_arity: int = 2) -> NorNetlist:
    """Lower program text, or a single expression (its output named
    "out"), to a NOR DAG."""
    program = parse_program(text if "=" in text else f"out = {text};")
    return lower_program(program, max_nor_arity)
