"""Seeded benchmark inputs and the independent references that check them.

Everything here is plain Python and numpy: the sources are generated as
text, the vectors as bit arrays, and the expected outputs come from
integer addition and parity, never from the package's own netlist
evaluator.
"""

from __future__ import annotations

import csv
import json
import os
import random

import numpy as np

# variation seed the package ships with; benchmark seed 0 maps onto it
DEFAULT_VARIATION_SEED = 314159265

HALF_ADDER = "s = a ^ b;\nc = a & b;\n"
FULL_ADDER = (
    "s1 = a ^ b;\nsum = s1 ^ cin;\n"
    "c1 = a & b;\nc2 = s1 & cin;\ncout = c1 | c2;\n"
)

XOR_INPUTS = 40
XOR_LINKS = 1100
XOR_STRUCTURE_SEED = 0
N_RANDOM_VECTORS = 64

# (drt_read_ns, drt_logic_ns) of the tight-retention entries
TIGHT = {
    "ripple8": (400, 100),
    "ripple16": (1000, 300),
    "ripple32": (1000, 300),
    "xor_chain": (2000, 1000),
}


def variation_seed(seed: int) -> int:
    return DEFAULT_VARIATION_SEED + seed


def ripple_source(n: int) -> str:
    """n-bit ripple-carry adder; inputs a0..a{n-1}, b0..b{n-1}, cin."""
    lines = []
    carry = "cin"
    for i in range(n):
        out = "cout" if i == n - 1 else f"c{i}"
        lines += [
            f"p{i} = a{i} ^ b{i};",
            f"s{i} = p{i} ^ {carry};",
            f"g{i} = a{i} & b{i};",
            f"t{i} = p{i} & {carry};",
            f"{out} = g{i} | t{i};",
        ]
        carry = out
    return "\n".join(lines) + "\n"


def xor_chain_terms(seed: int) -> list[str]:
    """Operand order of the chain: shuffles of the 40 inputs, one after
    another, so every input is consumed throughout the program.

    The shuffles are fixed (XOR_STRUCTURE_SEED); the benchmark seed only
    renames the inputs.  Every seed thus compiles the same program up to
    names, and compile work does not vary with the seed.  Other shuffles
    change the refresh pattern: some (structure seed 4, for one) also hit
    RefreshScheduleError at the tight 2000/1000 ns windows.
    """
    rng = random.Random(XOR_STRUCTURE_SEED)
    slots: list[int] = []
    while len(slots) < XOR_LINKS + 1:
        round_ = list(range(XOR_INPUTS))
        rng.shuffle(round_)
        slots += round_
    names = [f"i{k}" for k in range(XOR_INPUTS)]
    random.Random(seed).shuffle(names)
    return [names[k] for k in slots[: XOR_LINKS + 1]]


def xor_chain_source(terms: list[str]) -> str:
    lines = [f"x1 = {terms[0]} ^ {terms[1]};"]
    lines += [f"x{k} = x{k - 1} ^ {terms[k]};" for k in range(2, len(terms))]
    return "\n".join(lines) + "\n"


def input_names(source: str) -> list[str]:
    """Unassigned names in first-use order, as the compiler infers them."""
    assigned, names = set(), []
    for stmt in source.split(";"):
        if "=" not in stmt:
            continue
        lhs, rhs = stmt.split("=")
        for tok in rhs.replace("^", " ").replace("&", " ").replace("|", " ").split():
            if tok not in assigned and tok not in names:
                names.append(tok)
        assigned.add(lhs.strip())
    return names


def make_vectors(names: list[str], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Exhaustive columns for up to 6 inputs, else 64 random vectors."""
    k = len(names)
    if 2**k <= N_RANDOM_VECTORS:
        col = np.arange(2**k)
        return {n: ((col >> (k - 1 - i)) & 1).astype(np.uint8) for i, n in enumerate(names)}
    bits = rng.integers(0, 2, size=(k, N_RANDOM_VECTORS), dtype=np.uint8)
    return {n: bits[i] for i, n in enumerate(names)}


def adder_reference(n: int, vec: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Sum bits of a + b + cin by Python integer arithmetic."""
    width = len(vec["cin"])
    out: dict[str, list[int]] = {f"s{i}": [] for i in range(n)}
    out["cout"] = []
    for c in range(width):
        a = sum(int(vec[f"a{i}"][c]) << i for i in range(n))
        b = sum(int(vec[f"b{i}"][c]) << i for i in range(n))
        total = a + b + int(vec["cin"][c])
        for i in range(n):
            out[f"s{i}"].append((total >> i) & 1)
        out["cout"].append((total >> n) & 1)
    return {k: np.array(v, dtype=np.uint8) for k, v in out.items()}


def small_adder_reference(kind: str, vec: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    if kind == "half_adder":
        total = vec["a"].astype(int) + vec["b"].astype(int)
        return {"s": (total & 1).astype(np.uint8), "c": (total >> 1).astype(np.uint8)}
    total = vec["a"].astype(int) + vec["b"].astype(int) + vec["cin"].astype(int)
    return {"sum": (total & 1).astype(np.uint8), "cout": (total >> 1).astype(np.uint8)}


def parity_reference(terms: list[str], vec: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    stacked = np.stack([vec[t] for t in terms])
    return {f"x{len(terms) - 1}": np.bitwise_xor.reduce(stacked, axis=0)}


def write_vectors(path: str, vec: dict[str, np.ndarray]) -> None:
    names = list(vec)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for c in range(len(vec[names[0]])):
            w.writerow([int(vec[n][c]) for n in names])


def read_bits_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = list(zip(*rows[1:])) if len(rows) > 1 else [()] * len(rows[0])
    return {name: np.array([int(x) for x in col], dtype=np.uint8)
            for name, col in zip(rows[0], cols)}


def write_config(path: str, *, rows: int | None = None, retention=None,
                 sigma_factor: float | None = None) -> None:
    """A version-1 run configuration with only the overridden keys."""
    cfg: dict = {"version": 1}
    if rows is not None:
        cfg["compiler"] = {"rows": rows, "rows_available": rows - 2}
    if retention is not None:
        cfg["model"] = {"drt_read_ns": retention[0], "drt_logic_ns": retention[1]}
    if sigma_factor is not None:
        # calibrated defaults: the base ratios 0.10 / 0.02 / 0.017 times 2
        cfg["variation"] = {"sigma_tau": 0.2 * sigma_factor,
                            "sigma_sa": 0.04 * sigma_factor,
                            "sigma_drive": 0.034 * sigma_factor}
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)


class Entry:
    """One corpus program with its generated files and expected outputs."""

    def __init__(self, workdir: str, name: str, source: str, expected_fn,
                 rng: np.random.Generator, *, rows=None, retention=None) -> None:
        self.name = name
        self.tight = retention is not None
        self.source_path = os.path.join(workdir, f"{name}.txt")
        self.program_path = os.path.join(workdir, f"{name}.compiled.json")
        self.inputs_path = os.path.join(workdir, f"{name}.inputs.csv")
        self.config_path = os.path.join(workdir, f"{name}.config.json")
        self.out_dir = os.path.join(workdir, "out", name)
        with open(self.source_path, "w") as fh:
            fh.write(source)
        write_config(self.config_path, rows=rows, retention=retention)
        self.vectors = make_vectors(input_names(source), rng)
        write_vectors(self.inputs_path, self.vectors)
        self.expected = expected_fn(self.vectors)


def pipeline_corpus(workdir: str, seed: int) -> list[Entry]:
    """Six default-retention entries, then four tight-retention ones."""
    terms = xor_chain_terms(seed)
    specs = [
        ("half_adder", HALF_ADDER, lambda v: small_adder_reference("half_adder", v), None),
        ("full_adder", FULL_ADDER, lambda v: small_adder_reference("full_adder", v), None),
    ]
    for n in (8, 16, 32):
        specs.append((f"ripple{n}", ripple_source(n),
                      lambda v, n=n: adder_reference(n, v), 256 if n == 32 else None))
    specs.append(("xor_chain", xor_chain_source(terms),
                  lambda v: parity_reference(terms, v), None))
    entries = []
    for i, (name, src, ref, rows) in enumerate(specs):
        rng = np.random.default_rng([seed, i])
        entries.append(Entry(workdir, name, src, ref, rng, rows=rows))
    for i, (name, src, ref, rows) in enumerate(specs):
        if name in TIGHT:
            rng = np.random.default_rng([seed, 100 + i])
            entries.append(Entry(workdir, f"{name}_tight", src, ref, rng,
                                 rows=rows, retention=TIGHT[name]))
    return entries
