"""Expression-to-microcode compiler for the in-array NOR/NOT fabric.

Pipeline: parse (expr) -> lower to a NOR-only DAG (netlist) -> assign
rows with liveness reuse (allocate) -> emit timestamped micro-ops and
insert refreshes (program) -> execute them (simulate).
"""

from gcpim.compiler.expr import (
    And,
    Const,
    Expr,
    Nand,
    Nor,
    Not,
    Or,
    ParseError,
    Program,
    Var,
    Xor,
    eval_expr,
    parse_expr,
    parse_program,
)
from gcpim.compiler.netlist import NetlistBuilder, NorNetlist, lower_program, lower_to_nor
from gcpim.compiler.allocate import CapacityError, RowAssignment, allocate_rows
from gcpim.compiler.program import (
    CompilerConfig,
    PimProgram,
    RefreshScheduleError,
    audit_refresh_safety,
    audit_row_soundness,
    compile_program,
    insert_refresh,
)
from gcpim.compiler.simulate import (
    RetentionViolationError,
    SimulationResult,
    UnsoundProgramError,
    exhaustive_vectors,
    run_program_on_array,
    simulate_program,
)

__all__ = [
    "And", "CapacityError", "CompilerConfig", "Const", "Expr", "Nand",
    "NetlistBuilder", "Nor", "NorNetlist", "Not", "Or", "ParseError",
    "PimProgram", "Program", "RefreshScheduleError", "RetentionViolationError",
    "RowAssignment", "SimulationResult", "UnsoundProgramError", "Var", "Xor",
    "allocate_rows", "audit_refresh_safety", "audit_row_soundness",
    "compile_program", "eval_expr", "exhaustive_vectors", "insert_refresh",
    "lower_program", "lower_to_nor", "parse_expr", "parse_program",
    "run_program_on_array", "simulate_program",
]
