"""Behavioral simulation of in-memory NOR/NOT logic on gain-cell eDRAM.

The package models a 64x64 gain-cell eDRAM sub-array whose cells decay over
time, executes stateful NOT/NOR operations with a two-phase write pulse,
compiles Boolean expressions down to NOR-only micro-op programs with
liveness-based row reuse and retention-aware refresh insertion, and runs
Monte Carlo campaigns over process variation to estimate gate success rates.
"""

from gcpim.charge import (
    ConfigError,
    ModelConfig,
    calibrate_tau,
    decay,
    sense,
    time_constant,
)
from gcpim.compiler import (
    CapacityError,
    CompilerConfig,
    ParseError,
    PimProgram,
    RefreshScheduleError,
    RetentionViolationError,
    UnsoundProgramError,
    compile_program,
    exhaustive_vectors,
    lower_to_nor,
    parse_program,
    simulate_program,
)
from gcpim.config import RunConfig, load_config
from gcpim.montecarlo import (
    CalibrationError,
    SuccessReport,
    VariationConfig,
    calibrate_variation,
    run_gate_campaign,
    run_gate_trials,
    sample_params,
)
from gcpim.subarray import (
    EventLedger,
    MicroOp,
    OpKind,
    SubArray,
    TimingEnergyConfig,
)

__all__ = [
    "CalibrationError",
    "CapacityError",
    "CompilerConfig",
    "ConfigError",
    "EventLedger",
    "MicroOp",
    "ModelConfig",
    "OpKind",
    "ParseError",
    "PimProgram",
    "RefreshScheduleError",
    "RetentionViolationError",
    "RunConfig",
    "SubArray",
    "SuccessReport",
    "TimingEnergyConfig",
    "UnsoundProgramError",
    "VariationConfig",
    "calibrate_tau",
    "calibrate_variation",
    "compile_program",
    "decay",
    "exhaustive_vectors",
    "load_config",
    "lower_to_nor",
    "parse_program",
    "run_gate_campaign",
    "run_gate_trials",
    "sample_params",
    "sense",
    "time_constant",
    "simulate_program",
]

__version__ = "0.1.0"
