"""RTL substrate: netlists, optimization passes, cycle-accurate
simulation (interpreted, compiled, SWAR-batched and vectorized
backends, and the static rule behind ``auto``), Verilog emission."""

from .netlist import (
    Cell,
    COMBINATIONAL_KINDS,
    Module,
    Net,
    NetlistError,
    SEQUENTIAL_KINDS,
    flatten,
)
from .simulate import (
    Simulator,
    derive_lane_seed,
    eval_comb_cell,
    random_stimulus,
    random_stimulus_batch,
)
from .compile import (
    AUTO_VECTOR_LANES,
    CODEGEN_VERSION,
    SIM_BACKENDS,
    SIM_BACKEND_VERSIONS,
    auto_backend,
    backend_choices,
    backend_fingerprint,
    batched_stride,
    BatchedCompiledSimulator,
    CompiledNetlist,
    CompiledSimulator,
    SimBackend,
    clear_compile_memo,
    compile_netlist,
    differential_check,
    make_simulator,
    resolve_backend,
    swar_profitable,
)
# Importing vectorize registers the "vector" backend in SIM_BACKENDS.
from .vectorize import (
    SimBackendUnavailable,
    VectorCompiledSimulator,
    clear_vector_memo,
    compile_vector_netlist,
)
from .verilog import emit_verilog

__all__ = [
    "AUTO_VECTOR_LANES",
    "BatchedCompiledSimulator",
    "CODEGEN_VERSION",
    "Cell",
    "COMBINATIONAL_KINDS",
    "CompiledNetlist",
    "CompiledSimulator",
    "Module",
    "Net",
    "NetlistError",
    "SEQUENTIAL_KINDS",
    "SIM_BACKENDS",
    "SIM_BACKEND_VERSIONS",
    "SimBackend",
    "SimBackendUnavailable",
    "Simulator",
    "VectorCompiledSimulator",
    "auto_backend",
    "backend_choices",
    "backend_fingerprint",
    "batched_stride",
    "clear_compile_memo",
    "clear_vector_memo",
    "compile_netlist",
    "compile_vector_netlist",
    "derive_lane_seed",
    "differential_check",
    "emit_verilog",
    "eval_comb_cell",
    "flatten",
    "make_simulator",
    "random_stimulus",
    "random_stimulus_batch",
    "resolve_backend",
    "swar_profitable",
]
