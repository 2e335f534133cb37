"""splitcut: edge-pruned QAOA MaxCut with split-iteration optimization.

Builds pruned flavors of a QAOA circuit, alternates them across differently
noisy simulated backends while optimizing one shared parameter vector, and
quantifies what an adversarial provider can reconstruct from the circuits
it receives.
"""

from .graph import (
    Graph,
    benchmark_graph,
    cut_value,
    graph_from_text,
    graph_to_text,
    load_graph,
    max_cut_bruteforce,
    save_graph,
)
from .circuit import (
    Circuit,
    CouplingMap,
    Gate,
    ParamVector,
    TranspiledCircuit,
    build_qaoa,
    parse,
    serialize,
    transpile,
)
from .simulator import (
    BackendProfile,
    NoiseModel,
    load_backend_profiles,
    run_shots,
    run_statevector,
)
from .obfuscation import (
    CompiledFlavor,
    OptimizerConfig,
    PrunedFlavor,
    RunTrace,
    approximation_ratio,
    check_split,
    compile_flavor,
    exact_optimum,
    make_split_plan,
    optimize,
    prune,
)
from .adversary import (
    EffortEstimate,
    ExtractionReport,
    cross_provider_merge,
    effort,
    extract_graph,
)
from .harness import ExperimentSpec, run_experiment, overhead

__version__ = "0.1.0"

__all__ = [
    "Graph", "benchmark_graph", "cut_value", "graph_from_text", "graph_to_text",
    "load_graph", "max_cut_bruteforce", "save_graph",
    "Circuit", "CouplingMap", "Gate", "ParamVector", "TranspiledCircuit",
    "build_qaoa", "parse", "serialize", "transpile",
    "BackendProfile", "NoiseModel", "load_backend_profiles", "run_shots", "run_statevector",
    "CompiledFlavor", "OptimizerConfig", "PrunedFlavor", "RunTrace", "approximation_ratio",
    "check_split", "compile_flavor", "exact_optimum", "make_split_plan", "optimize", "prune",
    "EffortEstimate", "ExtractionReport", "cross_provider_merge", "effort", "extract_graph",
    "ExperimentSpec", "run_experiment", "overhead",
]
