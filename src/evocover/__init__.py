"""Evolutionary multi-objective search for weighted minimum vertex cover.

The two objectives are the weight of the selected vertices and the exact
LP-relaxation value of the residual graph (kept in half-units so every
comparison is integer arithmetic). Four archive/mutation combinations are
provided together with exact LP and vertex cover oracles and a batch
experiment harness.
"""

from .engine import (
    ALGORITHMS,
    BoxIndex,
    DemoArchive,
    DpbeaArchive,
    Evaluator,
    Fitness,
    Individual,
    RngStream,
    RunTrace,
    SemoArchive,
    Termination,
    alternative_mutation,
    box_index,
    demo_archive_capacity,
    dominates_strong,
    dominates_weak,
    run,
    standard_mutation,
)
from .exact import ExactResult, SearchBudgetExceeded, opt_branch_bound, opt_exhaustive
from .experiment import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    TrialRecord,
    read_records_csv,
    records_from_csv,
    records_to_csv,
    run_experiment,
    run_trial,
    write_records_csv,
)
from .graph import (
    GraphFormatError,
    ResidualGraph,
    WeightedGraph,
    as_genotype,
    build_graph,
    complete_bipartite,
    cost,
    gen_instance,
    genotype_from_string,
    genotype_to_string,
    gnp,
    is_cover,
    load_instance,
    parse_instance,
    path,
    residual,
    save_instance,
    serialize_instance,
    star,
)
from .lp import (
    HalfIntegralLP,
    InstanceTooLargeError,
    brute_force_lp,
    lp_value2,
    solve_cover_lp,
    solve_lp,
)


def __getattr__(name: str):
    # maxflow is unused by the package but stays importable: it is the
    # tests' cold Dinic oracle, and the benchmark's tracer (bench/tracing.py)
    # wraps its Dinic methods by name. It is imported on first access, so
    # that importing evocover does not compile it.
    if name == "maxflow":
        import importlib
        return importlib.import_module(f"{__name__}.maxflow")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BoxIndex",
    "ConfigError",
    "CSV_COLUMNS",
    "DemoArchive",
    "DpbeaArchive",
    "Evaluator",
    "ExactResult",
    "ExperimentConfig",
    "ExperimentResult",
    "Fitness",
    "GraphFormatError",
    "HalfIntegralLP",
    "Individual",
    "InstanceTooLargeError",
    "ResidualGraph",
    "RngStream",
    "RunTrace",
    "SearchBudgetExceeded",
    "SemoArchive",
    "Termination",
    "TrialRecord",
    "WeightedGraph",
    "alternative_mutation",
    "as_genotype",
    "box_index",
    "brute_force_lp",
    "build_graph",
    "complete_bipartite",
    "cost",
    "demo_archive_capacity",
    "dominates_strong",
    "dominates_weak",
    "gen_instance",
    "genotype_from_string",
    "genotype_to_string",
    "gnp",
    "is_cover",
    "load_instance",
    "lp_value2",
    "opt_branch_bound",
    "opt_exhaustive",
    "parse_instance",
    "path",
    "read_records_csv",
    "records_from_csv",
    "records_to_csv",
    "residual",
    "run",
    "run_experiment",
    "run_trial",
    "save_instance",
    "serialize_instance",
    "solve_cover_lp",
    "solve_lp",
    "standard_mutation",
    "star",
    "write_records_csv",
]
