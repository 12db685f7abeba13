"""Temporal k-core queries over sliding subintervals.

Given a graph whose edges carry integer timestamps, every subinterval of a
query window induces a k-core.  This package enumerates the distinct cores
(with the exact set of subintervals producing each one) and answers
optimization or threshold queries over interval-sensitive quality measures
without evaluating the measure on every subinterval.
"""

from .coreindex import MAX_CORE_INDEX_SIZE, CoreIndex
from .graph import (
    ContractViolation,
    CoreSnapshot,
    ParseError,
    TemporalEdge,
    TemporalGraph,
    TimeInterval,
    generate_synthetic,
    load_edge_list,
    normalize_timestamps,
    parse_edge_list,
    project,
)
from .measures import (
    BUILTIN_MEASURES,
    EvalContext,
    MeasureDescriptor,
    MeasureValueError,
    UndefinedMeasureValue,
    check_measure_sensitivity,
    compare,
    evaluate,
    get_measure,
    list_measures,
    register_udf,
    satisfies,
)
from .oracle import (
    MAX_ORACLE_EDGES,
    MAX_ORACLE_SPAN,
    OracleCatalog,
    OracleClass,
    brute_force_tcq,
    brute_force_txcq,
    reference_core,
)
from .tcq import (
    CoreCatalog,
    EngineStats,
    PruneTable,
    clamp_window,
    run_otcd,
    run_tcd,
)
from .tel import TEL
from .txcq import (
    MAX_TCD_STAR_CELLS,
    MemberSet,
    QueryResult,
    QuerySpec,
    QueryStats,
    ResultEntry,
    ZoneRecord,
    canonical_result,
    run_otcd_star,
    run_tcd_star,
    run_txcq,
    run_txcq_walk,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_MEASURES",
    "ContractViolation",
    "CoreCatalog",
    "CoreIndex",
    "CoreSnapshot",
    "EngineStats",
    "EvalContext",
    "MAX_CORE_INDEX_SIZE",
    "MAX_ORACLE_EDGES",
    "MAX_ORACLE_SPAN",
    "MAX_TCD_STAR_CELLS",
    "MeasureDescriptor",
    "MeasureValueError",
    "MemberSet",
    "OracleCatalog",
    "OracleClass",
    "ParseError",
    "PruneTable",
    "QueryResult",
    "QuerySpec",
    "QueryStats",
    "ResultEntry",
    "TEL",
    "TemporalEdge",
    "TemporalGraph",
    "TimeInterval",
    "UndefinedMeasureValue",
    "ZoneRecord",
    "brute_force_tcq",
    "brute_force_txcq",
    "canonical_result",
    "check_measure_sensitivity",
    "clamp_window",
    "compare",
    "evaluate",
    "generate_synthetic",
    "get_measure",
    "list_measures",
    "load_edge_list",
    "normalize_timestamps",
    "parse_edge_list",
    "project",
    "reference_core",
    "register_udf",
    "run_otcd",
    "run_otcd_star",
    "run_tcd",
    "run_tcd_star",
    "run_txcq",
    "run_txcq_walk",
    "satisfies",
]
