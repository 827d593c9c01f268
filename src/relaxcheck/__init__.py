"""Memory-model-aware thread-modular static analyzer for concurrent
litmus programs under SC, TSO, PSO, and RMO."""

from .analysis import AnalysisStats, Verdict, analyze_all
from .domain import AbstractEnv, Interval
from .feasibility import FeasibilityContext
from .frontend import ParseError, lower, parse, parse_and_lower
from .ir import MemoryModel, Program, validate
from .oracle import Execution, OracleLimitError, enumerate_executions, violates

__all__ = [
    "AbstractEnv", "AnalysisStats", "Execution", "FeasibilityContext",
    "Interval", "MemoryModel", "OracleLimitError", "ParseError", "Program",
    "Verdict", "analyze_all", "enumerate_executions", "lower", "parse",
    "parse_and_lower", "validate", "violates",
]
