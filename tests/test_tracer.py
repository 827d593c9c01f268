"""The benchmark's tracer contract: every name `bench/tracer.py` wraps
still exists with the signature its hooks read, and the analyzer calls it
through the module global or class attribute the tracer replaces."""
from __future__ import annotations

import importlib.util
import pathlib

from relaxcheck import MemoryModel, analysis, frontend

from conftest import corpus_text

_TRACER = (pathlib.Path(__file__).resolve().parent.parent / "bench"
           / "tracer.py")

#: the spans and counters of `install_relaxcheck` that the analyzer calls
#: (it also wraps `datalog.solve` and `oracle.violates`, which it does not)
ANALYZER_NAMES = {
    "frontend.parse", "frontend.lower", "analysis.analyze_all",
    "relations.extract_all", "analysis.candidates", "analysis.bootstrap",
    "analysis.analyze_thread", "analysis.loop_fallback_env",
    "analysis.enumerate", "feasibility.check_facts",
    "feasibility.no_reorder", "feasibility.base_mhb", "domain.transfer",
    "domain.widen",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_present_and_called():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    original = analysis.analyze_all
    tracer_module.install_relaxcheck(tracer)
    try:
        for name in ("loop_global.lit", "mp_reader_fence.lit"):
            program, _ = frontend.parse_and_lower(corpus_text(name))
            analysis.analyze_all(program, MemoryModel.TSO)
    finally:
        tracer.uninstall()
    assert analysis.analyze_all is original
    assert tracer.absent == set()
    assert {name for name in ANALYZER_NAMES
            if tracer.calls[name] == 0} == set()
    # the feasibility memo answers the bootstrap's repeated single-fact
    # queries
    assert tracer.counts["feasibility.cache_hits"] > 0
