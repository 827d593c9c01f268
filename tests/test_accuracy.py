"""The paper's accuracy claim, checked against the oracle.

Model-aware feasibility is meant to cut both bogus alarms and unsound proofs
compared with thread-modular analysis without pruning (Miné, ESOP 2011) and
with Datalog pruning that assumes SC (Kusano & Wang, FSE 2016).  The three
configurations are swapped in from outside by replacing the feasibility
context the analyzer builds; each verdict of corpus × models is judged
against `oracle.violates`.
"""
from __future__ import annotations

import pytest

from relaxcheck import analysis
from relaxcheck.feasibility import FeasibilityContext, MemoryModel

from conftest import CORPUS_FILES, MODELS, corpus_program, oracle_flags


class _NoPruning(FeasibilityContext):
    """Every reads-from fact set is feasible, asked whole or built up one
    fact at a time by the enumeration."""

    def check_facts(self, facts):
        return True

    def extend(self, prefix, load, source):
        return prefix


class _SCPruning(FeasibilityContext):
    """Prunes as if the program ran under SC, whatever the model."""

    def __init__(self, store, model):
        super().__init__(store, MemoryModel.SC)


def _table(monkeypatch, context) -> dict[MemoryModel, tuple[int, int, int]]:
    """Per model: (alarms, bogus alarms, unsound PROVED) over the corpus."""
    monkeypatch.setattr(analysis, "FeasibilityContext", context)
    table = {}
    for model in MODELS:
        alarms = bogus = unsound = 0
        for name in CORPUS_FILES:
            program = corpus_program(name)
            flags = oracle_flags(name, model)
            _, verdicts, _ = analysis.analyze_all(program, model)
            for v in verdicts:
                if v.status == "ALARM":
                    alarms += 1
                    bogus += not flags[v.node]
                else:
                    unsound += flags[v.node]
        table[model] = (alarms, bogus, unsound)
    return table


@pytest.fixture(scope="module")
def tables():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {"none": _table(monkeypatch, _NoPruning),
                "sc": _table(monkeypatch, _SCPruning),
                "model": _table(monkeypatch, FeasibilityContext)}


def test_model_aware_pruning_has_no_unsound_proof(tables):
    assert all(unsound == 0 for _, _, unsound in tables["model"].values()), \
        tables["model"]


def test_sc_pruning_is_unsound_under_every_weak_model(tables):
    for model in (MemoryModel.TSO, MemoryModel.PSO, MemoryModel.RMO):
        assert tables["sc"][model][2] > 0, (model, tables["sc"])


def test_no_pruning_raises_more_bogus_alarms(tables):
    for model in MODELS:
        assert tables["none"][model][1] > tables["model"][model][1], \
            (model, tables)
