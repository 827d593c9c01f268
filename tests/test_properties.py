"""Randomized property suites (>= 200 cases each).

Covers: interval lattice laws, env operations against a per-variable
reference, identity-preserving lattice operations (operand results, the
single widen pass, the left operand returned exactly when it is above the
right one, operands left unchanged), VarId hashing, transfer
monotonicity and soundness on singletons, per-model relation inclusion
chains, fact monotonicity of the feasibility engine and of the rules'
specification, the bitset feasibility engine and its depth-first
enumeration against the rules they implement (and four engine mutants the
comparisons must catch), the MHB closure against brute force, dominator
equivalence against a brute-force oracle, NoReorder against its pair-set
reference (and two mutants it must catch), flow-graph adjacency, loop
nodes, reach and NotReachableFrom against edge-scan references,
oracle behavior inclusion, verdict monotonicity across models, and run
determinism.
"""
from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from relaxcheck import feasibility
from relaxcheck.analysis import (
    DEFAULT_CAP, analyze_all, enumerate_combinations,
)
from relaxcheck.datalog import solve
from relaxcheck.domain import (
    _TOP, NEG_INF, POS_INF, AbstractEnv, Interval, refine, transfer,
)
from relaxcheck.feasibility import FeasibilityContext, MemoryModel
from relaxcheck.frontend import parse_and_lower
from relaxcheck.ir import (
    MEMBAR_KINDS, Assume, BinOp, Cmp, Const, Fence, FlowGraph, Load,
    LocalAssign, Membar, Nop, Program, Store, Var, VarId, bits, closure,
    negate,
)
from relaxcheck.relations import extract_all

from conftest import (
    CORPUS_FILES, MODELS, analyzer_result, component_loads, corpus_program,
    dominates, facts_for, mhb_rows, mp_text, node_pairs, not_reachable_from,
    oracle_behaviors, product, relation, ring_text, with_gaps,
)

MANY = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.filter_too_much])

# strongest-first adjacent pairs: behaviors grow weaker rightwards
ADJACENT = [(MemoryModel.SC, MemoryModel.TSO),
            (MemoryModel.TSO, MemoryModel.PSO),
            (MemoryModel.PSO, MemoryModel.RMO)]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_bounds = st.one_of(st.integers(-20, 20),
                    st.sampled_from([NEG_INF, POS_INF]))


@st.composite
def intervals(draw) -> Interval:
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return Interval.bottom()
    lo, hi = draw(_bounds), draw(_bounds)
    if lo > hi:
        lo, hi = hi, lo
    if lo == POS_INF or hi == NEG_INF:
        return _TOP
    return Interval(lo, hi)


X = VarId("x")
Y = VarId("y")
A = VarId("a", "t")
B = VarId("b", "t")
VARS = (X, A, B)


@st.composite
def environments(draw) -> AbstractEnv:
    if draw(st.integers(0, 9)) == 0:
        return AbstractEnv.bottom()
    return AbstractEnv({v: draw(intervals()) for v in VARS})


_exprs = st.recursive(
    st.one_of(st.integers(-5, 5).map(Const),
              st.sampled_from([Var(A), Var(B)])),
    lambda sub: st.tuples(st.sampled_from("+-*"), sub, sub).map(
        lambda t: BinOp(*t)),
    max_leaves=4)

_conds = st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                   _exprs, _exprs).map(lambda t: Cmp(*t))

_instrs = st.one_of(
    _exprs.map(lambda e: Store(X, e)),
    _exprs.map(lambda e: LocalAssign(A, e)),
    st.just(Load(B, X)),
    _conds.map(Assume),
)


# ---------------------------------------------------------------------------
# Lattice laws and widening
# ---------------------------------------------------------------------------

@MANY
@given(intervals(), intervals(), intervals())
def test_join_lattice_laws(a, b, c):
    assert a.join(b) == b.join(a)
    assert a.join(a) == a
    assert a.join(b).join(c) == a.join(b.join(c))
    assert a.leq(a.join(b)) and b.leq(a.join(b))


@MANY
@given(intervals(), intervals(), intervals())
def test_leq_partial_order(a, b, c):
    assert a.leq(a)
    if a.leq(b) and b.leq(a):
        assert a == b
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@MANY
@given(intervals(), intervals())
def test_widen_ascends(a, b):
    w = a.widen(b)
    assert a.join(b).leq(w)


@MANY
@given(intervals(), st.lists(intervals(), min_size=1, max_size=6))
def test_widening_chain_stabilizes_quickly(start, steps):
    current, changes = start, 0
    for nxt in steps:
        widened = current.widen(current.join(nxt))
        if widened != current:
            changes += 1
        current = widened
    assert changes <= 3  # each bound can escape at most once


@MANY
@given(environments(), environments())
def test_env_join_upper_bound(e1, e2):
    j = e1.join(e2)
    assert e1.leq(j) and e2.leq(j)


# `u` is never mapped: it reads Top in a non-bottom env, bottom in a bottom
# one, and stands for every variable outside VARS.
_READ_VARS = VARS + (VarId("u"),)


@st.composite
def sparse_environments(draw) -> AbstractEnv:
    """Bottom, or a map over a subset of VARS holding explicit Top entries
    as well as other intervals."""
    if draw(st.integers(0, 9)) == 0:
        return AbstractEnv.bottom()
    values = st.one_of(st.just(_TOP), intervals())
    return AbstractEnv(draw(st.dictionaries(st.sampled_from(VARS), values)))


def _reads(env) -> dict:
    return {v: env.get(v) for v in _READ_VARS}


def _pointwise(op, e1, e2) -> dict:
    return {v: op(e1.get(v), e2.get(v)) for v in _READ_VARS}


_names = st.sampled_from(["x", "y", "a"])
_owners = st.sampled_from([None, "t", "u"])


@MANY
@given(_names, _owners, _names, _owners)
def test_varid_hash_agrees_with_equality(n1, o1, n2, o2):
    v1, v2 = VarId(n1, o1), VarId(n2, o2)
    assert (v1 == v2) == ((n1, o1) == (n2, o2))
    assert hash(v1) == hash((n1, o1))
    if v1 == v2:
        assert hash(v1) == hash(v2)
    assert {v1: 1}.get(v2) == (1 if v1 == v2 else None)
    assert repr(v1) == f"VarId(name={n1!r}, owner={o1!r})"


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------

@MANY
@given(_instrs, environments(), environments())
def test_transfer_monotone(instr, e1, e2):
    joined = e1.join(e2)  # e1 <= joined by construction
    assert transfer(instr, e1).leq(transfer(instr, joined))
    if e1.leq(e2):
        assert transfer(instr, e1).leq(transfer(instr, e2))


@MANY
@given(_instrs, st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_transfer_sound_on_singletons(instr, x, a, b):
    concrete = {X: x, A: a, B: b}
    env = AbstractEnv({v: Interval.const(c) for v, c in concrete.items()})

    def ceval(e):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            return concrete[e.var]
        l, r = ceval(e.left), ceval(e.right)
        return {"+": l + r, "-": l - r, "*": l * r}[e.op]

    out = transfer(instr, env)
    if isinstance(instr, Store):
        concrete[X] = ceval(instr.src)
    elif isinstance(instr, LocalAssign):
        concrete[A] = ceval(instr.src)
    elif isinstance(instr, Load):
        concrete[B] = concrete[X]
    elif isinstance(instr, Assume):
        holds = {"==": lambda l, r: l == r, "!=": lambda l, r: l != r,
                 "<": lambda l, r: l < r, "<=": lambda l, r: l <= r,
                 ">": lambda l, r: l > r, ">=": lambda l, r: l >= r}[
            instr.cond.op](ceval(instr.cond.left), ceval(instr.cond.right))
        if not holds:
            return  # no concrete successor: nothing to contain
    for v, c in concrete.items():
        got = out.get(v)
        assert not got.is_bottom and got.lo <= c <= got.hi, (instr, v, c)


# ---------------------------------------------------------------------------
# Identity-preserving lattice operations
# ---------------------------------------------------------------------------
# Joins, widenings and `set` may return an operand itself, so results alias
# their operands' maps.  These properties check such results against
# references that always build a fresh value, the identity that lets
# `analyze_thread` widen in one pass, and that no operation writes to an
# operand.

def _ref_join(a: Interval, b: Interval) -> Interval:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def _ref_widen(a: Interval, b: Interval) -> Interval:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return Interval(a.lo if a.lo <= b.lo else NEG_INF,
                    a.hi if a.hi >= b.hi else POS_INF)


@st.composite
def interval_pairs(draw) -> tuple[Interval, Interval]:
    """Two intervals, often related: the same object, an equal copy, one
    inside or around the other, or unrelated."""
    a, b = draw(intervals()), draw(intervals())
    kind = draw(st.sampled_from(["same", "copy", "inside", "around",
                                 "fresh"]))
    if kind == "same":
        b = a
    elif kind == "copy":
        b = Interval(a.lo, a.hi, a.is_bottom)
    elif kind == "inside":
        b = a.meet(b)
    elif kind == "around":
        b = _ref_join(a, b)
    return (b, a) if draw(st.booleans()) else (a, b)


def _plain(env: AbstractEnv):
    """An env's exact content: None for bottom, else a copy of its map."""
    return None if env.is_bottom else dict(env._map)


def _ref_env(op, e1: AbstractEnv, e2: AbstractEnv):
    """The exact content of an env operation applied per variable with a
    reference interval operation: a variable mapped on one side is Top."""
    if e1.is_bottom:
        return _plain(e2)
    if e2.is_bottom:
        return _plain(e1)
    a, b = e1._map, e2._map
    return {v: op(a[v], b[v]) if v in a and v in b else _TOP
            for v in a.keys() | b.keys()}


@st.composite
def env_pairs(draw) -> tuple[AbstractEnv, AbstractEnv]:
    """Two sparse envs: unrelated half the time, else the same object, a
    copy, the first with one variable set, the first joined with another
    env, or the first with one key swapped for another (as many keys, a
    different key set)."""
    e1, e2 = draw(sparse_environments()), draw(sparse_environments())
    if draw(st.booleans()):
        return e1, e2
    kind = draw(st.sampled_from(["same", "copy", "set", "around", "swap"]))
    if kind == "same":
        e2 = e1
    elif kind == "copy":
        e2 = AbstractEnv(_plain(e1), is_bottom=e1.is_bottom)
    elif kind == "set":
        e2 = e1.set(draw(st.sampled_from(VARS)), draw(intervals()))
    elif kind == "around":
        e2 = e1.join(e2)
    elif kind == "swap" and not e1.is_bottom:
        # the other keys keep their interval objects
        absent = [v for v in VARS if v not in e1._map]
        if e1._map and absent:
            m = dict(e1._map)
            del m[draw(st.sampled_from(e1.variables()))]
            m[draw(st.sampled_from(absent))] = draw(intervals())
            e2 = AbstractEnv(m)
    return (e2, e1) if draw(st.booleans()) else (e1, e2)


@MANY
@given(interval_pairs())
def test_interval_operations_return_operands_equal_to_reference(pair):
    a, b = pair
    for op, ref in ((Interval.join, _ref_join), (Interval.widen, _ref_widen)):
        r, expected = op(a, b), ref(a, b)
        assert r == expected, (op, a, b)
        if expected == a:
            assert r is a, (op, a, b)
        elif expected == b:
            assert r is b, (op, a, b)
    if a.widen(b).is_top() and not a.is_top() and not b.is_top():
        assert a.widen(b) is _TOP
    # the identity that lets analyze_thread widen in one pass
    assert a.widen(b) == a.widen(a.join(b))


@MANY
@given(env_pairs())
@example((AbstractEnv({X: Interval.const(1), A: Interval.const(2)}),
          AbstractEnv({X: Interval.const(1), B: Interval.const(3)})))
def test_env_operations_equal_pointwise_reference(pair):
    e1, e2 = pair
    assert _reads(e1.join(e2)) == _pointwise(Interval.join, e1, e2)
    assert _reads(e1.widen(e2)) == _pointwise(Interval.widen, e1, e2)
    assert e1.leq(e2) == all(_pointwise(Interval.leq, e1, e2).values())
    assert (e1 == e2) == (_reads(e1) == _reads(e2))
    if not (e1.is_bottom or e2.is_bottom):
        keys = set(e1.variables()) | set(e2.variables())
        assert set(e1.join(e2).variables()) == keys
        assert set(e1.widen(e2).variables()) == keys
    # exact maps, whether or not the result is an operand
    for op, ref in ((AbstractEnv.join, _ref_join),
                    (AbstractEnv.widen, _ref_widen)):
        r = op(e1, e2)
        assert _plain(r) == _ref_env(ref, e1, e2), (op, e1, e2)
        if e1 is e2 or e2.is_bottom:
            assert r is e1
        elif e1.is_bottom:
            assert r is e2
    # the identity that lets analyze_thread widen in one pointwise pass,
    # bottom and variables mapped on one side only included
    assert _plain(e1.widen(e2)) == _plain(e1.widen(e1.join(e2)))


@st.composite
def nested_key_pairs(draw) -> tuple[AbstractEnv, AbstractEnv]:
    """Two non-bottom envs whose key sets nest, keys(e1) <= keys(e2) (more
    often than not the same set), each shared key holding a pair of related
    intervals as `interval_pairs` draws them."""
    keys = draw(st.lists(st.sampled_from(VARS), unique=True))
    m1, m2 = {}, {}
    for v in keys:
        m1[v], m2[v] = draw(interval_pairs())
    if draw(st.booleans()):
        for v in VARS:
            if v not in m2 and draw(st.booleans()):
                m2[v] = draw(intervals())
    return AbstractEnv(m1), AbstractEnv(m2)


@MANY
@given(nested_key_pairs())
def test_join_and_widen_return_the_left_env_exactly_when_above(pair):
    """The premise that lets `analyze_thread` skip `leq`: with the same
    keys, `e1.join(e2)` and `e1.widen(e2)` are `e1` itself exactly when
    `e2.leq(e1)`, so a result that is not `e1` and has as many keys is not
    below `e1`.  With more keys in `e2` the result has them all, and its
    entries beyond `e1`'s keys are Top."""
    e1, e2 = pair
    same_keys = e1._map.keys() == e2._map.keys()
    for op in (AbstractEnv.join, AbstractEnv.widen):
        r = op(e1, e2)
        assert r._map.keys() == e2._map.keys()
        if same_keys:
            assert (r is e1) == e2.leq(e1) == r.leq(e1), (op, e1, e2)
        else:
            assert r is not e1 and len(r._map) > len(e1._map)
            assert all(r.get(v).is_top() for v in r._map
                       if v not in e1._map)
        if r is not e1 and len(r._map) == len(e1._map):
            assert not r.leq(e1), (op, e1, e2)


@MANY
@given(sparse_environments(), st.sampled_from(VARS), intervals(),
       st.booleans())
def test_env_set_equals_reference(env, var, value, reuse):
    if reuse:
        value = env.get(var)
    r = env.set(var, value)
    if env.is_bottom or value.is_bottom:
        assert r.is_bottom
    else:
        assert _plain(r) == {**env._map, var: value}
        assert (r is env) == (env._map.get(var) is value)


@MANY
@given(env_pairs(), _instrs, _conds, st.sampled_from(VARS), intervals())
def test_operations_leave_operands_unchanged(pair, instr, cond, var, value):
    e1, e2 = pair
    operands = [(e, _plain(e)) for e in (e1, e2)]
    results = [e1.join(e2), e2.join(e1), e1.widen(e2), e2.widen(e1),
               e1.set(var, value), e1.set(var, e1.get(var)),
               transfer(instr, e1), transfer(instr, e2),
               refine(cond, e1), refine(negate(cond), e2)]
    assert all(_plain(e) == snap for e, snap in operands)
    # results alias operands, so operating on a result must not write
    # through to an operand or to another result either
    everything = operands + [(r, _plain(r)) for r in results]
    for r in results:
        r.join(e1).widen(e2)
        e1.widen(r).join(r)
        refine(cond, transfer(instr, r.set(var, value)))
    assert all(_plain(e) == snap for e, snap in everything)


_small_finite = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
    lambda t: Interval(min(t), max(t)))
_HOLDS = {"==": lambda l, r: l == r, "!=": lambda l, r: l != r,
          "<": lambda l, r: l < r, "<=": lambda l, r: l <= r,
          ">": lambda l, r: l > r, ">=": lambda l, r: l >= r}


@MANY
@given(st.sampled_from(sorted(_HOLDS)), _small_finite, _small_finite)
def test_comparison_may_hold_equals_brute_force(op, left, right):
    # refinement returns bottom exactly when no pair of values satisfies op
    env = AbstractEnv().set(A, left).set(B, right)
    cmp = Cmp(op, Var(A), Var(B))
    assert (not refine(cmp, env).is_bottom) == any(
        _HOLDS[op](l, r) for l in range(left.lo, left.hi + 1)
        for r in range(right.lo, right.hi + 1))


# ---------------------------------------------------------------------------
# Relation inclusion chains per model
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _rf_universe(name: str):
    """All well-formed remote (load, store) same-variable fact pairs."""
    prog = corpus_program(name)
    store = extract_all(prog)
    pairs = []
    for l, lv in sorted(store.load_var.items()):
        for s, sv in sorted(store.store_var.items()):
            if lv == sv and store.thread_of[l] != store.thread_of[s]:
                pairs.append((l, s))
    return prog, store, pairs


@functools.lru_cache(maxsize=None)
def _context(name: str, model: MemoryModel) -> FeasibilityContext:
    prog, store, _ = _rf_universe(name)
    return FeasibilityContext(store, model)


def _engine_relations(ctx: FeasibilityContext, rf: frozenset):
    """(MHB, MustNotReadFrom) of the bitset engine under reads-from rf."""
    rows = mhb_rows(ctx, rf)
    mnrf = {(l, s) for l, lv in ctx.store.load_var.items()
            for s, sv in ctx.store.store_var.items()
            if lv == sv and ctx.must_not_read_from(rows, rf, l, s)}
    return node_pairs(rows), mnrf


@MANY
@given(st.sampled_from(CORPUS_FILES), st.data())
def test_model_inclusion_of_derived_relations(name, data):
    _, _, pairs = _rf_universe(name)
    rf = frozenset(data.draw(st.sets(st.sampled_from(pairs), max_size=3))
                   if pairs else ())
    prev_nr = prev_mhb = prev_mnrf = None
    for model in (MemoryModel.RMO, MemoryModel.PSO, MemoryModel.TSO,
                  MemoryModel.SC):
        ctx = _context(name, model)
        nr = frozenset(relation(ctx, "NoReorder"))
        mhb, mnrf = _engine_relations(ctx, rf)
        if prev_nr is not None:
            assert prev_nr <= nr
            assert prev_mhb <= mhb
            assert prev_mnrf <= mnrf
        prev_nr, prev_mhb, prev_mnrf = nr, mhb, mnrf


@MANY
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(MODELS), st.data())
def test_datalog_fact_monotonicity_on_deduction(name, model, data):
    _, _, pairs = _rf_universe(name)
    ctx = _context(name, model)
    rf_small = data.draw(st.sets(st.sampled_from(pairs), max_size=2)) \
        if pairs else set()
    extra = data.draw(st.sets(st.sampled_from(pairs), max_size=2)) \
        if pairs else set()
    _, small = _engine_relations(ctx, frozenset(rf_small))
    _, big = _engine_relations(ctx, frozenset(rf_small | extra))
    assert small <= big


# ---------------------------------------------------------------------------
# The bitset feasibility engine against the Datalog rules
# ---------------------------------------------------------------------------

def _check_base_mhb() -> None:
    """Each corpus context's base MHB equals the rules' MHB without facts.
    The contexts are built afresh, by whatever engine is in place."""
    for name in CORPUS_FILES:
        prog, store, _ = _rf_universe(name)
        for model in MODELS:
            ctx = FeasibilityContext(store, model)
            assert relation(ctx, "MHB") == solve(ctx.relation_facts(),
                                                 set())[0], (name, model)


def _reference_enumerate_combinations(loads, ctx) -> list[dict]:
    """The enumeration the depth-first search replaced: the whole product,
    then one check_facts query per combination."""
    return [sigma for sigma in product(loads)
            if ctx.check_facts(facts_for(ctx, sigma))]


def _check_analyzer_queries(monkeypatch) -> None:
    """check_facts agrees with the rules on every fact set analyze_all
    decides over corpus x models: the facts of each combination of every
    component's product, kept or refuted, and each query check_facts
    answers for it (the single facts of loop loads)."""
    queries = {}
    check_facts = FeasibilityContext.check_facts

    def recording(ctx, facts):
        queries[ctx, facts] = None
        return check_facts(ctx, facts)

    with monkeypatch.context() as m:
        m.setattr(FeasibilityContext, "check_facts", recording)
        for name in CORPUS_FILES:
            for model in MODELS:
                analyze_all(corpus_program(name), model)
    for name in CORPUS_FILES:
        prog, store, _ = _rf_universe(name)
        for model in MODELS:
            ctx = FeasibilityContext(store, model)
            for loads in component_loads(prog, store):
                for sigma in product(loads):
                    queries[ctx, facts_for(ctx, sigma)] = None
    assert len(queries) > 1000
    for ctx, facts in queries:
        assert ctx.check_facts(facts) == _spec_feasible(ctx, facts), facts


def _spec_feasible(ctx: FeasibilityContext, facts: frozenset) -> bool:
    """Whether the rules refute none of the facts."""
    return not facts & solve(ctx.relation_facts(), set(facts))[1]


def _check_enumeration(cases, spec: bool = False) -> None:
    """For each (program, model), the depth-first enumeration of every
    component yields exactly the product filtered by check_facts, in the
    same order; with `spec`, also exactly the product filtered by the
    rules themselves."""
    for prog, model in cases:
        relstore = extract_all(prog)
        ctx = FeasibilityContext(relstore, model)
        for loads in component_loads(prog, relstore):
            got, overflow = enumerate_combinations(loads, DEFAULT_CAP, ctx)
            assert not overflow
            assert got == _reference_enumerate_combinations(loads, ctx), \
                (model, loads)
            if spec:
                assert got == [sigma for sigma in product(loads)
                               if _spec_feasible(ctx, facts_for(ctx, sigma))
                               ], (model, loads)


def _corpus_cases():
    return [(corpus_program(name), model)
            for name in CORPUS_FILES for model in MODELS]


_GENERATED_CASES = {
    "mp": [mp_text(k) for k in (1, 2, 3)],
    "ring": [ring_text(k) for k in (3, 4, 5)],
}


def test_base_mhb_equals_spec_on_corpus():
    _check_base_mhb()


def test_check_facts_equals_spec_on_analyzer_queries(monkeypatch):
    _check_analyzer_queries(monkeypatch)


def test_enumeration_equals_filtered_product_on_corpus():
    _check_enumeration(_corpus_cases(), spec=True)


@pytest.mark.parametrize("family", sorted(_GENERATED_CASES))
def test_enumeration_equals_filtered_product_on_generated(family):
    _check_enumeration((parse_and_lower(text)[0], model)
                       for text in _GENERATED_CASES[family]
                       for model in MODELS)


@MANY
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(MODELS), st.data())
def test_engine_relations_equal_spec(name, model, data):
    _, _, pairs = _rf_universe(name)
    rf = frozenset(data.draw(st.sets(st.sampled_from(pairs), max_size=4))
                   if pairs else ())
    ctx = _context(name, model)
    mhb, mnrf = _engine_relations(ctx, rf)
    want_mhb, want_mnrf = solve(ctx.relation_facts(), set(rf))
    assert mhb == want_mhb
    assert mnrf == want_mnrf
    assert ctx.check_facts(rf) == (not rf & want_mnrf)


@MANY
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(MODELS), st.data())
def test_spec_fact_monotonicity(name, model, data):
    _, _, pairs = _rf_universe(name)
    ctx = _context(name, model)
    rf = frozenset(data.draw(st.sets(st.sampled_from(pairs), max_size=2))
                   if pairs else ())
    more = rf | frozenset(data.draw(st.sets(st.sampled_from(pairs),
                                            max_size=2)) if pairs else ())
    small = solve(ctx.relation_facts(), set(rf))[1]
    big = solve(ctx.relation_facts(), set(more))[1]
    assert small <= big


# Four faults planted in the bitset engine, each of which the differentials
# above must catch.
def _drop_rule_6(m):
    must_not_read_from = FeasibilityContext.must_not_read_from
    m.setattr(FeasibilityContext, "must_not_read_from",
              lambda ctx, rows, facts, load, source: must_not_read_from(
                  ctx, rows, frozenset(), load, source))


def _skip_rule_4(m):
    def fact_edges_only(ctx, rows, facts, new):
        rows = list(rows)
        for load, source in new:
            feasibility._insert(rows, source, 1 << load)
        return rows
    m.setattr(FeasibilityContext, "add_facts", fact_edges_only)


def _insert_into_row_a_only(m):
    def row_a_only(rows, a, targets):
        rows[a] |= targets
        for t in bits(targets):
            rows[a] |= rows[t]
    m.setattr(feasibility, "_insert", row_a_only)


def _drop_join_edges(m):
    deduce_mhb = feasibility.deduce_mhb
    m.setattr(feasibility, "deduce_mhb",
              lambda store, no_reorder: deduce_mhb(
                  dataclasses.replace(store, thread_joins={}),
                  no_reorder))


@pytest.mark.parametrize("mutant", [
    _drop_rule_6, _skip_rule_4, _insert_into_row_a_only, _drop_join_edges,
], ids=lambda mutant: mutant.__name__.strip("_"))
def test_spec_differentials_catch_engine_mutants(mutant, monkeypatch):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        _check_base_mhb()
        _check_analyzer_queries(monkeypatch)
    with pytest.raises(AssertionError):
        _check_enumeration(_corpus_cases(), spec=True)


# ---------------------------------------------------------------------------
# The MHB closure vs. brute force on random edge sets
# ---------------------------------------------------------------------------

_edge_sets = st.integers(1, 10).flatmap(lambda n: st.sets(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))


@MANY
@given(_edge_sets)
# a row settled too early would miss 3 in the rows of 1 and 2: both skip
# 5 inside each other's row, and 5 only reaches 3 through 0 (a lower id)
@example({(0, 3), (1, 2), (1, 5), (2, 1), (2, 5), (5, 0)})
def test_closure_equals_brute_force(edges):
    """Backward edges, self loops and cycles included."""
    targets: dict[int, int] = {}
    for a, b in edges:
        targets[a] = targets.get(a, 0) | 1 << b
    size = 1 + max((max(e) for e in edges), default=0)
    expected = [0] * size
    for a in range(size):
        stack = [b for x, b in edges if x == a]
        while stack:
            b = stack.pop()
            if not expected[a] >> b & 1:
                expected[a] |= 1 << b
                stack += [c for x, c in edges if x == b]
    assert closure(targets, size) == expected


# ---------------------------------------------------------------------------
# Dominators vs. brute force on random small graphs
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw) -> FlowGraph:
    n = draw(st.integers(2, 12))
    nodes = {i: Nop() for i in range(n)}
    edges = set(draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
        max_size=2 * n)))
    edges |= {(i, i + 1) for i in range(n - 1)}  # keep everything reachable
    edges = {(a, b) for (a, b) in edges if a != b and b != 0}
    edges = {(a, b) for (a, b) in edges
             if not (a == n - 1)}  # exit keeps no successors
    return FlowGraph("t", nodes, 0, n - 1, edges)


def _brute_dominates(graph: FlowGraph):
    out = set()
    reachable = {graph.entry}
    stack = [graph.entry]
    while stack:
        m = stack.pop()
        for s in graph.successors(m):
            if s not in reachable:
                reachable.add(s)
                stack.append(s)
    for a in reachable:
        seen = {graph.entry} - {a}
        stack = list(seen)
        while stack:
            m = stack.pop()
            for s in graph.successors(m):
                if s != a and s not in seen:
                    seen.add(s)
                    stack.append(s)
        for b in reachable:
            if b != a and b not in seen:
                out.add((a, b))
    return out


@MANY
@given(small_graphs())
def test_dominates_equals_brute_force(graph):
    assert dominates(graph) == _brute_dominates(graph)


# ---------------------------------------------------------------------------
# NoReorder masks vs. the pair-set reference
# ---------------------------------------------------------------------------

def _reference_no_reorder(model: MemoryModel, store, program
                          ) -> set[tuple[int, int]]:
    """Same-thread pairs (s1,s2), s1 program-order-before s2, that no
    execution under the model may reorder.  Fences and the
    thread-management points are ordered with everything in their thread:
    create/join act as full barriers, and entry/exit anchor the
    cross-thread ordering rules."""
    strong = ({*bits(store.fences), *store.thread_creates,
               *store.thread_joins})
    pairs: set[tuple[int, int]] = set()
    for name in sorted(program.threads):
        g = program.threads[name]
        interesting = []
        for n in sorted(g.nodes):
            kind = ("L" if n in store.load_var
                    else "S" if n in store.store_var else None)
            c = (kind, store.load_var.get(n, store.store_var.get(n)),
                 n in strong or n in (g.entry, g.exit))
            if kind is not None or c[2]:
                interesting.append((n, c, 1 << n))
        for s1, c1, bit1 in interesting:
            # s1 must be able to precede s2 in program order
            after = store.reach[s1] & ~bit1
            for s2, c2, bit2 in interesting:
                if after & bit2 and _base_no_reorder(model, c1, c2):
                    pairs.add((s1, s2))
    pairs |= _membar_pairs(store)
    return pairs


def _base_no_reorder(model: MemoryModel, c1, c2) -> bool:
    """Whether the model keeps s1 before s2, from their (access kind,
    variable, strong)."""
    (k1, v1, strong1), (k2, v2, strong2) = c1, c2
    if strong1 or strong2:
        return True
    if k1 is None or k2 is None:
        return False
    if model is MemoryModel.SC:
        return True
    if model is MemoryModel.TSO:
        # only store->load pairs may be reordered (incl. same variable,
        # which the store buffer forwards)
        return k1 == "L" or k2 == "S"
    if model is MemoryModel.PSO:
        return k1 == "L" or (k1 == "S" and k2 == "S" and v1 == v2)
    # RMO keeps only same-variable pairs, except store->load (forwarding)
    return v1 == v2 and not (k1 == "S" and k2 == "L")


def _membar_pairs(store) -> set[tuple[int, int]]:
    """(s1, s2) with s1 dominating a membar of kind k1k2 that dominates
    s2, s1 of access kind k1 and s2 of access kind k2."""
    of_kind = {"L": store.load_var, "S": store.store_var}
    firsts = {k: sum(1 << n for n in nodes) for k, nodes in of_kind.items()}
    pairs: set[tuple[int, int]] = set()
    for kind, membars in store.membars.items():
        for s2 in of_kind[kind[1]]:
            for m in bits(store.dominators[s2] & membars):
                pairs.update((s1, s2) for s1 in
                             bits(store.dominators[m] & firsts[kind[0]]))
    return pairs


def _check_no_reorder(program: Program, models=MODELS) -> None:
    """The context's NoReorder facts equal the reference, pair for pair."""
    store = extract_all(program)
    for model in models:
        ctx = FeasibilityContext(store, model)
        assert relation(ctx, "NoReorder") \
            == _reference_no_reorder(model, store, program), model


def _check_no_reorder_on_corpus() -> None:
    for name in CORPUS_FILES:
        program = corpus_program(name)
        _check_no_reorder(program)
        _check_no_reorder(with_gaps(program, lambda n: 3 * n + 2))


_INSTRS = st.one_of(
    st.sampled_from([Load(A, X), Load(B, Y), Store(X, Const(1)),
                     Store(Y, Const(2)), Fence(), Nop()]),
    st.sets(st.sampled_from(MEMBAR_KINDS), min_size=1).map(
        lambda kinds: Membar(frozenset(kinds))))


@st.composite
def access_programs(draw) -> Program:
    """One thread on a `small_graphs` graph (loops and branches included)
    whose nodes load, store, fence or membar over two variables."""
    graph = draw(small_graphs())
    nodes = {n: draw(_INSTRS) for n in graph.nodes}
    return Program({X: 0, Y: 0},
                   {"t": FlowGraph("t", nodes, graph.entry, graph.exit,
                                   graph.edges)}, "t")


def test_no_reorder_equals_reference_on_corpus():
    _check_no_reorder_on_corpus()


@MANY
@given(access_programs(), st.sampled_from(MODELS))
def test_no_reorder_equals_reference_on_random_graphs(program, model):
    _check_no_reorder(program, [model])


def _drop_membar_part(m):
    compute = feasibility.compute_no_reorder
    m.setattr(feasibility, "compute_no_reorder",
              lambda model, store: compute(
                  model, dataclasses.replace(
                      store, membars=dict.fromkeys(store.membars, 0))))


def _pso_table_under_tso(m):
    compute = feasibility.compute_no_reorder
    m.setattr(feasibility, "compute_no_reorder",
              lambda model, store: compute(
                  MemoryModel.PSO if model is MemoryModel.TSO else model,
                  store))


@pytest.mark.parametrize("mutant", [_drop_membar_part, _pso_table_under_tso],
                         ids=lambda mutant: mutant.__name__.strip("_"))
def test_no_reorder_reference_catches_mutants(mutant, monkeypatch):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        _check_no_reorder_on_corpus()


# ---------------------------------------------------------------------------
# Cached graph structure vs. edge scans
# ---------------------------------------------------------------------------

def _scan_successors(graph: FlowGraph, n: int) -> list[int]:
    return sorted(b for (a, b) in graph.edges if a == n)


def _scan_predecessors(graph: FlowGraph, n: int) -> list[int]:
    return sorted(a for (a, b) in graph.edges if b == n)


def _scan_cycle_nodes(graph: FlowGraph) -> set[int]:
    """Nodes lying on some cycle: one DFS per node over edge scans."""
    on_cycle = set()
    for n in graph.nodes:
        stack = list(_scan_successors(graph, n))
        seen = set(stack)
        while stack:
            m = stack.pop()
            if m == n:
                on_cycle.add(n)
                break
            for s in _scan_successors(graph, m):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
    return on_cycle


def _scan_not_reachable_from(graph: FlowGraph) -> set[tuple[int, int]]:
    """(s1, s2) iff no path of zero or more edges leads from s2 to s1."""
    out = set()
    for s2 in graph.nodes:
        seen = {s2}
        stack = [s2]
        while stack:
            for s in _scan_successors(graph, stack.pop()):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        out |= {(s1, s2) for s1 in graph.nodes if s1 not in seen}
    return out


def _scan_reach(graph: FlowGraph) -> set[tuple[int, int]]:
    """(a, b) iff a path of one or more edges leads from a to b."""
    out = set()
    for a in graph.nodes:
        stack = _scan_successors(graph, a)
        seen = set(stack)
        while stack:
            for s in _scan_successors(graph, stack.pop()):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        out |= {(a, b) for b in seen}
    return out


def _assert_structure_matches_scans(graph: FlowGraph) -> None:
    for n in graph.nodes:
        assert list(graph.successors(n)) == _scan_successors(graph, n)
        assert list(graph.predecessors(n)) == _scan_predecessors(graph, n)
    assert graph.loop_nodes == _scan_cycle_nodes(graph)
    assert not_reachable_from(graph) == _scan_not_reachable_from(graph)
    reach = _scan_reach(graph)
    assert {(a, b) for a, r in graph.reachable.items()
            for b in bits(r)} == reach


@MANY
@given(small_graphs())
def test_graph_structure_equals_edge_scans(graph):
    _assert_structure_matches_scans(graph)


def test_corpus_graph_structure_equals_edge_scans():
    for name in CORPUS_FILES:
        for graph in corpus_program(name).threads.values():
            _assert_structure_matches_scans(graph)


# ---------------------------------------------------------------------------
# Corpus-level inclusion, monotonicity, determinism
# ---------------------------------------------------------------------------

@MANY
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(ADJACENT))
def test_oracle_behavior_inclusion(name, pair):
    stronger, weaker = pair
    assert oracle_behaviors(name, stronger) <= oracle_behaviors(name, weaker)


@MANY
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(ADJACENT))
def test_verdict_monotonicity_across_models(name, pair):
    stronger, weaker = pair
    _, weak_verdicts, _ = analyzer_result(name, weaker)
    _, strong_verdicts, _ = analyzer_result(name, stronger)
    proved_weak = {v.node for v in weak_verdicts if v.status == "PROVED"}
    proved_strong = {v.node for v in strong_verdicts
                     if v.status == "PROVED"}
    assert proved_weak <= proved_strong


@functools.lru_cache(maxsize=None)
def _rerun_fingerprint(name: str, model: MemoryModel, run: int) -> str:
    env_map, verdicts, stats = analyze_all(corpus_program(name), model)
    lines = [f"{n} {env_map[n]}" for n in sorted(env_map)]
    lines += [f"{v.node} {v.status} {v.witness}" for v in verdicts]
    lines += [f"{t} {s.combinations_enumerated} {s.combinations_pruned}"
              for t, s in sorted(stats.per_thread.items())]
    return "\n".join(lines)


@MANY
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(MODELS))
def test_analysis_deterministic(name, model):
    assert _rerun_fingerprint(name, model, 1) \
        == _rerun_fingerprint(name, model, 2)
