# The oracle's search as it stood before its symbolic values became IR
# expressions, kept unchanged as the reference that
# tests/test_oracle_differential.py compares relaxcheck.oracle against.
"""Exhaustive concrete-execution enumerator under a memory model.

Ground truth for testing, not part of the verification path.  Works in two
phases: enumerate loop-bounded control-flow paths per thread, then search
over all commit orders of the paths' memory events.  Intra-thread order is
constrained pairwise by the model's reordering table (plus fences, membars,
and per-location store coherence); a load reads the latest committed store
to its variable unless a program-order-earlier own store is still pending,
in which case the load is forced to forward that store's value.  A
thread's events wait for its create event; an execution ends when no event
is enabled, completed or blocked, and judges the asserts it reached.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from relaxcheck.ir import (
    And, Assert, Assume, Cmp, Cond, Const, Expr, Fence, FlowGraph,
    Load, LocalAssign, Membar, Nop, Not, Or, Program, Store, ThreadCreate,
    ThreadJoin, Var, VarId, negate,
)
from relaxcheck.feasibility import MemoryModel


class OracleLimitError(Exception):
    """Loop bound or event budget exceeded on a realizable path."""


@dataclass(frozen=True)
class Execution:
    """One observable behavior: final memory plus assert outcomes."""
    final_memory: tuple[tuple[str, int], ...]
    failed_asserts: frozenset[int]  # assert node ids that evaluated false


# ---------------------------------------------------------------------------
# Symbolic thread-local values: expressions over load occurrences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    """The (as yet unknown) value returned by one load occurrence."""
    occ: int


def _subst_expr(e: Expr, env: dict[VarId, object]) -> object:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env.get(e.var, 0)  # uninitialized locals read as 0
    left, right = _subst_expr(e.left, env), _subst_expr(e.right, env)
    return _sym_binop(e.op, left, right)


def _sym_binop(op: str, left: object, right: object) -> object:
    if isinstance(left, int) and isinstance(right, int):
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        return left * right
    return ("bin", op, left, right)


def _toks_of(v: object) -> set[int]:
    if isinstance(v, _Tok):
        return {v.occ}
    if isinstance(v, tuple):
        return _toks_of(v[2]) | _toks_of(v[3])
    return set()


def _eval_sym(v: object, values: dict[int, int]) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, _Tok):
        return values[v.occ]
    _, op, left, right = v
    lv, rv = _eval_sym(left, values), _eval_sym(right, values)
    if op == "+":
        return lv + rv
    if op == "-":
        return lv - rv
    return lv * rv


def _subst_cond(c: Cond, env: dict[VarId, object]):
    if isinstance(c, Cmp):
        return ("cmp", c.op, _subst_expr(c.left, env),
                _subst_expr(c.right, env))
    if isinstance(c, Not):
        return _subst_cond(negate(c.cond), env)
    tag = "and" if isinstance(c, And) else "or"
    return (tag, _subst_cond(c.left, env), _subst_cond(c.right, env))


def _cond_toks(c) -> set[int]:
    if c[0] == "cmp":
        return _toks_of(c[2]) | _toks_of(c[3])
    return _cond_toks(c[1]) | _cond_toks(c[2])


def _eval_cond(c, values: dict[int, int]) -> bool:
    if c[0] == "cmp":
        lv, rv = _eval_sym(c[2], values), _eval_sym(c[3], values)
        return {"==": lv == rv, "!=": lv != rv, "<": lv < rv,
                "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv}[c[1]]
    if c[0] == "and":
        return _eval_cond(c[1], values) and _eval_cond(c[2], values)
    return _eval_cond(c[1], values) or _eval_cond(c[2], values)


# ---------------------------------------------------------------------------
# Phase 1: loop-bounded path enumeration
# ---------------------------------------------------------------------------

def _enumerate_paths(graph: FlowGraph, max_iters: int
                     ) -> list[tuple[list[int], bool]]:
    """All entry->exit node sequences, visiting no node more than
    max_iters + 1 times.  Cut paths are returned with truncated=True."""
    limit = max_iters + 1
    results: list[tuple[list[int], bool]] = []
    stack: list[tuple[int, list[int], dict[int, int]]] = [
        (graph.entry, [graph.entry], {graph.entry: 1})]
    while stack:
        node, path, counts = stack.pop()
        if node == graph.exit:
            results.append((path, False))
            continue
        for succ in reversed(graph.successors(node)):
            if counts.get(succ, 0) >= limit:
                results.append((path + [succ], True))
                continue
            c = dict(counts)
            c[succ] = c.get(succ, 0) + 1
            stack.append((succ, path + [succ], c))
    results.sort(key=lambda r: (r[0], r[1]))
    return results


# ---------------------------------------------------------------------------
# Phase 2: constrained linearization of memory events
# ---------------------------------------------------------------------------

@dataclass
class _Event:
    occ: int
    thread: str
    node: int
    kind: str               # 'load' | 'store' | 'fence' | 'create' | 'join'
    var: VarId | None = None
    value: object = None    # store: symbolic value; create/join: child name
    forward_from: int | None = None  # load: pending own store occurrence
    preds: set[int] = field(default_factory=set)  # hard same-thread order


@dataclass
class _Check:
    """An assume or assert condition attached to a path position."""
    cond: object
    toks: frozenset[int]
    is_assert: bool
    node: int
    after: int  # how many of the thread's events precede it


def _base_ordered(model: MemoryModel, k1: str, v1: VarId,
                  k2: str, v2: VarId) -> bool:
    if model is MemoryModel.SC:
        return True
    if model is MemoryModel.TSO:
        return k1 == "load" or k2 == "store"
    if model is MemoryModel.PSO:
        return k1 == "load" or v1 == v2 and k2 == "store"
    return v1 == v2 and not (k1 == "store" and k2 == "load")


class _ThreadTrace:
    """Events, checks and constraints of one thread's chosen path."""

    def __init__(self, thread: str, path: list[int], truncated: bool,
                 graph: FlowGraph, model: MemoryModel, next_occ):
        self.thread = thread
        self.truncated = truncated
        self.events: list[_Event] = []
        self.checks: list[_Check] = []
        locals_env: dict[VarId, object] = {}
        membar_positions: list[tuple[int, frozenset[str]]] = []
        own_stores: dict[VarId, list[_Event]] = {}

        for node in path:
            instr = graph.nodes[node]
            if isinstance(instr, Load):
                ev = _Event(next_occ(), thread, node, "load", var=instr.src)
                pending = own_stores.get(instr.src)
                if pending:
                    ev.forward_from = pending[-1].occ
                self.events.append(ev)
                locals_env[instr.dst] = _Tok(ev.occ)
            elif isinstance(instr, Store):
                ev = _Event(next_occ(), thread, node, "store", var=instr.dst,
                            value=_subst_expr(instr.src, locals_env))
                self.events.append(ev)
                own_stores.setdefault(instr.dst, []).append(ev)
            elif isinstance(instr, LocalAssign):
                locals_env[instr.dst] = _subst_expr(instr.src, locals_env)
            elif isinstance(instr, Fence):
                self.events.append(_Event(next_occ(), thread, node, "fence"))
            elif isinstance(instr, Membar):
                membar_positions.append((len(self.events), instr.kinds))
            elif isinstance(instr, ThreadCreate):
                self.events.append(_Event(next_occ(), thread, node, "create",
                                          value=instr.child))
            elif isinstance(instr, ThreadJoin):
                self.events.append(_Event(next_occ(), thread, node, "join",
                                          value=instr.child))
            elif isinstance(instr, (Assume, Assert)):
                cond = _subst_cond(instr.cond, locals_env)
                self.checks.append(_Check(cond, frozenset(_cond_toks(cond)),
                                          isinstance(instr, Assert), node,
                                          len(self.events)))
            elif isinstance(instr, Nop):
                pass
            else:
                raise TypeError(instr)

        self._order_events(model, membar_positions)

    def _order_events(self, model, membar_positions) -> None:
        evs = self.events
        for j, ej in enumerate(evs):
            for i in range(j):
                ei = evs[i]
                if self._must_order(model, ei, ej, i, j, membar_positions):
                    ej.preds.add(ei.occ)

    @staticmethod
    def _must_order(model, ei: _Event, ej: _Event, i: int, j: int,
                    membar_positions) -> bool:
        if ei.node == ej.node:
            return True  # occurrences of one instruction stay in order
        if ei.kind in ("fence", "create", "join") \
                or ej.kind in ("fence", "create", "join"):
            return True
        if ei.var == ej.var and ei.kind == "store" and ej.kind == "store":
            return True  # per-location store coherence
        kinds = {"load": "L", "store": "S"}
        for pos, mk in membar_positions:
            if i < pos <= j and kinds[ei.kind] + kinds[ej.kind] in mk:
                return True
        return _base_ordered(model, ei.kind, ei.var, ej.kind, ej.var)


def _root_first(program: Program) -> list[str]:
    names = [program.root]
    names += [t for t in program.threads if t != program.root]
    return names


def enumerate_executions(program: Program, model: MemoryModel,
                         max_events: int = 12,
                         max_loop_iters: int = 3) -> set[Execution]:
    """All observable behaviors (final memory + assert outcomes)."""
    thread_names = _root_first(program)
    per_thread_paths = {
        t: _enumerate_paths(program.threads[t], max_loop_iters)
        for t in thread_names}

    behaviors: set[Execution] = set()
    for choice in itertools.product(*(per_thread_paths[t]
                                      for t in thread_names)):
        occ_counter = itertools.count()
        traces = [
            _ThreadTrace(t, path, truncated, program.threads[t], model,
                         lambda: next(occ_counter))
            for t, (path, truncated) in zip(thread_names, choice)]
        n_mem = sum(1 for tr in traces if tr.thread != program.root
                    for e in tr.events if e.kind in ("load", "store"))
        if n_mem > max_events:
            raise OracleLimitError(
                f"event budget exceeded ({n_mem} > {max_events})")
        behaviors |= _linearize(program, traces)
    return behaviors


def _linearize(program: Program, traces: list[_ThreadTrace]
               ) -> set[Execution]:
    events: dict[int, _Event] = {}
    by_thread: dict[str, list[_Event]] = {}
    store_value: dict[int, object] = {}
    for tr in traces:
        by_thread[tr.thread] = tr.events
        for e in tr.events:
            events[e.occ] = e
            if e.kind == "store":
                store_value[e.occ] = e.value
    created_by = {e.value: e.occ for tr in traces for e in tr.events
                  if e.kind == "create"}  # thread -> creating event occ
    asserts: list[tuple[_Check, set[int]]] = []  # with the occs they wait for
    for tr in traces:
        # -1, never done: a thread whose create is on no chosen path
        start = ({created_by.get(tr.thread, -1)}
                 if tr.thread != program.root else set())
        for e in tr.events:
            e.preds |= start
        asserts += [(ch, start | {e.occ for e in tr.events[:ch.after]})
                    for ch in tr.checks if ch.is_assert]
    all_occs = frozenset(events)
    behaviors: set[Execution] = set()
    visited: set = set()

    init_memory = tuple(sorted((v.name, 0) for v in program.globals))

    def memory_get(memory: tuple, var: VarId) -> int:
        return dict(memory)[var.name]

    def enabled(occ: int, done: frozenset[int],
                values: dict[int, int]) -> bool:
        e = events[occ]
        if occ in done:
            return False
        if not e.preds <= done:
            return False
        if e.kind == "join":
            child = {ev.occ for ev in by_thread.get(e.value, [])}
            if not child <= done:
                return False
        if e.kind == "store":
            if not _toks_of(e.value) <= values.keys():
                return False
        if e.kind == "load" and e.forward_from is not None \
                and e.forward_from not in done:
            if not _toks_of(store_value[e.forward_from]) <= values.keys():
                return False
        return True

    def checks_pass(values: dict[int, int]) -> bool:
        for tr in traces:
            for ch in tr.checks:
                if not ch.is_assert and ch.toks <= values.keys():
                    if not _eval_cond(ch.cond, values):
                        return False
        return True

    def dfs(done: frozenset[int], memory: tuple,
            values_items: tuple) -> None:
        key = (done, memory, values_items)
        if key in visited:
            return
        visited.add(key)
        values = dict(values_items)
        # a truncated prefix that is fully realizable has no continuation
        for tr in traces:
            if tr.truncated and {e.occ for e in tr.events} <= done:
                raise OracleLimitError(
                    f"loop bound exceeded in thread '{tr.thread}'")
        steps = [occ for occ in sorted(all_occs - done)
                 if enabled(occ, done, values)]
        if not steps:  # completed or blocked
            behaviors.add(Execution(memory, frozenset(
                ch.node for ch, before in asserts
                if before <= done and not _eval_cond(ch.cond, values))))
            return
        for occ in steps:
            e = events[occ]
            new_memory, new_values = memory, values
            if e.kind == "store":
                val = _eval_sym(e.value, values)
                new_memory = tuple((n, val if n == e.var.name else old)
                                   for n, old in memory)
            elif e.kind == "load":
                if e.forward_from is not None and e.forward_from not in done:
                    val = _eval_sym(store_value[e.forward_from], values)
                else:
                    val = memory_get(memory, e.var)
                new_values = dict(values)
                new_values[occ] = val
                if not checks_pass(new_values):
                    continue
            dfs(done | {occ}, new_memory,
                tuple(sorted(new_values.items())))

    # some assumes may be constant-false (no load deps): check upfront
    if checks_pass({}):
        dfs(frozenset(), init_memory, ())
    return behaviors


def violates(program: Program, model: MemoryModel,
             max_events: int = 12,
             max_loop_iters: int = 3) -> dict[int, bool]:
    """Per assert node: does some execution falsify it?"""
    result: dict[int, bool] = {}
    for name in sorted(program.threads):
        g = program.threads[name]
        for n in sorted(g.nodes):
            if isinstance(g.nodes[n], Assert):
                result[n] = False
    for ex in enumerate_executions(program, model, max_events,
                                   max_loop_iters):
        for n in ex.failed_asserts:
            result[n] = True
    return result
