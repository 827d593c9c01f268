"""Exhaustive concrete-execution enumerator under a memory model.

Ground truth for testing, not part of the verification path.  Works in two
phases: enumerate loop-bounded control-flow paths per thread, then search
over all commit orders of the paths' memory events.  Intra-thread order is
constrained pairwise by the model's reordering table (plus fences, membars,
and per-location store coherence); a load reads the latest committed store
to its variable unless a program-order-earlier own store is still pending,
in which case the load is forced to forward that store's value.  A
thread's events wait for its create event, and a join waits for every
event of its child; an execution ends when no event is enabled, completed
or blocked, and judges the asserts it reached.

A thread's values are IR expressions over its load occurrences: occurrence
n reads into the local `#n`, a name that no source identifier can take.
Only the IR and the model's name are read, so the oracle stays independent
of the analyzer it checks.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .ir import (
    And, Assert, Assume, BinOp, Cond, Const, Expr, Fence, FlowGraph, Load,
    LocalAssign, Membar, MemoryModel, Nop, Not, Or, Program, Store,
    ThreadCreate, ThreadJoin, Var, VarId, cond_vars, expr_vars,
)


#: The default budgets: memory events per execution, and unrollings of
#: each loop on a path.
MAX_EVENTS = 12
MAX_LOOP_ITERS = 3


class OracleLimitError(Exception):
    """Loop bound or event budget exceeded on a realizable path."""


@dataclass(frozen=True)
class Execution:
    """One observable behavior: final memory plus assert outcomes."""
    final_memory: tuple[tuple[str, int], ...]
    failed_asserts: frozenset[int]  # assert node ids that evaluated false


# ---------------------------------------------------------------------------
# Symbolic thread-local values: IR expressions over load occurrences
# ---------------------------------------------------------------------------

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ZERO = Const(0)


def _occ_var(occ: int) -> VarId:
    """The local that holds the value read by load occurrence `occ`."""
    return VarId(f"#{occ}")


def _subst(x: Expr | Cond, env: dict[VarId, Expr]) -> Expr | Cond:
    """x with every local replaced by its value in env (an uninitialized
    local reads as 0), each operation on two constants folded."""
    if isinstance(x, Const):
        return x
    if isinstance(x, Var):
        return env.get(x.var, _ZERO)
    if isinstance(x, Not):
        return Not(_subst(x.cond, env))
    left, right = _subst(x.left, env), _subst(x.right, env)
    if isinstance(x, (And, Or)):
        return type(x)(left, right)
    if isinstance(x, BinOp) and isinstance(left, Const) \
            and isinstance(right, Const):
        return Const(_OPS[x.op](left.value, right.value))
    return type(x)(x.op, left, right)


def _value(x: Expr | Cond, values: dict[VarId, int]) -> int | bool:
    """A substituted expression or condition, evaluated on the values that
    its load occurrences read."""
    if isinstance(x, Const):
        return x.value
    if isinstance(x, Var):
        return values[x.var]
    if isinstance(x, Not):
        return not _value(x.cond, values)
    if isinstance(x, And):
        return _value(x.left, values) and _value(x.right, values)
    if isinstance(x, Or):
        return _value(x.left, values) or _value(x.right, values)
    return _OPS[x.op](_value(x.left, values), _value(x.right, values))


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

@dataclass(eq=False)
class _Event:
    occ: int
    thread: str
    node: int
    kind: str               # 'load' | 'store' | 'fence' | 'create' | 'join'
    var: VarId | None = None
    value: object = None    # store: symbolic value; create/join: child name
    needs: frozenset[VarId] = frozenset()  # store: the occurrences it reads
    forward_from: _Event | None = None  # load: last own store to its var
    preds: set[int] = field(default_factory=set)  # own occs it waits for


@dataclass
class _Check:
    """An assume or assert condition attached to a path position."""
    cond: Cond                 # symbolic
    needs: frozenset[VarId]    # the occurrences it reads
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
                 graph: FlowGraph, model: MemoryModel, base: int):
        self.thread = thread
        self.truncated = truncated
        self.events: list[_Event] = []
        self.checks: list[_Check] = []
        next_occ = itertools.count(base).__next__  # numbers from `base`
        locals_env: dict[VarId, Expr] = {}
        membar_positions: list[tuple[int, frozenset[str]]] = []
        last_store: dict[VarId, _Event] = {}

        for node in path:
            instr = graph.nodes[node]
            if isinstance(instr, Load):
                ev = _Event(next_occ(), thread, node, "load", var=instr.src,
                            forward_from=last_store.get(instr.src))
                self.events.append(ev)
                locals_env[instr.dst] = Var(_occ_var(ev.occ))
            elif isinstance(instr, Store):
                value = _subst(instr.src, locals_env)
                ev = _Event(next_occ(), thread, node, "store", var=instr.dst,
                            value=value, needs=frozenset(expr_vars(value)))
                self.events.append(ev)
                last_store[instr.dst] = ev
            elif isinstance(instr, LocalAssign):
                locals_env[instr.dst] = _subst(instr.src, locals_env)
            elif isinstance(instr, Fence):
                self.events.append(_Event(next_occ(), thread, node, "fence"))
            elif isinstance(instr, Membar):
                membar_positions.append((len(self.events), instr.kinds))
            elif isinstance(instr, (ThreadCreate, ThreadJoin)):
                kind = "create" if isinstance(instr, ThreadCreate) else "join"
                self.events.append(_Event(next_occ(), thread, node, kind,
                                          value=instr.child))
            elif isinstance(instr, (Assume, Assert)):
                cond = _subst(instr.cond, locals_env)
                self.checks.append(_Check(cond, frozenset(cond_vars(cond)),
                                          isinstance(instr, Assert), node,
                                          len(self.events)))
            elif isinstance(instr, Nop):
                pass
            else:
                raise TypeError(instr)

        for j, ej in enumerate(self.events):
            for i in range(j):
                ei = self.events[i]
                if self._must_order(model, ei, ej, i, j, membar_positions):
                    ej.preds.add(ei.occ)
        self.n_mem = sum(e.kind in ("load", "store") for e in self.events)

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


def enumerate_executions(program: Program, model: MemoryModel,
                         max_events: int = MAX_EVENTS,
                         max_loop_iters: int = MAX_LOOP_ITERS
                         ) -> set[Execution]:
    """All observable behaviors (final memory + assert outcomes)."""
    thread_names = [program.root] + [t for t in program.threads
                                     if t != program.root]
    per_thread_paths = {
        t: _enumerate_paths(program.threads[t], max_loop_iters)
        for t in thread_names}

    # a trace depends only on its own thread and path: each is built once,
    # when a product element first needs it.  Thread i numbers its events
    # from i * stride, and no path has more events than nodes, so occurrence
    # numbers never collide and follow thread order, then program order,
    # whatever the other threads chose
    stride = max(len(path) for paths in per_thread_paths.values()
                 for path, _ in paths)
    built: dict[tuple[int, int], _ThreadTrace] = {}

    def trace(i: int, j: int) -> _ThreadTrace:
        if (i, j) not in built:
            t = thread_names[i]
            path, truncated = per_thread_paths[t][j]
            built[i, j] = _ThreadTrace(t, path, truncated, program.threads[t],
                                       model, i * stride)
        return built[i, j]

    behaviors: set[Execution] = set()
    for choice in itertools.product(
            *(range(len(per_thread_paths[t])) for t in thread_names)):
        traces = tuple(trace(i, j) for i, j in enumerate(choice))
        n_mem = sum(tr.n_mem for tr in traces if tr.thread != program.root)
        if n_mem > max_events:
            raise OracleLimitError(
                f"event budget exceeded ({n_mem} > {max_events})")
        behaviors |= _linearize(program, traces)
    return behaviors


def _linearize(program: Program, traces: tuple[_ThreadTrace, ...]
               ) -> set[Execution]:
    events = {e.occ: e for tr in traces for e in tr.events}
    occs_of = {tr.thread: {e.occ for e in tr.events} for tr in traces}
    created_by = {e.value: e.occ for tr in traces for e in tr.events
                  if e.kind == "create"}  # thread -> creating event occ
    preds: dict[int, set[int]] = {}  # occ -> every occ it waits for
    asserts: list[tuple[_Check, set[int]]] = []  # with the occs they wait for
    for tr in traces:
        # -1, never done: a thread whose create is on no chosen path
        start = ({created_by.get(tr.thread, -1)}
                 if tr.thread != program.root else set())
        for e in tr.events:
            wait = e.preds | start
            if e.kind == "join":
                wait |= occs_of.get(e.value, set())
            preds[e.occ] = wait
        asserts += [(ch, start | {e.occ for e in tr.events[:ch.after]})
                    for ch in tr.checks if ch.is_assert]
    assumes = [ch for tr in traces for ch in tr.checks if not ch.is_assert]
    behaviors: set[Execution] = set()
    visited: set = set()

    # memory: one value per global, in sorted order
    globals_ = sorted(program.globals)
    slot = {v: i for i, v in enumerate(globals_)}

    def enabled(occ: int, done: frozenset[int],
                values: dict[VarId, int]) -> bool:
        """Whether the event `occ`, not yet done, can happen next."""
        if not preds[occ] <= done:
            return False
        e = events[occ]
        pending = e.forward_from
        if pending is not None and pending.occ not in done:
            return pending.needs <= values.keys()  # the value it forwards
        return e.needs <= values.keys()

    def checks_pass(values: dict[VarId, int]) -> bool:
        return all(_value(ch.cond, values) for ch in assumes
                   if ch.needs <= values.keys())

    def dfs(done: frozenset[int], memory: tuple[int, ...],
            values_items: tuple) -> None:
        key = (done, memory, values_items)
        if key in visited:
            return
        visited.add(key)
        values = dict(values_items)
        # a truncated prefix that is fully realizable has no continuation
        for tr in traces:
            if tr.truncated and occs_of[tr.thread] <= done:
                raise OracleLimitError(
                    f"loop bound exceeded in thread '{tr.thread}'")
        steps = [occ for occ in sorted(events.keys() - done)
                 if enabled(occ, done, values)]
        if not steps:  # completed or blocked
            behaviors.add(Execution(
                tuple((v.name, val) for v, val in zip(globals_, memory)),
                frozenset(ch.node for ch, before in asserts
                          if before <= done and not _value(ch.cond, values))))
            return
        for occ in steps:
            e = events[occ]
            new_memory, new_values = memory, values
            if e.kind == "store":
                i = slot[e.var]
                new_memory = (memory[:i] + (_value(e.value, values),)
                              + memory[i + 1:])
            elif e.kind == "load":
                pending = e.forward_from
                new_values = dict(values)
                new_values[_occ_var(occ)] = (
                    _value(pending.value, values)
                    if pending is not None and pending.occ not in done
                    else memory[slot[e.var]])
                if not checks_pass(new_values):
                    continue
            dfs(done | {occ}, new_memory,
                tuple(sorted(new_values.items())))

    # some assumes may be constant-false (no load deps): check upfront
    if checks_pass({}):
        dfs(frozenset(), (0,) * len(globals_), ())
    return behaviors


def violates(program: Program, model: MemoryModel,
             max_events: int = MAX_EVENTS,
             max_loop_iters: int = MAX_LOOP_ITERS) -> dict[int, bool]:
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
