"""Thread-modular analysis driver.

Each load's candidates are computed first, once per analysis: the stores to
its variable in other threads.  Init stores are not candidates; the initial
value reaches a load through its sequential value.

A bootstrap fixpoint then runs every thread with each load joining the
values of all its candidates not refuted outright, iterating (with
widening) until the published store environments stabilize; this
over-approximates every execution and seeds the enumeration.  Whether a
candidate is refuted outright is one single-fact feasibility query, asked
in every round and answered from the feasibility context's memo after the
first.

Enumeration then visits interference combinations: one simultaneous choice,
for every load outside a loop, of a candidate to read from (or no remote
interference).  Loads on a loop (`FlowGraph.loop_nodes`) are not
enumerated; they join every candidate not refuted outright.  Because a
combination fixes a single source per load, its reads-from facts are
consistent by construction.  `enumerate_combinations` searches the choices
depth first, one load per level in node order, adding each choice's
reads-from fact to the MHB rows of the choices above it
(`FeasibilityContext.extend`).  The rules are monotone in the facts, so a
prefix the feasibility engine refutes is dropped with every combination
below it; the feasible combinations come out in `itertools.product` order.
Each feasible combination is re-analyzed with combination-conditional
environments — every load takes exactly its chosen store's value, iterated
across threads starting from the bootstrap result — and assertions are
judged on the environments of the feasible combinations only.  Each
distinct thread result is taken once, as it arrives: it is joined into the
env map and its thread's asserts are judged on it, so an ALARM's witness is
the first combination with a result that fails it.

Combinations are enumerated per interference component, not as one global
product (`interference_components`): threads share a component when a load
of one has a candidate store in the other (loop loads included), or when a
non-root thread creates or joins the other.  A component's reads-from facts
touch only its own threads and variables, so the feasible combinations of
the whole program are the product of each component's, and enumerating
each component alone gives the same env maps, verdict statuses and
per-thread stats as the product whenever every component has a feasible
combination; a witness is the product's witness restricted to its own
component's loads.  The cap applies per component: an overflowing component
takes the bootstrap result, and its threads with enumerable loads are
marked `overflowed`.  A component whose every combination is refuted takes
the bootstrap result too, with its stats as enumerated: a cycle of joins
makes the base MHB cyclic, and the rules then refute every choice even
though executions exist (they block), so the empty product would judge no
assert.  A component with no enumerable load has one empty combination:
its threads run once, against the loop loads' joined values.

Thread runs are memoized per analysis (`ThreadRuns`): a thread's fixpoint
depends only on the intervals its own loads read from other threads, so the
bootstrap rounds and every combination's rounds share one memo, and a thread
whose inputs did not change is not analyzed again.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .domain import AbstractEnv, Interval, may_be_false, transfer
from .feasibility import FeasibilityContext
from .ir import Assert, FlowGraph, Load, MemoryModel, Program, VarId, bits
from .relations import RelationStore, extract_all

DEFAULT_CAP = 4096
_WIDEN_ROUND = 3      # from this bootstrap round on, widen the store envs
_MAX_ROUNDS = 64      # safety net; widening makes this unreachable
_SIGMA_ROUNDS = 8     # cap on combination-conditional re-analysis rounds


class AnalysisError(Exception):
    """Internal invariant failure (should never happen on valid input)."""


@dataclass
class ThreadStats:
    combinations_enumerated: int = 0
    combinations_pruned: int = 0
    overflowed: bool = False


@dataclass
class AnalysisStats:
    threads: int = 0
    nodes: int = 0
    outer_rounds: int = 0
    per_thread: dict[str, ThreadStats] = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    node: int
    location: str
    model: MemoryModel
    status: str  # 'PROVED' | 'ALARM'
    # when ALARM: load node -> interfering store node (None = sequential)
    witness: tuple[tuple[int, int | None], ...] = ()


def initial_env(program: Program) -> AbstractEnv:
    return AbstractEnv({v: Interval.const(init)
                        for v, init in program.globals.items()})


# ---------------------------------------------------------------------------
# Per-thread sequential fixpoint under one interference combination
# ---------------------------------------------------------------------------

def analyze_thread(graph: FlowGraph, init_env: AbstractEnv,
                   pinned: dict[int, Interval],
                   joined: dict[int, Interval] | None = None,
                   ) -> dict[int, AbstractEnv]:
    """Least fixpoint of the per-node transfer over the graph.  A load in
    `pinned` reads the given interval instead of its sequential value, a
    load in `joined` reads its sequential value joined with the given
    interval, and every other load reads its sequential value.  Both maps
    hold loads only, and may hold loads of other threads (node ids are
    unique across graphs).  Widening at cycle nodes after 2 visits.

    A visit must keep three things, which the tests and the benchmark's
    counters rely on: the FIFO worklist from the entry (a node is queued at
    most once at a time), `transfer` called through the module global, and
    `old.join(out)` (or, at a cycle node past 2 visits, `old.widen(out)`)
    called as methods.  The widening equals `old.widen(old.join(out))`
    pointwise (bottom and one-sided variables included), so a visit makes
    one pointwise pass.  A visit reads its node's entry of `graph.plan`,
    and only a load looks into `pinned` and `joined`.

    A visit ends unchanged when `new is old`, and changes `post` without a
    `leq` when `new` has as many keys as `old`: a node's input only grows
    from visit to visit, and with it the keys of `out` (`transfer` is
    monotone and only adds keys), so every key of `old` is a key of `out`
    unless either is bottom; and `Interval.join` and `widen` return their
    left operand exactly when the result equals it, so such a `new` holds
    some interval strictly above `old`'s.  A `new` with more keys may
    only add Top entries, and `leq` decides."""
    joined = joined or {}
    entry, plan = graph.entry, graph.plan
    post = dict.fromkeys(plan, AbstractEnv.bottom())
    visits = dict.fromkeys(plan, 0)
    worklist = deque([entry])
    in_list = {entry}
    pop, push = worklist.popleft, worklist.append
    enter, leave = in_list.add, in_list.discard
    while worklist:
        n = pop()
        leave(n)
        instr, preds, succs, widens, src = plan[n]
        if n == entry:
            inp = init_env
        else:
            inp = post[preds[0]]
            for p in preds[1:]:
                inp = inp.join(post[p])
        if src is not None and not inp.is_bottom:
            if n in pinned:
                inp = inp.set(src, pinned[n])
            if n in joined:
                inp = inp.set(src, inp.get(src).join(joined[n]))
        out = transfer(instr, inp)
        visits[n] = count = visits[n] + 1
        old = post[n]
        if widens and count > 2:
            new = old.widen(out)
        else:
            new = old.join(out)
        # new is old joined (or widened) with out, so old <= new
        if new is not old and (len(new._map) == len(old._map)
                               or not new.leq(old)):
            post[n] = new
            for s in succs:
                if s not in in_list:
                    enter(s)
                    push(s)
    return post


class ThreadRuns:
    """The `analyze_thread` runs of one analysis, memoized.  A thread's
    fixpoint depends only on the intervals its own loads are pinned to or
    joined with (`init` is fixed for the whole analysis), so the key is the
    thread plus those intervals.  A miss calls `analyze_thread` through the
    module global.  Hits share one result map, which callers only read."""

    def __init__(self, program: Program, init: AbstractEnv):
        self.init = init
        self._loads = {name: sorted(n for n, instr in g.nodes.items()
                                    if isinstance(instr, Load))
                       for name, g in program.threads.items()}
        self._memo: dict[tuple, dict[int, AbstractEnv]] = {}

    def run(self, graph: FlowGraph, pinned: dict[int, Interval],
            joined: dict[int, Interval]) -> dict[int, AbstractEnv]:
        key = (graph.thread, tuple((pinned.get(l), joined.get(l))
                                   for l in self._loads[graph.thread]))
        post = self._memo.get(key)
        if post is None:
            post = self._memo[key] = analyze_thread(graph, self.init,
                                                    pinned, joined)
        return post


# ---------------------------------------------------------------------------
# Interference collection and combination enumeration
# ---------------------------------------------------------------------------

def collect_candidates(relstore: RelationStore) -> dict[int, list[int]]:
    """Per load across all threads: the stores to its variable in other
    threads, init stores excluded, in node order."""
    stores_of, own = relstore.stores_of, relstore.thread_nodes
    return {l: list(bits(stores_of.get(v, 0) & ~relstore.init_stores
                         & ~own[relstore.thread_of[l]]))
            for l, v in relstore.load_var.items()}


def interference_components(program: Program, relstore: RelationStore,
                            candidates: dict[int, list[int]]
                            ) -> list[list[str]]:
    """The threads, grouped so that no reads-from fact crosses a group: a
    load and each of its candidate stores put their threads in one group,
    and so does a non-root thread's create or join of a child (the root's
    own creates and joins unite nothing).  Groups and their threads are in
    `program.threads` order."""
    parent = {name: name for name in program.threads}

    def find(t: str) -> str:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def unite(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    for l, stores in candidates.items():
        for s in stores:
            unite(relstore.thread_of[l], relstore.thread_of[s])
    for edges in (relstore.thread_creates, relstore.thread_joins):
        for n, child_end in edges.items():
            if relstore.thread_of[n] != program.root:
                unite(relstore.thread_of[n], relstore.thread_of[child_end])
    groups: dict[str, list[str]] = {}
    for name in program.threads:
        groups.setdefault(find(name), []).append(name)
    return list(groups.values())


def enumerate_combinations(candidates: dict[int, list[int]], cap: int,
                           ctx: FeasibilityContext
                           ) -> tuple[list[dict[int, int | None]], bool]:
    """The combinations over loads of (no interference + candidate
    stores) that `ctx` does not refute, in `itertools.product` order;
    overflow (empty list, True) when the product exceeds cap.

    The search runs depth first over the sorted loads, one reads-from fact
    per level (`FeasibilityContext.extend`), so a refuted prefix drops its
    whole subtree and a leaf costs one step.  It keeps its own stack, since
    a component can have more loads than Python's recursion limit."""
    loads = sorted(candidates)
    total = 1
    for l in loads:
        total *= len(candidates[l]) + 1
        if total > cap:
            return [], True
    combos = []
    # (depth, sources picked so far, prefix); children are pushed in
    # reverse so that they pop in choice order
    stack = [(0, (), ctx.root())]
    while stack:
        depth, picks, prefix = stack.pop()
        if depth == len(loads):
            combos.append(dict(zip(loads, picks)))
            continue
        load = loads[depth]
        for source in reversed([None] + candidates[load]):
            child = ctx.extend(prefix, load, source)
            if child is not None:
                stack.append((depth + 1, (*picks, source), child))
    return combos, False


def loop_fallback_env(load_node: int, var: VarId, stores: list[int],
                      store_envs: dict[int, AbstractEnv],
                      ctx: FeasibilityContext) -> Interval:
    """Joined value contribution for a load handled without enumeration:
    every candidate not refuted outright for this load contributes.  Each
    candidate is one single-fact query, which depends on neither the round
    nor the store envs, so `ctx` answers its repeats from its memo."""
    acc = Interval.bottom()
    for s in stores:
        if ctx.check_facts(frozenset({(load_node, s)})):
            acc = acc.join(store_envs[s].get(var))
    return acc


# ---------------------------------------------------------------------------
# Phase 1: bootstrap fixpoint (joins every candidate not refuted outright)
# ---------------------------------------------------------------------------

def bootstrap_fixpoint(program: Program, relstore: RelationStore,
                       ctx: FeasibilityContext,
                       candidates: dict[int, list[int]],
                       runs: ThreadRuns,
                       ) -> tuple[dict[int, AbstractEnv],
                                  dict[int, AbstractEnv], int,
                                  dict[int, Interval]]:
    """Global fixpoint with every load joining all its candidates' values.
    The only cross-thread state is the store post-environments: each round
    computes every load's joined value from them (`loop_fallback_env`),
    runs every thread through `runs` against those values and accumulates
    the store posts.  Once a round leaves them unchanged, every thread was
    run with loads covering every store value it can read, so that round's
    runs are the fixpoint.  Returns (the last round's env map over all
    nodes, store post-environments, rounds, the last round's joined value
    per load), the joined values being those of the returned store envs."""
    store_nodes = list(bits(sum(relstore.stores_of.values())
                            & ~relstore.init_stores))
    store_envs: dict[int, AbstractEnv] = {n: AbstractEnv.bottom()
                                          for n in store_nodes}
    for round_no in range(1, _MAX_ROUNDS + 1):
        joined = {l: loop_fallback_env(l, relstore.load_var[l], stores,
                                       store_envs, ctx)
                  for l, stores in candidates.items()}
        env_map: dict[int, AbstractEnv] = {}
        for graph in program.threads.values():
            env_map.update(runs.run(graph, {}, joined))
        new_envs = {}
        for s in store_nodes:
            new_envs[s] = store_envs[s].join(env_map[s])
            if round_no >= _WIDEN_ROUND:
                new_envs[s] = store_envs[s].widen(new_envs[s])
        if new_envs == store_envs:
            return env_map, store_envs, round_no, joined
        store_envs = new_envs
    raise AnalysisError("bootstrap fixpoint did not stabilize")


# ---------------------------------------------------------------------------
# Phase 2: combination enumeration with conditional environments
# ---------------------------------------------------------------------------

def _run_combination(graphs: list[FlowGraph], relstore: RelationStore,
                     sigma: dict[int, int | None],
                     store_envs: dict[int, AbstractEnv],
                     joined: dict[int, Interval],
                     runs: ThreadRuns) -> dict[str, dict[int, AbstractEnv]]:
    """Re-analyze one component's threads with each load pinned to its
    chosen store, iterating the cross-thread environment flow from the
    bootstrap result (`store_envs` holds the component's stores).  Every
    iterate soundly covers the combination's executions; the last one
    (stable or round-capped) is returned, as one `runs` result per
    thread."""
    envs = store_envs
    posts: dict[str, dict[int, AbstractEnv]] = {}
    for _ in range(_SIGMA_ROUNDS):
        pinned = {l: envs[s].get(relstore.load_var[l])
                  for l, s in sigma.items() if s is not None}
        posts = {g.thread: runs.run(g, pinned, joined) for g in graphs}
        new_envs = {s: posts[relstore.thread_of[s]][s] for s in envs}
        if new_envs == envs:
            break
        envs = new_envs
    return posts


def analyze_all(program: Program, model: MemoryModel,
                cap: int = DEFAULT_CAP
                ) -> tuple[dict[int, AbstractEnv], list[Verdict],
                           AnalysisStats]:
    relstore = extract_all(program)
    ctx = FeasibilityContext(relstore, model)
    runs = ThreadRuns(program, initial_env(program))

    stats = AnalysisStats(
        threads=len(program.threads),
        nodes=sum(len(g.nodes) for g in program.threads.values()))

    candidates = collect_candidates(relstore)
    boot_map, store_envs, stats.outer_rounds, joined = bootstrap_fixpoint(
        program, relstore, ctx, candidates, runs)
    loop_nodes = {n for g in program.threads.values() for n in g.loop_nodes}
    joined = {l: v for l, v in joined.items() if l in loop_nodes}

    env_map: dict[int, AbstractEnv] = {n: AbstractEnv.bottom()
                                       for n in boot_map}
    alarms: dict[int, tuple] = {}   # assert node -> witness of its ALARM
    # the results taken, by (thread, id); holding each result keeps its id
    # unique even where `runs` would not
    taken: dict[tuple[str, int], dict[int, AbstractEnv]] = {}

    def take(graph: FlowGraph, post: dict[int, AbstractEnv],
             witness: tuple) -> None:
        """Join a thread's result into env_map and judge its asserts; a
        result already taken for the thread adds nothing."""
        if (graph.thread, id(post)) in taken:
            return
        taken[graph.thread, id(post)] = post
        for n, instr in graph.nodes.items():
            env_map[n] = env_map[n].join(post[n])
            if (isinstance(instr, Assert) and n not in alarms
                    and may_be_false(instr.cond, post[n])):
                alarms[n] = witness

    per_thread: dict[str, ThreadStats] = {}
    for names in interference_components(program, relstore, candidates):
        graphs = [program.threads[name] for name in names]
        thread_loads = {g.thread: sorted(l for l in g.nodes
                                         if l in candidates
                                         and l not in loop_nodes)
                        for g in graphs}
        loads = {l: candidates[l] for g in graphs
                 for l in thread_loads[g.thread]}
        # a component with no enumerable load is one empty combination
        combos, overflow = (enumerate_combinations(loads, cap, ctx)
                            if loads else ([{}], False))
        comp_envs = {s: store_envs[s] for g in graphs for s in g.nodes
                     if s in store_envs}
        feasible_proj: dict[str, set] = {name: set() for name in names}
        for sigma in combos:
            posts = _run_combination(graphs, relstore, sigma, comp_envs,
                                     joined, runs)
            witness = tuple(sorted(sigma.items()))
            for g in graphs:
                feasible_proj[g.thread].add(
                    tuple(sigma[l] for l in thread_loads[g.thread]))
                take(g, posts[g.thread], witness)
        # overflow, or every choice refuted (a cyclic MHB proves nothing):
        # the component takes the bootstrap result
        if not combos:
            for g in graphs:
                take(g, boot_map, ())
        for name in names:
            # the combinations are a full product: every projection occurs
            total = 0 if overflow else math.prod(len(loads[l]) + 1
                                                 for l in thread_loads[name])
            per_thread[name] = ThreadStats(
                combinations_enumerated=total,
                combinations_pruned=total - len(feasible_proj[name]),
                overflowed=overflow and bool(thread_loads[name]))

    stats.per_thread = {name: per_thread[name] for name in program.threads}
    verdicts = sorted(
        (Verdict(n, instr.location, model,
                 "ALARM" if n in alarms else "PROVED", alarms.get(n, ()))
         for g in program.threads.values()
         for n, instr in g.nodes.items() if isinstance(instr, Assert)),
        key=lambda v: v.node)
    return env_map, verdicts, stats
