"""Spans and counters around the public functions of relaxcheck's modules.

The tracer replaces a function with a wrapper in the namespace where its
caller looks it up (a module global, or a class attribute for methods), so
no file of the program changes.  Each wrapped call pushes a frame on one
span stack; when it returns, its elapsed time is added to the parent's child
time, and its self time (elapsed minus wrapped children) to its own name.
A name that does not exist, or whose hook no longer fits its arguments or
result, is recorded as absent instead of failing, so the benchmark keeps
running when a later version of the program drops or changes it.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable


#: A hook that meets a changed signature or result marks its span absent.
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []          # [name, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def resolve(path: str):
        """(owner, attribute) for 'pkg.module.attr' or
        'pkg.module.Class.attr'; owner is None when any part is missing."""
        module_path, _, rest = path.rpartition(".")
        owner_parts: list[str] = []
        while module_path:
            try:
                owner = importlib.import_module(module_path)
                break
            except ImportError:
                module_path, _, part = module_path.rpartition(".")
                owner_parts.insert(0, part)
        else:
            return None, rest
        for part in owner_parts:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, rest
        return owner, rest

    def _install(self, path: str, name: str, make_wrapper) -> bool:
        owner, attr = self.resolve(path)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.add(name)
            return False
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return True

    def span(self, path: str, name: str,
             before: Callable | None = None,
             after: Callable | None = None) -> bool:
        """Time every call of `path` under `name`.

        `before(args, stack)` runs first and its value is passed on as
        `token` to `after(args, result, stack, self_time, token)`; `stack`
        holds the names of the open caller spans, innermost last."""
        stack, clock = self.stack, self.clock
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        absent = self.absent

        def make(original):
            def wrapper(*args, **kwargs):
                callers = [frame[0] for frame in stack]
                token = None
                if before:
                    try:
                        token = before(args, callers)
                    except _HOOK_ERRORS:
                        absent.add(name)
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    own = elapsed - frame[1]
                    self_s[name] += own
                    incl_s[name] += elapsed
                    calls[name] += 1
                if after:
                    try:
                        after(args, result, callers, own, token)
                    except _HOOK_ERRORS:
                        absent.add(name)
                return result
            return wrapper

        return self._install(path, name, make)

    def count(self, path: str, name: str) -> bool:
        """Count calls of `path` without a span; their time stays in the
        caller's self time."""
        calls = self.calls

        def make(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        return self._install(path, name, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_relaxcheck(tracer: Tracer) -> None:
    """Wrap the layer boundaries of relaxcheck that the per-layer metrics
    need.  Analysis helpers are wrapped in `relaxcheck.analysis`, because
    `analyze_all` calls the names it imported there."""
    counts = tracer.counts

    def before_check(args, callers):
        ctx, facts = args[0], args[1]
        cache = getattr(ctx, "_cache", None)
        if cache is None:
            tracer.absent.add("feasibility.cache_hits")
            return False
        return facts in cache

    def after_check(args, result, callers, own, hit):
        counts["feasibility.cache_hits"] += bool(hit)
        counts["feasibility.refuted"] += not result
        parent = callers[-1] if callers else None
        if parent == "analysis.analyze_all":
            counts["feasibility.combination_queries"] += 1
            counts["analysis.reanalyzed_combinations"] += bool(result)
        elif parent == "analysis.loop_fallback_env":
            counts["feasibility.fallback_queries"] += 1

    def after_thread(args, result, callers, own, token):
        if "analysis.bootstrap" not in callers:
            tracer.self_s["analysis.reanalysis"] += own

    def after_enumerate(args, result, callers, own, token):
        combos, overflow = result
        counts["analysis.combinations"] += len(combos)

    def after_bootstrap(args, result, callers, own, token):
        counts["analysis.bootstrap_rounds"] += result[2]

    a = "relaxcheck.analysis."
    tracer.span(a + "analyze_all", "analysis.analyze_all")
    tracer.span(a + "extract_all", "relations.extract_all")
    tracer.span(a + "bootstrap_fixpoint", "analysis.bootstrap",
                after=after_bootstrap)
    tracer.span(a + "analyze_thread", "analysis.analyze_thread",
                after=after_thread)
    tracer.span(a + "collect_candidates", "analysis.candidates")
    tracer.span(a + "enumerate_combinations", "analysis.enumerate",
                after=after_enumerate)
    tracer.span(a + "loop_fallback_env", "analysis.loop_fallback_env")
    tracer.count(a + "transfer", "domain.transfer")
    tracer.count("relaxcheck.domain.AbstractEnv.widen", "domain.widen")
    f = "relaxcheck.feasibility."
    tracer.span(f + "FeasibilityContext.check_facts",
                "feasibility.check_facts",
                before=before_check, after=after_check)
    tracer.span(f + "compute_no_reorder", "feasibility.no_reorder")
    tracer.span(f + "deduce_mhb", "feasibility.base_mhb")
    tracer.span("relaxcheck.datalog.solve", "datalog.solve")
    tracer.span("relaxcheck.frontend.parse", "frontend.parse")
    tracer.span("relaxcheck.frontend.lower", "frontend.lower")
    tracer.span("relaxcheck.oracle.violates", "oracle.violates")
