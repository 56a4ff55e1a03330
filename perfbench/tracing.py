"""Wall-clock timing hooks installed from outside the program.

Two levels, both installed by patching attributes of already-imported
``repro`` modules and classes and both removed afterwards:

* **request timing** (always on): ``SessionManager.stepper`` / ``rerank``
  and every resume of the step iterator ``stepper`` returns are timed per
  request, and ``ShardedServeScheduler.run`` is timed as the serve wall.
  Two clock reads and one calibration snippet (below) per step are the
  whole cost of the untraced run.
* **layer tracing** (``layers=True``): a wrapper around each public entry
  point of each layer pushes a span on one stack.  A span's self time is
  its duration minus the durations of the spans it encloses, so the self
  times of all layers, ``serve`` (the scheduler's own loop) included, sum
  to the serve wall by construction; :meth:`Hooks.sum_error` checks it.

The host this runs on changes speed by up to 1.7x from one second to the
next (other tenants).  So every process also times a fixed calibration
snippet: after every request slice while serving, and a few times during
set-up.  Times are reported *scaled* to a host on which the snippet takes
:data:`REFERENCE_SNIPPET_S`: ``scaled = raw * REFERENCE_SNIPPET_S /
snippet time``.  A request slice is scaled by a moving average of the
snippets after it, the time between slices by the run's mean snippet
time, and set-up by the mean of its own snippets.  The snippets' own time
is taken out of every wall it falls into.

Functions imported by name elsewhere (``satisfies`` into the executor,
``compile_query`` into the session manager, ``result_digest`` into the
package roots) are patched at every ``repro`` module that holds them, so
no call path escapes its layer.  Generators are wrapped so that each
resume, not the creation, is the span.
"""

from __future__ import annotations

import gc
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

MARK = "__perfbench_wrapper__"

#: Snippet time of the reference host (the fast state of a 2-vCPU
#: x86-64 VM running CPython 3.11); scaled times are times on it.
REFERENCE_SNIPPET_S = 60e-6


def _snippet() -> int:
    """Fixed interpreter work: tuples, str, dict stores, hashing."""
    table: dict[str, tuple] = {}
    acc = 0
    for i in range(150):
        item = (i, str(i), i * 0.5)
        table[item[1]] = item
        acc += len(table) if i % 3 else hash(item) & 7
    return acc


class Calibrator:
    """Times the snippet; keeps the total, the count and a moving average."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0
        self.recent_s = 0.0

    def sample(self, times: int = 1) -> float:
        """Run the snippet; returns the moving-average snippet time.

        The collector is paused meanwhile: a collection the snippet's
        allocations would trigger costs in proportion to the program's
        heap, and belongs to the program.
        """
        collecting = gc.isenabled()
        for _ in range(times):
            gc.disable()
            start = perf_counter()
            _snippet()
            elapsed = perf_counter() - start
            if collecting:
                gc.enable()
            self.total_s += elapsed
            self.recent_s = (
                elapsed if not self.count
                else self.recent_s + 0.1 * (elapsed - self.recent_s)
            )
            self.count += 1
        return self.recent_s

    def scale(self) -> float:
        """Factor turning this process's raw times into reference times."""
        return REFERENCE_SNIPPET_S * self.count / self.total_s


# (module, attribute path, layer, kind).  ``kind`` is "func" or "gen": a
# "gen" target returns an iterator whose resumes are the layer's spans.
LAYER_TARGETS = (
    ("repro.query.parser", "parse_query", "query", "func"),
    ("repro.query.compile", "compile_query", "query", "func"),
    ("repro.core.optimizer", "Optimizer.optimize", "core", "func"),
    ("repro.serve.plancache", "PlanCache.plan", "plancache", "func"),
    ("repro.query.predicates", "satisfies", "predicates", "func"),
    ("repro.query.predicates", "tuple_satisfies_selections", "predicates", "func"),
    ("repro.query.predicates", "filter_tuples", "predicates", "func"),
    ("repro.services.simulated", "ServicePool.invoke", "services", "func"),
    ("repro.services.simulated", "SimulatedInvocation.next_chunk", "services", "func"),
    ("repro.services.datagen", "TupleGenerator.generate", "datagen", "func"),
    ("repro.engine.executor", "InvocationCache.get", "invcache", "func"),
    ("repro.engine.executor", "InvocationCache.put", "invcache", "func"),
    ("repro.serve.sharding", "ShardedInvocationCache.get", "invcache", "func"),
    ("repro.serve.sharding", "ShardedInvocationCache.put", "invcache", "func"),
    ("repro.engine.executor", "PlanExecutor.steps", "engine", "gen"),
    ("repro.model.tuples", "RankingFunction.score", "scoring", "func"),
    ("repro.model.tuples", "RankingFunction.score_composite", "scoring", "func"),
    ("repro.model.tuples", "RankingFunction.combine", "scoring", "func"),
    ("repro.model.tuples", "CompositeTuple.merged_with", "scoring", "func"),
    ("repro.serve.bench", "result_digest", "digest", "func"),
    ("repro.serve.sessions", "SessionManager.open", "sessions", "func"),
)

class StopAtDispatch(Exception):
    """Raised instead of serving when only the set-up is timed."""


class Hooks:
    """Installs, accounts for, and removes every timing wrapper."""

    def __init__(self, layers: bool, stop_at_dispatch: bool = False) -> None:
        self.layers = layers
        self.stop_at_dispatch = stop_at_dispatch
        self._patches: list[tuple[Any, str, Any, bool]] = []
        # Span stack: [layer, start, time covered by child spans].
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        #: request_id -> scaled seconds the server spent on that request.
        self.request_s: dict[int, float] = defaultdict(float)
        #: Raw seconds inside request slices (all requests).
        self.slices_raw_s = 0.0
        self.calibrator = Calibrator()
        self.dispatch_at: float | None = None
        self.run_wall_s = 0.0

    # -- span accounting -----------------------------------------------------

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def _leave(self) -> float:
        layer, start, covered = self._stack.pop()
        elapsed = perf_counter() - start
        self.self_s[layer] += elapsed - covered
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def _parent_layer(self) -> str | None:
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def scaled(self) -> dict[str, Any]:
        """Run wall, layer self times and inclusive times, scaled.

        The wall, less the snippets, is the scaled request slices plus the
        time between them at the run's mean snippet time.  Layer times
        are scaled by the wall's overall factor, with the snippets taken
        out of the root (``serve``) self time, so they sum to the wall.
        """
        raw_wall = self.run_wall_s - self.calibrator.total_s
        between = raw_wall - self.slices_raw_s
        wall = sum(self.request_s.values()) + between * self.calibrator.scale()
        scale = wall / raw_wall
        self_s = dict(self.self_s)
        if "serve" in self_s:
            self_s["serve"] -= self.calibrator.total_s
        return {
            "run_wall_s": wall,
            "self_s": {k: v * scale for k, v in self_s.items()},
            "inclusive_s": {k: v * scale for k, v in self.inclusive_s.items()},
        }

    def sum_error(self) -> float:
        """|sum of layer self times − serve wall|, as a share of the wall.

        The wall is read outside the root span, so only the two clock
        reads around it separate the two; a span left open or closed
        twice shows up here.
        """
        if self._stack:
            return float("inf")
        total = sum(self.self_s.values())
        return abs(total - self.run_wall_s) / self.run_wall_s

    # -- patching --------------------------------------------------------------

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        is_class = isinstance(owner, type)
        original = owner.__dict__[name] if is_class else getattr(owner, name)
        setattr(wrapper, MARK, True)
        self._patches.append((owner, name, original, is_class))
        setattr(owner, name, wrapper)

    def _patch_function(self, module: str, name: str, wrapper_for) -> None:
        """Patch a module function at every ``repro`` module holding it."""
        original = getattr(sys.modules[module], name)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                getattr(mod, name, None) is original
            ):
                self._patch(mod, name, wrapper)

    def install(self) -> None:
        from repro.serve.sessions import SessionManager
        from repro.serve.sharding import ShardedServeScheduler

        self._patch(ShardedServeScheduler, "run", self._wrap_run(
            ShardedServeScheduler.run))
        self._patch(SessionManager, "stepper", self._wrap_stepper(
            SessionManager.stepper))
        self._patch(SessionManager, "rerank", self._wrap_rerank(
            SessionManager.rerank))
        if not self.layers:
            return
        for module, path, layer, kind in LAYER_TARGETS:
            wrapper_for = self._layer_wrapper(path.rsplit(".", 1)[-1], layer, kind)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(sys.modules[module], cls_name)
                self._patch(cls, attr, wrapper_for(cls.__dict__[attr]))
            else:
                self._patch_function(module, path, wrapper_for)

    def uninstall(self) -> list[str]:
        """Restore every original; returns the attributes not restored."""
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        leaked = []
        for owner, name, original, is_class in self._patches:
            current = owner.__dict__[name] if is_class else getattr(owner, name)
            if current is not original:
                leaked.append(f"{getattr(owner, '__name__', owner)}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                for attr, value in list(vars(mod).items()):
                    if getattr(value, MARK, False):
                        leaked.append(f"{mod_name}.{attr}")
                    if isinstance(value, type):
                        leaked.extend(
                            f"{mod_name}.{attr}.{name}"
                            for name, member in vars(value).items()
                            if getattr(member, MARK, False)
                        )
        self._patches.clear()
        return leaked

    # -- request-level wrappers ------------------------------------------------

    def _wrap_run(self, original: Callable) -> Callable:
        hooks = self

        def run(scheduler, workload):
            hooks.dispatch_at = start = perf_counter()
            if hooks.stop_at_dispatch:
                raise StopAtDispatch
            if hooks.layers:
                hooks._enter("serve")
            try:
                return original(scheduler, workload)
            finally:
                if hooks.layers:
                    hooks._leave()
                hooks.run_wall_s = perf_counter() - start

        return run

    def _timed(self, request, fn: Callable, *args):
        """Run one request-CPU slice: the request timer, plus a span.

        The calibration snippet runs after the slice, outside every span
        but the root, whose self time :meth:`scaled` takes it out of.
        """
        if self.layers:
            self._enter("sessions")
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            if self.layers:
                self._leave()
                self.inclusive_s[f"sessions.cpu_s.{request.kind}"] += elapsed
            recent = self.calibrator.sample()
            self.slices_raw_s += elapsed
            self.request_s[request.request_id] += (
                elapsed * REFERENCE_SNIPPET_S / recent
            )

    def _wrap_stepper(self, original: Callable) -> Callable:
        hooks = self

        def stepper(manager, request):
            inner = hooks._timed(request, original, manager, request)
            return hooks._request_steps(request, inner)

        return stepper

    def _request_steps(self, request, inner: Iterator):
        while True:
            try:
                event = self._timed(request, next, inner)
            except StopIteration as stop:
                return stop.value
            self.counts["sessions.steps"] += 1
            try:
                yield event
            except GeneratorExit:
                inner.close()
                raise

    def _wrap_rerank(self, original: Callable) -> Callable:
        hooks = self

        def rerank(manager, request):
            return hooks._timed(request, original, manager, request)

        return rerank

    # -- layer wrappers --------------------------------------------------------

    def _layer_wrapper(self, name: str, layer: str, kind: str):
        hooks = self
        observe = _OBSERVERS.get(name)

        def wrapper_for(original: Callable) -> Callable:
            if kind == "gen":

                def gen_call(*args, **kwargs):
                    inner = original(*args, **kwargs)
                    hooks.counts[f"{layer}.{name}.calls"] += 1
                    hooks.counts[f"{layer}.entries"] += 1
                    return hooks._layer_steps(layer, inner, observe)

                return gen_call

            def call(*args, **kwargs):
                hooks._enter(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    parent = hooks._parent_layer()
                    elapsed = hooks._leave()
                    hooks.inclusive_s[f"{layer}.{name}"] += elapsed
                hooks.counts[f"{layer}.{name}.calls"] += 1
                if parent != layer:
                    hooks.counts[f"{layer}.entries"] += 1
                if observe is not None:
                    observe(hooks.counts, args, result, parent)
                return result

            return call

        return wrapper_for

    def _layer_steps(self, layer: str, inner: Iterator, observe):
        while True:
            self._enter(layer)
            try:
                event = next(inner)
            except StopIteration as stop:
                self._leave()
                if observe is not None:
                    observe(self.counts, (), stop.value, None)
                return stop.value
            except BaseException:
                self._leave()
                raise
            self._leave()
            try:
                yield event
            except GeneratorExit:
                inner.close()
                raise


# Per-entry-point counters: (counts, call args, result, parent layer).
def _observe_satisfies(counts, args, result, parent) -> None:
    counts["predicates.passed"] += bool(result)
    if parent == "datagen":
        counts["datagen.constraint_checks"] += 1
        counts["datagen.constraint_passed"] += bool(result)


def _observe_optimize(counts, args, result, parent) -> None:
    counts["core.states_expanded"] += result.stats.expanded


def _observe_generate(counts, args, result, parent) -> None:
    counts["datagen.tuples"] += len(result)


def _observe_cache_get(counts, args, result, parent) -> None:
    # ShardedInvocationCache.get delegates to InvocationCache.get: count
    # the outer lookup only.
    if parent != "invcache":
        counts["invcache.hits" if result is not None else "invcache.misses"] += 1


def _observe_cache_put(counts, args, result, parent) -> None:
    if parent != "invcache":
        counts["invcache.puts"] += 1


def _observe_steps(counts, args, result, parent) -> None:
    counts["joins.candidates"] += result.total_candidates
    counts["joins.pairs_probed"] += result.pairs_probed


def _observe_digest(counts, args, result, parent) -> None:
    counts["digest.rows"] += len(args[0])


_OBSERVERS = {
    "satisfies": _observe_satisfies,
    "optimize": _observe_optimize,
    "generate": _observe_generate,
    "get": _observe_cache_get,
    "put": _observe_cache_put,
    "steps": _observe_steps,
    "result_digest": _observe_digest,
}
