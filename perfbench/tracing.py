"""Per-layer accounting for a traced pass, installed from outside the program.

The layers are the library's modules.  Every public function of a layer is
replaced, in every layer namespace that bound it, by a wrapper that adds its
call count, busy time and self time (busy time minus the busy time of wrapped
callees) to one aggregate per function.  Hot leaves such as `word_length`
run hundreds of thousands of times a pass, so no per-call span is kept.
`Permutation.__post_init__` is wrapped on the class, which counts every
validated permutation built.

Because `cli.main` is wrapped and every op enters through it, the layer self
times of a pass add up to the pass's traced wall time, less the few
microseconds per op spent outside `cli.main`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter

LAYERS = ("cli", "verify", "reduction", "greedy", "perm", "mahonian", "bounds")

COUNT, RATIO, SECONDS = "count", "ratio", "s"

# Metric name -> unit, in report order; BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "cli.self_s": SECONDS,
    "cli.build_parser_s": SECONDS,
    "verify.self_s": SECONDS,
    "verify.checked": COUNT,
    "reduction.self_s": SECONDS,
    "reduction.closure_self_s": SECONDS,
    "reduction.step_calls": COUNT,
    "reduction.step_s": SECONDS,
    "reduction.sources": COUNT,
    "reduction.visited": COUNT,
    "reduction.source_yield": RATIO,
    "greedy.self_s": SECONDS,
    "greedy.lgf_calls": COUNT,
    "greedy.lgf_s": SECONDS,
    "greedy.enum_calls": COUNT,
    "greedy.enum_s": SECONDS,
    "greedy.decomp_enumerated": COUNT,
    "greedy.decomp_used_ratio": RATIO,
    "perm.self_s": SECONDS,
    "perm.word_length_calls": COUNT,
    "perm.word_length_s": SECONDS,
    "perm.construct_calls": COUNT,
    "perm.construct_s": SECONDS,
    "mahonian.self_s": SECONDS,
    "mahonian.row_calls": COUNT,
    "mahonian.row_s": SECONDS,
    "mahonian.row_cache_hit_ratio": RATIO,
    "mahonian.knuth_s": SECONDS,
    "mahonian.brute_s": SECONDS,
    "bounds.self_s": SECONDS,
    "bounds.theorem_bound_calls": COUNT,
    "bounds.theorem_bound_self_s": SECONDS,
    "bounds.crossover_s": SECONDS,
    "bounds.crossover_steps": COUNT,
}

# Counters that must repeat exactly between passes and runs of the same inputs.
EXACT_COUNTERS = tuple(name for name, unit in LAYER_METRICS.items() if unit != SECONDS)


def _suite_done(counts: Counter, result) -> None:
    counts["verify.checked"] += result.checked


def _closure_done(counts: Counter, trace) -> None:
    counts["reduction.sources"] += len(trace.sources)
    counts["reduction.visited"] += trace.visited
    counts["reduction.scanned"] += math.factorial(trace.n)


def _enumerated(counts: Counter, decompositions) -> None:
    counts["greedy.decomp_enumerated"] += len(decompositions)


def _crossover_found(counts: Counter, n: int) -> None:
    counts["bounds.crossover_steps"] += n


OBSERVERS = {
    "verify.run_suite": _suite_done,
    "reduction.classic_closure": _closure_done,
    "reduction.main_closure": _closure_done,
    "greedy.enumerate_chunk_preserving": _enumerated,
    "bounds.crossover_n": _crossover_found,
}


class Tracer:
    """Call count, busy and self seconds per wrapped function, plus observed counts."""

    def __init__(self):
        self.cells: dict[str, list] = {}  # key -> [calls, busy seconds, self seconds]
        self.counts: Counter = Counter()
        # child busy time of each open wrapped call; the bottom entry is the caller
        self._stack = [0.0]

    def _wrap(self, key: str, fn):
        cell = self.cells.setdefault(key, [0, 0.0, 0.0])
        stack, counts, observe, clock = self._stack, self.counts, OBSERVERS.get(key), time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # time each resumption, so the work of a lazy sequence lands in its layer
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                cell[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        child = stack.pop()
                        stack[-1] += elapsed
                        cell[1] += elapsed
                        cell[2] += elapsed - child
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - child
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function wherever a layer module bound it."""
        modules = [importlib.import_module(f"codimgeo.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, layer = obj.__module__.rpartition(".")
                if package != "codimgeo" or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, name, wrappers[obj])
        permutation = importlib.import_module("codimgeo.perm").Permutation
        permutation.__post_init__ = self._wrap("perm.construct", permutation.__post_init__)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        cells, counts = self.cells, self.counts

        # a function that a later change removes reads as never called
        def calls(key):
            return cells.get(key, (0,))[0]

        def busy(key):
            return cells.get(key, (0, 0.0))[1]

        def self_time(key):
            return cells.get(key, (0, 0.0, 0.0))[2]

        out = {
            f"{layer}.self_s": sum(cell[2] for key, cell in cells.items() if key.startswith(f"{layer}."))
            for layer in LAYERS
        }
        enumerated = counts["greedy.decomp_enumerated"]
        # main_step rewrites with the first decomposition it enumerates; check_growth uses all
        used = calls("reduction.main_step") + calls("greedy.check_growth")
        out.update(
            {
                "cli.build_parser_s": busy("cli.build_parser"),
                "verify.checked": counts["verify.checked"],
                "reduction.closure_self_s": self_time("reduction.classic_closure")
                + self_time("reduction.main_closure"),
                "reduction.step_calls": calls("reduction.classic_step") + calls("reduction.main_step"),
                "reduction.step_s": busy("reduction.classic_step") + busy("reduction.main_step"),
                "reduction.sources": counts["reduction.sources"],
                "reduction.visited": counts["reduction.visited"],
                "reduction.source_yield": _ratio(counts["reduction.sources"], counts["reduction.scanned"]),
                "greedy.lgf_calls": calls("greedy.left_greedy_form"),
                "greedy.lgf_s": busy("greedy.left_greedy_form"),
                "greedy.enum_calls": calls("greedy.enumerate_chunk_preserving"),
                "greedy.enum_s": self_time("greedy.enumerate_chunk_preserving"),
                "greedy.decomp_enumerated": enumerated,
                "greedy.decomp_used_ratio": _ratio(used, enumerated),
                "perm.word_length_calls": calls("perm.word_length"),
                "perm.word_length_s": busy("perm.word_length"),
                "perm.construct_calls": calls("perm.construct"),
                "perm.construct_s": busy("perm.construct"),
                "mahonian.row_calls": calls("mahonian.mahonian_row"),
                "mahonian.row_s": busy("mahonian.mahonian_row"),
                "mahonian.row_cache_hit_ratio": _row_cache_hit_ratio(),
                "mahonian.knuth_s": busy("mahonian.mahonian_knuth"),
                "mahonian.brute_s": busy("mahonian.brute_force_row"),
                "bounds.theorem_bound_calls": calls("bounds.theorem_bound"),
                "bounds.theorem_bound_self_s": self_time("bounds.theorem_bound"),
                "bounds.crossover_s": busy("bounds.crossover_n"),
                "bounds.crossover_steps": counts["bounds.crossover_steps"],
            }
        )
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _row_cache_hit_ratio() -> float:
    """Hits over lookups of the Mahonian row cache; 0 if the library keeps none."""
    cached = getattr(importlib.import_module("codimgeo.mahonian"), "_row_coefficients", None)
    if not hasattr(cached, "cache_info"):
        return 0.0
    info = cached.cache_info()
    return _ratio(info.hits, info.hits + info.misses)
