"""Span tracer for the tcslat layers, installed from outside the package.

Each layer is one module of ``tcslat``.  ``Tracer.install`` replaces every
public function the module defines (and the extra methods named in
``METHODS``) by a wrapper that records a span; ``Tracer.uninstall`` puts the
originals back.  Nothing inside ``src/`` knows about tracing.

A span's self time is its duration minus the durations of its direct child
spans, so summing self time over all spans of one root call gives that call's
duration exactly.  Per-function totals are kept in memory; individual spans
are not stored.
"""

import collections
import functools
import inspect
import time

import numpy as np

LAYERS = ("cli", "blocks", "exactalg", "lattice", "glue", "embed", "tcs", "match", "g2alg")

# Methods traced in addition to module-level functions: (layer, class, method).
METHODS = (("g2alg", "Metric", "solve"),)

WRAPPED_MARK = "__perfbench_original__"

_perf = time.perf_counter


def _gram_key(L):
    return L.gram.shape, tuple(int(x) for x in L.gram.flat)


class FunctionStats:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Wraps the layer functions of an imported ``tcslat`` and aggregates spans."""

    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self._patched = []  # (owner, attribute, original)
        # The wrappers capture these containers, so reset() clears them in place.
        self.stats = collections.defaultdict(FunctionStats)
        self.counters = collections.Counter()
        self.distinct_grams = set()
        self._stack = []  # [child_seconds] per open span
        self._open = collections.Counter()  # key -> open spans with that key
        self.self_total = 0.0  # running sum of span self times

    def reset(self):
        """Clear the per-pass aggregates; the wrappers stay installed."""
        self.stats.clear()
        self.counters.clear()
        self.distinct_grams.clear()
        self.self_total = 0.0

    # -- installation -------------------------------------------------------

    def targets(self):
        """(span key, owner, attribute, function) for everything that gets wrapped."""
        out = []
        for layer, mod in self.modules.items():
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # re-exported from another layer; traced there
                if inspect.isgeneratorfunction(obj):
                    continue  # the body runs in the consumer, not inside the call
                out.append((f"{layer}.{name}", mod, name, obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            out.append((f"{layer}.{cls_name}.{meth}", cls, meth, vars(cls)[meth]))
        return out

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for key, owner, name, fn in self.targets():
            setattr(owner, name, self._wrap(key, fn))
            self._patched.append((owner, name, fn))

    def uninstall(self):
        """Restore every original; raise if any attribute was not restored."""
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched = []
        left = leftover_wrappers(self.modules.values())
        if left:
            raise RuntimeError(f"tracer wrappers still installed: {', '.join(left)}")

    def _wrap(self, key, fn):
        stats = self.stats
        stack = self._stack
        opened = self._open
        observe = _OBSERVERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[key] += 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                stack.pop()
                opened[key] -= 1
                own = dur - frame[0]
                st = stats[key]
                st.calls += 1
                st.self_s += own
                st.total_s += dur
                self.self_total += own
                if stack:
                    stack[-1][0] += dur
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_totals(self):
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        for key, st in self.stats.items():
            layer = key.split(".", 1)[0]
            calls[layer] += st.calls
            self_s[layer] += st.self_s
        return calls, self_s


def leftover_wrappers(modules):
    """Names of tracer wrappers still bound in the given modules or their classes."""
    found = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if hasattr(obj, WRAPPED_MARK):
                found.append(f"{mod.__name__}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{name}.{m}" for m, f in vars(obj).items()
                             if hasattr(f, WRAPPED_MARK))
    return found


# Work counters taken at the same boundaries as the spans.

def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _observe_snf(tracer, args, kwargs, result):
    rows, cols = np.shape(_first(args, kwargs))
    tracer.counters["exactalg.snf.cells"] += rows * cols


def _observe_rank(tracer, args, kwargs, result):
    if tracer._open["embed.construct_embedding"]:
        tracer.counters["embed.rank_checks"] += 1


def _observe_discriminant_group(tracer, args, kwargs, result):
    tracer.distinct_grams.add(_gram_key(_first(args, kwargs)))


def _observe_construct_embedding(tracer, args, kwargs, result):
    if result.status == "ExistsConstructed":
        tracer.counters["embed.construct_embedding.hits"] += 1


def _observe_enumerate_pairs(tracer, args, kwargs, result):
    n = len(_first(args, kwargs))
    tracer.counters["match.enumerate_pairs.candidates"] += n * (n + 1) // 2
    tracer.counters["match.enumerate_pairs.accepted"] += len(result)


_OBSERVERS = {
    "exactalg.snf": _observe_snf,
    "exactalg.rank": _observe_rank,
    "lattice.discriminant_group": _observe_discriminant_group,
    "embed.construct_embedding": _observe_construct_embedding,
    "match.enumerate_pairs": _observe_enumerate_pairs,
}
