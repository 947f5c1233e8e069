"""Outside-in span tracing of the blockfuse layers.

`Tracer.install()` rebinds, in every blockfuse module namespace (the
package `__init__` included), each public function defined in blockfuse to
one wrapper that records a span: function, start, end, parent span and
whether an exception left it.  Because intra-module calls look names up in
the module globals, calls inside a layer are traced as well.  The
`lru_cache` wrapper `gf.make_tower` is wrapped like a plain function.

Methods stay unwrapped and their time is charged to the calling span
(`FieldTower.add`, `FiniteGroup.conj`, ...), with one exception: linalg's
whole public interface is the `Echelon` class, so its two public methods
are traced, one span per Krylov vector.

Spans are kept in memory; `summary()` folds them into per-layer metrics
and `dump()` writes them out.  run.py adds each layer's module import time
to its self_s, so every layer reports a time even where none of its
functions runs.
"""

from __future__ import annotations

import functools
import json
import time
import types

LAYERS = ("gf", "groups", "linalg", "algebra", "brauer", "fusion", "descent", "cli")
TRACED_METHODS = {"linalg": ("Echelon.insert", "Echelon.contains")}

# Functions reported as <name>_s, the time of their outermost calls.
TIMED = ("gf.make_tower", "gf.factor", "groups.build_group", "groups.normalizer_in",
         "algebra.multiply", "cli.render_json")
# Functions reported as <name>_calls.  Those that some workload never calls
# are only counted: their time would read 0 on every run.
COUNTED = ("gf.factor", "groups.all_subgroups", "algebra.multiply",
           "algebra.primitive_central_idempotents", "brauer.maximal_pairs",
           "brauer.subpair_table", "fusion.block_fusion", "fusion.saturation_report",
           "descent.run_descent")


def _blocks_key(table_key, G, tower, over_k=False, seed=0):
    return (table_key(G), tower.key, over_k, seed)


def _pairs_key(table_key, G, tower, b, seed=0):
    return (table_key(G), tower.key, b.over_k, b.elem.coeffs, seed)


# Argument keys of the calls whose repeats the distinct fractions measure.
ARG_KEYS = {"algebra.primitive_central_idempotents": _blocks_key,
            "brauer.maximal_pairs": _pairs_key}
# Metric names that differ from the function's name.
ALIASES = {"algebra.primitive_central_idempotents": "algebra.blocks"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one span per call: [name id, start, end, parent span or -1,
        # outermost call of its function, raised]
        self.spans: list[list] = []
        self.keys: dict[str, set] = {name: set() for name in ARG_KEYS}
        # id(group) -> (group, hash of its table); holding the group keeps
        # its id from being reused
        self._tables: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._active: list[int] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self._active.append(0)
        spans, stack, active = self.spans, self._stack, self._active
        key_fn = ARG_KEYS.get(name)
        keys = self.keys.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_fn is not None:
                keys.add(key_fn(self._table_key, *args, **kwargs))
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1,
                    active[name_id] == 0, False]
            stack.append(len(spans))
            spans.append(span)
            active[name_id] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                active[name_id] -= 1
                stack.pop()

        return traced

    def _table_key(self, G) -> int:
        """Groups are equal as arguments when their tables are equal."""
        entry = self._tables.get(id(G))
        if entry is None:
            entry = self._tables[id(G)] = (G, hash(G.mul))
        return entry[1]

    def install(self, package) -> None:
        """Wrap the public functions of `package` and of its layer modules."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if not isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                if id(obj) not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[id(obj)])
        for layer, methods in TRACED_METHODS.items():
            module = getattr(package, layer)
            for qualname in methods:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(f"{layer}.{qualname}", getattr(cls, meth)))

    def summary(self) -> dict:
        """Per-layer self time, calls and errors, plus the named functions'
        inclusive time (outermost calls only), call counts and the share
        of distinct argument keys among calls."""
        names = self.names
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = 0
        fn_time = dict.fromkeys(TIMED, 0.0)
        fn_calls = dict.fromkeys(COUNTED, 0)
        for i, (name_id, start, end, _parent, outermost, raised) in enumerate(self.spans):
            name = names[name_id]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += (end - start) - child_time[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.errors"] += raised
            if name in fn_time and outermost:
                fn_time[name] += end - start
            if name in fn_calls:
                fn_calls[name] += 1
        for name, total in fn_time.items():
            out[f"{ALIASES.get(name, name)}_s"] = total
        for name, calls in fn_calls.items():
            out[f"{ALIASES.get(name, name)}_calls"] = calls
        for name, keys in self.keys.items():
            calls = fn_calls[name]
            out[f"{ALIASES.get(name, name)}_distinct_frac"] = len(keys) / calls if calls else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "outermost", "raised"],
                       "names": self.names, "spans": self.spans}, fh)
