"""Per-layer tracing of symalg from outside the library.

The traced run wraps the public functions and methods of each layer module
of `src/symalg` in spans.  A span records its function, its parent span and
its duration; spans are folded as they close into per-function and
per-(parent, child) totals held in memory, so a run with millions of calls
stays small, and the fold is written out once at the end.  A layer's self
time is its span time minus the time its child spans cover.

`Scalar` arithmetic is counted, never spanned: a span per field operation
would cost more than the operation itself.

Because `verify`, `construct` and `cli` bind library names with
`from .x import y`, each wrapper is installed in every module namespace of
the package that binds the original object, or internal calls would bypass
it.  Calls that go through a private dict of functions (`decompose.SPLITS`,
`verify._SUITES`, ...) stay inside their caller's span.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import defaultdict

LAYERS = (
    "scalar",
    "matrix",
    "elim",
    "predicates",
    "blockform",
    "decompose",
    "construct",
    "verify",
    "io",
    "cli",
)

# Operators that do real work on whole matrices or vectors.  Accessors such
# as __getitem__ run in every inner loop and are left unwrapped.
SPAN_DUNDERS = frozenset({"__add__", "__sub__", "__neg__", "__matmul__", "__eq__"})

# Scalar operator -> counter slot.
SCALAR_OPS = {
    "__add__": 0,
    "__radd__": 0,
    "__mul__": 1,
    "__rmul__": 1,
    "__truediv__": 2,
    "__rtruediv__": 2,
}

SPLIT_FUNCTIONS = ("split", "split_ba", "split_sv", "split_nm", "split_qp")


class Tracer:
    """Wraps the library while installed; `metrics()` folds what it saw."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.edges = defaultdict(lambda: [0, 0.0])
        # add, mul, div calls; results with no √2 part; of those, with d = 1
        self.scalar = [0, 0, 0, 0, 0]
        self.rows_in = 0
        self.rows_kept = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._stack = [[-1, 0.0]]
        self._patches: list[tuple] = []
        self._fid: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def install(self, clock) -> None:
        """Wrap the library; spans are timed on `clock`."""
        self._clock = clock
        modules = {layer: sys.modules[f"symalg.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if layer == "scalar":
                        if name == "Scalar":
                            self._count_scalar(obj)
                    else:
                        self._wrap_class(layer, obj)
                elif callable(obj) and layer != "scalar":
                    wrappers[id(obj)] = (obj, self._span(obj, layer, name))
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "")
            if mname != "symalg" and not mname.startswith("symalg."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in SPAN_DUNDERS:
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._span(attr.__func__, layer, label))
            elif isinstance(attr, types.FunctionType):
                new = self._span(attr, layer, label)
            else:
                continue
            self._patch(cls, name, new)

    def _count_scalar(self, cls: type) -> None:
        counts = self.scalar
        for name, slot in SCALAR_OPS.items():
            fn = vars(cls)[name]

            def counted(a, b, _fn=fn, _slot=slot):
                r = _fn(a, b)
                if r is not NotImplemented:
                    counts[_slot] += 1
                    if r.q == 0:
                        counts[3] += 1
                        if r.d == 1:
                            counts[4] += 1
                return r

            self._patch(cls, name, counted)

    # -- spans --------------------------------------------------------------

    def _id(self, layer: str, label: str) -> int:
        key = f"{layer}.{label}"
        fid = self._fid.get(key)
        if fid is None:
            fid = self._fid[key] = len(self.names)
            self.names.append(key)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return fid

    def _after(self, label: str):
        """Counter hook run on a span's arguments and result, if any."""
        if label == "Echelon.add":

            def rows(args, kept):
                self.rows_in += 1
                self.rows_kept += bool(kept)

            return rows
        if label in ("loads_matrix", "loads_matrix_csv"):

            def read(args, _):
                self.bytes_in += len(args[0].encode("utf-8"))

            return read
        if label in ("dumps_matrix", "dumps_matrix_csv"):

            def wrote(_, text):
                self.bytes_out += len(text.encode("utf-8"))

            return wrote
        return None

    def _span(self, fn, layer: str, label: str):
        fid = self._id(layer, label)
        after = self._after(label)
        stack = self._stack
        calls, total, self_time, edges = self.calls, self.total, self.self_time, self.edges
        clock = self._clock

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [fid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                calls[fid] += 1
                total[fid] += dur
                self_time[fid] += dur - frame[1]
                edge = edges[(parent[0], fid)]
                edge[0] += 1
                edge[1] += dur
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(span, fn)
        return span

    # -- results ------------------------------------------------------------

    def _sum(self, values: list, layer: str, labels=None) -> float:
        out = 0
        for fid, key in enumerate(self.names):
            if self.layer_of[fid] != layer:
                continue
            if labels is None or key.split(".", 1)[1] in labels:
                out += values[fid]
        return out

    def metrics(self, build_cache_info) -> dict:
        """Per-layer metrics; `build_cache_info` is build_constraints' CacheInfo."""
        add, mul, div, rational, integer = self.scalar
        ops = add + mul + div
        return {
            "scalar.add_calls": add,
            "scalar.mul_calls": mul,
            "scalar.div_calls": div,
            "scalar.rational_ratio": rational / ops if ops else 0.0,
            "scalar.integer_ratio": integer / ops if ops else 0.0,
            "matrix.matmul_calls": self._sum(self.calls, "matrix", {"Matrix.__matmul__"}),
            "matrix.matmul_s": self._sum(self.total, "matrix", {"Matrix.__matmul__"}),
            "matrix.self_s": self._sum(self.self_time, "matrix"),
            "elim.rows_in": self.rows_in,
            "elim.rows_kept": self.rows_kept,
            "elim.useful_row_ratio": self.rows_kept / self.rows_in if self.rows_in else 0.0,
            "elim.self_s": self._sum(self.self_time, "elim"),
            "verify.build_hits": build_cache_info.hits,
            "verify.build_misses": build_cache_info.misses,
            "verify.build_rowgen_s": self._sum(self.self_time, "verify", {"build_constraints"}),
            "verify.member_calls": self._sum(self.calls, "verify", {"random_space_member"}),
            "verify.member_self_s": self._sum(self.self_time, "verify", {"random_space_member"}),
            "verify.self_s": self._sum(self.self_time, "verify"),
            "predicates.classify_calls": self._sum(self.calls, "predicates", {"classify"}),
            "predicates.in_space_calls": self._sum(self.calls, "predicates", {"in_space"}),
            "predicates.self_s": self._sum(self.self_time, "predicates"),
            "decompose.split_calls": self._sum(self.calls, "decompose", SPLIT_FUNCTIONS),
            "decompose.self_s": self._sum(self.self_time, "decompose"),
            "blockform.self_s": self._sum(self.self_time, "blockform"),
            "io.bytes_in": self.bytes_in,
            "io.bytes_out": self.bytes_out,
            "io.self_s": self._sum(self.self_time, "io"),
            "construct.calls": self._sum(self.calls, "construct"),
            "construct.self_s": self._sum(self.self_time, "construct"),
            "cli.self_s": self._sum(self.self_time, "cli"),
        }

    def write(self, path) -> None:
        """Write the folded spans: per function, and per parent/child edge."""
        functions = [
            {
                "name": key,
                "calls": self.calls[fid],
                "total_s": self.total[fid],
                "self_s": self.self_time[fid],
            }
            for fid, key in enumerate(self.names)
            if self.calls[fid]
        ]
        edges = [
            {
                "parent": self.names[p] if p >= 0 else None,
                "name": self.names[c],
                "calls": n,
                "total_s": t,
            }
            for (p, c), (n, t) in sorted(self.edges.items())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": functions, "edges": edges}, fh, indent=1)
