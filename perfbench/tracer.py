"""In-memory span tracer that wraps `auctionab` from outside the package.

`install` replaces every public function and public method of the package's
modules with a recording wrapper, in every module namespace that holds a
reference to it, so a call is traced where its caller looks the name up
(`auctionab.cli.run_design`, `auctionab.harness.bid_curve`, the
`multi_unit_alloc_deriv` that `Position.xprime` finds in `alloc`'s globals).
`uninstall` puts the originals back.  Nothing under `src/` is edited.

A span is (name, start, end, parent, op): `op` is the id of the benchmark
operation the call belongs to, shared by all its spans.  A layer is the
module that defines the function; its self time is the time of its spans
minus the part covered by their child spans.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("alloc", "dist", "equil", "estim", "bounds", "abtest", "harness", "cli")

#: rule evaluators: their quantile argument is counted as evaluated points
EVALUATORS = (".x", ".xprime", ".xsecond")
TERM_EVALS = {"alloc.multi_unit_alloc", "alloc.multi_unit_alloc_deriv",
              "alloc.multi_unit_alloc_second"}
BID_CURVES = {"equil.bid_curve", "equil.allpay_bid_curve", "equil.firstprice_bid_curve"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.op = -1
        # (op, counter) -> value; counters are taken where the work happens
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.weight_sets: set = set()
        self.keep_alive: list = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = _hook_for(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.t0)
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.op_id.append(tracer.op)
            tracer.t1.append(0.0)
            tracer.stack.append(idx)
            tracer.t0.append(perf_counter())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer.t1[idx] = perf_counter()
                tracer.stack.pop()
                if hook is not None:
                    hook(tracer, parent, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.op, key)] += value

    def _layer(self, span: int) -> str:
        return self.names[self.name_id[span]].split(".", 1)[0] if span >= 0 else ""

    def _name(self, span: int) -> str:
        return self.names[self.name_id[span]] if span >= 0 else ""

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        modules = {layer: importlib.import_module(f"auctionab.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(layer, obj)
        namespaces = [importlib.import_module("auctionab"), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis --------------------------------------------------------
    def layer_metrics(self, ops: set[int], wall_s: float) -> dict[str, float]:
        """Per-layer metrics over the spans of the given ops."""
        n = len(self.t0)
        t0 = np.frombuffer(self.t0, dtype=float, count=n)
        t1 = np.frombuffer(self.t1, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        op = np.frombuffer(self.op_id, dtype=np.int32, count=n)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        dur = t1 - t0
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        sel = np.isin(op, np.fromiter(ops, dtype=np.int32, count=len(ops)))
        layer_of = np.array([LAYERS.index(s.split(".", 1)[0]) for s in self.names] or [0])
        span_layer = layer_of[nid]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        names = np.array(self.names or [""], dtype=object)[nid]

        m: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            self_s = float(own[sel & (span_layer == i)].sum())
            m[f"{layer}.self_s"] = self_s
            m[f"{layer}.share"] = self_s / wall_s
        alloc = LAYERS.index("alloc")
        m["alloc.calls"] = float((sel & (span_layer == alloc) & (parent_layer != alloc)).sum())

        def total(key):
            return float(sum(v for (o, k), v in self.counts.items() if k == key and o in ops))

        for key in ("alloc.points", "alloc.term_evals", "dist.v_points", "equil.io_bytes",
                    "estim.weight_builds", "estim.degenerate_errors", "bounds.from_rules_calls",
                    "abtest.candidates_estimated", "harness.trials", "harness.cells",
                    "cli.invocations", "cli.nonzero_exits"):
            m[key] = total(key)

        def inclusive(wanted):
            top = sel & np.isin(names, list(wanted))
            top &= ~np.isin(np.where(has_parent, names[np.maximum(parent, 0)], ""), list(wanted))
            return float(dur[top].sum()), float(top.sum())

        m["equil.bid_curve_s"], m["equil.bid_curve_calls"] = inclusive(BID_CURVES)
        m["equil.sample_s"], _ = inclusive({"equil.sample_bids"})
        m["equil.io_s"], _ = inclusive({"equil.read_bid_csv", "equil.write_bid_csv"})
        sets = len({s for s in self.weight_sets if s[0] in ops})
        m["estim.builds_per_weight_set"] = m["estim.weight_builds"] / sets if sets else 0.0
        trials = m["harness.trials"]
        m["harness.trial_us"] = 1e6 * m["harness.self_s"] / trials if trials else 0.0
        return m

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: span,name,start_s,end_s,parent,op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.t0)):
                f.write(f"{i},{self.names[self.name_id[i]]},{self.t0[i]:.9f},"
                        f"{self.t1[i]:.9f},{self.parent[i]},{self.op_id[i]}\n")


# -- counters taken at the layer boundaries --------------------------------

def _hook_for(name: str):
    layer = name.split(".", 1)[0]

    if layer == "alloc" and name.endswith(EVALUATORS):
        def hook(tr, parent, args, kwargs, result, exc):
            if not tr._name(parent).endswith(EVALUATORS):
                tr.count("alloc.points", np.size(args[1] if len(args) > 1 else kwargs["q"]))
        return hook
    if name in TERM_EVALS:
        return lambda tr, parent, args, kwargs, result, exc: tr.count("alloc.term_evals")
    if name == "dist.Beta22.v":
        return lambda tr, parent, args, kwargs, result, exc: tr.count(
            "dist.v_points", np.size(args[1] if len(args) > 1 else kwargs["q"]))
    if name == "equil.read_bid_csv":
        def hook(tr, parent, args, kwargs, result, exc):
            if exc is None:
                tr.count("equil.io_bytes", os.path.getsize(args[0]))
        return hook
    if name == "equil.write_bid_csv":
        def hook(tr, parent, args, kwargs, result, exc):
            if exc is None:
                csv = str(args[1])
                side = args[2] if len(args) > 2 and args[2] else os.path.splitext(csv)[0] + ".json"
                tr.count("equil.io_bytes", os.path.getsize(csv) + os.path.getsize(side))
        return hook
    if name in ("estim.revenue_weights", "estim.estimate_revenue_firstprice",
                "estim.estimate_expected_value"):
        def hook(tr, parent, args, kwargs, result, exc):
            if name == "estim.revenue_weights":
                rules, size = args[:2], int(args[2])
            elif name == "estim.estimate_revenue_firstprice":
                rules, size = args[1:3], args[0].size
            else:
                rules, size = args[1:2], args[0].size
            tr.count("estim.weight_builds")
            tr.weight_sets.add((tr.op, name, size, *map(id, rules)))
            tr.keep_alive.append(rules)  # so no later rule can reuse an id in a key
            _degenerate(tr, parent, exc)
        return hook
    if layer == "estim":
        def hook(tr, parent, args, kwargs, result, exc):
            if name == "estim.estimate_revenue" and tr._layer(parent) == "abtest":
                tr.count("abtest.candidates_estimated")
            _degenerate(tr, parent, exc)
        return hook
    if name == "bounds.BoundInputs.from_rules":
        return lambda tr, parent, args, kwargs, result, exc: tr.count("bounds.from_rules_calls")
    if name == "harness.trial_estimates":
        return lambda tr, parent, args, kwargs, result, exc: tr.count(
            "harness.trials", args[5] if len(args) > 5 else kwargs["trials"])
    if name == "harness.run_design":
        return lambda tr, parent, args, kwargs, result, exc: tr.count("harness.cells")
    if name == "cli.cli_main":
        def hook(tr, parent, args, kwargs, result, exc):
            tr.count("cli.invocations")
            if exc is not None or result != 0:
                tr.count("cli.nonzero_exits")
        return hook
    return None


def _degenerate(tr: Tracer, parent: int, exc) -> None:
    """Count a DegenerateSourceError once, where it leaves the estim layer."""
    if exc is not None and type(exc).__name__ == "DegenerateSourceError" \
            and tr._layer(parent) != "estim":
        tr.count("estim.degenerate_errors")
