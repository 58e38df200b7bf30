"""Span recording around toruscert's public functions, from outside.

:class:`Tracer` replaces module attributes and class methods of the already
imported package with wrappers that record one span per call: name, parent
span, start and end.  Spans live in flat arrays while the workload runs and
are written once at the end; :func:`layer_metrics` turns them into self time
and call counts per layer.  Nothing in the package is edited, so its outputs
are the same with and without tracing.

Forked worker processes inherit the wrappers; the tracer switches itself off
in them, and the parent reads their CPU time from ``RUSAGE_CHILDREN``.
"""
import dataclasses
import json
import multiprocessing.pool
import os
import sys
import time
from array import array
from collections import Counter

# span name -> (module, attribute); a dotted attribute names a method
FUNCTIONS = {
    "kernel.search_matchings": ("toruscert.kernel", "search_matchings"),
    "kernel.canonical_code": ("toruscert.kernel", "canonical_code"),
    "enumeration.enumerate_reduced_torus_graphs": (
        "toruscert.enumeration", "enumerate_reduced_torus_graphs"),
    "enumeration._search": ("toruscert.enumeration", "_search"),
    "fatgraph.parallel_edge_pairs": ("toruscert.fatgraph", "FatGraph.parallel_edge_pairs"),
    "fatgraph.trivial_loops": ("toruscert.fatgraph", "FatGraph.trivial_loops"),
    "certifier.certify_case": ("toruscert.certifier", "certify_case"),
    "certifier.make_config": ("toruscert.certifier", "make_config"),
    "certifier.vertex_types": ("toruscert.certifier", "vertex_types"),
    "certifier.sign_patterns": ("toruscert.certifier", "sign_patterns"),
    "certifier.loop_vertices": ("toruscert.certifier", "loop_vertices"),
    "certifier.loops_per_vertex": ("toruscert.certifier", "loops_per_vertex"),
    "certifier.opposite_pair_cover": ("toruscert.certifier", "opposite_pair_cover"),
    "certifier.partner_has_loops": ("toruscert.certifier", "partner_has_loops"),
    "certifier.to_json": ("toruscert.certifier", "CaseCertificate.to_json"),
    "constraints.check_reduced_torus_degrees": (
        "toruscert.constraints", "check_reduced_torus_degrees"),
}
VIEWS = [
    "certifier.vertex_types",
    "certifier.sign_patterns",
    "certifier.loop_vertices",
    "certifier.loops_per_vertex",
    "certifier.opposite_pair_cover",
    "certifier.partner_has_loops",
]
POOL_SETUP = "pool.setup"

# the distinct rules of the s = 1, s = 2 and s >= 3 chains
RULES = [
    "negative-size-bound",
    "two-vertex-standard-form",
    "positive-involution-fixed-point-free",
    "connector-equals-loop-permutation",
    "connector-identity",
    "connector-generic-negative-size",
    "connector-generic-klein-regeneration",
    "all-positive-excluded",
    "type-uniformity",
    "sign-pattern-uniformity",
    "loop-propagation",
    "negative-two-cycle-cover",
    "positive-structure-no-loops",
    "partner-positive-structure",
    "loop-cover-form",
    "degree-count-endgame",
]

# per-layer metric -> unit, in report order
LAYER_METRICS = {
    "kernel.search_s": "s",
    "kernel.search_calls": "count",
    "kernel.canon_s": "s",
    "kernel.canon_calls": "count",
    "kernel.raw_classes": "count",
    "kernel.canon_per_class": "ratio",
    "enumeration.enumerate_s": "s",
    "enumeration.enumerate_calls": "count",
    "enumeration.sequences": "count",
    "enumeration.reduced_classes": "count",
    "enumeration.pools": "count",
    "enumeration.pool_setup_s": "s",
    "enumeration.pool_wall_s": "s",
    "enumeration.worker_cpu_s": "s",
    "enumeration.parallel_efficiency": "ratio",
    "fatgraph.filter_s": "s",
    "fatgraph.filter_calls": "count",
    "certifier.certify_s": "s",
    "certifier.decorate_s": "s",
    "certifier.configs": "count",
    "certifier.views_s": "s",
    "certifier.chain_s": "s",
    "certifier.configs_per_s": "1/s",
    "certifier.serialize_s": "s",
    **{f"rule.{r}.{m}": unit for r in RULES for m, unit in (("s", "s"), ("calls", "count"))},
    "constraints.degree_face_s": "s",
    "constraints.degree_face_calls": "count",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Records spans around wrapped calls while :attr:`active` is set."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.counts = Counter()
        self.pools = []  # [start, end, processes] per pool
        self.wrapped = set()
        self._undo = []
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self):
        self.active = False

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_result=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        # bound once: every wrapped call pays for these lookups
        add_name, add_parent, add_start = self.name.append, self.parent.append, self.start.append
        starts, ends, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every function in :data:`FUNCTIONS` that exists, the rules
        returned by ``build_chain``, and pool creation and teardown."""
        on_result = {
            "kernel.search_matchings": self._count_len("kernel.raw_classes"),
            "enumeration.enumerate_reduced_torus_graphs": self._count_len(
                "enumeration.reduced_classes"),
        }
        for name, (module_name, attr) in FUNCTIONS.items():
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn, on_result.get(name))
            if owner_name:
                self._replace(owner, fn_name, wrapper)
            else:
                # rebind every reference the package holds, re-exports included
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "toruscert":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._replace(mod, key, wrapper)
            self.wrapped.add(name)
        certifier = sys.modules.get("toruscert.certifier")
        if getattr(certifier, "build_chain", None) is not None:
            self._replace(certifier, "build_chain", self._traced_chain(certifier.build_chain))
            self.wrapped.add("rules")
        self._replace(multiprocessing.pool.Pool, "__init__",
                      self._traced_pool_init(multiprocessing.pool.Pool.__init__))
        for attr in ("terminate", "join"):
            self._replace(multiprocessing.pool.Pool, attr,
                          self._traced_pool_end(getattr(multiprocessing.pool.Pool, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _count_len(self, counter):
        def count(result):
            self.counts[counter] += len(result)
        return count

    def _traced_chain(self, build_chain):
        cache = {}

        def traced_build_chain(*args, **kwargs):
            chain = build_chain(*args, **kwargs)
            out = []
            for rule in chain:
                key = (rule.name, rule.fn)
                if key not in cache:
                    cache[key] = self.wrap(f"rule.{rule.name}", rule.fn)
                out.append(dataclasses.replace(rule, fn=cache[key]))
            return out

        return traced_build_chain

    def _traced_pool_init(self, init):
        traced_init = self.wrap(POOL_SETUP, init)

        def pool_init(pool, *args, **kwargs):
            started = time.perf_counter()
            traced_init(pool, *args, **kwargs)
            if self.active:
                pool._bench_record = [started, started, pool._processes]
                self.pools.append(pool._bench_record)

        return pool_init

    def _traced_pool_end(self, method):
        def pool_end(pool, *args, **kwargs):
            try:
                return method(pool, *args, **kwargs)
            finally:
                record = getattr(pool, "_bench_record", None)
                if record is not None:
                    record[1] = time.perf_counter()

        return pool_end

    def write(self, path, extra=None):
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "itemsize": {"i": array("i").itemsize, "d": array("d").itemsize},
            "byteorder": sys.byteorder,
            **(extra or {}),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(tracer, rounds, wall_s, worker_cpu_s):
    """Per-round self times and counts per layer from the recorded spans."""
    n = len(tracer.start)
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
    calls = Counter()
    self_s = Counter()
    total_s = Counter()
    for i in range(n):
        name = tracer.names[tracer.name[i]]
        dur = tracer.end[i] - tracer.start[i]
        calls[name] += 1
        total_s[name] += dur
        self_s[name] += dur - child[i]

    wrapped = tracer.wrapped
    out = {}
    if "kernel.search_matchings" in wrapped:
        out["kernel.search_s"] = self_s["kernel.search_matchings"]
        out["kernel.search_calls"] = calls["kernel.search_matchings"]
        out["kernel.raw_classes"] = tracer.counts["kernel.raw_classes"]
    if "kernel.canonical_code" in wrapped:
        out["kernel.canon_s"] = self_s["kernel.canonical_code"]
        out["kernel.canon_calls"] = calls["kernel.canonical_code"]
    if "kernel.raw_classes" in out and "kernel.canon_calls" in out:
        raw = out["kernel.raw_classes"]
        out["kernel.canon_per_class"] = out["kernel.canon_calls"] / raw if raw else 0.0
    if "enumeration.enumerate_reduced_torus_graphs" in wrapped:
        name = "enumeration.enumerate_reduced_torus_graphs"
        out["enumeration.enumerate_s"] = self_s[name]
        out["enumeration.enumerate_calls"] = calls[name]
        out["enumeration.reduced_classes"] = tracer.counts["enumeration.reduced_classes"]
    if "enumeration._search" in wrapped:
        out["enumeration.sequences"] = calls["enumeration._search"]
    pool_wall = sum(end - start for start, end, _ in tracer.pools)
    capacity = sum((end - start) * procs for start, end, procs in tracer.pools)
    out["enumeration.pools"] = len(tracer.pools)
    out["enumeration.pool_setup_s"] = self_s[POOL_SETUP]
    out["enumeration.pool_wall_s"] = pool_wall
    out["enumeration.worker_cpu_s"] = worker_cpu_s
    out["enumeration.parallel_efficiency"] = worker_cpu_s / capacity if capacity else 0.0
    filters = ["fatgraph.parallel_edge_pairs", "fatgraph.trivial_loops"]
    if wrapped.issuperset(filters):
        out["fatgraph.filter_s"] = sum(self_s[x] for x in filters)
        out["fatgraph.filter_calls"] = sum(calls[x] for x in filters)
    if "certifier.certify_case" in wrapped:
        out["certifier.certify_s"] = self_s["certifier.certify_case"]
    if "certifier.make_config" in wrapped:
        out["certifier.decorate_s"] = self_s["certifier.make_config"]
        out["certifier.configs"] = calls["certifier.make_config"]
    if wrapped.issuperset(VIEWS):
        out["certifier.views_s"] = sum(self_s[x] for x in VIEWS)
    if "rules" in wrapped:
        out["certifier.chain_s"] = sum(v for k, v in total_s.items() if k.startswith("rule."))
        for rule in RULES:
            out[f"rule.{rule}.s"] = self_s[f"rule.{rule}"]
            out[f"rule.{rule}.calls"] = calls[f"rule.{rule}"]
    if "certifier.configs" in out and "certifier.certify_case" in wrapped:
        certify_total = total_s["certifier.certify_case"]
        out["certifier.configs_per_s"] = (
            out["certifier.configs"] / certify_total if out["certifier.configs"] else 0.0)
    if "certifier.to_json" in wrapped:
        out["certifier.serialize_s"] = self_s["certifier.to_json"]
    if "constraints.check_reduced_torus_degrees" in wrapped:
        out["constraints.degree_face_s"] = self_s["constraints.check_reduced_torus_degrees"]
        out["constraints.degree_face_calls"] = calls["constraints.check_reduced_torus_degrees"]
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = n
    for k, v in out.items():
        if k != "trace.wall_s" and not k.endswith(("_per_class", "_per_s", "efficiency")):
            out[k] = v // rounds if isinstance(v, int) and v % rounds == 0 else v / rounds
    return {k: out[k] for k in LAYER_METRICS if k in out}, {
        "calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s)}
