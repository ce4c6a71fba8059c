"""Tracing from outside the program: span-recording wrappers on ultratree's
public functions, installed by replacing module attributes at run time.

A wrapped function is replaced in its own module and under every other name
an ``ultratree`` module bound to it (``from .spaces import validate_space``
and the package's re-exports), so calls between layers are seen too.  Each
call records one span (name, start, end, parent span, job id); spans stay in
memory until the run ends.  A layer's self time is its span time minus the
time of the wrapped calls made inside it.  Modules not listed in LAYERS
(``seqs``, ``builders``, ``errors`` and the package ``__init__``) are not
wrapped, so their time counts as their caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer (module) -> wrapped public functions
LAYERS = {
    "core_tree": ("build_tree", "path", "dl_naive", "is_non_degenerate",
                  "distance_matrix", "restrict", "is_isomorphic_labeled"),
    "pathmax": ("build_index", "query", "all_pairs"),
    "hull": ("hull", "attachment_point"),
    "spaces": ("validate_space", "canonical_hierarchy", "isometric", "balls"),
    "finite_space": ("conjecture_predicate", "representable",
                     "enumerate_spaces", "conjecture_scan"),
    "symbolic": ("validate_symbolic", "truncate", "count_vertices_geq",
                 "instantiate", "format_address", "parse_address"),
    "classify": ("classify", "free_predicates", "isolated_points"),
    "witness": ("compact_labeling_witness", "discrete_tb_labeling_witness"),
    "treeio": ("tree_from_json", "tree_to_json", "space_from_json",
               "space_to_json", "symbolic_from_json", "symbolic_to_json",
               "export_dot"),
    "ratio": ("parse_rational", "format_rational"),
    "cli": ("main",),
}

# metric prefix -> functions whose spans it sums
GROUPS = {
    "treeio.parse": ("treeio.tree_from_json", "treeio.space_from_json",
                     "treeio.symbolic_from_json"),
    "treeio.format": ("treeio.tree_to_json", "treeio.space_to_json",
                      "treeio.symbolic_to_json", "treeio.export_dot"),
    "witness.labeling": ("witness.compact_labeling_witness",
                         "witness.discrete_tb_labeling_witness"),
}


def _self(fn):
    return (f"{fn}.self_s", "s", ("self", fn))


def _calls(fn):
    return (f"{fn}.calls", "count", ("calls", fn))


def _value(metric, unit="count"):
    return (metric, unit, ("value",))


# (metric, unit, how it is computed); Tracer.metrics reads the kinds
PER_LAYER = [(f"{layer}.self_s", "s", ("layer_self", layer)) for layer in LAYERS]
PER_LAYER += [(f"{layer}.calls", "count", ("layer_calls", layer)) for layer in LAYERS]
PER_LAYER += [
    _calls("pathmax.query"), _self("pathmax.query"),
    _self("pathmax.build_index"), _self("treeio.tree_from_json"),
    _calls("core_tree.build_tree"), _self("core_tree.build_tree"),
    _self("hull.hull"), _self("hull.attachment_point"),
    _calls("core_tree.restrict"), _self("core_tree.path"),
    _calls("spaces.validate_space"), _self("spaces.validate_space"),
    _calls("spaces.canonical_hierarchy"), _self("spaces.canonical_hierarchy"),
    _self("spaces.isometric"), _self("core_tree.is_isomorphic_labeled"),
    _calls("core_tree.distance_matrix"), _self("core_tree.distance_matrix"),
    _self("treeio.parse"), _self("treeio.format"),
    _calls("ratio.parse_rational"), _calls("ratio.format_rational"),
    _self("cli.main"), _value("cli.main.nonzero_exits"),
    _self("finite_space.enumerate_spaces"),
    _value("finite_space.enumerate_spaces.classes"),
    ("finite_space.enumerate_spaces.hierarchies", "count",
     ("under", "spaces.canonical_hierarchy", "finite_space.enumerate_spaces")),
    ("finite_space.enumerate_spaces.dedup_ratio", "1",
     ("ratio", "finite_space.enumerate_spaces.classes",
      "finite_space.enumerate_spaces.hierarchies")),
    _calls("finite_space.representable"), _self("finite_space.representable"),
    _value("finite_space.representable.trees"),
    ("finite_space.representable.candidates", "count",
     ("under", "core_tree.build_tree", "finite_space.representable")),
    ("finite_space.representable.hit_ratio", "1",
     ("ratio", "finite_space.representable.trees",
      "finite_space.representable.candidates")),
    _self("finite_space.conjecture_predicate"), _self("spaces.balls"),
    _self("symbolic.truncate"), _value("symbolic.truncate.vertices"),
    _self("symbolic.count_vertices_geq"), _calls("symbolic.instantiate"),
    _self("symbolic.validate_symbolic"),
    _self("classify.classify"), _self("classify.free_predicates"),
    _self("classify.isolated_points"),
    _calls("witness.labeling"), _self("witness.labeling"),
    _value("witness.labeling.refused"),
    _self("treeio.symbolic_from_json"),
    _value("trace.spans"), _value("trace.job_s", "s"),
    _value("trace.uncovered_s", "s"),
    ("trace.uncovered_ratio", "1", ("ratio", "trace.uncovered_s", "trace.job_s")),
    _value("trace.overhead_ratio", "1"),
]


def _sources(metric: str, how: tuple) -> set[str]:
    """Wrapped functions (or, for layer totals, the module) a metric reads."""
    if how[0] in ("layer_self", "layer_calls"):
        return {how[1]}
    if how[0] == "under":
        return set(how[1:])
    head = ".".join(metric.split(".")[:2])
    if head.split(".")[0] not in LAYERS:
        return set()
    return set(GROUPS.get(head, (head,)))


def _observers(ut):
    """Counters read off results: fn -> callback(counts, result, exc)."""
    refused = getattr(ut, "PreconditionFailed", ())

    def cli_main(c, res, exc):
        if exc is not None or res != 0:
            c["cli.main.nonzero_exits"] += 1

    def enumerate_spaces(c, res, exc):
        if exc is None:
            c["finite_space.enumerate_spaces.classes"] += len(res)

    def representable(c, res, exc):
        if exc is None and res is not None:
            c["finite_space.representable.trees"] += 1

    def truncate(c, res, exc):
        if exc is None:
            c["symbolic.truncate.vertices"] += len(res[0].vertices)

    def labeling(c, res, exc):
        if isinstance(exc, refused):
            c["witness.labeling.refused"] += 1

    return {
        "cli.main": cli_main,
        "finite_space.enumerate_spaces": enumerate_spaces,
        "finite_space.representable": representable,
        "symbolic.truncate": truncate,
        "witness.compact_labeling_witness": labeling,
        "witness.discrete_tb_labeling_witness": labeling,
    }


class Tracer:
    """Span store plus the attribute swaps that route calls through it."""

    def __init__(self, ut):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.swaps: list[tuple[object, str, object, object]] = []
        self._plan(ut)

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _plan(self, ut) -> None:
        observers = _observers(ut)
        wrappers = {}
        for layer, funcs in LAYERS.items():
            try:
                mod = importlib.import_module(f"ultratree.{layer}")
            except ImportError:
                self.missing.append(layer)
                self.missing.extend(f"{layer}.{f}" for f in funcs)
                continue
            for f in funcs:
                orig = getattr(mod, f, None)
                if not callable(orig):
                    self.missing.append(f"{layer}.{f}")
                    continue
                wrappers[id(orig)] = (orig, self._wrap(f"{layer}.{f}", orig, observers.get(f"{layer}.{f}")))
        for mod in [m for n, m in sys.modules.items() if n == "ultratree" or n.startswith("ultratree.")]:
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.swaps.append((mod, attr, value, hit[1]))

    def _wrap(self, qualname: str, fn, observe):
        nid = self._id(qualname)
        clock = time.perf_counter
        start, end, name, parent, job, stack = (
            self.start, self.end, self.name, self.parent, self.job, self.stack)
        counts = self.counts

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            job.append(self.job_id)
            end.append(0.0)
            stack.append(sid)
            res = exc = None
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as e:
                exc = e
                raise
            finally:
                end[sid] = clock()
                stack.pop()
                if observe is not None:
                    observe(counts, res, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self.swaps:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self.swaps:
            setattr(mod, attr, orig)

    @contextmanager
    def root(self, label: str, job_id: int):
        """A root span (one job, or the set-up) with the wrappers installed
        for its duration."""
        self.job_id = job_id
        sid = len(self.start)
        self.name.append(self._id(label))
        self.parent.append(-1)
        self.job.append(job_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.install()
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.uninstall()
            self.stack.pop()

    # -- results --------------------------------------------------------

    def metrics(self, untraced_s: float, traced_s: float) -> tuple[dict, list[str]]:
        """Every PER_LAYER metric, plus the names of those that could not be
        measured because a function they read is gone from the program."""
        n = len(self.start)
        names = [self.names[i] for i in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            self_s[names[i]] += dur[i] - child[i]
            calls[names[i]] += 1
        for group, members in GROUPS.items():
            self_s[group] = sum(self_s[m] for m in members)
            calls[group] = sum(calls[m] for m in members)
        jobs = [i for i in range(n) if names[i] == "job"]

        def under(fn: str, ancestor: str) -> int:
            hits = 0
            for i in range(n):
                if names[i] == fn:
                    p = self.parent[i]
                    while p >= 0 and names[p] != ancestor:
                        p = self.parent[p]
                    hits += p >= 0
            return hits

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.split(".")[0] == layer and k not in GROUPS)

        values = dict(self.counts)
        values["trace.spans"] = n
        values["trace.job_s"] = sum(dur[i] for i in jobs)
        values["trace.uncovered_s"] = sum(dur[i] - child[i] for i in jobs)
        values["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
        out, absent = {}, []
        for metric, unit, how in PER_LAYER:
            if _sources(metric, how) & set(self.missing):
                absent.append(metric)
                continue
            kind, args = how[0], how[1:]
            if kind == "layer_self":
                v = layer_sum(self_s, args[0])
            elif kind == "layer_calls":
                v = layer_sum(calls, args[0])
            elif kind == "self":
                v = self_s[args[0]]
            elif kind == "calls":
                v = calls[args[0]]
            elif kind == "under":
                v = values[metric] = under(*args)
            elif kind == "ratio":
                base = values.get(args[1], 0)
                v = values.get(args[0], 0) / base if base else 0.0
            else:  # "value"
                v = values.get(metric, 0)
            out[metric] = {"value": v, "unit": unit}
        return out, absent

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated lines: id, name, parent, job,
        start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tjob\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.job[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
