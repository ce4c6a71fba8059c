"""The four workloads.  Each repeats one kind of user job on seeded inputs.

A workload object has:

- ``setup()``: everything a user pays before the first job (input
  generation, loading, index build, warm-up); returns the run's state;
- ``prepare(state)``: the benchmark's own reference data, not timed;
- ``make_job(state, i)``: the inputs of job ``i``, not timed;
- ``run_job(state, job)``: the timed job, through ultratree's documented API
  only, looked up on the module at call time so the traced run sees it;
- ``check(state, job, out)``: problems found in the answer, not timed;
- ``notes()``: figures reported beside the metrics but never asserted.

``ROUND`` is the length of the cycle of job kinds a workload goes through; a
run ends on a cycle boundary, so every kind has its fixed share of the
latencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from types import SimpleNamespace

import gen
from oracle import (
    RefTree,
    attachment_problems,
    dendrogram_code,
    hull_problems,
    is_isometry,
    is_tree_isomorphism,
    parse_mapping,
)


def job_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}:{i}")


class TreeQueries:
    """One resident 50,000-vertex tree; a job is 1,000 path-max queries, the
    hull of 4 vertices and the attachment point of an outside vertex."""

    ROUND = 1
    PAIRS = 1000
    CHECK_SHARE = 1 / 8  # jobs whose every query is checked by a path walk

    def __init__(self, ut, seed, workdir):
        self.ut, self.seed = ut, seed

    def setup(self):
        ut = self.ut
        doc = gen.big_tree_doc(self.seed)
        tree = ut.tree_from_json(doc)
        index = ut.build_index(tree)
        names = list(doc["vertices"])
        rng = job_rng(self.seed, -1)
        for _ in range(100):
            ut.query(index, rng.choice(names), rng.choice(names))
        ut.hull(tree, rng.sample(names, 4))
        return SimpleNamespace(doc=doc, tree=tree, index=index, names=names)

    def prepare(self, st):
        st.ref = RefTree(st.doc)

    def make_job(self, st, i):
        rng = job_rng(self.seed, i)
        names = st.names
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(self.PAIRS)]
        members = rng.sample(names, 4)
        inside = st.ref.hull(members)
        outside = rng.choice(names)
        while outside in inside:
            outside = rng.choice(names)
        return SimpleNamespace(pairs=pairs, members=members, outside=outside,
                               check_all=rng.random() < self.CHECK_SHARE)

    def run_job(self, st, job):
        ut = self.ut
        query, index = ut.query, st.index
        dists = [query(index, u, v) for u, v in job.pairs]
        h = ut.hull(st.tree, job.members)
        att = ut.attachment_point(st.tree, h.subtree.vertices, job.outside)
        return dists, h, att

    def check(self, st, job, out):
        dists, h, att = out
        problems = hull_problems(st.ref, job.members, h.subtree.vertices, h.subtree.edges)
        problems += attachment_problems(st.ref, set(h.subtree.vertices), job.outside, att.root)
        if job.check_all:
            for (u, v), d in zip(job.pairs, dists):
                if d != st.ref.dist(u, v):
                    problems.append(f"query({u}, {v}) = {d}, path walk gives {st.ref.dist(u, v)}")
                    break
        return problems

    def notes(self):
        return {}


class TreeSpaces:
    """A job is one CLI session on a fresh 24..40-vertex tree:
    ``matrix --json --out``, ``iso --space`` against the matrix of a
    relabeled copy, and ``iso --tree`` against the relabeled copy."""

    SIZES = tuple(range(24, 41))
    ROUND = len(SIZES)
    POOL_ROUNDS = 12
    NEW_LABEL = "1/9"  # absent from gen.TREE_LABELS

    def __init__(self, ut, seed, workdir):
        self.ut, self.seed, self.dir = ut, seed, workdir
        import ultratree.cli  # noqa: F401  (the CLI is not imported by the package)

    def _write(self, name, payload):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def setup(self):
        rng = random.Random(self.seed)
        os.makedirs(self.dir, exist_ok=True)
        pool = []
        for _ in range(self.POOL_ROUNDS):
            sizes = list(self.SIZES)
            rng.shuffle(sizes)
            for n in sizes:
                k = len(pool)
                doc = gen.small_tree_doc(rng, n)
                copy = gen.relabeled_copy(rng, doc)
                changed = json.loads(json.dumps(doc))
                changed["vertices"][rng.choice(list(doc["vertices"]))] = self.NEW_LABEL
                d_copy = RefTree(copy).matrix()
                pts = sorted(d_copy)
                matrix = {"points": pts, "d": [[gen.fmt(d_copy[u][v]) for v in pts] for u in pts]}
                pool.append(SimpleNamespace(
                    doc=doc, copy=copy, d_copy=d_copy,
                    tree=self._write(f"t{k}.json", doc),
                    tree_copy=self._write(f"t{k}r.json", copy),
                    tree_changed=self._write(f"t{k}x.json", changed),
                    matrix_copy=self._write(f"m{k}r.json", matrix),
                ))
        st = SimpleNamespace(pool=pool, matrix_out=os.path.join(self.dir, "m.json"))
        self.run_job(st, self.make_job(st, 0))
        return st

    def prepare(self, st):
        pass

    def make_job(self, st, i):
        t = st.pool[i % len(st.pool)]
        return SimpleNamespace(t=t, argvs=[
            ["matrix", "--tree", t.tree, "--json", "--out", st.matrix_out],
            ["iso", "--space", st.matrix_out, "--space", t.matrix_copy],
            ["iso", "--tree", t.tree, "--tree", t.tree_copy],
        ])

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ut.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_job(self, st, job):
        return [self._cli(argv) for argv in job.argvs]

    def check(self, st, job, out):
        problems = [f"{' '.join(a[:2])} exited {c}: {e.strip()}"
                    for a, (c, _, e) in zip(job.argvs, out) if c != 0]
        if problems:
            return problems
        t = job.t
        ref, ref_copy = RefTree(t.doc), RefTree(t.copy)
        d = ref.matrix()
        with open(st.matrix_out, encoding="utf-8") as fh:
            got = json.load(fh)
        pts = got["points"]
        if sorted(pts) != sorted(d) or any(
            Fraction(x) != d[u][v] for u, row in zip(pts, got["d"]) for v, x in zip(pts, row)
        ):
            problems.append("matrix differs from the path-max matrix")
        space_map = parse_mapping(out[1][1])
        if space_map is None or not is_isometry(d, t.d_copy, space_map):
            problems.append("iso --space of a relabeled copy is not an isometry")
        tree_map = parse_mapping(out[2][1])
        if tree_map is None or not is_tree_isomorphism(ref, ref_copy, tree_map):
            problems.append("iso --tree of a relabeled copy is not an isomorphism")
        code, text, _ = self._cli(["iso", "--tree", t.tree, "--tree", t.tree_changed])
        if code != 0 or parse_mapping(text) is not None:
            problems.append("iso --tree maps a copy with one label changed")
        return problems

    def notes(self):
        return {}


class SpaceScan:
    """A job is one conjecture_scan(n, values); (n, |values|) cycles through
    KINDS with seeded distinct positive values.

    (4, 3) comes twice per cycle.  With the four kinds equally often, the
    median would fall in the gap between the (5, 2) and (5, 3) latencies,
    five times apart, and follow the slowest (5, 2) and fastest (5, 3) job
    of the run; it moved 26 % between runs.  With this cycle it is the middle
    of the (5, 2) latencies, and the 90th percentile the middle of (6, 2).
    """

    KINDS = ((4, 3), (5, 2), (4, 3), (5, 3), (6, 2))
    CLASSES = {(4, 3): 14, (5, 2): 7, (5, 3): 27, (6, 2): 11}
    ROUND = len(KINDS)

    def __init__(self, ut, seed, workdir):
        self.ut, self.seed = ut, seed
        self.records = self.agree = 0

    def setup(self):
        self.ut.conjecture_scan(4, gen.scan_values(job_rng(self.seed, -1), 3))
        return SimpleNamespace()

    def prepare(self, st):
        pass

    def make_job(self, st, i):
        n, k = self.KINDS[i % len(self.KINDS)]
        return SimpleNamespace(n=n, k=k, values=gen.scan_values(job_rng(self.seed, i), k))

    def run_job(self, st, job):
        return self.ut.conjecture_scan(job.n, job.values)

    def check(self, st, job, out):
        problems = []
        recs = out.records
        want = self.CLASSES[(job.n, job.k)]
        if len(recs) != want:
            problems.append(f"{len(recs)} records for (n={job.n}, |values|={job.k}), want {want}")
        if len({r.canonical_hierarchy for r in recs}) != len(recs):
            problems.append("two records share a dendrogram")
        for r in recs:
            if r.representable != (r.witness_tree is not None):
                problems.append(f"{r.space_id}: witness does not match the verdict")
            elif r.witness_tree is not None:
                t = r.witness_tree
                doc = {"vertices": {v: gen.fmt(t.labels[v]) for v in t.vertices},
                       "edges": [list(e) for e in t.edges]}
                d = RefTree(doc).matrix()
                if dendrogram_code(sorted(d), d) != r.canonical_hierarchy:
                    problems.append(f"{r.space_id}: witness tree does not regenerate its space")
        self.records += len(recs)
        self.agree += sum(r.predicate == r.representable for r in recs)
        return problems

    def notes(self):
        return {"scan records": self.records, "predicate agrees with representability": self.agree}


class Symbolic:
    """A job reads one seeded symbolic document and runs the topology
    questions on it: classify, free predicates, isolated points, vertex
    counts at three eps, a 10^3..10^4-vertex truncation and both witness
    labelings."""

    ROUND = len(gen.SYMBOLIC_ROUND)
    POOL_ROUNDS = 16
    EPS_DIVISORS = (2, 5, 11)

    def __init__(self, ut, seed, workdir):
        self.ut, self.seed = ut, seed
        self.sizes: list[int] = []

    def setup(self):
        rng = random.Random(self.seed)
        pool = []
        for k in range(self.ROUND * self.POOL_ROUNDS):
            sym, target = gen.symbolic_doc(rng, k)
            pool.append(SimpleNamespace(
                sym=sym, budget=sym.budget_for(target),
                eps=[sym.scale / q for q in self.EPS_DIVISORS]))
        st = SimpleNamespace(pool=pool)
        self.run_job(st, self.make_job(st, 0))
        return st

    def prepare(self, st):
        pass

    def make_job(self, st, i):
        return st.pool[i % len(st.pool)]

    def run_job(self, st, job):
        ut = self.ut
        node = ut.symbolic_from_json(job.sym.doc)
        verdict = ut.classify(node)
        report = ut.free_predicates(node)
        ut.isolated_points(node)
        counts = [ut.count_vertices_geq(node, e) for e in job.eps]
        tree, _ = ut.truncate(node, job.budget)
        witnesses = []
        for make in (ut.compact_labeling_witness, ut.discrete_tb_labeling_witness):
            try:
                witnesses.append(make(node))
            except ut.PreconditionFailed as exc:
                witnesses.append(exc)
        return node, verdict, report, counts, tree, witnesses

    def check(self, st, job, out):
        ut = self.ut
        node, verdict, report, counts, tree, (compact, dtb) = out
        sym = job.sym
        problems = []
        if verdict.compact != (verdict.complete and verdict.totally_bounded):
            problems.append("compact differs from complete and totally bounded")
        if report.rayless == sym.has_ray or report.locally_finite == sym.has_star:
            problems.append("free predicates contradict the document's shape")
        if len(tree.edges) != len(tree.vertices) - 1:
            problems.append("truncation is not a tree")
        # a ray rules out a compact labeling; a star rules out a locally finite one
        for w, refused, goal in ((compact, sym.has_ray, "compact"),
                                 (dtb, sym.has_star, "discrete_and_tb")):
            if isinstance(w, ut.PreconditionFailed) != refused:
                problems.append(f"{goal} labeling {'refused' if not refused else 'granted'} unexpectedly")
            elif not refused and not getattr(w.verdict, goal):
                problems.append(f"{goal} labeling fails its own classification")
        for eps, count in zip(job.eps, counts):
            if not isinstance(count, int):
                continue  # infinitely many labels >= eps
            bound = ut.symbolic.exceedance_bound(node, eps)
            full, _ = ut.truncate(node, bound)
            got = sum(1 for x in full.labels.values() if x >= eps)
            if got != count:
                problems.append(f"count_vertices_geq(eps={eps}) = {count}, truncation has {got}")
        self.sizes.append(len(tree.vertices))
        return [f"{sym.shape}: {p}" for p in problems]

    def notes(self):
        return {"truncation vertices (min mean max)":
                f"{min(self.sizes)} {sum(self.sizes) // len(self.sizes)} {max(self.sizes)}"}


WORKLOADS = {
    "tree-queries": TreeQueries,
    "tree-spaces": TreeSpaces,
    "space-scan": SpaceScan,
    "symbolic": Symbolic,
}
