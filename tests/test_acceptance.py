"""Acceptance suite.

Ten end-to-end checks, each printing exactly one PASS/FAIL line to the
real terminal (bypassing capture) with its elapsed time against a stated
budget.  Each check re-derives its expected values from scratch inside
the test — nothing here trusts the unit suites.
"""

from __future__ import annotations

import random
import time
from collections import deque
from fractions import Fraction as F

import pytest

from ultratree.builders import fig1, fig10, four_point_space, star_vs_path
from ultratree.classify import classify
from ultratree.core_tree import (
    build_tree,
    distance_matrix,
    dl_naive,
    is_isomorphic_labeled,
    is_non_degenerate,
)
from ultratree.errors import PreconditionFailed
from ultratree.finite_space import (
    conjecture_predicate,
    conjecture_scan,
    enumerate_spaces,
    representable,
)
from ultratree.hull import attachment_point, hull
from ultratree.pathmax import build_index, query
from ultratree.seqs import Const, Harmonic, Modulated
from ultratree.spaces import canonical_hierarchy
from ultratree.symbolic import (
    Finite,
    GlueFamily,
    Ray,
    count_vertices_geq,
    exceedance_bound,
    truncate,
)
from ultratree.witness import compact_labeling_witness, discrete_tb_labeling_witness

from conftest import random_nondegenerate_tree, random_tree
from test_finite_space import prufer_representable


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(
            f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}",
            flush=True,
        )


def _finish(capsys, num, t0, budget, violations, detail):
    elapsed = time.monotonic() - t0
    if elapsed >= budget:
        violations.append(f"took {elapsed:.1f}s, budget {budget}s")
    ok = not violations
    _report(capsys, num, ok, f"{detail}; {elapsed:.2f}s of {budget}s")
    assert ok, "; ".join(violations[:5])


def _adjacency(tree):
    adj = {v: [] for v in tree.vertices}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def test_criterion_01_star_and_path_generate_the_same_space(capsys):
    t0 = time.monotonic()
    violations = []
    star, path = star_vs_path()
    ms, mp = distance_matrix(star), distance_matrix(path)
    if ms.points != mp.points or ms.dist != mp.dist:
        violations.append("matrices differ")
    off = [
        ms.dist[i][j]
        for i in range(len(ms.points))
        for j in range(len(ms.points))
        if i != j
    ]
    if any(e != F(1) for e in off):
        violations.append("off-diagonal entry differs from 1")
    if is_isomorphic_labeled(star, path) is not None:
        violations.append("star and path reported isomorphic")
    _finish(
        capsys, 1, t0, 1.0, violations,
        "star and path matrices equal, all 20 off-diagonal entries 1, "
        "trees non-isomorphic",
    )


def test_criterion_02_four_point_space_is_not_representable(capsys):
    t0 = time.monotonic()
    violations = []
    sp = four_point_space()
    ok, ball = conjecture_predicate(sp)
    if ok or ball is None:
        violations.append("predicate did not fail")
    elif sorted(ball.members) != ["x1", "x2", "x3", "x4"]:
        violations.append(f"unexpected failing ball {ball.members}")
    if representable(sp) is not None:
        violations.append("claimed representable")
    _finish(
        capsys, 2, t0, 10.0, violations,
        "predicate false (failing ball = whole space), not representable "
        "(its dendrogram root has no leaf child)",
    )


def test_criterion_03_built_in_classifications(capsys):
    t0 = time.monotonic()
    violations = []
    v10 = classify(fig10())
    if v10.totally_bounded is not True:
        violations.append("fig10 not totally bounded")
    if v10.complete is not False:
        violations.append("fig10 reported complete")
    if v10.complete_witness is None or not v10.complete_witness.address.startswith(
        "base/ray"
    ):
        violations.append("fig10 completeness witness is not the base ray")
    v1 = classify(fig1())
    for name in ("compact", "complete", "totally_bounded"):
        if getattr(v1, name) is not True:
            violations.append(f"fig1 not {name}")
    _finish(
        capsys, 3, t0, 1.0, violations,
        "fig10 totally bounded but incomplete (base-ray witness); "
        "fig1 compact, hence complete and totally bounded",
    )


def test_criterion_04_strong_triangle_and_nondegeneracy_equivalence(capsys):
    t0 = time.monotonic()
    violations = []
    rng = random.Random(73)
    trees = degenerate = 0
    for _ in range(1000):
        tree = random_tree(rng, rng.randint(2, 40))
        trees += 1
        sp = distance_matrix(tree)
        n = len(sp.points)
        # labels lie in {0, 1/3, 1/2, 1, 2}; scaling by 6 maps every
        # distance to an int exactly, keeping all comparisons exact
        d = [[int(e * 6) for e in row] for row in sp.dist]
        for i in range(n):
            if any(F(e, 6) != sp.dist[i][j] for j, e in enumerate(d[i])):
                violations.append("non-exact scaling")
        for i in range(n):
            di = d[i]
            for j in range(i + 1, n):
                dj = d[j]
                a = di[j]
                for k in range(j + 1, n):
                    b, c = di[k], dj[k]
                    hi = b if b > c else c
                    if a > hi or (a < hi and b != c):
                        violations.append(
                            f"triple violation at n={n} ({i},{j},{k})"
                        )
        nondeg, _bad = is_non_degenerate(tree)
        positive = all(
            d[i][j] > 0 for i in range(n) for j in range(i + 1, n)
        )
        if nondeg != positive:
            violations.append("ultrametric/non-degenerate mismatch")
        if not nondeg:
            degenerate += 1
        if violations:
            break
    if not 0 < degenerate < trees:
        violations.append("sample missed one side of the equivalence")
    _finish(
        capsys, 4, t0, 60.0, violations,
        f"{trees} random trees (n <= 40): strong triangle holds on every "
        f"triple; ultrametric iff non-degenerate "
        f"({degenerate} degenerate cases)",
    )


def test_criterion_05_path_max_index_matches_naive_walks(capsys):
    t0 = time.monotonic()
    violations = []
    rng = random.Random(74)
    queries = 0
    for _ in range(100):
        tree = random_tree(rng, rng.randint(2, 200))
        index = build_index(tree)
        for _ in range(100):
            u = rng.choice(tree.vertices)
            v = rng.choice(tree.vertices)
            queries += 1
            if query(index, u, v) != dl_naive(tree, u, v):
                violations.append(f"mismatch at ({u}, {v})")
                break
        if violations:
            break
    _finish(
        capsys, 5, t0, 60.0, violations,
        f"100 random trees (n <= 200), {queries} indexed queries equal "
        "the naive path walk",
    )


def test_criterion_06_hull_matches_subtree_intersection(capsys):
    t0 = time.monotonic()
    violations = []
    rng = random.Random(75)
    cases = checked_roots = 0
    for _ in range(50):
        tree = random_tree(rng, rng.randint(2, 10))
        verts = list(tree.vertices)
        a = rng.sample(verts, rng.randint(1, len(verts)))
        cases += 1
        adj = _adjacency(tree)
        extra = [v for v in verts if v not in a]

        def connected(sub: set) -> bool:
            seen = {next(iter(sub))}
            queue = deque(seen)
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y in sub and y not in seen:
                        seen.add(y)
                        queue.append(y)
            return seen == sub

        inter = set(verts)
        for mask in range(1 << len(extra)):
            sub = set(a) | {v for i, v in enumerate(extra) if mask >> i & 1}
            if connected(sub):
                inter &= sub
        h = hull(tree, a)
        if set(h.subtree.vertices) != inter:
            violations.append(f"hull mismatch on A={sorted(a)}")
            break
        for v in verts:
            if v in inter:
                continue
            depth = {v: 0}
            queue = deque([v])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        queue.append(y)
            best = min(inter, key=lambda w: depth[w])
            rep = attachment_point(tree, sorted(inter), v)
            checked_roots += 1
            if rep.root != best or rep.tooth != v:
                violations.append(f"attachment mismatch at {v}")
            elif rep.path[0] != best or rep.path[-1] != v:
                violations.append(f"attachment path malformed at {v}")
            elif len(rep.path) != depth[best] + 1:
                violations.append(f"attachment path length wrong at {v}")
        if violations:
            break
    _finish(
        capsys, 6, t0, 60.0, violations,
        f"{cases} random (tree, subset) pairs: union-of-paths hull equals "
        f"the intersection of all connected supersets; {checked_roots} "
        "attachment roots match breadth-first argmin",
    )


def test_criterion_07_representability_roundtrip(capsys):
    t0 = time.monotonic()
    violations = []
    rng = random.Random(76)
    pool = (F(0), F(1, 2), F(1))
    trees = 0
    for _ in range(200):
        tree = random_nondegenerate_tree(rng, rng.randint(2, 5), pool)
        trees += 1
        sp = distance_matrix(tree)
        witness = representable(sp)
        if witness is None:
            violations.append(f"roundtrip failed on {tree.labels}")
            break
        if distance_matrix(witness).dist != sp.dist:
            violations.append("witness regenerates a different matrix")
            break
    _finish(
        capsys, 7, t0, 300.0, violations,
        f"{trees} random non-degenerate trees (n <= 5, labels "
        "{0, 1/2, 1}): representable() returns a tree with the exact "
        "same matrix",
    )


def test_criterion_08_conjecture_scan_self_consistency(capsys):
    t0 = time.monotonic()
    violations = []
    values = (F(1), F(2))
    agree = disagree = records = 0
    four_point_class = canonical_hierarchy(four_point_space()).encode()
    seen_four_point = False
    for n in (1, 2, 3, 4):
        report = conjecture_scan(n, values)
        for rec in report.records:
            records += 1
            if not isinstance(rec.predicate, bool) or not isinstance(
                rec.representable, bool
            ):
                violations.append(f"missing column in {rec.space_id}")
            if rec.canonical_hierarchy == four_point_class:
                seen_four_point = True
                if rec.predicate or rec.representable:
                    violations.append(
                        "four-point class not flagged by both columns"
                    )
        agree += report.agree_count
        disagree += report.disagree_count
        # label pruning must not change the exhaustive search's verdict:
        # rerun it on every space over an unrestricted five-value grid and
        # compare yes/no, and with the dendrogram verdict
        for sp in enumerate_spaces(n, values):
            pruned = prufer_representable(sp) is not None
            full = prufer_representable(
                sp, label_pool=[F(0), F(1, 2), F(1), F(3, 2), F(2)]
            ) is not None
            if pruned != full:
                violations.append("label pruning changed a verdict")
            if (representable(sp) is not None) != full:
                violations.append("dendrogram and search verdicts differ")
    if not seen_four_point:
        violations.append("four-point class missing from the n=4 scan")
    _finish(
        capsys, 8, t0, 600.0, violations,
        f"scan over n <= 4, values {{1, 2}}: {records} spaces, both "
        "columns filled, four-point class fails both, pruned and "
        "unrestricted label grids of the search agree with the dendrogram "
        f"verdict; tally (reported, not "
        f"asserted): {agree} agree, {disagree} disagree",
    )


def test_criterion_09_witness_labelings(capsys):
    t0 = time.monotonic()
    violations = []
    w = compact_labeling_witness(fig1())
    if not (w.verdict.compact and classify(w.tree).compact):
        violations.append("compact relabeling does not classify compact")
    part = Finite(
        build_tree(["a", "b"], [("a", "b")], {"a": F(0), "b": F(1)})
    )
    lf = GlueFamily(
        Ray(Modulated(2, (Harmonic(F(1)), Const(F(0))))),
        "even",
        part,
        (("vertex", "a"),),
        Const(F(1)),
    )
    wd = discrete_tb_labeling_witness(lf)
    if not (wd.verdict.discrete_and_tb and classify(wd.tree).discrete_and_tb):
        violations.append(
            "discrete+totally-bounded relabeling does not re-classify"
        )
    with pytest.raises(PreconditionFailed) as exc:
        compact_labeling_witness(Ray(Harmonic(F(1))))
    if exc.value.clause != "rayless":
        violations.append(f"wrong precondition clause {exc.value.clause!r}")
    _finish(
        capsys, 9, t0, 1.0, violations,
        "compact relabeling re-classifies compact; locally finite family "
        "relabeling re-classifies discrete and totally bounded; ray input "
        "refused with the rayless precondition",
    )


def test_criterion_10_truncation_counts_converge_to_symbolic(capsys):
    t0 = time.monotonic()
    violations = []
    checked = 0
    for node in (fig10(), fig1()):
        for eps in (F(1), F(1, 2), F(1, 4), F(1, 8)):
            total = count_vertices_geq(node, eps)
            bound = exceedance_bound(node, eps)
            checked += 1
            prev = -1
            for budget in (1, 2, bound, bound + 3):
                tree, _ = truncate(node, budget)
                cnt = sum(1 for x in tree.labels.values() if x >= eps)
                if cnt < prev:
                    violations.append(f"count dropped at budget {budget}")
                prev = cnt
                if cnt > total:
                    violations.append("truncated count exceeds symbolic")
                if budget >= bound and cnt != total:
                    violations.append(
                        f"count {cnt} != {total} at eps {eps} "
                        f"past the certificate budget {bound}"
                    )
            if violations:
                break
        if violations:
            break
    _finish(
        capsys, 10, t0, 30.0, violations,
        f"{checked} (construction, radius) pairs: materialized counts "
        "grow monotonically and hit the symbolic count at the "
        "certificate budget",
    )
