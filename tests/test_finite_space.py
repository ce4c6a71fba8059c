"""Predicate, representability, enumeration and the scan.

``representable`` reads its verdict and witness off the dendrogram.
``prufer_representable`` below is the exhaustive search it replaced: every
labeled tree on the point set (Prüfer decoding) with labels assigned edge by
edge.  It is kept here as the oracle for small spaces.

``conjecture_predicate`` reads each ball off one sorted row per point.
``literal_predicate_oracle`` below is the search it replaced: every ball ×
center × radius, compared set by set with spheres.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import random_nondegenerate_tree, random_tree
from ultratree.builders import four_point_space, star_vs_path
from ultratree.cli import main
from ultratree.core_tree import (
    LabeledTree,
    build_tree,
    distance_matrix,
    is_non_degenerate,
)
from ultratree.errors import InvalidDeclaration, SizeCapExceeded
from ultratree.finite_space import (
    ENUMERATE_ENTRY_CAP,
    _count_classes,
    conjecture_predicate,
    conjecture_scan,
    enumerate_spaces,
    representable,
)
from ultratree.ratio import format_rational
from ultratree.spaces import (
    Ball,
    Hierarchy,
    UltraSpace,
    balls,
    canonical_hierarchy,
    isometric,
    space_from_hierarchy,
    sphere,
    validate_space,
)
from ultratree.treeio import space_to_json

F = Fraction


# ---------------------------------------------------------------------------
# the exhaustive search, kept as the oracle


def _prufer_trees(points: tuple[str, ...]):
    """Every labeled tree on ``points`` as an edge list, via Prüfer decode."""
    n = len(points)
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(points[0], points[1])]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for s in seq:
            degree[s] += 1
        edges = []
        avail = sorted(i for i in range(n) if degree[i] == 1)
        seq_list = list(seq)
        for s in seq_list:
            leaf = avail.pop(0)
            edges.append((points[leaf], points[s]))
            degree[s] -= 1
            if degree[s] == 1:
                # insert keeping avail sorted
                lo, hi = 0, len(avail)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if avail[mid] < s:
                        lo = mid + 1
                    else:
                        hi = mid
                avail.insert(lo, s)
        u, v = avail
        edges.append((points[u], points[v]))
        yield edges


def _label_search(
    space: UltraSpace,
    edges: list[tuple[str, str]],
    candidates: dict[str, list[Fraction]],
) -> dict[str, Fraction] | None:
    """Assign labels along a DFS order; adjacent pairs must satisfy
    max(l(u), l(v)) = d(u, v)."""
    adj: dict[str, list[str]] = {p: [] for p in space.points}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    root = space.points[0]
    order: list[tuple[str, str | None]] = []
    stack = [(root, None)]
    seen = {root}
    while stack:
        x, par = stack.pop()
        order.append((x, par))
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append((y, x))

    assignment: dict[str, Fraction] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v, par = order[i]
        if par is None:
            options = candidates[v]
        else:
            need = space.d(par, v)
            lp = assignment[par]
            if lp > need:
                return False
            if lp < need:
                options = [need] if need in candidates[v] else []
            else:
                options = [x for x in candidates[v] if x <= need]
        for x in options:
            assignment[v] = x
            if extend(i + 1):
                return True
            del assignment[v]
        return False

    return dict(assignment) if extend(0) else None


def prufer_representable(
    space: UltraSpace,
    label_pool: list[Fraction] | None = None,
) -> LabeledTree | None:
    """Exhaustive search for a labeled tree on exactly the point set whose
    generated distance matrix equals the space's matrix.

    Candidate labels default to {0} plus the attained distances, pruned per
    vertex by l(v) <= min over u of d(u, v) (the generated distance between
    u and v is at least l(v)).  ``label_pool`` overrides the default pool
    (used to validate that the pruning is lossless).
    """
    n = len(space)
    if n == 1:
        p = space.points[0]
        return build_tree([p], [], {p: Fraction(0)})

    pool = sorted(set(label_pool)) if label_pool is not None else sorted(
        {Fraction(0)} | set(space.attained())
    )
    candidates: dict[str, list[Fraction]] = {}
    for v in space.points:
        bound = min(space.d(u, v) for u in space.points if u != v)
        candidates[v] = [x for x in pool if x <= bound]

    for edges in _prufer_trees(space.points):
        labeling = _label_search(space, edges, candidates)
        if labeling is None:
            continue
        tree = build_tree(space.points, edges, labeling)
        ok, _ = is_non_degenerate(tree)
        if not ok:
            continue
        got = distance_matrix(tree)
        if got.dist == tuple(
            tuple(space.d(u, v) for v in got.points) for u in got.points
        ):
            return tree
    return None


def assert_witness(space, tree):
    """The witness is a non-degenerate tree on the points that regenerates
    the matrix entry for entry."""
    assert tree is not None
    assert sorted(tree.vertices) == sorted(space.points)
    assert is_non_degenerate(tree)[0]
    got = distance_matrix(tree)
    assert got.dist == tuple(
        tuple(space.d(u, v) for v in got.points) for u in got.points
    )


def uniform_space(n, value=F(1)):
    pts = [f"p{i}" for i in range(n)]
    matrix = [[F(0) if i == j else value for j in range(n)] for i in range(n)]
    return validate_space(pts, matrix)


def brute_isometry_classes(n, values):
    """Oracle: enumerate ALL symmetric matrices over ``values`` and keep the
    ultrametric ones, dedupilated by canonical dendrogram encoding."""
    pts = [f"q{i}" for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for combo in itertools.product(values, repeat=len(pairs)):
        matrix = [[F(0)] * n for _ in range(n)]
        for (i, j), val in zip(pairs, combo):
            matrix[i][j] = matrix[j][i] = val
        ok = all(
            matrix[i][j] <= max(matrix[i][k], matrix[k][j])
            for i in range(n) for j in range(n) for k in range(n)
        )
        if not ok:
            continue
        seen.add(canonical_hierarchy(validate_space(pts, matrix)).encode())
    return seen


# ---------------------------------------------------------------------------
# the sphere-plus-center predicate


def literal_predicate_oracle(space: UltraSpace) -> tuple[bool, Ball | None]:
    """The predicate by its definition: for each distinct open ball, try
    every center and every candidate radius (the attained distances plus one
    above the maximum, where the sphere is empty)."""
    att = space.attained()
    radii = att + [att[-1] + 1] if att else [Fraction(1)]
    for ball in balls(space):
        want = set(ball.members)
        if not any(
            set(sphere(space, c, r)) | {c} == want
            for c in ball.members
            for r in radii
        ):
            return False, ball
    return True, None


def pseudo_space(rng: random.Random, n: int) -> UltraSpace:
    """The path-max matrix of a random tree whose labels are often 0, so
    adjacent 0 labels give off-diagonal zeros."""
    return distance_matrix(random_tree(rng, n, pool=(F(0), F(0), F(1, 2), F(1), F(2))))


def shuffled_copy(space: UltraSpace, rng: random.Random) -> UltraSpace:
    """The space with its points reordered and renamed, so that neither
    point order nor distance order matches name order."""
    n = len(space)
    perm = rng.sample(range(n), n)
    names = rng.sample([f"x{i:02d}" for i in range(40)], n)
    return validate_space(
        names, [[space.dist[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    )


def test_predicate_matches_literal_oracle_on_every_small_class():
    """Every class on n <= 7 points with values within {1, 2, 3, 4}, as
    enumerated and with its points shuffled and renamed."""
    rng = random.Random(31)
    count = 0
    for n in range(1, 8):
        for sp in enumerate_spaces(n, [F(1), F(2), F(3), F(4)]):
            for case in (sp, shuffled_copy(sp, rng)):
                assert conjecture_predicate(case) == literal_predicate_oracle(case), case
            count += 1
    assert count == 844


def test_predicate_matches_literal_oracle_on_pseudo_spaces():
    """Off-diagonal zeros: a point at distance 0 from c is in every ball
    around c but on no sphere of positive radius, so every pseudo-space
    fails, on a ball that the oracle must pick as well."""
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    pseudo = 0
    for _ in range(400):
        sp = pseudo_space(rng, rng.randrange(2, 9))
        got = conjecture_predicate(sp)
        assert got == literal_predicate_oracle(sp), sp
        verdicts[got[0]] += 1
        if not sp.proper:
            pseudo += 1
            assert got[0] is False
    assert pseudo > 150 and verdicts[True] > 150, (pseudo, verdicts)


def test_predicate_300_point_path_within_budget(capsys):
    """An increasing-label path: row i holds 300 - i distinct distances, so
    the literal search tries about 300^3 spheres; the row sort does not."""
    budget = 10.0
    n = 300
    names = [f"v{i:03d}" for i in range(n)]
    labels = [F(i + 1, 3) for i in range(n)]
    space = UltraSpace(points=tuple(names), proper=True, dist=tuple(
        tuple(labels[max(i, j)] if i != j else F(0) for j in range(n)) for i in range(n)
    ))
    t0 = time.monotonic()
    ok, failing = conjecture_predicate(space)
    elapsed = time.monotonic() - t0
    # each ball {v_0..v_k} has v_k at one distance from all the others
    passed = elapsed < budget and ok and failing is None
    with capsys.disabled():
        print(
            f"conjecture_predicate n=300: {'PASS' if passed else 'FAIL'} — "
            f"increasing-label path; {elapsed:.2f}s of {budget}s",
            flush=True,
        )
    assert passed, f"took {elapsed:.2f}s, budget {budget}s"


def test_predicate_two_point():
    ok, failing = conjecture_predicate(uniform_space(2))
    assert ok and failing is None


def test_predicate_uniform_five():
    ok, failing = conjecture_predicate(uniform_space(5))
    assert ok and failing is None


def test_predicate_four_point_counterexample_shape():
    """Two tight pairs at mutual distance 2: the whole space is an open ball
    but removing any center leaves a set that is no sphere."""
    sp = four_point_space()
    ok, failing = conjecture_predicate(sp)
    assert not ok
    assert failing is not None
    assert set(failing.members) == set(sp.points)
    assert canonical_hierarchy(sp).encode() == "(2 (1 * *) (1 * *))"


def test_predicate_holds_on_generated_spaces():
    """Spaces generated by labeled trees always pass (they are representable
    by construction, and the scan shows predicate agrees with that)."""
    rng = random.Random(77)
    for _ in range(30):
        tree = random_nondegenerate_tree(rng, rng.randrange(2, 7))
        ok, failing = conjecture_predicate(distance_matrix(tree))
        assert ok, failing


# ---------------------------------------------------------------------------
# representability


def test_representable_singleton():
    sp = validate_space(["only"], [[0]])
    tree = representable(sp)
    assert tree is not None and tree.vertices == ("only",)


def test_representable_four_point_fails():
    assert representable(four_point_space()) is None


def test_representable_star_matrix():
    star, path = star_vs_path()
    ms, mp = distance_matrix(star), distance_matrix(path)
    assert ms.points == mp.points and ms.dist == mp.dist
    tree = representable(ms)
    assert tree is not None
    assert distance_matrix(tree).dist == ms.dist


def test_representable_cap_enforced():
    """No size cap remains: the check is O(n^2) on the dendrogram."""
    for n in (6, 50):
        space = uniform_space(n)
        assert_witness(space, representable(space))


def test_representable_roundtrip_random_trees():
    """Every generated matrix must be recognized as representable and the
    witness must generate the same matrix."""
    rng = random.Random(424)
    for _ in range(20):
        tree = random_nondegenerate_tree(rng, rng.randrange(1, 6))
        sp = distance_matrix(tree)
        witness = representable(sp)
        assert witness is not None
        assert distance_matrix(witness).dist == sp.dist


def test_representable_label_pool_pruning_lossless():
    """The oracle's default pool {0} + attained distances finds a witness
    whenever a finer grid does (labels outside the attained set never help)."""
    fine = [F(0), F(1, 2), F(1), F(3, 2), F(2)]
    for sp in enumerate_spaces(4, [F(1), F(2)]):
        default = prufer_representable(sp)
        widened = prufer_representable(sp, label_pool=fine)
        assert (default is None) == (widened is None)
    assert prufer_representable(four_point_space(), label_pool=fine) is None


# the spaces of n = 1..6 points over each of these value sets: 144 classes
SMALL_VALUE_SETS = ((F(1),), (F(1), F(2)), (F(1), F(2), F(3)))


def test_representable_agrees_with_search_and_predicate_on_small_spaces():
    tally = {True: 0, False: 0}
    for n in range(1, 7):
        for values in SMALL_VALUE_SETS:
            for sp in enumerate_spaces(n, list(values)):
                tree = representable(sp)
                verdict = tree is not None
                assert verdict == (prufer_representable(sp) is not None), sp
                assert verdict == conjecture_predicate(sp)[0], sp
                if verdict:
                    assert_witness(sp, tree)
                tally[verdict] += 1
    assert tally == {True: 102, False: 42}


def random_hierarchy(rng: random.Random, n: int, top: Fraction) -> Hierarchy:
    """A random dendrogram on n leaves with values below ``top``."""
    if n == 1:
        return Hierarchy(F(0), point="x")
    value = top * F(rng.randint(1, 3), 4)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    kids = [random_hierarchy(rng, k, value) for k in sizes]
    return Hierarchy(value, children=tuple(kids))


def test_representable_agrees_with_search_on_seven_points():
    """Seven points are past the enumeration cap.  The first space is the
    four-point space with three more points at distance 3: the search tries
    all 7^5 trees to refuse it."""
    leaf = Hierarchy(F(0), point="x")
    pair = Hierarchy(F(1), children=(leaf, leaf))
    h = Hierarchy(F(3), children=(Hierarchy(F(2), children=(pair, pair)), leaf, leaf, leaf))
    cases = [space_from_hierarchy(h)]
    assert canonical_hierarchy(cases[0]).encode() == "(3 * * * (2 (1 * *) (1 * *)))"
    rng = random.Random(7)
    cases += [space_from_hierarchy(random_hierarchy(rng, 7, F(4))) for _ in range(4)]
    cases += [distance_matrix(random_nondegenerate_tree(rng, 7)) for _ in range(4)]
    verdicts = []
    for sp in cases:
        tree = representable(sp)
        verdicts.append(tree is not None)
        assert verdicts[-1] == (prufer_representable(sp) is not None)
        assert verdicts[-1] == conjecture_predicate(sp)[0]
        if tree is not None:
            assert_witness(sp, tree)
    assert verdicts[0] is False and verdicts[-4:] == [True] * 4
    assert False in verdicts[1:5] and True in verdicts[1:5], verdicts


def test_representable_1200_point_path_within_budget(capsys):
    """An increasing-label path has a 1,199-level dendrogram."""
    budget = 10.0
    n = 1200
    names = [f"v{i:04d}" for i in range(n)]
    labels = [F(i + 1, 3) for i in range(n)]
    tree = build_tree(names, list(zip(names, names[1:])), dict(zip(names, labels)))
    # d(v_i, v_j) is the label of the later vertex, so the matrix is
    # ultrametric by construction
    space = UltraSpace(points=tuple(names), proper=True, dist=tuple(
        tuple(labels[max(i, j)] if i != j else F(0) for j in range(n)) for i in range(n)
    ))
    assert distance_matrix(tree).dist == space.dist
    # each level holds one new point and the path below it
    code = f"({format_rational(labels[1])} * *)"
    for k in range(2, n):
        code = f"({format_rational(labels[k])} * {code})"
    t0 = time.monotonic()
    h = canonical_hierarchy(space)
    witness = representable(space)
    elapsed = time.monotonic() - t0
    # the witness is the path with v1 moved to hang off v0, and v0 labeled
    # by its distance to v1: every path maximum is the later vertex's label
    ok = (
        elapsed < budget
        and h.leaves() == names[:1:-1] + names[:2]
        and h.encode() == code
        and witness is not None
        and witness.edges == ((names[0], names[1]), (names[0], names[2])) + tree.edges[2:]
        and witness.labels == {**tree.labels, names[0]: labels[1]}
        and isometric(space, space) == {v: v for v in names}
    )
    with capsys.disabled():
        print(
            f"canonical_hierarchy + representable n=1200: "
            f"{'PASS' if ok else 'FAIL'} — increasing-label path; "
            f"{elapsed:.2f}s of {budget}s",
            flush=True,
        )
    assert ok, f"took {elapsed:.2f}s, budget {budget}s"


# ---------------------------------------------------------------------------
# balls and spheres


def test_balls_nest_or_disjoint():
    rng = random.Random(99)
    for _ in range(12):
        tree = random_nondegenerate_tree(rng, rng.randrange(2, 7))
        sp = distance_matrix(tree)
        bs = [set(b.members) for b in balls(sp)]
        for x, y in itertools.combinations(bs, 2):
            assert x <= y or y <= x or not (x & y)
        for b in balls(sp):
            assert b.center in b.members


def test_sphere_is_distance_level_set():
    sp = four_point_space()
    assert sphere(sp, "x1", F(1)) == ("x2",)
    assert sphere(sp, "x1", F(2)) == ("x3", "x4")
    assert sphere(sp, "x1", F(3)) == ()


# ---------------------------------------------------------------------------
# enumeration up to isometry


def test_enumerate_counts_small():
    for n, expect in ((1, 1), (2, 2), (3, 3), (4, 5)):
        assert len(enumerate_spaces(n, [F(1), F(2)])) == expect


def test_enumerate_encodings_frozen():
    got = [canonical_hierarchy(s).encode() for s in enumerate_spaces(4, [F(1), F(2)])]
    assert got == [
        "(1 * * * *)",
        "(2 (1 * *) (1 * *))",
        "(2 * (1 * * *))",
        "(2 * * (1 * *))",
        "(2 * * * *)",
    ]


def test_enumerate_complete_against_matrix_enumeration():
    """Oracle: direct enumeration of all ultrametric matrices, deduplicated
    by canonical encoding, gives the same class sets."""
    for n in (2, 3, 4):
        via_module = {
            canonical_hierarchy(s).encode()
            for s in enumerate_spaces(n, [F(1), F(2)])
        }
        assert via_module == brute_isometry_classes(n, [F(1), F(2)])


def test_enumerate_returns_distinct_classes():
    spaces = enumerate_spaces(4, [F(1), F(2)])
    for a, b in itertools.combinations(spaces, 2):
        assert isometric(a, b) is None


def test_enumerate_caps():
    """One cap, on the matrix entries of all classes (classes x n^2),
    checked before anything is generated.  A single value gives one class
    at any n, so 1,000 points pass and 1,001 do not; ten points over four
    values (8,429 classes) pass and eleven (20,759) do not; forty points
    over two values pass the cap already on fewer points, so the error
    names a lower bound."""
    assert ENUMERATE_ENTRY_CAP == 1_000_000
    assert len(enumerate_spaces(40, [F(1)])) == 1
    assert len(enumerate_spaces(3, [F(1), F(2), F(3), F(4), F(5)])) == 15
    assert len(enumerate_spaces(10, [F(1), F(2), F(3)])) == 817
    assert _count_classes(1000, [F(1)]) == 1
    assert _count_classes(10, [F(1), F(2), F(3), F(4)]) == 8429
    with pytest.raises(SizeCapExceeded, match=(
        r"^space enumeration \(matrix entries\) size 1002001 exceeds cap 1000000$"
    )):
        enumerate_spaces(1001, [F(1)])
    with pytest.raises(SizeCapExceeded, match=(
        r"^space enumeration \(matrix entries\) size 2511839 exceeds cap 1000000$"
    )):
        enumerate_spaces(11, [F(1), F(2), F(3), F(4)])
    with pytest.raises(SizeCapExceeded, match=r"lower bound\) size \d+ exceeds cap 1000000$"):
        enumerate_spaces(40, [F(1), F(2)])
    with pytest.raises(InvalidDeclaration, match="n must be at least 1"):
        enumerate_spaces(0, [F(1)])


# ---------------------------------------------------------------------------
# the scan harness


def test_scan_small_sizes_agree():
    for n in (1, 2, 3):
        report = conjecture_scan(n, [F(1), F(2)])
        assert report.disagree_count == 0
        assert report.agree_count == len(report.records)
        assert all(r.predicate and r.representable for r in report.records)


def test_scan_four_point_classes():
    report = conjecture_scan(4, [F(1), F(2)])
    assert report.disagree_count == 0
    assert len(report.records) == 5
    verdicts = {r.canonical_hierarchy: (r.predicate, r.representable)
                for r in report.records}
    # the two-tight-pairs class fails the predicate AND is non-representable:
    # the conjecture direction "predicate <=> representable" survives
    assert verdicts["(2 (1 * *) (1 * *))"] == (False, False)
    assert all(v == (True, True) for k, v in verdicts.items()
               if k != "(2 (1 * *) (1 * *))")
    failing = [r for r in report.records if not r.predicate]
    assert len(failing) == 1
    assert failing[0].failing_ball is not None
    assert failing[0].witness_tree is None


def test_scan_workers_deterministic():
    seq = conjecture_scan(4, [F(1), F(2)])
    par = conjecture_scan(4, [F(1), F(2)])
    assert [r.space_id for r in seq.records] == [r.space_id for r in par.records]
    assert [r.canonical_hierarchy for r in seq.records] == [
        r.canonical_hierarchy for r in par.records
    ]
    assert seq.disagreements == par.disagreements


def test_scan_reuses_the_enumerator_dendrogram(monkeypatch):
    """The records equal those read off each materialized space's own
    dendrogram, while the scan never builds one."""
    spaces = enumerate_spaces(7, [F(1), F(2), F(3), F(4)])
    want = [
        (canonical_hierarchy(sp).encode(), conjecture_predicate(sp), representable(sp))
        for sp in spaces
    ]

    def refuse(space):
        raise AssertionError("conjecture_scan built a dendrogram")

    monkeypatch.setattr("ultratree.finite_space.canonical_hierarchy", refuse)
    report = conjecture_scan(7, [F(1), F(2), F(3), F(4)])
    assert len(report.records) == len(want) == 518
    for rec, (code, (pred, failing), tree) in zip(report.records, want):
        assert (rec.canonical_hierarchy, rec.predicate, rec.failing_ball) == (
            code, pred, failing
        )
        if tree is None:
            assert rec.witness_tree is None
        else:
            got = rec.witness_tree
            assert (got.vertices, got.edges, got.labels) == (
                tree.vertices, tree.edges, tree.labels
            )


def test_scan_eight_points_within_budget(capsys):
    """1,344 classes on eight points over four values, no disagreement."""
    budget = 10.0
    t0 = time.monotonic()
    report = conjecture_scan(8, [F(1), F(2), F(3), F(4)])
    elapsed = time.monotonic() - t0
    ok = (
        elapsed < budget
        and len(report.records) == 1344
        and report.disagree_count == 0
        and report.agree_count == 1344
    )
    with capsys.disabled():
        print(
            f"conjecture_scan n=8, values 1..4: {'PASS' if ok else 'FAIL'} — "
            f"{len(report.records)} classes, {report.disagree_count} disagree; "
            f"{elapsed:.2f}s of {budget}s",
            flush=True,
        )
    assert ok, f"took {elapsed:.2f}s, budget {budget}s"


def test_cli_conjecture_predicate_json_on_a_pseudo_space(tmp_path, monkeypatch, capsys):
    """The CLI row carries the oracle's failing ball: center, radius and
    members."""
    rng = random.Random(5)
    sp = next(s for s in (pseudo_space(rng, 7) for _ in range(100))
              if not s.proper and len(literal_predicate_oracle(s)[1].members) > 2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pseudo.json").write_text(json.dumps(space_to_json(sp)), encoding="utf-8")
    assert main(["conjecture-predicate", "--space", "pseudo.json", "--json"]) == 0
    _, ball = literal_predicate_oracle(sp)
    assert json.loads(capsys.readouterr().out) == {
        "predicate": False,
        "failing_ball": {
            "center": ball.center,
            "radius": format_rational(ball.radius),
            "members": list(ball.members),
        },
    }
