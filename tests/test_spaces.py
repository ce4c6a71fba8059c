"""``validate_space`` and ``canonical_hierarchy`` against their slow oracles.

The library checks the strong triangle inequality in O(n^2) by a
nearest-earlier-point pass; ``triple_loop_oracle`` below is the plain O(n^3)
check over every triple, kept here as the reference.  The library builds
dendrograms bottom-up by union-find over the nearest-earlier-point edges;
``recursive_hierarchy_oracle`` splits each cluster at its diameter, top down.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction as F

import pytest

from conftest import random_tree
from ultratree.builders import fig10
from ultratree.core_tree import build_tree, distance_matrix
from ultratree.errors import (
    AsymmetricEntry,
    DuplicateVertex,
    EmptySet,
    InvalidDeclaration,
    NegativeDistance,
    NonzeroDiagonal,
    StrongTriangleViolation,
)
from ultratree.finite_space import conjecture_scan, enumerate_spaces
from ultratree.ratio import format_rational, parse_rational
from ultratree.seqs import Ref
from ultratree.spaces import (
    Hierarchy,
    UltraSpace,
    canonical_hierarchy,
    isometric,
    space_from_hierarchy,
    validate_space,
)
from ultratree.symbolic import count_vertices_geq, exceedance_bound
from ultratree.treeio import space_from_json, space_to_json


def triple_loop_oracle(points, matrix) -> UltraSpace:
    """Reference check: every axiom entry by entry, every triple in order."""
    pts = tuple(points)
    if not pts:
        raise EmptySet("point set")
    seen = set()
    for p in pts:
        if p in seen:
            raise DuplicateVertex(p)
        seen.add(p)
    n = len(pts)
    rows = tuple(tuple(F(e) for e in row) for row in matrix)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise AsymmetricEntry(pts[0], pts[-1])
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonal(pts[i], rows[i][i])
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise AsymmetricEntry(pts[i], pts[j])
            if rows[i][j] < 0:
                raise NegativeDistance(pts[i], pts[j], rows[i][j])
    for i in range(n):
        for j in range(n):
            dij = rows[i][j]
            for k in range(n):
                if dij > max(rows[i][k], rows[k][j]):
                    raise StrongTriangleViolation(pts[i], pts[j], pts[k])
    proper = all(rows[i][j] > 0 for i in range(n) for j in range(i + 1, n))
    return UltraSpace(points=pts, dist=rows, proper=proper)


def recursive_hierarchy_oracle(space: UltraSpace) -> Hierarchy:
    """Reference dendrogram: split each cluster into its d < diameter classes."""

    def build(idx: list[int]) -> Hierarchy:
        if len(idx) == 1:
            return Hierarchy(F(0), point=space.points[idx[0]])
        diam = max(
            space.dist[i][j] for a, i in enumerate(idx) for j in idx[a + 1 :]
        )
        if diam == 0:
            # pseudoultrametric clump: keep a flat zero node
            kids = tuple(
                Hierarchy(F(0), point=space.points[i]) for i in idx
            )
            return Hierarchy(F(0), children=kids)
        # d(x,y) < diam is an equivalence relation inside this cluster
        classes: list[list[int]] = []
        for i in idx:
            for cls in classes:
                if space.dist[i][cls[0]] < diam:
                    cls.append(i)
                    break
            else:
                classes.append([i])
        kids = tuple(build(cls) for cls in classes)
        kids = tuple(sorted(kids, key=lambda h: h.shape))
        return Hierarchy(diam, children=kids)

    return build(list(range(len(space.points))))


def outcome(check, points, matrix):
    try:
        space = check(points, matrix)
    except Exception as exc:  # compared by type below
        return type(exc), exc
    return None, space


def assert_violated(matrix, points, triple):
    x, y, z = (points.index(p) for p in triple)
    assert matrix[x][y] > max(matrix[x][z], matrix[z][y]), triple


BAD_MATRICES = [
    ("asymmetric", [[0, 1], [2, 0]], AsymmetricEntry),
    ("short row", [[0, 1], [1]], AsymmetricEntry),
    ("nonzero diagonal", [[0, 1], [1, 1]], NonzeroDiagonal),
    ("negative", [[0, -1], [-1, 0]], NegativeDistance),
    ("negative before asymmetric", [[0, -1, 1], [-1, 0, 1], [1, 2, 0]], NegativeDistance),
    ("strong triangle", [[0, 1, 2], [1, 0, 1], [2, 1, 0]], StrongTriangleViolation),
    ("float entry", [[0, 0.5], [0.5, 0]], InvalidDeclaration),
    ("float after equal int", [[0, 1], [1.0, 0]], InvalidDeclaration),
    ("float after equal string", [["0", "1"], [1.0, "0"]], InvalidDeclaration),
    ("not a rational", [["0", "x"], ["x", "0"]], InvalidDeclaration),
]


@pytest.mark.parametrize(
    "matrix, error", [case[1:] for case in BAD_MATRICES], ids=[c[0] for c in BAD_MATRICES]
)
def test_each_bad_matrix_raises_its_named_error(matrix, error):
    points = [f"p{i}" for i in range(len(matrix))]
    with pytest.raises(error) as caught:
        validate_space(points, matrix)
    if error is InvalidDeclaration:
        return  # the oracle reads floats as Fractions
    kind, exc = outcome(triple_loop_oracle, points, matrix)
    assert kind is error
    if error is StrongTriangleViolation:
        # any violated triple may be named, not only the oracle's first
        assert_violated(matrix, points, caught.value.triple)
    else:
        assert str(exc) == str(caught.value)


def test_bad_point_lists_raise_named_errors():
    with pytest.raises(EmptySet):
        validate_space([], [])
    with pytest.raises(DuplicateVertex):
        validate_space(["a", "a"], [[0, 1], [1, 0]])


def test_library_entry_points_refuse_floats():
    with pytest.raises(InvalidDeclaration, match="floats are not accepted"):
        build_tree(["a"], [], {"a": 0.1})
    with pytest.raises(InvalidDeclaration, match="floats are not accepted"):
        validate_space(["a", "b"], [[0, 0.1], [0.1, 0]])


INEXACT = [(0.1, "floats are not accepted, got 0.1"),
           (True, "bools are not accepted, got True"),
           (False, "bools are not accepted, got False")]
ENTRY_POINTS = [
    ("parse_rational", lambda x: parse_rational(x)),
    ("build_tree label", lambda x: build_tree(["a", "b"], [("a", "b")], {"a": x, "b": 1})),
    ("validate_space entry", lambda x: validate_space(["a", "b"], [[0, x], [x, 0]])),
    ("enumerate_spaces value", lambda x: enumerate_spaces(2, [1, x])),
    ("conjecture_scan value", lambda x: conjecture_scan(2, [x])),
    ("count_vertices_geq eps", lambda x: count_vertices_geq(fig10(), x)),
    ("exceedance_bound eps", lambda x: exceedance_bound(fig10(), x)),
    ("Ref coeff", lambda x: Ref("site_label", x)),
]


@pytest.mark.parametrize("value, message", INEXACT, ids=["float", "true", "false"])
@pytest.mark.parametrize(
    "call", [c for _, c in ENTRY_POINTS], ids=[name for name, _ in ENTRY_POINTS]
)
def test_library_entry_points_refuse_floats_and_bools(call, value, message):
    with pytest.raises(InvalidDeclaration, match=f"^{message}$"):
        call(value)


def test_exact_eps_counts_differ_from_the_float_they_resemble():
    # Fraction(0.1) is slightly above 1/10, and would miss three vertices
    assert count_vertices_geq(fig10(), "1/10") == count_vertices_geq(fig10(), F(1, 10)) == 20
    assert count_vertices_geq(fig10(), F(0.1)) == 17


def test_mixed_entry_types_are_read_exactly():
    sp = validate_space(["a", "b", "c"], [
        ["0", 1, F(2)],
        [F(1), 0, " 2 "],
        ["2", "4/2", F(0)],
    ])
    assert sp.dist == ((0, 1, 2), (1, 0, 2), (2, 2, 0))
    assert all(type(e) is F for row in sp.dist for e in row)
    assert sp.proper


POOL = (F(0), F(1, 3), F(1, 2), F(1), F(2))


def random_matrix(rng: random.Random, n: int):
    """Path-max matrix of a random tree, the same with one entry changed,
    or a random symmetric matrix with zeros."""
    kind = rng.randrange(3)
    if kind < 2:
        rows = [list(r) for r in distance_matrix(random_tree(rng, n)).dist]
        if kind == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = rng.choice(POOL)
    else:
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(POOL)
    # the library also reads "p/q" strings and ints, as JSON and callers give
    form = rng.choice((lambda e: e, format_rational, lambda e: e if e.denominator > 1 else int(e)))
    return [[form(e) for e in row] for row in rows], rows


def test_fast_check_agrees_with_triple_loop_oracle():
    rng = random.Random(20211005)
    tally = {"accepted": 0, "rejected": 0, "pseudo": 0}
    for _ in range(5000):
        n = rng.randint(1, 7)
        points = [f"p{i}" for i in rng.sample(range(10), n)]
        given, exact = random_matrix(rng, n)
        kind, got = outcome(validate_space, points, given)
        want_kind, want = outcome(triple_loop_oracle, points, given)
        assert kind is want_kind, (given, got, want)
        if kind is None:
            tally["accepted"] += 1
            tally["pseudo"] += not got.proper
            assert got.proper == want.proper
            assert got.dist == want.dist and got.points == want.points
        else:
            tally["rejected"] += 1
            assert kind is StrongTriangleViolation, got
            assert_violated(exact, points, got.triple)
    # each branch is exercised substantially
    assert min(tally.values()) > 300, tally


def test_300_point_path_matrix_validates_within_budget(capsys):
    budget = 5.0
    rng = random.Random(300)
    names = [f"v{i:03d}" for i in range(300)]
    labels = {v: F(rng.randint(1, 60), 7) for v in names}
    tree = build_tree(names, list(zip(names, names[1:])), labels)
    doc = space_to_json(distance_matrix(tree))
    t0 = time.monotonic()
    space = space_from_json(doc)
    elapsed = time.monotonic() - t0
    ok = elapsed < budget and space.proper and space.dist == distance_matrix(tree).dist
    with capsys.disabled():
        print(
            f"validate_space n=300: {'PASS' if ok else 'FAIL'} — "
            f"path-tree matrix from JSON; {elapsed:.2f}s of {budget}s",
            flush=True,
        )
    assert ok, f"took {elapsed:.2f}s, budget {budget}s"


# ---------------------------------------------------------------------------
# dendrograms


def test_canonical_hierarchy_agrees_with_recursive_oracle():
    """Same encoding and the same leaf order, on random trees whose labels
    may be zero (so pseudoultrametric clumps occur) and on shuffled points."""
    rng = random.Random(19690301)
    pseudo = 0
    for trial in range(1200):
        tree = random_tree(rng, rng.randint(1, 14))
        space = distance_matrix(tree)
        if trial % 2:
            order = rng.sample(range(len(space)), len(space))
            space = validate_space(
                [space.points[i] for i in order],
                [[space.dist[i][j] for j in order] for i in order],
            )
        pseudo += not space.proper
        got, want = canonical_hierarchy(space), recursive_hierarchy_oracle(space)
        assert got.encode() == want.encode()
        assert got.leaves() == want.leaves()
        assert got.shape == want.shape and got.size() == len(space)
    assert pseudo > 100, pseudo


def test_validated_space_keeps_its_nearest_earlier_point_edges():
    """``validate_space`` keeps the edges ``canonical_hierarchy`` would
    otherwise find again; the field changes no comparison, hash or repr,
    and the dendrogram is the same with it and without it."""
    rng = random.Random(1301)
    for _ in range(300):
        built = distance_matrix(random_tree(rng, rng.randint(1, 12)))
        assert built.nearest is None
        space = validate_space(built.points, built.dist)
        scanned = []
        for v in range(1, len(space)):
            before = space.dist[v][:v]
            scanned.append((min(before), v, before.index(min(before))))
        assert space.nearest == tuple(scanned)
        assert space == built and hash(space) == hash(built)
        assert repr(space) == repr(built)
        got, want = canonical_hierarchy(space), canonical_hierarchy(built)
        assert got.encode() == want.encode() and got.leaves() == want.leaves()


def test_isometric_maps_leaves_in_order():
    rng = random.Random(4)
    for _ in range(200):
        space = distance_matrix(random_tree(rng, rng.randint(1, 9)))
        order = rng.sample(range(len(space)), len(space))
        names = [f"q{i}" for i in order]
        other = validate_space(names, [[space.dist[i][j] for j in order] for i in order])
        mapping = isometric(space, other)
        assert mapping is not None and sorted(mapping.values()) == sorted(names)
        for u in space.points:
            for v in space.points:
                assert space.d(u, v) == other.d(mapping[u], mapping[v])


def test_dendrogram_calls_leave_no_reference_cycles():
    """Nothing here needs the cyclic collector: the space and matrix a call
    holds are freed on return."""
    rng = random.Random(11)
    spaces = [distance_matrix(random_tree(rng, n)) for n in (1, 2, 5, 9, 14)]
    gc.collect()
    gc.disable()
    try:
        for space in spaces:
            h = canonical_hierarchy(space)
            isometric(space, space)
            space_from_hierarchy(h)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_space_from_hierarchy_roundtrips_the_dendrogram():
    rng = random.Random(5)
    for _ in range(200):
        space = distance_matrix(random_tree(rng, rng.randint(1, 10)))
        if not space.proper:
            continue
        h = canonical_hierarchy(space)
        back = space_from_hierarchy(h)
        assert back.points == tuple(f"p{i:0{len(str(len(space) - 1))}d}" for i in range(len(space)))
        assert canonical_hierarchy(back).encode() == h.encode()
        assert isometric(space, back) is not None


def test_deep_hand_built_dendrogram_walks_without_recursion():
    """3,000 levels, each child tuple listing the deep child first."""
    leaf = Hierarchy(F(0), point="x")
    h, code = leaf, "*"
    for k in range(1, 3000):
        h = Hierarchy(F(k), children=(h, leaf))
        code = f"({k} * {code})" if k > 1 else "(1 * *)"
    assert h.size() == 3000 and h.leaves() == ["x"] * 3000
    assert h.encode() == code
