from __future__ import annotations

import random
import time
from collections import deque
from fractions import Fraction
from itertools import permutations

import pytest

from ultratree import errors
from ultratree.core_tree import (
    build_tree,
    distance_matrix,
    dl_naive,
    is_isomorphic_labeled,
    is_non_degenerate,
    path,
    restrict,
)
from ultratree.hull import attachment_point

from conftest import random_tree, random_nondegenerate_tree, vertex_names

BRUTE_FORCE_ISO_CAP = 8


def is_isomorphic_brute(t1, t2, cap: int = BRUTE_FORCE_ISO_CAP):
    """Exhaustive bijection search; oracle for small trees only."""
    if len(t1) > cap or len(t2) > cap:
        raise errors.SizeCapExceeded(max(len(t1), len(t2)), cap, "brute-force isomorphism")
    if len(t1) != len(t2):
        return None
    e1 = {frozenset(e) for e in t1.edges}
    for perm in permutations(t2.vertices):
        m = dict(zip(t1.vertices, perm))
        if any(t1.labels[v] != t2.labels[m[v]] for v in t1.vertices):
            continue
        if {frozenset((m[u], m[v])) for u, v in e1} == {
            frozenset(e) for e in t2.edges
        }:
            return m
    return None


def star5():
    vs = ["v0", "v1", "v2", "v3", "v4"]
    edges = [("v0", x) for x in vs[1:]]
    labels = {"v0": Fraction(1), "v1": 0, "v2": 0, "v3": 0, "v4": 0}
    return build_tree(vs, edges, labels)


def path5_all_one():
    vs = ["v0", "v1", "v2", "v3", "v4"]
    edges = list(zip(vs, vs[1:]))
    return build_tree(vs, edges, {v: Fraction(1) for v in vs})


def test_build_sorts_and_freezes():
    t = build_tree(["b", "a"], [("b", "a")], {"a": "1/2", "b": 3})
    assert t.vertices == ("a", "b")
    assert t.edges == (("a", "b"),)
    assert t.labels["a"] == Fraction(1, 2)


def test_build_rejects_duplicate_vertex():
    with pytest.raises(errors.DuplicateVertex):
        build_tree(["a", "a"], [], {"a": 1})


def test_build_rejects_self_loop():
    with pytest.raises(errors.SelfLoop):
        build_tree(["a", "b"], [("a", "a"), ("a", "b")], {"a": 1, "b": 1})


def test_build_rejects_unknown_endpoint():
    with pytest.raises(errors.UnknownVertex):
        build_tree(["a", "b"], [("a", "c")], {"a": 1, "b": 1})


def test_build_rejects_missing_and_negative_labels():
    with pytest.raises(errors.MissingLabel):
        build_tree(["a", "b"], [("a", "b")], {"a": 1})
    with pytest.raises(errors.NegativeLabel):
        build_tree(["a", "b"], [("a", "b")], {"a": 1, "b": -1})


def test_build_rejects_triangle():
    with pytest.raises(errors.HasCycle):
        build_tree(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("c", "a")],
            {"a": 1, "b": 1, "c": 1},
        )


def test_build_rejects_disconnected():
    with pytest.raises(errors.NotConnected):
        build_tree(["a", "b", "c"], [("a", "b")], {"a": 1, "b": 1, "c": 1})


def test_distance_includes_endpoints():
    # path a-b-c labeled 0, 5, 1/2: the middle label dominates
    t = build_tree(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c")],
        {"a": 0, "b": 5, "c": "1/2"},
    )
    assert dl_naive(t, "a", "c") == 5
    assert dl_naive(t, "a", "b") == 5
    # endpoint labels count too
    assert dl_naive(t, "b", "c") == 5
    assert dl_naive(t, "a", "a") == 0


def test_path_endpoints_and_errors():
    t = path5_all_one()
    assert path(t, "v0", "v3") == ("v0", "v1", "v2", "v3")
    with pytest.raises(errors.SameVertex):
        path(t, "v1", "v1")
    with pytest.raises(errors.UnknownVertex):
        path(t, "v1", "zz")


def test_star_and_path_have_identical_matrices():
    ms = distance_matrix(star5())
    mp = distance_matrix(path5_all_one())
    assert ms.points == mp.points
    assert ms.dist == mp.dist
    assert all(
        ms.dist[i][j] == 1
        for i in range(5)
        for j in range(5)
        if i != j
    )
    assert ms.proper and mp.proper


def test_star_path_not_isomorphic():
    assert is_isomorphic_labeled(star5(), path5_all_one()) is None
    assert is_isomorphic_brute(star5(), path5_all_one()) is None


def test_non_degenerate_detection():
    t = build_tree(["a", "b"], [("a", "b")], {"a": 0, "b": 0})
    ok, bad = is_non_degenerate(t)
    assert not ok and bad == [("a", "b")]
    ok2, bad2 = is_non_degenerate(star5())
    assert ok2 and bad2 == []


def test_degenerate_labeling_gives_pseudoultrametric():
    t = build_tree(["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": 0, "b": 0, "c": 1})
    m = distance_matrix(t)
    assert m.d("a", "b") == 0
    assert not m.proper


def test_strong_triangle_random_trees():
    rng = random.Random(4207)
    for _ in range(60):
        t = random_tree(rng, rng.randrange(2, 12))
        m = distance_matrix(t)
        pts = m.points
        for x in pts:
            for y in pts:
                for z in pts:
                    assert m.d(x, z) <= max(m.d(x, y), m.d(y, z))


def test_ultrametric_iff_non_degenerate_random():
    rng = random.Random(971)
    for _ in range(120):
        t = random_tree(rng, rng.randrange(2, 10))
        assert distance_matrix(t).proper == is_non_degenerate(t)[0]


def test_restrict_connected_and_not():
    t = path5_all_one()
    sub = restrict(t, ["v1", "v2", "v3"])
    assert sub.vertices == ("v1", "v2", "v3")
    assert sub.edges == (("v1", "v2"), ("v2", "v3"))
    with pytest.raises(errors.NotConnectedSubset):
        restrict(t, ["v0", "v2"])


def test_isomorphism_matches_brute_force_random():
    rng = random.Random(5150)
    agree_true = 0
    for _ in range(150):
        n = rng.randrange(2, 7)
        t1 = random_tree(rng, n)
        t2 = random_tree(rng, n)
        fast = is_isomorphic_labeled(t1, t2)
        brute = is_isomorphic_brute(t1, t2)
        assert (fast is None) == (brute is None)
        if fast is not None:
            agree_true += 1
            # returned mapping must be a label- and edge-preserving bijection
            assert sorted(fast.values()) == sorted(t2.vertices)
            assert all(t1.labels[v] == t2.labels[fast[v]] for v in t1.vertices)
            assert {frozenset((fast[u], fast[v])) for u, v in t1.edges} == {
                frozenset(e) for e in t2.edges
            }
    assert agree_true >= 3  # sanity: the sample hit some isomorphic pairs


def test_isomorphism_self_with_shuffled_names():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randrange(2, 9)
        t1 = random_tree(rng, n)
        names = list(t1.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        ren = dict(zip(names, shuffled))
        t2 = build_tree(
            shuffled,
            [(ren[u], ren[v]) for u, v in t1.edges],
            {ren[v]: t1.labels[v] for v in names},
        )
        m = is_isomorphic_labeled(t1, t2)
        assert m is not None
        assert all(t1.labels[v] == t2.labels[m[v]] for v in t1.vertices)


# ---------------------------------------------------------------------------
# path and restrict against whole-tree oracles


def bfs_path_oracle(tree, u, v):
    """The u-v path by a breadth-first search from u over the whole tree."""
    prev = {u: u}
    q = deque([u])
    while q:
        x = q.popleft()
        if x == v:
            break
        for y in tree.adjacency[x]:
            if y not in prev:
                prev[y] = x
                q.append(y)
    out = [v]
    while out[-1] != u:
        out.append(prev[out[-1]])
    out.reverse()
    return tuple(out)


def all_edges_restrict_oracle(tree, subset):
    """Induced subtree by scanning every edge of the tree; raises
    NotConnectedSubset naming the smallest vertex not reached from the
    smallest member."""
    sub = set(subset)
    sub_edges = [(u, v) for u, v in tree.edges if u in sub and v in sub]
    adj = {v: [] for v in sub}
    for u, v in sub_edges:
        adj[u].append(v)
        adj[v].append(u)
    start = min(sub)
    seen = {start}
    q = deque([start])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                q.append(y)
    if seen != sub:
        raise errors.NotConnectedSubset(min(sub - seen))
    return build_tree(sorted(sub), sub_edges, {v: tree.labels[v] for v in sub})


def chain_tree(rng, n):
    """Random tree of long chains: each vertex extends the previous one nine
    times in ten.  Names are shuffled so the root sits inside a chain."""
    names = vertex_names(n)
    rng.shuffle(names)
    edges = [
        (names[i - 1] if rng.random() < 0.9 else names[rng.randrange(i)], names[i])
        for i in range(1, n)
    ]
    labels = {v: rng.choice((Fraction(0), Fraction(1, 2), Fraction(3))) for v in names}
    return build_tree(names, edges, labels)


def test_path_matches_bfs_oracle_on_every_pair_of_small_trees():
    rng = random.Random(2718)
    pairs = 0
    for _ in range(60):
        t = random_tree(rng, rng.randrange(1, 13))
        for u in t.vertices:
            assert dl_naive(t, u, u) == 0
            for v in t.vertices:
                if u == v:
                    continue
                want = bfs_path_oracle(t, u, v)
                assert path(t, u, v) == want
                assert dl_naive(t, u, v) == max(t.labels[x] for x in want)
                pairs += 1
    assert pairs > 1000


def test_path_matches_bfs_oracle_on_2000_vertex_chain_tree():
    rng = random.Random(3141)
    t = chain_tree(rng, 2000)
    _, depth = t.rooting
    assert max(depth.values()) > 100  # the chains are long
    for _ in range(300):
        u, v = rng.sample(t.vertices, 2)
        want = bfs_path_oracle(t, u, v)
        assert path(t, u, v) == want
        assert dl_naive(t, u, v) == max(t.labels[x] for x in want)


def test_rooting_parents_and_depths():
    rng = random.Random(1618)
    for _ in range(40):
        t = random_tree(rng, rng.randrange(1, 30))
        parent, depth = t.rooting
        root = t.vertices[0]
        assert parent[root] == root and depth[root] == 0
        assert sorted(parent) == sorted(depth) == list(t.vertices)
        for v in t.vertices[1:]:
            assert len(bfs_path_oracle(t, root, v)) == depth[v] + 1
            assert bfs_path_oracle(t, root, v)[-2] == parent[v]
        assert t.rooting is t.rooting  # built once per tree


def test_restrict_matches_all_edges_scan_on_random_subsets():
    rng = random.Random(5772)
    connected = disconnected = 0
    for _ in range(300):
        t = random_tree(rng, rng.randrange(1, 16))
        if rng.random() < 0.5:
            sub = set(rng.sample(t.vertices, rng.randrange(1, len(t) + 1)))
        else:
            # grow a connected subset from a random vertex
            sub = {rng.choice(t.vertices)}
            for _ in range(rng.randrange(len(t))):
                frontier = sorted(
                    {y for x in sub for y in t.adjacency[x]} - sub
                )
                if not frontier:
                    break
                sub.add(rng.choice(frontier))
        outside = sorted(set(t.vertices) - sub)
        try:
            want = all_edges_restrict_oracle(t, sub)
        except errors.NotConnectedSubset as exc:
            with pytest.raises(errors.NotConnectedSubset) as got:
                restrict(t, sub)
            assert got.value.vertex == exc.vertex
            with pytest.raises(errors.NotConnectedSubset) as got:
                attachment_point(t, sub, outside[0])
            assert got.value.vertex == exc.vertex
            disconnected += 1
            continue
        got = restrict(t, sub)
        assert got.vertices == want.vertices
        assert got.edges == want.edges
        assert got.labels == want.labels
        if outside:
            walk = bfs_path_oracle(t, outside[0], min(sub))
            root = next(x for x in walk if x in sub)
            assert attachment_point(t, sub, outside[0]).root == root
        connected += 1
    assert connected > 100 and disconnected > 50


# ---------------------------------------------------------------------------
# distance_matrix against the per-source walk it replaced


def distance_matrix_dfs(tree):
    """Oracle: one DFS per source vertex, carrying the running path
    maximum; the rows of the generated distance in vertex order."""
    pts = tree.vertices
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for src in pts:
        i = index[src]
        stack = [(src, src)]
        running = {src: tree.labels[src]}
        while stack:
            x, par = stack.pop()
            for y in tree.adjacency[x]:
                if y == par:
                    continue
                running[y] = max(running[x], tree.labels[y])
                dist[i][index[y]] = running[y]
                stack.append((y, x))
    return tuple(tuple(r) for r in dist)


def shaped_tree(n, shape, labels):
    names = vertex_names(n)
    if shape == "path":
        edges = list(zip(names, names[1:]))
    else:  # a star centred at the middle vertex
        edges = [(names[n // 2], x) for x in names if x != names[n // 2]]
    return build_tree(names, edges, dict(zip(names, labels)))


def oracle_trees():
    rng = random.Random(1969)
    trees = [random_tree(rng, rng.randrange(1, 31)) for _ in range(150)]
    trees += [random_nondegenerate_tree(rng, rng.randrange(2, 31)) for _ in range(50)]
    # few distinct labels: long runs of ties
    trees += [
        random_tree(rng, rng.randrange(2, 31), pool=(Fraction(0), Fraction(7, 3)))
        for _ in range(30)
    ]
    for n in (1, 2, 3, 9, 24):
        increasing = [Fraction(i + 1, 3) for i in range(n)]
        for labels in (
            increasing,
            increasing[::-1],
            [Fraction(5)] * n,
            [Fraction(0)] * n,
            [Fraction(i % 3) for i in range(n)],
            [Fraction(2 * i - n) ** 2 for i in range(n)],  # a valley
        ):
            for shape in ("path", "star"):
                trees.append(shaped_tree(n, shape, labels))
    return trees


def test_distance_matrix_matches_dfs_and_path_walk_oracles():
    for t in oracle_trees():
        sp = distance_matrix(t)
        assert sp.points == t.vertices
        assert sp.dist == distance_matrix_dfs(t)
        for i, u in enumerate(t.vertices):
            for j, v in enumerate(t.vertices):
                assert sp.dist[i][j] == dl_naive(t, u, v)
        assert sp.proper == is_non_degenerate(t)[0]
        # one object per distinct value
        entries = [e for row in sp.dist for e in row]
        assert len({id(e) for e in entries}) == len(set(entries))


def test_distance_matrix_within_budget_on_deep_and_wide_trees(capsys):
    """An increasing path makes the single-linkage dendrogram as deep as
    the tree is long; a random recursive tree makes it bushy."""
    budget = 1.0
    n = 1200
    names = [f"v{i:04d}" for i in range(n)]
    labels = [Fraction(i + 1, 3) for i in range(n)]
    deep = build_tree(names, list(zip(names, names[1:])), dict(zip(names, labels)))
    wide = random_tree(random.Random(1000), 1000)
    times = []
    spaces = []
    for t in (deep, wide):
        t0 = time.monotonic()
        spaces.append(distance_matrix(t))
        times.append(time.monotonic() - t0)
    rng = random.Random(1001)
    samples = [rng.sample(range(len(wide)), 2) for _ in range(2000)]
    ok = (
        max(times) < budget
        # d(v_i, v_j) is the label of the later vertex
        and spaces[0].dist == tuple(
            (labels[i],) * i + (0,) + tuple(labels[i + 1 :]) for i in range(n)
        )
        and all(
            spaces[1].dist[i][j] == dl_naive(wide, wide.vertices[i], wide.vertices[j])
            for i, j in samples
        )
    )
    with capsys.disabled():
        print(
            f"distance_matrix: {'PASS' if ok else 'FAIL'} — 1,200-vertex "
            f"increasing path {times[0]:.2f}s, 1,000-vertex random tree "
            f"{times[1]:.2f}s, each of {budget}s",
            flush=True,
        )
    assert ok, f"took {times}, budget {budget}s each"
