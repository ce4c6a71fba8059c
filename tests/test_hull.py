from __future__ import annotations

import random

import pytest

from ultratree import errors
from ultratree.core_tree import build_tree, path, restrict
from ultratree.hull import attachment_point, attachment_points, hull

from conftest import random_tree

HULL_ORACLE_CAP = 12


def hull_minimality_check(tree, subset, cap: int = HULL_ORACLE_CAP) -> bool:
    """Exhaustive oracle: the hull equals the intersection of all subtrees
    containing the generating set.  Only for small trees."""
    n = len(tree)
    if n > cap:
        raise errors.SizeCapExceeded(n, cap, "hull oracle")
    a = sorted(set(subset))
    if not a:
        raise errors.EmptySet("generating set")
    aset = set(a)
    verts = tree.vertices
    common: set[str] | None = None
    for mask in range(1, 1 << n):
        chosen = {verts[i] for i in range(n) if mask >> i & 1}
        if not aset <= chosen:
            continue
        try:
            restrict(tree, chosen)
        except errors.NotConnectedSubset:
            continue
        common = chosen if common is None else (common & chosen)
    h = hull(tree, a)
    return common == set(h.subtree.vertices)


def comb():
    # spine s0-s1-s2-s3 with teeth t1 under s1 and t3 under s3
    vs = ["s0", "s1", "s2", "s3", "t1", "t3"]
    edges = [("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s1", "t1"), ("s3", "t3")]
    return build_tree(vs, edges, {v: 1 for v in vs})


def test_hull_of_pair_is_path():
    t = comb()
    h = hull(t, ["t1", "t3"])
    assert h.subtree.vertices == ("s1", "s2", "s3", "t1", "t3")
    assert h.generating == ("t1", "t3")


def test_hull_singleton():
    t = comb()
    h = hull(t, ["s2"])
    assert h.subtree.vertices == ("s2",)
    assert h.subtree.edges == ()


def test_hull_empty_set():
    with pytest.raises(errors.EmptySet):
        hull(comb(), [])


def test_attachment_point_comb():
    t = comb()
    rep = attachment_point(t, ["s0", "s1", "s2", "s3"], "t3")
    assert rep.root == "s3"
    assert rep.path == ("s3", "t3")
    rep2 = attachment_point(t, ["s0", "s1"], "t3")
    assert rep2.root == "s1"
    assert rep2.path == ("s1", "s2", "s3", "t3")


def test_attachment_point_rejects_member():
    with pytest.raises(errors.VertexInS):
        attachment_point(comb(), ["s0", "s1"], "s1")


def test_attachment_point_rejects_disconnected_subset():
    with pytest.raises(errors.NotConnectedSubset):
        attachment_point(comb(), ["s0", "s2"], "t3")


def brute_attachment(tree, subset, v):
    """Oracle: the unique s in S minimizing path length to v, and the first
    S-vertex on every path from v must coincide with it."""
    sset = set(subset)
    best = None
    for s in sorted(sset):
        p = path(tree, v, s)
        if best is None or len(p) < len(best[1]):
            best = (s, p)
    root, p = best
    assert all(x not in sset for x in p[:-1])
    return root, tuple(reversed(p))


def test_attachment_matches_brute_random():
    rng = random.Random(1213)
    done = 0
    while done < 60:
        t = random_tree(rng, rng.randrange(3, 11))
        k = rng.randrange(1, len(t) - 1)
        sub = set(rng.sample(list(t.vertices), k))
        outside = [v for v in t.vertices if v not in sub]
        try:
            from ultratree.core_tree import restrict

            restrict(t, sub)
        except errors.NotConnectedSubset:
            continue
        v = rng.choice(outside)
        rep = attachment_point(t, sub, v)
        root, p = brute_attachment(t, sub, v)
        assert rep.root == root
        assert rep.path == p
        assert rep.tooth == v
        done += 1


def test_hull_minimality_oracle_random():
    rng = random.Random(1415)
    for _ in range(50):
        t = random_tree(rng, rng.randrange(2, 10))
        k = rng.randrange(1, min(4, len(t)) + 1)
        a = rng.sample(list(t.vertices), k)
        assert hull_minimality_check(t, a)


def test_hull_contains_pairwise_paths_random():
    rng = random.Random(1617)
    for _ in range(40):
        t = random_tree(rng, rng.randrange(2, 14))
        k = rng.randrange(1, min(5, len(t)) + 1)
        a = rng.sample(list(t.vertices), k)
        h = set(hull(t, a).subtree.vertices)
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                if a[i] != a[j]:
                    assert set(path(t, a[i], a[j])) <= h


def test_attachment_points_match_attachment_point():
    """One walk outward from S gives every outside vertex the root that
    attachment_point finds for it alone."""
    rng = random.Random(2718)
    for n in (1, 2, 3, 8, 30, 120):
        tree = random_tree(rng, n)
        for _ in range(4):
            s = set(hull(tree, rng.sample(tree.vertices, rng.randint(1, min(n, 4)))).subtree.vertices)
            want = {
                v: attachment_point(tree, s, v).root
                for v in tree.vertices if v not in s
            }
            assert attachment_points(tree, s) == want


def test_attachment_points_refuse_what_attachment_point_refuses():
    t = comb()
    for subset, error in (([], errors.EmptySet), (["s0", "zz"], errors.UnknownVertex),
                          (["s0", "s2"], errors.NotConnectedSubset)):
        with pytest.raises(error) as want:
            attachment_point(t, subset, "t3")
        with pytest.raises(error) as got:
            attachment_points(t, subset)
        assert str(got.value) == str(want.value)
