from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultratree import errors
from ultratree.core_tree import build_tree, distance_matrix, dl_naive
from ultratree.pathmax import all_pairs, build_index, query

from conftest import random_tree


def test_single_vertex_and_edge():
    t1 = build_tree(["a"], [], {"a": 7})
    idx1 = build_index(t1)
    assert query(idx1, "a", "a") == 0
    t2 = build_tree(["a", "b"], [("a", "b")], {"a": "1/3", "b": 2})
    idx2 = build_index(t2)
    assert query(idx2, "a", "b") == 2
    assert query(idx2, "b", "a") == 2


def test_query_matches_naive_random():
    rng = random.Random(90125)
    for _ in range(40):
        n = rng.randrange(2, 60)
        t = random_tree(rng, n)
        idx = build_index(t)
        for _ in range(80):
            u = rng.choice(t.vertices)
            v = rng.choice(t.vertices)
            assert query(idx, u, v) == dl_naive(t, u, v)


def test_query_on_long_path():
    # depth stresses the jump tables
    n = 300
    vs = [f"n{i:03d}" for i in range(n)]
    labels = {v: Fraction(i % 7, 5) for i, v in enumerate(vs)}
    t = build_tree(vs, list(zip(vs, vs[1:])), labels)
    idx = build_index(t)
    rng = random.Random(8)
    for _ in range(200):
        u = rng.choice(vs)
        v = rng.choice(vs)
        assert query(idx, u, v) == dl_naive(t, u, v)


def test_endpoint_lower_bound_invariant():
    rng = random.Random(62)
    for _ in range(30):
        t = random_tree(rng, rng.randrange(2, 30))
        idx = build_index(t)
        for _ in range(40):
            u, v = rng.sample(list(t.vertices), 2)
            assert query(idx, u, v) >= max(t.labels[u], t.labels[v])


def test_monotone_under_label_raise():
    rng = random.Random(63)
    for _ in range(25):
        t = random_tree(rng, rng.randrange(2, 20))
        idx = build_index(t)
        w = rng.choice(t.vertices)
        raised = dict(t.labels)
        raised[w] = raised[w] + Fraction(3, 2)
        t2 = build_tree(t.vertices, t.edges, raised)
        idx2 = build_index(t2)
        for _ in range(30):
            u, v = rng.sample(list(t.vertices), 2)
            assert query(idx2, u, v) >= query(idx, u, v)


def test_all_pairs_matches_distance_matrix():
    rng = random.Random(64)
    for _ in range(15):
        t = random_tree(rng, rng.randrange(2, 25))
        assert all_pairs(build_index(t)).dist == distance_matrix(t).dist


def test_all_pairs_agrees_with_index_queries():
    rng = random.Random(66)
    for _ in range(15):
        t = random_tree(rng, rng.randrange(1, 25))
        idx = build_index(t)
        got = all_pairs(idx)
        for i, u in enumerate(t.vertices):
            for j, v in enumerate(t.vertices):
                assert got.dist[i][j] == query(idx, u, v)
        assert got.proper == all(
            got.dist[i][j] > 0 for i in range(len(t)) for j in range(i)
        )


def test_all_pairs_cap():
    rng = random.Random(65)
    t = random_tree(rng, 12)
    with pytest.raises(errors.SizeCapExceeded):
        all_pairs(build_index(t), cap=10)


def test_query_unknown_vertex():
    t = build_tree(["a", "b"], [("a", "b")], {"a": 1, "b": 1})
    idx = build_index(t)
    with pytest.raises(errors.UnknownVertex):
        query(idx, "a", "zz")
