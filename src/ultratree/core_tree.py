"""Finite vertex-labeled trees and the ultrametric they generate.

A labeled tree assigns each vertex a nonnegative rational.  The induced
distance of two distinct vertices is the maximum label along the unique path
between them, endpoints included; a vertex has distance 0 to itself.  That
distance always satisfies the strong triangle inequality, and it separates
points exactly when the labeling is non-degenerate: no edge may have both
endpoints labeled 0.

Each tree is rooted once, at ``vertices[0]``, in one O(n) pass
(:attr:`LabeledTree.rooting`); ``path`` then climbs parent pointers in
O(path length), and ``restrict`` reads the subset's edges off the adjacency
lists in O(sum of the members' degrees).  ``dl_naive`` walks the path per
query and is the reference oracle for the indexed variant in
:mod:`ultratree.pathmax`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DuplicateVertex,
    HasCycle,
    MissingLabel,
    NegativeLabel,
    NotConnected,
    NotConnectedSubset,
    SameVertex,
    SelfLoop,
    UnknownVertex,
)
from .ratio import parse_rational
from .spaces import UltraSpace


@dataclass(frozen=True)
class LabeledTree:
    """Immutable labeled tree.  Construct via :func:`build_tree`.

    ``vertices`` is sorted lexicographically and ``edges`` holds sorted pairs
    in sorted order, so equal trees have identical field values.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    labels: dict[str, Fraction]

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def rooting(self) -> tuple[dict[str, str], dict[str, int]]:
        """``(parent, depth)`` of every vertex, rooted at ``vertices[0]``,
        which is its own parent.  Built by one iterative pass; both dicts
        hold each vertex after its parent."""
        root = self.vertices[0]
        parent = {root: root}
        depth = {root: 0}
        adj = self.adjacency
        stack = [root]
        while stack:
            x = stack.pop()
            dy = depth[x] + 1
            for y in adj[x]:
                if y not in depth:
                    parent[y] = x
                    depth[y] = dy
                    stack.append(y)
        return parent, depth

    def label(self, v: str) -> Fraction:
        try:
            return self.labels[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def __len__(self) -> int:
        return len(self.vertices)


def build_tree(vertices, edges, labels) -> LabeledTree:
    """Validate and freeze a labeled tree.

    Checks, in order: duplicate ids, self loops, unknown edge endpoints,
    missing, non-exact (float; see :func:`~ultratree.ratio.parse_rational`)
    or negative labels, acyclicity (union-find; the first edge closing
    a cycle is named), connectivity (an unreachable vertex is named).
    """
    vs = list(vertices)
    seen: set[str] = set()
    for v in vs:
        if not isinstance(v, str) or not v:
            raise UnknownVertex(str(v))
        if v in seen:
            raise DuplicateVertex(v)
        seen.add(v)
    if not vs:
        from .errors import EmptySet

        raise EmptySet("vertex set")

    norm_edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()
    for e in edges:
        u, v = e
        if u == v:
            raise SelfLoop(u)
        for w in (u, v):
            if w not in seen:
                raise UnknownVertex(w)
        pair = (u, v) if u < v else (v, u)
        if pair in edge_seen:
            continue
        edge_seen.add(pair)
        norm_edges.append(pair)

    lab: dict[str, Fraction] = {}
    for v in vs:
        if v not in labels:
            raise MissingLabel(v)
        val = parse_rational(labels[v])
        if val < 0:
            raise NegativeLabel(v, val)
        lab[v] = val

    # union-find for cycle detection
    parent = {v: v for v in vs}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in norm_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise HasCycle((u, v))
        parent[ru] = rv

    root = find(vs[0])
    for v in vs:
        if find(v) != root:
            raise NotConnected(v)

    return LabeledTree(
        vertices=tuple(sorted(vs)),
        edges=tuple(sorted(norm_edges)),
        labels=lab,
    )


def path(tree: LabeledTree, u: str, v: str) -> tuple[str, ...]:
    """The unique u-v path as a vertex tuple (endpoints included).

    Climbs parent pointers from both ends to the meeting vertex, so it costs
    O(path length) after the tree's one O(n) rooting.
    """
    if u not in tree.labels:
        raise UnknownVertex(u)
    if v not in tree.labels:
        raise UnknownVertex(v)
    if u == v:
        raise SameVertex(u)
    parent, depth = tree.rooting
    up, down = [u], [v]
    while depth[u] > depth[v]:
        u = parent[u]
        up.append(u)
    while depth[v] > depth[u]:
        v = parent[v]
        down.append(v)
    while u != v:
        u = parent[u]
        up.append(u)
        v = parent[v]
        down.append(v)
    down.pop()  # the meeting vertex ends ``up`` already
    down.reverse()
    return tuple(up + down)


def dl_naive(tree: LabeledTree, u: str, v: str) -> Fraction:
    """Generated distance by direct path walk: max label on the u-v path."""
    if u not in tree.labels:
        raise UnknownVertex(u)
    if v not in tree.labels:
        raise UnknownVertex(v)
    if u == v:
        return Fraction(0)
    return max(tree.labels[x] for x in path(tree, u, v))


def is_non_degenerate(tree: LabeledTree) -> tuple[bool, list[tuple[str, str]]]:
    """A labeling is non-degenerate iff no edge has both endpoints at 0.

    Returns (verdict, list of violating edges).
    """
    bad = [
        (u, v)
        for u, v in tree.edges
        if tree.labels[u] == 0 and tree.labels[v] == 0
    ]
    return (not bad, bad)


def distance_matrix(tree: LabeledTree) -> UltraSpace:
    """All pairwise generated distances, via one DFS per source vertex.

    The result's ``proper`` flag records whether the distance separates
    points (equivalently, whether the labeling is non-degenerate).
    """
    pts = tree.vertices
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for src in pts:
        i = index[src]
        stack = [(src, src)]
        running: dict[str, Fraction] = {src: tree.labels[src]}
        while stack:
            x, par = stack.pop()
            for y in tree.adjacency[x]:
                if y == par:
                    continue
                running[y] = max(running[x], tree.labels[y])
                dist[i][index[y]] = running[y]
                stack.append((y, x))
    rows = tuple(tuple(r) for r in dist)
    proper = all(rows[i][j] > 0 for i in range(n) for j in range(i + 1, n))
    return UltraSpace(points=pts, dist=rows, proper=proper)


def restrict(tree: LabeledTree, subset) -> LabeledTree:
    """Induced subtree on ``subset``; raises NotConnectedSubset if the
    induced subgraph is disconnected.

    Reads the subset's edges off its members' adjacency lists, so it costs
    O(sum of their degrees), not O(|E|).
    """
    sub = set(subset)
    for v in sub:
        if v not in tree.labels:
            raise UnknownVertex(v)
    if not sub:
        from .errors import EmptySet

        raise EmptySet("vertex subset")
    _check_connected(tree, sub)
    adj = tree.adjacency
    sub_edges = [(u, v) for u in sub for v in adj[u] if u < v and v in sub]
    return build_tree(sorted(sub), sub_edges, {v: tree.labels[v] for v in sub})


def _check_connected(tree: LabeledTree, sub: set[str]) -> None:
    """Raise NotConnectedSubset, naming the smallest member not reached from
    the smallest one, unless the nonempty vertex set ``sub`` induces a
    connected subgraph.  Costs O(sum of the members' degrees)."""
    adj = tree.adjacency
    start = min(sub)
    seen = {start}
    q = deque([start])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y in sub and y not in seen:
                seen.add(y)
                q.append(y)
    if seen != sub:
        raise NotConnectedSubset(min(sub - seen))


# ---------------------------------------------------------------------------
# labeled isomorphism


def _centroids(tree: LabeledTree) -> list[str]:
    n = len(tree)
    parent, depth = tree.rooting
    size = {v: 1 for v in tree.vertices}
    heaviest = {v: 0 for v in tree.vertices}
    for x in reversed(depth):  # children before parents
        p = parent[x]
        if p != x:
            size[p] += size[x]
            heaviest[p] = max(heaviest[p], size[x])
    best: list[str] = []
    best_w = n + 1
    for v in tree.vertices:
        w = max(heaviest[v], n - size[v])
        if w < best_w:
            best_w = w
            best = [v]
        elif w == best_w:
            best.append(v)
    return sorted(best)


def _encode(tree: LabeledTree, root: str):
    """Label-augmented canonical encoding of the tree rooted at ``root``."""
    par: dict[str, str | None] = {root: None}
    order = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        for y in tree.adjacency[x]:
            if y != par[x]:
                par[y] = x
                order.append(y)
                stack.append(y)
    enc: dict[str, tuple] = {}
    for x in reversed(order):
        kids = [enc[y] for y in tree.adjacency[x] if par.get(y) == x]
        enc[x] = (tree.labels[x], tuple(sorted(kids)))
    return enc


def _align(t1: LabeledTree, r1: str, t2: LabeledTree, r2: str, enc1, enc2):
    """Pair vertices of two equal-encoding rooted trees."""
    mapping: dict[str, str] = {}
    stack = [(r1, None, r2, None)]
    while stack:
        a, pa, b, pb = stack.pop()
        mapping[a] = b
        kids_a = sorted(
            (y for y in t1.adjacency[a] if y != pa),
            key=lambda y: (enc1[y], y),
        )
        kids_b = sorted(
            (y for y in t2.adjacency[b] if y != pb),
            key=lambda y: (enc2[y], y),
        )
        for ya, yb in zip(kids_a, kids_b):
            stack.append((ya, a, yb, b))
    return mapping


def is_isomorphic_labeled(t1: LabeledTree, t2: LabeledTree) -> dict[str, str] | None:
    """Label-preserving tree isomorphism; returns a vertex bijection or None.

    Canonical test: encode both trees rooted at their centroids and compare.
    """
    if len(t1) != len(t2):
        return None
    if sorted(t1.labels.values()) != sorted(t2.labels.values()):
        return None
    c1 = _centroids(t1)
    c2 = _centroids(t2)
    if len(c1) != len(c2):
        return None
    for r1 in c1:
        enc1 = _encode(t1, r1)
        for r2 in c2:
            enc2 = _encode(t2, r2)
            if enc1[r1] == enc2[r2]:
                return _align(t1, r1, t2, r2, enc1, enc2)
    return None
