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
:mod:`ultratree.pathmax`.  ``distance_matrix`` fills the whole matrix in
O(n^2) from the tree's single-linkage dendrogram, comparing labels only as
integer ranks; no path is walked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

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
    """Validate a labeled tree, then :func:`_freeze` it.

    Checks, in order: duplicate ids, self loops, unknown edge endpoints,
    missing, non-exact (float or bool; see
    :func:`~ultratree.ratio.parse_rational`) or negative labels, acyclicity
    (union-find; the first edge closing a cycle is named), connectivity
    (an unreachable vertex is named).
    A repeated edge is kept once.  Every tree that comes from outside the
    package (JSON, the CLI, library callers) passes through here.
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

    return _freeze(vs, norm_edges, lab)


def _freeze(vertices, edges, labels) -> LabeledTree:
    """The :class:`LabeledTree` that :func:`build_tree` returns for an input
    it accepts, without its checks: vertices sorted, each edge written
    (u, v) with u < v and the edges sorted, ``labels`` re-keyed in the order
    of ``vertices``.

    Only for producers whose output is a tree by construction, with
    distinct nonempty string ids, each edge listed once, and every label a
    nonnegative ``Fraction``: ``restrict`` (an induced connected subgraph
    of a tree), ``finite_space._witness`` (one edge per dendrogram child),
    ``symbolic.truncate`` (pieces joined at one vertex per gluing) and the
    relabeling in :mod:`ultratree.witness` (a valid tree's vertices and
    edges with new positive or zero labels).  The tests pass each
    producer's output through :func:`build_tree` and compare.
    """
    return LabeledTree(
        vertices=tuple(sorted(vertices)),
        edges=tuple(sorted((u, v) if u < v else (v, u) for u, v in edges)),
        labels={v: labels[v] for v in vertices},
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
    """All pairwise generated distances, filled block by block from the
    tree's single-linkage dendrogram (Gower & Ross 1969) in O(n^2).

    The vertices are activated in increasing label order, and each becomes
    the parent of the components of its already active neighbours.  In
    this Kruskal tree every subtree is a connected piece of the labeled
    tree whose labels are at most its root's, so ``d(u,v)`` is the label of
    the lowest common ancestor of u and v.  Numbered in post-order, each
    subtree is a contiguous range, and a vertex's row is its parent's row
    with the vertex's own range overwritten.  Labels are compared as
    integer ranks; every entry is one of the tree's distinct label
    objects, or a shared zero.

    The result's ``proper`` flag records whether the distance separates
    points: whether no edge has both endpoints labeled 0.
    """
    pts = tree.vertices
    n = len(pts)
    labels = tree.labels
    values = sorted(set(labels.values()))
    rank = {x: r for r, x in enumerate(values)}
    zero = values[0] if values[0] == 0 else Fraction(0)
    if n == 1:
        return UltraSpace(points=pts, dist=((zero,),), proper=True)
    index = {p: i for i, p in enumerate(pts)}
    ranks = [rank[labels[p]] for p in pts]
    value = [values[r] for r in ranks]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree.edges:
        i, j = index[u], index[v]
        nbrs[i].append(j)
        nbrs[j].append(i)
    order = sorted(range(n), key=ranks.__getitem__)
    active = [False] * n
    comp = list(range(n))  # union-find; a component's root is its last vertex
    kids: list[list[int]] = [[] for _ in range(n)]
    size = [1] * n
    for a in order:
        for b in nbrs[a]:
            if active[b]:
                while comp[b] != b:
                    comp[b] = comp[comp[b]]
                    b = comp[b]
                kids[a].append(b)
                comp[b] = a
                size[a] += size[b]
        active[a] = True
    # post-order: vertex a holds positions lo[a] .. pos[a], and pos[a] last;
    # a's row reads value[a] across that range until its children copy it
    lo = [0] * n
    pos = [0] * n
    rows: list = [None] * n
    top = order[-1]
    pos[top] = n - 1
    rows[top] = [value[top]] * n
    for a in reversed(order):  # parents before children
        start = lo[a]
        base = rows[a]
        for c in kids[a]:
            lo[c] = start
            start += size[c]
            pos[c] = start - 1
            row = base.copy()
            row[lo[c] : start] = [value[c]] * size[c]
            rows[c] = row
        base[pos[a]] = zero
    dist = tuple(map(itemgetter(*pos), rows))
    proper = all(labels[u] or labels[v] for u, v in tree.edges)
    return UltraSpace(points=pts, dist=dist, proper=proper)


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
    return _freeze(sorted(sub), sub_edges, tree.labels)


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
