"""Indexed path-maximum queries over a labeled tree.

Binary lifting: after an O(n log n) build, the maximum label on any u-v path
is answered in O(log n) by jumping both endpoints toward their lowest common
ancestor in power-of-two strides, folding in per-stride segment maxima.  The
build starts from the tree's own cached rooting
(:attr:`~ultratree.core_tree.LabeledTree.rooting`), shared as ``up[0]`` and
``depth``, so a tree is traversed once however many layers use it.
Matches :func:`ultratree.core_tree.dl_naive` exactly.  ``all_pairs`` does
not query the index: it is :func:`ultratree.core_tree.distance_matrix`
behind a size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core_tree import LabeledTree, distance_matrix
from .errors import SizeCapExceeded, UnknownVertex
from .spaces import UltraSpace

ALL_PAIRS_CAP = 2000


@dataclass(frozen=True)
class PathMaxIndex:
    tree: LabeledTree
    depth: dict[str, int]
    # up[k][v] = 2^k-th ancestor of v; seg[k][v] = max label over the
    # vertices v, parent(v), ..., up to but excluding up[k][v]
    up: list[dict[str, str]]
    seg: list[dict[str, Fraction]]
    root: str


def build_index(tree: LabeledTree) -> PathMaxIndex:
    """Build jump tables over the tree's cached rooting (at its
    lexicographically smallest vertex), whose parent map is ``up[0]``."""
    parent, depth = tree.rooting
    up = [parent]
    seg = [{v: tree.labels[v] for v in tree.vertices}]
    max_depth = max(depth.values(), default=0)
    k = 0
    while (1 << (k + 1)) <= max_depth:
        prev_up, prev_seg = up[k], seg[k]
        up.append({v: prev_up[prev_up[v]] for v in tree.vertices})
        seg.append(
            {v: max(prev_seg[v], prev_seg[prev_up[v]]) for v in tree.vertices}
        )
        k += 1
    return PathMaxIndex(tree=tree, depth=depth, up=up, seg=seg, root=tree.vertices[0])


def query(index: PathMaxIndex, u: str, v: str) -> Fraction:
    """Generated distance between u and v in O(log n)."""
    tree = index.tree
    if u not in tree.labels:
        raise UnknownVertex(u)
    if v not in tree.labels:
        raise UnknownVertex(v)
    if u == v:
        return Fraction(0)
    depth, up, seg = index.depth, index.up, index.seg
    acc = Fraction(0)
    if depth[u] < depth[v]:
        u, v = v, u
    # lift u to v's depth; seg[k][u] covers u itself, so after these jumps the
    # labels of every vertex strictly below the new u are folded in
    diff = depth[u] - depth[v]
    k = 0
    while diff:
        if diff & 1:
            acc = max(acc, seg[k][u])
            u = up[k][u]
        diff >>= 1
        k += 1
    if u == v:
        return max(acc, tree.labels[v])
    for k in range(len(up) - 1, -1, -1):
        if up[k][u] != up[k][v]:
            acc = max(acc, seg[k][u], seg[k][v])
            u = up[k][u]
            v = up[k][v]
    # u and v are now distinct children of the meeting vertex
    acc = max(acc, seg[0][u], seg[0][v], tree.labels[up[0][u]])
    return acc


def all_pairs(index: PathMaxIndex, cap: int = ALL_PAIRS_CAP) -> UltraSpace:
    """Full distance matrix of the index's tree; refuses trees above ``cap``.

    No per-pair queries: the matrix is
    :func:`~ultratree.core_tree.distance_matrix`, filled in O(n^2) from the
    tree's single-linkage dendrogram.
    """
    n = len(index.tree)
    if n > cap:
        raise SizeCapExceeded(n, cap, "all-pairs matrix")
    return distance_matrix(index.tree)
