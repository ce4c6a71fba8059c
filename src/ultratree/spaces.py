"""Finite ultrametric spaces with exact rational distances.

An :class:`UltraSpace` is a finite point set with a symmetric, zero-diagonal
matrix satisfying the strong triangle inequality d(x,z) <= max(d(x,y), d(y,z)).
Off-diagonal zeros are allowed (the space is then only a pseudoultrametric;
``proper`` is False).

Every proper finite ultrametric space is equivalently a dendrogram: a rooted
tree whose internal nodes carry strictly decreasing positive values root-to-
leaf and whose leaves are the points; the distance of two points is the value
at their join.  ``canonical_hierarchy`` computes that tree in a canonical
form in O(n^2), which decides isometry and representability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    AsymmetricEntry,
    DuplicateVertex,
    EmptySet,
    NegativeDistance,
    NonzeroDiagonal,
    StrongTriangleViolation,
    UnknownVertex,
)
from .ratio import format_rational, parse_rational


@dataclass(frozen=True)
class UltraSpace:
    """Finite (pseudo)ultrametric space.  Built via :func:`validate_space`."""

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    proper: bool
    # (d(v, p), v, p) for every point v > 0 and its nearest earlier point p
    # (the lowest index among ties), as validate_space finds them; None
    # when the space was built some other way
    nearest: tuple[tuple[Fraction, int, int], ...] | None = field(
        default=None, compare=False, repr=False
    )

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def d(self, u: str, v: str) -> Fraction:
        try:
            return self.dist[self._index[u]][self._index[v]]
        except KeyError as exc:
            raise UnknownVertex(exc.args[0]) from None

    def __len__(self) -> int:
        return len(self.points)

    def attained(self) -> list[Fraction]:
        """Sorted positive distances attained in the space."""
        vals = {e for row in self.dist for e in row if e > 0}
        return sorted(vals)


def validate_space(points, matrix) -> UltraSpace:
    """Check matrix axioms and return the validated space.

    Entries go through :func:`~ultratree.ratio.parse_rational` (``Fraction``,
    ``int`` or ``"p/q"``; a float raises InvalidDeclaration).  Raises
    AsymmetricEntry / NonzeroDiagonal / NegativeDistance for the first bad
    entry in row-major order, DuplicateVertex or EmptySet for a bad point
    list.  The strong triangle inequality is checked in O(n^2); on failure
    StrongTriangleViolation names *a* violated triple (x, y, z), with
    d(x,y) > max(d(x,z), d(z,y)), not necessarily the lexicographically
    first one.
    """
    pts = tuple(points)
    if not pts:
        raise EmptySet("point set")
    seen = set()
    for p in pts:
        if p in seen:
            raise DuplicateVertex(p)
        seen.add(p)
    n = len(pts)
    rows = _exact_rows(matrix)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise AsymmetricEntry(pts[0], pts[-1])
    # screen each row whole; look for the first bad entry only in a bad row
    cols = tuple(zip(*rows))
    for i, row in enumerate(rows):
        if row[i] != 0:
            raise NonzeroDiagonal(pts[i], row[i])
        if row[i + 1 :] != cols[i][i + 1 :] or min(row[i:]) < 0:
            for j in range(i + 1, n):
                if row[j] != cols[i][j]:
                    raise AsymmetricEntry(pts[i], pts[j])
                if row[j] < 0:
                    raise NegativeDistance(pts[i], pts[j], row[j])
    # Strong triangle inequality, adding the points in index order.  Let p
    # be the earlier point nearest to v.  If points 0..v-1 are ultrametric,
    # points 0..v are iff d(v,u) == max(d(v,p), d(p,u)) for every u < v.
    # Only if: "<=" is the inequality itself, and d(v,p) <= d(v,u) and
    # d(p,u) <= max(d(p,v), d(v,u)) = d(v,u) give ">=".  If: any triple
    # through v reduces, via p, to one among 0..v-1.  A larger d(v,u) makes
    # (v, u, p) a violated triple; a smaller one means d(p,u) >
    # max(d(p,v), d(v,u)), so (p, u, v) is violated.
    nearest = []
    for v in range(1, n):
        before = rows[v][:v]
        dvp = min(before)
        p = before.index(dvp)
        # from a list, not an iterator: CPython grows a tuple of unknown
        # length by realloc, and freeing such tuples fills its free lists
        expect = tuple([max(dvp, e) for e in rows[p][:v]])
        if before != expect:
            u = next(u for u in range(v) if before[u] != expect[u])
            if before[u] > expect[u]:
                raise StrongTriangleViolation(pts[v], pts[u], pts[p])
            raise StrongTriangleViolation(pts[p], pts[u], pts[v])
        nearest.append((dvp, v, p))
    return UltraSpace(
        points=pts,
        dist=rows,
        proper=all(w for w, _, _ in nearest),
        nearest=tuple(nearest),
    )


def _exact_rows(matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix rows as Fractions; a string is parsed once per call, since a
    space repeats few distinct distances."""
    memo: dict[str, Fraction] = {}
    rows = []
    for row in matrix:
        out = []
        for e in row:
            if isinstance(e, str):
                if e not in memo:
                    memo[e] = parse_rational(e)
                e = memo[e]
            elif type(e) is not Fraction:
                e = parse_rational(e)
            out.append(e)
        rows.append(tuple(out))
    return tuple(rows)


# ---------------------------------------------------------------------------
# dendrograms


@dataclass(frozen=True)
class Hierarchy:
    """Dendrogram node: ``value`` is the diameter of its point set, children
    are sub-dendrograms; a leaf has value 0, no children and a point name."""

    value: Fraction
    children: tuple["Hierarchy", ...] = ()
    point: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.point is not None

    def size(self) -> int:
        return len(self.leaves())

    def leaves(self) -> list[str]:
        """Point names in child order (a pre-order walk)."""
        out: list[str] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node.point)
            else:
                stack.extend(reversed(node.children))
        return out

    @cached_property
    def shape(self):
        """Name-free canonical encoding; equal shapes <=> isometric spaces."""
        if self.is_leaf:
            return ()
        # fill uncached shapes below bottom-up, so no call recurses deeply
        below, stack = [], list(self.children)
        while stack:
            node = stack.pop()
            if "shape" not in node.__dict__ and not node.is_leaf:
                below.append(node)
                stack.extend(node.children)
        for node in reversed(below):
            node.shape
        return (self.value, tuple(sorted(c.shape for c in self.children)))

    def encode(self) -> str:
        """Compact canonical string, e.g. ``(2 (1 * *) (1 * *))``."""
        parts: list[str] = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif node.is_leaf:
                parts.append("*")
            else:
                parts.append(f"({format_rational(node.value)}")
                stack.append(")")
                for c in reversed(sorted(node.children, key=lambda c: c.shape)):
                    stack += (c, " ")
        return "".join(parts)


def canonical_hierarchy(space: UltraSpace) -> Hierarchy:
    """Dendrogram of the space, built bottom-up in O(n^2).

    Each point is joined to its nearest earlier point; ``validate_space``
    proves that the path maxima of this spanning tree are the distances,
    and keeps its edges in ``space.nearest``, so the rows are scanned for
    them here only when the space was built some other way.  Union-find
    then merges clusters over the n - 1 edges in weight order: the clusters
    joined at one weight are one node's children, sorted by (shape, lowest
    point index).
    """
    n = len(space.points)
    nodes = [Hierarchy(Fraction(0), point=p) for p in space.points]
    edges = space.nearest
    if edges is None:
        edges = []
        for v in range(1, n):
            before = space.dist[v][:v]
            w = min(before)
            edges.append((w, v, before.index(w)))
    edges = sorted(edges)
    parent = list(range(n))  # union-find over point indices

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # a cluster lives at its root, which is always its lowest point index
    for w, group in itertools.groupby(edges, key=lambda e: e[0]):
        joined: set[int] = set()
        for _, v, p in group:
            a, b = find(v), find(p)
            joined.update((a, b))
            parent[max(a, b)] = min(a, b)
        merged: dict[int, list[int]] = {}
        for r in joined:
            merged.setdefault(find(r), []).append(r)
        for root, kids in merged.items():
            kids.sort(key=lambda r: (nodes[r].shape, r))
            nodes[root] = Hierarchy(w, children=tuple(nodes[r] for r in kids))
    return nodes[0]


def isometric(x: UltraSpace, y: UltraSpace) -> dict[str, str] | None:
    """Distance-preserving bijection x -> y, or None.

    Both dendrograms list equal-shape children alike, so pairing their
    leaves in order preserves every distance.  Shapes are compared through
    their encodings: comparing two deep shape tuples recurses once per level.
    """
    if len(x) != len(y):
        return None
    hx = canonical_hierarchy(x)
    hy = canonical_hierarchy(y)
    if hx.encode() != hy.encode():
        return None
    return dict(zip(hx.leaves(), hy.leaves()))


def space_from_hierarchy(h: Hierarchy, prefix: str = "p") -> UltraSpace:
    """Materialize a dendrogram as a space with synthetic point names."""
    n = h.size()
    width = max(1, len(str(n - 1)))
    names = [f"{prefix}{i:0{width}d}" for i in range(n)]
    dist = [[Fraction(0)] * n for _ in range(n)]
    # leaves are numbered in order, so a node holds the points start..stop-1;
    # a child's points are at the node's value from its siblings' points
    stack = [(h, 0, n)]
    while stack:
        node, start, stop = stack.pop()
        lo = start
        for c in node.children:
            hi = lo + c.size()
            for a in range(lo, hi):
                dist[a][start:lo] = [node.value] * (lo - start)
                dist[a][hi:stop] = [node.value] * (stop - hi)
            stack.append((c, lo, hi))
            lo = hi
    return validate_space(names, dist)


# ---------------------------------------------------------------------------
# balls


@dataclass(frozen=True)
class Ball:
    """Open ball: members = {x : d(center, x) < radius}."""

    center: str
    radius: Fraction
    members: tuple[str, ...]


def balls(space: UltraSpace) -> list[Ball]:
    """All distinct open balls (one witness (center, radius) per member set).

    Membership changes only at attained distances, so radii range over the
    attained values plus one value above the maximum; that captures every
    distinct ball.
    """
    att = space.attained()
    radii = att + [att[-1] + 1] if att else [Fraction(1)]
    found: dict[tuple[str, ...], Ball] = {}
    for c in space.points:
        for r in radii:
            mem = tuple(sorted(p for p in space.points if space.d(c, p) < r))
            if mem and mem not in found:
                found[mem] = Ball(center=c, radius=r, members=mem)
    return sorted(found.values(), key=lambda b: (len(b.members), b.members))


def sphere(space: UltraSpace, center: str, radius: Fraction) -> tuple[str, ...]:
    """Points at distance exactly ``radius`` from ``center`` (sorted)."""
    return tuple(sorted(p for p in space.points if space.d(center, p) == radius))
