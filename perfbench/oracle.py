"""Reference answers computed by the benchmark itself.

Nothing here imports ultratree: each check recomputes its answer from the
generated document with its own code, so a defect in a layer cannot hide in
the check that judges it.
"""

from __future__ import annotations

from fractions import Fraction

from gen import fmt


class RefTree:
    """A tree document rooted at its first vertex: labels, adjacency, parent
    and depth per vertex."""

    def __init__(self, doc: dict):
        self.labels = {v: Fraction(x) for v, x in doc["vertices"].items()}
        self.adj: dict[str, list[str]] = {v: [] for v in self.labels}
        self.edges = set()
        for u, v in doc["edges"]:
            self.adj[u].append(v)
            self.adj[v].append(u)
            self.edges.add(frozenset((u, v)))
        root = next(iter(self.labels))
        self.parent: dict[str, str | None] = {root: None}
        self.depth = {root: 0}
        order = [root]
        for x in order:
            for y in self.adj[x]:
                if y not in self.depth:
                    self.parent[y] = x
                    self.depth[y] = self.depth[x] + 1
                    order.append(y)

    def path(self, u: str, v: str) -> list[str]:
        """Vertices of the u-v path, u first, by climbing parent pointers."""
        up, down = [u], [v]
        parent, depth = self.parent, self.depth
        while depth[u] > depth[v]:
            u = parent[u]
            up.append(u)
        while depth[v] > depth[u]:
            v = parent[v]
            down.append(v)
        while u != v:
            u = parent[u]
            v = parent[v]
            up.append(u)
            down.append(v)
        down.pop()  # the meeting vertex is already the last of ``up``
        return up + down[::-1]

    def dist(self, u: str, v: str) -> Fraction:
        if u == v:
            return Fraction(0)
        return max(self.labels[x] for x in self.path(u, v))

    def matrix(self) -> dict[str, dict[str, Fraction]]:
        """All pairwise path-max distances: one search per source vertex,
        carrying the largest label seen since the source."""
        labels, adj = self.labels, self.adj
        out = {}
        for src in labels:
            row = {src: Fraction(0)}
            stack = [(src, labels[src])]
            while stack:
                x, top = stack.pop()
                for y in adj[x]:
                    if y not in row:
                        row[y] = max(top, labels[y])
                        stack.append((y, row[y]))
            out[src] = row
        return out

    def hull(self, members) -> set[str]:
        """Union of the paths from the first member to every other member."""
        members = list(members)
        out = {members[0]}
        for m in members[1:]:
            out.update(self.path(members[0], m))
        return out


def hull_problems(ref: RefTree, members, vertices, edges) -> list[str]:
    """A hull must contain its set, be connected, and hold only vertices
    lying on a path between members."""
    got = set(vertices)
    problems = []
    if not set(members) <= got:
        problems.append("hull misses a member")
    if len(edges) != len(got) - 1 or any(frozenset(e) not in ref.edges for e in edges):
        problems.append("hull edges are not a subtree of the input")
    adj: dict[str, list[str]] = {v: [] for v in got}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    start = next(iter(got))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if seen != got:
        problems.append("hull is not connected")
    if got != ref.hull(members):
        problems.append("hull differs from the union of member paths")
    return problems


def attachment_problems(ref: RefTree, hull: set[str], v: str, root: str) -> list[str]:
    if root not in hull:
        return ["attachment point lies outside the hull"]
    walk = ref.path(v, root)
    if any(x in hull for x in walk[:-1]):
        return ["attachment point is not the first hull vertex reached"]
    return []


def is_tree_isomorphism(a: RefTree, b: RefTree, mapping: dict[str, str]) -> bool:
    if sorted(mapping) != sorted(a.labels) or sorted(mapping.values()) != sorted(b.labels):
        return False
    if any(a.labels[v] != b.labels[mapping[v]] for v in mapping):
        return False
    return {frozenset(mapping[x] for x in e) for e in a.edges} == b.edges


def is_isometry(da: dict, db: dict, mapping: dict[str, str]) -> bool:
    if sorted(mapping) != sorted(da) or sorted(mapping.values()) != sorted(db):
        return False
    return all(da[x][y] == db[mapping[x]][mapping[y]] for x in da for y in da)


def parse_mapping(text: str) -> dict[str, str] | None:
    """The CLI ``iso`` answer: ``none`` or ``a->b c->d ...``."""
    text = text.strip()
    if text == "none":
        return None
    return dict(pair.split("->", 1) for pair in text.split())


def dendrogram_code(points, d) -> str:
    """Canonical dendrogram string of a proper ultrametric matrix, in the
    documented ``(value child child ...)`` form with ``*`` leaves and
    children ordered by their name-free shape."""

    def build(pts):
        if len(pts) == 1:
            return (), "*"
        diam = max(d[p][q] for p in pts for q in pts)
        classes: list[list[str]] = []
        for p in pts:
            for cls in classes:
                if d[p][cls[0]] < diam:
                    cls.append(p)
                    break
            else:
                classes.append([p])
        kids = sorted((build(c) for c in classes), key=lambda k: k[0])
        shape = (diam, tuple(k[0] for k in kids))
        return shape, "(" + fmt(diam) + " " + " ".join(k[1] for k in kids) + ")"

    return build(list(points))[1]
