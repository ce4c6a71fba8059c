"""Symbolically presented (possibly infinite) labeled trees.

The constructor algebra:

- ``Finite(tree)``: an explicit finite labeled tree.
- ``Ray(labels)``: vertices 1, 2, 3, ... in a one-way infinite path; vertex n
  is labeled ``labels.term(n)``.
- ``Star(center_label, leaf_labels)``: one center of infinite degree with
  leaves 1, 2, 3, ...
- ``GlueFinite(base, attachments)``: finitely many trees glued onto the base,
  each sharing exactly one vertex (its ``shared`` address) with a base vertex
  (its ``site`` address); shared labels must match.
- ``GlueFamily(base, sites, template, shared, envelope)``: one template
  instance per member index m = 1, 2, ..., glued at the selected base sites
  (Ray sites: "all" | "even" | "odd"; Star sites: "leaves").  Inside the
  template, sequence parameters may be a :class:`~ultratree.seqs.Ref` to the
  member's site label or envelope value; refs bind to the innermost enclosing
  family.  ``envelope.term(m)`` must bound every label of member m, which is
  what makes vertex counting across infinitely many members decidable.
- ``ScaledLabels(inner, factor)``: every label of ``inner`` multiplied by a
  positive factor (possibly a ref inside templates).  Structure unchanged.

Vertices are addressed by constructor path: ``ray:3``, ``center``, ``leaf:2``,
``vertex:a``, prefixed with ``base`` / ``attach:i`` / ``member:m`` through
glue layers.  A glued shared vertex is canonically addressed through the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core_tree import LabeledTree, build_tree
from .errors import (
    GlueLabelMismatch,
    InvalidDeclaration,
    SizeCapExceeded,
    UnknownVertex,
)
from .ratio import format_rational
from .seqs import (
    INFINITE,
    Const,
    Custom,
    FiniteSupport,
    Geometric,
    Harmonic,
    LabelSeq,
    Modulated,
    PrimeRecip,
    Ref,
    as_val,
    field_names,
    holds_refs,
    nth_prime,
    resolve_val,
    val_is_concrete,
)

Address = tuple[tuple, ...]

TRUNCATE_SIZE_CAP = 200_000
SPOT_CHECK_MEMBERS = 16

ONE = Fraction(1)
BASE = ("base",)
CENTER = ("center",)


# ---------------------------------------------------------------------------
# addresses


def format_address(addr: Address) -> str:
    parts = []
    for step in addr:
        if step[0] in ("center", "base"):
            parts.append(step[0])
        else:
            parts.append(f"{step[0]}:{step[1]}")
    return "/".join(parts)


def parse_address(text: str) -> Address:
    steps: list[tuple] = []
    if not text:
        raise InvalidDeclaration("empty address")
    for seg in text.split("/"):
        if seg in ("center", "base"):
            steps.append((seg,))
        elif ":" in seg:
            kind, _, arg = seg.partition(":")
            if kind == "vertex":
                steps.append(("vertex", arg))
            elif kind in ("ray", "leaf", "attach", "member"):
                try:
                    steps.append((kind, int(arg)))
                except ValueError:
                    raise InvalidDeclaration(f"bad address segment {seg!r}") from None
            else:
                raise InvalidDeclaration(f"bad address segment {seg!r}")
        else:
            raise InvalidDeclaration(f"bad address segment {seg!r}")
    return tuple(steps)


# ---------------------------------------------------------------------------
# node types


class SymbolicTree:
    """Base class of the constructor algebra."""


@dataclass(frozen=True)
class Finite(SymbolicTree):
    tree: LabeledTree

    kind = "finite"


@dataclass(frozen=True)
class Ray(SymbolicTree):
    labels: LabelSeq

    kind = "ray"


@dataclass(frozen=True)
class Star(SymbolicTree):
    center_label: Fraction | Ref
    leaf_labels: LabelSeq

    kind = "star"

    def __post_init__(self):
        object.__setattr__(self, "center_label", as_val(self.center_label))
        if val_is_concrete(self.center_label) and self.center_label < 0:
            raise InvalidDeclaration(f"negative center label {self.center_label}")


@dataclass(frozen=True)
class Attachment:
    site: Address
    part: SymbolicTree
    shared: Address


@dataclass(frozen=True)
class GlueFinite(SymbolicTree):
    base: SymbolicTree
    attachments: tuple[Attachment, ...]

    kind = "glue_finite"

    def __post_init__(self):
        object.__setattr__(self, "attachments", tuple(self.attachments))


RAY_SELECTORS = ("all", "even", "odd")
STAR_SELECTORS = ("leaves",)


@dataclass(frozen=True)
class GlueFamily(SymbolicTree):
    base: SymbolicTree
    sites: str
    template: SymbolicTree
    shared: Address
    envelope: LabelSeq

    kind = "glue_family"

    def __post_init__(self):
        if isinstance(self.base, Ray):
            if self.sites not in RAY_SELECTORS:
                raise InvalidDeclaration(
                    f"site selector {self.sites!r} invalid for a ray base"
                )
        elif isinstance(self.base, Star):
            if self.sites not in STAR_SELECTORS:
                raise InvalidDeclaration(
                    f"site selector {self.sites!r} invalid for a star base"
                )
        else:
            raise InvalidDeclaration("glue_family base must be a ray or a star")


@dataclass(frozen=True)
class ScaledLabels(SymbolicTree):
    inner: SymbolicTree
    factor: Fraction | Ref

    kind = "scaled"

    def __post_init__(self):
        object.__setattr__(self, "factor", as_val(self.factor))
        if val_is_concrete(self.factor) and self.factor <= 0:
            raise InvalidDeclaration(
                f"scale factor must be positive, got {self.factor}"
            )


NODE_KINDS = {
    cls.kind: cls for cls in (Finite, Ray, Star, GlueFinite, GlueFamily, ScaledLabels)
}
PIECES = (Finite, Ray, Star)


def default_shared(node: SymbolicTree) -> Address:
    """Canonical shared vertex when a gluing does not name one: the first
    vertex of the base-most piece."""
    for prefix, piece in walk_constructors(node):
        if isinstance(piece, Finite):
            return prefix + (("vertex", piece.tree.vertices[0]),)
        if isinstance(piece, Ray):
            return prefix + (("ray", 1),)
        if isinstance(piece, Star):
            return prefix + (CENTER,)
    raise InvalidDeclaration(f"unknown constructor {type(node).__name__}")


# ---------------------------------------------------------------------------
# sites


_SITE_PROGRESSIONS = {"leaves": (1, 1), "all": (1, 1), "even": (2, 2), "odd": (1, 2)}


def _site_progression(fam: GlueFamily) -> tuple[str, LabelSeq, int, int]:
    """(step kind, base label sequence, start, step): member m is glued at
    base index start + (m - 1) * step."""
    start, step = _SITE_PROGRESSIONS[fam.sites]
    if isinstance(fam.base, Star):
        return "leaf", fam.base.leaf_labels, start, step
    return "ray", fam.base.labels, start, step


def site_base_step(fam: GlueFamily, m: int) -> tuple:
    """Base-local address step of member m's glue site."""
    if m < 1:
        raise InvalidDeclaration(f"member index {m} out of range")
    kind, _, start, stride = _site_progression(fam)
    return (kind, start + (m - 1) * stride)


def site_of_base_step(fam: GlueFamily, step: tuple) -> int | None:
    """Inverse of site_base_step: member index hosted at a base vertex."""
    kind, _, start, stride = _site_progression(fam)
    if step[0] != kind or step[1] < start or (step[1] - start) % stride:
        return None
    return (step[1] - start) // stride + 1


def site_label(fam: GlueFamily, m: int) -> Fraction:
    _, seq, _, _ = _site_progression(fam)
    return seq.term(site_base_step(fam, m)[1])


def member_bindings(fam: GlueFamily, m: int) -> dict[str, Fraction]:
    return {"site_label": site_label(fam, m), "envelope": fam.envelope.term(m)}


def substitute_node(node: SymbolicTree, bindings: dict[str, Fraction]) -> SymbolicTree:
    """Resolve refs bound by the *innermost* family: nested family templates
    are left untouched (their refs belong to the nested family)."""
    if isinstance(node, Finite):
        return node
    return type(node)(
        *(_substitute_field(n, getattr(node, n), bindings) for n in field_names(type(node)))
    )


def _substitute_field(name: str, value, bindings: dict[str, Fraction]):
    if name in ("sites", "site", "shared", "template"):
        return value  # selectors, addresses and a nested family's own template
    if isinstance(value, (SymbolicTree, Attachment)):
        return substitute_node(value, bindings)
    if name == "attachments":
        return tuple(substitute_node(a, bindings) for a in value)
    return resolve_val(value, bindings)


def instantiate(fam: GlueFamily, m: int) -> SymbolicTree:
    """Concrete member m of the family."""
    return substitute_node(fam.template, member_bindings(fam, m))


def member_window(fam: GlueFamily) -> list[int]:
    """Member indices 1..W whose concrete checks decide every member.

    Any per-member verdict computed by this package (degeneracy, vanishing,
    limsup positivity, accumulation, positivity of the center label) depends
    on m only through which ref source values are zero, because substituted
    parameters have the form coeff * source(m).  Zeroness of site labels and
    envelope values is eventually periodic in m with a certificate derived
    from the underlying sequences, so checking one window beyond the combined
    threshold covers all members exactly.
    """
    n0s, qs = _site_progression(fam)[1].zero_profile()
    n0e, qe = fam.envelope.zero_profile()
    # site m maps to base index m, 2m or 2m-1, all >= m, and the map is
    # periodic mod qs; +1 covers the neighbor indices site(m) +- 1 as well
    threshold = max(n0s + 1, n0e, 4)
    period = lcm(qs, qe)
    return list(range(1, threshold + 2 * period + 1))


# ---------------------------------------------------------------------------
# traversal: the one place that knows how constructors compose
#
# Every vertex lives in a *piece* (a Finite, Ray or Star) under a one-step
# piece-local address (``vertex:a``, ``ray:n``, ``center``, ``leaf:k``),
# prefixed by the ``base`` / ``attach:i`` / ``member:m`` steps leading to the
# piece.  A gluing merges a base site with the shared vertex of a part, so one
# vertex of the glued tree has a copy in each piece the gluings join, and
# ScaledLabels multiplies the labels of every piece below it.  ``member``
# supplies family member m: ``instantiate`` for questions about labels,
# ``member_shape`` for purely structural ones.


def member_shape(fam: GlueFamily, m: int) -> SymbolicTree:
    """Member m's structure: the template itself, refs left unresolved."""
    return fam.template


def _times(scale, factor):
    """scale * factor, or None once an unresolved ref factor is met."""
    if scale is None or not val_is_concrete(factor):
        return None
    return scale * factor


def _child(node: SymbolicTree, step: tuple, member):
    """The sub-structure a gluing holds under one address step, else None."""
    if step == BASE:
        return node.base
    if isinstance(node, GlueFinite) and step[0] == "attach":
        if 0 <= step[1] < len(node.attachments):
            return node.attachments[step[1]].part
    elif isinstance(node, GlueFamily) and step[0] == "member" and step[1] >= 1:
        return member(node, step[1])
    return None


def _is_local_vertex(piece, local: Address) -> bool:
    if len(local) != 1:
        return False
    step = local[0]
    if isinstance(piece, Finite):
        return step[0] == "vertex" and step[1] in piece.tree.labels
    if isinstance(piece, Ray):
        return step[0] == "ray" and step[1] >= 1
    return step == CENTER or (step[0] == "leaf" and step[1] >= 1)


def _glue_point(node: SymbolicTree, step: tuple) -> tuple[Address, Address]:
    """(shared address in the part, site address in the base) of the part
    under ``step``."""
    if isinstance(node, GlueFinite):
        att = node.attachments[step[1]]
        return att.shared, att.site
    return node.shared, (site_base_step(node, step[1]),)


def _glued_at(node: SymbolicTree, sites) -> list[tuple[tuple, Address]]:
    """(step, shared address) of every part glued onto one of the base
    addresses in ``sites``."""
    if isinstance(node, GlueFinite):
        return [
            (("attach", i), a.shared)
            for i, a in enumerate(node.attachments)
            if a.site in sites
        ]
    found = (site_of_base_step(node, s[0]) for s in sites if len(s) == 1)
    return [(("member", m), node.shared) for m in found if m is not None]


def pieces(node: SymbolicTree, member=instantiate, prefix: Address = (), scale=ONE):
    """Yield (prefix, piece, scale) for every Finite, Ray and Star in address
    order, and (prefix, family, scale) for each GlueFamily between its base
    and its ``member_window`` members.  ``scale`` multiplies the piece's
    labels (None below an unresolved ref factor).  ``member=None`` stops at
    each family without entering its members."""
    while isinstance(node, ScaledLabels):
        scale, node = _times(scale, node.factor), node.inner
    if isinstance(node, PIECES):
        yield prefix, node, scale
        return
    yield from pieces(node.base, member, prefix + (BASE,), scale)
    if isinstance(node, GlueFinite):
        for i, a in enumerate(node.attachments):
            yield from pieces(a.part, member, prefix + (("attach", i),), scale)
        return
    yield prefix, node, scale
    if member is not None:
        for m in member_window(node):
            yield from pieces(member(node, m), member, prefix + (("member", m),), scale)


def _locate(node: SymbolicTree, addr: Address, member=instantiate):
    """(piece, piece-local address, scale) of the copy ``addr`` names,
    without following gluings."""
    rest, scale = addr, ONE
    while not isinstance(node, PIECES):
        if isinstance(node, ScaledLabels):
            scale, node = _times(scale, node.factor), node.inner
            continue
        child = _child(node, rest[0], member) if rest else None
        if child is None:
            raise UnknownVertex(format_address(addr))
        node, rest = child, rest[1:]
    if not _is_local_vertex(node, rest):
        raise UnknownVertex(format_address(addr))
    return node, rest, scale


def copies(node: SymbolicTree, addr: Address, member=instantiate) -> list:
    """Every piece-local copy (prefix, piece, local address, scale) of the
    merged vertex at ``addr``: its own piece first, then the pieces glued to
    it, innermost gluing first.  Raises UnknownVertex when ``addr``, or a glue
    address met on the way, does not resolve."""
    return _copies(node, addr, (), ONE, member)


def _copies(node, addr, prefix, scale, member):
    while isinstance(node, ScaledLabels):
        scale, node = _times(scale, node.factor), node.inner
    if isinstance(node, PIECES):
        if not _is_local_vertex(node, addr):
            raise UnknownVertex(format_address(prefix + addr))
        return [(prefix, node, addr, scale)]
    child = _child(node, addr[0], member) if addr else None
    if child is None:
        raise UnknownVertex(format_address(prefix + addr))
    step = addr[0]
    here = prefix + (step,)
    out = _copies(child, addr[1:], here, scale, member)
    if step == BASE:
        base = out
    else:
        shared, site = _glue_point(node, step)
        if here + shared not in {p + local for p, _, local, _ in out}:
            return out
        base = _copies(node.base, site, prefix + (BASE,), scale, member)
        out += base
    sites = {p[len(prefix) + 1:] + local for p, _, local, _ in base}
    for s, shared in _glued_at(node, sites):
        if s != step:
            out += _copies(_child(node, s, member), shared, prefix + (s,), scale, member)
    return out


def canonical(node: SymbolicTree, addr: Address) -> Address:
    """The address a merged vertex is reported under: its copy reached
    through ``base`` at every gluing it takes part in."""
    return min(
        (p + local for p, _, local, _ in copies(node, addr, member_shape)),
        key=lambda a: [step != BASE for step in a],
    )


def walk_constructors(node: SymbolicTree, prefix: Address = ()):
    """Yield (address prefix, constructor node) over the whole structure,
    entering family templates at the representative member index 1."""
    yield prefix, node
    if isinstance(node, ScaledLabels):
        yield from walk_constructors(node.inner, prefix)
    elif isinstance(node, GlueFinite):
        yield from walk_constructors(node.base, prefix + (BASE,))
        for i, a in enumerate(node.attachments):
            yield from walk_constructors(a.part, prefix + (("attach", i),))
    elif isinstance(node, GlueFamily):
        yield from walk_constructors(node.base, prefix + (BASE,))
        yield from walk_constructors(node.template, prefix + (("member", 1),))


def contains_kind(node: SymbolicTree, kind) -> bool:
    return any(isinstance(n, kind) for _, n in walk_constructors(node))


def first_of_kind(node: SymbolicTree, kind):
    for prefix, n in walk_constructors(node):
        if isinstance(n, kind):
            return prefix, n
    return None


# ---------------------------------------------------------------------------
# labels


def has_vertex(node: SymbolicTree, addr: Address) -> bool:
    """Does the address resolve structurally (labels not consulted)?"""
    try:
        _locate(node, addr, member_shape)
    except UnknownVertex:
        return False
    return True


def _concrete(value, what: str) -> Fraction:
    if value is None or not val_is_concrete(value):
        raise InvalidDeclaration(f"{what} is an unresolved ref")
    return value


def label_at(node: SymbolicTree, addr: Address) -> Fraction:
    """Exact label of the vertex at ``addr`` (node must be concrete there)."""
    piece, ((kind, *arg),), scale = _locate(node, addr)
    if isinstance(piece, Finite):
        label = piece.tree.labels[arg[0]]
    elif kind == "center":
        label = _concrete(piece.center_label, "center label")
    else:
        seq = piece.labels if isinstance(piece, Ray) else piece.leaf_labels
        label = seq.term(arg[0])
    return _concrete(scale, "scale factor") * label


def sup_labels(node: SymbolicTree) -> Fraction:
    """Supremum of all labels (envelopes bound family members by contract)."""
    sups = []
    for _, piece, scale in pieces(node, None):
        if isinstance(piece, Finite):
            sup = max(piece.tree.labels.values())
        elif isinstance(piece, Ray):
            sup = piece.labels.sup()
        elif isinstance(piece, Star):
            sup = max(_concrete(piece.center_label, "center label"), piece.leaf_labels.sup())
        else:
            sup = piece.envelope.sup()
        sups.append(_concrete(scale, "scale factor") * sup)
    return max(sups)


# ---------------------------------------------------------------------------
# validation


def validate_symbolic(node: SymbolicTree) -> None:
    """Full structural validation: glue sites exist, shared labels match
    (exactly where concrete; family members spot-checked over the certified
    window plus the first few indices), envelopes dominate member suprema.
    """
    for prefix, n in walk_constructors(node):
        if any(step[0] == "member" for step in prefix):
            continue  # a template is checked through its instantiated members
        if isinstance(n, GlueFinite):
            for a in n.attachments:
                _validate_glue(n.base, a.site, a.part, a.shared)
        elif isinstance(n, GlueFamily):
            _validate_family(n)
        elif not isinstance(n, SymbolicTree):
            raise InvalidDeclaration(f"unknown constructor {type(n).__name__}")


def _validate_glue(base, site, part, shared) -> None:
    if not has_vertex(base, site):
        raise UnknownVertex(format_address(site))
    if not has_vertex(part, shared):
        raise UnknownVertex(format_address(shared))
    try:
        base_val = label_at(base, site)
        part_val = label_at(part, shared)
    except InvalidDeclaration:
        return  # refs present; checked per-member at instantiation
    if base_val != part_val:
        raise GlueLabelMismatch(format_address(site), base_val, part_val)


def _validate_family(fam: GlueFamily) -> None:
    if not has_vertex(fam.template, fam.shared):
        raise UnknownVertex(format_address(fam.shared))
    _validate_template_ratio_refs(fam)
    if _node_has_free_refs(fam):
        return  # a nested family: its members are checked once instantiated
    checks = sorted(set(member_window(fam)) | set(range(1, SPOT_CHECK_MEMBERS + 1)))
    for m in checks:
        member = instantiate(fam, m)
        validate_symbolic(member)
        want = site_label(fam, m)
        got = label_at(member, fam.shared)
        if want != got:
            raise GlueLabelMismatch(
                f"member:{m} at {format_address(fam.shared)}", want, got
            )
        if sup_labels(member) > fam.envelope.term(m):
            raise InvalidDeclaration(
                f"envelope {fam.envelope.describe()} does not dominate "
                f"member {m} (sup {format_rational(sup_labels(member))} > "
                f"{format_rational(fam.envelope.term(m))})"
            )


def _node_has_free_refs(node: SymbolicTree) -> bool:
    """Refs not bound by a family inside ``node`` itself (a family binds its
    template's refs; its base and envelope are outside them)."""
    return any(
        scale is None
        or any(holds_refs(getattr(piece, n)) for n in field_names(type(piece)))
        for _, piece, scale in pieces(node, None)
    )


def _validate_template_ratio_refs(fam: GlueFamily) -> None:
    """A geometric ratio ref needs every source value in (0, 1)."""
    for s in _template_seqs(fam.template):
        if isinstance(s, Geometric) and isinstance(s.r, Ref):
            if s.r.source == "site_label":
                _, seq, start, step = _site_progression(fam)
                what = "site labels"
            else:
                seq, start, step, what = fam.envelope, 1, 1, "envelope values"
            if seq.has_refs():
                continue  # nested family: checked at instantiation
            if seq.zero_in_progression(start, step) or s.r.coeff * seq.sup() >= 1:
                raise InvalidDeclaration(f"geometric ratio ref needs {what} in (0, 1)")


def _template_seqs(node: SymbolicTree):
    """Every non-modulated label sequence of the constructors in ``node``."""
    for _, c in walk_constructors(node):
        for name in field_names(type(c)):
            value = getattr(c, name)
            if isinstance(value, LabelSeq):
                yield from _leaf_seqs(value)


def _leaf_seqs(seq: LabelSeq):
    if isinstance(seq, Modulated):
        for s in seq.seqs:
            yield from _leaf_seqs(s)
    else:
        yield seq


# ---------------------------------------------------------------------------
# truncation


def truncate(
    node: SymbolicTree, budget: int, size_cap: int = TRUNCATE_SIZE_CAP
) -> tuple[LabeledTree, dict[str, str]]:
    """Deterministic finite materialization.

    Ray: first ``budget`` vertices; Star: center plus first ``budget`` leaves;
    GlueFamily: members m <= budget whose site is materialized, each truncated
    with the same budget.  Shared vertices are force-included (with the prefix
    needed to stay connected) and validated: shared labels must match and the
    envelope must dominate each materialized member.  Glue sites and shared
    addresses are resolved to their canonical addresses first, so a document
    may name a merged vertex through any of its copies.  One top-down walk
    writes every vertex once, under its final address; a part's copy of a
    glued vertex is kept only until its label is checked.  Returns the tree
    plus a map from canonical symbolic addresses to emitted vertex ids
    (vertex ids are the address strings themselves).
    """
    if budget < 1:
        raise InvalidDeclaration(f"budget must be >= 1, got {budget}")
    verts, edges = {}, []
    _walk(node, budget, (), None, set(), (verts, edges, {}))
    if len(verts) > size_cap:
        raise SizeCapExceeded(len(verts), size_cap, "truncation")
    ids = {addr: format_address(addr) for addr in sorted(verts)}
    tree = build_tree(
        ids.values(),
        [(ids[a], ids[b]) for a, b in edges],
        {ids[a]: lab for a, lab in verts.items()},
    )
    return tree, {i: i for i in ids.values()}


# a module-level recursion: a closure that calls itself would keep each
# truncation alive in a reference cycle until a full collection
def _walk(node, budget, prefix, scale, forced, out) -> None:
    """Write the truncation of ``node`` into ``out`` = (labels by final
    address, edges, final address of each merged copy).

    ``prefix`` is the node's address, ``scale`` the product of the scale
    factors above it (None below no ``scaled`` node) and ``forced`` the
    node-local addresses the truncation must include.  A gluing walks its
    base, then each part.  The part's copy of a glued vertex stays in the
    labels under its own address until the gluing compares its label with
    the base copy's and drops it; its edges take the base copy's final
    address.
    """
    verts, edges, merged = out
    while isinstance(node, ScaledLabels):
        factor = _concrete(node.factor, "scale factor")
        scale = factor if scale is None else scale * factor
        node = node.inner
    if isinstance(node, PIECES):
        local, labels, links = _piece(node, budget, forced)
        if scale is not None:
            labels = [scale * lab for lab in labels]
        names = [prefix + (step,) for step in local]
        verts.update(zip(names, labels))
        for addr in forced:
            own = prefix + addr
            if own in merged:
                names[local.index(addr[0])] = merged[own]
        edges.extend((names[i], names[j]) for i, j in links)
        return
    by_step: dict[tuple, set[Address]] = {}
    for addr in forced:
        by_step.setdefault(addr[0], set()).add(addr[1:])
    base_forced = by_step.pop(BASE, set())
    # every attachment is glued; a family glues the members m <= budget
    # whose site the base reaches, and the members forced addresses name
    if isinstance(node, GlueFinite):
        steps = pinned = [("attach", i) for i in range(len(node.attachments))]
    else:
        pinned = list(by_step)
        steps = sorted({("member", m) for m in range(1, budget + 1)}.union(pinned))
    sites = {s: _glue_point(node, s)[1] for s in steps}
    for s in pinned:  # the other sites lie on a ray or star: canonical
        sites[s] = canonical(node.base, sites[s])
        base_forced.add(sites[s])
    _walk(node.base, budget, prefix + (BASE,), scale, base_forced, out)
    for step in steps:
        here = prefix + (BASE,) + sites[step]
        base_val = verts.get(here)
        if base_val is None:
            continue
        part = _child(node, step, instantiate)
        if step[0] == "member" and sup_labels(part) > node.envelope.term(step[1]):
            raise InvalidDeclaration(f"envelope does not dominate member {step[1]}")
        shared = canonical(part, _glue_point(node, step)[0])
        own = prefix + (step,) + shared
        merged[own] = merged.get(here, here)
        _walk(part, budget, prefix + (step,), scale, by_step.get(step, set()) | {shared}, out)
        part_val = verts.pop(own)
        if part_val != base_val:
            where = format_address((BASE,) + sites[step])
            if step[0] == "member":
                where = f"member:{step[1]} at {where}"
            if scale is not None:  # report the values at this gluing's scale
                base_val, part_val = base_val / scale, part_val / scale
            raise GlueLabelMismatch(where, base_val, part_val)


def _piece(piece, budget: int, forced) -> tuple[list[tuple], list, list[tuple[int, int]]]:
    """(local address steps, labels, edges as index pairs) of a Finite, Ray
    or Star cut at ``budget`` and extended to the indices ``forced`` names."""
    if isinstance(piece, Finite):
        vs = piece.tree.vertices
        at = {v: i for i, v in enumerate(vs)}
        return (
            [("vertex", v) for v in vs],
            [piece.tree.labels[v] for v in vs],
            [(at[u], at[v]) for u, v in piece.tree.edges],
        )
    extra = [addr[0][1] for addr in forced if addr[0] != CENTER]
    if isinstance(piece, Ray):
        idx = range(1, max([budget, *extra]) + 1)
        links = [(i - 1, i) for i in range(1, len(idx))]
        return [("ray", n) for n in idx], [piece.labels.term(n) for n in idx], links
    center = _concrete(piece.center_label, "center label")
    idx = sorted(set(range(1, budget + 1)).union(extra))
    return (
        [CENTER] + [("leaf", k) for k in idx],
        [center] + [piece.leaf_labels.term(k) for k in idx],
        [(0, i) for i in range(1, len(idx) + 1)],
    )


# ---------------------------------------------------------------------------
# symbolic vertex counting
#
# Counting stays exact even when a family envelope does not vanish.  Every
# sequence kind has fully determined terms, so the supremum of a member's
# non-shared labels is a finite max of monomials
#
#     coeff * site_label(m)**site_pow * envelope(m)**env_pow,
#
# each attained by an actual vertex of the member.  Restricted to the member
# progression, every built-in sequence settles into finitely many residue
# classes whose values approach their limits from above, so a monomial with a
# class-limit product >= eps is exceeded by infinitely many members, and
# otherwise a bounded scan lists exactly the members that still reach eps.

_LOOSE_SCAN_CAP = 1_000_000


def _mono_mul_val(mono, v):
    """Multiply a (coeff, site_pow, env_pow) monomial by a value or Ref."""
    c, sp, se = mono
    if isinstance(v, Ref):
        if v.source == "site_label":
            return (c * v.coeff, sp + 1, se)
        return (c * v.coeff, sp, se + 1)
    return (c * Fraction(v), sp, se)


def _seq_sup_monos(seq, skip, mult, out):
    """Append monomials whose max equals sup of seq.term(n) over n != skip.

    Exact in both directions: the listed monomials dominate every non-skipped
    term, and each listed value is realized by at least one actual term (for
    constant values and alternating tails, by infinitely many).
    """
    if isinstance(seq, Const):
        out.append(_mono_mul_val(mult, seq.c))
    elif isinstance(seq, Harmonic):
        c, sp, se = _mono_mul_val(mult, seq.a)
        out.append((c / (2 if skip == 1 else 1), sp, se))
    elif isinstance(seq, PrimeRecip):
        c, sp, se = _mono_mul_val(mult, seq.a)
        out.append((c / nth_prime(2 if skip == 1 else 1), sp, se))
    elif isinstance(seq, Geometric):
        mono = _mono_mul_val(mult, seq.a)
        if skip == 1:
            mono = _mono_mul_val(mono, seq.r)
        out.append(mono)
    elif isinstance(seq, FiniteSupport):
        best = max(
            (x for i, x in enumerate(seq.prefix, 1) if i != skip),
            default=Fraction(0),
        )
        if best > 0:
            out.append(_mono_mul_val(mult, best))
    elif isinstance(seq, Custom):
        best = max(
            [x for i, x in enumerate(seq.prefix, 1) if i != skip]
            + [seq.limsup_]
        )
        if best > 0:
            out.append(_mono_mul_val(mult, best))
    elif isinstance(seq, Modulated):
        for i, comp in enumerate(seq.seqs):
            inner_skip = None
            if skip is not None and (skip - 1) % seq.period == i:
                inner_skip = (skip - 1) // seq.period + 1
            _seq_sup_monos(comp, inner_skip, mult, out)
    else:
        raise InvalidDeclaration(
            f"cannot analyze sequence kind {type(seq).__name__}"
        )


def _template_unshared_monos(node, shared, mult, out):
    """Monomials for the labels of a template's non-shared vertices.

    ``shared`` is the address, within ``node``, of the vertex glued onto the
    family base (None once the walk has left the branch containing it).
    """
    if isinstance(node, Finite):
        skip = shared[0][1] if shared and shared[0][0] == "vertex" else None
        for name, lab in node.tree.labels.items():
            if name != skip and lab > 0:
                out.append(_mono_mul_val(mult, lab))
    elif isinstance(node, Ray):
        skip = shared[0][1] if shared and shared[0][0] == "ray" else None
        _seq_sup_monos(node.labels, skip, mult, out)
    elif isinstance(node, Star):
        if not (shared and shared[0][0] == "center"):
            out.append(_mono_mul_val(mult, node.center_label))
        skip = shared[0][1] if shared and shared[0][0] == "leaf" else None
        _seq_sup_monos(node.leaf_labels, skip, mult, out)
    elif isinstance(node, GlueFinite):
        base_shared = shared[1:] if shared and shared[0] == ("base",) else None
        _template_unshared_monos(node.base, base_shared, mult, out)
        for i, att in enumerate(node.attachments):
            if shared and shared[0] == ("attach", i):
                part_shared = shared[1:]
            else:
                # the part's glued vertex duplicates a base label that the
                # base walk already handled (and excluded, if it is the
                # family-shared vertex)
                part_shared = att.shared
            _template_unshared_monos(att.part, part_shared, mult, out)
    elif isinstance(node, GlueFamily):
        raise InvalidDeclaration(
            "cannot count vertices across a family nested inside the template"
            " of a family whose envelope does not vanish"
        )
    elif isinstance(node, ScaledLabels):
        _template_unshared_monos(
            node.inner, shared, _mono_mul_val(mult, node.factor), out
        )
    else:
        raise InvalidDeclaration(f"unknown constructor {type(node).__name__}")


def _class_limit_map(seq, start, step):
    """(Q, limits) for seq.term(start + k*step), k = 0, 1, 2, ...

    limits[k % Q] is the limit of the terms within that residue class of k;
    past the settle bound every class approaches its limit from above (or
    equals it).
    """
    if isinstance(seq, Const):
        return 1, [Fraction(seq.c)]
    if isinstance(seq, (Harmonic, Geometric, PrimeRecip, FiniteSupport)):
        return 1, [Fraction(0)]
    if isinstance(seq, Custom):
        offset = start - len(seq.prefix)
        if step % 2 == 0:
            return 1, [seq.limsup_ if offset % 2 == 1 else seq.liminf_]
        v0 = seq.limsup_ if offset % 2 == 1 else seq.liminf_
        v1 = seq.limsup_ if (offset + step) % 2 == 1 else seq.liminf_
        return 2, [v0, v1]
    if isinstance(seq, Modulated):
        p = seq.period
        phases = lcm(step, p) // step
        inner_step = lcm(step, p) // p
        qs, ls = [], []
        for j in range(phases):
            n_j = start + j * step
            comp = seq.seqs[(n_j - 1) % p]
            q, l = _class_limit_map(comp, (n_j - 1) // p + 1, inner_step)
            qs.append(q)
            ls.append(l)
        big = phases * lcm(*qs)
        limits = []
        for r in range(big):
            j = r % phases
            limits.append(ls[j][((r - j) // phases) % qs[j]])
        return big, limits
    raise InvalidDeclaration(
        f"cannot analyze sequence kind {type(seq).__name__}"
    )


def _settle_bound(seq, start, step):
    """First k past which every residue class of seq.term(start + k*step)
    is non-increasing toward (or equal to) its class limit."""
    if isinstance(seq, (Const, Harmonic, Geometric, PrimeRecip)):
        return 0
    if isinstance(seq, (FiniteSupport, Custom)):
        spill = len(seq.prefix) - start
        return 0 if spill < 0 else spill // step + 1
    if isinstance(seq, Modulated):
        p = seq.period
        phases = lcm(step, p) // step
        inner_step = lcm(step, p) // p
        worst = 0
        for j in range(phases):
            n_j = start + j * step
            comp = seq.seqs[(n_j - 1) % p]
            inner = _settle_bound(comp, (n_j - 1) // p + 1, inner_step)
            worst = max(worst, j + phases * inner)
        return worst
    raise InvalidDeclaration(
        f"cannot analyze sequence kind {type(seq).__name__}"
    )


def _loose_family_hits(fam: GlueFamily, eps: Fraction):
    """Member indices whose non-shared labels reach eps, for a family whose
    envelope exceeds eps infinitely often.  Exact: a sorted list, or INFINITE
    when infinitely many members (hence vertices) reach eps."""
    _, base_seq, start, step = _site_progression(fam)
    if base_seq.has_refs() or fam.envelope.has_refs():
        raise InvalidDeclaration(
            "family base labels and envelope must be concrete to count"
        )
    raw: list = []
    _template_unshared_monos(fam.template, fam.shared, (Fraction(1), 0, 0), raw)
    monos = sorted({(c, sp, se) for c, sp, se in raw if c > 0})
    plans = []
    settle = 0
    for c, sp, se in monos:
        if sp > 0:
            qs, ls = _class_limit_map(base_seq, start, step)
            settle = max(settle, _settle_bound(base_seq, start, step))
        else:
            qs, ls = 1, [Fraction(1)]
        if se > 0:
            qe, le = _class_limit_map(fam.envelope, 1, 1)
            settle = max(settle, _settle_bound(fam.envelope, 1, 1))
        else:
            qe, le = 1, [Fraction(1)]
        q = lcm(qs, qe)
        for r in range(q):
            if c * ls[r % qs] ** sp * le[r % qe] ** se >= eps:
                return INFINITE
        plans.append(((c, sp, se), q))
    hits: list[int] = []
    pending = {(i, r) for i, (_, q) in enumerate(plans) for r in range(q)}
    k = 0
    while pending:
        if k > _LOOSE_SCAN_CAP:
            raise SizeCapExceeded(k, _LOOSE_SCAN_CAP, "family member scan")
        m = k + 1
        site = base_seq.term(start + k * step)
        env = fam.envelope.term(m)
        best = Fraction(0)
        for i, ((c, sp, se), q) in enumerate(plans):
            val = c * site**sp * env**se
            best = max(best, val)
            if k >= settle and val < eps:
                pending.discard((i, k % q))
        if best >= eps:
            hits.append(m)
        k += 1
    return hits


def count_vertices_geq(node: SymbolicTree, eps: Fraction):
    """|{v : label(v) >= eps}| as an exact integer or INFINITE."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidDeclaration(f"eps must be positive, got {eps}")
    if isinstance(node, Finite):
        return sum(1 for x in node.tree.labels.values() if x >= eps)
    if isinstance(node, Ray):
        return node.labels.count_geq(eps)
    if isinstance(node, Star):
        extra = 1 if _concrete(node.center_label, "center label") >= eps else 0
        leaves = node.leaf_labels.count_geq(eps)
        return INFINITE if leaves is INFINITE else leaves + extra
    if isinstance(node, GlueFinite):
        total = count_vertices_geq(node.base, eps)
        if total is INFINITE:
            return INFINITE
        for a in node.attachments:
            sub = count_vertices_geq(a.part, eps)
            if sub is INFINITE:
                return INFINITE
            total += sub
            if label_at(a.part, a.shared) >= eps:
                total -= 1  # shared vertex already counted in the base
        return total
    if isinstance(node, GlueFamily):
        total = count_vertices_geq(node.base, eps)
        if total is INFINITE:
            return INFINITE
        idx = node.envelope.indices_geq(eps)
        if idx is INFINITE:
            idx = _loose_family_hits(node, eps)
            if idx is INFINITE:
                return INFINITE
        for m in idx:
            member = instantiate(node, m)
            sub = count_vertices_geq(member, eps)
            if sub is INFINITE:
                return INFINITE
            total += sub
            if label_at(member, node.shared) >= eps:
                total -= 1
        return total
    if isinstance(node, ScaledLabels):
        return count_vertices_geq(node.inner, eps / _concrete(node.factor, "scale factor"))
    raise InvalidDeclaration(f"unknown constructor {type(node).__name__}")


def exceedance_bound(node: SymbolicTree, eps: Fraction):
    """A budget b such that truncate(node, b) materializes every vertex with
    label >= eps; INFINITE when count_vertices_geq is infinite."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidDeclaration(f"eps must be positive, got {eps}")
    if isinstance(node, Finite):
        return 1
    if isinstance(node, (Ray, Star)):
        seq = node.labels if isinstance(node, Ray) else node.leaf_labels
        idx = seq.indices_geq(eps)
        if idx is INFINITE:
            return INFINITE
        return max(idx, default=1)
    if isinstance(node, GlueFinite):
        bounds = [exceedance_bound(node.base, eps)]
        for a in node.attachments:
            bounds.append(exceedance_bound(a.part, eps))
        if any(b is INFINITE for b in bounds):
            return INFINITE
        return max(bounds + [1])
    if isinstance(node, GlueFamily):
        bounds = [exceedance_bound(node.base, eps)]
        idx = node.envelope.indices_geq(eps)
        if idx is INFINITE:
            idx = _loose_family_hits(node, eps)
            if idx is INFINITE:
                return INFINITE
        for m in idx:
            mb = exceedance_bound(instantiate(node, m), eps)
            if mb is INFINITE:
                return INFINITE
            bounds.append(mb)
            bounds.append(m)
            bounds.append(site_base_step(node, m)[1])
        if any(b is INFINITE for b in bounds):
            return INFINITE
        return max(bounds + [1])
    if isinstance(node, ScaledLabels):
        return exceedance_bound(node.inner, eps / _concrete(node.factor, "scale factor"))
    raise InvalidDeclaration(f"unknown constructor {type(node).__name__}")
