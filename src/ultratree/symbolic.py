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
from itertools import chain, compress
from math import lcm

from .core_tree import LabeledTree, _freeze
from .errors import (
    GlueLabelMismatch,
    InvalidDeclaration,
    SizeCapExceeded,
    UnknownVertex,
)
from .ratio import format_rational, parse_rational
from .seqs import (
    INFINITE,
    Geometric,
    LabelSeq,
    Modulated,
    Ref,
    as_val,
    field_names,
    holds_refs,
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


# base kind -> site selector -> (start, step): member m of a family is glued
# at base index start + (m - 1) * step
SITE_SELECTORS = {
    "ray": {"all": (1, 1), "even": (2, 2), "odd": (1, 2)},
    "star": {"leaves": (1, 1)},
}


@dataclass(frozen=True)
class GlueFamily(SymbolicTree):
    base: SymbolicTree
    sites: str
    template: SymbolicTree
    shared: Address
    envelope: LabelSeq

    kind = "glue_family"

    def __post_init__(self):
        if not isinstance(self.base, (Ray, Star)):
            raise InvalidDeclaration("glue_family base must be a ray or a star")
        if self.sites not in SITE_SELECTORS[self.base.kind]:
            raise InvalidDeclaration(
                f"site selector {self.sites!r} invalid for a {self.base.kind} base"
            )


@dataclass(frozen=True)
class ScaledLabels(SymbolicTree):
    inner: SymbolicTree
    factor: Fraction | Ref

    kind = "scaled"

    def __post_init__(self):
        object.__setattr__(self, "factor", _factor(as_val(self.factor)))


def _factor(value):  # a ref is checked once bound
    if val_is_concrete(value) and value <= 0:
        raise InvalidDeclaration(f"scale factor must be positive, got {value}")
    return value


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


def _site_progression(fam: GlueFamily) -> tuple[str, LabelSeq, int, int]:
    """(step kind, base label sequence, start, step): member m is glued at
    base index start + (m - 1) * step."""
    start, step = SITE_SELECTORS[fam.base.kind][fam.sites]
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
    bindings = {"site_label": site_label(fam, m), "envelope": fam.envelope.term(m)}
    return substitute_node(fam.template, bindings)


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


def _values(piece, bind=None):
    """None for a Finite, else (a star's center label or None for a ray, its
    label sequence), with the refs bound by ``bind`` when it is given."""
    if isinstance(piece, Finite):
        return None
    center, seq = ((None, piece.labels) if isinstance(piece, Ray)
                   else (piece.center_label, piece.leaf_labels))
    return (center, seq) if bind is None else (resolve_val(center, bind), seq.substitute(bind))


def _read(piece, values, step=None) -> Fraction:
    """The label at the piece-local ``step`` of a piece with :func:`_values`
    ``values``, or with no ``step`` the supremum of its labels."""
    if values is None:
        return max(piece.tree.labels.values()) if step is None else piece.tree.labels[step[1]]
    center, seq = values
    if step is None:
        return seq.sup() if center is None else max(_concrete(center, "center label"), seq.sup())
    return _concrete(center, "center label") if step == CENTER else seq.term(step[1])


def label_at(node: SymbolicTree, addr: Address) -> Fraction:
    """Exact label of the vertex at ``addr`` (node must be concrete there)."""
    piece, (step,), scale = _locate(node, addr)
    return _read(piece, _values(piece), step) * _concrete(scale, "scale factor")


def sup_labels(node: SymbolicTree) -> Fraction:
    """Supremum of all labels (envelopes bound family members by contract)."""
    sups = []
    for _, p, scale in pieces(node, None):
        sup = p.envelope.sup() if isinstance(p, GlueFamily) else _read(p, _values(p))
        sups.append(_concrete(scale, "scale factor") * sup)
    return max(sups)


def _bound(template: SymbolicTree, bind: dict, scale):
    """(piece, sup, scale times its factors, bound :func:`_values`) of the
    member ``bind`` makes of a template that is one piece under ``scaled``
    nodes, not built (None for any other template), refused as
    :func:`instantiate` refuses it, in its order."""
    factors = []
    while isinstance(template, ScaledLabels):
        factors.append(template.factor)
        template = template.inner
    if not isinstance(template, PIECES):
        return None
    values = _values(template, bind)
    sup = _read(template, values)
    for factor in reversed(factors):
        factor = _factor(resolve_val(factor, bind))
        sup *= factor
        scale = factor if scale is None else factor * scale
    return template, sup, scale, values


# ---------------------------------------------------------------------------
# validation


def validate_symbolic(node: SymbolicTree) -> None:
    """Full structural validation: glue sites exist, shared labels match
    (exactly where concrete; family members spot-checked over the certified
    window plus the first few indices), envelopes dominate member suprema.
    A checked member of a one-piece template is not built (its refs are
    bound into the template by :func:`_bound`); others are instantiated.
    A ref outside every family template is refused first: no member binds
    it.  Refs of a family nested inside a template stay legal.

    A node that passes is marked as validated in its own ``__dict__`` (as
    ``functools.cached_property`` stores a value on a frozen dataclass),
    and a later call on the same node object returns at once.  That is
    sound because a node is frozen and everything it holds (nodes, label
    sequences, finite trees) is immutable, so the verdict cannot go stale.
    A refusal is not recorded: a refused node raises the same error on
    every call.
    """
    if "_validated" in getattr(node, "__dict__", ()):
        return
    # a template is checked through its members
    outside = [n for p, n in walk_constructors(node) if all(s[0] != "member" for s in p)]
    for n in outside:
        if not isinstance(n, SymbolicTree):
            raise InvalidDeclaration(f"unknown constructor {type(n).__name__}")
        for name in field_names(type(n)):
            value = getattr(n, name)
            if holds_refs(value):
                what = value.describe() if isinstance(value, LabelSeq) else f"${value.source}"
                raise InvalidDeclaration(f"{n.kind} {name} {what} holds a ref that no family binds")
    for n in outside:
        if isinstance(n, GlueFinite):
            for a in n.attachments:
                _validate_glue(n.base, a.site, a.part, a.shared)
        elif isinstance(n, GlueFamily):
            _validate_family(n)
    node.__dict__["_validated"] = True


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
    checks = sorted(set(member_window(fam)) | set(range(1, SPOT_CHECK_MEMBERS + 1)))
    for m in checks:
        want, bound = site_label(fam, m), fam.envelope.term(m)
        one = _bound(fam.template, {"site_label": want, "envelope": bound}, ONE)
        if one is None:
            member = instantiate(fam, m)
            validate_symbolic(member)
            got, sup = label_at(member, fam.shared), sup_labels(member)
        else:  # one piece: the member's refs are bound into it, no member is built
            piece, sup, scale, values = one
            got = _read(piece, values, fam.shared[0]) * scale
        if want != got:
            raise GlueLabelMismatch(
                f"member:{m} at {format_address(fam.shared)}", want, got
            )
        if sup > bound:
            raise InvalidDeclaration(
                f"envelope {fam.envelope.describe()} does not dominate "
                f"member {m} (sup {format_rational(sup)} > {format_rational(bound)})"
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
    may name a merged vertex through any of its copies.

    One top-down walk (:func:`_walk`) cuts every Finite, Ray and Star piece
    once and records it; each label costs one exact operation, with the
    ``scaled`` factors above a piece folded into its sequence.  A family
    whose template is one piece (under ``scaled`` nodes) builds no member:
    each member's site label and envelope value are bound into the
    template's sequences, center and factors.  Its first member is walked;
    each later one adds its name stem, glue site and label list (one list
    for all when the template holds no free ref) to that record, a run of
    copies of one cut.  Other templates are walked per member, as
    themselves when they hold no free ref, and each piece's cut, kept in
    the call's own state (:class:`_Truncation`) by piece object, scale and
    forced steps, serves every member (a piece is immutable).  The records
    sorted by prefix give the address order, and every record, one copy or
    a run, is named by one comprehension: a vertex id is its copy's stem
    (the formatted prefix) plus its local step.  Nothing is kept on the
    node between calls.

    Returns the tree plus a map from canonical symbolic addresses to emitted
    vertex ids (vertex ids are the address strings themselves).  The tree is
    a tree by construction and is frozen without re-validation
    (:func:`~ultratree.core_tree._freeze`).  ``SizeCapExceeded`` is raised
    as soon as the vertices kept so far pass ``size_cap`` (a ray or star
    piece is refused before its labels are computed), naming that count as
    a lower bound; a document over the cap may therefore get it before a
    ``GlueLabelMismatch`` or envelope error that lies later in the walk.
    """
    if budget < 1:
        raise InvalidDeclaration(f"budget must be >= 1, got {budget}")
    out = _Truncation(budget, size_cap)
    _walk(node, (), None, {}, out)
    labels, edges = {}, []
    for prefix in sorted(out.pieces):
        cut, stems, moved, copies = out.pieces[prefix]
        n, k = len(cut.texts), len(stems)
        names = [s + t for s in stems for t in cut.texts]
        keep = [True] * n
        # a moved copy's vertex is written by the piece it merges into
        for i, finals in moved.items():
            names[i::n] = finals
            keep[i] = False
        keep *= k
        labels.update(zip(compress(names, keep), compress(chain.from_iterable(copies), keep)))
        # every copy's edges, by position
        edges += [
            (names[o + u], names[o + v])
            for o in range(0, n * k, n)
            for u, v in zip(cut.heads, cut.tails)
        ]
    tree = _freeze(labels, edges, labels)
    return tree, {v: v for v in labels}


class _Truncation:
    """State of one :func:`truncate` call.

    ``pieces`` maps each cut piece's address prefix to (cut, stems, moved,
    copies): one or more copies of the cut, consecutive in address order,
    each named by its stem (its formatted prefix and "/") and labeled by
    its list in ``copies``, and ``moved`` maps the index of each vertex a
    gluing merges away to the final names, one per copy, of the vertices
    it merges into.  ``cuts`` holds (piece, values, cut, labels, forced step
    indices) by piece and values ids (kept: none is reused), scale and steps.
    """

    __slots__ = ("budget", "cap", "kept", "pieces", "cuts")

    def __init__(self, budget: int, cap: int):
        self.budget, self.cap, self.kept = budget, cap, 0
        self.pieces: dict[Address, tuple[_Cut, list[str], dict[int, list[str]], list[list]]] = {}
        self.cuts: dict[tuple, tuple] = {}


class _Cut:
    """One piece cut at the budget: its local step texts (``ray:3``,
    ``center``, ...) in address order, the terms 1..``first`` (the budget)
    and ``beyond`` (forced past it) that label a ray or a star's leaves, its
    edges as two index sequences, and step text -> index, built lazily."""

    __slots__ = ("texts", "first", "beyond", "heads", "tails", "index")

    def __init__(self, texts, first, beyond, heads, tails):
        self.texts, self.first, self.beyond = texts, first, beyond
        self.heads, self.tails, self.index = heads, tails, None

    def find(self, text: str):
        """The index of the vertex ``text``, None when the cut omits it."""
        if self.index is None:
            self.index = {t: i for i, t in enumerate(self.texts)}
        return self.index.get(text)


# a module-level recursion: a closure that calls itself would keep each
# truncation alive in a reference cycle until a full collection
def _walk(node, prefix, scale, forced, out, values=None) -> None:
    """Record the truncation of ``node`` in ``out``.

    ``prefix`` is the node's address, ``scale`` the product of the scale
    factors above it (None below no ``scaled`` node) and ``forced`` maps
    each node-local address the truncation must include to None, or, for
    a part's copy of a glued vertex, to a holder [final name, label]: the
    piece holding that copy fills in its label, marks it moved and names
    its edges after the final name; ``values`` are a member's bound
    :func:`_values`.  A gluing walks its base, then each part, and compares
    the label each part left in its holder with the base copy's.

    Each piece becomes one record under its prefix.  No piece's prefix is a
    prefix of another's, and each record lists its steps in address order
    (ray and leaf indices ascending, ``center`` before the leaves, the
    sorted vertices of a Finite), so sorting the records by prefix sorts
    every vertex by address.  The members of a family whose template is
    one piece extend one record instead, from the first member walked up
    to the next member a forced address pins: nothing lies between them in
    address order.  The kept vertices (moved copies excluded) are counted
    as records are added or extended, against the size cap, and a ray or
    star is checked against it before its labels are computed.
    """
    while isinstance(node, ScaledLabels):
        factor = _concrete(node.factor, "scale factor")
        scale = factor if scale is None else scale * factor
        node = node.inner
    if isinstance(node, PIECES):
        key = (id(node), id(values), scale, frozenset(forced))
        hit = out.cuts.get(key)
        if hit is None:
            if not isinstance(node, Finite):
                # a ray holds at least budget vertices and a star one more:
                # refuse before cutting one that passes the cap
                holders = sum(hold is not None for hold in forced.values())
                least = out.budget + isinstance(node, Star) - holders
                _check_cap(out, out.kept + least)
            cut = _piece(node, out.budget, forced)
            at = {addr: cut.find(format_address(addr)) for addr in forced}
            labels = _labels(node, values or _values(node), cut, scale)
            hit = out.cuts[key] = (node, values, cut, labels, at)
        _, _, cut, labels, at = hit
        moved = {}
        for addr, hold in forced.items():
            if hold is not None:
                i = at[addr]
                moved[i] = [hold[0]]
                hold[1] = labels[i]
        out.pieces[prefix] = cut, [format_address(prefix) + "/" if prefix else ""], moved, [labels]
        out.kept += len(cut.texts) - len(moved)
        _check_cap(out, out.kept)
        return
    by_step: dict[tuple, dict] = {}
    for addr, hold in forced.items():
        by_step.setdefault(addr[0], {})[addr[1:]] = hold
    base_forced = by_step.pop(BASE, {})
    base_prefix = prefix + (BASE,)
    # (step, site, piece prefix and step text of the site, its name) of
    # every part: each attachment, or the members m <= budget whose site
    # the base keeps plus the members forced addresses name, with the
    # family's sites found by arithmetic on its ray or star base
    if isinstance(node, GlueFinite):
        parts, one = [], None
        for i, att in enumerate(node.attachments):
            site = canonical(node.base, att.site)
            base_forced.setdefault(site, None)
            parts.append((("attach", i), site, base_prefix + site[:-1],
                          format_address(site[-1:]), format_address(base_prefix + site)))
    else:
        kind, site_seq, start, stride = _site_progression(node)
        pinned = sorted(m for _, m in by_step)
        for m in pinned:
            base_forced.setdefault((site_base_step(node, m),), None)
        # the sites the base keeps: a ray's 1..top, a star's leaves up to the budget
        top = max([out.budget, *(addr[0][1] for addr in base_forced if addr[0] != CENTER)])
        last = min(out.budget, (top - start) // stride + 1)
        head = format_address(base_prefix) + "/"
        parts = (
            (("member", m), ((kind, n),), base_prefix, f"{kind}:{n}", f"{head}{kind}:{n}")
            for m in [*range(1, last + 1), *(m for m in pinned if m > out.budget)]
            for n in [start + (m - 1) * stride]
        )
        # members share the template's structure, so the shared address is
        # resolved once; a template without free refs is every member
        free = _node_has_free_refs(node.template)
        stem = (format_address(prefix) + "/" if prefix else "") + "member:"
    _walk(node.base, base_prefix, scale, base_forced, out)
    env = sup = shared = run = values = None
    for step, site, site_prefix, text, name in parts:
        record = out.pieces[site_prefix]  # every site is forced or kept
        base_val = record[3][0][record[0].find(text)]
        if step[0] == "attach":
            att = node.attachments[step[1]]
            part, shared = att.part, canonical(att.part, att.shared)
        else:
            m = step[1]
            if env is None:  # the envelope at the members <= budget, in one batch
                env = node.envelope.terms(out.budget)
            bound = env[m - 1] if m <= out.budget else node.envelope.term(m)
            if free or sup is None:
                bind = {"site_label": site_seq.term(site[0][1]), "envelope": bound} if free else {}
                one = _bound(node.template, bind, scale)
                if one is None:
                    part = instantiate(node, m) if free else node.template
                    sup = sup_labels(part)
                else:  # one piece: the member's refs are bound into it
                    part, sup, part_scale, values = one
                    values = values if free else None  # a ref-free piece shares its cut
                # an envelope whose inf reaches a ref-free sup dominates every member
                settled = not free and not node.envelope.has_refs() and node.envelope.inf() >= sup
            if not settled and sup > bound:
                raise InvalidDeclaration(f"envelope does not dominate member {m}")
            if shared is None:
                shared = canonical(node.template, node.shared)
        outer = base_forced.get(site)
        final = name if outer is None else outer[0]
        if run is not None and step not in by_step:
            # the template's one record again: one more stem, the site its
            # shared copy merges into, and the member's labels
            stems, finals, copies, cut, at = run
            stems.append(f"{stem}{m}/")
            finals.append(final)
            # the walk's two checks: the budget's vertices, then all it keeps
            _check_cap(out, out.kept + len(cut.texts) - len(cut.beyond) - 1)
            out.kept += len(cut.texts) - 1
            _check_cap(out, out.kept)
            copies.append(_labels(part, values, cut, part_scale) if free else copies[0])
            part_val = copies[-1][at]
        else:
            hold = [final, None]
            sub = dict(by_step.get(step, ()))
            sub[shared] = hold
            _walk(part, prefix + (step,), scale if one is None else part_scale, sub, out, values)
            part_val = hold[1]
            run = None
            if one is not None and step not in by_step:
                # a one-piece template left one record; the next members
                # that no forced address pins extend it
                cut, stems, moved, copies = out.pieces[prefix + (step,)]
                ((at, finals),) = moved.items()
                run = stems, finals, copies, cut, at
        if part_val != base_val:
            where = format_address((BASE,) + site)
            if step[0] == "member":
                where = f"member:{step[1]} at {where}"
            if scale is not None:  # report the values at this gluing's scale
                base_val, part_val = base_val / scale, part_val / scale
            raise GlueLabelMismatch(where, base_val, part_val)


def _check_cap(out: _Truncation, kept: int) -> None:
    """Refuse a truncation once ``kept``, a lower bound on its vertex
    count, passes the size cap."""
    if kept > out.cap:
        raise SizeCapExceeded(kept, out.cap, "truncation (vertices, lower bound)")


def _piece(piece, budget: int, forced) -> _Cut:
    """A Finite, Ray or Star cut at ``budget``, extended to the indices
    ``forced`` names."""
    if isinstance(piece, Finite):
        vs = piece.tree.vertices
        at = {v: i for i, v in enumerate(vs)}
        return _Cut(["vertex:" + v for v in vs], 0, (),
                    [at[u] for u, _ in piece.tree.edges], [at[v] for _, v in piece.tree.edges])
    extra = [addr[0][1] for addr in forced if addr[0] != CENTER]
    if isinstance(piece, Ray):
        top = max([budget, *extra])
        return _Cut([f"ray:{n}" for n in range(1, top + 1)], budget, range(budget + 1, top + 1),
                    range(top - 1), range(1, top))
    beyond = sorted({k for k in extra if k > budget})
    texts = ["center", *(f"leaf:{k}" for k in range(1, budget + 1)), *(f"leaf:{k}" for k in beyond)]
    return _Cut(texts, budget, beyond, [0] * (len(texts) - 1), range(1, len(texts)))


def _labels(piece, values, cut: _Cut, scale) -> list:
    """The labels of ``piece``'s ``cut`` by its :func:`_values`, times
    ``scale`` (None: unscaled), each in one exact operation."""
    if values is None:
        labels = [piece.tree.labels[v] for v in piece.tree.vertices]
        return labels if scale is None else [scale * x for x in labels]
    center, seq = values
    head = [] if center is None else [_concrete(center, "center label")]  # a star's center
    if scale is not None:
        head, seq = [scale * x for x in head], seq.scale(scale)
    return [*head, *seq.terms(cut.first), *map(seq.term, cut.beyond)]


# ---------------------------------------------------------------------------
# symbolic vertex counting
#
# One walk, :func:`_exceed`, answers both questions about the vertices with
# label >= eps: how many there are (``count_vertices_geq``) and a budget at
# which ``truncate`` materializes each of them (``exceedance_bound``).  It
# stops at the first part with infinitely many.
#
# Counting stays exact even when a family envelope does not vanish.  Every
# sequence kind has fully determined terms, so the supremum of a member's
# non-shared labels is a finite max of monomials
#
#     coeff * site_label(m)**site_pow * envelope(m)**env_pow,
#
# each attained by an actual vertex of the member; every kind lists the
# factors of its own (``LabelSeq.sup_factors``).  Restricted to the member
# progression, every built-in sequence settles (``LabelSeq.settle``) into
# finitely many residue classes whose values approach their limits
# (``LabelSeq.class_limits``) from above, so a monomial with a class-limit
# product >= eps is exceeded by infinitely many members, and otherwise a
# bounded scan lists exactly the members that still reach eps.

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
    """Append monomials whose max equals sup of seq.term(n) over n != skip,
    each ``mult`` times one product of ``seq.sup_factors(skip)``."""
    for factors in seq.sup_factors(skip):
        mono = mult
        for v in factors:
            mono = _mono_mul_val(mono, v)
        out.append(mono)


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
            qs, ls = base_seq.class_limits(start, step)
            settle = max(settle, base_seq.settle(start, step))
        else:
            qs, ls = 1, [Fraction(1)]
        if se > 0:
            qe, le = fam.envelope.class_limits(1, 1)
            settle = max(settle, fam.envelope.settle(1, 1))
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


def _exceed(node: SymbolicTree, eps: Fraction):
    """(count, bound) of the vertices with label >= eps: their number, and a
    budget b >= 1 at which truncate(node, b) materializes each of them; or
    INFINITE, as soon as one part has infinitely many."""
    if isinstance(node, ScaledLabels):
        return _exceed(node.inner, eps / _concrete(node.factor, "scale factor"))
    if isinstance(node, Finite):
        return sum(x >= eps for x in node.tree.labels.values()), 1
    if isinstance(node, PIECES):  # a ray or a star
        star = isinstance(node, Star)
        center = star and _concrete(node.center_label, "center label") >= eps
        found = (node.leaf_labels if star else node.labels).count_last_geq(eps)
        return INFINITE if found is INFINITE else (found[0] + center, max(found[1], 1))
    found = _exceed(node.base, eps)
    if found is INFINITE:
        return INFINITE
    count, bound = found
    if isinstance(node, GlueFinite):
        parts = ((a.part, a.shared, ()) for a in node.attachments)
    else:
        idx = node.envelope.indices_geq(eps)
        if idx is INFINITE:
            idx = _loose_family_hits(node, eps)
            if idx is INFINITE:
                return INFINITE
        # a member's budget also covers its index and its site on the base
        parts = (
            (instantiate(node, m), node.shared, (m, site_base_step(node, m)[1]))
            for m in idx
        )
    for part, shared, more in parts:
        found = _exceed(part, eps)
        if found is INFINITE:
            return INFINITE
        # the shared vertex is already counted in the base
        count += found[0] - (label_at(part, shared) >= eps)
        bound = max(bound, found[1], *more)
    return count, bound


def _positive(eps) -> Fraction:
    eps = parse_rational(eps)
    if eps <= 0:
        raise InvalidDeclaration(f"eps must be positive, got {eps}")
    return eps


def count_vertices_geq(node: SymbolicTree, eps: Fraction):
    """|{v : label(v) >= eps}| as an exact integer or INFINITE.  ``eps``
    is read by :func:`~ultratree.ratio.parse_rational`: a float or a bool
    raises InvalidDeclaration."""
    found = _exceed(node, _positive(eps))
    return found if found is INFINITE else found[0]


def exceedance_bound(node: SymbolicTree, eps: Fraction):
    """A budget b such that truncate(node, b) materializes every vertex with
    label >= eps; INFINITE when count_vertices_geq is infinite.  ``eps``
    is read as in :func:`count_vertices_geq`."""
    found = _exceed(node, _positive(eps))
    return found if found is INFINITE else found[1]
