"""Witness labelings: relabel a free tree so the generated space lands in a
requested topological class, then re-run the classifier as a receipt.

Two constructions:

- compact witness: zero on every infinite-degree vertex, positive vanishing
  labels elsewhere.  Needs the free tree rayless, countable, and with no two
  adjacent infinite-degree vertices (else a zero-zero edge is forced).
- discrete + totally bounded witness: all-positive vanishing labels along
  each infinite direction.  Needs the free tree locally finite.

Glued pieces must agree on shared-vertex labels; instead of a literal global
1/n enumeration, each piece gets its own harmonic-style family and is scaled
(ScaledLabels, with a site-label ref inside family templates) so shared
labels match exactly.  The label multiset still vanishes along every
infinite direction, which is all the classifier conditions consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import Verdict, classify, free_predicates, infinite_degree
from .core_tree import _freeze
from .errors import PreconditionFailed
from .ratio import format_rational
from .seqs import Harmonic, Ref
from .symbolic import (
    Address,
    Attachment,
    Finite,
    GlueFamily,
    GlueFinite,
    Ray,
    ScaledLabels,
    Star,
    SymbolicTree,
    format_address,
    label_at,
    sup_labels,
)

ONE = Fraction(1)


@dataclass(frozen=True)
class LabelingWitness:
    tree: SymbolicTree
    verdict: Verdict
    summary: str


# ---------------------------------------------------------------------------
# all-positive vanishing relabeling (discrete + totally bounded)


def _relabel_positive(node: SymbolicTree) -> SymbolicTree:
    if isinstance(node, Finite):
        t = node.tree
        labels = {v: Fraction(1, i + 1) for i, v in enumerate(t.vertices)}
        return Finite(_freeze(t.vertices, t.edges, labels))
    if isinstance(node, Ray):
        return Ray(Harmonic(ONE))
    if isinstance(node, Star):
        raise PreconditionFailed(
            "locally_finite", "the free tree has an infinite-degree vertex"
        )
    if isinstance(node, GlueFinite):
        base = _relabel_positive(node.base)
        atts = []
        for a in node.attachments:
            target = label_at(base, a.site)
            part = _scale_to(_relabel_positive(a.part), a.shared, target)
            atts.append(Attachment(a.site, part, a.shared))
        return GlueFinite(base, tuple(atts))
    if isinstance(node, GlueFamily):
        if not isinstance(node.base, Ray):
            raise PreconditionFailed(
                "locally_finite", "the free tree has an infinite-degree vertex"
            )
        base = Ray(Harmonic(ONE))
        tu = _relabel_positive(node.template)
        w = label_at(tu, node.shared)
        template = ScaledLabels(tu, Ref("site_label", ONE / w))
        envelope = Harmonic(sup_labels(tu) / w)
        return GlueFamily(base, node.sites, template, node.shared, envelope)
    if isinstance(node, ScaledLabels):
        return _relabel_positive(node.inner)
    raise PreconditionFailed("valid_tree", f"unknown constructor {type(node).__name__}")


def _scale_to(node: SymbolicTree, shared: Address, target: Fraction) -> SymbolicTree:
    current = label_at(node, shared)
    if current == target:
        return node
    if current == 0:
        raise PreconditionFailed(
            "no_adjacent_infinite_degree_pair",
            f"shared vertex {format_address(shared)} is forced to zero but "
            f"must carry label {format_rational(target)}",
        )
    return ScaledLabels(node, target / current)


def discrete_tb_labeling_witness(node: SymbolicTree) -> LabelingWitness:
    """Relabel the free tree so the space is discrete and totally bounded."""
    report = free_predicates(node)
    if not report.locally_finite:
        raise PreconditionFailed(
            "locally_finite",
            "an infinite-degree vertex cannot carry a locally finite labeling",
        )
    tree = _relabel_positive(node)
    verdict = classify(tree)
    return LabelingWitness(
        tree=tree,
        verdict=verdict,
        summary=(
            "all-positive vanishing labels (piecewise-scaled harmonic "
            f"families); classifier: discrete_and_tb={verdict.discrete_and_tb}"
        ),
    )


# ---------------------------------------------------------------------------
# zeros-at-centers relabeling (compact)


def _compact_relabel(node: SymbolicTree, forced_zero: set[Address]) -> SymbolicTree:
    if isinstance(node, Finite):
        t = node.tree
        fz = {a[0][1] for a in forced_zero if len(a) == 1 and a[0][0] == "vertex"}
        labels: dict[str, Fraction] = {}
        i = 0
        for v in t.vertices:
            if v in fz:
                labels[v] = Fraction(0)
            else:
                i += 1
                labels[v] = Fraction(1, i)
        for u, v in t.edges:
            if labels[u] == 0 and labels[v] == 0:
                raise PreconditionFailed(
                    "no_adjacent_infinite_degree_pair",
                    f"vertices {u} and {v} are adjacent and both must be "
                    "labeled zero",
                )
        return Finite(_freeze(t.vertices, t.edges, labels))
    if isinstance(node, Ray):
        raise PreconditionFailed("rayless", "the free tree contains a ray")
    if isinstance(node, Star):
        for a in forced_zero:
            if len(a) == 1 and a[0][0] == "leaf":
                raise PreconditionFailed(
                    "no_adjacent_infinite_degree_pair",
                    "a star leaf forced to zero is adjacent to the zero center",
                )
        return Star(Fraction(0), Harmonic(ONE))
    if isinstance(node, GlueFinite):
        base_fz = {a[1:] for a in forced_zero if a and a[0] == ("base",)}
        for att in node.attachments:
            if infinite_degree(node, (("base",),) + att.site):
                base_fz.add(att.site)
        base = _compact_relabel(node.base, base_fz)
        atts = []
        for i, att in enumerate(node.attachments):
            part_fz = {
                a[1:] for a in forced_zero if a and a[0] == ("attach", i)
            }
            s = label_at(base, att.site)
            if s == 0:
                part = _compact_relabel(att.part, part_fz | {att.shared})
            else:
                pu = _compact_relabel(att.part, part_fz)
                part = _scale_to(pu, att.shared, s)
            atts.append(Attachment(att.site, part, att.shared))
        return GlueFinite(base, tuple(atts))
    if isinstance(node, GlueFamily):
        if isinstance(node.base, Ray):
            raise PreconditionFailed("rayless", "the free tree contains a ray")
        if infinite_degree(node.template, node.shared):
            raise PreconditionFailed(
                "no_adjacent_infinite_degree_pair",
                "every glued member center would sit next to the star base "
                "center",
            )
        member_fz = [a for a in forced_zero if a and a[0][0] == "member"]
        if member_fz:
            raise PreconditionFailed(
                "expressible_labeling",
                "an outer gluing forces a zero inside one family member; "
                "per-member exceptions are not expressible in one template: "
                + ", ".join(format_address(a) for a in member_fz),
            )
        for a in forced_zero:
            if a and a[0] == ("base",) and a[1:] != (("center",),):
                raise PreconditionFailed(
                    "no_adjacent_infinite_degree_pair",
                    "a star-base leaf forced to zero is adjacent to the zero "
                    "center",
                )
        base = Star(Fraction(0), Harmonic(ONE))
        tu = _compact_relabel(node.template, set())
        w = label_at(tu, node.shared)
        if w == 0:
            raise PreconditionFailed(
                "no_adjacent_infinite_degree_pair",
                "the glued member vertex must be zero yet carries the site "
                "label",
            )
        template = ScaledLabels(tu, Ref("site_label", ONE / w))
        envelope = Harmonic(sup_labels(tu) / w)
        return GlueFamily(base, node.sites, template, node.shared, envelope)
    if isinstance(node, ScaledLabels):
        return _compact_relabel(node.inner, forced_zero)
    raise PreconditionFailed("valid_tree", f"unknown constructor {type(node).__name__}")


def compact_labeling_witness(node: SymbolicTree) -> LabelingWitness:
    """Relabel the free tree so the space is compact: zero on infinite-degree
    vertices, positive vanishing labels elsewhere."""
    report = free_predicates(node)
    if not report.rayless:
        raise PreconditionFailed("rayless", "the free tree contains a ray")
    if report.has_adjacent_infinite_degree_pair:
        raise PreconditionFailed(
            "no_adjacent_infinite_degree_pair",
            report.pair_witness or "two infinite-degree vertices are adjacent",
        )
    tree = _compact_relabel(node, set())
    verdict = classify(tree)
    return LabelingWitness(
        tree=tree,
        verdict=verdict,
        summary=(
            "zero labels on infinite-degree vertices, scaled harmonic "
            f"positives elsewhere; classifier: compact={verdict.compact}"
        ),
    )
