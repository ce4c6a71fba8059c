"""Witness labelings: relabel a free tree so the generated space lands in a
requested topological class, then re-run the classifier as a receipt.

One construction serves both classes: zero on every infinite-degree vertex,
positive vanishing labels elsewhere.  Each public function first checks
that its class is reachable:

- compact witness: needs the free tree rayless, countable, and with no two
  adjacent infinite-degree vertices (else a zero-zero edge is forced).
- discrete + totally bounded witness: needs the free tree locally finite,
  so there is no infinite-degree vertex and every label is positive.

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
    CENTER,
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


def _relabel(node: SymbolicTree, forced_zero: set[Address]) -> SymbolicTree:
    """The relabeled free tree: zero on every infinite-degree vertex and on
    every address in ``forced_zero``, positive vanishing labels elsewhere."""
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
        return Ray(Harmonic(ONE))
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
        base = _relabel(node.base, base_fz)
        atts = []
        for i, att in enumerate(node.attachments):
            part_fz = {
                a[1:] for a in forced_zero if a and a[0] == ("attach", i)
            }
            s = label_at(base, att.site)
            if s == 0:
                part = _relabel(att.part, part_fz | {att.shared})
            else:
                part = _scale_to(_relabel(att.part, part_fz), att.shared, s)
            atts.append(Attachment(att.site, part, att.shared))
        return GlueFinite(base, tuple(atts))
    if isinstance(node, GlueFamily):
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
            if a and a[0] == ("base",) and a[1:] != (CENTER,):
                raise PreconditionFailed(
                    "no_adjacent_infinite_degree_pair",
                    "a star-base leaf forced to zero is adjacent to the zero "
                    "center",
                )
        base = _relabel(node.base, set())
        tu = _relabel(node.template, set())
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
        return _relabel(node.inner, forced_zero)
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


def _labeling(node: SymbolicTree, summary: str, goal: str) -> LabelingWitness:
    """The relabeled tree with the classifier's verdict on it as receipt."""
    tree = _relabel(node, set())
    verdict = classify(tree)
    return LabelingWitness(
        tree=tree,
        verdict=verdict,
        summary=f"{summary}; classifier: {goal}={getattr(verdict, goal)}",
    )


def discrete_tb_labeling_witness(node: SymbolicTree) -> LabelingWitness:
    """Relabel the free tree so the space is discrete and totally bounded."""
    report = free_predicates(node)
    if not report.locally_finite:
        raise PreconditionFailed(
            "locally_finite",
            "an infinite-degree vertex cannot carry a locally finite labeling",
        )
    return _labeling(
        node,
        "all-positive vanishing labels (piecewise-scaled harmonic families)",
        "discrete_and_tb",
    )


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
    return _labeling(
        node,
        "zero labels on infinite-degree vertices, scaled harmonic positives "
        "elsewhere",
        "compact",
    )
