from __future__ import annotations

import gc
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ultratree.builders import fig1, fig10
from ultratree.classify import (
    classify,
    free_predicates,
    isolated_points,
)
from ultratree.errors import (
    DegenerateLabeling,
    GlueLabelMismatch,
    InvalidDeclaration,
    PreconditionFailed,
    SizeCapExceeded,
    UltraTreeError,
    UnknownVertex,
)
from ultratree.seqs import (
    INFINITE,
    Const,
    Custom,
    FiniteSupport,
    Geometric,
    Harmonic,
    Modulated,
    PrimeRecip,
    Ref,
)
from ultratree.symbolic import (
    Attachment,
    Finite,
    GlueFamily,
    GlueFinite,
    Ray,
    ScaledLabels,
    Star,
    _concrete,
    count_vertices_geq,
    exceedance_bound,
    format_address,
    instantiate,
    label_at,
    member_window,
    parse_address,
    site_base_step,
    sup_labels,
    truncate,
    validate_symbolic,
)
from ultratree import core_tree, finite_space, symbolic, witness
from ultratree.core_tree import build_tree, distance_matrix
from ultratree.finite_space import representable
from ultratree.hull import hull
from ultratree.treeio import symbolic_from_json, symbolic_to_json
from ultratree.witness import compact_labeling_witness, discrete_tb_labeling_witness

from conftest import random_nondegenerate_tree

F = Fraction


def brute_count(node, eps, budget):
    """Oracle: count labels >= eps on a truncation generous enough to hold
    every such vertex (callers pass a budget past the exceedance bound)."""
    tree, _ = truncate(node, budget)
    return sum(1 for x in tree.labels.values() if x >= eps)


# ---------------------------------------------------------------------------
# addresses


def test_address_roundtrip():
    for text in ("ray:3", "center", "base/ray:2", "member:4/leaf:1",
                 "base/vertex:a", "attach:0/center"):
        assert format_address(parse_address(text)) == text


def test_address_rejects_garbage():
    for bad in ("", "ray", "ray:x", "bogus:1", "member:"):
        with pytest.raises(InvalidDeclaration):
            parse_address(bad)


# ---------------------------------------------------------------------------
# constructor validation


def test_selector_must_match_base():
    with pytest.raises(InvalidDeclaration):
        GlueFamily(
            base=Star(F(0), Harmonic(1)), sites="even",
            template=Star(F(0), Harmonic(1)),
            shared=(("center",),), envelope=Harmonic(1),
        )
    with pytest.raises(InvalidDeclaration):
        GlueFamily(
            base=Ray(Harmonic(1)), sites="leaves",
            template=Star(F(0), Harmonic(1)),
            shared=(("center",),), envelope=Harmonic(1),
        )


def test_glue_label_mismatch_member():
    fam = GlueFamily(
        base=Ray(Const(1)), sites="all",
        template=Star(F(1, 2), Harmonic(1)),
        shared=(("center",),), envelope=Const(1),
    )
    with pytest.raises(GlueLabelMismatch) as e:
        validate_symbolic(fam)
    assert str(e.value) == (
        "glued labels differ at member:1 at center: base has 1, part has 1/2"
    )


def test_envelope_must_dominate():
    fam = GlueFamily(
        base=Ray(Const(1)), sites="all",
        template=Star(Ref("site_label"), Const(1)),
        shared=(("center",),), envelope=Harmonic(1),
    )
    with pytest.raises(InvalidDeclaration) as e:
        validate_symbolic(fam)
    assert str(e.value) == (
        "envelope harmonic(1) does not dominate member 2 (sup 1 > 1/2)"
    )


def test_geometric_ratio_ref_needs_unit_interval():
    fam = GlueFamily(
        base=Ray(Const(2)), sites="all",
        template=Star(Ref("site_label"), Geometric(F(1, 2), Ref("site_label"))),
        shared=(("center",),), envelope=Const(2),
    )
    with pytest.raises(InvalidDeclaration) as e:
        validate_symbolic(fam)
    assert "geometric ratio ref needs site labels in (0, 1)" in str(e.value)


def test_glue_finite_label_mismatch():
    t1 = build_tree(["a", "b"], [("a", "b")], {"a": F(1), "b": F(0)})
    t2 = build_tree(["a", "c"], [("a", "c")], {"a": F(2), "c": F(1, 2)})
    glued = GlueFinite(
        Finite(t1),
        (Attachment((("vertex", "a"),), Finite(t2), (("vertex", "a"),)),),
    )
    with pytest.raises(GlueLabelMismatch) as e:
        validate_symbolic(glued)
    assert str(e.value) == "glued labels differ at vertex:a: base has 1, part has 2"


def test_degenerate_labeling_detected():
    with pytest.raises(DegenerateLabeling) as e:
        classify(Ray(Modulated(2, (Const(0), Const(0)))))
    assert str(e.value) == (
        "degenerate labeling: both endpoints of ('ray:1', 'ray:2') have label 0"
        " (consecutive ray labels are both zero)"
    )
    with pytest.raises(DegenerateLabeling):
        classify(Ray(Const(0)))
    # an isolated zero is fine: 1, 0, 1, 0, ... is non-degenerate
    classify(Ray(Modulated(2, (Const(1), Const(0)))))


# ---------------------------------------------------------------------------
# instantiation and windows


def test_member_windows():
    assert member_window(fig10()) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert member_window(fig1()) == [1, 2, 3, 4, 5, 6]


def test_instantiate_binds_innermost():
    fam = fig1()
    m2 = instantiate(fam, 2)
    # member 2 hangs off the base leaf labeled 1/3; its own star has a zero
    # center and leaves (1/3)^j, the first of which is the glued vertex
    assert label_at(m2, (("center",),)) == 0
    assert label_at(m2, (("leaf", 1),)) == F(1, 3)
    assert label_at(m2, (("leaf", 2),)) == F(1, 9)


def test_site_labels_follow_selector():
    fam = fig10()   # even sites of the alternating ray
    m1 = instantiate(fam, 1)
    assert label_at(m1, (("center",),)) == 0
    # leaves of member m are harmonic(envelope(m)) = (1/2m)/j
    assert label_at(m1, (("leaf", 1),)) == F(1, 2)
    m3 = instantiate(fam, 3)
    assert label_at(m3, (("leaf", 2),)) == F(1, 12)


# ---------------------------------------------------------------------------
# truncation


def test_truncation_budgets_frozen():
    # values fixed by the deterministic materialization rule
    for fam, sizes in (
        (fig10(), {4: 12, 8: 40, 16: 144}),
        (fig1(), {4: 21, 8: 73, 16: 273}),
    ):
        for budget, expect in sizes.items():
            tree, addr_map = truncate(fam, budget)
            assert len(tree.vertices) == expect
            assert set(addr_map) == set(tree.vertices)


def test_truncation_monotone():
    """Growing the budget only ever adds vertices (addresses are stable)."""
    for fam in (fig10(), fig1()):
        prev: set[str] = set()
        for budget in (2, 4, 6, 8, 12):
            tree, _ = truncate(fam, budget)
            now = set(tree.vertices)
            assert prev <= now
            prev = now


def test_truncation_size_cap():
    with pytest.raises(SizeCapExceeded):
        truncate(fig1(), 16, size_cap=100)


def test_truncation_connected_and_validated():
    # validity of every truncation is part of the contract: build_tree would
    # reject a disconnected or mislabeled result
    tree, _ = truncate(fig10(), 7)
    assert len(tree.edges) == len(tree.vertices) - 1


def materialize_oracle(node, budget, forced):
    """Bottom-up materialization: each constructor returns its vertices and
    edges under local addresses, and every enclosing gluing and scale
    rebuilds them with its prefix or factor."""
    if isinstance(node, Finite):
        verts = {(("vertex", v),): node.tree.labels[v] for v in node.tree.vertices}
        edges = {((("vertex", u),), (("vertex", v),)) for u, v in node.tree.edges}
        return verts, edges
    if isinstance(node, Ray):
        top = budget
        for addr in forced:
            if addr and addr[0][0] == "ray":
                top = max(top, addr[0][1])
        verts = {(("ray", n),): node.labels.term(n) for n in range(1, top + 1)}
        edges = {
            ((("ray", n),), (("ray", n + 1),)) for n in range(1, top)
        }
        return verts, edges
    if isinstance(node, Star):
        leaf_idx = set(range(1, budget + 1))
        for addr in forced:
            if addr and addr[0][0] == "leaf":
                leaf_idx.add(addr[0][1])
        center = _concrete(node.center_label, "center label")
        verts = {(("center",),): center}
        edges = set()
        for k in sorted(leaf_idx):
            verts[(("leaf", k),)] = node.leaf_labels.term(k)
            edges.add(((("center",),), (("leaf", k),)))
        return verts, edges
    if isinstance(node, GlueFinite):
        base_forced = {a[1:] for a in forced if a and a[0] == ("base",)}
        part_forced = {}
        for a in forced:
            if a and a[0][0] == "attach":
                part_forced.setdefault(a[0][1], set()).add(a[1:])
        for att in node.attachments:
            base_forced.add(att.site)
        bverts, bedges = materialize_oracle(node.base, budget, base_forced)
        verts = {(("base",),) + a: lab for a, lab in bverts.items()}
        edges = {
            ((("base",),) + a, (("base",),) + b) for a, b in bedges
        }
        for i, att in enumerate(node.attachments):
            pf = part_forced.get(i, set()) | {att.shared}
            pverts, pedges = materialize_oracle(att.part, budget, pf)
            if att.shared not in pverts:
                raise UnknownVertex(format_address(att.shared))
            canon = (("base",),) + att.site

            def rename(a, canon=canon, shared=att.shared, i=i):
                return canon if a == shared else (("attach", i),) + a

            share_lab = pverts[att.shared]
            if verts[canon] != share_lab:
                raise GlueLabelMismatch(
                    format_address(canon), verts[canon], share_lab
                )
            for a, lab in pverts.items():
                if a != att.shared:
                    verts[rename(a)] = lab
            for a, b in pedges:
                edges.add((rename(a), rename(b)))
        return verts, edges
    if isinstance(node, GlueFamily):
        base_forced = {a[1:] for a in forced if a and a[0] == ("base",)}
        member_forced = {}
        for a in forced:
            if a and a[0][0] == "member":
                member_forced.setdefault(a[0][1], set()).add(a[1:])
        members = set(member_forced)
        for m in range(1, budget + 1):
            members.add(m)
        for m in sorted(member_forced):
            base_forced.add((site_base_step(node, m),))
        bverts, bedges = materialize_oracle(node.base, budget, base_forced)
        verts = {(("base",),) + a: lab for a, lab in bverts.items()}
        edges = {((("base",),) + a, (("base",),) + b) for a, b in bedges}
        for m in sorted(members):
            site_addr = (site_base_step(node, m),)
            canon = (("base",),) + site_addr
            if m not in member_forced and canon not in verts:
                continue
            member = instantiate(node, m)
            if sup_labels(member) > node.envelope.term(m):
                raise InvalidDeclaration(
                    f"envelope does not dominate member {m}"
                )
            mf = member_forced.get(m, set()) | {node.shared}
            pverts, pedges = materialize_oracle(member, budget, mf)
            if node.shared not in pverts:
                raise UnknownVertex(format_address(node.shared))
            share_lab = pverts[node.shared]
            if verts.get(canon, share_lab) != share_lab:
                raise GlueLabelMismatch(
                    f"member:{m} at {format_address(canon)}",
                    verts[canon],
                    share_lab,
                )

            def rename(a, canon=canon, shared=node.shared, m=m):
                return canon if a == shared else (("member", m),) + a

            for a, lab in pverts.items():
                if a != node.shared:
                    verts[rename(a)] = lab
            for a, b in pedges:
                edges.add((rename(a), rename(b)))
        return verts, edges
    if isinstance(node, ScaledLabels):
        factor = _concrete(node.factor, "scale factor")
        verts, edges = materialize_oracle(node.inner, budget, forced)
        return {a: factor * lab for a, lab in verts.items()}, edges
    raise InvalidDeclaration(f"unknown constructor {type(node).__name__}")


def truncate_oracle(node, budget):
    """``truncate`` assembled from ``materialize_oracle``."""
    verts, edges = materialize_oracle(node, budget, set())
    ids = {addr: format_address(addr) for addr in verts}
    tree = build_tree(
        sorted(ids.values()),
        [(ids[a], ids[b]) for a, b in sorted(edges)],
        {ids[a]: lab for a, lab in verts.items()},
    )
    return tree, {ids[a]: ids[a] for a in sorted(verts)}


def _ordered(truncation):
    tree, addr_map = truncation
    return tree, list(addr_map.items())


def _truncation_or_error(truncation, node, budget):
    try:
        return _ordered(truncation(node, budget))
    except UltraTreeError as exc:
        return type(exc).__name__, str(exc)


def _glue(base, site, part, shared):
    return GlueFinite(base, (Attachment(parse_address(site), part, parse_address(shared)),))


def _edge(u, lu, v, lv):
    return Finite(build_tree([u, v], [(u, v)], {u: lu, v: lv}))


GOLDEN_DOCS = [
    e["doc"]
    for e in json.loads(
        (Path(__file__).with_name("data") / "symbolic_golden.json").read_text(encoding="utf-8")
    )
]
# documents truncate refuses: built without validation
REFUSED = [
    ScaledLabels(_glue(_edge("a", F(1), "b", F(0)), "vertex:a",
                       _edge("a", F(2), "c", F(1, 2)), "vertex:a"), F(3)),
    ScaledLabels(GlueFamily(base=Ray(Const(1)), sites="all", template=Star(F(1, 2), Harmonic(1)),
                            shared=(("center",),), envelope=Const(1)), F(1, 2)),
    GlueFamily(base=Ray(Const(1)), sites="all", template=Star(Ref("site_label"), Const(1)),
               shared=(("center",),), envelope=Harmonic(1)),
    ScaledLabels(Star(F(0), Harmonic(1)), Ref("envelope")),
]


def test_truncate_matches_materialize_oracle():
    nodes = [symbolic_from_json(doc, validate=False) for doc in GOLDEN_DOCS] + REFUSED
    refused = 0
    for node in nodes:
        for budget in range(1, 9):
            want = _truncation_or_error(truncate_oracle, node, budget)
            got = _truncation_or_error(truncate, node, budget)
            assert got == want, (symbolic_to_json(node), budget)
            refused += isinstance(want[0], str)
    assert refused > 30


# vertex:c of the part is merged into base/vertex:b
_INNER = _glue(_edge("b", F(1, 2), "x", F(0)), "vertex:b", _edge("c", F(1, 2), "y", F(1, 4)), "vertex:c")


@pytest.mark.parametrize("base, site, canonical_site, part", [
    (_INNER, "attach:0/vertex:c", "base/vertex:b", Star(F(1, 2), Harmonic(F(1, 4)))),
    (GlueFamily(base=Ray(Modulated(2, (Harmonic(1), Const(0)))), sites="even",
                template=_edge("a", F(0), "z", F(1)), shared=(("vertex", "a"),),
                envelope=Const(1)),
     "member:2/vertex:a", "base/ray:4", Star(F(0), Harmonic(1))),
])
def test_truncate_glues_at_a_site_named_by_a_non_canonical_copy(base, site, canonical_site, part):
    doc = _glue(base, site, part, "center")
    validate_symbolic(doc)
    for budget in (1, 2, 3):
        assert _ordered(truncate(doc, budget)) == _ordered(
            truncate(_glue(base, canonical_site, part, "center"), budget)
        )


def test_truncate_glues_a_shared_vertex_named_by_a_non_canonical_copy():
    doc = _glue(Ray(Const(F(1, 2))), "ray:2", _INNER, "attach:0/vertex:c")
    validate_symbolic(doc)
    for budget in (1, 2, 3):
        assert _ordered(truncate(doc, budget)) == _ordered(
            truncate(_glue(Ray(Const(F(1, 2))), "ray:2", _INNER, "base/vertex:b"), budget)
        )


def _fields(tree):
    """A tree's fields with the label order made visible."""
    return tree.vertices, tree.edges, list(tree.labels.items())


@pytest.fixture
def freezes(monkeypatch):
    """Every ``_freeze`` call made while the test runs, as (calling
    function, inputs, output)."""
    freeze, calls = core_tree._freeze, []

    def recording(vertices, edges, labels):
        vertices, edges = list(vertices), list(edges)
        tree = freeze(vertices, edges, labels)
        calls.append((sys._getframe(1).f_code.co_name, (vertices, edges, labels), tree))
        return tree

    for module in (core_tree, finite_space, symbolic, witness):
        monkeypatch.setattr(module, "_freeze", recording)
    return calls


def test_freeze_matches_build_tree_for_every_producer(freezes):
    """The producers that skip validation hand ``_freeze`` only inputs that
    ``build_tree`` accepts, and get the tree it would return."""
    rng = random.Random(1729)
    for n in (1, 2, 7, 40):
        tree = random_nondegenerate_tree(rng, n)
        for _ in range(3):
            hull(tree, rng.sample(tree.vertices, rng.randint(1, min(n, 4))))
        representable(distance_matrix(tree))
    for doc in GOLDEN_DOCS:
        node = symbolic_from_json(doc, validate=False)
        for produce in (compact_labeling_witness, discrete_tb_labeling_witness,
                        lambda x: truncate(x, 2), lambda x: truncate(x, 12)):
            try:
                produce(node)
            except UltraTreeError:
                pass
    producers = {caller for caller, _, _ in freezes}
    assert producers >= {
        "restrict", "_witness", "truncate", "_relabel",
    }
    for caller, (vertices, edges, labels), tree in list(freezes):
        assert list(tree.labels) == vertices, caller
        assert _fields(build_tree(vertices, edges, labels)) == _fields(tree), caller


def test_ref_free_family_path_matches_the_instantiate_path(monkeypatch):
    """A template without free refs is every member: truncate walks it
    without instantiating any member, and forcing one instantiation per
    member (every template treated as holding refs and as more than one
    piece) gives the same tree, label order and address map, or error."""
    nodes = [symbolic_from_json(doc, validate=False) for doc in GOLDEN_DOCS] + REFUSED
    instantiated = []
    real = symbolic.instantiate
    monkeypatch.setattr(symbolic, "instantiate", lambda fam, m: instantiated.append(fam) or real(fam, m))

    def run(node, budget):
        try:
            tree, addr_map = truncate(node, budget)
        except UltraTreeError as exc:
            return type(exc).__name__, str(exc)
        return _fields(tree), list(addr_map.items())

    fast = [run(node, b) for node in nodes for b in range(1, 9)]
    has_free_refs = symbolic._node_has_free_refs
    assert instantiated
    assert all(has_free_refs(fam.template) for fam in instantiated)
    instantiated.clear()
    monkeypatch.setattr(symbolic, "_node_has_free_refs", lambda node: True)
    monkeypatch.setattr(symbolic, "_bound", lambda *args: None)
    assert [run(node, b) for node in nodes for b in range(1, 9)] == fast
    assert sum(not has_free_refs(fam.template) for fam in instantiated) > 100


def test_ref_free_family_envelope_checked_at_every_member():
    """The template's supremum is found once, but each member's envelope
    value is still compared with it."""
    fam = GlueFamily(base=Ray(Const(1)), sites="all", template=Star(F(1), Const(F(1, 2))),
                     shared=(("center",),), envelope=Harmonic(2))
    assert len(truncate(fam, 2)[0]) == 2 + 2 * 2
    with pytest.raises(InvalidDeclaration, match=r"^envelope does not dominate member 3$"):
        truncate(fam, 3)


# a ref-free template that is one piece: the first member is walked, and
# each later member adds its name to that member's record

_EVEN_ZERO = Ray(Modulated(2, (Harmonic(1), Const(0))))  # zero at the even sites
_PAIR = _edge("a", F(0), "b", F(1, 2))


def _family(template, shared, base=_EVEN_ZERO, sites="even", envelope=Const(1)):
    return GlueFamily(base=base, sites=sites, template=template,
                      shared=parse_address(shared), envelope=envelope)


REF_FREE_TEMPLATES = [
    (_PAIR, "vertex:a"),
    (Ray(Modulated(2, (Const(0), Harmonic(F(1, 2))))), "ray:1"),
    (Ray(Modulated(2, (Harmonic(F(1, 2)), Const(0)))), "ray:2"),
    (Star(F(0), Geometric(F(1, 2), F(1, 2))), "center"),
    (Star(F(1, 3), Modulated(2, (Const(0), Harmonic(F(1, 3))))), "leaf:1"),
    (ScaledLabels(Star(F(0), Harmonic(1)), F(1, 3)), "center"),
]
REF_FREE_BASES = [
    (_EVEN_ZERO, "even"),
    (Ray(Modulated(2, (Const(0), Harmonic(1)))), "odd"),
    (Ray(Const(0)), "all"),
    (Star(F(1), Const(0)), "leaves"),
]


def _matches_oracle(node, budgets=range(1, 8)):
    for budget in budgets:
        want = _truncation_or_error(truncate_oracle, node, budget)
        assert _truncation_or_error(truncate, node, budget) == want, (symbolic_to_json(node), budget)


@pytest.mark.parametrize("template, shared", REF_FREE_TEMPLATES,
                         ids=lambda x: getattr(x, "kind", x))
def test_ref_free_members_extend_one_record(monkeypatch, template, shared):
    """Finite, ray, star and scaled star templates on every site selector,
    alone and under a ``scaled`` node, agree with the oracle; the walk
    enters the family, its base and the first member only."""
    walked = []
    walk = symbolic._walk
    monkeypatch.setattr(symbolic, "_walk", lambda node, *rest: walked.append(node) or walk(node, *rest))
    for base, sites in REF_FREE_BASES:
        fam = _family(template, shared, base, sites)
        validate_symbolic(fam)
        for node in (fam, ScaledLabels(fam, F(5, 2))):
            _matches_oracle(node)
            walked.clear()
            truncate(node, 6)
            assert len(walked) == 3


@pytest.mark.parametrize("sites", [
    ("member:2/vertex:b",),
    ("member:9/vertex:b",),
    ("member:1/vertex:b", "member:3/vertex:b", "member:12/vertex:b"),
])
def test_ref_free_members_pinned_by_a_gluing(sites):
    """A gluing that names a vertex inside a member, within the budget or
    beyond it, walks that member on its own and splits the others' record
    around it."""
    part = _edge("c", F(1, 2), "d", F(1, 5))
    atts = tuple(Attachment(parse_address(s), part, (("vertex", "c"),)) for s in sites)
    doc = GlueFinite(_family(_PAIR, "vertex:a"), atts)
    validate_symbolic(doc)
    _matches_oracle(doc)
    # a ray template forced past the budget inside one member
    ray = _family(REF_FREE_TEMPLATES[1][0], "ray:1")
    _matches_oracle(_glue(ray, "member:3/ray:6", part, "vertex:c"), range(1, 5))
    # the family glued as a part by the site of its member 2: that member's
    # shared copy merges into the outer base's vertex
    _matches_oracle(_glue(_EVEN_ZERO, "ray:2", _family(_PAIR, "vertex:a"), "base/ray:4"))


def test_ref_free_family_nested_in_a_template():
    inner = _family(_edge("a", F(0), "b", F(1, 4)), "vertex:a",
                             base=Ray(Modulated(2, (Const(0), Harmonic(F(1, 2))))), sites="odd",
                             envelope=Const(F(1, 2)))
    outer = _family(inner, "base/ray:1")
    validate_symbolic(outer)
    _matches_oracle(outer, range(1, 6))
    # the outer template with a ref: each outer member is instantiated, and
    # its inner family still has a ref-free template
    scaled = ScaledLabels(inner, Ref("envelope"))
    _matches_oracle(_family(scaled, "base/ray:1", envelope=Harmonic(2)), range(1, 6))


def test_ref_free_members_refused_where_the_oracle_refuses():
    """An envelope that drops below the template's sup at member 3, and a
    base whose site label stops matching at member 3, are refused at
    member 3 as the oracle refuses them."""
    drops = _family(_PAIR, "vertex:a", envelope=Harmonic(1))
    _matches_oracle(drops, range(1, 9))
    with pytest.raises(InvalidDeclaration, match=r"^envelope does not dominate member 3$"):
        truncate(drops, 6)
    assert len(truncate(drops, 5)[0]) == 5 + 2
    mismatch = _family(_PAIR, "vertex:a", base=Ray(Modulated(3, (Const(0), Const(0), Harmonic(1)))),
                                sites="all")
    _matches_oracle(mismatch, range(1, 9))
    with pytest.raises(GlueLabelMismatch, match=r"^glued labels differ at member:3 at base/ray:3: "):
        truncate(mismatch, 3)


# a template that is one piece and holds refs: no member is built, the
# members' refs are bound into the template, and the first member's record
# is extended by the others with their own label lists

REF_TEMPLATES = [
    (Star(Ref("site_label"), Harmonic(Ref("envelope"))), "center"),
    (Ray(Geometric(Ref("site_label"), Ref("envelope"))), "ray:1"),
    (Ray(Modulated(2, (Harmonic(Ref("envelope")), Const(Ref("site_label"))))), "ray:2"),
    (ScaledLabels(Star(F(1), Harmonic(F(1, 3))), Ref("site_label")), "center"),
    (ScaledLabels(_edge("a", F(1), "b", F(1, 2)), Ref("site_label")), "vertex:a"),
]
# site labels 1/(4n) at base index n >= m stay below the envelope 1/(2m)
REF_BASES = [
    (Ray(Harmonic(F(1, 4))), "all"),
    (Ray(Harmonic(F(1, 4))), "even"),
    (Ray(Harmonic(F(1, 4))), "odd"),
    (Star(F(1), Harmonic(F(1, 4))), "leaves"),
]


@pytest.fixture
def instantiated(monkeypatch):
    """The members ``symbolic.instantiate`` builds while the test runs."""
    made, real = [], symbolic.instantiate
    monkeypatch.setattr(symbolic, "instantiate", lambda fam, m: made.append(m) or real(fam, m))
    return made


@pytest.mark.parametrize("template, shared", REF_TEMPLATES, ids=lambda x: getattr(x, "kind", x))
def test_ref_members_bind_into_one_record(monkeypatch, instantiated, template, shared):
    """Star, geometric, ray and scaled templates with refs on every site
    selector, alone and under a ``scaled`` node, agree with the oracle;
    neither validation nor truncation instantiates a member, and the walk
    enters the family, its base and the first member only."""
    walked = []
    walk = symbolic._walk
    monkeypatch.setattr(symbolic, "_walk", lambda node, *rest: walked.append(node) or walk(node, *rest))
    for base, sites in REF_BASES:
        fam = _family(template, shared, base, sites, envelope=Harmonic(F(1, 2)))
        validate_symbolic(fam)
        for node in (fam, ScaledLabels(fam, F(5, 2))):
            _matches_oracle(node)
            walked.clear()
            truncate(node, 6)
            assert len(walked) == 3
        assert instantiated == []


def test_ref_members_visited_only_where_the_base_keeps_their_site(monkeypatch):
    """fig10's members sit at the even vertices of its ray: at budget 10 the
    base keeps ray:1..10, so only members 1..5 are bound and cut."""
    bound = []
    real = symbolic._bound
    monkeypatch.setattr(symbolic, "_bound", lambda *args: bound.append(args[1]) or real(*args))
    tree, _ = truncate(fig10(), 10)
    assert len(bound) == 5 and len(tree) == 10 + 5 * 10


# members past the 16 that validation spot-checks, and past the window:
# truncate refuses them at the first failing member
_LATE_REFUSALS = [
    # the envelope 1/m drops below a leaf label 1/20 at member 21
    (GlueFamily(base=Ray(Const(0)), sites="all", template=Star(Ref("site_label"), Const(F(1, 20))),
                shared=(("center",),), envelope=Harmonic(1)),
     21, InvalidDeclaration, "envelope does not dominate member 21"),
    # every 20th site is labeled 1/2, the member's center (its envelope value) 1
    (GlueFamily(base=Ray(Modulated(20, (*[Const(1)] * 19, Const(F(1, 2))))), sites="all",
                template=Star(Ref("envelope"), Const(0)), shared=(("center",),), envelope=Const(1)),
     20, GlueLabelMismatch, "glued labels differ at member:20 at base/ray:20: base has 1/2, part has 1"),
]


@pytest.mark.parametrize("fam, member, error, message", _LATE_REFUSALS, ids=["dominance", "glue"])
def test_ref_members_refused_past_the_spot_check(instantiated, fam, member, error, message):
    validate_symbolic(fam)
    assert len(truncate(fam, member - 1)[0]) > member
    for budget in (member, member + 3):
        with pytest.raises(error) as e:
            truncate(fam, budget)
        assert str(e.value) == message
    _matches_oracle(fam, (member - 1, member))
    assert instantiated == []


def test_ref_free_members_meet_the_cap_where_the_walk_per_member_does(monkeypatch):
    """Also with refs, and with a shared vertex past the budget, which makes
    each member keep more vertices than the walk's first check counts."""
    far = (*[Harmonic(Ref("envelope"))] * 8, Const(Ref("site_label")))
    nodes = [_family(t, s) for t, s in REF_FREE_TEMPLATES] + [
        _family(Ray(Modulated(9, (*[Harmonic(F(1, 2))] * 8, Const(0)))), "ray:9"),
        *(_family(t, s, *REF_BASES[0], envelope=Harmonic(F(1, 2)))
          for t, s in [*REF_TEMPLATES, (Ray(Modulated(9, far)), "ray:9")]),
    ]

    def refusals():
        out = []
        for node in nodes:
            for cap in range(1, 40):
                try:
                    out.append(len(truncate(node, 6, size_cap=cap)[0]))
                except SizeCapExceeded as exc:
                    out.append(str(exc))
        return out

    record = refusals()
    assert sum(isinstance(x, str) for x in record) > 160
    monkeypatch.setattr(symbolic, "_node_has_free_refs", lambda node: True)
    monkeypatch.setattr(symbolic, "_bound", lambda *args: None)
    assert refusals() == record


# seeded random documents against the oracle

_VALUES = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2))
_FACTORS = (F(2), F(1, 3), F(5, 2))


def _random_seq(rng, refs=False, depth=0):
    """A sequence of any kind, nested ``modulated`` included; with ``refs``
    its parameters may name the member's site label or envelope."""
    kinds = ["const", "finite_support", "harmonic", "geometric", "prime_recip", "custom"]
    kind = rng.choice(kinds + ["modulated"] * (depth < 2))

    def val():
        if refs and rng.random() < 0.5:
            return Ref(rng.choice(("site_label", "envelope")), rng.choice((F(1), F(1, 2))))
        return rng.choice(_VALUES)

    if kind == "const":
        return Const(val())
    if kind == "harmonic":
        return Harmonic(val())
    if kind == "prime_recip":
        return PrimeRecip(val())
    if kind == "geometric":
        return Geometric(val(), rng.choice((F(1, 2), F(2, 3))))
    if kind == "finite_support":
        return FiniteSupport(tuple(rng.choice(_VALUES) for _ in range(rng.randint(0, 4))))
    if kind == "custom":
        prefix = tuple(rng.choice((F(0), F(1, 4), F(1, 2))) for _ in range(rng.randint(0, 3)))
        liminf = rng.choice((F(0), F(1, 4)))
        return Custom(prefix, rng.choice((F(1, 2), F(1))), liminf, min((*prefix, liminf)), False)
    period = rng.randint(1, 3)
    return Modulated(period, tuple(_random_seq(rng, refs, depth + 1) for _ in range(period)))


def _random_piece(rng):
    r = rng.random()
    if r < 0.4:
        return Ray(_random_seq(rng))
    if r < 0.8:
        return Star(rng.choice(_VALUES), _random_seq(rng))
    names = ["a", "b", "c"][: rng.randint(1, 3)]
    return Finite(build_tree(names, list(zip(names, names[1:])),
                             {v: rng.choice(_VALUES) for v in names}))


def _some_addresses(node):
    """Addresses of a few vertices of ``node``: those of a small truncation
    (refs bound to sample values), else its default shared vertex."""
    try:
        _, addr_map = truncate(symbolic.substitute_node(node, {"site_label": F(1, 2), "envelope": F(1)}), 2)
        return [parse_address(a) for a in addr_map]
    except UltraTreeError:
        return [symbolic.default_shared(node)]


def _matching_part(rng, node, site):
    """An edge whose shared vertex ``vertex:s`` carries the label of
    ``node`` at ``site`` when that label is concrete, else a random one."""
    try:
        label = label_at(node, site)
    except UltraTreeError:
        label = rng.choice(_VALUES)
    return Finite(build_tree(["s", "t"], [("s", "t")], {"s": label, "t": rng.choice(_VALUES)}))


def _random_family(rng, depth):
    if rng.random() < 0.5:  # a template with refs: it matches every site
        base = Ray(_random_seq(rng)) if rng.random() < 0.5 else Star(rng.choice(_VALUES), _random_seq(rng))
        sites = "leaves" if isinstance(base, Star) else rng.choice(("all", "even", "odd"))
        template, shared = rng.choice((
            lambda: (Star(Ref("site_label"), _random_seq(rng, True)), "center"),
            lambda: (Ray(Geometric(Ref("site_label"), F(1, 2))), "ray:1"),
            # one Finite object under a different factor in every member
            lambda: (ScaledLabels(_edge("a", F(1), "b", F(1, 2)), Ref("site_label")), "vertex:a"),
            lambda: (_glue(Star(Ref("site_label"), Const(Ref("envelope"))), "leaf:1",
                           Star(Ref("envelope"), Harmonic(1)), "center"), "base/center"),
        ))()
    else:  # a template without refs on sites that all carry its label
        c = rng.choice((F(0), F(1, 2)))
        base, sites = rng.choice((
            (Ray(Const(c)), rng.choice(("all", "even", "odd"))),
            (Ray(Modulated(2, (Harmonic(1), Const(c)))), "even"),
            (Star(F(0), Const(c)), "leaves"),
        ))
        template, shared = rng.choice((
            lambda: (Finite(build_tree(["a", "b"], [("a", "b")], {"a": c, "b": F(1)})), "vertex:a"),
            lambda: (Star(c, _random_seq(rng)), "center"),
            lambda: (_glue(Star(c, Harmonic(1)), "leaf:1", Ray(Harmonic(1)), "ray:1"), "base/center"),
            lambda: (lambda t: (t, symbolic.format_address(rng.choice(_some_addresses(t)))))(
                _random_node(rng, depth - 1)),
        ))()
    envelope = Harmonic(F(3)) if rng.random() < 0.2 else Const(F(4))
    return GlueFamily(base=base, sites=sites, template=template,
                      shared=parse_address(shared), envelope=envelope)


def _random_node(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return _random_piece(rng)
    if r < 0.4:
        return ScaledLabels(_random_node(rng, depth - 1), rng.choice(_FACTORS))
    if r < 0.75:
        base = _random_node(rng, depth - 1)
        if rng.random() < 0.5:  # pin members past any budget tried below
            base = _random_family(rng, depth - 1)
        attachments = []
        for _ in range(rng.randint(1, 2)):
            site = rng.choice(_some_addresses(base))
            if isinstance(base, GlueFamily) and rng.random() < 0.7:
                m = rng.randint(5, 9)
                try:
                    inner = rng.choice(_some_addresses(instantiate(base, m)))
                    # the oracle takes canonical addresses only
                    site = symbolic.canonical(base, (("member", m),) + inner)
                except UltraTreeError:
                    pass  # a member that cannot be built (a zero scale factor)
            if rng.random() < 0.6:
                part, shared = _matching_part(rng, base, site), (("vertex", "s"),)
            else:
                part = _random_node(rng, depth - 1)
                shared = rng.choice(_some_addresses(part))
            attachments.append(Attachment(site, part, shared))
        return GlueFinite(base, tuple(attachments))
    return _random_family(rng, depth)


def test_truncate_matches_oracle_on_random_documents():
    """Seeded random documents: scaled pieces of every sequence kind, glue
    nested in gluings, families with and without refs in their templates,
    and members pinned past the budget by a gluing that names them."""
    rng = random.Random(8128)
    answered = refused = pinned = ref_free = with_refs = 0
    for _ in range(160):
        node = _random_node(rng, 3)
        for _, fam in symbolic.walk_constructors(node):
            if isinstance(fam, GlueFamily):
                if symbolic._node_has_free_refs(fam.template):
                    with_refs += 1
                else:
                    ref_free += 1
        for budget in (1, 2, 4):
            want = _truncation_or_error(truncate_oracle, node, budget)
            got = _truncation_or_error(truncate, node, budget)
            assert got == want, (symbolic_to_json(node), budget)
            if isinstance(want[0], str):
                refused += 1
            else:
                answered += 1
                pinned += any(f"member:{m}/" in v for v in want[0].vertices for m in range(5, 10))
    print(f"random documents: {answered} answered, {refused} refused, "
          f"{pinned} with pinned members, families {ref_free} ref-free, {with_refs} with refs")
    assert answered > 250 and refused > 60 and pinned > 20
    assert ref_free > 20 and with_refs > 20


@pytest.mark.parametrize("seq", [
    Const(F(3, 2)), FiniteSupport((F(1), F(0), F(1, 3))), Harmonic(F(2, 3)),
    Geometric(3, F(2, 5)), PrimeRecip(F(7, 2)),
    Custom((F(1, 2), F(1)), F(1), F(1, 3), F(1, 3), False),
    Modulated(2, (Modulated(3, (PrimeRecip(1), Const(0), Harmonic(2))), Geometric(1, F(1, 2)))),
], ids=lambda s: s.kind)
def test_truncate_scales_rays_and_stars_of_every_kind(seq):
    """A ``scaled`` factor folded into the sequence gives the labels the
    oracle gets by multiplying each one, under one or two factors."""
    for node in (Ray(seq), Star(F(1, 2), seq), _glue(Star(F(0), seq), "leaf:3", Ray(seq), "ray:5")):
        for factors in ((F(2),), (F(1, 3), F(5, 2))):
            scaled = node
            for f in factors:
                scaled = ScaledLabels(scaled, f)
            for budget in (1, 3, 7):
                assert (_truncation_or_error(truncate, scaled, budget)
                        == _truncation_or_error(truncate_oracle, scaled, budget))


def test_truncate_names_a_vertex_glued_at_two_levels_once():
    """The inner gluing's site is the copy the outer gluing merges away, so
    the star glued there hangs off the outer base's ray vertex."""
    inner = _glue(_edge("x", F(1, 2), "u", F(1)), "vertex:x", Star(F(1, 2), Harmonic(1)), "center")
    for outer in (_glue(Ray(Const(F(1, 2))), "ray:2", inner, "base/vertex:x"),
                  ScaledLabels(_glue(Star(F(0), Const(F(1, 2))), "leaf:3", inner, "base/vertex:x"), F(3))):
        for budget in (1, 2, 4):
            tree, addr_map = got = truncate(outer, budget)
            assert _ordered(got) == _ordered(truncate_oracle(outer, budget))
            assert build_tree(tree.vertices, tree.edges, tree.labels) == tree
            assert not any("vertex:x" in v or "attach:0/center" in v for v in addr_map)


def test_truncate_cap_counts_kept_vertices_only():
    """The count the cap is checked against leaves out each part's copy of a
    glued vertex: fig. 10 at budget 8 has 40 vertices, its base ray 8 and
    every member star 8 more besides its glued center."""
    assert len(truncate(fig10(), 8, size_cap=40)[0].vertices) == 40
    with pytest.raises(SizeCapExceeded, match=r"size 40 exceeds cap 39$"):
        truncate(fig10(), 8, size_cap=39)
    with pytest.raises(SizeCapExceeded, match=r"size 16 exceeds cap 12$"):
        truncate(fig10(), 8, size_cap=12)


def test_truncate_refuses_past_the_cap_as_soon_as_it_is_passed():
    """Fig. 1 at budget 2000 holds about four million vertices; the cap is
    checked as pieces are cut, so the refusal comes within seconds and
    names a lower bound."""
    budget = 10.0
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded, match=r"^truncation \(vertices, lower bound\) size \d+ exceeds cap 200000$") as err:
        truncate(fig1(), 2000)
    took = time.perf_counter() - start
    print(f"truncate fig1 at budget 2000: refused in {took:.2f}s of {budget:.0f}s")
    assert err.value.size <= 200_000 + 2001
    assert took < budget


def test_truncate_refuses_a_ray_or_star_past_the_cap_before_cutting_it(monkeypatch):
    monkeypatch.setattr(symbolic, "_piece", lambda *args: pytest.fail("cut past the cap"))
    for node in (Ray(Harmonic(1)), ScaledLabels(Star(F(0), PrimeRecip(1)), F(2))):
        with pytest.raises(SizeCapExceeded, match=r"size 100000000[01] exceeds cap 200000$"):
            truncate(node, 10**9)


# ---------------------------------------------------------------------------
# symbolic counting


def test_count_frozen_values():
    fam10, fam1 = fig10(), fig1()
    got10 = {e: count_vertices_geq(fam10, e)
             for e in (F(1, 2), F(1, 3), F(1, 5), F(1, 7))}
    assert got10 == {F(1, 2): 3, F(1, 3): 4, F(1, 5): 8, F(1, 7): 12}
    got1 = {e: count_vertices_geq(fam1, e)
            for e in (F(1, 2), F(1, 3), F(1, 5), F(1, 7))}
    assert got1 == {F(1, 2): 1, F(1, 3): 2, F(1, 5): 4, F(1, 7): 5}


def test_count_matches_truncation_at_certificate_bound():
    """Past the exceedance bound the truncated count equals the symbolic
    count and stays there; below it the count can only be smaller."""
    for fam in (fig10(), fig1()):
        for eps in (F(1, 2), F(1, 4), F(1, 7)):
            want = count_vertices_geq(fam, eps)
            bound = exceedance_bound(fam, eps)
            assert want is not INFINITE and bound is not INFINITE
            assert brute_count(fam, eps, bound) == want
            assert brute_count(fam, eps, bound + 3) == want
            smaller = brute_count(fam, eps, max(1, bound - 2))
            assert smaller <= want


def test_count_infinite_cases():
    assert count_vertices_geq(Ray(Const(1)), F(1, 2)) is INFINITE
    assert count_vertices_geq(Star(F(0), Const(1)), F(1)) is INFINITE
    assert exceedance_bound(Ray(Const(1)), F(1, 2)) is INFINITE
    assert count_vertices_geq(Ray(Const(1)), F(3, 2)) == 0
    assert count_vertices_geq(Star(F(1), Harmonic(1)), F(1)) == 2


def test_count_rays_and_stars_without_listing_their_vertices():
    """A ray or star piece is counted from its sequence's (count, last
    index): ``harmonic(10**12)`` has 4 * 10**12 labels >= 1/4, which no
    list of indices would hold."""
    budget = 1.0
    n = 4 * 10**12
    start = time.perf_counter()
    for node, count, bound in (
        (Ray(Harmonic(10**12)), n, n),
        (Star(F(1), Harmonic(10**12)), n + 1, n),
        (Ray(Modulated(2, (Const(0), Harmonic(10**12)))), n, 2 * n),
        (ScaledLabels(Ray(Harmonic(10**11)), F(10)), n, n),
    ):
        assert count_vertices_geq(node, F(1, 4)) == count
        assert exceedance_bound(node, F(1, 4)) == bound
    took = time.perf_counter() - start
    print(f"count and bound of harmonic(10**12) at eps 1/4: {took:.4f}s of {budget:.0f}s")
    assert took < budget


def test_count_scales_with_labels():
    inner = Star(F(1), Harmonic(1))
    assert count_vertices_geq(ScaledLabels(inner, F(1, 2)), F(1, 2)) == 2
    assert count_vertices_geq(ScaledLabels(inner, F(2)), F(2)) == 2


def test_count_loose_envelope_exact():
    """A non-vanishing envelope over members whose actual labels vanish must
    not be counted as infinite (regression: the envelope is only an upper
    bound, the count is about actual labels)."""
    fam = GlueFamily(
        base=Ray(Harmonic(1)), sites="all",
        template=Star(Ref("site_label"), Geometric(Ref("site_label"), F(1, 2))),
        shared=(("center",),), envelope=Const(1),
    )
    validate_symbolic(fam)
    for eps in (F(1), F(1, 2), F(1, 3), F(1, 8), F(2, 3), F(3, 2)):
        got = count_vertices_geq(fam, eps)
        bound = exceedance_bound(fam, eps)
        assert got is not INFINITE and bound is not INFINITE
        assert got == brute_count(fam, eps, max(bound, 4) + 8)


def test_count_loose_envelope_genuinely_infinite():
    # leaf 1 equals the site label, which is constantly 1
    fam = GlueFamily(
        base=Ray(Const(1)), sites="all",
        template=Star(Ref("site_label"), Geometric(Ref("site_label"), F(1, 2))),
        shared=(("center",),), envelope=Const(1),
    )
    validate_symbolic(fam)
    assert count_vertices_geq(fam, F(1, 4)) is INFINITE
    assert exceedance_bound(fam, F(1, 4)) is INFINITE


def test_count_loose_envelope_alternating_tail():
    # envelope alternates 1/2, 1/4 forever; leaves track half the envelope
    env = Custom(("1/2",), F(1, 2), F(1, 4), F(1, 4), False)
    fam = GlueFamily(
        base=Ray(Harmonic(F(1, 2))), sites="all",
        template=Star(Ref("site_label"), Geometric(Ref("envelope", F(1, 2)), F(1, 2))),
        shared=(("center",),), envelope=env,
    )
    validate_symbolic(fam)
    # half the envelope lives in {1/4, 1/8} forever: 1/8 is reached i.o.
    assert count_vertices_geq(fam, F(1, 8)) is INFINITE
    got = count_vertices_geq(fam, F(1, 3))
    bound = exceedance_bound(fam, F(1, 3))
    assert got == brute_count(fam, F(1, 3), max(bound, 4) + 8)


def test_count_loose_envelope_modulated_site_classes():
    # odd members shrink harmonically, even members sit at 1/5 forever
    fam = GlueFamily(
        base=Ray(Modulated(2, (Harmonic(1), Const(F(1, 5))))), sites="all",
        template=Star(Ref("site_label"), Harmonic(Ref("site_label"))),
        shared=(("center",),), envelope=Const(1),
    )
    validate_symbolic(fam)
    assert count_vertices_geq(fam, F(1, 5)) is INFINITE
    got = count_vertices_geq(fam, F(1, 4))
    bound = exceedance_bound(fam, F(1, 4))
    assert got is not INFINITE
    assert got == brute_count(fam, F(1, 4), max(bound, 4) + 10)


def test_count_loose_envelope_shared_leaf_excluded():
    # template glued by its first leaf: the biggest non-shared label is the
    # second leaf, site^2, so members stop contributing once site^2 < eps
    fam = GlueFamily(
        base=Star(F(0), PrimeRecip(1)), sites="leaves",
        template=Star(F(0), Geometric(Ref("site_label"), Ref("site_label"))),
        shared=(("leaf", 1),), envelope=Const(1),
    )
    validate_symbolic(fam)
    got = count_vertices_geq(fam, F(1, 25))
    bound = exceedance_bound(fam, F(1, 25))
    assert got == 14
    assert got == brute_count(fam, F(1, 25), max(bound, 4) + 8)


def test_count_refuses_nested_family_under_loose_envelope():
    inner = GlueFamily(
        base=Ray(Harmonic(1)), sites="all",
        template=Star(Ref("site_label"), Harmonic(Ref("site_label"))),
        shared=(("center",),), envelope=Harmonic(1),
    )
    outer = GlueFamily(
        base=Ray(Harmonic(1)), sites="all",
        template=GlueFinite(
            base=Star(Ref("site_label"), Const(1)),
            attachments=(
                Attachment((("leaf", 1),), inner, (("base",), ("ray", 1))),
            ),
        ),
        shared=(("base",), ("center",)), envelope=Const(1),
    )
    validate_symbolic(outer)
    with pytest.raises(InvalidDeclaration):
        count_vertices_geq(outer, F(1, 3))


def test_count_random_families_match_truncation():
    """Property: symbolic count == truncated count past the bound, for a
    meshing of envelopes (tight and loose) and leaf rules."""
    rng = random.Random(411)
    for _ in range(25):
        a = F(1, rng.randrange(1, 4))
        leaf_rule = rng.choice([
            lambda: Geometric(Ref("envelope", F(1, 2)), F(1, 2)),
            lambda: Harmonic(Ref("envelope")),
            lambda: Geometric(Ref("site_label"), F(1, 3)),
        ])
        if rng.random() < 0.5:
            base, sites = Ray(Harmonic(a)), "all"
            envelope = Harmonic(a) if rng.random() < 0.5 else Const(a)
        else:
            base = Ray(Modulated(2, (Harmonic(a), Const(0))))
            sites = "even"
            envelope = Harmonic(a) if rng.random() < 0.5 else Const(a)
        fam = GlueFamily(
            base=base, sites=sites,
            template=Star(Ref("site_label"), leaf_rule()),
            shared=(("center",),), envelope=envelope,
        )
        validate_symbolic(fam)
        for k in (1, 2, 5):
            eps = F(1, k)
            got = count_vertices_geq(fam, eps)
            bound = exceedance_bound(fam, eps)
            if got is INFINITE:
                assert bound is INFINITE
                # truncated counts must keep growing without bound
                assert brute_count(fam, eps, 40) > brute_count(fam, eps, 10)
            else:
                assert got == brute_count(fam, eps, max(bound, 4) + 6)


def _answer(f, *args):
    try:
        return f(*args)
    except UltraTreeError as exc:
        return type(exc).__name__, str(exc)


def test_count_and_bound_agree_on_random_documents():
    """Seeded valid documents: both answers are INFINITE, both refuse alike,
    or the truncation at the bound holds exactly ``count`` labels >= eps
    (regression: the bound refused a family under a loose envelope after an
    infinite base, where the count had stopped with INFINITE)."""
    star = Star(Ref("site_label"), Harmonic(1))  # a ref outside any template
    assert _answer(exceedance_bound, star, F(1, 2)) == _answer(count_vertices_geq, star, F(1, 2))
    rng = random.Random(37)
    finite = infinite = refused = 0
    for _ in range(600):
        node = _random_node(rng, 3)
        if isinstance(_answer(validate_symbolic, node), tuple):
            continue
        for eps in (F(1, 2), F(1, 7), F(1, 50)):
            count = _answer(count_vertices_geq, node, eps)
            bound = _answer(exceedance_bound, node, eps)
            if count is INFINITE or isinstance(count, tuple):
                assert bound == count, (symbolic_to_json(node), eps)
                infinite += count is INFINITE
                refused += count is not INFINITE
            else:
                assert brute_count(node, eps, bound) == count, (symbolic_to_json(node), eps)
                finite += 1
    print(f"count and bound: {finite} finite, {infinite} infinite, {refused} refused")
    assert finite > 300 and infinite > 300


# ---------------------------------------------------------------------------
# classification


def verdict_tuple(node):
    v = classify(node)
    return (v.complete, v.discrete, v.totally_bounded, v.discrete_and_tb,
            v.compact)


def test_classify_fig10():
    v = classify(fig10())
    assert verdict_tuple(fig10()) == (False, False, True, False, False)
    assert v.complete_witness.kind == "vanishing_ray"
    assert v.complete_witness.address == "base/ray:1"
    assert v.discrete_witness.kind == "accumulation_vertex"
    assert v.discrete_witness.address == "base/ray:2"
    assert v.compact_witness.kind == "ray_present"


def test_classify_fig1():
    v = classify(fig1())
    assert verdict_tuple(fig1()) == (True, False, True, False, True)
    assert v.discrete_witness.address == "base/center"


def test_classify_simple_table():
    assert verdict_tuple(Ray(Const(1))) == (True, True, False, False, False)
    assert verdict_tuple(Ray(Harmonic(1))) == (False, True, True, True, False)
    assert verdict_tuple(Star(F(0), Harmonic(1))) == (True, False, True, False, True)
    assert verdict_tuple(Star(F(0), Const(1))) == (True, True, False, False, False)
    assert verdict_tuple(Star(F(1, 2), Harmonic(1))) == (True, True, False, False, False)


def test_classify_witness_kinds():
    v = classify(Ray(Const(1)))
    assert v.totally_bounded_witness.kind == "infinite_V_eps"
    assert v.totally_bounded_witness.address == "ray:1"
    v = classify(Star(F(1, 2), Harmonic(1)))
    assert v.totally_bounded_witness.kind == "infinite_degree_positive_label"
    assert v.totally_bounded_witness.address == "center"


def test_classify_envelope_is_the_tb_contract():
    """totally_bounded reads the declared envelope, not the members' actual
    suprema: a loose envelope fails the declared-vanishing test even though
    the exact count machinery knows the labels shrink."""
    fam = GlueFamily(
        base=Ray(Harmonic(1)), sites="all",
        template=Ray(Modulated(2, (Geometric(Ref("site_label"), F(1, 2)),
                                   Const(0)))),
        shared=(("ray", 1),), envelope=Const(1),
    )
    validate_symbolic(fam)
    v = classify(fam)
    assert not v.totally_bounded
    assert v.totally_bounded_witness.kind == "infinite_V_eps"
    assert v.totally_bounded_witness.address == "member:1"
    assert "family envelope" in v.totally_bounded_witness.detail
    assert count_vertices_geq(fam, F(1, 2)) == 3   # ... while the count is finite


def test_classify_scaled_and_finite():
    t = build_tree(["a", "b"], [("a", "b")], {"a": F(1), "b": F(0)})
    assert verdict_tuple(Finite(t)) == (True, True, True, True, True)
    assert verdict_tuple(ScaledLabels(Ray(Harmonic(1)), F(3))) == (
        False, True, True, True, False)


def test_classify_witnesses_report_scaled_labels():
    v = classify(ScaledLabels(Star(F(1), Harmonic(1)), F(2)))
    assert v.totally_bounded_witness.address == "center"
    assert v.totally_bounded_witness.detail == (
        "vertex of infinite degree labeled 2: the ball of radius 2 around it "
        "needs infinitely many smaller balls to cover the leaves"
    )
    v = classify(ScaledLabels(Ray(Const(1)), F(3)))
    assert v.totally_bounded_witness.address == "ray:1"
    assert v.totally_bounded_witness.detail == (
        "ray labels const(1) scaled by 3 has limsup 3, so infinitely many "
        "labels are >= 3/2"
    )


# ---------------------------------------------------------------------------
# free-tree predicates


def test_free_predicates_fig10_fig1():
    r10 = free_predicates(fig10())
    assert (r10.rayless, r10.locally_finite, r10.finite) == (False, False, False)
    assert r10.countable and not r10.has_adjacent_infinite_degree_pair
    r1 = free_predicates(fig1())
    assert (r1.rayless, r1.locally_finite, r1.finite) == (True, False, False)
    assert not r1.has_adjacent_infinite_degree_pair


def test_free_predicates_adjacent_pair():
    fam = GlueFamily(
        base=Star(F(0), Const(1)), sites="leaves",
        template=Star(Ref("site_label"), Const(1)),
        shared=(("center",),), envelope=Const(1),
    )
    r = free_predicates(fam)
    assert r.has_adjacent_infinite_degree_pair
    assert r.pair_witness == (
        "star base center base/center is adjacent to every glued member center"
    )


def test_classify_refuses_refs_outside_a_template():
    # a ref means nothing outside a family template: no member binds it,
    # and validation names it
    with pytest.raises(InvalidDeclaration) as e:
        classify(ScaledLabels(Star(F(0), Harmonic(1)), Ref("envelope")))
    assert str(e.value) == "scaled factor $envelope holds a ref that no family binds"
    with pytest.raises(InvalidDeclaration) as e:
        isolated_points(Star(Ref("site_label"), Harmonic(1)))
    assert str(e.value) == "star center_label $site_label holds a ref that no family binds"


def test_refs_of_a_family_nested_in_a_template_stay_legal():
    # the inner family's base and envelope hold the outer member's refs,
    # and its own template holds its own
    inner = GlueFamily(
        base=Star(Ref("site_label"), Const(0)), sites="leaves",
        template=Star(F(0), Harmonic(Ref("envelope"))), shared=(("center",),),
        envelope=Harmonic(Ref("envelope")),
    )
    outer = GlueFamily(base=Ray(Harmonic(1)), sites="all", template=inner,
                       shared=parse_address("base/center"), envelope=Harmonic(1))
    validate_symbolic(outer)
    for budget in range(1, 9):
        assert truncate(outer, budget) == truncate_oracle(outer, budget)
    assert not classify(outer).complete


# ---------------------------------------------------------------------------
# validation and preparation kept on the node


_MISMATCHED = symbolic_to_json(GlueFamily(
    base=Ray(Const(1)), sites="all", template=Star(F(1, 2), Harmonic(1)),
    shared=(("center",),), envelope=Const(1),
))


def test_unvalidated_node_is_validated_by_classify_and_isolated_points():
    for ask in (classify, isolated_points):
        node = symbolic_from_json(_MISMATCHED, validate=False)
        with pytest.raises(GlueLabelMismatch, match="^glued labels differ at member:1 at center"):
            ask(node)


def test_refused_node_is_refused_on_every_call():
    node = symbolic_from_json(_MISMATCHED, validate=False)
    calls = (validate_symbolic, classify, isolated_points) * 2
    refusals = {_answer(ask, node) for ask in calls}
    assert refusals == {("GlueLabelMismatch", "glued labels differ at member:1 at center: "
                                              "base has 1, part has 1/2")}
    # a degenerate labeling passes validation but is refused by each question
    zero = Ray(Const(0))
    assert len({_answer(ask, zero) for ask in (classify, isolated_points) * 2}) == 1


def test_members_instantiated_for_validation_once(monkeypatch):
    """Parse, classify and isolated points on one node: validation binds
    the checked members of fig10's one-piece template without
    instantiating any, the preparation instantiates the window's members
    once, and the second question none."""
    made = []
    real = symbolic.instantiate

    def counting(fam, m):
        made.append(m)
        return real(fam, m)

    # the package re-exports the function ``classify`` over its module's name
    for module in (symbolic, sys.modules["ultratree.classify"]):
        monkeypatch.setattr(module, "instantiate", counting)
    fam = fig10()
    window = member_window(fam)
    node = symbolic_from_json(symbolic_to_json(fam))
    assert made == []
    classify(node)
    assert made == window
    made.clear()
    isolated_points(node)
    classify(node)
    validate_symbolic(node)
    assert made == []


@pytest.mark.parametrize("first, second", [(classify, isolated_points), (isolated_points, classify)])
def test_shared_node_answers_as_fresh_parses(first, second):
    for doc in GOLDEN_DOCS:
        node = symbolic_from_json(doc, validate=False)
        shared = [_answer(first, node), _answer(second, node)]
        fresh = [_answer(ask, symbolic_from_json(doc, validate=False)) for ask in (first, second)]
        assert shared == fresh, doc


def test_kept_results_hold_no_reference_cycle():
    """What validation and preparation keep on a node does not refer back to
    it, so a node is freed as soon as it is dropped."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for doc in GOLDEN_DOCS:
            node = symbolic_from_json(doc, validate=False)
            for ask in (classify, isolated_points, classify):
                _answer(ask, node)
            del node
        gc.collect()
        kinds = {type(x).__name__ for x in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not kinds & {"Finite", "Ray", "Star", "GlueFinite", "GlueFamily", "ScaledLabels",
                        "Bag", "_CenterRecord"}


def test_unresolvable_glue_address_is_an_unknown_vertex():
    # a glue_finite template has no "center" of its own: its vertices are
    # addressed through base/... or attach:i/...
    part = Finite(build_tree(["a", "b"], [("a", "b")], {"a": F(1), "b": F(1, 2)}))
    template = GlueFinite(
        Star(F(0), Harmonic(1)),
        (Attachment((("leaf", 1),), part, (("vertex", "a"),)),),
    )
    fam = GlueFamily(
        base=Star(F(0), Harmonic(1)), sites="leaves", template=template,
        shared=(("center",),), envelope=Harmonic(1),
    )
    with pytest.raises(UnknownVertex) as e:
        free_predicates(fam)
    assert str(e.value) == "unknown vertex id 'center'"
    with pytest.raises(UnknownVertex):
        compact_labeling_witness(fam)
    with pytest.raises(UnknownVertex):
        validate_symbolic(fam)


def test_free_predicates_finite_tree():
    t = build_tree(["a", "b", "c"], [("a", "b"), ("b", "c")],
                   {"a": F(1), "b": F(0), "c": F(2)})
    r = free_predicates(Finite(t))
    assert r.finite and r.rayless and r.locally_finite and r.countable


# ---------------------------------------------------------------------------
# isolated points


def test_isolated_points_fig10_compacts_families():
    rep = isolated_points(fig10())
    assert len(rep.classes) == 1
    c = rep.classes[0]
    assert c.status == "accumulation"
    assert c.address == "base/ray:2"
    assert c.detail.endswith("(likewise for every member of this family)")
    assert "infimum 0" in c.detail


def test_isolated_points_fig1():
    rep = isolated_points(fig1())
    addresses = [(c.status, c.address) for c in rep.classes]
    assert addresses == [
        ("accumulation", "base/center"),
        ("accumulation", "member:1/center"),
    ]
    assert rep.classes[1].detail.endswith(
        "(likewise for every member of this family)")


def test_isolated_points_positive_center_is_isolated():
    rep = isolated_points(Star(F(1, 2), Const(1)))
    assert [(c.status, c.address, c.label) for c in rep.classes] == [
        ("isolated", "center", "1/2"),
    ]
    assert "infimum 1" in rep.classes[0].detail


def test_isolated_points_note_covers_the_rest():
    rep = isolated_points(Finite(build_tree(
        ["a", "b"], [("a", "b")], {"a": F(1), "b": F(0)})))
    assert rep.classes == ()
    assert rep.note.startswith("every vertex not listed is isolated")


# ---------------------------------------------------------------------------
# labeling witnesses


def _lf_family():
    """Infinite but locally finite: two-vertex members on the even ray sites."""
    t_ab = build_tree(["a", "b"], [("a", "b")], {"a": F(0), "b": F(1)})
    return GlueFamily(
        base=Ray(Modulated(2, (Harmonic(1), Const(0)))), sites="even",
        template=Finite(t_ab), shared=(("vertex", "a"),), envelope=Const(1),
    )


def test_discrete_tb_witness_on_locally_finite_family():
    fam = _lf_family()
    assert free_predicates(fam).locally_finite
    w = discrete_tb_labeling_witness(fam)
    assert w.verdict.discrete_and_tb
    assert "all-positive vanishing labels" in w.summary


def test_discrete_tb_witness_on_finite_tree():
    t = build_tree(["a", "b", "c"], [("a", "b"), ("b", "c")],
                   {"a": F(1), "b": F(0), "c": F(2)})
    w = discrete_tb_labeling_witness(Finite(t))
    assert w.verdict.discrete_and_tb
    assert all(x > 0 for x in truncate(w.tree, 4)[0].labels.values())


def test_discrete_tb_witness_needs_local_finiteness():
    with pytest.raises(PreconditionFailed) as e:
        discrete_tb_labeling_witness(Star(F(0), Harmonic(1)))
    assert str(e.value) == (
        "precondition failed: locally_finite "
        "(an infinite-degree vertex cannot carry a locally finite labeling)"
    )


def test_compact_witness_on_fig1_shape():
    w = compact_labeling_witness(fig1())
    assert w.verdict.compact
    assert w.verdict.totally_bounded and w.verdict.complete


def test_compact_witness_needs_raylessness():
    with pytest.raises(PreconditionFailed) as e:
        compact_labeling_witness(Ray(Const(1)))
    assert str(e.value) == (
        "precondition failed: rayless (the free tree contains a ray)"
    )


def test_compact_witness_rejects_adjacent_infinite_pair():
    fam = GlueFamily(
        base=Star(F(0), Const(1)), sites="leaves",
        template=Star(Ref("site_label"), Const(1)),
        shared=(("center",),), envelope=Const(1),
    )
    with pytest.raises(PreconditionFailed) as e:
        compact_labeling_witness(fam)
    assert e.value.clause == "no_adjacent_infinite_degree_pair"


def test_compact_witness_finite_tree():
    t = build_tree(["a", "b", "c"], [("a", "b"), ("b", "c")],
                   {"a": F(1), "b": F(0), "c": F(2)})
    assert compact_labeling_witness(Finite(t)).verdict.compact


def test_witness_labelings_meet_their_goal_on_random_documents():
    """On seeded valid documents, a granted witness labeling meets its goal
    under ``classify`` and keeps the free tree: its truncations have the
    input's vertices and edges.  Every refusal is a ``PreconditionFailed``."""
    rng = random.Random(17)
    granted = refused = 0
    for _ in range(500):
        node = _random_node(rng, 3)
        try:
            validate_symbolic(node)
        except UltraTreeError:
            continue
        for make, goal in ((compact_labeling_witness, "compact"),
                           (discrete_tb_labeling_witness, "discrete_and_tb")):
            try:
                w = make(node)
            except PreconditionFailed:
                refused += 1
                continue
            granted += 1
            assert getattr(w.verdict, goal), symbolic_to_json(node)
            assert classify(w.tree) == w.verdict
            for budget in range(1, 6):
                want, _ = truncate(node, budget)
                got, _ = truncate(w.tree, budget)
                assert (got.vertices, got.edges) == (want.vertices, want.edges), (
                    symbolic_to_json(node), budget,
                )
    assert granted > 150 and refused > 100, (granted, refused)
