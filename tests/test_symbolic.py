from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ultratree.builders import fig1, fig10
from ultratree.classify import (
    check_non_degenerate,
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
from ultratree.seqs import INFINITE, Const, Custom, Geometric, Harmonic, Modulated, PrimeRecip, Ref
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
from ultratree.core_tree import build_tree
from ultratree.treeio import symbolic_from_json, symbolic_to_json
from ultratree.witness import compact_labeling_witness, discrete_tb_labeling_witness

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
        check_non_degenerate(Ray(Const(0)))
    # an isolated zero is fine: 1, 0, 1, 0, ... is non-degenerate
    check_non_degenerate(Ray(Modulated(2, (Const(1), Const(0)))))


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
    # a ref means nothing outside a family template: no member binds it
    with pytest.raises(InvalidDeclaration) as e:
        classify(ScaledLabels(Star(F(0), Harmonic(1)), Ref("envelope")))
    assert str(e.value) == "scale factor is an unresolved ref"
    with pytest.raises(InvalidDeclaration) as e:
        isolated_points(Star(Ref("site_label"), Harmonic(1)))
    assert str(e.value) == "center label is an unresolved ref"


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
