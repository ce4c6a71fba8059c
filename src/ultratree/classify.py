"""Topological classification of the ultrametric space generated by a
symbolically presented labeled tree.

The space on the vertex set has distance "largest label on the connecting
path, endpoints included".  Its topology is decided by label data alone:

- complete      <=> along every ray the labels have positive limsup
- discrete      <=> no zero-labeled vertex has neighbor labels with inf 0
                    (only infinite-degree vertices, i.e. star centers, can
                    fail this: a finite positive bag has positive min)
- totally bounded <=> every label-count set {v : label >= eps} is finite and
                    no infinite-degree vertex has a positive label
- compact       <=> rayless and totally bounded

Every negative verdict carries a witness naming a concrete vertex, ray, or
sequence.  Family members are checked concretely over a certified window of
member indices: each per-member verdict depends on the member index only
through which substituted source values are zero, and that pattern is
eventually periodic with a computable certificate (see member_window).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core_tree import is_non_degenerate
from .errors import DegenerateLabeling
from .ratio import format_rational
from .seqs import LabelSeq
from .symbolic import (
    CENTER,
    Address,
    Finite,
    GlueFamily,
    GlueFinite,
    Ray,
    ScaledLabels,
    Star,
    SymbolicTree,
    canonical,
    contains_kind,
    copies,
    first_of_kind,
    format_address,
    instantiate,
    member_shape,
    pieces,
    site_base_step,
    site_of_base_step,
    validate_symbolic,
)


@dataclass(frozen=True)
class Witness:
    kind: str
    address: str
    detail: str


@dataclass(frozen=True)
class Verdict:
    complete: bool
    complete_witness: Witness | None
    discrete: bool
    discrete_witness: Witness | None
    totally_bounded: bool
    totally_bounded_witness: Witness | None
    discrete_and_tb: bool
    compact: bool
    compact_witness: Witness | None


@dataclass(frozen=True)
class FreeTreeReport:
    rayless: bool
    locally_finite: bool
    finite: bool
    has_adjacent_infinite_degree_pair: bool
    countable: bool
    pair_witness: str | None = None


@dataclass(frozen=True)
class VertexClass:
    address: str
    status: str  # "isolated" | "accumulation"
    label: str
    detail: str
    neighbor_witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class IsolatedPointsReport:
    classes: tuple[VertexClass, ...]
    note: str


# ---------------------------------------------------------------------------
# pieces of the concrete tree


def _member_memo():
    """An ``instantiate`` that builds each family member once, so the piece
    list and the copies looked up later share their members."""
    made: dict[tuple[int, int], tuple[GlueFamily, SymbolicTree]] = {}

    def member(fam: GlueFamily, m: int) -> SymbolicTree:
        key = (id(fam), m)  # the stored family keeps its id from being reused
        if key not in made:
            made[key] = (fam, instantiate(fam, m))
        return made[key][1]

    return member


def _scaled_by(scale: Fraction) -> str:
    return f" scaled by {format_rational(scale)}" if scale != 1 else ""


# ---------------------------------------------------------------------------
# degeneracy


def _first_zero_index(seq: LabelSeq) -> int | None:
    n0, q = seq.zero_profile()
    for n in range(1, n0 + q + 1):
        if seq.term(n) == 0:
            return n
    return None


def _zero_edge(piece) -> tuple[tuple, tuple, str] | None:
    """First edge of one piece whose endpoints are both labeled zero."""
    if isinstance(piece, Finite):
        ok, bad = is_non_degenerate(piece.tree)
        if not ok:
            u, v = bad[0]
            return ("vertex", u), ("vertex", v), "both endpoint labels are zero"
    elif isinstance(piece, Ray):
        n = piece.labels.has_adjacent_zero_pair()
        if n is not None:
            return ("ray", n), ("ray", n + 1), "consecutive ray labels are both zero"
    elif isinstance(piece, Star) and piece.center_label == 0:
        k = _first_zero_index(piece.leaf_labels)
        if k is not None:
            return CENTER, ("leaf", k), "zero-labeled center with a zero-labeled leaf"
    return None


def _raise_degenerate(ps) -> None:
    for prefix, piece, _ in ps:
        hit = _zero_edge(piece)
        if hit is not None:
            u, v, why = hit
            raise DegenerateLabeling(
                (format_address(prefix + (u,)), format_address(prefix + (v,))), why
            )


# ---------------------------------------------------------------------------
# completeness: rays with vanishing limsup


def _vanishing_ray(ps) -> Witness | None:
    for prefix, piece, _ in ps:
        if isinstance(piece, Ray) and piece.labels.limsup() == 0:
            return Witness(
                "vanishing_ray",
                format_address(prefix + (("ray", 1),)),
                f"ray labels {piece.labels.describe()} have limsup 0, so the "
                "vertex sequence along the ray is Cauchy without a limit",
            )
    return None


# ---------------------------------------------------------------------------
# total boundedness


def _nonvanishing_seq(ps) -> Witness | None:
    """First infinite label family that fails to vanish (infinite V_eps)."""
    for prefix, piece, scale in ps:
        if isinstance(piece, Ray):
            seq, step, what = piece.labels, ("ray", 1), "ray labels"
        elif isinstance(piece, Star):
            seq, step, what = piece.leaf_labels, ("leaf", 1), "leaf labels"
        elif isinstance(piece, GlueFamily):
            seq, step, what = piece.envelope, ("member", 1), "family envelope"
        else:
            continue
        if seq.vanishes():
            continue
        limsup = scale * seq.limsup()
        return Witness(
            "infinite_V_eps",
            format_address(prefix + (step,)),
            f"{what} {seq.describe()}{_scaled_by(scale)} has limsup "
            f"{format_rational(limsup)}, so infinitely many labels are "
            f">= {format_rational(limsup / 2)}",
        )
    return None


def _positive_infinite_degree(ps) -> Witness | None:
    """First star center carrying a positive label (infinite degree)."""
    for prefix, piece, scale in ps:
        if isinstance(piece, Star) and piece.center_label > 0:
            label = format_rational(scale * piece.center_label)
            return Witness(
                "infinite_degree_positive_label",
                format_address(prefix + (CENTER,)),
                f"vertex of infinite degree labeled {label}: the ball of radius "
                f"{label} around it needs infinitely many smaller balls to "
                "cover the leaves",
            )
    return None


# ---------------------------------------------------------------------------
# discreteness: neighbor-label bags of zero-labeled star centers


@dataclass(frozen=True)
class Bag:
    """Neighbor labels of one copy of a vertex, inside its own piece."""

    inf: Fraction | None  # None = empty contribution
    desc: str
    samples: tuple[str, ...] = ()


def _combine(bags) -> tuple[Fraction | None, str, tuple[str, ...]]:
    infs = [b.inf for b in bags if b.inf is not None]
    inf = min(infs) if infs else None
    desc = "; ".join(b.desc for b in bags if b.desc)
    samples = tuple(s for b in bags for s in b.samples)
    return inf, desc, samples


def _leaf_samples(seq: LabelSeq, prefix: Address, scale: Fraction) -> tuple[str, ...]:
    out = []
    for k in range(1, 61):
        if seq.term(k) > 0:
            out.append(
                f"{format_address(prefix + (('leaf', k),))} "
                f"(label {format_rational(scale * seq.term(k))})"
            )
            if len(out) == 3:
                break
    return tuple(out)


def _labels_set(scale: Fraction, vals) -> str:
    return "{" + ", ".join(format_rational(scale * x) for x in sorted(vals)) + "}"


def _piece_bag(prefix: Address, piece, local: Address, scale: Fraction) -> Bag:
    """Labels of the neighbors of one copy, within its piece."""
    (kind, *arg), = local
    if isinstance(piece, Finite):
        vals = [piece.tree.labels[u] for u in piece.tree.adjacency[arg[0]]]
        if not vals:
            return Bag(None, "")
        return Bag(
            scale * min(vals),
            f"finite-tree neighbors with labels {_labels_set(scale, vals)}",
        )
    if isinstance(piece, Ray):
        vals = [piece.labels.term(n) for n in (arg[0] - 1, arg[0] + 1) if n >= 1]
        return Bag(
            scale * min(vals), f"ray neighbors with labels {_labels_set(scale, vals)}"
        )
    if kind == "leaf":
        return Bag(scale * piece.center_label, "the star center")
    seq = piece.leaf_labels
    samples = _leaf_samples(seq, prefix, scale) if seq.inf() == 0 else ()
    return Bag(
        scale * seq.inf(), f"star leaves labeled {seq.describe()}{_scaled_by(scale)}", samples
    )


@dataclass(frozen=True)
class _CenterRecord:
    canonical: Address
    label: Fraction
    bags: tuple[Bag, ...]
    group: str | None  # family grouping key for report compaction
    member: int | None


def _family_group(prefix: Address) -> tuple[str | None, int | None]:
    """(report group, member index) of the innermost family member holding
    the piece at ``prefix``."""
    for j in range(len(prefix) - 1, -1, -1):
        if prefix[j][0] == "member":
            return format_address(prefix[:j]) or "top", prefix[j][1]
    return None, None


def _center_records(node: SymbolicTree, ps, member) -> list[_CenterRecord]:
    """One record per star piece: its center's label and the neighbor bags of
    every copy of that merged vertex."""
    out = []
    for prefix, piece, scale in ps:
        if isinstance(piece, Star):
            addr = prefix + (CENTER,)
            bags = tuple(_piece_bag(*c) for c in copies(node, addr, member))
            out.append(
                _CenterRecord(
                    canonical(node, addr),
                    scale * piece.center_label,
                    bags,
                    *_family_group(prefix),
                )
            )
    return out


def _prepare(node: SymbolicTree) -> tuple[tuple, tuple[_CenterRecord, ...]]:
    """Validate ``node``, refuse a degenerate labeling, and return what
    ``classify`` and ``isolated_points`` read off the piece list: the
    vanishing-ray, non-vanishing-sequence and positive-center witnesses,
    and the star-center records.  The result is kept on the node (its
    ``__dict__``, as ``cached_property`` does); a refusal stores nothing.
    The piece list itself is not kept: it holds the node when the node is
    a piece or a family, and a node that held itself through its own
    cache would stay alive until a full collection.
    """
    validate_symbolic(node)
    prepared = node.__dict__.get("_prepared")
    if prepared is None:
        member = _member_memo()
        ps = list(pieces(node, member))  # every label walker shares it; no refs once validated
        _raise_degenerate(ps)
        witnesses = _vanishing_ray(ps), _nonvanishing_seq(ps), _positive_infinite_degree(ps)
        prepared = node.__dict__["_prepared"] = witnesses, tuple(_center_records(node, ps, member))
    return prepared


def _is_accumulation(rec: _CenterRecord) -> bool:
    if rec.label != 0:
        return False
    inf, _, _ = _combine(rec.bags)
    return inf == 0


def _accumulation_witness(records) -> Witness | None:
    for rec in records:
        if _is_accumulation(rec):
            _, desc, samples = _combine(rec.bags)
            detail = (
                "zero-labeled vertex of infinite degree whose neighbor labels "
                f"have infimum 0: {desc}"
            )
            if samples:
                detail += "; vanishing neighbors: " + ", ".join(samples)
            return Witness(
                "accumulation_vertex", format_address(rec.canonical), detail
            )
    return None


# ---------------------------------------------------------------------------
# public: classify


def classify(node: SymbolicTree) -> Verdict:
    """Decide the four topological properties with witnesses.

    Validation and the preparation (pieces, degeneracy, witnesses read off
    the pieces, star-center records) run once per node object and are kept
    on it, shared with :func:`isolated_points`: nodes are immutable, so a
    kept result cannot go stale.  A refused node is refused again on every
    call.
    """
    (complete_w, vanish_w, posinf_w), records = _prepare(node)
    acc_w = _accumulation_witness(records)

    rayless = not contains_kind(node, Ray)
    locally_finite = not contains_kind(node, Star)

    tb_w = posinf_w or vanish_w
    compact_w: Witness | None = None
    if not rayless:
        loc, _ = first_of_kind(node, Ray)
        compact_w = Witness(
            "ray_present",
            format_address(loc + (("ray", 1),)),
            "the tree contains a ray: vanishing ray labels break "
            "completeness, non-vanishing ones break total boundedness",
        )
    elif tb_w is not None:
        compact_w = tb_w

    return Verdict(
        complete=complete_w is None,
        complete_witness=complete_w,
        discrete=acc_w is None,
        discrete_witness=acc_w,
        totally_bounded=tb_w is None,
        totally_bounded_witness=tb_w,
        discrete_and_tb=locally_finite and vanish_w is None,
        compact=compact_w is None,
        compact_witness=compact_w,
    )


# ---------------------------------------------------------------------------
# public: free-tree predicates


def infinite_degree(node: SymbolicTree, addr: Address) -> bool:
    """Does the merged vertex at ``addr`` have infinite degree, that is,
    does one of its copies sit at a star center?  Structural: family
    members are read off the template."""
    return any(
        isinstance(piece, Star) and local == (CENTER,)
        for _, piece, local, _ in copies(node, addr, member_shape)
    )


def _piece_adjacent(piece, x: Address, y: Address) -> bool:
    ((kx, *ax),), ((ky, *ay),) = x, y
    if isinstance(piece, Finite):
        return ay[0] in piece.tree.adjacency[ax[0]]
    if isinstance(piece, Ray):
        return abs(ax[0] - ay[0]) == 1
    return {kx, ky} == {"center", "leaf"}


def _adjacent(node: SymbolicTree, a: Address, b: Address) -> bool:
    """Structural adjacency between two merged vertices of ``node``: an edge
    lies inside one piece, so some copies of both share a piece there."""
    bs = [(p, local) for p, _, local, _ in copies(node, b, member_shape)]
    return any(
        p == q and _piece_adjacent(piece, local, other)
        for p, piece, local, _ in copies(node, a, member_shape)
        for q, other in bs
    )


def _neighbor_infinite_degree(node: SymbolicTree, addr: Address) -> bool:
    """Is some neighbor of ``addr`` (within node's merged view) a merged
    vertex of infinite degree?"""
    head, rest = addr[0], addr[1:]
    if isinstance(node, (Finite, Ray)):
        return False  # no star can hide inside
    if isinstance(node, Star):
        return head[0] == "leaf"  # the center
    if isinstance(node, GlueFinite):
        if head == ("base",):
            if _neighbor_infinite_degree(node.base, rest):
                return True
            for att in node.attachments:
                if att.site != rest and _adjacent(node.base, rest, att.site) \
                        and infinite_degree(node, (("base",),) + att.site):
                    return True
                if att.site == rest and _neighbor_infinite_degree(
                    att.part, att.shared
                ):
                    return True
            return False
        att = node.attachments[head[1]]
        if _neighbor_infinite_degree(att.part, rest):
            return True
        if rest != att.shared and _adjacent(att.part, rest, att.shared) \
                and infinite_degree(node, (("base",),) + att.site):
            return True
        return False
    if isinstance(node, GlueFamily):
        member_inf = infinite_degree(node.template, node.shared)
        if head == ("base",):
            if _neighbor_infinite_degree(node.base, rest):
                return True
            if member_inf and len(rest) == 1:
                step = rest[0]
                if isinstance(node.base, Star):
                    if step == ("center",):
                        return True  # every leaf is a site
                    return False  # leaf's only neighbor is the center
                n = step[1]
                for nb in (n - 1, n + 1):
                    if nb >= 1 and site_of_base_step(node, ("ray", nb)) is not None:
                        return True
            if len(rest) == 1 and site_of_base_step(node, rest[0]) is not None:
                if _neighbor_infinite_degree(node.template, node.shared):
                    return True
            return False
        m = head[1]
        if _neighbor_infinite_degree(node.template, rest):
            return True
        if rest != node.shared and _adjacent(node.template, rest, node.shared):
            site = (site_base_step(node, m),)
            if infinite_degree(node, (("base",),) + site):
                return True
        return False
    if isinstance(node, ScaledLabels):
        return _neighbor_infinite_degree(node.inner, addr)
    return False


def _adjacent_inf_pair(node: SymbolicTree, prefix: Address) -> str | None:
    """Witness description for two adjacent infinite-degree merged vertices.

    An edge lives inside exactly one constructor piece; a bundle becomes
    infinite only through the shared vertex of an enclosing gluing, so
    checking each gluing's boundary (plus recursion into every piece) is
    exhaustive.
    """
    if isinstance(node, (Finite, Ray, Star)):
        return None
    if isinstance(node, ScaledLabels):
        return _adjacent_inf_pair(node.inner, prefix)
    if isinstance(node, GlueFinite):
        w = _adjacent_inf_pair(node.base, prefix + (("base",),))
        if w:
            return w
        for i, att in enumerate(node.attachments):
            w = _adjacent_inf_pair(att.part, prefix + (("attach", i),))
            if w:
                return w
        for att in node.attachments:
            site_abs = (("base",),) + att.site
            if infinite_degree(node, site_abs) and _neighbor_infinite_degree(
                node, site_abs
            ):
                return (
                    f"glued vertex {format_address(prefix + site_abs)} has "
                    "infinite degree and an infinite-degree neighbor"
                )
        return None
    if isinstance(node, GlueFamily):
        w = _adjacent_inf_pair(node.base, prefix + (("base",),))
        if w:
            return w
        w = _adjacent_inf_pair(node.template, prefix + (("member", 1),))
        if w:
            return w
        if infinite_degree(node.template, node.shared):
            if isinstance(node.base, Star):
                addr = prefix + (("base",), ("center",))
                return (
                    f"star base center {format_address(addr)} is adjacent to "
                    "every glued member center"
                )
            if node.sites == "all":
                addr = prefix + (("base",), ("ray", 1))
                return (
                    f"consecutive ray vertices from {format_address(addr)} "
                    "all carry glued member centers"
                )
            if _neighbor_infinite_degree(node.template, node.shared):
                addr = prefix + (("base",), site_base_step(node, 1))
                return (
                    f"glued member center {format_address(addr)} has an "
                    "infinite-degree neighbor inside the member"
                )
        else:
            site1 = (("base",), site_base_step(node, 1))
            if infinite_degree(node, site1) and _neighbor_infinite_degree(
                node, site1
            ):
                return (
                    f"glued vertex {format_address(prefix + site1)} has "
                    "infinite degree and an infinite-degree neighbor"
                )
        return None
    return None


def free_predicates(node: SymbolicTree) -> FreeTreeReport:
    """Structural facts about the unlabeled tree underneath the labeling."""
    rayless = not contains_kind(node, Ray)
    locally_finite = not contains_kind(node, Star)
    finite = rayless and locally_finite and not contains_kind(node, GlueFamily)
    pair = _adjacent_inf_pair(node, ())
    return FreeTreeReport(
        rayless=rayless,
        locally_finite=locally_finite,
        finite=finite,
        has_adjacent_infinite_degree_pair=pair is not None,
        countable=True,
        pair_witness=pair,
    )


# ---------------------------------------------------------------------------
# public: isolated points


def isolated_points(node: SymbolicTree) -> IsolatedPointsReport:
    """Per-vertex-class report: which vertices are accumulation points.

    Only zero-labeled vertices of infinite degree can be accumulation points;
    each such vertex is reported with sample neighbors of positive vanishing
    label (which are themselves isolated).  Everything else is isolated.

    Reads the star-center records that :func:`classify` prepares, kept on
    the node object: a node classified before is not validated or prepared
    again.
    """
    _, records = _prepare(node)

    classes: list[VertexClass] = []
    seen_groups: dict[str, list[_CenterRecord]] = {}
    loose: list[_CenterRecord] = []
    for rec in records:
        if rec.group is None:
            loose.append(rec)
        else:
            seen_groups.setdefault(rec.group, []).append(rec)

    def emit(rec: _CenterRecord, suffix: str = "") -> None:
        inf, desc, samples = _combine(rec.bags)
        acc = _is_accumulation(rec)
        detail = (
            f"label {format_rational(rec.label)}; neighbor labels: {desc}"
            f"; infimum {'-' if inf is None else format_rational(inf)}{suffix}"
        )
        classes.append(
            VertexClass(
                address=format_address(rec.canonical),
                status="accumulation" if acc else "isolated",
                label=format_rational(rec.label),
                detail=detail,
                neighbor_witnesses=samples if acc else (),
            )
        )

    for rec in loose:
        emit(rec)
    for group, recs in seen_groups.items():
        verdicts = {_is_accumulation(r) for r in recs}
        if len(verdicts) == 1:
            emit(recs[0], suffix=" (likewise for every member of this family)")
        else:
            for rec in recs:
                emit(rec)

    note = (
        "every vertex not listed is isolated: it has positive label, or "
        "finite degree with finitely many positive neighbor labels"
    )
    return IsolatedPointsReport(classes=tuple(classes), note=note)
