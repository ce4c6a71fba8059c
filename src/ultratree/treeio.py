"""JSON (de)serialization for trees, spaces, sequences, and symbolic
constructions, plus Graphviz DOT emission.

Finite tree:   {"vertices": {"a": "1/2", ...}, "edges": [["a", "b"], ...]}
Matrix:        {"points": ["a", "b"], "d": [["0", "1"], ["1", "0"]]}
Sequence:      {"kind": "harmonic", "a": "1"} and friends; a parameter may be
               a ref object {"$": "site_label", "coeff": "1/2"}.
Symbolic tree: {"kind": "glue_family", "base": ..., "sites": "even",
               "template": ..., "shared": "center", "envelope": ...}
               with kinds finite | ray | star | glue_finite | glue_family |
               scaled.  "shared" is optional (defaults to the part's
               canonical glue vertex).

Sequences and constructors are encoded field by field from their
dataclasses; a missing or malformed field raises InvalidDeclaration naming
the kind and the field.  A symbolic document may nest JSON objects and
arrays at most ``SYMBOLIC_DEPTH_CAP`` deep (300 nested ``scaled`` nodes
over a ray are 302 deep), and ``modulated`` sequences at most
``SEQ_DEPTH_CAP`` deep; the decoder and the symbolic walkers recurse once
or more per level.

All rationals are rendered as "p/q" or integer strings; no floats.
"""

from __future__ import annotations

from fractions import Fraction

from .core_tree import LabeledTree, build_tree
from .errors import InvalidDeclaration
from .ratio import format_rational, parse_rational
from .seqs import SEQ_KINDS, LabelSeq, Ref, field_names
from .spaces import UltraSpace, validate_space
from .symbolic import (
    NODE_KINDS,
    Attachment,
    SymbolicTree,
    default_shared,
    format_address,
    parse_address,
    validate_symbolic,
)


# ---------------------------------------------------------------------------
# finite trees


def tree_to_json(tree: LabeledTree) -> dict:
    return {
        "vertices": {v: format_rational(tree.labels[v]) for v in tree.vertices},
        "edges": [[u, v] for u, v in tree.edges],
    }


def tree_from_json(obj: dict) -> LabeledTree:
    if not isinstance(obj, dict) or not isinstance(obj.get("vertices"), dict):
        raise InvalidDeclaration("finite tree JSON needs a 'vertices' mapping")
    verts = obj["vertices"]
    # a tree repeats few distinct labels: parse each string once, share
    # its Fraction
    parsed: dict[str, Fraction] = {}
    labels = {}
    for v, x in verts.items():
        if isinstance(x, str):
            if x not in parsed:
                parsed[x] = parse_rational(x)
            labels[v] = parsed[x]
        else:
            labels[v] = parse_rational(x)
    edges = obj.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in edges
    ):
        raise InvalidDeclaration(
            f"finite tree 'edges' must be a list of vertex pairs, got {edges!r}"
        )
    return build_tree(list(verts), [tuple(e) for e in edges], labels)


# ---------------------------------------------------------------------------
# spaces


def format_rows(dist) -> list[list[str]]:
    """The rows of a distance matrix as "p/q" strings.  A matrix repeats a
    few distance objects many times, so each distinct object is formatted
    once; ``seen`` holds the objects, so their ids stay unique meanwhile."""
    seen: dict[int, Fraction] = {}
    for row in dist:
        seen.update(zip(map(id, row), row))
    text = {key: format_rational(e) for key, e in seen.items()}
    return [list(map(text.__getitem__, map(id, row))) for row in dist]


def space_to_json(space: UltraSpace) -> dict:
    return {"points": list(space.points), "d": format_rows(space.dist)}


def space_from_json(obj: dict) -> UltraSpace:
    """Check the document's shape; validate_space parses the entries."""
    if not isinstance(obj, dict) or "points" not in obj or "d" not in obj:
        raise InvalidDeclaration("matrix JSON needs 'points' and 'd'")
    points, rows = obj["points"], obj["d"]
    if not isinstance(points, list) or not all(
        isinstance(p, str) and p for p in points
    ):
        raise InvalidDeclaration(
            f"matrix field 'points' must be a list of non-empty strings, got {points!r}"
        )
    n = len(points)
    if not isinstance(rows, list) or len(rows) != n:
        raise InvalidDeclaration(
            f"matrix field 'd' must be a list of {n} rows, got {rows!r}"
        )
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InvalidDeclaration(
                f"matrix field 'd' row {i} must be a list of {n} entries, got {row!r}"
            )
    return validate_space(points, rows)


# ---------------------------------------------------------------------------
# label sequences and symbolic trees, encoded field by field
#
# Every sequence kind (seqs.SEQ_KINDS) and constructor kind
# (symbolic.NODE_KINDS) is written as {"kind": ..., <one key per dataclass
# field>}; an attachment is written the same way, without a kind.  _FIELDS
# (below) maps each field name to its JSON key, encoder, decoder and default.


def _val_to_json(v):
    if isinstance(v, Ref):
        out = {"$": v.source}
        if v.coeff != 1:
            out["coeff"] = format_rational(v.coeff)
        return out
    return format_rational(v)


def _val_from_json(obj):
    if isinstance(obj, dict):
        if "$" not in obj:
            raise InvalidDeclaration(f"bad ref object {obj!r}")
        return Ref(obj["$"], parse_rational(obj.get("coeff", "1")))
    return parse_rational(obj)


def _encode_list(encode):
    return lambda xs: [encode(x) for x in xs]


def _decode_list(decode):
    def decode_list(obj) -> tuple:
        if not isinstance(obj, list):
            raise TypeError(f"expected a list, got {obj!r}")  # reported as malformed
        return tuple(decode(x) for x in obj)

    return decode_list


def _decode_exact(kind):
    """Decode only a JSON value of type ``kind``: no bool as an int, or int as a bool."""
    def decode(obj):
        if type(obj) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {obj!r}")  # reported as malformed
        return obj

    return decode


def _fields_to_json(obj) -> dict:
    out = {"kind": obj.kind} if hasattr(obj, "kind") else {}
    for name in field_names(type(obj)):
        key, encode, _, _ = _FIELDS[name]
        out[key] = encode(getattr(obj, name))
    return out


def _fields_from_json(cls, obj, what: str):
    """Decode every field of ``cls`` from ``obj``; a missing or malformed
    field raises InvalidDeclaration naming ``what`` and the JSON key."""
    if not isinstance(obj, dict):
        raise InvalidDeclaration(f"{what} JSON must be an object, got {obj!r}")
    done: dict = {}
    for name in field_names(cls):
        key, _, decode, default = _FIELDS[name]
        if key not in obj:
            if default is None:
                raise InvalidDeclaration(f"{what} JSON needs the field {key!r}")
            done[name] = default(done)
            continue
        try:
            done[name] = decode(obj[key])
        except (TypeError, ValueError, AttributeError, KeyError, IndexError) as exc:
            raise InvalidDeclaration(
                f"{what} field {key!r} is malformed: {obj[key]!r}"
            ) from exc
    return cls(**done)


def _kind_to_json(table: dict, obj, noun: str) -> dict:
    if table.get(getattr(obj, "kind", None)) is not type(obj):
        raise InvalidDeclaration(f"unknown {noun} {type(obj).__name__}")
    return _fields_to_json(obj)


def _kind_from_json(table: dict, obj, what: str, noun: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidDeclaration(f"{what} JSON needs a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise InvalidDeclaration(f"unknown {noun} kind {kind!r}")
    return _fields_from_json(table[kind], obj, kind)


def seq_to_json(seq: LabelSeq) -> dict:
    return _kind_to_json(SEQ_KINDS, seq, "sequence kind")


def seq_from_json(obj: dict) -> LabelSeq:
    return _kind_from_json(SEQ_KINDS, obj, "sequence", "sequence")


def symbolic_to_json(node: SymbolicTree) -> dict:
    return _kind_to_json(NODE_KINDS, node, "constructor")


# The decoder spends up to three Python frames per level, against the
# default recursion limit of 1,000: 305 levels hold 300 nested ``scaled``
# nodes and leave room for the caller's frames.  A ``modulated`` sequence
# costs its evaluators more frames per level than a constructor does, so
# sequences may nest a third as deep: 101 ``modulated`` levels.
SYMBOLIC_DEPTH_CAP = 305
SEQ_DEPTH_CAP = SYMBOLIC_DEPTH_CAP // 3


def _json_depth(obj) -> tuple[int, int]:
    """Nesting depth of JSON objects and arrays (a scalar is 0), and of
    ``modulated`` sequence objects, found without recursion."""
    depth = seq_depth = 0
    stack = [(obj, 1, 0)]
    while stack:
        item, level, mods = stack.pop()
        if isinstance(item, dict):
            if item.get("kind") == "modulated":
                mods += 1
                seq_depth = max(seq_depth, mods)
            item = item.values()
        elif not isinstance(item, list):
            continue
        depth = max(depth, level)
        stack.extend((x, level + 1, mods) for x in item)
    return depth, seq_depth


def symbolic_from_json(obj: dict, validate: bool = True) -> SymbolicTree:
    depth, seq_depth = _json_depth(obj)
    if depth > SYMBOLIC_DEPTH_CAP:
        raise InvalidDeclaration(
            f"symbolic JSON nests {depth} levels deep, "
            f"beyond the limit of {SYMBOLIC_DEPTH_CAP}"
        )
    if seq_depth > SEQ_DEPTH_CAP:
        raise InvalidDeclaration(
            f"label sequences nest {seq_depth} modulated levels deep, "
            f"beyond the limit of {SEQ_DEPTH_CAP}"
        )
    node = _symbolic_from_json(obj)
    if validate:
        validate_symbolic(node)
    return node


def _symbolic_from_json(obj: dict) -> SymbolicTree:
    return _kind_from_json(NODE_KINDS, obj, "symbolic", "constructor")


def _attachment_from_json(obj) -> Attachment:
    return _fields_from_json(Attachment, obj, "attachment")


# field name -> (JSON key, encoder, decoder, default for a missing key or
# None when the key is required); a default is computed from the fields
# decoded before it
_VAL = (_val_to_json, _val_from_json, None)
_RAT = (format_rational, parse_rational, None)
_RATS = (_encode_list(format_rational), _decode_list(parse_rational), None)
_SEQ = (seq_to_json, seq_from_json, None)
_NODE = (symbolic_to_json, _symbolic_from_json, None)
_FIELDS = {
    "c": ("c", *_VAL),
    "a": ("a", *_VAL),
    "r": ("r", *_VAL),
    "prefix": ("prefix", *_RATS),
    "period": ("period", int, _decode_exact(int), None),
    "seqs": ("seqs", _encode_list(seq_to_json), _decode_list(seq_from_json), None),
    "limsup_": ("limsup", *_RAT),
    "liminf_": ("liminf", *_RAT),
    "inf_": ("inf", *_RAT),
    "vanishes_": ("vanishes", bool, _decode_exact(bool), None),
    "tree": ("tree", tree_to_json, tree_from_json, None),
    "labels": ("labels", *_SEQ),
    "center_label": ("center", *_VAL),
    "leaf_labels": ("leaves", *_SEQ),
    "base": ("base", *_NODE),
    "attachments": (
        "attachments",
        _encode_list(_fields_to_json),
        _decode_list(_attachment_from_json),
        lambda done: (),
    ),
    "site": ("site", format_address, parse_address, None),
    "part": ("part", *_NODE),
    "sites": ("sites", str, str, None),
    "template": ("template", *_NODE),
    # a gluing's shared vertex defaults to the part's canonical glue vertex
    "shared": (
        "shared",
        format_address,
        parse_address,
        lambda done: default_shared(done.get("template") or done["part"]),
    ),
    "envelope": ("envelope", *_SEQ),
    "inner": ("inner", *_NODE),
    "factor": ("factor", *_VAL),
}


# ---------------------------------------------------------------------------
# DOT export


def export_dot(
    tree: LabeledTree,
    generating: tuple[str, ...] = (),
    roots: tuple[str, ...] = (),
    name: str = "ultratree",
) -> str:
    """Graphviz DOT text: vertex labels shown, the generating set filled,
    attachment roots double-circled."""
    gen = set(generating)
    rts = set(roots)
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in tree.vertices:
        attrs = [f'label="{v}\\n{format_rational(tree.labels[v])}"']
        if v in gen:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
        if v in rts:
            attrs.append("shape=doublecircle")
        lines.append(f'  "{v}" [{", ".join(attrs)}];')
    for u, v in tree.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
