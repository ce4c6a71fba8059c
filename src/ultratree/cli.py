"""Command-line interface.

Exit codes: 0 success, 1 domain error (named error on stderr), 2 usage error.
All rationals print as integer or "p/q" strings; never floats.  Machine
output via --json; DOT via export-dot; ULTRATREE_SIZE_CAP raises or lowers
the truncation cap (1..1,000,000 vertices).  ``scan`` enumerates classes
whose matrices hold at most ``finite_space.ENUMERATE_ENTRY_CAP`` entries,
counted before any class is generated.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from . import builders
from .classify import classify, free_predicates, isolated_points
from .core_tree import build_tree, distance_matrix, is_isomorphic_labeled
from .errors import InvalidDeclaration, UltraTreeError
from .finite_space import conjecture_predicate, conjecture_scan, representable
from .hull import attachment_point, attachment_points, hull
from .ratio import format_rational, parse_rational
from .spaces import isometric
from .symbolic import TRUNCATE_SIZE_CAP, truncate
from .treeio import (
    export_dot,
    format_rows,
    space_from_json,
    space_to_json,
    symbolic_from_json,
    symbolic_to_json,
    tree_from_json,
    tree_to_json,
)
from .witness import compact_labeling_witness, discrete_tb_labeling_witness

ENV_CAP = "ULTRATREE_SIZE_CAP"


class _UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _env_cap(default: int, guard: int) -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return default
    try:
        v = int(raw)
    except ValueError:
        raise InvalidDeclaration(f"{ENV_CAP} must be an integer, got {raw!r}")
    if not 1 <= v <= guard:
        raise InvalidDeclaration(
            f"{ENV_CAP}={v} outside the guarded range 1..{guard}"
        )
    return v


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_values(raw: str) -> list[Fraction]:
    vals = [parse_rational(x.strip()) for x in raw.split(",") if x.strip()]
    if not vals:
        raise _UsageError("empty --values list")
    return vals


def _witness_json(w) -> dict | None:
    if w is None:
        return None
    return {"kind": w.kind, "address": w.address, "detail": w.detail}


def _verdict_json(v) -> dict:
    return {
        "complete": v.complete,
        "complete_witness": _witness_json(v.complete_witness),
        "discrete": v.discrete,
        "discrete_witness": _witness_json(v.discrete_witness),
        "totally_bounded": v.totally_bounded,
        "totally_bounded_witness": _witness_json(v.totally_bounded_witness),
        "discrete_and_tb": v.discrete_and_tb,
        "compact": v.compact,
        "compact_witness": _witness_json(v.compact_witness),
    }


def _verdict_table(v) -> str:
    rows = [
        ("complete", v.complete, v.complete_witness),
        ("discrete", v.discrete, v.discrete_witness),
        ("totally_bounded", v.totally_bounded, v.totally_bounded_witness),
        ("discrete_and_tb", v.discrete_and_tb, None),
        ("compact", v.compact, v.compact_witness),
    ]
    lines = []
    for name, flag, w in rows:
        line = f"{name:<16} {'true' if flag else 'false'}"
        if w is not None:
            line += f"  [{w.kind}] {w.address}: {w.detail}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _single(values, flag: str):
    if not values:
        raise _UsageError(f"missing {flag}")
    if len(values) > 1:
        raise _UsageError(f"{flag} given more than once")
    return values[0]


# ---------------------------------------------------------------------------
# command implementations


def _cmd_validate(args) -> int:
    if args.tree:
        tree_from_json(_load(_single(args.tree, "--tree")))
    elif args.space:
        space_from_json(_load(_single(args.space, "--space")))
    elif args.symbolic:
        symbolic_from_json(_load(_single(args.symbolic, "--symbolic")))
    else:
        raise _UsageError("validate needs --tree, --space or --symbolic")
    print("valid")
    return 0


def _cmd_dist(args) -> int:
    tree = tree_from_json(_load(_single(args.tree, "--tree")))
    if not args.u or not args.v:
        raise _UsageError("dist needs --u and --v")
    from .core_tree import dl_naive

    print(format_rational(dl_naive(tree, args.u, args.v)))
    return 0


def _cmd_matrix(args) -> int:
    tree = tree_from_json(_load(_single(args.tree, "--tree")))
    space = distance_matrix(tree)
    if args.json:
        _emit(json.dumps(space_to_json(space), indent=2) + "\n", args.out)
        return 0
    rows = format_rows(space.dist)
    width = max(map(len, itertools.chain(space.points, *rows)))
    head = " ".join(p.rjust(width) for p in space.points)
    lines = [f"{'':>{width}} {head}"]
    for p, row in zip(space.points, rows):
        cells = " ".join([e.rjust(width) for e in row])
        lines.append(f"{p:>{width}} {cells}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_hull(args) -> int:
    tree = tree_from_json(_load(_single(args.tree, "--tree")))
    if not args.set:
        raise _UsageError("hull needs --set")
    a = [x.strip() for x in args.set.split(",") if x.strip()]
    h = hull(tree, a)
    if args.json:
        _emit(json.dumps(tree_to_json(h.subtree), indent=2) + "\n", args.out)
    else:
        _emit(" ".join(h.subtree.vertices) + "\n", args.out)
    return 0


def _cmd_attach_point(args) -> int:
    tree = tree_from_json(_load(_single(args.tree, "--tree")))
    if not args.set or not args.v:
        raise _UsageError("attach-point needs --set and --v")
    s = [x.strip() for x in args.set.split(",") if x.strip()]
    report = attachment_point(tree, s, args.v)
    if args.json:
        print(
            json.dumps(
                {
                    "tooth": report.tooth,
                    "root": report.root,
                    "path": list(report.path),
                }
            )
        )
    else:
        print(report.root)
    return 0


def _cmd_iso(args) -> int:
    if args.tree and len(args.tree) == 2:
        t1 = tree_from_json(_load(args.tree[0]))
        t2 = tree_from_json(_load(args.tree[1]))
        mapping = is_isomorphic_labeled(t1, t2)
    elif args.space and len(args.space) == 2:
        s1 = space_from_json(_load(args.space[0]))
        s2 = space_from_json(_load(args.space[1]))
        mapping = isometric(s1, s2)
    else:
        raise _UsageError("iso needs --tree twice or --space twice")
    if args.json:
        print(json.dumps({"isomorphic": mapping is not None, "map": mapping}))
    elif mapping is None:
        print("none")
    else:
        print(" ".join(f"{k}->{mapping[k]}" for k in sorted(mapping)))
    return 0


def _cmd_classify(args) -> int:
    node = symbolic_from_json(_load(_single(args.symbolic, "--symbolic")))
    verdict = classify(node)
    if args.json:
        _emit(json.dumps(_verdict_json(verdict), indent=2) + "\n", args.out)
    else:
        _emit(_verdict_table(verdict), args.out)
    return 0


def _cmd_predicates(args) -> int:
    node = symbolic_from_json(_load(_single(args.symbolic, "--symbolic")))
    rep = free_predicates(node)
    iso_rep = isolated_points(node)
    if args.json:
        payload = {
            "rayless": rep.rayless,
            "locally_finite": rep.locally_finite,
            "finite": rep.finite,
            "has_adjacent_infinite_degree_pair": (
                rep.has_adjacent_infinite_degree_pair
            ),
            "countable": rep.countable,
            "pair_witness": rep.pair_witness,
            "vertex_classes": [
                {
                    "address": c.address,
                    "status": c.status,
                    "label": c.label,
                    "detail": c.detail,
                    "neighbor_witnesses": list(c.neighbor_witnesses),
                }
                for c in iso_rep.classes
            ],
            "note": iso_rep.note,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [
        f"rayless                            {str(rep.rayless).lower()}",
        f"locally_finite                     {str(rep.locally_finite).lower()}",
        f"finite                             {str(rep.finite).lower()}",
        "has_adjacent_infinite_degree_pair  "
        + str(rep.has_adjacent_infinite_degree_pair).lower(),
        f"countable                          {str(rep.countable).lower()}",
    ]
    if rep.pair_witness:
        lines.append(f"pair witness: {rep.pair_witness}")
    lines.append("vertex classes:")
    for c in iso_rep.classes:
        lines.append(f"  {c.address}: {c.status} ({c.detail})")
        for w in c.neighbor_witnesses:
            lines.append(f"    vanishing neighbor: {w}")
    lines.append(f"note: {iso_rep.note}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_witness_labeling(args) -> int:
    node = symbolic_from_json(_load(_single(args.symbolic, "--symbolic")))
    if args.goal == "compact":
        w = compact_labeling_witness(node)
    else:
        w = discrete_tb_labeling_witness(node)
    if args.json:
        payload = {
            "labeling": symbolic_to_json(w.tree),
            "verdict": _verdict_json(w.verdict),
            "summary": w.summary,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(
            w.summary + "\n" + json.dumps(symbolic_to_json(w.tree), indent=2)
            + "\n",
            args.out,
        )
    return 0


def _cmd_truncate(args) -> int:
    node = symbolic_from_json(_load(_single(args.symbolic, "--symbolic")))
    if args.budget is None:
        raise _UsageError("truncate needs --budget")
    cap = _env_cap(TRUNCATE_SIZE_CAP, 1_000_000)
    tree, addr_map = truncate(node, args.budget, size_cap=cap)
    payload = tree_to_json(tree)
    payload["addresses"] = addr_map
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_conjecture_predicate(args) -> int:
    space = space_from_json(_load(_single(args.space, "--space")))
    ok, failing = conjecture_predicate(space)
    if args.json:
        payload = {"predicate": ok}
        if failing is not None:
            payload["failing_ball"] = {
                "center": failing.center,
                "radius": format_rational(failing.radius),
                "members": list(failing.members),
            }
        print(json.dumps(payload))
    elif ok:
        print("true")
    else:
        print(f"false (failing ball: {{{', '.join(failing.members)}}})")
    return 0


def _cmd_representable(args) -> int:
    space = space_from_json(_load(_single(args.space, "--space")))
    tree = representable(space)
    if args.json:
        payload = {"representable": tree is not None}
        if tree is not None:
            payload["witness_tree"] = tree_to_json(tree)
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif tree is None:
        print("not representable")
    else:
        _emit(json.dumps(tree_to_json(tree), indent=2) + "\n", args.out)
    return 0


def _cmd_scan(args) -> int:
    if args.n is None or not args.values:
        raise _UsageError("scan needs --n and --values")
    values = _parse_values(args.values)
    report = conjecture_scan(args.n, values)
    lines = []
    for r in report.records:
        rec = {
            "space_id": r.space_id,
            "canonical_hierarchy": r.canonical_hierarchy,
            "predicate": r.predicate,
            "representable": r.representable,
        }
        if r.witness_tree is not None:
            rec["witness_tree"] = tree_to_json(r.witness_tree)
        lines.append(json.dumps(rec))
    _emit("\n".join(lines) + "\n", args.out)
    print(
        f"scanned {len(report.records)} spaces: "
        f"{report.agree_count} agree, {report.disagree_count} disagree",
        file=sys.stderr,
    )
    if report.disagreements:
        print(
            "disagreements: " + ", ".join(report.disagreements),
            file=sys.stderr,
        )
    return 0


def _cmd_example(args) -> int:
    name = args.name

    def write(path: str, payload: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")

    if name == "fig10":
        write(args.out or "fig10.json", symbolic_to_json(builders.fig10()))
    elif name == "fig1":
        write(args.out or "fig1.json", symbolic_to_json(builders.fig1()))
    elif name == "star-path":
        star, path = builders.star_vs_path()
        prefix = args.out or ""
        write(prefix + "star.json", tree_to_json(star))
        write(prefix + "path.json", tree_to_json(path))
    elif name == "four-point":
        write(
            args.out or "four_point.json",
            space_to_json(builders.four_point_space()),
        )
    else:
        raise _UsageError(f"unknown example {name!r}")
    return 0


def _cmd_export_dot(args) -> int:
    tree = tree_from_json(_load(_single(args.tree, "--tree")))
    generating: tuple[str, ...] = ()
    roots: tuple[str, ...] = ()
    if args.set:
        a = [x.strip() for x in args.set.split(",") if x.strip()]
        h = hull(tree, a)
        generating = tuple(a)
        roots = tuple(sorted(set(attachment_points(tree, h.subtree.vertices).values())))
    _emit(export_dot(tree, generating, roots), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description=(
            "Ultrametric spaces generated by vertex-labeled trees: "
            "distances, hulls, classification, representability."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, needs_goal: bool = False, needs_name: bool = False):
        p = sub.add_parser(name)
        if needs_goal:
            p.add_argument("goal", choices=["compact", "discrete-tb"])
        if needs_name:
            p.add_argument(
                "name", choices=["fig10", "fig1", "star-path", "four-point"]
            )
        p.add_argument("--tree", action="append", metavar="FILE")
        p.add_argument("--symbolic", action="append", metavar="FILE")
        p.add_argument("--space", action="append", metavar="FILE")
        p.add_argument("--u", metavar="ID")
        p.add_argument("--v", metavar="ID")
        p.add_argument("--set", metavar="ID,ID,...")
        p.add_argument("--budget", type=int, metavar="N")
        p.add_argument("--n", type=int, metavar="N")
        p.add_argument("--values", metavar="LIST")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", metavar="FILE")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate)
    add("dist", _cmd_dist)
    add("matrix", _cmd_matrix)
    add("hull", _cmd_hull)
    add("attach-point", _cmd_attach_point)
    add("iso", _cmd_iso)
    add("classify", _cmd_classify)
    add("predicates", _cmd_predicates)
    add("witness-labeling", _cmd_witness_labeling, needs_goal=True)
    add("truncate", _cmd_truncate)
    add("conjecture-predicate", _cmd_conjecture_predicate)
    add("representable", _cmd_representable)
    add("scan", _cmd_scan)
    add("example", _cmd_example, needs_name=True)
    add("export-dot", _cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UltraTreeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
