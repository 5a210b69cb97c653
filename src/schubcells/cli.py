"""Command-line interface.

Subcommands: describe, describe-variety, recognize, tree, base,
patterns-poset, bounds, economical.  Groups are given as spec strings
("A3", "B2", "D4", "G2"); type A elements in one-line notation ("2143"),
elements of every type as dot-separated words ("s1.s3.s2"), which need not
be reduced.  Output is plain text by default, JSON or DOT via --format.

Each command returns its JSON payload and its plain (or DOT) lines; `main`
picks one by --format and is the one place that writes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import base as base_mod
from . import bounds as bounds_mod
from . import cells, flags, patterns, recognition
from .errors import UnacceptableInputError, UnsupportedGroupError
from .perms import one_line_str
from .plucker import (
    WeightOrdering,
    active_ordering,
    is_economical_index,
    is_economical_ordering,
    orbit_size,
    roots_R,
    subset_str,
    weight_from_subset,
    weight_json,
    weight_label,
)
from .weyl import WeylElement, WeylGroup, parse_word, weyl_group, word_str


class _Refusal(Exception):
    """A refusal that stderr shows as is, with no prefix; the exit code is 1."""


def _parse_element(group: WeylGroup, text: str) -> WeylElement:
    """A word, or in type A a one-line permutation: with MAX_RANK = 8 no
    generator index has two digits, so two or more digits are one-line
    (`test_one_line_parsing_rests_on_max_rank` trips if MAX_RANK grows)."""
    text = text.strip()
    if group.type_letter == "A" and text.isdecimal() and len(text) >= 2:
        return group.from_one_line(tuple(int(c) for c in text))
    return group.element(parse_word(text))


def _element_str(group: WeylGroup, w: WeylElement) -> str:
    if group.type_letter == "A":
        return f"{one_line_str(group.one_line(w))} ({word_str(w.word)})"
    return word_str(w.word)


def _listing(labels) -> str:
    return ", ".join(labels) or "(none)"


def _cmd_describe(args, variety: bool):
    group = weyl_group(args.group)
    w = _parse_element(group, args.w)
    if variety:
        desc = cells.variety_equations(group, w)
    elif group.type_letter == "D":
        desc = cells.cell_description_typeD(group, w)
    elif group.type_letter == "A":
        desc = cells.cell_description_typeA(group, w)
    else:
        desc = cells.cell_description_economical(group, w)
    payload = {
        "group": group.datum.name,
        "w": _element_str(group, w),
        "zero": [weight_json(group, pw) for pw in desc.equalities],
        "nonzero": [weight_json(group, pw) for pw in desc.inequalities],
    }
    return payload, [
        f"cell of {payload['w']} in {group.datum.name}:",
        f"  zero: {_listing(weight_label(group, pw) for pw in desc.equalities)}",
        f"  nonzero: {_listing(weight_label(group, pw) for pw in desc.inequalities)}",
    ]


def _cmd_recognize(args):
    group = weyl_group(args.group)
    if group.type_letter != "A":
        raise _Refusal("recognize requires a type A group (flag input)")
    n = group.rank + 1
    if args.flag:
        rows = flags.load_flag_rows(args.flag)
        if len(rows) != n:
            raise _Refusal(f"flag size {len(rows)} does not match {group.datum.name}")
        flag = flags.Flag(rows)
    elif args.cell:
        w = _parse_element(group, args.cell)
        flag = flags.random_cell_point(group.one_line(w), seed=args.seed)
    else:
        raise _Refusal("recognize needs --flag FILE or --cell W")
    perm, log = recognition.recognize_typeA(recognition.FlagOracle(flag), n)
    payload = {
        "w": one_line_str(perm),
        "queries": [[weight_json(group, pw), bit] for pw, bit in log.entries],
        "count": log.count,
    }
    names = [weight_label(group, pw) for pw, _ in log.entries]
    lines = [f"w = {payload['w']}; queries = {log.count} ({', '.join(names)})"]
    if args.trace:
        lines += [f"  {name} {'= 0' if bit == 0 else '!= 0'}"
                  for name, (_, bit) in zip(names, log.entries)]
    return payload, lines


def _cmd_tree(args):
    group = weyl_group(args.group)
    strategy = "optimal" if args.optimal else "algorithmic"
    if args.format == "dot":
        return None, [recognition.build_decision_tree(group, strategy).to_dot()]
    depth = recognition.worst_case_queries(group, strategy)
    return ({"strategy": strategy, "depth": depth},
            [f"{strategy} decision tree for {group.datum.name}: depth {depth}"])


def _cmd_base(args):
    group = weyl_group(args.group)
    triples = {}
    if group.type_letter == "A":
        triples = {perm: triple
                   for triple, perm, _ in base_mod.bigrassmannian_typeA(group.rank + 1)}
    records, lines = [], []
    for b, pw in zip(base_mod.weyl_base(group), base_mod.base_weights(group)):
        element = _element_str(group, b.element)
        record = {
            "element": element,
            "left_descent": b.left_descent,
            "right_descent": b.right_descent,
            "weight": weight_json(group, pw),
        }
        line = f"{weight_label(group, pw)}  element {element}"
        if triples:
            triple = triples[group.one_line(b.element)]
            record["triple"] = list(triple)
            line += f"  triple {triple}"
        records.append(record)
        lines.append(line)
    return records, lines


def _cmd_patterns_poset(args):
    group = weyl_group(args.group)
    if group.type_letter != "A":
        raise _Refusal("patterns-poset requires a type A group")
    n = group.rank + 1
    if args.coords:
        import re

        coords = []
        # split on the commas outside braces: "p{1,3},p2" is p13 and p2
        for token in re.split(r",(?![^{}]*\})", args.coords):
            body = token.strip().removeprefix("p")
            if body.startswith("{") and body.endswith("}"):
                entries = body[1:-1].split(",")
            else:
                entries = list(body)
            if not entries or not all(e.strip().isdecimal() for e in entries):
                raise ValueError(f"cannot parse coordinate {token!r}")
            try:
                pw = weight_from_subset(group, [int(e) for e in entries])
            except ValueError as exc:
                raise ValueError(f"{exc} (coordinate {token!r})") from None
            if pw in coords:
                raise ValueError(f"coordinate {token!r} repeated in --coords")
            coords.append(pw)
    else:
        coords = list(base_mod.base_weights(group))
    labels = {
        key: tuple(one_line_str(w) for w in ws)
        for key, ws in flags.realizable_restricted_patterns(n, coords).items()
    }
    poset = patterns.pattern_poset(labels)
    if args.format == "dot":
        return None, [poset.to_dot()]
    bits = {v: "".join(map(str, v)) for v in poset.vertices}
    payload = {
        "vertices": [{"pattern": bits[v], "cell": list(labels[v])} for v in poset.vertices],
        "edges": [[bits[lo], bits[hi]] for lo, hi in poset.covers],
    }
    return payload, [
        f"{len(poset.vertices)} realizable patterns over "
        f"({', '.join(weight_label(group, c) for c in coords)}) [exact]",
        *(f"  {bits[v]}  cell {','.join(labels[v])}" for v in poset.vertices),
    ]


def _cmd_bounds(args):
    if args.witness is not None:
        fam = bounds_mod.construct_witness_family(args.witness)
        payload = {
            "k": fam.k,
            "n": fam.n,
            "w": one_line_str(fam.w),
            "family_size": fam.size,
            "lower_bound": fam.lower_bound,
            "codimension": fam.codimension,
            "witnesses": [one_line_str(u) for u in fam.members],
        }
        return payload, [
            f"k={fam.k}: defining the variety of {payload['w']} in S_{fam.n} needs "
            f">= {fam.lower_bound} equations (family of {fam.size} witnesses; "
            f"codimension {fam.codimension})"
        ]
    if args.feedback_free is not None:
        res = bounds_mod.feedback_free_min_set(args.feedback_free)
        payload = {
            "n": res.n,
            "size": res.size,
            "subsets": [subset_str(s) for s in res.subsets],
            "unique": res.unique,
            "certified": True,  # every answer is exact; the key keeps the JSON shape
        }
        return payload, [
            f"n={res.n}: minimal feedback-free set has size {res.size} [exact]"
            f"{' (unique)' if res.unique else ''}",
            f"  coordinates: {_listing('p' + s for s in payload['subsets'])}",
        ]
    if args.defining:
        for token in args.defining:
            if not token.isdecimal():
                raise ValueError(f"cannot parse {token!r} in --defining: expected digits")
        w_text, n_text = args.defining
        n = int(n_text)
        w = tuple(int(c) for c in w_text)
        size, certificate = bounds_mod.minimum_defining_hitting_set(w, n)
        upper = bounds_mod.variety_equation_count(w, n)
        payload = {
            "w": w_text,
            "n": n,
            "lower_bound": size,
            "universal_count": upper,
            "certificate": [subset_str(s) for s in certificate],
        }
        return payload, [
            f"defining the variety of {w_text} in S_{n}: >= {size} equations "
            f"(universal set has {upper})",
            f"  certificate: {_listing('p' + s for s in payload['certificate'])}",
        ]
    raise _Refusal("bounds needs one of --witness K, --feedback-free N, --defining W N")


def _cmd_economical(args):
    group = weyl_group(args.group)
    ordering = None
    if args.ordering is not None:
        tokens = args.ordering.split(",")
        for token in tokens:
            if not token.strip().isdecimal():
                raise ValueError(f"cannot parse {token!r} in --ordering: expected an integer")
        ordering = WeightOrdering(int(x) for x in tokens)
    ordering = active_ordering(group, ordering)
    rows, lines = [], []
    for i in range(1, group.rank + 1):
        row = {"index": i, "orbit_size": orbit_size(group, i),
               "roots": len(roots_R(group, i)),
               "economical": is_economical_index(group, i)}
        rows.append(row)
        lines.append(
            f"index {i}: 1 + |R(i)| = {1 + row['roots']}, |W w_i| = {row['orbit_size']} -> "
            f"{'economical' if row['economical'] else 'not economical'}"
        )
    ordering_ok = is_economical_ordering(group, ordering)
    lines.append(f"ordering {ordering.order}: "
                 f"{'economical' if ordering_ok else 'not economical'}")
    payload = {
        "group": group.datum.name,
        "indices": rows,
        "ordering": list(ordering.order),
        "ordering_economical": ordering_ok,
    }
    return payload, lines


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubcells",
        description="Schubert cells via vanishing patterns of Plucker coordinates",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for sampled flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="short description of a cell")
    p.add_argument("--group", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("describe-variety", help="defining equations of a variety")
    p.add_argument("--group", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("recognize", help="recognize the cell of a flag")
    p.add_argument("--group", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--flag", help="JSON or CSV matrix of rationals")
    source.add_argument("--cell", help="sample a generic point of this cell instead")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("tree", help="decision tree of the recognition algorithm")
    p.add_argument("--group", required=True)
    p.add_argument("--optimal", action="store_true")
    p.add_argument("--format", choices=("plain", "json", "dot"), default="plain")

    p = sub.add_parser("base", help="base of the Bruhat order")
    p.add_argument("--group", required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("patterns-poset", help="poset of realizable restricted patterns")
    p.add_argument("--group", required=True)
    p.add_argument("--coords", help="comma-separated subsets, e.g. p2,p3,p13,p23")
    p.add_argument("--format", choices=("plain", "json", "dot"), default="plain")

    p = sub.add_parser("bounds", help="lower-bound constructions")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--witness", type=int)
    mode.add_argument("--feedback-free", type=int, dest="feedback_free")
    mode.add_argument("--defining", nargs=2, metavar=("W", "N"))
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("economical", help="economical indices and orderings")
    p.add_argument("--group", required=True)
    p.add_argument("--ordering", help="comma-separated index order, e.g. 2,1")
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    commands = {
        "describe": lambda a: _cmd_describe(a, variety=False),
        "describe-variety": lambda a: _cmd_describe(a, variety=True),
        "recognize": _cmd_recognize,
        "tree": _cmd_tree,
        "base": _cmd_base,
        "patterns-poset": _cmd_patterns_poset,
        "bounds": _cmd_bounds,
        "economical": _cmd_economical,
    }
    try:
        payload, lines = commands[args.command](args)
        as_json = args.format == "json" and payload is not None
        print(json.dumps(payload, sort_keys=True) if as_json else "\n".join(lines))
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # stdout closed early (`| head`): devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 1
    except UnsupportedGroupError as exc:
        print(f"unsupported group: {exc}", file=sys.stderr)
        return 3
    except (UnacceptableInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
