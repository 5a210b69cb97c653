"""Command-line interface.

Subcommands: describe, describe-variety, recognize, tree, base,
patterns-poset, bounds, economical.  Groups are given as spec strings
("A3", "B2", "D4", "G2"); type A elements in one-line notation ("2143"),
general elements as dot-separated reduced words ("s1.s3.s2").  Output is
plain text by default, JSON or DOT via --format.
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


def _parse_element(group: WeylGroup, text: str) -> WeylElement:
    """A word, or in type A a one-line permutation: with MAX_RANK = 8 no
    generator index has two digits, so two or more digits are one-line."""
    text = text.strip()
    if group.type_letter == "A" and text.isdecimal() and len(text) >= 2:
        return group.from_one_line(tuple(int(c) for c in text))
    return group.element(parse_word(text))


def _element_str(group: WeylGroup, w: WeylElement) -> str:
    if group.type_letter == "A":
        return f"{one_line_str(group.one_line(w))} ({word_str(w.word)})"
    return word_str(w.word)


def _weights_plain(group, pws) -> str:
    return ", ".join(weight_label(group, pw) for pw in pws) if pws else "(none)"


def _cmd_describe(args, variety: bool) -> int:
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
    if args.format == "json":
        print(
            json.dumps(
                {
                    "group": group.datum.name,
                    "w": _element_str(group, w),
                    "zero": [weight_json(group, pw) for pw in desc.equalities],
                    "nonzero": [weight_json(group, pw) for pw in desc.inequalities],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"cell of {_element_str(group, w)} in {group.datum.name}:")
        print(f"  zero: {_weights_plain(group, desc.equalities)}")
        print(f"  nonzero: {_weights_plain(group, desc.inequalities)}")
    return 0


def _cmd_recognize(args) -> int:
    group = weyl_group(args.group)
    if group.type_letter != "A":
        print("recognize requires a type A group (flag input)", file=sys.stderr)
        return 1
    n = group.rank + 1
    if args.flag:
        rows = flags.load_flag_rows(args.flag)
        if len(rows) != n:
            print(f"flag size {len(rows)} does not match {group.datum.name}", file=sys.stderr)
            return 1
        flag = flags.Flag(rows)
    elif args.cell:
        w = _parse_element(group, args.cell)
        flag = flags.random_cell_point(group.one_line(w), seed=args.seed)
    else:
        print("recognize needs --flag FILE or --cell W", file=sys.stderr)
        return 1
    perm, log = recognition.recognize_typeA(recognition.FlagOracle(flag), n)
    names = [weight_label(group, pw) for pw, _ in log.entries]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "w": one_line_str(perm),
                    "queries": [
                        [weight_json(group, pw), bit] for pw, bit in log.entries
                    ],
                    "count": log.count,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"w = {one_line_str(perm)}; queries = {log.count} ({', '.join(names)})")
        if args.trace:
            for pw, bit in log.entries:
                rel = "= 0" if bit == 0 else "!= 0"
                print(f"  {weight_label(group, pw)} {rel}")
    return 0


def _cmd_tree(args) -> int:
    group = weyl_group(args.group)
    strategy = "optimal" if args.optimal else "algorithmic"
    if args.format == "dot":
        print(recognition.build_decision_tree(group, strategy).to_dot())
        return 0
    depth = recognition.worst_case_queries(group, strategy)
    if args.format == "json":
        print(json.dumps({"strategy": strategy, "depth": depth}, sort_keys=True))
    else:
        print(f"{strategy} decision tree for {group.datum.name}: depth {depth}")
    return 0


def _cmd_base(args) -> int:
    group = weyl_group(args.group)
    members = base_mod.weyl_base(group)
    weights = base_mod.base_weights(group)
    triples = {}
    if group.type_letter == "A":
        for triple, perm, subset in base_mod.bigrassmannian_typeA(group.rank + 1):
            triples[perm] = (triple, subset)
    if args.format == "json":
        out = []
        for b, pw in zip(members, weights):
            rec = {
                "element": _element_str(group, b.element),
                "left_descent": b.left_descent,
                "right_descent": b.right_descent,
                "weight": weight_json(group, pw),
            }
            if group.type_letter == "A":
                triple, _ = triples[group.one_line(b.element)]
                rec["triple"] = list(triple)
            out.append(rec)
        print(json.dumps(out, sort_keys=True))
    else:
        for b, pw in zip(members, weights):
            line = f"{weight_label(group, pw)}  element {_element_str(group, b.element)}"
            if group.type_letter == "A":
                triple, _ = triples[group.one_line(b.element)]
                line += f"  triple {triple}"
            print(line)
    return 0


def _cmd_patterns_poset(args) -> int:
    group = weyl_group(args.group)
    if group.type_letter != "A":
        print("patterns-poset requires a type A group", file=sys.stderr)
        return 1
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
    realizable = flags.realizable_restricted_patterns(n, coords)
    labels = {
        key: tuple(one_line_str(w) for w in ws)
        for key, ws in realizable.patterns.items()
    }
    poset = patterns.pattern_poset(coords, labels)
    if args.format == "dot":
        print(poset.to_dot())
    elif args.format == "json":
        print(poset.to_json())
    else:
        print(
            f"{len(poset.vertices)} realizable patterns over "
            f"({', '.join(weight_label(group, c) for c in coords)}) [exact]"
        )
        for v in poset.vertices:
            print(f"  {''.join(map(str, v))}  cell {','.join(labels[v])}")
    return 0


def _cmd_bounds(args) -> int:
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
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print(
                f"k={fam.k}: defining the variety of {payload['w']} in S_{fam.n} needs "
                f">= {fam.lower_bound} equations (family of {fam.size} witnesses; "
                f"codimension {fam.codimension})"
            )
        return 0
    if args.feedback_free is not None:
        res = bounds_mod.feedback_free_min_set(args.feedback_free)
        payload = {
            "n": res.n,
            "size": res.size,
            "subsets": [subset_str(s) for s in res.subsets],
            "unique": res.unique,
            "certified": True,  # every answer is exact; the key keeps the JSON shape
        }
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print(
                f"n={res.n}: minimal feedback-free set has size {res.size} [exact]"
                f"{' (unique)' if res.unique else ''}"
            )
            print("  coordinates: " + ", ".join("p" + subset_str(s) for s in res.subsets))
        return 0
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
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print(
                f"defining the variety of {w_text} in S_{n}: >= {size} equations "
                f"(universal set has {upper})"
            )
            print("  certificate: " + ", ".join("p" + subset_str(s) for s in certificate))
        return 0
    print("bounds needs one of --witness K, --feedback-free N, --defining W N", file=sys.stderr)
    return 1


def _cmd_economical(args) -> int:
    group = weyl_group(args.group)
    ordering = None
    if args.ordering is not None:
        tokens = args.ordering.split(",")
        for token in tokens:
            if not token.strip().isdecimal():
                raise ValueError(f"cannot parse {token!r} in --ordering: expected an integer")
        ordering = WeightOrdering(int(x) for x in tokens)
    ordering = active_ordering(group, ordering)
    rows = []
    for i in range(1, group.rank + 1):
        rows.append({"index": i, "orbit_size": orbit_size(group, i),
                     "roots": len(roots_R(group, i)),
                     "economical": is_economical_index(group, i)})
    ordering_ok = is_economical_ordering(group, ordering)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "group": group.datum.name,
                    "indices": rows,
                    "ordering": list(ordering.order),
                    "ordering_economical": ordering_ok,
                },
                sort_keys=True,
            )
        )
    else:
        for row in rows:
            mark = "economical" if row["economical"] else "not economical"
            print(
                f"index {row['index']}: 1 + |R(i)| = {1 + row['roots']}, "
                f"|W w_i| = {row['orbit_size']} -> {mark}"
            )
        verdict = "economical" if ordering_ok else "not economical"
        print(f"ordering {ordering.order}: {verdict}")
    return 0


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
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early (`| head`): devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
