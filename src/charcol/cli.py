"""Command line front end.

Commands: column, lift, indres, mckay, table, verify. Each reads --chain with
``verify.load_chain``: a built-in name, or a JSON file holding a chain ("levels")
or a base-group table H ("irreps", "classes") for H wr S_n. An ingested chain
has positions for irrep labels, so column, lift and table refuse it. Exit statuses:
0 success, 1 verification failure (a failed suite, a rejected ingested chain,
or a broken lift invariant), 2 usage error (including an output path that
cannot be written), 3 resource bound exceeded.
All outputs are deterministic for a given invocation; payloads carry no
timestamps. The group-order bound defaults to 10000 and can be overridden per
run with --max-order or globally with CHARCOL_MAX_ORDER. It refuses every
group whose table or classes are built: wreath products, S_k tables and
border-strip columns, though none of them enumerates the group. The bound
stays so that pinned reports, which stop where it stops them, keep their
bytes. A bound that is not a non-negative integer is a usage error on every
command.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext

from . import mckay, verify
from .chain import Chain, require_symmetric
from .engine import character_column, odd_column, reduced_operator
from .hgroup import SizeBoundError, load_table, order_bound
from .lifting import InvariantError, lift
from .verify import IngestError, load_chain, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _write(args, text: str, rows=()):
    """The text, then ``rows`` as CSV rows, one csv.writer quoting every label that holds a comma."""
    with open(args.out, "w") if getattr(args, "out", None) else nullcontext(sys.stdout) as fh:
        fh.write(text)
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _labelled(chain: Chain, what: str) -> Chain:
    """The chain, unless it is an ingested one, whose irreps are positions."""
    if not chain.has_irrep_labels:
        raise ValueError(f"{what} needs irrep labels, and the ingested chain {chain.id!r} "
                         "lists positions instead")
    return chain


def _output_order(chain: Chain, n: int, paper_order: bool):
    return chain.mirrored_order(n) if paper_order else chain.basis(n)


def cmd_column(args) -> int:
    chain = _labelled(load_chain(args.chain), "column")
    cls = chain.parse_class(args.cls)
    table = load_table(args.table) if args.table else None
    if args.odd:
        require_symmetric(chain, "column --odd's plusPart")  # the symmetric chain's Y
        column = odd_column(cls, args.n, chain=chain, max_order=args.max_order, table=table)
    else:
        column = character_column(chain, cls, args.n, max_order=args.max_order, table=table)
    order = _output_order(chain, args.n, args.paper_order)
    entries = [(chain.format_label(lab), column.coeffs.get(lab, 0)) for lab in order]
    payload = {
        "chain": chain.id,
        "n": args.n,
        "class": chain.format_class(column.class_label),
        "entries": [[lab, v] for lab, v in entries],
    }
    if args.odd:
        payload["plusPart"] = [[chain.format_label(lab), column.coeffs.get(lab, 0)]
                               for lab in reduced_operator(args.n).plus_basis]
    if args.oracle:
        oracle = chain.reference_column(column.class_label, args.n, chain.group_order(args.n))
        payload["oracle"] = [[chain.format_label(lab), oracle.get(lab, 0)] for lab in order]
        payload["oracleMatches"] = oracle == column.coeffs
    if args.format == "csv":  # label,value, and with --oracle the oracle's value third
        ends = [[v] for _, v in payload["oracle"]] if args.oracle else [[]] * len(entries)
        _write(args, "", ([lab, v, *end] for (lab, v), end in zip(entries, ends)))
    else:
        _write(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_lift(args) -> int:
    chain = _labelled(load_chain(args.chain), "lift")
    label = chain.parse_label(args.label)
    level = chain.label_level(label)
    if level != args.k:
        raise ValueError(f"label {args.label} lives at level {level}, not k={args.k}")
    index = chain.basis_index(chain.check_level(args.n))
    items = sorted(lift(chain, label, args.n).items(), key=lambda kv: index[kv[0]])
    payload = {chain.format_label(lab): verify.jsonable(v) for lab, v in items}
    _write(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_indres(args) -> int:
    chain = load_chain(args.chain)
    matrix = chain.ind_res(args.n)
    order = _output_order(chain, args.n, args.paper_order)
    position = {chain.basis_index(args.n)[lab]: i for i, lab in enumerate(order)}
    entries = sorted((position[r], position[c], v) for (r, c), v in matrix.data.items())
    payload = {
        "n": args.n,
        "basis": [chain.format_label(lab) for lab in order],
        "entries": [[r, c, v] for r, c, v in entries],
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_mckay(args) -> int:
    chain = load_chain(args.chain)
    graph = mckay.reduced_graph(args.n, chain) if args.reduced else mckay.build_graph(chain, args.n)
    _write(args, mckay.export(graph, args.format))
    return EXIT_OK


def cmd_table(args) -> int:
    chain = _labelled(load_chain(args.chain), "table")
    table = chain.small_table(chain.check_level(args.k), args.max_order)
    if args.format == "csv":  # a header row of class labels, then one row per irrep
        header = ["", *(lab for lab, _ in table.classes)]
        _write(args, "", [header, *([lab, *values] for lab, _, values in table.irreps)])
    else:
        _write(args, json.dumps(table.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    chain = load_chain(args.chain)
    if args.export:
        payload = verify.export_chain(_labelled(chain, "--export"), args.maxN, args.max_order)
        with open(args.export, "w") as fh:
            json.dump(payload, fh, indent=2)
    report = run_suite(chain, args.suite, args.maxN, args.max_order)
    _write(args, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charcol",
        description="Exact character-table columns for symmetric groups and "
        "wreath products, computed by polynomials in the induction-restriction operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, chain_default=None):
        p.add_argument("--chain", default=chain_default, required=chain_default is None,
                       help="chain spec: 'sym', 'z2wreath', 'trivial', 'Z2', or a JSON file "
                       "holding a chain ('levels') or a base-group table ('irreps', 'classes')")
        p.add_argument("--max-order", type=int, default=None,
                       help="order bound on every group whose table or classes are built, "
                       "S_k included (default 10000 or CHARCOL_MAX_ORDER)")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("column", help="character-table column of a class")
    add_common(p)
    p.add_argument("--class", dest="cls", required=True, help="class label: cycle type like '[3,1,1]' or "
                   "colored type like '1:[1];-1:[1]'; write --class=-1:[2] for one that starts with '-'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--odd", action="store_true",
                   help="sym only: refuse an even class; add plusPart, the column on the reduced plus basis")
    p.add_argument("--table", default=None,
                   help="GroupTable JSON for the class's own level, replacing the built-in one")
    p.add_argument("--oracle", action="store_true",
                   help="include the chain's reference column, computed without the engine, for comparison")
    p.add_argument("--paper-order", action="store_true",
                   help="print each label before its twin, the twins mirrored (sym: the paper's figure order)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_column)

    p = sub.add_parser("lift", help="lift an irrep label to a higher level")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="source level (checked against the label)")
    p.add_argument("--label", required=True, help="irrep label; write --label=-1:[2] for one that starts with '-'")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("indres", help="dump the Ind Res operator at one level")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump", action="store_true", help="accepted for compatibility; dumping is the default")
    p.add_argument("--paper-order", action="store_true", help="order the basis as column --paper-order does")
    p.set_defaults(func=cmd_indres)

    p = sub.add_parser("mckay", help="McKay graph export")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_mckay)

    p = sub.add_parser("table", help="character table of the level-k group")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run an identity suite; nonzero exit on failure")
    add_common(p, chain_default="sym")
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--maxN", type=int, default=6)
    p.add_argument("--export", default=None,
                   help="also export the chain in the ingestion JSON format")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        order_bound(args.max_order)  # a bad bound is refused even where no group is built
        return args.func(args)
    except SizeBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (IngestError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
