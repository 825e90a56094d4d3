"""Command line front end.

Commands: column, lift, indres, mckay, table, verify. Exit statuses:
0 success, 1 verification failure (a failed suite, a rejected ingested chain,
or a broken lift invariant), 2 usage error (including an output path that
cannot be written), 3 resource bound exceeded.
All outputs are deterministic for a given invocation; payloads carry no
timestamps. The group-order bound defaults to 10000 and can be overridden per
run with --max-order or globally with CHARCOL_MAX_ORDER. It refuses every
group whose table or classes are built: brute-force wreath products, and also
S_k tables and border-strip columns, though neither enumerates the group. A
bound that is not a non-negative integer is a usage error on every command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import mckay, verify
from .chain import Chain, get_chain, require_symmetric
from .engine import character_column, odd_column
from .hgroup import SizeBoundError, load_table, order_bound
from .lifting import InvariantError, lift
from .partitions import mirrored_order
from .verify import IngestError, ingest_chain, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _output_order(chain: Chain, n: int, paper_order: bool):
    if paper_order:
        require_symmetric(chain, "--paper-order")
        return mirrored_order(n)
    return chain.basis(n)


def cmd_column(args) -> int:
    chain = get_chain(args.chain)
    cls = chain.parse_class(args.cls)
    table = load_table(args.table) if args.table else None
    if args.odd:
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
    if args.odd and column.plus_part is not None:
        payload["plusPart"] = [
            [chain.format_label(lab), v] for lab, v in column.plus_part.items()
        ]
    if args.oracle:
        require_symmetric(chain, "--oracle (the border-strip oracle)")
        oracle = verify.oracle_column(column.class_label, args.n)
        payload["oracle"] = [
            [chain.format_label(lab), oracle.coeffs.get(lab, 0)] for lab in order
        ]
        payload["oracleMatches"] = oracle.coeffs == column.coeffs
    if args.format == "csv":
        lines = [f"{lab},{v}" for lab, v in entries]
        _write(args, "\n".join(lines) + "\n")
    else:
        _write(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_lift(args) -> int:
    chain = get_chain(args.chain)
    label = chain.parse_label(args.label)
    level = chain.label_level(label)
    if level != args.k:
        raise ValueError(f"label {args.label} lives at level {level}, not k={args.k}")
    items = sorted(
        lift(chain, label, args.n).items(),
        key=lambda kv: chain.basis_index(args.n)[kv[0]],
    )
    payload = {chain.format_label(lab): verify.jsonable(v) for lab, v in items}
    _write(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_indres(args) -> int:
    chain = get_chain(args.chain)
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
    chain = get_chain(args.chain)
    graph = mckay.reduced_graph(args.n, chain) if args.reduced else mckay.build_graph(chain, args.n)
    _write(args, mckay.export(graph, args.format))
    return EXIT_OK


def cmd_table(args) -> int:
    chain = get_chain(args.chain)
    if not chain.has_level(args.k):
        raise ValueError(f"chain {chain.id!r} has no level {args.k}")
    table = chain.small_table(args.k, args.max_order)
    if args.format == "csv":
        header = "," + ",".join(lab for lab, _ in table.classes)
        lines = [header]
        for lab, _, values in table.irreps:
            lines.append(lab + "," + ",".join(str(v) for v in values))
        _write(args, "\n".join(lines) + "\n")
    else:
        _write(args, json.dumps(table.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    chain = ingest_chain(args.chain) if os.path.isfile(args.chain) else get_chain(args.chain)
    if args.export:
        if not chain.has_irrep_labels:
            raise ValueError("--export needs a built-in chain")
        payload = verify.export_chain(chain, args.maxN, args.max_order)
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
                       help="chain spec: 'sym', 'z2wreath', or a base-group table JSON path")
        p.add_argument("--max-order", type=int, default=None,
                       help="order bound on every group whose table or classes are built, "
                       "S_k included (default 10000 or CHARCOL_MAX_ORDER)")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("column", help="character-table column of a class")
    add_common(p)
    p.add_argument("--class", dest="cls", required=True,
                   help="class label: cycle type like '[3,1,1]' or colored type like '1:[1];-1:[1]'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--odd", action="store_true", help="route through the reduced operator")
    p.add_argument("--table", default=None,
                   help="GroupTable JSON for the class's own level, replacing the built-in one")
    p.add_argument("--oracle", action="store_true",
                   help="include the border-strip oracle column for comparison")
    p.add_argument("--paper-order", action="store_true",
                   help="print in conjugate-mirrored order for figure comparison")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_column)

    p = sub.add_parser("lift", help="lift an irrep label to a higher level")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="source level (checked against the label)")
    p.add_argument("--label", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("indres", help="dump the Ind Res operator at one level")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump", action="store_true", help="accepted for compatibility; dumping is the default")
    p.add_argument("--paper-order", action="store_true")
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
