"""Command-line front end.

Subcommands: classify, block, decompose, construct, verify, dim.  Matrix
files use the JSON/CSV formats of `symalg.io`.  Exit codes: 0 success,
2 input error, 3 constructor precondition violation, 4 verification
failure — so CI can tell bad inputs apart from mathematical failures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import io as mio
from .blockform import to_block
from .construct import (
    CONSTRUCTIBLE,
    make_most_perfect_block,
    member_from_params,
    random_member,
)
from .decompose import split
from .errors import (
    DimensionError,
    ParseError,
    PreconditionError,
    SymalgError,
    VerificationError,
)
from .predicates import classify
from .verify import dimension_probe, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def _default_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("SYMALG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"SYMALG_SEED must be an integer, got {env!r}") from exc
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _print_matrix(m, fmt: str) -> None:
    if fmt == "pretty":
        width = max(len(mio.scalar_pretty(x)) for x in m.entries)
        for i in range(m.n):
            print(
                "  ".join(mio.scalar_pretty(m[i, j]).rjust(width) for j in range(m.n))
            )
    elif fmt == "csv":
        sys.stdout.write(mio.dumps_matrix_csv(m))
    else:
        print(mio.dumps_matrix(m))


def cmd_classify(args) -> int:
    report = classify(mio.read_matrix(args.input))
    if args.format == "pretty":
        print(report.pretty())
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_block(args) -> int:
    bf = to_block(mio.read_matrix(args.input))
    if args.out:
        mio.write_matrix(bf.conjugate, args.out)
    else:
        _print_matrix(bf.conjugate, args.format)
    return EXIT_OK


def cmd_decompose(args) -> int:
    pair = split(mio.read_matrix(args.input), args.split)
    mio.write_matrix(pair.even_part, args.even_out)
    mio.write_matrix(pair.odd_part, args.odd_out)
    if pair.weight is not None:
        print(f"even-part weight: {mio.scalar_pretty(pair.weight)}")
    return EXIT_OK


def _param_value(x):
    # JSON parameter value: strings are exact scalar literals, lists nest.
    if isinstance(x, str):
        return mio.scalar_from_string(x)
    if isinstance(x, list):
        return [_param_value(v) for v in x]
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ParseError(f"cannot interpret parameter value {x!r}")


# make_most_perfect_block's parameters; every other form's come from the
# constructor table.
_MPS_BLOCK = ("a", "b", "Z")


def cmd_construct(args) -> int:
    kind = args.type.lower()
    if kind not in CONSTRUCTIBLE:
        raise ParseError(f"unknown construction type {args.type!r}")
    w = mio.scalar_from_string(args.w) if args.w is not None else None
    if args.params:
        try:
            with open(args.params, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read parameter file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParseError("parameter file must hold a JSON object")
        if w is not None:
            raw.setdefault("w", args.w)
        p = {key: _param_value(val) for key, val in raw.items()}
        if kind == "mps" and p.keys() & set(_MPS_BLOCK):
            unknown = sorted(p.keys() - set(_MPS_BLOCK))
            if unknown:
                raise ParseError(
                    f"unknown parameter {', '.join(map(repr, unknown))} for the mps block form"
                )
            m = make_most_perfect_block(*(p.get(k) for k in _MPS_BLOCK), args.n)
        else:
            m = member_from_params(kind, args.n, p)
    else:
        rng = random.Random(_default_seed(args.seed))
        m = random_member(kind, args.n, rng, weight=w)
    if args.out:
        mio.write_matrix(m, args.out)
    else:
        _print_matrix(m, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite, n_max=args.n_max, trials=args.trials, seed=_default_seed(args.seed)
    )
    print(json.dumps(report, indent=2, default=str))
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def cmd_dim(args) -> int:
    value = dimension_probe(args.space, args.n)
    print(json.dumps({"space": args.space.upper(), "n": args.n, "dimension": value}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symalg",
        description="Exact classification, construction and verification of "
        "matrix symmetry spaces over Q(√2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="report all symmetry properties of a matrix file")
    p.add_argument("input")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("block", help="print the block representation X·M·X")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("decompose", help="split a matrix along one direct sum")
    p.add_argument("input")
    p.add_argument("--split", choices=("ba", "sv", "nm", "qp"), required=True)
    p.add_argument("--even-out", required=True)
    p.add_argument("--odd-out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", help="emit a member of a symmetry space")
    p.add_argument("--type", required=True, metavar="{" + ",".join(CONSTRUCTIBLE) + "}")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--w", help="weight, as an exact scalar literal")
    p.add_argument("--params", help="JSON file with explicit construction parameters")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run a verification suite, print a JSON report")
    p.add_argument(
        "--suite",
        choices=("gradings", "dimensions", "ranks", "lemmas", "all"),
        default="all",
    )
    p.add_argument("--n-max", type=_positive_int)
    p.add_argument("--trials", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dim", help="dimension of a symmetry space")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_dim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except SymalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
