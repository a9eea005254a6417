"""Command-line front end.

Subcommands: classify, block, decompose, construct, verify, dim.  Matrix
files use the JSON/CSV formats of `symalg.io`.  Exit codes: 0 success,
2 input error, 3 constructor precondition violation, 4 verification
failure (including a predicate self-check that caught the two routes
disagreeing) — so CI can tell bad inputs apart from mathematical failures.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import io as mio
from .blockform import SPLIT_TAGS, to_block
from .construct import CONSTRUCTIBLE, member_from_params, random_member
from .decompose import split
from .errors import (
    DimensionError,
    ParseError,
    PreconditionError,
    PredicatePathMismatch,
    SymalgError,
    VerificationError,
    shown,
)
from .predicates import classify
from .verify import build_constraints, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {shown(repr(text))}")
    return value


def _print_matrix(m, fmt: str) -> None:
    if fmt == "pretty":
        print(mio.dumps_matrix_pretty(m))
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
    # Every text, the weight's too, is rendered before any file is written,
    # so a part or a weight too long to print leaves no file written.
    texts = mio.render_matrices([(pair.even_part, args.even_out), (pair.odd_part, args.odd_out)])
    if pair.weight is not None:
        weight = mio.printed("a weight", mio.scalar_pretty, pair.weight)
    mio.write_texts(texts)
    if pair.weight is not None:
        print(f"even-part weight: {weight}")
    return EXIT_OK


def _param_value(x, depth: int = 2):
    # JSON parameter value: strings are exact scalar literals, and lists nest
    # at most `depth` deep, as a matrix holds rows of scalars.
    if isinstance(x, str):
        return mio.scalar_from_string(x)
    if isinstance(x, list):
        if not depth:
            raise ParseError("parameter values nest lists at most two deep (rows of scalars)")
        return [_param_value(v, depth - 1) for v in x]
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ParseError(f"cannot interpret parameter value: {mio.json_shown(x)}")


def cmd_construct(args) -> int:
    kind = args.type.lower()
    if kind not in CONSTRUCTIBLE:
        raise ParseError(f"unknown construction type {shown(repr(args.type))}")
    w = mio.scalar_from_string(args.w) if args.w is not None else None
    if args.params:
        raw = mio.read_json(args.params)
        if not isinstance(raw, dict):
            raise ParseError("parameter file must hold a JSON object")
        p = {key: _param_value(val) for key, val in raw.items()}
        if w is not None:
            if "w" in p:
                raise ParseError('the weight is given twice: by --w and by "w" in the parameter file')
            p["w"] = w
        m = member_from_params(kind, args.n, p)
    else:
        rng = random.Random(args.seed)
        m = random_member(kind, args.n, rng, weight=w)
    if args.out:
        mio.write_matrix(m, args.out)
    else:
        _print_matrix(m, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(args.suite, n_max=args.n_max, trials=args.trials, seed=args.seed)
    print(json.dumps(report, indent=2, default=str))
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def cmd_dim(args) -> int:
    value = build_constraints(args.space, args.n).nullity
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
    p.add_argument("--split", choices=[kind.lower() for kind in SPLIT_TAGS], required=True)
    p.add_argument("--even-out", required=True)
    p.add_argument("--odd-out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", help="emit a member of a symmetry space")
    p.add_argument("--type", required=True, metavar="{" + ",".join(CONSTRUCTIBLE) + "}")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument(
        "--trials",
        type=_positive_int,
        help="random matrices per n in the dual-path agreement, the only "
        "sampled check; --trials and --seed steer nothing else",
    )
    p.add_argument("--seed", type=int, default=0)
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
    except (VerificationError, PredicatePathMismatch) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except SymalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
