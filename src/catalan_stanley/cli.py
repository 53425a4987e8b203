"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Output is deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import asymptotics, stats, verify as verify_mod
from .enumeration import count_trees, enumerate_trees, sample_trees
from .errors import CapacityError, SamplingError
from .tree import (
    DyckPath,
    age,
    dyck_to_tree,
    is_catalan_stanley,
    parse_tree,
    tree_to_dyck,
)

USAGE_ERROR = 2
# `enumerate` prints C(n-2) trees at about 2.2-2.6 us each: size 16 (C(14),
# about 2.7 million trees) takes about 6-7 s, size 25 would take about ten
# days (2-vCPU VM, Python 3.11).
MAX_ENUMERATE_SIZE = 16
# The exact `age` pmf prints numbers of about 0.6 n digits: size 7000 takes
# about 2.0-2.3 s (2-vCPU VM, Python 3.11), most of it one gcd per line.
# Denominators print through `decimal`, which has no digit limit, but the
# numerators are ints, and from 7155 on one can pass Python's 4300-digit
# int-to-str limit.  The exact `ancestor` pmf multiplies about n/(2r+1)
# pairs of series of order n: at --depth 1 size 480 takes about 5 s, 500
# about 5.5 s and 600 about 10 s; deeper runs are faster.  `--asym` takes
# the caps of the asymptotics module (n up to 2**53, r up to 255).
MAX_AGE_SIZE = 7000
MAX_ANCESTOR_SIZE = 480
# `count` prints C(n-2), which passes the same 4300-digit limit from 7155 on.
MAX_COUNT_SIZE = MAX_AGE_SIZE
# `sample` draws about 0.45 us per node plus 0.35 ms per tree: one tree of
# size 10^5 takes about 0.03 s (median over 12 seeds), and the largest
# request (100 of them) 4.4 s and 59 MiB.
MAX_SAMPLE_SIZE = 100_000
MAX_SAMPLE_COUNT = 100
# `verify` runs its series, asymptotics and sampler layers in a second
# process beside the census where two CPUs are usable.  As a fresh process
# it takes about 0.4-0.6 s at default scope and about 2.2-2.8 s at
# --max-size 14, where the census of size 14 alone takes about 1.3-1.4 s
# and each extra size about 4x more.  The series layer (--max-r half the
# order) takes 1.2 s at order 64, 2.7 s at 80 and 12 s at 128; all three
# caps together take about 2.8-3.5 s (2-vCPU VM, Python 3.11).  Run
# serially, as on one CPU, the three take about 0.7, 2.7 and 3.9 s.  Past
# r = order/2 no tree of the series or of the census has that age, so a
# larger --max-r only repeats checks.
MAX_VERIFY_SIZE = 14
MAX_VERIFY_ORDER = 80
MAX_VERIFY_R = MAX_VERIFY_ORDER // 2


class _ParserExit(Exception):
    """args: the status argparse would exit with and the text it would print
    first, to `out` for status 0 (`--help`) and to `err` for a usage error."""


class _Parser(argparse.ArgumentParser):
    """Raises `_ParserExit` where argparse would print to the process streams
    and exit, so one parser serves every `run` call and every thread."""

    def error(self, message):
        raise _ParserExit(USAGE_ERROR, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catalan-stanley",
        description="Catalan-Stanley tree growth process: exact and asymptotic statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="number of trees of a given size")
    p_count.add_argument(
        "--size", type=int, required=True, help=f"tree size, at most {MAX_COUNT_SIZE}"
    )
    p_count.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_enum = sub.add_parser("enumerate", help="list all trees of a given size")
    p_enum.add_argument(
        "--size", type=int, required=True, help=f"tree size, at most {MAX_ENUMERATE_SIZE}"
    )
    p_enum.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_sample = sub.add_parser("sample", help="uniform random tree")
    p_sample.add_argument(
        "--size", type=int, required=True, help=f"tree size, at most {MAX_SAMPLE_SIZE}"
    )
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument(
        "--count", type=int, default=1,
        help=(
            f"number of trees, at most {MAX_SAMPLE_COUNT}; tree i uses seed+i, so "
            "--seed s --count c followed by --seed s+c is one longer run"
        ),
    )
    p_sample.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_age = sub.add_parser("age", help="age distribution or asymptotics")
    p_age.add_argument(
        "--size", type=int, required=True,
        help=f"tree size, at most {MAX_AGE_SIZE} unless --asym",
    )
    group = p_age.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--asym", action="store_true")
    p_age.add_argument("--format", choices=("text", "json", "csv"), default="csv")

    p_anc = sub.add_parser("ancestor", help="ancestor-size distribution or asymptotics")
    p_anc.add_argument(
        "--size", type=int, required=True,
        help=f"tree size, at most {MAX_ANCESTOR_SIZE} unless --asym",
    )
    p_anc.add_argument("--depth", type=int, required=True, help="number of reductions r")
    group = p_anc.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--asym", action="store_true")
    p_anc.add_argument("--format", choices=("text", "json", "csv"), default="csv")

    p_const = sub.add_parser("constants", help="limit constants c0..c3")
    p_const.add_argument("--precision", type=int, default=30, help="decimal digits")
    p_const.add_argument("--format", choices=("text", "json", "csv"), default="json")

    p_bij = sub.add_parser("bijection", help="convert between tree and Dyck path")
    group = p_bij.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree", help="balanced-parentheses word")
    group.add_argument("--path", help="word over U and D")
    p_bij.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_verify = sub.add_parser("verify", help="run the cross-module invariant suite")
    p_verify.add_argument(
        "--max-size", type=int, default=12,
        help=f"largest enumerated tree size, at most {MAX_VERIFY_SIZE}",
    )
    p_verify.add_argument(
        "--max-r", type=int, default=5, help=f"largest age or depth r, at most {MAX_VERIFY_R}"
    )
    p_verify.add_argument(
        "--order", type=int, default=16, help=f"series order, at most {MAX_VERIFY_ORDER}"
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit_distribution(table: stats.DistributionTable, fmt: str, out) -> None:
    """JSON as one document; CSV and text written a line at a time."""
    if fmt == "json":
        print(table.to_json(), file=out)
    else:
        for line in table.lines(fmt):
            out.write(f"{line}\n")


def _check_size_cap(command: str, value: int, cap: int, flag: str = "--size") -> None:
    if value > cap:
        raise CapacityError(f"{command} {flag} {value}: values up to {cap} are supported")


def _cmd_count(args, out) -> int:
    _check_size_cap("count", args.size, MAX_COUNT_SIZE)
    value = count_trees(args.size)
    if args.format == "json":
        print(json.dumps({"size": args.size, "count": str(value)}), file=out)
    elif args.format == "csv":
        print(f"size,count\n{args.size},{value}", file=out)
    else:
        print(value, file=out)
    return 0


def _cmd_enumerate(args, out) -> int:
    _check_size_cap("enumerate", args.size, MAX_ENUMERATE_SIZE)
    words = (t.serialize() for t in enumerate_trees(args.size))
    if args.format == "json":
        print(json.dumps({"size": args.size, "trees": list(words)}), file=out)
    else:
        for w in words:
            out.write(w)
            out.write("\n")
    return 0


def _cmd_sample(args, out) -> int:
    _check_size_cap("sample", args.size, MAX_SAMPLE_SIZE)
    _check_size_cap("sample", args.count, MAX_SAMPLE_COUNT, flag="--count")
    if args.count < 0:
        raise ValueError("sample --count must be nonnegative")
    words = [
        sample_trees(args.size, 1, args.seed + i)[0].serialize()
        for i in range(args.count)
    ]
    if args.format == "json":
        print(
            json.dumps({"size": args.size, "seed": args.seed, "trees": words}),
            file=out,
        )
    else:
        for w in words:
            print(w, file=out)
    return 0


def _emit_asym(payload: dict, mean, variance, fmt: str, out) -> None:
    """Print the mean and variance expansions after the keys in `payload`."""
    if fmt == "csv":
        print("quantity,value,order", file=out)
        print(f"expected,{mean.value!r},{mean.order_tag}", file=out)
        print(f"variance,{variance.value!r},{variance.order_tag}", file=out)
    else:
        payload["expected"] = {"value": mean.value, "order": mean.order_tag}
        payload["variance"] = {"value": variance.value, "order": variance.order_tag}
        print(json.dumps(payload), file=out)


def _cmd_age(args, out) -> int:
    if args.asym:
        mean = asymptotics.expected_age_asym(args.size)
        variance = asymptotics.age_variance_asym(args.size)
        _emit_asym({"n": args.size}, mean, variance, args.format, out)
        return 0
    _check_size_cap("age", args.size, MAX_AGE_SIZE)
    _emit_distribution(stats.age_distribution(args.size), args.format, out)
    return 0


def _cmd_ancestor(args, out) -> int:
    if args.asym:
        mean = asymptotics.expected_ancestor_asym(args.size, args.depth)
        variance = asymptotics.ancestor_variance_asym(args.size, args.depth)
        _emit_asym({"n": args.size, "r": args.depth}, mean, variance, args.format, out)
        return 0
    _check_size_cap("ancestor", args.size, MAX_ANCESTOR_SIZE)
    _emit_distribution(stats.ancestor_distribution(args.size, args.depth), args.format, out)
    return 0


def _cmd_constants(args, out) -> int:
    digits = {
        f"c{i}": asymptotics.constant_digits(i, args.precision) for i in range(4)
    }
    if args.format == "text":
        for name, value in digits.items():
            print(f"{name} = {value}", file=out)
    elif args.format == "csv":
        print("constant,value", file=out)
        for name, value in digits.items():
            print(f"{name},{value}", file=out)
    else:
        print(json.dumps(digits), file=out)
    return 0


def _cmd_bijection(args, out) -> int:
    if args.tree is not None:
        tau = parse_tree(args.tree)
        path = tree_to_dyck(tau)
    else:
        path = DyckPath.from_string(args.path)
        tau = dyck_to_tree(path)
    valid = is_catalan_stanley(tau)
    payload = {
        "tree": tau.serialize(),
        "path": path.to_string(),
        "size": tau.size(),
        "is_catalan_stanley": valid,
    }
    if valid:
        payload["age"] = age(tau)
    if args.format == "json":
        print(json.dumps(payload), file=out)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    _check_size_cap("verify", args.max_size, MAX_VERIFY_SIZE, flag="--max-size")
    _check_size_cap("verify", args.order, MAX_VERIFY_ORDER, flag="--order")
    _check_size_cap("verify", args.max_r, MAX_VERIFY_R, flag="--max-r")
    report = verify_mod.run_verification(
        max_size=args.max_size, max_r=args.max_r, order=args.order
    )
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        print(report.to_text(), file=out)
    return 0 if report.ok else 1


_HANDLERS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "sample": _cmd_sample,
    "age": _cmd_age,
    "ancestor": _cmd_ancestor,
    "constants": _cmd_constants,
    "bijection": _cmd_bijection,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    """Dispatch a command line; returns the process exit status."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _build_parser().parse_args(argv)
    except _ParserExit as exc:
        status, text = exc.args
        (err if status else out).write(text)
        return status
    try:
        return _HANDLERS[args.command](args, out)
    # TreeParseError, MalformedPathError and CapacityError are ValueErrors
    except (ValueError, SamplingError) as exc:
        print(f"error: {exc}", file=err)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
