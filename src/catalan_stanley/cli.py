"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
141 (128 + SIGPIPE) stdout closed before all output was written.
Output is deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import os
import sys
from operator import itemgetter

from . import asymptotics, stats, verify as verify_mod
from .enumeration import _tree_blocks, count_trees, sample_trees
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
STDOUT_CLOSED = 128 + 13  # as a shell reports a process that SIGPIPE ended
# `enumerate` prints C(n-2) trees, one join and one `write` per block of
# words sharing a prefix and no tree object made: size 16 (C(14), about
# 2.7 million trees, 128,554 blocks) takes 0.36-0.66 s (medians 0.41-0.51 s
# of 9-15 runs) and peaks at 16.6-16.9 MiB RSS as a fresh process in every
# format.  Size 17 (C(15), about 9.7 million trees) would take 1.3-2.1 s
# and print 339,319,575 bytes of text or 368,404,134 of JSON, at about
# 17 MiB (2-vCPU VM, Python 3.11).
MAX_ENUMERATE_SIZE = 16
# The exact `age` pmf prints numbers of about 0.6 n digits: size 7000 takes
# about 1.2-1.4 s (medians 1.24-1.37 s of two sets of 3 in each format; one
# set of csv read 1.7-1.8 s), about half of it one gcd per line and a quarter
# the numerators' `str`, and peaks at 28.6-28.9 MiB RSS in every format, as a
# fresh process (2-vCPU Intel Xeon VM, Python 3.11).
# Denominators print through `decimal`, which has no digit limit, but the
# numerators are ints, and from 7155 on one can pass Python's 4300-digit
# int-to-str limit.  The exact `ancestor` pmf multiplies about n/(2r+1)
# pairs of series of order n: at --depth 1 size 480 takes about 2.5-3.6 s
# (medians 2.66 and 3.40 s of two sets of 3 fresh processes on a noisy
# 2-vCPU Intel Xeon VM), 500 about 4.8 s and 600 about 9.3 s; deeper runs
# are faster.
# `--asym` takes the caps of the asymptotics module (n up to 2**53, r up
# to 255).
MAX_AGE_SIZE = 7000
MAX_ANCESTOR_SIZE = 480
# `count` prints C(n-2), which passes the same 4300-digit limit from 7155 on.
MAX_COUNT_SIZE = MAX_AGE_SIZE
# `sample` draws about 0.1 us per node: one tree of size 10^5 takes
# about 0.010 s in process (median over 12 seeds), and the largest
# request (100 of them), as a fresh process, 1.57-1.65 s (median 1.59 of
# 8) and 38.9-39.4 MiB over every format; 100 trees of size 100 take
# 0.21-0.25 s (median 0.22 of 8) and 35.7-35.8 MiB.  Each tree is written
# before the next is drawn (2-vCPU VM, Python 3.11).
MAX_SAMPLE_SIZE = 100_000
MAX_SAMPLE_COUNT = 100
# `verify` forks one child for its series, asymptotics and sampler layers
# where two CPUs are usable; the child pickles its checks into a pipe
# while the caller builds the census.  As a fresh process it takes about
# 0.33-0.57 s at default scope (medians 0.39 and 0.41 s of two sets of 15)
# and peaks at 36.7-37.0 MiB RSS, the child included (2-vCPU Intel Xeon
# VM, Python 3.11), and about 1.4-2.0 s at --max-size 14, where
# the census of size 14 alone takes about 1.3-1.4 s and each extra size
# about 4x more.  The series layer (--max-r half the order) takes 1.2 s
# at order 64, 2.7 s at 80 and 12 s at 128; all three caps together take
# about 2.7-3.6 s (2-vCPU VM, Python 3.11).  Run serially, as on one CPU,
# the three take about 0.5-0.7, 1.7-2.4 and 3.6-5.1 s.  Past r = order/2
# no tree of the series or of the census has that age, so a larger
# --max-r only repeats checks.
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
    """Each subparser carries its handler and the cap of its `--size` (None
    if it has none); `run` checks that cap before it calls the handler."""
    parser = _Parser(
        prog="catalan-stanley",
        description="Catalan-Stanley tree growth process: exact and asymptotic statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = ("text", "json", "csv")

    def command(name, handler, help, size_cap=None, unless_asym=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, size_cap=size_cap)
        if size_cap is not None:
            tail = " unless --asym" if unless_asym else ""
            p.add_argument(
                "--size", type=int, required=True, help=f"tree size, at most {size_cap}{tail}"
            )
        return p

    def exact_or_asym(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exact", action="store_true", default=True)
        group.add_argument("--asym", action="store_true")

    command(
        "count", _cmd_count, "number of trees of a given size", MAX_COUNT_SIZE
    ).add_argument("--format", choices=formats, default="text")
    command(
        "enumerate", _cmd_enumerate, "list all trees of a given size", MAX_ENUMERATE_SIZE
    ).add_argument("--format", choices=formats, default="text")

    p_sample = command("sample", _cmd_sample, "uniform random tree", MAX_SAMPLE_SIZE)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument(
        "--count", type=int, default=1,
        help=(
            f"number of trees, at most {MAX_SAMPLE_COUNT}; tree i uses seed+i, so "
            "--seed s --count c followed by --seed s+c is one longer run"
        ),
    )
    p_sample.add_argument("--format", choices=formats, default="text")

    p_age = command(
        "age", _cmd_age, "age distribution or asymptotics", MAX_AGE_SIZE, unless_asym=True
    )
    exact_or_asym(p_age)
    p_age.add_argument("--format", choices=formats, default="csv")

    p_anc = command(
        "ancestor", _cmd_ancestor, "ancestor-size distribution or asymptotics",
        MAX_ANCESTOR_SIZE, unless_asym=True,
    )
    p_anc.add_argument("--depth", type=int, required=True, help="number of reductions r")
    exact_or_asym(p_anc)
    p_anc.add_argument("--format", choices=formats, default="csv")

    p_const = command("constants", _cmd_constants, "limit constants c0..c3")
    p_const.add_argument("--precision", type=int, default=30, help="decimal digits")
    p_const.add_argument("--format", choices=formats, default="json")

    p_bij = command("bijection", _cmd_bijection, "convert between tree and Dyck path")
    group = p_bij.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree", help="balanced-parentheses word")
    group.add_argument("--path", help="word over U and D")
    p_bij.add_argument("--format", choices=formats, default="text")

    p_verify = command("verify", _cmd_verify, "run the cross-module invariant suite")
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


def _emit_distribution(table: stats.DistributionTable, header: dict, fmt: str, out) -> None:
    """The pmf one line per `write`: `value,numerator,denominator` rows after
    a header row for "csv", `value mass` for "text"; for "json" the bytes
    `json.dumps` prints for the keys of `header` followed by the object
    "pmf", one mass per `write`.  A mass prints as str(Fraction) does.

    One gcd g with the tree count (the sum of the counts) per mass, whose
    denominator is the count over g.  That denominator is a Decimal carried
    from the line before: with h the gcd of the last g and this one, it is
    the last denominator times (last g)/h, exactly divided by g/h.  The
    gcds of neighbouring masses share nearly all their factors, so both
    cofactors are short, and each line makes one near-linear multiply and
    divide where a fresh `divide_int` of the count costs far more.  A
    Decimal's text costs linear time where an int's costs quadratic.  Every
    Decimal step goes through the private context, so the caller's decimal
    context plays no part.
    """
    total = sum(table.counts)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

    def reduced():
        den, last = ctx.create_decimal(total), 1
        for v, c in zip(table.support, table.counts):
            g = math.gcd(c, total)
            h = math.gcd(last, g)
            den = ctx.divide_int(ctx.multiply(den, last // h), g // h)
            last = g
            yield v, str(c // g), str(den)

    if fmt == "csv":
        out.write("value,numerator,denominator\n")
        for v, a, b in reduced():
            out.write(f"{v},{a},{b}\n")
        return
    masses = ((v, a if b == "1" else f"{a}/{b}") for v, a, b in reduced())
    if fmt == "json":
        out.write(json.dumps(header)[:-1] + ', "pmf": {')
        for i, (v, mass) in enumerate(masses):
            out.write(f'{", " if i else ""}"{v}": "{mass}"')
        out.write("}}\n")
    else:
        for v, mass in masses:
            out.write(f"{v} {mass}\n")


def _emit_words(blocks, header: dict, fmt: str, out) -> None:
    """Tree words one a line, or for "json" the bytes `json.dumps` prints
    for the keys of `header` followed by the list "trees".  The words come
    in blocks of a prefix and a tuple of tails, each tail one word after the
    prefix (a sampled tree is one tail after an empty prefix), and each
    block is written with one join and one `write` as it arrives.  A word
    holds only "(" and ")", so its JSON string is the word in quotes.
    Neither the list nor its text is held whole."""
    if fmt == "json":
        out.write(json.dumps(header)[:-1] + ', "trees": [')
        opening, between, closing, glue = '"', '", "', '"', ", "
    else:
        opening, between, closing, glue = "", "\n", "\n", ""
    lead = ""
    for prefix, tails in blocks:
        out.write(lead + opening + prefix + (between + prefix).join(tails) + closing)
        lead = glue
    if fmt == "json":
        out.write("]}\n")


def _check_size_cap(command: str, value: int, cap: int, flag: str = "--size") -> None:
    if value > cap:
        raise CapacityError(f"{command} {flag} {value}: values up to {cap} are supported")


def _cmd_count(args, out) -> int:
    value = count_trees(args.size)
    if args.format == "json":
        print(json.dumps({"size": args.size, "count": str(value)}), file=out)
    elif args.format == "csv":
        print(f"size,count\n{args.size},{value}", file=out)
    else:
        print(value, file=out)
    return 0


def _cmd_enumerate(args, out) -> int:
    blocks = map(itemgetter(0, 2), _tree_blocks(args.size))
    _emit_words(blocks, {"size": args.size}, args.format, out)
    return 0


def _cmd_sample(args, out) -> int:
    _check_size_cap("sample", args.count, MAX_SAMPLE_COUNT, flag="--count")
    if args.count < 0:
        raise ValueError("sample --count must be nonnegative")
    if args.count and args.seed + args.count > 2**64:
        raise ValueError(
            f"sample --count {args.count} uses seeds up to {args.seed + args.count - 1}, "
            "and a seed must fit in 64 unsigned bits"
        )
    # a size or seed that `sample_trees` refuses leaves stdout empty at
    # every count; each block is one word
    sample_trees(args.size, 0, args.seed)
    blocks = (
        ("", (sample_trees(args.size, 1, args.seed + i)[0].serialize(),))
        for i in range(args.count)
    )
    _emit_words(blocks, {"size": args.size, "seed": args.seed}, args.format, out)
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
    header = {"n": args.size, "kind": "age", "r": None}
    _emit_distribution(stats.age_distribution(args.size), header, args.format, out)
    return 0


def _cmd_ancestor(args, out) -> int:
    if args.asym:
        mean = asymptotics.expected_ancestor_asym(args.size, args.depth)
        variance = asymptotics.ancestor_variance_asym(args.size, args.depth)
        _emit_asym({"n": args.size, "r": args.depth}, mean, variance, args.format, out)
        return 0
    table = stats.ancestor_distribution(args.size, args.depth)
    header = {"n": args.size, "kind": "ancestor", "r": args.depth}
    _emit_distribution(table, header, args.format, out)
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
        if args.size_cap is not None and not getattr(args, "asym", False):
            _check_size_cap(args.command, args.size, args.size_cap)
        return args.handler(args, out)
    # TreeParseError, MalformedPathError and CapacityError are ValueErrors
    except (ValueError, SamplingError) as exc:
        print(f"error: {exc}", file=err)
        return USAGE_ERROR


def main() -> None:
    """`run` on the process streams.  A reader that closes stdout early, as
    `head` does, ends the process quietly with `STDOUT_CLOSED`."""
    try:
        status = run()
    except BrokenPipeError:
        # the flush at exit would raise again: stdout's fd is pointed at
        # devnull, so what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = STDOUT_CLOSED
    sys.exit(status)


if __name__ == "__main__":
    main()
