import ast
import decimal
import functools
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import catalan_stanley.cli
import catalan_stanley.enumeration
import catalan_stanley.tree
import catalan_stanley.verify
from catalan_stanley.asymptotics import MAX_ASYM_DEPTH, MAX_DIGITS
from catalan_stanley.cli import (
    MAX_AGE_SIZE,
    MAX_ANCESTOR_SIZE,
    MAX_COUNT_SIZE,
    MAX_ENUMERATE_SIZE,
    MAX_SAMPLE_COUNT,
    MAX_SAMPLE_SIZE,
    MAX_VERIFY_ORDER,
    MAX_VERIFY_R,
    MAX_VERIFY_SIZE,
    _emit_distribution,
    run,
)
from catalan_stanley.enumeration import _tree_blocks, enumerate_trees
from catalan_stanley.stats import DistributionTable, age_distribution, ancestor_distribution
from catalan_stanley.tree import parse_tree
from catalan_stanley.verify import _census, run_verification


def invoke(*args):
    out, err = StringIO(), StringIO()
    code = run(list(args), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def assert_fails_fast(*args):
    """Exit 2 within a second, one `error:` line on stderr, nothing on stdout."""
    start = time.perf_counter()
    code, out, err = invoke(*args)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestCount:
    def test_text(self):
        assert invoke("count", "--size", "14") == (0, "208012\n", "")

    def test_json(self):
        code, out, _ = invoke("count", "--size", "14", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"size": 14, "count": "208012"}

    def test_csv(self):
        assert invoke("count", "--size", "4", "--format", "csv")[1] == "size,count\n4,2\n"

    def test_invalid_size(self):
        code, _, err = invoke("count", "--size", "0")
        assert code == 2
        assert "error:" in err

    def test_size_cap(self):
        assert invoke("count", "--size", str(MAX_COUNT_SIZE))[0] == 0
        err = assert_fails_fast("count", "--size", str(MAX_COUNT_SIZE + 1))
        assert f"up to {MAX_COUNT_SIZE}" in err


class TestEnumerate:
    def test_small_listing(self):
        code, out, _ = invoke("enumerate", "--size", "4")
        assert code == 0
        assert out.splitlines() == ["(((())))", "(()()())"]

    def test_json(self):
        code, out, _ = invoke("enumerate", "--size", "3", "--format", "json")
        assert json.loads(out) == {"size": 3, "trees": ["(()())"]}

    def test_golden_order_size_six(self):
        _, out, _ = invoke("enumerate", "--size", "6")
        lines = out.splitlines()
        assert len(lines) == 14
        assert lines[0] == "(((((())))))"
        assert lines[1] == "((((())())))"
        assert lines[-1] == "(()()()()())"

    @pytest.mark.parametrize(
        "size,fmt,digest",
        [
            (10, "text", "80c5d664146b43bfd42955cfb99af0083977d0e35c6d5401a240d65e98b4b910"),
            (10, "json", "124c57748ec0299bccf8b32f291543836f108b500173922f841278da9e391c98"),
            (13, "text", "61da7601fd7438d9a547c5586b1b57627e33cc64a5e582d3372c82a55d61740d"),
            (13, "json", "6207b554f97b3b87d2c7086a27451f14efb2a587621f7f3ed14278478e521577"),
        ],
    )
    def test_golden_bytes(self, size, fmt, digest):
        """sha256 of stdout, recorded while each tree was printed on its own."""
        code, out, _ = invoke("enumerate", "--size", str(size), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_text_streams(self):
        """The 58,786 lines of size 13 (1.6 MB) are written as they are made."""
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                code = run(["enumerate", "--size", "13"], out=sink, err=StringIO())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2**20

    def test_json_streams(self):
        """The JSON document of size 13 (1.9 MB) is not built whole either."""
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                code = run(
                    ["enumerate", "--size", "13", "--format", "json"], out=sink, err=StringIO()
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2**20

    @pytest.mark.parametrize("tail", [1, 2, 5, 10])
    def test_matches_a_tree_at_a_time(self, tail, monkeypatch):
        """The blocks joined are the bytes one `serialize()` a tree and
        `json.dumps` of the whole list print, on both sides of the cut."""
        expected = {n: _enumerate_reference(n) for n in range(1, 14)}
        monkeypatch.setattr(catalan_stanley.enumeration, "_TAIL", tail)
        for n, (text, document) in expected.items():
            for fmt, want in (("text", text), ("csv", text), ("json", document)):
                assert invoke("enumerate", "--size", str(n), "--format", fmt) == (0, want, "")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_nonpositive_size_prints_nothing(self, fmt):
        for size in ("0", "-1"):
            code, out, err = invoke("enumerate", "--size", size, "--format", fmt)
            assert (code, out) == (2, "")
            assert err == "error: size must be positive\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_write_size(self, fmt):
        """Apart from the JSON opening and closing, the i-th `write` holds
        exactly the words of the walk's i-th block, so none is longer than
        2^17 characters plus the longest block; the writes join to stdout."""
        writes = []

        class Out:
            write = writes.append

        assert run(["enumerate", "--size", "13", "--format", fmt], out=Out(), err=StringIO()) == 0
        blocks = [len(words) for _, _, words, _ in _tree_blocks(13)]
        longest = max(blocks) * (2 * 13 + 4)
        assert len(writes) > 10
        assert max(map(len, writes)) <= 2**17 + longest
        assert "".join(writes) == invoke("enumerate", "--size", "13", "--format", fmt)[1]
        assert len(blocks) == 2561 and max(blocks) <= 33
        if fmt == "json":
            assert writes.pop(0) == '{"size": 13, "trees": [' and writes.pop() == "]}\n"
        assert [w.count("(") // 13 for w in writes] == blocks

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_size_cap(self, fmt):
        code, out, err = invoke("enumerate", "--size", "17", "--format", fmt)
        assert (code, out) == (2, "")
        assert "up to 16" in err


@functools.cache
def _enumerate_reference(n):
    """`enumerate --size n` as text and as JSON, built a tree at a time."""
    words = [tau.serialize() for tau in enumerate_trees(n)]
    text = "".join(word + "\n" for word in words)
    return text, json.dumps({"size": n, "trees": words}) + "\n"


class TestSample:
    def test_deterministic_bytes(self):
        first = invoke("sample", "--size", "30", "--seed", "5")
        second = invoke("sample", "--size", "30", "--seed", "5")
        assert first == second
        assert first[0] == 0

    def test_count_flag(self):
        code, out, _ = invoke("sample", "--size", "6", "--seed", "1", "--count", "3")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_golden_bytes(self):
        assert invoke("sample", "--size", "30", "--seed", "5") == (
            0,
            "((((())())()(()((()((((()())))())(()()))())(()((()))))(())))\n",
            "",
        )

    def test_golden_count_bytes(self):
        assert invoke("sample", "--size", "6", "--seed", "1", "--count", "3") == (
            0,
            "(()((()())))\n(()()()()())\n((()(()))())\n",
            "",
        )

    def test_count_runs_concatenate(self):
        """Tree i comes from seed + i, so split runs join into one."""
        whole = invoke("sample", "--size", "9", "--seed", "4", "--count", "5")[1]
        head = invoke("sample", "--size", "9", "--seed", "4", "--count", "2")[1]
        tail = invoke("sample", "--size", "9", "--seed", "6", "--count", "3")[1]
        assert whole == head + tail

    def test_zero_count(self):
        assert invoke("sample", "--size", "6", "--seed", "1", "--count", "0") == (0, "", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_size_checked_at_zero_count(self, fmt):
        err = assert_fails_fast("sample", "--size", "-1", "--count", "0", "--format", fmt)
        assert err == "error: size must be positive\n"

    def test_negative_count(self):
        assert_fails_fast("sample", "--size", "5", "--count", "-3")

    def test_last_seed_checked_before_any_draw(self, monkeypatch):
        """Tree i uses seed+i, so a run whose last seed passes 2**64 is refused
        before its first tree is drawn, naming that last seed."""
        calls, draw = [], catalan_stanley.cli.sample_trees
        monkeypatch.setattr(
            catalan_stanley.cli, "sample_trees", lambda *args: calls.append(args) or draw(*args)
        )
        seed = 2**64 - 16
        err = assert_fails_fast(
            "sample", "--size", str(MAX_SAMPLE_SIZE), "--count", "100", "--seed", str(seed)
        )
        assert str(seed + 99) in err
        assert calls == []

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_trees_written_as_drawn(self, monkeypatch, fmt):
        """The size and seed are checked, by drawing no tree, before anything
        is written; then each tree is written, in one `write`, before the
        next one is drawn, so only one tree is held at a time."""
        events, draw = [], catalan_stanley.cli.sample_trees

        def spy(size, count, seed):
            events.append(count)
            return draw(size, count, seed)

        class Out:
            write = events.append

        monkeypatch.setattr(catalan_stanley.cli, "sample_trees", spy)
        argv = ["sample", "--size", "30000", "--count", "3", "--format", fmt]
        assert run(argv, out=Out(), err=StringIO()) == 0
        # a call's count of trees, or "tree" for a write that holds a word
        kinds = [
            e if isinstance(e, int) else "tree" for e in events if isinstance(e, int) or "(" in e
        ]
        assert kinds == [0] + [1, "tree"] * 3
        assert "".join(e for e in events if isinstance(e, str)) == invoke(*argv)[1]

    def test_seed_outside_64_bits(self):
        err = assert_fails_fast("sample", "--size", "5", "--seed", "-1")
        assert err == "error: seed must fit in 64 unsigned bits\n"
        err = assert_fails_fast("sample", "--size", "5", "--seed", "-1", "--count", "0")
        assert err == "error: seed must fit in 64 unsigned bits\n"
        assert invoke("sample", "--size", "5", "--seed", str(2**64 - 3), "--count", "3")[0] == 0

    def test_size_cap(self):
        err = assert_fails_fast("sample", "--size", str(MAX_SAMPLE_SIZE + 1))
        assert f"up to {MAX_SAMPLE_SIZE}" in err

    def test_count_cap(self):
        err = assert_fails_fast("sample", "--size", "5", "--count", str(MAX_SAMPLE_COUNT + 1))
        assert f"--count {MAX_SAMPLE_COUNT + 1}" in err


class TestAge:
    def test_exact_csv(self):
        code, out, _ = invoke("age", "--size", "5", "--exact")
        assert code == 0
        assert out == "value,numerator,denominator\n1,1,5\n2,4,5\n"

    def test_json(self):
        code, out, _ = invoke("age", "--size", "4", "--format", "json")
        assert json.loads(out)["pmf"] == {"1": "1/2", "2": "1/2"}

    def test_text(self):
        code, out, _ = invoke("age", "--size", "4", "--format", "text")
        assert out == "1 1/2\n2 1/2\n"

    def test_asym(self):
        code, out, _ = invoke("age", "--size", "100", "--asym", "--format", "json")
        payload = json.loads(out)
        assert payload["expected"]["order"] == "O(n^-2)"
        assert 2.6 < payload["expected"]["value"] < 2.8

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_size_cap(self, fmt):
        code, out, err = invoke("age", "--size", str(MAX_AGE_SIZE + 1), "--format", fmt)
        assert (code, out) == (2, "")
        assert f"up to {MAX_AGE_SIZE}" in err

    def test_cap_prints_within_int_digit_limit(self):
        # every numerator at the cap is at most C(n-2); denominators print
        # through decimal, which has no digit limit
        digits = len(str(catalan_stanley.enumeration.catalan(MAX_AGE_SIZE - 2)))
        assert digits <= sys.get_int_max_str_digits()

    def test_asym_has_no_cap(self):
        code, out, _ = invoke("age", "--size", "100000", "--asym", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 100000

    def test_asym_size_past_float_range(self):
        err = assert_fails_fast("age", "--size", str(10**310), "--asym")
        assert "2**53" in err


class TestAncestor:
    def test_exact_csv(self):
        code, out, _ = invoke("ancestor", "--size", "4", "--depth", "1")
        assert out == "value,numerator,denominator\n1,1,2\n2,1,2\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_size_cap(self, fmt):
        code, out, err = invoke(
            "ancestor", "--size", str(MAX_ANCESTOR_SIZE + 1), "--depth", "1",
            "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert f"up to {MAX_ANCESTOR_SIZE}" in err

    def test_asym(self):
        code, out, _ = invoke(
            "ancestor", "--size", "10000", "--depth", "1", "--asym", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["expected"]["value"] == pytest.approx(2500.625, abs=1e-3)

    @pytest.mark.parametrize(
        "size,depth",
        [(str(10**310), "1"), ("1000", "256"), ("1000", "1000000000")],
    )
    def test_asym_input_past_float_range(self, size, depth):
        assert_fails_fast("ancestor", "--size", size, "--depth", depth, "--asym")


# sha256 of stdout, recorded while each pmf was still stored as Fractions
GOLDEN_PMF_SHA256 = {
    ("age", "--size", "50", "--format", "csv"):
        "bedf7bc9bd7c30bdd31124897386993f3e0b78b7a79d09bbacb4006fa4a5c38c",
    ("age", "--size", "50", "--format", "json"):
        "ab67328bc5590ec8cabcbfd25d63da3fb5516b8700eaaf09ba4f5c5fd16e58d8",
    ("age", "--size", "50", "--format", "text"):
        "6916549d8610f6a85442a8e4cc19adf46023901d164dc06f14e2b49100a2a64a",
    ("ancestor", "--size", "30", "--depth", "2", "--format", "csv"):
        "650d0fea19d33848c4d578ce6b2ac49e9bbb25b79d8c6b88da5b6ec6e5322b3c",
    ("ancestor", "--size", "30", "--depth", "2", "--format", "json"):
        "32459cea098f8331c13c886fa1e2ad7631f4aae1395a422628d48a5b696fd5d7",
    ("ancestor", "--size", "30", "--depth", "2", "--format", "text"):
        "0a26525e815401bf82ffd153316d3e77723024dde09cfa9db2c42aca14e636ae",
    # recorded while the ancestor pmf was read off the z^n slice of the
    # bivariate G_r(z,v): pins far past the sizes the census reaches
    ("ancestor", "--size", "120", "--depth", "1", "--format", "csv"):
        "23c70ea231a301fd65912afc1d57398b9d3f89ee7f2a21dfe0c96498d565fa1d",
    ("ancestor", "--size", "200", "--depth", "3", "--format", "csv"):
        "9e4fc5407376ea6791ffd5cbf1532d01b5d43840a0d8902b5a11c9ebcee8ea51",
    # recorded while each limit constant was summed in a pass of its own
    ("age", "--size", "1000", "--asym", "--format", "csv"):
        "1ec7298f762aad723feb5d807b13eb55966b6acb7d50f0ce93c6a4cee3243e68",
    ("ancestor", "--size", "1000", "--depth", "2", "--asym", "--format", "csv"):
        "00b5e7c0b2d874666eb85bdab606253f931d9911bbfddec7f76678bb3a53ad63",
    # recorded while each mass was printed through its own Fraction
    ("age", "--size", "2000", "--format", "csv"):
        "f2f9d37409a425a0de245cc4c9e14571a931358f274165b6184f9b6af23ef865",
    ("age", "--size", "2000", "--format", "json"):
        "52b35d755466336e559a143bbfe617314e3f425ca6a19a8f8de5c9580bfea947",
    ("age", "--size", "2000", "--format", "text"):
        "df9884a1efd9fd6140c7bb017047bfff30ddc8b5150ad5ae0ebb42ec976474e4",
    ("age", "--size", "4000", "--format", "csv"):
        "7aa1b27dd55f860fb12f6aeef1e35db305b5a2ee901e3e76a8e2d52a99b8d60b",
    # re-recorded when `reduced_size_bijection` joined the tree layer: the same
    # checks, that one moved up to follow the `parity_correspondence` checks
    ("verify", "--max-size", "5", "--max-r", "2", "--order", "6"):
        "69fe65efb16681a261b86df8b5cd7b76066197247d1b9f508891285e221838ad",
    ("verify", "--max-size", "5", "--max-r", "2", "--order", "6", "--format", "json"):
        "39bd86fdb838dffe91b493d0cb3c75418e054ae37afd520005c3dfd9f9608bb5",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_PMF_SHA256))
def test_golden_pmf_bytes(argv):
    code, out, _ = invoke(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PMF_SHA256[argv]


# sha256 of stdout at size 1, recorded while `stats` and `sample_trees`
# still gave the single node a branch of its own; (command, format): digest
GOLDEN_SIZE_ONE_SHA256 = {
    (("count",), "text"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    (("count",), "json"): "946fe5479e3f81d3b99c26b3f5198108dd9c7693d2b7fa6ab2e011562f9a89fe",
    (("count",), "csv"): "0bd00e2f52a2c3b4a3a25e71bdeef47d94f850ef5ac03351907b0c7c7fdb6c15",
    (("enumerate",), "text"): "71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b",
    (("enumerate",), "json"): "d2f64dd7b9589f3010ea78359b357c0360229f2ea8e22f9701c67ad2c6c050e3",
    (("enumerate",), "csv"): "71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b",
    (("sample", "--count", "3"), "text"):
        "bf7189515ec1aa14f2dff58050b715ef1b6c6bfc32a4cc822237d73f44d980ae",
    (("sample", "--count", "3"), "json"):
        "d9dc1c00911f7f5ace724e7eb2ca576ae9cef22dff35a933191ec3a89b4ab049",
    (("sample", "--count", "3"), "csv"):
        "bf7189515ec1aa14f2dff58050b715ef1b6c6bfc32a4cc822237d73f44d980ae",
    (("age",), "text"): "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424",
    (("age",), "json"): "7c6d70b8416d5a1cfcd4538140bcc298cdb00ebb73758b6c6d781e1a9b3f2b74",
    (("age",), "csv"): "cc2e5a3eaf92e1e8f951a7fb80004946837bd27e35ebc9411f10743cd00561f3",
    (("ancestor", "--depth", "0"), "text"):
        "3f11ad6bbc7ecca0b2416b713dee77f1a635c00aaeaa946e14cde1c2bfae56d5",
    (("ancestor", "--depth", "0"), "json"):
        "cc2a61123fa8c83f7ebdc9b50372e075442def77499cc50962683e54ca0b23c0",
    (("ancestor", "--depth", "0"), "csv"):
        "3d68a7cf8ee5f556e67467f13f9578687875e279992c14243f574a56c4653b2d",
    (("ancestor", "--depth", "1"), "text"):
        "3f11ad6bbc7ecca0b2416b713dee77f1a635c00aaeaa946e14cde1c2bfae56d5",
    (("ancestor", "--depth", "1"), "json"):
        "a14854ad15e1d627ee174a2d790c8383cd978811349151b8cb337c29b430fe90",
    (("ancestor", "--depth", "1"), "csv"):
        "3d68a7cf8ee5f556e67467f13f9578687875e279992c14243f574a56c4653b2d",
    (("ancestor", "--depth", "1000000000"), "text"):
        "3f11ad6bbc7ecca0b2416b713dee77f1a635c00aaeaa946e14cde1c2bfae56d5",
    (("ancestor", "--depth", "1000000000"), "json"):
        "e0a955c22916b18ea790a9b558d4c62bb36d05493ef8676ae353dab230477aa5",
    (("ancestor", "--depth", "1000000000"), "csv"):
        "3d68a7cf8ee5f556e67467f13f9578687875e279992c14243f574a56c4653b2d",
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_SIZE_ONE_SHA256))
def test_golden_size_one_bytes(command, fmt):
    argv = (command[0], "--size", "1", *command[1:], "--format", fmt)
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SIZE_ONE_SHA256[command, fmt]


# sha256 of `enumerate --format json` stdout, recorded while the document
# was built whole by one `json.dumps`
GOLDEN_ENUMERATE_JSON_SHA256 = {
    1: "d2f64dd7b9589f3010ea78359b357c0360229f2ea8e22f9701c67ad2c6c050e3",
    2: "8985086d7d739fa8c1661b3e50f97d02ac34f74d761fca00eb0ecfb0aafe01c7",
    3: "89f57a16433606641da9efd8fd0368acc5e88a38ace1cfc371144d6e70e7f075",
    4: "e3a84289313d75878cbd07090590dd9392e888a047fbf91a427ea86ee91f3046",
    5: "0645a644e225046ae636587e645f45d31aa66388dcd9d9ebd366b9e19e578f88",
    6: "7699a6d9e8902f3f8734f4651d0ee92bc0d9dc61ff45487b2835ab9436bc1ea9",
    7: "685e4db3693b13390117520a56dd40cc623fb90ed72478cfab970ad7c58003c6",
    8: "fae2ef9ed1ddc07a51a66e449cf96aded92a49daf29e1bfa567df3c185db492b",
    9: "e766b8db2ca2dd2f4a87a5de2b1cfeffae8a137d2625e110266572b9ceea2ce6",
    10: "124c57748ec0299bccf8b32f291543836f108b500173922f841278da9e391c98",
    11: "49937a2c10b2c5503753fc326ef1a0f7eec7c637a97741c76af727dcaf9cadcd",
    12: "23cfda1eece0ff5212a09129ccbc0f7e51ec13be6a619de3bfb08ee32b2acfeb",
}


@pytest.mark.parametrize("size", sorted(GOLDEN_ENUMERATE_JSON_SHA256))
def test_golden_enumerate_json_bytes(size):
    code, out, err = invoke("enumerate", "--size", str(size), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ENUMERATE_JSON_SHA256[size]


def _header(table, r):
    """The keys a command prints before the pmf: "kind" is "age" where r is None."""
    return {"n": table.size_n, "kind": "age" if r is None else "ancestor", "r": r}


def _tree_total(n):
    m = n - 2
    return math.comb(2 * m, m) // (m + 1) if m >= 0 else 1


def _oracle_lines(table, r):
    """CSV, text and JSON of a table, each mass built from its own Fraction."""
    total = _tree_total(table.size_n)
    masses = [(v, Fraction(c, total)) for v, c in zip(table.support, table.counts)]
    document = {**_header(table, r), "pmf": {str(v): str(f) for v, f in masses}}
    return {
        "csv": ["value,numerator,denominator"]
        + [f"{v},{f.numerator},{f.denominator}" for v, f in masses],
        "text": [f"{v} {f}" for v, f in masses],
        "json": [json.dumps(document)],
    }


def _emitted(table, r=None):
    printed = {}
    for fmt in ("csv", "text", "json"):
        out = StringIO()
        _emit_distribution(table, _header(table, r), fmt, out)
        printed[fmt] = out.getvalue()
    return printed


def _assert_matches_oracle(table, r=None):
    expected, printed = _oracle_lines(table, r), _emitted(table, r)
    for fmt in ("csv", "text", "json"):
        assert printed[fmt] == "".join(f"{line}\n" for line in expected[fmt])


class TestPmfTextOracle:
    """Every printed document against str(Fraction) of each count and one
    `json.dumps`, which share no code with the decimal route that prints it."""

    def test_age(self):
        for n in range(1, 301):
            _assert_matches_oracle(age_distribution(n))

    @pytest.mark.parametrize("r", range(5))
    def test_ancestor(self, r):
        for n in range(1, 121):
            _assert_matches_oracle(ancestor_distribution(n, r), r)

    def test_caller_decimal_context_plays_no_part(self):
        tables = [age_distribution(300), ancestor_distribution(60, 1)]
        expected = [_emitted(t) for t in tables]
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.traps[decimal.Inexact] = True
            assert [_emitted(t) for t in tables] == expected

    def test_other_threads_decimal_context_plays_no_part(self):
        tables = [age_distribution(300), ancestor_distribution(60, 1)]
        expected = [_emitted(t) for t in tables]

        def narrow_then_emit():
            decimal.getcontext().prec = 3
            return [_emitted(t) for t in tables]

        with ThreadPoolExecutor(max_workers=2) as pool:
            narrowed = pool.submit(narrow_then_emit).result(timeout=120)
            here = [_emitted(t) for t in tables]
        assert narrowed == expected and here == expected


@st.composite
def _jumping_tables(draw):
    """(n, counts): C(n-2) split into positive counts, each a multiple of a
    divisor of C(n-2) drawn afresh, so the gcd with the total jumps from
    line to line.  Every prime factor of C(n-2) is below 2n."""
    n = draw(st.integers(1, 40))
    total = _tree_total(n)
    powers = []
    for p in range(2, 2 * n):
        if all(p % q for q in range(2, p)):
            e = 0
            while total % p ** (e + 1) == 0:
                e += 1
            if e:
                powers.append((p, e))
    counts, left = [], total
    while left and len(counts) < 15:
        d = math.prod(p ** draw(st.integers(0, e)) for p, e in powers)
        if d > left:
            d = 1
        counts.append(d * draw(st.integers(1, left // d)))
        left -= counts[-1]
    if left:
        counts.append(left)
    return n, tuple(counts)


class TestCarriedDenominator:
    """Each denominator is carried from the line before; these pmfs make the
    gcd with the total jump, stay, or reach the whole total."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_jumping_tables())
    @example((10, (1430,)))  # a single mass
    @example((6, (0, 14, 0)))  # zero counts, whose gcd is the total
    @example((12, (1, 8398, 1, 8396)))  # gcd 1, total/2, 1, 4
    @example((12, (4199, 4199, 4199, 4199)))  # equal consecutive gcds
    def test_masses_match_fractions(self, composition):
        n, counts = composition
        table = DistributionTable(n, tuple(range(1, len(counts) + 1)), counts)
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.traps[decimal.Inexact] = True
            _assert_matches_oracle(table)

    def test_age_4000_against_fractions(self):
        total = _tree_total(4000)
        table = age_distribution(4000)
        code, out, _ = invoke("age", "--size", "4000")
        header, *rows = out.splitlines()
        assert (code, header) == (0, "value,numerator,denominator")
        assert len(rows) == len(table.counts)
        for row, v, c in zip(rows, table.support, table.counts):
            mass = Fraction(c, total)
            assert row.split(",") == [str(v), str(mass.numerator), str(mass.denominator)]


class TestEmitDistribution:
    def test_csv_format(self):
        assert _emitted(age_distribution(5))["csv"] == (
            "value,numerator,denominator\n1,1,5\n2,4,5\n"
        )

    def test_json_format(self):
        payload = json.loads(_emitted(age_distribution(4))["json"])
        assert payload == {
            "n": 4,
            "kind": "age",
            "r": None,
            "pmf": {"1": "1/2", "2": "1/2"},
        }
        payload = json.loads(_emitted(ancestor_distribution(4, 1), 1)["json"])
        assert payload == {"n": 4, "kind": "ancestor", "r": 1, "pmf": {"1": "1/2", "2": "1/2"}}

    def test_lines(self):
        printed = _emitted(age_distribution(5))
        assert printed["csv"].splitlines() == ["value,numerator,denominator", "1,1,5", "2,4,5"]
        assert printed["text"].splitlines() == ["1 1/5", "2 4/5"]
        assert _emitted(age_distribution(2))["text"] == "1 1\n"

    def test_json_peak_is_that_of_csv(self):
        """The JSON document is written a mass at a time, as CSV is, so it
        holds no more than CSV does; built whole, it held 3.6 MB more."""
        peaks = {}
        with open(os.devnull, "w") as sink:
            for fmt in ("csv", "json"):
                tracemalloc.start()
                try:
                    code = run(["age", "--size", "2000", "--format", fmt], out=sink, err=StringIO())
                    peaks[fmt] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert code == 0
        assert peaks["json"] - peaks["csv"] < 2**20


class _Recorder:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("age", "--size", "2000", "--format", "csv"),
        ("age", "--size", "2000", "--format", "text"),
        ("ancestor", "--size", "30", "--depth", "2", "--format", "csv"),
        ("ancestor", "--size", "30", "--depth", "2", "--format", "text"),
        ("age", "--size", "2000", "--format", "json"),
        ("ancestor", "--size", "30", "--depth", "2", "--format", "json"),
    ],
)
def test_pmf_is_written_a_line_at_a_time(argv):
    """CSV and text one line per `write`; JSON its header, then one mass
    per `write`, then the closing braces."""
    out = _Recorder()
    assert run(list(argv), out=out, err=StringIO()) == 0
    printed = "".join(out.chunks)
    if argv[-1] == "json":
        head, *masses, tail = out.chunks
        assert head.endswith('"pmf": {') and tail == "}}\n"
        assert len(masses) == len(json.loads(printed)["pmf"])
        assert all(len(json.loads("{" + m.removeprefix(", ") + "}")) == 1 for m in masses)
    else:
        longest = max(len(line) for line in printed.splitlines())
        assert len(out.chunks) == printed.count("\n")
        assert all(len(chunk) <= longest + 1 for chunk in out.chunks)
    assert hashlib.sha256(printed.encode()).hexdigest() == GOLDEN_PMF_SHA256[argv]


class TestConstants:
    def test_default_json_with_30_digits(self):
        code, out, _ = invoke("constants", "--precision", "30")
        payload = json.loads(out)
        assert payload["c0"] == "2.71825364286795285266483619282"
        assert set(payload) == {"c0", "c1", "c2", "c3"}

    def test_text_format(self):
        code, out, _ = invoke("constants", "--precision", "10", "--format", "text")
        assert out.startswith("c0 = 2.718253643")

    def test_precision_capacity(self):
        code, _, err = invoke("constants", "--precision", "80")
        assert code == 2
        assert "60" in err

    def test_zero_precision(self):
        err = assert_fails_fast("constants", "--precision", "0")
        assert err == "error: digits must be positive\n"


class TestBijection:
    def test_tree_to_path(self):
        code, out, _ = invoke("bijection", "--tree", "(((()()()))()(()(())))")
        assert code == 0
        assert "path: UUUDUDUDDDUDUUDUUDDD" in out
        assert "is_catalan_stanley: True" in out

    def test_path_to_tree(self):
        code, out, _ = invoke("bijection", "--path", "UUUDDD", "--format", "json")
        payload = json.loads(out)
        assert payload["tree"] == "(((())))"
        assert payload["age"] == 2

    def test_invalid_path(self):
        code, _, err = invoke("bijection", "--path", "UDD")
        assert code == 2
        assert "error:" in err

    def test_invalid_tree_offset(self):
        code, _, err = invoke("bijection", "--tree", "(()")
        assert code == 2
        assert "offset 3" in err


class TestVerifyCommand:
    def test_small_run_passes(self):
        code, out, _ = invoke("verify", "--max-size", "6", "--max-r", "2", "--order", "8")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith(("PASS", "FAIL", "passed")) for line in lines)
        assert len([l for l in lines if l.startswith("PASS")]) >= 25
        assert lines[-1].endswith("failed 0")

    def test_includes_named_f_check(self):
        code, out, _ = invoke("verify", "--max-size", "4", "--max-r", "2", "--order", "8")
        assert code == 0
        assert any(line.startswith("PASS f(4,2)=1 ") for line in out.splitlines())

    def test_json_format(self):
        code, out, _ = invoke(
            "verify", "--max-size", "5", "--max-r", "2", "--order", "8",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"])

    def test_corrupted_catalan_table_fails(self, monkeypatch):
        healthy = catalan_stanley.enumeration.catalan

        def corrupted(n):
            return healthy(n) + (1 if n == 3 else 0)

        monkeypatch.setattr(catalan_stanley.enumeration, "catalan", corrupted)
        code, out, _ = invoke("verify", "--max-size", "6", "--max-r", "2", "--order", "8")
        assert code == 1
        assert any(line.startswith("FAIL count(5)") for line in out.splitlines())

    @pytest.fixture
    def fresh_census(self):
        """Empty `verify`'s census cache around a test that patches what it reads;
        the session `census` fixture shares that cache."""
        _census.cache_clear()
        yield
        _census.cache_clear()

    def test_non_member_in_stream_is_reported(self, monkeypatch, fresh_census):
        """A tree outside the class fails checks (exit 1), not the run (exit 2)."""
        healthy = catalan_stanley.verify.enumerate_trees

        def with_intruder(n):
            yield from healthy(n)
            if n == 4:
                yield parse_tree("(()(()))")  # the second branch's marked leaf has depth 2

        monkeypatch.setattr(catalan_stanley.verify, "enumerate_trees", with_intruder)
        code, out, err = invoke("verify", "--max-size", "4", "--max-r", "2", "--order", "8")
        assert (code, err) == (1, "")
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert "enumerated_valid(4)" in failed
        assert "count(4)" in failed
        assert not any(name.endswith("(3)") for name in failed)

    @pytest.mark.parametrize("stream", [(), ("((()))",)], ids=["empty", "no_member"])
    def test_size_without_members_is_reported(self, monkeypatch, fresh_census, stream):
        """A size whose stream holds no tree of the class, and so leaves the age
        and ancestor histograms empty, fails checks (exit 1), not the run (exit 2)."""
        healthy = catalan_stanley.verify.enumerate_trees

        def patched(n):
            if n == 4:
                return iter(map(parse_tree, stream))
            return healthy(n)

        monkeypatch.setattr(catalan_stanley.verify, "enumerate_trees", patched)
        code, out, err = invoke("verify", "--max-size", "6", "--max-r", "2", "--order", "8")
        assert (code, err) == (1, "")
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert {"count(4)", "age_bounds(4)", "branch_age_counts(4)"} <= set(failed)
        assert not any(name.endswith(("(3)", "(5)")) for name in failed)

    def test_reduction_leaving_the_class_is_reported(self, monkeypatch, fresh_census):
        healthy = catalan_stanley.tree.reduce

        def leaks(tau):
            if tau.serialize() == "(((())))":
                return parse_tree("(()(()))")  # outside the class; the chain cannot go on
            return healthy(tau)

        monkeypatch.setattr(catalan_stanley.tree, "reduce", leaks)
        code, out, err = invoke("verify", "--max-size", "6", "--max-r", "2", "--order", "8")
        assert (code, err) == (1, "")
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert "closure(6)" in failed
        assert "closure(5)" not in failed

    @pytest.mark.parametrize(
        "flag,cap",
        [
            ("--max-size", MAX_VERIFY_SIZE),
            ("--order", MAX_VERIFY_ORDER),
            ("--max-r", MAX_VERIFY_R),
        ],
    )
    def test_scope_caps(self, flag, cap):
        err = assert_fails_fast("verify", flag, str(cap + 1))
        assert f"up to {cap}" in err

    def test_byte_identical_runs(self):
        first = invoke("verify", "--max-size", "5", "--max-r", "2", "--order", "6")
        second = invoke("verify", "--max-size", "5", "--max-r", "2", "--order", "6")
        assert first == second


class TestUsageErrors:
    def test_unknown_command(self):
        assert invoke("nonsense")[0] == 2

    def test_unknown_flag(self):
        assert invoke("count", "--sizes", "3")[0] == 2

    def test_missing_required(self):
        assert invoke("count")[0] == 2

    def test_exclusive_flags(self):
        assert invoke("age", "--size", "4", "--exact", "--asym")[0] == 2


AGE_USAGE = (
    "usage: catalan-stanley age [-h] --size SIZE [--exact | --asym]\n"
    "                           [--format {text,json,csv}]\n"
)
# (argv, status, out, err): None is any nonempty text, and a text ending in
# a blank line is a prefix (the help goes on to list the options)
PARSER_EXITS = [
    (("age", "--size", "x"), 2, "", AGE_USAGE
     + "catalan-stanley age: error: argument --size: invalid int value: 'x'\n"),
    (("nonsense",), 2, "", None),
    (("--help",), 0, None, ""),
    (("age", "--help"), 0, AGE_USAGE + "\n", ""),
    (("count", "--size", "4"), 0, "2\n", ""),
    # the draw budget is fixed, so the flag that set it is unknown
    (("sample", "--size", "5", "--max-rejections", "5"), 2, "",
     "usage: catalan-stanley [-h]\n"
     "                       {count,enumerate,sample,age,ancestor,constants,bijection,verify}\n"
     "                       ...\n"
     "catalan-stanley: error: unrecognized arguments: --max-rejections 5\n"),
]


class TestParserOutput:
    """argparse's usage errors and help reach the `err` and `out` given to
    `run`, never the process streams; `main` prints the same text there.
    COLUMNS fixes the width argparse wraps usage lines at."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def _check(result, code, out, err):
        assert result[0] == code
        for text, want in zip(result[1:], (out, err)):
            if want is None:
                assert text != ""
            elif want.endswith("\n\n"):
                assert text.startswith(want)
            else:
                assert text == want

    @pytest.mark.parametrize(
        "argv,code,out,err", PARSER_EXITS, ids=[" ".join(c[0]) for c in PARSER_EXITS]
    )
    def test_routed_to_given_streams(self, capsys, argv, code, out, err):
        self._check(invoke(*argv), code, out, err)
        assert capsys.readouterr() == ("", "")

    def test_help_lists_every_command(self):
        code, out, _ = invoke("--help")
        assert code == 0 and out.startswith("usage: catalan-stanley [-h]")
        for command in ("count", "enumerate", "sample", "age", "ancestor", "verify"):
            assert command in out

    def test_many_threads_at_once(self):
        # one shared parser, more threads than cores, switching often
        cases = PARSER_EXITS * 8
        expected = [invoke(*argv) for argv, *_ in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda case: invoke(*case[0]), cases, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected
        for result, (_, code, out, err) in zip(results, cases):
            self._check(result, code, out, err)

    @pytest.mark.parametrize("argv", [("age", "--size", "x"), ("age", "--help")])
    def test_main_prints_to_process_streams(self, argv):
        package_root = os.path.dirname(os.path.dirname(catalan_stanley.tree.__file__))
        env = {**os.environ, "PYTHONPATH": package_root}
        done = subprocess.run(
            [sys.executable, "-m", "catalan_stanley.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert (done.returncode, done.stdout, done.stderr) == invoke(*argv)

    def test_main_ends_quietly_when_stdout_closes(self):
        """A reader that stops after one line, as `head -1` does, leaves
        `main` with status 141 (128 + SIGPIPE) and no traceback.  Size 12
        prints about 420 kB, more than a pipe holds."""
        package_root = os.path.dirname(os.path.dirname(catalan_stanley.tree.__file__))
        env = {**os.environ, "PYTHONPATH": package_root}
        proc = subprocess.Popen(
            [sys.executable, "-m", "catalan_stanley.cli", "enumerate", "--size", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"(((((((((((())))))))))))\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


# Every decision the parser and the dispatch make shows in one of these
# runs: each help text, the usage errors, every cap plus one (a refusal),
# the two --asym runs past the exact caps, and one normal run per command
# and format.
CLI_PIN_ARGVS = [
    ("--help",),
    *((command, "--help") for command in (
        "count", "enumerate", "sample", "age", "ancestor", "constants", "bijection", "verify",
    )),
    (),
    ("nonsense",),
    ("age",),
    ("age", "--size", "4", "--exact", "--asym"),
    ("count", "--size", "7001"),
    ("enumerate", "--size", "17"),
    ("sample", "--size", "100001"),
    ("sample", "--size", "5", "--count", "101"),
    ("age", "--size", "7001"),
    ("ancestor", "--size", "481", "--depth", "1"),
    ("verify", "--max-size", "15"),
    ("verify", "--order", "81"),
    ("verify", "--max-r", "41"),
    ("age", "--size", "7001", "--asym"),
    ("ancestor", "--size", "481", "--depth", "2", "--asym", "--format", "json"),
    *(argv + ("--format", fmt) for fmt in ("text", "json", "csv") for argv in (
        ("count", "--size", "9"),
        ("enumerate", "--size", "6"),
        ("sample", "--size", "8", "--seed", "3", "--count", "2"),
        ("age", "--size", "9"),
        ("ancestor", "--size", "9", "--depth", "1"),
        ("constants", "--precision", "12"),
        ("bijection", "--tree", "((()))"),
    )),
    ("bijection", "--path", "UUUDUDDD"),
    *(("verify", "--max-size", "5", "--max-r", "2", "--order", "6", "--format", fmt)
      for fmt in ("text", "json")),
]
# sha256 over (status, stdout, stderr) of every run above; re-recorded when
# `reduced_size_bijection` joined `verify`'s tree layer, which moves that one
# line of the two `verify` reports and changes no other byte
CLI_PIN_SHA256 = "9f5302670666a338ef0c8b97e97c444f74e13d6551e552d40a4cd3362908ded7"


def test_cli_pin(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in CLI_PIN_ARGVS:
        digest.update(repr(invoke(*argv)).encode())
    assert digest.hexdigest() == CLI_PIN_SHA256



def test_only_sample_imports_numpy():
    """Every command but `sample` and `verify` runs without numpy, in a
    fresh interpreter; `sample` loads it."""
    script = (
        "import io, sys\n"
        "from catalan_stanley.cli import run\n"
        "for argv in (['count', '--size', '5'], ['enumerate', '--size', '6'],\n"
        "             ['age', '--size', '9'], ['age', '--size', '99', '--asym'],\n"
        "             ['ancestor', '--size', '9', '--depth', '1'], ['constants'],\n"
        "             ['bijection', '--tree', '(()())']):\n"
        "    assert run(argv, out=io.StringIO()) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "assert run(['sample', '--size', '5'], out=io.StringIO()) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    package_root = os.path.dirname(os.path.dirname(catalan_stanley.tree.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")


def test_cli_reads_no_private_sampler():
    """The CLI calls the public samplers, whose calls and draws a tracer of
    the public `enumeration` names sees; its one private read is the block
    walk `_tree_blocks` that `enumerate` prints."""
    source = Path(catalan_stanley.cli.__file__).read_text()
    private = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("enumeration")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private <= {"_tree_blocks"}


def test_verify_imports_no_process_pool():
    """`verify` forks its worker by hand, in a fresh interpreter, so neither
    `multiprocessing` nor `concurrent.futures` is imported.  Where it forks,
    the sampler layer runs in the child, so the caller does not import
    `numpy.random` (about 6 MiB of RSS); on one CPU the caller runs that
    layer itself, and that part is skipped."""
    script = (
        "import io, sys\n"
        "from catalan_stanley import verify\n"
        "from catalan_stanley.cli import run\n"
        "forks = verify._can_fork()\n"
        "argv = ['verify', '--max-size', '5', '--max-r', '2', '--order', '6']\n"
        "assert run(argv, out=io.StringIO()) == 0\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert not forks or 'numpy.random' not in sys.modules\n"
        "print(forks)\n"
    )
    package_root = os.path.dirname(os.path.dirname(catalan_stanley.tree.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    if done.stdout != "True\n":
        pytest.skip("verify does not fork here: the caller runs the sampler layer")


def _numbers(cap, with_cap=False):
    """Integer flag values: negative, 0, 1, 2-9, cap+1 and three past every
    cap; the cap itself only where it runs quickly."""
    edges = [-1, -(2**64), 0, 1, 2**53, 2**64, 10**30]
    if cap is not None:
        edges.append(cap + 1)
    if with_cap:
        edges.append(cap)
    return st.sampled_from(edges) | st.integers(2, 9)


_CHAIN = 10**5
_WORDS = {
    "--tree": ["(()())", "(((()())))", "()", "", "(()", "())(", "(x)", "[]",
               "(" * _CHAIN + ")" * _CHAIN],
    "--path": ["UUDD", "UUUDUDDD", "", "UUD", "DU", "UXD", "ud",
               "U" * _CHAIN + "D" * _CHAIN],
}
# (flag, values) of every option of each command, in the parser's order
_GRAMMAR = {
    "count": [("--size", _numbers(MAX_COUNT_SIZE, with_cap=True))],
    "enumerate": [("--size", _numbers(MAX_ENUMERATE_SIZE))],
    "sample": [
        ("--size", _numbers(MAX_SAMPLE_SIZE)),
        ("--seed", _numbers(None)),
        ("--count", _numbers(MAX_SAMPLE_COUNT)),
    ],
    "age": [("--size", _numbers(MAX_AGE_SIZE))],
    "ancestor": [
        ("--size", _numbers(MAX_ANCESTOR_SIZE)),
        ("--depth", _numbers(MAX_ASYM_DEPTH)),
    ],
    "constants": [("--precision", _numbers(MAX_DIGITS, with_cap=True))],
    "bijection": [
        (flag, st.sampled_from(words) | st.text("()UD", max_size=12))
        for flag, words in _WORDS.items()
    ],
    "verify": [
        ("--max-size", _numbers(MAX_VERIFY_SIZE)),
        ("--max-r", _numbers(MAX_VERIFY_R)),
        ("--order", _numbers(MAX_VERIFY_ORDER)),
    ],
}
# values no `verify` scope accepts (the scope must be at least 4, 1, 4)
_NO_SCOPE = st.sampled_from([-1, 0, 2**53, 2**64, 10**30, MAX_VERIFY_ORDER + 1])


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    options = _GRAMMAR[command]
    values = [draw(st.none() | values) for _, values in options]
    if command == "verify":  # valid scopes are test_verify.py's
        values[draw(st.integers(0, 2))] = draw(_NO_SCOPE)
    argv = [command]
    for (flag, _), value in zip(options, values):
        if value is not None:
            argv += [flag, str(value)]
    if command in ("age", "ancestor"):
        argv += draw(st.sampled_from([[], ["--exact"], ["--asym"], ["--exact", "--asym"]]))
    fmt = draw(st.none() | st.sampled_from(["text", "json", "csv"]))
    return argv + ([] if fmt is None else ["--format", fmt])


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_command_lines())
# a size or seed that the sampler refuses prints nothing, not even the
# JSON header
@example(["sample", "--size", "-1", "--format", "json"])
@example(["sample", "--size", "5", "--seed", "-1", "--format", "json"])
def test_cli_contract(argv):
    """Every command line of the parser's grammar exits 0, 1 or 2; a usage
    or domain error prints nothing to stdout and, to stderr, one `error:`
    line or an argparse usage block; a success prints text that parses in
    its format."""
    code, out, err = invoke(*argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        if err.startswith("usage: "):
            assert ": error: " in err.splitlines()[-1]
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
    elif code == 0:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
        if fmt == "json" or (fmt is None and argv[0] == "constants"):
            json.loads(out)
        elif fmt == "csv" or (fmt is None and argv[0] in ("age", "ancestor")):
            # no field is quoted, so a row's width is its commas plus one
            widths = {line.count(",") for line in out.splitlines()}
            assert len(widths) <= 1


class TestReportShape:
    def test_report_counts(self):
        report = run_verification(max_size=5, max_r=2, order=8)
        assert report.ok
        assert report.num_passed == len(report.checks)
        assert report.num_failed == 0
        parsed = json.loads(report.to_json())
        assert parsed["passed"] == report.num_passed

    def test_scope_validation(self):
        with pytest.raises(ValueError):
            run_verification(max_size=3)


def _readme_cli_examples():
    """The command lines of README's `## CLI` code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return block.splitlines()


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_example(line):
    """Each example exits 0; where its comment opens with the output's first
    line (a number or a CSV header), that line is printed."""
    argv = shlex.split(line, comments=True)
    assert argv[0] == "catalan-stanley"
    code, out, err = invoke(*argv[1:])
    assert (code, err) == (0, "")
    comment = line.partition("#")[2].split()
    if comment and re.fullmatch(r"\d+|\w+(,\w+)+", comment[0]):
        assert out.splitlines()[0] == comment[0]
