import os
import random
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import catalan_stanley
from catalan_stanley.errors import (
    CapacityError,
    MalformedPathError,
    NotCatalanStanleyError,
    TreeParseError,
)
from catalan_stanley.tree import (
    DyckPath,
    PlaneTree,
    age,
    ancestor,
    dyck_to_tree,
    has_odd_returns,
    is_catalan_stanley,
    parse_tree,
    reduce,
    tree_to_dyck,
)
from catalan_stanley.enumeration import enumerate_trees, plane_trees

from tree_shapes import (
    broom,
    chain,
    depth_string,
    marked_leaf_depths,
    reference_reduce,
    star,
)

# re-derived from the bijection figure: a 20-step path with three odd
# returns and the 11-node tree it folds into
FIGURE_PATH = "UUUDUDUDDDUDUUDUUDDD"
FIGURE_TREE = "(((()()()))()(()(())))"

# re-derived from the reduction figure: 18 nodes -> 6 -> 2 -> 1
REDUCTION_STEPS = [
    "(((())(((()()()))()))()(()(((())))))",
    "(()(()(())))",
    "(())",
    "()",
]


def nested(children=()):
    return PlaneTree(tuple(nested(c) for c in children)) if children else PlaneTree()


tree_strategy = st.recursive(
    st.just(PlaneTree()),
    lambda inner: st.lists(inner, max_size=4).map(lambda kids: PlaneTree(tuple(kids))),
    max_leaves=25,
)


@st.composite
def deep_tree_strategy(draw):
    """A long chain whose nodes carry random leaves on either side of it."""
    depth = draw(st.integers(1000, 10**4))
    # one drawn seed, not one draw per node: 2*10^4 draws overrun the
    # example's entropy budget
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    leaf = PlaneTree()
    node = leaf
    for _ in range(depth):
        left, right = rnd.randrange(3), rnd.randrange(2)
        node = PlaneTree((leaf,) * left + (node,) + (leaf,) * right)
    return node


class TestParseSerialize:
    @pytest.mark.parametrize(
        "text,size",
        [("()", 1), ("(()()())", 4), ("((()))", 3), (FIGURE_TREE, 11)],
    )
    def test_roundtrip_examples(self, text, size):
        tau = parse_tree(text)
        assert tau.size() == size
        assert tau.serialize() == text

    def test_single_node(self):
        assert parse_tree("()") == PlaneTree()

    def test_star_shape(self):
        assert parse_tree("(()()())") == star(4)

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            (")(", 0),
            ("(()", 3),
            ("()()", 2),
            ("(x)", 1),
            ("((", 2),
        ],
    )
    def test_errors_carry_offset(self, text, offset):
        with pytest.raises(TreeParseError) as excinfo:
            parse_tree(text)
        assert excinfo.value.offset == offset

    @given(tree_strategy)
    @settings(max_examples=80)
    def test_roundtrip_random(self, tau):
        assert parse_tree(tau.serialize()) == tau

    def test_deep_chain_roundtrip(self):
        word = chain(5000).serialize()
        assert parse_tree(word).serialize() == word
        assert parse_tree(word).size() == 5000


class TestDeepTrees:
    def test_chain_equality_and_hash(self):
        n = 10**4
        tau, same, shorter = chain(n), chain(n), chain(n - 1)
        assert tau == same and not tau != same
        assert tau != shorter and not tau == shorter
        assert hash(tau) == hash(same)
        assert same in {tau} and shorter not in {tau}

    def test_chain_operations(self):
        n = 10**4
        tau = chain(n)
        assert is_catalan_stanley(tau)
        assert age(tau) == n // 2
        assert reduce(tau) == chain(n - 2)
        assert dyck_to_tree(tree_to_dyck(tau)) == tau
        assert PlaneTree(tau.children) == tau

    @pytest.mark.parametrize(
        "handle,bristles,member",
        [
            (10**5, 0, True),  # a chain: marked leaf at depth 10^5 - 1
            (10**5 + 1, 0, False),
            (50_001, 49_999, True),  # marked leaf at depth 50_001
            (50_000, 50_000, False),
        ],
    )
    def test_glove_bijection_and_membership(self, handle, bristles, member):
        tau = broom(handle, bristles)
        path = tree_to_dyck(tau)
        assert dyck_to_tree(path) == tau
        steps = path.steps
        assert steps == (1,) * (handle - 1) + (1, -1) * bristles + (-1,) * (handle - 1)
        assert DyckPath(steps) == path
        text = path.to_string()
        assert text == "U" * (handle - 1) + "UD" * bristles + "D" * (handle - 1)
        assert DyckPath.from_string(text) == path
        assert has_odd_returns(path) == is_catalan_stanley(tau) == member

    @given(deep_tree_strategy())
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_and_hash(self, tau):
        copy = parse_tree(tau.serialize())
        assert copy == tau
        assert hash(copy) == hash(tau)
        assert PlaneTree(tau.children + (PlaneTree(),)) != tau


class TestWord:
    """A tree is its word: the children split it, and the hash is the word's."""

    @given(tree_strategy)
    @settings(max_examples=80)
    def test_children_rebuild_the_tree(self, tau):
        assert PlaneTree(tau.children) == tau
        assert "".join(c.serialize() for c in tau.children) == tau.serialize()[1:-1]

    @given(tree_strategy)
    @settings(max_examples=80)
    def test_hash_is_the_word_hash(self, tau):
        assert hash(tau) == hash(tau.serialize())

    def test_children_keyword(self):
        assert PlaneTree(children=(chain(2), PlaneTree())) == parse_tree("((())())")


def encodings(word, depths):
    """Fresh trees of one shape that hold its word, its depth string, or both."""
    return [PlaneTree._of(word), PlaneTree._of(None, depths), PlaneTree._of(word, depths)]


def outcome(op, tau):
    """What `op` gives on `tau`: a tree as its word, or the error it raises."""
    try:
        result = op(tau)
    except NotCatalanStanleyError as exc:
        return type(exc), str(exc)
    return result.serialize() if isinstance(result, PlaneTree) else result


TREE_OPS = (is_catalan_stanley, age, reduce, lambda t: ancestor(t, 1))


def assert_encodings_agree(tau):
    """Every pair of encodings of one shape is equal with equal hashes, and
    unequal to every encoding of the shape with one more root child.  Each
    tree operation, run on a fresh tree of each encoding, gives the same
    result or raises the same error."""
    word = tau.serialize()
    depths = depth_string(word)
    other = (word[:-1] + "())", depths + "\x01")
    expected = [outcome(op, PlaneTree._of(word)) for op in TREE_OPS]
    for i in range(3):
        for j in range(3):
            assert encodings(word, depths)[i] == encodings(word, depths)[j]
            assert not encodings(word, depths)[i] != encodings(word, depths)[j]
            assert encodings(word, depths)[i] != encodings(*other)[j]
            assert not encodings(word, depths)[i] == encodings(*other)[j]
        fresh = encodings(word, depths)[i]
        assert hash(fresh) == hash(word)
        assert fresh.size() == tau.size()
        assert fresh.is_leaf == tau.is_leaf
        assert [outcome(op, encodings(word, depths)[i]) for op in TREE_OPS] == expected


class TestEncodings:
    """A tree may hold its word, its depth string or both; the encodings
    agree on every operation that reads either."""

    @pytest.mark.parametrize(
        "tau",
        [PlaneTree(), chain(2), chain(10**4), star(5)]
        + [broom(h, b) for h, b in ((1, 3), (2, 3), (10**4, 5), (5, 10**4))],
    )
    def test_shapes(self, tau):
        assert_encodings_agree(tau)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_plane_tree(self, n):
        for tau in plane_trees(n):
            assert_encodings_agree(tau)

    @given(deep_tree_strategy())
    @settings(max_examples=20, deadline=None)
    def test_deep_trees(self, tau):
        assert_encodings_agree(tau)

    def test_chr_bound_is_a_capacity_error(self):
        """On a chain one level deeper than `chr` reaches, membership, `age`
        and `reduce` raise `CapacityError`; its word still serves the rest."""
        nodes = 0x10FFFF + 2  # the last node sits at depth 1,114,112
        word = "(" * nodes + ")" * nodes
        tau = PlaneTree._of(word)
        for op in (is_catalan_stanley, age, reduce, lambda t: ancestor(t, 1)):
            with pytest.raises(CapacityError, match="deeper than 1,114,111"):
                op(tau)
        assert tau.serialize() == word
        assert tau.size() == nodes
        assert hash(tau) == hash(word)
        assert tau == PlaneTree._of(word) and tau != PlaneTree._of(word[1:-1])

    def test_chr_bound_is_reached(self):
        nodes = 0x10FFFF + 1  # the last node sits at depth 1,114,111
        tau = PlaneTree._of("(" * nodes + ")" * nodes)
        assert is_catalan_stanley(tau)
        assert age(tau) == nodes // 2
        assert reduce(tau).serialize() == "(" * (nodes - 2) + ")" * (nodes - 2)


class TestCallBudget:
    def test_census_pass_makes_only_its_own_calls(self):
        """A census pass over the trees of size 10 (Dyck round trip, `!=`,
        `age`, and a `reduce` chain with `is_leaf` and `size`) enters the
        package's code once for each call it makes, and no more: every
        operation reads the encoding the tree holds and builds its result in
        place.  Counted with `sys.setprofile`, so no timing is involved."""
        trees = list(enumerate_trees(10))
        package = os.path.dirname(catalan_stanley.__file__) + os.sep
        entered = 0

        def profile(frame, event, _arg):
            nonlocal entered
            if event == "call" and frame.f_code.co_filename.startswith(package):
                entered += 1

        made = 0
        sys.setprofile(profile)
        try:
            for tau in trees:
                assert not dyck_to_tree(tree_to_dyck(tau)) != tau
                age(tau)
                made += 4
                node = tau
                while not node.is_leaf:
                    node = reduce(node)
                    node.size()
                    made += 3
                made += 1  # the `is_leaf` that ends the chain
        finally:
            sys.setprofile(None)
        assert len(trees) == 1430
        assert entered == made


class TestDyckPath:
    def test_from_to_string(self):
        path = DyckPath.from_string("UUDD")
        assert path.steps == (1, 1, -1, -1)
        assert path.to_string() == "UUDD"
        assert len(path.steps) // 2 == 2

    @pytest.mark.parametrize("steps", [(1,), (1, 1), (-1, 1), (1, -1, -1, 1)])
    def test_invariant_violations(self, steps):
        with pytest.raises(MalformedPathError):
            DyckPath(steps)

    def test_bad_character(self):
        with pytest.raises(MalformedPathError):
            DyckPath.from_string("UX")

    @pytest.mark.parametrize(
        "path,steps",
        [
            (DyckPath(), ()),
            (DyckPath((1, -1)), (1, -1)),
            (DyckPath.from_string("UUDUDD"), (1, 1, -1, 1, -1, -1)),
        ],
    )
    def test_steps(self, path, steps):
        assert path.steps == steps
        assert type(path.steps) is tuple
        assert all(type(s) is int for s in path.steps)

    def test_equality_and_hash(self):
        path, same = DyckPath((1, 1, -1, -1)), DyckPath.from_string("UUDD")
        assert path == same and not path != same
        assert hash(path) == hash(same)
        assert same in {path}
        assert path != DyckPath((1, -1, 1, -1))
        assert path != PlaneTree() and path != parse_tree("((()))")
        assert path != (1, 1, -1, -1)

    def test_repr(self):
        assert repr(DyckPath()) == "DyckPath(steps=())"
        assert repr(DyckPath.from_string("UUDUDD")) == "DyckPath(steps=(1, 1, -1, 1, -1, -1))"

    @pytest.mark.parametrize(
        "steps,message",
        [
            ((1, 2, -1), "step 1 is 2, expected +1 or -1"),
            ((1, -1, "D"), "step 2 is 'D', expected +1 or -1"),
            ((-1, 1), "prefix sum drops below 0 at step 0"),
            ((1, -1, -1, 5), "prefix sum drops below 0 at step 2"),
            ((1,), "total sum is nonzero"),
            ((1, 1, -1), "total sum is nonzero"),
        ],
    )
    def test_error_messages(self, steps, message):
        with pytest.raises(MalformedPathError) as excinfo:
            DyckPath(steps)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("UX", "character 'X' at position 1, expected U or D"),
            ("U(D)", "character '(' at position 1, expected U or D"),
            ("DU", "prefix sum drops below 0 at step 0"),
            ("UUD", "total sum is nonzero"),
        ],
    )
    def test_from_string_error_messages(self, text, message):
        with pytest.raises(MalformedPathError) as excinfo:
            DyckPath.from_string(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text", ["", "UD", "UUDD", "UDUD", FIGURE_PATH])
    def test_string_roundtrip(self, text):
        path = DyckPath.from_string(text)
        assert path.to_string() == text
        assert DyckPath.from_string(path.to_string()) == path
        assert DyckPath(path.steps) == path

    def test_steps_are_read_only(self):
        path = DyckPath((1, -1))
        with pytest.raises(AttributeError):
            path.steps = ()
        assert path.steps == (1, -1)

    def test_any_iterable_of_steps(self):
        """A list, a tuple, a generator and a numpy row give the same path."""
        steps = (1, 1, -1, 1, -1, -1)
        paths = [
            DyckPath(list(steps)),
            DyckPath(steps),
            DyckPath(s for s in steps),
            DyckPath(np.array(steps, dtype=np.int8)),
        ]
        for path in paths:
            assert path == DyckPath(steps)
            assert hash(path) == hash(DyckPath(steps))
            assert path.steps == steps


class TestGloveBijection:
    def test_single_node_empty_path(self):
        assert tree_to_dyck(PlaneTree()).steps == ()
        assert dyck_to_tree(DyckPath()) == PlaneTree()

    def test_chain_of_four(self):
        assert tree_to_dyck(chain(4)).steps == (1, 1, 1, -1, -1, -1)

    def test_star_of_four(self):
        assert tree_to_dyck(star(4)).steps == (1, -1, 1, -1, 1, -1)

    def test_two_node_chain(self):
        assert dyck_to_tree(DyckPath((1, -1))) == chain(2)

    def test_figure_pair(self):
        tau = parse_tree(FIGURE_TREE)
        path = DyckPath.from_string(FIGURE_PATH)
        assert tree_to_dyck(tau) == path
        assert dyck_to_tree(path) == tau
        assert len(tau.children) == 3
        assert is_catalan_stanley(tau)

    def test_path_size_relation(self):
        path = DyckPath.from_string("UUDUDD")
        assert dyck_to_tree(path).size() == len(path.steps) // 2 + 1

    @given(tree_strategy)
    @settings(max_examples=80)
    def test_roundtrip_random(self, tau):
        assert dyck_to_tree(tree_to_dyck(tau)) == tau

    @pytest.mark.parametrize("n", range(1, 11))
    def test_parity_correspondence_exhaustive(self, n):
        for tau in plane_trees(n):
            assert is_catalan_stanley(tau) == has_odd_returns(tree_to_dyck(tau))


class TestMembership:
    def test_single_node_belongs(self):
        assert is_catalan_stanley(PlaneTree())

    def test_chain_of_three_rejected(self):
        assert not is_catalan_stanley(chain(3))

    def test_chain_of_four_belongs(self):
        assert is_catalan_stanley(chain(4))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stars_belong(self, n):
        assert is_catalan_stanley(star(n))


class TestMembershipOracle:
    """The membership scan against each branch's marked-leaf depth, read by
    walking last children down to a leaf."""

    @pytest.mark.parametrize("n", range(1, 12))
    def test_every_plane_tree(self, n):
        for tau in plane_trees(n):
            expected = all(d % 2 for d in marked_leaf_depths(tau))
            assert is_catalan_stanley(tau) == expected

    @pytest.mark.parametrize(
        "tau",
        [chain(n) for n in (300, 301, 998, 999)]
        + [star(n) for n in (2, 500)]
        + [broom(h, b) for h, b in ((1, 3), (2, 3), (299, 200), (300, 200))]
        + [PlaneTree((chain(400), star(300), chain(3)))],
    )
    def test_deep_shapes(self, tau):
        assert is_catalan_stanley(tau) == all(d % 2 for d in marked_leaf_depths(tau))

    @given(tree_strategy)
    @settings(max_examples=80)
    def test_random_trees(self, tau):
        assert is_catalan_stanley(tau) == all(d % 2 for d in marked_leaf_depths(tau))


def reductions_to_leaf(tau):
    """Number of reduce steps down to the single node."""
    steps = 0
    while not tau.is_leaf:
        tau = reduce(tau)
        steps += 1
    return steps


class TestReduce:
    def test_single_node_fixed_point(self):
        assert reduce(PlaneTree()) == PlaneTree()

    def test_chain_four_to_chain_two(self):
        assert reduce(chain(4)) == chain(2)

    def test_reduction_figure_chain(self):
        trees = [parse_tree(text) for text in REDUCTION_STEPS]
        assert [t.size() for t in trees] == [18, 6, 2, 1]
        for before, after in zip(trees, trees[1:]):
            assert reduce(before) == after
        assert age(trees[0]) == reductions_to_leaf(trees[0]) == 3

    def test_rejects_non_member(self):
        with pytest.raises(NotCatalanStanleyError):
            reduce(chain(3))

    def test_star_collapses(self):
        assert reduce(star(6)) == PlaneTree()


class TestReduceReference:
    """`reduce` on the word against the node-level definition of the paper."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_member(self, n):
        for tau in enumerate_trees(n):
            assert reduce(tau) == reference_reduce(tau)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_plane_tree(self, n):
        for tau in plane_trees(n):
            assert_reduces_like_reference(tau)

    @given(deep_tree_strategy())
    @settings(max_examples=20, deadline=None)
    def test_deep_trees(self, tau):
        assert_reduces_like_reference(tau)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_census_chains(self, n):
        """Every tree of a reduction chain holds only its depth string, and
        it serializes to the word the reference gives."""
        for tau in enumerate_trees(n):
            while not tau.is_leaf:
                expected = reference_reduce(tau).serialize()
                tau = reduce(tau)
                assert tau._word is None
                assert tau.serialize() == expected


def assert_reduces_like_reference(tau):
    """Members reduce as the reference does; every operation rejects the rest."""
    try:
        expected = reference_reduce(tau)
    except ValueError:
        for op in (reduce, age, lambda t: ancestor(t, 1)):
            with pytest.raises(NotCatalanStanleyError, match="rightmost leaf has even depth"):
                op(tau)
    else:
        assert reduce(tau) == expected


class TestAge:
    def test_single_node(self):
        assert age(PlaneTree()) == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_star_age_one(self, n):
        assert age(star(n)) == reductions_to_leaf(star(n)) == 1

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_even_chain(self, n):
        assert age(chain(n)) == reductions_to_leaf(chain(n)) == n // 2

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_extremal_tree(self, n):
        # chain of size n-1 with one extra leaf attached at the root
        tau = PlaneTree((chain(n - 2), PlaneTree()))
        assert tau.size() == n
        assert age(tau) == reductions_to_leaf(tau) == n // 2

    def test_rejects_non_member(self):
        with pytest.raises(NotCatalanStanleyError):
            age(chain(5))


class TestExhaustiveInvariants:
    """Structural invariants over every enumerated tree, up to size 14."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_reduce_stays_in_class_and_contracts(self, n, census):
        data = census(n)
        assert data.all_valid
        assert data.closure_ok
        assert data.contraction_ok

    @pytest.mark.parametrize("n", range(2, 15))
    def test_age_formula_matches_iterated_reduction(self, n, census):
        assert census(n).age_match
        assert census(n).age_formula == census(n).age_iterated

    @pytest.mark.parametrize("n", range(2, 15))
    def test_age_bounds_sharp(self, n, census):
        ages = sorted(census(n).age_formula)
        assert ages[0] == 1 and ages[-1] == n // 2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_bijection_roundtrip(self, n, census):
        assert census(n).roundtrip_ok


class TestAncestor:
    def test_identity_at_zero(self):
        tau = parse_tree(FIGURE_TREE)
        assert ancestor(tau, 0) == tau

    def test_single_step(self):
        assert ancestor(chain(4), 1) == chain(2)

    @pytest.mark.parametrize("tau", [chain(8), star(7), parse_tree(FIGURE_TREE)])
    def test_deep_reduction_reaches_root(self, tau):
        assert ancestor(tau, tau.size() // 2) == PlaneTree()

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            ancestor(PlaneTree(), -1)


def pair_spine_segments(plane):
    """A plane tree's root children split after each leaf child ("mark"):
    lists of the children of size >= 2 ("pairs"); the root ends the last list."""
    segments, current = [], []
    for child in plane.children:
        if child.is_leaf:
            segments.append(current)
            current = []
        else:
            current.append(child)
    segments.append(current)
    return segments


def pair_spine_image(segments):
    """The Catalan-Stanley tree with one root branch per segment.

    A pair ((A)B), A its first child's children, becomes "(A(B": its first
    "(" dropped, the ")" that closes A turned into "(", its last ")"
    dropped.  A segment of j pairs then ends in the marked leaf "()" and
    2j closing parentheses, at depth 2j + 1.
    """
    branches = []
    for pairs in segments:
        parts = []
        for pair in pairs:
            first, *rest = pair.children
            rest_word = "".join(c.serialize() for c in rest)
            parts.append("(" + first.serialize()[1:-1] + "(" + rest_word)
        branches.append("".join(parts) + "()" + ")" * (2 * len(pairs)))
    return parse_tree("(" + "".join(branches) + ")")


class TestPairSpineOracle:
    """`reduce` against the pair-spine bijection from plane trees on n-1
    nodes: one reduction removes the last pair of every segment and drops
    the segments that have none."""

    @pytest.mark.parametrize("n", range(2, 12))
    def test_reduce_removes_each_segments_last_pair(self, n):
        segments = [pair_spine_segments(p) for p in plane_trees(n - 1)]
        images = [pair_spine_image(s) for s in segments]
        assert len(set(images)) == len(images)
        words = sorted(t.serialize() for t in images)
        assert words == [t.serialize() for t in enumerate_trees(n)]
        for image, segs in zip(images, segments):
            assert reduce(image) == pair_spine_image([s[:-1] for s in segs if s])
