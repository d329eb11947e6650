from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexbench import treedist
from shexbench.model import Schema, Shape, canonicalize
from shexbench.shexc import parse_shexc
from shexbench.treedist import (
    UNIT_COSTS,
    EditCostModel,
    EmptyGroundTruthError,
    TreeNode,
    ged_and_nged,
    nged,
    schema_ged,
    schema_to_tree,
    tree_edit_distance,
)
from support import PlainTree, brute_force_tree_distance, random_tree

WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"


def to_tree_node(plain: PlainTree) -> TreeNode:
    return TreeNode(plain.label, tuple(to_tree_node(c) for c in plain.children))


def drop_constraints(schema: Schema, predicates: set[str]) -> Schema:
    """Ground truth minus the constraints whose predicate local name is listed."""
    start = schema.start_shape
    kept = tuple(c for c in start.constraints if c.predicate.local_name() not in predicates)
    shapes = dict(schema.shapes)
    shapes[start.label] = Shape(start.label, kept, start.extra_predicates)
    return Schema(schema.start_label, shapes, schema.focus_class)


def empty_start(schema: Schema) -> Schema:
    return drop_constraints(schema, {c.predicate.local_name() for c in schema.start_shape.constraints})


class TestSchemaToTree:
    def test_museum_shape(self, museum_schema):
        tree = schema_to_tree(museum_schema)
        assert tree.label == WD + "Q33506"
        assert len(tree.children) == 4
        assert tree.size() == 13
        by_pred = {child.label: child for child in tree.children}
        country = by_pred[WDT + "P17"]
        assert country.children[0].label == f"@[{WD}Q6256]"
        assert country.children[0].children[0].label == "{1,1}"
        # children ordered by predicate IRI
        assert [c.label for c in tree.children] == sorted(c.label for c in tree.children)

    def test_labels_canonicalized_away(self, museum_text):
        renamed = museum_text.replace("Country", "Land")
        assert schema_to_tree(parse_shexc(museum_text)) == schema_to_tree(parse_shexc(renamed))

    def test_empty_schema_is_root_only(self, museum_schema):
        tree = schema_to_tree(empty_start(museum_schema))
        assert tree.size() == 1

    def test_node_count_invariant(self, fixture_schemas):
        for _, schema in fixture_schemas:
            tree = schema_to_tree(schema)
            n = len(canonicalize(schema).start_shape.constraints)
            assert tree.size() == 1 + 3 * n


class TestTreeEditDistance:
    def test_identity_on_fixtures(self, fixture_schemas):
        for _, schema in fixture_schemas:
            tree = schema_to_tree(schema)
            assert tree_edit_distance(tree, tree) == 0

    def test_root_only_vs_museum_is_twelve(self, museum_schema):
        museum_tree = schema_to_tree(museum_schema)
        root_only = TreeNode(museum_tree.label)
        assert tree_edit_distance(root_only, museum_tree) == 12
        # independently confirmed by the exhaustive oracle
        plain_root = PlainTree(museum_tree.label)
        assert brute_force_tree_distance(plain_root, _to_plain(museum_tree)) == 12

    def test_matches_oracle_on_random_small_trees(self):
        rng = random.Random(4217)
        for _ in range(200):
            a = random_tree(rng, 6)
            b = random_tree(rng, 6)
            expected = brute_force_tree_distance(a, b)
            assert tree_edit_distance(to_tree_node(a), to_tree_node(b)) == expected

    def test_custom_costs(self):
        a = TreeNode("r", (TreeNode("x"),))
        b = TreeNode("r", (TreeNode("y"),))
        assert tree_edit_distance(a, b, EditCostModel(relabel_cost=5)) == 2
        assert tree_edit_distance(TreeNode("r"), b, EditCostModel(insert_cost=3)) == 3

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            EditCostModel(insert_cost=-1)


def _to_plain(node: TreeNode) -> PlainTree:
    return PlainTree(node.label, [_to_plain(c) for c in node.children])


@st.composite
def small_trees(draw, max_depth=3):
    label = draw(st.sampled_from("abcd"))
    if max_depth == 0:
        return TreeNode(label)
    children = draw(st.lists(small_trees(max_depth=max_depth - 1), max_size=3))
    return TreeNode(label, tuple(children))


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_trees(), small_trees())
    def test_symmetry(self, a, b):
        assert tree_edit_distance(a, b) == tree_edit_distance(b, a)

    @settings(max_examples=40, deadline=None)
    @given(small_trees(max_depth=2), small_trees(max_depth=2), small_trees(max_depth=2))
    def test_triangle_inequality(self, a, b, c):
        assert tree_edit_distance(a, c) <= tree_edit_distance(a, b) + tree_edit_distance(b, c)

    @settings(max_examples=60, deadline=None)
    @given(small_trees())
    def test_identity(self, a):
        assert tree_edit_distance(a, a) == 0


def schema_tree(root: str, paths) -> TreeNode:
    return TreeNode(root, tuple(TreeNode(p, (TreeNode(n, (TreeNode(c),)),)) for p, n, c in paths))


@st.composite
def schema_tree_pairs(draw):
    """Two schema-shaped trees over small per-depth alphabets, with equal or
    unequal roots; with ``collide`` every depth draws from one alphabet, so
    labels may repeat across depths."""
    collide = draw(st.booleans())
    alphabets = ["xyz"] * 3 if collide else ["pqr", "mn", "cd"]
    path = st.tuples(*(st.sampled_from(alphabet) for alphabet in alphabets))
    roots = st.sampled_from("xy" if collide else "RS")
    return tuple(schema_tree(draw(roots), draw(st.lists(path, max_size=5))) for _ in range(2))


# GED of every ordered (generated, ground truth) pair of fixture schemas, in
# manifest order, as measured with Zhang-Shasha alone.
FIXTURE_PAIR_GED = [
    [0, 7, 7, 12, 13, 14, 11, 11],
    [7, 0, 9, 10, 13, 14, 13, 13],
    [7, 9, 0, 12, 13, 13, 11, 12],
    [12, 10, 12, 0, 13, 14, 12, 11],
    [13, 13, 13, 13, 0, 9, 9, 11],
    [14, 14, 13, 14, 9, 0, 11, 12],
    [11, 13, 11, 12, 9, 11, 0, 8],
    [11, 13, 12, 11, 11, 12, 8, 0],
]


def _no_zhang_shasha(*args):
    raise AssertionError("Zhang-Shasha reached")


class TestSchemaFastPath:
    @settings(max_examples=400, deadline=None)
    @given(schema_tree_pairs())
    def test_equals_zhang_shasha(self, pair):
        a, b = pair
        assert tree_edit_distance(a, b) == treedist._zhang_shasha(a, b, UNIT_COSTS)

    def test_fixture_pairs_are_pinned_and_skip_zhang_shasha(self, fixture_schemas, monkeypatch):
        from support import mutate_schema

        monkeypatch.setattr(treedist, "_zhang_shasha", _no_zhang_shasha)
        schemas = [schema for _, schema in fixture_schemas]
        assert [[schema_ged(g, t) for t in schemas] for g in schemas] == FIXTURE_PAIR_GED
        rng = random.Random(77)
        distances = [schema_ged(mutate_schema(s, rng), s) for s in schemas for _ in range(3)]
        assert distances == [1, 0, 3, 2, 2, 3, 3, 4, 1, 4, 3, 3, 3, 6, 4, 3, 5, 1, 1, 0, 1, 7, 2, 1]

    @pytest.mark.parametrize(
        "a,b,costs",
        [
            (schema_tree("R", [("p", "n", "c")]), schema_tree("R", [("q", "n", "d")]),
             EditCostModel(relabel_cost=2)),
            # "x" is a predicate in one tree and a node label in the other
            (schema_tree("R", [("x", "y", "c")]), schema_tree("R", [("p", "x", "c")]), UNIT_COSTS),
            # the root label reappears as a predicate
            (schema_tree("R", [("p", "n", "c")]), schema_tree("R", [("R", "n", "c")]), UNIT_COSTS),
            # not schema-shaped: a predicate with two node children
            (TreeNode("R", (TreeNode("p", (TreeNode("n"), TreeNode("m"))),)),
             schema_tree("R", [("p", "n", "c")]), UNIT_COSTS),
        ],
        ids=["non-unit-costs", "depth-collision", "root-collision", "not-schema-shaped"],
    )
    def test_other_inputs_reach_zhang_shasha(self, a, b, costs, monkeypatch):
        calls = []
        original = treedist._zhang_shasha
        monkeypatch.setattr(treedist, "_zhang_shasha", lambda *args: calls.append(args) or original(*args))
        assert tree_edit_distance(a, b, costs) == original(a, b, costs)
        assert len(calls) == 1


class TestNged:
    def test_identical_schemas(self, fixture_schemas):
        for _, schema in fixture_schemas:
            assert nged(schema, schema) == 0.0
            assert schema_ged(schema, schema) == 0

    def test_empty_generated_is_exactly_one(self, museum_schema):
        assert nged(empty_start(museum_schema), museum_schema) == 1.0

    def test_extra_constraints_half(self, museum_schema):
        # ground truth = Museum minus two constraints; generated = full Museum,
        # i.e. generated carries 2 extra constraints over a 4-constraint base
        # scaled down: gt has 2 constraints, gen has 4 -> D = 6, NGED = 6/6.
        gt = drop_constraints(museum_schema, {"P856", "P1174"})
        assert schema_ged(museum_schema, gt) == 6
        assert nged(museum_schema, gt) == 1.0

    def test_two_extra_over_four_is_half(self, museum_schema):
        # generated = Museum plus 2 invented constraints, gt = Museum:
        # each extra costs 3 insertions, so D = 6 and NGED = 6 / (3*4) = 0.5
        from shexbench.model import Cardinality, Iri, NodeKindIri, TripleConstraint

        start = museum_schema.start_shape
        extra = tuple(
            TripleConstraint(Iri(WDT + f"P99{i}"), NodeKindIri(), Cardinality(0, None))
            for i in range(2)
        )
        shapes = dict(museum_schema.shapes)
        shapes[start.label] = Shape(start.label, start.constraints + extra, start.extra_predicates)
        generated = Schema(museum_schema.start_label, shapes,
                           museum_schema.focus_class)
        assert schema_ged(generated, museum_schema) == 6
        assert nged(generated, museum_schema) == 0.5

    def test_deleting_k_gives_k_over_n(self, fixture_schemas):
        for _, schema in fixture_schemas:
            predicates = [c.predicate for c in schema.start_shape.constraints]
            n = len(predicates)
            for k in range(n + 1):
                dropped = drop_constraints(schema, {p.local_name() for p in predicates[:k]})
                assert nged(dropped, schema) == pytest.approx(k / n)

    def test_empty_ground_truth_rejected(self, museum_schema):
        with pytest.raises(EmptyGroundTruthError):
            nged(museum_schema, empty_start(museum_schema))

    def test_one_distance_gives_ged_and_nged(self, fixture_schemas):
        from support import mutate_schema

        rng = random.Random(77)
        pairs = []
        for _, schema in fixture_schemas:
            predicates = [c.predicate.local_name() for c in schema.start_shape.constraints]
            for k in range(len(predicates)):
                dropped = drop_constraints(schema, set(predicates[:k]))
                pairs += [(dropped, schema), (schema, dropped)]
            pairs += [(mutate_schema(schema, rng), schema) for _ in range(3)]
        for generated, gt in pairs:
            distance, normalized = ged_and_nged(generated, gt)
            assert distance == schema_ged(generated, gt)
            assert normalized == nged(generated, gt)
            assert normalized == distance / (3 * len(canonicalize(gt).start_shape.constraints))

    def test_ged_and_nged_rejects_empty_ground_truth(self, museum_schema):
        with pytest.raises(EmptyGroundTruthError):
            ged_and_nged(museum_schema, empty_start(museum_schema))

    def test_zero_iff_same_canonical_tree(self, museum_schema, museum_text):
        renamed = parse_shexc(museum_text.replace("Country", "Nation"))
        assert nged(renamed, museum_schema) == 0.0
        mutated = drop_constraints(museum_schema, {"P17"})
        assert nged(mutated, museum_schema) > 0.0
