from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexbench.model import Schema, Shape, canonicalize
from shexbench.shexc import parse_shexc
from shexbench.treedist import (
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
    return Schema(schema.prefixes, schema.start_label, shapes, schema.focus_class)


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
        generated = Schema(museum_schema.prefixes, museum_schema.start_label, shapes,
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
