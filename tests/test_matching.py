from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shexbench.errors import EmptyDatasetError
from shexbench.matching import (
    ALL_CRITERIA,
    CardinalityMode,
    ErrorBreakdown,
    EvalReport,
    MatchCriteria,
    NodeMode,
    OracleUnavailableError,
    StaticSubclassOracle,
    cardinality_loosened,
    categorize_errors,
    constraint_matches,
    evaluate_criteria,
    evaluate_pair,
    f1_score,
    macro_average,
)
from shexbench.model import (
    DEFAULT_TYPING_PREDICATES,
    RDF_TYPE,
    XSD_NS,
    Cardinality,
    DatatypeConstraint,
    Iri,
    Literal,
    NodeKindIri,
    Schema,
    Shape,
    ShapeRef,
    TripleConstraint,
    ValueSet,
)
from support import reference_evaluate_pair, superclass_of

WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"

EXACT = MatchCriteria()
CARD_SPACE = [Cardinality(1, 1), Cardinality(0, 1), Cardinality(1, None), Cardinality(0, None)]


class TestCardinalityLoosened:
    def test_paper_direction(self):
        assert cardinality_loosened(Cardinality(1, 1), Cardinality(0, None))
        assert not cardinality_loosened(Cardinality(0, None), Cardinality(1, 1))

    def test_reflexive(self):
        for card in CARD_SPACE + [Cardinality(2, 5), Cardinality(3, None)]:
            assert cardinality_loosened(card, card)

    def test_truth_table(self):
        # containment of the ground-truth interval in the generated one,
        # enumerated by hand over {(1,1),(0,1),(1,*),(0,*)}^2
        expected = {
            ((1, 1), (1, 1)): True,
            ((1, 1), (0, 1)): True,
            ((1, 1), (1, None)): True,
            ((1, 1), (0, None)): True,
            ((0, 1), (1, 1)): False,
            ((0, 1), (0, 1)): True,
            ((0, 1), (1, None)): False,
            ((0, 1), (0, None)): True,
            ((1, None), (1, 1)): False,
            ((1, None), (0, 1)): False,
            ((1, None), (1, None)): True,
            ((1, None), (0, None)): True,
            ((0, None), (1, 1)): False,
            ((0, None), (0, 1)): False,
            ((0, None), (1, None)): False,
            ((0, None), (0, None)): True,
        }
        for (gt_pair, gen_pair), value in expected.items():
            gt = Cardinality(*gt_pair)
            gen = Cardinality(*gen_pair)
            assert cardinality_loosened(gt, gen) is value, (gt, gen)

    def test_partial_order_on_bounded(self):
        bounded = [Cardinality(a, b) for a in range(3) for b in range(a, 4)]
        for x in bounded:
            for y in bounded:
                if cardinality_loosened(x, y) and cardinality_loosened(y, x):
                    assert x == y
                for z in bounded:
                    if cardinality_loosened(x, y) and cardinality_loosened(z, x):
                        assert cardinality_loosened(z, y)


def single_constraint_schema(constraint, label="S", extra_shapes=()):
    shapes = {label: Shape(label, (constraint,))}
    for shape in extra_shapes:
        shapes[shape.label] = shape
    return Schema(label, shapes, focus_class=Iri(WD + "Q1"))


def country_shape(label="Country", class_iri=WD + "Q6256"):
    return Shape(label, (TripleConstraint(Iri(WDT + "P31"), ValueSet((Iri(class_iri),))),))


class TestConstraintMatches:
    def test_identical_under_all_criteria(self):
        oracle = StaticSubclassOracle()
        constraint = TripleConstraint(Iri(WDT + "P17"), ShapeRef("Country"), Cardinality(1, 1))
        schema = single_constraint_schema(constraint, extra_shapes=(country_shape(),))
        for criteria in ALL_CRITERIA:
            assert constraint_matches(constraint, constraint, criteria, oracle, schema, schema)

    def test_subclass_match_via_oracle(self):
        administrative = Iri(WD + "Q56061")
        oracle = StaticSubclassOracle({Iri(WD + "Q6256"): [administrative]})
        gt = TripleConstraint(Iri(WDT + "P17"), ShapeRef("Country"), Cardinality(1, 1))
        gen = TripleConstraint(Iri(WDT + "P17"), ShapeRef("Admin"), Cardinality(1, 1))
        gt_schema = single_constraint_schema(gt, extra_shapes=(country_shape(),))
        gen_schema = single_constraint_schema(gen, extra_shapes=(country_shape("Admin", administrative.value),))
        subclass = MatchCriteria(NodeMode.SUBCLASS, CardinalityMode.EXACT)
        assert constraint_matches(gt, gen, subclass, oracle, gt_schema, gen_schema)
        assert not constraint_matches(gt, gen, EXACT, oracle, gt_schema, gen_schema)
        # without the edge there is no match either
        assert not constraint_matches(gt, gen, subclass, StaticSubclassOracle(), gt_schema, gen_schema)

    def test_value_type_fallback(self):
        value_type = Iri(WD + "Q43229")
        oracle = StaticSubclassOracle(value_types={Iri(WDT + "P1027"): [value_type]})
        gt = TripleConstraint(Iri(WDT + "P1027"), ShapeRef("Org"), Cardinality(1, 1))
        gen = TripleConstraint(Iri(WDT + "P1027"), ShapeRef("Org2"), Cardinality(1, 1))
        gt_schema = single_constraint_schema(gt, extra_shapes=(country_shape("Org", WD + "Q11032"),))
        gen_schema = single_constraint_schema(gen, extra_shapes=(country_shape("Org2", value_type.value),))
        subclass = MatchCriteria(NodeMode.SUBCLASS, CardinalityMode.EXACT)
        assert constraint_matches(gt, gen, subclass, oracle, gt_schema, gen_schema)

    def test_datatype_category_match(self):
        gt = TripleConstraint(Iri(WDT + "P1174"), DatatypeConstraint(Iri(XSD_NS + "decimal")), Cardinality(0, None))
        gen = replace(gt, node_constraint=DatatypeConstraint(Iri(XSD_NS + "integer")))
        schema_gt = single_constraint_schema(gt)
        schema_gen = single_constraint_schema(gen)
        datatype = MatchCriteria(NodeMode.DATATYPE, CardinalityMode.EXACT)
        assert constraint_matches(gt, gen, datatype, None, schema_gt, schema_gen)
        assert not constraint_matches(gt, gen, EXACT, None, schema_gt, schema_gen)

    def test_datatype_falls_back_to_exact_when_unmapped(self):
        custom = DatatypeConstraint(Iri("http://example.org/custom"))
        gt = TripleConstraint(Iri(WDT + "P1"), custom, Cardinality(1, 1))
        schema = single_constraint_schema(gt)
        datatype = MatchCriteria(NodeMode.DATATYPE, CardinalityMode.EXACT)
        assert constraint_matches(gt, gt, datatype, None, schema, schema)

    def test_predicate_mismatch_never_matches(self):
        gt = TripleConstraint(Iri(WDT + "P1"), NodeKindIri(), Cardinality(1, 1))
        gen = TripleConstraint(Iri(WDT + "P2"), NodeKindIri(), Cardinality(1, 1))
        schema = single_constraint_schema(gt)
        for criteria in ALL_CRITERIA:
            assert not constraint_matches(gt, gen, criteria, StaticSubclassOracle(), schema, schema)

    def test_subclass_without_oracle_raises(self):
        gt = TripleConstraint(Iri(WDT + "P1"), NodeKindIri(), Cardinality(1, 1))
        schema = single_constraint_schema(gt)
        with pytest.raises(OracleUnavailableError):
            constraint_matches(gt, gt, MatchCriteria(NodeMode.SUBCLASS, CardinalityMode.EXACT), None, schema, schema)


class TestEvaluatePair:
    def test_identity_on_fixtures(self, fixture_schemas):
        oracle = StaticSubclassOracle()
        for _, schema in fixture_schemas:
            for criteria in ALL_CRITERIA:
                report = evaluate_pair(schema, schema, criteria, oracle)
                assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_generated_scores_zero(self, museum_schema):
        start = museum_schema.start_shape
        empty = Schema(
            start.label,
            {start.label: Shape(start.label, (), start.extra_predicates)},
            museum_schema.focus_class,
        )
        report = evaluate_pair(empty, museum_schema)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_missing_constraint_counts(self, museum_schema):
        start = museum_schema.start_shape
        kept = tuple(c for c in start.constraints if c.predicate.local_name() != "P17")
        shapes = dict(museum_schema.shapes)
        shapes[start.label] = Shape(start.label, kept, start.extra_predicates)
        generated = Schema(start.label, shapes, museum_schema.focus_class)
        report = evaluate_pair(generated, museum_schema)
        assert report.precision == 1.0
        assert report.recall == pytest.approx(3 / 4)
        assert report.matched_count == 3

    def test_matched_count_symmetric_under_predicate_keying(self, museum_schema, fixture_schemas):
        for _, other in fixture_schemas:
            left = evaluate_pair(other, museum_schema).matched_count
            right = evaluate_pair(museum_schema, other).matched_count
            assert left == right


class TestCategorizeErrors:
    def test_identity(self, museum_schema):
        breakdown = categorize_errors(museum_schema, museum_schema)
        assert breakdown.correct == 4
        assert breakdown.total == 4
        assert breakdown.missing_predicate == 0

    def test_single_cardinality_mutation(self, museum_schema):
        start = museum_schema.start_shape
        constraints = tuple(
            replace(c, cardinality=Cardinality(0, 1)) if c.predicate.local_name() == "P17" else c
            for c in start.constraints
        )
        shapes = dict(museum_schema.shapes)
        shapes[start.label] = Shape(start.label, constraints, start.extra_predicates)
        generated = Schema(start.label, shapes, museum_schema.focus_class)
        breakdown = categorize_errors(generated, museum_schema)
        assert breakdown.wrong_cardinality == 1
        assert breakdown.correct == 3


class TestMacroAverage:
    def test_single_report(self):
        report = EvalReport(0.5, 0.25, f1_score(0.5, 0.25), 1)
        assert macro_average([report]) == (0.5, 0.25, report.f1)

    def test_perfect_and_zero(self):
        perfect = EvalReport(1.0, 1.0, 1.0, 4)
        zero = EvalReport(0.0, 0.0, 0.0, 0)
        assert macro_average([perfect, zero]) == (0.5, 0.5, 0.5)

    def test_fixture_self_evaluation(self, fixture_schemas):
        reports = [evaluate_pair(s, s) for _, s in fixture_schemas]
        assert macro_average(reports) == (1.0, 1.0, 1.0)

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            macro_average([])


@pytest.fixture(scope="module")
def mutated_pairs(fixture_schemas):
    from support import build_mutation_oracle, mutate_schema

    rng = random.Random(20240601)
    schemas = [schema for _, schema in fixture_schemas]
    oracle = build_mutation_oracle(schemas)
    pairs = []
    for i in range(100):
        gt = schemas[i % len(schemas)]
        pairs.append((mutate_schema(gt, rng), gt))
    return pairs, oracle


class TestMutationProperties:
    """Seeded mutation sweeps mirroring the relaxation-ordering analyses."""

    RELAXATIONS = [
        MatchCriteria(NodeMode.SUBCLASS, CardinalityMode.EXACT),
        MatchCriteria(NodeMode.DATATYPE, CardinalityMode.EXACT),
        MatchCriteria(NodeMode.EXACT, CardinalityMode.LOOSENED),
        MatchCriteria(NodeMode.SUBCLASS, CardinalityMode.LOOSENED),
        MatchCriteria(NodeMode.DATATYPE, CardinalityMode.LOOSENED),
    ]

    def test_relaxations_never_decrease_f1(self, mutated_pairs):
        pairs, oracle = mutated_pairs
        improvements = {criteria.key(): 0 for criteria in self.RELAXATIONS}
        for generated, gt in pairs:
            base = evaluate_pair(generated, gt, EXACT, oracle).f1
            for criteria in self.RELAXATIONS:
                relaxed = evaluate_pair(generated, gt, criteria, oracle).f1
                assert relaxed >= base - 1e-12, criteria.key()
                if relaxed > base + 1e-12:
                    improvements[criteria.key()] += 1
        # the sweep must actually exercise each relaxation, not pass vacuously
        assert all(count > 0 for count in improvements.values()), improvements

    def test_matched_sets_grow_along_each_axis(self, mutated_pairs):
        pairs, oracle = mutated_pairs
        for generated, gt in pairs:
            exact = evaluate_pair(generated, gt, EXACT, oracle).matched_count
            for criteria in self.RELAXATIONS:
                assert evaluate_pair(generated, gt, criteria, oracle).matched_count >= exact

    def test_report_breakdown_equals_categorize_errors(self, mutated_pairs):
        pairs, oracle = mutated_pairs
        dropped = []
        for gt in {id(gt): gt for _, gt in pairs}.values():
            start = gt.start_shape
            for k in range(len(start.constraints) + 1):
                shapes = dict(gt.shapes)
                shapes[start.label] = Shape(start.label, start.constraints[k:], start.extra_predicates)
                dropped.append((Schema(gt.start_label, shapes, gt.focus_class), gt))
        for generated, gt in pairs + dropped:
            expected = categorize_errors(generated, gt)
            for criteria in ALL_CRITERIA:
                assert evaluate_pair(generated, gt, criteria, oracle).error_breakdown == expected

    def test_error_breakdown_partitions_ground_truth(self, mutated_pairs):
        pairs, _ = mutated_pairs
        from shexbench.model import canonicalize

        for generated, gt in pairs:
            breakdown = categorize_errors(generated, gt)
            assert breakdown.total == len(canonicalize(gt).start_shape.constraints)
            assert min(
                breakdown.correct,
                breakdown.missing_predicate,
                breakdown.wrong_cardinality,
                breakdown.wrong_node_constraint,
                breakdown.both_wrong,
            ) >= 0


class TestCriteriaParsing:
    def test_round_trip_keys(self):
        for criteria in ALL_CRITERIA:
            assert MatchCriteria.parse(criteria.key()) == criteria

    def test_six_combinations(self):
        assert len(ALL_CRITERIA) == 6
        assert len({c.key() for c in ALL_CRITERIA}) == 6

    def test_bad_component(self):
        with pytest.raises(ValueError):
            MatchCriteria.parse("shape=exact")


IS_A = Iri("http://example.org/vocab#isA")
#: Typing-predicate tuples to score under; all but the last differ from the default.
TYPINGS = [(Iri(WDT + "P31"),), (RDF_TYPE,), (IS_A,), (Iri(WDT + "P31"), IS_A), DEFAULT_TYPING_PREDICATES]
POOL_CLASSES = [Iri(WD + q) for q in ("Q5", "Q515", "Q6256", "Q43229")]
POOL_PREDICATES = [Iri(WDT + p) for p in ("P17", "P50", "P131", "P571", "P856", "P1174")]
POOL_DATATYPES = [Iri(XSD_NS + t) for t in ("decimal", "integer", "string", "dateTime")] + [
    Iri("http://example.org/vocab#custom")
]
POOL_LITERALS = [Literal("x"), Literal("1", Iri(XSD_NS + "integer")), Literal("a", language="en")]
POOL_CARDS = CARD_SPACE + [Cardinality(2, 2), Cardinality(0, 3)]


@st.composite
def small_schemas(draw):
    """A start shape over a small predicate pool plus up to three referenced
    shapes, each typed by one of three typing predicates (so labels collide
    and some references name no class under a given typing tuple)."""
    shapes = {}
    for index in range(draw(st.integers(0, 3))):
        typing = draw(st.sampled_from([Iri(WDT + "P31"), RDF_TYPE, IS_A]))
        classes = draw(st.lists(st.sampled_from(POOL_CLASSES + [superclass_of(c) for c in POOL_CLASSES]),
                                min_size=1, max_size=2, unique=True))
        shapes[f"R{index}"] = Shape(f"R{index}", (TripleConstraint(typing, ValueSet(tuple(classes))),))
    nodes = [
        st.just(NodeKindIri()),
        st.sampled_from(POOL_DATATYPES).map(DatatypeConstraint),
        st.lists(st.sampled_from(POOL_CLASSES + POOL_LITERALS), min_size=1, max_size=3, unique=True)
        .map(lambda values: ValueSet(tuple(values))),
    ]
    if shapes:
        nodes.append(st.sampled_from(sorted(shapes)).map(ShapeRef))
    node = st.one_of(nodes)
    predicates = draw(st.lists(st.sampled_from(POOL_PREDICATES), max_size=5, unique=True))
    constraints = [TripleConstraint(p, draw(node), draw(st.sampled_from(POOL_CARDS))) for p in predicates]
    if draw(st.booleans()):
        typing = draw(st.sampled_from([Iri(WDT + "P31"), RDF_TYPE, IS_A]))
        constraints.append(TripleConstraint(typing, ValueSet((Iri(WD + "Q33506"),))))
    shapes["S"] = Shape("S", tuple(constraints))
    return Schema("S", shapes, focus_class=draw(st.sampled_from([None, Iri(WD + "Q33506")])))


POOL_ORACLE = StaticSubclassOracle(
    {c: [superclass_of(c)] for c in POOL_CLASSES},
    {Iri(WDT + "P17"): [Iri(WD + "Q6256")], Iri(WDT + "P131"): [superclass_of(Iri(WD + "Q515"))]},
)


def assert_one_pass_matches_reference(generated, gt, oracle, typing):
    reports = evaluate_criteria(generated, gt, ALL_CRITERIA, oracle, typing_predicates=typing)
    assert list(reports) == list(ALL_CRITERIA)
    for criteria in ALL_CRITERIA:
        expected = reference_evaluate_pair(generated, gt, criteria, oracle, typing_predicates=typing)
        assert reports[criteria] == expected, criteria.key()
        assert evaluate_pair(generated, gt, criteria, oracle, typing_predicates=typing) == expected
    assert categorize_errors(generated, gt, typing_predicates=typing) == expected.error_breakdown


class TestOnePassScoring:
    """``evaluate_criteria`` scores every criterion on one canonicalization
    and one pairing; each report must equal scoring that criterion alone."""

    @settings(max_examples=300, deadline=None)
    @given(small_schemas(), small_schemas(), st.sampled_from(TYPINGS))
    def test_equals_per_criterion_scoring(self, generated, gt, typing):
        assert_one_pass_matches_reference(generated, gt, POOL_ORACLE, typing)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 2**32 - 1), st.sampled_from(TYPINGS))
    def test_equals_per_criterion_scoring_on_mutated_fixtures(self, fixture_schemas, index, seed, typing):
        from support import build_mutation_oracle, mutate_schema

        schemas = [schema for _, schema in fixture_schemas]
        gt = schemas[index]
        generated = mutate_schema(gt, random.Random(seed))
        assert_one_pass_matches_reference(generated, gt, build_mutation_oracle(schemas), typing)

    def test_reports_follow_the_criteria_given(self, museum_schema):
        subset = (ALL_CRITERIA[3], ALL_CRITERIA[0])
        assert list(evaluate_criteria(museum_schema, museum_schema, subset, StaticSubclassOracle())) == list(subset)
        assert evaluate_criteria(museum_schema, museum_schema, ()) == {}


class TestGedFromAnyCanonicalForm:
    """``evaluate`` canonicalizes each schema once, under the entry's typing
    predicates, and measures GED on those forms: the trees show no shape
    label, so the canonical forms under any typing tuple give ``ged_and_nged``."""

    @settings(deadline=None)
    @given(small_schemas(), small_schemas(), st.sampled_from(TYPINGS))
    def test_ged_from_any_typing_canonical_form(self, generated, gt, typing):
        from shexbench.model import canonicalize
        from shexbench.treedist import canonical_ged_and_nged, ged_and_nged

        assume(gt.start_shape.constraints)
        forms = canonicalize(generated, typing), canonicalize(gt, typing)
        assert canonical_ged_and_nged(*forms) == ged_and_nged(generated, gt)
