from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexbench import model
from shexbench.model import (
    DEFAULT_DATATYPE_CATEGORIES,
    RDF_NS,
    WIKIDATA_TYPING_PREDICATE,
    XSD_NS,
    Cardinality,
    DanglingShapeRefError,
    DatatypeCategory,
    DatatypeConstraint,
    Iri,
    Literal,
    NodeKindIri,
    Schema,
    Shape,
    ShapeRef,
    TripleConstraint,
    UnmappedDatatypeError,
    ValueSet,
    WELL_KNOWN_PREFIXES,
    canonical_shape_label,
    canonicalize,
    classes_of,
    compact_well_known,
    datatype_category,
    expand_iri,
    well_known_split,
)
from support import reference_candidate_namespaces

WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"


def tc(pred, nc, card=Cardinality(1, 1)):
    return TripleConstraint(Iri(pred), nc, card)


def museum_like(shuffle=False):
    constraints = [
        tc(WDT + "P31", ValueSet((Iri(WD + "Q33506"),))),
        tc(WDT + "P17", ShapeRef("Country")),
        tc(WDT + "P856", NodeKindIri(), Cardinality(0, None)),
    ]
    if shuffle:
        constraints = constraints[::-1]
    shapes = {
        "M": Shape("M", tuple(constraints), (Iri(WDT + "P31"),)),
        "Country": Shape("Country", (tc(WDT + "P31", ValueSet((Iri(WD + "Q6256"),))),)),
    }
    return Schema("M", shapes)


class TestIri:
    def test_rejects_empty_and_whitespace(self):
        with pytest.raises(ValueError):
            Iri("")
        with pytest.raises(ValueError):
            Iri("http://example.org/a b")

    def test_local_name(self):
        assert Iri(WD + "Q42").local_name() == "Q42"
        assert Iri(XSD_NS + "decimal").local_name() == "decimal"

    def test_compaction_round_trip(self):
        for iri in (Iri(WD + "Q42"), Iri(WDT + "P31"), Iri("http://example.org/x")):
            compact = compact_well_known(iri)
            if compact.startswith("<"):
                assert compact == f"<{iri.value}>"
            else:
                assert expand_iri(compact) == iri


#: IRI strings near the well-known namespaces: a namespace (or a cut or
#: extended one) followed by a local part that may or may not be clean.
NEAR_WELL_KNOWN_IRIS = st.builds(
    lambda namespace, cut, local: namespace[:len(namespace) - cut] + local,
    st.sampled_from([*WELL_KNOWN_PREFIXES.values(), "http://example.org/", "http://www.wikidata.org/"]),
    st.integers(0, 3),
    st.text("aZ09_.-#/:%éprop/directentity", max_size=12),
).filter(lambda value: value and not any(c.isspace() for c in value))


class TestWellKnownOracle:
    """The memoized well-known lookup against the uncached scans it replaced:
    the longest-namespace scan of ``canonicalize``."""

    @settings(deadline=None)
    @given(st.one_of(NEAR_WELL_KNOWN_IRIS, st.text(min_size=1).filter(lambda v: not any(c.isspace() for c in v))))
    def test_agrees_with_uncached_scans(self, value):
        iri = Iri(value)
        split = well_known_split(value)
        assert split == well_known_split.__wrapped__(value)
        assert ([WELL_KNOWN_PREFIXES[split[0]]] if split else []) == reference_candidate_namespaces(iri)
        if split is None:
            assert compact_well_known(iri) == f"<{value}>"
        else:
            assert expand_iri(compact_well_known(iri)) == iri

    def test_cache_is_bounded(self):
        assert well_known_split.cache_info().maxsize == model._WELL_KNOWN_CACHE_SIZE


class TestCardinality:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Cardinality(-1, 1)
        with pytest.raises(ValueError):
            Cardinality(2, 1)
        assert Cardinality(2, None).unbounded

    @pytest.mark.parametrize(
        "card,token",
        [
            (Cardinality(1, 1), ""),
            (Cardinality(0, 1), "?"),
            (Cardinality(0, None), "*"),
            (Cardinality(1, None), "+"),
            (Cardinality(2, None), "{2,}"),
            (Cardinality(3, 3), "{3}"),
            (Cardinality(2, 5), "{2,5}"),
        ],
    )
    def test_tokens(self, card, token):
        assert card.token() == token


class TestValueSet:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            ValueSet(())
        with pytest.raises(ValueError):
            ValueSet((Iri(WD + "Q1"), Iri(WD + "Q1")))

    def test_literal_datatype_language_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", Iri(XSD_NS + "string"), "en")


class TestShapeAndSchema:
    def test_duplicate_predicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate predicate"):
            Shape("S", (tc(WDT + "P31", NodeKindIri()), tc(WDT + "P31", NodeKindIri())))

    def test_dangling_ref_rejected(self):
        with pytest.raises(DanglingShapeRefError):
            Schema("S", {"S": Shape("S", (tc(WDT + "P17", ShapeRef("Nowhere")),))})

    def test_start_label_must_exist(self):
        with pytest.raises(ValueError):
            Schema("Missing", {"S": Shape("S", (tc(WDT + "P31", NodeKindIri()),))})


class TestDatatypeCategory:
    def test_paper_examples(self):
        assert datatype_category(DatatypeConstraint(Iri(XSD_NS + "decimal"))) is DatatypeCategory.DECIMAL
        assert datatype_category(ShapeRef("Country")) is DatatypeCategory.IRI_CAT
        assert datatype_category(DatatypeConstraint(Iri(RDF_NS + "langString"))) is DatatypeCategory.STRING

    def test_four_categories_in_default_mapping(self):
        assert set(DEFAULT_DATATYPE_CATEGORIES.values()) <= set(DatatypeCategory)
        assert len(set(DatatypeCategory)) == 4

    def test_value_set_categories(self):
        assert datatype_category(ValueSet((Iri(WD + "Q1"), Iri(WD + "Q2")))) is DatatypeCategory.IRI_CAT
        assert datatype_category(ValueSet((Literal("a"), Literal("b", language="en")))) is DatatypeCategory.STRING
        with pytest.raises(UnmappedDatatypeError):
            datatype_category(ValueSet((Iri(WD + "Q1"), Literal("a"))))

    def test_unmapped_datatype(self):
        with pytest.raises(UnmappedDatatypeError):
            datatype_category(DatatypeConstraint(Iri("http://example.org/dt")))

    def test_never_outside_category_set(self):
        constraints = [
            NodeKindIri(),
            ShapeRef("X"),
            DatatypeConstraint(Iri(XSD_NS + "gYear")),
            ValueSet((Literal("1", Iri(XSD_NS + "integer")),)),
        ]
        for nc in constraints:
            assert datatype_category(nc) in set(DatatypeCategory)


class TestClassesOf:
    def test_value_set_returns_iris(self):
        schema = museum_like()
        nc = ValueSet((Iri(WD + "Q33506"), Literal("x")))
        assert classes_of(nc, schema) == frozenset({Iri(WD + "Q33506")})

    def test_shape_ref_resolves_typing_value_set(self):
        schema = museum_like()
        assert classes_of(ShapeRef("Country"), schema) == frozenset({Iri(WD + "Q6256")})

    def test_node_kind_is_empty(self):
        assert classes_of(NodeKindIri(), museum_like()) == frozenset()

    def test_dangling_ref_raises(self):
        with pytest.raises(DanglingShapeRefError):
            classes_of(ShapeRef("Nowhere"), museum_like())


class TestCanonicalize:
    def test_order_independent(self):
        assert canonicalize(museum_like()) == canonicalize(museum_like(shuffle=True))

    def test_labels_are_function_of_class_set(self):
        canon = canonicalize(museum_like())
        assert canon.start_label == "Q33506"
        assert "Q6256" in canon.shapes
        ref = [c for c in canon.start_shape.constraints if isinstance(c.node_constraint, ShapeRef)]
        assert ref[0].node_constraint.label == "Q6256"

    def test_idempotent(self):
        canon = canonicalize(museum_like())
        assert canonicalize(canon) == canon

    def test_focus_class_inferred(self):
        assert canonicalize(museum_like()).focus_class == Iri(WD + "Q33506")

    def test_classes_of_stable_under_canonicalize(self):
        schema = museum_like()
        canon = canonicalize(schema)
        before = classes_of(ShapeRef("Country"), schema)
        after = classes_of(ShapeRef("Q6256"), canon)
        assert before == after

    def test_label_collisions_disambiguated(self):
        shape_a = Shape("A", (tc(WDT + "P31", ValueSet((Iri(WD + "Q5"),))),))
        shape_b = Shape("B", (tc(RDF_NS + "type", ValueSet((Iri(WD + "Q5"),))),))
        schema = Schema("A", {"A": shape_a, "B": shape_b})
        canon = canonicalize(schema)
        assert set(canon.shapes) == {"Q5", "Q5_2"}
        assert canonicalize(canon) == canon

    @pytest.mark.parametrize("reverse", [False, True])
    def test_typing_set_whose_predicate_sorts_first_names_the_shape(self, reverse):
        """rdf:type sorts before wdt:P31, so its class names the start shape
        and is the focus, in whichever order the constraints come."""
        constraints = (tc(WDT + "P31", ValueSet((Iri(WD + "Q6"),))), tc(RDF_NS + "type", ValueSet((Iri(WD + "Q5"),))),
                       tc("http://example.org/p", NodeKindIri()))
        schema = Schema("S", {"S": Shape("S", constraints[::-1] if reverse else constraints)})
        canon = canonicalize(schema)
        assert (canon.start_label, canon.focus_class) == ("Q5", Iri(WD + "Q5"))
        assert canonicalize(canon) == canon

    @settings(deadline=None)
    @given(st.data())
    def test_idempotent_and_order_independent_with_two_typing_constraints(self, data):
        typings = [Iri(WDT + "P31"), Iri(RDF_NS + "type")]
        pool = [Iri(WD + q) for q in ("Q5", "Q6", "Q515", "Q6256")]
        predicates = [Iri(WDT + p) for p in ("P17", "P50", "P131")]

        def typed(label, extra):
            constraints = [TripleConstraint(p, ValueSet(tuple(data.draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))))) for p in typings]
            return Shape(label, tuple(data.draw(st.permutations(constraints + extra))))

        refs = {f"R{i}": typed(f"R{i}", []) for i in range(data.draw(st.integers(0, 2)))}
        nodes = [NodeKindIri(), *map(ShapeRef, refs)]
        extra = [TripleConstraint(p, data.draw(st.sampled_from(nodes))) for p in predicates]
        schema = Schema("S", {"S": typed("S", extra), **refs})
        reordered = replace(schema, shapes={label: replace(shape, constraints=shape.constraints[::-1])
                                            for label, shape in schema.shapes.items()})
        typing = data.draw(st.sampled_from([tuple(typings), typings[:1], typings[1:]]))
        canon = canonicalize(schema, typing)
        assert canonicalize(canon, typing) == canon
        assert canonicalize(reordered, typing) == canon
        # the focus and the start label come from the same typing value set
        classes = classes_of(ShapeRef(canon.start_label), canon, typing)
        assert canon.focus_class == min(classes)
        assert re.fullmatch(re.escape(canonical_shape_label(classes)) + r"(_\d+)?", canon.start_label)

    def test_canonical_shape_label(self):
        assert canonical_shape_label([Iri(WD + "Q6256")]) == "Q6256"
        assert canonical_shape_label([Iri(WD + "Q2"), Iri(WD + "Q1")]) == "Q1_Q2"
        assert canonical_shape_label([]) == "Shape"


def test_fixture_schemas_canonicalize_idempotently(fixture_schemas):
    for _, schema in fixture_schemas:
        canon = canonicalize(schema)
        assert canonicalize(canon) == canon


def test_canonicalize_keeps_start_constraint_count(fixture_schemas):
    """Evaluation counts constraints on the parsed schema, without canonicalizing."""
    import random

    from support import mutate_schema

    rng = random.Random(31)
    schemas = [museum_like(), museum_like(shuffle=True)] + [schema for _, schema in fixture_schemas]
    schemas += [mutate_schema(schema, rng) for schema in schemas for _ in range(5)]
    for schema in schemas:
        for typing in ((Iri(WDT + "P31"),), (Iri(RDF_NS + "type"),), ()):
            canon = canonicalize(schema, typing)
            assert len(canon.start_shape.constraints) == len(schema.start_shape.constraints)
