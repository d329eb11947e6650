from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexbench.model import (
    Cardinality,
    Iri,
    Literal,
    NodeKindIri,
    Schema,
    Shape,
    ShapeRef,
    TripleConstraint,
    ValueSet,
    DatatypeConstraint,
    WELL_KNOWN_PREFIXES,
    XSD_NS,
    canonicalize,
)
from shexbench.shexc import (
    DiagnosticKind,
    ParseDiagnostic,
    ShexcParseError,
    parse_shexc,
    serialize_shexc,
    _tokenize,
    to_canonical_json,
)
from support import (
    parse_outcome,
    reference_parse_outcome,
    reference_serialize_shexc,
    reference_tokenize,
    try_parse_shexc,
)

WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"

#: Random ShExC texts: an opening, then fragments that include the duplicate,
#: non-integer and empty values the parser must diagnose.
SHEXC_TEXTS = st.builds(
    lambda head, body: " ".join([head, *body]),
    st.sampled_from(["", "<S> {", "<S> { <p>", "PREFIX ex: <http://example.org/> <S> { ex:p", "PREFIX e: <> <S> {"]),
    st.lists(st.sampled_from([
        "start = @<S>", "<S>", "<>", "<p>", "ex:p", "e:", "a", "EXTRA", "CLOSED", "{", "}", "[", "]", ";",
        "IRI", "@", "@<S>", "@<>", "@en", '"x"', '"x"@en', "^^", "true", "false", "1", "1.5", "-1",
        "?", "*", "{1}", "{1,}", "{0,2}", "{1.5}", "{1,2.5}", "~", ".", "\n", "%",
    ]), max_size=20),
)

#: Characters the tokenizer treats differently: blanks and line breaks
#: (including ones it does not skip), brackets, quotes, escapes, comment and
#: directive marks, PNAME and number parts, and non-ASCII letters and spaces.
SHEXC_ALPHABET = "\n \t\r\f\v<>{}[]()\"'\\#@^:;.,=?*+-_~%|/!$&`09aAeEnxzZ\xa0\u2028é§λ"
#: Random texts over that alphabet, mixed with whole fragments of the subset.
SHEXC_NOISE = st.one_of(
    st.text(SHEXC_ALPHABET, max_size=80),
    st.lists(st.one_of(st.sampled_from([
        "PREFIX ", "wdt:", "<http://example.org/p>", "IRI", "start = @<S>", '"x\\"y"', "^^xsd:string", "@en-GB",
        "1.5", "-3", "# note\n", "EXTRA ", "a ",
    ]), st.text(SHEXC_ALPHABET, max_size=4)), max_size=25).map("".join),
)


def _line_col(text, offset):
    """1-based line and column of ``offset``, counted from the text itself."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class TestTokenizerOracle:
    """The one-pass tokenizer against the per-token loop it replaced, and the
    whole reader against a verbatim copy of the reader before offset tokens.

    Tokens carry offsets and end in two EOF tokens; each is compared through
    the line and column its offset names."""

    @staticmethod
    def _same_as_reference(text):
        tokens, errors = _tokenize(text)
        expected_tokens, expected_diagnostics = reference_tokenize(text)
        assert tokens[-2] == tokens[-1] == ("EOF", "", len(text))
        assert [(kind, value, *_line_col(text, offset)) for kind, value, offset in tokens[:-1]] == [
            (t.kind, t.value, t.line, t.col) for t in expected_tokens]
        assert [ParseDiagnostic(*_line_col(text, offset), message, kind) for offset, message, kind in errors] == (
            expected_diagnostics)
        assert parse_outcome(text) == reference_parse_outcome(text)

    @settings(deadline=None)
    @given(st.one_of(SHEXC_NOISE, SHEXC_TEXTS))
    def test_random_text(self, text):
        self._same_as_reference(text)

    @settings(deadline=None)
    @given(st.data())
    def test_edited_fixtures(self, fixture_texts, data):
        text = data.draw(st.sampled_from(fixture_texts))
        start = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(start, min(len(text), start + 40)))
        self._same_as_reference(text[:start] + data.draw(SHEXC_NOISE) + text[end:])

    def test_fixtures(self, fixture_texts):
        for text in fixture_texts:
            self._same_as_reference(text)

    def test_unexpected_character_after_blanks(self):
        text = "<S> \t\v {\n \x85"
        tokens, errors = _tokenize(text)
        assert [(*_line_col(text, offset), message) for offset, message, _ in errors] == [
            (1, 6, "unexpected character '\\x0b'"), (2, 2, "unexpected character '\\x85'")]
        kind, value, offset = tokens[-1]
        assert (kind, value, *_line_col(text, offset)) == ("EOF", "", 2, 3)

    @pytest.mark.parametrize("text", ["<S> { <p> IRI } # trailing note", "# only a note", "<S> #note\n{", "   \n\t"])
    def test_comment_or_blanks_at_the_end_give_no_token(self, text):
        self._same_as_reference(text)


class TestParseMuseum:
    def test_structure(self, museum_schema):
        schema = museum_schema
        assert schema.start_label == "Museum"
        start = schema.start_shape
        assert len(start.constraints) == 4
        by_pred = {c.predicate.value: c for c in start.constraints}
        typing = by_pred[WDT + "P31"]
        assert typing.node_constraint == ValueSet((Iri(WD + "Q33506"),))
        assert typing.cardinality == Cardinality(1, 1)
        country = by_pred[WDT + "P17"]
        assert country.node_constraint == ShapeRef("Country")
        assert country.cardinality == Cardinality(1, 1)
        website = by_pred[WDT + "P856"]
        assert website.node_constraint == NodeKindIri()
        assert website.cardinality == Cardinality(0, None)
        visitors = by_pred[WDT + "P1174"]
        assert visitors.node_constraint == DatatypeConstraint(Iri(XSD_NS + "decimal"))
        assert "Country" in schema.shapes

    def test_focus_class_inferred(self, museum_schema):
        assert museum_schema.focus_class == Iri(WD + "Q33506")

    def test_extra_predicates(self, museum_schema):
        assert museum_schema.start_shape.extra_predicates == (Iri(WDT + "P31"),)


class TestParseDetails:
    def test_star_cardinality(self):
        schema = parse_shexc(
            "PREFIX wdt: <http://www.wikidata.org/prop/direct/>\n<S> { wdt:P856 IRI * }"
        )
        assert schema.start_shape.constraints[0].cardinality == Cardinality(0, None)

    def test_default_cardinality_is_exactly_one(self):
        schema = parse_shexc(
            "PREFIX wd: <http://www.wikidata.org/entity/>\n"
            "PREFIX wdt: <http://www.wikidata.org/prop/direct/>\n"
            "<S> { wdt:P31 [ wd:Q33506 ] }"
        )
        assert schema.start_shape.constraints[0].cardinality == Cardinality(1, 1)

    @pytest.mark.parametrize(
        "token,expected",
        [
            ("?", Cardinality(0, 1)),
            ("+", Cardinality(1, None)),
            ("{2}", Cardinality(2, 2)),
            ("{2,5}", Cardinality(2, 5)),
            ("{2,}", Cardinality(2, None)),
        ],
    )
    def test_cardinality_tokens(self, token, expected):
        schema = parse_shexc(f"<S> {{ <http://example.org/p> IRI {token} }}")
        assert schema.start_shape.constraints[0].cardinality == expected

    def test_start_directive_wins(self):
        text = (
            "start = @<B>\n"
            "<A> { <http://example.org/p> IRI }\n"
            "<B> { <http://example.org/q> IRI }\n"
        )
        assert parse_shexc(text).start_label == "B"

    def test_first_shape_is_start_without_directive(self):
        text = "<A> { <http://example.org/p> IRI }\n<B> { <http://example.org/q> IRI }\n"
        assert parse_shexc(text).start_label == "A"

    def test_a_keyword_is_rdf_type(self):
        schema = parse_shexc("PREFIX schema: <http://schema.org/>\n<S> { a [ schema:Book ] }")
        assert schema.start_shape.constraints[0].predicate.value.endswith("#type")

    def test_literal_values(self):
        schema = parse_shexc(
            'PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n'
            '<S> { <http://example.org/p> [ "plain" "tagged"@en "typed"^^xsd:string 5 1.5 ] }'
        )
        values = schema.start_shape.constraints[0].node_constraint.values
        assert values[0] == Literal("plain")
        assert values[1] == Literal("tagged", language="en")
        assert values[2] == Literal("typed", Iri(XSD_NS + "string"))
        assert values[3] == Literal("5", Iri(XSD_NS + "integer"))
        assert values[4] == Literal("1.5", Iri(XSD_NS + "decimal"))

    def test_comments_discarded(self):
        with_comments = "<S> {\n  # leading note\n  <http://example.org/p> IRI\n}"
        without = "<S> { <http://example.org/p> IRI }"
        assert parse_shexc(with_comments) == parse_shexc(without)


class TestDiagnostics:
    def test_duplicate_predicate(self):
        text = "<S> {\n  <http://example.org/p> IRI ;\n  <http://example.org/p> IRI\n}"
        with pytest.raises(ShexcParseError) as exc:
            parse_shexc(text)
        kinds = {d.kind for d in exc.value.diagnostics}
        assert DiagnosticKind.DUPLICATE_PREDICATE in kinds
        dup = [d for d in exc.value.diagnostics if d.kind is DiagnosticKind.DUPLICATE_PREDICATE][0]
        assert (dup.line, dup.column) == (3, 3)

    def test_dangling_ref(self):
        with pytest.raises(ShexcParseError) as exc:
            parse_shexc("<S> { <http://example.org/p> @<Ghost> }")
        assert any(d.kind is DiagnosticKind.DANGLING_REF for d in exc.value.diagnostics)

    def test_unsupported_features(self):
        for text in (
            "IMPORT <http://example.org/other>\n<S> { <http://example.org/p> IRI }",
            "<S> CLOSED { <http://example.org/p> IRI }",
            "<S> { <http://example.org/p> LITERAL }",
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
            "<S> { <http://example.org/p> xsd:string MINLENGTH 3 }",
        ):
            schema, diagnostics = try_parse_shexc(text)
            assert schema is None
            assert any(d.kind is DiagnosticKind.UNSUPPORTED_FEATURE for d in diagnostics), text

    @pytest.mark.parametrize("text, expected", [
        ("PREFIX ex <http://example.org/>\n<S> { <http://example.org/p> IRI }",
         ["line 1 col 8: expected 'prefix:' after PREFIX"]),
        ("IMPORT <http://example.org/x>\n<S> { <http://example.org/p> IRI }",
         ["line 1 col 1: 'IMPORT' is outside the supported ShEx subset"]),
        ("BASE <http://example.org/>\nABSTRACT <S> { <http://example.org/p> IRI }",
         ["line 1 col 1: 'BASE' is outside the supported ShEx subset",
          "line 2 col 1: 'ABSTRACT' is outside the supported ShEx subset"]),
        ("PREFIX ex <http://example.org/>\n<S> { <http://example.org/p> IRI ; <http://example.org/p> IRI }",
         ["line 1 col 8: expected 'prefix:' after PREFIX",
          "line 2 col 36: duplicate predicate http://example.org/p in shape <S>"]),
        ("<S>\n <http://example.org/p> IRI ;\n <http://example.org/q> IRI\n}",
         ["line 2 col 2: expected '{' to open the shape body", "line 4 col 2: no shape declarations found"]),
        ("<S>\n <http://example.org/p> IRI\n}\n<T> { <http://example.org/p> IRI }",
         ["line 2 col 2: expected '{' to open the shape body"]),
    ], ids=["prefix-without-colon", "import", "base-then-abstract", "prefix-then-shape-error",
            "shape-without-brace", "shape-without-brace-then-shape"])
    def test_recovery_resumes_at_the_next_declaration(self, text, expected):
        _, diagnostics = try_parse_shexc(text)
        assert [str(d) for d in diagnostics] == expected

    def test_junk_token_position(self):
        good = "<S> {\n  <http://example.org/p> IRI\n}"
        bad = "<S> {\n  <http://example.org/p> %% IRI\n}"
        junk_col = bad.splitlines()[1].index("%") + 1
        schema, diagnostics = try_parse_shexc(bad)
        assert schema is None
        assert any(d.line == 2 and d.column == junk_col for d in diagnostics)
        assert parse_shexc(good) is not None

    def test_unexpected_character_positions(self):
        base = "<S> {\n  <http://example.org/p> IRI\n}"
        for line_idx, col_idx in [(0, 0), (1, 2), (1, 26), (2, 0)]:
            lines = base.splitlines()
            lines[line_idx] = lines[line_idx][:col_idx] + "§" + lines[line_idx][col_idx:]
            schema, diagnostics = try_parse_shexc("\n".join(lines))
            hits = [(d.line, d.column) for d in diagnostics]
            assert (line_idx + 1, col_idx + 1) in hits, hits

    def test_empty_shape_rejected(self):
        schema, diagnostics = try_parse_shexc("<S> { }")
        assert schema is None
        assert any("no constraints" in d.message for d in diagnostics)

    def test_undeclared_prefix(self):
        schema, diagnostics = try_parse_shexc("<S> { wdt:P31 IRI }")
        assert schema is None
        assert any("undeclared prefix" in d.message for d in diagnostics)

    @pytest.mark.parametrize(
        "text",
        ["", "just some prose", "<S> {", "PREFIX broken", "<S> { <p> [ }", "@@@", "<S> <T>",
         "<S> { <p> [ true true ] }", "<S> { <p> IRI {1.5} }", "<S> { <p> IRI {1,2.5} }", "<S> { <p> @<> }",
         "PREFIX ex: <>\n<S> { ex: IRI }"],
    )
    def test_parser_is_total(self, text):
        schema, diagnostics = try_parse_shexc(text)
        assert schema is None
        assert diagnostics

    @pytest.mark.parametrize("text, column, message", [
        ("<S> { <p> [ true true ] }", 18, "duplicate value true in value set"),
        ("<S> { <p> [ 1 1 ] }", 15, "duplicate value 1 in value set"),
        ('<S> { <p> [ "a" "a" ] }', 17, "duplicate literal in value set"),
        ("<S> { <p> [ <a> <a> ] }", 17, "duplicate value <a> in value set"),
        ("<S> { <p> IRI {1.5} }", 16, "cardinality bound 1.5 is not an integer"),
        ("<S> { <p> IRI {1,2.5} }", 18, "cardinality bound 2.5 is not an integer"),
        ("<S> { <p> @<> }", 12, "empty shape label"),
    ])
    def test_bad_value_is_a_diagnostic_at_its_token(self, text, column, message):
        _, diagnostics = try_parse_shexc(text)
        assert (diagnostics[0].line, diagnostics[0].column, diagnostics[0].message) == (1, column, message)

    @pytest.mark.parametrize("text, first", [
        ("<S> { <p> IRI }\n<S> { <q> IRI }", (2, 1, DiagnosticKind.SYNTAX, "shape <S> is declared twice")),
        ("start = @<T>\n<S> { <p> IRI }", (1, 1, DiagnosticKind.DANGLING_REF, "start shape <T> is not declared")),
        ("start @<S>\n<S> { <p> IRI }", (1, 7, DiagnosticKind.SYNTAX, "expected '=' after start")),
        ("start = <S>\n<S> { <p> IRI }", (1, 9, DiagnosticKind.SYNTAX, "expected @<Label> after start =")),
        ('<S> { <p> [ "x"^^42 ] }', (1, 18, DiagnosticKind.SYNTAX, "expected an IRI, found '42'")),
        ("<S> { <p> [ ] }", (1, 11, DiagnosticKind.SYNTAX, "value set must be non-empty")),
        ("<S> { <p> IRI {1,2 ; <q> IRI }", (1, 20, DiagnosticKind.SYNTAX, "expected '}' to close cardinality")),
        ("<S> { <p> IRI {3,1} }", (1, 16, DiagnosticKind.SYNTAX, "invalid cardinality range {3,1}")),
    ], ids=["shape-twice", "start-undeclared", "start-without-equals", "start-without-label",
            "datatype-not-an-iri", "empty-value-set", "cardinality-unclosed", "cardinality-range"])
    def test_repair_prompt_diagnostics_are_pinned(self, text, first):
        """The first diagnostic of each becomes the first line of a repair
        prompt; the whole message agrees with the reference reader."""
        _, diagnostics = try_parse_shexc(text)
        assert (diagnostics[0].line, diagnostics[0].column, diagnostics[0].kind, diagnostics[0].message) == first
        assert parse_outcome(text) == reference_parse_outcome(text)

    @settings(max_examples=500, deadline=None)
    @given(SHEXC_TEXTS)
    def test_any_token_sequence_parses_or_is_diagnosed(self, text):
        try:
            schema = parse_shexc(text)
        except ShexcParseError as exc:
            assert exc.diagnostics
            assert all(d.line >= 1 and d.column >= 1 for d in exc.diagnostics)
        else:
            assert schema.start_shape.constraints


class TestSerialize:
    def test_round_trip_equals_canonical(self, fixture_schemas):
        for _, schema in fixture_schemas:
            reparsed = parse_shexc(serialize_shexc(schema))
            assert reparsed == canonicalize(schema)

    def test_round_trip_idempotent(self, fixture_paths):
        for path in fixture_paths:
            first = parse_shexc(path.read_text())
            second = parse_shexc(serialize_shexc(first))
            assert parse_shexc(serialize_shexc(second)) == second

    def test_unbounded_lower_range_token(self):
        schema = parse_shexc("<S> { <http://example.org/p> IRI {2,} }")
        assert "{2,}" in serialize_shexc(schema)

    def test_empty_shape_not_serializable(self):
        schema = Schema("S", {"S": Shape("S", ())})
        with pytest.raises(ValueError, match="no constraints"):
            serialize_shexc(schema)

    def test_round_trip_speed(self, fixture_paths):
        texts = [p.read_text() for p in fixture_paths]
        start = time.perf_counter()
        for text in texts:
            parse_shexc(serialize_shexc(parse_shexc(text)))
        elapsed = time.perf_counter() - start
        assert elapsed / len(texts) < 0.05


#: IRI strings near the well-known namespaces: a namespace (or a cut one)
#: followed by a local part that may or may not be clean.
NEAR_WELL_KNOWN_IRIS = st.builds(
    lambda namespace, cut, local: Iri(namespace[:len(namespace) - cut] + local),
    st.sampled_from([*WELL_KNOWN_PREFIXES.values(), "http://example.org/"]),
    st.integers(0, 3),
    st.text("aZ09_.-#/:%éprop/directentity", max_size=10),
)


@st.composite
def near_well_known_schemas(draw):
    """Schemas whose predicates, EXTRA predicates, datatypes, value-set IRIs
    and focus class all lie near the well-known namespaces."""
    values = st.one_of(
        NEAR_WELL_KNOWN_IRIS,
        st.builds(Literal, st.text(max_size=3), NEAR_WELL_KNOWN_IRIS),
        st.builds(Literal, st.text(max_size=3)),
    )
    nodes = st.one_of(
        st.just(NodeKindIri()),
        st.just(ShapeRef("S")),
        st.builds(DatatypeConstraint, NEAR_WELL_KNOWN_IRIS),
        st.lists(values, min_size=1, max_size=3, unique=True).map(lambda vs: ValueSet(tuple(vs))),
    )
    cardinalities = st.sampled_from([Cardinality(1, 1), Cardinality(0, None), Cardinality(2, 5)])
    predicates = draw(st.lists(NEAR_WELL_KNOWN_IRIS, min_size=1, max_size=4, unique=True))
    constraints = tuple(TripleConstraint(p, draw(nodes), draw(cardinalities)) for p in predicates)
    extra = tuple(draw(st.lists(NEAR_WELL_KNOWN_IRIS, max_size=2, unique=True)))
    return Schema("S", {"S": Shape("S", constraints, extra)},
                  focus_class=draw(st.one_of(st.none(), NEAR_WELL_KNOWN_IRIS)))


class TestWriterOracle:
    """The writer compacts each IRI by the well-known rule alone; the writer
    it replaced compacted over the canonical form's own prefix map."""

    @settings(deadline=None)
    @given(near_well_known_schemas())
    def test_matches_prefix_map_writer(self, schema):
        assert serialize_shexc(schema) == reference_serialize_shexc(schema)


#: Language tags the reader accepts after a string.
LANG_TAGS = st.from_regex(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}", fullmatch=True)
#: Literals with any lexical form: plain, language-tagged and datatyped.
LITERALS = st.one_of(
    st.builds(Literal, st.text()),
    st.builds(lambda lexical, language: Literal(lexical, language=language), st.text(), LANG_TAGS),
    st.builds(Literal, st.text(), st.sampled_from(
        [Iri(XSD_NS + "string"), Iri(XSD_NS + "integer"), Iri("http://example.org/vocab#custom")])),
)


class TestLiteralRoundTrip:
    """Every lexical form survives serialize, a file write and a read as
    ``evaluate`` reads generated files (UTF-8, universal newlines)."""

    @staticmethod
    def _through_a_file(schema, directory):
        from shexbench.kginfo import atomic_write_text

        path = directory / "schema.shex"
        atomic_write_text(path, serialize_shexc(schema))
        return parse_shexc(path.read_text(encoding="utf-8"))

    @staticmethod
    def _schema(values):
        constraint = TripleConstraint(Iri("http://example.org/p"), ValueSet(tuple(values)))
        return Schema("S", {"S": Shape("S", (constraint,))})

    @settings(deadline=None)
    @given(st.lists(LITERALS, min_size=1, max_size=3, unique=True))
    def test_any_lexical_form(self, tmp_path_factory, values):
        schema = self._schema(values)
        assert self._through_a_file(schema, tmp_path_factory.mktemp("literal")) == canonicalize(schema)

    @pytest.mark.parametrize("lexical", ["a\nb", "a\rb"])
    def test_line_break(self, tmp_path, lexical):
        schema = self._schema([Literal(lexical)])
        assert self._through_a_file(schema, tmp_path) == canonicalize(schema)


class TestCanonicalJson:
    def test_museum_constraint_count(self, museum_schema):
        import json

        doc = json.loads(to_canonical_json(museum_schema))
        start = doc["shapes"][doc["start"]]
        assert len(start["constraints"]) == 4

    def test_unbounded_rendered_as_minus_one(self, museum_schema):
        import json

        doc = json.loads(to_canonical_json(museum_schema))
        start = doc["shapes"][doc["start"]]
        stars = [c for c in start["constraints"] if c["max"] == -1]
        assert len(stars) == 2
        assert all(c["min"] == 0 for c in stars)

    def test_canonical_equal_schemas_byte_identical(self, museum_text):
        shuffled = museum_text.replace("<Museum>", "<TEMP>").replace("<Country>", "<Museum>").replace(
            "<TEMP>", "<Country>"
        )
        a = parse_shexc(museum_text)
        b = parse_shexc(shuffled)
        assert canonicalize(a) == canonicalize(b)
        assert to_canonical_json(a) == to_canonical_json(b)

    def test_literal_members_carry_datatype_or_language(self):
        import json

        schema = parse_shexc('<S> { <http://example.org/p> [ "1"^^<http://www.w3.org/2001/XMLSchema#integer> '
                             '"chat"@fr "x" <http://example.org/v> ] }')
        (constraint,) = json.loads(to_canonical_json(schema))["shapes"]["S"]["constraints"]
        assert constraint["node"] == {"type": "valueSet", "values": [
            {"type": "iri", "value": "http://example.org/v"},
            {"type": "literal", "value": "1", "datatype": XSD_NS + "integer"},
            {"type": "literal", "value": "chat", "language": "fr"},
            {"type": "literal", "value": "x"},
        ]}

    def test_byte_stable_across_calls(self, fixture_schemas):
        for _, schema in fixture_schemas:
            assert to_canonical_json(schema) == to_canonical_json(schema)
