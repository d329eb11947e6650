from __future__ import annotations

import gc
import json
import weakref
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shexbench import generate
from shexbench.cardml import CardinalityModel, train
from shexbench.generate import (
    CARDINALITY_INSTRUCTION,
    NODE_CONSTRAINT_INSTRUCTION,
    AssemblyError,
    GenerationFailedError,
    HttpLlmClient,
    MinerThresholds,
    ProviderError,
    StructuredNodeConstraint,
    StructuredOutputFailedError,
    StructuredReplyError,
    StubLlmClient,
    StubReplyMissingError,
    TranscriptRecorder,
    assemble_schema,
    cardinality_from_reply,
    extract_json_object,
    generate_end_to_end,
    generate_global,
    mine_baseline_schema,
    predict_cardinality_structured,
    predict_node_constraint_structured,
    prompt_hash,
    strip_code_fences,
)
from shexbench.kginfo import EndpointError, GlobalPredicateRecord, KgClient, RecordField
from shexbench.model import (
    RDF_TYPE,
    Cardinality,
    DatatypeConstraint,
    Iri,
    NodeKindIri,
    ShapeRef,
    ValueSet,
    canonicalize,
    classes_of,
)
from shexbench.prompts import ChatPrompt, build_global_prompt
from shexbench.shexc import parse_shexc, serialize_shexc
from support import (
    WD,
    WDT,
    XSD,
    LoopbackServer,
    ReferenceStructuredCardinality,
    ReferenceStructuredNodeConstraint,
    RuleLlmClient,
    ScriptedLlmClient,
    award_endpoint_config,
    build_award_endpoint,
    reference_reply_values,
    refused_url,
    synthetic_cardinality_rows,
)

AWARD = Iri(WD + "Q4220917")
MUSEUM = Iri(WD + "Q33506")
#: The typing predicate of a Wikidata KG.
WD_TYPING = Iri(WDT + "P31")
SCHEMA = "http://schema.org/"
YAGO = "http://yago-knowledge.org/resource/"


def make_record(predicate=WDT + "P17", **overrides):
    defaults = dict(
        class_uri=AWARD,
        predicate_uri=Iri(predicate),
        class_label="film award",
        frequency=1.0,
        cardinality_distribution={1: 1.0},
        datatype_of_objects={"IRI": 1.0},
        object_class_distribution={WD + "Q6256": 1.0},
        completeness=RecordField.FREQUENCY | RecordField.CARDINALITY,
    )
    defaults.update(overrides)
    return GlobalPredicateRecord(**defaults)


class TestStructuredModels:
    def test_cardinality_passthrough(self):
        assert cardinality_from_reply(json.dumps({"include": True, "min": 1, "max": 1})) == Cardinality(1, 1)

    def test_minus_one_and_null_mean_unbounded(self):
        assert cardinality_from_reply(json.dumps({"include": True, "min": 0, "max": -1})).max is None
        assert cardinality_from_reply(json.dumps({"include": True, "min": 0, "max": None})).max is None

    def test_invalid_bounds_rejected(self):
        with pytest.raises(StructuredReplyError):
            cardinality_from_reply(json.dumps({"include": True, "min": 2, "max": 1}))

    def test_exclude_ignores_bounds(self):
        assert cardinality_from_reply(json.dumps({"include": False, "min": 9, "max": 1})) is None

    def test_node_constraint_variants(self):
        datatype = StructuredNodeConstraint.from_json(json.dumps({"datatype": "xsd:dateTime"}))
        assert datatype.datatype == "xsd:dateTime"
        classes = StructuredNodeConstraint.from_json(json.dumps({"referenced_classes": ["wd:Q6256"]}))
        assert classes.referenced_classes == ("wd:Q6256",)
        values = StructuredNodeConstraint.from_json(json.dumps({"value_list": ["a", "b"]}))
        assert values.value_list == ("a", "b")

    def test_empty_object_defaults_to_iri(self):
        """``{}`` and a lone ``node_kind`` both mean the IRI node kind: no variant set."""
        for reply in ({}, {"node_kind": "iri"}, {"node_kind": None, "datatype": None}):
            assert StructuredNodeConstraint.from_json(json.dumps(reply)) == StructuredNodeConstraint()

    def test_mutually_exclusive(self):
        with pytest.raises(StructuredReplyError):
            StructuredNodeConstraint.from_json(json.dumps(
                {"datatype": "xsd:string", "referenced_classes": ["wd:Q5"]}))

    @pytest.mark.parametrize("reply", [
        '{"include": 1}', '{"include": "yes"}', '{"include": "true"}', '{"include": true, "min": true}',
        '{"include": true, "min": 1.0}', '{"include": true, "min": "1"}', '{"include": true, "max": "2"}',
        '{"include": true, "max": -1.0}',
    ])
    def test_cardinality_types_are_strict(self, reply):
        """pydantic's lax mode coerced each of these; the instructions ask for JSON bools and ints."""
        with pytest.raises(StructuredReplyError):
            cardinality_from_reply(reply)

    def test_nulls_are_absent_keys(self):
        assert cardinality_from_reply('{"include": false, "max": null}') is None
        assert cardinality_from_reply('{"include": true, "max": null}') == Cardinality(0, None)
        assert StructuredNodeConstraint.from_json('{"datatype": null, "value_list": ["a"]}') == \
            StructuredNodeConstraint(value_list=("a",))


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
#: Anything JSON can hold, with the edge values of the reply rules.
_REPLY_VALUES = st.one_of(
    st.sampled_from([-1, 0, 1, -1.0, 1.0, 2**64, -(2**70), "iri", "1", "true", "", [], ["a"]]), _ANY_JSON,
)
#: Values that are mostly valid for each field.
_PLAUSIBLE = {
    "include": st.booleans(),
    "min": st.integers(-1, 3),
    "max": st.none() | st.integers(-2, 3),
    "datatype": st.none() | st.sampled_from(["xsd:string", ""]),
    "referenced_classes": st.none() | st.lists(st.sampled_from(["wd:Q5", "a", ""]), max_size=2),
    "value_list": st.none() | st.lists(st.sampled_from(["wd:Q5", "a", ""]), max_size=2),
    "node_kind": st.none() | st.just("iri"),
}


def _reply_objects(names: tuple[str, ...]):
    """Objects with every key of ``names`` and mostly valid values, and
    objects with some of the keys, any JSON values and a key outside them."""
    noisy = {name: _PLAUSIBLE[name] | _REPLY_VALUES for name in names}
    return st.fixed_dictionaries({name: _PLAUSIBLE[name] for name in names}) | \
        st.fixed_dictionaries({}, optional={**noisy, "Include": _REPLY_VALUES})


#: The verdict of a reply that step one checks and leaves its predicate out.
_EXCLUDED = ("excluded",)


def _values(parse, text: str) -> tuple | None:
    """The values ``parse`` gives the reply ``text``; None when it rejects it."""
    try:
        value = parse(text)
    except StructuredReplyError:
        return None
    return _EXCLUDED if value is None else astuple(value)


def _typed(values: tuple | None) -> list | None:
    return None if values is None else [(type(value), value) for value in values]


class TestStructuredReplyOracle:
    """The reply checks give the verdict and the kept values of the pydantic
    models they replaced, validating in strict mode.  An excluded
    cardinality drops its bounds, and the models' ``node_kind`` is ``"iri"``
    exactly when no other variant is set, so the checks keep neither."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_reply_objects(("include", "min", "max")))
    def test_cardinality_agrees_with_pydantic(self, doc):
        text = json.dumps(doc)
        expected = reference_reply_values(ReferenceStructuredCardinality, text)
        if type(doc.get("max")) is float and doc["max"] == -1:
            # pydantic's before-validator compares with ==; a float is no integer here
            expected = None
        if expected is not None:
            include, minimum, maximum = expected
            expected = (minimum, maximum) if include else _EXCLUDED
        assert _typed(_values(cardinality_from_reply, text)) == _typed(expected)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_reply_objects(("datatype", "referenced_classes", "value_list", "node_kind")))
    def test_node_constraint_agrees_with_pydantic(self, doc):
        text = json.dumps(doc)
        expected = reference_reply_values(ReferenceStructuredNodeConstraint, text)
        if expected is not None:
            *expected, node_kind = expected
            assert (node_kind == "iri") == (expected == [None, None, None])
            expected = tuple(expected)
        assert _typed(_values(StructuredNodeConstraint.from_json, text)) == _typed(expected)


class TestReplyExtraction:
    def test_strip_fences(self):
        fenced = "```shex\n<S> { <http://example.org/p> IRI }\n```"
        assert strip_code_fences(fenced) == "<S> { <http://example.org/p> IRI }"

    def test_extract_json(self):
        assert extract_json_object('noise {"a": 1} trailing') == '{"a": 1}'
        assert extract_json_object('```json\n{"a": {"b": "}"}}\n```') == '{"a": {"b": "}"}}'
        with pytest.raises(ValueError):
            extract_json_object("no json here")


BAD_BOUNDS = '{"include": true, "min": 2, "max": 1}'


class TestStructuredSteps:
    def test_cardinality_passthrough(self):
        client = ScriptedLlmClient(['{"include": true, "min": 1, "max": 1}'])
        value = predict_cardinality_structured(build_global_prompt(make_record()), client)
        assert value == Cardinality(1, 1)

    def test_exclusion_is_none(self):
        client = ScriptedLlmClient(['{"include": false, "min": 2, "max": 1}'])
        assert predict_cardinality_structured(build_global_prompt(make_record()), client) is None

    def test_invalid_then_valid_triggers_rerequest(self):
        client = ScriptedLlmClient(
            ['{"include": true, "min": 2, "max": 1}', '{"include": true, "min": 0, "max": null}']
        )
        value = predict_cardinality_structured(build_global_prompt(make_record()), client)
        assert value.max is None
        assert len(client.sent) == 2
        # re-request carries the validation error back to the model
        assert client.sent[1][-1]["content"] == (
            "The previous reply was invalid: cardinality max 1 < min 2. "
            "Reply again with only the corrected JSON object.")

    def test_deeply_nested_reply_is_corrected(self):
        nested = '{"include": ' + "[" * 100_000 + "]" * 100_000 + "}"
        client = ScriptedLlmClient([nested, '{"include": true, "min": 0, "max": null}'])
        value = predict_cardinality_structured(build_global_prompt(make_record()), client)
        assert value == Cardinality(0, None)
        assert client.sent[1][-1]["content"] == (
            "The previous reply was invalid: invalid JSON: document nested too deeply for the JSON decoder. "
            "Reply again with only the corrected JSON object.")

    def test_retries_exhausted(self):
        client = ScriptedLlmClient(["junk"] * 4)
        with pytest.raises(StructuredOutputFailedError):
            predict_cardinality_structured(build_global_prompt(make_record()), client)
        # the first request and two re-requests
        assert len(client.sent) == 3

    @pytest.mark.parametrize("replies", [[BAD_BOUNDS, '{"include": true}'], [BAD_BOUNDS] * 3])
    def test_validator_errors_leave_no_frame_alive(self, replies):
        """A validator's error inside a ValidationError reaches the caller's
        frames by a reference the cycle collector cannot follow."""
        class Marker:
            pass

        def call():
            marker = Marker()
            try:
                predict_cardinality_structured(build_global_prompt(make_record()), ScriptedLlmClient(replies))
            except StructuredOutputFailedError:
                pass
            return weakref.ref(marker)

        marker = call()
        gc.collect()
        assert marker() is None

    def test_exhausted_transcript_and_message(self):
        client = ScriptedLlmClient(["junk"] * 3)
        with pytest.raises(StructuredOutputFailedError) as exc:
            predict_node_constraint_structured(build_global_prompt(make_record()), client)
        correction = ("The previous reply was invalid: reply contains no JSON object. "
                      "Reply again with only the corrected JSON object.")
        assert str(exc.value) == "reply failed validation after 3 attempt(s): reply contains no JSON object"
        assert exc.value.transcript[len(client.sent[0]):] == (
            {"role": "assistant", "content": "junk"}, {"role": "user", "content": correction},
            {"role": "assistant", "content": "junk"}, {"role": "user", "content": correction},
            {"role": "assistant", "content": "junk"},
        )
        assert client.sent[0][-1]["content"].endswith(NODE_CONSTRAINT_INSTRUCTION)

    def test_node_constraint_variants(self):
        prompt = build_global_prompt(make_record())
        client = ScriptedLlmClient(['{"datatype": "xsd:dateTime"}'])
        assert predict_node_constraint_structured(prompt, client).datatype == "xsd:dateTime"
        client = ScriptedLlmClient(['{"referenced_classes": ["wd:Q6256"]}'])
        assert predict_node_constraint_structured(prompt, client).referenced_classes == ("wd:Q6256",)
        client = ScriptedLlmClient(["{}"])
        assert predict_node_constraint_structured(prompt, client) == StructuredNodeConstraint()


class TestEndToEnd:
    def test_valid_reply_first_try(self, museum_text):
        prompt = ChatPrompt("system", "user")
        client = ScriptedLlmClient([museum_text])
        schema = generate_end_to_end(MUSEUM, prompt, client)
        assert schema.focus_class == MUSEUM
        assert canonicalize(schema) == canonicalize(parse_shexc(museum_text))

    def test_fenced_reply_accepted(self, museum_text):
        client = ScriptedLlmClient([f"```shex\n{museum_text}\n```"])
        schema = generate_end_to_end(MUSEUM, ChatPrompt("s", "u"), client)
        assert len(schema.start_shape.constraints) == 4

    def test_repair_loop_recovers(self, museum_text):
        client = ScriptedLlmClient(["this is not shex", museum_text])
        schema = generate_end_to_end(MUSEUM, ChatPrompt("s", "u"), client, max_repairs=1)
        assert schema.focus_class == MUSEUM
        repair_message = client.sent[1][-1]["content"]
        assert "failed to parse" in repair_message
        assert "line" in repair_message

    def test_budget_exhausted(self):
        client = ScriptedLlmClient(["junk", "junk", "junk", "junk"])
        with pytest.raises(GenerationFailedError) as exc:
            generate_end_to_end(MUSEUM, ChatPrompt("s", "u"), client, max_repairs=2)
        assert len(client.sent) == 3
        assert exc.value.diagnostics
        assert sum(1 for m in exc.value.transcript if m["role"] == "assistant") == 3

    @pytest.mark.parametrize("max_repairs, replies", [(0, ["junk"]), (-1, [])])
    def test_no_repair_budget(self, max_repairs, replies):
        prompt = ChatPrompt("s", "u")
        client = ScriptedLlmClient(replies)
        with pytest.raises(GenerationFailedError) as exc:
            generate_end_to_end(MUSEUM, prompt, client, max_repairs=max_repairs)
        assert len(client.sent) == len(replies)
        assert exc.value.transcript == tuple(prompt.to_messages()) + tuple(
            {"role": "assistant", "content": reply} for reply in replies)
        diagnostics = "; ".join(str(d) for d in exc.value.diagnostics)
        assert bool(diagnostics) == bool(replies)
        assert str(exc.value) == f"generation failed after {len(replies)} attempt(s): {diagnostics}"


class TestAssembly:
    def test_referenced_shape_emitted(self):
        parts = [(Iri(WDT + "P17"), Cardinality(1, 1), StructuredNodeConstraint(referenced_classes=("wd:Q6256",)))]
        schema = assemble_schema(MUSEUM, parts, WD_TYPING)
        start = schema.start_shape
        assert start.extra_predicates == (Iri(WDT + "P31"),)
        by_pred = {c.predicate.value: c for c in start.constraints}
        assert by_pred[WDT + "P31"].node_constraint == ValueSet((MUSEUM,))
        ref = by_pred[WDT + "P17"].node_constraint
        assert isinstance(ref, ShapeRef)
        referenced = schema.shapes[ref.label]
        assert referenced.extra_predicates == (Iri(WDT + "P31"),)
        assert referenced.constraints[0].node_constraint == ValueSet((Iri(WD + "Q6256"),))
        parsed = parse_shexc(serialize_shexc(schema))
        assert parsed == canonicalize(schema)

    def test_class_sets_sharing_a_local_name_stay_apart(self):
        """schema:Person and yago:Person are both 'Person', and yago:Book
        shares the focus class's name; each keeps a shape of its own."""
        book = Iri(SCHEMA + "Book")
        parts = [
            (Iri(SCHEMA + predicate), Cardinality(0, None), StructuredNodeConstraint(referenced_classes=(referenced,)))
            for predicate, referenced in (("author", "schema:Person"), ("editor", "yago:Person"),
                                          ("exampleOfWork", "yago:Book"), ("workExample", "schema:Book"))
        ]
        schema = assemble_schema(book, parts, RDF_TYPE)
        by_pred = {c.predicate.value.removeprefix(SCHEMA): c.node_constraint for c in schema.start_shape.constraints}
        assert (schema.start_label, by_pred["workExample"]) == ("Book", ShapeRef("Book"))
        referenced = {name: classes_of(by_pred[name], schema, (RDF_TYPE,))
                      for name in ("author", "editor", "exampleOfWork")}
        assert referenced == {"author": {Iri(SCHEMA + "Person")}, "editor": {Iri(YAGO + "Person")},
                              "exampleOfWork": {Iri(YAGO + "Book")}}
        assert set(schema.shapes) == {"Book", "Book_2", "Person", "Person_2"}
        assert parse_shexc(serialize_shexc(schema)) == canonicalize(schema)

    def test_single_node_kind_part(self):
        parts = [(Iri(WDT + "P856"), Cardinality(0, None), StructuredNodeConstraint())]
        schema = assemble_schema(MUSEUM, parts, WD_TYPING)
        assert len(schema.start_shape.constraints) == 2
        website = {c.predicate.value: c for c in schema.start_shape.constraints}[WDT + "P856"]
        assert website.node_constraint == NodeKindIri()
        assert website.cardinality == Cardinality(0, None)

    def test_duplicate_predicate_rejected(self):
        part = (Iri(WDT + "P856"), Cardinality(0, None), StructuredNodeConstraint())
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble_schema(MUSEUM, [part, part], WD_TYPING)

    def test_empty_parts_rejected(self):
        with pytest.raises(AssemblyError, match="no parts to assemble after exclusions"):
            assemble_schema(MUSEUM, [], WD_TYPING)

    def test_datatype_and_value_list_parts(self):
        parts = [
            (Iri(WDT + "P571"), Cardinality(0, 1), StructuredNodeConstraint(datatype="xsd:dateTime")),
            (Iri(WDT + "P1552"), Cardinality(0, None), StructuredNodeConstraint(value_list=("gold", "silver"))),
        ]
        schema = assemble_schema(MUSEUM, parts, WD_TYPING)
        by_pred = {c.predicate.value: c for c in schema.start_shape.constraints}
        assert by_pred[WDT + "P571"].node_constraint == DatatypeConstraint(Iri(XSD + "dateTime"))
        values = by_pred[WDT + "P1552"].node_constraint
        assert isinstance(values, ValueSet)
        assert len(values.values) == 2


@pytest.fixture()
def award_kg(tmp_path):
    return KgClient(award_endpoint_config(tmp_path), transport=build_award_endpoint())


def award_rule_client():
    return RuleLlmClient(
        cardinality_replies={
            WDT + "P17": '{"include": true, "min": 1, "max": 1}',
            WDT + "P571": '{"include": true, "min": 0, "max": 1}',
            WDT + "P856": '{"include": false, "min": 0, "max": null}',
            WDT + "P1027": '{"include": true, "min": 0, "max": null}',
        },
        node_replies={
            WDT + "P17": '{"referenced_classes": ["wd:Q6256"]}',
            WDT + "P571": '{"datatype": "xsd:dateTime"}',
            WDT + "P1027": "{}",
        },
    )


class TestGenerateGlobal:
    def test_pipeline_shape(self, award_kg):
        schema = generate_global(AWARD, award_kg, award_rule_client())
        predicates = [c.predicate.value for c in schema.start_shape.constraints]
        assert WDT + "P31" in predicates
        assert WDT + "P856" not in predicates  # excluded by step one
        assert len(schema.start_shape.constraints) == 4  # typing + P17 + P571 + P1027
        parsed = parse_shexc(serialize_shexc(schema))
        assert parsed == canonicalize(schema)

    def test_deterministic_bytes(self, award_kg, tmp_path):
        first = serialize_shexc(generate_global(AWARD, award_kg, award_rule_client()))
        fresh_kg = KgClient(award_endpoint_config(tmp_path / "other"), transport=build_award_endpoint())
        second = serialize_shexc(generate_global(AWARD, fresh_kg, award_rule_client()))
        assert first == second

    def test_step_two_runs_only_for_accepted(self, award_kg):
        client = award_rule_client()
        generate_global(AWARD, award_kg, client)
        node_prompts = [m for m in client.sent if "node constraint for this predicate" in m[-1]["content"]]
        assert len(node_prompts) == 3  # P856 was rejected in step one

    def test_failed_predicate_skipped_not_fatal(self, award_kg):
        client = award_rule_client()
        client.node_replies[WDT + "P17"] = "junk"  # never validates
        schema = generate_global(AWARD, award_kg, client)
        predicates = {c.predicate.value for c in schema.start_shape.constraints}
        assert WDT + "P17" not in predicates
        assert WDT + "P571" in predicates


class TestOnePromptPerRecord:
    """Each record's global prompt is rendered once, at the first step that
    needs it, and both LLM steps build on that one prompt."""

    @staticmethod
    def _count_prompts(monkeypatch) -> Counter:
        built = Counter()
        original = generate.build_global_prompt

        def counting(record, fewshot=()):
            built[record.predicate_uri.value] += 1
            return original(record, fewshot)

        monkeypatch.setattr(generate, "build_global_prompt", counting)
        return built

    @staticmethod
    def _trained_model() -> CardinalityModel:
        return train("dt", synthetic_cardinality_rows(200, seed=7), seed=42)

    @staticmethod
    def _node_client() -> RuleLlmClient:
        """The rule client, with a node reply for P856 too: a trained model includes every predicate."""
        client = award_rule_client()
        client.node_replies[WDT + "P856"] = "{}"
        return client

    def test_llm_steps_share_one_prompt(self, award_kg, monkeypatch):
        built = self._count_prompts(monkeypatch)
        client = award_rule_client()
        generate_global(AWARD, award_kg, client)
        candidates = [p.value for p in award_kg.global_candidates(AWARD)]
        assert built == dict.fromkeys(candidates, 1)
        # P856 is rejected at step one, so the other three reach step two
        assert len(client.sent) == 2 * len(candidates) - 1
        expected = {p: build_global_prompt(award_kg.build_global_record(AWARD, Iri(p))).user for p in candidates}
        for messages in client.sent:
            user, instruction = messages[-1]["content"].rsplit("\n\n", 1)
            assert user in expected.values()
            assert instruction in (CARDINALITY_INSTRUCTION, NODE_CONSTRAINT_INSTRUCTION)

    def test_trained_cardinality_logs_as_before(self, tmp_path, caplog, monkeypatch):
        """With a trained model the prompt is rendered at the node step.  With
        the cardinality part down, the model still predicts first; the
        prompt then finds the record incomplete."""
        built = self._count_prompts(monkeypatch)
        endpoint = build_award_endpoint()

        def failing(query):
            if "?cardinality" in query and f"<{WDT}P571>" in query:
                raise EndpointError("template down")
            return endpoint(query)

        kg = KgClient(award_endpoint_config(tmp_path), transport=failing)
        client = self._node_client()
        with caplog.at_level("WARNING"):
            generate_global(AWARD, kg, client, self._trained_model())
        assert built == dict.fromkeys((p.value for p in kg.global_candidates(AWARD)), 1)
        assert all(NODE_CONSTRAINT_INSTRUCTION in m[-1]["content"] for m in client.sent)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("shexbench.kginfo", f"cardinality distribution unavailable for {AWARD} / {WDT}P571: template down"),
            ("shexbench.generate", f"skipping predicate {WDT}P571 for {AWARD}: "
                                   "record is missing required fields: cardinality_distribution"),
        ]


class TestStubReplay:
    def test_record_then_replay_byte_identical(self, award_kg, tmp_path):
        stub_dir = tmp_path / "stubs"
        recording = TranscriptRecorder(award_rule_client(), stub_dir)
        recorded = serialize_shexc(generate_global(AWARD, award_kg, recording))
        replayed = serialize_shexc(generate_global(AWARD, award_kg, StubLlmClient(stub_dir)))
        assert recorded == replayed

    def test_missing_stub_raises(self, tmp_path):
        client = StubLlmClient(tmp_path)
        with pytest.raises(StubReplyMissingError):
            client.send([{"role": "user", "content": "anything"}])

    def test_prompt_hash_stable(self):
        messages = [{"role": "user", "content": "x"}]
        assert prompt_hash(messages) == prompt_hash([dict(m) for m in messages])


def _completion(content) -> str:
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})


class TestHttpLlmClient:
    """The provider client against a real HTTP server on the loopback."""

    def test_request_and_reply(self, monkeypatch):
        monkeypatch.setenv("SHEXBENCH_API_KEY", "test-key")
        messages = [{"role": "system", "content": "be brief"}, {"role": "user", "content": "héllo"}]
        with LoopbackServer((200, _completion("<S> { }"))) as server:
            client = HttpLlmClient(provider_url=server.url, model="some-model")
            assert client.send(messages) == "<S> { }"
        ((_, headers, body),) = server.requests
        assert json.loads(body) == {"model": "some-model", "messages": messages, "temperature": 0.0}
        assert headers["Authorization"] == "Bearer test-key"
        assert headers["Content-Type"] == "application/json"

    def test_redirect_fails_without_sending_the_key_on(self, monkeypatch):
        monkeypatch.setenv("SHEXBENCH_API_KEY", "test-key")
        with LoopbackServer((200, _completion("unreached"))) as target:
            with LoopbackServer((302, "moved", {"Location": target.url})) as server:
                client = HttpLlmClient(provider_url=server.url, model="some-model")
                with pytest.raises(ProviderError, match="provider request failed: HTTP 302"):
                    client.send([{"role": "user", "content": "hi"}])
        assert not target.requests

    # each outcome: the server's answer, or a URL that gets none (None: a
    # port nothing listens on, picked when the test runs)
    OUTCOMES = {
        "no-credential": (200, _completion("unused")),
        "unreachable": None,
        "bad-url": "localhost:9/v1/chat",
        "http-401": (401, '{"error": "invalid key"}'),
        "http-500": (500, "internal error"),
        "not-json": (200, "<html>busy</html>"),
        "nested": (200, "[" * 100_000 + "]" * 100_000),
        "no-choices": (200, '{"choices": []}'),
        "no-content": (200, _completion(None)),
    }

    @pytest.mark.parametrize("outcome", list(OUTCOMES))
    def test_failed_request_is_a_provider_error(self, monkeypatch, outcome):
        if outcome == "no-credential":
            monkeypatch.delenv("SHEXBENCH_API_KEY", raising=False)
        else:
            monkeypatch.setenv("SHEXBENCH_API_KEY", "test-key")
        answer = self.OUTCOMES[outcome]
        with LoopbackServer(answer if isinstance(answer, tuple) else (200, "")) as server:
            url = server.url if isinstance(answer, tuple) else answer or refused_url()
            client = HttpLlmClient(provider_url=url, model="some-model")
            with pytest.raises(ProviderError) as caught:
                client.send([{"role": "user", "content": "hi"}])
        if outcome == "no-credential":
            assert "SHEXBENCH_API_KEY is not set" in str(caught.value)
            assert not server.requests
        else:
            assert str(caught.value).startswith("provider request failed")


class TestMiner:
    def test_functional_datetime_predicate(self):
        record = make_record(
            predicate=WDT + "P571",
            datatype_of_objects={XSD + "dateTime": 1.0},
            object_class_distribution={},
        )
        schema = mine_baseline_schema(AWARD, [record], MinerThresholds(), WD_TYPING)
        constraint = {c.predicate.value: c for c in schema.start_shape.constraints}[WDT + "P571"]
        assert constraint.node_constraint == DatatypeConstraint(Iri(XSD + "dateTime"))
        assert constraint.cardinality == Cardinality(1, 1)

    def test_low_frequency_excluded(self):
        rare = make_record(frequency=0.02, cardinality_distribution={1: 0.02})
        keep = make_record(predicate=WDT + "P571", frequency=0.5, cardinality_distribution={1: 0.5})
        schema = mine_baseline_schema(AWARD, [rare, keep], MinerThresholds(include_min_frequency=0.05), WD_TYPING)
        predicates = {c.predicate.value for c in schema.start_shape.constraints}
        assert WDT + "P17" not in predicates
        assert WDT + "P571" in predicates

    def test_dominant_class_becomes_shape_ref(self):
        record = make_record(
            frequency=0.5,
            cardinality_distribution={1: 0.5},
            datatype_of_objects={"IRI": 1.0},
            object_class_distribution={WD + "Q6256": 0.9, WD + "Q5": 0.1},
        )
        schema = mine_baseline_schema(AWARD, [record], MinerThresholds(class_purity=0.8), WD_TYPING)
        ref = {c.predicate.value: c for c in schema.start_shape.constraints}[WDT + "P17"].node_constraint
        assert isinstance(ref, ShapeRef)
        referenced = schema.shapes[ref.label]
        assert referenced.constraints[0].node_constraint == ValueSet((Iri(WD + "Q6256"),))

    def test_unbounded_when_not_functional(self):
        record = make_record(
            frequency=1.0,
            cardinality_distribution={1: 0.4, 2: 0.6},
        )
        schema = mine_baseline_schema(AWARD, [record], MinerThresholds(), WD_TYPING)
        mined = {c.predicate.value: c for c in schema.start_shape.constraints}[WDT + "P17"]
        assert mined.cardinality == Cardinality(1, None)

    def test_monotone_in_include_threshold(self):
        records = [
            make_record(predicate=WDT + f"P{i}", frequency=f, cardinality_distribution={1: f})
            for i, f in ((17, 0.9), (571, 0.5), (856, 0.2), (1027, 0.07))
        ]
        sizes = []
        for threshold in (0.0, 0.1, 0.3, 0.6, 0.95):
            try:
                schema = mine_baseline_schema(
                    AWARD, records, MinerThresholds(include_min_frequency=threshold), WD_TYPING
                )
                sizes.append(len(schema.start_shape.constraints))
            except AssemblyError:
                sizes.append(1)
        assert sizes == sorted(sizes, reverse=True)

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            MinerThresholds(include_min_frequency=1.5)
