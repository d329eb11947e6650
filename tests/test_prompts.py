from __future__ import annotations

import pytest

from shexbench.kginfo import KgClient, RecordField
from shexbench.model import Iri
from shexbench.prompts import (
    ChatPrompt,
    EmptyPredicateSetError,
    EmptySampleError,
    IncompleteRecordError,
    SYSTEM_PROMPT,
    build_global_prompt,
    build_local_prompt,
    build_triples_prompt,
    load_fewshot,
)
from support import WD, WDT, award_endpoint_config, build_award_endpoint

AWARD = Iri(WD + "Q4220917")


@pytest.fixture()
def client(tmp_path):
    return KgClient(award_endpoint_config(tmp_path), transport=build_award_endpoint())


@pytest.fixture()
def samples(client):
    instances = client.sample_instances(AWARD, 5)
    return [(instance, client.instance_triples(instance)) for instance in instances]


class TestLocalPrompt:
    def test_layout(self, samples):
        prompt = build_local_prompt(AWARD, samples, class_label="film award")
        assert prompt.system == SYSTEM_PROMPT
        assert "generate the ShEx schema for the class" in prompt.user
        assert f"'{AWARD} (film award)'" in prompt.user
        assert "Example instances:" in prompt.user
        assert "wd:Q1000 (datatype: IRI)" not in prompt.user  # subjects are not objects
        assert "wdt:P17 (country) [wd:Q30 (United States of America) (datatype: IRI)]" in prompt.user
        assert "(datatype: xsd:dateTime)" in prompt.user

    def test_instance_block_lines_group_objects(self, samples):
        prompt = build_local_prompt(AWARD, samples, class_label="film award")
        target = [line for line in prompt.user.splitlines() if "wdt:P31 (instance of)" in line]
        assert len(target) == 5  # one grouped line per sampled instance

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            build_local_prompt(AWARD, [])

    def test_deterministic(self, samples):
        first = build_local_prompt(AWARD, samples, class_label="film award")
        second = build_local_prompt(AWARD, samples, class_label="film award")
        assert first == second

    def test_fewshot_ordering(self, samples):
        prompt = build_local_prompt(AWARD, samples, fewshot=(("ex-user", "ex-assistant"),))
        messages = prompt.to_messages()
        assert [m["role"] for m in messages] == ["system", "user", "assistant", "user"]
        assert messages[1]["content"] == "ex-user"


class TestTriplesPrompt:
    def test_grouped_blocks_in_map_order(self, client):
        per_predicate = {
            Iri(WDT + "P17"): client.triple_examples(AWARD, Iri(WDT + "P17")),
            Iri(WDT + "P571"): client.triple_examples(AWARD, Iri(WDT + "P571")),
        }
        prompt = build_triples_prompt(AWARD, per_predicate, class_label="film award")
        assert "Example triples of predicates:" in prompt.user
        assert "triples from 5 instances" in prompt.user
        first_p17 = prompt.user.index("wdt:P17")
        first_p571 = prompt.user.index("wdt:P571")
        assert first_p17 < first_p571

    def test_single_example_group(self, client):
        per_predicate = {Iri(WDT + "P17"): client.triple_examples(AWARD, Iri(WDT + "P17"))[:1]}
        prompt = build_triples_prompt(AWARD, per_predicate)
        lines = [line for line in prompt.user.splitlines() if "wdt:P17" in line]
        assert len(lines) == 1

    def test_empty(self):
        with pytest.raises(EmptyPredicateSetError):
            build_triples_prompt(AWARD, {})


class TestGlobalPrompt:
    def test_listing_field_order_and_content(self, client):
        record = client.build_global_record(AWARD, Iri(WDT + "P1027"))
        prompt = build_global_prompt(record)
        user = prompt.user
        assert user.startswith("Based on the following information, generate constraints in JSON:")
        keys = [
            "'class_uri'", "'class_label'", "'class_description'", "'predicate_uri'",
            "'predicate_label'", "'predicate_description'", "'triple_examples'",
            "'frequency'", "'cardinality_distribution'", "'datatype_of_objects'",
            "'object_class_distribution'", "'value_type_constraint'",
        ]
        positions = [user.index(key) for key in keys]
        assert positions == sorted(positions)
        assert "80.00% of instances of this class use this predicate" in user
        assert "80.00% of instances have 1 value" in user
        assert "value type constraint of Wikidata" in user
        assert "wd:Q43229" in user

    def test_two_decimal_percentages(self, client):
        record = client.build_global_record(AWARD, Iri(WDT + "P571"))
        prompt = build_global_prompt(record)
        assert "60.00%" in prompt.user

    def test_no_constraint_sentences_without_lists(self, client):
        record = client.build_global_record(AWARD, Iri(WDT + "P571"))
        prompt = build_global_prompt(record)
        # P571 carries no recorded property constraints in the fixture KG
        assert "subject type constraint" not in prompt.user
        assert "value type constraint" not in prompt.user

    def test_incomplete_record_names_missing_fields(self, client):
        record = client.build_global_record(AWARD, Iri(WDT + "P1027"))
        stripped = type(record)(
            class_uri=record.class_uri,
            predicate_uri=record.predicate_uri,
            frequency=record.frequency,
            completeness=RecordField.FREQUENCY,
        )
        with pytest.raises(IncompleteRecordError) as exc:
            build_global_prompt(stripped)
        assert exc.value.missing == ("cardinality_distribution",)

    def test_distinct_records_distinct_prompts(self, client):
        first = build_global_prompt(client.build_global_record(AWARD, Iri(WDT + "P17")))
        second = build_global_prompt(client.build_global_record(AWARD, Iri(WDT + "P1027")))
        assert first.user != second.user


def test_load_fewshot(tmp_path):
    single = tmp_path / "one.json"
    single.write_text('{"user": "u", "assistant": "a"}')
    assert load_fewshot(single) == (("u", "a"),)
    many = tmp_path / "many.json"
    many.write_text('[{"user": "u1", "assistant": "a1"}, {"user": "u2", "assistant": "a2"}]')
    assert load_fewshot(many) == (("u1", "a1"), ("u2", "a2"))
