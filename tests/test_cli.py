from __future__ import annotations

import codecs
import csv
import errno
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from shexbench.cardml import FEATURE_NAMES
from shexbench.cli import (
    EXIT_NETWORK,
    EXIT_CACHE_MISS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PARTIAL,
    ManifestError,
    cmd_evaluate,
    cmd_extract,
    cmd_generate,
    cmd_report,
    cmd_train_cardinality,
    entry_endpoint_config,
    load_manifest,
    main,
    _warm_entry,
)
from shexbench.generate import prompt_hash
from shexbench.kginfo import _MAX_IN_FLIGHT, CacheStore, KgClient, cache_key, instance_count_query, label_query
from shexbench.matching import ALL_CRITERIA
from shexbench.model import Iri, canonicalize
from shexbench.prompts import PromptSetting
from shexbench.shexc import parse_shexc
from support import (
    BENCHMARK_CLASSES,
    WD,
    WDT,
    LoopbackServer,
    ScriptedLlmClient,
    benchmark_rule_client,
    build_benchmark_endpoint,
    write_benchmark_manifest,
    write_shared_property_benchmark,
)


#: A JSON document nested deeper than the decoder's recursion limit.
_NESTED = "[" * 100_000 + "]" * 100_000


@pytest.fixture()
def bench(tmp_path):
    endpoint = build_benchmark_endpoint()
    manifest_path = write_benchmark_manifest(tmp_path)
    cache_dir = tmp_path / "cache"
    return {
        "endpoint": endpoint,
        "manifest": manifest_path,
        "cache": cache_dir,
        "factory": lambda cfg: endpoint,
        "tmp": tmp_path,
    }


class TestManifest:
    def test_load_bundled_manifest(self, fixtures_dir):
        manifest = load_manifest(fixtures_dir / "manifest.json")
        assert manifest.dataset_name == "bundled"
        assert len(manifest.entries) == 8
        assert len({e.class_uri.value for e in manifest.entries}) == 8

    def test_entries_carry_their_parsed_ground_truth(self, fixtures_dir):
        first, second = load_manifest(fixtures_dir / "manifest.json"), load_manifest(fixtures_dir / "manifest.json")
        for entry in first.entries:
            text = entry.ground_truth_path.read_text(encoding="utf-8")
            assert entry.ground_truth == parse_shexc(text, focus_class=entry.class_uri)
            assert "ground_truth=" not in repr(entry)
        # the parsed schema takes no part in equality or hashing
        assert first == second and hash(first) == hash(second)

    def test_select_by_label_and_slug(self, fixtures_dir):
        manifest = load_manifest(fixtures_dir / "manifest.json")
        assert len(manifest.select(["museum"])) == 1
        assert len(manifest.select(["Q33506"])) == 1
        assert len(manifest.select(None)) == 8
        assert [e.slug for e in manifest.select(["museum", "Q33506", WD + "Q33506"])] == ["Q33506"]

    def test_select_names_every_unmatched_class(self, fixtures_dir):
        manifest = load_manifest(fixtures_dir / "manifest.json")
        with pytest.raises(ManifestError, match="^--class names no manifest entry: 'Q0', 'Museum'$"):
            manifest.select(["Q0", "museum", "Museum", "Q0"])

    def test_duplicate_class_rejected(self, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "manifest.json").read_text())
        doc["entries"].append(dict(doc["entries"][0]))
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(bad)

    def test_invalid_ground_truth_rejected_on_first_read(self, tmp_path):
        (tmp_path / "bad.shex").write_text("not a schema")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "dataset_name": "x",
            "entries": [{
                "class_uri": WD + "Q1",
                "label": "one",
                "kg_kind": "wikidata",
                "endpoint_url": "https://example.org/sparql",
                "typing_predicate": WDT + "P31",
                "ground_truth_path": "bad.shex",
            }],
        }))
        (entry,) = load_manifest(manifest).entries
        for _ in range(2):
            with pytest.raises(ManifestError, match=f"^ground truth {re.escape(str(tmp_path / 'bad.shex'))} invalid: "):
                entry.ground_truth

    @pytest.mark.parametrize("content, message", [
        ('{"entries": [', "cannot read manifest {manifest}"),
        (_NESTED, "cannot read manifest {manifest}"),
        ("[1, 2]", "manifest {manifest} is not a JSON object"),
        ('{"entries": ["x"]}', 'manifest {manifest}: "entries" must be a list of objects'),
        ('{"entries": {"class_uri": "x"}}', 'manifest {manifest}: "entries" must be a list of objects'),
        ('{"dataset_name": 1, "entries": []}', 'manifest {manifest}: "dataset_name" must be a string'),
        (json.dumps({"entries": [{"class_uri": WD + "Q1", "kg_kind": "wikidata", "endpoint_url": "x",
                                  "typing_predicate": WDT + "P31", "ground_truth_path": 5}]}),
         "ground_truth_path must be strings"),
        (json.dumps({"entries": [{"class_uri": ["x"], "label": None, "kg_kind": "wikidata", "endpoint_url": "x",
                                  "typing_predicate": WDT + "P31", "ground_truth_path": "a.shex"}]}),
         "class_uri, label must be strings"),
    ], ids=["truncated", "nested", "not-an-object", "entry-not-an-object", "entries-not-a-list",
            "dataset-name-not-a-string", "path-not-a-string", "uri-and-label-not-strings"])
    def test_unreadable_manifest_is_a_config_error(self, tmp_path, capsys, content, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(content, encoding="utf-8")
        code = main(["extract", "--manifest", str(manifest), "--cache-dir", str(tmp_path / "cache")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: ") and message.format(manifest=manifest) in err


class TestExtract:
    def test_global_extraction_populates_cache(self, bench):
        code, report = cmd_extract(
            bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"]
        )
        assert code == EXIT_OK
        assert all(r["status"] == "ok" for r in report["classes"])
        award = next(r for r in report["classes"] if r["class_uri"].endswith("Q4220917"))
        assert award["row_counts"]["records"] == 4
        cached = {p.stem for p in bench["cache"].glob("*.json")}
        assert set(award["cache_keys"]) <= cached
        assert len(award["cache_keys"]) > 4

    def test_rerun_hits_cache_only(self, bench):
        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        before = bench["endpoint"].request_count
        code, _ = cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        assert code == EXIT_OK
        assert bench["endpoint"].request_count == before

    def test_offline_cold_cache_distinct_exit(self, bench):
        code, report = cmd_extract(
            bench["manifest"], bench["tmp"] / "cold", "global",
            offline=True, transport_factory=bench["factory"],
        )
        assert code == EXIT_CACHE_MISS
        assert bench["endpoint"].request_count == 0

    def test_network_failure_distinct_exit(self, bench):
        from shexbench.kginfo import EndpointError

        def broken(cfg):
            def transport(query):
                raise EndpointError("connection refused")
            return transport

        code, report = cmd_extract(
            bench["manifest"], bench["tmp"] / "net", "global", transport_factory=broken
        )
        assert code == EXIT_NETWORK
        assert code != EXIT_CACHE_MISS
        assert all(r["status"] == "error" for r in report["classes"])

    def test_cache_miss_outranks_a_corrupt_cache_file(self, bench):
        from shexbench.kginfo import cache_key, label_query

        award, museum, airport = WD + "Q4220917", WD + "Q33506", WD + "Q1248784"
        cmd_extract(bench["manifest"], bench["cache"], "global", classes=["film award", "museum"],
                    transport_factory=bench["factory"])
        label_file = bench["cache"] / f"{cache_key(label_query(Iri(award)), 'https://fake.example.org/sparql')}.json"
        label_file.write_text(label_file.read_text()[:30])
        code, report = cmd_extract(bench["manifest"], bench["cache"], "global", offline=True,
                                   transport_factory=bench["factory"])
        statuses = {r["class_uri"]: r["status"] for r in report["classes"]}
        assert statuses == {award: "error", museum: "ok", airport: "cache_miss"}
        assert code == EXIT_CACHE_MISS

    def test_local_and_triples_settings(self, bench):
        for setting, key in (("local", "triples"), ("triples", "example_triples")):
            code, report = cmd_extract(
                bench["manifest"], bench["cache"], setting,
                classes=["film award"], transport_factory=bench["factory"],
            )
            assert code == EXIT_OK
            assert report["classes"][0]["row_counts"][key] > 0


def generate_stubbed(bench, out_name="generated", **kwargs):
    return cmd_generate(
        bench["manifest"],
        bench["tmp"] / out_name,
        bench["cache"],
        "global",
        llm_client=kwargs.pop("llm_client", benchmark_rule_client()),
        transport_factory=bench["factory"],
        **kwargs,
    )


class TestGenerate:
    def test_stubbed_global_run(self, bench):
        code, report = generate_stubbed(bench)
        assert code == EXIT_OK
        assert len(report["classes"]) == 3
        for entry in report["classes"]:
            assert entry["status"] == "ok"
            schema = parse_shexc(Path(entry["path"]).read_text())
            assert schema.start_shape.constraints
            sidecar = json.loads(Path(entry["path"]).with_suffix("").with_suffix(".transcript.json").read_text())
            assert sidecar["class_uri"] == entry["class_uri"]
            assert sidecar["exchanges"]
            assert {"messages", "reply"} <= set(sidecar["exchanges"][0])

    def test_deterministic_bytes_across_runs(self, bench):
        generate_stubbed(bench, out_name="run1")
        generate_stubbed(bench, out_name="run2")
        for class_uri in BENCHMARK_CLASSES:
            slug = class_uri.rsplit("/", 1)[-1]
            first = (bench["tmp"] / "run1" / f"{slug}.shex").read_bytes()
            second = (bench["tmp"] / "run2" / f"{slug}.shex").read_bytes()
            assert first == second

    def test_each_class_is_canonicalized_once(self, bench, monkeypatch):
        """The global setting assembles plain schemas, and the writer
        canonicalizes each class's schema once, as it writes the file."""
        calls = TestEvaluate._record_canonicalizations(monkeypatch)
        code, _ = generate_stubbed(bench)
        assert code == EXIT_OK
        assert Counter(schema.focus_class for schema in calls) == {Iri(uri): 1 for uri in BENCHMARK_CLASSES}

    def test_transcripts_replay_as_stubs(self, bench):
        """A replay writes no stubs of its own; its schemas and sidecars are
        byte-identical to the recording's."""
        generate_stubbed(bench, out_name="recorded")
        stub_dir = bench["tmp"] / "recorded" / "transcripts"
        assert list(stub_dir.glob("*.json"))
        code, report = cmd_generate(
            bench["manifest"], bench["tmp"] / "replayed", bench["cache"], "global",
            stub_dir=stub_dir, transport_factory=bench["factory"],
        )
        assert code == EXIT_OK
        replayed = bench["tmp"] / "replayed"
        assert not (replayed / "transcripts").exists()
        names = sorted(path.name for path in replayed.iterdir())
        assert len(names) == 2 * len(BENCHMARK_CLASSES)
        for name in names:
            assert (replayed / name).read_bytes() == (bench["tmp"] / "recorded" / name).read_bytes()

    def test_recording_writes_one_stub_per_exchange(self, bench):
        generate_stubbed(bench, out_name="recorded")
        expected = {}
        for sidecar in (bench["tmp"] / "recorded").glob("*.transcript.json"):
            for exchange in json.loads(sidecar.read_text(encoding="utf-8"))["exchanges"]:
                expected[f"{prompt_hash(exchange['messages'])}.json"] = json.dumps(
                    exchange, indent=2, ensure_ascii=False).encode("utf-8")
        stub_dir = bench["tmp"] / "recorded" / "transcripts"
        assert expected
        assert {path.name: path.read_bytes() for path in stub_dir.iterdir()} == expected

    def test_replay_into_the_recording_leaves_stubs_untouched(self, bench):
        recorded = bench["tmp"] / "recorded"
        generate_stubbed(bench, out_name="recorded")
        stubs = {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in (recorded / "transcripts").iterdir()}
        code, _ = cmd_generate(
            bench["manifest"], recorded, bench["cache"], "global",
            stub_dir=recorded / "transcripts", transport_factory=bench["factory"],
        )
        assert code == EXIT_OK
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in (recorded / "transcripts").iterdir()} == stubs

    @pytest.mark.parametrize("content", ["{}", "[1, 2]", '{"reply": 3}'])
    def test_malformed_stub_fails_its_class(self, bench, content):
        recorded = bench["tmp"] / "recorded"
        generate_stubbed(bench, out_name="recorded")
        first = json.loads((recorded / "Q33506.transcript.json").read_text(encoding="utf-8"))["exchanges"][0]
        stub = recorded / "transcripts" / f"{prompt_hash(first['messages'])}.json"
        stub.write_text(content, encoding="utf-8")
        code, report = cmd_generate(
            bench["manifest"], bench["tmp"] / "replayed", bench["cache"], "global",
            stub_dir=recorded / "transcripts", transport_factory=bench["factory"],
        )
        assert code == EXIT_PARTIAL
        statuses = {r["class_uri"]: r["status"] for r in report["classes"]}
        assert statuses == {WD + "Q4220917": "ok", WD + "Q33506": "failed", WD + "Q1248784": "ok"}
        (failed,) = [r for r in report["classes"] if r["status"] == "failed"]
        assert f"malformed stub file {stub}" in failed["error"]

    def test_unreadable_stub_fails_its_class(self, bench):
        recorded = bench["tmp"] / "recorded"
        generate_stubbed(bench, out_name="recorded")
        first = json.loads((recorded / "Q33506.transcript.json").read_text(encoding="utf-8"))["exchanges"][0]
        stub = recorded / "transcripts" / f"{prompt_hash(first['messages'])}.json"
        stub.unlink()
        stub.mkdir()
        code, report = cmd_generate(
            bench["manifest"], bench["tmp"] / "replayed", bench["cache"], "global",
            stub_dir=recorded / "transcripts", transport_factory=bench["factory"],
        )
        assert code == EXIT_PARTIAL
        statuses = {r["class_uri"]: r["status"] for r in report["classes"]}
        assert statuses == {WD + "Q4220917": "ok", WD + "Q33506": "failed", WD + "Q1248784": "ok"}
        (failed,) = [r for r in report["classes"] if r["status"] == "failed"]
        assert f"cannot read stub file {stub}" in failed["error"]

    def test_network_failure_is_an_error(self, bench):
        from shexbench.kginfo import EndpointError

        def broken(cfg):
            def transport(query):
                raise EndpointError("connection refused")
            return transport

        code, report = cmd_generate(bench["manifest"], bench["tmp"] / "net", bench["cache"], "global",
                                    llm_client=benchmark_rule_client(), transport_factory=broken)
        assert code == EXIT_NETWORK
        assert [r["status"] for r in report["classes"]] == ["error"] * 3
        assert all("connection refused" in r["error"] for r in report["classes"])

    def test_provider_failure_fails_each_class(self, bench, monkeypatch):
        monkeypatch.setenv("SHEXBENCH_API_KEY", "test-key")
        with LoopbackServer((503, "overloaded")) as provider:
            code, report = cmd_generate(bench["manifest"], bench["tmp"] / "live", bench["cache"], "global",
                                        provider_url=provider.url, model="some-model",
                                        transport_factory=bench["factory"])
        assert code == EXIT_PARTIAL
        assert [r["status"] for r in report["classes"]] == ["failed"] * 3
        assert all(r["error"].startswith("provider request failed: HTTP 503") for r in report["classes"])

    def test_missing_credentials_config_error(self, bench, monkeypatch):
        monkeypatch.delenv("SHEXBENCH_API_KEY", raising=False)
        with pytest.raises(ManifestError, match="credential"):
            cmd_generate(
                bench["manifest"], bench["tmp"] / "live", bench["cache"], "global",
                provider_url="https://provider.example.org/v1/chat", model="some-model",
                transport_factory=bench["factory"],
            )

    def test_partial_failure_keeps_batch_going(self, bench):
        client = benchmark_rule_client()
        client.cardinality_replies[WDT + "P238"] = "junk"  # airport loses a predicate
        client.node_replies[WDT + "P17"] = "junk"          # P17 never validates anywhere
        code, report = generate_stubbed(bench, out_name="partial", llm_client=client)
        statuses = {r["class_uri"]: r["status"] for r in report["classes"]}
        # award and museum lose P17 but still emit schemas; the airport class
        # has nothing left and fails without aborting the batch
        assert statuses[WD + "Q4220917"] == "ok"
        assert statuses[WD + "Q33506"] == "ok"
        assert statuses[WD + "Q1248784"] == "failed"
        assert code == EXIT_PARTIAL
        schema = parse_shexc((bench["tmp"] / "partial" / "Q33506.shex").read_text())
        predicates = {c.predicate.value for c in schema.start_shape.constraints}
        assert WDT + "P17" not in predicates

    def test_triples_offline_replay_after_extract(self, bench):
        cmd_extract(bench["manifest"], bench["cache"], "triples", transport_factory=bench["factory"])
        replies = [e.ground_truth_path.read_text() for e in load_manifest(bench["manifest"]).entries]
        code, report = cmd_generate(
            bench["manifest"], bench["tmp"] / "triples", bench["cache"], "triples", offline=True,
            llm_client=ScriptedLlmClient(replies), transport_factory=bench["factory"],
        )
        assert [r["status"] for r in report["classes"]] == ["ok"] * 3
        assert code == EXIT_OK

    def test_missing_stub_reply_fails_per_class(self, bench):
        (bench["tmp"] / "no-stubs").mkdir()
        code, report = cmd_generate(
            bench["manifest"], bench["tmp"] / "nostub", bench["cache"], "global",
            stub_dir=bench["tmp"] / "no-stubs", transport_factory=bench["factory"],
        )
        assert code == EXIT_PARTIAL
        assert len(report["classes"]) == 3
        for entry in report["classes"]:
            assert entry["status"] == "failed"
            assert "no recorded reply" in entry["error"]

    def test_local_setting_generation(self, bench, museum_text):
        code, report = cmd_generate(
            bench["manifest"], bench["tmp"] / "local", bench["cache"], "local",
            classes=["museum"], llm_client=ScriptedLlmClient([museum_text]),
            transport_factory=bench["factory"],
        )
        assert code == EXIT_OK
        schema = parse_shexc((bench["tmp"] / "local" / "Q33506.shex").read_text())
        assert schema.focus_class == Iri(WD + "Q33506")


class TestEvaluate:
    def _copy_ground_truth(self, bench, dirname="asgen"):
        out = bench["tmp"] / dirname
        out.mkdir(exist_ok=True)
        manifest = load_manifest(bench["manifest"])
        for entry in manifest.entries:
            (out / f"{entry.slug}.shex").write_text(entry.ground_truth_path.read_text())
        return out

    def test_ground_truth_self_evaluation(self, bench):
        generated = self._copy_ground_truth(bench)
        code, doc = cmd_evaluate(bench["manifest"], generated, "all", setting="gt", model_id="identity")
        assert code == EXIT_OK
        assert doc["n_valid"] == 3
        for metrics in doc["aggregate"].values():
            assert (metrics["precision"], metrics["recall"], metrics["f1"]) == (1.0, 1.0, 1.0)
        assert doc["mean_ged"] == 0.0
        assert doc["mean_nged"] == 0.0
        breakdown = doc["error_breakdown"]
        assert breakdown["correct"] == sum(breakdown.values())

    def test_generated_schemas_evaluate(self, bench):
        generate_stubbed(bench, out_name="gen")
        code, doc = cmd_evaluate(
            bench["manifest"], bench["tmp"] / "gen", "all", setting="global", model_id="stub"
        )
        assert code == EXIT_OK
        exact = doc["aggregate"]["node=exact,card=exact"]
        loosened = doc["aggregate"]["node=exact,card=loosened"]
        assert loosened["f1"] >= exact["f1"]
        assert doc["records"][0]["reports"]

    def test_one_tree_distance_per_class(self, bench, monkeypatch):
        from shexbench import treedist

        generate_stubbed(bench, out_name="gen")
        calls = []
        original = treedist.tree_edit_distance
        monkeypatch.setattr(treedist, "tree_edit_distance", lambda *args: calls.append(args) or original(*args))
        code, doc = cmd_evaluate(bench["manifest"], bench["tmp"] / "gen", "all")
        assert code == EXIT_OK and doc["n_valid"] == 3
        assert len(calls) == 3

    def test_schema_distances_skip_zhang_shasha(self, bench, monkeypatch):
        from shexbench import treedist

        def no_zhang_shasha(*args):
            raise AssertionError("Zhang-Shasha reached")

        generate_stubbed(bench, out_name="gen")
        monkeypatch.setattr(treedist, "_zhang_shasha", no_zhang_shasha)
        code, doc = cmd_evaluate(bench["manifest"], bench["tmp"] / "gen", "all")
        assert code == EXIT_OK and doc["n_valid"] == 3

    @staticmethod
    def _record_canonicalizations(monkeypatch) -> list:
        """The schemas given to ``canonicalize`` through every module's binding, as they come."""
        from shexbench import cardml, cli, generate, matching, model, shexc, treedist

        calls = []
        for module in (cli, cardml, generate, matching, model, shexc, treedist):
            if "canonicalize" in vars(module):
                original = module.canonicalize
                monkeypatch.setattr(module, "canonicalize",
                                    lambda *args, _original=original, **kwargs:
                                    calls.append(args[0]) or _original(*args, **kwargs))
        return calls

    def test_two_canonicalizations_per_class_whose_typing_classes_agree(self, bench, monkeypatch):
        """Every shape is typed through wdt:P31 alone, so the entry's typing
        predicate and the default ones give one canonical form, which scoring
        and GED share."""
        generate_stubbed(bench, out_name="gen")
        calls = self._record_canonicalizations(monkeypatch)
        code, doc = cmd_evaluate(bench["manifest"], bench["tmp"] / "gen", "all")
        assert code == EXIT_OK and doc["n_valid"] == 3
        assert Counter(schema.focus_class for schema in calls) == {Iri(uri): 2 for uri in BENCHMARK_CLASSES}

    def test_two_canonicalizations_when_typing_classes_differ(self, bench, monkeypatch):
        """Each class is scored against its own ground truth.  The museum's
        start shape is typed through rdf:type before wdt:P31, with another
        class: the default typing predicates read rdf:type, the entry's reads
        wdt:P31.  GED still reuses the forms scoring canonicalized, and every
        score is still ``evaluate_criteria``'s and ``ged_and_nged``'s."""
        from shexbench.matching import StaticSubclassOracle, evaluate_criteria
        from shexbench.treedist import ged_and_nged

        museum = load_manifest(bench["manifest"]).select(["museum"])[0]
        museum.ground_truth_path.write_text(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
            + museum.ground_truth_path.read_text().replace("{\n  wdt:P31 [ wd:Q33506 ]",
                                                           "{\n  rdf:type [ wd:Q5 ] ;\n  wdt:P31 [ wd:Q33506 ]", 1))
        generated = self._copy_ground_truth(bench)
        calls = self._record_canonicalizations(monkeypatch)
        code, doc = cmd_evaluate(bench["manifest"], generated, "all")
        monkeypatch.undo()
        assert code == EXIT_OK and doc["n_valid"] == 3
        assert Counter(schema.focus_class for schema in calls) == {Iri(uri): 2 for uri in BENCHMARK_CLASSES}
        for record in doc["records"]:
            entry = load_manifest(bench["manifest"]).select([record["class_uri"]])[0]
            gen = parse_shexc((generated / f"{entry.slug}.shex").read_text(), focus_class=entry.class_uri)
            gt = entry.ground_truth
            assert [record["ged"], record["nged"]] == list(ged_and_nged(gen, gt))
            reports = evaluate_criteria(gen, gt, oracle=StaticSubclassOracle(),
                                        typing_predicates=(entry.typing_predicate,))
            assert {key: report["matched_count"] for key, report in record["reports"].items()} == {
                criteria.key(): report.matched_count for criteria, report in reports.items()}

    def test_invalid_file_flagged_and_excluded(self, bench):
        generated = self._copy_ground_truth(bench, "broken")
        (generated / "Q33506.shex").write_text("PREFIX broken")
        code, doc = cmd_evaluate(bench["manifest"], generated, "all")
        assert code == EXIT_PARSE
        assert doc["n_invalid"] == 1
        assert doc["n_valid"] == 2
        assert doc["invalid"][0]["class_uri"] == WD + "Q33506"
        for metrics in doc["aggregate"].values():
            assert metrics["n"] == 2

    def test_duplicate_value_file_is_invalid(self, bench):
        generated = self._copy_ground_truth(bench, "duplicates")
        (generated / "Q33506.shex").write_text(f"<S> {{ <{WDT}P17> [ true true ] }}")
        code, doc = cmd_evaluate(bench["manifest"], generated, "all")
        assert code == EXIT_PARSE
        assert doc["n_valid"] == 2
        (invalid,) = doc["invalid"]
        assert invalid["class_uri"] == WD + "Q33506"
        assert invalid["message"].startswith("line 1 col 56: duplicate value true in value set")

    def test_missing_file_is_invalid(self, bench):
        generated = self._copy_ground_truth(bench, "incomplete")
        (generated / "Q33506.shex").unlink()
        code, doc = cmd_evaluate(bench["manifest"], generated, "all")
        assert code == EXIT_PARSE
        assert any("no generated schema" in (r["message"] or "") for r in doc["records"])

    def test_criteria_subset_and_formats(self, bench, tmp_path):
        generated = self._copy_ground_truth(bench)
        out = tmp_path / "results.md"
        code, doc = cmd_evaluate(
            bench["manifest"], generated, "node=exact,card=exact;node=datatype,card=loosened",
            out=out, fmt="md",
        )
        assert code == EXIT_OK
        assert len(doc["aggregate"]) == 2
        text = out.read_text()
        assert "| P | R | F1 |" in text
        code, _ = cmd_evaluate(bench["manifest"], generated, "all", out=tmp_path / "r.csv", fmt="csv")
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header.startswith("class_uri,criteria,precision")

    def test_subclass_oracle_file(self, bench, tmp_path):
        generated = self._copy_ground_truth(bench)
        oracle_file = tmp_path / "oracle.json"
        oracle_file.write_text(json.dumps({
            "subclass_of": {WD + "Q6256": [WD + "Q56061"]},
            "value_types": {WDT + "P17": [WD + "Q6256"]},
        }))
        code, doc = cmd_evaluate(
            bench["manifest"], generated, "node=subclass,card=exact", subclass_file=oracle_file
        )
        assert code == EXIT_OK
        assert doc["aggregate"]["node=subclass,card=exact"]["f1"] == 1.0

    def test_subclass_oracle_file_is_read_once(self, bench, tmp_path, monkeypatch):
        from shexbench import cli

        generated = self._copy_ground_truth(bench)
        oracle_file = tmp_path / "oracle.json"
        oracle_file.write_text(json.dumps({"subclass_of": {WD + "Q6256": [WD + "Q56061"]}}))
        loads = []
        original = cli.load_subclass_oracle
        monkeypatch.setattr(cli, "load_subclass_oracle", lambda path: loads.append(path) or original(path))
        code, doc = cmd_evaluate(bench["manifest"], generated, "node=subclass,card=exact",
                                 subclass_file=oracle_file, jobs=2)
        assert code == EXIT_OK and doc["n_valid"] == 3
        assert loads == [oracle_file]

    def test_unreachable_subclass_oracle_is_a_class_error(self, bench):
        from shexbench.kginfo import EndpointError

        def broken(cfg):
            def transport(query):
                raise EndpointError("connection refused")
            return transport

        generated = self._copy_ground_truth(bench, "other-country")
        museum = generated / "Q33506.shex"
        # only a class pair that differs asks the oracle
        museum.write_text(museum.read_text().replace("wd:Q6256", "wd:Q56061"))
        code, doc = cmd_evaluate(bench["manifest"], generated, "node=subclass,card=exact",
                                 cache_dir=bench["tmp"] / "cache", transport_factory=broken)
        assert code == EXIT_NETWORK
        statuses = {r["class_uri"]: r["status"] for r in doc["records"]}
        assert statuses == {WD + "Q4220917": "ok", WD + "Q33506": "error", WD + "Q1248784": "ok"}
        assert doc["invalid"] == [{"class_uri": WD + "Q33506", "message": "connection refused"}]

    @pytest.mark.parametrize(
        "content",
        [None, '{"subclass_of": {', "[]", '{"subclass_of": {"a": "b"}}', '{"value_types": []}', _NESTED],
        ids=["missing-file", "truncated", "not-an-object", "parents-not-a-list", "table-not-an-object", "nested"],
    )
    def test_unloadable_subclass_file_is_a_config_error(self, bench, tmp_path, capsys, content):
        generated = self._copy_ground_truth(bench)
        oracle_file = tmp_path / "oracle.json"
        if content is not None:
            oracle_file.write_text(content)
        code = main(["evaluate", "--manifest", str(bench["manifest"]), "--generated-dir", str(generated),
                     "--subclass-file", str(oracle_file)])
        assert code == EXIT_CONFIG
        assert "cannot load --subclass-file" in capsys.readouterr().err


class TestReportAndTrain:
    def test_report_tables(self, bench, tmp_path):
        generated = TestEvaluate()._copy_ground_truth(bench)
        results = tmp_path / "eval.json"
        cmd_evaluate(bench["manifest"], generated, "all", out=results, fmt="json",
                     setting="global", model_id="identity")
        code, text = cmd_report([results], fmt="md")
        assert code == EXIT_OK
        assert "| identity | global |" in text
        assert "Error distribution" in text
        assert "| 100.0 | 0.0 | 0.0 | 0.0 | 0.0 |" in text
        code, csv_text = cmd_report([results], fmt="csv")
        assert csv_text.splitlines()[0].startswith("model_id,setting,criteria")

    def test_csv_rows_have_the_header_length(self, bench, tmp_path):
        """Criteria keys hold a comma and a model id may hold a comma and a
        quote: both CSV outputs quote them, so every row parses to the
        header's fields and the id reads back as written."""
        generated = TestEvaluate()._copy_ground_truth(bench)
        (generated / "Q33506.shex").unlink()  # a row with no reports
        model_id = 'a,"b'
        results = tmp_path / "eval.json"
        cmd_evaluate(bench["manifest"], generated, "all", out=results, model_id=model_id)
        cmd_evaluate(bench["manifest"], generated, "all", out=tmp_path / "eval.csv", fmt="csv")
        _, report_text = cmd_report([results], fmt="csv")
        for text in ((tmp_path / "eval.csv").read_text(encoding="utf-8"), report_text):
            assert "\r" not in text
            header, *rows = csv.reader(io.StringIO(text))
            assert rows and all(len(row) == len(header) for row in rows)
        evaluation = list(csv.DictReader(io.StringIO((tmp_path / "eval.csv").read_text(encoding="utf-8"))))
        assert {row["criteria"] for row in evaluation} == {c.key() for c in ALL_CRITERIA} | {""}
        assert {row["model_id"] for row in csv.DictReader(io.StringIO(report_text))} == {model_id}

    def test_train_cardinality(self, bench, tmp_path):
        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        model_path = tmp_path / "model.json"
        features_path = tmp_path / "features.csv"
        code, report = cmd_train_cardinality(
            bench["manifest"], bench["cache"], model_path, kind="dt",
            transport_factory=bench["factory"], dump_features=features_path,
        )
        assert code == EXIT_OK
        assert model_path.exists()
        assert report["rows"] >= 9  # 3 classes x (typing + predicates)
        assert set(report["classes"]) == set(BENCHMARK_CLASSES)
        assert report["train_accuracy"]["combined"] <= min(
            report["train_accuracy"]["min"], report["train_accuracy"]["max"]
        ) + 1e-12
        assert features_path.read_text().startswith("class_uri,predicate_uri,frequency")

    def test_online_train_asks_only_for_what_its_features_read(self, bench, tmp_path):
        """On a cold cache, train fetches no labels, descriptions or triple
        examples: its features read none of them."""
        from shexbench.kginfo import description_query, triple_examples_query

        unread = {template(*args).split("\n", 1)[0] for template, args in [
            (label_query, (Iri(WD + "Q1"),)),
            (description_query, (Iri(WD + "Q1"), Iri(WD + "P1"))),
            (triple_examples_query, (Iri(WD + "Q1"), Iri(WDT + "P1"), Iri(WDT + "P31"))),
        ]}
        code, report = cmd_train_cardinality(bench["manifest"], bench["cache"], tmp_path / "model.json", kind="dt",
                                             transport_factory=bench["factory"])
        assert code == EXIT_OK and report["rows"] == 12
        sent = {query.split("\n", 1)[0] for query in bench["endpoint"].request_log}
        assert sent and not sent & unread

    def test_train_on_a_local_cache_logs_once_per_degraded_row(self, bench, tmp_path, caplog):
        """A local-setting cache holds none of the global parts train reads:
        each row's record logs one warning naming all three parts."""
        cmd_extract(bench["manifest"], bench["cache"], "local", transport_factory=bench["factory"])
        with caplog.at_level("WARNING", logger="shexbench"):
            code, report = cmd_train_cardinality(bench["manifest"], bench["cache"], tmp_path / "model.json",
                                                 kind="dt", offline=True)
        assert code == EXIT_OK and report["rows"] == 12
        warnings = [r.getMessage() for r in caplog.records if r.name == "shexbench.kginfo"]
        assert len(warnings) == len(set(warnings)) == report["rows"]
        assert all(w.startswith("cardinality distribution, object profiles, value-type constraints unavailable for ")
                   for w in warnings)

    def test_train_sampling_reports_ids(self, bench, tmp_path):
        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        code, report = cmd_train_cardinality(
            bench["manifest"], bench["cache"], tmp_path / "m.json", kind="dt",
            sample_n=2, seed=7, transport_factory=bench["factory"],
        )
        assert code == EXIT_OK
        assert len(report["classes"]) == 2


class TestHybridWiring:
    def test_ml_swap_changes_only_cardinalities(self, bench, tmp_path):
        from shexbench.cardml import train
        from support import synthetic_cardinality_rows

        generate_stubbed(bench, out_name="llm_run")
        model = train("dt", synthetic_cardinality_rows(200, seed=7), seed=42)
        code, _ = cmd_generate(
            bench["manifest"], bench["tmp"] / "ml_run", bench["cache"], "global",
            llm_client=benchmark_rule_client(), transport_factory=bench["factory"],
            model_file=_saved(model, tmp_path),
        )
        assert code == EXIT_OK
        differences = 0
        for class_uri in BENCHMARK_CLASSES:
            slug = class_uri.rsplit("/", 1)[-1]
            llm_schema = canonicalize(parse_shexc((bench["tmp"] / "llm_run" / f"{slug}.shex").read_text()))
            ml_schema = canonicalize(parse_shexc((bench["tmp"] / "ml_run" / f"{slug}.shex").read_text()))
            llm_constraints = {c.predicate: c for c in llm_schema.start_shape.constraints}
            ml_constraints = {c.predicate: c for c in ml_schema.start_shape.constraints}
            assert set(llm_constraints) == set(ml_constraints)
            for predicate, llm_constraint in llm_constraints.items():
                ml_constraint = ml_constraints[predicate]
                assert llm_constraint.node_constraint == ml_constraint.node_constraint
                if llm_constraint.cardinality != ml_constraint.cardinality:
                    differences += 1
        assert differences > 0


    @pytest.mark.parametrize(
        "content",
        ['{"kind": "rf"}', '{"kind": "gb", "seed": 1}', '{"kind": "gb", "min_model"', None,
         json.dumps({"kind": "dt", "seed": 0, "params": {}, "feature_names": [],
                     "min_model": {"max_depth": 1, "min_leaf": 1, "root": {"samples": 3}},
                     "max_model": {"max_depth": 1, "min_leaf": 1, "root": {"leaf": True, "prediction": 1}}}),
         json.dumps({"kind": "dt", "seed": 0, "params": {}, "feature_names": list(FEATURE_NAMES)[::-1],
                     "min_model": {"max_depth": 1, "min_leaf": 1, "root": {"leaf": True, "prediction": 0}},
                     "max_model": {"max_depth": 1, "min_leaf": 1, "root": {"leaf": True, "prediction": 1}}}),
         _NESTED],
        ids=["unknown-kind", "missing-key", "truncated", "missing-file", "node-without-leaf",
             "reversed-feature-names", "nested"],
    )
    def test_unloadable_model_file_is_a_config_error(self, bench, tmp_path, content):
        model_file = tmp_path / "model.json"
        if content is not None:
            model_file.write_text(content)
        with pytest.raises(ManifestError, match="cannot load --model-file"):
            cmd_generate(
                bench["manifest"], bench["tmp"] / "ml_run", bench["cache"], "global",
                llm_client=benchmark_rule_client(), transport_factory=bench["factory"],
                model_file=model_file,
            )

    @pytest.mark.parametrize("learning_rate", ["0.1", True], ids=["string", "boolean"])
    def test_non_numeric_learning_rate_is_a_config_error(self, bench, tmp_path, capsys, learning_rate):
        """A boosted model whose learning rate is not a number fails to load:
        exit 2 naming the file, not a traceback once prediction starts."""
        from shexbench.cardml import train
        from support import synthetic_cardinality_rows

        generate_stubbed(bench, out_name="recorded")
        doc = json.loads(train("gb", synthetic_cardinality_rows(60, seed=7), seed=42).to_json())
        doc["min_model"]["learning_rate"] = learning_rate
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc))
        code = main(["generate", "--manifest", str(bench["manifest"]), "--cache-dir", str(bench["cache"]),
                     "--out-dir", str(bench["tmp"] / "out"), "--offline",
                     "--stub-dir", str(bench["tmp"] / "recorded" / "transcripts"),
                     "--model-file", str(model_file)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"cannot load --model-file {model_file}" in err and "learning_rate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["dt", "gb"])
    def test_the_model_file_kind_is_the_reported_cardinality(self, bench, tmp_path, kind):
        from shexbench.cardml import train
        from support import synthetic_cardinality_rows

        model_file = _saved(train(kind, synthetic_cardinality_rows(60, seed=7), seed=42), tmp_path)
        code, report = generate_stubbed(bench, out_name="ml_run", model_file=model_file)
        assert (code, report["cardinality"]) == (EXIT_OK, kind)
        _, report = generate_stubbed(bench, out_name="llm_run")
        assert report["cardinality"] == "llm"

    @pytest.mark.parametrize("setting", ["local", "triples"])
    def test_model_file_needs_the_global_setting(self, bench, tmp_path, capsys, setting):
        """A trained model replaces the global setting's first step only: with
        another setting the command stops before any lookup or request."""
        from shexbench.cardml import train
        from support import synthetic_cardinality_rows

        model_file = _saved(train("dt", synthetic_cardinality_rows(60, seed=7), seed=42), tmp_path)
        client = benchmark_rule_client()
        with pytest.raises(ManifestError, match=f"^--model-file needs --setting global, got --setting {setting}$"):
            cmd_generate(bench["manifest"], tmp_path / "out", bench["cache"], setting, llm_client=client,
                         transport_factory=bench["factory"], model_file=model_file)
        assert (bench["endpoint"].request_count, client.sent) == (0, [])
        code = main(["generate", "--manifest", str(bench["manifest"]), "--cache-dir", str(bench["cache"]),
                     "--out-dir", str(tmp_path / "out"), "--offline", "--stub-dir", str(tmp_path),
                     "--setting", setting, "--model-file", str(model_file)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (f"configuration error: --model-file needs --setting global, "
                                           f"got --setting {setting}\n")
        assert not bench["cache"].exists() and not (tmp_path / "out").exists()

    def test_cardinality_option_is_gone(self, bench, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--manifest", str(bench["manifest"]), "--cache-dir", str(bench["cache"]),
                  "--out-dir", str(tmp_path / "out"), "--stub-dir", str(tmp_path), "--cardinality", "gb"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --cardinality gb" in capsys.readouterr().err


def _saved(model, tmp_path):
    path = tmp_path / "model.json"
    model.save(path)
    return path


class TestMainEntry:
    def test_extract_via_argv_config_error(self, tmp_path, capsys):
        code = main(["extract", "--manifest", str(tmp_path / "missing.json"),
                     "--cache-dir", str(tmp_path / "c")])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv", "md"])
    def test_evaluate_renders_once_on_stdout(self, bench, capsys, monkeypatch, fmt):
        from shexbench import cli

        generated = TestEvaluate()._copy_ground_truth(bench)
        rendered = []
        render = cli._render_evaluation
        monkeypatch.setattr(cli, "_render_evaluation",
                            lambda doc, fmt: rendered.append(render(doc, fmt)) or rendered[-1])
        code = main(["evaluate", "--manifest", str(bench["manifest"]), "--generated-dir", str(generated),
                     "--format", fmt])
        assert code == EXIT_OK and len(rendered) == 1
        assert capsys.readouterr().out == rendered[0]

    def test_unknown_format_fails_before_any_generated_file_is_read(self, bench, monkeypatch):
        from shexbench import cli

        generated = TestEvaluate()._copy_ground_truth(bench)
        read = []
        monkeypatch.setattr(cli, "_read_generated", lambda path: read.append(path) or path.read_text())
        with pytest.raises(ManifestError, match="^unknown format 'xml'$"):
            cmd_evaluate(bench["manifest"], generated, "all", out=bench["tmp"] / "eval.xml", fmt="xml")
        assert read == []
        assert not (bench["tmp"] / "eval.xml").exists()

    def test_report_via_argv(self, bench, tmp_path, capsys):
        generated = TestEvaluate()._copy_ground_truth(bench)
        results = tmp_path / "eval.json"
        cmd_evaluate(bench["manifest"], generated, "all", out=results, fmt="json")
        code = main(["report", str(results)])
        assert code == EXIT_OK
        assert "| Model | Setting |" in capsys.readouterr().out


class TestCorruptCache:
    def test_train_exits_with_the_corrupt_file_named(self, bench, tmp_path, capsys):
        from shexbench.kginfo import frequency_query

        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        # train reads each class's frequency table (its features need it) and no labels
        query = frequency_query(Iri(WD + "Q4220917"), Iri(WDT + "P31"))
        frequency_file = bench["cache"] / f"{cache_key(query, 'https://fake.example.org/sparql')}.json"
        frequency_file.write_text(frequency_file.read_text()[:30])
        code = main(["train-cardinality", "--manifest", str(bench["manifest"]), "--cache-dir", str(bench["cache"]),
                     "--out", str(tmp_path / "model.json"), "--kind", "dt", "--offline"])
        assert code == EXIT_NETWORK
        assert f"corrupt cache file {frequency_file}" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


class TestGroundTruthParsing:
    """Only ``evaluate`` and ``train-cardinality`` read ground truth: each
    selected file once, and all of them before any class runs."""

    #: The class that runs last (class-URI order), and one in the middle.
    LAST, MUSEUM = WD + "Q4220917", WD + "Q33506"

    @pytest.fixture()
    def parsed(self, monkeypatch):
        """The texts given to ``cli.parse_shexc``, through which the ground
        truth and the generated schemas are parsed."""
        from shexbench import cli

        texts = []
        original = cli.parse_shexc
        monkeypatch.setattr(cli, "parse_shexc", lambda text, **kwargs: texts.append(text) or original(text, **kwargs))
        return texts

    @staticmethod
    def _break_ground_truth(bench, keep=()) -> Counter:
        """Overwrite every ground-truth file but those of ``keep`` with an
        invalid schema; the kept files' texts."""
        kept = Counter()
        for entry in load_manifest(bench["manifest"]).entries:
            if entry.class_uri.value in keep:
                kept[entry.ground_truth_path.read_text(encoding="utf-8")] += 1
            else:
                entry.ground_truth_path.write_text("not a schema", encoding="utf-8")
        return kept

    def test_extract_and_generate_parse_no_ground_truth(self, bench, parsed):
        self._break_ground_truth(bench)
        for setting in ("global", "local", "triples"):
            assert cmd_extract(bench["manifest"], bench["cache"], setting, transport_factory=bench["factory"])[0] == EXIT_OK
        assert generate_stubbed(bench)[0] == EXIT_OK
        assert parsed == []

    def test_evaluate_and_train_parse_each_file_once_before_any_class(self, bench, tmp_path, parsed):
        ground_truth = self._break_ground_truth(bench, keep=BENCHMARK_CLASSES)
        assert generate_stubbed(bench, out_name="gen")[0] == EXIT_OK
        generated = Counter(p.read_text(encoding="utf-8") for p in (bench["tmp"] / "gen").glob("*.shex"))
        assert sum(generated.values()) == 3
        parsed.clear()
        assert cmd_train_cardinality(bench["manifest"], bench["cache"], tmp_path / "dt.json", kind="dt",
                                     offline=True, transport_factory=bench["factory"])[0] == EXIT_OK
        assert Counter(parsed) == ground_truth
        parsed.clear()
        assert cmd_evaluate(bench["manifest"], bench["tmp"] / "gen", "all")[0] == EXIT_OK
        assert Counter(parsed[:3]) == ground_truth and Counter(parsed) == ground_truth + generated

    def test_class_parses_only_the_selected_file(self, bench, tmp_path, parsed):
        ground_truth = self._break_ground_truth(bench, keep=[self.MUSEUM])
        assert generate_stubbed(bench, out_name="gen", classes=["museum"])[0] == EXIT_OK
        parsed.clear()
        code, report = cmd_train_cardinality(bench["manifest"], bench["cache"], tmp_path / "dt.json", kind="dt",
                                             classes=["museum"], offline=True, transport_factory=bench["factory"])
        assert (code, report["classes"], Counter(parsed)) == (EXIT_OK, [self.MUSEUM], ground_truth)
        parsed.clear()
        code, doc = cmd_evaluate(bench["manifest"], bench["tmp"] / "gen", "all", classes=["museum"])
        assert (code, doc["n_valid"], parsed[0]) == (EXIT_OK, 1, next(iter(ground_truth)))
        assert len(parsed) == 2

    @pytest.mark.parametrize("fault", ["invalid", "missing"])
    @pytest.mark.parametrize("command", ["evaluate", "train-cardinality"])
    def test_bad_file_is_a_config_error_before_any_class(self, bench, tmp_path, capsys, monkeypatch, command, fault):
        """The last class's file is bad: no class runs and nothing is written."""
        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        generated = TestEvaluate()._copy_ground_truth(bench)
        (bad,) = [e.ground_truth_path for e in load_manifest(bench["manifest"]).entries if e.class_uri.value == self.LAST]
        if fault == "invalid":
            bad.write_text("not a schema", encoding="utf-8")
        else:
            bad.unlink()
        ran = []
        monkeypatch.setattr(KgClient, "__init__", lambda *args, **kwargs: ran.append(args))
        out = tmp_path / "out.json"
        argv = {
            "evaluate": ["evaluate", "--generated-dir", str(generated), "--cache-dir", str(bench["cache"])],
            "train-cardinality": ["train-cardinality", "--cache-dir", str(bench["cache"]), "--kind", "dt", "--offline"],
        }[command]
        code = main([*argv, "--manifest", str(bench["manifest"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith(f"configuration error: ground truth {bad} invalid: ")
        assert (captured.out, ran, out.exists()) == ("", [], False)


class TestCorruptCacheInGenerate:
    """A corrupt cache file is a class ``error`` (exit 3) in generate, as in
    extract; an offline miss still outranks it, and it outranks ``failed``."""

    @pytest.mark.parametrize("also, expected_code", [
        (None, EXIT_NETWORK),
        ("failed", EXIT_NETWORK),
        ("cache_miss", EXIT_CACHE_MISS),
    ])
    def test_truncated_label_file_is_an_error(self, bench, also, expected_code):
        from shexbench.kginfo import cache_key, label_query

        award, museum, airport = WD + "Q4220917", WD + "Q33506", WD + "Q1248784"
        warmed = ["film award", "museum"] if also == "cache_miss" else None
        cmd_extract(bench["manifest"], bench["cache"], "global", classes=warmed, transport_factory=bench["factory"])
        label_file = bench["cache"] / f"{cache_key(label_query(Iri(award)), 'https://fake.example.org/sparql')}.json"
        label_file.write_text(label_file.read_text()[:30])
        client = benchmark_rule_client()
        if also == "failed":
            client.cardinality_replies[WDT + "P238"] = "junk"  # airport loses its only own predicate
            client.node_replies[WDT + "P17"] = "junk"
        code, report = cmd_generate(bench["manifest"], bench["tmp"] / "gen", bench["cache"], "global",
                                    offline=True, llm_client=client, transport_factory=bench["factory"])
        statuses = {r["class_uri"]: r["status"] for r in report["classes"]}
        assert statuses == {award: "error", museum: "ok", airport: also or "ok"}
        error = next(r["error"] for r in report["classes"] if r["class_uri"] == award)
        assert str(label_file) in error
        assert code == expected_code


class TestClassLevelLookupFailsOnce:
    """A class's instance count is read once, before its predicates: offline,
    with that cache file gone, generate reports one ``cache_miss`` for the
    class and train skips the class with one warning."""

    @staticmethod
    def _forget_award_count(bench) -> None:
        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        query = instance_count_query(Iri(WD + "Q4220917"), Iri(WDT + "P31"))
        (bench["cache"] / f"{cache_key(query, 'https://fake.example.org/sparql')}.json").unlink()

    def test_generate(self, bench, caplog):
        self._forget_award_count(bench)
        client = benchmark_rule_client()
        code, report = cmd_generate(bench["manifest"], bench["tmp"] / "gen", bench["cache"], "global",
                                    classes=["film award"], offline=True, llm_client=client,
                                    transport_factory=bench["factory"])
        assert (code, [r["status"] for r in report["classes"]]) == (EXIT_CACHE_MISS, ["cache_miss"])
        assert client.sent == []
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_train(self, bench, tmp_path, caplog):
        self._forget_award_count(bench)
        with caplog.at_level("WARNING"):
            code, report = cmd_train_cardinality(bench["manifest"], bench["cache"], tmp_path / "m.json", kind="dt",
                                                 offline=True, transport_factory=bench["factory"])
        assert code == EXIT_OK
        assert report["classes"] == [WD + "Q1248784", WD + "Q33506"]
        (warning,) = [r.getMessage() for r in caplog.records if "Q4220917" in r.getMessage()]
        assert warning.startswith(f"skipping {WD}Q4220917: offline cache miss")


def test_inconsistent_record_fails_its_class_before_any_llm_call(bench):
    """A cardinality count above the class's instance count makes the film
    award's last candidate record inconsistent: all of a class's lookups come
    before its first LLM call, so the class is an ``error`` and the LLM is
    never asked about the predicates before it."""
    award = WD + "Q4220917"

    def inflating(query):
        doc = bench["endpoint"](query)
        if "?cardinality" in query and f"<{award}>" in query and f"<{WDT}P856>" in query:
            doc = json.loads(json.dumps(doc))
            for row in doc["results"]["bindings"]:
                row["count"]["value"] = "99"
        return doc

    client = benchmark_rule_client()
    code, report = cmd_generate(bench["manifest"], bench["tmp"] / "gen", bench["cache"], "global",
                                classes=["film award"], llm_client=client, transport_factory=lambda cfg: inflating)
    (row,) = report["classes"]
    assert (code, row["status"]) == (EXIT_NETWORK, "error")
    assert f"inconsistent profile of {award} / {WDT}P856" in row["error"]
    assert client.sent == []


class TestMalformedDatatypeKey:
    """A ``?kind`` binding that is neither ``IRI``, ``bnode`` nor an IRI is a
    malformed results document: it fails its class (generate) or the command
    (train-cardinality, which has no per-class status) with exit 3 and a
    message naming the binding, as a corrupt cache file does."""

    def _corrupt_museum_kinds(self, bench) -> None:
        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        edited = 0
        for path in bench["cache"].glob("*.json"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            if "AS ?kind" in doc["query"] and f"<{MUSEUM}>" in doc["query"]:
                for row in doc["results_document"]["results"]["bindings"]:
                    row["kind"]["value"] = "not an iri"
                path.write_text(json.dumps(doc), encoding="utf-8")
                edited += 1
        assert edited

    def test_generate_fails_only_its_class(self, bench):
        self._corrupt_museum_kinds(bench)
        code, report = cmd_generate(bench["manifest"], bench["tmp"] / "gen", bench["cache"], "global",
                                    offline=True, llm_client=benchmark_rule_client())
        rows = {r["class_uri"]: r for r in report["classes"]}
        assert {uri: row["status"] for uri, row in rows.items()} == {
            uri: "error" if uri == MUSEUM else "ok" for uri in BENCHMARK_CLASSES}
        assert "?kind" in rows[MUSEUM]["error"] and "'not an iri'" in rows[MUSEUM]["error"]
        assert code == EXIT_NETWORK

    def test_train_exits_with_the_binding_named(self, bench, tmp_path, capsys):
        self._corrupt_museum_kinds(bench)
        code = main(["train-cardinality", "--manifest", str(bench["manifest"]), "--cache-dir", str(bench["cache"]),
                     "--out", str(tmp_path / "model.json"), "--kind", "dt", "--offline"])
        assert code == EXIT_NETWORK
        assert "error: ?kind binding is neither IRI, bnode nor a datatype IRI: 'not an iri'" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


MUSEUM = WD + "Q33506"


def test_unbound_result_variable_fails_only_its_class(bench):
    """A transport whose frequency rows for one class lack ``?count`` fails
    that class with ``error`` naming the variable; the others are unchanged."""
    from shexbench.kginfo import frequency_query

    museum_frequencies = " ".join(frequency_query(Iri(MUSEUM), Iri(WDT + "P31")).split())

    def dropping_count(query):
        doc = bench["endpoint"](query)
        if " ".join(query.split()) == museum_frequencies:
            doc = json.loads(json.dumps(doc))
            for row in doc["results"]["bindings"]:
                del row["count"]
        return doc

    _, clean = cmd_extract(bench["manifest"], bench["tmp"] / "clean", "global", transport_factory=bench["factory"])
    code, report = cmd_extract(bench["manifest"], bench["cache"], "global",
                               transport_factory=lambda cfg: dropping_count)
    assert code == EXIT_NETWORK
    rows = {r["class_uri"]: {k: v for k, v in r.items() if k != "seconds"} for r in report["classes"]}
    expected = {r["class_uri"]: {k: v for k, v in r.items() if k != "seconds"} for r in clean["classes"]}
    assert rows[MUSEUM]["status"] == "error"
    assert "?count" in rows[MUSEUM]["error"]
    assert {uri: row for uri, row in rows.items() if uri != MUSEUM} == \
        {uri: row for uri, row in expected.items() if uri != MUSEUM}
_READ_FAULTS = ("missing", "directory", "undecodable", "truncated", "nested")
_WRITE_FAULTS = ("directory", "enospc")
#: The museum's status and the exit code when the museum's own cache file is faulted.
_CACHE_READ = {"missing": ("cache_miss", EXIT_CACHE_MISS), "directory": ("error", EXIT_NETWORK),
               "undecodable": ("error", EXIT_NETWORK), "truncated": ("error", EXIT_NETWORK),
               "nested": ("error", EXIT_NETWORK)}


def _inject(target: Path, fault: str, monkeypatch) -> None:
    """Put ``fault`` at ``target``: remove the file, put a directory in its
    place, make its bytes undecodable, cut it short, replace it with a
    deeply nested JSON array, or fail the rename onto it as a full disk does."""
    if fault == "enospc":
        replace = os.replace

        def full_disk(src, dst, **kwargs):
            if Path(dst).name == target.name:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", full_disk)
        return
    data = target.read_bytes() if target.is_file() else b""
    target.unlink(missing_ok=True)
    if fault == "directory":
        target.mkdir(parents=True)
    elif fault == "undecodable":
        target.write_bytes(b"\xff\xfe" + data)
    elif fault == "truncated":
        target.write_bytes(data[:30])
    elif fault == "nested":
        target.write_text(_NESTED, encoding="utf-8")


def _fail_temp_file_open(target: Path, monkeypatch) -> None:
    """Fail the open of ``target``'s temp file as a directory in its place
    does.  A directory at a cache file's own path would fail the read that
    comes before the write."""
    open_file = os.open

    def opening(path, flags, *args, **kwargs):
        if os.path.basename(path).startswith(target.name + ".tmp"):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        return open_file(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", opening)


def _leftover_temp_files(root: Path) -> list[Path]:
    return [path for path in root.rglob("*") if ".tmp" in path.name]


class TestFaultMatrix:
    """Each fault at each I/O boundary fails only the class whose file it hits,
    with the status ``cli._STATUS_OF`` gives it, or, where the file belongs to
    the whole command, ends the command with that status's exit code; no run
    ends in a traceback or leaves a temp file behind."""

    def _warm(self, bench) -> dict:
        """A warm cache, a recorded generation of every class, and the clean
        offline extract report and evaluation to compare faulted runs against."""
        from shexbench.kginfo import cache_key, frequency_query

        tmp, factory = bench["tmp"], bench["factory"]
        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=factory)
        code, _ = cmd_generate(bench["manifest"], tmp / "recorded", bench["cache"], "global", offline=True,
                               llm_client=benchmark_rule_client())
        assert code == EXIT_OK
        _, extracted = cmd_extract(bench["manifest"], bench["cache"], "global", offline=True)
        _, evaluated = cmd_evaluate(bench["manifest"], tmp / "recorded", "all")
        first = json.loads((tmp / "recorded" / "Q33506.transcript.json").read_text(encoding="utf-8"))["exchanges"][0]
        # the museum's frequency table is read before any per-predicate lookup
        # and by no other class
        frequency = f"{cache_key(frequency_query(Iri(MUSEUM), Iri(WDT + 'P31')), 'https://fake.example.org/sparql')}.json"
        return {
            "extract": {r["class_uri"]: {k: v for k, v in r.items() if k != "seconds"} for r in extracted["classes"]},
            "evaluate": {r["class_uri"]: {k: v for k, v in r.items() if k != "timings"} for r in evaluated["records"]},
            "cache read": bench["cache"] / frequency,
            "cache write": tmp / "cold" / frequency,
            "shex": tmp / "gen" / "Q33506.shex",
            "sidecar": tmp / "gen" / "Q33506.transcript.json",
            "stub read": tmp / "recorded" / "transcripts" / f"{prompt_hash(first['messages'])}.json",
            "generated read": tmp / "recorded" / "Q33506.shex",
        }

    @pytest.mark.parametrize("command, boundary, fault, status, code, jobs", [
        *[("extract", "cache read", fault, *_CACHE_READ[fault], 1) for fault in _READ_FAULTS],
        *[("extract", "cache write", fault, "error", EXIT_NETWORK, 1) for fault in _WRITE_FAULTS],
        *[("generate", "cache read", fault, *_CACHE_READ[fault], 1) for fault in _READ_FAULTS],
        *[("generate", boundary, fault, "error", EXIT_NETWORK, 1)
          for boundary in ("shex", "sidecar") for fault in _WRITE_FAULTS],
        *[("generate", "stub read", fault, "failed", EXIT_PARTIAL, 1) for fault in _READ_FAULTS],
        *[("evaluate", "generated read", fault, "invalid", EXIT_PARSE, 1) for fault in _READ_FAULTS],
        ("generate", "shex", "directory", "error", EXIT_NETWORK, 3),
    ])
    def test_fault_fails_only_its_class(self, bench, monkeypatch, command, boundary, fault, status, code, jobs):
        tmp, factory = bench["tmp"], bench["factory"]
        warm = self._warm(bench)
        target = warm[boundary]
        if (boundary, fault) == ("cache write", "directory"):
            _fail_temp_file_open(target, monkeypatch)
        else:
            _inject(target, fault, monkeypatch)
        if command == "extract":
            cache = tmp / "cold" if boundary == "cache write" else bench["cache"]
            got, report = cmd_extract(bench["manifest"], cache, "global", offline=boundary == "cache read",
                                      jobs=jobs, transport_factory=factory)
            rows = {r["class_uri"]: r for r in report["classes"]}
            message = rows[MUSEUM].get("error")
            for class_uri, row in rows.items():
                if class_uri != MUSEUM:
                    assert {k: v for k, v in row.items() if k != "seconds"} == warm["extract"][class_uri]
        elif command == "generate":
            got, report = cmd_generate(bench["manifest"], tmp / "gen", bench["cache"], "global", offline=True,
                                       stub_dir=tmp / "recorded" / "transcripts", jobs=jobs,
                                       transport_factory=factory)
            rows = {r["class_uri"]: r for r in report["classes"]}
            message = rows[MUSEUM].get("error")
            for class_uri in BENCHMARK_CLASSES:
                slug = class_uri.rsplit("/", 1)[-1]
                if class_uri != MUSEUM:
                    for name in (f"{slug}.shex", f"{slug}.transcript.json"):
                        assert (tmp / "gen" / name).read_bytes() == (tmp / "recorded" / name).read_bytes()
        else:
            got, doc = cmd_evaluate(bench["manifest"], tmp / "recorded", "all", jobs=jobs)
            rows = {r["class_uri"]: r for r in doc["records"]}
            message = rows[MUSEUM]["message"]
            for class_uri, record in rows.items():
                if class_uri != MUSEUM:
                    assert {k: v for k, v in record.items() if k != "timings"} == warm["evaluate"][class_uri]
        assert {uri: row["status"] for uri, row in rows.items()} == {
            uri: status if uri == MUSEUM else "ok" for uri in BENCHMARK_CLASSES}
        assert got == code
        if fault == "missing":
            assert target.stem in message
        elif boundary != "generated read" or fault not in ("truncated", "nested"):  # a parse error gives positions
            assert str(target) in message
        if boundary in ("cache write", "shex", "sidecar"):
            assert f"cannot write {target}" in message
        assert _leftover_temp_files(tmp) == []

    @pytest.mark.parametrize("fault", _READ_FAULTS)
    def test_train_cache_read_fault(self, bench, monkeypatch, capsys, fault):
        """A cache miss skips the museum's rows, as any offline miss does; any
        other fault in a cache file ends training with the file named."""
        tmp = bench["tmp"]
        target = self._warm(bench)["cache read"]
        _inject(target, fault, monkeypatch)
        capsys.readouterr()
        code = main(["train-cardinality", "--manifest", str(bench["manifest"]), "--cache-dir", str(bench["cache"]),
                     "--out", str(tmp / "model.json"), "--kind", "dt", "--offline"])
        captured = capsys.readouterr()
        if fault == "missing":
            assert code == EXIT_OK
            assert set(json.loads(captured.out)["classes"]) == set(BENCHMARK_CLASSES) - {MUSEUM}
        else:
            assert code == EXIT_NETWORK
            assert f"error: cannot read cache file {target}" in captured.err or \
                f"error: corrupt cache file {target}" in captured.err
            assert not (tmp / "model.json").exists()
        assert _leftover_temp_files(tmp) == []

    @pytest.mark.parametrize("fault", _WRITE_FAULTS)
    @pytest.mark.parametrize("command", ["evaluate --out", "model file"])
    def test_command_output_write_fault(self, bench, monkeypatch, capsys, command, fault):
        tmp = bench["tmp"]
        self._warm(bench)
        common = ["--manifest", str(bench["manifest"])]
        if command == "evaluate --out":
            target = tmp / "evaluation.json"
            argv = ["evaluate", *common, "--generated-dir", str(tmp / "recorded"), "--out", str(target)]
        else:
            target = tmp / "model.json"
            argv = ["train-cardinality", *common, "--cache-dir", str(bench["cache"]), "--out", str(target),
                    "--kind", "dt", "--offline"]
        _inject(target, fault, monkeypatch)
        assert main(argv) == EXIT_NETWORK
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert not target.is_file()
        assert _leftover_temp_files(tmp) == []

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_unnamed_exception_propagates(self, bench, monkeypatch, jobs):
        """A failure ``_STATUS_OF`` does not name is a programming error, not a class status."""
        from shexbench import cli

        def broken(*args, **kwargs):
            raise ValueError("programming error")

        monkeypatch.setattr(cli, "generate_global", broken)
        with pytest.raises(ValueError, match="programming error"):
            generate_stubbed(bench, jobs=jobs)


SHARED_URL = "https://fake.example.org/sparql"


class _CountingTransport:
    """A thread-safe view of a :class:`FakeEndpoint` that counts the fetches
    of each normalized query and the peak number of calls in flight.  Every
    call takes a millisecond, and ``slow_query`` (if any) fifty, so that other
    classes ask for it while its fetch runs."""

    def __init__(self, endpoint, slow_query: str = ""):
        self.endpoint = endpoint
        self.slow = " ".join(slow_query.split())
        self.fetches: Counter = Counter()
        self.in_flight = self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, query: str) -> dict:
        normalized = " ".join(query.split())
        with self._lock:
            self.fetches[normalized] += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.05 if normalized == self.slow else 0.001)
            with self._lock:
                return self.endpoint(query)
        finally:
            with self._lock:
                self.in_flight -= 1


class TestSingleFlightAcrossClasses:
    """Under ``--jobs 8`` the classes of one endpoint share one cache store:
    a key that all 8 classes look up is fetched once, and at most
    ``_MAX_IN_FLIGHT`` requests reach the endpoint at any time.  A barrier
    starts every class's lookups together."""

    def _extract(self, tmp_path) -> tuple[_CountingTransport, dict]:
        endpoint, manifest = write_shared_property_benchmark(tmp_path)
        transport = _CountingTransport(endpoint, label_query(Iri(WD + "P17")))
        barrier = threading.Barrier(8)

        def factory(cfg):
            barrier.wait(timeout=30)
            return transport

        code, report = cmd_extract(manifest, tmp_path / "cache", "global", jobs=8, transport_factory=factory)
        assert code == EXIT_OK
        return transport, report

    def test_jobs_fetch_a_shared_key_once(self, tmp_path):
        transport, report = self._extract(tmp_path)
        label_key = cache_key(label_query(Iri(WD + "P17")), SHARED_URL)
        assert len(report["classes"]) == 8
        assert all(label_key in row["cache_keys"] for row in report["classes"])
        assert transport.fetches[transport.slow] == 1
        assert set(transport.fetches.values()) == {1}
        assert len(list((tmp_path / "cache").iterdir())) == len(transport.fetches)

    def test_jobs_keep_the_in_flight_gate_per_endpoint(self, tmp_path):
        transport, _ = self._extract(tmp_path)
        assert transport.peak == _MAX_IN_FLIGHT


class TestTwoProcessesOnOneCache:
    """Two ``extract --jobs 4`` processes share one cache directory and one
    SPARQL endpoint on the loopback.  Each cache write is an atomic rename of
    a temp file named per process and thread, so the pair leaves the cache a
    single process leaves."""

    @staticmethod
    def _start(manifest, cache, *options):
        here = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": str(here.parent / "src")}
        return subprocess.Popen(
            [sys.executable, "-m", "shexbench.cli", "extract", "--manifest", str(manifest),
             "--cache-dir", str(cache), "--jobs", "4", *options],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    @staticmethod
    def _finish(process) -> dict:
        out, err = process.communicate(timeout=120)
        assert process.returncode == EXIT_OK, err.decode("utf-8", "replace")
        return {row["class_uri"]: row["cache_keys"] for row in json.loads(out)["classes"]}

    @staticmethod
    def _documents(cache) -> dict:
        documents = {}
        for path in cache.iterdir():
            document = json.loads(path.read_text(encoding="utf-8"))
            del document["fetched_at"]
            documents[path.name] = document
        return documents

    @staticmethod
    def _point_at(manifest, server) -> None:
        doc = json.loads(manifest.read_text())
        for entry in doc["entries"]:
            entry["endpoint_url"] = server.url
        manifest.write_text(json.dumps(doc))

    def test_two_processes_leave_the_cache_of_one(self, tmp_path):
        from support import sparql_answer

        endpoint, manifest = write_shared_property_benchmark(tmp_path)
        with LoopbackServer(answer=sparql_answer(endpoint)) as server:
            self._point_at(manifest, server)
            expected = self._finish(self._start(manifest, tmp_path / "single"))
            first, second = (self._start(manifest, tmp_path / "shared") for _ in range(2))
            assert self._finish(first) == self._finish(second) == expected
        assert not [path.name for path in (tmp_path / "shared").iterdir() if ".tmp" in path.name]
        replayed = self._finish(self._start(manifest, tmp_path / "shared", "--offline"))
        assert replayed == expected
        stored = {path.name for path in (tmp_path / "shared").iterdir()}
        assert stored == {f"{key}.json" for keys in replayed.values() for key in keys}
        assert self._documents(tmp_path / "shared") == self._documents(tmp_path / "single")

    def test_a_killed_process_leaves_a_cache_the_other_and_a_replay_can_use(self, tmp_path):
        """One of the two is SIGKILLed once the first cache file appears.  The
        other still finishes, and an offline replay reads finished cache files
        only, never a temp file the killed process left behind."""
        from support import sparql_answer

        endpoint, manifest = write_shared_property_benchmark(tmp_path)
        cache = tmp_path / "shared"
        with LoopbackServer(answer=sparql_answer(endpoint)) as server:
            self._point_at(manifest, server)
            killed, survivor = (self._start(manifest, cache) for _ in range(2))
            deadline = time.monotonic() + 60
            while not (cache.is_dir() and any(path.suffix == ".json" for path in cache.iterdir())):
                assert killed.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
            killed.kill()
            killed.communicate(timeout=60)
            assert killed.returncode == -signal.SIGKILL
            written = self._finish(survivor)
        # What a kill halfway through the write of a key that no other process
        # wrote leaves: half a document in a temp file, and no cache file.
        finished = min(path for path in cache.iterdir() if path.suffix == ".json")
        data = finished.read_bytes()
        finished.with_name(f"{finished.name}.tmp{killed.pid}-1").write_bytes(data[:len(data) // 2])
        finished.unlink()
        temps = {path.name for path in cache.iterdir() if ".tmp" in path.name}
        assert all(f".tmp{killed.pid}-" in name for name in temps)
        replay = self._start(manifest, cache, "--offline")
        out, err = replay.communicate(timeout=120)
        rows = json.loads(out)["classes"]
        assert {row["status"] for row in rows} <= {"ok", "cache_miss"}, err.decode("utf-8", "replace")
        assert replay.returncode == (EXIT_OK if all(row["status"] == "ok" for row in rows) else EXIT_CACHE_MISS)
        assert set(written) == {row["class_uri"] for row in rows}
        assert {path.name for path in cache.iterdir() if ".tmp" in path.name} == temps


def _is_term_lookup(query: str, classes) -> bool:
    """Whether ``query`` neither selects the instances of one of ``classes``
    nor lists an instance's triples."""
    normalized = " ".join(query.split())
    return "?predicate ?object ." not in normalized and not any(
        f"<{WDT}P31> <{class_uri}>" in normalized for class_uri in classes)


class TestGenerateReadsWhatExtractWarmed:
    """An offline ``generate`` over the cache ``extract`` just wrote reads no
    key the extract did not touch, class by class, in every setting and under
    ``--jobs 8``: both commands profile a class through the same lookup.  The
    only keys extract touches beyond generate's are its own count lookups."""

    class _GroundTruthClient:
        """Replies to each class's prompt with that class's ground truth."""

        def __init__(self, entries):
            self.replies = {entry.class_uri.value: entry.ground_truth_path.read_text() for entry in entries}

        def send(self, messages):
            (reply,) = [text for uri, text in self.replies.items() if f"{uri} " in messages[-1]["content"]]
            return reply

    @pytest.mark.parametrize("jobs", [1, 8])
    @pytest.mark.parametrize("setting", ["global", "local", "triples"])
    def test_generate_keys_are_extract_keys(self, bench, monkeypatch, setting, jobs):
        from shexbench import cli
        from shexbench.kginfo import frequency_query

        code, extracted = cmd_extract(bench["manifest"], bench["cache"], setting, jobs=jobs,
                                      transport_factory=bench["factory"])
        assert code == EXIT_OK
        clients = {}
        kg_client = cli._kg_client

        def recording(entry, *args):
            client = clients[entry.class_uri.value] = kg_client(entry, *args)
            return client

        monkeypatch.setattr(cli, "_kg_client", recording)
        entries = load_manifest(bench["manifest"]).entries
        llm = benchmark_rule_client() if setting == "global" else self._GroundTruthClient(entries)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code, generated = cmd_generate(bench["manifest"], bench["tmp"] / "gen", bench["cache"], setting,
                                           offline=True, jobs=jobs, llm_client=llm)
        finally:
            sys.setswitchinterval(interval)
        assert (code, [row["status"] for row in generated["classes"]]) == (EXIT_OK, ["ok"] * len(entries))
        url = "https://fake.example.org/sparql"
        for row in extracted["classes"]:
            class_iri, typing = Iri(row["class_uri"]), Iri(WDT + "P31")
            counts = {cache_key(instance_count_query(class_iri, typing), url)}
            if setting == "local":
                counts.add(cache_key(frequency_query(class_iri, typing), url))
            read = clients[row["class_uri"]].keys_touched
            assert read <= set(row["cache_keys"])
            assert set(row["cache_keys"]) - read == (set() if setting == "global" else counts)


class TestCacheStore:
    """A command's cache store against independent oracles: a private store
    per class, and the query texts the endpoint was sent."""

    @pytest.mark.parametrize("setting", ["global", "local", "triples"])
    def test_cache_keys_equal_a_private_store_per_class(self, tmp_path, setting):
        endpoint, manifest = write_shared_property_benchmark(tmp_path)
        transport = _CountingTransport(endpoint)
        _, report = cmd_extract(manifest, tmp_path / "cache", setting, jobs=8,
                                transport_factory=lambda cfg: transport)
        entries = sorted(load_manifest(manifest).entries, key=lambda entry: entry.class_uri.value)
        assert [row["class_uri"] for row in report["classes"]] == [entry.class_uri.value for entry in entries]
        for entry, row in zip(entries, report["classes"]):
            private = KgClient(entry_endpoint_config(entry, tmp_path / "cache", offline=True), transport=endpoint)
            counts = _warm_entry(private, entry, PromptSetting(setting), 5, None)
            assert (row["status"], row["row_counts"], row["cache_keys"]) == ("ok", counts, sorted(private.keys_touched))

    def test_records_equal_a_private_store_per_class(self, tmp_path):
        """8 threads with a short switch interval fill one cold store."""
        endpoint, manifest = write_shared_property_benchmark(tmp_path)
        entries = load_manifest(manifest).entries
        transport = _CountingTransport(endpoint)

        def records(entry, cache, store=None):
            client = KgClient(entry_endpoint_config(entry, cache), transport=transport, store=store)
            return [client.build_global_record(entry.class_uri, predicate)
                    for predicate in client.global_candidates(entry.class_uri)]

        expected = [records(entry, tmp_path / "private") for entry in entries]
        transport.fetches.clear()
        store = CacheStore()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                shared = list(pool.map(lambda entry: records(entry, tmp_path / "shared", store), entries, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert shared == expected
        assert all(len(class_records) == 2 for class_records in shared)
        assert set(transport.fetches.values()) == {1}

    def test_shared_table_holds_only_term_lookups(self, tmp_path, monkeypatch):
        from shexbench import cli

        stores = []

        class RecordingStore(CacheStore):
            def __init__(self):
                super().__init__()
                stores.append(self)

        monkeypatch.setattr(cli, "CacheStore", RecordingStore)
        endpoint, manifest = write_shared_property_benchmark(tmp_path)
        classes = [entry.class_uri.value for entry in load_manifest(manifest).entries]
        sent = {}
        for setting in ("global", "local", "triples"):
            # a cold cache per setting, so the command reads only what it fetched
            transport = _CountingTransport(endpoint)
            cmd_extract(manifest, tmp_path / setting, setting, jobs=4, transport_factory=lambda cfg: transport)
            (store,) = stores
            sent[setting] = {cache_key(query, SHARED_URL) for query in transport.fetches
                             if _is_term_lookup(query, classes)}
            table = store.lookups(SHARED_URL)
            assert table and {key for key, _ in table.values()} == sent[setting]
            assert all(key == cache_key(query, SHARED_URL) for query, (key, _) in table.items())
            stores.clear()
        cmd_train_cardinality(manifest, tmp_path / "global", tmp_path / "model.json", "dt", offline=True)
        (store,) = stores
        table = store.lookups(SHARED_URL)
        assert table and {key for key, _ in table.values()} <= sent["global"]

    def test_relative_cache_dir(self, tmp_path, monkeypatch):
        endpoint, manifest = write_shared_property_benchmark(tmp_path / "kg", n_classes=3)
        monkeypatch.chdir(tmp_path)
        transport = _CountingTransport(endpoint)
        _, absolute = cmd_extract(manifest, tmp_path / "absolute", "global", transport_factory=lambda cfg: transport)
        code, relative = cmd_extract(manifest, "cache", "global", jobs=2, transport_factory=lambda cfg: transport)
        assert code == EXIT_OK
        names = sorted(path.name for path in (tmp_path / "cache").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "absolute").iterdir())
        code, offline = cmd_extract(manifest, "cache", "global", offline=True)
        assert code == EXIT_OK

        def rows(report):
            return [{k: v for k, v in row.items() if k != "seconds"} for row in report["classes"]]

        assert rows(offline) == rows(relative) == rows(absolute)
        # a corrupt file is named by the path the command was given
        label = cache_key(label_query(Iri(WD + "P17")), SHARED_URL) + ".json"
        (tmp_path / "cache" / label).write_text("{")
        code, corrupt = cmd_extract(manifest, "cache", "global", offline=True)
        assert code == EXIT_NETWORK
        assert all(f"corrupt cache file {Path('cache') / label}:" in row["error"] for row in corrupt["classes"])


@pytest.mark.parametrize("statuses, code", [
    (["ok", "invalid"], EXIT_PARSE),
    (["invalid", "failed"], EXIT_PARTIAL),
    (["failed", "error"], EXIT_NETWORK),
    (["error", "cache_miss", "invalid"], EXIT_CACHE_MISS),
    (["ok"], EXIT_OK),
])
def test_exit_code_ranks_statuses(statuses, code):
    from shexbench.cli import _exit_code

    assert _exit_code(statuses) == code


class TestConfigurationErrors:
    """Inputs that make every class fail the same way stop the run with exit 2
    before any class starts."""

    @pytest.mark.parametrize("argv, option", [
        (["extract", "--samples", "0"], "--samples"),
        (["extract", "--max-candidates", "-1"], "--max-candidates"),
        (["extract", "--max-candidates", "0"], "--max-candidates"),
        (["generate", "--samples", "0", "--stub-dir", "stubs", "--out-dir", "out"], "--samples"),
        (["generate", "--max-candidates", "0", "--stub-dir", "stubs", "--out-dir", "out"], "--max-candidates"),
        (["train-cardinality", "--sample", "0", "--out", "model.json"], "--sample"),
    ])
    def test_count_below_one(self, bench, capsys, argv, option):
        cache = bench["tmp"] / "cache"
        code = main([*argv, "--manifest", str(bench["manifest"]), "--cache-dir", str(cache), "--offline"])
        assert code == EXIT_CONFIG
        assert f"configuration error: {option} must be at least 1" in capsys.readouterr().err
        assert not cache.exists()

    @pytest.mark.parametrize("argv", [
        ["extract", "--cache-dir", "cache", "--offline"],
        ["generate", "--cache-dir", "cache", "--offline", "--stub-dir", "stubs", "--out-dir", "out"],
        ["evaluate", "--generated-dir", "out", "--cache-dir", "cache", "--out", "eval.json"],
        ["train-cardinality", "--cache-dir", "cache", "--offline", "--out", "model.json"],
    ], ids=lambda argv: argv[0])
    def test_class_that_names_no_entry(self, bench, capsys, monkeypatch, argv):
        monkeypatch.chdir(bench["tmp"])
        code = main([*argv, "--manifest", str(bench["manifest"]), "--class", "museum", "--class", "nosuchclass"])
        assert code == EXIT_CONFIG
        assert "configuration error: --class names no manifest entry: 'nosuchclass'" in capsys.readouterr().err
        assert sorted(p.name for p in bench["tmp"].iterdir()) == ["gt", "manifest.json"]

    @pytest.mark.parametrize("spec, reason", [
        ("node=exact;card=loose", "'loose' is not a valid CardinalityMode"),
        ("node=exact;", "bad criteria component ''"),
        ("node=bogus", "'bogus' is not a valid NodeMode"),
    ], ids=["card-loose", "empty-component", "node-bogus"])
    def test_bad_criteria(self, bench, capsys, monkeypatch, spec, reason):
        """A bad ``--criteria`` stops evaluate before any class is scored."""
        generated = TestEvaluate()._copy_ground_truth(bench)
        evaluated = []
        monkeypatch.setattr("shexbench.cli.evaluate_canonical", lambda *args, **kwargs: evaluated.append(args))
        code = main(["evaluate", "--manifest", str(bench["manifest"]), "--generated-dir", str(generated),
                     "--criteria", spec])
        assert code == EXIT_CONFIG and evaluated == []
        assert capsys.readouterr().err == (
            f"configuration error: --criteria {spec!r}: {reason}; expected 'all' or ';'-separated combinations "
            "of node=exact|subclass|datatype and card=exact|loosened\n")

    @pytest.mark.parametrize("changes, problem", [
        ({"aggregate": {"node=exact,card=exact": {}}},
         "aggregate entry 'node=exact,card=exact' needs numbers precision, recall, f1, n"),
        ({"aggregate": {"node=exact,card=exact": {"precision": 0.5, "recall": 0.5, "f1": "0.5", "n": 1}}},
         "aggregate entry 'node=exact,card=exact' needs numbers precision, recall, f1, n"),
        ({"mean_ged": "x"}, "mean_ged is not a number"),
        ({"mean_nged": None}, "mean_nged is not a number"),
        ({"error_breakdown": {"correct": "1"}}, "error_breakdown must map buckets to counts"),
        ({"error_breakdown": [1]}, "error_breakdown must map buckets to counts"),
    ], ids=["empty-entry", "string-f1", "string-ged", "null-nged", "string-count", "list-breakdown"])
    def test_malformed_results_file(self, tmp_path, capsys, changes, problem):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({
            "model_id": "m", "setting": "global", "mean_ged": 1.0, "mean_nged": 0.5,
            "aggregate": {"node=exact,card=exact": {"precision": 0.5, "recall": 0.5, "f1": 0.5, "n": 1}},
            "error_breakdown": {"correct": 1}, **changes,
        }))
        code = main(["report", str(results)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: results file {results} is malformed: {problem}\n"

    def test_class_that_names_no_entry_makes_no_lookup(self, bench, tmp_path):
        commands = [
            lambda classes: cmd_extract(bench["manifest"], bench["cache"], "global", classes=classes,
                                        transport_factory=bench["factory"]),
            lambda classes: cmd_generate(bench["manifest"], tmp_path / "gen", bench["cache"], "global",
                                         classes=classes, llm_client=benchmark_rule_client(),
                                         transport_factory=bench["factory"]),
            lambda classes: cmd_evaluate(bench["manifest"], tmp_path / "gen", "all", classes, cache_dir=bench["cache"],
                                         transport_factory=bench["factory"]),
            lambda classes: cmd_train_cardinality(bench["manifest"], bench["cache"], tmp_path / "model.json",
                                                  classes=classes, transport_factory=bench["factory"]),
        ]
        for command in commands:
            with pytest.raises(ManifestError, match="'Q0', 'no such class'$"):
                command(["Q0", "museum", "no such class", "Q0"])
        assert bench["endpoint"].request_count == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt", "manifest.json"]

    def test_unknown_model_kind_reads_nothing(self, bench, tmp_path, monkeypatch):
        from shexbench import cli

        def refuse(*args, **kwargs):
            raise AssertionError("read before the kind was checked")

        monkeypatch.setattr(cli, "parse_shexc", refuse)
        with pytest.raises(ManifestError, match=r"^unknown model kind 'rf' \(expected one of dt, gb\)$"):
            cmd_train_cardinality(bench["manifest"], bench["cache"], tmp_path / "model.json", kind="rf",
                                  transport_factory=lambda cfg: refuse)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt", "manifest.json"]

    def test_negative_max_repairs(self, bench, capsys):
        cache = bench["tmp"] / "cache"
        code = main(["generate", "--max-repairs", "-1", "--stub-dir", "stubs", "--out-dir", "out",
                     "--manifest", str(bench["manifest"]), "--cache-dir", str(cache), "--offline"])
        assert code == EXIT_CONFIG
        assert "configuration error: --max-repairs must be at least 0, got -1" in capsys.readouterr().err
        assert not cache.exists()

    def test_negative_max_repairs_makes_no_lookup(self, bench):
        client = benchmark_rule_client()
        with pytest.raises(ManifestError, match="--max-repairs"):
            cmd_generate(bench["manifest"], bench["tmp"] / "gen", bench["cache"], "local", max_repairs=-1,
                         llm_client=client, transport_factory=bench["factory"])
        assert bench["endpoint"].request_count == 0
        assert client.sent == []
        assert not (bench["tmp"] / "gen").exists()

    @pytest.mark.parametrize("content", [None, '{"user": "u", "assistant"', '{"user": "u"}', '[{"user": 1, "assistant": "a"}]',
                                         _NESTED],
                             ids=["missing-file", "truncated", "missing-key", "not-a-string", "nested"])
    def test_unloadable_fewshot_file(self, bench, capsys, content):
        fewshot_dir = bench["tmp"] / "fewshot"
        fewshot_dir.mkdir()
        path = fewshot_dir / "wikidata_global.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code = main(["generate", "--manifest", str(bench["manifest"]), "--cache-dir", str(bench["cache"]),
                     "--out-dir", str(bench["tmp"] / "out"), "--stub-dir", str(bench["tmp"] / "stubs"),
                     "--fewshot-dir", str(fewshot_dir), "--offline"])
        assert code == EXIT_CONFIG
        assert f"cannot load few-shot file {path}" in capsys.readouterr().err
        assert not (bench["tmp"] / "out").exists()

    def test_fewshot_file_is_read_once(self, bench, monkeypatch):
        from shexbench import cli

        fewshot_dir = bench["tmp"] / "fewshot"
        fewshot_dir.mkdir()
        (fewshot_dir / "wikidata_global.json").write_text('{"user": "u", "assistant": "a"}', encoding="utf-8")
        loads = []
        original = cli.load_fewshot
        monkeypatch.setattr(cli, "load_fewshot", lambda path: loads.append(path) or original(path))
        client = benchmark_rule_client()
        code, _ = generate_stubbed(bench, llm_client=client, fewshot_dir=fewshot_dir, jobs=3)
        assert code == EXIT_OK
        assert loads == [fewshot_dir / "wikidata_global.json"]

    @pytest.mark.parametrize("content", [None, '{"model_id": "m"', "[]", '{"model_id": "m", "setting": "s"}', _NESTED],
                             ids=["missing-file", "truncated", "not-an-object", "missing-keys", "nested"])
    def test_unreadable_results_file(self, tmp_path, capsys, content):
        results = tmp_path / "results.json"
        if content is not None:
            results.write_text(content, encoding="utf-8")
        assert main(["report", str(results)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(results) in err


class TestArguments:
    def test_train_rejects_jobs(self, capsys):
        from shexbench.cli import build_parser

        common = ["--manifest", "m.json", "--cache-dir", "c"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train-cardinality", *common, "--out", "m", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert build_parser().parse_args(["extract", *common, "--jobs", "2"]).jobs == 2


_C_LOCALE_RUN = r"""
import locale, sys
from pathlib import Path
from shexbench.cli import EXIT_OK, cmd_extract, cmd_generate, main
from support import WD, benchmark_rule_client, build_benchmark_endpoint, write_benchmark_manifest

print(locale.getpreferredencoding(False))
root = Path(sys.argv[1])
endpoint = build_benchmark_endpoint()
endpoint.labels[WD + "Q33506"] = "Museum (Z\u00fcrich)"
endpoint.descriptions[WD + "Q33506"] = "Einrichtung f\u00fcr Kunst \u2013 \u00abSammlung\u00bb"
manifest = write_benchmark_manifest(root)
code, _ = cmd_extract(manifest, root / "cache", "global", classes=["museum"],
                      transport_factory=lambda cfg: endpoint)
assert code == EXIT_OK, code
code, _ = cmd_generate(manifest, root / "recorded", root / "cache", "global", classes=["museum"],
                       offline=True, llm_client=benchmark_rule_client())
assert code == EXIT_OK, code
sys.exit(main(["generate", "--manifest", str(manifest), "--class", "museum", "--offline",
               "--cache-dir", str(root / "cache"), "--out-dir", str(root / "replayed"),
               "--stub-dir", str(root / "recorded" / "transcripts")]))
"""


def test_non_ascii_label_under_c_locale(tmp_path):
    """Every file is read and written as UTF-8 whatever the locale says."""
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIOENCODING", "PYTHONUTF8"))}
    env.update(LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    run = subprocess.run([sys.executable, "-X", "utf8=0", "-c", _C_LOCALE_RUN, str(tmp_path)],
                         env=env, capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert run.returncode == EXIT_OK, run.stderr
    assert codecs.lookup(run.stdout.splitlines()[0]).name != "utf-8"
    sidecar = (tmp_path / "recorded" / "Q33506.transcript.json").read_text(encoding="utf-8")
    assert "Zürich" in sidecar and "«Sammlung»" in sidecar
    cached = [p.read_text(encoding="utf-8") for p in (tmp_path / "cache").glob("*.json")]
    assert any("Museum (Zürich)" in text for text in cached)
    assert (tmp_path / "replayed" / "Q33506.shex").read_bytes() == (tmp_path / "recorded" / "Q33506.shex").read_bytes()


def test_report_to_stdout_under_c_locale(tmp_path):
    """Reports reach standard output as UTF-8 whatever the locale says."""
    results = tmp_path / "results.json"
    results.write_text(json.dumps({
        "model_id": "mod\u00e8le", "setting": "global", "mean_ged": 1.0, "mean_nged": 0.5,
        "aggregate": {"node=exact,card=exact": {"precision": 0.5, "recall": 0.5, "f1": 0.5, "n": 1}},
        "error_breakdown": {"correct": 1, "missing_predicate": 1},
    }, ensure_ascii=False), encoding="utf-8")
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIOENCODING", "PYTHONUTF8"))}
    env.update(LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(here.parent / "src"))
    run = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "shexbench.cli", "report", str(results)],
                         env=env, capture_output=True, timeout=120)
    assert run.returncode == EXIT_OK, run.stderr.decode("utf-8", "replace")
    assert "| modèle | global | 0.500 |" in run.stdout.decode("utf-8")


def _pipeline_artifacts(bench) -> dict[str, str]:
    """Artifact group -> sha256 over its files' bytes, with timings and the
    run's temp-dir path taken out of the JSON reports."""
    import hashlib

    tmp, factory = bench["tmp"], bench["factory"]
    files: dict[str, dict[str, bytes]] = {"extract": {}, "shex": {}, "transcripts": {}, "model": {}, "evaluate": {}}

    def normalized(doc) -> bytes:
        def strip(value):
            if isinstance(value, dict):
                return {k: strip(v) for k, v in value.items() if k not in ("seconds", "timings")}
            if isinstance(value, list):
                return [strip(v) for v in value]
            return value.replace(str(tmp), "<tmp>") if isinstance(value, str) else value
        return json.dumps(strip(doc), indent=2, sort_keys=True).encode("utf-8")

    for setting in ("global", "local", "triples"):
        code, report = cmd_extract(bench["manifest"], tmp / f"cache-{setting}", setting, transport_factory=factory)
        assert code == EXIT_OK
        files["extract"][setting] = normalized(report)
    cache = tmp / "cache-global"
    code, _ = cmd_generate(bench["manifest"], tmp / "out", cache, "global", offline=True,
                           llm_client=benchmark_rule_client())
    assert code == EXIT_OK
    for path in sorted((tmp / "out").rglob("*.json")) + sorted((tmp / "out").glob("*.shex")):
        group = "shex" if path.suffix == ".shex" else "transcripts"
        files[group][str(path.relative_to(tmp / "out"))] = path.read_bytes()
    for kind in ("dt", "gb"):
        code, _ = cmd_train_cardinality(bench["manifest"], cache, tmp / f"{kind}.json", kind=kind, offline=True,
                                        dump_features=tmp / f"{kind}.csv")
        assert code == EXIT_OK
        files["model"][kind] = (tmp / f"{kind}.json").read_bytes() + (tmp / f"{kind}.csv").read_bytes()
    code, doc = cmd_evaluate(bench["manifest"], tmp / "out", "all", cache_dir=cache, transport_factory=factory)
    assert code == EXIT_OK
    files["evaluate"]["all"] = normalized(doc)
    digests = {}
    for group, members in files.items():
        digest = hashlib.sha256()
        for name in sorted(members):
            digest.update(name.encode("utf-8") + b"\0" + members[name] + b"\0")
        digests[group] = digest.hexdigest()
    return digests


def test_pipeline_outputs_are_pinned(bench):
    """Extract reports, schemas, transcripts, models and the evaluation are
    byte-identical to the ones measured before cache documents were kept in
    memory per client."""
    assert _pipeline_artifacts(bench) == {
        "extract": "f09f41655f92bb94609d6824361945423b4229e4c43b59b086ef29b5d142a07e",
        "shex": "ba543499407baf8bd87d1c3c057593be9009d9b81465ef12909f9a773fbfa2fc",
        "transcripts": "c84d30aa82ebd65db941f7ca53a58f5009d676d16e5f65f4fff5d6bb5af2733d",
        "model": "fead65babc852e72955df6300334286f501c339546b3e049535f785201a71f0b",
        "evaluate": "8c0415275857877ed4447739d71078fd239bf36732a229ea64645e4bcf3cb8ee",
    }
