from __future__ import annotations

import codecs
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    load_manifest,
    main,
)
from shexbench.model import Iri, canonicalize
from shexbench.shexc import parse_shexc
from support import (
    BENCHMARK_CLASSES,
    WD,
    WDT,
    benchmark_rule_client,
    build_benchmark_endpoint,
    write_benchmark_manifest,
)


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

    def test_duplicate_class_rejected(self, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "manifest.json").read_text())
        doc["entries"].append(dict(doc["entries"][0]))
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(bad)

    def test_invalid_ground_truth_rejected(self, tmp_path):
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
        with pytest.raises(ManifestError, match="invalid"):
            load_manifest(manifest)


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

    def test_transcripts_replay_as_stubs(self, bench):
        generate_stubbed(bench, out_name="recorded")
        stub_dir = bench["tmp"] / "recorded" / "transcripts"
        assert list(stub_dir.glob("*.json"))
        code, report = cmd_generate(
            bench["manifest"], bench["tmp"] / "replayed", bench["cache"], "global",
            stub_dir=stub_dir, transport_factory=bench["factory"],
        )
        assert code == EXIT_OK
        for class_uri in BENCHMARK_CLASSES:
            slug = class_uri.rsplit("/", 1)[-1]
            assert (bench["tmp"] / "recorded" / f"{slug}.shex").read_bytes() == (
                bench["tmp"] / "replayed" / f"{slug}.shex"
            ).read_bytes()

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
        from shexbench.generate import ScriptedLlmClient

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
        from shexbench.generate import ScriptedLlmClient

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

    def test_at_most_four_canonicalizations_per_class(self, bench, monkeypatch):
        from shexbench import cardml, cli, generate, matching, model, shexc, treedist

        generate_stubbed(bench, out_name="gen")
        calls = []
        for module in (cli, cardml, generate, matching, model, shexc, treedist):
            if "canonicalize" in vars(module):
                original = module.canonicalize
                monkeypatch.setattr(module, "canonicalize",
                                    lambda *args, _original=original, **kwargs:
                                    calls.append(args[0]) or _original(*args, **kwargs))
        code, doc = cmd_evaluate(bench["manifest"], bench["tmp"] / "gen", "all")
        assert code == EXIT_OK and doc["n_valid"] == 3
        per_class = Counter(schema.focus_class for schema in calls)
        assert set(per_class) == {Iri(uri) for uri in BENCHMARK_CLASSES}
        assert max(per_class.values()) <= 4, per_class

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

    @pytest.mark.parametrize(
        "content",
        [None, '{"subclass_of": {', "[]", '{"subclass_of": {"a": "b"}}', '{"value_types": []}'],
        ids=["missing-file", "truncated", "not-an-object", "parents-not-a-list", "table-not-an-object"],
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
            cardinality="dt", model_file=_saved(model, tmp_path),
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
                     "max_model": {"max_depth": 1, "min_leaf": 1, "root": {"leaf": True, "prediction": 1}}})],
        ids=["unknown-kind", "missing-key", "truncated", "missing-file", "node-without-leaf"],
    )
    def test_unloadable_model_file_is_a_config_error(self, bench, tmp_path, content):
        model_file = tmp_path / "model.json"
        if content is not None:
            model_file.write_text(content)
        with pytest.raises(ManifestError, match="cannot load --model-file"):
            cmd_generate(
                bench["manifest"], bench["tmp"] / "ml_run", bench["cache"], "global",
                llm_client=benchmark_rule_client(), transport_factory=bench["factory"],
                cardinality="gb", model_file=model_file,
            )


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

    def test_report_via_argv(self, bench, tmp_path, capsys):
        generated = TestEvaluate()._copy_ground_truth(bench)
        results = tmp_path / "eval.json"
        cmd_evaluate(bench["manifest"], generated, "all", out=results, fmt="json")
        code = main(["report", str(results)])
        assert code == EXIT_OK
        assert "| Model | Setting |" in capsys.readouterr().out


class TestCorruptCache:
    def test_train_exits_with_the_corrupt_file_named(self, bench, tmp_path, capsys):
        from shexbench.kginfo import cache_key, label_query

        cmd_extract(bench["manifest"], bench["cache"], "global", transport_factory=bench["factory"])
        label_file = bench["cache"] / f"{cache_key(label_query(Iri(WD + 'Q4220917')), 'https://fake.example.org/sparql')}.json"
        label_file.write_text(label_file.read_text()[:30])
        code = main(["train-cardinality", "--manifest", str(bench["manifest"]), "--cache-dir", str(bench["cache"]),
                     "--out", str(tmp_path / "model.json"), "--kind", "dt", "--offline"])
        assert code == EXIT_NETWORK
        assert f"corrupt cache file {label_file}" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


class TestGroundTruthParsing:
    def test_each_ground_truth_file_is_parsed_once_per_command(self, bench, tmp_path, monkeypatch):
        from shexbench import cli

        entries = load_manifest(bench["manifest"]).entries
        ground_truth = Counter(e.ground_truth_path.read_text(encoding="utf-8") for e in entries)
        parsed = []
        original = cli.parse_shexc
        monkeypatch.setattr(cli, "parse_shexc", lambda text, **kwargs: parsed.append(text) or original(text, **kwargs))

        def parses(run):
            parsed.clear()
            assert run()[0] == EXIT_OK
            return Counter(parsed)

        factory = bench["factory"]
        assert parses(lambda: cmd_extract(bench["manifest"], bench["cache"], "global",
                                          transport_factory=factory)) == ground_truth
        assert parses(lambda: generate_stubbed(bench, out_name="gen")) == ground_truth
        assert parses(lambda: cmd_train_cardinality(bench["manifest"], bench["cache"], tmp_path / "dt.json",
                                                    kind="dt", offline=True, transport_factory=factory)) == ground_truth
        generated = Counter(p.read_text(encoding="utf-8") for p in (bench["tmp"] / "gen").glob("*.shex"))
        assert sum(generated.values()) == 3
        assert parses(lambda: cmd_evaluate(bench["manifest"], bench["tmp"] / "gen", "all")) == ground_truth + generated


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
        "model": "489371750d427e0ce2b397d2ef6226ff958c03886b8f49e2b99a81cf68c89d81",
        "evaluate": "8c0415275857877ed4447739d71078fd239bf36732a229ea64645e4bcf3cb8ee",
    }
