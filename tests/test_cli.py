from __future__ import annotations

import json
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
        ['{"kind": "rf"}', '{"kind": "gb", "seed": 1}', '{"kind": "gb", "min_model"', None],
        ids=["unknown-kind", "missing-key", "truncated", "missing-file"],
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
