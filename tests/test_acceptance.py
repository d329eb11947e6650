"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines (a failed criterion fails its test)."""

from __future__ import annotations

import random
import time
import pytest

from shexbench.cardml import CardinalityModel, evaluate_cardinality_accuracy, train
from shexbench.cli import cmd_extract, cmd_generate, load_manifest
from shexbench.generate import generate_global
from shexbench.kginfo import KgClient
from shexbench.matching import (
    ALL_CRITERIA,
    CardinalityMode,
    MatchCriteria,
    NodeMode,
    cardinality_loosened,
    categorize_errors,
    evaluate_pair,
)
from shexbench.model import Cardinality, Iri, Schema, Shape, canonicalize
from shexbench.shexc import parse_shexc, serialize_shexc
from shexbench.treedist import TreeNode, nged, schema_ged, tree_edit_distance
from support import (
    BENCHMARK_CLASSES,
    benchmark_rule_client,
    brute_force_tree_distance,
    build_benchmark_endpoint,
    build_mutation_oracle,
    mutate_schema,
    random_tree,
    synthetic_cardinality_rows,
    write_benchmark_manifest,
)


def announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def drop_first_k(schema: Schema, k: int) -> Schema:
    start = schema.start_shape
    kept = start.constraints[k:]
    shapes = dict(schema.shapes)
    shapes[start.label] = Shape(start.label, kept, start.extra_predicates)
    return Schema(schema.start_label, shapes, schema.focus_class)


def test_criterion_1_parser_round_trip(fixture_schemas, fixture_paths, museum_text):
    assert len(fixture_paths) >= 6
    assert any(path.name == "museum.shex" for path in fixture_paths)
    elapsed = []
    for path in fixture_paths:
        text = path.read_text()
        start = time.perf_counter()
        first = parse_shexc(text)
        serialized = serialize_shexc(first)
        second = parse_shexc(serialized)
        elapsed.append(time.perf_counter() - start)
        assert second == canonicalize(first), path.name
    per_schema = max(elapsed)
    assert per_schema < 0.05, f"slowest round trip {per_schema * 1000:.1f} ms"
    announce(1, f"parse-serialize-parse structural equality on {len(fixture_paths)} fixtures, "
                f"slowest {per_schema * 1000:.1f} ms")


def test_criterion_2_self_evaluation_identity(fixture_schemas):
    from shexbench.matching import StaticSubclassOracle

    oracle = StaticSubclassOracle()
    for _, schema in fixture_schemas:
        for criteria in ALL_CRITERIA:
            report = evaluate_pair(schema, schema, criteria, oracle)
            assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert schema_ged(schema, schema) == 0
        assert nged(schema, schema) == 0.0
    announce(2, f"evaluate(GT, GT) is exactly 1.0/1.0/1.0 with GED 0, NGED 0.0 under all "
                f"{len(ALL_CRITERIA)} criteria on {len(fixture_schemas)} fixtures")


def test_criterion_3_tree_edit_oracle_equivalence():
    rng = random.Random(4217)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        a = random_tree(rng, 6)
        b = random_tree(rng, 6)
        expected = brute_force_tree_distance(a, b)

        def lift(plain):
            return TreeNode(plain.label, tuple(lift(c) for c in plain.children))

        assert tree_edit_distance(lift(a), lift(b)) == expected
        checked += 1
    total = time.perf_counter() - start
    assert total < 10.0
    announce(3, f"Zhang-Shasha equals the exhaustive edit search on {checked} seeded pairs "
                f"in {total:.2f} s")


def test_criterion_4_normalization_endpoints(fixture_schemas):
    cases = 0
    for _, schema in fixture_schemas:
        n = len(canonicalize(schema).start_shape.constraints)
        empty = drop_first_k(canonicalize(schema), n)
        assert nged(empty, schema) == 1.0
        for k in range(n + 1):
            partial = drop_first_k(canonicalize(schema), k)
            assert nged(partial, schema) == pytest.approx(k / n, abs=0), (k, n)
            cases += 1
    announce(4, f"empty-vs-GT NGED is exactly 1.0 and deleting k constraints gives exactly "
                f"k/n across {cases} cases")


RELAXATIONS = (
    MatchCriteria(NodeMode.SUBCLASS, CardinalityMode.EXACT),
    MatchCriteria(NodeMode.DATATYPE, CardinalityMode.EXACT),
    MatchCriteria(NodeMode.EXACT, CardinalityMode.LOOSENED),
    MatchCriteria(NodeMode.SUBCLASS, CardinalityMode.LOOSENED),
    MatchCriteria(NodeMode.DATATYPE, CardinalityMode.LOOSENED),
)


@pytest.fixture(scope="module")
def acceptance_mutated_pairs(fixture_schemas):
    rng = random.Random(99173)
    schemas = [schema for _, schema in fixture_schemas]
    oracle = build_mutation_oracle(schemas)
    pairs = []
    for index in range(100):
        gt = schemas[index % len(schemas)]
        pairs.append((mutate_schema(gt, rng), gt))
    return pairs, oracle


def test_criterion_5_criteria_monotonicity(acceptance_mutated_pairs):
    pairs, oracle = acceptance_mutated_pairs
    exact = MatchCriteria()
    for generated, gt in pairs:
        base = evaluate_pair(generated, gt, exact, oracle).f1
        for criteria in RELAXATIONS:
            relaxed = evaluate_pair(generated, gt, criteria, oracle).f1
            assert relaxed >= base, (criteria.key(), relaxed, base)
    announce(5, "F1 under every relaxation is >= exact/exact F1 pair-by-pair on 100 "
                "seeded mutated schema pairs")


def test_criterion_6_error_breakdown_partition(acceptance_mutated_pairs):
    pairs, _ = acceptance_mutated_pairs
    for generated, gt in pairs:
        breakdown = categorize_errors(generated, gt)
        expected = len(canonicalize(gt).start_shape.constraints)
        assert breakdown.total == expected
    announce(6, "the five error categories partition the ground-truth constraints exactly "
                "on all 100 mutated pairs")


def test_criterion_7_loosened_cardinality_table():
    space = [Cardinality(1, 1), Cardinality(0, 1), Cardinality(1, None), Cardinality(0, None)]
    contains = {
        ((1, 1), (1, 1)), ((1, 1), (0, 1)), ((1, 1), (1, None)), ((1, 1), (0, None)),
        ((0, 1), (0, 1)), ((0, 1), (0, None)),
        ((1, None), (1, None)), ((1, None), (0, None)),
        ((0, None), (0, None)),
    }
    checked = 0
    for gt in space:
        for gen in space:
            expected = ((gt.min, gt.max), (gen.min, gen.max)) in contains
            assert cardinality_loosened(gt, gen) is expected, (gt, gen)
            checked += 1
    assert checked == 16
    announce(7, "loosened-cardinality truth table matches interval containment on all 16 cases")


def test_criterion_8_extraction_consistency(tmp_path):
    from support import award_endpoint_config

    endpoint = build_benchmark_endpoint()
    cfg = award_endpoint_config(tmp_path / "cache")
    client = KgClient(cfg, transport=endpoint)
    pairs_checked = 0
    for class_uri in BENCHMARK_CLASSES:
        class_iri = Iri(class_uri)
        total = client.instance_count(class_iri)
        for predicate in client.predicate_frequencies(class_iri):
            histogram = client.cardinality_distribution(class_iri, predicate)
            missing = client.count_missing(class_iri, predicate)
            assert missing + sum(histogram.values()) == total, (class_uri, predicate.value)
            pairs_checked += 1
    requests_after_warm = endpoint.request_count
    replay = KgClient(award_endpoint_config(tmp_path / "cache"), transport=endpoint)
    for class_uri in BENCHMARK_CLASSES:
        class_iri = Iri(class_uri)
        replay.instance_count(class_iri)
        for predicate in replay.predicate_frequencies(class_iri):
            replay.cardinality_distribution(class_iri, predicate)
            replay.count_missing(class_iri, predicate)
    assert endpoint.request_count == requests_after_warm
    announce(8, f"count_missing + cardinality distribution equals the instance count on "
                f"{pairs_checked} (class, predicate) pairs; cache replay issued zero requests")


def test_criterion_9_structured_pipeline_determinism(tmp_path):
    endpoint = build_benchmark_endpoint()
    manifest = write_benchmark_manifest(tmp_path)
    cache = tmp_path / "cache"
    factory = lambda cfg: endpoint

    # recording pass builds the transcript fixtures the stub client replays
    code, _ = cmd_generate(
        manifest, tmp_path / "recorded", cache, "global",
        llm_client=benchmark_rule_client(), transport_factory=factory,
    )
    assert code == 0
    stub_dir = tmp_path / "recorded" / "transcripts"

    outputs = []
    for run in ("one", "two"):
        code, _ = cmd_generate(
            manifest, tmp_path / run, cache, "global",
            stub_dir=stub_dir, transport_factory=factory,
        )
        assert code == 0
        run_bytes = {}
        for class_uri in BENCHMARK_CLASSES:
            slug = class_uri.rsplit("/", 1)[-1]
            text = (tmp_path / run / f"{slug}.shex").read_text()
            schema = parse_shexc(text)
            assert parse_shexc(serialize_shexc(schema)) == canonicalize(schema)
            run_bytes[slug] = text
        outputs.append(run_bytes)
    assert outputs[0] == outputs[1]
    announce(9, f"stub-replayed two-step pipeline over {len(BENCHMARK_CLASSES)} classes is "
                f"byte-identical across runs and every output round-trips")


def test_criterion_10_ml_cardinality():
    rows = synthetic_cardinality_rows(200, seed=7)
    train_rows, test_rows = rows[:100], rows[100:]
    summary = []
    for kind in ("dt", "gb"):
        model = train(kind, train_rows, seed=42)
        again = train(kind, train_rows, seed=42)
        assert model.to_json() == again.to_json(), f"{kind} training not seed-deterministic"
        restored = CardinalityModel.from_json(model.to_json())
        assert restored.to_json() == model.to_json()
        for dataset in (train_rows, test_rows):
            acc_min, acc_max, acc_combined = evaluate_cardinality_accuracy(model, dataset)
            assert acc_combined <= min(acc_min, acc_max) + 1e-12
        acc_min, acc_max, acc_combined = evaluate_cardinality_accuracy(model, test_rows)
        assert acc_combined >= 0.95, (kind, acc_combined)
        summary.append(f"{kind} held-out combined {acc_combined:.3f}")
    announce(10, "; ".join(summary) + " (>= 0.95 required; external reference points "
                 "dt 0.559 / gb 0.656 on real profiles are not comparable to synthetic data)")


def test_criterion_11_hybrid_wiring(tmp_path):
    endpoint = build_benchmark_endpoint()
    manifest_path = write_benchmark_manifest(tmp_path)
    manifest = load_manifest(manifest_path)
    cache = tmp_path / "cache"
    cmd_extract(manifest_path, cache, "global", transport_factory=lambda cfg: endpoint)

    model = train("dt", synthetic_cardinality_rows(200, seed=7), seed=42)
    cardinality_differences = 0
    for entry in manifest.entries:
        from shexbench.cli import entry_endpoint_config

        kg = KgClient(entry_endpoint_config(entry, cache, offline=True), transport=endpoint)
        llm_schema = generate_global(entry.class_uri, kg, benchmark_rule_client())
        ml_schema = generate_global(entry.class_uri, kg, benchmark_rule_client(), model)
        llm_constraints = {c.predicate: c for c in llm_schema.start_shape.constraints}
        ml_constraints = {c.predicate: c for c in ml_schema.start_shape.constraints}
        assert set(llm_constraints) == set(ml_constraints)
        for predicate, llm_constraint in llm_constraints.items():
            ml_constraint = ml_constraints[predicate]
            assert llm_constraint.node_constraint == ml_constraint.node_constraint, predicate
            if llm_constraint.cardinality != ml_constraint.cardinality:
                cardinality_differences += 1
    assert cardinality_differences > 0
    announce(11, f"swapping the cardinality source to the trained model changed "
                 f"{cardinality_differences} cardinalities and zero node constraints")
