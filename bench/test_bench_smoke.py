"""Smoke self-test of the benchmark at tiny sizes: a broken generator, check
or tracer fails here in seconds.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
from synthkg import RuleLlmClient, SyntheticKg, WorkloadShape  # noqa: E402

TINY = {
    "wide": WorkloadShape(classes=2, predicates=12, pool=30, instances=6, setting="global", train_kind="gb"),
    "many": WorkloadShape(classes=6, predicates=4, pool=12, instances=4, setting="global", train_kind="dt"),
    "local-repair": WorkloadShape(classes=3, predicates=6, pool=15, instances=6, setting="local",
                                  train_kind="dt", samples=3),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(pipeline, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(workload, tiny, tmp_path, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0"], tmp_path) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / ".bench_work").exists() or not any((tmp_path / ".bench_work").iterdir())


@pytest.mark.parametrize("workload", ["wide", "local-repair"])
def test_traced_run_reports_every_per_layer_metric(workload, tiny, tmp_path, capsys):
    assert run.main(["--workload", workload, "--seed", "4", "--seconds", "0.01", "--trace", "1"], tmp_path) == 0
    result = _result(capsys)
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert (metrics["generate.repair_rounds"] > 0) == (workload == "local-repair")
    assert (metrics["generate.structured_retries"] > 0) == (workload == "wide")
    assert metrics["kginfo.fetches"] == metrics["kginfo.cache_files_written"] > 0
    assert metrics["kginfo.cached_query.calls"] >= metrics["kginfo.cached_query.distinct_keys"] > 0
    assert metrics["treedist.ted.calls"] > 0 and metrics["kginfo.warnings"] > 0
    assert list(tmp_path.glob(".bench_out/*.spans.jsonl.gz"))


def test_same_seed_gives_same_inputs():
    shape = TINY["wide"]
    a, b, c = SyntheticKg(shape, 7, "wide"), SyntheticKg(shape, 7, "wide"), SyntheticKg(shape, 8, "wide")
    assert [a.ground_truth(s) for s in a.classes] == [b.ground_truth(s) for s in b.classes]
    assert a.triples == b.triples
    assert [a.ground_truth(s) for s in a.classes] != [c.ground_truth(s) for s in c.classes]
    # sizes do not depend on the seed
    assert sum(map(len, a.triples.values())) == sum(map(len, c.triples.values()))


def test_table_endpoint_agrees_with_scanning_endpoint(tmp_path):
    """The precomputed tables give the client the same profiles as the test
    suite's scanning FakeEndpoint built from the same graph."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from support import FakeEndpoint
    finally:
        sys.path.remove(str(ROOT / "tests"))
    from shexbench.kginfo import EndpointConfig, KgClient, KgKind, term_from_binding
    from shexbench.model import Iri

    kg = SyntheticKg(TINY["wide"], 5, "wide")
    fake = FakeEndpoint()
    for inst, rows in kg.triples.items():
        typing_class = rows[0][1]["value"]
        fake.add_instance(typing_class, inst, [(p, term_from_binding(o)) for p, o in rows[1:]],
                          "http://www.wikidata.org/prop/direct/P31")
    fake.labels.update(kg.labels)
    fake.descriptions.update(kg.descriptions)
    fake.property_constraints.update(kg.constraints)

    def client(name, transport):
        cfg = EndpointConfig("https://synthetic.example.org/sparql", KgKind.WIKIDATA,
                             Iri("http://www.wikidata.org/prop/direct/P31"), tmp_path / name)
        return KgClient(cfg, transport=transport)

    table, scan = client("table", kg.endpoint()), client("scan", fake)
    for spec in kg.classes:
        cls = Iri(spec.iri)
        assert table.predicate_frequencies(cls) == scan.predicate_frequencies(cls)
        for predicate in spec.predicates:
            assert table.build_global_record(cls, Iri(predicate)) == scan.build_global_record(cls, Iri(predicate))
        for instance in table.sample_instances(cls, 3):
            assert table.instance_triples(instance) == scan.instance_triples(instance)


def test_alignment_oracle_matches_tree_edit_distance():
    from dataclasses import replace

    from shexbench.model import Iri
    from shexbench.shexc import parse_shexc
    from shexbench.treedist import schema_ged

    kg = SyntheticKg(TINY["wide"], 9, "wide")
    rng = random.Random(9)
    for spec in kg.classes:
        focus = Iri(spec.iri)
        for _ in range(10):
            gen_spec = replace(spec, predicates=sorted(rng.sample(spec.predicates, rng.randint(1, 12))))
            gt_spec = replace(spec, predicates=sorted(rng.sample(spec.predicates, rng.randint(1, 12))))
            gen_text, gt_text = kg.generated_text(gen_spec), kg.ground_truth(gt_spec)
            expected = schema_ged(parse_shexc(gen_text, focus_class=focus), parse_shexc(gt_text, focus_class=focus))
            assert oracle.independent_ged(gen_text, gt_text, spec.iri) == expected


def test_evaluation_check_flags_a_wrong_distance(tmp_path):
    kg = SyntheticKg(TINY["many"], 2, "many")
    spec = kg.classes[0]
    (tmp_path / "gt.shex").write_text(kg.ground_truth(spec))
    (tmp_path / "Q.shex").write_text(kg.generated_text(spec))
    ged = oracle.independent_ged(kg.generated_text(spec), kg.ground_truth(spec), spec.iri)
    n = len(spec.predicates) + 1
    record = {"class_uri": spec.iri, "status": "ok", "ged": ged, "n_gt_constraints": n,
              "error_breakdown": {"correct": n}}
    args = (tmp_path, {spec.iri: "Q"}, {spec.iri: tmp_path / "gt.shex"})
    assert oracle.failed_evaluations({"records": [record]}, *args) == set()
    assert oracle.failed_evaluations({"records": [dict(record, ged=ged + 1)]}, *args) == {spec.iri}
    assert oracle.failed_evaluations({"records": [dict(record, n_gt_constraints=n + 1)]}, *args) == {spec.iri}


def test_rule_client_breaks_then_repairs_local_replies():
    from shexbench.shexc import ShexcParseError, parse_shexc

    kg = SyntheticKg(TINY["local-repair"], 1, "local-repair")
    spec = next(s for s in kg.classes if s.broken)
    first = [{"role": "user", "content": f"generate the ShEx schema for the class '{spec.iri} ({spec.label})'"}]
    with pytest.raises(ShexcParseError):
        parse_shexc(RuleLlmClient(kg).send(first))
    repair = first + [{"role": "assistant", "content": "x"},
                      {"role": "user", "content": "The ShEx schema failed to parse with the following errors"}]
    parse_shexc(RuleLlmClient(kg).send(repair))


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_slowness_is_a_plausible_ratio():
    import hostspeed

    assert set(hostspeed.KERNELS) == set(hostspeed.REFERENCE_S)
    assert 0.1 < hostspeed.sample() < 10
