"""Operator commands over a benchmark manifest.

Subcommands: ``extract`` warms the SPARQL cache for a setting, ``generate``
writes one schema per class (live provider or recorded stubs), ``evaluate``
scores generated schemas against ground truth across matching criteria,
``train-cardinality`` fits the cardinality models from cached profiles, and
``report`` formats result files into summary tables.

Exit codes: 0 success, 2 configuration, 3 network, 4 parse failures,
5 partial per-class failures, 6 offline cache miss.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .cardml import (
    CardinalityLabel,
    CardinalityModel,
    evaluate_cardinality_accuracy,
    extract_features,
    train,
    write_feature_csv,
)
from .generate import (
    AssemblyError,
    GenerationFailedError,
    HttpLlmClient,
    LlmClient,
    MlCardinalitySource,
    StructuredOutputFailedError,
    StubLlmClient,
    StubReplyMissingError,
    TranscriptRecorder,
    generate_end_to_end,
    generate_global,
)
from .kginfo import (
    CacheMissError,
    EndpointConfig,
    EndpointError,
    KgClient,
    KgKind,
    KgSubclassOracle,
    MalformedResultsError,
    Triple,
    atomic_write_text as _atomic_write,
)
from .matching import (  # noqa: F401 - evaluate_pair stays bound for bench/tracer.py to patch
    ALL_CRITERIA,
    EvalReport,
    MatchCriteria,
    StaticSubclassOracle,
    evaluate_criteria,
    evaluate_pair,
    macro_average,
)
from .model import Iri, Schema, canonicalize
from .prompts import PromptSetting, build_local_prompt, build_triples_prompt, load_fewshot
from .shexc import ShexcParseError, parse_shexc, serialize_shexc
from .treedist import ged_and_nged

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_PARSE = 4
EXIT_PARTIAL = 5
EXIT_CACHE_MISS = 6

TransportFactory = Callable[[EndpointConfig], Callable[[str], dict] | None]


class ManifestError(ValueError):
    """The manifest file is missing, malformed, or fails validation."""


@dataclass(frozen=True)
class ManifestEntry:
    class_uri: Iri
    label: str
    kg_kind: KgKind
    endpoint_url: str
    typing_predicate: Iri
    ground_truth_path: Path
    #: The parsed ground truth, focused on ``class_uri``.
    ground_truth: Schema = field(compare=False, repr=False)

    @property
    def slug(self) -> str:
        return self.class_uri.local_name()


@dataclass(frozen=True)
class Manifest:
    dataset_name: str
    entries: tuple[ManifestEntry, ...]
    root: Path

    def select(self, classes: Sequence[str] | None) -> tuple[ManifestEntry, ...]:
        if not classes:
            return self.entries
        wanted = set(classes)
        return tuple(
            e for e in self.entries
            if e.class_uri.value in wanted or e.label in wanted or e.slug in wanted
        )


def load_manifest(path: Path | str) -> Manifest:
    """Read and validate a manifest, parsing each entry's ground truth once."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    entries = []
    problems = []
    seen: set[str] = set()
    for raw in doc.get("entries", []):
        try:
            fields = dict(
                class_uri=Iri(raw["class_uri"]),
                label=raw.get("label", ""),
                kg_kind=KgKind(raw["kg_kind"]),
                endpoint_url=raw["endpoint_url"],
                typing_predicate=Iri(raw["typing_predicate"]),
                ground_truth_path=path.parent / raw["ground_truth_path"],
            )
        except (KeyError, ValueError) as exc:
            problems.append(f"bad entry {raw!r}: {exc}")
            continue
        class_uri, ground_truth_path = fields["class_uri"], fields["ground_truth_path"]
        if class_uri.value in seen:
            problems.append(f"duplicate class_uri {class_uri}")
            continue
        seen.add(class_uri.value)
        try:
            ground_truth = parse_shexc(ground_truth_path.read_text(encoding="utf-8"), focus_class=class_uri)
        except (OSError, ShexcParseError) as exc:
            problems.append(f"ground truth {ground_truth_path} invalid: {exc}")
            continue
        entries.append(ManifestEntry(**fields, ground_truth=ground_truth))
    if problems:
        raise ManifestError("; ".join(problems))
    if not entries:
        raise ManifestError(f"manifest {path} has no entries")
    return Manifest(doc.get("dataset_name", path.stem), tuple(entries), path.parent)


def entry_endpoint_config(entry: ManifestEntry, cache_dir: Path | str, offline: bool = False) -> EndpointConfig:
    return EndpointConfig(
        endpoint_url=entry.endpoint_url,
        kg_kind=entry.kg_kind,
        typing_predicate=entry.typing_predicate,
        cache_dir=Path(cache_dir),
        offline=offline,
    )


@dataclass
class ResultRecord:
    """One evaluated (class, pipeline) run; serializable."""

    class_uri: str
    label: str
    setting: str
    model_id: str
    status: str = "ok"
    message: str | None = None
    reports: dict[str, dict] = field(default_factory=dict)
    ged: int | None = None
    nged: float | None = None
    error_breakdown: dict[str, int] | None = None
    n_gt_constraints: int | None = None
    n_gen_constraints: int | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _run_per_entry(entries, worker, jobs: int):
    if jobs <= 1:
        results = [worker(entry) for entry in entries]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, entries))
    return sorted(results, key=lambda r: r["class_uri"] if isinstance(r, dict) else r.class_uri)


# -- extract ------------------------------------------------------------------


def _triple_groups(client: KgClient, entry: ManifestEntry, frequencies: dict[Iri, int],
                   max_candidates: int | None) -> dict[Iri, list[Triple]]:
    """Example triples per predicate for a triples-setting prompt; the typing
    predicate stays in, its examples show class membership."""
    candidates = list(frequencies)
    if max_candidates is not None:
        candidates = candidates[:max_candidates]
    return {p: client.triple_examples(entry.class_uri, p) for p in candidates}


def _warm_entry(client: KgClient, entry: ManifestEntry, setting: PromptSetting,
                samples: int, max_candidates: int | None) -> dict[str, int]:
    counts: dict[str, int] = {}
    counts["instances"] = client.instance_count(entry.class_uri)
    frequencies = client.predicate_frequencies(entry.class_uri)
    counts["predicates"] = len(frequencies)
    if setting is PromptSetting.LOCAL:
        instances = client.sample_instances(entry.class_uri, samples)
        counts["sampled_instances"] = len(instances)
        counts["triples"] = sum(len(client.instance_triples(instance)) for instance in instances)
    elif setting is PromptSetting.TRIPLES:
        groups = _triple_groups(client, entry, frequencies, max_candidates)
        counts["example_triples"] = sum(len(triples) for triples in groups.values())
    else:
        candidates = [p for p in frequencies if p != entry.typing_predicate]
        if max_candidates is not None:
            candidates = candidates[:max_candidates]
        records = [client.build_global_record(entry.class_uri, predicate) for predicate in candidates]
        counts["records"] = len(records)
    return counts


def cmd_extract(
    manifest_path: Path | str,
    cache_dir: Path | str,
    setting: str = "global",
    classes: Sequence[str] | None = None,
    offline: bool = False,
    samples: int = 5,
    max_candidates: int | None = None,
    jobs: int = 1,
    transport_factory: TransportFactory | None = None,
) -> tuple[int, dict]:
    manifest = load_manifest(manifest_path)
    prompt_setting = PromptSetting(setting)
    entries = manifest.select(classes)

    def worker(entry: ManifestEntry) -> dict:
        cfg = entry_endpoint_config(entry, cache_dir, offline)
        transport = transport_factory(cfg) if transport_factory else None
        client = KgClient(cfg, transport=transport)
        started = time.perf_counter()
        try:
            counts = _warm_entry(client, entry, prompt_setting, samples, max_candidates)
            return {"class_uri": entry.class_uri.value, "status": "ok", "row_counts": counts,
                    "cache_keys": sorted(client.keys_touched),
                    "seconds": round(time.perf_counter() - started, 3)}
        except CacheMissError as exc:
            return {"class_uri": entry.class_uri.value, "status": "cache_miss", "error": str(exc)}
        except (EndpointError, ValueError) as exc:
            return {"class_uri": entry.class_uri.value, "status": "error", "error": str(exc)}

    results = _run_per_entry(entries, worker, jobs)
    report = {"dataset": manifest.dataset_name, "setting": setting, "cache_dir": str(cache_dir),
              "classes": results}
    statuses = {r["status"] for r in results}
    if "cache_miss" in statuses:
        return EXIT_CACHE_MISS, report
    if "error" in statuses:
        return EXIT_NETWORK, report
    return EXIT_OK, report


# -- generate -----------------------------------------------------------------


def _build_llm_client(stub_dir, provider_url, model, api_key_env) -> LlmClient:
    if stub_dir:
        return StubLlmClient(Path(stub_dir))
    if not provider_url or not model:
        raise ManifestError("generation needs either --stub-dir or --provider-url with --model")
    if not os.environ.get(api_key_env):
        raise ManifestError(f"credential environment variable {api_key_env} is not set")
    return HttpLlmClient(provider_url=provider_url, model=model, api_key_env=api_key_env)


def _fewshot_for(entry: ManifestEntry, setting: PromptSetting, fewshot_dir) -> tuple[tuple[str, str], ...]:
    if not fewshot_dir:
        return ()
    path = Path(fewshot_dir) / f"{entry.kg_kind.value}_{setting.value}.json"
    return load_fewshot(path) if path.exists() else ()


class _CollectingClient:
    """Attributes one class's LLM exchanges so they land in its sidecar file."""

    def __init__(self, inner: LlmClient):
        self.inner = inner
        self.exchanges: list[dict] = []

    def send(self, messages):
        reply = self.inner.send(messages)
        self.exchanges.append({"messages": list(messages), "reply": reply})
        return reply

    def write_sidecar(self, path: Path, class_uri: str) -> None:
        _atomic_write(path, json.dumps(
            {"class_uri": class_uri, "exchanges": self.exchanges}, indent=2, ensure_ascii=False
        ) + "\n")


def cmd_generate(
    manifest_path: Path | str,
    out_dir: Path | str,
    cache_dir: Path | str,
    setting: str = "global",
    classes: Sequence[str] | None = None,
    stub_dir: Path | str | None = None,
    provider_url: str | None = None,
    model: str | None = None,
    api_key_env: str = "SHEXBENCH_API_KEY",
    cardinality: str = "llm",
    model_file: Path | str | None = None,
    offline: bool = False,
    samples: int = 5,
    max_candidates: int | None = None,
    max_repairs: int = 2,
    fewshot_dir: Path | str | None = None,
    jobs: int = 1,
    transport_factory: TransportFactory | None = None,
    llm_client: LlmClient | None = None,
) -> tuple[int, dict]:
    manifest = load_manifest(manifest_path)
    prompt_setting = PromptSetting(setting)
    entries = manifest.select(classes)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    base_client = llm_client or _build_llm_client(stub_dir, provider_url, model, api_key_env)
    client_for_run: LlmClient = TranscriptRecorder(base_client, out / "transcripts")

    if cardinality == "llm":
        cardinality_source = None
    elif cardinality in ("dt", "gb"):
        if not model_file:
            raise ManifestError(f"--cardinality {cardinality} requires --model-file")
        try:
            cardinality_model = CardinalityModel.load(model_file)
        except (OSError, ValueError) as exc:
            raise ManifestError(f"cannot load --model-file {model_file}: {exc}") from exc
        cardinality_source = MlCardinalitySource(cardinality_model)
    else:
        raise ManifestError(f"unknown cardinality source {cardinality!r}")

    def worker(entry: ManifestEntry) -> dict:
        cfg = entry_endpoint_config(entry, cache_dir, offline)
        transport = transport_factory(cfg) if transport_factory else None
        kg = KgClient(cfg, transport=transport)
        fewshot = _fewshot_for(entry, prompt_setting, fewshot_dir)
        client = _CollectingClient(client_for_run)
        started = time.perf_counter()
        try:
            if prompt_setting is PromptSetting.GLOBAL:
                schema = generate_global(
                    entry.class_uri, kg, client, cardinality_source,
                    fewshot=fewshot, max_candidates=max_candidates,
                )
            else:
                if prompt_setting is PromptSetting.LOCAL:
                    instances = kg.sample_instances(entry.class_uri, samples)
                    sampled = [(instance, kg.instance_triples(instance)) for instance in instances]
                    prompt = build_local_prompt(entry.class_uri, sampled, fewshot, entry.label)
                else:
                    frequencies = kg.predicate_frequencies(entry.class_uri)
                    groups = _triple_groups(kg, entry, frequencies, max_candidates)
                    prompt = build_triples_prompt(entry.class_uri, groups, fewshot, entry.label)
                schema = generate_end_to_end(entry.class_uri, prompt, client, max_repairs)
            text = serialize_shexc(schema)
            _atomic_write(out / f"{entry.slug}.shex", text)
            client.write_sidecar(out / f"{entry.slug}.transcript.json", entry.class_uri.value)
            return {"class_uri": entry.class_uri.value, "status": "ok",
                    "path": str(out / f"{entry.slug}.shex"),
                    "seconds": round(time.perf_counter() - started, 3)}
        except CacheMissError as exc:
            return {"class_uri": entry.class_uri.value, "status": "cache_miss", "error": str(exc)}
        except MalformedResultsError as exc:
            return {"class_uri": entry.class_uri.value, "status": "error", "error": str(exc)}
        except (GenerationFailedError, StructuredOutputFailedError, StubReplyMissingError,
                AssemblyError, EndpointError, ValueError, RuntimeError) as exc:
            log.warning("generation failed for %s: %s", entry.class_uri, exc)
            return {"class_uri": entry.class_uri.value, "status": "failed", "error": str(exc)}

    results = _run_per_entry(entries, worker, jobs)
    report = {"dataset": manifest.dataset_name, "setting": setting, "out_dir": str(out),
              "model_id": model or ("stub" if stub_dir or llm_client else "unknown"),
              "cardinality": cardinality, "classes": results}
    statuses = {r["status"] for r in results}
    if "cache_miss" in statuses:
        return EXIT_CACHE_MISS, report
    if "error" in statuses:
        return EXIT_NETWORK, report
    if "failed" in statuses:
        return EXIT_PARTIAL, report
    return EXIT_OK, report


# -- evaluate -----------------------------------------------------------------


def _parse_criteria(spec: str | None) -> tuple[MatchCriteria, ...]:
    if not spec or spec == "all":
        return ALL_CRITERIA
    return tuple(MatchCriteria.parse(part) for part in spec.split(";"))


def load_subclass_oracle(path: Path | str) -> StaticSubclassOracle:
    """Static oracle file: {"subclass_of": {child: [parents]}, "value_types": {pred: [classes]}}.

    Raises OSError for an unreadable file and ValueError for a malformed one.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    tables = []
    for key in ("subclass_of", "value_types"):
        table = doc.get(key, {}) if isinstance(doc, dict) else None
        if not isinstance(table, dict) or not all(
            isinstance(values, list) and all(isinstance(v, str) for v in values) for values in table.values()
        ):
            raise ValueError(f"{key!r} must map IRIs to lists of IRIs")
        tables.append({Iri(k): [Iri(v) for v in values] for k, values in table.items()})
    return StaticSubclassOracle(*tables)


def cmd_evaluate(
    manifest_path: Path | str,
    generated_dir: Path | str,
    criteria: str | None = "all",
    classes: Sequence[str] | None = None,
    out: Path | str | None = None,
    fmt: str = "json",
    subclass_file: Path | str | None = None,
    cache_dir: Path | str | None = None,
    setting: str = "unknown",
    model_id: str = "generated",
    jobs: int = 1,
    transport_factory: TransportFactory | None = None,
) -> tuple[int, dict]:
    manifest = load_manifest(manifest_path)
    entries = manifest.select(classes)
    criteria_list = _parse_criteria(criteria)
    generated = Path(generated_dir)
    static_oracle = None
    if subclass_file:
        try:
            static_oracle = load_subclass_oracle(subclass_file)
        except (OSError, ValueError) as exc:
            raise ManifestError(f"cannot load --subclass-file {subclass_file}: {exc}") from exc

    def oracle_for(entry: ManifestEntry):
        if static_oracle is not None:
            return static_oracle
        if cache_dir is not None:
            cfg = entry_endpoint_config(entry, cache_dir, offline=False)
            transport = transport_factory(cfg) if transport_factory else None
            return KgSubclassOracle(KgClient(cfg, transport=transport))
        return StaticSubclassOracle()

    def worker(entry: ManifestEntry) -> ResultRecord:
        record = ResultRecord(entry.class_uri.value, entry.label, setting, model_id)
        gt = entry.ground_truth
        path = generated / f"{entry.slug}.shex"
        if not path.exists():
            record.status = "invalid"
            record.message = f"no generated schema at {path}"
            return record
        try:
            gen = parse_shexc(path.read_text(encoding="utf-8"), focus_class=entry.class_uri)
        except ShexcParseError as exc:
            record.status = "invalid"
            record.message = str(exc)
            return record
        oracle = oracle_for(entry)
        started = time.perf_counter()
        reports = evaluate_criteria(gen, gt, criteria_list, oracle, typing_predicates=(entry.typing_predicate,))
        for criterion, report in reports.items():
            record.reports[criterion.key()] = {
                "precision": report.precision,
                "recall": report.recall,
                "f1": report.f1,
                "matched_count": report.matched_count,
            }
            if record.error_breakdown is None:
                record.error_breakdown = report.error_breakdown.as_dict()
        record.ged, record.nged = ged_and_nged(gen, gt)
        record.n_gt_constraints = len(gt.start_shape.constraints)
        record.n_gen_constraints = len(gen.start_shape.constraints)
        record.timings["evaluate"] = round(time.perf_counter() - started, 4)
        return record

    records = _run_per_entry(entries, worker, jobs)
    doc = _evaluation_document(manifest, records, criteria_list, setting, model_id)
    rendered = _render_evaluation(doc, fmt)
    if out:
        _atomic_write(Path(out), rendered)
    exit_code = EXIT_PARSE if any(r.status == "invalid" for r in records) else EXIT_OK
    return exit_code, doc


def _evaluation_document(manifest, records, criteria_list, setting, model_id) -> dict:
    valid = [r for r in records if r.status == "ok"]
    aggregate: dict[str, dict] = {}
    for criterion in criteria_list:
        key = criterion.key()
        if valid:
            reports = [
                EvalReport(
                    r.reports[key]["precision"], r.reports[key]["recall"],
                    r.reports[key]["f1"], r.reports[key]["matched_count"],
                )
                for r in valid
            ]
            precision, recall, f1 = macro_average(reports)
        else:
            precision = recall = f1 = 0.0
        aggregate[key] = {"precision": precision, "recall": recall, "f1": f1, "n": len(valid)}
    mean_ged = sum(r.ged for r in valid) / len(valid) if valid else 0.0
    mean_nged = sum(r.nged for r in valid) / len(valid) if valid else 0.0
    breakdown_total: dict[str, int] = {}
    for r in valid:
        for bucket, count in (r.error_breakdown or {}).items():
            breakdown_total[bucket] = breakdown_total.get(bucket, 0) + count
    return {
        "dataset": manifest.dataset_name,
        "setting": setting,
        "model_id": model_id,
        "n_classes": len(records),
        "n_valid": len(valid),
        "n_invalid": len(records) - len(valid),
        "invalid": [{"class_uri": r.class_uri, "message": r.message}
                    for r in records if r.status != "ok"],
        "aggregate": aggregate,
        "mean_ged": mean_ged,
        "mean_nged": mean_nged,
        "error_breakdown": breakdown_total,
        "records": [r.to_dict() for r in records],
    }


def _render_evaluation(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["class_uri,criteria,precision,recall,f1,ged,nged,status"]
        for record in doc["records"]:
            for key, metrics in sorted(record["reports"].items()):
                lines.append(
                    f"{record['class_uri']},{key},{metrics['precision']:.6f},"
                    f"{metrics['recall']:.6f},{metrics['f1']:.6f},"
                    f"{record['ged']},{record['nged']:.6f},{record['status']}"
                )
            if not record["reports"]:
                lines.append(f"{record['class_uri']},,,,,,,{record['status']}")
        return "\n".join(lines) + "\n"
    if fmt == "md":
        return _markdown_grid(doc)
    raise ManifestError(f"unknown format {fmt!r}")


def _markdown_grid(doc: dict) -> str:
    lines = [
        f"### {doc['model_id']} / {doc['setting']} on {doc['dataset']} "
        f"(N={doc['n_valid']}, invalid={doc['n_invalid']})",
        "",
        "| Node Constraint | Cardinality | P | R | F1 |",
        "|---|---|---|---|---|",
    ]
    for key, metrics in doc["aggregate"].items():
        criterion = MatchCriteria.parse(key)
        lines.append(
            f"| {criterion.node_mode.value.title()} | {criterion.cardinality_mode.value.title()} "
            f"| {metrics['precision']:.3f} | {metrics['recall']:.3f} | {metrics['f1']:.3f} |"
        )
    lines += [
        "",
        "| P | R | F1 | GED | NGED |",
        "|---|---|---|---|---|",
    ]
    exact = doc["aggregate"].get("node=exact,card=exact", {"precision": 0, "recall": 0, "f1": 0})
    lines.append(
        f"| {exact['precision']:.3f} | {exact['recall']:.3f} | {exact['f1']:.3f} "
        f"| {doc['mean_ged']:.2f} | {doc['mean_nged']:.3f} |"
    )
    return "\n".join(lines) + "\n"


# -- report -------------------------------------------------------------------


def cmd_report(result_paths: Sequence[Path | str], fmt: str = "md") -> tuple[int, str]:
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in result_paths]
    if fmt == "csv":
        lines = ["model_id,setting,criteria,precision,recall,f1,ged,nged,n"]
        for doc in docs:
            for key, metrics in sorted(doc["aggregate"].items()):
                lines.append(
                    f"{doc['model_id']},{doc['setting']},{key},{metrics['precision']:.6f},"
                    f"{metrics['recall']:.6f},{metrics['f1']:.6f},{doc['mean_ged']:.4f},"
                    f"{doc['mean_nged']:.6f},{metrics['n']}"
                )
        return EXIT_OK, "\n".join(lines) + "\n"

    lines = [
        "| Model | Setting | P | R | F1 | GED | NGED | N |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for doc in docs:
        exact = doc["aggregate"].get("node=exact,card=exact")
        if exact is None:
            continue
        lines.append(
            f"| {doc['model_id']} | {doc['setting']} | {exact['precision']:.3f} "
            f"| {exact['recall']:.3f} | {exact['f1']:.3f} | {doc['mean_ged']:.2f} "
            f"| {doc['mean_nged']:.3f} | {exact['n']} |"
        )
    lines += ["", "Error distribution (% of ground-truth constraints):", "",
              "| Model | Setting | Correct | Missing predicate | Wrong cardinality | Wrong node constraint | Both wrong |",
              "|---|---|---|---|---|---|---|"]
    for doc in docs:
        breakdown = doc.get("error_breakdown") or {}
        total = sum(breakdown.values())
        if not total:
            continue
        pct = {bucket: 100.0 * count / total for bucket, count in breakdown.items()}
        lines.append(
            f"| {doc['model_id']} | {doc['setting']} | {pct.get('correct', 0):.1f} "
            f"| {pct.get('missing_predicate', 0):.1f} | {pct.get('wrong_cardinality', 0):.1f} "
            f"| {pct.get('wrong_node_constraint', 0):.1f} | {pct.get('both_wrong', 0):.1f} |"
        )
    return EXIT_OK, "\n".join(lines) + "\n"


# -- train-cardinality ----------------------------------------------------------


def cmd_train_cardinality(
    manifest_path: Path | str,
    cache_dir: Path | str,
    out_path: Path | str,
    kind: str = "gb",
    classes: Sequence[str] | None = None,
    sample_n: int | None = None,
    seed: int = 42,
    offline: bool = False,
    dump_features: Path | str | None = None,
    transport_factory: TransportFactory | None = None,
) -> tuple[int, dict]:
    manifest = load_manifest(manifest_path)
    entries = list(manifest.select(classes))
    if sample_n is not None and sample_n < len(entries):
        rng = random.Random(seed)
        entries = sorted(rng.sample(entries, sample_n), key=lambda e: e.class_uri.value)

    rows: list[tuple] = []
    row_classes: list[str] = []
    row_predicates: list[str] = []
    for entry in entries:
        cfg = entry_endpoint_config(entry, cache_dir, offline)
        transport = transport_factory(cfg) if transport_factory else None
        client = KgClient(cfg, transport=transport)
        for constraint in canonicalize(entry.ground_truth).start_shape.constraints:
            try:
                record = client.build_global_record(entry.class_uri, constraint.predicate)
            except (EndpointError, CacheMissError) as exc:
                log.warning("skipping %s / %s: %s", entry.class_uri, constraint.predicate, exc)
                continue
            rows.append((extract_features(record), CardinalityLabel.from_cardinality(constraint.cardinality)))
            row_classes.append(entry.class_uri.value)
            row_predicates.append(constraint.predicate.value)

    if not rows:
        raise ManifestError("no training rows could be built (is the cache warm?)")
    model = train(kind, rows, seed=seed)
    model.save(out_path)
    if dump_features:
        write_feature_csv(rows, dump_features, row_classes, row_predicates)
    acc_min, acc_max, acc_combined = evaluate_cardinality_accuracy(model, rows)
    report = {
        "model_file": str(out_path),
        "kind": kind,
        "seed": seed,
        "rows": len(rows),
        "classes": sorted({c for c in row_classes}),
        "train_accuracy": {"min": acc_min, "max": acc_max, "combined": acc_combined},
    }
    return EXIT_OK, report


# -- argparse wiring -------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, jobs: bool = True) -> None:
    parser.add_argument("--manifest", required=True, help="benchmark manifest JSON")
    parser.add_argument("--class", dest="classes", action="append",
                        help="restrict to a class (URI, label, or slug); repeatable")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1, help="parallel per-class workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shexbench",
                                     description="Generate and evaluate ShEx schemas for KG classes")
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="warm the SPARQL cache for a setting")
    _add_common(extract)
    extract.add_argument("--setting", choices=["local", "global", "triples"], default="global")
    extract.add_argument("--cache-dir", required=True)
    extract.add_argument("--offline", action="store_true")
    extract.add_argument("--samples", type=int, default=5)
    extract.add_argument("--max-candidates", type=int, default=None)
    extract.add_argument("--out", help="write the extraction report here (default stdout)")

    generate = sub.add_parser("generate", help="generate one schema per class")
    _add_common(generate)
    generate.add_argument("--setting", choices=["local", "global", "triples"], default="global")
    generate.add_argument("--cache-dir", required=True)
    generate.add_argument("--out-dir", required=True)
    generate.add_argument("--offline", action="store_true")
    generate.add_argument("--stub-dir", help="replay recorded LLM replies instead of calling a provider")
    generate.add_argument("--provider-url")
    generate.add_argument("--model")
    generate.add_argument("--api-key-env", default="SHEXBENCH_API_KEY")
    generate.add_argument("--cardinality", choices=["llm", "dt", "gb"], default="llm")
    generate.add_argument("--model-file")
    generate.add_argument("--samples", type=int, default=5)
    generate.add_argument("--max-candidates", type=int, default=None)
    generate.add_argument("--max-repairs", type=int, default=2)
    generate.add_argument("--fewshot-dir")
    generate.add_argument("--out", help="write the generation report here (default stdout)")

    evaluate = sub.add_parser("evaluate", help="score generated schemas against ground truth")
    _add_common(evaluate)
    evaluate.add_argument("--generated-dir", required=True)
    evaluate.add_argument("--criteria", default="all",
                          help="'all' or ';'-separated node=<mode>,card=<mode> combinations")
    evaluate.add_argument("--format", dest="fmt", choices=["json", "csv", "md"], default="json")
    evaluate.add_argument("--out")
    evaluate.add_argument("--subclass-file", help="static subclass oracle JSON")
    evaluate.add_argument("--cache-dir", help="use the cached KG for subclass answers")
    evaluate.add_argument("--setting", default="unknown")
    evaluate.add_argument("--model-id", default="generated")

    report = sub.add_parser("report", help="format result files into tables")
    report.add_argument("results", nargs="+", help="evaluation JSON files")
    report.add_argument("--format", dest="fmt", choices=["md", "csv"], default="md")
    report.add_argument("--out")

    train_cmd = sub.add_parser("train-cardinality", help="fit cardinality models from cached profiles")
    _add_common(train_cmd, jobs=False)
    train_cmd.add_argument("--cache-dir", required=True)
    train_cmd.add_argument("--kind", choices=["dt", "gb"], default="gb")
    train_cmd.add_argument("--out", required=True, help="model file to write")
    train_cmd.add_argument("--seed", type=int, default=42)
    train_cmd.add_argument("--sample", type=int, default=None, help="train on a seeded sample of N classes")
    train_cmd.add_argument("--offline", action="store_true")
    train_cmd.add_argument("--dump-features", help="also write the feature table CSV here")
    return parser


def _emit(payload: str, out: str | None) -> None:
    """Write ``payload`` to ``out``, or else to standard output, as UTF-8
    whatever the locale."""
    if out:
        _atomic_write(Path(out), payload)
        return
    sys.stdout.flush()
    sys.stdout.buffer.write(payload.encode("utf-8"))
    sys.stdout.buffer.flush()


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("SHEXBENCH_LOG", "WARNING"))
    args = build_parser().parse_args(argv)
    try:
        if args.command == "extract":
            code, report = cmd_extract(
                args.manifest, args.cache_dir, args.setting, args.classes,
                offline=args.offline, samples=args.samples,
                max_candidates=args.max_candidates, jobs=args.jobs,
            )
            _emit(json.dumps(report, indent=2) + "\n", args.out)
            return code
        if args.command == "generate":
            code, report = cmd_generate(
                args.manifest, args.out_dir, args.cache_dir, args.setting, args.classes,
                stub_dir=args.stub_dir, provider_url=args.provider_url, model=args.model,
                api_key_env=args.api_key_env, cardinality=args.cardinality,
                model_file=args.model_file, offline=args.offline, samples=args.samples,
                max_candidates=args.max_candidates, max_repairs=args.max_repairs,
                fewshot_dir=args.fewshot_dir, jobs=args.jobs,
            )
            _emit(json.dumps(report, indent=2) + "\n", args.out)
            return code
        if args.command == "evaluate":
            code, doc = cmd_evaluate(
                args.manifest, args.generated_dir, args.criteria, args.classes,
                out=args.out, fmt=args.fmt, subclass_file=args.subclass_file,
                cache_dir=args.cache_dir, setting=args.setting,
                model_id=args.model_id, jobs=args.jobs,
            )
            if not args.out:
                _emit(_render_evaluation(doc, args.fmt), None)
            return code
        if args.command == "report":
            code, text = cmd_report(args.results, args.fmt)
            _emit(text, args.out)
            return code
        if args.command == "train-cardinality":
            code, report = cmd_train_cardinality(
                args.manifest, args.cache_dir, args.out, args.kind, args.classes,
                sample_n=args.sample, seed=args.seed, offline=args.offline,
                dump_features=args.dump_features,
            )
            _emit(json.dumps(report, indent=2) + "\n", None)
            return code
        raise ManifestError(f"unknown command {args.command!r}")
    except ManifestError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CacheMissError as exc:
        print(f"offline cache miss: {exc}", file=sys.stderr)
        return EXIT_CACHE_MISS
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except MalformedResultsError as exc:
        print(f"malformed results: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except ShexcParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
