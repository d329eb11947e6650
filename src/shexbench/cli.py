"""Operator commands over a benchmark manifest.

Subcommands: ``extract`` warms the SPARQL cache for a setting, ``generate``
writes one schema per class (live provider or recorded stubs), ``evaluate``
scores generated schemas against ground truth across matching criteria,
``train-cardinality`` fits the cardinality models from cached profiles, and
``report`` formats result files into summary tables.

Exit codes: 0 success, 2 configuration, 3 network or local file error,
4 parse failures, 5 partial per-class failures, 6 offline cache miss.
"""

from __future__ import annotations

import argparse
import logging
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .cardml import (
    FEATURE_FIELDS,
    MODEL_KINDS,
    CardinalityLabel,
    CardinalityModel,
    _is_number,
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
    ProviderError,
    StructuredOutputFailedError,
    StubLlmClient,
    StubReplyMissingError,
    TranscriptRecorder,
    generate_end_to_end,
    generate_global,
)
from .kginfo import (
    CacheMissError,
    CacheStore,
    EndpointConfig,
    EndpointError,
    KgClient,
    KgKind,
    KgSubclassOracle,
    LocalFileError,
    MalformedResultsError,
    atomic_write_text as _atomic_write,
    decode_json,
)
from .jsonout import csv_text, indented_json
from .matching import (  # noqa: F401 - evaluate_pair stays bound for bench/tracer.py to patch
    ALL_CRITERIA,
    CardinalityMode,
    EvalReport,
    MatchCriteria,
    NodeMode,
    StaticSubclassOracle,
    evaluate_canonical,
    evaluate_pair,
    macro_average,
)
from .model import Iri, Schema, canonicalize
from .prompts import (
    EmptyPredicateSetError,
    EmptySampleError,
    PromptSetting,
    build_local_prompt,
    build_triples_prompt,
    load_fewshot,
)
from .shexc import ShexcParseError, parse_shexc, serialize_shexc
from .treedist import canonical_ged_and_nged

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_PARSE = 4
EXIT_PARTIAL = 5
EXIT_CACHE_MISS = 6

TransportFactory = Callable[[EndpointConfig], Callable[[str], dict] | None]


class ManifestError(ValueError):
    """A configuration error: the manifest or another input file named on the
    command line is missing or malformed, or an option is out of range."""


class UnreadableSchemaError(Exception):
    """A generated schema file is missing, unreadable, or not UTF-8."""


@dataclass(frozen=True)
class ManifestEntry:
    class_uri: Iri
    label: str
    kg_kind: KgKind
    endpoint_url: str
    typing_predicate: Iri
    ground_truth_path: Path

    @property
    def slug(self) -> str:
        return self.class_uri.local_name()

    @cached_property
    def ground_truth(self) -> Schema:
        """The ground truth focused on ``class_uri``, parsed on first read and kept."""
        try:
            return parse_shexc(self.ground_truth_path.read_text(encoding="utf-8"), focus_class=self.class_uri)
        except (OSError, ShexcParseError) as exc:
            raise ManifestError(f"ground truth {self.ground_truth_path} invalid: {exc}") from exc


@dataclass(frozen=True)
class Manifest:
    dataset_name: str
    entries: tuple[ManifestEntry, ...]
    root: Path

    def select(self, classes: Sequence[str] | None) -> tuple[ManifestEntry, ...]:
        """The entries that ``classes`` name by URI, label or slug, in manifest
        order (all of them when ``classes`` is empty); a name that matches no
        entry is a :class:`ManifestError`."""
        if not classes:
            return self.entries
        wanted = set(classes)
        chosen = tuple(e for e in self.entries if wanted & {e.class_uri.value, e.label, e.slug})
        matched = {name for e in chosen for name in (e.class_uri.value, e.label, e.slug)}
        unmatched = [name for name in dict.fromkeys(classes) if name not in matched]
        if unmatched:
            raise ManifestError("--class names no manifest entry: " + ", ".join(map(repr, unmatched)))
        return chosen


#: The string fields of a manifest entry.
_ENTRY_FIELDS = ("class_uri", "label", "kg_kind", "endpoint_url", "typing_predicate", "ground_truth_path")


def load_manifest(path: Path | str) -> Manifest:
    """Read and validate a manifest; it reads no ground-truth file."""
    path = Path(path)
    try:
        doc = decode_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    raw_entries = doc.get("entries", [])
    if not isinstance(raw_entries, list) or not all(isinstance(raw, dict) for raw in raw_entries):
        raise ManifestError(f'manifest {path}: "entries" must be a list of objects')
    dataset_name = doc.get("dataset_name", path.stem)
    if not isinstance(dataset_name, str):
        raise ManifestError(f'manifest {path}: "dataset_name" must be a string')
    entries = []
    problems = []
    seen: set[str] = set()
    for raw in raw_entries:
        not_strings = [name for name in _ENTRY_FIELDS if name in raw and not isinstance(raw[name], str)]
        if not_strings:
            problems.append(f"bad entry {raw!r}: {', '.join(not_strings)} must be strings")
            continue
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
        class_uri = fields["class_uri"]
        if class_uri.value in seen:
            problems.append(f"duplicate class_uri {class_uri}")
            continue
        seen.add(class_uri.value)
        entries.append(ManifestEntry(**fields))
    if problems:
        raise ManifestError("; ".join(problems))
    if not entries:
        raise ManifestError(f"manifest {path} has no entries")
    return Manifest(dataset_name, tuple(entries), path.parent)


def entry_endpoint_config(entry: ManifestEntry, cache_dir: Path | str, offline: bool = False) -> EndpointConfig:
    return EndpointConfig(
        endpoint_url=entry.endpoint_url,
        kg_kind=entry.kg_kind,
        typing_predicate=entry.typing_predicate,
        cache_dir=Path(cache_dir),
        offline=offline,
    )


def _cache_stores(entries: Iterable[ManifestEntry]) -> dict[str, CacheStore]:
    """One cache store per endpoint URL among ``entries``, for one command, so
    its classes fetch each key once and share the endpoint's in-flight gate."""
    return {url: CacheStore() for url in {entry.endpoint_url for entry in entries}}


def _kg_client(entry: ManifestEntry, cache_dir: Path | str, offline: bool,
               transport_factory: TransportFactory | None, stores: dict[str, CacheStore]) -> KgClient:
    """The class's KG client over its endpoint's store in ``stores``, and over
    ``transport_factory``'s transport when one is given."""
    cfg = entry_endpoint_config(entry, cache_dir, offline)
    return KgClient(cfg, transport=transport_factory(cfg) if transport_factory else None,
                    store=stores[entry.endpoint_url])


#: The per-class status of each failure a class's work may raise; the first
#: entry the exception is an instance of decides.  Any other exception is a
#: programming error and propagates.
_STATUS_OF: tuple[tuple[type[Exception], str], ...] = (
    (CacheMissError, "cache_miss"),
    (EndpointError, "error"),
    (MalformedResultsError, "error"),
    (LocalFileError, "error"),
    (ShexcParseError, "invalid"),
    (UnreadableSchemaError, "invalid"),
    (GenerationFailedError, "failed"),
    (StructuredOutputFailedError, "failed"),
    (StubReplyMissingError, "failed"),
    (AssemblyError, "failed"),
    (EmptySampleError, "failed"),
    (EmptyPredicateSetError, "failed"),
    (ProviderError, "failed"),
)
_FAILURES = tuple(kind for kind, _ in _STATUS_OF)

#: Each status's exit code, the gravest first.
_EXIT_OF = (("cache_miss", EXIT_CACHE_MISS), ("error", EXIT_NETWORK), ("failed", EXIT_PARTIAL),
            ("invalid", EXIT_PARSE))


def _status_of(exc: Exception) -> str:
    return next(status for kind, status in _STATUS_OF if isinstance(exc, kind))


def _exit_code(statuses: Iterable[str]) -> int:
    """A command's exit code from its per-class statuses, the gravest first."""
    present = set(statuses)
    return next((code for status, code in _EXIT_OF if status in present), EXIT_OK)


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


def _run_per_entry(entries, worker, failure, jobs: int) -> list:
    """``worker(entry)`` for each entry in class-URI order, on ``jobs`` threads.

    A failure named in :data:`_STATUS_OF` becomes ``failure(entry, status,
    message)`` in place of the worker's result."""

    def run(entry: ManifestEntry):
        try:
            return worker(entry)
        except _FAILURES as exc:
            return failure(entry, _status_of(exc), str(exc))

    ordered = sorted(entries, key=lambda entry: entry.class_uri.value)
    if jobs <= 1:
        return [run(entry) for entry in ordered]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, ordered))


def _failure_row(entry: ManifestEntry, status: str, message: str) -> dict:
    """An extract or generate report's row for a class that failed."""
    return {"class_uri": entry.class_uri.value, "status": status, "error": message}


def _check_counts(samples: int, max_candidates: int | None, max_repairs: int = 0) -> None:
    if samples < 1:
        raise ManifestError(f"--samples must be at least 1, got {samples}")
    if max_candidates is not None and max_candidates < 1:
        raise ManifestError(f"--max-candidates must be at least 1, got {max_candidates}")
    if max_repairs < 0:
        raise ManifestError(f"--max-repairs must be at least 0, got {max_repairs}")


# -- extract ------------------------------------------------------------------


def _warm_entry(client: KgClient, entry: ManifestEntry, setting: PromptSetting,
                samples: int, max_candidates: int | None) -> dict[str, int]:
    counts: dict[str, int] = {}
    counts["instances"] = client.instance_count(entry.class_uri)
    counts["predicates"] = len(client.predicate_frequencies(entry.class_uri))
    if setting is PromptSetting.LOCAL:
        sampled = client.sampled_triples(entry.class_uri, samples)
        counts["sampled_instances"] = len(sampled)
        counts["triples"] = sum(len(triples) for _, triples in sampled)
    elif setting is PromptSetting.TRIPLES:
        groups = client.triple_groups(entry.class_uri, max_candidates)
        counts["example_triples"] = sum(len(triples) for triples in groups.values())
    else:
        candidates = client.global_candidates(entry.class_uri, max_candidates)
        counts["records"] = len(client.global_records(entry.class_uri, candidates))
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
    _check_counts(samples, max_candidates)
    manifest = load_manifest(manifest_path)
    prompt_setting = PromptSetting(setting)
    entries = manifest.select(classes)
    stores = _cache_stores(entries)

    def worker(entry: ManifestEntry) -> dict:
        client = _kg_client(entry, cache_dir, offline, transport_factory, stores)
        started = time.perf_counter()
        counts = _warm_entry(client, entry, prompt_setting, samples, max_candidates)
        return {"class_uri": entry.class_uri.value, "status": "ok", "row_counts": counts,
                "cache_keys": sorted(client.keys_touched),
                "seconds": round(time.perf_counter() - started, 3)}

    results = _run_per_entry(entries, worker, _failure_row, jobs)
    report = {"dataset": manifest.dataset_name, "setting": setting, "cache_dir": str(cache_dir),
              "classes": results}
    return _exit_code(r["status"] for r in results), report


# -- generate -----------------------------------------------------------------


def _build_llm_client(stub_dir, provider_url, model, api_key_env) -> LlmClient:
    if stub_dir:
        return StubLlmClient(Path(stub_dir))
    if not provider_url or not model:
        raise ManifestError("generation needs either --stub-dir or --provider-url with --model")
    if not os.environ.get(api_key_env):
        raise ManifestError(f"credential environment variable {api_key_env} is not set")
    return HttpLlmClient(provider_url=provider_url, model=model, api_key_env=api_key_env)


def _load_fewshots(entries: Sequence[ManifestEntry], setting: PromptSetting,
                   fewshot_dir) -> dict[KgKind, tuple[tuple[str, str], ...]]:
    """The few-shot exemplars of each KG kind among ``entries``, read once from
    ``<fewshot_dir>/<kind>_<setting>.json``; none without ``fewshot_dir``."""
    if not fewshot_dir:
        return {}
    fewshots = {}
    for kind in sorted({entry.kg_kind for entry in entries}, key=lambda kind: kind.value):
        path = Path(fewshot_dir) / f"{kind.value}_{setting.value}.json"
        try:
            fewshots[kind] = load_fewshot(path)
        except (OSError, ValueError) as exc:
            raise ManifestError(f"cannot load few-shot file {path}: {exc}") from exc
    return fewshots


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
    _check_counts(samples, max_candidates, max_repairs)
    manifest = load_manifest(manifest_path)
    prompt_setting = PromptSetting(setting)
    cardinality_model = None
    if model_file:
        if prompt_setting is not PromptSetting.GLOBAL:
            raise ManifestError(f"--model-file needs --setting global, got --setting {setting}")
        try:
            cardinality_model = CardinalityModel.load(model_file)
        except (OSError, ValueError) as exc:
            raise ManifestError(f"cannot load --model-file {model_file}: {exc}") from exc
    entries = manifest.select(classes)
    out = Path(out_dir)
    fewshots = _load_fewshots(entries, prompt_setting, fewshot_dir)
    stores = _cache_stores(entries)

    base_client = llm_client or _build_llm_client(stub_dir, provider_url, model, api_key_env)
    # a stub replay's record is its stub directory; only a run that calls a
    # model writes per-hash files, which later runs replay with --stub-dir
    transcripts = None if isinstance(base_client, StubLlmClient) else out / "transcripts"

    def worker(entry: ManifestEntry) -> dict:
        kg = _kg_client(entry, cache_dir, offline, transport_factory, stores)
        fewshot = fewshots.get(entry.kg_kind, ())
        client = TranscriptRecorder(base_client, transcripts)
        started = time.perf_counter()
        if prompt_setting is PromptSetting.GLOBAL:
            schema = generate_global(
                entry.class_uri, kg, client, cardinality_model,
                fewshot=fewshot, max_candidates=max_candidates,
            )
        else:
            if prompt_setting is PromptSetting.LOCAL:
                sampled = kg.sampled_triples(entry.class_uri, samples)
                prompt = build_local_prompt(entry.class_uri, sampled, fewshot, entry.label)
            else:
                groups = kg.triple_groups(entry.class_uri, max_candidates)
                prompt = build_triples_prompt(entry.class_uri, groups, fewshot, entry.label)
            schema = generate_end_to_end(entry.class_uri, prompt, client, max_repairs)
        text = serialize_shexc(schema)
        _atomic_write(out / f"{entry.slug}.shex", text)
        client.write_sidecar(out / f"{entry.slug}.transcript.json", entry.class_uri.value)
        return {"class_uri": entry.class_uri.value, "status": "ok",
                "path": str(out / f"{entry.slug}.shex"),
                "seconds": round(time.perf_counter() - started, 3)}

    results = _run_per_entry(entries, worker, _failure_row, jobs)
    report = {"dataset": manifest.dataset_name, "setting": setting, "out_dir": str(out),
              "model_id": model or "stub",
              "cardinality": cardinality_model.kind if cardinality_model else "llm", "classes": results}
    return _exit_code(r["status"] for r in results), report


# -- evaluate -----------------------------------------------------------------


#: The ``--format`` values evaluate renders.
_EVALUATION_FORMATS = ("json", "csv", "md")

#: The ``--criteria`` values evaluate accepts, for its configuration error.
_CRITERIA_HELP = ("'all' or ';'-separated combinations of node=" + "|".join(m.value for m in NodeMode)
                  + " and card=" + "|".join(m.value for m in CardinalityMode))


def _parse_criteria(spec: str | None) -> tuple[MatchCriteria, ...]:
    if not spec or spec == "all":
        return ALL_CRITERIA
    try:
        return tuple(MatchCriteria.parse(part) for part in spec.split(";"))
    except ValueError as exc:
        raise ManifestError(f"--criteria {spec!r}: {exc}; expected {_CRITERIA_HELP}") from exc


def load_subclass_oracle(path: Path | str) -> StaticSubclassOracle:
    """Static oracle file: {"subclass_of": {child: [parents]}, "value_types": {pred: [classes]}}.

    Raises OSError for an unreadable file and ValueError for a malformed one.
    """
    doc = decode_json(Path(path).read_text(encoding="utf-8"))
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
    criteria_list = _parse_criteria(criteria)
    if fmt not in _EVALUATION_FORMATS:
        raise ManifestError(f"unknown format {fmt!r}")
    manifest = load_manifest(manifest_path)
    entries = manifest.select(classes)
    # read before any class runs, so a bad ground-truth file stops the command
    ground_truths = {entry.class_uri: entry.ground_truth for entry in entries}
    generated = Path(generated_dir)
    static_oracle = None
    if subclass_file:
        try:
            static_oracle = load_subclass_oracle(subclass_file)
        except (OSError, ValueError) as exc:
            raise ManifestError(f"cannot load --subclass-file {subclass_file}: {exc}") from exc
    stores = _cache_stores(entries)

    def oracle_for(entry: ManifestEntry):
        if static_oracle is not None:
            return static_oracle
        if cache_dir is not None:
            return KgSubclassOracle(_kg_client(entry, cache_dir, False, transport_factory, stores))
        return StaticSubclassOracle()

    def worker(entry: ManifestEntry) -> ResultRecord:
        record = ResultRecord(entry.class_uri.value, entry.label, setting, model_id)
        gt = ground_truths[entry.class_uri]
        gen = parse_shexc(_read_generated(generated / f"{entry.slug}.shex"), focus_class=entry.class_uri)
        oracle = oracle_for(entry)
        started = time.perf_counter()
        typing = (entry.typing_predicate,)
        gen_canon, gt_canon = canonicalize(gen, typing), canonicalize(gt, typing)
        reports = evaluate_canonical(gen_canon, gt_canon, criteria_list, oracle, typing_predicates=typing)
        for criterion, report in reports.items():
            record.reports[criterion.key()] = {
                "precision": report.precision,
                "recall": report.recall,
                "f1": report.f1,
                "matched_count": report.matched_count,
            }
            if record.error_breakdown is None:
                record.error_breakdown = report.error_breakdown.as_dict()
        record.ged, record.nged = canonical_ged_and_nged(gen_canon, gt_canon)
        record.n_gt_constraints = len(gt.start_shape.constraints)
        record.n_gen_constraints = len(gen.start_shape.constraints)
        record.timings["evaluate"] = round(time.perf_counter() - started, 4)
        return record

    def failure(entry: ManifestEntry, status: str, message: str) -> ResultRecord:
        return ResultRecord(entry.class_uri.value, entry.label, setting, model_id, status, message)

    records = _run_per_entry(entries, worker, failure, jobs)
    doc = _evaluation_document(manifest, records, criteria_list, setting, model_id)
    if out:
        _atomic_write(Path(out), _render_evaluation(doc, fmt))
    return _exit_code(r.status for r in records), doc


def _read_generated(path: Path) -> str:
    """The text of a generated schema file; raises :class:`UnreadableSchemaError`
    for a file that is missing, unreadable or not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UnreadableSchemaError(f"no generated schema at {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableSchemaError(f"cannot read generated schema {path}: {exc}") from exc


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
    """``doc`` in one of :data:`_EVALUATION_FORMATS`, which ``cmd_evaluate`` checks."""
    if fmt == "json":
        return indented_json(doc, sort_keys=True) + "\n"
    if fmt == "csv":
        rows = []
        for record in doc["records"]:
            for key, metrics in sorted(record["reports"].items()):
                rows.append([record["class_uri"], key, f"{metrics['precision']:.6f}",
                             f"{metrics['recall']:.6f}", f"{metrics['f1']:.6f}",
                             record["ged"], f"{record['nged']:.6f}", record["status"]])
            if not record["reports"]:
                rows.append([record["class_uri"], "", "", "", "", "", "", record["status"]])
        return csv_text(["class_uri", "criteria", "precision", "recall", "f1", "ged", "nged", "status"], rows)
    return _markdown_grid(doc)


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


#: The keys of an evaluation document that ``report`` reads.
_RESULT_KEYS = ("model_id", "setting", "aggregate", "mean_ged", "mean_nged")

#: The numbers ``report`` reads from each entry of a document's aggregate.
_AGGREGATE_KEYS = ("precision", "recall", "f1", "n")


def _load_results(path: Path | str) -> dict:
    try:
        doc = decode_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read results file {path}: {exc}") from exc
    if not isinstance(doc, dict) or not all(key in doc for key in _RESULT_KEYS) \
            or not isinstance(doc["aggregate"], dict):
        raise ManifestError(f"results file {path} is not an evaluation document: "
                            f"it needs {', '.join(_RESULT_KEYS)}")
    problems = [f"{key} is not a number" for key in ("mean_ged", "mean_nged") if not _is_number(doc[key])]
    for key, metrics in doc["aggregate"].items():
        if not isinstance(metrics, dict) or not all(_is_number(metrics.get(name)) for name in _AGGREGATE_KEYS):
            problems.append(f"aggregate entry {key!r} needs numbers {', '.join(_AGGREGATE_KEYS)}")
    breakdown = doc.get("error_breakdown")
    if breakdown is not None and not (isinstance(breakdown, dict) and all(map(_is_number, breakdown.values()))):
        problems.append("error_breakdown must map buckets to counts")
    if problems:
        raise ManifestError(f"results file {path} is malformed: {'; '.join(problems)}")
    return doc


def cmd_report(result_paths: Sequence[Path | str], fmt: str = "md") -> tuple[int, str]:
    docs = [_load_results(p) for p in result_paths]
    if fmt == "csv":
        rows = [[doc["model_id"], doc["setting"], key, f"{metrics['precision']:.6f}",
                 f"{metrics['recall']:.6f}", f"{metrics['f1']:.6f}", f"{doc['mean_ged']:.4f}",
                 f"{doc['mean_nged']:.6f}", metrics["n"]]
                for doc in docs for key, metrics in sorted(doc["aggregate"].items())]
        header = ["model_id", "setting", "criteria", "precision", "recall", "f1", "ged", "nged", "n"]
        return EXIT_OK, csv_text(header, rows)

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
    if kind not in MODEL_KINDS:
        raise ManifestError(f"unknown model kind {kind!r} (expected one of {', '.join(MODEL_KINDS)})")
    if sample_n is not None and sample_n < 1:
        raise ManifestError(f"--sample must be at least 1, got {sample_n}")
    manifest = load_manifest(manifest_path)
    entries = list(manifest.select(classes))
    if sample_n is not None and sample_n < len(entries):
        rng = random.Random(seed)
        entries = sorted(rng.sample(entries, sample_n), key=lambda e: e.class_uri.value)
    # read before any class runs, so a bad ground-truth file stops the command
    ground_truths = [entry.ground_truth for entry in entries]
    stores = _cache_stores(entries)
    rows: list[tuple] = []
    row_classes: list[str] = []
    row_predicates: list[str] = []
    for entry, ground_truth in zip(entries, ground_truths):
        client = _kg_client(entry, cache_dir, offline, transport_factory, stores)
        constraints = canonicalize(ground_truth).start_shape.constraints
        try:
            # a failed class-level lookup skips the class
            records = client.global_records(entry.class_uri, [c.predicate for c in constraints], FEATURE_FIELDS)
        except (EndpointError, CacheMissError) as exc:
            log.warning("skipping %s: %s", entry.class_uri, exc)
            continue
        for constraint, record in zip(constraints, records):
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
    generate.add_argument("--model-file", help="trained cardinality model for the global setting's first step")
    generate.add_argument("--samples", type=int, default=5)
    generate.add_argument("--max-candidates", type=int, default=None)
    generate.add_argument("--max-repairs", type=int, default=2)
    generate.add_argument("--fewshot-dir")
    generate.add_argument("--out", help="write the generation report here (default stdout)")

    evaluate = sub.add_parser("evaluate", help="score generated schemas against ground truth")
    _add_common(evaluate)
    evaluate.add_argument("--generated-dir", required=True)
    evaluate.add_argument("--criteria", default="all", help=_CRITERIA_HELP)
    evaluate.add_argument("--format", dest="fmt", choices=_EVALUATION_FORMATS, default="json")
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
    train_cmd.add_argument("--kind", choices=list(MODEL_KINDS), default="gb")
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
            _emit(indented_json(report) + "\n", args.out)
            return code
        if args.command == "generate":
            code, report = cmd_generate(
                args.manifest, args.out_dir, args.cache_dir, args.setting, args.classes,
                stub_dir=args.stub_dir, provider_url=args.provider_url, model=args.model,
                api_key_env=args.api_key_env, model_file=args.model_file,
                offline=args.offline, samples=args.samples,
                max_candidates=args.max_candidates, max_repairs=args.max_repairs,
                fewshot_dir=args.fewshot_dir, jobs=args.jobs,
            )
            _emit(indented_json(report) + "\n", args.out)
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
            _emit(indented_json(report) + "\n", None)
            return code
        raise ManifestError(f"unknown command {args.command!r}")
    except ManifestError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _FAILURES as exc:
        # a command-wide failure (train-cardinality's cache, an --out write)
        # exits as one class with that status would
        status = _status_of(exc)
        print(f"{status}: {exc}", file=sys.stderr)
        return _exit_code([status])


if __name__ == "__main__":
    sys.exit(main())
