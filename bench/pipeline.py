"""Set-up and one repetition of a workload through shexbench's CLI entry points.

Set-up builds the seeded graph, writes the manifest and ground truth, and
records the LLM replies once through ``cmd_generate(llm_client=...)``, which
warms a set-up cache from the in-process endpoint as it goes.  A repetition then runs, in order and each
to completion with ``jobs=1``:

- ``extract_cold``: ``cmd_extract`` into an empty cache directory;
- ``extract_warm``: ``cmd_extract --offline`` over that cache;
- ``generate``: ``cmd_generate --offline --stub-dir <recorded transcripts>``;
- ``evaluate``: ``cmd_evaluate --criteria all`` of the replayed schemas;
- ``train``: ``cmd_train_cardinality --offline`` on the cache ``extract`` left.

Outputs are checked after the last stage, outside every timed region.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import oracle
from synthkg import SyntheticKg, TableEndpoint, RuleLlmClient, WorkloadShape

STAGES = ("extract_cold", "extract_warm", "generate", "evaluate", "train")

WORKLOADS = {
    "wide": WorkloadShape(classes=2, predicates=80, pool=160, instances=30, setting="global", train_kind="gb"),
    "many": WorkloadShape(classes=40, predicates=6, pool=60, instances=10, setting="global", train_kind="dt"),
    "local-repair": WorkloadShape(classes=16, predicates=25, pool=100, instances=30, setting="local",
                                  train_kind="dt"),
}


@dataclass
class Prepared:
    shape: WorkloadShape
    endpoint: TableEndpoint
    manifest: Path
    recorded: Path
    slugs: dict[str, str]
    gt_paths: dict[str, Path]


@dataclass
class RepResult:
    seconds: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: dict[str, set[str]] = field(default_factory=dict)
    evaluation: list[dict] | None = None
    model_json: bytes | None = None
    per_class: dict[str, list[float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(len(classes) for classes in self.failures.values())


def setup(name: str, seed: int, root: Path) -> Prepared:
    """Build the workload's inputs under ``root`` and record its LLM replies."""
    from shexbench import cli

    shape = WORKLOADS[name]
    kg = SyntheticKg(shape, seed, name)
    endpoint = kg.endpoint()
    manifest = kg.write_manifest(root / "data")
    cache, recorded = root / "setup-cache", root / "recorded"
    # recording online warms the set-up cache as it goes: one pass does both
    code, report = cli.cmd_generate(manifest, recorded, cache, shape.setting, samples=shape.samples,
                                    transport_factory=lambda cfg: endpoint, llm_client=RuleLlmClient(kg))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"set-up recording failed with exit code {code}: {oracle.failed_statuses(report)}")
    shutil.rmtree(cache)
    entries = cli.load_manifest(manifest).entries
    return Prepared(
        shape, endpoint, manifest, recorded,
        slugs={e.class_uri.value: e.slug for e in entries},
        gt_paths={e.class_uri.value: e.ground_truth_path for e in entries},
    )


def run_stages(prep: Prepared, work: Path, tracer=None) -> tuple[dict[str, float], dict]:
    """Time one repetition of every stage under ``work``; ``tracer`` (if
    any) is told the stage.  Returns stage seconds and stage reports.

    Besides each stage's wall (``<stage>``) and CPU (``<stage>_cpu``) seconds,
    the seconds carry ``<stage>_slowness``: the mean host slowness sampled by
    :func:`hostspeed.sample` just before and just after the stage, outside
    the timed region."""
    from shexbench import cli

    shape = prep.shape
    cache, out = work / "cache", work / "out"
    evaluation_path, model_path = work / "evaluation.json", work / "model.json"
    transport = lambda cfg: prep.endpoint  # noqa: E731
    calls = {
        "extract_cold": lambda: cli.cmd_extract(prep.manifest, cache, shape.setting, samples=shape.samples,
                                                transport_factory=transport),
        "extract_warm": lambda: cli.cmd_extract(prep.manifest, cache, shape.setting, offline=True,
                                                samples=shape.samples, transport_factory=transport),
        "generate": lambda: cli.cmd_generate(prep.manifest, out, cache, shape.setting, offline=True,
                                             stub_dir=prep.recorded / "transcripts", samples=shape.samples,
                                             transport_factory=transport),
        "evaluate": lambda: cli.cmd_evaluate(prep.manifest, out, "all", out=evaluation_path),
        "train": lambda: cli.cmd_train_cardinality(prep.manifest, cache, model_path, shape.train_kind,
                                                   offline=True, transport_factory=transport),
    }
    seconds, reports = {}, {}
    slowness = hostspeed.sample()
    for stage in STAGES:
        if tracer is not None:
            tracer.stage, tracer.request = stage, None
        started, cpu_started = time.perf_counter(), time.process_time()
        reports[stage] = calls[stage]()
        seconds[stage] = time.perf_counter() - started
        seconds[stage + "_cpu"] = time.process_time() - cpu_started
        after = hostspeed.sample()
        seconds[stage + "_slowness"] = (slowness + after) / 2
        slowness = after
    return seconds, reports


def check(prep: Prepared, work: Path, seconds: dict[str, float], reports: dict,
          reference: RepResult | None = None) -> RepResult:
    """Failure accounting of one repetition from its stage outputs.

    Against a fully checked ``reference`` repetition, identical evaluate
    records are not re-verified with the GED oracle, and the trained model
    must be byte-identical to the reference's.
    """
    out, model_path = work / "out", work / "model.json"
    classes = set(prep.slugs)
    result = RepResult(seconds=seconds, attempted=len(classes) * len(STAGES))
    for stage in ("extract_cold", "extract_warm", "generate"):
        _, report = reports[stage]
        result.failures[stage] = oracle.failed_statuses(report) | (classes - {c["class_uri"] for c in report["classes"]})
    result.failures["generate"] |= oracle.failed_replays(out, prep.recorded, prep.slugs)
    _, doc = reports["evaluate"]
    result.evaluation = oracle.stable_records(doc)
    verify_ged = reference is None or result.evaluation != reference.evaluation
    result.failures["evaluate"] = oracle.failed_evaluations(doc, out, prep.slugs, prep.gt_paths, verify_ged)
    _, train_report = reports["train"]
    result.failures["train"] = classes - set(train_report["classes"])
    result.model_json = model_path.read_bytes() if model_path.exists() else None
    if result.model_json is None or (reference is not None and result.model_json != reference.model_json):
        result.failures["train"] = classes
    result.per_class = {
        "generate": [c["seconds"] for c in reports["generate"][1]["classes"] if "seconds" in c],
        "evaluate": [r["timings"]["evaluate"] for r in doc["records"] if "evaluate" in r["timings"]],
    }
    return result
