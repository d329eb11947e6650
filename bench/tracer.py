"""Spans and counters recorded around calls into shexbench's layers.

The tracer patches the names each calling module bound (for example
``shexbench.cli.evaluate_pair`` or ``canonicalize`` in every module that
imported it) with wrappers that record a span: name, start, end, parent span
and the class being processed.  Spans stay in memory; self time is a span's
duration minus the part of it its child spans cover.  Nothing here changes
what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import inspect
import logging
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    stage: str
    request: str | None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    distinct_keys: set = field(default_factory=set)
    stage: str = ""
    request: str | None = None
    _stack: list[tuple[int, str]] = field(default_factory=list)
    _next_id: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def active(self, name: str) -> bool:
        return any(active_name == name for _, active_name in self._stack)

    def wrap(self, name: str | None, fn, before=None, after=None, error=None):
        """Wrapper that records a span named ``name`` (none when ``name`` is
        None) and calls ``before(args, kwargs)``, ``after(args, kwargs,
        result)`` or ``error(exc)`` outside the span's interval."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = parent = None
            if name is not None:
                tracer._next_id += 1
                span_id = tracer._next_id
                parent = tracer._stack[-1][0] if tracer._stack else None
                tracer._stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                if name is not None:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans.append(Span(span_id, parent, name, start, end, tracer.stage, tracer.request))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str | None, before=None, after=None, error=None) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, before, after, error))
        else:
            replacement = self.wrap(name, original, before, after, error)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.end - span.start - covered
    return result


class WarningCounter(logging.Handler):
    """Counts shexbench WARNING records (degraded lookups) instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def install_layer_tracing(tracer: Tracer, endpoint) -> None:
    """Patch every layer boundary the per-layer metrics are taken at."""
    from pathlib import Path

    from shexbench import cardml, cli, generate, matching, model, shexc, treedist
    from shexbench.generate import StubLlmClient, TranscriptRecorder
    from shexbench.kginfo import KgClient

    counters = tracer.counters

    def count(key, amount=1):
        counters[key] += amount

    def on_entry(args, kwargs):
        tracer.request = args[0].class_uri.value

    def on_focus(args, kwargs):
        if kwargs.get("focus_class") is not None:
            tracer.request = kwargs["focus_class"].value

    def on_ted(args, kwargs, result):
        count("treedist.ted.cells", args[0].size() * args[1].size())

    def on_query(args, kwargs):
        client, query = args[0], args[1]
        tracer.distinct_keys.add((tracer.stage, client.cfg.endpoint_url, " ".join(query.split())))

    def on_read(args, kwargs, result):
        if result is not None:
            count("kginfo.cache_bytes_read", Path(args[0]).stat().st_size)

    def on_write_cache(args, kwargs, result):
        count("kginfo.cache_files_written")
        count("kginfo.cache_bytes_written", Path(args[1]).stat().st_size)

    def on_atomic_write(args, kwargs, result):
        count("cli.files_written")
        count("cli.bytes_written", len(args[1].encode("utf-8")))

    def on_model_save(args, kwargs, result):
        count("cli.files_written")
        count("cli.bytes_written", Path(args[1]).stat().st_size)

    def on_train(args, kwargs):
        count("cardml.train.rows", len(args[1]))

    def on_stub_send(args, kwargs):
        messages = args[1]
        count("prompts.user_chars", sum(len(m["content"]) for m in messages if m["role"] == "user"))
        if tracer.active("generate.end_to_end"):
            count("generate.end_to_end.sends")
        if tracer.active("generate.structured"):
            count("generate.structured.sends")

    def on_parse_error(exc):
        if isinstance(exc, shexc.ShexcParseError):
            count("shexc.parse_errors")

    for module in (cli, cardml, generate, matching, model, shexc, treedist):
        if "canonicalize" in vars(module):
            tracer.patch(module, "canonicalize", "model.canonicalize")
    for module in (cli, generate):
        tracer.patch(module, "parse_shexc", "shexc.parse", before=on_focus, error=on_parse_error)
    tracer.patch(cli, "serialize_shexc", "shexc.serialize")
    tracer.patch(cli, "cmd_extract", "cli.extract")
    tracer.patch(cli, "cmd_generate", "cli.generate")
    tracer.patch(cli, "cmd_evaluate", "cli.evaluate")
    tracer.patch(cli, "cmd_train_cardinality", "cli.train")
    tracer.patch(cli, "load_manifest", "cli.load_manifest")
    tracer.patch(cli, "entry_endpoint_config", None, before=on_entry)
    tracer.patch(cli, "_atomic_write", "cli.write", after=on_atomic_write)
    tracer.patch(cardml.CardinalityModel, "save", "cli.write", after=on_model_save)
    tracer.patch(cli, "evaluate_pair", "matching.evaluate_pair")
    tracer.patch(matching, "categorize_errors", "matching.categorize_errors")
    tracer.patch(treedist, "tree_edit_distance", "treedist.ted", after=on_ted)
    tracer.patch(KgClient, "cached_query", "kginfo.cached_query", before=on_query)
    tracer.patch(KgClient, "_read_cache", None, after=on_read)
    tracer.patch(KgClient, "_write_cache", "kginfo.write_cache", after=on_write_cache)
    tracer.patch(KgClient, "build_global_record", "kginfo.build_global_record")
    tracer.patch(type(endpoint), "__call__", "endpoint.fetch")
    tracer.patch(cli, "train", "cardml.train", before=on_train)
    tracer.patch(cli, "evaluate_cardinality_accuracy", "cardml.accuracy")
    for module, attr in ((cli, "build_local_prompt"), (cli, "build_triples_prompt"), (generate, "build_global_prompt")):
        tracer.patch(module, attr, "prompts.build")
    tracer.patch(cli, "generate_global", "generate.global")
    tracer.patch(cli, "generate_end_to_end", "generate.end_to_end")
    tracer.patch(generate, "predict_cardinality_structured", "generate.structured")
    tracer.patch(generate, "predict_node_constraint_structured", "generate.structured")
    tracer.patch(generate, "assemble_schema", "generate.assemble_schema")
    tracer.patch(StubLlmClient, "send", "generate.stub_read", before=on_stub_send)
    tracer.patch(TranscriptRecorder, "send", "generate.transcript_write")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced repetition."""
    own = self_times(tracer.spans)
    calls: Counter = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    for span in tracer.spans:
        calls[span.name] += 1
        self_s[span.name] += own[span.id]
    c = tracer.counters
    metrics = {
        "treedist.ted.calls": calls["treedist.ted"],
        "treedist.ted.self_s": self_s["treedist.ted"],
        "treedist.ted.cells": c["treedist.ted.cells"],
        "model.canonicalize.calls": calls["model.canonicalize"],
        "model.canonicalize.self_s": self_s["model.canonicalize"],
        "matching.evaluate_pair.calls": calls["matching.evaluate_pair"],
        "matching.evaluate_pair.self_s": self_s["matching.evaluate_pair"],
        "matching.categorize_errors.calls": calls["matching.categorize_errors"],
        "kginfo.cached_query.calls": calls["kginfo.cached_query"],
        "kginfo.cached_query.distinct_keys": len(tracer.distinct_keys),
        "kginfo.cached_query.self_s": self_s["kginfo.cached_query"],
        "kginfo.cache_bytes_read": c["kginfo.cache_bytes_read"],
        "kginfo.build_global_record.calls": calls["kginfo.build_global_record"],
        "kginfo.build_global_record.self_s": self_s["kginfo.build_global_record"],
        "kginfo.fetches": calls["endpoint.fetch"],
        "kginfo.cache_files_written": c["kginfo.cache_files_written"],
        "kginfo.cache_bytes_written": c["kginfo.cache_bytes_written"],
        "kginfo.write_cache.self_s": self_s["kginfo.write_cache"],
        "cardml.train.rows": c["cardml.train.rows"],
        "cardml.train.self_s": self_s["cardml.train"],
        "cardml.accuracy.self_s": self_s["cardml.accuracy"],
        "prompts.build.calls": calls["prompts.build"],
        "prompts.build.self_s": self_s["prompts.build"],
        "prompts.user_chars": c["prompts.user_chars"],
        "generate.llm_calls": calls["generate.stub_read"],
        "generate.repair_rounds": c["generate.end_to_end.sends"] - calls["generate.end_to_end"],
        "generate.structured_retries": c["generate.structured.sends"] - calls["generate.structured"],
        "generate.stub_read.self_s": self_s["generate.stub_read"],
        "generate.transcript_write.self_s": self_s["generate.transcript_write"],
        "generate.assemble_schema.self_s": self_s["generate.assemble_schema"],
        "shexc.parse.calls": calls["shexc.parse"],
        "shexc.parse.self_s": self_s["shexc.parse"],
        "shexc.parse_errors": c["shexc.parse_errors"],
        "shexc.serialize.self_s": self_s["shexc.serialize"],
        "cli.load_manifest.calls": calls["cli.load_manifest"],
        "cli.load_manifest.self_s": self_s["cli.load_manifest"],
        "cli.self_s": sum(self_s[name] for name in ("cli.extract", "cli.generate", "cli.evaluate", "cli.train")),
        "cli.files_written": c["cli.files_written"],
        "cli.bytes_written": c["cli.bytes_written"],
    }
    metrics["treedist.share_of_evaluate"] = _share_of_stage(tracer.spans, own, ("treedist.ted",), "evaluate")
    metrics["cardml.share_of_train"] = _share_of_stage(tracer.spans, own, ("cardml.train", "cardml.accuracy"), "train")
    return metrics


def stage_self_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Stage -> span name -> summed self time, for the human-readable report."""
    own = self_times(tracer.spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        table[span.stage][span.name] += own[span.id]
    return {stage: dict(names) for stage, names in table.items()}


def _share_of_stage(spans: list[Span], own: dict[int, float], names: tuple[str, ...], stage: str) -> float:
    roots = [s for s in spans if s.stage == stage and s.parent is None]
    total = sum(s.end - s.start for s in roots)
    part = sum(own[s.id] for s in spans if s.stage == stage and s.name in names)
    return part / total if total else 0.0
