"""Schema generation pipelines.

Local/triples settings generate a full ShEx script end-to-end with a bounded
parse/repair loop.  The global setting runs a two-step structured workflow per
candidate predicate: first an include/min/max cardinality decision, then a
node-constraint prediction for the accepted predicates; the validated parts
are assembled into a schema with a typing constraint and generated referenced
shapes.  A deterministic threshold miner provides a non-LLM baseline over the
same records, and the cardinality step can be swapped for a trained model.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal as TypingLiteral
from typing import Protocol, Sequence

from .cardml import CardinalityModel, extract_features, predict_cardinality
from .jsonout import indented_json
from .kginfo import (
    EndpointConfig,
    GlobalPredicateRecord,
    KgClient,
    NoResponseError,
    atomic_write_text,
    decode_json,
    post,
    read_small_file,
)
from .model import (
    Cardinality,
    DatatypeConstraint,
    Iri,
    Literal,
    NodeConstraint,
    NodeKindIri,
    Schema,
    Shape,
    ShapeRef,
    TripleConstraint,
    ValueSet,
    canonical_shape_label,
    expand_iri,
)
from .prompts import ChatPrompt, IncompleteRecordError, build_global_prompt
from .shexc import ParseDiagnostic, ShexcParseError, parse_shexc

log = logging.getLogger(__name__)

Message = dict[str, str]


class GenerationFailedError(RuntimeError):
    """End-to-end generation ran out of repair attempts."""

    def __init__(self, diagnostics: Sequence[ParseDiagnostic], transcript: Sequence[Message]):
        self.diagnostics = tuple(diagnostics)
        self.transcript = tuple(transcript)
        super().__init__(
            f"generation failed after {sum(1 for m in transcript if m['role'] == 'assistant')} attempt(s): "
            + "; ".join(str(d) for d in self.diagnostics)
        )


class StructuredOutputFailedError(RuntimeError):
    """A structured reply never validated within the retry budget."""

    def __init__(self, reason: str, transcript: Sequence[Message]):
        self.transcript = tuple(transcript)
        super().__init__(reason)


class StubReplyMissingError(LookupError):
    """The stub directory has no usable recorded reply for a prompt hash:
    the file is missing or unreadable, or it is not a JSON object with a
    string ``reply``."""


class AssemblyError(ValueError):
    """Schema assembly received conflicting or empty parts."""


class ProviderError(RuntimeError):
    """The LLM provider could not be reached or gave no usable reply."""


class LlmClient(Protocol):
    def send(self, messages: Sequence[Message]) -> str: ...


def prompt_hash(messages: Sequence[Message]) -> str:
    canonical = json.dumps(list(messages), sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Seconds one provider request may take before it fails.
_PROVIDER_TIMEOUT_S = 120.0
#: Sampling temperature of every provider request.
_TEMPERATURE = 0.0


@dataclass
class HttpLlmClient:
    """Chat-completions client for an OpenAI-style provider endpoint.

    The API key is read from the environment variable named in the config,
    never stored in files.
    """

    provider_url: str
    model: str
    api_key_env: str = "SHEXBENCH_API_KEY"

    def send(self, messages: Sequence[Message]) -> str:
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise ProviderError(f"credential environment variable {self.api_key_env} is not set")
        request = {"model": self.model, "messages": list(messages), "temperature": _TEMPERATURE}
        try:
            status, body = post(self.provider_url, json.dumps(request).encode("utf-8"),
                                {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"},
                                _PROVIDER_TIMEOUT_S)
            if status != 200:
                raise ValueError(f"HTTP {status} from {self.provider_url}: {body.decode('utf-8', 'replace')[:200]}")
            reply = decode_json(body)["choices"][0]["message"]["content"]
        except (NoResponseError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"provider request failed: {exc}") from exc
        if not isinstance(reply, str):
            raise ProviderError(f"provider request failed: reply content is not a string: {reply!r:.80}")
        return reply


@dataclass
class StubLlmClient:
    """Replays recorded replies keyed by prompt hash; no network, referentially
    transparent per message sequence."""

    stub_dir: Path

    def __post_init__(self) -> None:
        # the same text as str(Path(stub_dir) / name), without a Path per send
        self._path_prefix = os.fspath(Path(self.stub_dir) / "_")[:-1]

    def send(self, messages: Sequence[Message]) -> str:
        key = prompt_hash(messages)
        path = f"{self._path_prefix}{key}.json"
        try:
            data = read_small_file(path)
        except FileNotFoundError:
            raise StubReplyMissingError(f"no recorded reply for prompt hash {key}") from None
        except OSError as exc:
            raise StubReplyMissingError(f"cannot read stub file {path}: {exc}") from exc
        try:
            document = decode_json(data.decode("utf-8"))
        except ValueError as exc:
            raise StubReplyMissingError(f"malformed stub file {path}: {exc}") from exc
        reply = document.get("reply") if isinstance(document, dict) else None
        if not isinstance(reply, str):
            raise StubReplyMissingError(f'malformed stub file {path}: not a JSON object with a string "reply"')
        return reply


@dataclass
class TranscriptRecorder:
    """Wraps a client, keeping every exchange in ``exchanges`` for
    :meth:`write_sidecar`.

    With a ``directory``, each exchange is also written there under its prompt
    hash as it happens, in the form :class:`StubLlmClient` replays.
    """

    inner: LlmClient
    directory: Path | None
    exchanges: list[dict] = field(default_factory=list, init=False)

    def send(self, messages: Sequence[Message]) -> str:
        reply = self.inner.send(messages)
        payload = {"messages": list(messages), "reply": reply}
        if self.directory is not None:
            path = Path(self.directory) / f"{prompt_hash(messages)}.json"
            atomic_write_text(path, indented_json(payload, ensure_ascii=False))
        self.exchanges.append(payload)
        return reply

    def write_sidecar(self, path: Path, class_uri: str) -> None:
        """Write every exchange so far to ``path``, attributed to ``class_uri``."""
        atomic_write_text(path, indented_json(
            {"class_uri": class_uri, "exchanges": self.exchanges}, ensure_ascii=False
        ) + "\n")


_FENCE_RE = re.compile(r"^```[a-zA-Z]*\n|\n?```\s*$", re.MULTILINE)


def strip_code_fences(text: str) -> str:
    return _FENCE_RE.sub("", text.strip()).strip()


def extract_json_object(text: str) -> str:
    """First balanced JSON object in a reply (fences tolerated)."""
    cleaned = strip_code_fences(text)
    start = cleaned.find("{")
    if start < 0:
        raise ValueError("reply contains no JSON object")
    depth = 0
    in_string = False
    escaped = False
    for index in range(start, len(cleaned)):
        char = cleaned[index]
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return cleaned[start:index + 1]
    raise ValueError("unbalanced JSON object in reply")


class StructuredReplyError(ValueError):
    """A structured reply breaks the reply rules; the message says which."""


def _reply_object(text: str, names: tuple[str, ...]) -> dict:
    """The JSON object of a structured reply, whose keys are all in ``names``."""
    try:
        doc = decode_json(text)
    except ValueError as exc:
        raise StructuredReplyError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise StructuredReplyError("the reply is not a JSON object")
    unknown = [key for key in doc if key not in names]
    if unknown:
        raise StructuredReplyError(f"unexpected keys {unknown}, allowed are {list(names)}")
    return doc


@dataclass(frozen=True)
class StructuredCardinality:
    """Step-one output: include the predicate, and with which bounds.

    ``max`` None is unbounded; bounds are ignored when ``include`` is false.
    The constructor checks nothing: a reply is checked by :meth:`from_json`.
    """

    include: bool
    min: int = 0
    max: int | None = None

    @classmethod
    def from_json(cls, text: str) -> StructuredCardinality:
        """A reply: a JSON object with a boolean ``include``, an integer
        ``min`` of at least 0 (default 0) and an integer or null ``max``
        (-1 and null mean unbounded) of at least ``min`` when ``include``
        is true.  JSON types are strict: ``1`` is no boolean and ``true``,
        ``1.0`` and ``"1"`` are no integers.  Raises StructuredReplyError."""
        doc = _reply_object(text, ("include", "min", "max"))
        include, minimum, maximum = doc.get("include"), doc.get("min", 0), doc.get("max")
        if not isinstance(include, bool):
            raise StructuredReplyError('"include" is required and must be true or false')
        if type(minimum) is not int or minimum < 0:
            raise StructuredReplyError('"min" must be an integer of at least 0')
        if maximum is not None and type(maximum) is not int:
            raise StructuredReplyError('"max" must be an integer or null')
        if maximum == -1:
            maximum = None
        if include:
            try:
                Cardinality(minimum, maximum)
            except ValueError as exc:
                raise StructuredReplyError(str(exc)) from None
        return cls(include, minimum, maximum)

    def to_cardinality(self) -> Cardinality:
        return Cardinality(self.min, self.max)


@dataclass(frozen=True)
class StructuredNodeConstraint:
    """Step-two output: at most one variant; empty means the IRI node kind.

    The constructor checks nothing: a reply is checked by :meth:`from_json`.
    """

    datatype: str | None = None
    referenced_classes: tuple[str, ...] | None = None
    value_list: tuple[str, ...] | None = None
    node_kind: TypingLiteral["iri"] | None = None

    @classmethod
    def from_json(cls, text: str) -> StructuredNodeConstraint:
        """A reply: a JSON object with at most one of a string ``datatype``,
        non-empty lists of strings ``referenced_classes`` and ``value_list``,
        and ``node_kind`` ``"iri"``; null is an absent key, and ``{}`` means
        ``node_kind`` ``"iri"``.  Raises StructuredReplyError."""
        names = ("datatype", "referenced_classes", "value_list", "node_kind")
        doc = _reply_object(text, names)
        variants = [doc.get(name) for name in names]
        datatype, classes, values, node_kind = variants
        if datatype is not None and not isinstance(datatype, str):
            raise StructuredReplyError('"datatype" must be a string or null')
        for name, value in (("referenced_classes", classes), ("value_list", values)):
            if value is not None and not (isinstance(value, list) and value
                                          and all(isinstance(item, str) for item in value)):
                raise StructuredReplyError(f'"{name}" must be a non-empty list of strings or null')
        if node_kind not in (None, "iri"):
            raise StructuredReplyError('"node_kind" must be "iri" or null')
        populated = [name for name, value in zip(names, variants) if value is not None]
        if len(populated) > 1:
            raise StructuredReplyError(f"node constraint variants are mutually exclusive, got {populated}")
        return cls(datatype, classes and tuple(classes), values and tuple(values), node_kind if populated else "iri")


CARDINALITY_INSTRUCTION = (
    "Decide whether this predicate belongs in the validating schema and, if so, "
    "its occurrence bounds. Respond with a single JSON object of the form "
    '{"include": <bool>, "min": <int>, "max": <int or null>} where null max '
    "means unbounded. No other text."
)

NODE_CONSTRAINT_INSTRUCTION = (
    "Predict the node constraint for this predicate's objects. Respond with a "
    "single JSON object containing at most one of: \"datatype\" (a datatype IRI), "
    '"referenced_classes" (a list of class IRIs the objects are instances of), '
    '"value_list" (the complete list of admissible literal values), or '
    '"node_kind": "iri". Respond with {} to default to the IRI node kind. '
    "No other text."
)


#: Re-requests after an invalid structured reply before the step gives up.
_STRUCTURED_RETRIES = 2


def _request_until_parsed(messages: Sequence[Message], client: LlmClient, parse, errors, correction,
                          attempts: int, fail):
    """``parse`` of the first reply that parses, over at most ``attempts`` sends.

    Each reply is appended to the transcript; a reply whose ``parse`` raises
    one of ``errors`` is answered with the user message ``correction(error)``
    before the next send.  When no send is left, raises ``fail(last error,
    transcript)``; the error is None when ``attempts`` is below one.
    """
    transcript = list(messages)
    for attempt in range(attempts):
        reply = client.send(transcript)
        transcript.append({"role": "assistant", "content": reply})
        try:
            return parse(reply)
        except errors as exc:
            if attempt == attempts - 1:
                raise fail(exc, transcript) from exc
            transcript.append({"role": "user", "content": correction(exc)})
    raise fail(None, transcript)


def _structured_step(model_cls, instruction: str, prompt: ChatPrompt, client: LlmClient):
    messages = ChatPrompt(prompt.system, prompt.user + "\n\n" + instruction, prompt.fewshot).to_messages()
    return _request_until_parsed(
        messages, client,
        parse=lambda reply: model_cls.from_json(extract_json_object(reply)),
        errors=ValueError,
        correction=lambda error: (
            f"The previous reply was invalid: {error}. Reply again with only the corrected JSON object."
        ),
        attempts=_STRUCTURED_RETRIES + 1,
        fail=lambda error, transcript: StructuredOutputFailedError(
            f"reply failed validation after {_STRUCTURED_RETRIES + 1} attempt(s): {error}", transcript
        ),
    )


def predict_cardinality_structured(prompt: ChatPrompt, client: LlmClient) -> StructuredCardinality:
    """Step one for a record, given its :func:`build_global_prompt`."""
    return _structured_step(StructuredCardinality, CARDINALITY_INSTRUCTION, prompt, client)


def predict_node_constraint_structured(prompt: ChatPrompt, client: LlmClient) -> StructuredNodeConstraint:
    """Step two for a record, given its :func:`build_global_prompt`."""
    return _structured_step(StructuredNodeConstraint, NODE_CONSTRAINT_INSTRUCTION, prompt, client)


def _repair_request(error: ShexcParseError) -> str:
    listing = "\n".join(f"- {d}" for d in error.diagnostics)
    return (
        "The ShEx schema failed to parse with the following errors:\n"
        f"{listing}\nReply with the corrected ShEx schema only."
    )


def generate_end_to_end(
    class_iri: Iri,
    prompt: ChatPrompt,
    client: LlmClient,
    max_repairs: int = 2,
) -> Schema:
    """Send the prompt, parse the reply as ShExC, and repair on diagnostics.

    Each repair round feeds the positioned diagnostics back to the model; after
    ``max_repairs`` failed rounds the final diagnostics and the full transcript
    surface in :class:`GenerationFailedError`.
    """
    return _request_until_parsed(
        prompt.to_messages(), client,
        parse=lambda reply: replace(parse_shexc(strip_code_fences(reply)), focus_class=class_iri),
        errors=ShexcParseError,
        correction=_repair_request,
        attempts=max_repairs + 1,
        fail=lambda error, transcript: GenerationFailedError(error.diagnostics if error else (), transcript),
    )


def _expand_term(text: str) -> Iri:
    try:
        return expand_iri(text.strip())
    except ValueError as exc:
        raise AssemblyError(str(exc)) from exc


def _node_constraint_from_structured(
    structured: StructuredNodeConstraint,
    labels: dict[tuple[Iri, ...], str],
) -> NodeConstraint:
    if structured.datatype is not None:
        return DatatypeConstraint(_expand_term(structured.datatype))
    if structured.referenced_classes is not None:
        classes = tuple(sorted({_expand_term(c) for c in structured.referenced_classes}))
        label = labels.get(classes)
        if label is None:
            # distinct class sets may share a local name: each gets a label of
            # its own here, and canonicalize settles the final ones
            label = base = canonical_shape_label(classes)
            suffix = 2
            while label in labels.values():
                label, suffix = f"{base}_{suffix}", suffix + 1
            labels[classes] = label
        return ShapeRef(label)
    if structured.value_list is not None:
        values = []
        for value in structured.value_list:
            literal = Literal(value)
            if literal not in values:
                values.append(literal)
        return ValueSet(tuple(values))
    return NodeKindIri()


def assemble_schema(
    class_iri: Iri,
    parts: Sequence[tuple[Iri, StructuredCardinality, StructuredNodeConstraint]],
    cfg: EndpointConfig,
) -> Schema:
    """Combine per-predicate structured outputs into a schema.

    The start shape carries EXTRA on the typing predicate and a leading
    ``typing [class]`` constraint; referenced-class variants materialize as
    one-constraint typing shapes.  The schema is returned as built; its
    readers (the ShExC writer, scoring) canonicalize it.
    """
    typing_predicate = cfg.typing_predicate
    start_label = canonical_shape_label([class_iri])
    # the label of each referenced class set; a part that references exactly
    # the focus class references the start shape
    labels = {(class_iri,): start_label}
    constraints: list[TripleConstraint] = [
        TripleConstraint(typing_predicate, ValueSet((class_iri,)), Cardinality(1, 1))
    ]
    seen = {typing_predicate}
    for predicate, cardinality, structured_node in parts:
        if not cardinality.include:
            continue
        if predicate in seen:
            raise AssemblyError(f"duplicate predicate in parts: {predicate}")
        seen.add(predicate)
        node = _node_constraint_from_structured(structured_node, labels)
        constraints.append(TripleConstraint(predicate, node, cardinality.to_cardinality()))
    if len(constraints) == 1:
        raise AssemblyError("no parts to assemble after exclusions")

    shapes = {start_label: Shape(start_label, tuple(constraints), (typing_predicate,))}
    for classes, label in labels.items():
        typing = TripleConstraint(typing_predicate, ValueSet(classes), Cardinality(1, 1))
        shapes.setdefault(label, Shape(label, (typing,), (typing_predicate,)))
    return Schema(start_label, shapes, class_iri)


def generate_global(
    class_iri: Iri,
    kg: KgClient,
    client: LlmClient,
    cardinality_model: CardinalityModel | None = None,
    *,
    fewshot: tuple[tuple[str, str], ...] = (),
    max_candidates: int | None = None,
) -> Schema:
    """Two-step structured generation over the class's candidate predicates.

    Candidates come from the predicate frequency profile (typing predicate
    excluded - it is added back as the schema's typing constraint).  All the
    class's records are looked up before any LLM call, so a failed
    class-level lookup or an inconsistent record fails the class first.  Each
    record's prompt is rendered once, at the first step that needs it, and
    both LLM steps append their instruction to it; with a trained
    ``cardinality_model`` in place of step one that is the node-constraint
    step.  A predicate whose record lacks a part its prompt needs, or whose
    reply never validates, is logged and skipped.
    """
    parts: list[tuple[Iri, StructuredCardinality, StructuredNodeConstraint]] = []
    for record in kg.global_records(class_iri, kg.global_candidates(class_iri, max_candidates)):
        try:
            prompt = None
            if cardinality_model is None:
                prompt = build_global_prompt(record, fewshot)
                cardinality = predict_cardinality_structured(prompt, client)
            else:
                bounds = predict_cardinality(cardinality_model, extract_features(record))
                cardinality = StructuredCardinality(include=True, min=bounds.min, max=bounds.max)
            if not cardinality.include:
                continue
            node = predict_node_constraint_structured(prompt or build_global_prompt(record, fewshot), client)
            parts.append((record.predicate_uri, cardinality, node))
        except (StructuredOutputFailedError, IncompleteRecordError) as exc:
            log.warning("skipping predicate %s for %s: %s", record.predicate_uri, class_iri, exc)
    return assemble_schema(class_iri, parts, kg.cfg)


@dataclass(frozen=True)
class MinerThresholds:
    """Support-style cutoffs for the deterministic baseline miner."""

    include_min_frequency: float = 0.05
    required_min_presence: float = 0.95
    functional_min_share: float = 0.95
    datatype_purity: float = 0.90
    class_purity: float = 0.80

    def __post_init__(self) -> None:
        for name in ("include_min_frequency", "required_min_presence", "functional_min_share",
                     "datatype_purity", "class_purity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {value}")


def mine_baseline_schema(
    class_iri: Iri,
    records: Sequence[GlobalPredicateRecord],
    thresholds: MinerThresholds,
    cfg: EndpointConfig,
) -> Schema:
    """Threshold miner over global records; fully deterministic.

    A predicate is kept when its usage frequency clears the include cutoff;
    min is 1 when presence clears the required cutoff; max is 1 when the share
    of instances with at most one value clears the functional cutoff; the node
    constraint is the dominant datatype, else a reference to the dominant
    object class, else the IRI node kind.
    """
    parts = []
    for record in records:
        if record.frequency < thresholds.include_min_frequency:
            continue
        minimum = 1 if record.frequency >= thresholds.required_min_presence else 0
        share_at_most_one = (1.0 - record.frequency) + record.cardinality_distribution.get(1, 0.0)
        maximum = 1 if share_at_most_one >= thresholds.functional_min_share else None
        cardinality = StructuredCardinality(include=True, min=minimum, max=maximum)

        node = StructuredNodeConstraint(node_kind="iri")
        literal_datatypes = {
            key: share for key, share in record.datatype_of_objects.items()
            if key not in ("IRI", "bnode")
        }
        dominant_datatype = max(literal_datatypes.items(), key=lambda item: (item[1], item[0]), default=None)
        dominant_class = max(
            record.object_class_distribution.items(), key=lambda item: (item[1], item[0]), default=None
        )
        if dominant_datatype is not None and dominant_datatype[1] >= thresholds.datatype_purity:
            node = StructuredNodeConstraint(datatype=dominant_datatype[0])
        elif dominant_class is not None and dominant_class[1] >= thresholds.class_purity:
            node = StructuredNodeConstraint(referenced_classes=(dominant_class[0],))
        parts.append((record.predicate_uri, cardinality, node))
    return assemble_schema(class_iri, parts, cfg)
