"""Chat prompt construction for the local, triples, and global settings.

Local and triples prompts ask for a complete ShEx script; the global prompt
renders one predicate's aggregated profile and asks for structured constraint
output.  Rendering is deterministic (fixed field order, two-decimal
percentages) so prompts are stable cache and stub keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .kginfo import GlobalPredicateRecord, RecordField, Triple, decode_json
from .model import Iri, Literal, compact_well_known

RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


class EmptySampleError(ValueError):
    """No sampled instances were supplied for a local prompt."""


class EmptyPredicateSetError(ValueError):
    """No predicate example groups were supplied for a triples prompt."""


class IncompleteRecordError(ValueError):
    """A global record is missing fields the prompt requires."""

    def __init__(self, missing: Sequence[str]):
        self.missing = tuple(missing)
        super().__init__(f"record is missing required fields: {', '.join(self.missing)}")


class PromptSetting(Enum):
    LOCAL = "local"
    GLOBAL = "global"
    TRIPLES = "triples"


SYSTEM_PROMPT = (
    "You are a skilled knowledge engineer with deep expertise in writing ShEx "
    "(Shape Expressions) schemas. Carefully analyze the provided few-shot "
    "examples to understand the end-to-end generation process. Generate "
    "precise, well-structured ShEx scripts based on given example items and "
    "their related triples."
)


@dataclass(frozen=True)
class ChatPrompt:
    system: str
    user: str
    fewshot: tuple[tuple[str, str], ...] = ()

    def to_messages(self) -> list[dict[str, str]]:
        messages = [{"role": "system", "content": self.system}]
        for exemplar_user, exemplar_assistant in self.fewshot:
            messages.append({"role": "user", "content": exemplar_user})
            messages.append({"role": "assistant", "content": exemplar_assistant})
        messages.append({"role": "user", "content": self.user})
        return messages


def load_fewshot(path: Path | str) -> tuple[tuple[str, str], ...]:
    """Few-shot exemplars from a JSON file: one {user, assistant} object or a list.

    Raises OSError for an unreadable file and ValueError for a malformed one.
    """
    doc = decode_json(Path(path).read_text(encoding="utf-8"))
    entries = doc if isinstance(doc, list) else [doc]
    if not all(isinstance(entry, dict) and isinstance(entry.get("user"), str)
               and isinstance(entry.get("assistant"), str) for entry in entries):
        raise ValueError('every exemplar must be an object with string "user" and "assistant"')
    return tuple((entry["user"], entry["assistant"]) for entry in entries)


def _with_label(text: str, label: str | None) -> str:
    return f"{text} ({label})" if label else text


def _datatype_annotation(term) -> str:
    if isinstance(term, Iri):
        return "IRI"
    if isinstance(term, Literal):
        if term.language is not None:
            return compact_well_known(Iri(RDF_LANGSTRING))
        if term.datatype is None:
            return compact_well_known(Iri(XSD_STRING))
        return compact_well_known(term.datatype)
    return "bnode"


def _object_text(term, label: str | None) -> str:
    if isinstance(term, Iri):
        rendered = _with_label(compact_well_known(term), label)
    elif isinstance(term, Literal):
        rendered = term.lexical
    else:
        rendered = f"_:{term.id}"
    return f"{rendered} (datatype: {_datatype_annotation(term)})"


def _triple_line(subject: Iri, subject_label: str | None, predicate: Iri,
                 predicate_label: str | None, objects: list[tuple[object, str | None]]) -> str:
    rendered_objects = ", ".join(_object_text(term, label) for term, label in objects)
    return (
        f"{_with_label(compact_well_known(subject), subject_label)} "
        f"{_with_label(compact_well_known(predicate), predicate_label)} "
        f"[{rendered_objects}]"
    )


def _block(lines: list[str]) -> str:
    body = ",\n".join(f"  {line}" for line in lines)
    return "[\n" + body + "\n]"


def build_local_prompt(
    class_iri: Iri,
    samples: Sequence[tuple[Iri, Sequence[Triple]]],
    fewshot: tuple[tuple[str, str], ...] = (),
    class_label: str | None = None,
) -> ChatPrompt:
    """Prompt listing each sampled instance's one-hop triples, grouped per
    (instance, predicate) with labels and datatype annotations."""
    if not samples:
        raise EmptySampleError("local prompt needs at least one sampled instance")
    lines: list[str] = []
    for instance, triples in samples:
        grouped: dict[Iri, list[Triple]] = {}
        for triple in triples:
            grouped.setdefault(triple.predicate, []).append(triple)
        for predicate, group in grouped.items():
            objects = [(t.object, t.object_label) for t in group if not _is_bnode(t.object)]
            if not objects:
                continue
            lines.append(
                _triple_line(instance, group[0].subject_label, predicate, group[0].predicate_label, objects)
            )
    user = (
        f"Based on the information, generate the ShEx schema for the class "
        f"'{class_iri} ({class_label})'. The provided list contains example instances of "
        "this class with the following fields: 'subject' (label), 'predicate' (label), "
        "'object' (label), and 'datatype'.\n"
        "Example instances:\n"
        f"{_block(lines)}"
    )
    return ChatPrompt(SYSTEM_PROMPT, user, tuple(fewshot))


def build_triples_prompt(
    class_iri: Iri,
    per_predicate_examples: Mapping[Iri, Sequence[Triple]],
    fewshot: tuple[tuple[str, str], ...] = (),
    class_label: str | None = None,
) -> ChatPrompt:
    """Prompt grouping example triples by predicate, in the map's order."""
    if not per_predicate_examples:
        raise EmptyPredicateSetError("triples prompt needs at least one predicate group")
    lines: list[str] = []
    for predicate, triples in per_predicate_examples.items():
        for triple in triples:
            if _is_bnode(triple.object):
                continue
            lines.append(
                _triple_line(
                    triple.subject, triple.subject_label, predicate, triple.predicate_label,
                    [(triple.object, triple.object_label)],
                )
            )
    user = (
        f"Generate a ShEx schema for the class '{class_iri} ({class_label})' based on the "
        "provided information. The provided list contains example triples of instances of "
        "this class, with the following fields: 'subject' (label), 'predicate' (label), "
        "'object' (label), and 'datatype'. Each predicate used by instances of this class "
        "is represented with triples from 5 instances.\n"
        "Example triples of predicates:\n"
        f"{_block(lines)}"
    )
    return ChatPrompt(SYSTEM_PROMPT, user, tuple(fewshot))


def _is_bnode(term) -> bool:
    return not isinstance(term, (Iri, Literal))


def _pct(fraction: float) -> str:
    return f"{fraction * 100:.2f}%"


def render_frequency(record: GlobalPredicateRecord) -> str:
    return f"{_pct(record.frequency)} of instances of this class use this predicate"


def render_cardinality_distribution(record: GlobalPredicateRecord) -> str:
    parts = [
        f"{_pct(fraction)} of instances have {count} value{'s' if count != 1 else ''}"
        for count, fraction in sorted(record.cardinality_distribution.items())
    ]
    return "; ".join(parts)


def render_datatypes(record: GlobalPredicateRecord) -> str:
    items = sorted(record.datatype_of_objects.items(), key=lambda item: (-item[1], item[0]))
    if len(items) == 1:
        key, _ = items[0]
        return key if key in ("IRI", "bnode") else compact_well_known(Iri(key))
    rendered = []
    for key, fraction in items:
        name = key if key in ("IRI", "bnode") else compact_well_known(Iri(key))
        rendered.append(f"{name} ({_pct(fraction)})")
    return ", ".join(rendered)


#: Object classes a global prompt lists, the most frequent first.
_OBJECT_CLASSES_SHOWN = 10


def render_object_classes(record: GlobalPredicateRecord) -> str:
    items = sorted(record.object_class_distribution.items(), key=lambda item: (-item[1], item[0]))
    return "; ".join(f"{_pct(fraction)} {compact_well_known(Iri(key))}"
                     for key, fraction in items[:_OBJECT_CLASSES_SHOWN])


def render_example(triple: Triple) -> str:
    subject = _with_label(compact_well_known(triple.subject), triple.subject_label)
    predicate = _with_label(compact_well_known(triple.predicate), triple.predicate_label)
    if isinstance(triple.object, Iri):
        obj = _with_label(compact_well_known(triple.object), triple.object_label)
    elif isinstance(triple.object, Literal):
        obj = triple.object.lexical
    else:
        obj = f"_:{triple.object.id}"
    return f"{subject} {predicate} [{obj}]"


def _constraint_sentence(role: str, classes: tuple[Iri, ...]) -> str:
    rendered = ", ".join(compact_well_known(c) for c in classes)
    if role == "subject":
        return (
            "Based on the subject type constraint of Wikidata, the item described by such "
            f"predicates should be a subclass or instance of [{rendered}]."
        )
    return (
        "Based on the value type constraint of Wikidata, the value item should be a "
        f"subclass or instance of [{rendered}]."
    )


def build_global_prompt(
    record: GlobalPredicateRecord,
    fewshot: tuple[tuple[str, str], ...] = (),
) -> ChatPrompt:
    """Prompt rendering one predicate's aggregated profile, asking for
    structured constraint output.  Requires the frequency and cardinality
    components of the record."""
    missing = []
    if not record.has(RecordField.FREQUENCY):
        missing.append("frequency")
    if not record.has(RecordField.CARDINALITY):
        missing.append("cardinality_distribution")
    if missing:
        raise IncompleteRecordError(missing)

    fields: list[tuple[str, str]] = [
        ("class_uri", record.class_uri.value),
        ("class_label", record.class_label or ""),
        ("class_description", record.class_description or ""),
        ("predicate_uri", record.predicate_uri.value),
        ("predicate_label", record.predicate_label or ""),
        ("predicate_description", record.predicate_description or ""),
    ]
    lines = [f"  '{key}': '{value}'," for key, value in fields]
    examples = ",\n".join(f"    '{render_example(t)}'" for t in record.triple_examples)
    lines.append("  'triple_examples': [\n" + examples + "\n  ],")
    lines.append(f"  'frequency': '{render_frequency(record)}',")
    lines.append(f"  'cardinality_distribution': '{render_cardinality_distribution(record)}',")
    lines.append(f"  'datatype_of_objects': '{render_datatypes(record)}',")
    lines.append(f"  'object_class_distribution': '{render_object_classes(record)}',")
    if record.subject_type_constraint:
        lines.append(f"  'subject_type_constraint': '{_constraint_sentence('subject', record.subject_type_constraint)}',")
    if record.value_type_constraint:
        lines.append(f"  'value_type_constraint': '{_constraint_sentence('value', record.value_type_constraint)}',")
    lines[-1] = lines[-1].rstrip(",")
    user = "Based on the following information, generate constraints in JSON:\n{\n" + "\n".join(lines) + "\n}"
    return ChatPrompt(SYSTEM_PROMPT, user, tuple(fewshot))
