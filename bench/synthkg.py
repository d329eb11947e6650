"""Seeded synthetic Wikidata-flavoured knowledge graph for the benchmark.

One :class:`SyntheticKg` holds everything a workload needs: the classes of the
manifest, their predicates, instances and objects, labels, descriptions,
value-type classes and Wikidata property constraints, the ground-truth ShExC
of every class, and the reply table of a rule-based LLM stand-in.

Every proportion below is an exact count, not a probability, so two seeds
give graphs of the same size and shape that differ only in which IRIs,
values and errors land where.  That keeps the work per run constant across
seeds while the inputs change.

:class:`TableEndpoint` answers the SPARQL templates of ``shexbench.kginfo``
from tables computed once when the graph is built, so a fetch is a regex
and a dictionary lookup, never a scan of the graph.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"
XSD = "http://www.w3.org/2001/XMLSchema#"
TYPING = WDT + "P31"
ENDPOINT_URL = "https://synthetic.example.org/sparql"
VALUE_TYPE = WD + "Q21510865"
SUBJECT_TYPE = WD + "Q21503250"
GENERIC_SUBJECT_CLASS = WD + "Q35120"

VALUE_CLASSES = 12
OBJECTS_PER_VALUE_CLASS = 20
KINDS = ("datetime", "decimal", "string", "ref", "iri")
KIND_SHARES = (0.2, 0.2, 0.2, 0.25, 0.15)
PATTERNS = ("one", "opt", "many", "plus")
PATTERN_SHARES = (0.3, 0.3, 0.25, 0.15)
PRESENT_SHARE = {"one": 1.0, "opt": 0.6, "many": 0.7, "plus": 1.0}

#: Share of a class's predicates the rule client gets wrong, by error kind.
EXCLUDED_SHARE = 0.06
WRONG_CARD_SHARE = 0.12
WRONG_NODE_SHARE = 0.10
#: Share of included global predicates whose first cardinality reply is invalid.
RETRY_SHARE = 0.05
#: Share of local-setting classes whose first ShExC reply fails to parse.
BROKEN_SHARE = 1 / 3

CARD_TOKEN = {"one": "", "opt": " ?", "many": " *", "plus": " +"}
CARD_JSON = {
    "one": '{"include": true, "min": 1, "max": 1}',
    "opt": '{"include": true, "min": 0, "max": 1}',
    "many": '{"include": true, "min": 0, "max": null}',
    "plus": '{"include": true, "min": 1, "max": null}',
}
WRONG_PATTERN = {"one": "plus", "opt": "one", "many": "opt", "plus": "many"}
ADJECTIVES = ("ancient", "civic", "coastal", "digital", "federal", "grand", "historic", "inland",
              "literary", "maritime", "mountain", "national", "orbital", "private", "royal", "urban")
NOUNS = ("archive", "award", "bridge", "castle", "dam", "festival", "garden", "harbour", "library",
         "lighthouse", "mine", "observatory", "parish", "reservoir", "school", "theatre", "tower")


@dataclass(frozen=True)
class WorkloadShape:
    """Sizes and settings of one workload."""

    classes: int
    predicates: int
    pool: int
    instances: int
    setting: str
    train_kind: str
    samples: int = 5


def _counts(total: int, shares: tuple[float, ...]) -> list[int]:
    """Split ``total`` by ``shares`` into whole counts that sum to ``total``."""
    counts = [int(total * share) for share in shares]
    order = sorted(range(len(shares)), key=lambda i: -(total * shares[i] - counts[i]))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _share(total: int, share: float) -> int:
    return int(round(total * share))


@dataclass
class ClassSpec:
    iri: str
    slug: str
    label: str
    predicates: list[str]
    pattern: dict[str, str]
    instances: list[str]
    #: predicate -> cardinality pattern the rule client answers
    answered_pattern: dict[str, str] = field(default_factory=dict)
    excluded: set[str] = field(default_factory=set)
    wrong_node: set[str] = field(default_factory=set)
    retry: set[str] = field(default_factory=set)
    broken: bool = False


class SyntheticKg:
    """Seeded graph, ground truth and rule-client answers for one workload."""

    def __init__(self, shape: WorkloadShape, seed: int, name: str):
        rng = random.Random(f"{name}:{seed}")
        ids = iter(rng.sample(range(10_000, 9_000_000), shape.classes * (shape.instances + 1)
                              + VALUE_CLASSES * (OBJECTS_PER_VALUE_CLASS + 1)))
        prop_ids = rng.sample(range(100, 9_999), shape.pool)

        self.labels: dict[str, str] = {WD + "P31": "instance of", GENERIC_SUBJECT_CLASS: "entity"}
        self.descriptions: dict[str, str] = {}
        self.value_classes = [WD + f"Q{next(ids)}" for _ in range(VALUE_CLASSES)]
        self.value_objects: dict[str, list[str]] = {}
        for vc in self.value_classes:
            self.labels[vc] = f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} type"
            members = [WD + f"Q{next(ids)}" for _ in range(OBJECTS_PER_VALUE_CLASS)]
            self.value_objects[vc] = members
            for index, member in enumerate(members):
                self.labels[member] = f"{self.labels[vc]} {index}"

        # predicate pool with exact kind proportions; ref predicates get a value class
        pool = [WDT + f"P{pid}" for pid in prop_ids]
        kinds = [kind for kind, n in zip(KINDS, _counts(shape.pool, KIND_SHARES)) for _ in range(n)]
        rng.shuffle(kinds)
        self.kind = dict(zip(pool, kinds))
        self.ref_class = {p: rng.choice(self.value_classes) for p in pool if self.kind[p] == "ref"}
        self.constraints: dict[tuple[str, str], list[str]] = {}
        with_subject_type = set(rng.sample(pool, shape.pool // 2))
        for p in pool:
            entity = _entity(p)
            self.labels[entity] = f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} {self.kind[p]}"
            self.descriptions[entity] = f"synthetic {self.kind[p]} property {p.rsplit('/', 1)[-1]}"
            if p in self.ref_class:
                self.constraints[(entity, VALUE_TYPE)] = [self.ref_class[p]]
            if p in with_subject_type:
                self.constraints[(entity, SUBJECT_TYPE)] = [GENERIC_SUBJECT_CLASS]
        by_kind = {kind: [p for p in pool if self.kind[p] == kind] for kind in KINDS}
        per_class_kinds = _counts(shape.predicates, KIND_SHARES)
        if any(n > len(by_kind[kind]) for kind, n in zip(KINDS, per_class_kinds)):
            raise ValueError("predicate pool too small for the per-class predicate count")

        # instance triples: instance -> [(predicate, binding)]
        self.triples: dict[str, list[tuple[str, dict]]] = {}
        for vc, members in self.value_objects.items():
            for member in members:
                self.triples[member] = [(TYPING, _iri(vc))]
        self.classes: list[ClassSpec] = []
        for _ in range(shape.classes):
            iri = WD + f"Q{next(ids)}"
            label = f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}"
            self.labels[iri] = label
            self.descriptions[iri] = f"synthetic class of {label} items"
            predicates = sorted(
                p for kind, n in zip(KINDS, per_class_kinds) for p in rng.sample(by_kind[kind], n)
            )
            patterns = [pt for pt, n in zip(PATTERNS, _counts(shape.predicates, PATTERN_SHARES)) for _ in range(n)]
            rng.shuffle(patterns)
            instances = [WD + f"Q{next(ids)}" for _ in range(shape.instances)]
            spec = ClassSpec(iri, "C" + iri.rsplit("Q", 1)[-1], label, predicates,
                             dict(zip(predicates, patterns)), instances)
            self._populate(spec, rng)
            self._choose_answers(spec, rng)
            self.classes.append(spec)
        broken = rng.sample(range(shape.classes), _share(shape.classes, BROKEN_SHARE))
        for index in broken:
            self.classes[index].broken = True
        self.class_by_iri = {c.iri: c for c in self.classes}

    def _populate(self, spec: ClassSpec, rng: random.Random) -> None:
        n = len(spec.instances)
        rows: dict[str, list[tuple[str, dict]]] = {inst: [(TYPING, _iri(spec.iri))] for inst in spec.instances}
        for index, inst in enumerate(spec.instances):
            self.labels[inst] = f"{spec.label} {index}"
        for p in spec.predicates:
            pattern = spec.pattern[p]
            present = sorted(rng.sample(range(n), _share(n, PRESENT_SHARE[pattern])))
            for rank, index in enumerate(present):
                count = 1 if pattern in ("one", "opt") else 1 + rank % 3
                for _ in range(count):
                    rows[spec.instances[index]].append((p, self._object(p, rng)))
        self.triples.update(rows)

    def _object(self, predicate: str, rng: random.Random) -> dict:
        kind = self.kind[predicate]
        if kind == "datetime":
            return _literal(f"{rng.randint(1800, 2024)}-{rng.randint(1, 12):02d}-01T00:00:00Z", XSD + "dateTime")
        if kind == "decimal":
            return _literal(str(rng.randint(1, 10**6)), XSD + "decimal")
        if kind == "string":
            return _literal(f"code-{rng.randint(0, 10**5):05d}", XSD + "string")
        if kind == "ref":
            return _iri(rng.choice(self.value_objects[self.ref_class[predicate]]))
        return _iri(f"http://sites.example.org/{rng.randint(0, 10**7)}")

    def _choose_answers(self, spec: ClassSpec, rng: random.Random) -> None:
        order = list(spec.predicates)
        rng.shuffle(order)
        n = len(order)
        n_excluded, n_card, n_node = (_share(n, s) for s in (EXCLUDED_SHARE, WRONG_CARD_SHARE, WRONG_NODE_SHARE))
        spec.excluded = set(order[:n_excluded])
        wrong_card = set(order[n_excluded:n_excluded + n_card])
        spec.wrong_node = set(order[n_excluded + n_card:n_excluded + n_card + n_node])
        included = sorted(set(order) - spec.excluded)
        spec.retry = set(rng.sample(included, _share(n, RETRY_SHARE)))
        for p in spec.predicates:
            pattern = spec.pattern[p]
            spec.answered_pattern[p] = WRONG_PATTERN[pattern] if p in wrong_card else pattern

    # -- files ----------------------------------------------------------------

    def ground_truth(self, spec: ClassSpec) -> str:
        lines = [(p, self._node_text(p, correct=True), CARD_TOKEN[spec.pattern[p]])
                 for p in spec.predicates]
        return self._shexc(spec, lines)

    def generated_text(self, spec: ClassSpec, broken: bool = False) -> str:
        """What the rule client answers in the local setting: the class's
        schema with the seeded errors, and a facet the parser rejects when
        ``broken``."""
        lines = []
        for p in spec.predicates:
            if p in spec.excluded:
                continue
            lines.append((p, self._node_text(p, correct=p not in spec.wrong_node),
                          CARD_TOKEN[spec.answered_pattern[p]]))
        if broken:
            index = next(i for i, (_, node, _) in enumerate(lines) if node.startswith("xsd:"))
            p, node, card = lines[index]
            lines[index] = (p, node + " MINLENGTH 2", card)
        return self._shexc(spec, lines)

    def _node_text(self, predicate: str, correct: bool) -> str:
        kind = self.kind[predicate]
        if kind == "datetime":
            return "xsd:dateTime" if correct else "xsd:date"
        if kind == "decimal":
            return "xsd:decimal" if correct else "xsd:integer"
        if kind == "string":
            return "xsd:string" if correct else "IRI"
        if kind == "ref":
            return f"@<V{_qid(self.ref_class[predicate])}>" if correct else "IRI"
        return "IRI" if correct else "xsd:string"

    def _shexc(self, spec: ClassSpec, lines: list[tuple[str, str, str]]) -> str:
        body = [f"  wdt:P31 [ wd:{_qid(spec.iri)} ]"]
        body += [f"  wdt:{p.rsplit('/', 1)[-1]} {node}{card}" for p, node, card in lines]
        refs = sorted({node[2:-1] for _, node, _ in lines if node.startswith("@<")})
        text = [
            f"PREFIX wd: <{WD}>",
            f"PREFIX wdt: <{WDT}>",
            f"PREFIX xsd: <{XSD}>",
            "",
            f"<{spec.slug}> EXTRA wdt:P31 {{",
            " ;\n".join(body),
            "}",
        ]
        for ref in refs:
            text += ["", f"<{ref}> EXTRA wdt:P31 {{", f"  wdt:P31 [ wd:{ref[1:]} ]", "}"]
        return "\n".join(text) + "\n"

    def cardinality_reply(self, class_iri: str, predicate: str, retry_turn: bool) -> str:
        spec = self.class_by_iri[class_iri]
        if predicate in spec.excluded:
            return '{"include": false}'
        if predicate in spec.retry and not retry_turn:
            return '{"include": true, "min": 2, "max": 1}'
        return CARD_JSON[spec.answered_pattern[predicate]]

    def node_reply(self, class_iri: str, predicate: str) -> str:
        spec = self.class_by_iri[class_iri]
        kind = self.kind[predicate]
        correct = predicate not in spec.wrong_node
        if kind == "datetime":
            return '{"datatype": "xsd:dateTime"}' if correct else '{"datatype": "xsd:date"}'
        if kind == "decimal":
            return '{"datatype": "xsd:decimal"}' if correct else '{"datatype": "xsd:integer"}'
        if kind == "string":
            return '{"datatype": "xsd:string"}' if correct else "{}"
        if kind == "ref":
            return f'{{"referenced_classes": ["wd:{_qid(self.ref_class[predicate])}"]}}' if correct else "{}"
        return "{}" if correct else '{"datatype": "xsd:string"}'

    def write_manifest(self, root: Path) -> Path:
        """Manifest plus one ground-truth file per class under ``root``."""
        (root / "gt").mkdir(parents=True, exist_ok=True)
        entries = []
        for spec in self.classes:
            (root / "gt" / f"{spec.slug}.shex").write_text(self.ground_truth(spec))
            entries.append({
                "class_uri": spec.iri,
                "label": spec.label,
                "kg_kind": "wikidata",
                "endpoint_url": ENDPOINT_URL,
                "typing_predicate": TYPING,
                "ground_truth_path": f"gt/{spec.slug}.shex",
            })
        path = root / "manifest.json"
        path.write_text(json.dumps({"dataset_name": "synthetic", "entries": entries}, indent=2))
        return path

    def endpoint(self) -> "TableEndpoint":
        return TableEndpoint(self)


class TableEndpoint:
    """In-process SPARQL endpoint over tables precomputed from the graph.

    Dispatch follows the distinctive fragments of the ``kginfo`` templates;
    class, predicate and term slots come from the ``<...>`` positions.
    ``calls`` counts transport calls, which equal the client's cache misses.
    """

    def __init__(self, kg: SyntheticKg):
        self.calls = 0
        self._labels = {term: _rows(["label"], [{"label": _lang(text)}]) for term, text in kg.labels.items()}
        self._descriptions = {
            term: _rows(["description"], [{"description": _lang(text)}]) for term, text in kg.descriptions.items()
        }
        self._constraints = {
            key: _rows(["class"], [{"class": _iri(c)} for c in sorted(classes)])
            for key, classes in kg.constraints.items()
        }
        self._empty = {name: _rows([name], []) for name in ("label", "description", "class")}
        self._instance_triples = {
            inst: _rows(["predicate", "object"], [{"predicate": _iri(p), "object": o} for p, o in _sorted(rows)])
            for inst, rows in kg.triples.items()
        }
        object_class = {member: vc for vc, members in kg.value_objects.items() for member in members}
        self._count: dict[str, dict] = {}
        self._instances: dict[str, dict] = {}
        self._frequency: dict[str, dict] = {}
        self._per_predicate: dict[tuple[str, str], dict[str, object]] = {}
        for spec in kg.classes:
            self._count[spec.iri] = _rows(["count"], [{"count": _int(len(spec.instances))}])
            self._instances[spec.iri] = _rows(["instance"], [{"instance": _iri(i)} for i in spec.instances])
            usage: dict[str, int] = {}
            for inst in spec.instances:
                for p in {p for p, _ in kg.triples[inst]}:
                    usage[p] = usage.get(p, 0) + 1
            self._frequency[spec.iri] = _rows(["predicate", "count"], [
                {"predicate": _iri(p), "count": _int(n)}
                for p, n in sorted(usage.items(), key=lambda item: (-item[1], item[0]))
            ])
            grouped = {inst: {} for inst in sorted(spec.instances)}
            for inst, by_predicate in grouped.items():
                for p, o in _sorted(kg.triples[inst]):
                    by_predicate.setdefault(p, []).append(o)
            for p in usage:
                self._per_predicate[(spec.iri, p)] = self._profile(grouped, p, object_class)

    @staticmethod
    def _profile(grouped: dict[str, dict[str, list[dict]]], predicate: str, object_class: dict[str, str]) -> dict:
        histogram: dict[int, int] = {}
        kinds: dict[str, int] = {}
        classes: dict[str, int] = {}
        examples = []
        for inst, by_predicate in grouped.items():
            objects = by_predicate.get(predicate)
            if not objects:
                continue
            histogram[len(objects)] = histogram.get(len(objects), 0) + 1
            for o in objects:
                kind = "IRI" if o["type"] == "uri" else o.get("datatype", XSD + "string")
                kinds[kind] = kinds.get(kind, 0) + 1
                if o["type"] == "uri" and o["value"] in object_class:
                    vc = object_class[o["value"]]
                    classes[vc] = classes.get(vc, 0) + 1
                examples.append({"subject": _iri(inst), "object": o})
        by_count = lambda item: (-item[1], item[0])  # noqa: E731
        return {
            "cardinality": _rows(["cardinality", "count"], [
                {"cardinality": _int(k), "count": _int(v)} for k, v in sorted(histogram.items(), key=by_count)
            ]),
            "datatype": _rows(["kind", "count"], [
                {"kind": {"type": "literal", "value": k}, "count": _int(v)} for k, v in sorted(kinds.items(), key=by_count)
            ]),
            "classes": _rows(["class", "count"], [
                {"class": _iri(c), "count": _int(v)} for c, v in sorted(classes.items(), key=by_count)
            ]),
            "examples": examples,
        }

    def __call__(self, query: str) -> dict:
        from shexbench.kginfo import EndpointError

        self.calls += 1
        q = " ".join(query.split())
        iris = _IRI_RE.findall(q)
        try:
            if "AS ?cardinality" in q:
                return self._per_predicate[(iris[1], iris[2])]["cardinality"]
            if "BIND (IF(isIRI" in q:
                return self._per_predicate[(iris[1], iris[2])]["datatype"]
            if "GROUP BY ?class" in q:
                return self._per_predicate[(iris[1], iris[2])]["classes"]
            if q.startswith("SELECT DISTINCT ?predicate"):
                return self._frequency[iris[1]]
            if q.startswith("SELECT (COUNT(DISTINCT ?subject) AS ?count)"):
                return self._count[iris[1]]
            if q.startswith("SELECT DISTINCT ?instance"):
                return self._instances[iris[1]]
            if q.startswith("SELECT ?predicate ?object"):
                return self._instance_triples[iris[0]]
            if q.startswith("SELECT ?subject ?object"):
                limit = int(_LIMIT_RE.search(q).group(1))
                rows = self._per_predicate[(iris[1], iris[2])]["examples"][:limit]
                return _rows(["subject", "object"], rows)
            if q.startswith("SELECT ?label"):
                return self._labels.get(iris[0], self._empty["label"])
            if q.startswith("SELECT ?description"):
                return self._descriptions.get(iris[0], self._empty["description"])
            if q.startswith("SELECT DISTINCT ?class"):
                return self._constraints.get((iris[0], iris[3]), self._empty["class"])
        except (KeyError, IndexError, AttributeError) as exc:
            raise EndpointError(f"synthetic endpoint has no table for {q[:120]!r}: {exc!r}") from exc
        raise EndpointError(f"synthetic endpoint cannot answer {q[:120]!r}")


class RuleLlmClient:
    """Deterministic LLM stand-in answering from the graph's reply table.

    Global-setting prompts are answered per (class, predicate) from the
    record block; local-setting prompts get the class's whole ShExC, broken
    on the first turn for the seeded share of classes.  Set-up records its
    replies once; timed runs replay them through ``--stub-dir``.
    """

    def __init__(self, kg: SyntheticKg):
        self.kg = kg

    def send(self, messages) -> str:
        record = next((m["content"] for m in reversed(messages)
                       if m["role"] == "user" and "'predicate_uri'" in m["content"]), None)
        if record is not None:
            class_iri = _CLASS_URI_RE.search(record).group(1)
            predicate = _PREDICATE_URI_RE.search(record).group(1)
            if "occurrence bounds" in record:
                retry_turn = messages[-1]["content"].startswith("The previous reply was invalid")
                return self.kg.cardinality_reply(class_iri, predicate, retry_turn)
            return self.kg.node_reply(class_iri, predicate)
        first = next(m["content"] for m in messages if m["role"] == "user")
        spec = self.kg.class_by_iri[_LOCAL_CLASS_RE.search(first).group(1)]
        repair_turn = "failed to parse" in messages[-1]["content"]
        return self.kg.generated_text(spec, broken=spec.broken and not repair_turn)


_IRI_RE = re.compile(r"<([^>]+)>")
_LIMIT_RE = re.compile(r"LIMIT (\d+)")
_CLASS_URI_RE = re.compile(r"'class_uri': '([^']+)'")
_PREDICATE_URI_RE = re.compile(r"'predicate_uri': '([^']+)'")
_LOCAL_CLASS_RE = re.compile(r"for the class '(\S+) \(")


def _entity(predicate: str) -> str:
    return WD + predicate.rsplit("/", 1)[-1]


def _qid(iri: str) -> str:
    return iri.rsplit("/", 1)[-1]


def _iri(value: str) -> dict:
    return {"type": "uri", "value": value}


def _literal(value: str, datatype: str) -> dict:
    return {"type": "literal", "value": value, "datatype": datatype}


def _lang(text: str) -> dict:
    return {"type": "literal", "value": text, "xml:lang": "en"}


def _int(value: int) -> dict:
    return {"type": "literal", "value": str(value), "datatype": XSD + "integer"}


def _rows(variables: list[str], bindings: list[dict]) -> dict:
    return {"head": {"vars": variables}, "results": {"bindings": bindings}}


def _sorted(rows: list[tuple[str, dict]]) -> list[tuple[str, dict]]:
    return sorted(rows, key=lambda row: (row[0], row[1]["type"], row[1]["value"]))
