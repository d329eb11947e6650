"""Shared test helpers: independent oracles and deterministic stubs.

The tree-edit oracle here is intentionally separate from the library
implementation: it evaluates the textbook recursive definition of ordered
forest edit distance directly, so it can arbitrate the optimized algorithm.
"""

from __future__ import annotations

import csv
import http.server
import math
import random
import re
import socket
import threading
from dataclasses import dataclass, field
from typing import Literal as TypingLiteral

import numpy as np
from pydantic import BaseModel, ConfigDict, Field, ValidationError, field_validator, model_validator

from shexbench import shexc
from shexbench.cardml import FEATURE_NAMES, CardinalityLabel, FeatureVector, MaxBound
from shexbench.generate import StubReplyMissingError
from shexbench.model import (
    _LITERAL_ESCAPES,
    _LOCAL_PART_RE,
    WELL_KNOWN_PREFIXES,
    Cardinality,
    DatatypeConstraint,
    Iri,
    NodeKindIri,
    Schema,
    ShapeRef,
    ValueSet,
    canonicalize,
)
from shexbench.shexc import ParseDiagnostic

# the reader before offset tokens, verbatim: the oracle for the whole reader
from reference_shexc import reference_parse_outcome  # noqa: F401


class PlainTree:
    """Minimal labeled ordered tree for oracle-side computations."""

    __slots__ = ("label", "children")

    def __init__(self, label, children=()):
        self.label = label
        self.children = tuple(children)

    def size(self):
        return 1 + sum(c.size() for c in self.children)

    def __repr__(self):
        return f"PlainTree({self.label!r}, {list(self.children)!r})"


def brute_force_tree_distance(a, b, insert=1, delete=1, relabel=1):
    """Exhaustive ordered-forest edit distance (memoized recursion).

    Trees may be any objects exposing ``label`` and ``children``; cost model is
    unit-style with free relabels of equal labels.  Exponential-ish but fine
    for the small trees used in tests.
    """

    def key(forest):
        return tuple(id(t) for t in forest)

    memo = {}

    def forest_dist(fa, fb):
        k = (key(fa), key(fb))
        if k in memo:
            return memo[k]
        if not fa and not fb:
            result = 0
        elif not fa:
            result = forest_dist(fa, fb[:-1] + fb[-1].children) + insert
        elif not fb:
            result = forest_dist(fa[:-1] + fa[-1].children, fb) + delete
        else:
            ta, tb = fa[-1], fb[-1]
            options = [
                forest_dist(fa[:-1] + ta.children, fb) + delete,
                forest_dist(fa, fb[:-1] + tb.children) + insert,
                forest_dist(fa[:-1], fb[:-1])
                + forest_dist(ta.children, tb.children)
                + (0 if ta.label == tb.label else relabel),
            ]
            result = min(options)
        memo[k] = result
        return result

    return forest_dist((a,), (b,))


class FakeEndpoint:
    """In-memory KG that answers the client's templated SPARQL queries.

    Serves as both the recorded-fixture source and the counting stub for
    zero-network assertions.  Dispatch is by distinctive fragments of the
    normalized query text, with class/predicate slots pulled from the <...>
    positions of the templates.
    """

    def __init__(self):
        self.graph = {}             # instance iri -> list[(predicate iri, term)]
        self.classes = {}           # class iri -> list[instance iri]
        self.labels = {}            # iri -> label text
        self.descriptions = {}      # iri -> description text
        self.subclass_edges = {}    # child iri -> set of parent iris
        self.property_constraints = {}  # (property entity iri, constraint type iri) -> [class iris]
        self.request_count = 0
        self.request_log = []

    # -- construction -------------------------------------------------------

    def add_instance(self, class_iri, instance, triples, typing_predicate):
        from shexbench.model import Iri

        rows = [(typing_predicate, Iri(class_iri))]
        rows.extend(triples)
        self.graph.setdefault(instance, []).extend(rows)
        self.classes.setdefault(class_iri, []).append(instance)

    # -- SPARQL answering -----------------------------------------------------

    def __call__(self, query):
        self.request_count += 1
        self.request_log.append(query)
        q = " ".join(query.split())
        iris = re.findall(r"<([^>]+)>", q)
        if q.startswith("ASK"):
            return {"boolean": self._reachable(iris[0], iris[-1])}
        if "FILTER NOT EXISTS" in q:
            typing, cls, pred = iris[0], iris[1], iris[2]
            count = sum(
                1 for inst in self.classes.get(cls, ())
                if not any(p == pred for p, _ in self.graph[inst])
            )
            return _select(["count"], [{"count": _int_binding(count)}])
        if "AS ?cardinality" in q:
            typing, cls, pred = iris[0], iris[1], iris[2]
            histogram = {}
            for inst in self.classes.get(cls, ()):
                k = sum(1 for p, _ in self.graph[inst] if p == pred)
                if k >= 1:
                    histogram[k] = histogram.get(k, 0) + 1
            rows = [
                {"cardinality": _int_binding(k), "count": _int_binding(v)}
                for k, v in sorted(histogram.items(), key=lambda item: -item[1])
            ]
            return _select(["cardinality", "count"], rows)
        if "BIND (IF(isIRI" in q:
            typing, cls, pred = iris[0], iris[1], iris[2]
            kinds = {}
            for obj in self._objects(cls, pred):
                kinds[_object_kind(obj)] = kinds.get(_object_kind(obj), 0) + 1
            rows = [
                {"kind": {"type": "literal", "value": kind}, "count": _int_binding(count)}
                for kind, count in sorted(kinds.items(), key=lambda item: (-item[1], item[0]))
            ]
            return _select(["kind", "count"], rows)
        if "GROUP BY ?class" in q:
            typing, cls, pred = iris[0], iris[1], iris[2]
            counts = {}
            for obj in self._objects(cls, pred):
                if _is_iri(obj):
                    for object_class, members in self.classes.items():
                        if obj.value in members:
                            counts[object_class] = counts.get(object_class, 0) + 1
            rows = [
                {"class": _iri_binding(c), "count": _int_binding(n)}
                for c, n in sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            ]
            return _select(["class", "count"], rows)
        if q.startswith("SELECT DISTINCT ?predicate"):
            typing, cls = iris[0], iris[1]
            counts = {}
            for inst in self.classes.get(cls, ()):
                for p in {p for p, _ in self.graph[inst]}:
                    counts[p] = counts.get(p, 0) + 1
            rows = [
                {"predicate": _iri_binding(p), "count": _int_binding(n)}
                for p, n in sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            ]
            return _select(["predicate", "count"], rows)
        if q.startswith("SELECT (COUNT(DISTINCT ?subject) AS ?count)"):
            typing, cls = iris[0], iris[1]
            return _select(["count"], [{"count": _int_binding(len(self.classes.get(cls, ())))}])
        if q.startswith("SELECT DISTINCT ?instance"):
            typing, cls = iris[0], iris[1]
            rows = [{"instance": _iri_binding(i)} for i in self.classes.get(cls, ())]
            return _select(["instance"], rows)
        if q.startswith("SELECT ?instance (COUNT(DISTINCT ?predicate)"):
            typing, cls = iris[0], iris[1]
            ranked = sorted(
                ((len({p for p, _ in self.graph[i]}), i) for i in self.classes.get(cls, ())),
                key=lambda item: (-item[0], item[1]),
            )
            rows = [{"instance": _iri_binding(i), "count": _int_binding(n)} for n, i in ranked]
            return _select(["instance", "count"], rows)
        if q.startswith("SELECT ?predicate ?object"):
            inst = iris[0]
            rows = [
                {"predicate": _iri_binding(p), "object": _term_binding(o)}
                for p, o in sorted(self.graph.get(inst, ()), key=lambda row: (row[0], _term_sort(row[1])))
            ]
            return _select(["predicate", "object"], rows)
        if q.startswith("SELECT ?subject ?object"):
            typing, cls, pred = iris[0], iris[1], iris[2]
            limit = int(re.search(r"LIMIT (\d+)", q).group(1))
            rows = []
            for inst in sorted(self.classes.get(cls, ())):
                for p, o in sorted(self.graph[inst], key=lambda row: (row[0], _term_sort(row[1]))):
                    if p == pred:
                        rows.append({"subject": _iri_binding(inst), "object": _term_binding(o)})
            return _select(["subject", "object"], rows[:limit])
        if q.startswith("SELECT ?label"):
            term = iris[0]
            label = self.labels.get(term)
            rows = [{"label": {"type": "literal", "value": label, "xml:lang": "en"}}] if label else []
            return _select(["label"], rows)
        if q.startswith("SELECT ?description"):
            term = iris[0]
            text = self.descriptions.get(term)
            rows = [{"description": {"type": "literal", "value": text, "xml:lang": "en"}}] if text else []
            return _select(["description"], rows)
        if q.startswith("SELECT DISTINCT ?class"):
            prop, _p2302, ctype = iris[0], iris[1], iris[3]
            classes = self.property_constraints.get((prop, ctype), ())
            rows = [{"class": _iri_binding(c)} for c in sorted(classes)]
            return _select(["class"], rows)
        raise AssertionError(f"FakeEndpoint cannot answer: {q[:120]}")

    def _objects(self, cls, pred):
        for inst in self.classes.get(cls, ()):
            for p, o in self.graph[inst]:
                if p == pred:
                    yield o

    def _reachable(self, child, parent):
        seen, stack = {child}, [child]
        while stack:
            for nxt in self.subclass_edges.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return parent in seen


def _select(variables, rows):
    return {"head": {"vars": list(variables)}, "results": {"bindings": rows}}


def _int_binding(value):
    return {"type": "literal", "value": str(value),
            "datatype": "http://www.w3.org/2001/XMLSchema#integer"}


def _iri_binding(value):
    return {"type": "uri", "value": value}


def _is_iri(term):
    from shexbench.model import Iri

    return isinstance(term, Iri)


def _term_binding(term):
    from shexbench.kginfo import BlankNode
    from shexbench.model import Iri

    if isinstance(term, Iri):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.id}
    binding = {"type": "literal", "value": term.lexical}
    if term.datatype is not None:
        binding["datatype"] = term.datatype.value
    if term.language is not None:
        binding["xml:lang"] = term.language
    return binding


def _term_sort(term):
    binding = _term_binding(term)
    return (binding["type"], binding["value"])


def _object_kind(term):
    from shexbench.kginfo import BlankNode
    from shexbench.model import Iri

    if isinstance(term, Iri):
        return "IRI"
    if isinstance(term, BlankNode):
        return "bnode"
    if term.language is not None:
        return "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
    if term.datatype is None:
        return "http://www.w3.org/2001/XMLSchema#string"
    return term.datatype.value


def build_mutation_oracle(schemas):
    """Subclass oracle where every class seen in the schemas has a synthetic superclass."""
    from shexbench.matching import StaticSubclassOracle
    from shexbench.model import ShapeRef, ValueSet, classes_of

    edges = {}
    for schema in schemas:
        for shape in schema.shapes.values():
            for constraint in shape.constraints:
                nc = constraint.node_constraint
                classes = set()
                if isinstance(nc, ValueSet):
                    classes.update(nc.iris())
                elif isinstance(nc, ShapeRef):
                    classes.update(classes_of(nc, schema))
                for cls in classes:
                    edges[cls] = [superclass_of(cls)]
    return StaticSubclassOracle(edges)


def superclass_of(iri):
    from shexbench.model import Iri

    return Iri(iri.value + "_super")


def mutate_schema(schema, rng: random.Random, n_mutations: int | None = None):
    """Random structure-preserving mutation of a schema's start shape.

    Produces the kinds of defects generated schemas exhibit: dropped
    predicates, wrong cardinalities, blunted node constraints, invented
    predicates, sibling datatypes, and over-general referenced classes.
    The result is always a valid schema.
    """
    from dataclasses import replace as dc_replace

    from shexbench.model import (
        XSD_NS,
        Cardinality,
        DatatypeConstraint,
        Iri,
        NodeKindIri,
        Schema,
        Shape,
        ShapeRef,
        TripleConstraint,
        ValueSet,
        canonical_shape_label,
        canonicalize,
        classes_of,
    )

    sibling_datatypes = {
        XSD_NS + "decimal": XSD_NS + "integer",
        XSD_NS + "integer": XSD_NS + "double",
        XSD_NS + "double": XSD_NS + "decimal",
        XSD_NS + "dateTime": XSD_NS + "date",
        XSD_NS + "date": XSD_NS + "gYear",
        XSD_NS + "gYear": XSD_NS + "dateTime",
        XSD_NS + "string": "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString",
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString": XSD_NS + "string",
    }

    canon = canonicalize(schema)
    start = canon.start_shape
    constraints = list(start.constraints)
    shapes = dict(canon.shapes)

    for step in range(n_mutations if n_mutations is not None else rng.randint(1, 3)):
        kind = rng.choice(["drop", "widen_card", "shift_card", "sibling_datatype",
                           "blunt_node", "add", "generalize_ref"])
        if kind == "drop" and len(constraints) > 1:
            constraints.pop(rng.randrange(len(constraints)))
        elif kind == "widen_card" and constraints:
            index = rng.randrange(len(constraints))
            constraints[index] = dc_replace(constraints[index], cardinality=Cardinality(0, None))
        elif kind == "shift_card" and constraints:
            index = rng.randrange(len(constraints))
            new_card = rng.choice([Cardinality(1, 1), Cardinality(0, 1), Cardinality(1, None), Cardinality(2, 2)])
            constraints[index] = dc_replace(constraints[index], cardinality=new_card)
        elif kind == "sibling_datatype" and constraints:
            index = rng.randrange(len(constraints))
            nc = constraints[index].node_constraint
            if isinstance(nc, DatatypeConstraint) and nc.datatype.value in sibling_datatypes:
                sibling = DatatypeConstraint(Iri(sibling_datatypes[nc.datatype.value]))
                constraints[index] = dc_replace(constraints[index], node_constraint=sibling)
        elif kind == "blunt_node" and constraints:
            index = rng.randrange(len(constraints))
            constraints[index] = dc_replace(constraints[index], node_constraint=NodeKindIri())
        elif kind == "add":
            predicate = Iri(f"http://www.wikidata.org/prop/direct/P99{step}{rng.randrange(10)}")
            if predicate not in {c.predicate for c in constraints}:
                constraints.append(TripleConstraint(predicate, NodeKindIri(), Cardinality(0, None)))
        elif kind == "generalize_ref" and constraints:
            index = rng.randrange(len(constraints))
            nc = constraints[index].node_constraint
            if isinstance(nc, ShapeRef) and nc.label in shapes:
                referenced = shapes[nc.label]
                typing_nc = referenced.constraints[0].node_constraint
                classes = frozenset(typing_nc.iris()) if isinstance(typing_nc, ValueSet) else frozenset()
                if classes:
                    supers = tuple(sorted(superclass_of(c) for c in classes))
                    typing_pred = referenced.constraints[0].predicate
                    label = canonical_shape_label(supers)
                    shapes[label] = Shape(
                        label,
                        (TripleConstraint(typing_pred, ValueSet(supers), Cardinality(1, 1)),),
                        (typing_pred,),
                    )
                    constraints[index] = dc_replace(constraints[index], node_constraint=ShapeRef(label))

    shapes[start.label] = Shape(start.label, tuple(constraints), start.extra_predicates)
    return Schema(canon.start_label, shapes, canon.focus_class)


WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"
XSD = "http://www.w3.org/2001/XMLSchema#"


class RuleLlmClient:
    """Deterministic LLM stand-in answering global-step prompts from a table.

    Keys are predicate URIs as they appear in the rendered record block.
    Useful both directly and as the source for recorded stub directories.
    """

    def __init__(self, cardinality_replies, node_replies):
        self.cardinality_replies = cardinality_replies
        self.node_replies = node_replies
        self.sent = []

    def send(self, messages):
        self.sent.append(list(messages))
        # retry turns append error messages, so scan back for the record block
        record_message = next(
            (m["content"] for m in reversed(messages)
             if m["role"] == "user" and "'predicate_uri'" in m["content"]),
            None,
        )
        if record_message is None:
            raise AssertionError(f"no predicate_uri in prompt: {messages[-1]['content'][:120]}")
        predicate = re.search(r"'predicate_uri': '([^']+)'", record_message).group(1)
        if "occurrence bounds" in record_message:
            return self.cardinality_replies[predicate]
        return self.node_replies[predicate]


@dataclass
class ScriptedLlmClient:
    """Answers from a fixed reply queue; for tests and fixture recording."""

    replies: list[str]
    sent: list[list[dict[str, str]]] = field(default_factory=list)

    def send(self, messages):
        self.sent.append(list(messages))
        if len(self.sent) > len(self.replies):
            raise StubReplyMissingError("scripted client ran out of replies")
        return self.replies[len(self.sent) - 1]


def build_award_endpoint():
    """Synthetic Wikidata-flavored film-award KG with known statistics.

    10 instances of Q4220917; per predicate: P17 on all (exactly one), P571 on
    6, P856 with counts {1: 3, 2: 2}, P1027 on 8.  Countries are typed Q6256.
    """
    from shexbench.model import Iri, Literal

    typing = WDT + "P31"
    ep = FakeEndpoint()
    countries = [WD + "Q30", WD + "Q183", WD + "Q38"]
    for country in countries:
        ep.add_instance(WD + "Q6256", country, [], typing)
    organizations = [WD + f"Q86{i}" for i in range(8)]
    for org in organizations:
        ep.add_instance(WD + "Q43229", org, [], typing)

    awards = [WD + f"Q10{i:02d}" for i in range(10)]
    for index, award in enumerate(awards):
        triples = [(WDT + "P17", Iri(countries[index % 3]))]
        if index < 6:
            triples.append((WDT + "P571", Literal(f"19{50 + index}-01-01T00:00:00Z", Iri(XSD + "dateTime"))))
        if index < 3:
            triples.append((WDT + "P856", Iri(f"http://awards.example.org/{index}")))
        elif index < 5:
            triples.append((WDT + "P856", Iri(f"http://awards.example.org/{index}a")))
            triples.append((WDT + "P856", Iri(f"http://awards.example.org/{index}b")))
        if index < 8:
            triples.append((WDT + "P1027", Iri(organizations[index])))
        ep.add_instance(WD + "Q4220917", award, triples, typing)

    ep.labels.update({
        WD + "Q4220917": "film award",
        WD + "Q6256": "country",
        WD + "Q43229": "organization",
        WD + "P17": "country",
        WD + "P571": "inception",
        WD + "P856": "official website",
        WD + "P1027": "conferred by",
        WD + "P31": "instance of",
        WD + "Q30": "United States of America",
        WD + "Q183": "Germany",
        WD + "Q38": "Italy",
    })
    ep.descriptions.update({
        WD + "Q4220917": "recognition for cinematic achievements",
        WD + "P17": "sovereign state of this item",
        WD + "P571": "time when the entity begins to exist",
        WD + "P856": "URL of the official website",
        WD + "P1027": "person or organization who grants an award",
    })
    ep.subclass_edges.update({
        WD + "Q6256": {WD + "Q56061"},
        WD + "Q56061": {WD + "Q1048835"},
        WD + "Q43229": {WD + "Q16334295"},
    })
    ep.property_constraints.update({
        (WD + "P17", WD + "Q21510865"): [WD + "Q6256"],
        (WD + "P17", WD + "Q21503250"): [WD + "Q2221906"],
        (WD + "P1027", WD + "Q21510865"): [WD + "Q43229"],
    })
    return ep


def award_endpoint_config(cache_dir, offline=False):
    from shexbench.kginfo import EndpointConfig, KgKind
    from shexbench.model import Iri

    return EndpointConfig(
        endpoint_url="https://fake.example.org/sparql",
        kg_kind=KgKind.WIKIDATA,
        typing_predicate=Iri(WDT + "P31"),
        cache_dir=cache_dir,
        offline=offline,
    )


def build_benchmark_endpoint():
    """Award endpoint extended with museum and airport classes (3 classes total)."""
    from shexbench.model import Iri, Literal

    typing = WDT + "P31"
    ep = build_award_endpoint()
    for index in range(5):
        museum = WD + f"Q20{index:02d}"
        triples = [(WDT + "P17", Iri(WD + ["Q30", "Q183", "Q38"][index % 3]))]
        triples.append((WDT + "P856", Iri(f"http://museums.example.org/{index}")))
        if index < 2:
            triples.append((WDT + "P1174", Literal(str(100000 + index), Iri(XSD + "decimal"))))
        ep.add_instance(WD + "Q33506", museum, triples, typing)
    for index in range(4):
        airport = WD + f"Q30{index:02d}"
        triples = [(WDT + "P17", Iri(WD + ["Q30", "Q183", "Q38"][index % 3]))]
        triples.append((WDT + "P238", Literal(["LAX", "FRA", "FCO", "JFK"][index], Iri(XSD + "string"))))
        ep.add_instance(WD + "Q1248784", airport, triples, typing)
    ep.labels.update({
        WD + "Q33506": "museum",
        WD + "Q1248784": "airport",
        WD + "P238": "IATA airport code",
        WD + "P1174": "visitors per year",
    })
    return ep


BENCHMARK_CLASSES = (WD + "Q4220917", WD + "Q33506", WD + "Q1248784")

_BENCHMARK_GROUND_TRUTH = {
    WD + "Q4220917": """PREFIX wd: <http://www.wikidata.org/entity/>
PREFIX wdt: <http://www.wikidata.org/prop/direct/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<FilmAward> EXTRA wdt:P31 {
  wdt:P31 [ wd:Q4220917 ] ;
  wdt:P17 @<Country> ;
  wdt:P571 xsd:dateTime ? ;
  wdt:P856 IRI * ;
  wdt:P1027 IRI *
}

<Country> EXTRA wdt:P31 {
  wdt:P31 [ wd:Q6256 ]
}
""",
    WD + "Q33506": """PREFIX wd: <http://www.wikidata.org/entity/>
PREFIX wdt: <http://www.wikidata.org/prop/direct/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Museum> EXTRA wdt:P31 {
  wdt:P31 [ wd:Q33506 ] ;
  wdt:P17 @<Country> ;
  wdt:P856 IRI * ;
  wdt:P1174 xsd:decimal *
}

<Country> EXTRA wdt:P31 {
  wdt:P31 [ wd:Q6256 ]
}
""",
    WD + "Q1248784": """PREFIX wd: <http://www.wikidata.org/entity/>
PREFIX wdt: <http://www.wikidata.org/prop/direct/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Airport> EXTRA wdt:P31 {
  wdt:P31 [ wd:Q1248784 ] ;
  wdt:P17 @<Country> ;
  wdt:P238 xsd:string ?
}

<Country> EXTRA wdt:P31 {
  wdt:P31 [ wd:Q6256 ]
}
""",
}


def write_benchmark_manifest(root, endpoint_url="https://fake.example.org/sparql"):
    """Manifest + ground-truth files for the 3-class synthetic benchmark, every
    class at ``endpoint_url``."""
    import json as _json
    from pathlib import Path

    root = Path(root)
    (root / "gt").mkdir(parents=True, exist_ok=True)
    entries = []
    labels = {WD + "Q4220917": "film award", WD + "Q33506": "museum", WD + "Q1248784": "airport"}
    for class_uri in BENCHMARK_CLASSES:
        slug = class_uri.rsplit("/", 1)[-1]
        (root / "gt" / f"{slug}.shex").write_text(_BENCHMARK_GROUND_TRUTH[class_uri])
        entries.append({
            "class_uri": class_uri,
            "label": labels[class_uri],
            "kg_kind": "wikidata",
            "endpoint_url": endpoint_url,
            "typing_predicate": WDT + "P31",
            "ground_truth_path": f"gt/{slug}.shex",
        })
    path = root / "manifest.json"
    path.write_text(_json.dumps({"dataset_name": "synthetic", "entries": entries}, indent=2))
    return path


def write_shared_property_benchmark(root, n_classes: int = 8):
    """A KG and manifest of ``n_classes`` classes whose instances all use the
    same two properties (country ``P17`` and website ``P856``), so every class
    looks up the same property labels, descriptions and constraints.

    Returns ``(endpoint, manifest path)``."""
    import json as _json
    from pathlib import Path

    from shexbench.model import Iri

    typing = WDT + "P31"
    countries = [WD + "Q30", WD + "Q183", WD + "Q38"]
    ep = FakeEndpoint()
    for country in countries:
        ep.add_instance(WD + "Q6256", country, [], typing)
    root = Path(root)
    (root / "gt").mkdir(parents=True, exist_ok=True)
    entries = []
    for index in range(n_classes):
        class_uri = WD + f"Q90{index:02d}"
        for member in range(3):
            ep.add_instance(class_uri, WD + f"Q91{index:02d}{member}", [
                (WDT + "P17", Iri(countries[(index + member) % 3])),
                (WDT + "P856", Iri(f"http://example.org/{index}/{member}")),
            ], typing)
        ep.labels[class_uri] = f"class {index}"
        slug = class_uri.rsplit("/", 1)[-1]
        (root / "gt" / f"{slug}.shex").write_text(
            "PREFIX wd: <http://www.wikidata.org/entity/>\n"
            "PREFIX wdt: <http://www.wikidata.org/prop/direct/>\n\n"
            f"<C{index}> EXTRA wdt:P31 {{\n  wdt:P31 [ wd:{slug} ] ;\n  wdt:P17 IRI ;\n  wdt:P856 IRI *\n}}\n")
        entries.append({"class_uri": class_uri, "label": f"class {index}", "kg_kind": "wikidata",
                        "endpoint_url": "https://fake.example.org/sparql", "typing_predicate": typing,
                        "ground_truth_path": f"gt/{slug}.shex"})
    ep.labels.update({WD + "P17": "country", WD + "P856": "official website", WD + "Q30": "United States of America",
                      WD + "Q183": "Germany", WD + "Q38": "Italy"})
    ep.descriptions.update({WD + "P17": "sovereign state of this item", WD + "P856": "URL of the official website"})
    ep.property_constraints.update({(WD + "P17", WD + "Q21510865"): [WD + "Q6256"]})
    path = root / "manifest.json"
    path.write_text(_json.dumps({"dataset_name": "shared-property", "entries": entries}, indent=2))
    return ep, path


class LoopbackServer:
    """An HTTP server on ``127.0.0.1`` and a free port that answers every POST
    with the next scripted ``(status, body)`` or ``(status, body, headers)``
    (the last one repeats), or else with what ``answer(path, headers, body)``
    returns in that form, and records each request as ``(path, headers, body)``.

    A context manager: the server runs in a daemon thread until exit."""

    def __init__(self, *answers, answer=None):
        self.answers = list(answers)
        self.answer = answer
        self.requests = []
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                server.requests.append((self.path, dict(self.headers), body))
                if server.answer is not None:
                    status, reply, *extra = server.answer(self.path, dict(self.headers), body)
                else:
                    status, reply, *extra = server.answers.pop(0) if len(server.answers) > 1 else server.answers[0]
                reply = reply.encode("utf-8") if isinstance(reply, str) else reply
                self.send_response(status)
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, format, *args):
                pass

        self._httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._httpd.server_address[1]}/sparql"

    def __enter__(self):
        # a short poll interval so that exit's shutdown returns at once
        threading.Thread(target=self._httpd.serve_forever, args=(0.01,), daemon=True).start()
        return self

    def __exit__(self, *exc_info):
        self._httpd.shutdown()
        self._httpd.server_close()


def sparql_answer(endpoint):
    """A :class:`LoopbackServer` answer: ``endpoint``'s SPARQL JSON results for
    the form-encoded query of each request, one request at a time."""
    import json as _json
    from urllib.parse import parse_qs

    lock = threading.Lock()

    def answer(path, headers, body):
        (query,) = parse_qs(body.decode("ascii"), strict_parsing=True)["query"]
        with lock:
            return 200, _json.dumps(endpoint(query))

    return answer


def refused_url():
    """An ``http`` URL on ``127.0.0.1`` whose port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/sparql"


def benchmark_rule_client():
    """Reply tables covering every predicate of the synthetic benchmark KG."""
    return RuleLlmClient(
        cardinality_replies={
            WDT + "P17": '{"include": true, "min": 1, "max": 1}',
            WDT + "P571": '{"include": true, "min": 0, "max": 1}',
            WDT + "P856": '{"include": true, "min": 0, "max": null}',
            WDT + "P1027": '{"include": true, "min": 0, "max": null}',
            WDT + "P238": '{"include": true, "min": 0, "max": 1}',
            WDT + "P1174": '{"include": true, "min": 0, "max": null}',
        },
        node_replies={
            WDT + "P17": '{"referenced_classes": ["wd:Q6256"]}',
            WDT + "P571": '{"datatype": "xsd:dateTime"}',
            WDT + "P856": "{}",
            WDT + "P1027": "{}",
            WDT + "P238": '{"datatype": "xsd:string"}',
            WDT + "P1174": '{"datatype": "xsd:decimal"}',
        },
    )


def synthetic_cardinality_rows(n: int, seed: int):
    """Labeled feature rows governed by a known two-threshold rule.

    min is 1 exactly when frequency > 0.7 and max is 1 exactly when the
    multi-occurrence fraction is below 0.15; sampling leaves wide margins
    around both thresholds, so the data is separable by construction.
    """
    from shexbench.cardml import CardinalityLabel, FeatureVector, MaxBound

    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        required = rng.random() < 0.5
        functional = rng.random() < 0.5
        frequency = rng.uniform(0.78, 1.0) if required else rng.uniform(0.45, 0.62)
        multi = rng.uniform(0.0, 0.10) if functional else rng.uniform(0.22, min(0.44, frequency - 0.01))
        exactly_one = frequency - multi
        missing = 1.0 - frequency
        categories = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        dt = rng.choice(categories)
        features = FeatureVector(
            frequency=frequency,
            missing_fraction=missing,
            exactly_one_fraction=exactly_one,
            multi_fraction=multi,
            max_observed_count=1 if multi < 1e-9 else rng.randint(2, 8),
            mean_count=exactly_one + 2.5 * multi,
            distinct_object_ratio=rng.uniform(0.0, 1.0),
            dt_datetime=float(dt[0]),
            dt_decimal=float(dt[1]),
            dt_string=float(dt[2]),
            dt_iri=float(dt[3]),
            has_value_type_constraint=rng.random() < 0.5,
        )
        label = CardinalityLabel(
            min_class=1 if frequency > 0.7 else 0,
            max_class=MaxBound.ONE if multi < 0.15 else MaxBound.UNBOUNDED,
        )
        rows.append((features, label))
    return rows


def random_tree(rng: random.Random, max_nodes: int, labels=("a", "b", "c", "d")) -> PlainTree:
    """Random ordered tree with 1..max_nodes nodes."""
    n = rng.randint(1, max_nodes)

    def build(budget):
        label = rng.choice(labels)
        children = []
        remaining = budget - 1
        while remaining > 0 and rng.random() < 0.6:
            size = rng.randint(1, remaining)
            children.append(build(size))
            remaining -= children[-1].size()
        return PlainTree(label, children)

    return build(n)


def _reference_gini(positives: float, n: float) -> float:
    if n <= 0:
        return 0.0
    p = positives / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def reference_gini_split(X, y, min_leaf: int):
    """The per-threshold loop scan for the largest Gini decrease.

    This is the split search the decision tree used before the vectorized
    one (``cardml._split_candidates`` and ``cardml._choose_split``); it is
    kept as the oracle for that fast path.
    """
    n = len(y)
    parent = _reference_gini(float(y.sum()), n)
    best = None
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        positives = np.cumsum(ys)
        total_pos = float(positives[-1])
        for i in range(min_leaf, n - min_leaf + 1):
            if i >= n or xs[i] <= xs[i - 1]:
                continue
            left_pos = float(positives[i - 1])
            weighted = (
                i * _reference_gini(left_pos, i) + (n - i) * _reference_gini(total_pos - left_pos, n - i)
            ) / n
            decrease = parent - weighted
            if decrease > 1e-12 and (best is None or decrease > best[0] + 1e-12):
                best = (decrease, feature, float((xs[i] + xs[i - 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2]


def _reference_newton(g_sum: float, h_sum: float) -> float:
    return g_sum * g_sum / (h_sum + 1e-9)


def reference_newton_split(X, g, h, min_leaf: int):
    """The per-threshold loop scan for the largest Newton gain.

    This is the split search the boosted regression trees used before the
    vectorized one (``cardml._split_candidates`` and ``cardml._choose_split``);
    it is kept as the oracle for that fast path.
    """
    n = len(g)
    parent_gain = _reference_newton(float(g.sum()), float(h.sum()))
    best = None
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        gs = np.cumsum(g[order])
        hs = np.cumsum(h[order])
        total_g, total_h = float(gs[-1]), float(hs[-1])
        for i in range(min_leaf, n - min_leaf + 1):
            if i >= n or xs[i] <= xs[i - 1]:
                continue
            gain = (
                _reference_newton(float(gs[i - 1]), float(hs[i - 1]))
                + _reference_newton(total_g - float(gs[i - 1]), total_h - float(hs[i - 1]))
                - parent_gain
            )
            if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
                best = (gain, feature, float((xs[i] + xs[i - 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2]


def reference_leaf(node: dict, x) -> dict:
    """The leaf of a dict tree that row x falls into; a row on a threshold
    goes left.

    This is the node-by-node walk both cardinality models used before the
    flat-array ``cardml._apply``; it is kept as the oracle for that fast path.
    """
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node


def reference_decision_function(model, X) -> np.ndarray:
    """A boosted model's scores from its dict trees: the base score plus each
    tree's scaled leaf value, added in tree order in Python floats."""
    scores = []
    for row in X:
        score = model.base_score
        for tree in model.trees:
            score = score + model.learning_rate * reference_leaf(tree, row)["value"]
        scores.append(score)
    return np.array(scores, dtype=float)


def reference_predict(model, X) -> np.ndarray:
    """Class predictions of a fitted decision tree or boosted model, walked
    row by row through its dict trees."""
    from shexbench.cardml import DecisionTreeClassifier, _sigmoid

    if isinstance(model, DecisionTreeClassifier):
        return np.array([reference_leaf(model.root, row)["prediction"] for row in X], dtype=int)
    return (_sigmoid(reference_decision_function(model, X)) >= 0.5).astype(int)


def _reference_best_split(X, stats, min_leaf: int, gain):
    """(feature, threshold) of the best split; None when no split gains.

    Candidates lie between distinct adjacent values with at least min_leaf
    rows on each side, and are scanned in (feature, threshold) order: one
    replaces the best so far only when it gains more than the best + 1e-12,
    so ties keep the earliest and training is deterministic.
    """
    n = len(X)
    if n < 2:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    sums = [np.cumsum(stat[order], axis=0) for stat in stats]
    n_left = np.arange(1, n)[:, None]
    gains = gain(stats, [s[:-1] for s in sums], [s[-1] - s[:-1] for s in sums], n_left)
    usable = ~(xs[1:] <= xs[:-1]) & (n_left >= min_leaf) & (n_left <= n - min_leaf) & (gains > 1e-12)
    # Transposed so that flat positions follow the scan order.
    flat_gains = gains.T.ravel()
    candidates = np.flatnonzero(usable.T.ravel())
    if not len(candidates):
        return None
    # Every replacement beats everything scanned before it, so only strict
    # running-max records can replace the best; the rule runs on those alone.
    scanned = flat_gains[candidates]
    records = candidates[np.r_[True, scanned[1:] > np.maximum.accumulate(scanned)[:-1]]]
    best = records[0]
    for position in records[1:]:
        if flat_gains[position] > flat_gains[best] + 1e-12:
            best = position
    feature, row = divmod(int(best), n - 1)
    return feature, float((xs[row + 1, feature] + xs[row, feature]) / 2.0)


def reference_grow(X, stats, max_depth: int, min_leaf: int, leaf, gain) -> dict:
    """Recursive binary partition to max_depth; leaf(*stats) builds each leaf.

    This is the tree growth both cardinality models used before the fit
    presorted its matrix once: every node argsorts its own rows again.  It is
    kept as the oracle for ``cardml._grow``.
    """
    node = leaf(*stats)
    if max_depth <= 0 or len(X) < 2 * min_leaf:
        return node
    split = _reference_best_split(X, stats, min_leaf, gain)
    if split is None:
        return node
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return {
        "leaf": False,
        "feature": feature,
        "threshold": threshold,
        "left": reference_grow(X[mask], [s[mask] for s in stats], max_depth - 1, min_leaf, leaf, gain),
        "right": reference_grow(X[~mask], [s[~mask] for s in stats], max_depth - 1, min_leaf, leaf, gain),
    }


def reference_fit(model, X, y):
    """A fresh copy of an unfitted decision tree or boosted model, fitted with
    :func:`reference_grow`; a boosting round adds each row's leaf value, found
    by walking the new tree, and evaluates the sigmoid twice."""
    from shexbench import cardml

    X = np.asarray(X, dtype=float)
    if isinstance(model, cardml.DecisionTreeClassifier):
        fitted = cardml.DecisionTreeClassifier(max_depth=model.max_depth, min_leaf=model.min_leaf)
        y = np.asarray(y, dtype=int)
        fitted.root = reference_grow(X, (y,), model.max_depth, model.min_leaf, cardml._class_leaf, cardml._gini_gain)
        return fitted
    y = np.asarray(y, dtype=float)
    prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    base_score = math.log(prior / (1 - prior))
    scores = np.full(len(y), base_score)
    trees, losses = [], []
    for _ in range(model.n_rounds):
        probabilities = cardml._sigmoid(scores)
        gradients = y - probabilities
        hessians = probabilities * (1 - probabilities)
        tree = reference_grow(
            X, (gradients, hessians), model.max_depth, model.min_leaf, cardml._newton_leaf, cardml._newton_gain
        )
        step = np.array([reference_leaf(tree, row)["value"] for row in X], dtype=float)
        scores = scores + model.learning_rate * step
        trees.append(tree)
        losses.append(cardml._log_loss(y, cardml._sigmoid(scores)))
    fitted = cardml.GradientBoostingClassifier(
        n_rounds=model.n_rounds, max_depth=model.max_depth, learning_rate=model.learning_rate, min_leaf=model.min_leaf
    )
    fitted.base_score, fitted.trees, fitted.train_losses = base_score, trees, losses
    return fitted


def _reference_nodes_exact(gt_nc, gen_nc, gt_schema, gen_schema, typing_predicates) -> bool:
    """Exact node agreement, resolving each shape reference's classes anew."""
    from shexbench.model import ShapeRef, ValueSet, classes_of

    if isinstance(gt_nc, ShapeRef) and isinstance(gen_nc, ShapeRef):
        return classes_of(gt_nc, gt_schema, typing_predicates) == classes_of(gen_nc, gen_schema, typing_predicates)
    if type(gt_nc) is not type(gen_nc):
        return False
    if isinstance(gt_nc, ValueSet) and isinstance(gen_nc, ValueSet):
        return set(gt_nc.values) == set(gen_nc.values)
    return gt_nc == gen_nc


def reference_evaluate_pair(gen, gt, criteria, oracle=None, *, typing_predicates):
    """Scores of one criterion, canonicalizing and pairing both schemas anew.

    This is the per-criterion ``evaluate_pair`` that scoring used before
    ``matching.evaluate_criteria`` scored every criterion on one pairing; it
    is kept as the oracle for that one-pass path.
    """
    from shexbench.matching import ErrorBreakdown, EvalReport, constraint_matches, f1_score
    from shexbench.model import canonicalize

    gen_canon = canonicalize(gen, typing_predicates)
    gt_canon = canonicalize(gt, typing_predicates)
    gen_constraints = gen_canon.start_shape.constraints
    gen_by_predicate = {c.predicate: c for c in gen_constraints}
    pairs = [(c, gen_by_predicate.get(c.predicate)) for c in gt_canon.start_shape.constraints]
    matched = sum(
        candidate is not None and constraint_matches(
            gt_constraint, candidate, criteria, oracle, gt_canon, gen_canon, typing_predicates=typing_predicates,
        )
        for gt_constraint, candidate in pairs
    )
    correct = missing = wrong_card = wrong_node = both = 0
    for gt_constraint, candidate in pairs:
        if candidate is None:
            missing += 1
            continue
        node_ok = _reference_nodes_exact(
            gt_constraint.node_constraint, candidate.node_constraint, gt_canon, gen_canon, typing_predicates
        )
        card_ok = gt_constraint.cardinality == candidate.cardinality
        if node_ok and card_ok:
            correct += 1
        elif node_ok:
            wrong_card += 1
        elif card_ok:
            wrong_node += 1
        else:
            both += 1
    precision = matched / len(gen_constraints) if gen_constraints else 0.0
    recall = matched / len(pairs) if pairs else 0.0
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        matched_count=matched,
        error_breakdown=ErrorBreakdown(correct, missing, wrong_card, wrong_node, both),
    )


# -- ShExC text oracles --------------------------------------------------------
# The tokenizer and the namespace scan as they were before the one-pass
# tokenizer and the memoized well-known lookup; kept as the oracles for both.

_TOKEN_SPEC = [
    ("WS", r"[ \t\r\f]+"),
    ("NL", r"\n"),
    ("COMMENT", r"#[^\n]*"),
    ("IRIREF", r"<[^<>\"{}|^`\\\s]*>"),
    ("DTCARET", r"\^\^"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"'),
    ("PNAME", r"[A-Za-z][A-Za-z0-9_.\-]*:[A-Za-z0-9_.\-]*|:[A-Za-z0-9_.\-]+"),
    ("NUMBER", r"[+-]?\d+(?:\.\d+)?"),
    ("LANGTAG", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("AT", r"@"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_\-]*"),
    ("PUNCT", r"[{}\[\];=,?*+()./|~!$&%-]"),
]
_MASTER_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    col: int


def reference_tokenize(text: str) -> tuple[list[_Token], list[ParseDiagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[ParseDiagnostic] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        match = _MASTER_RE.match(text, pos)
        if match is None:
            diagnostics.append(ParseDiagnostic(line, col, f"unexpected character {text[pos]!r}"))
            pos += 1
            col += 1
            continue
        kind = match.lastgroup or ""
        value = match.group()
        if kind == "NL":
            line += 1
            col = 1
        elif kind in ("WS", "COMMENT"):
            col += len(value)
        else:
            tokens.append(_Token(kind, value, line, col))
            col += len(value)
        pos = match.end()
    tokens.append(_Token("EOF", "", line, col))
    return tokens, diagnostics


def parse_outcome(text: str) -> Schema | str:
    try:
        return shexc.parse_shexc(text)
    except shexc.ShexcParseError as exc:
        return str(exc)


def try_parse_shexc(text: str) -> tuple[Schema | None, tuple[ParseDiagnostic, ...]]:
    """Total variant: returns (schema, ()) or (None, diagnostics)."""
    try:
        return shexc.parse_shexc(text), ()
    except shexc.ShexcParseError as exc:
        return None, exc.diagnostics


_WELL_KNOWN_NAMESPACES = frozenset(WELL_KNOWN_PREFIXES.values())


def reference_candidate_namespaces(iri: Iri) -> list[str]:
    # Longest declared namespace that both matches and leaves a clean local part.
    matches = []
    for namespace in _WELL_KNOWN_NAMESPACES:
        if iri.value.startswith(namespace) and _LOCAL_PART_RE.match(iri.value[len(namespace):] or "-"):
            matches.append(namespace)
    return [max(matches, key=len)] if matches else []


def reference_compact_iri(iri: Iri, prefixes) -> str:
    """``model.compact_iri``, the serializer's IRI compactor before it
    compacted through ``compact_well_known``, verbatim."""
    best: tuple[str, str] | None = None
    for prefix, namespace in prefixes.items():
        if iri.value.startswith(namespace):
            local = iri.value[len(namespace):]
            if _LOCAL_PART_RE.match(local) and (best is None or len(namespace) > len(prefixes[best[0]])):
                best = (prefix, local)
    if best is None:
        return f"<{iri.value}>"
    return f"{best[0]}:{best[1]}"


def _reference_render_value(value, prefixes) -> str:
    if isinstance(value, Iri):
        return reference_compact_iri(value, prefixes)
    escaped = value.lexical.translate(_LITERAL_ESCAPES)
    text = f'"{escaped}"'
    if value.language is not None:
        return f"{text}@{value.language}"
    if value.datatype is not None:
        return f"{text}^^{reference_compact_iri(value.datatype, prefixes)}"
    return text


def _reference_render_node(nc, prefixes) -> str:
    if isinstance(nc, NodeKindIri):
        return "IRI"
    if isinstance(nc, DatatypeConstraint):
        return reference_compact_iri(nc.datatype, prefixes)
    if isinstance(nc, ValueSet):
        return "[ " + " ".join(_reference_render_value(v, prefixes) for v in nc.values) + " ]"
    if isinstance(nc, ShapeRef):
        return f"@<{nc.label}>"
    raise TypeError(f"not a node constraint: {nc!r}")


def _reference_prefix_map(canon: Schema) -> dict[str, str]:
    """The prefix map ``canonicalize`` built when a schema carried one: the
    well-known prefix that compacts the focus class or any IRI the writer
    prints, in name order."""
    iris = [canon.focus_class] if canon.focus_class is not None else []
    for shape in canon.shapes.values():
        iris += shape.extra_predicates
        for constraint in shape.constraints:
            iris.append(constraint.predicate)
            nc = constraint.node_constraint
            if isinstance(nc, DatatypeConstraint):
                iris.append(nc.datatype)
            elif isinstance(nc, ValueSet):
                iris += [value if isinstance(value, Iri) else value.datatype for value in nc.values
                         if isinstance(value, Iri) or value.datatype is not None]
    compacted = (reference_compact_iri(iri, WELL_KNOWN_PREFIXES) for iri in iris)
    used = {text.partition(":")[0] for text in compacted if not text.startswith("<")}
    return {prefix: WELL_KNOWN_PREFIXES[prefix] for prefix in sorted(used)}


def reference_serialize_shexc(schema: Schema) -> str:
    """``shexc.serialize_shexc`` as it was when it compacted each IRI over the
    canonical form's own prefix map, verbatim: the oracle for the writer."""
    canon = canonicalize(schema)
    for shape in canon.shapes.values():
        if not shape.constraints:
            raise ValueError(f"cannot serialize shape <{shape.label}> with no constraints")
    prefixes = _reference_prefix_map(canon)
    lines = [f"PREFIX {prefix}: <{namespace}>" for prefix, namespace in prefixes.items()]
    if lines:
        lines.append("")
    for shape in canon.shapes.values():
        head = f"<{shape.label}>"
        if shape.extra_predicates:
            head += " EXTRA " + " ".join(reference_compact_iri(p, prefixes) for p in shape.extra_predicates)
        lines.append(head + " {")
        last = len(shape.constraints) - 1
        for index, constraint in enumerate(shape.constraints):
            parts = [reference_compact_iri(constraint.predicate, prefixes),
                     _reference_render_node(constraint.node_constraint, prefixes)]
            token = constraint.cardinality.token()
            if token:
                parts.append(token)
            lines.append("  " + " ".join(parts) + (" ;" if index < last else ""))
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


def read_feature_csv(path) -> list[tuple[FeatureVector, CardinalityLabel]]:
    """The rows :func:`shexbench.cardml.write_feature_csv` wrote to ``path``."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            values = {name: float(record[name]) for name in FEATURE_NAMES}
            values["max_observed_count"] = int(values["max_observed_count"])
            values["has_value_type_constraint"] = bool(values["has_value_type_constraint"])
            features = FeatureVector(**values)
            label = CardinalityLabel(int(record["min_class"]), MaxBound(record["max_class"]))
            rows.append((features, label))
    return rows


# The pydantic models the structured replies were checked with before the
# package checked them itself; ``model_validate_json(text, strict=True)`` is
# the oracle for ``StructuredCardinality.from_json`` and
# ``StructuredNodeConstraint.from_json``.

class ReferenceStructuredCardinality(BaseModel):
    """Step-one output: include the predicate, and with which bounds.

    ``max`` accepts -1 or null for unbounded; bounds are ignored when
    ``include`` is false.
    """

    model_config = ConfigDict(extra="forbid")

    include: bool
    min: int = Field(default=0, ge=0)
    max: int | None = None

    @field_validator("max", mode="before")
    @classmethod
    def _minus_one_is_unbounded(cls, value):
        if value == -1:
            return None
        return value

    @model_validator(mode="after")
    def _check_bounds(self):
        if self.include and self.max is not None and self.max < self.min:
            raise ValueError(f"max {self.max} < min {self.min}")
        return self

    def to_cardinality(self) -> Cardinality:
        return Cardinality(self.min, self.max)


class ReferenceStructuredNodeConstraint(BaseModel):
    """Step-two output: at most one variant; empty means the IRI node kind."""

    model_config = ConfigDict(extra="forbid")

    datatype: str | None = None
    referenced_classes: list[str] | None = Field(default=None, min_length=1)
    value_list: list[str] | None = Field(default=None, min_length=1)
    node_kind: TypingLiteral["iri"] | None = None

    @model_validator(mode="after")
    def _exactly_one_variant(self):
        populated = [
            name for name, value in (
                ("datatype", self.datatype),
                ("referenced_classes", self.referenced_classes),
                ("value_list", self.value_list),
                ("node_kind", self.node_kind),
            ) if value is not None
        ]
        if len(populated) > 1:
            raise ValueError(f"node constraint variants are mutually exclusive, got {populated}")
        if not populated:
            self.node_kind = "iri"
        return self


def reference_reply_values(reference: type[BaseModel], text: str) -> tuple | None:
    """The field values ``reference`` gives the reply ``text`` in strict
    mode, lists as tuples; None when it rejects the reply."""
    try:
        value = reference.model_validate_json(text, strict=True)
    except ValidationError:
        return None
    return tuple(tuple(v) if isinstance(v, list) else v for v in value.model_dump().values())
