"""Object model for the community-prevalent ShEx subset.

A schema targets one knowledge-graph class.  Its start shape holds triple
constraints (predicate, node constraint, cardinality); the remaining shapes
only restrict the object classes of shape-referencing predicates.  All types
are immutable after construction and validate their invariants eagerly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Union


class UnmappedDatatypeError(KeyError):
    """A datatype IRI has no entry in the active category mapping."""


class DanglingShapeRefError(ValueError):
    """A shape reference points at a label that is not defined in the schema."""


XSD_NS = "http://www.w3.org/2001/XMLSchema#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

#: Prefix table used for canonical serialization and prompt rendering.
WELL_KNOWN_PREFIXES: dict[str, str] = {
    "wd": "http://www.wikidata.org/entity/",
    "wdt": "http://www.wikidata.org/prop/direct/",
    "p": "http://www.wikidata.org/prop/",
    "ps": "http://www.wikidata.org/prop/statement/",
    "pq": "http://www.wikidata.org/prop/qualifier/",
    "xsd": XSD_NS,
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "owl": "http://www.w3.org/2002/07/owl#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "schema": "http://schema.org/",
    "yago": "http://yago-knowledge.org/resource/",
}
_WELL_KNOWN_NAMESPACES = frozenset(WELL_KNOWN_PREFIXES.values())


@dataclass(frozen=True, order=True)
class Iri:
    """An absolute IRI.  Compared and sorted by its string value."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("IRI must be non-empty")
        if re.search(r"\s", self.value):
            raise ValueError(f"IRI contains whitespace: {self.value!r}")

    def local_name(self) -> str:
        """Segment after the last '#' or '/' (the whole value as fallback)."""
        for sep in ("#", "/"):
            head, found, tail = self.value.rpartition(sep)
            if found and tail:
                return tail
        return self.value

    def __str__(self) -> str:
        return self.value


WIKIDATA_TYPING_PREDICATE = Iri("http://www.wikidata.org/prop/direct/P31")
RDF_TYPE = Iri(RDF_NS + "type")

#: Predicates that link an instance to its class, per supported KG.
DEFAULT_TYPING_PREDICATES: tuple[Iri, ...] = (WIKIDATA_TYPING_PREDICATE, RDF_TYPE)


def expand_iri(text: str, prefixes: Mapping[str, str]) -> Iri:
    """Expand a prefixed name against ``prefixes``; absolute IRIs pass through."""
    if "://" in text:
        return Iri(text)
    prefix, colon, local = text.partition(":")
    if colon and prefix in prefixes:
        return Iri(prefixes[prefix] + local)
    raise ValueError(f"cannot expand {text!r}: unknown prefix")


_LOCAL_PART_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")


def compact_iri(iri: Iri, prefixes: Mapping[str, str]) -> str:
    """Compact an IRI to prefix:local when a declared namespace matches.

    Falls back to ``<iri>`` so the result is always valid ShExC.  Compaction is
    longest-namespace-wins, which makes expand(compact(x)) == x.
    """
    best: tuple[str, str] | None = None
    for prefix, namespace in prefixes.items():
        if iri.value.startswith(namespace):
            local = iri.value[len(namespace):]
            if _LOCAL_PART_RE.match(local) and (best is None or len(namespace) > len(prefixes[best[0]])):
                best = (prefix, local)
    if best is None:
        return f"<{iri.value}>"
    return f"{best[0]}:{best[1]}"


@dataclass(frozen=True)
class Literal:
    """An RDF literal kept verbatim: lexical form plus optional datatype/language."""

    lexical: str
    datatype: Iri | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise ValueError("literal cannot carry both a datatype and a language tag")


ValueSetValue = Union[Iri, Literal]


def render_value(value: ValueSetValue, prefixes: Mapping[str, str] | None = None) -> str:
    """Render a value-set member as ShExC (expanded IRIs when no prefixes given)."""
    if isinstance(value, Iri):
        return compact_iri(value, prefixes) if prefixes is not None else f"<{value.value}>"
    escaped = value.lexical.replace("\\", "\\\\").replace('"', '\\"')
    text = f'"{escaped}"'
    if value.language is not None:
        return f"{text}@{value.language}"
    if value.datatype is not None:
        dt = compact_iri(value.datatype, prefixes) if prefixes is not None else f"<{value.datatype.value}>"
        return f"{text}^^{dt}"
    return text


def value_sort_key(value: ValueSetValue) -> tuple:
    # IRIs order before literals; within each kind the ordering is lexical.
    if isinstance(value, Iri):
        return (0, value.value, "", "")
    return (1, value.lexical, value.datatype.value if value.datatype else "", value.language or "")


@dataclass(frozen=True)
class NodeKindIri:
    """Node kind constraint: the object must be an IRI."""


@dataclass(frozen=True)
class DatatypeConstraint:
    """The object must be a literal of the given datatype."""

    datatype: Iri


@dataclass(frozen=True)
class ValueSet:
    """The object must be one of an explicit, duplicate-free list of values."""

    values: tuple[ValueSetValue, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("value set must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise ValueError("value set contains duplicates")

    def iris(self) -> tuple[Iri, ...]:
        return tuple(v for v in self.values if isinstance(v, Iri))


@dataclass(frozen=True)
class ShapeRef:
    """The object must conform to another shape in the same schema."""

    label: str

    def __post_init__(self) -> None:
        if not self.label or re.search(r"\s", self.label):
            raise ValueError(f"bad shape label: {self.label!r}")


NodeConstraint = Union[NodeKindIri, DatatypeConstraint, ValueSet, ShapeRef]


@dataclass(frozen=True)
class Cardinality:
    """Allowed occurrence range of a predicate; ``max=None`` means unbounded."""

    min: int
    max: int | None

    def __post_init__(self) -> None:
        if self.min < 0:
            raise ValueError("cardinality min must be >= 0")
        if self.max is not None and self.max < self.min:
            raise ValueError(f"cardinality max {self.max} < min {self.min}")

    @property
    def unbounded(self) -> bool:
        return self.max is None

    def token(self) -> str:
        """Shortest ShExC cardinality token ('' for the exactly-one default)."""
        pair = (self.min, self.max)
        if pair == (1, 1):
            return ""
        if pair == (0, 1):
            return "?"
        if pair == (0, None):
            return "*"
        if pair == (1, None):
            return "+"
        if self.max is None:
            return f"{{{self.min},}}"
        if self.min == self.max:
            return f"{{{self.min}}}"
        return f"{{{self.min},{self.max}}}"

    def range_label(self) -> str:
        """Uniform ``{min,max}`` rendering with '*' for unbounded (tree leaves)."""
        return f"{{{self.min},{'*' if self.max is None else self.max}}}"


EXACTLY_ONE = Cardinality(1, 1)
OPTIONAL_ONE = Cardinality(0, 1)
ZERO_OR_MORE = Cardinality(0, None)
ONE_OR_MORE = Cardinality(1, None)


@dataclass(frozen=True)
class TripleConstraint:
    predicate: Iri
    node_constraint: NodeConstraint
    cardinality: Cardinality = EXACTLY_ONE


@dataclass(frozen=True)
class Shape:
    """A labeled constraint set; predicates within one shape are distinct."""

    label: str
    constraints: tuple[TripleConstraint, ...]
    extra_predicates: tuple[Iri, ...] = ()

    def __post_init__(self) -> None:
        if not self.label or re.search(r"\s", self.label):
            raise ValueError(f"bad shape label: {self.label!r}")
        seen: set[Iri] = set()
        for constraint in self.constraints:
            if constraint.predicate in seen:
                raise ValueError(f"duplicate predicate in shape <{self.label}>: {constraint.predicate}")
            seen.add(constraint.predicate)

    def predicates(self) -> tuple[Iri, ...]:
        return tuple(c.predicate for c in self.constraints)


@dataclass(frozen=True)
class Schema:
    """A prefix map, a start shape, and the referenced shapes it closes over."""

    prefixes: dict[str, str]
    start_label: str
    shapes: dict[str, Shape]
    focus_class: Iri | None = None

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ValueError("schema must declare at least one shape")
        if self.start_label not in self.shapes:
            raise ValueError(f"start shape <{self.start_label}> is not declared")
        for label, shape in self.shapes.items():
            if label != shape.label:
                raise ValueError(f"shape map key {label!r} != shape label {shape.label!r}")
        for shape in self.shapes.values():
            for constraint in shape.constraints:
                nc = constraint.node_constraint
                if isinstance(nc, ShapeRef) and nc.label not in self.shapes:
                    raise DanglingShapeRefError(f"shape reference @<{nc.label}> is undefined")

    @property
    def start_shape(self) -> Shape:
        return self.shapes[self.start_label]


class DatatypeCategory(Enum):
    """Coarse datatype buckets used for relaxed node-constraint comparison."""

    DATETIME = "datetime"
    DECIMAL = "decimal"
    STRING = "string"
    IRI_CAT = "iri"


#: Category table for the benchmark datatypes; extensible via the ``mapping``
#: argument of :func:`datatype_category`.
DEFAULT_DATATYPE_CATEGORIES: dict[Iri, DatatypeCategory] = {
    Iri(XSD_NS + "dateTime"): DatatypeCategory.DATETIME,
    Iri(XSD_NS + "date"): DatatypeCategory.DATETIME,
    Iri(XSD_NS + "gYear"): DatatypeCategory.DATETIME,
    Iri(XSD_NS + "decimal"): DatatypeCategory.DECIMAL,
    Iri(XSD_NS + "integer"): DatatypeCategory.DECIMAL,
    Iri(XSD_NS + "double"): DatatypeCategory.DECIMAL,
    Iri(XSD_NS + "string"): DatatypeCategory.STRING,
    Iri(RDF_NS + "langString"): DatatypeCategory.STRING,
}


def datatype_category(
    nc: NodeConstraint,
    mapping: Mapping[Iri, DatatypeCategory] = DEFAULT_DATATYPE_CATEGORIES,
) -> DatatypeCategory:
    """Coarse category of a node constraint's admissible objects.

    IRI-valued constraints (node kind, shape references, all-IRI value sets)
    bucket as IRI; datatype constraints and literal value sets go through the
    mapping table.  Raises :class:`UnmappedDatatypeError` for datatypes outside
    the table and for value sets that mix categories.
    """
    if isinstance(nc, (NodeKindIri, ShapeRef)):
        return DatatypeCategory.IRI_CAT
    if isinstance(nc, DatatypeConstraint):
        return _lookup_datatype(nc.datatype, mapping)
    if isinstance(nc, ValueSet):
        categories = set()
        for value in nc.values:
            if isinstance(value, Iri):
                categories.add(DatatypeCategory.IRI_CAT)
            elif value.datatype is None:
                # Plain and language-tagged literals are string-valued.
                categories.add(DatatypeCategory.STRING)
            else:
                categories.add(_lookup_datatype(value.datatype, mapping))
        if len(categories) != 1:
            raise UnmappedDatatypeError(f"value set spans multiple datatype categories: {sorted(c.value for c in categories)}")
        return categories.pop()
    raise TypeError(f"not a node constraint: {nc!r}")


def _lookup_datatype(datatype: Iri, mapping: Mapping[Iri, DatatypeCategory]) -> DatatypeCategory:
    try:
        return mapping[datatype]
    except KeyError:
        raise UnmappedDatatypeError(f"datatype not in category mapping: {datatype}") from None


def classes_of(
    nc: NodeConstraint,
    schema: Schema,
    typing_predicates: Iterable[Iri] = DEFAULT_TYPING_PREDICATES,
) -> frozenset[Iri]:
    """Class IRIs a node constraint requires its objects to belong to.

    Value sets contribute their IRI members directly; a shape reference
    contributes the value set attached to the referenced shape's typing
    predicate.  Node-kind and datatype constraints name no classes.
    """
    if isinstance(nc, ValueSet):
        return frozenset(nc.iris())
    if isinstance(nc, ShapeRef):
        shape = schema.shapes.get(nc.label)
        if shape is None:
            raise DanglingShapeRefError(f"shape reference @<{nc.label}> is undefined")
        typing = set(typing_predicates)
        for constraint in shape.constraints:
            if constraint.predicate in typing and isinstance(constraint.node_constraint, ValueSet):
                return frozenset(constraint.node_constraint.iris())
        return frozenset()
    return frozenset()


_LABEL_SAFE_RE = re.compile(r"[^A-Za-z0-9_.\-]")


def canonical_shape_label(classes: Iterable[Iri]) -> str:
    """Deterministic shape label for a set of typing classes."""
    parts = sorted(_LABEL_SAFE_RE.sub("_", c.local_name()) for c in classes)
    return "_".join(parts) if parts else "Shape"


def _shape_typing_classes(shape: Shape, typing_predicates: Iterable[Iri]) -> frozenset[Iri]:
    typing = set(typing_predicates)
    for constraint in shape.constraints:
        if constraint.predicate in typing and isinstance(constraint.node_constraint, ValueSet):
            return frozenset(constraint.node_constraint.iris())
    return frozenset()


def infer_focus_class(schema: Schema, typing_predicates: Iterable[Iri] = DEFAULT_TYPING_PREDICATES) -> Iri | None:
    """First typing class of the start shape, if one is declared."""
    classes = _shape_typing_classes(schema.start_shape, typing_predicates)
    return min(classes) if classes else None


def _used_namespaces(schema: Schema) -> set[str]:
    iris: list[Iri] = []
    if schema.focus_class is not None:
        iris.append(schema.focus_class)
    for shape in schema.shapes.values():
        iris.extend(shape.extra_predicates)
        for constraint in shape.constraints:
            iris.append(constraint.predicate)
            nc = constraint.node_constraint
            if isinstance(nc, DatatypeConstraint):
                iris.append(nc.datatype)
            elif isinstance(nc, ValueSet):
                for value in nc.values:
                    if isinstance(value, Iri):
                        iris.append(value)
                    elif value.datatype is not None:
                        iris.append(value.datatype)
    used: set[str] = set()
    for iri in iris:
        for namespace in _candidate_namespaces(iri):
            used.add(namespace)
    return used


def _candidate_namespaces(iri: Iri) -> list[str]:
    # Longest declared namespace that both matches and leaves a clean local part.
    matches = []
    for namespace in _WELL_KNOWN_NAMESPACES:
        if iri.value.startswith(namespace) and _LOCAL_PART_RE.match(iri.value[len(namespace):] or "-"):
            matches.append(namespace)
    return [max(matches, key=len)] if matches else []


def canonicalize(
    schema: Schema,
    typing_predicates: Iterable[Iri] = DEFAULT_TYPING_PREDICATES,
) -> Schema:
    """Rewrite a schema into its canonical, order-independent form.

    Shape labels become a pure function of each shape's typing class set,
    constraints sort by predicate, value sets sort by value, the prefix map is
    rebuilt from the well-known table restricted to used namespaces, and the
    start shape is listed first.  Idempotent.
    """
    typing = tuple(typing_predicates)

    # New label per old label; collisions disambiguated deterministically.
    proposals: dict[str, str] = {}
    for old_label in sorted(schema.shapes):
        classes = _shape_typing_classes(schema.shapes[old_label], typing)
        proposals[old_label] = canonical_shape_label(classes) if classes else old_label
    relabel: dict[str, str] = {}
    assigned: set[str] = set()
    for old_label in sorted(proposals, key=lambda lbl: (proposals[lbl], lbl)):
        base = proposals[old_label]
        candidate, suffix = base, 2
        while candidate in assigned:
            candidate = f"{base}_{suffix}"
            suffix += 1
        relabel[old_label] = candidate
        assigned.add(candidate)

    def rewrite_constraint(constraint: TripleConstraint) -> TripleConstraint:
        nc = constraint.node_constraint
        if isinstance(nc, ShapeRef):
            nc = ShapeRef(relabel[nc.label])
        elif isinstance(nc, ValueSet):
            nc = ValueSet(tuple(sorted(nc.values, key=value_sort_key)))
        return replace(constraint, node_constraint=nc)

    new_shapes: dict[str, Shape] = {}
    for old_label, shape in schema.shapes.items():
        constraints = tuple(sorted((rewrite_constraint(c) for c in shape.constraints), key=lambda c: c.predicate))
        extra = tuple(sorted(set(shape.extra_predicates)))
        new_label = relabel[old_label]
        new_shapes[new_label] = Shape(new_label, constraints, extra)

    start = relabel[schema.start_label]
    ordered = {start: new_shapes[start]}
    for label in sorted(new_shapes):
        ordered.setdefault(label, new_shapes[label])

    focus = schema.focus_class
    canonical = Schema(prefixes={}, start_label=start, shapes=ordered, focus_class=focus)
    if focus is None:
        focus = infer_focus_class(canonical, typing)
        canonical = replace(canonical, focus_class=focus)

    used = _used_namespaces(canonical)
    prefixes = {p: ns for p, ns in sorted(WELL_KNOWN_PREFIXES.items()) if ns in used}
    return replace(canonical, prefixes=prefixes)
