"""Constraint-level classification metrics under relaxable matching criteria.

Two constraints match only if their predicates agree; node constraints compare
exactly, up to subclass relations between their value classes, or up to coarse
datatype category; cardinalities compare exactly or by interval containment.
Per-schema precision/recall/F1 come from predicate-keyed pairing of the start
shapes, and the error breakdown buckets every ground-truth constraint into
correct / missing predicate / wrong cardinality / wrong node constraint /
both wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Protocol

from .errors import EmptyDatasetError
from .model import (
    DEFAULT_DATATYPE_CATEGORIES,
    DEFAULT_TYPING_PREDICATES,
    Cardinality,
    DatatypeCategory,
    Iri,
    NodeConstraint,
    Schema,
    ShapeRef,
    TripleConstraint,
    UnmappedDatatypeError,
    ValueSet,
    canonicalize,
    classes_of,
    datatype_category,
)


class OracleUnavailableError(RuntimeError):
    """Subclass-mode matching was requested without a subclass oracle."""


class NodeMode(Enum):
    EXACT = "exact"
    SUBCLASS = "subclass"
    DATATYPE = "datatype"


class CardinalityMode(Enum):
    EXACT = "exact"
    LOOSENED = "loosened"


@dataclass(frozen=True)
class MatchCriteria:
    node_mode: NodeMode = NodeMode.EXACT
    cardinality_mode: CardinalityMode = CardinalityMode.EXACT

    def key(self) -> str:
        return f"node={self.node_mode.value},card={self.cardinality_mode.value}"

    @classmethod
    def parse(cls, text: str) -> "MatchCriteria":
        node, card = NodeMode.EXACT, CardinalityMode.EXACT
        for part in text.split(","):
            name, _, value = part.strip().partition("=")
            if name == "node":
                node = NodeMode(value)
            elif name == "card":
                card = CardinalityMode(value)
            else:
                raise ValueError(f"bad criteria component {part!r}")
        return cls(node, card)


#: The six criteria combinations reported by the benchmark.
ALL_CRITERIA: tuple[MatchCriteria, ...] = tuple(
    MatchCriteria(node, card) for node in NodeMode for card in CardinalityMode
)


class SubclassOracle(Protocol):
    """Reflexive-transitive subclass answers plus per-predicate value types."""

    def is_subclass_of(self, c: Iri, c_prime: Iri) -> bool: ...

    def value_type_classes(self, predicate: Iri) -> frozenset[Iri]: ...


class StaticSubclassOracle:
    """Oracle backed by explicit edges; with no edges it is reflexive-only."""

    def __init__(
        self,
        subclass_edges: Mapping[Iri, Iterable[Iri]] | None = None,
        value_types: Mapping[Iri, Iterable[Iri]] | None = None,
    ):
        self._parents = {child: frozenset(parents) for child, parents in (subclass_edges or {}).items()}
        self._value_types = {pred: frozenset(classes) for pred, classes in (value_types or {}).items()}
        self._closure: dict[Iri, frozenset[Iri]] = {}

    def _ancestors(self, c: Iri) -> frozenset[Iri]:
        cached = self._closure.get(c)
        if cached is not None:
            return cached
        seen: set[Iri] = {c}
        stack = [c]
        while stack:
            for parent in self._parents.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        result = frozenset(seen)
        self._closure[c] = result
        return result

    def is_subclass_of(self, c: Iri, c_prime: Iri) -> bool:
        return c_prime in self._ancestors(c)

    def value_type_classes(self, predicate: Iri) -> frozenset[Iri]:
        return self._value_types.get(predicate, frozenset())


@dataclass(frozen=True)
class ErrorBreakdown:
    """Counts over ground-truth constraints; always sums to their number."""

    correct: int = 0
    missing_predicate: int = 0
    wrong_cardinality: int = 0
    wrong_node_constraint: int = 0
    both_wrong: int = 0

    @property
    def total(self) -> int:
        return (self.correct + self.missing_predicate + self.wrong_cardinality
                + self.wrong_node_constraint + self.both_wrong)

    def __add__(self, other: "ErrorBreakdown") -> "ErrorBreakdown":
        return ErrorBreakdown(
            self.correct + other.correct,
            self.missing_predicate + other.missing_predicate,
            self.wrong_cardinality + other.wrong_cardinality,
            self.wrong_node_constraint + other.wrong_node_constraint,
            self.both_wrong + other.both_wrong,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "correct": self.correct,
            "missing_predicate": self.missing_predicate,
            "wrong_cardinality": self.wrong_cardinality,
            "wrong_node_constraint": self.wrong_node_constraint,
            "both_wrong": self.both_wrong,
        }


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    matched_count: int
    error_breakdown: ErrorBreakdown = field(default_factory=ErrorBreakdown)

    def __post_init__(self) -> None:
        for value in (self.precision, self.recall, self.f1):
            if not 0.0 <= value <= 1.0 + 1e-9:
                raise ValueError(f"metric outside [0,1]: {value}")


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def cardinality_loosened(gt: Cardinality, gen: Cardinality) -> bool:
    """True when the generated interval contains the ground-truth interval."""
    if gen.min > gt.min:
        return False
    if gen.max is None:
        return True
    return gt.max is not None and gt.max <= gen.max


def _nodes_exact(
    gt_nc: NodeConstraint,
    gen_nc: NodeConstraint,
    gt_schema: Schema,
    gen_schema: Schema,
    typing_predicates: tuple[Iri, ...],
) -> bool:
    if isinstance(gt_nc, ShapeRef) and isinstance(gen_nc, ShapeRef):
        # Labels are arbitrary; references agree when they pin the same classes.
        return classes_of(gt_nc, gt_schema, typing_predicates) == classes_of(gen_nc, gen_schema, typing_predicates)
    if type(gt_nc) is not type(gen_nc):
        return False
    if isinstance(gt_nc, ValueSet) and isinstance(gen_nc, ValueSet):
        return set(gt_nc.values) == set(gen_nc.values)
    return gt_nc == gen_nc


def constraint_matches(
    gt: TripleConstraint,
    gen: TripleConstraint,
    criteria: MatchCriteria,
    oracle: SubclassOracle | None = None,
    gt_schema: Schema | None = None,
    gen_schema: Schema | None = None,
    *,
    datatype_mapping: Mapping[Iri, DatatypeCategory] = DEFAULT_DATATYPE_CATEGORIES,
    typing_predicates: tuple[Iri, ...] = DEFAULT_TYPING_PREDICATES,
) -> bool:
    """Decide whether a generated constraint satisfies a ground-truth one."""
    if gt.predicate != gen.predicate:
        return False
    if gt_schema is None or gen_schema is None:
        raise ValueError("both schemas are required to resolve shape references")

    node_mode = criteria.node_mode
    if node_mode is NodeMode.SUBCLASS:
        if oracle is None:
            raise OracleUnavailableError("subclass matching requires a subclass oracle")
        gt_classes = classes_of(gt.node_constraint, gt_schema, typing_predicates)
        gen_classes = classes_of(gen.node_constraint, gen_schema, typing_predicates)
        if gt_classes and gen_classes:
            node_ok = any(
                oracle.is_subclass_of(c, c_prime) for c in gt_classes for c_prime in gen_classes
            ) or any(
                oracle.is_subclass_of(c, c_prime)
                for c in oracle.value_type_classes(gt.predicate)
                for c_prime in gen_classes
            )
        else:
            node_ok = _nodes_exact(gt.node_constraint, gen.node_constraint, gt_schema, gen_schema, typing_predicates)
    elif node_mode is NodeMode.DATATYPE:
        try:
            node_ok = datatype_category(gt.node_constraint, datatype_mapping) == datatype_category(
                gen.node_constraint, datatype_mapping
            )
        except UnmappedDatatypeError:
            node_ok = _nodes_exact(gt.node_constraint, gen.node_constraint, gt_schema, gen_schema, typing_predicates)
    else:
        node_ok = _nodes_exact(gt.node_constraint, gen.node_constraint, gt_schema, gen_schema, typing_predicates)
    if not node_ok:
        return False

    if criteria.cardinality_mode is CardinalityMode.LOOSENED:
        return cardinality_loosened(gt.cardinality, gen.cardinality)
    return gt.cardinality == gen.cardinality


def evaluate_criteria(
    gen: Schema,
    gt: Schema,
    criteria: Iterable[MatchCriteria] = ALL_CRITERIA,
    oracle: SubclassOracle | None = None,
    *,
    datatype_mapping: Mapping[Iri, DatatypeCategory] = DEFAULT_DATATYPE_CATEGORIES,
    typing_predicates: tuple[Iri, ...] = DEFAULT_TYPING_PREDICATES,
) -> dict[MatchCriteria, EvalReport]:
    """Precision/recall/F1 of a generated schema's start shape against ground
    truth, under each of ``criteria``.

    Both schemas are canonicalized and their constraints paired once; every
    criterion is scored on that one pairing.  The distinct-predicate
    invariant makes predicate-keyed pairing unambiguous and P/R share one
    matched count: precision divides by the generated constraint count,
    recall by the ground-truth count.  An empty generated shape scores zero
    rather than undefined.  The error breakdown does not depend on the
    criterion, so every report carries the same one.
    """
    gen_canon = canonicalize(gen, typing_predicates)
    gt_canon = canonicalize(gt, typing_predicates)
    gen_count = len(gen_canon.start_shape.constraints)
    pairs = _paired_constraints(gen_canon, gt_canon)
    breakdown = _breakdown(pairs, gen_canon, gt_canon, typing_predicates)
    reports = {}
    for criterion in criteria:
        matched = sum(
            candidate is not None and constraint_matches(
                gt_constraint, candidate, criterion, oracle, gt_canon, gen_canon,
                datatype_mapping=datatype_mapping, typing_predicates=typing_predicates,
            )
            for gt_constraint, candidate in pairs
        )
        precision = matched / gen_count if gen_count else 0.0
        recall = matched / len(pairs) if pairs else 0.0
        reports[criterion] = EvalReport(
            precision=precision,
            recall=recall,
            f1=f1_score(precision, recall),
            matched_count=matched,
            error_breakdown=breakdown,
        )
    return reports


def evaluate_pair(
    gen: Schema,
    gt: Schema,
    criteria: MatchCriteria = MatchCriteria(),
    oracle: SubclassOracle | None = None,
    *,
    datatype_mapping: Mapping[Iri, DatatypeCategory] = DEFAULT_DATATYPE_CATEGORIES,
    typing_predicates: tuple[Iri, ...] = DEFAULT_TYPING_PREDICATES,
) -> EvalReport:
    """:func:`evaluate_criteria` under one criterion."""
    return evaluate_criteria(
        gen, gt, (criteria,), oracle, datatype_mapping=datatype_mapping, typing_predicates=typing_predicates,
    )[criteria]


def categorize_errors(
    gen: Schema,
    gt: Schema,
    *,
    typing_predicates: tuple[Iri, ...] = DEFAULT_TYPING_PREDICATES,
) -> ErrorBreakdown:
    """Bucket each ground-truth constraint by how the generated schema treats it.

    Comparison is exact on both node constraint and cardinality; a predicate
    absent from the generated start shape counts as missing.
    """
    exact = MatchCriteria()
    return evaluate_criteria(gen, gt, (exact,), typing_predicates=typing_predicates)[exact].error_breakdown


def _paired_constraints(gen_canon: Schema, gt_canon: Schema) -> list[tuple[TripleConstraint, TripleConstraint | None]]:
    """Each ground-truth start constraint with the generated one of its predicate, if any."""
    gen_by_predicate = {c.predicate: c for c in gen_canon.start_shape.constraints}
    return [(c, gen_by_predicate.get(c.predicate)) for c in gt_canon.start_shape.constraints]


def _breakdown(pairs, gen_canon: Schema, gt_canon: Schema, typing_predicates: tuple[Iri, ...]) -> ErrorBreakdown:
    correct = missing = wrong_card = wrong_node = both = 0
    for gt_constraint, candidate in pairs:
        if candidate is None:
            missing += 1
            continue
        node_ok = _nodes_exact(
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
    return ErrorBreakdown(correct, missing, wrong_card, wrong_node, both)


def macro_average(reports: list[EvalReport]) -> tuple[float, float, float]:
    """Unweighted means of per-schema precision, recall, and F1.

    F1 is averaged directly, not recomputed from the averaged P and R.
    """
    if not reports:
        raise EmptyDatasetError("no reports to average")
    n = len(reports)
    return (
        sum(r.precision for r in reports) / n,
        sum(r.recall for r in reports) / n,
        sum(r.f1 for r in reports) / n,
    )
