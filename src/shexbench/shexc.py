"""ShExC reader/writer for the benchmark subset.

Supported surface: PREFIX declarations, an optional ``start = @<Label>``
directive (first shape otherwise), shape declarations with EXTRA, triple
constraints ``predicate nodeConstraint cardinality?`` separated by ';',
node constraints ``IRI`` / datatype IRI / ``[ v1 v2 ]`` / ``@<Label>``,
cardinalities ``? * + {m} {m,n} {m,}``, and ``#`` comments.  Everything else
is reported as a diagnostic; the parser never crashes on any input.

The reader makes one regular-expression pass over the text, which skips
blanks, line breaks and comments before each token and gives plain
``(kind, value, offset)`` tuples.  The parser indexes that list directly,
builds one :class:`Iri` per IRI text, and turns offsets into line and column
only when it reports diagnostics.  The writer escapes backslash, double
quote, line feed and carriage return in literals, as the reader unescapes
them, so every lexical form survives a file.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from .jsonout import indented_json
from .model import (
    EXACTLY_ONE,
    RDF_TYPE,
    WELL_KNOWN_PREFIXES,
    XSD_NS,
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
    canonicalize,
    compact_well_known,
    render_value,
    shape_focus_class,
    well_known_split,
)


class DiagnosticKind(Enum):
    SYNTAX = "syntax"
    UNSUPPORTED_FEATURE = "unsupported_feature"
    DUPLICATE_PREDICATE = "duplicate_predicate"
    DANGLING_REF = "dangling_ref"


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    kind: DiagnosticKind = DiagnosticKind.SYNTAX

    def __str__(self) -> str:
        return f"line {self.line} col {self.column}: {self.message}"


class ShexcParseError(ValueError):
    """Raised when a source text cannot be parsed into a schema."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "parse failed")


_UNSUPPORTED_KEYWORDS = {
    "base", "import", "closed", "and", "or", "not", "abstract", "external",
    "bnode", "literal", "nonliteral", "minlength", "maxlength", "length",
    "pattern", "mininclusive", "maxinclusive", "minexclusive", "maxexclusive",
    "totaldigits", "fractiondigits",
}

#: Unsupported directives that end with one IRI: recovery resumes after it,
#: so the IRI is not read as a shape label.
_IRI_DIRECTIVES = {"base", "import"}

_TOKEN_SPEC = [
    ("IRIREF", r"<[^<>\"{}|^`\\\s]*>"),
    ("DTCARET", r"\^\^"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"'),
    ("PNAME", r"[A-Za-z][A-Za-z0-9_.\-]*:[A-Za-z0-9_.\-]*|:[A-Za-z0-9_.\-]+"),
    ("NUMBER", r"[+-]?\d+(?:\.\d+)?"),
    ("LANGTAG", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("AT", r"@"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_\-]*"),
    ("PUNCT", r"[{}\[\];=,?*+()./|~!$&%-]"),
    # any other character but blanks and '#', reported as unexpected
    ("ERR", r"[^ \t\r\f\n#]"),
    # the end of the text, after the last blanks and comments
    ("END", r"\Z"),
]
#: Blanks, line breaks and whole comments before a token.  A comment runs to
#: the line break or the end of the text, so a failed match cannot backtrack
#: into one and read its tail as a token; no token starts with a blank or '#'.
_SKIP = r"[ \t\r\f\n]*(?:#[^\n]*(?![^\n])[ \t\r\f\n]*)*"
#: What is skipped, then one token, one unexpected character or the end.
_MASTER_RE = re.compile(_SKIP + "(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC) + ")")
#: Token kind by group number: no token pattern has a group of its own.
_KINDS = (None, *(name for name, _ in _TOKEN_SPEC))
_ERR_GROUP, _END_GROUP = _KINDS.index("ERR"), _KINDS.index("END")

#: A token: kind, text and the offset of its first character.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> tuple[list[_Token], list[tuple[int, str, DiagnosticKind]]]:
    """The tokens of ``text``, then two EOF tokens at its end (so that one
    token of lookahead never runs off the list), and an ``(offset, message,
    kind)`` diagnostic per unexpected character."""
    tokens: list[_Token] = []
    errors: list[tuple[int, str, DiagnosticKind]] = []
    kinds = _KINDS
    # every match starts where the previous one ended, until the one at the end
    for match in _MASTER_RE.finditer(text):
        group = match.lastindex
        if group < _ERR_GROUP:
            tokens.append((kinds[group], match[group], match.start(group)))
        elif group == _END_GROUP:
            break
        else:
            errors.append((match.start(group), f"unexpected character {match[group]!r}", DiagnosticKind.SYNTAX))
    end = ("EOF", "", len(text))
    tokens += (end, end)
    return tokens, errors


def _line_starts(text: str) -> list[int]:
    """Offset of the first character of each line of ``text``."""
    return [0, *(match.end() for match in re.finditer("\n", text))]


def _line_col(line_starts: list[int], offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` given :func:`_line_starts`."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


_XSD_INTEGER = Iri(XSD_NS + "integer")
_XSD_DECIMAL = Iri(XSD_NS + "decimal")
_XSD_BOOLEAN = Iri(XSD_NS + "boolean")
_CARDINALITY_TOKENS = {"?": Cardinality(0, 1), "*": Cardinality(0, None), "+": Cardinality(1, None)}
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.diagnostics = _tokenize(text)
        self.pos = 0
        # the PREFIX declarations read so far; they only expand names
        self.prefixes: dict[str, str] = {}
        self.iris: dict[str, Iri] = {}

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token[0] != "EOF":
            self.pos += 1
        return token

    def error(self, token: _Token, message: str, kind: DiagnosticKind = DiagnosticKind.SYNTAX) -> None:
        self.diagnostics.append((token[2], message, kind))

    def skip_until(self, *stop_values: str, at_iri: bool = False) -> None:
        """Skip to the end, to a token whose value is in ``stop_values`` or,
        with ``at_iri``, to an IRI token (whose value is the whole ``<...>``)."""
        tokens = self.tokens
        while True:
            kind, value, _ = tokens[self.pos]
            if kind == "EOF" or value in stop_values or (at_iri and kind == "IRIREF"):
                return
            self.pos += 1

    def skip_to_shape_body(self) -> None:
        """Skip to the end, to the next ``{``, or to the next shape declaration
        (an IRI followed by ``{``), so that a shape whose ``{`` is missing
        gives one diagnostic and the next shape is read as its own."""
        tokens = self.tokens
        while True:
            kind, value, _ = tokens[self.pos]
            if kind == "EOF" or value == "{" or (kind == "IRIREF" and tokens[self.pos + 1][1] == "{"):
                return
            self.pos += 1

    def positioned(self) -> list[ParseDiagnostic]:
        """The diagnostics so far, with line and column from one newline index."""
        starts = _line_starts(self.text)
        return [ParseDiagnostic(*_line_col(starts, offset), message, kind)
                for offset, message, kind in self.diagnostics]

    # -- grammar -----------------------------------------------------------

    def parse(self, focus_class: Iri | None = None) -> Schema:
        tokens = self.tokens
        start_ref: str | None = None
        shape_order: list[str] = []
        shapes: dict[str, Shape] = {}
        ref_sites: list[tuple[str, _Token]] = []

        while True:
            token = tokens[self.pos]
            kind = token[0]
            if kind == "EOF":
                break
            word = token[1].lower() if kind == "IDENT" else ""
            if word == "prefix":
                self.pos += 1
                self._parse_prefix_decl(token)
            elif word == "start":
                self.pos += 1
                start_ref = self._parse_start_directive()
            elif word in _UNSUPPORTED_KEYWORDS:
                self.pos += 1
                self.error(token, f"'{token[1]}' is outside the supported ShEx subset",
                           DiagnosticKind.UNSUPPORTED_FEATURE)
                if word in _IRI_DIRECTIVES and tokens[self.pos][0] == "IRIREF":
                    self.pos += 1
                else:
                    self.skip_until("{", at_iri=True)
            elif kind == "IRIREF":
                parsed = self._parse_shape_decl(ref_sites)
                if parsed is not None:
                    label, shape = parsed
                    if label in shapes:
                        self.error(token, f"shape <{label}> is declared twice")
                    else:
                        shapes[label] = shape
                        shape_order.append(label)
            else:
                self.error(token, f"expected a directive or shape declaration, found {token[1]!r}")
                self.pos += 1

        if not shapes:
            self.error(tokens[self.pos], "no shape declarations found")
        if start_ref is not None and start_ref not in shapes and shapes:
            self.error(tokens[0], f"start shape <{start_ref}> is not declared", DiagnosticKind.DANGLING_REF)
            start_ref = None
        for label, site in ref_sites:
            if label not in shapes:
                self.error(site, f"shape reference @<{label}> is undefined", DiagnosticKind.DANGLING_REF)

        if self.diagnostics:
            raise ShexcParseError(self.positioned())

        start = start_ref or shape_order[0]
        if focus_class is None:
            focus_class = shape_focus_class(shapes[start])
        return Schema(start, shapes, focus_class)

    def _parse_prefix_decl(self, at: _Token) -> None:
        name = self.tokens[self.pos]
        named = name[0] == "PNAME" and name[1].endswith(":")
        if not named:
            self.error(name if name[0] != "EOF" else at, "expected 'prefix:' after PREFIX")
            self.skip_until(at_iri=True)
        else:
            self.pos += 1
        iri = self.tokens[self.pos]
        if iri[0] != "IRIREF":
            self.error(iri if iri[0] != "EOF" else at, "expected <iri> in PREFIX declaration")
            return
        self.pos += 1
        if named:
            self.prefixes[name[1][:-1]] = iri[1][1:-1]

    def _parse_start_directive(self) -> str | None:
        tokens = self.tokens
        if tokens[self.pos][1] != "=":
            self.error(tokens[self.pos], "expected '=' after start")
            return None
        self.pos += 1
        if tokens[self.pos][0] != "AT" or tokens[self.pos + 1][0] != "IRIREF":
            self.error(tokens[self.pos], "expected @<Label> after start =")
            return None
        self.pos += 2
        return tokens[self.pos - 1][1][1:-1]

    def _parse_shape_decl(self, ref_sites: list[tuple[str, _Token]]) -> tuple[str, Shape] | None:
        tokens = self.tokens
        decl = tokens[self.pos]
        self.pos += 1
        label = decl[1][1:-1]
        if not label:
            self.error(decl, "empty shape label")
            label = "_"

        extra: list[Iri] = []
        while True:
            token = tokens[self.pos]
            word = token[1].lower() if token[0] == "IDENT" else ""
            if word == "extra":
                self.pos += 1
                while True:
                    token = tokens[self.pos]
                    if not (token[0] in ("PNAME", "IRIREF") or (token[0] == "IDENT" and token[1] == "a")):
                        break
                    self.pos += 1
                    predicate = self._parse_iri(token)
                    if predicate is not None:
                        extra.append(predicate)
            elif word in _UNSUPPORTED_KEYWORDS:
                self.pos += 1
                self.error(token, f"'{token[1]}' is outside the supported ShEx subset",
                           DiagnosticKind.UNSUPPORTED_FEATURE)
            else:
                break

        if tokens[self.pos][1] != "{":
            self.error(tokens[self.pos], "expected '{' to open the shape body")
            self.skip_to_shape_body()
            if tokens[self.pos][1] != "{":
                return None
        self.pos += 1

        constraints: list[TripleConstraint] = []
        seen_predicates: set[str] = set()
        while True:
            token = tokens[self.pos]
            if token[1] == "}":
                self.pos += 1
                break
            if token[0] == "EOF":
                self.error(token, f"unexpected end of input inside shape <{label}>")
                break
            constraint = self._parse_triple_constraint(ref_sites)
            if constraint is None:
                self.skip_until(";", "}")
            elif constraint.predicate.value in seen_predicates:
                self.error(token, f"duplicate predicate {constraint.predicate} in shape <{label}>",
                           DiagnosticKind.DUPLICATE_PREDICATE)
            else:
                seen_predicates.add(constraint.predicate.value)
                constraints.append(constraint)
            token = tokens[self.pos]
            if token[1] == ";":
                self.pos += 1
            elif token[1] != "}" and token[0] != "EOF":
                self.error(token, f"expected ';' or '}}' after constraint, found {token[1]!r}")
                self.skip_until(";", "}")
                if tokens[self.pos][1] == ";":
                    self.pos += 1

        if not constraints:
            self.error(decl, f"shape <{label}> declares no constraints")
            return None
        try:
            return label, Shape(label, tuple(constraints), tuple(extra))
        except ValueError as exc:
            self.error(decl, str(exc))
            return None

    def _parse_iri(self, token: _Token) -> Iri | None:
        kind, value = token[0], token[1]
        if kind == "IRIREF":
            text = value[1:-1]
        elif kind == "PNAME":
            prefix, _, local = value.partition(":")
            namespace = self.prefixes.get(prefix)
            if namespace is None:
                self.error(token, f"undeclared prefix {prefix!r}")
                return None
            text = namespace + local
        elif kind == "IDENT" and value == "a":
            return RDF_TYPE
        else:
            self.error(token, f"expected an IRI, found {value!r}")
            return None
        iri = self.iris.get(text)
        if iri is None:
            try:
                iri = self.iris[text] = Iri(text)
            except ValueError as exc:
                self.error(token, str(exc))
                return None
        return iri

    def _parse_triple_constraint(self, ref_sites: list[tuple[str, _Token]]) -> TripleConstraint | None:
        site = self.tokens[self.pos]
        if site[0] not in ("PNAME", "IRIREF") and not (site[0] == "IDENT" and site[1] == "a"):
            self.error(site, f"expected a predicate, found {site[1]!r}")
            return None
        self.pos += 1
        predicate = self._parse_iri(site)
        if predicate is None:
            return None
        node = self._parse_node_constraint(ref_sites)
        if node is None:
            return None
        cardinality = self._parse_cardinality()
        trailing = self.tokens[self.pos]
        if trailing[0] == "IDENT" and trailing[1].lower() in _UNSUPPORTED_KEYWORDS:
            self.error(trailing, f"'{trailing[1]}' is outside the supported ShEx subset",
                       DiagnosticKind.UNSUPPORTED_FEATURE)
            return None
        return TripleConstraint(predicate, node, cardinality)

    def _parse_node_constraint(self, ref_sites: list[tuple[str, _Token]]) -> NodeConstraint | None:
        token = self.tokens[self.pos]
        kind, value = token[0], token[1]
        if kind == "PNAME" or kind == "IRIREF":
            self.pos += 1
            datatype = self._parse_iri(token)
            return DatatypeConstraint(datatype) if datatype is not None else None
        if kind == "IDENT":
            word = value.lower()
            if word == "iri":
                self.pos += 1
                return NodeKindIri()
            if word in _UNSUPPORTED_KEYWORDS:
                self.pos += 1
                self.error(token, f"node constraint '{value}' is outside the supported ShEx subset",
                           DiagnosticKind.UNSUPPORTED_FEATURE)
                return None
            self.error(token, f"expected a node constraint, found {value!r}")
            return None
        if kind == "AT":
            self.pos += 1
            target = self.tokens[self.pos]
            if target[0] == "IRIREF":
                self.pos += 1
                label = target[1][1:-1]
                if not label:
                    self.error(target, "empty shape label")
                    return None
                ref_sites.append((label, target))
                return ShapeRef(label)
            self.error(target, "expected <Label> after '@'")
            return None
        if value == "[":
            self.pos += 1
            return self._parse_value_set(token)
        if value in (".", "(", "~"):
            self.pos += 1
            self.error(token, f"node constraint {value!r} is outside the supported ShEx subset",
                       DiagnosticKind.UNSUPPORTED_FEATURE)
            return None
        self.error(token, f"expected a node constraint, found {value!r}")
        return None

    def _parse_value_set(self, opening: _Token) -> ValueSet | None:
        tokens = self.tokens
        values = []
        ok = True
        while True:
            token = tokens[self.pos]
            kind, text = token[0], token[1]
            if text == "]":
                self.pos += 1
                break
            if kind == "EOF":
                self.error(opening, "unterminated value set")
                return None
            self.pos += 1
            if kind == "PNAME" or kind == "IRIREF":
                value = self._parse_iri(token)
            elif kind == "STRING":
                value = self._parse_literal(token)
            elif kind == "NUMBER":
                value = Literal(text, _XSD_DECIMAL if "." in text else _XSD_INTEGER)
            elif kind == "IDENT" and text in ("true", "false"):
                value = Literal(text, _XSD_BOOLEAN)
            else:
                if text in ("~", "-", "."):
                    self.error(token, f"value-set operator {text!r} is outside the supported ShEx subset",
                               DiagnosticKind.UNSUPPORTED_FEATURE)
                else:
                    self.error(token, f"unexpected token {text!r} in value set")
                value = None
            if value is None:
                ok = False
            elif value in values:
                quoted = "literal" if kind == "STRING" else f"value {text}"
                self.error(token, f"duplicate {quoted} in value set")
                ok = False
            else:
                values.append(value)
        if not ok:
            return None
        if not values:
            self.error(opening, "value set must be non-empty")
            return None
        return ValueSet(tuple(values))

    def _parse_literal(self, token: _Token) -> Literal | None:
        lexical = token[1][1:-1]
        if "\\" in lexical:
            lexical = _ESCAPE_RE.sub(_unescape, lexical)
        following = self.tokens[self.pos]
        if following[0] == "LANGTAG":
            self.pos += 1
            return Literal(lexical, language=following[1][1:])
        if following[0] == "DTCARET":
            self.pos += 1
            datatype = self._parse_iri(self.advance())
            if datatype is None:
                return None
            return Literal(lexical, datatype)
        return Literal(lexical)

    def _parse_cardinality(self) -> Cardinality:
        tokens = self.tokens
        token = tokens[self.pos]
        value = token[1]
        shorthand = _CARDINALITY_TOKENS.get(value)
        if shorthand is not None:
            self.pos += 1
            return shorthand
        if value == "{" and tokens[self.pos + 1][0] == "NUMBER":
            low_tok = tokens[self.pos + 1]
            self.pos += 2
            high_tok: _Token | None = low_tok
            if tokens[self.pos][1] == ",":
                self.pos += 1
                high_tok = self.advance() if tokens[self.pos][0] == "NUMBER" else None
            if tokens[self.pos][1] == "}":
                self.pos += 1
            else:
                self.error(tokens[self.pos], "expected '}' to close cardinality")
            for bound in (low_tok, high_tok):
                if bound is not None and "." in bound[1]:
                    self.error(bound, f"cardinality bound {bound[1]} is not an integer")
                    return EXACTLY_ONE
            low = int(low_tok[1])
            high = int(high_tok[1]) if high_tok is not None else None
            if low < 0 or (high is not None and high < low):
                self.error(low_tok, f"invalid cardinality range {{{low},{high}}}")
                return EXACTLY_ONE
            return Cardinality(low, high)
        return EXACTLY_ONE


def parse_shexc(text: str, focus_class: Iri | None = None) -> Schema:
    """Parse ShExC source into a :class:`Schema`.

    Raises :class:`ShexcParseError` carrying positioned diagnostics when the
    source is not valid subset ShExC.  ``focus_class`` overrides the class
    inferred from the start shape's typing constraint.
    """
    return _Parser(text).parse(focus_class)


def _render_node(nc: NodeConstraint) -> str:
    if isinstance(nc, NodeKindIri):
        return "IRI"
    if isinstance(nc, DatatypeConstraint):
        return compact_well_known(nc.datatype)
    if isinstance(nc, ValueSet):
        return "[ " + " ".join(render_value(v, compact=True) for v in nc.values) + " ]"
    if isinstance(nc, ShapeRef):
        return f"@<{nc.label}>"
    raise TypeError(f"not a node constraint: {nc!r}")


def _used_prefixes(schema: Schema) -> dict[str, str]:
    """The well-known prefixes of every IRI the writer prints, and of the
    focus class, in name order."""
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
    splits = (well_known_split(iri.value) for iri in iris)
    used = {split[0] for split in splits if split is not None}
    return {prefix: WELL_KNOWN_PREFIXES[prefix] for prefix in sorted(used)}


def serialize_shexc(schema: Schema) -> str:
    """Deterministic ShExC rendering of the canonical form of ``schema``.

    PREFIX lines declare the well-known namespaces the rendering uses.
    Parsing the output yields a schema structurally equal to
    ``canonicalize(schema)``.  Shapes without constraints cannot be expressed
    in the subset and are rejected.
    """
    canon = canonicalize(schema)
    for shape in canon.shapes.values():
        if not shape.constraints:
            raise ValueError(f"cannot serialize shape <{shape.label}> with no constraints")
    lines = [f"PREFIX {prefix}: <{namespace}>" for prefix, namespace in _used_prefixes(canon).items()]
    if lines:
        lines.append("")
    for shape in canon.shapes.values():
        head = f"<{shape.label}>"
        if shape.extra_predicates:
            head += " EXTRA " + " ".join(compact_well_known(p) for p in shape.extra_predicates)
        lines.append(head + " {")
        last = len(shape.constraints) - 1
        for index, constraint in enumerate(shape.constraints):
            parts = [compact_well_known(constraint.predicate), _render_node(constraint.node_constraint)]
            token = constraint.cardinality.token()
            if token:
                parts.append(token)
            lines.append("  " + " ".join(parts) + (" ;" if index < last else ""))
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


def _node_to_json(nc: NodeConstraint) -> dict:
    if isinstance(nc, NodeKindIri):
        return {"type": "nodeKind", "kind": "iri"}
    if isinstance(nc, DatatypeConstraint):
        return {"type": "datatype", "datatype": nc.datatype.value}
    if isinstance(nc, ValueSet):
        values = []
        for value in nc.values:
            if isinstance(value, Iri):
                values.append({"type": "iri", "value": value.value})
            else:
                entry: dict = {"type": "literal", "value": value.lexical}
                if value.datatype is not None:
                    entry["datatype"] = value.datatype.value
                if value.language is not None:
                    entry["language"] = value.language
                values.append(entry)
        return {"type": "valueSet", "values": values}
    if isinstance(nc, ShapeRef):
        return {"type": "shapeRef", "label": nc.label}
    raise TypeError(f"not a node constraint: {nc!r}")


def to_canonical_json(schema: Schema) -> str:
    """Sorted-key structured rendering of the canonical form; byte-stable.

    Unbounded maxima are rendered as -1 so every cardinality is a number pair.
    """
    canon = canonicalize(schema)
    shapes = {}
    for label, shape in canon.shapes.items():
        shapes[label] = {
            "extra": [p.value for p in shape.extra_predicates],
            "constraints": [
                {
                    "predicate": c.predicate.value,
                    "node": _node_to_json(c.node_constraint),
                    "min": c.cardinality.min,
                    "max": -1 if c.cardinality.max is None else c.cardinality.max,
                }
                for c in shape.constraints
            ],
        }
    doc = {
        "focus_class": canon.focus_class.value if canon.focus_class else None,
        "prefixes": _used_prefixes(canon),
        "start": canon.start_label,
        "shapes": shapes,
    }
    return indented_json(doc, sort_keys=True, ensure_ascii=False) + "\n"
