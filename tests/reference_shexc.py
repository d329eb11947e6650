"""The ShExC reader as it was before the offset-token reader: a verbatim copy
of ``shexbench.shexc`` from its imports through ``parse_shexc`` (the writer
left out, the model import made absolute and the writer's imports dropped),
kept as the oracle for the reader that replaced it.  One change since: its
error recovery stops at IRI tokens, skips the IRI of ``BASE`` and
``IMPORT``, and after a missing ``{`` resumes at the next shape
declaration, as the reader's does.

Its diagnostics are its own classes; compare outcomes through
``reference_parse_outcome``, which gives the schema or the error string.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from shexbench.model import (
    RDF_TYPE,
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
    shape_focus_class,
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

_TOKEN_SPEC = [
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
    # any other character but blanks, reported as unexpected; no token above
    # starts with a blank, so the leading blanks match the same way either way
    ("ERR", r"[^ \t\r\f]"),
]
#: One token, or one unexpected character, after the blanks before it.
_MASTER_RE = re.compile("[ \t\r\f]*(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC) + ")")


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_EOF = _Token("EOF", "", 0, 0)


def _tokenize(text: str) -> tuple[list[_Token], list[ParseDiagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[ParseDiagnostic] = []
    line, line_start = 1, 0
    # every match starts where the previous one ended; only trailing blanks match nothing
    for match in _MASTER_RE.finditer(text):
        kind = match.lastgroup
        if kind == "NL":
            line += 1
            line_start = match.end()
        elif kind == "ERR":
            col = match.start(kind) - line_start + 1
            diagnostics.append(ParseDiagnostic(line, col, f"unexpected character {match[kind]!r}"))
        elif kind != "COMMENT":
            tokens.append(_Token(kind, match[kind], line, match.start(kind) - line_start + 1))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens, diagnostics


_XSD_INTEGER = Iri(XSD_NS + "integer")
_XSD_DECIMAL = Iri(XSD_NS + "decimal")
_XSD_BOOLEAN = Iri(XSD_NS + "boolean")


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.diagnostics = _tokenize(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else _EOF

    def advance(self) -> _Token:
        token = self.peek()
        if token.kind != "EOF":
            self.pos += 1
        return token

    def error(self, token: _Token, message: str, kind: DiagnosticKind = DiagnosticKind.SYNTAX) -> None:
        self.diagnostics.append(ParseDiagnostic(token.line, token.col, message, kind))

    def skip_until(self, *stop_values: str, at_iri: bool = False) -> None:
        while self.peek().kind != "EOF" and self.peek().value not in stop_values and not (
            at_iri and self.peek().kind == "IRIREF"
        ):
            self.advance()

    def skip_to_shape_body(self) -> None:
        while self.peek().kind != "EOF" and self.peek().value != "{" and not (
            self.peek().kind == "IRIREF" and self.peek(1).value == "{"
        ):
            self.advance()

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Schema:
        start_ref: str | None = None
        shape_order: list[str] = []
        shapes: dict[str, Shape] = {}
        ref_sites: list[tuple[str, _Token]] = []

        while self.peek().kind != "EOF":
            token = self.peek()
            word = token.value.lower() if token.kind == "IDENT" else ""
            if word == "prefix":
                self.advance()
                self._parse_prefix_decl(token)
            elif word == "start":
                self.advance()
                start_ref = self._parse_start_directive(token)
            elif word in _UNSUPPORTED_KEYWORDS:
                self.advance()
                self.error(token, f"'{token.value}' is outside the supported ShEx subset",
                           DiagnosticKind.UNSUPPORTED_FEATURE)
                if word in ("base", "import") and self.peek().kind == "IRIREF":
                    self.advance()
                else:
                    self.skip_until("{", at_iri=True)
            elif token.kind == "IRIREF":
                parsed = self._parse_shape_decl(ref_sites)
                if parsed is not None:
                    label, shape = parsed
                    if label in shapes:
                        self.error(token, f"shape <{label}> is declared twice")
                    else:
                        shapes[label] = shape
                        shape_order.append(label)
            else:
                self.error(token, f"expected a directive or shape declaration, found {token.value!r}")
                self.advance()

        if not shapes:
            self.error(self.peek(), "no shape declarations found")
        if start_ref is not None and start_ref not in shapes and shapes:
            self.error(self.tokens[0], f"start shape <{start_ref}> is not declared",
                       DiagnosticKind.DANGLING_REF)
            start_ref = None
        for label, site in ref_sites:
            if label not in shapes:
                self.error(site, f"shape reference @<{label}> is undefined", DiagnosticKind.DANGLING_REF)

        if self.diagnostics:
            raise ShexcParseError(self.diagnostics)

        start = start_ref or shape_order[0]
        schema = Schema(start_label=start, shapes=shapes)
        focus = shape_focus_class(schema.start_shape)
        if focus is not None:
            schema = Schema(start_label=start, shapes=shapes, focus_class=focus)
        return schema

    def _parse_prefix_decl(self, at: _Token) -> None:
        name = self.peek()
        if name.kind != "PNAME" or not name.value.endswith(":"):
            self.error(name if name.kind != "EOF" else at, "expected 'prefix:' after PREFIX")
            self.skip_until(at_iri=True)
        else:
            self.advance()
        iri = self.peek()
        if iri.kind != "IRIREF":
            self.error(iri if iri.kind != "EOF" else at, "expected <iri> in PREFIX declaration")
            return
        self.advance()
        if name.kind == "PNAME" and name.value.endswith(":"):
            self.prefixes[name.value[:-1]] = iri.value[1:-1]

    def _parse_start_directive(self, at: _Token) -> str | None:
        if self.peek().value != "=":
            self.error(self.peek(), "expected '=' after start")
            return None
        self.advance()
        if self.peek().kind != "AT" or self.peek(1).kind != "IRIREF":
            self.error(self.peek(), "expected @<Label> after start =")
            return None
        self.advance()
        label = self.advance().value[1:-1]
        return label

    def _parse_shape_decl(self, ref_sites: list[tuple[str, _Token]]) -> tuple[str, Shape] | None:
        decl = self.advance()
        label = decl.value[1:-1]
        if not label:
            self.error(decl, "empty shape label")
            label = "_"

        extra: list[Iri] = []
        while True:
            token = self.peek()
            if token.kind == "IDENT" and token.value.lower() == "extra":
                self.advance()
                while self.peek().kind in ("PNAME", "IRIREF") or (
                    self.peek().kind == "IDENT" and self.peek().value == "a"
                ):
                    predicate = self._parse_iri(self.advance())
                    if predicate is not None:
                        extra.append(predicate)
            elif token.kind == "IDENT" and token.value.lower() in _UNSUPPORTED_KEYWORDS:
                self.advance()
                self.error(token, f"'{token.value}' is outside the supported ShEx subset",
                           DiagnosticKind.UNSUPPORTED_FEATURE)
            else:
                break

        if self.peek().value != "{":
            self.error(self.peek(), "expected '{' to open the shape body")
            self.skip_to_shape_body()
            if self.peek().value != "{":
                return None
        self.advance()

        constraints: list[TripleConstraint] = []
        seen_predicates: set[Iri] = set()
        while True:
            token = self.peek()
            if token.value == "}":
                self.advance()
                break
            if token.kind == "EOF":
                self.error(token, f"unexpected end of input inside shape <{label}>")
                break
            parsed = self._parse_triple_constraint(ref_sites)
            if parsed is None:
                self.skip_until(";", "}")
            else:
                constraint, site = parsed
                if constraint.predicate in seen_predicates:
                    self.error(site, f"duplicate predicate {constraint.predicate} in shape <{label}>",
                               DiagnosticKind.DUPLICATE_PREDICATE)
                else:
                    seen_predicates.add(constraint.predicate)
                    constraints.append(constraint)
            if self.peek().value == ";":
                self.advance()
            elif self.peek().value != "}" and self.peek().kind != "EOF":
                self.error(self.peek(), f"expected ';' or '}}' after constraint, found {self.peek().value!r}")
                self.skip_until(";", "}")
                if self.peek().value == ";":
                    self.advance()

        if not constraints:
            self.error(decl, f"shape <{label}> declares no constraints")
            return None
        try:
            return label, Shape(label, tuple(constraints), tuple(extra))
        except ValueError as exc:
            self.error(decl, str(exc))
            return None

    def _parse_iri(self, token: _Token) -> Iri | None:
        if token.kind == "IDENT" and token.value == "a":
            return RDF_TYPE
        if token.kind == "IRIREF":
            text = token.value[1:-1]
        elif token.kind == "PNAME":
            prefix, local = token.value.split(":", 1)
            if prefix not in self.prefixes:
                self.error(token, f"undeclared prefix {prefix!r}")
                return None
            text = self.prefixes[prefix] + local
        else:
            self.error(token, f"expected an IRI, found {token.value!r}")
            return None
        try:
            return Iri(text)
        except ValueError as exc:
            self.error(token, str(exc))
            return None

    def _parse_triple_constraint(
        self, ref_sites: list[tuple[str, _Token]]
    ) -> tuple[TripleConstraint, _Token] | None:
        site = self.peek()
        if site.kind not in ("PNAME", "IRIREF") and not (site.kind == "IDENT" and site.value == "a"):
            self.error(site, f"expected a predicate, found {site.value!r}")
            return None
        predicate = self._parse_iri(self.advance())
        if predicate is None:
            return None
        node = self._parse_node_constraint(ref_sites)
        if node is None:
            return None
        cardinality = self._parse_cardinality()
        trailing = self.peek()
        if trailing.kind == "IDENT" and trailing.value.lower() in _UNSUPPORTED_KEYWORDS:
            self.error(trailing, f"'{trailing.value}' is outside the supported ShEx subset",
                       DiagnosticKind.UNSUPPORTED_FEATURE)
            return None
        return TripleConstraint(predicate, node, cardinality), site

    def _parse_node_constraint(self, ref_sites: list[tuple[str, _Token]]) -> NodeConstraint | None:
        token = self.peek()
        if token.kind == "IDENT":
            word = token.value.lower()
            if word == "iri":
                self.advance()
                return NodeKindIri()
            if word in _UNSUPPORTED_KEYWORDS:
                self.advance()
                self.error(token, f"node constraint '{token.value}' is outside the supported ShEx subset",
                           DiagnosticKind.UNSUPPORTED_FEATURE)
                return None
            self.error(token, f"expected a node constraint, found {token.value!r}")
            return None
        if token.kind in ("PNAME", "IRIREF"):
            datatype = self._parse_iri(self.advance())
            return DatatypeConstraint(datatype) if datatype is not None else None
        if token.kind == "AT":
            self.advance()
            target = self.peek()
            if target.kind == "IRIREF":
                self.advance()
                label = target.value[1:-1]
                if not label:
                    self.error(target, "empty shape label")
                    return None
                ref_sites.append((label, target))
                return ShapeRef(label)
            self.error(target, "expected <Label> after '@'")
            return None
        if token.value == "[":
            return self._parse_value_set(self.advance())
        if token.value in (".", "(", "~"):
            self.advance()
            self.error(token, f"node constraint {token.value!r} is outside the supported ShEx subset",
                       DiagnosticKind.UNSUPPORTED_FEATURE)
            return None
        self.error(token, f"expected a node constraint, found {token.value!r}")
        return None

    def _parse_value_set(self, opening: _Token) -> ValueSet | None:
        values = []
        ok = True
        while True:
            token = self.peek()
            if token.value == "]":
                self.advance()
                break
            if token.kind == "EOF":
                self.error(opening, "unterminated value set")
                return None
            self.advance()
            if token.kind in ("PNAME", "IRIREF"):
                value = self._parse_iri(token)
            elif token.kind == "STRING":
                value = self._parse_literal(token)
            elif token.kind == "NUMBER":
                value = Literal(token.value, _XSD_DECIMAL if "." in token.value else _XSD_INTEGER)
            elif token.kind == "IDENT" and token.value in ("true", "false"):
                value = Literal(token.value, _XSD_BOOLEAN)
            else:
                if token.value in ("~", "-", "."):
                    self.error(token, f"value-set operator {token.value!r} is outside the supported ShEx subset",
                               DiagnosticKind.UNSUPPORTED_FEATURE)
                else:
                    self.error(token, f"unexpected token {token.value!r} in value set")
                value = None
            if value is None:
                ok = False
            elif value in values:
                quoted = "literal" if token.kind == "STRING" else f"value {token.value}"
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
        raw = token.value[1:-1]
        lexical = re.sub(r"\\(.)", lambda m: {"n": "\n", "t": "\t", "r": "\r"}.get(m.group(1), m.group(1)), raw)
        if self.peek().kind == "LANGTAG":
            lang = self.advance().value[1:]
            return Literal(lexical, language=lang)
        if self.peek().kind == "DTCARET":
            self.advance()
            datatype = self._parse_iri(self.advance())
            if datatype is None:
                return None
            return Literal(lexical, datatype)
        return Literal(lexical)

    def _parse_cardinality(self) -> Cardinality:
        token = self.peek()
        if token.value == "?":
            self.advance()
            return Cardinality(0, 1)
        if token.value == "*":
            self.advance()
            return Cardinality(0, None)
        if token.value == "+":
            self.advance()
            return Cardinality(1, None)
        if token.value == "{" and self.peek(1).kind == "NUMBER":
            self.advance()
            low_tok = self.advance()
            high_tok: _Token | None = low_tok
            if self.peek().value == ",":
                self.advance()
                high_tok = self.advance() if self.peek().kind == "NUMBER" else None
            if self.peek().value == "}":
                self.advance()
            else:
                self.error(self.peek(), "expected '}' to close cardinality")
            for bound in (low_tok, high_tok):
                if bound is not None and "." in bound.value:
                    self.error(bound, f"cardinality bound {bound.value} is not an integer")
                    return Cardinality(1, 1)
            low = int(low_tok.value)
            high = int(high_tok.value) if high_tok is not None else None
            if low < 0 or (high is not None and high < low):
                self.error(low_tok, f"invalid cardinality range {{{low},{high}}}")
                return Cardinality(1, 1)
            return Cardinality(low, high)
        return Cardinality(1, 1)


def parse_shexc(text: str, focus_class: Iri | None = None) -> Schema:
    """Parse ShExC source into a :class:`Schema`.

    Raises :class:`ShexcParseError` carrying positioned diagnostics when the
    source is not valid subset ShExC.  ``focus_class`` overrides the class
    inferred from the start shape's typing constraint.
    """
    schema = _Parser(text).parse()
    if focus_class is not None:
        schema = Schema(schema.start_label, schema.shapes, focus_class)
    return schema


def reference_parse_outcome(text: str) -> Schema | str:
    """``parse_shexc(text)`` of this reader: the schema, or the error string."""
    try:
        return parse_shexc(text)
    except ShexcParseError as exc:
        return str(exc)
