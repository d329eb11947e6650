"""SPARQL extraction of local, triple-level, and global class information.

Each prompt setting's class profile has one home, which ``extract``,
``generate`` and ``train-cardinality`` share: :meth:`KgClient.sampled_triples`
(local), :meth:`KgClient.triple_groups` (triples) and
:meth:`KgClient.global_records` (global).

Every query goes through a deterministic on-disk cache keyed by the
whitespace-normalized query text plus the endpoint URL.  A cache hit never
touches the network, and offline mode turns misses into errors instead of
requests.  The clients of one endpoint within one command share a
:class:`CacheStore`: concurrent misses on the same key collapse to a single
request, at most ``_MAX_IN_FLIGHT`` requests run at once, and each term
lookup (a label, a description, a property constraint, a subclass path) is
read, hashed and decoded once for every class.  The store's term table is
keyed by every term of the lookup's query, the KG kind's predicate
included, so a repeat is one table hit that builds no query text and hashes
nothing.  A client decodes each class's frequency table and instance count
once; every other query is asked once per class, so its file is read when
asked and nothing of it is kept.  The store also
keeps one :class:`Iri` per IRI text its clients decode, so each IRI's
whitespace check runs once per command.
Cache files are plain JSON holding the query, a timestamp, and the standard
SPARQL results document, so they can be inspected and checked into fixtures.
They are written compact, on one line (``python -m json.tool <file>``
pretty-prints one); files written indented by older versions read the same.
Cache files, like recorded LLM replies, are read by :func:`read_small_file`
with raw ``os`` calls.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import http.client
import json
import logging
import os
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import zlib
from dataclasses import dataclass, field
from enum import Enum, IntFlag
from pathlib import Path
from typing import Callable, NamedTuple, Union

from .model import RDFS_NS, Iri, Literal

log = logging.getLogger(__name__)


class EndpointError(RuntimeError):
    """The endpoint could not be reached or answered with an error."""


class MalformedResultsError(ValueError):
    """The endpoint's response is not a SPARQL JSON results document."""


class LocalFileError(OSError):
    """A local file could not be read or written; the message names it."""


class CacheMissError(LookupError):
    """Offline mode hit a cold cache key."""

    def __init__(self, key: str, query: str):
        self.key = key
        self.query = query
        super().__init__(f"offline cache miss for key {key}")


class KgKind(Enum):
    WIKIDATA = "wikidata"
    YAGO = "yago"


@dataclass(frozen=True)
class BlankNode:
    id: str


Term = Union[Iri, Literal, BlankNode]


class Triple(NamedTuple):
    subject: Iri
    predicate: Iri
    object: Term
    subject_label: str | None = None
    predicate_label: str | None = None
    object_label: str | None = None


@dataclass(frozen=True)
class EndpointConfig:
    endpoint_url: str
    kg_kind: KgKind
    typing_predicate: Iri
    cache_dir: Path
    offline: bool = False

    @property
    def subclass_predicate(self) -> Iri:
        if self.kg_kind is KgKind.WIKIDATA:
            return Iri("http://www.wikidata.org/prop/direct/P279")
        return Iri(RDFS_NS + "subClassOf")

    @property
    def description_predicate(self) -> Iri:
        if self.kg_kind is KgKind.WIKIDATA:
            return Iri("http://schema.org/description")
        return Iri(RDFS_NS + "comment")


class RecordField(IntFlag):
    """Completeness bits for a :class:`GlobalPredicateRecord`."""

    FREQUENCY = 1
    CARDINALITY = 2
    DATATYPES = 4
    OBJECT_CLASSES = 8
    EXAMPLES = 16
    LABELS = 32
    SUBJECT_TYPE_CONSTRAINT = 64
    VALUE_TYPE_CONSTRAINT = 128


#: Every part of a :class:`GlobalPredicateRecord`, the default of
#: :meth:`KgClient.build_global_record`.
ALL_FIELDS = RecordField(sum(RecordField))

#: The completeness bits of a record's parts as plain ints, so that building a
#: record does no flag arithmetic; the record gets its RecordField once.
_FREQUENCY_BITS = int(RecordField.FREQUENCY)
_CARDINALITY_BITS = int(RecordField.CARDINALITY)
_OBJECT_PROFILE_BITS = int(RecordField.DATATYPES | RecordField.OBJECT_CLASSES)
_EXAMPLES_BITS = int(RecordField.EXAMPLES)
_LABELS_BITS = int(RecordField.LABELS)
_SUBJECT_TYPE_BITS = int(RecordField.SUBJECT_TYPE_CONSTRAINT)
_VALUE_TYPE_BITS = int(RecordField.VALUE_TYPE_CONSTRAINT)


#: Example triples a :class:`GlobalPredicateRecord` keeps, and the most
#: :meth:`KgClient.triple_examples` asks for.
TRIPLE_EXAMPLES = 5
#: Instances fetched before :meth:`KgClient.sample_instances` ranks them.
_SAMPLE_POOL_LIMIT = 10000
#: Longest subclass chain :meth:`KgClient.is_subclass_of` follows.
_SUBCLASS_MAX_DEPTH = 10


@dataclass(frozen=True)
class GlobalPredicateRecord:
    """Aggregated profile of one (class, predicate) pair.

    Distribution values are fractions of the class's instance population, so
    the cardinality distribution together with ``1 - frequency`` (the zero
    bucket) sums to one.
    """

    class_uri: Iri
    predicate_uri: Iri
    class_label: str | None = None
    class_description: str | None = None
    predicate_label: str | None = None
    predicate_description: str | None = None
    triple_examples: tuple[Triple, ...] = ()
    frequency: float = 0.0
    cardinality_distribution: dict[int, float] = field(default_factory=dict)
    datatype_of_objects: dict[str, float] = field(default_factory=dict)
    object_class_distribution: dict[str, float] = field(default_factory=dict)
    subject_type_constraint: tuple[Iri, ...] | None = None
    value_type_constraint: tuple[Iri, ...] | None = None
    completeness: RecordField = RecordField(0)

    def __post_init__(self) -> None:
        if len(self.triple_examples) > TRIPLE_EXAMPLES:
            raise ValueError(f"at most {TRIPLE_EXAMPLES} triple examples are kept")
        if not 0.0 <= self.frequency <= 1.0 + 1e-9:
            raise ValueError(f"frequency outside [0,1]: {self.frequency}")
        for mapping in (self.cardinality_distribution, self.datatype_of_objects, self.object_class_distribution):
            for value in mapping.values():
                if not 0.0 <= value <= 1.0 + 1e-9:
                    raise ValueError(f"distribution fraction outside [0,1]: {value}")
        if any(k < 1 for k in self.cardinality_distribution):
            raise ValueError("cardinality distribution keys must be >= 1")

    def has(self, fields: RecordField) -> bool:
        return (self.completeness & fields) == fields


# -- query templates ---------------------------------------------------------

def frequency_query(class_iri: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT DISTINCT ?predicate (COUNT(DISTINCT ?subject) AS ?count)\n"
        "WHERE {\n"
        f"  ?subject <{typing_predicate}> <{class_iri}> ;\n"
        "           ?predicate ?object .\n"
        "}\n"
        "GROUP BY ?predicate\n"
        "ORDER BY DESC(?count)"
    )


def datatype_query(class_iri: Iri, predicate: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT ?kind (COUNT(?object) AS ?count)\n"
        "WHERE {\n"
        f"  ?subject <{typing_predicate}> <{class_iri}> ;\n"
        f"           <{predicate}> ?object .\n"
        "  BIND (IF(isIRI(?object), \"IRI\", IF(isBlank(?object), \"bnode\", STR(DATATYPE(?object)))) AS ?kind)\n"
        "}\n"
        "GROUP BY ?kind\n"
        "ORDER BY DESC(?count)"
    )


def missing_query(class_iri: Iri, predicate: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT (COUNT(DISTINCT ?subject) AS ?count)\n"
        "WHERE {\n"
        f"  ?subject <{typing_predicate}> <{class_iri}> .\n"
        "  FILTER NOT EXISTS {\n"
        f"    ?subject <{predicate}> ?object\n"
        "  }\n"
        "}"
    )


def cardinality_query(class_iri: Iri, predicate: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT ?cardinality (COUNT(DISTINCT ?subject) AS ?count)\n"
        "{\n"
        "  SELECT DISTINCT ?subject (COUNT(?object) AS ?cardinality)\n"
        "  WHERE {\n"
        f"    ?subject <{typing_predicate}> <{class_iri}> ;\n"
        f"             <{predicate}> ?object .\n"
        "  }\n"
        "  GROUP BY ?subject\n"
        "}\n"
        "GROUP BY ?cardinality\n"
        "ORDER BY DESC(?count)"
    )


def instance_count_query(class_iri: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT (COUNT(DISTINCT ?subject) AS ?count)\n"
        "WHERE {\n"
        f"  ?subject <{typing_predicate}> <{class_iri}> .\n"
        "}"
    )


def instances_query(class_iri: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT DISTINCT ?instance\n"
        "WHERE {\n"
        f"  ?instance <{typing_predicate}> <{class_iri}> .\n"
        "}\n"
        f"LIMIT {_SAMPLE_POOL_LIMIT}"
    )


def instance_richness_query(class_iri: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT ?instance (COUNT(DISTINCT ?predicate) AS ?count)\n"
        "WHERE {\n"
        f"  ?instance <{typing_predicate}> <{class_iri}> ;\n"
        "            ?predicate ?object .\n"
        "}\n"
        "GROUP BY ?instance\n"
        "ORDER BY DESC(?count)\n"
        f"LIMIT {_SAMPLE_POOL_LIMIT}"
    )


def instance_triples_query(instance: Iri) -> str:
    return (
        "SELECT ?predicate ?object\n"
        "WHERE {\n"
        f"  <{instance}> ?predicate ?object .\n"
        "}\n"
        "ORDER BY ?predicate"
    )


def triple_examples_query(class_iri: Iri, predicate: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT ?subject ?object\n"
        "WHERE {\n"
        f"  ?subject <{typing_predicate}> <{class_iri}> ;\n"
        f"           <{predicate}> ?object .\n"
        "}\n"
        "ORDER BY ?subject ?object\n"
        f"LIMIT {TRIPLE_EXAMPLES}"
    )


def object_classes_query(class_iri: Iri, predicate: Iri, typing_predicate: Iri) -> str:
    return (
        "SELECT ?class (COUNT(?object) AS ?count)\n"
        "WHERE {\n"
        f"  ?subject <{typing_predicate}> <{class_iri}> ;\n"
        f"           <{predicate}> ?object .\n"
        f"  ?object <{typing_predicate}> ?class .\n"
        "}\n"
        "GROUP BY ?class\n"
        "ORDER BY DESC(?count)"
    )


def label_query(term: Iri) -> str:
    return (
        "SELECT ?label\n"
        "WHERE {\n"
        f"  <{term}> <{RDFS_NS}label> ?label .\n"
        "  FILTER (LANG(?label) = \"en\" || LANG(?label) = \"\")\n"
        "}\n"
        "LIMIT 1"
    )


def description_query(term: Iri, description_predicate: Iri) -> str:
    return (
        "SELECT ?description\n"
        "WHERE {\n"
        f"  <{term}> <{description_predicate}> ?description .\n"
        "  FILTER (LANG(?description) = \"en\" || LANG(?description) = \"\")\n"
        "}\n"
        "LIMIT 1"
    )


WIKIDATA_VALUE_TYPE_CONSTRAINT = Iri("http://www.wikidata.org/entity/Q21510865")
WIKIDATA_SUBJECT_TYPE_CONSTRAINT = Iri("http://www.wikidata.org/entity/Q21503250")


def property_constraint_query(property_entity: Iri, constraint_type: Iri) -> str:
    return (
        "SELECT DISTINCT ?class\n"
        "WHERE {\n"
        f"  <{property_entity}> <http://www.wikidata.org/prop/P2302> ?statement .\n"
        f"  ?statement <http://www.wikidata.org/prop/statement/P2302> <{constraint_type}> ;\n"
        "             <http://www.wikidata.org/prop/qualifier/P2308> ?class .\n"
        "}\n"
        "ORDER BY ?class"
    )


def subclass_path_query(c: Iri, c_prime: Iri, subclass_predicate: Iri) -> str:
    path = "/".join(f"(<{subclass_predicate}>?)" for _ in range(_SUBCLASS_MAX_DEPTH))
    return f"ASK {{\n  <{c}> {path} <{c_prime}> .\n}}"


# -- results plumbing --------------------------------------------------------

def _normalize_query(query: str) -> str:
    return " ".join(query.split())


_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def atomic_write_text(path: Path | str, text: str) -> None:
    """Replace ``path`` with ``text`` as UTF-8 in one rename.  The temp file is
    named per process and thread, so concurrent writers of one path never
    share it.  The parent directory is created only when it is missing, which
    the temp file's open reports.

    Raises :class:`LocalFileError` naming ``path`` when the write fails, after
    removing the temp file."""
    path = os.fspath(path)
    tmp = f"{path}.tmp{os.getpid()}-{threading.get_ident()}"
    data = memoryview(text.encode("utf-8"))
    try:
        try:
            fd = os.open(tmp, _TEMP_FLAGS, 0o666)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
            fd = os.open(tmp, _TEMP_FLAGS, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise LocalFileError(f"cannot write {path}: {exc}") from exc


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
#: Bytes asked for by each read of :func:`read_small_file`; a cache file or a
#: recorded reply is about a kilobyte, so one read holds it.
_READ_CHUNK = 64 * 1024


def read_small_file(path: Path | str) -> bytes:
    """The bytes of the file at ``path``, read with raw ``os`` calls, without
    the buffered-file layer of :func:`open`: a cache file or a recorded reply
    is read once, whole, and never seeked.  Raises :class:`OSError` as
    ``open`` and ``read`` do (``FileNotFoundError`` for a missing file, the
    read's error for a directory)."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


class NoResponseError(OSError):
    """No HTTP response: the connection or TLS failed, it timed out, the URL
    is not http(s), or the body could not be read or decoded."""


#: An opener for http(s) URLs only that follows no redirect: urllib's
#: redirect handler turns a POST into a bodiless GET and copies every
#: request header, ``Authorization`` included, to the target, whatever its
#: host or scheme.  A 3xx reaches the caller as its status.
_OPENER = urllib.request.OpenerDirector()
for _handler in (urllib.request.ProxyHandler(), urllib.request.UnknownHandler(), urllib.request.HTTPHandler(),
                 urllib.request.HTTPSHandler(), urllib.request.HTTPDefaultErrorHandler(),
                 urllib.request.HTTPErrorProcessor()):
    _OPENER.add_handler(_handler)


def post(url: str, body: bytes, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
    """POST ``body`` to ``url``: the status and body of whatever HTTP response
    arrives, 3xx, 4xx and 5xx included; each caller maps statuses to its own
    errors.  Asks for a gzip body and returns it decoded.  Raises
    :class:`NoResponseError` when no response arrives."""
    try:
        request = urllib.request.Request(url, data=body, headers={**headers, "Accept-Encoding": "gzip"},
                                         method="POST")
        try:
            with _OPENER.open(request, timeout=timeout) as response:
                return response.status, _decoded_body(response)
        except urllib.error.HTTPError as response:
            with response:
                return response.code, _decoded_body(response)
    except (OSError, http.client.HTTPException, ValueError, EOFError, zlib.error) as exc:
        raise NoResponseError(str(exc)) from exc


def _decoded_body(response) -> bytes:
    body = response.read()
    if response.headers.get("Content-Encoding", "").strip().lower() in ("gzip", "x-gzip"):
        return gzip.decompress(body)
    return body


def decode_json(data: str | bytes):
    """``json.loads`` for every document the package reads from outside.

    A document nested too deeply for the decoder raises ValueError, as any
    other malformed document does, not RecursionError.
    """
    try:
        return json.loads(data)
    except RecursionError:
        raise ValueError("document nested too deeply for the JSON decoder") from None


def cache_key(query: str, endpoint_url: str) -> str:
    digest = hashlib.sha256(f"{_normalize_query(query)}\n{endpoint_url}".encode("utf-8")).hexdigest()
    return digest


class IriTable(dict):
    """IRI text -> its :class:`Iri`, built and checked on first use.  A text
    that is no IRI raises ValueError and is not stored, so it raises again on
    every use."""

    def __missing__(self, value: str) -> Iri:
        iri = self[value] = Iri(value)
        return iri


def term_from_binding(binding: dict, iris: IriTable | None = None) -> Term:
    """The RDF term of a SPARQL JSON binding; raises
    :class:`MalformedResultsError` for one that is no valid term.  With
    ``iris``, the binding's IRIs and a literal's datatype come from that
    table; a literal with a language tag too fails before it is looked up."""
    kind = binding.get("type")
    value = binding.get("value", "")
    try:
        if kind == "uri":
            return Iri(value) if iris is None else iris[value]
        if kind == "bnode":
            return BlankNode(value)
        datatype, language = binding.get("datatype"), binding.get("xml:lang")
        if datatype and language is None and iris is not None:
            return Literal(value, iris[datatype])
        return Literal(value, Iri(datatype) if datatype else None, language)
    except (TypeError, ValueError) as exc:
        raise MalformedResultsError(f"binding is not a valid RDF term: {binding!r}: {exc}") from exc


def _bound(row: dict, variable: str) -> dict:
    """The binding of ``?variable`` in a results row; raises
    :class:`MalformedResultsError` naming the variable when the row leaves it
    unbound or its binding carries no value."""
    binding = row.get(variable) if isinstance(row, dict) else None
    if not isinstance(binding, dict) or "value" not in binding:
        raise MalformedResultsError(f"results row has no value for ?{variable}: {row!r}")
    return binding


def _int_value(row: dict, variable: str) -> int:
    binding = _bound(row, variable)
    try:
        return int(binding["value"])
    except (TypeError, ValueError) as exc:
        raise MalformedResultsError(f"expected an integer binding for ?{variable}, got {binding!r}") from exc


def _datatype_key(row: dict) -> str:
    """A datatype histogram key: "IRI", "bnode" or a datatype IRI."""
    kind = _bound(row, "kind")["value"]
    if kind not in ("IRI", "bnode"):
        try:
            Iri(kind)
        except (TypeError, ValueError) as exc:
            raise MalformedResultsError(f"?kind binding is neither IRI, bnode nor a datatype IRI: {kind!r}") from exc
    return kind


def http_transport(cfg: EndpointConfig) -> Callable[[str], dict]:
    """Default transport: POST the query form-encoded (SPARQL 1.1 Protocol); expect SPARQL JSON results."""

    def send(query: str) -> dict:
        try:
            status, body = post(cfg.endpoint_url, urllib.parse.urlencode({"query": query}).encode("ascii"),
                                _SPARQL_HEADERS, _SPARQL_TIMEOUT_S)
        except NoResponseError as exc:
            raise EndpointError(f"request to {cfg.endpoint_url} failed: {exc}") from exc
        if status == 429 or status >= 500:
            raise _RetryableEndpointError(f"HTTP {status} from {cfg.endpoint_url}")
        if status != 200:
            raise EndpointError(f"HTTP {status} from {cfg.endpoint_url}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            return decode_json(body)
        except ValueError as exc:
            raise MalformedResultsError(f"non-JSON response from {cfg.endpoint_url}") from exc

    return send


class _RetryableEndpointError(EndpointError):
    """Transient failure (429/5xx); eligible for backoff retries."""


#: Seconds one SPARQL request may take before it fails, and its headers.
_SPARQL_TIMEOUT_S = 60.0
_SPARQL_HEADERS = {"Accept": "application/sparql-results+json", "User-Agent": "shexbench/0.1 (schema extraction)"}
#: Seconds slept before each retry of a 429 or 5xx answer: four attempts at most.
_RETRY_BACKOFF_S = (0.5, 1.0, 2.0)
#: Requests one endpoint serves at once for one command (one
#: :class:`CacheStore`); a politeness bound on public endpoints.
_MAX_IN_FLIGHT = 2
#: Locks a :class:`CacheStore` decodes its term-lookup misses under.
_TERM_LOCKS = 64


class CacheStore:
    """The cache state that the clients of one endpoint share for one command.

    It holds one lock per missed key (so a miss is fetched once however
    many clients ask for it), the gate that lets at most ``_MAX_IN_FLIGHT``
    requests run at once, the :class:`IriTable` its clients decode IRI
    bindings and literal datatypes through, and per endpoint URL a table of
    term lookups keyed by their terms, so each lookup is read, hashed and
    decoded once for all the clients (a miss is decoded under one of a fixed
    set of locks).  Answers
    only: a miss or a malformed answer is looked up again next time.
    """

    def __init__(self):
        self.gate = threading.BoundedSemaphore(_MAX_IN_FLIGHT)
        self.iris = IriTable()
        self._key_locks: dict[str, threading.Lock] = {}
        self._key_locks_guard = threading.Lock()
        self._term_locks = [threading.Lock() for _ in range(_TERM_LOCKS)]
        self._lookups: dict[str, dict[str | tuple, tuple[str, object]]] = {}

    def key_lock(self, key: str) -> threading.Lock:
        with self._key_locks_guard:
            return self._key_locks.setdefault(key, threading.Lock())

    def term_lock(self, terms: str | tuple) -> threading.Lock:
        """The lock a miss of the term lookup under ``terms`` is decoded
        under.  Lookups whose terms hash alike share one: a fixed set of
        locks, so a miss allocates none."""
        return self._term_locks[hash(terms) % _TERM_LOCKS]

    def lookups(self, endpoint_url: str) -> dict[str | tuple, tuple[str, object]]:
        """The term lookups decoded for ``endpoint_url``, keyed by every term
        of their query as text: a label by its IRI, a description by
        ``("description", iri, description predicate)``, a property
        constraint by ``("constraint", property, constraint type)`` and a
        subclass path by ``("subclass", c, c', subclass predicate)``.  The
        KG kind's predicate is in the key because clients of two kinds may
        share one endpoint URL.  Each maps to (cache key, decoded value)."""
        with self._key_locks_guard:
            return self._lookups.setdefault(endpoint_url, {})


class KgClient:
    """Cached SPARQL client plus the extraction operations built on it.

    ``transport`` may be replaced by a stub callable ``query -> results doc``
    for tests and recorded fixtures.  ``store`` is the endpoint's
    :class:`CacheStore` for the command; without one the client gets a store
    of its own.  Thread-safe: at most two requests run concurrently per store
    (in the CLI, per endpoint and command), and identical cache misses are
    single-flight across the store's clients.
    """

    def __init__(self, cfg: EndpointConfig, transport: Callable[[str], dict] | None = None,
                 store: CacheStore | None = None):
        self.cfg = cfg
        self.keys_touched: set[str] = set()
        self._transport = transport or http_transport(cfg)
        self._store = store or CacheStore()
        self._lookups = self._store.lookups(cfg.endpoint_url)
        self._iris = self._store.iris
        # the same text as str(Path(cfg.cache_dir) / name), without a Path per lookup
        self._cache_prefix = os.fspath(Path(cfg.cache_dir) / "_")[:-1]
        # Decoded frequency tables and instance counts by class; freed with
        # the client.  Only successes are kept, so a miss raises again.
        self._frequencies: dict[Iri, dict[Iri, int]] = {}
        self._instance_counts: dict[Iri, int] = {}

    # -- cache layer ---------------------------------------------------------

    def cached_query(self, query: str, *, key: str | None = None) -> dict:
        """SPARQL JSON results for ``query``, read from the cache file when warm.

        ``key`` is the query's :func:`cache_key` when the caller has already
        hashed it.  Every call reads the file (or fetches on a miss); the
        repeats a command makes are served by the client's class tables and
        the store's term lookups instead."""
        if key is None:
            key = cache_key(query, self.cfg.endpoint_url)
        self.keys_touched.add(key)
        path = self._cache_prefix + key + ".json"
        results = self._read_cache(path)
        if results is None:
            if self.cfg.offline:
                raise CacheMissError(key, query)
            with self._store.key_lock(key):
                # another client may have fetched it while this one waited
                results = self._read_cache(path)
                if results is None:
                    results = self._fetch(query)
                    self._write_cache(path, query, results)
        return results

    @staticmethod
    def _read_cache(path: Path | str) -> dict | None:
        try:
            data = read_small_file(path)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise LocalFileError(f"cannot read cache file {path}: {exc}") from exc
        try:
            return decode_json(data.decode("utf-8"))["results_document"]
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResultsError(f"corrupt cache file {path}: {exc}") from exc

    def _write_cache(self, path: Path | str, query: str, results: dict) -> None:
        payload = {
            "endpoint": self.cfg.endpoint_url,
            "query": query,
            "fetched_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "results_document": results,
        }
        # compact separators keep json.dumps on its C encoder, which any indent disables
        atomic_write_text(path, json.dumps(payload, ensure_ascii=False, separators=(",", ":")))

    def _fetch(self, query: str) -> dict:
        for delay in (*_RETRY_BACKOFF_S, None):
            try:
                with self._store.gate:
                    doc = self._transport(query)
                if not isinstance(doc, dict) or ("results" not in doc and "boolean" not in doc):
                    raise MalformedResultsError(f"not a SPARQL results document: {type(doc).__name__}")
                return doc
            except _RetryableEndpointError as exc:
                if delay is None:
                    raise EndpointError(str(exc)) from exc
                log.warning("retrying after transient endpoint error: %s", exc)
                time.sleep(delay)

    def _rows(self, query: str) -> list[dict]:
        return _bindings(self.cached_query(query))

    def _term_lookup(self, terms: str | tuple, query: Callable[[], str], decode: Callable, *args):
        """``decode(results, *args)`` of a term lookup any class may repeat,
        kept in the store's table under ``terms`` (see
        :meth:`CacheStore.lookups`).  A hit builds no query text and hashes
        nothing: it touches the stored key as :meth:`cached_query` would.  A
        miss builds ``query()`` and hashes it once, under the lookup's lock,
        so clients that miss it at once read and decode it once."""
        table = self._lookups
        hit = table.get(terms)
        if hit is None:
            with self._store.term_lock(terms):
                hit = table.get(terms)
                if hit is None:
                    text = query()
                    key = cache_key(text, self.cfg.endpoint_url)
                    hit = table[terms] = (key, decode(self.cached_query(text, key=key), *args))
                    return hit[1]
        self.keys_touched.add(hit[0])
        return hit[1]

    # -- extraction operations ------------------------------------------------

    def predicate_frequencies(self, class_iri: Iri) -> dict[Iri, int]:
        """Distinct-subject usage count per predicate, descending; a fresh dict
        on every call, decoded once per client."""
        return dict(self._frequency_table(class_iri))

    def _frequency_table(self, class_iri: Iri) -> dict[Iri, int]:
        """The client's own table behind :meth:`predicate_frequencies`; callers
        must not mutate it."""
        frequencies = self._frequencies.get(class_iri)
        if frequencies is None:
            rows = self._rows(frequency_query(class_iri, self.cfg.typing_predicate))
            counts = {}
            for row in rows:
                predicate = term_from_binding(_bound(row, "predicate"), self._iris)
                if isinstance(predicate, Iri):
                    counts[predicate] = _int_value(row, "count")
            frequencies = dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))
            self._frequencies[class_iri] = frequencies
        return frequencies

    def instance_count(self, class_iri: Iri) -> int:
        """Instances of the class, counted once per client."""
        count = self._instance_counts.get(class_iri)
        if count is None:
            rows = self._rows(instance_count_query(class_iri, self.cfg.typing_predicate))
            count = self._instance_counts[class_iri] = _int_value(rows[0], "count") if rows else 0
        return count

    def cardinality_distribution(self, class_iri: Iri, predicate: Iri) -> dict[int, int]:
        """Instances with exactly k objects for the predicate, for each k >= 1."""
        rows = self._rows(cardinality_query(class_iri, predicate, self.cfg.typing_predicate))
        histogram = {_int_value(row, "cardinality"): _int_value(row, "count") for row in rows}
        return dict(sorted(histogram.items()))

    def count_missing(self, class_iri: Iri, predicate: Iri) -> int:
        """Instances of the class with no objects at all for the predicate."""
        rows = self._rows(missing_query(class_iri, predicate, self.cfg.typing_predicate))
        return _int_value(rows[0], "count") if rows else 0

    def object_profiles(self, class_iri: Iri, predicate: Iri) -> tuple[dict[str, int], dict[str, int]]:
        """(datatype histogram, object class histogram) for a predicate's objects.

        Datatype keys are datatype IRIs plus the reserved "IRI" and "bnode"
        buckets; class keys are class IRIs of IRI-valued objects.
        """
        datatype_rows = self._rows(datatype_query(class_iri, predicate, self.cfg.typing_predicate))
        datatypes = {}
        for row in datatype_rows:
            datatypes[_datatype_key(row)] = _int_value(row, "count")
        class_rows = self._rows(object_classes_query(class_iri, predicate, self.cfg.typing_predicate))
        classes = {}
        for row in class_rows:
            term = term_from_binding(_bound(row, "class"), self._iris)
            if isinstance(term, Iri):
                classes[term.value] = _int_value(row, "count")
        def by_share(histogram: dict[str, int]) -> dict[str, int]:
            return dict(sorted(histogram.items(), key=lambda item: (-item[1], item[0])))

        return by_share(datatypes), by_share(classes)

    def sample_instances(self, class_iri: Iri, n: int) -> list[Iri]:
        """Representative instances: Wikidata by shortest/lowest numeric ID,
        YAGO by richest distinct-predicate usage.  Deterministic per snapshot;
        returns all available when fewer than ``n`` exist."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        if self.cfg.kg_kind is KgKind.WIKIDATA:
            rows = self._rows(instances_query(class_iri, self.cfg.typing_predicate))
            instances = [term_from_binding(_bound(r, "instance"), self._iris) for r in rows]
            instances = [i for i in instances if isinstance(i, Iri)]
            instances.sort(key=_wikidata_id_sort_key)
            return instances[:n]
        rows = self._rows(instance_richness_query(class_iri, self.cfg.typing_predicate))
        ranked = []
        for row in rows:
            instance = term_from_binding(_bound(row, "instance"), self._iris)
            if isinstance(instance, Iri):
                ranked.append((-_int_value(row, "count"), instance))
        ranked.sort()
        return [instance for _, instance in ranked[:n]]

    def instance_triples(self, instance: Iri) -> list[Triple]:
        """One-hop triples of an instance, with English labels."""
        rows = self._rows(instance_triples_query(instance))
        iris = self._iris
        pairs = [(term_from_binding(_bound(row, "predicate"), iris), term_from_binding(_bound(row, "object"), iris))
                 for row in rows]
        return self._labelled_triples(
            instance, [(instance, p, self._labeled_form(p), o) for p, o in pairs if isinstance(p, Iri)])

    def triple_examples(self, class_iri: Iri, predicate: Iri) -> list[Triple]:
        rows = self._rows(triple_examples_query(class_iri, predicate, self.cfg.typing_predicate))
        labeled = self._labeled_form(predicate)
        iris = self._iris
        pairs = [(term_from_binding(_bound(row, "subject"), iris), term_from_binding(_bound(row, "object"), iris))
                 for row in rows]
        kept = [(s, predicate, labeled, o) for s, o in pairs if isinstance(s, Iri) and not isinstance(o, BlankNode)]
        # cut before labelling: a row past the limit must cost no lookup
        return self._labelled_triples(labeled, kept[:TRIPLE_EXAMPLES])

    def _labelled_triples(self, first: Iri, rows: list[tuple[Iri, Iri, Iri, Term]]) -> list[Triple]:
        """Triples with English labels from (subject, predicate, the
        predicate's labelled form, object) rows.  ``first``'s label is looked
        up before any other, even with no rows; literal and blank-node objects
        get none."""
        label = self.label_of
        label(first)
        return [Triple(s, p, o, label(s), label(form), label(o) if isinstance(o, Iri) else None)
                for s, p, form, o in rows]

    def label_of(self, term: Iri) -> str | None:
        # the most frequent lookup, so its hit is inlined: one dict get
        hit = self._lookups.get(term.value)
        if hit is None:
            return self._term_lookup(term.value, lambda: label_query(term), _first_value, "label")
        self.keys_touched.add(hit[0])
        return hit[1]

    def description_of(self, term: Iri) -> str | None:
        predicate = self.cfg.description_predicate
        return self._term_lookup(("description", term.value, predicate.value),
                                 lambda: description_query(term, predicate), _first_value, "description")

    def _labeled_form(self, predicate: Iri) -> Iri:
        # Wikidata labels live on the property entity, not the direct-property IRI.
        direct_ns = "http://www.wikidata.org/prop/direct/"
        if self.cfg.kg_kind is KgKind.WIKIDATA and predicate.value.startswith(direct_ns):
            return self._iris["http://www.wikidata.org/entity/" + predicate.value[len(direct_ns):]]
        return predicate

    def global_candidates(self, class_iri: Iri, max_candidates: int | None = None) -> list[Iri]:
        """The predicates the global setting profiles: the class's predicates by
        descending frequency without the typing predicate, the first
        ``max_candidates`` of them (all when None)."""
        frequencies = self._frequency_table(class_iri)
        return [p for p in frequencies if p != self.cfg.typing_predicate][:max_candidates]

    def sampled_triples(self, class_iri: Iri, samples: int) -> list[tuple[Iri, list[Triple]]]:
        """The local setting's profile: up to ``samples`` instances
        (:meth:`sample_instances`), each with its one-hop triples."""
        return [(instance, self.instance_triples(instance)) for instance in self.sample_instances(class_iri, samples)]

    def triple_groups(self, class_iri: Iri, max_candidates: int | None = None) -> dict[Iri, list[Triple]]:
        """The triples setting's profile: example triples for the class's first
        ``max_candidates`` predicates by frequency (all when None), the typing
        predicate included, as its examples show class membership."""
        return {p: self.triple_examples(class_iri, p) for p in list(self._frequency_table(class_iri))[:max_candidates]}

    def global_records(self, class_iri: Iri, predicates: list[Iri],
                       fields: RecordField = ALL_FIELDS) -> list[GlobalPredicateRecord]:
        """The global setting's profile: one :meth:`build_global_record` per
        predicate.  The class-level reads every record needs come first, so
        their failure raises before any record is built."""
        self.instance_count(class_iri)
        self._frequency_table(class_iri)
        return [self.build_global_record(class_iri, predicate, fields) for predicate in predicates]

    def property_constraint_classes(self, predicate: Iri, constraint_type: Iri) -> tuple[Iri, ...]:
        if self.cfg.kg_kind is not KgKind.WIKIDATA:
            return ()
        return self._term_lookup(("constraint", predicate.value, constraint_type.value),
                                 lambda: property_constraint_query(self._labeled_form(predicate), constraint_type),
                                 _sorted_iris, "class", self._iris)

    def is_subclass_of(self, c: Iri, c_prime: Iri) -> bool:
        """Reflexive-transitive subclass test, bounded to
        :data:`_SUBCLASS_MAX_DEPTH` steps."""
        if c == c_prime:
            return True
        predicate = self.cfg.subclass_predicate
        return self._term_lookup(("subclass", c.value, c_prime.value, predicate.value),
                                 lambda: subclass_path_query(c, c_prime, predicate), _boolean)

    def build_global_record(self, class_iri: Iri, predicate: Iri,
                            fields: RecordField = ALL_FIELDS) -> GlobalPredicateRecord:
        """Compose the per-predicate profile that feeds prompts and features.

        Frequency is required and always built.  The cardinality
        distribution, object profiles, examples, labels with descriptions,
        and the two Wikidata constraint lists are best-effort parts, each
        tracked by its completeness bits; only the parts with a bit in
        ``fields`` are looked up, and the others keep their empty defaults.
        """
        total = self.instance_count(class_iri)
        used = self._frequency_table(class_iri).get(predicate, 0)
        fields = int(fields)
        completeness = _FREQUENCY_BITS
        values: dict = {}
        constraints = self.property_constraint_classes

        def cardinality() -> None:
            histogram = self.cardinality_distribution(class_iri, predicate)
            values["cardinality_distribution"] = {k: (v / total if total else 0.0) for k, v in histogram.items()}

        def object_profiles() -> None:
            datatype_hist, class_hist = self.object_profiles(class_iri, predicate)
            values["datatype_of_objects"] = _shares(datatype_hist)
            values["object_class_distribution"] = _shares(class_hist)

        def examples() -> None:
            values["triple_examples"] = tuple(self.triple_examples(class_iri, predicate))

        def labels() -> None:
            values["class_label"] = self.label_of(class_iri)
            values["class_description"] = self.description_of(class_iri)
            labeled_predicate = self._labeled_form(predicate)
            values["predicate_label"] = self.label_of(labeled_predicate)
            values["predicate_description"] = self.description_of(labeled_predicate)

        def subject_types() -> None:
            values["subject_type_constraint"] = constraints(predicate, WIKIDATA_SUBJECT_TYPE_CONSTRAINT)

        def value_types() -> None:
            values["value_type_constraint"] = constraints(predicate, WIKIDATA_VALUE_TYPE_CONSTRAINT)

        # Each part is best-effort: a failed lookup keeps what the part read
        # before it and leaves the part's completeness bits unset; a record
        # with failed parts logs once, naming each part and its reason.
        parts = [
            (_CARDINALITY_BITS, "cardinality distribution", cardinality),
            (_OBJECT_PROFILE_BITS, "object profiles", object_profiles),
            (_EXAMPLES_BITS, "triple examples", examples),
            (_LABELS_BITS, "labels", labels),
        ]
        if self.cfg.kg_kind is KgKind.WIKIDATA:
            parts += [(_SUBJECT_TYPE_BITS, "subject-type constraints", subject_types),
                      (_VALUE_TYPE_BITS, "value-type constraints", value_types)]
        # the reasons are kept as text: an exception kept past its handler
        # holds this frame through its traceback, a cycle only gc frees
        failed: list[tuple[str, str]] = []
        for bits, name, read in parts:
            if not bits & fields:
                continue
            try:
                read()
                completeness |= bits
            except (EndpointError, CacheMissError) as exc:
                failed.append((name, str(exc)))
        if failed:
            if len(failed) == 1:
                [(names, reasons)] = failed
            else:
                names = ", ".join(name for name, _ in failed)
                reasons = "; ".join(f"{name}: {reason}" for name, reason in failed)
            log.warning("%s unavailable for %s / %s: %s", names, class_iri, predicate, reasons)

        try:
            return GlobalPredicateRecord(
                class_uri=class_iri,
                predicate_uri=predicate,
                frequency=min((used / total) if total else 0.0, 1.0),
                completeness=RecordField(completeness),
                **values,
            )
        except ValueError as exc:
            # the counts come from the endpoint: a share outside [0,1] means
            # its answers disagree with each other
            raise MalformedResultsError(f"inconsistent profile of {class_iri} / {predicate}: {exc}") from exc


def _bindings(doc: dict) -> list[dict]:
    try:
        return doc["results"]["bindings"]
    except (KeyError, TypeError) as exc:
        raise MalformedResultsError(f"results document has no bindings: {exc}") from exc


def _boolean(doc: dict) -> bool:
    try:
        return bool(doc["boolean"])
    except (KeyError, TypeError) as exc:
        raise MalformedResultsError("ASK response carries no boolean") from exc


def _first_value(doc: dict, variable: str) -> str | None:
    rows = _bindings(doc)
    return _bound(rows[0], variable)["value"] if rows else None


def _sorted_iris(doc: dict, variable: str, iris: IriTable) -> tuple[Iri, ...]:
    terms = [term_from_binding(_bound(row, variable), iris) for row in _bindings(doc)]
    return tuple(sorted(term for term in terms if isinstance(term, Iri)))


def _shares(histogram: dict[str, int]) -> dict[str, float]:
    """Each key's share of the histogram's total, in the histogram's order."""
    total = sum(histogram.values())
    return {k: v / total for k, v in histogram.items()} if total else {}


def _wikidata_id_sort_key(iri: Iri) -> tuple[int, int, str]:
    local = iri.local_name()
    match = re.fullmatch(r"Q(\d+)", local)
    numeric = int(match.group(1)) if match else 10**18
    return (len(local), numeric, iri.value)


class KgSubclassOracle:
    """Subclass oracle over a cached KG client (value types on Wikidata only)."""

    def __init__(self, client: KgClient):
        self._client = client

    def is_subclass_of(self, c: Iri, c_prime: Iri) -> bool:
        return self._client.is_subclass_of(c, c_prime)

    def value_type_classes(self, predicate: Iri) -> frozenset[Iri]:
        try:
            return frozenset(self._client.property_constraint_classes(predicate, WIKIDATA_VALUE_TYPE_CONSTRAINT))
        except (EndpointError, CacheMissError):
            return frozenset()
