from __future__ import annotations

import errno
import gzip
import json
import os
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shexbench import kginfo
from shexbench.generate import StubLlmClient, StubReplyMissingError, prompt_hash
from shexbench.kginfo import (
    ALL_FIELDS,
    CacheMissError,
    CacheStore,
    EndpointConfig,
    EndpointError,
    GlobalPredicateRecord,
    IriTable,
    KgClient,
    KgKind,
    KgSubclassOracle,
    LocalFileError,
    MalformedResultsError,
    TRIPLE_EXAMPLES,
    WIKIDATA_SUBJECT_TYPE_CONSTRAINT,
    WIKIDATA_VALUE_TYPE_CONSTRAINT,
    RecordField,
    _RetryableEndpointError,
    atomic_write_text,
    cache_key,
    frequency_query,
    http_transport,
    instance_count_query,
    instance_triples_query,
    label_query,
    post,
    read_small_file,
    term_from_binding,
    triple_examples_query,
)
from shexbench.model import Iri, Literal
from support import (
    WD,
    WDT,
    XSD,
    FakeEndpoint,
    LoopbackServer,
    award_endpoint_config,
    build_award_endpoint,
    build_benchmark_endpoint,
    refused_url,
    term_lookup_query,
    write_benchmark_manifest,
)

AWARD = Iri(WD + "Q4220917")
COUNTRY_PRED = Iri(WDT + "P17")
INCEPTION = Iri(WDT + "P571")
WEBSITE = Iri(WDT + "P856")
CONFERRED = Iri(WDT + "P1027")


@pytest.fixture()
def endpoint():
    return build_award_endpoint()


@pytest.fixture()
def sleeps(monkeypatch):
    """The retry backoff's sleeps, recorded instead of slept."""
    slept = []
    monkeypatch.setattr(kginfo.time, "sleep", slept.append)
    return slept


@pytest.fixture()
def client(endpoint, tmp_path):
    return KgClient(award_endpoint_config(tmp_path / "cache"), transport=endpoint)


class TestQueries:
    def test_predicate_frequencies(self, client):
        frequencies = client.predicate_frequencies(AWARD)
        assert frequencies[COUNTRY_PRED] == 10
        assert frequencies[Iri(WDT + "P31")] == 10
        assert frequencies[INCEPTION] == 6
        assert frequencies[WEBSITE] == 5
        counts = list(frequencies.values())
        assert counts == sorted(counts, reverse=True)

    def test_zero_instance_class(self, client):
        assert client.predicate_frequencies(Iri(WD + "Q999999")) == {}

    def test_cardinality_distribution(self, client):
        assert client.cardinality_distribution(AWARD, COUNTRY_PRED) == {1: 10}
        assert client.cardinality_distribution(AWARD, WEBSITE) == {1: 3, 2: 2}

    def test_count_missing(self, client):
        assert client.count_missing(AWARD, COUNTRY_PRED) == 0
        assert client.count_missing(AWARD, INCEPTION) == 4
        assert client.count_missing(AWARD, Iri(WDT + "P9999")) == 10

    def test_missing_plus_distribution_is_instance_count(self, client):
        total = client.instance_count(AWARD)
        for predicate in (COUNTRY_PRED, INCEPTION, WEBSITE, CONFERRED, Iri(WDT + "P9999")):
            histogram = client.cardinality_distribution(AWARD, predicate)
            assert client.count_missing(AWARD, predicate) + sum(histogram.values()) == total

    def test_object_profiles(self, client):
        datatypes, classes = client.object_profiles(AWARD, INCEPTION)
        assert datatypes == {XSD + "dateTime": 6}
        assert classes == {}
        datatypes, classes = client.object_profiles(AWARD, COUNTRY_PRED)
        assert datatypes == {"IRI": 10}
        assert classes == {WD + "Q6256": 10}

    def test_mixed_object_class_distribution(self, tmp_path):
        endpoint = FakeEndpoint()
        typing = WDT + "P31"
        for i in range(8):
            endpoint.add_instance(WD + "QA", WD + f"Qa{i}", [], typing)
        for i in range(2):
            endpoint.add_instance(WD + "QB", WD + f"Qb{i}", [], typing)
        objects = [WD + f"Qa{i}" for i in range(8)] + [WD + f"Qb{i}" for i in range(2)]
        for i, obj in enumerate(objects):
            endpoint.add_instance(WD + "QC", WD + f"Qc{i}", [(WDT + "P9", Iri(obj))], typing)
        client = KgClient(award_endpoint_config(tmp_path), transport=endpoint)
        record = client.build_global_record(Iri(WD + "QC"), Iri(WDT + "P9"))
        assert record.object_class_distribution == {
            WD + "QA": pytest.approx(0.8),
            WD + "QB": pytest.approx(0.2),
        }


class TestSampling:
    def test_wikidata_order_by_id(self, tmp_path):
        endpoint = FakeEndpoint()
        typing = WDT + "P31"
        for qid in ("Q105447", "Q154590", "Q1"):
            endpoint.add_instance(WD + "QC", WD + qid, [], typing)
        client = KgClient(award_endpoint_config(tmp_path), transport=endpoint)
        sample = client.sample_instances(Iri(WD + "QC"), 2)
        assert sample == [Iri(WD + "Q1"), Iri(WD + "Q105447")]

    def test_yago_order_by_predicate_count(self, tmp_path):
        endpoint = FakeEndpoint()
        typing = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        rich = [("http://example.org/p%d" % i, Iri("http://example.org/o%d" % i)) for i in range(12)]
        poor = [("http://example.org/p%d" % i, Iri("http://example.org/o%d" % i)) for i in range(3)]
        endpoint.add_instance("http://schema.org/Book", "http://example.org/e2", poor, typing)
        endpoint.add_instance("http://schema.org/Book", "http://example.org/e1", rich, typing)
        cfg = EndpointConfig(
            endpoint_url="https://yago.example.org/sparql",
            kg_kind=KgKind.YAGO,
            typing_predicate=Iri(typing),
            cache_dir=tmp_path,
        )
        client = KgClient(cfg, transport=endpoint)
        sample = client.sample_instances(Iri("http://schema.org/Book"), 1)
        assert sample == [Iri("http://example.org/e1")]

    def test_oversized_sample_returns_population(self, client):
        sample = client.sample_instances(AWARD, 500)
        assert len(sample) == 10


class TestCache:
    def test_replay_is_identical_and_networkless(self, endpoint, client):
        first = client.predicate_frequencies(AWARD)
        requests_after_first = endpoint.request_count
        second = client.predicate_frequencies(AWARD)
        assert endpoint.request_count == requests_after_first
        assert json.dumps(str(first)) == json.dumps(str(second))

    def test_cache_shared_across_clients(self, endpoint, client, tmp_path):
        client.cardinality_distribution(AWARD, WEBSITE)
        requests = endpoint.request_count
        fresh = KgClient(award_endpoint_config(tmp_path / "cache"), transport=endpoint)
        assert fresh.cardinality_distribution(AWARD, WEBSITE) == {1: 3, 2: 2}
        assert endpoint.request_count == requests

    def test_offline_cold_key_raises_cache_miss(self, endpoint, tmp_path):
        offline = KgClient(award_endpoint_config(tmp_path / "cold", offline=True), transport=endpoint)
        with pytest.raises(CacheMissError) as exc:
            offline.instance_count(AWARD)
        assert exc.value.key in str(exc.value)
        assert endpoint.request_count == 0

    def test_offline_warm_cache_serves(self, endpoint, client, tmp_path):
        client.instance_count(AWARD)
        requests = endpoint.request_count
        offline = KgClient(award_endpoint_config(tmp_path / "cache", offline=True), transport=endpoint)
        assert offline.instance_count(AWARD) == 10
        assert endpoint.request_count == requests

    def test_concurrent_identical_misses_single_flight(self, tmp_path):
        calls = []

        def slow_transport(query):
            calls.append(query)
            time.sleep(0.05)
            return {"head": {"vars": ["count"]}, "results": {"bindings": [
                {"count": {"type": "literal", "value": "3",
                           "datatype": XSD + "integer"}}]}}

        client = KgClient(award_endpoint_config(tmp_path), transport=slow_transport)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(client.instance_count(AWARD)))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert results == [3, 3, 3, 3]

    def test_separate_clients_write_one_key_concurrently(self, tmp_path):
        """With --jobs, each class has its own client, so the single-flight
        lock does not serialize them: every thread fetches and writes."""
        def count_results(barrier):
            def transport(query):
                barrier.wait(timeout=10)  # all fetches finish together, so the writes overlap
                return {"head": {"vars": ["count"]}, "results": {"bindings": [
                    {"count": {"type": "literal", "value": "3", "datatype": XSD + "integer"}}]}}
            return transport

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                cache = tmp_path / str(trial)
                transport = count_results(threading.Barrier(8))
                results, errors = [], []

                def work():
                    try:
                        client = KgClient(award_endpoint_config(cache), transport=transport)
                        results.append(client.instance_count(AWARD))
                    except Exception as exc:  # collected and asserted below
                        errors.append(exc)

                threads = [threading.Thread(target=work) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert errors == []
                assert results == [3] * 8
                files = list(cache.iterdir())
                assert len(files) == 1 and files[0].suffix == ".json"
                assert json.loads(files[0].read_text())["results_document"]["results"]["bindings"]
        finally:
            sys.setswitchinterval(interval)

    def test_cache_file_is_inspectable(self, client, endpoint, tmp_path):
        client.instance_count(AWARD)
        files = list((tmp_path / "cache").glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert {"endpoint", "query", "fetched_at", "results_document"} <= set(doc)
        assert cache_key(doc["query"], doc["endpoint"]) == files[0].stem

    def test_retry_then_success(self, tmp_path, sleeps):
        attempts = []

        def flaky(query):
            attempts.append(query)
            if len(attempts) < 3:
                raise _RetryableEndpointError("HTTP 503")
            return {"head": {"vars": ["count"]}, "results": {"bindings": [
                {"count": {"type": "literal", "value": "1",
                           "datatype": XSD + "integer"}}]}}

        client = KgClient(award_endpoint_config(tmp_path), transport=flaky)
        assert client.instance_count(AWARD) == 1
        assert len(attempts) == 3
        assert sleeps == [0.5, 1.0]

    def test_retries_exhausted(self, tmp_path, sleeps):
        def always_busy(query):
            raise _RetryableEndpointError("HTTP 429")

        client = KgClient(award_endpoint_config(tmp_path), transport=always_busy)
        with pytest.raises(EndpointError):
            client.instance_count(AWARD)
        assert sleeps == [0.5, 1.0, 2.0]

    def test_malformed_document(self, tmp_path):
        client = KgClient(award_endpoint_config(tmp_path), transport=lambda q: {"nope": 1})
        with pytest.raises(MalformedResultsError):
            client.instance_count(AWARD)


COUNT_DOC = {"head": {"vars": ["count"]}, "results": {"bindings": [
    {"count": {"type": "literal", "value": "7", "datatype": XSD + "integer"}}]}}


class TestHttpTransport:
    """The default transport against a real HTTP server on the loopback."""

    def _send(self, tmp_path, url, query="ASK { ?s ?p ?o }"):
        return http_transport(replace(award_endpoint_config(tmp_path), endpoint_url=url))(query)

    def test_request_is_a_form_encoded_query_post(self, tmp_path):
        from urllib.parse import parse_qs

        query = "SELECT ?label WHERE { <http://example.org/é> rdfs:label ?label } # a+b&c"
        with LoopbackServer((200, json.dumps(COUNT_DOC))) as server:
            assert self._send(tmp_path, server.url, query) == COUNT_DOC
        ((path, headers, body),) = server.requests
        assert path == "/sparql"
        assert headers["Content-Type"] == "application/x-www-form-urlencoded"
        assert parse_qs(body.decode("ascii"), strict_parsing=True) == {"query": [query]}
        assert headers["Accept"] == "application/sparql-results+json"
        assert headers["User-Agent"].startswith("shexbench/0.1")

    def test_client_error_names_status_and_body(self, tmp_path):
        with LoopbackServer((404, "no such endpoint" + "x" * 300)) as server:
            with pytest.raises(EndpointError, match=r"HTTP 404 from .*: no such endpoint") as caught:
                self._send(tmp_path, server.url)
        assert not isinstance(caught.value, _RetryableEndpointError)
        assert str(caught.value).endswith("no such endpoint" + "x" * 184)

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_busy_or_server_error_is_retryable(self, tmp_path, status):
        with LoopbackServer((status, "try later")) as server:
            with pytest.raises(_RetryableEndpointError, match=f"HTTP {status} from"):
                self._send(tmp_path, server.url)

    def test_non_json_body_is_malformed(self, tmp_path):
        with LoopbackServer((200, "<html>maintenance</html>")) as server:
            with pytest.raises(MalformedResultsError, match="non-JSON response"):
                self._send(tmp_path, server.url)

    def test_deeply_nested_body_is_malformed(self, tmp_path):
        with LoopbackServer((200, "[" * 100_000 + "]" * 100_000)) as server:
            with pytest.raises(MalformedResultsError, match="non-JSON response"):
                self._send(tmp_path, server.url)

    @pytest.mark.parametrize("url", [None, "localhost:9/sparql", "file:///dev/null"],
                             ids=["refused-port", "no-scheme", "file-scheme"])
    def test_no_response_is_an_endpoint_error(self, tmp_path, url):
        url = url or refused_url()
        with pytest.raises(EndpointError, match=f"request to {re.escape(url)} failed: "):
            self._send(tmp_path, url)


    def test_gzip_body_is_decoded(self, tmp_path):
        gzipped = gzip.compress(json.dumps(COUNT_DOC).encode("utf-8"))
        with LoopbackServer((200, gzipped, {"Content-Encoding": "gzip"})) as server:
            assert self._send(tmp_path, server.url) == COUNT_DOC
        ((_, headers, _),) = server.requests
        assert headers["Accept-Encoding"] == "gzip"

    def test_corrupt_gzip_body_is_no_response(self, tmp_path):
        with LoopbackServer((200, b"\x1f\x8b not gzip", {"Content-Encoding": "gzip"})) as server:
            with pytest.raises(EndpointError, match=f"request to {re.escape(server.url)} failed: "):
                self._send(tmp_path, server.url)


class TestPost:
    """``post`` returns a redirect as its status and sends nothing to its target."""

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_returned_not_followed(self, status):
        with LoopbackServer((200, "unreached")) as target:
            with LoopbackServer((status, "moved", {"Location": target.url})) as server:
                answer = post(server.url, b"query=x", {"Authorization": "Bearer secret"}, 5.0)
        assert answer == (status, b"moved")
        assert len(server.requests) == 1
        assert not target.requests

    def test_redirect_to_another_scheme_is_returned(self):
        with LoopbackServer((302, "moved", {"Location": "ftp://127.0.0.1/x"})) as server:
            assert post(server.url, b"", {}, 5.0) == (302, b"moved")


class TestRetryOverHttp:
    """``KgClient``'s backoff over the default transport and a loopback server."""

    def test_busy_then_ok_is_fetched_once(self, tmp_path, sleeps):
        with LoopbackServer((429, "slow down"), (200, json.dumps(COUNT_DOC))) as server:
            client = KgClient(replace(award_endpoint_config(tmp_path), endpoint_url=server.url))
            assert client.instance_count(AWARD) == 7
        assert len(server.requests) == 2
        assert sleeps == [0.5]
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_unavailable_on_every_attempt_fails_after_four(self, tmp_path, sleeps):
        with LoopbackServer((503, "unavailable")) as server:
            client = KgClient(replace(award_endpoint_config(tmp_path), endpoint_url=server.url))
            with pytest.raises(EndpointError, match="HTTP 503 from"):
                client.instance_count(AWARD)
        assert len(server.requests) == 4
        assert sleeps == [0.5, 1.0, 2.0]
        assert not list(tmp_path.glob("*.json"))

    def test_extract_reports_an_unavailable_endpoint_per_class(self, tmp_path, sleeps):
        from shexbench.cli import EXIT_NETWORK, cmd_extract

        with LoopbackServer((503, "unavailable")) as server:
            manifest = write_benchmark_manifest(tmp_path, endpoint_url=server.url)
            code, report = cmd_extract(manifest, tmp_path / "cache", "global")
        assert code == EXIT_NETWORK
        assert [r["status"] for r in report["classes"]] == ["error"] * 3
        assert all("HTTP 503 from" in r["error"] for r in report["classes"])
        assert len(server.requests) == 3 * 4

    @staticmethod
    def _award_count_unavailable():
        """A loopback answer: the benchmark endpoint's, except 503 for the
        film award's instance count; and the list the count requests go to."""
        from urllib.parse import parse_qs

        from support import sparql_answer

        answer, asked = sparql_answer(build_benchmark_endpoint()), []
        count_query = instance_count_query(Iri(WD + "Q4220917"), Iri(WDT + "P31"))

        def unavailable(path, headers, body):
            if parse_qs(body.decode("ascii"))["query"] == [count_query]:
                asked.append(body)
                return 503, "unavailable"
            return answer(path, headers, body)

        return unavailable, asked

    def test_generate_fails_a_class_whose_instance_count_is_unavailable(self, tmp_path, sleeps, caplog):
        """The class's instance count is read once, before its predicates: four
        attempts, one backoff, and the class is an ``error``, not ``failed``."""
        from shexbench.cli import EXIT_NETWORK, cmd_generate
        from support import benchmark_rule_client

        answer, asked = self._award_count_unavailable()
        with LoopbackServer(answer=answer) as server:
            manifest = write_benchmark_manifest(tmp_path, endpoint_url=server.url)
            code, report = cmd_generate(manifest, tmp_path / "out", tmp_path / "cache", "global",
                                        classes=["film award"], llm_client=benchmark_rule_client())
        assert (code, [r["status"] for r in report["classes"]]) == (EXIT_NETWORK, ["error"])
        assert "HTTP 503 from" in report["classes"][0]["error"]
        assert len(asked) == 4 and sleeps == [0.5, 1.0, 2.0]
        assert not [r for r in caplog.records if "skipping predicate" in r.getMessage()]

    def test_train_skips_a_class_whose_instance_count_is_unavailable(self, tmp_path, sleeps, caplog):
        """Train reads each class's instance count once, before its rows, and
        skips the class with one warning when it fails."""
        from shexbench.cli import EXIT_OK, cmd_train_cardinality

        answer, asked = self._award_count_unavailable()
        with LoopbackServer(answer=answer) as server:
            manifest = write_benchmark_manifest(tmp_path, endpoint_url=server.url)
            with caplog.at_level("WARNING", logger="shexbench.cli"):
                code, report = cmd_train_cardinality(manifest, tmp_path / "cache", tmp_path / "m.json", kind="dt")
        assert code == EXIT_OK
        assert report["classes"] == [WD + "Q1248784", WD + "Q33506"]
        assert len(asked) == 4 and sleeps == [0.5, 1.0, 2.0]
        skipped = [r.getMessage() for r in caplog.records if r.name == "shexbench.cli"]
        assert len(skipped) == 1 and skipped[0].startswith(f"skipping {WD}Q4220917: HTTP 503 from")


class TestCacheWriter:
    def test_cache_file_is_one_line_of_json(self, tmp_path):
        doc = {"head": {"vars": ["label"]}, "results": {"bindings": [
            {"label": {"type": "literal", "value": "Musée d'Orsay", "xml:lang": "fr"}}]}}
        client = KgClient(award_endpoint_config(tmp_path), transport=lambda query: doc)
        assert client.label_of(AWARD) == "Musée d'Orsay"
        (path,) = tmp_path.glob("*.json")
        data = path.read_bytes()
        assert b"\n" not in data and b": " not in data
        assert "Musée d'Orsay".encode("utf-8") in data
        written = json.loads(data)
        assert list(written) == ["endpoint", "query", "fetched_at", "results_document"]
        assert written["results_document"] == doc
        assert KgClient._read_cache(path) == doc

    def test_indented_cache_files_read_the_same(self, tmp_path):
        """A warm cache rewritten in the indented format older versions wrote
        gives the same offline records and extract report."""
        from shexbench.cli import cmd_extract, entry_endpoint_config, load_manifest

        endpoint = build_benchmark_endpoint()
        manifest = write_benchmark_manifest(tmp_path)
        cache = tmp_path / "cache"
        cmd_extract(manifest, cache, "global", transport_factory=lambda cfg: endpoint)
        requests = endpoint.request_count

        def offline_run():
            code, report = cmd_extract(manifest, cache, "global", offline=True)
            records = []
            for entry in load_manifest(manifest).entries:
                kg = KgClient(entry_endpoint_config(entry, cache, offline=True))
                records += [kg.build_global_record(entry.class_uri, p) for p in kg.global_candidates(entry.class_uri)]
            return code, [{k: v for k, v in row.items() if k != "seconds"} for row in report["classes"]], records

        compact = offline_run()
        files = sorted(cache.glob("*.json"))
        for path in files:
            assert path.read_bytes().count(b"\n") == 0
            doc = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps(doc, indent=2, ensure_ascii=False), encoding="utf-8")
        assert offline_run() == compact
        assert compact[0] == 0 and len(compact[2]) > 0
        assert endpoint.request_count == requests

    def test_parent_directory_made_only_when_missing(self, tmp_path, monkeypatch):
        calls = []
        for name in ("mkdir", "makedirs"):
            original = getattr(os, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(os, name, counted)
        target = tmp_path / "a" / "b" / "first.json"
        atomic_write_text(target, "first")
        assert target.read_text(encoding="utf-8") == "first"
        assert calls
        calls.clear()
        atomic_write_text(target.with_name("second.json"), "second")
        atomic_write_text(str(target), "replaced")
        assert calls == []
        assert sorted(p.name for p in target.parent.iterdir()) == ["first.json", "second.json"]
        assert target.read_text(encoding="utf-8") == "replaced"

    @pytest.mark.parametrize("fault", ["directory", "rename enospc", "write enospc"])
    def test_failed_cache_write_leaves_no_temp_file(self, endpoint, client, tmp_path, monkeypatch, fault):
        """A directory at the cache path, or a full disk at the temp file's
        write or at the rename, fails the write naming the file."""
        query = instance_count_query(AWARD, Iri(WDT + "P31"))
        target = tmp_path / "cache" / "key.json"
        if fault == "directory":
            target.mkdir(parents=True)
        else:
            def full_disk(*args, **kwargs):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            monkeypatch.setattr(os, "replace" if fault == "rename enospc" else "write", full_disk)
        with pytest.raises(LocalFileError, match=re.escape(f"cannot write {target}")):
            client._write_cache(target, query, endpoint(query))
        monkeypatch.undo()
        assert [p.name for p in target.parent.iterdir()] == ([target.name] if fault == "directory" else [])


AWARD_PREDICATES = (Iri(WDT + "P31"), COUNTRY_PRED, INCEPTION, WEBSITE, CONFERRED)


class TestReadSmallFile:
    """The one raw reader of cache files and recorded replies."""

    @settings(deadline=None)
    @given(st.one_of(st.integers(0, 3 * 64 * 1024 + 512),
                     st.sampled_from([1, 64 * 1024 - 1, 64 * 1024, 64 * 1024 + 1, 2 * 64 * 1024, 3 * 64 * 1024 + 1])),
           st.integers(0, 2**32))
    def test_reads_what_path_read_bytes_reads(self, size, seed):
        import random
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.json"
            path.write_bytes(random.Random(seed).randbytes(size))
            assert read_small_file(path) == read_small_file(str(path)) == path.read_bytes()

    def test_directory_at_a_cache_path_names_the_path(self, endpoint, tmp_path):
        cfg = award_endpoint_config(tmp_path / "cache", offline=True)
        path = tmp_path / "cache" / f"{cache_key(instance_count_query(AWARD, cfg.typing_predicate), cfg.endpoint_url)}.json"
        path.mkdir(parents=True)
        with pytest.raises(LocalFileError, match=f"cannot read cache file {re.escape(str(path))}: "):
            KgClient(cfg, transport=endpoint).instance_count(AWARD)

    def test_directory_at_a_stub_path_is_a_missing_reply(self, tmp_path):
        messages = [{"role": "user", "content": "anything"}]
        path = tmp_path / f"{prompt_hash(messages)}.json"
        path.mkdir()
        with pytest.raises(StubReplyMissingError, match=f"cannot read stub file {re.escape(str(path))}: "):
            StubLlmClient(tmp_path).send(messages)

    def test_truncated_cache_file_is_malformed(self, endpoint, client, tmp_path):
        client.instance_count(AWARD)
        (path,) = (tmp_path / "cache").glob("*.json")
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(MalformedResultsError, match=f"corrupt cache file {re.escape(str(path))}: "):
            KgClient._read_cache(str(path))

    def test_missing_cache_file_is_a_miss(self, endpoint, client, tmp_path):
        assert KgClient._read_cache(str(tmp_path / "cache" / "missing.json")) is None
        assert client.instance_count(AWARD) == 10
        assert endpoint.request_count == 1


class TestDocumentTable:
    """Each client reads and parses a cache file once; misses are not remembered."""

    def test_warm_cache_file_read_at_most_once_per_client(self, endpoint, client, tmp_path, monkeypatch):
        for predicate in AWARD_PREDICATES:
            client.build_global_record(AWARD, predicate)
        reads = []
        original = KgClient._read_cache

        def counting(path):
            reads.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(KgClient, "_read_cache", staticmethod(counting))
        requests = endpoint.request_count
        warm = KgClient(award_endpoint_config(tmp_path / "cache", offline=True), transport=endpoint)
        for predicate in AWARD_PREDICATES:
            warm.build_global_record(AWARD, predicate)
        assert endpoint.request_count == requests
        assert reads and len(reads) == len(set(reads))
        assert set(reads) == {f"{key}.json" for key in warm.keys_touched}

    def test_offline_miss_is_not_remembered(self, endpoint, tmp_path):
        cache = tmp_path / "cache"
        offline = KgClient(award_endpoint_config(cache, offline=True), transport=endpoint)
        for _ in range(2):
            with pytest.raises(CacheMissError):
                offline.instance_count(AWARD)
        KgClient(award_endpoint_config(cache), transport=endpoint).instance_count(AWARD)
        assert offline.instance_count(AWARD) == 10

    def test_class_tables_are_read_once_per_client(self, client, monkeypatch):
        """A class's instance count and frequency table are looked up once per
        client, however many records are built, and no record copies the
        frequency table."""
        queries, copies = [], []
        cached_query, predicate_frequencies = KgClient.cached_query, KgClient.predicate_frequencies
        monkeypatch.setattr(KgClient, "cached_query",
                            lambda self, query, **kw: queries.append(query) or cached_query(self, query, **kw))
        monkeypatch.setattr(KgClient, "predicate_frequencies",
                            lambda self, class_iri: copies.append(class_iri) or predicate_frequencies(self, class_iri))
        for _ in range(2):
            for predicate in AWARD_PREDICATES:
                client.build_global_record(AWARD, predicate)
        typing = Iri(WDT + "P31")
        sent = Counter(queries)
        assert sent[instance_count_query(AWARD, typing)] == sent[frequency_query(AWARD, typing)] == 1
        assert copies == []
        assert client.instance_count(AWARD) == 10

    def test_hits_count_as_touched_keys(self, client):
        client.cardinality_distribution(AWARD, WEBSITE)
        client.keys_touched.clear()
        client.cardinality_distribution(AWARD, WEBSITE)
        assert len(client.keys_touched) == 1

    def test_frequencies_are_a_fresh_dict_per_call(self, client):
        first = client.predicate_frequencies(AWARD)
        expected = dict(first)
        first.clear()
        first[WEBSITE] = 99
        assert client.predicate_frequencies(AWARD) == expected
        assert client.predicate_frequencies(AWARD) is not client.predicate_frequencies(AWARD)

    def test_records_equal_a_fresh_client_per_call(self, endpoint, client, tmp_path):
        shared = [client.build_global_record(AWARD, predicate) for predicate in AWARD_PREDICATES]
        fresh = [
            KgClient(award_endpoint_config(tmp_path / "cache", offline=True), transport=endpoint)
            .build_global_record(AWARD, predicate)
            for predicate in AWARD_PREDICATES
        ]
        assert shared == fresh

    def test_threads_sharing_a_client_fetch_each_key_once(self, endpoint, client, tmp_path):
        expected = [
            KgClient(award_endpoint_config(tmp_path / "reference"), transport=build_award_endpoint())
            .build_global_record(AWARD, predicate)
            for predicate in AWARD_PREDICATES
        ]
        results, errors = [], []

        def work():
            try:
                results.append([client.build_global_record(AWARD, p) for p in AWARD_PREDICATES])
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert results == [expected] * 8
        assert len(endpoint.request_log) == len(set(endpoint.request_log)) == len(client.keys_touched)

    def test_corrupt_cache_file_names_the_file(self, endpoint, client, tmp_path):
        client.instance_count(AWARD)
        (path,) = (tmp_path / "cache").glob("*.json")
        path.write_text(path.read_text()[:40])
        fresh = KgClient(award_endpoint_config(tmp_path / "cache"), transport=endpoint)
        for _ in range(2):
            with pytest.raises(MalformedResultsError, match=path.name):
                fresh.instance_count(AWARD)

    @pytest.mark.parametrize("mangle", [
        pytest.param(lambda data: data.replace(b"{", b"{\"x\": \"\xff\xfe\", ", 1), id="invalid-utf8"),
        pytest.param(lambda data: b"\xef\xbb\xbf" + data, id="utf8-bom"),
    ])
    def test_undecodable_cache_file_names_the_file(self, endpoint, client, tmp_path, mangle):
        client.instance_count(AWARD)
        (path,) = (tmp_path / "cache").glob("*.json")
        path.write_bytes(mangle(path.read_bytes()))
        fresh = KgClient(award_endpoint_config(tmp_path / "cache"), transport=endpoint)
        with pytest.raises(MalformedResultsError, match=path.name):
            fresh.instance_count(AWARD)


class TestCacheStore:
    """The documents of term lookups are read once per store; those of the
    other queries once per client."""

    @pytest.mark.parametrize("shared", [True, False])
    def test_reads_per_store_and_per_client(self, endpoint, client, tmp_path, monkeypatch, shared):
        label, count = client.label_of(COUNTRY_PRED), client.instance_count(AWARD)
        reads = []
        original = KgClient._read_cache

        def counting(path):
            reads.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(KgClient, "_read_cache", staticmethod(counting))
        cfg = award_endpoint_config(tmp_path / "cache", offline=True)
        store = CacheStore() if shared else None
        clients = [KgClient(cfg, transport=endpoint, store=store) for _ in range(3)]
        for _ in range(2):
            assert [(c.label_of(COUNTRY_PRED), c.instance_count(AWARD)) for c in clients] == [(label, count)] * 3
        label_file = f"{cache_key(label_query(COUNTRY_PRED), cfg.endpoint_url)}.json"
        count_file = f"{cache_key(instance_count_query(AWARD, cfg.typing_predicate), cfg.endpoint_url)}.json"
        assert Counter(reads) == {label_file: 1 if shared else 3, count_file: 3}

    def test_keys_equal_cache_key_per_endpoint(self, endpoint, tmp_path, monkeypatch):
        """Clients of two endpoints on one store touch and write the key
        ``cache_key`` gives each query under their own endpoint URL, so
        existing cache directories still read."""
        hashed = []
        monkeypatch.setattr(kginfo, "cache_key", lambda query, url: hashed.append((query, url)) or cache_key(query, url))
        store = CacheStore()
        other_url = "https://other.example.org/sparql"
        configs = [award_endpoint_config(tmp_path / "cache"),
                   replace(award_endpoint_config(tmp_path / "other"), endpoint_url=other_url)]
        clients = [KgClient(cfg, transport=endpoint, store=store) for cfg in configs for _ in range(2)]
        for _ in range(2):
            for c in clients:
                c.build_global_record(AWARD, COUNTRY_PRED)
        for cfg, c in zip(configs, clients[::2]):
            keys = {cache_key(query, url) for query, url in hashed if url == cfg.endpoint_url}
            assert c.keys_touched == keys
            assert c.keys_touched == {path.stem for path in cfg.cache_dir.glob("*.json")}

    @pytest.mark.parametrize("given", ["cache", "./cache/", ".", "a/../cache"])
    def test_cache_paths_are_spelled_as_pathlib_joins_them(self, endpoint, tmp_path, monkeypatch, given):
        """Messages name a cache file as earlier versions did."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a").mkdir()
        for cache_dir in (given, tmp_path / given):
            cfg = award_endpoint_config(cache_dir)
            path = Path(cache_dir) / f"{cache_key(label_query(COUNTRY_PRED), cfg.endpoint_url)}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{")
            with pytest.raises(MalformedResultsError) as raised:
                KgClient(cfg, transport=endpoint).label_of(COUNTRY_PRED)
            assert str(raised.value).startswith(f"corrupt cache file {path}: ")


class TestLabelledTriples:
    def test_each_label_file_is_read_once_per_store(self, endpoint, client, monkeypatch):
        """However many triples and calls repeat an IRI, its label file is read
        once per store; a call looks up its first IRI's label before any
        other, and every IRI of its triples."""
        def profile(kg):
            for predicate in kg.predicate_frequencies(AWARD):
                yield kg._labeled_form(predicate), kg.triple_examples(AWARD, predicate)
            for instance in kg.sample_instances(AWARD, 10):
                yield instance, kg.instance_triples(instance)

        expected = list(profile(client))
        # a store of its own over the cache the first client warmed
        warm = KgClient(client.cfg, transport=endpoint)
        reads, looked_up, labelled = Counter(), [], set()
        read_cache, label_of = KgClient._read_cache, warm.label_of
        monkeypatch.setattr(KgClient, "_read_cache",
                            staticmethod(lambda path: reads.update([Path(path).name]) or read_cache(path)))
        monkeypatch.setattr(warm, "label_of", lambda term: looked_up.append(term) or label_of(term))
        for _ in range(2):
            looked_up.clear()
            for (first, triples), expected_call in zip(profile(warm), expected):
                assert (first, triples) == expected_call
                iris = {t.subject for t in triples} | {t.object for t in triples if isinstance(t.object, Iri)}
                assert looked_up[0] == first
                assert set(looked_up) == iris | {warm._labeled_form(t.predicate) for t in triples} | {first}
                labelled.update(looked_up)
                looked_up.clear()
        label_files = {f"{cache_key(label_query(term), warm.cfg.endpoint_url)}.json" for term in labelled}
        assert len(label_files) > 10
        assert {name: reads[name] for name in label_files} == dict.fromkeys(label_files, 1)

    def test_rows_past_the_limit_cost_no_lookup(self, endpoint, tmp_path, monkeypatch):
        """An examples answer with more rows than its LIMIT (from an endpoint
        that ignores it, or a cache file written under a larger one) labels
        only the rows it keeps, and gives what an endpoint that honours the
        LIMIT gives."""
        def unlimited(query):
            return endpoint(query.replace(f"LIMIT {TRIPLE_EXAMPLES}", "LIMIT 8"))

        honoured = KgClient(award_endpoint_config(tmp_path / "honoured"), transport=endpoint)
        client = KgClient(award_endpoint_config(tmp_path / "cache"), transport=unlimited)
        query = triple_examples_query(AWARD, COUNTRY_PRED, client.cfg.typing_predicate)
        assert len(client.cached_query(query)["results"]["bindings"]) == 8
        looked_up = []
        label_of = client.label_of
        monkeypatch.setattr(client, "label_of", lambda term: looked_up.append(term) or label_of(term))
        triples = client.triple_examples(AWARD, COUNTRY_PRED)
        assert triples == honoured.triple_examples(AWARD, COUNTRY_PRED) and len(triples) == TRIPLE_EXAMPLES
        assert set(looked_up) == {Iri(WD + "P17")} | {t.subject for t in triples} | {t.object for t in triples}
        assert client.keys_touched == honoured.keys_touched


class TestSubclass:
    def test_reflexive_without_network(self, endpoint, client):
        assert client.is_subclass_of(Iri(WD + "Q6256"), Iri(WD + "Q6256"))
        assert endpoint.request_count == 0

    def test_transitive_chain(self, client):
        assert client.is_subclass_of(Iri(WD + "Q6256"), Iri(WD + "Q56061"))
        assert client.is_subclass_of(Iri(WD + "Q6256"), Iri(WD + "Q1048835"))

    def test_unrelated(self, client):
        assert not client.is_subclass_of(Iri(WD + "Q6256"), Iri(WD + "Q43229"))

    def test_memoized(self, endpoint, client):
        client.is_subclass_of(Iri(WD + "Q6256"), Iri(WD + "Q56061"))
        requests = endpoint.request_count
        client.is_subclass_of(Iri(WD + "Q6256"), Iri(WD + "Q56061"))
        assert endpoint.request_count == requests


class TestGlobalRecord:
    def test_film_award_record(self, client):
        record = client.build_global_record(AWARD, CONFERRED)
        assert record.class_label == "film award"
        assert record.class_description == "recognition for cinematic achievements"
        assert record.predicate_label == "conferred by"
        assert record.frequency == pytest.approx(0.8)
        assert record.cardinality_distribution == {1: pytest.approx(0.8)}
        assert record.datatype_of_objects == {"IRI": pytest.approx(1.0)}
        assert record.object_class_distribution == {WD + "Q43229": pytest.approx(1.0)}
        assert len(record.triple_examples) == 5
        assert record.value_type_constraint == (Iri(WD + "Q43229"),)
        assert record.subject_type_constraint == ()
        assert record.has(RecordField.FREQUENCY | RecordField.CARDINALITY | RecordField.EXAMPLES)

    def test_frequency_complements_missing(self, client):
        total = client.instance_count(AWARD)
        for predicate in (COUNTRY_PRED, INCEPTION, WEBSITE):
            record = client.build_global_record(AWARD, predicate)
            missing_fraction = client.count_missing(AWARD, predicate) / total
            assert record.frequency == pytest.approx(1.0 - missing_fraction)

    def test_yago_record_has_no_constraint_lists(self, tmp_path):
        endpoint = FakeEndpoint()
        typing = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        endpoint.add_instance(
            "http://schema.org/Book",
            "http://example.org/b1",
            [("http://schema.org/isbn", Literal("978-3-16-148410-0", Iri(XSD + "string")))],
            typing,
        )
        cfg = EndpointConfig(
            endpoint_url="https://yago.example.org/sparql",
            kg_kind=KgKind.YAGO,
            typing_predicate=Iri(typing),
            cache_dir=tmp_path,
        )
        client = KgClient(cfg, transport=endpoint)
        record = client.build_global_record(Iri("http://schema.org/Book"), Iri("http://schema.org/isbn"))
        assert record.subject_type_constraint is None
        assert record.value_type_constraint is None
        assert record.frequency == 1.0

    def test_record_rebuilt_from_cache_is_equal(self, endpoint, client, tmp_path):
        record = client.build_global_record(AWARD, COUNTRY_PRED)
        requests = endpoint.request_count
        rebuilt = KgClient(award_endpoint_config(tmp_path / "cache"), transport=endpoint)
        assert rebuilt.build_global_record(AWARD, COUNTRY_PRED) == record
        assert endpoint.request_count == requests

    # each best-effort part's completeness bits -> the record fields it writes
    PARTS = {
        RecordField.CARDINALITY: ("cardinality_distribution",),
        RecordField.DATATYPES | RecordField.OBJECT_CLASSES: ("datatype_of_objects", "object_class_distribution"),
        RecordField.EXAMPLES: ("triple_examples",),
        RecordField.LABELS: ("class_label", "class_description", "predicate_label", "predicate_description"),
        RecordField.SUBJECT_TYPE_CONSTRAINT: ("subject_type_constraint",),
        RecordField.VALUE_TYPE_CONSTRAINT: ("value_type_constraint",),
    }

    @pytest.mark.parametrize("fields, requests", [
        (RecordField(0), 2),
        (RecordField.FREQUENCY, 2),
        (RecordField.DATATYPES, 4),
        (RecordField.VALUE_TYPE_CONSTRAINT, 3),
        (RecordField.LABELS | RecordField.SUBJECT_TYPE_CONSTRAINT | RecordField.VALUE_TYPE_CONSTRAINT, 8),
        (ALL_FIELDS, 22),
    ], ids=["none", "frequency", "datatypes", "value-type", "labels-constraints", "all"])
    def test_only_the_parts_asked_for_are_built(self, endpoint, client, tmp_path, fields, requests):
        """Frequency is always built; a part is built when ``fields`` has any
        of its bits, and then sets all of them; the others keep their
        defaults and send no request."""
        full = client.build_global_record(AWARD, CONFERRED)
        partial_client = KgClient(award_endpoint_config(tmp_path / "partial"), transport=endpoint)
        before = endpoint.request_count
        record = partial_client.build_global_record(AWARD, CONFERRED, fields)
        assert endpoint.request_count - before == requests
        defaults = GlobalPredicateRecord(AWARD, CONFERRED)
        skipped = [bits for bits in self.PARTS if not bits & fields]
        assert record == replace(full, completeness=full.completeness & ~sum(skipped, RecordField(0)),
                                 **{name: getattr(defaults, name) for bits in skipped for name in self.PARTS[bits]})

    # one SPARQL template that fails -> (the record fields its part reads, the part's completeness bits)
    DEGRADED_PARTS = {
        "AS ?cardinality": (("cardinality_distribution",), RecordField.CARDINALITY),
        "BIND (IF(isIRI": (("datatype_of_objects", "object_class_distribution"),
                           RecordField.DATATYPES | RecordField.OBJECT_CLASSES),
        "SELECT ?class (COUNT(?object)": (("datatype_of_objects", "object_class_distribution"),
                                          RecordField.DATATYPES | RecordField.OBJECT_CLASSES),
        "SELECT ?subject ?object": (("triple_examples",), RecordField.EXAMPLES),
        "?description": (("class_description", "predicate_label", "predicate_description"), RecordField.LABELS),
        # the Wikidata subject-type and value-type constraint items
        "Q21503250>": (("subject_type_constraint",), RecordField.SUBJECT_TYPE_CONSTRAINT),
        "Q21510865>": (("value_type_constraint",), RecordField.VALUE_TYPE_CONSTRAINT),
    }

    @pytest.mark.parametrize("template", sorted(DEGRADED_PARTS))
    def test_failed_part_degrades_only_itself(self, endpoint, client, tmp_path, caplog, template):
        """A part whose template fails keeps what it read before the failure
        (the class label, when the class description fails), loses its
        completeness bits and logs one warning; every other field is kept."""
        full = client.build_global_record(AWARD, CONFERRED)
        assert full.completeness == ALL_FIELDS == RecordField(255)
        lost, bits = self.DEGRADED_PARTS[template]

        def failing(query):
            if template in " ".join(query.split()):
                raise EndpointError("template down")
            return endpoint(query)

        degraded_client = KgClient(award_endpoint_config(tmp_path / "other"), transport=failing)
        with caplog.at_level("WARNING", logger="shexbench.kginfo"):
            degraded = degraded_client.build_global_record(AWARD, CONFERRED)
        defaults = GlobalPredicateRecord(AWARD, CONFERRED)
        assert degraded == replace(full, completeness=full.completeness & ~bits,
                                   **{name: getattr(defaults, name) for name in lost})
        assert degraded.class_label == "film award"
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "template down" in caplog.records[0].getMessage()

    # one SPARQL template -> the reason its failure gives
    FAILURES = {
        "AS ?cardinality": "histogram down",
        "BIND (IF(isIRI": "datatypes down",
        "Q21510865>": "value types down",
    }

    @pytest.mark.parametrize("templates, message", [
        (("AS ?cardinality", "BIND (IF(isIRI"),
         "cardinality distribution, object profiles unavailable for {award} / {conferred}: "
         "cardinality distribution: histogram down; object profiles: datatypes down"),
        (("Q21510865>", "BIND (IF(isIRI", "AS ?cardinality"),
         "cardinality distribution, object profiles, value-type constraints unavailable for {award} / {conferred}: "
         "cardinality distribution: histogram down; object profiles: datatypes down; "
         "value-type constraints: value types down"),
    ], ids=["two", "three"])
    def test_failed_parts_log_one_warning(self, endpoint, client, tmp_path, caplog, templates, message):
        """A record with several failed parts logs one warning that names the
        parts in part order, then gives each part's reason."""
        full = client.build_global_record(AWARD, CONFERRED)

        def failing(query):
            flat = " ".join(query.split())
            for template in templates:
                if template in flat:
                    raise EndpointError(self.FAILURES[template])
            return endpoint(query)

        degraded_client = KgClient(award_endpoint_config(tmp_path / "other"), transport=failing)
        with caplog.at_level("WARNING", logger="shexbench.kginfo"):
            degraded = degraded_client.build_global_record(AWARD, CONFERRED)
        lost = sum((self.DEGRADED_PARTS[template][1] for template in templates), RecordField(0))
        assert degraded.completeness == full.completeness & ~lost
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", message.format(award=AWARD, conferred=CONFERRED)),
        ]

    def test_inconsistent_counts_are_malformed_results(self, endpoint, tmp_path):
        """More instances with a value than the class has is no valid profile:
        the endpoint's answers disagree with each other."""

        def inflated(query):
            doc = json.loads(json.dumps(endpoint(query)))
            if "AS ?cardinality" in query:
                for row in doc["results"]["bindings"]:
                    row["count"]["value"] = str(int(row["count"]["value"]) * 100)
            return doc

        client = KgClient(award_endpoint_config(tmp_path / "inflated"), transport=inflated)
        with pytest.raises(MalformedResultsError, match="inconsistent profile"):
            client.build_global_record(AWARD, CONFERRED)

    @pytest.mark.parametrize("binding", [
        {"type": "uri", "value": ""},
        {"type": "uri", "value": "http://example.org/a b"},
        {"type": "literal", "value": "x", "datatype": XSD + "string", "xml:lang": "en"},
        {"type": "uri", "value": []},
        {"type": "uri", "value": ["http://example.org/a"]},
        {"type": "literal", "value": "x", "datatype": 5},
    ], ids=["empty-iri", "iri-with-space", "datatype-and-language", "empty-list-iri", "list-iri", "int-datatype"])
    def test_binding_that_is_no_term_is_malformed(self, binding):
        iris = IriTable()
        for table in (None, iris, iris):
            with pytest.raises(MalformedResultsError, match="not a valid RDF term"):
                term_from_binding(binding, table)
        assert iris == {}

    def test_literal_datatype_comes_from_the_table(self):
        iris = IriTable()
        binding = {"type": "literal", "value": "1", "datatype": XSD + "integer"}
        first, second = term_from_binding(binding, iris), term_from_binding(dict(binding, value="2"), iris)
        assert (first, second) == (Literal("1", Iri(XSD + "integer")), Literal("2", Iri(XSD + "integer")))
        assert first.datatype is second.datatype is iris[XSD + "integer"]
        assert list(iris) == [XSD + "integer"]
        assert term_from_binding({"type": "literal", "value": "x", "xml:lang": "en"}, iris) == Literal("x", None, "en")
        assert list(iris) == [XSD + "integer"]

    def test_examples_capped_at_five(self):
        with pytest.raises(ValueError):
            GlobalPredicateRecord(AWARD, COUNTRY_PRED, triple_examples=tuple([None] * 6))  # type: ignore[arg-type]

    def test_distribution_fractions_validated(self):
        with pytest.raises(ValueError):
            GlobalPredicateRecord(AWARD, COUNTRY_PRED, cardinality_distribution={1: 1.5})
        with pytest.raises(ValueError):
            GlobalPredicateRecord(AWARD, COUNTRY_PRED, cardinality_distribution={0: 0.5})


class TestOracleAdapter:
    def test_subclass_and_value_types(self, client):
        oracle = KgSubclassOracle(client)
        assert oracle.is_subclass_of(Iri(WD + "Q6256"), Iri(WD + "Q56061"))
        assert oracle.value_type_classes(COUNTRY_PRED) == frozenset({Iri(WD + "Q6256")})
        assert oracle.value_type_classes(Iri(WDT + "P9999")) == frozenset()


class TestTermTable:
    """A store's decoded term lookups, one table per endpoint URL: each read
    and decoded once for all the store's clients; only answers are kept."""

    SUBCLASS = (Iri(WD + "Q6256"), Iri(WD + "Q56061"))

    @staticmethod
    def _lookups(client) -> list:
        return [client.label_of(AWARD), client.description_of(AWARD),
                client.property_constraint_classes(COUNTRY_PRED, WIKIDATA_VALUE_TYPE_CONSTRAINT),
                client.is_subclass_of(*TestTermTable.SUBCLASS)]

    def test_one_store_keeps_endpoints_apart(self, endpoint, tmp_path):
        def renamed(query):
            doc = json.loads(json.dumps(endpoint(query)))
            for row in doc.get("results", {}).get("bindings", []):
                for binding in row.values():
                    if binding["type"] == "literal":
                        binding["value"] = "other " + binding["value"]
            return doc

        other_url = "https://other.example.org/sparql"
        store = CacheStore()
        here_cfg = award_endpoint_config(tmp_path / "cache")
        there_cfg = replace(here_cfg, endpoint_url=other_url)
        expected = self._lookups(KgClient(award_endpoint_config(tmp_path / "reference"), transport=endpoint))
        for _ in range(2):
            here = KgClient(here_cfg, transport=endpoint, store=store)
            there = KgClient(there_cfg, transport=renamed, store=store)
            assert self._lookups(here) == expected
            assert self._lookups(there) == ["other film award", "other " + expected[1], *expected[2:]]
            for cfg, client in ((here_cfg, here), (there_cfg, there)):
                table = store.lookups(cfg.endpoint_url)
                assert {key for key, _ in table.values()} == client.keys_touched
                assert all(key == cache_key(term_lookup_query(terms), cfg.endpoint_url)
                           for terms, (key, _) in table.items())

    @pytest.mark.parametrize("order", [(KgKind.WIKIDATA, KgKind.YAGO), (KgKind.YAGO, KgKind.WIKIDATA)],
                             ids=["wikidata-first", "yago-first"])
    def test_two_kinds_on_one_url_keep_their_answers(self, tmp_path, order):
        """A description and a subclass path read the KG kind's predicate,
        so two kinds' clients on one URL each get their own answer."""
        person, agent = Iri("http://schema.org/Person"), Iri("http://schema.org/Agent")
        wikidata_only = ("http://schema.org/description", "http://www.wikidata.org/prop/direct/P279")

        def transport(query):
            wikidata = any(f"<{predicate}>" in query for predicate in wikidata_only)
            if query.startswith("ASK"):
                return {"head": {}, "boolean": wikidata}
            text = "Wikidata's person" if wikidata else "YAGO's person"
            return {"head": {"vars": ["description"]},
                    "results": {"bindings": [{"description": {"type": "literal", "value": text}}]}}

        def config(kind, name):
            return replace(award_endpoint_config(tmp_path / name), kg_kind=kind)

        def ask(client):
            return [client.description_of(person), client.is_subclass_of(person, agent)]

        solo = {kind: KgClient(config(kind, f"solo-{kind.value}"), transport=transport) for kind in order}
        expected = {kind: (ask(client), client.keys_touched) for kind, client in solo.items()}
        assert expected[KgKind.WIKIDATA][0] == ["Wikidata's person", True]
        assert expected[KgKind.YAGO][0] == ["YAGO's person", False]
        store = CacheStore()
        shared = {kind: KgClient(config(kind, "shared"), transport=transport, store=store) for kind in order}
        for _ in range(2):
            for kind, client in shared.items():
                assert ask(client) == expected[kind][0]
        assert {kind: client.keys_touched for kind, client in shared.items()} == \
            {kind: keys for kind, (_, keys) in expected.items()}

    def test_hit_touches_the_key_and_reads_nothing(self, endpoint, tmp_path, monkeypatch):
        store = CacheStore()
        cfg = award_endpoint_config(tmp_path / "cache")
        first = KgClient(cfg, transport=endpoint, store=store)
        answers = self._lookups(first)
        assert len(first.keys_touched) == 4
        asked = []
        monkeypatch.setattr(KgClient, "cached_query", lambda self, query: asked.append(query))
        second = KgClient(cfg, transport=endpoint, store=store)
        for _ in range(2):
            assert self._lookups(second) == answers
        assert asked == []
        assert second.keys_touched == first.keys_touched

    def test_offline_miss_raises_on_every_ask(self, endpoint, tmp_path):
        store = CacheStore()
        cfg = award_endpoint_config(tmp_path / "cache", offline=True)
        clients = [KgClient(cfg, transport=endpoint, store=store) for _ in range(2)]
        for _ in range(2):
            for client in clients:
                with pytest.raises(CacheMissError):
                    client.label_of(AWARD)
        assert store.lookups(cfg.endpoint_url) == {} and endpoint.request_count == 0
        KgClient(award_endpoint_config(tmp_path / "cache"), transport=endpoint).label_of(AWARD)
        assert [client.label_of(AWARD) for client in clients] == ["film award"] * 2

    @pytest.mark.parametrize("mangle", [
        pytest.param(lambda text: text[:40], id="truncated"),
        pytest.param(lambda text: text.replace('"label":', '"name":'), id="unbound"),
    ])
    def test_bad_label_file_raises_on_every_ask(self, endpoint, client, tmp_path, mangle):
        cfg = award_endpoint_config(tmp_path / "cache", offline=True)
        assert client.label_of(AWARD) == "film award"
        path = tmp_path / "cache" / f"{cache_key(label_query(AWARD), cfg.endpoint_url)}.json"
        path.write_text(mangle(path.read_text()))
        store = CacheStore()
        clients = [KgClient(cfg, transport=endpoint, store=store) for _ in range(2)]
        for _ in range(2):
            for c in clients:
                with pytest.raises(MalformedResultsError):
                    c.label_of(AWARD)
        assert store.lookups(cfg.endpoint_url) == {}


#: Terms the award KG knows (two of its instances among them), and one it does not.
_ORACLE_TERMS = (AWARD, COUNTRY_PRED, CONFERRED, Iri(WD + "P17"), Iri(WD + "Q6256"), Iri(WD + "Q56061"),
                 Iri(WD + "Q1048835"), Iri(WD + "Q43229"), Iri(WD + "Q1000"), Iri(WD + "Q1003"), Iri(WD + "Q404"))
_ORACLE_KINDS = ("label", "description", "subject-type", "value-type", "subclass", "examples", "triples")


class TestTermTableOracle:
    """Random term lookups by clients sharing one store, interleaved with the
    labelled triples of examples and instances, against clients that each
    have a fresh store, over one cold cache directory each.  A term's lookups
    fail on the endpoint while it is marked down, which both sides must see
    on every ask."""

    @staticmethod
    def _ask(client, kind, term, other):
        try:
            if kind == "examples":
                return client.triple_examples(AWARD, term)
            if kind == "triples":
                return client.instance_triples(term)
            if kind == "label":
                return client.label_of(term)
            if kind == "description":
                return client.description_of(term)
            if kind == "subclass":
                return client.is_subclass_of(term, other)
            constraint = WIKIDATA_SUBJECT_TYPE_CONSTRAINT if kind == "subject-type" else WIKIDATA_VALUE_TYPE_CONSTRAINT
            return client.property_constraint_classes(term, constraint)
        except EndpointError as exc:
            return type(exc), str(exc)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_ORACLE_KINDS), st.sampled_from(_ORACLE_TERMS),
                              st.sampled_from(_ORACLE_TERMS), st.booleans()), max_size=25))
    def test_random_lookups_equal_a_fresh_store_per_client(self, asks):
        import tempfile

        endpoint = build_award_endpoint()
        sides = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, store in (("shared", CacheStore()), ("fresh", None)):
                fetches, down = Counter(), set()

                def transport(query, fetches=fetches, down=down):
                    fetches[query] += 1
                    if any(f"<{term}>" in query for term in down):
                        raise EndpointError("term down")
                    return endpoint(query)

                cfg = award_endpoint_config(Path(tmp) / name)
                clients = [KgClient(cfg, transport=transport, store=store) for _ in range(3)]
                answers = []
                for index, kind, term, other, is_down in asks:
                    (down.add if is_down else down.discard)(term)
                    answers.append(self._ask(clients[index], kind, term, other))
                sides.append((answers, [client.keys_touched for client in clients], fetches))
        assert sides[0] == sides[1]


class TestIriTable:
    """A store decodes each IRI text to one Iri for all its clients; a text
    that is no IRI is never stored."""

    def test_clients_of_a_store_share_one_iri_per_text(self, endpoint, tmp_path):
        store = CacheStore()
        cfg = award_endpoint_config(tmp_path / "cache")
        first, second = (KgClient(cfg, transport=endpoint, store=store) for _ in range(2))
        triples = first.instance_triples(Iri(WD + "Q1000"))
        assert second.instance_triples(Iri(WD + "Q1000")) == triples
        for triple in triples:
            assert store.iris[triple.predicate.value] is triple.predicate
        assert first._labeled_form(COUNTRY_PRED) is store.iris[WD + "P17"] is second._labeled_form(COUNTRY_PRED)

    def test_uri_with_whitespace_raises_on_every_ask(self, endpoint, tmp_path):
        bad = "http://example.org/a b"
        query = instance_triples_query(Iri(WD + "Q1000"))

        def transport(asked):
            doc = endpoint(asked)
            if asked == query:
                doc = json.loads(json.dumps(doc))
                doc["results"]["bindings"][0]["predicate"]["value"] = bad
            return doc

        store = CacheStore()
        clients = [KgClient(award_endpoint_config(tmp_path / "cache"), transport=transport, store=store)
                   for _ in range(2)]
        for _ in range(2):
            for client in clients:
                with pytest.raises(MalformedResultsError, match="IRI contains whitespace"):
                    client.instance_triples(Iri(WD + "Q1000"))
        assert bad not in store.iris


_ORACLE_INSTANCES = (*(Iri(WD + f"Q10{i:02d}") for i in range(0, 10, 3)), Iri(WD + "Q860"), Iri(WD + "Q404"))
_ORACLE_PREDICATES = (COUNTRY_PRED, INCEPTION, WEBSITE, CONFERRED, Iri(WDT + "P31"), Iri(WDT + "P9999"))


class TestIriTableOracle:
    """Random profile reads by clients sharing one store, and so one IRI
    table, against clients that each have a fresh store."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(("triples", "examples", "record")),
                              st.sampled_from(_ORACLE_INSTANCES), st.sampled_from(_ORACLE_PREDICATES)), max_size=10))
    def test_random_profiles_equal_a_fresh_store_per_client(self, asks):
        import tempfile

        endpoint = build_award_endpoint()
        sides = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, store in (("shared", CacheStore()), ("fresh", None)):
                cfg = award_endpoint_config(Path(tmp) / name)
                clients = [KgClient(cfg, transport=endpoint, store=store) for _ in range(3)]
                answers = []
                for index, kind, instance, predicate in asks:
                    client = clients[index]
                    if kind == "triples":
                        answers.append(client.instance_triples(instance))
                    elif kind == "examples":
                        answers.append(client.triple_examples(AWARD, predicate))
                    else:
                        answers.append(client.build_global_record(AWARD, predicate))
                sides.append((answers, [client.keys_touched for client in clients]))
        assert sides[0] == sides[1]
