"""The HTTP endpoint end-to-end over a tmpdir snapshot.

One in-process ServingApp on an ephemeral port per module; requests go
through the real urllib client path.
"""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import ServingApp

QUERY = (
    "SELECT ?x ?y WHERE { ?x <ub:advisor> ?y . "
    "?x <ub:takesCourse> ?z . }"
)


@pytest.fixture(scope="module")
def base_url(snapshot_dir, checkpoint_dir):
    app = ServingApp(snapshot_dir, checkpoint_dir, port=0).start()
    yield app.url
    app.close()


def get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def post(url, body, raw=False):
    data = body if raw else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestHealthAndStats:
    def test_healthz(self, base_url, service):
        status, payload = get(f"{base_url}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["triples"] == len(service.store)
        assert payload["models"] >= 1

    def test_stats_counts_requests(self, base_url):
        post(f"{base_url}/estimate", {"queries": [QUERY]})
        status, payload = get(f"{base_url}/stats")
        assert status == 200
        assert payload["requests"] >= 1
        assert payload["batches"] >= 1
        assert payload["policy"]["max_batch"] == 64

    def test_unknown_routes_404(self, base_url):
        status, _ = get(f"{base_url}/nope")
        assert status == 404
        status, _ = post(f"{base_url}/other", {"queries": [QUERY]})
        assert status == 404


class TestEstimate:
    def test_single_request_byte_identical_to_framework(
        self, base_url, service, star_queries, snapshot_dir
    ):
        """The acceptance bar: a POSTed batch answers exactly what
        Framework.estimate_batch returns for the same queries (one
        request on an idle server = one batch of exactly its queries,
        and JSON floats round-trip exactly)."""
        texts = [QUERY, QUERY]
        status, payload = post(
            f"{base_url}/estimate", {"queries": texts}
        )
        assert status == 200
        expected = service.framework.estimate_batch(
            service.parse_queries(texts)
        )
        assert payload["estimates"] == expected.tolist()
        assert payload["count"] == 2

    def test_concurrent_requests_all_answered_correctly(
        self, base_url, service, star_queries
    ):
        """50 concurrent single-query requests: every response matches
        the serial batched answer for its query (within float noise —
        co-batching may change BLAS batch shapes)."""
        texts = [QUERY] * 50
        expected = float(
            service.framework.estimate_batch(
                service.parse_queries([QUERY])
            )[0]
        )
        with ThreadPoolExecutor(max_workers=16) as pool:
            responses = list(
                pool.map(
                    lambda text: post(
                        f"{base_url}/estimate", {"queries": [text]}
                    ),
                    texts,
                )
            )
        assert all(status == 200 for status, _ in responses)
        values = [payload["estimates"][0] for _, payload in responses]
        assert np.allclose(values, expected, rtol=1e-9)


class TestMalformedRequests:
    def test_invalid_json_400(self, base_url):
        status, payload = post(
            f"{base_url}/estimate", b"{not json", raw=True
        )
        assert status == 400
        assert "invalid JSON" in payload["error"]

    def test_missing_queries_field_400(self, base_url):
        status, payload = post(f"{base_url}/estimate", {"q": [QUERY]})
        assert status == 400
        assert "queries" in payload["error"]

    def test_empty_query_list_400(self, base_url):
        status, _ = post(f"{base_url}/estimate", {"queries": []})
        assert status == 400

    def test_non_string_query_400(self, base_url):
        status, payload = post(f"{base_url}/estimate", {"queries": [7]})
        assert status == 400
        assert "SPARQL string" in payload["error"]

    def test_unparseable_sparql_400(self, base_url):
        status, payload = post(
            f"{base_url}/estimate", {"queries": ["SELECT ?x WHERE"]}
        )
        assert status == 400
        assert "bad query" in payload["error"]

    def test_unknown_term_400(self, base_url):
        status, _ = post(
            f"{base_url}/estimate",
            {"queries": ["SELECT ?x WHERE { ?x <no:such> ?y . }"]},
        )
        assert status == 400

    def test_empty_body_400(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/estimate", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_uncovered_shape_422(self, base_url):
        """A parseable query no trained model covers is unestimable,
        not malformed."""
        big_star = (
            "SELECT ?x WHERE { ?x <ub:advisor> ?a . "
            "?x <ub:takesCourse> ?b . ?x <ub:memberOf> ?c . "
            "?x <ub:worksFor> ?d . ?x <ub:telephone> ?e . "
            "?x <ub:emailAddress> ?f . }"
        )
        status, payload = post(
            f"{base_url}/estimate", {"queries": [big_star]}
        )
        assert status == 422
        assert "error" in payload


class TestBackpressure:
    def test_queue_full_429(self, gated_app):
        """A saturated scheduler sheds load as 429, and recovers."""
        import time

        app, gate, entered = gated_app(
            first_only=True, max_batch=1, max_queue=1
        )
        url = f"{app.url}/estimate"
        with ThreadPoolExecutor(max_workers=3) as pool:
            blocker = pool.submit(post, url, {"queries": [QUERY]})
            assert entered.wait(30.0)
            filler = pool.submit(post, url, {"queries": [QUERY]})
            # Wait until the filler occupies the queue slot.
            deadline = time.monotonic() + 30.0
            while (
                app.scheduler.stats()["queue_depth"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            status, payload = post(url, {"queries": [QUERY]})
            assert status == 429
            assert "queue full" in payload["error"]
            gate.set()
            assert blocker.result(30.0)[0] == 200
            assert filler.result(30.0)[0] == 200
