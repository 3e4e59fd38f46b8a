"""Generative fuzzing of the estimate contract, end to end.

Arbitrary queries — grounded in the served vocabulary, spiked with
never-seen terms and malformed text — round-trip through
parse → admission → estimate → serve, with and without injected
faults.  The invariants:

- every estimate is finite and >= 0 (raw and in log space),
- batch answers == serial answers for the same queries,
- degraded (fallback) answers obey the same contract and are flagged,
- the HTTP error taxonomy is *exact*: the server's status matches an
  oracle running the same parse + admission locally — malformed text
  is a 400, an uncovered shape a 422, never a 500 or a dropped socket.

Failing examples are persisted to ``tests/replay/corpus/`` (the last,
minimized reproduction per property) and replayed by
``test_corpus.py`` forever after.
"""

import http.client
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

import hypothesis as hyp  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.framework import EstimationError  # noqa: E402
from strategies import (  # noqa: E402
    estimate_bodies,
    fuzz_settings,
    malformed_texts,
    query_texts,
    vocab_sample,
)

SETTINGS = fuzz_settings(default_examples=25)


@pytest.fixture(scope="module")
def vocab(replay_store):
    return vocab_sample(replay_store, limit=120, seed=2)


def post_estimate(host, port, body, timeout=30):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST",
            "/estimate",
            body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def expected_status(harness, body):
    """The taxonomy oracle: what the server *must* answer, derived by
    running the same body validation + parse + admission locally."""
    if not isinstance(body, dict) or "queries" not in body:
        return 400
    texts = body["queries"]
    if (
        not isinstance(texts, list)
        or not texts
        or not all(isinstance(t, str) for t in texts)
    ):
        return 400
    try:
        queries = harness.service.parse_queries(texts)
    except Exception:
        return 400
    admission = harness.runtime.admission
    if admission is not None:
        try:
            admission.admit_all(queries)
        except Exception:
            return 422
    return 200


class TestEstimatorContract:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_estimates_finite_nonnegative(
        self, data, harness, vocab, record_counterexample
    ):
        nodes, predicates = vocab
        text = data.draw(
            query_texts(nodes, predicates, unknown_rate=0.15)
        )
        try:
            queries = harness.service.parse_queries([text])
        except Exception:
            return  # unparseable spike: the taxonomy test's domain
        framework = harness.service.framework
        try:
            value = float(framework.estimate(queries[0]))
        except EstimationError:
            # shape outside the trained manifest — admission's 422
            # domain, not an estimator-contract violation
            return
        try:
            assert math.isfinite(value), f"estimate {value!r}"
            assert value >= 0.0, f"estimate {value!r}"
            assert math.isfinite(math.log2(value + 1.0))
            hyp.target(float(len(queries[0].triples)))
        except AssertionError:
            record_counterexample(
                "estimator_contract",
                {
                    "kind": "estimator_contract",
                    "queries": [text],
                    "note": "finite/non-negative estimate violated",
                    "added": "fuzz",
                },
            )
            raise

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_batch_equals_serial(
        self, data, harness, vocab, record_counterexample
    ):
        nodes, predicates = vocab
        texts = data.draw(
            st.lists(
                query_texts(nodes, predicates, unknown_rate=0.0),
                min_size=1,
                max_size=4,
            )
        )
        try:
            queries = harness.service.parse_queries(texts)
        except Exception:
            return
        framework = harness.service.framework
        try:
            batch = np.asarray(
                framework.estimate_batch(queries), dtype=np.float64
            )
        except EstimationError:
            # the batch path refused (uncovered shape): the serial
            # path must refuse the same batch too
            with pytest.raises(EstimationError):
                [framework.estimate(q) for q in queries]
            return
        try:
            serial = np.asarray(
                [framework.estimate(q) for q in queries],
                dtype=np.float64,
            )
            np.testing.assert_allclose(batch, serial, rtol=1e-6)
        except AssertionError:
            record_counterexample(
                "batch_serial",
                {
                    "kind": "estimator_contract",
                    "queries": texts,
                    "note": "batch != serial",
                    "added": "fuzz",
                },
            )
            raise


class TestServeTaxonomy:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_status_matches_oracle(
        self, data, harness, vocab, record_counterexample
    ):
        nodes, predicates = vocab
        body = data.draw(estimate_bodies(nodes, predicates))
        try:
            status, payload = post_estimate(
                harness.host, harness.port, body
            )
            expected = expected_status(harness, body)
            if status != 429:  # shed is always acceptable
                assert status == expected, (
                    f"server {status} != oracle {expected}: {payload}"
                )
            if status == 200:
                estimates = payload["estimates"]
                assert len(estimates) == len(body["queries"])
                assert payload["count"] == len(estimates)
                for value in estimates:
                    assert math.isfinite(value) and value >= 0
                hyp.target(float(len(estimates)))
        except AssertionError:
            record_counterexample(
                "serve_taxonomy",
                {
                    "kind": "serve_taxonomy",
                    "body": body,
                    "note": "taxonomy or 200-contract violated",
                    "added": "fuzz",
                },
            )
            raise

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_malformed_is_always_400(
        self, data, harness, record_counterexample
    ):
        text = data.draw(malformed_texts())
        hyp.assume(
            expected_status(harness, {"queries": [text]}) == 400
        )
        try:
            status, payload = post_estimate(
                harness.host, harness.port, {"queries": [text]}
            )
            assert status == 400, f"{status}: {payload}"
        except AssertionError:
            record_counterexample(
                "malformed_400",
                {
                    "kind": "serve_taxonomy",
                    "queries": [text],
                    "expect_status": 400,
                    "note": "malformed text not answered with 400",
                    "added": "fuzz",
                },
            )
            raise


class TestDegradedConformance:
    @pytest.fixture(scope="class")
    def faulty_server(self, snapshot_dir, harness):
        """Supervised workers whose model path fails every 2nd batch:
        a worker-side fault is an infrastructure error, so the backend
        falls back to the independence baseline immediately (``workers=1``
        would instead 500 poison batches while the breaker is closed —
        the containment path, not the degradation path under test)."""
        from repro.replay import ReplayHarness
        from repro.serve import FaultSpec

        h = ReplayHarness(
            snapshot_dir,
            harness.checkpoint_dir,
            workers=2,
            fault_spec=FaultSpec(fail_every=2),
        )
        h.wait_ready()
        yield h
        h.close()

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_degraded_answers_conform(
        self, data, faulty_server, vocab, record_counterexample
    ):
        nodes, predicates = vocab
        texts = data.draw(
            st.lists(
                query_texts(nodes, predicates, unknown_rate=0.0),
                min_size=1,
                max_size=3,
            )
        )
        hyp.assume(
            expected_status(faulty_server, {"queries": texts}) == 200
        )
        try:
            status, payload = post_estimate(
                faulty_server.host, faulty_server.port, {"queries": texts}
            )
            assert status in (200, 429), f"{status}: {payload}"
            if status == 200:
                assert isinstance(payload["degraded"], bool)
                for value in payload["estimates"]:
                    assert math.isfinite(value) and value >= 0
        except AssertionError:
            record_counterexample(
                "degraded_conformance",
                {
                    "kind": "serve_taxonomy",
                    "queries": texts,
                    "note": "degraded answer broke the contract",
                    "added": "fuzz",
                },
            )
            raise

    def test_faults_actually_degrade(self, faulty_server, vocab):
        """Sanity: the fault spec really exercises the fallback path."""
        nodes, predicates = vocab
        degraded = 0
        for _ in range(6):
            status, payload = post_estimate(
                faulty_server.host,
                faulty_server.port,
                {
                    "queries": [
                        "SELECT ?s ?o0 ?o1 WHERE { ?s <ub:advisor> ?o0 . "
                        "?s <ub:takesCourse> ?o1 . }"
                    ]
                },
            )
            assert status == 200
            degraded += bool(payload["degraded"])
        assert degraded > 0
