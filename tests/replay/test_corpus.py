"""Counterexample corpus: persistence mechanics + deterministic replay.

The seed entries under ``tests/replay/corpus/`` are replayed through the
live server on every run — once the fuzzer (or a human) finds a
contract violation, it stays found.
"""

import http.client
import json
import math
from pathlib import Path

import pytest

from strategies import (
    CorpusError,
    entry_name,
    iter_corpus,
    save_counterexample,
)

CORPUS_DIR = Path(__file__).parent / "corpus"


def post_estimate(harness, body):
    conn = http.client.HTTPConnection(
        harness.host, harness.port, timeout=30
    )
    try:
        conn.request(
            "POST",
            "/estimate",
            body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload
    finally:
        conn.close()


class TestMechanics:
    def test_save_and_iter(self, tmp_path):
        payload = {"kind": "serve_taxonomy", "queries": ["SELECT"]}
        path = save_counterexample(tmp_path, payload)
        entries = list(iter_corpus(tmp_path))
        assert entries == [(path, payload)]

    def test_content_addressed_idempotent(self, tmp_path):
        payload = {"kind": "estimator_contract", "queries": ["a"]}
        first = save_counterexample(tmp_path, payload)
        second = save_counterexample(tmp_path, payload)
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert first.name == entry_name(payload)

    def test_kind_required(self, tmp_path):
        with pytest.raises(CorpusError):
            save_counterexample(tmp_path, {"queries": ["a"]})

    def test_missing_directory_is_empty(self, tmp_path):
        assert list(iter_corpus(tmp_path / "nope")) == []

    def test_unreadable_entry_raises(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(CorpusError):
            list(iter_corpus(tmp_path))

    def test_entry_without_kind_raises(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps({"queries": []}))
        with pytest.raises(CorpusError):
            list(iter_corpus(tmp_path))


_SEEDS = list(iter_corpus(CORPUS_DIR))


def test_seed_corpus_not_empty():
    assert _SEEDS, "tests/replay/corpus must carry seed entries"


@pytest.mark.parametrize(
    "path,entry", _SEEDS, ids=[p.name for p, _ in _SEEDS]
)
def test_replay_corpus_entry(harness, path, entry):
    """Every persisted counterexample still satisfies the contract."""
    body = (
        entry["body"]
        if "body" in entry
        else {"queries": entry["queries"]}
    )
    status, payload = post_estimate(harness, body)
    expected = entry.get("expect_status")
    if expected is not None:
        assert status == expected, (
            f"{path.name}: expected {expected}, got {status} "
            f"({payload})"
        )
    else:
        assert status in (200, 400, 422), (
            f"{path.name}: taxonomy breach: {status} ({payload})"
        )
    if status == 200:
        estimates = payload["estimates"]
        assert len(estimates) == len(body["queries"])
        for value in estimates:
            assert value >= 0
            assert math.isfinite(value)
