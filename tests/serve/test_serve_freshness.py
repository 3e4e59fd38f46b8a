"""The /healthz freshness block and the snapshot-aware reload body.

The maintenance hand-off surface: a checkpoint published by
``repro maintain`` carries a watermark; the serving runtime compares
it against the served store under the declared dbt-style thresholds
and reports pass/warn/error on ``/healthz``; ``/admin/reload`` accepts
``{"checkpoint": ..., "snapshot": ...}`` to swap the graph together
with the model.
"""

import dataclasses
import json
import shutil
import urllib.error
import urllib.request

import pytest

from repro.maintain.freshness import FreshnessPolicy
from repro.maintain.watermark import Watermark, write_watermark
from repro.serve import ServingApp
from repro.serve.artifacts import save_checkpoint

QUERY = (
    "SELECT ?x ?y WHERE { ?x <ub:advisor> ?y . "
    "?x <ub:takesCourse> ?z . }"
)


@pytest.fixture(scope="module")
def marked_checkpoint(service, tmp_path_factory):
    """A checkpoint stamped the way ``maintain run`` publishes it."""
    path = tmp_path_factory.mktemp("freshness") / "ckpt"
    save_checkpoint(service.framework, path)
    write_watermark(path, Watermark.of_store(service.store, run=3))
    return path


@pytest.fixture()
def runtime_factory(snapshot_dir, fit_defaults):
    """Builds throwaway runtimes, each over its own service, so
    store/framework swaps never leak into other test modules."""
    apps = []

    def build(checkpoint_dir=None, policy=None):
        app = ServingApp(
            snapshot_dir, checkpoint_dir, port=0, fit_defaults=fit_defaults
        )
        apps.append(app)
        app.runtime.freshness_policy = policy
        return app.runtime

    yield build
    for app in apps:
        app.close()


class TestFreshnessVerdicts:
    def test_no_record_at_all_is_unknown(self, runtime_factory):
        freshness = runtime_factory().freshness()
        assert freshness["status"] == "unknown"
        assert freshness["lag_triples"] is None

    def test_watermarked_checkpoint_passes(
        self, runtime_factory, marked_checkpoint
    ):
        freshness = runtime_factory(marked_checkpoint).freshness()
        assert freshness["status"] == "pass"
        assert freshness["model_run"] == 3
        assert freshness["lag_triples"] == 0
        assert freshness["vocabulary_ok"] is True

    def test_pre_maintenance_checkpoint_uses_fingerprint(
        self, runtime_factory, service, tmp_path
    ):
        # No watermark.json: the artifact's store fingerprint still
        # measures triple lag; run/generation degrade to 0 / -1.
        plain = tmp_path / "plain"
        save_checkpoint(service.framework, plain)
        freshness = runtime_factory(plain).freshness()
        assert freshness["status"] == "pass"
        assert freshness["model_run"] == 0
        assert freshness["model_generation"] == -1
        assert freshness["lag_triples"] == 0

    def test_stale_watermark_classified_by_policy(
        self, runtime_factory, service, marked_checkpoint, tmp_path
    ):
        stale_dir = tmp_path / "stale"
        shutil.copytree(marked_checkpoint, stale_dir)
        behind = dataclasses.replace(
            Watermark.of_store(service.store, run=2),
            num_triples=len(service.store) - 7,
        )
        write_watermark(stale_dir, behind)
        warn = runtime_factory(stale_dir).freshness()
        assert warn["status"] == "warn"
        assert warn["lag_triples"] == 7
        error = runtime_factory(
            stale_dir,
            policy=FreshnessPolicy(warn_after=1, error_after=5),
        ).freshness()
        assert error["status"] == "error"

    def test_vocabulary_mismatch_is_error(
        self, runtime_factory, service, marked_checkpoint, tmp_path
    ):
        mismatched = tmp_path / "mismatched"
        shutil.copytree(marked_checkpoint, mismatched)
        alien = dataclasses.replace(
            Watermark.of_store(service.store, run=2),
            num_nodes=service.store.num_nodes + 1,
        )
        write_watermark(mismatched, alien)
        freshness = runtime_factory(mismatched).freshness()
        assert freshness["status"] == "error"
        assert freshness["vocabulary_ok"] is False


@pytest.fixture()
def stack(snapshot_dir, marked_checkpoint):
    app = ServingApp(snapshot_dir, marked_checkpoint, port=0).start()
    yield app.url, app.runtime
    app.close()


def get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.load(response)


def post(url, body=None):
    data = (
        json.dumps(body).encode("utf-8") if body is not None else b""
    )
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestHealthzFreshnessBlock:
    def test_healthz_carries_the_verdict(self, stack):
        base_url, _ = stack
        status, payload = get(f"{base_url}/healthz")
        assert status == 200
        freshness = payload["freshness"]
        assert freshness["status"] == "pass"
        assert freshness["model_run"] == 3
        assert set(freshness["thresholds"]) == {
            "warn_after",
            "error_after",
        }


class TestSnapshotAwareReload:
    def test_reload_swaps_store_and_model_together(
        self, stack, marked_checkpoint, snapshot_dir, tmp_path
    ):
        base_url, runtime = stack
        old_store = runtime.service.store
        new_snapshot = tmp_path / "gen-0002"
        shutil.copytree(snapshot_dir, new_snapshot)
        status, payload = post(
            f"{base_url}/admin/reload",
            {
                "checkpoint": str(marked_checkpoint),
                "snapshot": str(new_snapshot),
            },
        )
        assert status == 200, payload
        assert payload["snapshot"] == str(new_snapshot)
        assert runtime.service.store is not old_store
        assert len(runtime.service.store) == len(old_store)
        # The swapped stack still answers queries.
        status, answer = post(
            f"{base_url}/estimate", {"queries": [QUERY]}
        )
        assert status == 200
        assert answer["generation"] == runtime.generation

    def test_bad_snapshot_rejected_old_keeps_serving(
        self, stack, marked_checkpoint, tmp_path
    ):
        base_url, runtime = stack
        generation = runtime.generation
        old_store = runtime.service.store
        status, payload = post(
            f"{base_url}/admin/reload",
            {
                "checkpoint": str(marked_checkpoint),
                "snapshot": str(tmp_path / "void"),
            },
        )
        assert status == 409, payload
        assert runtime.generation == generation
        assert runtime.service.store is old_store
        status, _ = post(
            f"{base_url}/estimate", {"queries": [QUERY]}
        )
        assert status == 200
