"""Zero-downtime checkpoint hot-reload through POST /admin/reload."""

import json
import os
import shutil
import signal
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    BatchScheduler,
    ResilientBackend,
    ServingApp,
    ServingRuntime,
)
from repro.serve.artifacts import ARTIFACT_SCHEMA_VERSION, save_checkpoint

QUERY = (
    "SELECT ?x ?y WHERE { ?x <ub:advisor> ?y . "
    "?x <ub:takesCourse> ?z . }"
)


@pytest.fixture(scope="module")
def v2_checkpoint(service, tmp_path_factory):
    path = tmp_path_factory.mktemp("reload") / "ckpt-v2"
    save_checkpoint(service.framework, path)
    return path


@pytest.fixture()
def stack(snapshot_dir, v2_checkpoint):
    """A full runtime-backed server (in-process primary, no pool)."""
    app = ServingApp(snapshot_dir, v2_checkpoint, port=0).start()
    yield app.url, app.runtime
    app.close()


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


def get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.load(response)


class TestReloadEndpoint:
    def test_reload_bumps_generation(self, stack):
        base_url, runtime = stack
        generation = runtime.generation
        status, payload = post(f"{base_url}/admin/reload")
        assert status == 200, payload
        assert payload["status"] == "reloaded"
        assert payload["generation"] == generation + 1
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        # responses immediately carry the new generation
        status, answer = post(
            f"{base_url}/estimate", {"queries": [QUERY]}
        )
        assert status == 200
        assert answer["generation"] == generation + 1
        assert answer["degraded"] is False

    def test_reload_explicit_checkpoint_body(
        self, stack, v2_checkpoint, tmp_path
    ):
        base_url, runtime = stack
        target = tmp_path / "other"
        shutil.copytree(v2_checkpoint, target)
        status, payload = post(
            f"{base_url}/admin/reload", {"checkpoint": str(target)}
        )
        assert status == 200, payload
        assert payload["checkpoint"] == str(target)
        assert runtime.checkpoint_dir == str(target)

    def test_healthz_reflects_reload(self, stack):
        base_url, runtime = stack
        post(f"{base_url}/admin/reload")
        status, payload = get(f"{base_url}/healthz")
        assert status == 200
        assert payload["checkpoint_generation"] == runtime.generation
        assert payload["checkpoint_schema_version"] == (
            ARTIFACT_SCHEMA_VERSION
        )
        assert payload["reloads"] == 1
        assert payload["degraded"] is False

    @pytest.mark.parametrize(
        ("mode", "reason"),
        [
            ("truncate-model", "checksum"),
            ("garbage-artifact", "corrupt"),
            ("future-schema", "incompatible"),
            ("parent-format", "incompatible"),
            ("escaping-file", "corrupt"),
        ],
    )
    def test_damaged_checkpoint_typed_409_old_keeps_serving(
        self, stack, v2_checkpoint, tmp_path, mode, reason,
        damage_checkpoint,
    ):
        base_url, runtime = stack
        damaged = tmp_path / f"damaged-{mode}"
        shutil.copytree(v2_checkpoint, damaged)
        damage_checkpoint(damaged, mode)
        generation = runtime.generation
        status, payload = post(
            f"{base_url}/admin/reload", {"checkpoint": str(damaged)}
        )
        assert status == 409, payload
        assert payload["reason"] == reason
        # the old checkpoint keeps serving, generation untouched
        assert runtime.generation == generation
        status, answer = post(
            f"{base_url}/estimate", {"queries": [QUERY]}
        )
        assert status == 200
        assert answer["generation"] == generation

    def test_missing_checkpoint_dir_409(self, stack, tmp_path):
        base_url, _ = stack
        status, payload = post(
            f"{base_url}/admin/reload",
            {"checkpoint": str(tmp_path / "void")},
        )
        assert status == 409
        assert payload["reason"] == "missing"


    def test_checkpoint_without_artifact_409(
        self, stack, v2_checkpoint, tmp_path
    ):
        base_url, runtime = stack
        stripped = tmp_path / "stripped"
        shutil.copytree(v2_checkpoint, stripped)
        (stripped / "artifact.json").unlink()
        generation = runtime.generation
        status, payload = post(
            f"{base_url}/admin/reload", {"checkpoint": str(stripped)}
        )
        assert status == 409, payload
        assert payload["reason"] == "missing"
        assert runtime.generation == generation

    def test_snapshot_without_dictionary_is_a_checkpoint_error(
        self, stack, v2_checkpoint, tmp_path
    ):
        """Like a missing or corrupt snapshot: ``no_checkpoint`` is only
        for a server that has no checkpoint to reload from."""
        from repro.rdf import TripleStore

        base_url, runtime = stack
        bare = TripleStore()
        bare.add_all([(1, 1, 2), (2, 1, 3)])
        bare.save_snapshot(tmp_path / "bare")
        generation = runtime.generation
        status, payload = post(
            f"{base_url}/admin/reload",
            {
                "checkpoint": str(v2_checkpoint),
                "snapshot": str(tmp_path / "bare"),
            },
        )
        assert status == 409, payload
        assert payload["reason"] == "checkpoint_error"
        assert "no term dictionary" in payload["error"]
        assert runtime.generation == generation


@pytest.fixture(scope="module")
def other_checkpoint(service, fit_defaults, tmp_path_factory):
    """A checkpoint fitted on the served graph with another seed."""
    import dataclasses

    from repro.serve import default_framework

    path = tmp_path_factory.mktemp("reload-other") / "checkpoint"
    framework = default_framework(
        service.store, dataclasses.replace(fit_defaults, seed=1)
    )
    save_checkpoint(framework, path)
    return path


class TestPoolAbortedReload:
    def test_a_reload_the_pool_aborts_is_a_409(
        self, snapshot_dir, v2_checkpoint, other_checkpoint, service,
        star_queries,
    ):
        """A serving worker SIGKILLed in the reload's load step aborts
        the reload: a typed 409, not a 5xx, and the old checkpoint
        keeps answering under the old generation."""
        from repro.rdf.parser import format_sparql
        from repro.serve.artifacts import load_checkpoint

        other, _ = load_checkpoint(other_checkpoint, service.store)
        old = service.framework.estimate_batch(star_queries)
        keep = ~np.isclose(
            old, other.estimate_batch(star_queries), rtol=1e-3
        )
        assert keep.sum() >= 4, "the two checkpoints answer alike"
        texts = [
            format_sparql(query, service.store.dictionary)
            for query, differs in zip(star_queries, keep)
            if differs
        ]
        app = ServingApp(snapshot_dir, v2_checkpoint, port=0, workers=2)
        app.start()
        try:
            pool, generation = app.pool, app.runtime.generation
            load = pool._load

            def kill_then_load(workers, *pair):
                if threading.current_thread() is not pool._supervisor:
                    pool._load = load
                    os.kill(workers[-1].process.pid, signal.SIGKILL)
                return load(workers, *pair)

            pool._load = kill_then_load
            status, payload = post(
                f"{app.url}/admin/reload",
                {"checkpoint": str(other_checkpoint)},
            )
            reloaded_generation = app.runtime.generation
            _, answer = post(f"{app.url}/estimate", {"queries": texts})
        finally:
            app.close()
        assert status == 409, payload
        assert payload["reason"] == "worker_load_failed"
        assert reloaded_generation == generation
        assert answer["generation"] == generation
        np.testing.assert_allclose(
            answer["estimates"], old[keep], rtol=1e-6
        )


class TestRuntimeNoPath:
    def test_reload_error_without_any_checkpoint(self, service):
        from repro.serve import ReloadError, ShapeManifest

        backend = ResilientBackend(
            service.framework.estimate_batch,
            fallback=service.framework.estimate_batch,
        )
        scheduler = BatchScheduler(backend)
        runtime = ServingRuntime(
            service,
            scheduler,
            backend,
            admission=ShapeManifest.from_framework(service.framework),
        )
        try:
            with pytest.raises(ReloadError):
                runtime.reload()
        finally:
            scheduler.close()
