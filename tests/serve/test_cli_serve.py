"""`python -m repro serve` end-to-end: the real subprocess, real HTTP.

Save a snapshot, start the server against it, wait for /healthz, fire
concurrent requests, and check the answers against the served
checkpoint loaded client-side; then drive a `--faults` plan given on
the command line through a worker kill-storm.
"""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

QUERY = (
    "SELECT ?x ?y WHERE { ?x <ub:advisor> ?y . "
    "?x <ub:takesCourse> ?z . }"
)


def post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


@pytest.fixture(scope="module")
def served(snapshot_dir, tmp_path_factory):
    """A live `python -m repro serve` subprocess on an ephemeral port."""
    checkpoint = tmp_path_factory.mktemp("cli-serve") / "ckpt"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--snapshot",
            str(snapshot_dir),
            "--port",
            "0",
            "--fit-queries",
            "100",
            "--fit-epochs",
            "4",
            "--save-checkpoint",
            str(checkpoint),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    port = None
    try:
        deadline = time.monotonic() + 180.0
        for line in process.stdout:
            if "serving" in line and "http://" in line:
                port = int(line.split("http://", 1)[1]
                           .split(" ", 1)[0].rsplit(":", 1)[1])
                break
            if time.monotonic() > deadline:
                break
        assert port is not None, "server never reported its port"
        base = f"http://127.0.0.1:{port}"
        # Wait for /healthz to answer.
        for _ in range(600):
            try:
                with urllib.request.urlopen(
                    f"{base}/healthz", timeout=5
                ) as response:
                    if json.load(response)["status"] == "ok":
                        break
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
        yield base, checkpoint
    finally:
        process.terminate()
        try:
            process.wait(10)
        except subprocess.TimeoutExpired:
            process.kill()


class TestServeCLI:
    def test_estimates_byte_identical_to_framework(
        self, served, service
    ):
        """Acceptance: POST /estimate answers byte-identical to
        Framework.estimate_batch on the same queries.  The served
        framework was fitted with the hidden-size defaults, so compare
        against the checkpoint the server itself saved."""
        from repro.core.framework import LMKG

        base, checkpoint = served
        texts = [QUERY] * 5
        status, payload = post(f"{base}/estimate", {"queries": texts})
        assert status == 200
        framework = LMKG.load(checkpoint, service.store)
        expected = framework.estimate_batch(
            service.parse_queries(texts)
        )
        assert payload["estimates"] == expected.tolist()

    def test_fifty_concurrent_requests_match_serial(
        self, served, service
    ):
        from repro.core.framework import LMKG

        base, checkpoint = served
        framework = LMKG.load(checkpoint, service.store)
        expected = float(
            framework.estimate_batch(service.parse_queries([QUERY]))[0]
        )
        with ThreadPoolExecutor(max_workers=16) as pool:
            responses = list(
                pool.map(
                    lambda _: post(
                        f"{base}/estimate", {"queries": [QUERY]}
                    ),
                    range(50),
                )
            )
        assert all(status == 200 for status, _ in responses)
        values = [payload["estimates"][0] for _, payload in responses]
        assert np.allclose(values, expected, rtol=1e-9)

    def test_healthz_and_stats_served(self, served):
        base, _ = served
        with urllib.request.urlopen(f"{base}/stats", timeout=30) as r:
            stats = json.load(r)
        assert stats["requests"] >= 1
        assert stats["batches"] >= 1

    def test_malformed_request_400(self, served):
        base, _ = served
        status, payload = post(
            f"{base}/estimate", {"queries": ["SELECT ?x WHERE"]}
        )
        assert status == 400
        assert "error" in payload


class TestServeFaultsCLI:
    def test_kill_every_answers_every_request(
        self, cli_serve, checkpoint_dir
    ):
        """``--faults`` JSON on the command line reaches the pool
        workers: a kill-every-5th-request plan kills workers under 40
        single-query requests, every one is still answered, and the
        supervisor keeps a worker alive."""
        _, url = cli_serve(
            "--checkpoint",
            str(checkpoint_dir),
            "--workers",
            "2",
            "--faults",
            '{"kill_every": 5}',
        )
        statuses = [
            post(f"{url}/estimate", {"queries": [QUERY]})[0]
            for _ in range(40)
        ]
        assert statuses == [200] * 40
        with urllib.request.urlopen(f"{url}/healthz", timeout=30) as r:
            pool = json.load(r)["pool"]
        assert pool["deaths"] >= 1, pool
        assert any(worker["alive"] for worker in pool["workers"]), pool


class TestTrainThenServe:
    def test_served_estimate_is_what_repro_estimate_prints(
        self, tmp_path, capsys
    ):
        """``repro train`` writes the directory ``repro serve`` loads:
        save a snapshot and train on one dataset, serve the trained
        directory, and ``POST /estimate`` answers what ``repro
        estimate`` prints for the same checkpoint."""
        from repro.cli import main
        from repro.serve import ServingApp

        dataset = ["--dataset", "lubm", "--scale", "0.25"]
        snapshot, checkpoint = tmp_path / "snapshot", tmp_path / "ckpt"
        assert main(
            ["snapshot", "save", *dataset, "--out", str(snapshot)]
        ) == 0
        assert main(
            [
                "train", *dataset,
                "--shapes", "star:2",
                "--epochs", "3",
                "--queries", "80",
                "--hidden", "16",
                "--out", str(checkpoint),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "estimate", *dataset,
                "--checkpoint", str(checkpoint),
                "--query", QUERY,
            ]
        ) == 0
        printed = capsys.readouterr().out
        app = ServingApp(snapshot, checkpoint, port=0).start()
        try:
            status, payload = post(
                f"{app.url}/estimate", {"queries": [QUERY]}
            )
        finally:
            app.close()
        assert status == 200, payload
        assert printed == f"estimate: {payload['estimates'][0]:.1f}\n"
