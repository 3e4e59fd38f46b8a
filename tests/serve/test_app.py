"""The composition root against the real program.

`ServingApp` built in-process must be the server `python -m repro serve`
starts on the same inputs — same `/healthz`, same answer bytes — and
its `close()` must leave nothing behind.
"""

import json
import re
import threading
import urllib.request

import pytest

from repro.serve import FitDefaults, ServingApp

QUERIES = [
    "SELECT ?x ?y WHERE { ?x <ub:advisor> ?y . "
    "?x <ub:takesCourse> ?z . }",
    "SELECT ?x ?z WHERE { ?x <ub:advisor> ?y . "
    "?y <ub:worksFor> ?z . }",
]


def observe(url):
    """Raw `/healthz` (uptime masked) and 50 raw `/estimate` bodies."""
    with urllib.request.urlopen(f"{url}/healthz", timeout=30) as reply:
        healthz = re.sub(
            rb'"uptime_s": [0-9.]+', b'"uptime_s": 0', reply.read()
        )
    answers = []
    for i in range(50):
        body = json.dumps({"queries": QUERIES[: 1 + i % 2]})
        request = urllib.request.Request(
            f"{url}/estimate", data=body.encode("utf-8")
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            answers.append(reply.read())
    return healthz, answers


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("startup_fit", [False, True])
def test_same_server_as_the_cli_and_nothing_left_behind(
    snapshot_dir, checkpoint_dir, cli_serve, child_pids, workers, startup_fit
):
    threads_before = set(threading.enumerate())
    children_before = child_pids()
    process, url = cli_serve(
        "--workers",
        str(workers),
        *(
            ("--fit-queries", "30", "--fit-epochs", "1")
            if startup_fit
            else ("--checkpoint", str(checkpoint_dir))
        ),
    )
    expected = observe(url)
    process.terminate()
    assert process.wait(30) == 0

    app = ServingApp(
        snapshot_dir,
        None if startup_fit else checkpoint_dir,
        port=0,
        workers=workers,
        fit_defaults=FitDefaults(queries_per_shape=30, epochs=1),
    ).start()
    try:
        assert observe(app.url) == expected
    finally:
        assert app.close() is True
    assert app.close() is True  # idempotent
    leaked = [
        thread.name
        for thread in set(threading.enumerate()) - threads_before
        if thread.name.startswith("repro-")
    ]
    assert not leaked
    assert child_pids() <= children_before
