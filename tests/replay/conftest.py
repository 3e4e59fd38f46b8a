"""Shared replay fixtures: one live harness per session + corpus hook.

The harness is the real serving stack (supervised workers, scheduler,
admission, hot reload) on an ephemeral port — session-scoped because
its startup fit costs seconds.  Chaos tests kill its workers; the
supervisor restarts them, so later tests see a healthy pool.

``record_counterexample`` is the fuzz suite's persistence hook: each
property overwrites its slot on every failing example, and the session
finalizer writes the *last* one — the minimized reproduction hypothesis
replays at the end of shrinking — into ``tests/replay/corpus/``.
"""

from pathlib import Path

import pytest

from repro.serve import FitDefaults

#: small but non-trivial startup-fit: seconds, not minutes.
FIT = FitDefaults(
    shapes=(("star", 2), ("star", 3), ("chain", 2), ("chain", 3)),
    queries_per_shape=100,
    epochs=4,
    hidden_sizes=(32, 32),
)

CORPUS_DIR = Path(__file__).parent / "corpus"


@pytest.fixture(scope="session")
def fit_defaults():
    return FIT


@pytest.fixture(scope="session")
def replay_store():
    from repro.datasets import load_dataset

    return load_dataset("lubm", scale=0.25, seed=1)


@pytest.fixture(scope="session")
def snapshot_dir(replay_store, tmp_path_factory):
    directory = tmp_path_factory.mktemp("replay") / "snapshot"
    replay_store.save_snapshot(directory)
    return directory


@pytest.fixture(scope="session")
def harness(snapshot_dir):
    from repro.replay import ReplayHarness

    h = ReplayHarness(
        snapshot_dir,
        workers=2,
        fit_defaults=FIT,
        maintain_options={"shapes": FIT.shapes, "queries_per_shape": 40},
        seed=0,
    )
    h.wait_ready()
    yield h
    h.close()


_pending_counterexamples = {}


@pytest.fixture(scope="session")
def record_counterexample():
    """Overwrite-latest failure recorder; flushed to the corpus at
    session end (the last recorded example per slot is the one
    hypothesis minimized)."""

    def _record(slot: str, payload: dict) -> None:
        _pending_counterexamples[slot] = payload

    yield _record
    from strategies import save_counterexample

    for payload in _pending_counterexamples.values():
        save_counterexample(CORPUS_DIR, payload)
