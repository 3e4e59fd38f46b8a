"""The chaos timeline DSL: parsing and scheduled execution."""

import threading
import time

import pytest

from repro.replay import (
    TimelineError,
    TimelineStep,
    parse_timeline,
    run_timeline,
    start_timeline,
)

SCRIPT = """
# a storm
at 0.05s: kill worker
at 0.02s: reload ; at 0.03s: mutate 500
at 0.04s: maintain full
at 0.01s: corrupt next checkpoint garbage-artifact
"""


class FakeContext:
    """Records every call; raises when told to."""

    def __init__(self, fail_on=()):
        self.calls = []
        self.fail_on = set(fail_on)

    def _call(self, name, *args):
        self.calls.append((name, args))
        if name in self.fail_on:
            raise RuntimeError(f"boom in {name}")
        return f"did {name}"

    def kill_worker(self, index=None):
        return self._call("kill_worker", index)

    def reload(self, checkpoint=None, snapshot=None):
        return self._call("reload", checkpoint, snapshot)

    def mutate(self, count):
        return self._call("mutate", count)

    def maintain(self, full=False):
        return self._call("maintain", full)

    def corrupt_next_checkpoint(self, mode):
        return self._call("corrupt_next_checkpoint", mode)

    def corrupt_checkpoint(self, path, mode):
        return self._call("corrupt_checkpoint", path, mode)


class TestParse:
    def test_parses_and_sorts(self):
        steps = parse_timeline(SCRIPT)
        assert [s.action for s in steps] == [
            "corrupt_next_checkpoint",
            "reload",
            "mutate",
            "maintain",
            "kill_worker",
        ]
        assert steps[0].args == ("garbage-artifact",)
        assert steps[3].args == ("full",)

    def test_semicolons_and_comments(self):
        steps = parse_timeline(
            "# comment\nat 1s: reload; at 2s: mutate 3\n"
        )
        assert len(steps) == 2

    def test_explicit_corrupt_checkpoint(self):
        (step,) = parse_timeline(
            "at 1s: corrupt checkpoint /tmp/ckpt truncate-model"
        )
        assert step.action == "corrupt_checkpoint"
        assert step.args == ("/tmp/ckpt", "truncate-model")

    def test_default_corruption_mode(self):
        (step,) = parse_timeline("at 1s: corrupt next checkpoint")
        assert step.args[0] in (
            "truncate-model",
            "garbage-artifact",
            "future-schema",
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "kill worker",  # missing 'at'
            "at 5: reload",  # time without 's'
            "at -1s: reload",  # negative
            "at 5s reload",  # missing ':'
            "at 5s: explode",  # unknown action
            "at 5s: kill worker one",  # non-int index
            "at 5s: mutate",  # missing count
            "at 5s: mutate 0",  # count < 1
            "at 5s: maintain quick",  # unknown flag
            "at 5s: corrupt next checkpoint eat-disk",  # unknown mode
            "at 5s: corrupt checkpoint",  # missing dir
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(TimelineError):
            parse_timeline(bad)

    def test_empty_script_is_empty(self):
        assert parse_timeline("# nothing\n\n") == []


class TestRun:
    def test_executes_in_order_with_args(self):
        context = FakeContext()
        log = run_timeline(parse_timeline(SCRIPT), context)
        assert [name for name, _ in context.calls] == [
            "corrupt_next_checkpoint",
            "reload",
            "mutate",
            "maintain",
            "kill_worker",
        ]
        assert ("mutate", (500,)) in context.calls
        assert ("maintain", (True,)) in context.calls
        assert all(entry["ok"] for entry in log)
        assert log[1]["detail"] == "did reload"

    def test_fail_soft_continues(self):
        context = FakeContext(fail_on={"reload"})
        steps = parse_timeline(
            "at 0.01s: reload\nat 0.02s: mutate 2\n"
        )
        log = run_timeline(steps, context)
        assert log[0]["ok"] is False
        assert "boom in reload" in log[0]["detail"]
        assert log[1]["ok"] is True  # the storm went on

    def test_honors_schedule(self):
        context = FakeContext()
        steps = parse_timeline("at 0.15s: reload")
        t0 = time.monotonic()
        log = run_timeline(steps, context)
        assert time.monotonic() - t0 >= 0.15
        assert log[0]["started_s"] >= 0.15

    def test_stop_event_aborts(self):
        context = FakeContext()
        stop = threading.Event()
        stop.set()
        log = run_timeline(
            [TimelineStep(5.0, "reload", ())], context, stop
        )
        assert log == []
        assert context.calls == []

    def test_start_timeline_thread(self):
        context = FakeContext()
        thread, log = start_timeline(
            parse_timeline("at 0.01s: mutate 7"), context
        )
        thread.join(5.0)
        assert not thread.is_alive()
        assert log[0]["ok"] is True
        assert context.calls == [("mutate", (7,))]
