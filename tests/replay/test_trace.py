"""Trace generation and the recorded-trace format."""

import collections

import pytest

from repro.rdf import parse_sparql
from repro.replay import (
    DEFAULT_MIX,
    covering_shapes,
    generate_trace,
    load_trace,
    parse_mix,
    save_trace,
)
from repro.replay.trace import TraceFormatError


@pytest.fixture(scope="module")
def trace(replay_store):
    return generate_trace(
        replay_store, rate_qps=50.0, duration_s=6.0, seed=11
    )


class TestGeneration:
    def test_deterministic(self, replay_store):
        a = generate_trace(replay_store, 20.0, 3.0, seed=5)
        b = generate_trace(replay_store, 20.0, 3.0, seed=5)
        assert [e.text for e in a] == [e.text for e in b]
        assert [e.offset_s for e in a] == [e.offset_s for e in b]

    def test_seed_changes_trace(self, replay_store):
        a = generate_trace(replay_store, 20.0, 3.0, seed=5)
        b = generate_trace(replay_store, 20.0, 3.0, seed=6)
        assert [e.text for e in a] != [e.text for e in b]

    def test_rate_and_duration_roughly_honored(self, trace):
        assert 4.0 <= trace.duration_s <= 6.5
        # Poisson arrivals: allow generous slack around the target.
        assert 30.0 <= trace.offered_rate_qps <= 75.0

    def test_offsets_non_decreasing(self, trace):
        offsets = [e.offset_s for e in trace]
        assert offsets == sorted(offsets)

    def test_mix_shapes_present(self, trace):
        shapes = {(e.topology, e.size) for e in trace}
        expected = {(t, s) for t, s, _ in DEFAULT_MIX}
        assert shapes == expected

    def test_zipf_concentrates_popularity(self, replay_store):
        """High skew makes one hot query dominate; zero skew spreads."""
        skewed = generate_trace(
            replay_store,
            80.0,
            6.0,
            mix=[("star", 2, 1.0)],
            seed=3,
            zipf_s=2.0,
        )
        flat = generate_trace(
            replay_store,
            80.0,
            6.0,
            mix=[("star", 2, 1.0)],
            seed=3,
            zipf_s=0.0,
        )
        top_skewed = collections.Counter(
            e.text for e in skewed
        ).most_common(1)[0][1]
        top_flat = collections.Counter(
            e.text for e in flat
        ).most_common(1)[0][1]
        assert top_skewed > 2 * top_flat

    def test_uniform_arrivals_grid(self, replay_store):
        trace = generate_trace(
            replay_store, 10.0, 2.0, seed=1, arrivals="uniform"
        )
        gaps = [
            b.offset_s - a.offset_s
            for a, b in zip(trace.events, trace.events[1:])
        ]
        assert all(abs(gap - 0.1) < 1e-6 for gap in gaps)

    def test_queries_parse(self, trace, replay_store):
        for event in list(trace)[:40]:
            query = parse_sparql(event.text, replay_store.dictionary)
            assert len(query.triples) == event.size

    def test_compound_is_single_disconnected_bgp(self, replay_store):
        trace = generate_trace(
            replay_store, 10.0, 2.0, mix=[("compound", 4, 1.0)], seed=2
        )
        event = trace.events[0]
        query = parse_sparql(event.text, replay_store.dictionary)
        assert len(query.triples) == 4

    def test_range_topology_rejected(self, replay_store):
        """Range (FILTER) queries are not a trace topology."""
        with pytest.raises(TraceFormatError, match="range"):
            generate_trace(
                replay_store, 5.0, 2.0, mix=[("range", 2, 1.0)], seed=2
            )
        with pytest.raises(TraceFormatError, match="range"):
            parse_mix(["range:2"])


class TestRoundTrip:
    def test_save_load_identity(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "t.trace")
        loaded = load_trace(path)
        assert loaded.events == trace.events
        assert loaded.meta["rate_qps"] == trace.meta["rate_qps"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("offset\tstar\t2\tSELECT\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_decreasing_offsets_rejected(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "t.trace")
        lines = path.read_text().splitlines()
        lines.append("0.000001\tstar\t2\t" + trace.events[0].text)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text(
            "# repro-trace v1\n# offset_s\ttopology\tsize\tquery\n"
        )
        with pytest.raises(TraceFormatError):
            load_trace(path)


class TestMixAndShapes:
    def test_parse_mix(self):
        assert parse_mix(["star:2:0.5", "chain:3"]) == [
            ("star", 2, 0.5),
            ("chain", 3, 1.0),
        ]

    @pytest.mark.parametrize(
        "bad", ["star", "cycle:2", "star:x", "star:0", "star:2:-1"]
    )
    def test_parse_mix_rejects(self, bad):
        with pytest.raises(TraceFormatError):
            parse_mix([bad])

    def test_covering_shapes(self, replay_store):
        trace = generate_trace(
            replay_store,
            10.0,
            2.0,
            mix=[("star", 3, 1.0), ("compound", 5, 1.0)],
            seed=4,
        )
        shapes = covering_shapes(trace)
        assert ("star", 3) in shapes
        assert ("star", 2) in shapes  # compound's star component
        assert ("chain", 3) in shapes  # compound's chain component
