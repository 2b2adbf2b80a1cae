"""Tests for the streaming session facade, replay, and snapshots."""

import json
from dataclasses import replace

import pytest

from repro.core import Blast, BlastConfig
from repro.core.registry import BACKENDS
from repro.core.stages import Pipeline, SchemaExtraction
from repro.data import EntityProfile
from repro.datasets import load_clean_clean
from repro.streaming import (
    STREAMING_SESSION,
    StreamingSession,
    StreamingStage,
    iter_stream,
    parse_stream_record,
)


def profile(pid: str, text: str) -> EntityProfile:
    return EntityProfile.from_dict(pid, {"name": text})


class TestSessionBasics:
    # Tiny fixtures disable purging and use CBS — see the matching note in
    # test_streaming_metablocker.py.

    def test_upsert_query_delete(self):
        session = StreamingSession(
            BlastConfig(purging_ratio=1.0, weighting="cbs")
        )
        session.upsert(profile("a", "john abram"))
        session.upsert(profile("b", "john abram"))
        assert [c.profile_id for c in session.candidates("a")] == ["b"]
        assert session.delete("b")
        assert session.candidates("a") == []

    def test_default_k_from_config(self):
        session = StreamingSession(
            BlastConfig(stream_query_k=1, purging_ratio=1.0, weighting="cbs")
        )
        session.upsert(profile("a", "john abram"))
        session.upsert(profile("b", "john abram"))
        session.upsert(profile("c", "john abram"))
        assert len(session.candidates("a")) == 1
        assert len(session.candidates("a", k=2)) == 2

    def test_use_entropy_false_neutralizes_cluster_entropies(self):
        dataset = load_clean_clean("ar1", scale=0.05)
        session = StreamingSession.from_dataset(
            dataset, BlastConfig(use_entropy=False)
        )
        partitioning = session.index.partitioning
        assert partitioning is not None
        for cluster_id in partitioning.cluster_ids:
            assert partitioning.entropy_of(cluster_id) == 1.0

    def test_from_dataset_matches_batch_pipeline(self):
        dataset = load_clean_clean("ar1", scale=0.05)
        config = BlastConfig()
        batch_pairs = Blast(config).run(dataset).blocks.distinct_pairs()
        session = StreamingSession.from_dataset(dataset, config)
        pairs = set()
        for gidx, p in dataset.iter_profiles():
            source = dataset.source_of(gidx)
            for c in session.candidates(p.profile_id, source=source):
                if c.source == 0:
                    other = dataset.collection1.index_of(c.profile_id)
                else:
                    other = dataset.offset2 + dataset.collection2.index_of(
                        c.profile_id
                    )
                pairs.add((min(gidx, other), max(gidx, other)))
        assert pairs == batch_pairs


class TestReplay:
    def test_replay_bare_profiles_queries_on_arrival(self):
        session = StreamingSession(
            BlastConfig(purging_ratio=1.0, weighting="cbs")
        )
        events = list(
            session.replay([profile("a", "john abram"),
                            profile("b", "john abram")])
        )
        assert events[0].candidates == []
        assert [c.profile_id for c in events[1].candidates] == ["a"]

    def test_replay_handles_delete_records(self):
        session = StreamingSession()
        records = [
            parse_stream_record(
                {"id": "a", "attributes": [["name", "john abram"]]}
            ),
            parse_stream_record({"op": "delete", "id": "a"}),
            parse_stream_record({"op": "delete", "id": "ghost"}),
        ]
        events = list(session.replay(records))
        assert events[1].applied and events[1].candidates is None
        assert not events[2].applied
        assert session.index.num_profiles == 0

    def test_replay_without_query_only_builds(self):
        session = StreamingSession()
        events = list(
            session.replay([profile("a", "x abram"),
                            profile("b", "y abram")], query=False)
        )
        assert all(e.candidates is None for e in events)
        assert session.index.num_profiles == 2

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown stream op"):
            parse_stream_record({"op": "merge", "id": "a"})


class TestStreamFile:
    def test_iter_stream_parses_ops_and_sources(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"id": "a", "attributes": [["n", "x"]]}\n'
            "\n"
            '{"id": "b", "source": 1, "attributes": [["n", "y"]]}\n'
            '{"op": "delete", "id": "a"}\n',
            encoding="utf-8",
        )
        records = list(iter_stream(path))
        assert [r.op for r in records] == ["upsert", "upsert", "delete"]
        assert records[1].source == 1
        assert records[2].profile is None

    def test_iter_stream_reports_bad_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"op": "upsert"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="s.jsonl:1"):
            list(iter_stream(path))


class TestSnapshot:
    def test_round_trip_preserves_results(self, tmp_path):
        dataset = load_clean_clean("prd", scale=0.05)
        session = StreamingSession.from_dataset(dataset)
        path = tmp_path / "snap.json.gz"
        session.snapshot(path)
        restored = StreamingSession.restore(path)
        assert restored.index.num_profiles == session.index.num_profiles
        for gidx, p in dataset.iter_profiles():
            source = dataset.source_of(gidx)
            assert restored.candidates(p.profile_id, source=source) == \
                session.candidates(p.profile_id, source=source)

    def test_snapshot_keeps_pruning_and_weighting(self, tmp_path):
        from repro.graph.pruning import CardinalityNodePruning

        session = StreamingSession(
            BlastConfig(weighting="cbs", stream_consistency="fast"),
            pruning=CardinalityNodePruning(reciprocal=True, k=3),
        )
        session.upsert(profile("a", "john abram"))
        path = tmp_path / "snap.json"
        session.snapshot(path)
        restored = StreamingSession.restore(path)
        assert restored.metablocker.weighting.value == "cbs"
        assert restored.metablocker.consistency == "fast"
        pruning = restored.metablocker.pruning
        assert isinstance(pruning, CardinalityNodePruning)
        assert pruning.reciprocal and pruning.k == 3

    def test_restore_reconstructs_the_public_config(self, tmp_path):
        session = StreamingSession(
            BlastConfig(min_token_length=3, purging_ratio=0.9,
                        pruning_c=1.5, stream_query_k=4, weighting="cbs",
                        stream_consistency="fast"),
        )
        session.upsert(profile("a", "john abram"))
        path = tmp_path / "snap.json"
        session.snapshot(path)
        config = StreamingSession.restore(path).config
        assert config is not None
        assert config.min_token_length == 3
        assert config.purging_ratio == 0.9
        assert config.pruning_c == 1.5
        assert config.stream_query_k == 4
        assert config.weighting.value == "cbs"
        assert config.stream_consistency == "fast"

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"format": 99}), encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            StreamingSession.restore(path)


class TestDictionaryRoundTrip:
    """The snapshot must round-trip the interned key dictionary."""

    def test_gzip_round_trip_preserves_key_ids_across_churn(self, tmp_path):
        session = StreamingSession()
        session.upsert(profile("a", "john abram"))
        session.upsert(profile("b", "ellen smith"))
        session.upsert(profile("c", "john smith"))
        # Churn: ids interned for "a"'s keys must survive its absence.
        session.delete("a")
        session.upsert(profile("a", "john abram"))

        path = tmp_path / "snap.json.gz"
        session.snapshot(path)
        restored = StreamingSession.restore(path)

        original = session.index.key_dictionary
        roundtripped = restored.index.key_dictionary
        assert roundtripped.to_payload() == original.to_payload()
        for key in original:
            assert roundtripped.id_of(key) == original.id_of(key)
        # Live postings are keyed by the same interned ids.
        assert set(restored.index.key_ids()) == set(session.index.key_ids())

    def test_dictionary_keeps_ids_of_fully_deleted_keys(self, tmp_path):
        session = StreamingSession()
        session.upsert(profile("a", "unique token"))
        before = {
            key: session.index.key_dictionary.id_of(key)
            for key in session.index.key_dictionary
        }
        session.delete("a")  # no live member keeps these keys alive
        path = tmp_path / "snap.json.gz"
        session.snapshot(path)
        restored = StreamingSession.restore(path)
        for key, kid in before.items():
            assert restored.index.key_dictionary.id_of(key) == kid
        # A re-upsert after restore revives the very same ids.
        restored.upsert(profile("a", "unique token"))
        assert restored.index.key_ids_of(
            restored.index.node_of("a")
        ) == frozenset(before.values())

    def test_snapshot_payload_carries_dictionary(self, tmp_path):
        import gzip

        session = StreamingSession()
        session.upsert(profile("a", "john abram"))
        path = tmp_path / "snap.json.gz"
        session.snapshot(path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            document = json.load(handle)
        payload = document["payload"]
        assert payload["dictionary"] == session.index.key_dictionary.to_payload()


class TestStreamingStage:
    def test_pipeline_equivalent_to_batch_blast(self):
        dataset = load_clean_clean("ar1", scale=0.05)
        config = BlastConfig()
        batch = Blast(config).run(dataset)
        result = Pipeline(
            [SchemaExtraction(config), StreamingStage(config)]
        ).run(dataset)
        assert result.blocks.distinct_pairs() == batch.blocks.distinct_pairs()
        assert [r.stage for r in result.stage_reports] == [
            "schema-extraction", "streaming-replay",
        ]

    def test_stage_leaves_session_artifact(self, figure1_dirty):
        from repro.core.stages import PipelineContext

        context = PipelineContext(figure1_dirty)
        StreamingStage().apply(context)
        session = context.artifacts[STREAMING_SESSION]
        assert session.index.num_profiles == 4
        assert context.blocks is not None

    def test_schema_agnostic_stage_works_without_partitioning(
        self, figure1_clean_clean
    ):
        result = Pipeline([StreamingStage()]).run(figure1_clean_clean)
        assert result.partitioning is None
        assert all(block.num_comparisons == 1 for block in result.blocks)

    def test_stream_query_k_does_not_truncate_stage_output(self):
        dataset = load_clean_clean("ar1", scale=0.05)
        uncapped = Pipeline([
            SchemaExtraction(BlastConfig()),
            StreamingStage(BlastConfig()),
        ]).run(dataset)
        capped_config = BlastConfig(stream_query_k=1)
        capped = Pipeline([
            SchemaExtraction(capped_config),
            StreamingStage(capped_config),
        ]).run(dataset)
        # stream_query_k caps serving queries, never the batch-equivalent
        # retained neighbourhoods the stage materializes.
        assert capped.blocks.distinct_pairs() == uncapped.blocks.distinct_pairs()


#: Every batch backend a BlastConfig can name, plus a real worker pool.
BACKEND_CONFIGS = [
    pytest.param(BlastConfig(backend=name), id=name)
    for name in BACKENDS.names()
] + [
    pytest.param(
        BlastConfig(backend="parallel", workers=2), id="parallel-workers2"
    )
]


class TestConfiguredByBlastConfig:
    """A session reads its weighting and view from ``BlastConfig`` alone;
    ``BlastConfig.backend`` selects batch meta-blocking and never stops a
    session from being built."""

    @pytest.mark.parametrize("config", BACKEND_CONFIGS)
    def test_session_builds_under_every_batch_backend(self, config):
        session = StreamingSession(
            replace(config, purging_ratio=1.0, weighting="cbs")
        )
        session.upsert(profile("a", "john abram"))
        session.upsert(profile("b", "john abram"))
        session.upsert(profile("c", "ellen smith"))
        assert [c.profile_id for c in session.candidates("a")] == ["b"]

    @pytest.mark.parametrize("config", BACKEND_CONFIGS)
    def test_from_dataset_and_stage_match_batch(self, config):
        dataset = load_clean_clean("ar1", scale=0.05)
        batch = Blast(BlastConfig()).run(dataset).blocks.distinct_pairs()
        session = StreamingSession.from_dataset(dataset, config)
        assert session.index.num_profiles == dataset.num_profiles
        result = Pipeline(
            [SchemaExtraction(config), StreamingStage(config)]
        ).run(dataset)
        assert result.blocks.distinct_pairs() == batch

    @pytest.mark.parametrize("override", [
        {"backend": "python"},
        {"weighting": "cbs"},
        {"consistency": "fast"},
    ], ids=["backend", "weighting", "consistency"])
    def test_per_parameter_overrides_are_gone(self, override):
        with pytest.raises(TypeError):
            StreamingSession(BlastConfig(), **override)


class TestSingleWriterContract:
    """Sessions are single-writer: interleaved writers must fail loudly
    (ConcurrentWriterError) instead of corrupting the index/journal."""

    def test_interleaved_writers_are_rejected(self, monkeypatch):
        import threading

        from repro.streaming import ConcurrentWriterError

        session = StreamingSession(
            BlastConfig(purging_ratio=1.0, weighting="cbs")
        )
        inside = threading.Event()
        release = threading.Event()
        real_upsert = session.index.upsert

        def slow_upsert(prof, source=0):
            inside.set()
            assert release.wait(timeout=10.0)
            return real_upsert(prof, source)

        monkeypatch.setattr(session.index, "upsert", slow_upsert)
        first = threading.Thread(
            target=session.upsert, args=(profile("a", "john abram"),)
        )
        first.start()
        try:
            assert inside.wait(timeout=10.0)  # writer A is mid-verb
            with pytest.raises(ConcurrentWriterError, match="single-writer"):
                session.upsert(profile("b", "john abram"))
            with pytest.raises(ConcurrentWriterError, match="single-writer"):
                session.delete("a")
            with pytest.raises(ConcurrentWriterError, match="single-writer"):
                session.snapshot("unused.json")
        finally:
            release.set()
            first.join(timeout=10.0)
        # Writer A completed; the session is intact and writable again.
        assert session.index.num_profiles == 1
        session.upsert(profile("b", "john abram"))
        assert [c.profile_id for c in session.candidates("a")] == ["b"]

    def test_sequential_verbs_do_not_trip_the_guard(self, tmp_path):
        session = StreamingSession(
            BlastConfig(purging_ratio=1.0, weighting="cbs")
        )
        session.upsert(profile("a", "john abram"))
        session.snapshot(tmp_path / "snap.json")
        session.delete("a")
        assert session.index.num_profiles == 0

    def test_restored_sessions_carry_the_guard(self, tmp_path):
        from repro.streaming import ConcurrentWriterError

        session = StreamingSession(
            BlastConfig(purging_ratio=1.0, weighting="cbs")
        )
        session.upsert(profile("a", "john abram"))
        session.snapshot(tmp_path / "snap.json")
        restored = StreamingSession.restore(tmp_path / "snap.json")
        with restored._exclusive("test"):
            with pytest.raises(ConcurrentWriterError):
                restored.upsert(profile("b", "john abram"))
        restored.upsert(profile("b", "john abram"))  # released again
