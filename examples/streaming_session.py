#!/usr/bin/env python3
"""Incremental ER: serve candidates as profiles arrive.

Walks the streaming subsystem end to end on a generated clean-clean task:

1. arrival-time replay — every ``upsert`` is followed by a query against
   the live index (the ``fast`` serving view), emitting matches the
   moment both sides have arrived;
2. mutation — a profile is deleted and queries reflect it immediately;
3. persistence — the warmed session survives a snapshot/restore round
   trip;
4. validation — with the ``exact`` view, querying every profile after a
   full replay reproduces the batch pipeline's retained pairs, edge for
   edge.

Run:  python examples/streaming_session.py
"""

import tempfile
from pathlib import Path

from repro import Blast, BlastConfig, StreamingSession, load_clean_clean


def main() -> None:
    dataset = load_clean_clean("ar1", scale=0.3)
    config = BlastConfig()

    # 1. Arrival-time serving: upsert + query per arriving profile.
    serving = StreamingSession(
        BlastConfig(stream_consistency="fast"), clean_clean=True
    )
    arrivals = matches = 0
    first_match = None
    for gidx, profile in dataset.iter_profiles():
        source = dataset.source_of(gidx)
        serving.upsert(profile, source=source)
        arrivals += 1
        candidates = serving.candidates(profile.profile_id, k=5, source=source)
        matches += len(candidates)
        if candidates and first_match is None:
            first_match = ((profile.profile_id, source), candidates[0],
                           arrivals)
    (target, target_source), partner, seen = first_match
    print(f"arrival-time replay: {arrivals} arrivals, "
          f"{matches} candidate links emitted on the fly")
    print(f"first match: {target} ~ {partner.profile_id} "
          f"(after {seen} arrivals)")

    # 2. Mutation: deleting a profile retracts its candidacy immediately.
    before = [c.profile_id
              for c in serving.candidates(target, source=target_source)]
    serving.delete(partner.profile_id, source=partner.source)
    after = [c.profile_id
             for c in serving.candidates(target, source=target_source)]
    print(f"after deleting {partner.profile_id}: {target} candidates "
          f"{before} -> {after}")

    # 3. Persistence: the warmed index survives a restart.
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "session.json.gz"
        serving.snapshot(snapshot)
        restored = StreamingSession.restore(snapshot)
        print(f"snapshot round trip: {snapshot.stat().st_size / 1024:.0f} KiB, "
              f"{restored.index.num_profiles} profiles restored")

    # 4. Validation: exact-view queries == the batch pipeline, pair for pair.
    batch_pairs = Blast(config).run(dataset).blocks.distinct_pairs()
    session = StreamingSession.from_dataset(dataset, config)  # exact view
    stream_pairs = set()
    for gidx, profile in dataset.iter_profiles():
        source = dataset.source_of(gidx)
        for c in session.candidates(profile.profile_id, source=source):
            other = (dataset.collection1.index_of(c.profile_id)
                     if c.source == 0
                     else dataset.offset2
                     + dataset.collection2.index_of(c.profile_id))
            stream_pairs.add((min(gidx, other), max(gidx, other)))
    print(f"exact-view replay vs batch pipeline: "
          f"{len(stream_pairs)} streamed pairs, {len(batch_pairs)} batch "
          f"pairs, identical={stream_pairs == batch_pairs}")


if __name__ == "__main__":
    main()
