"""Configuration of the BLAST pipeline."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields

from repro.graph.weights import WeightingScheme

#: Built-in backends that run serially and take no execution knobs.
SERIAL_BACKENDS = frozenset({"python", "vectorized"})

#: The execution knobs: rejected for :data:`SERIAL_BACKENDS`, forwarded to
#: every other backend via :meth:`BlastConfig.backend_options`.
_EXECUTION_KNOBS = ("workers", "shard_size", "task_timeout", "max_retries")


@dataclass(frozen=True)
class BlastConfig:
    """All tunables of the three-phase pipeline, with the paper's defaults.

    Phase 1 — loose schema information extraction
    ----------------------------------------------
    induction:
        ``"lmi"`` (the paper's Algorithm 1) or ``"ac"`` (the Attribute
        Clustering baseline of [18]).
    representation:
        Attribute representation model: ``"binary"`` (token presence +
        Jaccard, the paper's choice) or ``"tfidf"`` (TF-IDF + cosine, the
        alternative Section 2.1 describes).  TF-IDF is incompatible with
        the LSH step (MinHash estimates Jaccard only).
    alpha:
        LMI's "nearly similar" candidate factor.
    glue_cluster:
        Gather unclustered attributes in the glue cluster; disabling it
        drops their blocking keys (Figure 10's configuration).
    use_lsh:
        Enable the MinHash/banding pre-processing step.
    lsh_threshold:
        Target Jaccard threshold of the banding (its S-curve inflection).
    lsh_num_hashes:
        MinHash signature length.

    Phase 2 — loosely schema-aware blocking
    ----------------------------------------
    min_token_length:
        Shortest token used as a blocking key.
    purging_ratio:
        Block Purging drops blocks covering more than this fraction of all
        profiles.
    filtering_ratio:
        Block Filtering keeps each profile in this fraction of its smallest
        blocks.

    Phase 3 — loosely schema-aware meta-blocking
    ---------------------------------------------
    weighting:
        Edge weighting scheme (chi-squared x entropy by default).
    use_entropy:
        Feed cluster entropies into the blocking graph; switching this off
        is the ``chi`` ablation of Figure 8.
    entropy_boost:
        For traditional weighting schemes only: multiply by h(B_uv) (the
        ``wsh`` ablation of Figure 8).
    pruning_c / pruning_d:
        The constants of BLAST's pruning rule ``theta_i = M_i / c``,
        ``theta_ij = (theta_i + theta_j) / d``.
    backend:
        Meta-blocking execution backend: ``"vectorized"`` (array-backed
        numpy hot path, the default), ``"parallel"`` (the same arrays
        sharded across worker processes) or ``"python"`` (the pure-Python
        reference) — any name registered in
        ``repro.core.registry.BACKENDS``.  All built-ins produce the
        identical retained edge set.
    workers:
        Worker processes of the ``parallel`` backend; ``None`` (the
        default) uses the machine's cpu count, ``1`` runs the shards
        sequentially in-process.  Rejected with the serial built-ins
        (where it would be silently meaningless); forwarded to custom
        registered backends.
    shard_size:
        Cap on the comparisons enumerated per shard of the ``parallel``
        backend (peak per-shard edge-array bytes scale with it; only a
        single entity owning more than the cap may exceed it); ``None``
        takes the default plan the ``vectorized`` backend always uses
        (``sharding.DEFAULT_SHARD_PAIRS`` comparisons per shard, raised
        only past ``sharding.MAX_DEFAULT_SHARDS`` shards; at least one
        shard per worker).  Rejected with the serial built-ins, forwarded
        to custom backends.
    task_timeout:
        Seconds one shard task of the ``parallel`` backend may take
        before it is declared lost and retried (``None`` waits forever);
        the only way a killed or hung worker is detected.  Rejected with
        the serial built-ins, forwarded to custom backends.
    max_retries:
        Fresh-pool retries of the ``parallel`` backend after shard tasks
        fail or time out (default 2 when unset; shards still unfinished
        after the retries degrade to serial in-process execution, so
        results are bit-identical either way).  Rejected with the serial
        built-ins, forwarded to custom backends.
    seed:
        Seed for the LSH hash functions.

    Streaming (the query-time subsystem, see DESIGN.md)
    ----------------------------------------------------
    stream_consistency:
        Query view of the streaming subsystem: ``"exact"`` reproduces the
        batch purging/filtering/graph semantics lazily per index version,
        ``"fast"`` reads incrementally maintained statistics — any name
        registered in ``repro.core.registry.STREAM_VIEWS``.
    stream_query_k:
        Default per-query candidate cap of ``StreamingSession.candidates``
        (``None`` returns every retained neighbor).

    Serving (the multi-tenant async server, see DESIGN.md "Serving layer")
    ----------------------------------------------------------------------
    serve_max_queue:
        Bound of each tenant's write queue.  When a tenant's queue is
        full, further ``upsert``/``delete`` requests are answered
        ``overloaded`` immediately (explicit backpressure) instead of
        growing memory without bound.
    serve_batch_size:
        Most write operations one tenant actor applies per batch; between
        batches the event loop runs queries, so read latency under a
        write flood is bounded by one batch, not the whole queue.  Must
        not exceed ``serve_max_queue`` (a batch larger than the queue
        could never fill).
    serve_resident_tenants:
        Most tenant sessions kept open concurrently.  The least recently
        used tenant beyond the cap is drained, snapshotted, and closed
        back to cold storage; the next touch recovers it from its
        snapshot + journal.
    serve_snapshot_interval:
        Write operations between automatic per-tenant snapshots
        (``None`` snapshots only on eviction and graceful shutdown; the
        write-ahead journal covers crashes either way — the interval
        only bounds recovery replay length).
    """

    # Phase 1
    induction: str = "lmi"
    representation: str = "binary"
    alpha: float = 0.9
    glue_cluster: bool = True
    use_lsh: bool = False
    lsh_threshold: float = 0.4
    lsh_num_hashes: int = 150
    # Phase 2
    min_token_length: int = 2
    purging_ratio: float = 0.5
    filtering_ratio: float = 0.8
    # Phase 3
    weighting: WeightingScheme | str = WeightingScheme.CHI_H
    use_entropy: bool = True
    entropy_boost: bool = False
    pruning_c: float = 2.0
    pruning_d: float = 2.0
    backend: str = "vectorized"
    workers: int | None = None
    shard_size: int | None = None
    task_timeout: float | None = None
    max_retries: int | None = None
    seed: int | None = None
    # Streaming
    stream_consistency: str = "exact"
    stream_query_k: int | None = None
    # Serving
    serve_max_queue: int = 256
    serve_batch_size: int = 32
    serve_resident_tenants: int = 64
    serve_snapshot_interval: int | None = None

    def __post_init__(self) -> None:
        # Accept registry names ("cbs", "chi_h", ...) wherever a scheme is
        # expected, so configs built from CLI flags or files stay plain.
        if not isinstance(self.weighting, WeightingScheme):
            try:
                object.__setattr__(
                    self, "weighting", WeightingScheme(self.weighting)
                )
            except ValueError:
                valid = ", ".join(s.value for s in WeightingScheme)
                raise ValueError(
                    f"unknown weighting {self.weighting!r}; valid: {valid}"
                ) from None
        if self.induction not in ("lmi", "ac"):
            raise ValueError(f"induction must be 'lmi' or 'ac', got {self.induction!r}")
        if self.representation not in ("binary", "tfidf"):
            raise ValueError(
                f"representation must be 'binary' or 'tfidf', "
                f"got {self.representation!r}"
            )
        if self.representation == "tfidf" and self.use_lsh:
            raise ValueError(
                "the LSH step estimates Jaccard similarity and cannot be "
                "combined with the TF-IDF representation"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.lsh_threshold < 1.0:
            raise ValueError(
                f"lsh_threshold must be in (0, 1), got {self.lsh_threshold}"
            )
        if self.lsh_num_hashes < 1:
            raise ValueError(
                f"lsh_num_hashes must be positive, got {self.lsh_num_hashes}"
            )
        if self.min_token_length < 1:
            raise ValueError(
                f"min_token_length must be positive, got {self.min_token_length}"
            )
        if not 0.0 < self.purging_ratio <= 1.0:
            raise ValueError(
                f"purging_ratio must be in (0, 1], got {self.purging_ratio}"
            )
        if not 0.0 < self.filtering_ratio <= 1.0:
            raise ValueError(
                f"filtering_ratio must be in (0, 1], got {self.filtering_ratio}"
            )
        if self.pruning_c <= 0 or self.pruning_d <= 0:
            raise ValueError("pruning_c and pruning_d must be positive")
        # Backend names resolve through the BACKENDS registry at run time
        # (importing it here would be circular); only basic shape is checked.
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError(
                f"backend must be a non-empty registry name, got {self.backend!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(
                f"workers must be positive or None, got {self.workers}"
            )
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(
                f"shard_size must be positive or None, got {self.shard_size}"
            )
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise ValueError(
                f"task_timeout must be positive or None, got {self.task_timeout}"
            )
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0 or None, got {self.max_retries}"
            )
        # Refuse, rather than silently ignore, execution knobs the chosen
        # backend will never see — `--workers 8` without `--backend
        # parallel` must not quietly run serial.  Only the known serial
        # built-ins are rejected: a custom registered backend receives the
        # knobs through backend_options() and may accept them (or fail
        # loudly with a TypeError of its own).
        if self.backend in SERIAL_BACKENDS and self._set_execution_knobs():
            got = ", ".join(
                f"{name}={getattr(self, name)}" for name in _EXECUTION_KNOBS
            )
            raise ValueError(
                f"{'/'.join(_EXECUTION_KNOBS)} do not apply to the serial "
                f"{self.backend!r} backend; use backend='parallel' "
                f"(got {got})"
            )
        # Same deal for stream view names (STREAM_VIEWS registry).
        if not self.stream_consistency or not isinstance(
            self.stream_consistency, str
        ):
            raise ValueError(
                f"stream_consistency must be a non-empty registry name, "
                f"got {self.stream_consistency!r}"
            )
        if self.stream_query_k is not None and self.stream_query_k < 1:
            raise ValueError(
                f"stream_query_k must be positive or None, "
                f"got {self.stream_query_k}"
            )
        # Serving knobs: validated here (reject, don't clamp) with the
        # same discipline as workers/shard_size — a queue bound or batch
        # size that silently "worked" at 0 would disable backpressure or
        # stall every actor.
        if self.serve_max_queue < 1:
            raise ValueError(
                f"serve_max_queue must be positive, got {self.serve_max_queue}"
            )
        if self.serve_batch_size < 1:
            raise ValueError(
                f"serve_batch_size must be positive, "
                f"got {self.serve_batch_size}"
            )
        if self.serve_batch_size > self.serve_max_queue:
            raise ValueError(
                f"serve_batch_size ({self.serve_batch_size}) cannot exceed "
                f"serve_max_queue ({self.serve_max_queue}); a batch larger "
                "than the queue bound can never fill"
            )
        if self.serve_resident_tenants < 1:
            raise ValueError(
                f"serve_resident_tenants must be positive, "
                f"got {self.serve_resident_tenants}"
            )
        if (
            self.serve_snapshot_interval is not None
            and self.serve_snapshot_interval < 1
        ):
            raise ValueError(
                f"serve_snapshot_interval must be positive or None, "
                f"got {self.serve_snapshot_interval}"
            )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "BlastConfig":
        """Build a config from a plain mapping, rejecting unknown keys.

        ``BlastConfig(**data)`` would raise an opaque ``TypeError`` on a
        typoed key; config files deserve the field listing.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown BlastConfig field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        return cls(**mapping)  # type: ignore[arg-type]

    def backend_options(self) -> dict[str, object]:
        """Keyword arguments forwarded to the selected backend callable.

        The serial built-ins receive no extras (their signatures stay the
        plain backend protocol; set knobs are rejected at construction);
        ``parallel`` — and any custom registered backend — receives the
        ``workers``/``shard_size``/``task_timeout``/``max_retries`` knobs
        that were set.  ``None`` values are omitted so backend-side
        defaults (cpu count, the default shard plan, no timeout, 2
        retries) apply.
        """
        if self.backend in SERIAL_BACKENDS:
            return {}
        return self._set_execution_knobs()

    def _set_execution_knobs(self) -> dict[str, object]:
        """The execution knobs that were set (not ``None``), by name."""
        return {
            name: getattr(self, name)
            for name in _EXECUTION_KNOBS
            if getattr(self, name) is not None
        }
