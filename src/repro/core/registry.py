"""String-keyed component registries: blockers, weightings, prunings.

Every pluggable component of the pipeline is addressable by name — from
config files, the CLI (``--blocker suffix-array --weighting cbs``), and
benchmark specs — through three global registries populated with the
built-ins below and extensible via decorators::

    >>> from repro.core.registry import register_blocker, BLOCKERS
    >>> @register_blocker("null")
    ... def _null_stage(config):
    ...     from repro.core.stages import TokenBlockingStage
    ...     return TokenBlockingStage(min_token_length=10_000)

Registry entries are factories taking a :class:`BlastConfig` so a single
flag set configures whichever component is selected:

* ``BLOCKERS``   — ``name -> (config) -> Stage`` producing the block
  collection (token, schema-aware, qgrams, suffix-array, canopy);
* ``WEIGHTINGS`` — ``name -> WeightingScheme | (graph) -> weights``;
* ``PRUNERS``    — ``name -> (config) -> PruningScheme``, or a ready
  meta-blocking :class:`Stage` (``supervised``);
* ``BACKENDS``   — meta-blocking execution backends (``python`` reference,
  the array-backed ``vectorized`` default, and the sharded multi-process
  ``parallel``; see DESIGN.md "Backends & performance" and "Parallel
  execution & sharding");
* ``STREAM_VIEWS`` — query-time views of the streaming subsystem
  (``exact`` batch-faithful vs ``fast`` incremental; see DESIGN.md
  "Streaming & serving").

:func:`build_pipeline` assembles a full pipeline from registry names; it is
what the CLI and ``Blast.default_pipeline`` run.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, Any, Generic, TypeVar

if TYPE_CHECKING:
    import numpy as np

    from repro.streaming.index import IncrementalBlockIndex
    from repro.streaming.views import ExactStreamView, FastStreamView

from repro.core.config import BlastConfig
from repro.core.stages import (
    BlockerStage,
    BlockFilteringStage,
    BlockPurgingStage,
    MetaBlockingStage,
    Pipeline,
    SchemaAwareBlockingStage,
    SchemaExtraction,
    Stage,
    TokenBlockingStage,
    WeightingSpec,
)
from repro.graph.metablocking import reference_metablocking
from repro.graph.pruning import (
    BlastPruning,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningScheme,
    WeightEdgePruning,
    WeightNodePruning,
)
from repro.graph.parallel import parallel_metablocking
from repro.graph.vectorized import vectorized_metablocking
from repro.graph.weights import WeightingScheme

T = TypeVar("T")


class Registry(Generic[T]):
    """A named, write-once mapping from component names to components.

    Registration is strict — a duplicate name raises immediately, so a
    plug-in can never silently shadow a built-in — and lookups of unknown
    names fail with the full list of valid choices.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(
        self, name: str, component: T | None = None
    ) -> T | Callable[[T], T]:
        """Register *component* under *name*; usable as a decorator.

        >>> registry = Registry("widget")
        >>> @registry.register("noop")
        ... def make_noop(config):
        ...     return None
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")
        if component is None:
            def decorator(obj: T) -> T:
                self.register(name, obj)
                return obj
            return decorator
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = component
        return component

    def get(self, name: str) -> T:
        """The component registered under *name*.

        Raises
        ------
        ValueError
            For unknown names, listing every registered name.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; "
                f"registered: {', '.join(self.names()) or '(none)'}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, names={list(self.names())})"


#: Blocking-stage factories: ``name -> (config) -> Stage``.
BLOCKERS: Registry[Callable[[BlastConfig], Stage]] = Registry("blocker")
#: Edge-weighting specs: ``name -> WeightingScheme | (graph) -> weights``.
WEIGHTINGS: Registry[WeightingSpec] = Registry("weighting")
#: Pruning factories: ``name -> (config) -> PruningScheme | Stage``; a
#: Stage replaces the meta-blocking stage outright.
PRUNERS: Registry[Callable[[BlastConfig], PruningScheme | Stage]] = Registry(
    "pruning"
)
#: Meta-blocking execution backends: ``name -> (collection, *, weighting,
#: pruning, entropy_boost, key_entropy) -> np.ndarray``: the retained edges
#: as one sorted ``(E, 2)`` int64 array of ``(i, j)`` rows, ``i < j``.
BACKENDS: Registry[Callable[..., np.ndarray]] = Registry("backend")
#: Streaming query-view factories: ``name -> (IncrementalBlockIndex) ->
#: view`` (the consistency modes of the streaming subsystem).
STREAM_VIEWS: Registry[Callable[[IncrementalBlockIndex], Any]] = Registry(
    "stream view"
)

register_blocker = BLOCKERS.register
register_weighting = WEIGHTINGS.register
register_pruning = PRUNERS.register
register_backend = BACKENDS.register
register_stream_view = STREAM_VIEWS.register


# --- built-in blockers ------------------------------------------------------

@register_blocker("schema-aware")
def _schema_aware_blocker(config: BlastConfig) -> Stage:
    """BLAST's Phase 2 blocking (needs a schema-extraction stage)."""
    return SchemaAwareBlockingStage(min_token_length=config.min_token_length)


@register_blocker("token")
def _token_blocker(config: BlastConfig) -> Stage:
    """Schema-agnostic Token Blocking (the "T" baseline)."""
    return TokenBlockingStage(min_token_length=config.min_token_length)


@register_blocker("qgrams")
def _qgrams_blocker(config: BlastConfig) -> Stage:
    """Character q-grams blocking (related-work baseline)."""
    from repro.blocking.qgrams import QGramsBlocking

    return BlockerStage(QGramsBlocking(), name="qgrams")


@register_blocker("suffix-array")
def _suffix_array_blocker(config: BlastConfig) -> Stage:
    """Suffix-array blocking (related-work baseline)."""
    from repro.blocking.suffix_array import SuffixArrayBlocking

    return BlockerStage(SuffixArrayBlocking(), name="suffix-array")


@register_blocker("canopy")
def _canopy_blocker(config: BlastConfig) -> Stage:
    """Canopy clustering blocking (related-work baseline)."""
    from repro.blocking.canopy import CanopyBlocking

    return BlockerStage(CanopyBlocking(seed=config.seed), name="canopy")


# StandardBlocking is deliberately unregistered: it requires a manual
# attribute alignment, which no BlastConfig flag can supply.  Wrap it in a
# BlockerStage directly when a schema mapping is available.


# --- built-in weightings ----------------------------------------------------

for _scheme in WeightingScheme:
    WEIGHTINGS.register(_scheme.value, _scheme)


# --- built-in backends ------------------------------------------------------

BACKENDS.register("python", reference_metablocking)
BACKENDS.register("vectorized", vectorized_metablocking)
BACKENDS.register("parallel", parallel_metablocking)


# --- built-in stream views --------------------------------------------------

@register_stream_view("exact")
def _exact_stream_view(index: IncrementalBlockIndex) -> ExactStreamView:
    """Batch-faithful view: lazy purging/filtering snapshot per version."""
    from repro.streaming.views import ExactStreamView

    return ExactStreamView(index)


@register_stream_view("fast")
def _fast_stream_view(index: IncrementalBlockIndex) -> FastStreamView:
    """Read-through view with incremental statistics (serving mode)."""
    from repro.streaming.views import FastStreamView

    return FastStreamView(index)


# --- built-in prunings ------------------------------------------------------

@register_pruning("blast")
def _blast_pruning(config: BlastConfig) -> PruningScheme:
    """BLAST's max-based node-centric rule (Section 3.3.2)."""
    return BlastPruning(c=config.pruning_c, d=config.pruning_d)


@register_pruning("wep")
def _wep(config: BlastConfig) -> PruningScheme:
    """Weight Edge Pruning: one global mean threshold."""
    return WeightEdgePruning()


@register_pruning("cep")
def _cep(config: BlastConfig) -> PruningScheme:
    """Cardinality Edge Pruning: global top-K edges."""
    return CardinalityEdgePruning()


@register_pruning("wnp1")
def _wnp1(config: BlastConfig) -> PruningScheme:
    """Redefined Weight Node Pruning (either endpoint clears)."""
    return WeightNodePruning(reciprocal=False)


@register_pruning("wnp2")
def _wnp2(config: BlastConfig) -> PruningScheme:
    """Reciprocal Weight Node Pruning (both endpoints clear)."""
    return WeightNodePruning(reciprocal=True)


@register_pruning("cnp1")
def _cnp1(config: BlastConfig) -> PruningScheme:
    """Redefined Cardinality Node Pruning."""
    return CardinalityNodePruning(reciprocal=False)


@register_pruning("cnp2")
def _cnp2(config: BlastConfig) -> PruningScheme:
    """Reciprocal Cardinality Node Pruning."""
    return CardinalityNodePruning(reciprocal=True)


@register_pruning("supervised")
def _supervised(config: BlastConfig) -> Stage:
    """Supervised meta-blocking (the "sup. MB" rows): an SVM edge classifier
    trained on 10% of the ground truth, as its own meta-blocking stage."""
    from repro.supervised import SupervisedMetaBlocking

    return SupervisedMetaBlocking(seed=config.seed)


def build_pipeline(
    config: BlastConfig | None = None,
    *,
    blocker: str = "schema-aware",
    weighting: str | WeightingSpec | None = None,
    pruning: str | PruningScheme | Stage = "blast",
) -> Pipeline:
    """Assemble the standard four/five-stage pipeline from registry names.

    ``[SchemaExtraction?] -> blocker -> purging -> filtering -> meta-blocking``
    — the schema stage is prepended automatically when the selected blocker
    declares ``needs_partitioning`` (i.e. ``schema-aware``).  *weighting*
    defaults to ``config.weighting``; *weighting* and *pruning* accept either
    registry names or ready component instances.  A pruning that already
    is a :class:`Stage` (``supervised``) is the meta-blocking stage itself.

    >>> from repro.core.registry import build_pipeline
    >>> build_pipeline(blocker="token", weighting="cbs").stage_names
    ('token-blocking', 'block-purging', 'block-filtering', 'meta-blocking')
    """
    config = config or BlastConfig()
    blocking_stage = BLOCKERS.get(blocker)(config)
    stages: list[Stage] = []
    if getattr(blocking_stage, "needs_partitioning", False):
        stages.append(SchemaExtraction(config))
    stages.append(blocking_stage)
    stages.append(BlockPurgingStage(max_profile_ratio=config.purging_ratio))
    stages.append(BlockFilteringStage(ratio=config.filtering_ratio))

    if weighting is None:
        weighting_spec: WeightingSpec = config.weighting
    elif isinstance(weighting, str):
        weighting_spec = WEIGHTINGS.get(weighting)
    else:
        weighting_spec = weighting
    pruning_scheme = (
        PRUNERS.get(pruning)(config) if isinstance(pruning, str) else pruning
    )
    if isinstance(pruning_scheme, Stage):
        stages.append(pruning_scheme)
        return Pipeline(stages)
    stages.append(
        MetaBlockingStage(
            weighting=weighting_spec,
            pruning=pruning_scheme,
            entropy_boost=config.entropy_boost,
            use_entropy=config.use_entropy,
            backend=config.backend,
            backend_options=config.backend_options(),
        )
    )
    return Pipeline(stages)
