"""The blocking graph G_B (Section 2.2).

Nodes are profiles; an edge connects two profiles iff they co-occur in at
least one block.  The graph is materialized *block-centrically*: one pass
over the block collection accumulates, per edge, everything any weighting
scheme needs — shared-block count, ARCS mass, and the summed entropy of the
shared blocking keys — in O(||B||) time, never O(|V|^2).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

from repro.blocking.base import BlockCollection

Edge = tuple[int, int]

#: Maps a blocking key to the entropy h(b) of its attribute cluster.
KeyEntropyFn = Callable[[str], float]


@dataclass(slots=True)
class EdgeStats:
    """Accumulated per-edge statistics.

    Attributes
    ----------
    shared_blocks:
        ``|B_ij|`` — how many blocks contain both endpoints (the CBS weight).
    arcs_mass:
        ``sum over b in B_ij of 1 / ||b||`` (the ARCS weight).
    entropy_mass:
        Summed entropy of the shared blocking keys; divided by
        ``shared_blocks`` this is the paper's ``h(B_uv)``.
    """

    shared_blocks: int = 0
    arcs_mass: float = 0.0
    entropy_mass: float = 0.0

    @property
    def mean_entropy(self) -> float:
        """h(B_uv): mean entropy over the shared blocking keys."""
        if self.shared_blocks == 0:
            return 0.0
        return self.entropy_mass / self.shared_blocks


class BlockingGraph:
    """Weighted co-occurrence graph of a block collection.

    Parameters
    ----------
    collection:
        The block collection to derive the graph from.
    key_entropy:
        Optional map from blocking key to the aggregate entropy of the
        attribute cluster it belongs to; defaults to 1.0 for every key
        (entropy-agnostic mode — plain Token Blocking, or the ``chi``
        ablation of Figure 8).
    """

    def __init__(
        self,
        collection: BlockCollection,
        key_entropy: KeyEntropyFn | None = None,
    ) -> None:
        self.num_blocks = len(collection)
        self._edges: dict[Edge, EdgeStats] = {}
        # |B_i| per node: how many blocks contain each profile.
        self.node_blocks: dict[int, int] = {}

        for block in collection:
            for profile in block.profiles:
                self.node_blocks[profile] = self.node_blocks.get(profile, 0) + 1
            entropy = key_entropy(block.key) if key_entropy is not None else 1.0
            comparisons = block.num_comparisons
            if comparisons == 0:
                continue
            arcs_share = 1.0 / comparisons
            for pair in block.iter_pairs():
                stats = self._edges.get(pair)
                if stats is None:
                    stats = EdgeStats()
                    self._edges[pair] = stats
                stats.shared_blocks += 1
                stats.arcs_mass += arcs_share
                stats.entropy_mass += entropy

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._edges

    @property
    def num_nodes(self) -> int:
        """Profiles appearing in at least one block."""
        return len(self.node_blocks)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @cached_property
    def _sorted_edges(self) -> list[Edge]:
        """Edges in lexicographic order, sorted once and reused."""
        return sorted(self._edges)

    def edges(self) -> Iterator[tuple[Edge, EdgeStats]]:
        """Iterate over ``((i, j), stats)`` in deterministic order."""
        for edge in self._sorted_edges:
            yield edge, self._edges[edge]

    def stats(self, edge: Edge) -> EdgeStats:
        """Statistics of *edge* (KeyError if the edge does not exist)."""
        return self._edges[edge]

    @cached_property
    def degrees(self) -> dict[int, int]:
        """|v_i|: number of distinct neighbors of each node."""
        out: dict[int, int] = {}
        for i, j in self._edges:
            out[i] = out.get(i, 0) + 1
            out[j] = out.get(j, 0) + 1
        return out

    @cached_property
    def adjacency(self) -> dict[int, list[Edge]]:
        """Node -> list of incident edges (for node-centric pruning).

        Cached: node-centric pruning schemes may consult it repeatedly
        without rebuilding the full dict per ``prune()`` call.
        """
        out: dict[int, list[Edge]] = {}
        for edge in self._edges:
            i, j = edge
            out.setdefault(i, []).append(edge)
            out.setdefault(j, []).append(edge)
        return out

    def __repr__(self) -> str:
        return (
            f"BlockingGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"blocks={self.num_blocks})"
        )
