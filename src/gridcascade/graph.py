"""Random graph generation.

Nodes are generators that have agreed to share each other's load on failure.
Every graph is immutable: its adjacency matrix is read-only, so a cascade
can run over it without copying it. A generated complete graph holds its
adjacency in O(n) memory, as a strided view over 2n - 1 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided


@dataclass(frozen=True)
class GraphTopology:
    """Symmetric unweighted graph on ``n`` nodes.

    ``edge_prob`` records the probability used at generation time and is
    metadata only. ``complete`` is set only by ``generate_er_graph`` at
    ``p == 1``; a hand-built graph is never flagged, whatever its adjacency.
    """

    n: int
    adjacency: np.ndarray  # bool, shape (n, n), symmetric, zero diagonal
    edge_prob: float
    complete: bool = field(default=False, init=False)

    def degree(self) -> np.ndarray:
        return self.adjacency.sum(axis=0)

    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2


def generate_er_graph(n: int, p: float, rng: np.random.Generator) -> GraphTopology:
    """Draw an Erdős–Rényi graph: each unordered pair is an edge w.p. ``p``.

    Deterministic given the generator state. The generator always ends in
    the state that drawing ``n * n`` uniforms leaves, but at ``p == 1`` a
    PCG64 generator is advanced past them instead of drawing them.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if p == 1.0:
        if isinstance(rng.bit_generator, np.random.PCG64):
            _skip_doubles(rng.bit_generator, n * n)
        else:
            rng.random((n, n))
        adj = _complete_adjacency(n)
    else:
        adj = rng.random((n, n)) < p
        adj &= _strict_upper_mask(n)
        adj |= adj.T
        adj.setflags(write=False)
    g = GraphTopology(n=n, adjacency=adj, edge_prob=p)
    object.__setattr__(g, "complete", p == 1.0)
    return g


def _skip_doubles(bit_generator: np.random.PCG64, count: int) -> None:
    """Advance past ``count`` doubles as ``random`` would draw them.

    Each double takes one 64-bit output and leaves the buffered 32-bit half
    alone, but ``advance`` clears that buffer, so it is restored.
    """
    state = bit_generator.state
    bit_generator.advance(count)
    advanced = bit_generator.state
    advanced["has_uint32"] = state["has_uint32"]
    advanced["uinteger"] = state["uinteger"]
    bit_generator.state = advanced


@lru_cache(maxsize=4)
def _complete_adjacency(n: int) -> np.ndarray:
    """Read-only K_n adjacency over 2n - 1 bytes, shared by graphs: row i
    is ``ramp[n-1-i : 2n-1-i]``, so its only False falls on column i."""
    ramp = np.ones(2 * n - 1, dtype=bool)
    ramp[n - 1] = False
    return as_strided(ramp[n - 1:], shape=(n, n), strides=(-1, 1), writeable=False)


@lru_cache(maxsize=4)
def _strict_upper_mask(n: int) -> np.ndarray:
    mask = ~np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask
