"""Random graph generation.

Nodes are generators that have agreed to share each other's load on failure.
A graph is its adjacency: a read-only symmetric bool matrix with a zero
diagonal, so a cascade can run over it without copying it, or None for the
complete graph, which needs no matrix. Only ``threshold_adjacency`` makes
that None, at ``p == 1``; a hand-built adjacency is always an array,
whatever its edges.

An Erdős–Rényi graph is drawn in two steps: ``draw_weights`` draws one
uniform per node pair into a symmetric matrix, and ``threshold_adjacency``
keeps the pairs below ``p``. The weights do not depend on ``p``, so graphs
at several edge probabilities can share one draw; ``generate_er_graph`` is
the two steps at one ``p``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from .meanfield import check_count, check_probability


def generate_er_graph(n: int, p: float, rng: np.random.Generator) -> np.ndarray | None:
    """Draw an Erdős–Rényi graph: each unordered pair is an edge w.p. ``p``.
    Its read-only adjacency, or None at ``p == 1``, the complete graph.

    Deterministic given the generator state. The generator always ends in
    the state that drawing ``n * n`` uniforms leaves, but at ``p == 1`` a
    PCG64 generator is advanced past them instead of drawing them.
    """
    check_graph_args(n, (p,))
    return threshold_adjacency(p, draw_weights(n, (p,), rng))


def check_graph_args(n: int, ps: Sequence[float]) -> None:
    """Raise ValueError unless ``n`` is an integer >= 1 and ``ps`` is a
    nonempty sequence of edge probabilities: real numbers in [0, 1]."""
    check_count("node count", n)
    if not ps:
        raise ValueError("need at least one edge probability, got none")
    for p in ps:
        check_probability("edge probability", p)


def draw_weights(
    n: int, ps: Iterable[float], rng: np.random.Generator,
) -> np.ndarray | None:
    """The ``n * n`` uniforms that graphs at the edge probabilities ``ps``
    are thresholded from, as a symmetric matrix with a diagonal of 2.

    Pair ``i < j`` takes the uniform drawn at ``(i, j)``; the one drawn at
    ``(j, i)`` is overwritten. If every ``p`` is 1, no graph reads the
    weights: a PCG64 generator is advanced past them instead and None is
    returned. Either way the generator ends in the same state.
    """
    if all(p == 1.0 for p in ps):
        if isinstance(rng.bit_generator, np.random.PCG64):
            _skip_doubles(rng.bit_generator, n * n)
        else:
            rng.random((n, n))
        return None
    w = rng.random((n, n))
    # a block at a time, so no temporary is larger than one block: a whole
    # transposed copy would double the peak memory of a large draw
    for i in range(0, n, _BLOCK):
        rows = w[i:i + _BLOCK]
        for j in range(0, i, _BLOCK):
            rows[:, j:j + _BLOCK] = w[j:j + _BLOCK, i:i + _BLOCK].T
        diag = rows[:, i:i + _BLOCK]
        np.copyto(diag, diag.T, where=_strict_lower_mask(len(diag)))
    w.reshape(-1)[::n + 1] = 2.0  # the diagonal
    return w


def threshold_adjacency(p: float, weights: np.ndarray | None) -> np.ndarray | None:
    """The read-only adjacency of the pairs whose weight from ``draw_weights``
    is below ``p``; None at ``p == 1``, the complete graph, which reads none."""
    if p == 1.0:
        return None
    adj = weights < p  # the diagonal of 2 leaves no self-loop
    adj.setflags(write=False)
    return adj


def _skip_doubles(bit_generator: np.random.PCG64, count: int) -> None:
    """Advance past ``count`` doubles as ``random`` would draw them.

    Each double takes one 64-bit output and leaves the buffered 32-bit half
    alone, but ``advance`` zeroes that buffer and its flag: nonzero ones are restored.
    """
    state = bit_generator.state
    bit_generator.advance(count)
    if state["has_uint32"] or state["uinteger"]:
        bit_generator.state = {**bit_generator.state, "has_uint32": state["has_uint32"],
                               "uinteger": state["uinteger"]}


_BLOCK = 256  # rows and columns of one block of ``draw_weights``' symmetrization


@lru_cache(maxsize=4)
def _strict_lower_mask(n: int) -> np.ndarray:
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask
