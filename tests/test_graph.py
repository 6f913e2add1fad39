import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from gridcascade import generate_er_graph, trial_rng
from gridcascade.graph import GraphTopology, draw_weights, threshold_adjacency


def degree(g):
    return g.adjacency.sum(axis=0)


def edge_count(g):
    return int(g.adjacency.sum()) // 2


def test_p_one_gives_complete_graph():
    g = generate_er_graph(4, 1.0, np.random.default_rng(0))
    assert edge_count(g) == 6
    assert not g.adjacency.diagonal().any()
    assert (g.adjacency == g.adjacency.T).all()


def test_p_zero_gives_empty_graph():
    g = generate_er_graph(4, 0.0, np.random.default_rng(0))
    assert edge_count(g) == 0


def test_edge_count_matches_binomial_moments():
    # C(1000,2) Bernoulli(0.5) trials: mean 249750, sd sqrt(499500*0.25)
    g = generate_er_graph(1000, 0.5, np.random.default_rng(12345))
    mean = 0.5 * math.comb(1000, 2)
    sd = math.sqrt(math.comb(1000, 2) * 0.25)
    assert abs(edge_count(g) - mean) < 4 * sd


@pytest.mark.parametrize("n,p", [(0, 0.5), (3, -0.1), (3, 1.5)])
def test_generation_rejects_bad_parameters(n, p):
    with pytest.raises(ValueError):
        generate_er_graph(n, p, np.random.default_rng(0))


def test_same_seed_reproduces_adjacency_exactly():
    g1 = generate_er_graph(200, 0.3, np.random.default_rng(99))
    g2 = generate_er_graph(200, 0.3, np.random.default_rng(99))
    assert (g1.adjacency == g2.adjacency).all()


def _pcg64_with_pending_half():
    rng = np.random.Generator(np.random.PCG64(8))
    rng.integers(0, 10, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _pcg64_with_spent_half():
    """A generator whose buffered half was drawn: its flag is 0, but the
    state still holds the half."""
    rng = _pcg64_with_pending_half()
    rng.integers(0, 10, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 0
    assert rng.bit_generator.state["uinteger"] != 0
    return rng


@pytest.mark.parametrize("make_rng", [
    lambda: trial_rng(42, 7),
    _pcg64_with_pending_half,
    _pcg64_with_spent_half,
    lambda: np.random.Generator(np.random.MT19937(8)),
])
@pytest.mark.parametrize("n", [1, 2, 37])
def test_p_one_leaves_the_stream_as_the_draw_does(make_rng, n):
    rng, ref = make_rng(), make_rng()
    g = generate_er_graph(n, 1.0, rng)
    # the drawing code, spelled out
    adj = ref.random((n, n)) < 1.0
    adj &= ~np.tri(n, dtype=bool)
    adj |= adj.T
    assert (g.adjacency == adj).all()
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
    for draw in (lambda r: r.integers(0, 2**31 - 1, size=5, dtype=np.int32),
                 lambda r: r.random(5),
                 lambda r: r.exponential(0.1, size=5)):
        assert (draw(rng) == draw(ref)).all()


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_generated_adjacency_is_read_only(p):
    g = generate_er_graph(5, p, np.random.default_rng(0))
    assert not g.adjacency.flags.writeable
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = True


def test_only_generated_p_one_graphs_are_flagged_complete():
    rng = np.random.default_rng(0)
    assert generate_er_graph(5, 1.0, rng).complete
    assert not generate_er_graph(5, 0.999, rng).complete
    complete_adj = ~np.eye(3, dtype=bool)
    assert not GraphTopology(3, complete_adj, 1.0).complete
    with pytest.raises(TypeError):
        GraphTopology(3, complete_adj, 1.0, complete=True)


COMPLETE_RNGS = {
    "pcg64": lambda: np.random.Generator(np.random.PCG64(3)),
    "mt19937": lambda: np.random.Generator(np.random.MT19937(3)),
}


@pytest.mark.parametrize("make_rng", COMPLETE_RNGS.values(), ids=COMPLETE_RNGS)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_complete_adjacency_is_k_n(make_rng, n):
    g = generate_er_graph(n, 1.0, make_rng())
    assert g.adjacency.shape == (n, n) and g.adjacency.dtype == bool
    assert (g.adjacency == ~np.eye(n, dtype=bool)).all()
    assert (degree(g) == n - 1).all()
    assert edge_count(g) == n * (n - 1) // 2
    with pytest.raises(ValueError):
        g.adjacency[0, 0] = True


@pytest.mark.parametrize("make_rng", COMPLETE_RNGS.values(), ids=COMPLETE_RNGS)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_complete_adjacency_spans_2n_minus_1_bytes(make_rng, n):
    low, high = byte_bounds(generate_er_graph(n, 1.0, make_rng()).adjacency)
    assert high - low == 2 * n - 1


def _drawn_adjacency(rng, n, p):
    """The ER draw as ``generate_er_graph`` first spelled it: the strict
    upper triangle of ``random((n, n)) < p``, mirrored."""
    adj = rng.random((n, n)) < p
    adj &= ~np.tri(n, dtype=bool)
    return adj | adj.T


# one draw serves every p of a grid; each threshold must be the graph, and
# the generator's end state (buffered 32-bit half included) that of a fresh
# generate_er_graph at that p alone, whose p == 1 path skips the draw
@pytest.mark.parametrize("ps", [(0.0,), (0.3,), (1.0,), (0.0, 0.3, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 300])  # 300 rows cross a 256-row block
def test_one_draw_thresholds_to_each_generated_graph(n, ps):
    rng = _pcg64_with_pending_half()
    weights = draw_weights(n, ps, rng)
    for p in ps:
        adj = threshold_adjacency(p, weights)
        fresh, spelled = _pcg64_with_pending_half(), _pcg64_with_pending_half()
        expected = generate_er_graph(n, p, fresh)
        assert (adj is None) == expected.complete
        if adj is None:  # the complete graph, which the generated graph holds
            adj = expected.adjacency
        assert adj.tobytes() == expected.adjacency.tobytes()
        assert adj.tobytes() == _drawn_adjacency(spelled, n, p).tobytes()
        assert not adj.flags.writeable
        np.testing.assert_equal(rng.bit_generator.state, fresh.bit_generator.state)
        np.testing.assert_equal(rng.bit_generator.state, spelled.bit_generator.state)
    assert (weights is None) == all(p == 1.0 for p in ps)


def test_draw_memory_peaks_at_one_float_and_one_bool_matrix():
    # the weights (8 n^2 bytes) and the adjacency (n^2) are all a draw needs;
    # symmetrizing with a transposed copy would add another 8 n^2
    n, rng = 1000, np.random.default_rng(5)
    tracemalloc.start()
    try:
        g = generate_er_graph(n, 0.5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.adjacency.shape == (n, n)
    assert peak <= 1.2 * 8 * n * n
