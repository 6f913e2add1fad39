import math
import tracemalloc

import numpy as np
import pytest

from gridcascade import generate_er_graph, trial_rng
from gridcascade.graph import draw_weights, threshold_adjacency


def edge_count(adj):
    return int(adj.sum()) // 2


def test_p_one_gives_complete_graph():
    # the complete graph is None, at p == 1 only: just below, it is a matrix
    assert generate_er_graph(4, 1.0, np.random.default_rng(0)) is None
    adj = generate_er_graph(4, np.nextafter(1.0, 0.0), np.random.default_rng(0))
    assert edge_count(adj) == 6
    assert not adj.diagonal().any()
    assert (adj == adj.T).all()


def test_p_zero_gives_empty_graph():
    assert edge_count(generate_er_graph(4, 0.0, np.random.default_rng(0))) == 0


def test_edge_count_matches_binomial_moments():
    # C(1000,2) Bernoulli(0.5) trials: mean 249750, sd sqrt(499500*0.25)
    adj = generate_er_graph(1000, 0.5, np.random.default_rng(12345))
    mean = 0.5 * math.comb(1000, 2)
    sd = math.sqrt(math.comb(1000, 2) * 0.25)
    assert abs(edge_count(adj) - mean) < 4 * sd


@pytest.mark.parametrize("n,p", [(0, 0.5), (3, -0.1), (3, 1.5)])
def test_generation_rejects_bad_parameters(n, p):
    with pytest.raises(ValueError):
        generate_er_graph(n, p, np.random.default_rng(0))


def test_same_seed_reproduces_adjacency_exactly():
    adj1 = generate_er_graph(200, 0.3, np.random.default_rng(99))
    adj2 = generate_er_graph(200, 0.3, np.random.default_rng(99))
    assert (adj1 == adj2).all()


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
    assert generate_er_graph(n, 1.0, rng) is None
    # the drawing code, spelled out: at p == 1 it draws K_n
    adj = ref.random((n, n)) < 1.0
    adj &= ~np.tri(n, dtype=bool)
    adj |= adj.T
    assert (adj == ~np.eye(n, dtype=bool)).all()
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
    for draw in (lambda r: r.integers(0, 2**31 - 1, size=5, dtype=np.int32),
                 lambda r: r.random(5),
                 lambda r: r.exponential(0.1, size=5)):
        assert (draw(rng) == draw(ref)).all()


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_generated_adjacency_is_read_only(p):
    adj = generate_er_graph(5, p, np.random.default_rng(0))
    if p == 1.0:  # the complete graph has no matrix to write
        assert adj is None
        return
    assert not adj.flags.writeable
    with pytest.raises(ValueError):
        adj[0, 1] = True


def test_only_generated_p_one_graphs_are_flagged_complete():
    # the flag is the None adjacency, which only thresholding at p == 1 returns
    rng = np.random.default_rng(0)
    assert generate_er_graph(5, 1.0, rng) is None
    assert generate_er_graph(5, 0.999, rng) is not None
    weights = draw_weights(5, (0.5,), rng)
    assert threshold_adjacency(1.0, weights) is None
    assert threshold_adjacency(np.nextafter(1.0, 0.0), weights) is not None


COMPLETE_RNGS = {
    "pcg64": lambda: np.random.Generator(np.random.PCG64(3)),
    "mt19937": lambda: np.random.Generator(np.random.MT19937(3)),
}


@pytest.mark.parametrize("make_rng", COMPLETE_RNGS.values(), ids=COMPLETE_RNGS)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_complete_adjacency_is_k_n(make_rng, n):
    # None at p == 1 stands for what thresholding a draw at 1 keeps: every
    # uniform is below 1, so every pair but the diagonal of 2, which is K_n
    rng = make_rng()
    assert generate_er_graph(n, 1.0, rng) is None
    adj = draw_weights(n, (0.5,), rng) < 1.0
    assert (adj == ~np.eye(n, dtype=bool)).all()
    assert (adj.sum(axis=0) == n - 1).all()
    assert edge_count(adj) == n * (n - 1) // 2


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
        drawn = _drawn_adjacency(spelled, n, p)
        if adj is None:  # the complete graph, which the spelled draw gives at p == 1
            assert expected is None and p == 1.0
            assert drawn.tobytes() == (~np.eye(n, dtype=bool)).tobytes()
        else:
            assert adj.tobytes() == expected.tobytes() == drawn.tobytes()
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
        adj = generate_er_graph(n, 0.5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adj.shape == (n, n)
    assert peak <= 1.2 * 8 * n * n
