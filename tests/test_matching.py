"""Max-weight bipartite b-matching: the assignment engine and its oracles, cross-validated."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import MatchingResult, max_weight_b_matching
from tests.oracles import lsa_b_matching, mcmf_b_matching

# The production engine (keyed "lp", the engine it replaced, so the
# test ids stay put) and the two reference solvers the oracle tests
# lean on: each must pass the hand-checked cases below.
SOLVERS = {
    "flow": mcmf_b_matching,
    "lsa": lsa_b_matching,
    "lp": max_weight_b_matching,
}


def check_matching(result, edges, caps, num_right):
    """Structural validity + weight consistency."""
    edge_set = {}
    for u, v, w in edges:
        edge_set[(u, v)] = max(edge_set.get((u, v), 0.0), w)
    left_used = {}
    right_used = set()
    total = 0.0
    for u, v in result.pairs:
        assert (u, v) in edge_set
        assert v not in right_used, f"right node {v} matched twice"
        right_used.add(v)
        left_used[u] = left_used.get(u, 0) + 1
        assert left_used[u] <= caps[u], f"left node {u} over capacity"
        total += edge_set[(u, v)]
    assert result.weight == pytest.approx(total)


def brute_force_matching(edges, caps, num_right, exact=False):
    """Reference optimum by DFS over right nodes (small instances).

    ``exact=True`` sums in rational arithmetic and returns a
    ``Fraction``, so a missed 1e-9 edge shows beside weights of 1e5.
    """
    dedup = {}
    for u, v, w in edges:
        if w > 0:
            dedup[(u, v)] = max(dedup.get((u, v), 0.0), w)
    by_right = {}
    for (u, v), w in dedup.items():
        by_right.setdefault(v, []).append((u, Fraction(w) if exact else w))
    rights = sorted(by_right)
    used = dict.fromkeys(range(len(caps)), 0)

    def dfs(k):
        if k == len(rights):
            return Fraction(0) if exact else 0.0
        best = dfs(k + 1)  # leave unmatched
        for u, w in by_right[rights[k]]:
            if used[u] < caps[u]:
                used[u] += 1
                best = max(best, w + dfs(k + 1))
                used[u] -= 1
        return best

    return dfs(0)


@pytest.mark.parametrize("solver", list(SOLVERS))
class TestEngines:
    def test_empty(self, solver):
        result = SOLVERS[solver]([], [1, 1], 3)
        assert result.pairs == () and result.weight == 0.0

    def test_single_edge(self, solver):
        result = SOLVERS[solver]([(0, 0, 2.5)], [1], 1)
        assert result.pairs == ((0, 0),)
        assert result.weight == pytest.approx(2.5)

    def test_capacity_zero_blocks(self, solver):
        result = SOLVERS[solver]([(0, 0, 2.5)], [0], 1)
        assert result.pairs == ()

    def test_prefers_heavy_edge(self, solver):
        edges = [(0, 0, 1.0), (1, 0, 3.0)]
        result = SOLVERS[solver](edges, [1, 1], 1)
        assert result.pairs == ((1, 0),)

    def test_b_matching_capacity(self, solver):
        edges = [(0, 0, 5.0), (0, 1, 4.0), (0, 2, 3.0)]
        result = SOLVERS[solver](edges, [2], 3)
        assert result.weight == pytest.approx(9.0)
        assert len(result.pairs) == 2

    def test_non_positive_weights_ignored(self, solver):
        edges = [(0, 0, -1.0), (0, 1, 0.0), (0, 2, 1.0)]
        result = SOLVERS[solver](edges, [3], 3)
        assert result.pairs == ((0, 2),)

    def test_weight_beats_cardinality(self, solver):
        """Max weight is NOT max cardinality here: the single heavy edge
        conflicts with two light ones."""
        edges = [(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0)]
        result = SOLVERS[solver](edges, [1, 1], 2)
        # The heavy edge (0,0)=10 blocks both light edges (left-0's
        # capacity kills (0,1); right-0 kills (1,0)); 10 > 1+1, so the
        # optimum is the *smaller-cardinality* matching of weight 10.
        assert len(result.pairs) == 1
        assert result.weight == pytest.approx(10.0)
        assert result.weight == pytest.approx(
            brute_force_matching(edges, [1, 1], 2)
        )

    def test_parallel_edges_keep_heaviest(self, solver):
        edges = [(0, 0, 1.0), (0, 0, 7.0), (0, 0, 3.0)]
        result = SOLVERS[solver](edges, [1], 1)
        assert result.weight == pytest.approx(7.0)

    def test_matches_brute_force_random(self, solver):
        rng = np.random.default_rng(0)
        for _ in range(15):
            num_left = int(rng.integers(1, 5))
            num_right = int(rng.integers(1, 6))
            caps = rng.integers(0, 3, num_left).tolist()
            edges = [
                (int(u), int(v), float(rng.uniform(0.1, 10.0)))
                for u in range(num_left)
                for v in range(num_right)
                if rng.random() < 0.6
            ]
            result = SOLVERS[solver](edges, caps, num_right)
            check_matching(result, edges, caps, num_right)
            assert result.weight == pytest.approx(
                brute_force_matching(edges, caps, num_right)
            )


def exact_weight(result, edges):
    """``result``'s weight in rational arithmetic, heaviest parallel edge
    per pair."""
    heaviest = {}
    for u, v, w in edges:
        heaviest[(u, v)] = max(heaviest.get((u, v), 0.0), w)
    return sum((Fraction(heaviest[pair]) for pair in result.pairs), Fraction(0))


class TestTinyWeights:
    """Weights far below the paper's bits per slot but above the engine's
    1e-12 cut-off still count: no solver tolerance may drop them."""

    def test_capacity_filled_with_nano_weights(self):
        edges = [(0, v, 1e-9) for v in range(7)]
        result = max_weight_b_matching(edges, [5], 7)
        check_matching(result, edges, [5], 7)
        assert len(result.pairs) == 5
        assert exact_weight(result, edges) == 5 * Fraction(1e-9)
        want = lsa_b_matching(edges, [5], 7).weight
        assert result.weight == pytest.approx(want, rel=1e-12)

    def test_tiny_and_paper_scale_weights_mixed(self):
        """Random small b-matchings mixing 1e-9 and 1e-6 with the paper's
        bits per slot, against the exact brute-force optimum."""
        values = [1e-9, 1e-6, 1.0, 4800.0, 9600.0, 19200.0, 250000.0]
        rng = np.random.default_rng(28)
        for _ in range(300):
            num_left = int(rng.integers(1, 4))
            num_right = int(rng.integers(1, 7))
            caps = rng.integers(0, 6, num_left).tolist()
            edges = [
                (u, v, float(rng.choice(values)))
                for u in range(num_left)
                for v in range(num_right)
                if rng.random() < 0.6
            ]
            result = max_weight_b_matching(edges, caps, num_right)
            check_matching(result, edges, caps, num_right)
            want = brute_force_matching(edges, caps, num_right, exact=True)
            assert exact_weight(result, edges) == want


class TestTieBreak:
    def test_pairs_sorted_and_independent_of_edge_order(self):
        """The tie-break is pinned by construction: tied optima (every
        slot is worth 1.0 to both sensors) come back identical however
        the caller orders the edges."""
        edges = [(u, v, 1.0) for u in range(2) for v in range(4)]
        caps = [2, 1]
        result = max_weight_b_matching(edges, caps, 4)
        assert list(result.pairs) == sorted(result.pairs)
        rng = np.random.default_rng(3)
        for _ in range(5):
            shuffled = [edges[k] for k in rng.permutation(len(edges))]
            assert max_weight_b_matching(shuffled, caps, 4) == result


class TestValidation:
    def test_bad_left_endpoint(self):
        with pytest.raises(ValueError):
            max_weight_b_matching([(5, 0, 1.0)], [1], 1)

    def test_bad_right_endpoint(self):
        with pytest.raises(ValueError):
            max_weight_b_matching([(0, 3, 1.0)], [1], 2)

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            max_weight_b_matching([(0, 0, 1.0)], [-1], 1)

    def test_nan_weight(self):
        with pytest.raises(ValueError):
            max_weight_b_matching([(0, 0, float("nan"))], [1], 1)


class TestResult:
    def test_right_of(self):
        result = MatchingResult(((0, 1), (2, 3)), 5.0)
        np.testing.assert_array_equal(result.right_of(5), [-1, 0, -1, 2, -1])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_engines_agree_hypothesis(data):
    """The production engine reaches the min-cost-flow oracle's, the
    dense-assignment oracle's and the brute force's optimal weight, each
    with a structurally valid matching."""
    num_left = data.draw(st.integers(1, 4))
    num_right = data.draw(st.integers(1, 5))
    caps = [data.draw(st.integers(0, 3)) for _ in range(num_left)]
    edges = []
    for u in range(num_left):
        for v in range(num_right):
            if data.draw(st.booleans()):
                edges.append((u, v, data.draw(st.floats(0.1, 10.0))))
    result = max_weight_b_matching(edges, caps, num_right)
    check_matching(result, edges, caps, num_right)
    for oracle in (mcmf_b_matching, lsa_b_matching):
        reference = oracle(edges, caps, num_right)
        check_matching(reference, edges, caps, num_right)
        assert result.weight == pytest.approx(reference.weight, rel=1e-9, abs=0.0)
    assert result.weight == pytest.approx(
        brute_force_matching(edges, caps, num_right), rel=1e-9, abs=0.0
    )
