"""The GAP local-ratio machinery on textbook instances.

``Offline_Appro`` runs its own residual-band pass now; the GAP objects
checked here are the reference it is compared against
(:func:`tests.oracles.offline_appro_reference`), so they stay tested.
"""

import itertools

import numpy as np
import pytest

from repro.core.knapsack import knapsack_few_weights, knapsack_greedy
from tests.oracles import (
    GapBin,
    GapInstance,
    GapSolution,
    gap_bins,
    gap_from_bins,
    local_ratio_gap,
)


def brute_force_gap(instance: GapInstance) -> float:
    """Reference GAP optimum by enumerating item -> bin assignments."""
    # Item universe with per-bin positions.
    bins = gap_bins(instance)
    items = sorted({int(it) for b in bins for it in b.items})
    lookup = {}
    for bi, b in enumerate(bins):
        for pos, it in enumerate(b.items):
            lookup[(bi, int(it))] = pos

    best = 0.0
    choices = []
    for it in items:
        options = [None] + [bi for bi in range(instance.num_bins) if (bi, it) in lookup]
        choices.append(options)
    for combo in itertools.product(*choices):
        used = np.zeros(instance.num_bins)
        profit = 0.0
        ok = True
        for it, bi in zip(items, combo):
            if bi is None:
                continue
            pos = lookup[(bi, it)]
            used[bi] += bins[bi].weights[pos]
            profit += bins[bi].profits[pos]
            if used[bi] > bins[bi].capacity + 1e-12:
                ok = False
                break
        if ok:
            best = max(best, profit)
    return best


def random_gap(rng, num_bins=3, num_items=6) -> GapInstance:
    bins = []
    for _ in range(num_bins):
        k = int(rng.integers(1, num_items + 1))
        items = rng.choice(num_items, size=k, replace=False)
        bins.append(
            GapBin(
                capacity=float(rng.uniform(1.0, 5.0)),
                items=np.sort(items),
                profits=rng.uniform(0.5, 10.0, k),
                weights=rng.uniform(0.5, 3.0, k),
            )
        )
    return gap_from_bins(bins)


def check_solution(instance: GapInstance, sol: GapSolution) -> None:
    seen = set()
    bins = gap_bins(instance)
    for bi, items in sol.assignment.items():
        b = bins[bi]
        lookup = {int(it): pos for pos, it in enumerate(b.items)}
        weight = 0.0
        for it in items:
            assert it in lookup, f"item {it} not a candidate of bin {bi}"
            assert it not in seen, f"item {it} assigned twice"
            seen.add(it)
            weight += b.weights[lookup[it]]
        assert weight <= b.capacity + 1e-9


class TestGapBin:
    """Each bin's items, profits, weights and capacity, as the array
    constructor checks them."""

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="bin 1 .*distinct"):
            GapInstance([0, 1, 3], [1, 1, 1], np.ones(3), np.ones(3), [1.0, 1.0])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="bin 0 capacity"):
            GapInstance([0, 1], [0], np.ones(1), np.ones(1), [-1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GapInstance([0, 2], [0, 1], np.ones(2), np.ones(3), [1.0])

    def test_offsets_must_span_the_items(self):
        for offsets in ([0, 1], [1, 2], [0, 2, 1], [0, 1, 2]):
            with pytest.raises(ValueError, match="offsets"):
                GapInstance(offsets, [0, 1], np.ones(2), np.ones(2), [1.0])

    def test_negative_item_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GapInstance([0, 1], [-1], np.ones(1), np.ones(1), [1.0])


class TestGapInstance:
    def test_bins_laid_out_flat_and_back(self):
        bins = [
            GapBin(1.0, np.array([0, 2]), np.array([3.0, 4.0]), np.ones(2)),
            GapBin(2.0, np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)),
            GapBin(1.5, np.array([2]), np.array([5.0]), np.array([0.5])),
        ]
        inst = gap_from_bins(bins)
        assert inst.offsets.tolist() == [0, 2, 2, 3]
        assert inst.items.tolist() == [0, 2, 2]
        assert inst.capacities.tolist() == [1.0, 2.0, 1.5]
        for got, want in zip(gap_bins(inst), bins):
            assert got.capacity == want.capacity
            for name in ("items", "profits", "weights"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_bins_containing(self):
        inst = GapInstance([0, 2, 3], [0, 2, 2], np.ones(3), np.ones(3), [1.0, 1.0])
        assert inst.bins_containing(2) == [(0, 1), (1, 0)]
        assert inst.bins_containing(0) == [(0, 0)]

    def test_profit_of_assignment(self):
        inst = GapInstance([0, 2], [0, 1], [2.0, 3.0], np.ones(2), [5.0])
        assert inst.profit_of_assignment({0: [0, 1]}) == pytest.approx(5.0)

    def test_profit_of_assignment_unsorted_bins_and_bad_pairs(self):
        inst = GapInstance(
            [0, 3, 4, 4], [4, 0, 2, 2], [1.0, 2.0, 4.0, 8.0], np.ones(4), [5.0, 5.0, 5.0]
        )
        assert inst.profit_of_assignment({1: [2], 0: [4, 0]}) == 11.0
        assert inst.profit_of_assignment({2: []}) == 0.0
        for item in (3, 1, 5, -1, 2**62):
            with pytest.raises(KeyError) as raised:
                inst.profit_of_assignment({0: [0, item]})
            assert raised.value.args == (item,)
        with pytest.raises(KeyError):
            inst.profit_of_assignment({2: [0]})
        with pytest.raises(IndexError):
            inst.profit_of_assignment({3: [0]})


class TestLocalRatio:
    def test_single_bin_is_knapsack(self):
        inst = GapInstance([0, 3], [0, 1, 2], [60.0, 100.0, 120.0], [10.0, 20.0, 30.0], [50.0])
        sol = local_ratio_gap(inst)
        assert sol.profit == pytest.approx(220.0)

    def test_two_bins_sharing_item(self):
        # One item, two bins; the second bin values it more, and the
        # backward pass must hand the item to the tentative owner that
        # keeps it feasible and profitable.
        inst = GapInstance([0, 1, 2], [0, 0], [5.0, 8.0], [1.0, 1.0], [1.0, 1.0])
        sol = local_ratio_gap(inst)
        check_solution(inst, sol)
        assert sol.profit >= 5.0  # at least half of OPT=8; in fact 8
        assert sol.profit == pytest.approx(8.0)

    def test_feasibility_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            inst = random_gap(rng)
            sol = local_ratio_gap(inst)
            check_solution(inst, sol)

    def test_half_approximation_with_exact_knapsack(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            inst = random_gap(rng)
            opt = brute_force_gap(inst)
            sol = local_ratio_gap(inst, knapsack_solver=knapsack_few_weights)
            assert sol.profit >= opt / 2.0 - 1e-9

    def test_third_approximation_with_greedy_knapsack(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            inst = random_gap(rng)
            opt = brute_force_gap(inst)
            sol = local_ratio_gap(inst, knapsack_solver=knapsack_greedy)
            assert sol.profit >= opt / 3.0 - 1e-9

    def test_profit_matches_assignment(self):
        rng = np.random.default_rng(3)
        inst = random_gap(rng)
        sol = local_ratio_gap(inst)
        assert sol.profit == pytest.approx(inst.profit_of_assignment(sol.assignment))

    def test_bin_order_permutation_still_feasible(self):
        rng = np.random.default_rng(4)
        inst = random_gap(rng, num_bins=4)
        for order in ([3, 2, 1, 0], [1, 3, 0, 2]):
            sol = local_ratio_gap(inst, bin_order=order)
            check_solution(inst, sol)

    def test_invalid_bin_order_rejected(self):
        rng = np.random.default_rng(5)
        inst = random_gap(rng, num_bins=3)
        with pytest.raises(ValueError):
            local_ratio_gap(inst, bin_order=[0, 1])

    def test_tentative_supersets_assignment(self):
        rng = np.random.default_rng(6)
        inst = random_gap(rng)
        sol = local_ratio_gap(inst)
        for bi, items in sol.assignment.items():
            assert set(items) <= set(sol.tentative[bi])

    def test_empty_instance(self):
        sol = local_ratio_gap(GapInstance([0], [], [], [], []))
        assert sol.profit == 0.0

    def test_bin_with_no_items(self):
        inst = GapInstance([0, 0], [], [], [], [1.0])
        sol = local_ratio_gap(inst)
        assert sol.assignment[0] == []
