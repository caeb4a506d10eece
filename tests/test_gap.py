"""GAP local-ratio machinery on textbook instances."""

import itertools

import numpy as np
import pytest

from repro.core.gap import GapBin, GapInstance, GapSolution, local_ratio_gap
from repro.core.knapsack import knapsack_branch_and_bound, knapsack_greedy


def brute_force_gap(instance: GapInstance) -> float:
    """Reference GAP optimum by enumerating item -> bin assignments."""
    # Item universe with per-bin positions.
    items = sorted(
        {int(it) for b in instance.bins for it in b.items}
    )
    lookup = {}
    for bi, b in enumerate(instance.bins):
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
            used[bi] += instance.bins[bi].weights[pos]
            profit += instance.bins[bi].profits[pos]
            if used[bi] > instance.bins[bi].capacity + 1e-12:
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
    return GapInstance(bins)


def check_solution(instance: GapInstance, sol: GapSolution) -> None:
    seen = set()
    for bi, items in sol.assignment.items():
        b = instance.bins[bi]
        lookup = {int(it): pos for pos, it in enumerate(b.items)}
        weight = 0.0
        for it in items:
            assert it in lookup, f"item {it} not a candidate of bin {bi}"
            assert it not in seen, f"item {it} assigned twice"
            seen.add(it)
            weight += b.weights[lookup[it]]
        assert weight <= b.capacity + 1e-9


class TestGapBin:
    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            GapBin(1.0, np.array([1, 1]), np.ones(2), np.ones(2))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            GapBin(-1.0, np.array([0]), np.ones(1), np.ones(1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GapBin(1.0, np.array([0, 1]), np.ones(2), np.ones(3))


class TestGapInstance:
    def test_bins_containing(self):
        inst = GapInstance(
            [
                GapBin(1.0, np.array([0, 2]), np.ones(2), np.ones(2)),
                GapBin(1.0, np.array([2]), np.ones(1), np.ones(1)),
            ]
        )
        assert inst.bins_containing(2) == [(0, 1), (1, 0)]
        assert inst.bins_containing(0) == [(0, 0)]

    def test_profit_of_assignment(self):
        inst = GapInstance(
            [GapBin(5.0, np.array([0, 1]), np.array([2.0, 3.0]), np.ones(2))]
        )
        assert inst.profit_of_assignment({0: [0, 1]}) == pytest.approx(5.0)

    def test_profit_of_assignment_unsorted_bins_and_bad_pairs(self):
        inst = GapInstance(
            [
                GapBin(5.0, np.array([4, 0, 2]), np.array([1.0, 2.0, 4.0]), np.ones(3)),
                GapBin(5.0, np.array([2]), np.array([8.0]), np.ones(1)),
                GapBin(5.0, np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)),
            ]
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
        inst = GapInstance(
            [
                GapBin(
                    50.0,
                    np.array([0, 1, 2]),
                    np.array([60.0, 100.0, 120.0]),
                    np.array([10.0, 20.0, 30.0]),
                )
            ]
        )
        sol = local_ratio_gap(inst)
        assert sol.profit == pytest.approx(220.0)

    def test_two_bins_sharing_item(self):
        # One item, two bins; the second bin values it more, and the
        # backward pass must hand the item to the tentative owner that
        # keeps it feasible and profitable.
        inst = GapInstance(
            [
                GapBin(1.0, np.array([0]), np.array([5.0]), np.array([1.0])),
                GapBin(1.0, np.array([0]), np.array([8.0]), np.array([1.0])),
            ]
        )
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
            sol = local_ratio_gap(inst, knapsack_solver=knapsack_branch_and_bound)
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
        sol = local_ratio_gap(GapInstance([]))
        assert sol.profit == 0.0

    def test_bin_with_no_items(self):
        inst = GapInstance(
            [GapBin(1.0, np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
        )
        sol = local_ratio_gap(inst)
        assert sol.assignment[0] == []
