"""The sparse-assignment b-matching against two oracles, and its tie-break.

Optimal b-matchings tie constantly under the paper's 4-level rate table,
and which optimum comes back decides which slots a sensor wins and so
which sensors keep budget for later intervals and tours.
:func:`repro.core.matching.max_weight_b_matching` solves each one as a
sparse assignment of right nodes to left-node copies.  On every interval
matching of ``Online_MaxMatch`` tours on the quick bench grid and the
10 km MaxMatch shapes, on each tour's whole-tour graph, and on random
tie-heavy b-matchings, its result must be a valid b-matching
(``check_matching``) whose weight equals the optimum of
:func:`tests.oracles.linprog_b_matching` (the b-matching LP through
``linprog(method="highs-ds")``) and of :func:`tests.oracles.lsa_b_matching`
(a dense assignment), and the same edge set must give equal pairs in any
row order, as a list or as an array.  The whole-tour graphs are engine
cases only: ``Offline_MaxMatch`` solves the tour over runs of identical
slots (``tests/test_lp.py`` holds its weight to this engine's).  The
flat-pair :func:`~repro.core.offline_maxmatch.fixed_power_of` must give
the value, or raise the error, of the per-sensor scan it replaced, and
the fuzzer must run the MaxMatch family exactly where that scan finds a
power.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import max_weight_b_matching
from repro.core.offline_maxmatch import (
    _POWER_RTOL,
    build_matching_edges,
    fixed_power_of,
)
from repro.online.framework import run_online
from repro.online.online_maxmatch import MatchingIntervalScheduler, online_maxmatch
from repro.sim.scenario import ScenarioConfig
from repro.verify.fuzz import default_algorithms
from tests.conftest import make_instance, random_instance
from tests.oracles import fixed_power_of_reference, linprog_b_matching, lsa_b_matching
from tests.test_matching import check_matching

FIXED_POWER = 0.3


def captured_matchings(num_sensors, path_length, seed):
    """The whole-tour graph, then every b-matching one
    ``Online_MaxMatch`` tour solves, one per probe interval, recorded by
    wrapping the interval scheduler."""
    scenario = ScenarioConfig(
        num_sensors=num_sensors, path_length=path_length, fixed_power=FIXED_POWER
    ).build(seed=seed)
    instance = scenario.instance()
    edges, caps = build_matching_edges(instance)
    calls = [(edges, caps, instance.num_slots)]

    class RecordingScheduler(MatchingIntervalScheduler):
        def schedule(self, sub_instance):
            edges, caps = build_matching_edges(sub_instance, self.fixed_power)
            calls.append((edges, caps, sub_instance.num_slots))
            return super().schedule(sub_instance)

    recorded = run_online(instance, scenario.gamma, RecordingScheduler(FIXED_POWER))
    plain = online_maxmatch(instance, scenario.gamma)
    assert recorded.collected_bits == plain.collected_bits
    return calls


def assert_optimal_and_order_free(edges, shuffled, caps, num_right):
    """The engine's matching is valid and as heavy as both oracles', and
    ``shuffled`` (the edges reordered, as triples) gives the same result
    as a list and as an array."""
    got = max_weight_b_matching(edges, caps, num_right)
    check_matching(got, shuffled, caps, num_right)
    for oracle in (linprog_b_matching, lsa_b_matching):
        want = oracle(edges, caps, num_right).weight
        assert got.weight == pytest.approx(want, rel=1e-9, abs=0.0)
    assert max_weight_b_matching(shuffled, caps, num_right) == got
    rows = np.asarray(shuffled, dtype=np.float64).reshape(-1, 3)
    assert max_weight_b_matching(rows, caps, num_right) == got


@pytest.mark.parametrize(
    "num_sensors, path_length, seed",
    [
        # The quick bench grid, at its seed and one other.
        (30, 1_500.0, 7),
        (60, 1_500.0, 7),
        (30, 1_500.0, 11),
        (60, 1_500.0, 11),
        # The 10 km n = 100 and 300 shapes of the MaxMatch sweep.
        (100, 10_000.0, 1),
        (100, 10_000.0, 2),
        (100, 10_000.0, 3),
        (300, 10_000.0, 1),
        (300, 10_000.0, 2),
    ],
)
def test_every_tour_matching_equals_linprog(num_sensors, path_length, seed):
    """Every interval matching and the whole-tour graph: optimal weight
    (both oracles), a valid matching, equal pairs in any edge order."""
    calls = captured_matchings(num_sensors, path_length, seed)
    assert len(calls) > 5
    rng = np.random.default_rng(seed)
    for edges, caps, num_right in calls:
        shuffled = [tuple(edges[k]) for k in rng.permutation(len(edges))]
        assert_optimal_and_order_free(edges, shuffled, caps, num_right)


@st.composite
def tie_heavy_b_matchings(draw):
    """Small b-matchings whose weights come from at most five values
    (zero included), with capacities 0–5 and parallel edges."""
    num_left = draw(st.integers(1, 6))
    num_right = draw(st.integers(1, 10))
    caps = draw(st.lists(st.integers(0, 5), min_size=num_left, max_size=num_left))
    values = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 4800.0, 9600.0, 19200.0, 250000.0]),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    edge = st.tuples(
        st.integers(0, num_left - 1),
        st.integers(0, num_right - 1),
        st.sampled_from(values),
    )
    edges = draw(st.lists(edge, max_size=40))
    if edges:
        # Parallel copies of drawn edges, each with its own weight.
        for u, v, _ in draw(st.lists(st.sampled_from(edges), max_size=6)):
            edges.append((u, v, draw(st.sampled_from(values))))
    shuffled = draw(st.permutations(edges))
    return edges, shuffled, caps, num_right


@given(tie_heavy_b_matchings())
@settings(max_examples=300, deadline=None)
def test_tie_heavy_matchings_equal_linprog(case):
    """Tie-heavy b-matchings: optimal weight (both oracles), a valid
    matching, equal pairs for shuffled and array input."""
    edges, shuffled, caps, num_right = case
    assert_optimal_and_order_free(edges, shuffled, caps, num_right)


def power_check(fn, instance):
    """``fn``'s power, or the text of the ``ValueError`` it raises."""
    try:
        return fn(instance)
    except ValueError as err:
        return f"ValueError: {err}"


def assert_matches_reference(instance):
    """``fixed_power_of`` gives the reference's power or error, and the
    fuzzer runs ``Offline_MaxMatch`` exactly when that is a power."""
    want = power_check(fixed_power_of_reference, instance)
    got = power_check(fixed_power_of, instance)
    assert got == want
    assert ("Offline_MaxMatch" in default_algorithms(instance)) == isinstance(want, float)
    return got


def sensor(window, rates, powers, budget=1.0):
    return {"window": window, "rates": rates, "powers": powers, "budget": budget}


class TestFixedPowerOf:
    @pytest.mark.parametrize("fixed_power", [None, FIXED_POWER])
    def test_fuzz_instances_match_reference(self, fixed_power):
        rng = np.random.default_rng(21)
        for _ in range(200):
            instance = random_instance(
                rng,
                num_slots=int(rng.integers(1, 12)),
                num_sensors=int(rng.integers(1, 8)),
                fixed_power=fixed_power,
            )
            assert_matches_reference(instance)

    def test_powers_near_the_tolerance_match_reference(self):
        """Powers within and just beyond ``_POWER_RTOL`` of each other,
        drawn so the first sensor's lowest power varies."""
        choices = tuple(
            FIXED_POWER * (1.0 + k * _POWER_RTOL)
            for k in (-0.4, 0.0, 0.4, 0.9, 1.5, 3.0)
        )
        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(300):
            instance = random_instance(
                rng,
                num_slots=8,
                num_sensors=int(rng.integers(1, 6)),
                power_choices=rng.choice(choices, size=4).tolist(),
            )
            outcomes.add(type(assert_matches_reference(instance)))
        assert outcomes == {float, str}

    @pytest.mark.parametrize(
        "sensors",
        [
            # Zero-rate slots: their powers never count.
            [sensor((0, 2), [0.0, 5.0, 0.0], [0.9, 0.3, 0.1])],
            # A sensor with only zero-rate slots before the first that can
            # transmit, and one after it.
            [
                sensor((0, 1), [0.0, 0.0], [0.5, 0.7]),
                sensor((1, 2), [5.0, 5.0], [0.3, 0.3]),
                sensor((2, 3), [0.0, 0.0], [0.9, 0.9]),
            ],
            # Unreachable sensors around the reachable ones.
            [
                sensor(None, [], []),
                sensor((0, 3), [5.0, 5.0, 5.0, 5.0], [0.3] * 4),
                sensor(None, [], []),
            ],
            # Within the tolerance, the first sensor's lowest is the reference.
            [
                sensor((0, 1), [5.0, 5.0], [0.3 * (1 + 4e-10), 0.3]),
                sensor((2, 3), [5.0, 5.0], [0.3 * (1 - 5e-10), 0.3 * (1 + 9e-10)]),
            ],
            # Just beyond it: the offender named is the first sensor's lowest.
            [
                sensor((0, 1), [5.0, 5.0], [0.3, 0.3 * (1 + 5e-10)]),
                sensor((1, 3), [5.0, 5.0, 5.0], [0.33, 0.3 * (1 + 2e-9), 0.3]),
                sensor((3, 3), [5.0], [0.17]),
            ],
            # Multi-power inside the first sensor.
            [sensor((0, 2), [5.0, 9.0, 2.0], [0.3, 0.22, 0.3])],
            # Nothing can transmit.
            [sensor((0, 1), [0.0, 0.0], [0.3, 0.3]), sensor(None, [], [])],
        ],
    )
    def test_edge_cases_match_reference(self, sensors):
        assert_matches_reference(make_instance(4, 1.0, sensors))

