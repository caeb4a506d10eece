"""Batch solving: one deployment is built and priced once.

:func:`repro.sim.batch.solve_by_deployment` is the only grouping of
solves by ``(config, seed)``.  These tests pin what that sharing buys:
certified specs of one deployment share one LP solve, and a sweep unit
builds its topology and instance once for all of its algorithms while
collecting exactly what per-algorithm instances would.
"""

import numpy as np

from repro.experiments.sweep import _run_unit
from repro.obs import MetricsRegistry, use_registry
from repro.sim import ScenarioConfig, TourSpec, get_algorithm, run_tour, run_tours
from repro.sim.batch import solve_by_deployment

CONFIG = ScenarioConfig(num_sensors=60, path_length=3000.0)
NAMES = ("Offline_Appro", "Online_Appro", "Baseline[greedy_profit]")


def test_certified_specs_of_one_deployment_price_the_lp_once():
    specs = [TourSpec(CONFIG, name, seed=5, certify=True) for name in NAMES]
    registry = MetricsRegistry()
    with use_registry(registry):
        results = run_tours(specs)
    assert registry.counter("lp.calls") == 1
    assert registry.timer_stats("batch.prepare").count == 1
    assert len({r.certificate.lp_bound_bits for r in results}) == 1
    assert all(r.certificate.passed for r in results)


def test_solve_by_deployment_groups_and_keeps_spec_order():
    specs = [
        TourSpec(CONFIG, "Offline_Appro", seed=1),
        TourSpec(CONFIG, "Offline_Appro", seed=2),
        TourSpec(CONFIG, "Baseline[greedy_profit]", seed=1),
    ]
    registry = MetricsRegistry()
    with use_registry(registry):
        seen = solve_by_deployment(
            specs, lambda spec, scenario, instance: (spec, scenario.seed, instance)
        )
    assert [spec for spec, _, _ in seen] == specs
    assert [seed for _, seed, _ in seen] == [1, 2, 1]
    assert seen[0][2] is seen[2][2]
    assert seen[0][2] is not seen[1][2]
    assert registry.counter("batch.groups") == 2
    assert registry.counter("batch.tours") == 3
    assert registry.timer_stats("batch.prepare").count == 2


def test_sweep_unit_shares_one_instance_and_matches_fresh_ones():
    label = (("n", 60),)
    registry = MetricsRegistry()
    with use_registry(registry):
        records = _run_unit((CONFIG, NAMES, label, 0, 9))
    assert registry.timer_stats("scenario.build").count == 1
    assert registry.timer_stats("batch.prepare").count == 1
    assert [r.algorithm for r in records] == list(NAMES)
    for record in records:
        fresh = run_tour(CONFIG.build(seed=9), get_algorithm(record.algorithm), mutate=False)
        assert record.collected_bits == fresh.collected_bits
        assert record.label == label and record.seed == 9
        messages = fresh.messages.total_messages if fresh.messages else 0
        assert record.total_messages == messages
    assert np.isfinite([r.wall_time for r in records]).all()
