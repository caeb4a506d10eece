#!/usr/bin/env python
"""Quickstart: one topology, all four paper algorithms, plus the LP bound.

Builds the paper's default scenario (10 km highway, 300 solar-powered
sensors, 200 m radio range, 1 s slots, 5 m/s sink), runs
``Offline_Appro``, ``Online_Appro`` and — switching to the fixed-power
radio — ``Offline_MaxMatch`` / ``Online_MaxMatch``, and reports each
algorithm's throughput as a fraction of the LP upper bound on the
optimum.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ScenarioConfig, dcmp_lp_upper_bound, get_algorithm, run_tour


def compare(config: ScenarioConfig, algorithms: list[str], seed: int = 42) -> None:
    """Run every algorithm on one shared topology and print a table."""
    scenario = config.build(seed=seed)
    instance = scenario.instance()
    bound_bits = dcmp_lp_upper_bound(instance)
    print(
        f"  topology: n={config.num_sensors}, T={scenario.trajectory.num_slots} slots, "
        f"gamma={scenario.gamma}, LP bound={bound_bits / 1e6:.2f} Mb"
    )
    for name in algorithms:
        result = run_tour(scenario, get_algorithm(name), mutate=False, instance=instance)
        frac = result.collected_bits / bound_bits if bound_bits else 0.0
        msg = (
            f", {result.messages.total_messages} protocol messages"
            if result.messages
            else ""
        )
        print(
            f"  {name:<18} {result.collected_megabits:8.2f} Mb "
            f"({frac:6.1%} of LP bound, {result.wall_time * 1e3:6.1f} ms{msg})"
        )


def main() -> None:
    print("== Multi-rate radio (the general problem) ==")
    compare(
        ScenarioConfig(num_sensors=300),
        ["Offline_Appro", "Online_Appro", "Baseline[greedy_profit]", "Baseline[random]"],
    )
    print()
    print("== Fixed 300 mW power (the Section-VI special case) ==")
    compare(
        ScenarioConfig(num_sensors=300, fixed_power=0.3),
        ["Offline_MaxMatch", "Online_MaxMatch", "Offline_Appro", "Online_Appro"],
    )


if __name__ == "__main__":
    main()
