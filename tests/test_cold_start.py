"""Cold start: scipy (HiGHS's front end and csgraph) loads on the first solve.

The paper's own algorithms, the baselines and the CLI's help solve no
LP, so they must run without importing scipy; the MaxMatch matching
(its sparse assignment, ``scipy.sparse.csgraph``) and the LP bound must
import it, through ``load_highs`` and its ``highs.load`` phase.
pytest's own process already holds scipy (through
``tests/oracles.py``), so every check runs in a fresh interpreter with
``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def fresh_json(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    return json.loads(run_fresh("-c", code).stdout.splitlines()[-1])


def test_appro_and_baseline_tours_leave_scipy_unloaded():
    loaded = fresh_json(
        """
import json, sys
import repro
from repro import ScenarioConfig, get_algorithm, run_tour
from repro.sim.algorithms import ALGORITHMS

loaded = {"import repro": "scipy" in sys.modules}
scenario = ScenarioConfig(num_sensors=30, path_length=1_500.0).build(seed=7)
for name in sorted(ALGORITHMS):
    if "MaxMatch" not in name:
        run_tour(scenario, get_algorithm(name), mutate=False)
        loaded[name] = "scipy" in sys.modules
print(json.dumps(loaded))
"""
    )
    assert set(loaded) == {
        "import repro",
        "Offline_Appro",
        "Online_Appro",
        "Baseline[greedy_density]",
        "Baseline[greedy_profit]",
        "Baseline[random]",
        "Baseline[round_robin]",
    }
    assert not any(loaded.values()), loaded


def test_cli_help_leaves_scipy_unloaded():
    proc = run_fresh("-X", "importtime", "-m", "repro", "--help")
    assert "usage:" in proc.stdout
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert "repro.cli" in imported
    assert not [name for name in imported if name.startswith("scipy")]


def test_maxmatch_tour_and_lp_bound_load_highs_in_their_own_phase():
    loaded = fresh_json(
        """
import json, sys
from repro import ScenarioConfig, dcmp_lp_upper_bound, get_algorithm, run_tour
from repro.obs import MetricsRegistry, use_registry

out = {}
scenario = ScenarioConfig(num_sensors=30, path_length=1_500.0, fixed_power=0.3).build(seed=7)
registry = MetricsRegistry()
with use_registry(registry):
    run_tour(scenario, get_algorithm("Offline_MaxMatch"), mutate=False)
out["maxmatch"] = "scipy.optimize" in sys.modules
out["maxmatch_loads"] = registry.timer_stats("highs.load").count
with use_registry(registry):
    dcmp_lp_upper_bound(scenario.instance())
out["lp_loads"] = registry.timer_stats("highs.load").count
print(json.dumps(out))
"""
    )
    assert loaded == {"maxmatch": True, "maxmatch_loads": 1, "lp_loads": 1}
    assert fresh_json(
        """
import json, sys
from repro import ScenarioConfig, dcmp_lp_upper_bound

dcmp_lp_upper_bound(ScenarioConfig(num_sensors=30, path_length=1_500.0).build(seed=7).instance())
print(json.dumps({"lp": "scipy.optimize" in sys.modules}))
"""
    ) == {"lp": True}


def test_online_maxmatch_tour_loads_csgraph_in_one_highs_phase():
    loaded = fresh_json(
        """
import json, sys
from repro import ScenarioConfig, get_algorithm, run_tour
from repro.core.lp import load_highs
from repro.obs import MetricsRegistry, use_registry

scenario = ScenarioConfig(num_sensors=30, path_length=1_500.0, fixed_power=0.3).build(seed=7)
out = {"before": "scipy.sparse.csgraph" in sys.modules}
registry = MetricsRegistry()
with use_registry(registry):
    run_tour(scenario, get_algorithm("Online_MaxMatch"), mutate=False)
out["csgraph"] = "scipy.sparse.csgraph" in sys.modules
out["loads"] = registry.timer_stats("highs.load").count
out["loader_misses"] = load_highs.cache_info().misses
out["matchings"] = registry.counter("matching.calls") > 0
print(json.dumps(out))
"""
    )
    assert loaded == {
        "before": False,
        "csgraph": True,
        "loads": 1,
        "loader_misses": 1,
        "matchings": True,
    }


def test_entry_points_load_highs_before_timing_or_forking():
    loaded = fresh_json(
        """
import json, sys
from repro import ScenarioConfig
from repro.experiments.bench import run_bench
from repro.experiments.sweep import SweepPoint, run_sweep
from repro.obs import Tracer, use_tracer

tracer = Tracer()
point = SweepPoint(ScenarioConfig(num_sensors=30, path_length=1_500.0, fixed_power=0.3),
                   ("Offline_MaxMatch",))
with use_tracer(tracer):
    run_sweep([point], repeats=1, jobs=1)
doc = run_bench(grid=[(30, 1_500.0)], algorithms=["Offline_MaxMatch", "Online_MaxMatch"])
out = {
    "sweep_spans": [e.name for e in tracer.events if e.depth == 0],
    "cell_loads": [n for cell in doc["entries"] for n in cell["timers"] if n == "highs.load"],
    "cell_lp": all(cell["counters"].get("matching.calls", 0) > 0 for cell in doc["entries"]),
}
print(json.dumps(out))
"""
    )
    # The sweep loads HiGHS before its timed run, not inside a unit's tour.
    assert loaded == {
        "sweep_spans": ["highs.load", "sweep.run"],
        "cell_loads": [],
        "cell_lp": True,
    }
    service = fresh_json(
        """
import json, sys
from repro.service.server import PlanningService

service = PlanningService(workers=1)
out = {"service": "scipy.optimize" in sys.modules}
service.shutdown()
print(json.dumps(out))
"""
    )
    assert service == {"service": True}
