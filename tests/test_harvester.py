"""Harvest models: constant and solar."""

import pytest

from repro.energy.harvester import ConstantHarvester, HarvestModel, SolarHarvester
from repro.energy.solar import sunny_profile

HOUR = 3600.0


class TestConstantHarvester:
    def test_power(self):
        assert ConstantHarvester(0.5).power(123.0) == 0.5

    def test_energy(self):
        assert ConstantHarvester(2.0).energy(10.0, 25.0) == pytest.approx(30.0)

    def test_zero_power_allowed(self):
        assert ConstantHarvester(0.0).energy(0.0, 100.0) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ConstantHarvester(-1.0)

    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError):
            ConstantHarvester(1.0).energy(10.0, 5.0)

    def test_satisfies_protocol(self):
        assert isinstance(ConstantHarvester(1.0), HarvestModel)


class TestSolarHarvester:
    def test_scales_with_area(self):
        profile = sunny_profile()
        small = SolarHarvester(profile, 100.0)
        big = SolarHarvester(profile, 200.0)
        assert big.energy(10 * HOUR, 14 * HOUR) == pytest.approx(
            2.0 * small.energy(10 * HOUR, 14 * HOUR)
        )

    def test_night_harvest_zero(self):
        h = SolarHarvester(sunny_profile(), 100.0)
        assert h.energy(0.0, 4 * HOUR) == pytest.approx(0.0, abs=1e-9)

    def test_power_at_noon_positive(self):
        h = SolarHarvester(sunny_profile(), 100.0)
        assert h.power(12 * HOUR) > 0

    def test_paper_panel_daily_energy_magnitude(self):
        # 10x10 mm panel: ~86 J per sunny day (172 J per 48 h).
        h = SolarHarvester(sunny_profile(), 100.0)
        daily = h.energy(0.0, 24 * HOUR)
        assert 80.0 < daily < 95.0

    def test_satisfies_protocol(self):
        assert isinstance(SolarHarvester(sunny_profile(), 10.0), HarvestModel)
