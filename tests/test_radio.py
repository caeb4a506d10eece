"""Multi-rate radio model."""

import numpy as np
import pytest

from repro.network.radio import (
    CC2420_LIKE_TABLE,
    FixedPowerTable,
    RateLevel,
    RateTable,
)


class TestRateLevel:
    def test_valid(self):
        lv = RateLevel(20.0, 250_000.0, 0.17)
        assert lv.max_distance == 20.0

    @pytest.mark.parametrize("kwargs", [
        dict(max_distance=0.0, rate=1.0, power=1.0),
        dict(max_distance=1.0, rate=0.0, power=1.0),
        dict(max_distance=1.0, rate=1.0, power=-0.1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RateLevel(**kwargs)


class TestRateTable:
    def test_paper_table_levels(self):
        assert CC2420_LIKE_TABLE.num_levels == 4
        assert CC2420_LIKE_TABLE.max_range == 200.0

    def test_paper_table_values(self):
        # Exactly the paper's 4-pairwise setting, in SI units.
        assert CC2420_LIKE_TABLE.rate_at(10.0) == pytest.approx(250_000.0)
        assert CC2420_LIKE_TABLE.power_at(10.0) == pytest.approx(0.170)
        assert CC2420_LIKE_TABLE.rate_at(30.0) == pytest.approx(19_200.0)
        assert CC2420_LIKE_TABLE.power_at(30.0) == pytest.approx(0.220)
        assert CC2420_LIKE_TABLE.rate_at(100.0) == pytest.approx(9_600.0)
        assert CC2420_LIKE_TABLE.power_at(100.0) == pytest.approx(0.300)
        assert CC2420_LIKE_TABLE.rate_at(150.0) == pytest.approx(4_800.0)
        assert CC2420_LIKE_TABLE.power_at(150.0) == pytest.approx(0.330)

    def test_boundaries_inclusive(self):
        # max_distance is inclusive for its own band.
        assert CC2420_LIKE_TABLE.rate_at(20.0) == pytest.approx(250_000.0)
        assert CC2420_LIKE_TABLE.rate_at(200.0) == pytest.approx(4_800.0)

    def test_out_of_range_zero(self):
        assert CC2420_LIKE_TABLE.rate_at(200.1) == 0.0
        assert CC2420_LIKE_TABLE.power_at(250.0) == 0.0

    def test_vectorised_lookup(self):
        d = np.array([5.0, 25.0, 60.0, 180.0, 300.0])
        rates = CC2420_LIKE_TABLE.rate_at(d)
        np.testing.assert_allclose(rates, [250_000, 19_200, 9_600, 4_800, 0.0])

    def test_in_range_mask(self):
        mask = CC2420_LIKE_TABLE.in_range(np.array([100.0, 200.0, 201.0]))
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_distinct_powers(self):
        np.testing.assert_allclose(
            CC2420_LIKE_TABLE.distinct_powers, [0.17, 0.22, 0.30, 0.33]
        )

    def test_requires_increasing_distances(self):
        with pytest.raises(ValueError):
            RateTable([RateLevel(50.0, 1.0, 1.0), RateLevel(20.0, 1.0, 1.0)])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            RateTable([])

    def test_monotone_rate_decrease_in_paper_table(self):
        d = np.linspace(1.0, 200.0, 400)
        rates = CC2420_LIKE_TABLE.rate_at(d)
        assert np.all(np.diff(rates) <= 0)


class TestFixedPowerTable:
    def test_with_fixed_power(self):
        fixed = CC2420_LIKE_TABLE.with_fixed_power(0.3)
        assert isinstance(fixed, FixedPowerTable)
        assert fixed.fixed_power == 0.3
        # Rates preserved, power flattened.
        assert fixed.rate_at(10.0) == pytest.approx(250_000.0)
        assert fixed.power_at(10.0) == pytest.approx(0.3)
        assert fixed.power_at(150.0) == pytest.approx(0.3)

    def test_rejects_mismatched_levels(self):
        with pytest.raises(ValueError):
            FixedPowerTable(
                [RateLevel(10.0, 1000.0, 0.2), RateLevel(20.0, 500.0, 0.3)],
                fixed_power=0.2,
            )

