"""Battery invariants of the network's charge array.

:meth:`SensorNetwork.withdraw` and :meth:`SensorNetwork.deposit` update
every node in one array pass; the scalar :class:`tests.oracles.Battery`
is the per-node reference they must match bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.network import SensorNetwork
from tests.oracles import Battery


def network(capacity, charges):
    charges = np.atleast_1d(np.asarray(charges, dtype=np.float64))
    return SensorNetwork(np.zeros((charges.size, 2)), capacity, charges)


def test_initial_state():
    net = network(100.0, [40.0, 0.0, 100.0])
    assert net.capacity == 100.0
    assert net.charges().tolist() == [40.0, 0.0, 100.0]


def test_initial_charge_exceeding_capacity_rejected():
    with pytest.raises(ValueError, match="exceeds capacity"):
        network(10.0, [5.0, 11.0])
    # Within 1e-9 J of the capacity is clipped to it.
    assert network(10.0, [10.0 + 5e-10]).charges().tolist() == [10.0]


@pytest.mark.parametrize("charge", [-1.0, np.nan, np.inf])
def test_initial_charge_must_be_nonnegative_and_finite(charge):
    with pytest.raises(ValueError, match="initial_charges"):
        network(10.0, [1.0, charge])


def test_zero_capacity_rejected():
    for capacity in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="battery_capacity"):
            network(capacity, [0.0])


def test_deposit_within_headroom():
    net = network(100.0, [10.0])
    stored = net.deposit(np.array([30.0]))
    assert stored.tolist() == [30.0]
    assert net.charges().tolist() == [40.0]


def test_deposit_spills_at_capacity():
    net = network(100.0, [90.0, 100.0])
    stored = net.deposit(np.array([30.0, 5.0]))
    assert stored.tolist() == [10.0, 0.0]
    assert net.charges().tolist() == [100.0, 100.0]


def test_deposit_negative_rejected():
    net = network(10.0, [1.0, 2.0])
    for energy in (-1.0, np.nan, np.inf):
        for update in (net.deposit, net.withdraw):
            with pytest.raises(ValueError, match="energy"):
                update(np.array([0.5, energy]))
    # A rejected update changes no node.
    assert net.charges().tolist() == [1.0, 2.0]


def test_withdraw():
    net = network(100.0, [50.0, 7.0])
    net.withdraw(np.array([20.0, 0.0]))
    assert net.charges().tolist() == [30.0, 7.0]


def test_withdraw_overdraft_rejected():
    net = network(100.0, [50.0, 5.0])
    with pytest.raises(ValueError, match="node 1"):
        net.withdraw(np.array([1.0, 5.1]))
    assert net.charges().tolist() == [50.0, 5.0]


def test_withdraw_exact_charge_ok():
    net = network(100.0, [5.0, 5.0])
    # Up to 1e-9 J past the charge is rounding, and empties the node.
    net.withdraw(np.array([5.0, 5.0 + 5e-10]))
    assert net.charges().tolist() == [0.0, 0.0]


def test_paper_recurrence():
    """P_{j+1} = min(P_j + Q_j - O_j, B) for one harvest/spend cycle."""
    net = network(10_000.0, [100.0, 9_900.0])
    net.withdraw(np.array([30.0, 30.0]))  # O_j
    net.deposit(np.array([500.0, 500.0]))  # Q_j
    assert net.charges().tolist() == [
        min(100.0 - 30.0 + 500.0, 10_000.0),
        min(9_900.0 - 30.0 + 500.0, 10_000.0),
    ]


@given(
    st.lists(
        st.tuples(st.sampled_from(["deposit", "withdraw"]), st.floats(0.0, 50.0)),
        max_size=40,
    )
)
def test_random_ops_preserve_invariants(ops):
    """Charge stays in [0, capacity]; the energy ledger balances."""
    net = network(120.0, [60.0, 0.0, 120.0])
    stored = np.zeros(3)
    withdrawn = np.zeros(3)
    for op, amount in ops:
        if op == "deposit":
            stored += net.deposit(np.full(3, amount))
        else:
            draw = np.minimum(amount, net.charges())
            net.withdraw(draw)
            withdrawn += draw
        charges = net.charges()
        assert np.all(charges >= 0.0) and np.all(charges <= net.capacity + 1e-9)
    # Conservation: initial + stored deposits - withdrawals = charge.
    np.testing.assert_allclose(
        net.charges(), np.array([60.0, 0.0, 120.0]) + stored - withdrawn, atol=1e-6
    )


_amounts = st.floats(0.0, 60.0) | st.sampled_from([0.0, 1e-10, 5e-10, 2e-9])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vector_updates_equal_scalar_batteries(data):
    """Random vector deposits and withdrawals give the same charges and
    stored amounts as n scalar batteries under ``==``; an overdraft
    raises at the same step."""
    n = data.draw(st.integers(1, 6))
    capacity = data.draw(st.floats(1.0, 100.0))
    initial = data.draw(st.lists(st.floats(0.0, capacity), min_size=n, max_size=n))
    net = network(capacity, initial)
    batteries = [Battery(capacity, c) for c in initial]
    for _ in range(data.draw(st.integers(0, 30))):
        op = data.draw(st.sampled_from(["deposit", "withdraw", "withdraw_charge"]))
        amounts = data.draw(st.lists(_amounts, min_size=n, max_size=n))
        if op == "withdraw_charge":
            # run_tour's debit: never more than the charge, offsets included.
            amounts = [b.charge + a if a < 1e-8 else b.charge for a, b in zip(amounts, batteries)]
            op = "withdraw"
        if op == "deposit":
            got = net.deposit(np.array(amounts))
            want = [b.deposit(a) for a, b in zip(amounts, batteries)]
            assert got.tolist() == want
        else:
            overdraft = any(a > b.charge + 1e-9 for a, b in zip(amounts, batteries))
            if overdraft:
                with pytest.raises(ValueError, match="exceeds stored charge"):
                    net.withdraw(np.array(amounts))
                with pytest.raises(ValueError, match="exceeds stored charge"):
                    for a, b in zip(amounts, batteries):
                        b.withdraw(a)
                return
            net.withdraw(np.array(amounts))
            for a, b in zip(amounts, batteries):
                b.withdraw(a)
        assert net.charges().tolist() == [b.charge for b in batteries]
