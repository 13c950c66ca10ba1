"""The DOP853 loop on a state that is not a lane stack: a 9-wide linear
system, against scipy's solve_ivp with dense output and terminal events,
bit for bit.  The celestial runs are checked in test_celestial."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phaselab import dop853

# y' = A y: three coupled damped rotations, nine wide
_RNG = np.random.default_rng(19)
_SKEW = _RNG.normal(size=(9, 9))
A = _SKEW - _SKEW.T - 0.05 * np.eye(9)
Y0 = _RNG.normal(size=9)
T_END = 12.0


def rhs(t, y):
    return A @ y


def never(y):
    return (1.0 + y @ y,)


def crossing(y):
    # y[0] falls to -2.5 (near t = 4.26) or y[4] climbs to 0.7 (near
    # t = 2.51), whichever comes first
    return np.array([y[0] + 2.5, 0.7 - y[4]])


@pytest.mark.parametrize("stop", [never, crossing])
def test_matches_scipy(stop):
    run = dop853.run(rhs, Y0, T_END, 1e-12, 1e-13, stop)
    events = [lambda t, y, k=k: stop(y)[k] for k in range(len(stop(Y0)))]
    for event in events:
        event.terminal = True
    reference = solve_ivp(rhs, (0.0, T_END), Y0, method="DOP853",
                          rtol=1e-12, atol=1e-13, dense_output=True,
                          events=events)
    assert run.nfev == reference.nfev
    if stop is never:
        assert run.stop is None
        assert np.array_equal(run.ts, reference.t)
        t_last = T_END
    else:
        # scipy's last time is the crossing; the run keeps its step's end
        k, t_last, state = run.stop
        assert np.array_equal(run.ts[:-1], reference.t[:-1])
        assert run.ts[-2] < t_last <= run.ts[-1] < T_END
        assert [len(times) for times in reference.t_events].index(1) == k
        assert t_last == reference.t_events[k][0]
        assert np.array_equal(state, reference.y_events[k][0])
    t = np.random.default_rng(3).permutation(np.concatenate((
        np.linspace(0.0, t_last, 301), run.ts[:-1],
        0.5 * (run.ts[1:-1] + run.ts[:-2]))))
    full = reference.sol(t)
    assert np.array_equal(run.sol(t), full)
    columns = np.random.default_rng(4).integers(0, 9, (len(t), 3))
    assert np.array_equal(run.sol(t, columns),
                          np.take_along_axis(full, columns.T, axis=0))
