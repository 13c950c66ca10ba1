"""Session fixtures for the expensive simulation runs.

Each fixture is computed once and shared between the module tests and the
acceptance suite, so the full run stays in the low minutes.
"""

import math

import pytest

from phaselab import analogs, berry, scattering
from phaselab.scenarios import SCENARIOS


EQUATOR_AMPLITUDE = 1.0
EQUATOR_WOBBLE = 0.005

# the scatter-wavepacket scenario's inputs at its catalog defaults
_WAVEPACKET = SCENARIOS["scatter-wavepacket"]
WAVEPACKET_CONFIG, WAVEPACKET_RUN = _WAVEPACKET.prepare(
    {k: entry.default for k, entry in _WAVEPACKET.parameters.items()})


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Run every test from its own tmp dir, so default output roots such as
    ./phaselab-out never land in the checkout."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="session")
def equatorial_decomposition():
    period = 2.0 * math.pi / EQUATOR_WOBBLE
    return berry.cyclic_phase_decomposition(
        EQUATOR_AMPLITUDE, 0.5 * math.pi, period, 0.02)


@pytest.fixture(scope="session")
def wavepacket_result():
    return scattering.wavepacket_run(WAVEPACKET_RUN, WAVEPACKET_CONFIG)


@pytest.fixture(scope="session")
def adiabatic_pendulum():
    system, duration = analogs.msw_benchmark_system()
    return analogs.pendulum_sweep(system, duration)


@pytest.fixture(scope="session")
def rectangle_transport():
    return analogs.rectangular_loop_phase(0.5, 10.0, samples=2000,
                                          adiabaticity=1e-3,
                                          transport_step=0.01)


@pytest.fixture(scope="session")
def celestial_config():
    return analogs.CelestialConfig(m_jupiter=1e-3, r_jupiter=5.2)


@pytest.fixture(scope="session")
def celestial_grid(celestial_config):
    return analogs.frozen_period_grid(celestial_config, nodes=32)


@pytest.fixture(scope="session")
def celestial_residual_report(celestial_config):
    return analogs.celestial_adiabatic_residual(celestial_config,
                                                n_periods=1.0)
