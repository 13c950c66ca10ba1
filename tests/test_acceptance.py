"""Acceptance gate: every headline claim of the laboratory, one test each.

Each test asserts at the stated tolerance on what the scenarios compute at
their catalog defaults (the session fixture ``scenario`` in conftest.py runs
each one once), checks the closed forms it compares against in the test
itself, and prints a single ``PASS criterion N`` line (visible under
``pytest -s``).  A failure here means a physics claim broke, not a unit
regressed.
"""

import math
import time

import numpy as np
import pytest

from phaselab import cli, qcore
from phaselab.scenarios import SCENARIOS
from write_digests import run_digests


def default(name, parameter):
    return SCENARIOS[name].parameters[parameter].default


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_equatorial_loop(scenario):
    results, _, _ = scenario("berry-equator")
    assert qcore.circle_distance(results["geometric_phase"], math.pi) < 0.05
    assert qcore.circle_distance(results["wilson_phase"], math.pi) < 1e-3
    report(1, "equatorial loop carries geometric phase pi "
              "(dynamics within 0.05, discrete loop within 1e-3)")


def test_criterion_2_latitude_law(scenario):
    results, _, tables = scenario("berry-latitude")
    table = tables["latitude.csv"]
    assert len(table["colatitude"]) == 4
    for deg, wilson in zip(table["colatitude"], table["wilson_phase"]):
        target = math.pi * (1.0 - math.cos(math.radians(deg)))
        assert qcore.circle_distance(wilson, target) < 1e-3
    assert results["max_polygon_deviation"] <= 1e-12
    report(2, "loop phase equals half the enclosed solid angle, "
              "pi(1 - cos theta), within 1e-3 at four latitudes, and half "
              "the sampled polygon's solid angle within 1e-12")


def test_criterion_3_scale_blindness(scenario):
    equator, _, _ = scenario("berry-equator")
    sweep, _, _ = scenario("berry-wilson-sweep")
    assert sweep["wilson_difference"] < 1e-12
    bound = 2.0 * default("berry-wilson-sweep", "wobble") \
        / default("berry-wilson-sweep", "amplitude")
    assert qcore.circle_distance(sweep["geometric_base"],
                                 sweep["geometric_scaled"]) < bound
    assert abs(equator["dynamical_phase"]) > 1000.0
    report(3, "field rescaling leaves the loop phase exactly and the evolved "
              "geometric phase within 2 w/A, while the dynamical phase runs "
              "to over a thousand radians")


def test_criterion_4_rotating_frame(scenario):
    equator, _, _ = scenario("berry-equator")
    sweep, _, _ = scenario("berry-wilson-sweep")
    ratio = default("berry-equator", "wobble") \
        / default("berry-equator", "amplitude")
    assert abs(equator["sigma3_mean"] - 0.5 * ratio) < 2.0 * ratio ** 2
    for geometric in (equator["geometric_phase"], sweep["geometric_scaled"]):
        assert qcore.circle_distance(geometric, math.pi) < 0.05
    report(4, "rotating-frame tilt w/2A reproduced by real-time evolution "
              "within 2 (w/A)^2; equatorial phase pi at field strengths 1 "
              "and 5")


def test_criterion_5_linking_parity(scenario):
    _, checks, tables = scenario("topo-phase")
    assert all(checks.values())
    table = tables["interlock.csv"]
    windings = table["winding"]
    assert len(windings) >= 10
    for winding, predicted, phase in zip(windings, table["predicted_phase"],
                                         table["loop_phase"]):
        target = math.pi if winding % 2 else 0.0
        assert qcore.circle_distance(predicted, target) < 1e-12
        assert qcore.circle_distance(phase, target) < 1e-2
    odd = int(np.sum(windings % 2 != 0))
    assert odd >= 3 and len(windings) - odd >= 3
    report(5, f"{len(windings)} probe loops land on {{0, pi}} within 1e-2, "
              "pi exactly when the linking number with the degeneracy "
              "line is odd")


def test_criterion_6_barrier_phase_limits(scenario):
    results, _, _ = scenario("scatter-phase")
    assert results["mirror_phase"] == math.pi
    target = qcore.wrap_angle(math.pi - 2.0 * default("scatter-phase", "p")
                              * default("scatter-phase", "X"))
    assert qcore.circle_distance(results["strong_phase"], target) < 1e-3
    report(6, "reflection phase walks from pi (transparent barrier) to "
              "pi - 2pX (opaque barrier) within 1e-3")


def test_criterion_7_bounce_ledger(scenario):
    bounce, checks, tables = scenario("scatter-bounce")
    assert all(checks.values())
    assert abs(bounce["mc_net_momentum"]) <= bounce["mc_net_bound"] < 0.002
    expectation = tables["expectation.csv"]
    assert len(expectation["epsilon"]) == 90
    assert np.all(expectation["net_momentum"] == 0.0)
    res, _, _ = scenario("scatter-wavepacket")
    p = default("scatter-wavepacket", "p")
    first_target = 2.0 * p * (1.0 - res["epsilon_packet"])
    assert abs(res["first_kick"] - first_target) < 0.1 * first_target
    assert abs(res["long_kick"]) < 0.05 * 2.0 * p
    assert res["efold_roundtrips"] * res["epsilon_packet"] == pytest.approx(
        1.0, abs=0.2)
    report(7, "expected barrier momentum is exactly zero for every "
              "transparency; 200,000 stratified chains net zero within "
              "their derived bound, under 2e-3; the wavepacket shows the "
              "same cancellation "
              "(first kick 2p(1-eps) within 10%, long-time transfer under "
              "5%, dwell 1/eps within 20%)")


def test_criterion_8_capacitor_duality(scenario):
    results, checks, _ = scenario("ab-electric")
    assert all(checks.values())
    assert results["exact_matches"] == results["count"] == 1000
    report(8, "1000 random capacitor settings: probe-side and system-side "
              "phases identical to the last bit, and no which-path record "
              "survives while the phase stays under pi")


def test_criterion_9_flavor_conversion(scenario):
    pendulum, _, _ = scenario("pendulum-msw")
    assert pendulum["transfer_fraction"] >= 0.99
    assert pendulum["sudden_fraction"] <= 0.05
    _, _, tables = scenario("two-level-sweep")
    table = tables["conversion.csv"]
    assert len(table["epsilon"]) == 5
    for eps, rate, conversion in zip(table["epsilon"], table["sweep_rate"],
                                     table["conversion"]):
        target = 1.0 - math.exp(-math.pi * eps * eps / rate)
        assert abs(conversion - target) / target <= 0.02
    report(9, "slow pendulum sweep transfers >= 99% of the energy, the "
              "sudden jump under 5%; quantum sweeps track the crossing "
              "formula within 2% on five (gap, rate) pairs")


def test_criterion_10_rectangle_loop(scenario):
    rec, _, _ = scenario("rect-loop")
    assert qcore.circle_distance(rec["wilson_phase"], math.pi) < 1e-3
    assert rec["winding"] == 1
    assert rec["half_loop_square_deviation"] < 1e-2
    report(10, "rectangle around the degeneracy: loop phase pi within 1e-3 "
               "and the transported state returns to minus itself within "
               "1e-2 after dynamical-phase removal")


def test_criterion_11_celestial_shift(scenario):
    frozen, _, _ = scenario("celestial-frozen")
    assert frozen["kepler_error"] < 1e-8
    assert 5e-5 / 1.3 <= frozen["force_ratio"] <= 5e-5 * 1.3
    assert frozen["halving_ratio"] == pytest.approx(2.0, abs=0.04)
    res, _, _ = scenario("celestial-residual")
    assert abs(res["residual"]) / abs(res["dynamical_correction"]) <= 0.15
    report(11, "unperturbed clock recovers the Kepler period to 1e-8, the "
               "frozen-probe shift is first order in the perturber mass "
               "(halving test within 2%), and the leftover beyond the "
               "adiabatic prediction stays under 15% of the dynamical "
               "correction")


def test_criterion_12_reproducibility(tmp_path, capsys, scenario):
    code, digests = run_digests(cli, {"scenario": "scatter-phase"}, tmp_path)
    assert code == 0
    assert digests == scenario.digests("scatter-phase")

    assert abs(scenario("celestial-residual")[0]["control_residual"]) < 1e-8
    assert scenario("pendulum-msw")[0]["frozen_energy_drift"] < 1e-6
    assert scenario("scatter-wavepacket")[0]["norm_drift"] < 1e-8

    started = time.perf_counter()
    assert cli.main(["check"]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert elapsed < 60.0
    report(12, "reruns are byte-identical, every conservation suite holds "
               "(perturber-free orbit residual 1e-8, pendulum 1e-6, packet "
               f"norm 1e-8), and the smoke check passes in {elapsed:.1f}s "
               "(< 60s)")
