"""Named experiment catalog behind the command line runner.

Each scenario bundles a parameter schema (defaults plus units), a runner
that exercises the library modules, summary scalars, and the built-in
pass/fail checks the exit status reports.  Runners draw all randomness
from the seed they are handed and emit CSV tables through a callback, so
a fixed (config, seed) pair reproduces every output byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import abduality, analogs, berry, qcore, scattering, topology

TWO_PI = qcore.TWO_PI


@dataclass(frozen=True)
class Parameter:
    """One scenario knob: default value, unit label, coercion.

    ``parse`` runs on the coerced value before any computation and raises
    ValueError outside the parameter's domain, so such a value is a config
    error.  List parameters stay text, and the runner parses the same text
    with it; on scalars it is a bound check.
    """

    default: object
    units: str
    kind: Callable = float
    parse: Callable | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    parameters: dict
    runner: Callable


def _float_list(text: str) -> list[float]:
    """Comma-separated finite numbers."""
    items = [s.strip() for s in str(text).split(",") if s.strip()]
    if not items:
        raise ValueError("empty list parameter")
    values = [float(s) for s in items]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("list entries must be finite")
    return values


def _positive_list(text: str) -> list[float]:
    """Comma-separated numbers, each finite and positive."""
    values = _float_list(text)
    if min(values) <= 0.0:
        raise ValueError("list entries must be positive")
    return values


def _at_least(floor: int) -> Callable:
    """Bound check for a count that the library needs to be >= floor."""
    def check(value: int) -> int:
        if value < floor:
            raise ValueError(f"must be at least {floor}")
        return value
    return check


def _positive(value: float) -> float:
    """Bound check for a scale that must be finite and positive."""
    if not 0.0 < value < math.inf:
        raise ValueError("must be finite and positive")
    return value


def _pair_list(text: str) -> list[tuple[float, float]]:
    """Comma-separated a:b pairs of finite positive numbers."""
    pairs = []
    for item in str(text).split(","):
        item = item.strip()
        if not item:
            continue
        a, colon, b = item.partition(":")
        if not colon:
            raise ValueError(f"{item!r} is not an a:b pair")
        pair = (float(a), float(b))
        if not all(0.0 < v < math.inf for v in pair):
            raise ValueError(f"pair {item!r} must hold two finite positive numbers")
        pairs.append(pair)
    if not pairs:
        raise ValueError("empty pair-list parameter")
    return pairs


# ---------------------------------------------------------------------------
# spin-phase scenarios

def _run_berry_equator(p, seed, emit):
    period = TWO_PI / p["wobble"]
    dec = berry.cyclic_phase_decomposition(p["amplitude"], 0.5 * math.pi,
                                           period, p["step"])
    dirs = berry.latitude_directions(0.5 * math.pi, int(p["wilson_samples"]))
    wilson = berry.wilson_loop_phase(dirs)
    geo_dev = qcore.circle_distance(dec.geometric, math.pi)
    wil_dev = qcore.circle_distance(wilson, math.pi)
    results = {
        "geometric_phase": dec.geometric,
        "dynamical_phase": dec.dynamical,
        "overlap_modulus": dec.overlap_modulus,
        "wilson_phase": wilson,
        "geometric_deviation": geo_dev,
        "wilson_deviation": wil_dev,
    }
    checks = [
        ("dynamical geometric phase within 0.05 of pi", geo_dev <= 0.05),
        ("wilson phase within 1e-3 of pi", wil_dev <= 1e-3),
        ("evolution stayed cyclic", dec.overlap_modulus >= 0.99),
    ]
    return results, checks


def _run_berry_latitude(p, seed, emit):
    angles = _float_list(p["colatitudes_deg"])
    samples = int(p["samples"])
    rows = []
    for deg in angles:
        theta = math.radians(deg)
        wilson = berry.wilson_loop_phase(berry.latitude_directions(theta, samples))
        law = math.pi * (1.0 - math.cos(theta))
        rows.append((deg, wilson, law, qcore.circle_distance(wilson, law)))
    table = np.array(rows)
    emit("latitude.csv",
         [("colatitude", "degrees", table[:, 0]),
          ("wilson_phase", "radians", table[:, 1]),
          ("half_solid_angle", "radians", table[:, 2]),
          ("deviation", "radians", table[:, 3])])
    worst = float(table[:, 3].max())
    results = {"angle_count": len(angles), "max_deviation": worst}
    checks = [("every latitude matches pi(1 - cos theta) within 1e-3",
               worst <= 1e-3)]
    return results, checks


def _run_berry_wilson_sweep(p, seed, emit):
    amp, factor, wobble = p["amplitude"], p["factor"], p["wobble"]
    dirs = berry.latitude_directions(0.5 * math.pi, int(p["wilson_samples"]))
    wil_base = berry.wilson_loop_phase(amp * dirs)
    wil_scaled = berry.wilson_loop_phase(factor * amp * dirs)
    wil_diff = abs(wil_base - wil_scaled)

    period = TWO_PI / wobble
    geo_base = berry.cyclic_phase_decomposition(amp, 0.5 * math.pi, period,
                                                p["step"]).geometric
    geo_scaled = berry.cyclic_phase_decomposition(factor * amp, 0.5 * math.pi,
                                                  period, p["step"]).geometric
    geo_diff = qcore.circle_distance(geo_base, geo_scaled)
    bound = 2.0 * wobble / amp
    results = {
        "wilson_base": wil_base,
        "wilson_scaled": wil_scaled,
        "wilson_difference": wil_diff,
        "geometric_base": geo_base,
        "geometric_scaled": geo_scaled,
        "geometric_difference": geo_diff,
        "geometric_bound": bound,
    }
    checks = [
        ("wilson phase blind to field strength (1e-12)", wil_diff < 1e-12),
        ("dynamical geometric shift under the wobble bound", geo_diff < bound),
    ]
    return results, checks


# ---------------------------------------------------------------------------
# linking and topology scenarios

def _linking_catalog(samples: int):
    """Deterministic closed-curve pairs with known linking numbers."""
    circ = topology.Curve3D.circle
    z = (0.0, 0.0, 1.0)
    x = (1.0, 0.0, 0.0)
    hopf_a = circ((0.0, 0.0, 0.0), 1.0, z, samples)
    hopf_b = circ((1.0, 0.0, 0.0), 1.0, x, samples)
    far = circ((4.0, 0.0, 0.0), 1.0, z, samples)
    flat = circ((3.0, 0.0, 0.0), 1.0, z, samples)
    double = circ((1.0, 0.0, 0.0), 1.0, x, samples, turns=2)
    small = circ((1.0, 0.0, 0.0), 0.35, x, samples)
    tilted = hopf_b.transformed(rotation=_rotation_about_z(0.4))
    shifted = hopf_b.transformed(translation=(0.0, 0.05, 0.1))
    lk = topology.linking_number(hopf_a, hopf_b)
    return [
        ("separated rings", hopf_a, far, 0),
        ("coplanar rings", hopf_a, flat, 0),
        ("chain pair", hopf_a, hopf_b, lk),
        ("chain pair reversed", hopf_a, hopf_b.reversed(), -lk),
        ("both reversed", hopf_a.reversed(), hopf_b.reversed(), lk),
        ("double wind", hopf_a, double, 2 * lk),
        ("small threading ring", hopf_a, small, lk),
        ("tilted partner", hopf_a, tilted, lk),
        ("translated partner", hopf_a, shifted, lk),
        ("scaled chain", hopf_a.transformed(scale=3.0),
         hopf_b.transformed(scale=3.0), lk),
        ("swapped roles", hopf_b, hopf_a, lk),
    ]


def _rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _run_linking(p, seed, emit):
    samples = int(p["samples"])
    catalog = _linking_catalog(samples)
    rows, names, ok = [], [], True
    worst_residual = 0.0
    for name, a, b, expected in catalog:
        raw = topology.gauss_linking_sum(a, b)
        n = topology.linking_number(a, b)
        residual = abs(raw - round(raw))
        worst_residual = max(worst_residual, residual)
        ok = ok and (n == expected)
        names.append(name)
        rows.append((n, expected, raw, residual))
    table = np.array(rows, dtype=float)
    emit("linking.csv",
         [("pair", "name", np.array(names)),
          ("linking_number", "integer", table[:, 0]),
          ("expected", "integer", table[:, 1]),
          ("gauss_sum", "dimensionless", table[:, 2]),
          ("integer_residual", "dimensionless", table[:, 3])])
    results = {"pair_count": len(catalog),
               "max_integer_residual": worst_residual}
    checks = [
        ("every pair matches its known linking number", ok),
        ("gauss sums integer to 1e-9", worst_residual <= 1e-9),
    ]
    return results, checks


def _topo_cases(samples: int):
    """Probe loops around the degeneracy line of H = x sigma1 + y sigma3."""
    circ = topology.Curve3D.circle
    z = (0.0, 0.0, 1.0)
    around = circ((0.0, 0.0, 0.0), 1.0, z, samples)
    lifted = circ((0.0, 0.0, 2.0), 0.7, z, samples)
    outside = circ((3.0, 0.0, 0.0), 1.0, z, samples)
    tilt = around.transformed(rotation=_rotation_about_axis((1.0, 0.0, 0.0), 0.35))
    double = circ((0.0, 0.0, 0.0), 1.0, z, samples, turns=2)
    small_out = circ((0.0, 2.0, 1.0), 0.6, (0.0, 1.0, 0.0), samples)
    return [
        ("unit circle around the line", around, 1),
        ("lifted circle", lifted, 1),
        ("outside circle", outside, 0),
        ("tilted circle", tilt, 1),
        ("double wind", double, 2),
        ("side loop missing the line", small_out, 0),
        ("reversed around", around.reversed(), -1),
        ("scaled around", around.transformed(scale=2.5), 1),
        ("translated along the line", around.transformed(translation=(0, 0, -1.5)), 1),
        ("outside reversed", outside.reversed(), 0),
        ("far tilted miss", small_out.transformed(translation=(1.0, 1.0, 0.0)), 0),
    ]


def _rotation_about_axis(axis, angle: float) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _run_topo_phase(p, seed, emit):
    samples = int(p["samples"])
    h = topology.RealFieldHamiltonian(a1=lambda r: r[0], a3=lambda r: r[1])
    # the degeneracy set is the z axis; close it far from every probe
    span = p["line_span"]
    line = topology.Curve3D(np.array(
        [[0.0, 0.0, -span], [0.0, 0.0, span], [50.0, 0.0, span],
         [50.0, 50.0, span], [50.0, 50.0, -span], [50.0, 0.0, -span],
         [25.0, 0.0, -span], [0.0, 0.0, -span]]))
    rows, names, ok = [], [], True
    worst = 0.0
    for name, probe, winding in _topo_cases(samples):
        predicted = topology.topological_phase_predict(probe, line)
        measured = topology.real_field_loop_phase(h, probe)
        target = math.pi if winding % 2 else 0.0
        dev = min(qcore.circle_distance(measured, 0.0),
                  qcore.circle_distance(measured, math.pi))
        agree = (qcore.circle_distance(measured, target) <= p["tolerance"]
                 and qcore.circle_distance(predicted, target) <= 1e-12)
        ok = ok and agree
        worst = max(worst, dev)
        names.append(name)
        rows.append((winding, predicted, measured, target))
    table = np.array(rows, dtype=float)
    emit("interlock.csv",
         [("case", "name", np.array(names)),
          ("winding", "integer", table[:, 0]),
          ("predicted_phase", "radians", table[:, 1]),
          ("loop_phase", "radians", table[:, 2]),
          ("target", "radians", table[:, 3])])
    results = {"case_count": len(rows), "max_off_lattice": worst}
    checks = [
        ("loop phase is pi exactly when the winding is odd", ok),
        ("every phase sits on {0, pi} within tolerance", worst <= p["tolerance"]),
    ]
    return results, checks


# ---------------------------------------------------------------------------
# scattering scenarios

def _run_scatter_phase(p, seed, emit):
    pm, mass, length = p["p"], p["m"], p["X"]

    def phase(strength):
        cfg = scattering.ScatteringConfig(p=pm, m=mass, X=length,
                                          barrier=scattering.DeltaBarrier(strength))
        return scattering.reflection_phase(cfg)

    mirror_phase = phase(0.0)
    strong_phase = phase(p["gamma_max"])
    target = qcore.wrap_angle(math.pi - 2.0 * pm * length)
    strong_dev = qcore.circle_distance(strong_phase, target)

    gammas = np.concatenate([[0.0], np.geomspace(1e-3, p["gamma_max"],
                                                 int(p["points"]) - 1)])
    phases = np.array([phase(g) for g in gammas])
    unwrapped = np.unwrap(phases)
    emit("phase_sweep.csv",
         [("gamma", "energy*length", gammas),
          ("reflection_phase", "radians", phases),
          ("unwrapped", "radians", unwrapped)])
    results = {
        "mirror_phase": mirror_phase,
        "strong_phase": strong_phase,
        "strong_target": target,
        "strong_deviation": strong_dev,
    }
    checks = [
        ("transparent barrier reflects with phase pi", mirror_phase == math.pi),
        ("strong barrier adds the extra travel phase -2pX (1e-3)",
         strong_dev <= 1e-3),
    ]
    return results, checks


def _run_scatter_bounce(p, seed, emit):
    chain = scattering.BounceChain(epsilon=p["epsilon"], p=p["p"])
    exact = scattering.bounce_chain_expectation(chain)
    mc = scattering.bounce_chain_sample(chain, int(p["trials"]), seed)
    eps_grid = np.linspace(0.01, 0.9, 90)
    rows = [scattering.bounce_chain_expectation(
        scattering.BounceChain(epsilon=float(e), p=p["p"])) for e in eps_grid]
    emit("expectation.csv",
         [("epsilon", "probability", eps_grid),
          ("first_kick", "momentum", np.array([r.first_kick for r in rows])),
          ("trapped_contribution", "momentum",
           np.array([r.trapped_contribution for r in rows])),
          ("net_momentum", "momentum",
           np.array([r.net_momentum for r in rows])),
          ("trapped_dwell", "round_trips",
           np.array([r.trapped_dwell for r in rows]))])
    z_net = abs(mc.mean_net_momentum) / mc.net_standard_error
    z_dwell = abs(mc.mean_trapped_dwell - exact.trapped_dwell) / \
        mc.dwell_standard_error
    results = {
        "net_momentum": exact.net_momentum,
        "first_kick": exact.first_kick,
        "trapped_dwell": exact.trapped_dwell,
        "mc_net_momentum": mc.mean_net_momentum,
        "mc_net_z": z_net,
        "mc_dwell": mc.mean_trapped_dwell,
        "mc_dwell_z": z_dwell,
        "trials": mc.trials,
    }
    checks = [
        ("expected net momentum cancels exactly", exact.net_momentum == 0.0),
        ("monte carlo net momentum within 3 sigma of zero", z_net <= 3.0),
        ("monte carlo dwell matches (1-eps)/eps within 3 sigma", z_dwell <= 3.0),
    ]
    return results, checks


def _run_scatter_wavepacket(p, seed, emit):
    cfg = scattering.ScatteringConfig(
        p=p["p"], m=p["m"], X=p["X"],
        barrier=scattering.DeltaBarrier(p["strength"]))
    run = scattering.WavepacketRun(grid_points=int(p["grid_points"]),
                                   dt=p["dt"], length=p["length"],
                                   center=p["center"], width=p["width"],
                                   round_trips=int(p["round_trips"]))
    res = scattering.wavepacket_run(run, cfg)
    emit("timeseries.csv",
         [("time", "1/energy", res.times),
          ("survival", "probability", res.survival),
          ("barrier_momentum", "momentum", res.barrier_momentum),
          ("wall_momentum", "momentum", res.wall_momentum),
          ("packet_momentum", "momentum", res.packet_momentum),
          ("norm", "probability", res.norm)])
    two_p = 2.0 * p["p"]
    first_target = two_p * (1.0 - res.epsilon_packet)
    results = {
        "epsilon_plane": res.epsilon_plane,
        "epsilon_packet": res.epsilon_packet,
        "first_kick": res.first_kick,
        "first_kick_target": first_target,
        "long_kick": res.long_kick,
        "efold_roundtrips": res.efold_roundtrips,
        "ledger_residual": res.ledger_residual,
        "norm_drift": res.norm_drift,
    }
    checks = [
        ("momentum ledger closes to 1e-3 of 2p",
         res.ledger_residual <= 1e-3 * two_p),
        ("norm conserved to 1e-8", res.norm_drift <= 1e-8),
        ("first-encounter kick within 10% of 2p(1 - eps)",
         abs(res.first_kick - first_target) <= 0.1 * first_target),
        ("long-window kick below 5% of 2p",
         abs(res.long_kick) <= 0.05 * two_p),
        ("dwell e-folding within 20% of 1/eps",
         abs(res.efold_roundtrips * res.epsilon_packet - 1.0) <= 0.2),
        ("packet transmission tracks the plane-wave value within 10%",
         abs(res.epsilon_packet / res.epsilon_plane - 1.0) <= 0.1),
    ]
    return results, checks


# ---------------------------------------------------------------------------
# electric duality scenario

def _run_ab_electric(p, seed, emit):
    rng = np.random.default_rng(seed)
    count = int(p["count"])
    rows = []
    matches = 0
    min_ratio = math.inf
    max_phase = 0.0
    for _ in range(count):
        e, field, x = rng.uniform(0.5, 2.0, size=3)
        bound_fraction = rng.uniform(0.1, 1.0)
        t = bound_fraction * math.pi / (2.0 * e * field * x)
        s = abduality.CapacitorScenario(e=e, E=field, x=x, t=t)
        rep = abduality.duality_report(s)
        wp = abduality.which_path_ratio(s, localization=x * p["localization_fraction"])
        matches += rep.match
        min_ratio = min(min_ratio, wp.ratio)
        max_phase = max(max_phase, rep.probe_phase)
        rows.append((e, field, x, t, rep.probe_phase, wp.ratio))
    table = np.array(rows)
    emit("scenarios.csv",
         [("charge", "charge", table[:, 0]),
          ("field", "energy/(charge*length)", table[:, 1]),
          ("plate_separation", "length", table[:, 2]),
          ("pulse_time", "time", table[:, 3]),
          ("probe_phase", "radians", table[:, 4]),
          ("which_path_ratio", "dimensionless", table[:, 5])])
    vis_dev = abs(abduality.fringe_visibility(2.0, 0.5) -
                  math.exp(-0.5 * (2.0 * 0.5) ** 2))
    results = {
        "count": count,
        "exact_matches": matches,
        "min_which_path_ratio": min_ratio,
        "max_probe_phase": max_phase,
        "visibility_closed_form_deviation": vis_dev,
    }
    checks = [
        ("probe and system phases identical on every draw", matches == count),
        ("momentum bookkeeping beats localization whenever fringes survive",
         min_ratio > 1.0),
        ("all draws honored the phase bound", max_phase <= math.pi + 1e-12),
    ]
    return results, checks


# ---------------------------------------------------------------------------
# analog scenarios

def _run_pendulum_msw(p, seed, emit):
    kappa, delta_max = p["kappa"], p["delta_max"]
    l_mu, grav = p["l_mu"], p["g"]
    omega_mu = math.sqrt(grav / l_mu)
    eps = kappa / (2.0 * omega_mu)
    base_rate = 0.01 * eps * eps
    system, duration = analogs.msw_benchmark_system(
        kappa=kappa, delta_max=delta_max,
        crossing_rate=p["rate_scale"] * base_rate, l_mu=l_mu, g=grav)
    slow = analogs.pendulum_sweep(system, duration, rtol=p["rtol"])

    sudden_sys, _ = analogs.msw_benchmark_system(
        kappa=kappa, delta_max=delta_max, crossing_rate=base_rate,
        l_mu=l_mu, g=grav)
    sudden = analogs.pendulum_sweep(sudden_sys, 0.0)

    multipliers = _positive_list(p["ladder_multipliers"])
    fractions = []
    for mult in multipliers:
        sys_m, dur_m = analogs.msw_benchmark_system(
            kappa=kappa, delta_max=delta_max, crossing_rate=mult * base_rate,
            l_mu=l_mu, g=grav)
        fractions.append(analogs.pendulum_sweep(sys_m, dur_m).fraction)
    emit("rate_ladder.csv",
         [("rate_multiplier", "dimensionless", np.array(multipliers)),
          ("crossing_rate", "1/time^2",
           np.array(multipliers) * base_rate),
          ("transfer_fraction", "probability", np.array(fractions))])
    monotone = all(a < b for a, b in zip(fractions, fractions[1:]))

    # conservation control: same pendulums, lengths pinned at the start
    frozen_sys = analogs.PendulumSystem(
        length_schedule=analogs.FrozenLength(
            system.length_schedule.value(0.0)),
        l_mu=l_mu, kappa=kappa, g=grav)
    frozen = analogs.pendulum_sweep(frozen_sys, p["conservation_time"],
                                    rtol=p["rtol"])
    results = {
        "transfer_fraction": slow.fraction,
        "sweep_duration": duration,
        "sudden_fraction": sudden.fraction,
        "frozen_energy_drift": frozen.energy_drift,
        "weak_coupling_ratio": slow.weak_coupling_ratio,
        "adiabaticity": eps,
    }
    checks = [
        ("slow sweep converts at least 99% of the energy",
         slow.fraction >= 0.99),
        ("sudden change converts at most 5%", sudden.fraction <= 0.05),
        ("transfer climbs monotonically as the sweep slows", monotone),
        ("frozen-length energy drift below 1e-6",
         frozen.energy_drift < 1e-6),
    ]
    return results, checks


def _run_two_level_sweep(p, seed, emit):
    pairs = _pair_list(p["pairs"])
    rows = []
    worst = 0.0
    for eps, rate in pairs:
        sweep = analogs.linear_two_level_sweep(eps, rate,
                                               span_factor=p["span_factor"])
        rep = analogs.two_level_sweep(sweep, step_scale=p["step_scale"])
        rel = abs(rep.conversion - rep.lz_conversion) / rep.lz_conversion
        worst = max(worst, rel)
        rows.append((eps, rate, rep.conversion, rep.lz_conversion, rel))
    table = np.array(rows)
    emit("conversion.csv",
         [("epsilon", "energy", table[:, 0]),
          ("sweep_rate", "energy^2", table[:, 1]),
          ("conversion", "probability", table[:, 2]),
          ("landau_zener", "probability", table[:, 3]),
          ("relative_deviation", "dimensionless", table[:, 4])])

    crossing = analogs.linear_two_level_sweep(0.0, pairs[0][1],
                                              span_factor=p["span_factor"])
    closed_gap = analogs.two_level_sweep(crossing, step_scale=p["step_scale"])
    results = {
        "pair_count": len(pairs),
        "worst_relative_deviation": worst,
        "closed_gap_conversion": closed_gap.conversion,
    }
    checks = [
        ("conversion matches Landau-Zener within 2% on every pair",
         worst <= 0.02),
        ("closed gap converts nothing", closed_gap.conversion <= 1e-12),
    ]
    return results, checks


def _run_rect_loop(p, seed, emit):
    loop = analogs.rectangular_loop_phase(
        p["epsilon0"], p["delta0"], samples=int(p["samples"]),
        adiabaticity=p["adiabaticity"], transport_step=p["transport_step"])
    shift = 3.0 * p["delta0"]
    moved = analogs.rectangular_loop_phase(
        p["epsilon0"], p["delta0"], samples=int(p["samples"]),
        center=(shift, 0.0), adiabaticity=p["adiabaticity"],
        transport_step=p["transport_step"])

    times, deltas, epsilons = analogs._warped_rectangle(
        p["delta0"], p["epsilon0"], (0.0, 0.0), p["adiabaticity"])
    stride = max(1, len(times) // 2000)
    emit("transport_path.csv",
         [("time", "1/energy", times[::stride]),
          ("delta", "energy", deltas[::stride]),
          ("epsilon", "energy", epsilons[::stride])])
    results = {
        "wilson_phase": loop.wilson_phase,
        "winding": loop.winding,
        "half_loop_geometric": loop.half_loop_geometric,
        "half_loop_square_deviation": loop.half_loop_square_deviation,
        "transport_duration": loop.transport_duration,
        "shifted_wilson_phase": moved.wilson_phase,
        "shifted_winding": moved.winding,
        "shifted_square_deviation": moved.half_loop_square_deviation,
    }
    checks = [
        ("wilson phase is pi around the enclosing rectangle",
         qcore.circle_distance(loop.wilson_phase, math.pi) <= 1e-3),
        ("composed half-sweeps square to minus the identity (1e-2)",
         loop.half_loop_square_deviation <= 1e-2),
        ("shifted rectangle carries no phase",
         qcore.circle_distance(moved.wilson_phase, 0.0) <= 1e-3
         and moved.winding == 0),
        ("windings read 1 and 0", loop.winding == 1),
    ]
    return results, checks


def _run_celestial_frozen(p, seed, emit):
    cfg = analogs.CelestialConfig(m_jupiter=p["m_jupiter"],
                                  r_jupiter=p["r_jupiter"],
                                  eccentricity=p["eccentricity"])
    kep = analogs.kepler_period(cfg)
    free = analogs.CelestialConfig(m_jupiter=0.0, r_jupiter=p["r_jupiter"],
                                   eccentricity=p["eccentricity"])
    kepler_err = abs(analogs.celestial_frozen_period(free, 0.0, rtol=p["rtol"])
                     - kep)

    phis, periods = analogs.frozen_period_grid(
        cfg, nodes=int(p["nodes"]), rtol=p["rtol"], orbits=p["orbits"])
    shifts = (periods - kep) / kep
    emit("frozen_grid.csv",
         [("perturber_angle", "radians", phis),
          ("radial_period", "time", periods),
          ("fractional_shift", "dimensionless", shifts)])

    asym = float(np.abs(shifts[1:] - shifts[:0:-1]).max())
    half_cfg = analogs.CelestialConfig(m_jupiter=0.5 * p["m_jupiter"],
                                       r_jupiter=p["r_jupiter"],
                                       eccentricity=p["eccentricity"])
    s_full = float(periods[0]) - kep
    s_half = analogs.celestial_frozen_period(half_cfg, 0.0, rtol=p["rtol"],
                                             orbits=p["orbits"]) - kep
    halving = s_full / s_half
    ratio = analogs.force_ratio(cfg)
    results = {
        "kepler_error": kepler_err,
        "force_ratio": ratio,
        "shift_min": float(shifts.min()),
        "shift_max": float(shifts.max()),
        "reflection_asymmetry": asym,
        "halving_ratio": halving,
    }
    checks = [
        ("unperturbed period is the Kepler value (1e-8)", kepler_err <= 1e-8),
        ("closest-approach force ratio lands near 5e-5",
         5e-5 / 1.3 <= ratio <= 5e-5 * 1.3),
        ("shift profile even across the sun-planet line", asym <= 1e-10),
        ("halving the perturber mass halves the shift (2%)",
         abs(halving / 2.0 - 1.0) <= 0.02),
    ]
    return results, checks


def _run_celestial_residual(p, seed, emit):
    cfg = analogs.CelestialConfig(m_jupiter=p["m_jupiter"],
                                  r_jupiter=p["r_jupiter"],
                                  eccentricity=p["eccentricity"])
    res = analogs.celestial_adiabatic_residual(
        cfg, n_periods=p["n_periods"], phi0=p["phi0"], nodes=int(p["nodes"]),
        rtol=p["rtol"])
    free = analogs.CelestialConfig(m_jupiter=0.0, r_jupiter=p["r_jupiter"],
                                   eccentricity=p["eccentricity"])
    control = analogs.celestial_adiabatic_residual(
        free, n_periods=p["n_periods"], nodes=int(p["nodes"]),
        rtol=p["rtol"], check_convergence=False)
    ratio = abs(res.residual) / abs(res.dynamical_correction)
    results = {
        "residual": res.residual,
        "dynamical_correction": res.dynamical_correction,
        "residual_over_dynamical": ratio,
        "per_cycle_residual": res.per_cycle_residual,
        "perihelion_count": res.perihelion_count,
        "convergence_gap": res.convergence_gap,
        "control_residual": control.residual,
    }
    checks = [
        ("geometric leftover well below the frozen-field correction",
         ratio <= 0.15),
        ("residual vanishes without the perturber",
         abs(control.residual) <= 1e-8),
        ("residual stable under tolerance refinement",
         res.convergence_gap is not None and res.convergence_gap <= 1e-4),
    ]
    return results, checks


def _run_monopole_angmom(p, seed, emit):
    seps = _positive_list(p["separations"])
    rows = []
    for sep in seps:
        fam = berry.field_angular_momentum(p["charge"], p["pole_strength"],
                                           sep, p["excision_scale"])
        rows.append((sep, fam.component, fam.coefficient,
                     fam.refinement_difference))
    table = np.array(rows)
    emit("field_momentum.csv",
         [("separation", "length", table[:, 0]),
          ("l_z", "hbar", table[:, 1]),
          ("coefficient", "dimensionless", table[:, 2]),
          ("refinement_difference", "hbar", table[:, 3])])
    coeffs = table[:, 2]
    worst = float(np.abs(coeffs - 1.0).max())
    spread = float(coeffs.max() - coeffs.min())
    half = berry.field_angular_momentum(p["charge"], 0.5 * p["pole_strength"],
                                        seps[0], p["excision_scale"])
    results = {
        "separation_count": len(seps),
        "worst_coefficient_error": worst,
        "separation_spread": spread,
        "half_pole_component": half.component,
    }
    checks = [
        ("field stores one unit of charge*pole along the axis (1e-6)",
         worst <= 1e-6),
        ("answer independent of separation (1e-6)", spread <= 1e-6),
        ("component scales linearly with the pole strength",
         abs(half.component - 0.5 * p["charge"] * p["pole_strength"]
             * coeffs[0]) <= 1e-6),
    ]
    return results, checks


# ---------------------------------------------------------------------------
# catalog

def _scenario_table() -> dict:
    f, i, s = float, int, str
    table = [
        Scenario(
            "berry-equator",
            "Sweep a spin around the equator slowly and split off the "
            "geometric half-sphere phase; cross-check with the Wilson loop.",
            {"amplitude": Parameter(1.0, "energy", f),
             "wobble": Parameter(0.005, "1/time", f),
             "step": Parameter(0.02, "time", f),
             "wilson_samples": Parameter(800, "count", i, _at_least(3))},
            _run_berry_equator),
        Scenario(
            "berry-latitude",
            "Wilson-loop phases on latitude circles against the half "
            "solid-angle law pi(1 - cos theta).",
            {"colatitudes_deg": Parameter("30,60,90,120", "degrees", s,
                                          _float_list),
             "samples": Parameter(800, "count", i, _at_least(3))},
            _run_berry_latitude),
        Scenario(
            "berry-wilson-sweep",
            "Scale the field strength and confirm the loop phase does not "
            "move while the dynamical run shifts only at the wobble level.",
            {"amplitude": Parameter(1.0, "energy", f),
             "factor": Parameter(5.0, "dimensionless", f),
             "wobble": Parameter(0.005, "1/time", f),
             "step": Parameter(0.02, "time", f),
             "wilson_samples": Parameter(800, "count", i, _at_least(3))},
            _run_berry_wilson_sweep),
        Scenario(
            "linking",
            "Gauss linking numbers for a catalog of closed curve pairs: "
            "chains, reversals, double winds, scalings.",
            {"samples": Parameter(200, "count", i)},
            _run_linking),
        Scenario(
            "topo-phase",
            "Loop phases of a real two-level field against the parity of "
            "the winding around its degeneracy line.",
            {"samples": Parameter(200, "count", i),
             "line_span": Parameter(30.0, "length", f),
             "tolerance": Parameter(1e-2, "radians", f)},
            _run_topo_phase),
        Scenario(
            "scatter-phase",
            "Reflection phase of the mirror-plus-barrier channel from the "
            "transparent limit to the opaque extra-travel limit.",
            {"p": Parameter(1.0, "momentum", f),
             "m": Parameter(1.0, "mass", f),
             "X": Parameter(2.0, "length", f),
             "gamma_max": Parameter(1e6, "energy*length", f),
             "points": Parameter(33, "count", i)},
            _run_scatter_phase),
        Scenario(
            "scatter-bounce",
            "Reflect/tunnel bounce chain: the trapped branch exactly "
            "cancels the first kick; Monte Carlo agrees with closed form.",
            {"epsilon": Parameter(0.1, "probability", f),
             "p": Parameter(1.0, "momentum", f),
             "trials": Parameter(200000, "count", i)},
            _run_scatter_bounce),
        Scenario(
            "scatter-wavepacket",
            "Crank-Nicolson wavepacket in the closed channel: momentum "
            "ledger, first-encounter kick, trapping decay.",
            {"p": Parameter(1.5, "momentum", f),
             "m": Parameter(1.0, "mass", f),
             "X": Parameter(20.0, "length", f),
             "strength": Parameter(3.0, "energy*length", f),
             "grid_points": Parameter(8192, "count", i),
             "dt": Parameter(0.01, "1/energy", f),
             "length": Parameter(1000.0, "length", f),
             "center": Parameter(35.0, "length", f),
             "width": Parameter(2.5, "length", f),
             "round_trips": Parameter(16, "count", i)},
            _run_scatter_wavepacket),
        Scenario(
            "ab-electric",
            "Capacitor pulse duality: probe phase equals the two-plate "
            "momentum phase identically; which-path bookkeeping ratios.",
            {"count": Parameter(1000, "count", i),
             "localization_fraction": Parameter(0.25, "dimensionless", f)},
            _run_ab_electric),
        Scenario(
            "pendulum-msw",
            "Spring-coupled pendulums with a slowly shortening arm: "
            "resonance-crossing energy transfer and its rate ladder.",
            {"kappa": Parameter(0.025, "1/time^2", f),
             "delta_max": Parameter(0.34, "1/time", f),
             "rate_scale": Parameter(1.0, "dimensionless", f),
             "l_mu": Parameter(1.0, "length", f),
             "g": Parameter(1.0, "length/time^2", f),
             "rtol": Parameter(1e-10, "dimensionless", f),
             "conservation_time": Parameter(200.0, "time", f),
             "ladder_multipliers": Parameter("2816,906,453,249,137",
                                             "dimensionless", s,
                                             _positive_list)},
            _run_pendulum_msw),
        Scenario(
            "two-level-sweep",
            "Linear sweep through an avoided crossing against the "
            "Landau-Zener conversion formula.",
            {"pairs": Parameter("0.5:1.0,0.4:0.8,0.4:0.4,0.3:0.5,0.75:0.8",
                                "energy:energy^2", s, _pair_list),
             "span_factor": Parameter(14.0, "dimensionless", f),
             "step_scale": Parameter(0.04, "dimensionless", f, _positive)},
            _run_two_level_sweep),
        Scenario(
            "rect-loop",
            "Rectangular detuning-coupling circuit: Wilson phase pi when "
            "the crossing is enclosed, and the transported half-sweep "
            "squares to minus the identity.",
            {"delta0": Parameter(10.0, "energy", f),
             "epsilon0": Parameter(0.5, "energy", f),
             "samples": Parameter(2000, "count", i, _at_least(8)),
             "adiabaticity": Parameter(1e-3, "dimensionless", f),
             "transport_step": Parameter(0.01, "1/energy", f)},
            _run_rect_loop),
        Scenario(
            "celestial-frozen",
            "Radial period of a planet with the outer perturber frozen at "
            "each angle: shift profile, symmetry, mass linearity.",
            {"m_jupiter": Parameter(1e-3, "m_sun", f),
             "r_jupiter": Parameter(5.2, "r_earth", f),
             "eccentricity": Parameter(0.05, "dimensionless", f),
             "nodes": Parameter(32, "count", i),
             "orbits": Parameter(8.5, "orbits", f),
             "rtol": Parameter(1e-12, "dimensionless", f)},
            _run_celestial_frozen),
        Scenario(
            "celestial-residual",
            "Full moving-perturber orbit phase minus the frozen-probe "
            "adiabatic prediction: the geometric leftover per cycle.",
            {"m_jupiter": Parameter(1e-3, "m_sun", f),
             "r_jupiter": Parameter(5.2, "r_earth", f),
             "eccentricity": Parameter(0.05, "dimensionless", f),
             "n_periods": Parameter(1.0, "perturber_cycles", f),
             "phi0": Parameter(0.0, "radians", f),
             "nodes": Parameter(32, "count", i),
             "rtol": Parameter(1e-12, "dimensionless", f)},
            _run_celestial_residual),
        Scenario(
            "monopole-angmom",
            "Field angular momentum of a charge and a magnetic pole: one "
            "unit of charge*pole regardless of separation.",
            {"charge": Parameter(1.0, "charge", f),
             "pole_strength": Parameter(1.0, "pole", f),
             "separations": Parameter("0.7,1.0,2.5", "length", s,
                                      _positive_list),
             "excision_scale": Parameter(0.01, "dimensionless", f)},
            _run_monopole_angmom),
    ]
    return {sc.name: sc for sc in table}


SCENARIOS = _scenario_table()

# fast subset exercised by the `check` subcommand
CHECK_SCENARIOS = ("berry-equator", "topo-phase", "scatter-phase",
                   "scatter-bounce", "ab-electric", "rect-loop")
