"""Named experiment catalog behind the command line runner.

Each scenario bundles a parameter schema (defaults plus units), a
``prepare`` step that builds its library inputs before any computation, and
a runner that exercises the library modules on them and returns summary
scalars and the built-in pass/fail checks the exit status reports.  Runners
draw all randomness from the seed they are handed and emit CSV tables
through a callback, so a fixed (config, seed) pair reproduces every output
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import abduality, analogs, berry, qcore, scattering, topology

TWO_PI = qcore.TWO_PI

# Method settings the catalog passes to the library, fixed so the catalog
# exposes physical inputs only.  The library's own method settings, such as
# integrator tolerances and sample counts, are module constants beside the
# code that reads them.  A convergence study patches either.
SPIN_STEP = 0.02            # time step of the dynamical spin sweeps
WILSON_SAMPLES = 800        # directions per Wilson loop
CURVE_SAMPLES = 200         # vertices per closed probe or partner curve
LINE_SPAN = 30.0            # half-height of the closed degeneracy line
LOOP_PHASE_TOLERANCE = 1e-2  # radians from the {0, pi} lattice
PHASE_SWEEP_POINTS = 33     # barrier strengths in the reflection sweep
BOUNCE_TRIALS = 200_000     # Monte Carlo bounce chains
WAVEPACKET_DT = 0.01        # Crank-Nicolson time step
DUALITY_DRAWS = 1000        # random capacitor settings
CONSERVATION_TIME = 200.0   # frozen-length pendulum control run

# Work caps: a prepare that predicts more of a unit than its cap is given
# rejects the config.  Costs per unit measured on a 2-vCPU machine.
WORK_CAPS = {
    "propagator steps": 1e7,            # 0.14-0.18 us each, about 1.6 s
    "Magnus steps": 1e7,                # before any doubling; 1.1-1.9 us, 15 s
    "cell updates": 1e10,               # Crank-Nicolson; 26 ns, 4 minutes
    "Wilson samples": 1e7,              # 0.56 us each, about 6 s
    "angular-momentum integrals": 2e4,  # two a separation; 0.024 ms, 0.5 s
    "orbit periods": 1e3,               # moving perturber; 3-5 ms, 5 s
    "bytes": 1e9,                       # a memory ceiling, not a time
}


class Parameter(NamedTuple):
    """One scenario knob: default value, unit label, coercion."""

    default: object
    units: str
    kind: Callable = float


@dataclass(frozen=True)
class Scenario:
    """``prepare(params) -> inputs`` raises outside the domain of the library
    objects it builds; ``runner(inputs, seed, emit)`` -> (results, checks)."""

    name: str
    description: str
    parameters: dict
    runner: Callable
    prepare: Callable = lambda params: params


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


def _check_work(unit: str, amount) -> None:
    """Raise ValueError when a run needs more of unit than WORK_CAPS allows
    (an infinite or undefined amount included)."""
    if not amount <= WORK_CAPS[unit]:
        bound = "ceiling" if unit == "bytes" else "cap"
        raise ValueError(f"the run needs {amount:.3g} {unit}, above the "
                         f"{bound} of {WORK_CAPS[unit]:.0e}")


def _steps(duration: float, step: float):
    """qcore's step count over duration, inf where it overflows."""
    return (qcore._step_count(duration, step)[0]
            if duration / step < math.inf else math.inf)


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

def _prepare_berry_sweep(p):
    """The params and the sweep period 2 pi / wobble; amplitude, wobble and
    (where the scenario has it) factor must be positive."""
    for name in ("amplitude", "wobble", "factor"):
        if name in p and not p[name] > 0.0:
            raise ValueError(f"{name} must be positive, got {p[name]!r}")
    period = TWO_PI / p["wobble"]
    runs = 2 if "factor" in p else 1  # berry-wilson-sweep sweeps twice
    _check_work("propagator steps", runs * _steps(period, SPIN_STEP))
    return dict(p, period=period)


def _prepare_berry_latitude(p):
    angles = _float_list(p["colatitudes_deg"])
    _check_work("Wilson samples", len(angles) * WILSON_SAMPLES)
    return angles


def _run_berry_equator(p, seed, emit):
    dec = berry.cyclic_phase_decomposition(p["amplitude"], 0.5 * math.pi,
                                           p["period"], SPIN_STEP)
    dirs = berry.latitude_directions(0.5 * math.pi, WILSON_SAMPLES)
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
        "sigma3_mean": dec.sigma3_mean,
    }
    # leading slow-sweep tilt of the dressed axis out of the equator
    ratio = p["wobble"] / p["amplitude"]
    checks = [
        ("dynamical geometric phase within 0.05 of pi", geo_dev <= 0.05),
        ("wilson phase within 1e-3 of pi", wil_dev <= 1e-3),
        ("evolution stayed cyclic", dec.overlap_modulus >= 0.99),
        ("mean sigma3 within 2(w/A)^2 of the rotating-frame tilt w/2A",
         abs(dec.sigma3_mean - 0.5 * ratio) < 2.0 * ratio * ratio),
    ]
    return results, checks


def _run_berry_latitude(angles, seed, emit):
    rows = []
    bargmann = 0.0
    for deg in angles:
        theta = math.radians(deg)
        dirs = berry.latitude_directions(theta, WILSON_SAMPLES)
        wilson = berry.wilson_loop_phase(dirs)
        # the Bargmann identity: exact on the sampled polygon itself
        bargmann = max(bargmann, qcore.circle_distance(
            wilson, 0.5 * berry.solid_angle(dirs)))
        law = math.pi * (1.0 - math.cos(theta))
        rows.append((deg, wilson, law, qcore.circle_distance(wilson, law)))
    table = np.array(rows)
    emit("latitude.csv",
         [("colatitude", "degrees", table[:, 0]),
          ("wilson_phase", "radians", table[:, 1]),
          ("half_solid_angle", "radians", table[:, 2]),
          ("deviation", "radians", table[:, 3])])
    worst = float(table[:, 3].max())
    results = {"angle_count": len(angles), "max_deviation": worst,
               "max_polygon_deviation": bargmann}
    checks = [("every latitude matches pi(1 - cos theta) within 1e-3",
               worst <= 1e-3),
              ("wilson phase equals half the polygon solid angle (1e-12)",
               bargmann <= 1e-12)]
    return results, checks


def _run_berry_wilson_sweep(p, seed, emit):
    amp, factor, period = p["amplitude"], p["factor"], p["period"]
    dirs = berry.latitude_directions(0.5 * math.pi, WILSON_SAMPLES)
    wil_base = berry.wilson_loop_phase(amp * dirs)
    wil_scaled = berry.wilson_loop_phase(factor * amp * dirs)
    wil_diff = qcore.circle_distance(wil_base, wil_scaled)

    geo_base = berry.cyclic_phase_decomposition(amp, 0.5 * math.pi, period,
                                                SPIN_STEP).geometric
    geo_scaled = berry.cyclic_phase_decomposition(factor * amp, 0.5 * math.pi,
                                                  period, SPIN_STEP).geometric
    geo_diff = qcore.circle_distance(geo_base, geo_scaled)
    bound = 2.0 * p["wobble"] / amp
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
    y = (0.0, 1.0, 0.0)
    # hopf_b lies in the plane y = 0 and threads hopf_a through its centre
    hopf_a = circ((0.0, 0.0, 0.0), 1.0, z, samples)
    hopf_b = circ((1.0, 0.0, 0.0), 1.0, y, samples)
    far = circ((4.0, 0.0, 0.0), 1.0, z, samples)
    flat = circ((3.0, 0.0, 0.0), 1.0, z, samples)
    double = circ((1.0, 0.0, 0.0), 1.0, y, samples, turns=2)
    small = circ((1.0, 0.0, 0.0), 0.35, y, samples)
    tilted = hopf_b.transformed(rotation=_rotation_about_axis(z, 0.4))
    shifted = hopf_b.transformed(translation=(0.0, 0.05, 0.1))
    return [
        ("separated rings", hopf_a, far, 0),
        ("coplanar rings", hopf_a, flat, 0),
        ("chain pair", hopf_a, hopf_b, 1),
        ("chain pair reversed", hopf_a, hopf_b.reversed(), -1),
        ("both reversed", hopf_a.reversed(), hopf_b.reversed(), 1),
        ("double wind", hopf_a, double, 2),
        ("small threading ring", hopf_a, small, 1),
        ("tilted partner", hopf_a, tilted, 1),
        ("translated partner", hopf_a, shifted, 1),
        ("scaled chain", hopf_a.transformed(scale=3.0),
         hopf_b.transformed(scale=3.0), 1),
        ("swapped roles", hopf_b, hopf_a, 1),
    ]


def _run_linking(p, seed, emit):
    catalog = _linking_catalog(CURVE_SAMPLES)
    rows = []
    for _, a, b, expected in catalog:
        raw = topology.gauss_linking_sum(a, b)
        rows.append((topology.integer_linking(raw), expected, raw,
                     abs(raw - round(raw))))
    table = np.array(rows, dtype=float)
    worst_residual = float(table[:, 3].max())
    emit("linking.csv",
         [("pair", "name", np.array([entry[0] for entry in catalog])),
          ("linking_number", "integer", table[:, 0]),
          ("expected", "integer", table[:, 1]),
          ("gauss_sum", "dimensionless", table[:, 2]),
          ("integer_residual", "dimensionless", table[:, 3])])
    results = {"pair_count": len(catalog),
               "max_integer_residual": worst_residual}
    checks = [
        ("every pair matches its known linking number",
         bool(np.all(table[:, 0] == table[:, 1]))),
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
    h = topology.RealFieldHamiltonian(a1=lambda r: r[0], a3=lambda r: r[1])
    # the degeneracy set is the z axis; close it far from every probe
    span = LINE_SPAN
    line = topology.Curve3D(np.array(
        [[0.0, 0.0, -span], [0.0, 0.0, span], [50.0, 0.0, span],
         [50.0, 50.0, span], [50.0, 50.0, -span], [50.0, 0.0, -span],
         [25.0, 0.0, -span], [0.0, 0.0, -span]]))
    rows, names, ok = [], [], True
    worst = 0.0
    for name, probe, winding in _topo_cases(CURVE_SAMPLES):
        predicted = topology.topological_phase_predict(probe, line)
        measured = topology.real_field_loop_phase(h, probe)
        target = math.pi if winding % 2 else 0.0
        dev = min(qcore.circle_distance(measured, 0.0),
                  qcore.circle_distance(measured, math.pi))
        agree = (qcore.circle_distance(measured, target)
                 <= LOOP_PHASE_TOLERANCE
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
        ("every phase sits on {0, pi} within tolerance",
         worst <= LOOP_PHASE_TOLERANCE),
    ]
    return results, checks


# ---------------------------------------------------------------------------
# scattering scenarios

def _prepare_scatter_phase(p):
    cfg = scattering.ScatteringConfig(
        p=p["p"], m=p["m"], X=p["X"], strength=p["gamma_max"])
    gammas = np.concatenate([[0.0], np.geomspace(1e-3, p["gamma_max"],
                                                 PHASE_SWEEP_POINTS - 1)])
    return cfg, gammas


def _run_scatter_phase(inputs, seed, emit):
    cfg, gammas = inputs
    phases = np.array([scattering.reflection_phase(replace(
        cfg, strength=g)) for g in gammas])
    # the sweep runs from the bare mirror to the barrier at gamma_max
    mirror_phase, strong_phase = float(phases[0]), float(phases[-1])
    target = qcore.wrap_angle(math.pi - 2.0 * cfg.p * cfg.X)
    strong_dev = qcore.circle_distance(strong_phase, target)
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


def _bounce_sample_checks(chain, mc):
    """scatter-bounce's Monte Carlo checks: each deviation of the stratified
    sample within the bound bounce_chain_sample derives for it, which holds
    for every seed.  The net check also needs n eps >= 1, the condition
    under which every shift traps a chain: below it the count bound
    2p/(n eps) exceeds a chain's kick, the dwell checks pass or fail with
    the seed, and the net check fails for every seed."""
    return [
        ("monte carlo net momentum within its bound of zero, n eps >= 1",
         abs(mc.net_deviation) <= mc.net_bound
         and mc.trials * chain.epsilon >= 1.0),
        ("monte carlo dwell within its bound of (1-eps)/eps",
         abs(mc.dwell_deviation) <= mc.dwell_bound),
        ("monte carlo dwell second moment within its bound of "
         "(1-eps)(2-eps)/eps^2",
         abs(mc.dwell_square_deviation) <= mc.dwell_square_bound),
    ]


def _run_scatter_bounce(chain, seed, emit):
    exact = scattering.bounce_chain_expectation(chain)
    mc = scattering.bounce_chain_sample(chain, BOUNCE_TRIALS, seed)
    eps_grid = np.linspace(0.01, 0.9, 90)
    rows = [scattering.bounce_chain_expectation(
        replace(chain, epsilon=float(e))) for e in eps_grid]
    emit("expectation.csv",
         [("epsilon", "probability", eps_grid),
          ("first_kick", "momentum", np.array([r.first_kick for r in rows])),
          ("trapped_contribution", "momentum",
           np.array([r.trapped_contribution for r in rows])),
          ("net_momentum", "momentum",
           np.array([r.net_momentum for r in rows])),
          ("trapped_dwell", "round_trips",
           np.array([r.trapped_dwell for r in rows]))])
    results = {
        "net_momentum": exact.net_momentum,
        "first_kick": exact.first_kick,
        "trapped_dwell": exact.trapped_dwell,
        "trapped_dwell_square": exact.trapped_dwell_square,
        "trials": mc.trials,
        "mc_trapped": mc.trapped,
        "mc_shift": mc.shift,
        "mc_net_momentum": mc.net_deviation,
        "mc_net_bound": mc.net_bound,
        "mc_dwell_deviation": mc.dwell_deviation,
        "mc_dwell_bound": mc.dwell_bound,
        "mc_dwell_square_deviation": mc.dwell_square_deviation,
        "mc_dwell_square_bound": mc.dwell_square_bound,
    }
    checks = [("expected net momentum cancels exactly",
               exact.net_momentum == 0.0)] + _bounce_sample_checks(chain, mc)
    return results, checks


def _prepare_scatter_wavepacket(p):
    cfg = scattering.ScatteringConfig(
        p=p["p"], m=p["m"], X=p["X"], strength=p["strength"])
    run = scattering.WavepacketRun(grid_points=p["grid_points"],
                                   dt=WAVEPACKET_DT, length=p["length"],
                                   center=p["center"], width=p["width"],
                                   round_trips=p["round_trips"])
    scattering.wavepacket_barrier_cell(run, cfg)  # the grid holds the run
    steps = scattering.wavepacket_schedule(run, cfg)[2]
    _check_work("cell updates", run.grid_points * steps)
    # 200 bytes a grid point (tracemalloc peaks at 196), 8 a step (the
    # times); the series streams out in blocks of a fixed size
    _check_work("bytes", 200 * run.grid_points + 8 * (steps + 1))
    return cfg, run


_TIMESERIES_COLUMNS = (("time", "1/energy"), ("survival", "probability"),
                       ("barrier_momentum", "momentum"),
                       ("wall_momentum", "momentum"),
                       ("packet_momentum", "momentum"),
                       ("norm", "probability"))


def _run_scatter_wavepacket(inputs, seed, emit):
    cfg, run = inputs

    def rows(block):
        emit("timeseries.csv", [(name, units, values) for (name, units), values
                                in zip(_TIMESERIES_COLUMNS, block)])

    res = scattering.wavepacket_run(run, cfg, rows)
    two_p = 2.0 * cfg.p
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

def _prepare_ab_electric(p):
    if not p["localization_fraction"] > 0.0:
        raise ValueError("localization_fraction must be positive, got "
                         f"{p['localization_fraction']!r}")
    return p


def _run_ab_electric(p, seed, emit):
    rng = np.random.default_rng(seed)
    # per draw: charge, field and separation in [0.5, 2), then the share of
    # the phase bound pi in [0.1, 1)
    draws = rng.uniform([0.5] * 3 + [0.1], [2.0] * 3 + [1.0],
                        size=(DUALITY_DRAWS, 4))
    e, field, x, bound_fraction = draws.T
    t = bound_fraction * math.pi / (2.0 * e * field * x)
    s = abduality.CapacitorScenario(e=e, E=field, x=x, t=t)
    rep = abduality.duality_report(s)
    ratio = abduality.which_path_ratio(s, x * p["localization_fraction"])
    matches = int(np.count_nonzero(rep.match))
    min_ratio = float(ratio.min())
    max_phase = float(rep.probe_phase.max())
    emit("scenarios.csv",
         [("charge", "charge", e),
          ("field", "energy/(charge*length)", field),
          ("plate_separation", "length", x),
          ("pulse_time", "time", t),
          ("probe_phase", "radians", rep.probe_phase),
          ("which_path_ratio", "dimensionless", ratio)])
    overlap, vis_bound = abduality.sampled_visibility(2.0, 0.5)
    vis_dev = abs(abduality.fringe_visibility(2.0, 0.5) - overlap)
    results = {
        "count": DUALITY_DRAWS,
        "exact_matches": matches,
        "min_which_path_ratio": min_ratio,
        "max_probe_phase": max_phase,
        "visibility_closed_form_deviation": vis_dev,
        "visibility_bound": vis_bound,
    }
    checks = [
        ("probe and system phases identical on every draw",
         matches == DUALITY_DRAWS),
        ("momentum bookkeeping beats localization whenever fringes survive",
         min_ratio > 1.0),
        ("all draws honored the phase bound", max_phase <= math.pi + 1e-12),
        ("fringe visibility matches the sampled overlap within its bound",
         vis_dev <= vis_bound),
    ]
    return results, checks


# ---------------------------------------------------------------------------
# analog scenarios

def _prepare_pendulum_msw(p):
    """(system, duration) sweeps at rate_scale and each ladder multiplier
    times the base rate 0.01 eps^2, with eps = kappa / (2 omega_mu), the
    sudden change at the base rate, and the frozen-length control of the
    slow sweep, once their Magnus steps fit the cap."""
    def sweep(rate):
        return analogs.msw_benchmark_system(
            kappa=p["kappa"], delta_max=p["delta_max"], crossing_rate=rate,
            l_mu=p["l_mu"], g=p["g"])

    # the library's default rate is the base rate; building that sweep first
    # checks l_mu and g before eps divides by them
    sudden = (sweep(None)[0], 0.0)
    eps = p["kappa"] / (2.0 * math.sqrt(p["g"] / p["l_mu"]))
    base_rate = 0.01 * eps * eps
    multipliers = _positive_list(p["ladder_multipliers"])
    slow = sweep(p["rate_scale"] * base_rate)
    # conservation control: same pendulums, lengths pinned at the start
    start_length = analogs.FrozenLength(slow[0].length_schedule.value(0.0))
    frozen = (replace(slow[0], length_schedule=start_length),
              CONSERVATION_TIME)
    ladder = [sweep(mult * base_rate) for mult in multipliers]
    _check_work("Magnus steps", sum(analogs.magnus_start_steps(*s)
                                    for s in [slow, sudden, frozen] + ladder))
    return dict(adiabaticity=eps, base_rate=base_rate, multipliers=multipliers,
                slow=slow, sudden=sudden, frozen=frozen, ladder=ladder)


def _run_pendulum_msw(inputs, seed, emit):
    system, duration = inputs["slow"]
    base_rate = inputs["base_rate"]
    slow = analogs.pendulum_sweep(system, duration)
    sudden = analogs.pendulum_sweep(*inputs["sudden"])
    multipliers = inputs["multipliers"]
    fractions = [analogs.pendulum_sweep(*sweep).fraction
                 for sweep in inputs["ladder"]]
    emit("rate_ladder.csv",
         [("rate_multiplier", "dimensionless", np.array(multipliers)),
          ("crossing_rate", "1/time^2",
           np.array(multipliers) * base_rate),
          ("transfer_fraction", "probability", np.array(fractions))])
    monotone = all(a < b for a, b in zip(fractions, fractions[1:]))
    frozen = analogs.pendulum_sweep(*inputs["frozen"])
    results = {
        "transfer_fraction": slow.fraction,
        "sweep_duration": duration,
        "sudden_fraction": sudden.fraction,
        "frozen_energy_drift": frozen.energy_drift,
        "weak_coupling_ratio": slow.weak_coupling_ratio,
        "adiabaticity": inputs["adiabaticity"],
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


def _prepare_two_level_sweep(p):
    """One linear sweep per (eps, rate) pair and the closed-gap sweep at the
    first rate, once their propagator steps fit the cap."""
    pairs = _pair_list(p["pairs"])
    sweeps = [analogs.TwoLevelSweep(eps, rate) for eps, rate in pairs]
    crossing = analogs.TwoLevelSweep(0.0, pairs[0][1])
    _check_work("propagator steps", sum(
        _steps(s.duration, analogs.two_level_step(s))
        for s in sweeps + [crossing]))
    return sweeps, crossing


def _run_two_level_sweep(inputs, seed, emit):
    sweeps, crossing = inputs
    rows = []
    worst = 0.0
    for sweep in sweeps:
        rep = analogs.two_level_sweep(sweep)
        # relative deviation |conversion - lz| / lz, total: a Landau-Zener
        # value that rounds to 0 reads inf (0 when nothing converts either)
        offset = rep.conversion - rep.lz_conversion
        if rep.lz_conversion == 0.0:
            rel = 0.0 if offset == 0.0 else math.inf
        else:
            rel = abs(offset) / rep.lz_conversion
        worst = max(worst, rel)
        rows.append((sweep.epsilon, sweep.sweep_rate, rep.conversion,
                     rep.lz_conversion, rel))
    table = np.array(rows)
    emit("conversion.csv",
         [("epsilon", "energy", table[:, 0]),
          ("sweep_rate", "energy^2", table[:, 1]),
          ("conversion", "probability", table[:, 2]),
          ("landau_zener", "probability", table[:, 3]),
          ("relative_deviation", "dimensionless", table[:, 4])])

    closed_gap = analogs.two_level_sweep(crossing)
    results = {
        "pair_count": len(sweeps),
        "worst_relative_deviation": worst,
        "closed_gap_conversion": closed_gap.conversion,
    }
    checks = [
        ("conversion matches Landau-Zener within 2% on every pair",
         worst <= 0.02),
        ("closed gap converts nothing", closed_gap.conversion <= 1e-12),
    ]
    return results, checks


def _prepare_rect_loop(p):
    """The params, the centers of the enclosing loop and of the one shifted
    to 3 delta0, and their transport tables, once both fit the step cap."""
    step = p["transport_step"]
    if not step > 0.0:
        raise ValueError(f"transport_step must be positive, got {step!r}")
    centers = ((0.0, 0.0), (3.0 * p["delta0"], 0.0))
    tables = [analogs.rectangle_transport(
        p["delta0"], p["epsilon0"], center, adiabaticity=p["adiabaticity"])
        for center in centers]
    # rectangular_loop_phase marches each loop in two halves
    ends = [(float(t[len(t) // 2]), float(t[-1])) for t, *_ in tables]
    _check_work("propagator steps", sum(
        _steps(half, step) + _steps(full - half, step) for half, full in ends))
    return dict(p, centers=centers, tables=tables)


def _run_rect_loop(p, seed, emit):
    loop, moved = [analogs.rectangular_loop_phase(
        p["epsilon0"], p["delta0"], table, center=center,
        transport_step=p["transport_step"])
        for table, center in zip(p["tables"], p["centers"])]

    times, deltas, epsilons = p["tables"][0]
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


def _prepare_celestial(p):
    # two stack lanes a grid node (celestial-frozen adds two control nodes)
    # at 1 MB a lane: tracemalloc measures 68 kB at the catalog orbit and up
    # to 0.98 MB for a heavy perturber close in (m_jupiter 0.05, r_jupiter 1.5)
    _check_work("bytes", 1_000_000 * 2 * (p["nodes"] + 2))
    cfg = analogs.CelestialConfig(m_jupiter=p["m_jupiter"],
                                  r_jupiter=p["r_jupiter"],
                                  eccentricity=p["eccentricity"])
    return cfg, analogs.frozen_grid_angles(p["nodes"])


def _prepare_celestial_residual(p):
    cfg, phis = _prepare_celestial(p)
    t_j, t_e = analogs.adiabatic_periods(cfg)
    # celestial_adiabatic_residual integrates to t_j + 1.5 t_e, here three
    # times: the run, its looser-tolerance rerun and the massless control
    _check_work("orbit periods",
                3 * ((t_j + 1.5 * t_e) / analogs.KEPLER_PERIOD))
    # the same angle in (-pi, pi]: beside a huge start angle, phi0 +
    # omega_j t would lose t to rounding and the perturber would stand
    # still.  libm reduces the angle exactly; one inside keeps its bytes
    phi0 = p["phi0"]
    if abs(phi0) > math.pi:
        phi0 = math.atan2(math.sin(phi0), math.cos(phi0))
    return cfg, phis, phi0


def _run_celestial_frozen(inputs, seed, emit):
    cfg, phis = inputs
    kep = analogs.KEPLER_PERIOD
    nodes = len(phis)
    # the free Kepler lane and the half-mass lane ride in the grid's stacks
    lanes = analogs.celestial_frozen_period(
        cfg, np.append(phis, [0.0, 0.0]),
        masses=np.append(np.full(nodes, cfg.m_jupiter),
                         [0.0, 0.5 * cfg.m_jupiter]))
    periods = lanes[:nodes]
    kepler_err = abs(float(lanes[nodes]) - kep)
    shifts = (periods - kep) / kep
    emit("frozen_grid.csv",
         [("perturber_angle", "radians", phis),
          ("radial_period", "time", periods),
          ("fractional_shift", "dimensionless", shifts)])

    asym = float(np.abs(shifts[1:] - shifts[:0:-1]).max())
    halving = (float(periods[0]) - kep) / (float(lanes[nodes + 1]) - kep)
    results = {
        "kepler_error": kepler_err,
        "force_ratio": analogs.force_ratio(cfg),
        "shift_min": float(shifts.min()),
        "shift_max": float(shifts.max()),
        "reflection_asymmetry": asym,
        "halving_ratio": halving,
    }
    checks = [
        ("unperturbed period is the Kepler value (1e-8)", kepler_err <= 1e-8),
        ("shift profile even across the sun-planet line", asym <= 1e-10),
        ("halving the perturber mass halves the shift (2%)",
         abs(halving / 2.0 - 1.0) <= 0.02),
    ]
    return results, checks


def _run_celestial_residual(inputs, seed, emit):
    cfg, phis, phi0 = inputs
    res = analogs.celestial_adiabatic_residual(cfg, phis, phi0=phi0)
    control = analogs.celestial_adiabatic_residual(
        replace(cfg, m_jupiter=0.0), phis, check_convergence=False)
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


def _prepare_monopole_angmom(p):
    separations = _positive_list(p["separations"])
    _check_work("angular-momentum integrals", 2 * len(separations))
    return dict(p, separations=separations)


def _run_monopole_angmom(p, seed, emit):
    seps = p["separations"]
    rows = []
    for sep in seps:
        fam = berry.field_angular_momentum(p["charge"], p["pole_strength"],
                                           sep)
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
    results = {
        "separation_count": len(seps),
        "worst_coefficient_error": worst,
        "separation_spread": spread,
    }
    checks = [
        ("field stores one unit of charge*pole along the axis (1e-6)",
         worst <= 1e-6),
        ("answer independent of separation (1e-6)", spread <= 1e-6),
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
            "geometric half-sphere phase; cross-check with the Wilson loop "
            "and the w/2A tilt of the mean sigma3.",
            {"amplitude": Parameter(1.0, "energy", f),
             "wobble": Parameter(0.005, "1/time", f)},
            _run_berry_equator, _prepare_berry_sweep),
        Scenario(
            "berry-latitude",
            "Wilson-loop phases on latitude circles against half the solid "
            "angle of the cap, pi(1 - cos theta), and of the sampled polygon.",
            {"colatitudes_deg": Parameter("30,60,90,120", "degrees", s)},
            _run_berry_latitude, _prepare_berry_latitude),
        Scenario(
            "berry-wilson-sweep",
            "Scale the field strength and confirm the loop phase does not "
            "move while the dynamical run shifts only at the wobble level.",
            {"amplitude": Parameter(1.0, "energy", f),
             "factor": Parameter(5.0, "dimensionless", f),
             "wobble": Parameter(0.005, "1/time", f)},
            _run_berry_wilson_sweep, _prepare_berry_sweep),
        Scenario(
            "linking",
            "Gauss linking numbers for a catalog of closed curve pairs: "
            "chains, reversals, double winds, scalings.",
            {},
            _run_linking),
        Scenario(
            "topo-phase",
            "Loop phases of a real two-level field against the parity of "
            "the winding around its degeneracy line.",
            {},
            _run_topo_phase),
        Scenario(
            "scatter-phase",
            "Reflection phase of the mirror-plus-barrier channel from the "
            "transparent limit to the opaque extra-travel limit.",
            {"p": Parameter(1.0, "momentum", f),
             "m": Parameter(1.0, "mass", f),
             "X": Parameter(2.0, "length", f),
             "gamma_max": Parameter(1e6, "energy*length", f)},
            _run_scatter_phase, _prepare_scatter_phase),
        Scenario(
            "scatter-bounce",
            "Reflect/tunnel bounce chain: the trapped branch exactly "
            "cancels the first kick; a stratified sample agrees with the "
            "closed form within derived bounds.",
            {"epsilon": Parameter(0.1, "probability", f),
             "p": Parameter(1.0, "momentum", f)},
            _run_scatter_bounce,
            lambda p: scattering.BounceChain(epsilon=p["epsilon"], p=p["p"])),
        Scenario(
            "scatter-wavepacket",
            "Crank-Nicolson wavepacket in the closed channel: momentum "
            "ledger, first-encounter kick, trapping decay.",
            {"p": Parameter(1.5, "momentum", f),
             "m": Parameter(1.0, "mass", f),
             "X": Parameter(20.0, "length", f),
             "strength": Parameter(3.0, "energy*length", f),
             "grid_points": Parameter(8192, "count", i),
             "length": Parameter(1000.0, "length", f),
             "center": Parameter(35.0, "length", f),
             "width": Parameter(2.5, "length", f),
             "round_trips": Parameter(16, "count", i)},
            _run_scatter_wavepacket, _prepare_scatter_wavepacket),
        Scenario(
            "ab-electric",
            "Capacitor pulse duality: probe phase equals the two-plate "
            "momentum phase identically; which-path bookkeeping ratios.",
            {"localization_fraction": Parameter(0.25, "dimensionless", f)},
            _run_ab_electric, _prepare_ab_electric),
        Scenario(
            "pendulum-msw",
            "Spring-coupled pendulums with a slowly shortening arm: "
            "resonance-crossing energy transfer and its rate ladder.",
            {"kappa": Parameter(0.025, "1/time^2", f),
             "delta_max": Parameter(0.34, "1/time", f),
             "rate_scale": Parameter(1.0, "dimensionless", f),
             "l_mu": Parameter(1.0, "length", f),
             "g": Parameter(1.0, "length/time^2", f),
             "ladder_multipliers": Parameter("2816,906,453,249,137",
                                             "dimensionless", s)},
            _run_pendulum_msw, _prepare_pendulum_msw),
        Scenario(
            "two-level-sweep",
            "Linear sweep through an avoided crossing against the "
            "Landau-Zener conversion formula.",
            {"pairs": Parameter("0.5:1.0,0.4:0.8,0.4:0.4,0.3:0.5,0.75:0.8",
                                "energy:energy^2", s)},
            _run_two_level_sweep, _prepare_two_level_sweep),
        Scenario(
            "rect-loop",
            "Rectangular detuning-coupling circuit: Wilson phase pi when "
            "the crossing is enclosed, and the transported half-sweep "
            "squares to minus the identity.",
            {"delta0": Parameter(10.0, "energy", f),
             "epsilon0": Parameter(0.5, "energy", f),
             "adiabaticity": Parameter(1e-3, "dimensionless", f),
             "transport_step": Parameter(0.01, "1/energy", f)},
            _run_rect_loop, _prepare_rect_loop),
        Scenario(
            "celestial-frozen",
            "Radial period of a planet with the outer perturber frozen at "
            "each angle: shift profile, symmetry, mass linearity.",
            {"m_jupiter": Parameter(1e-3, "m_sun", f),
             "r_jupiter": Parameter(5.2, "r_earth", f),
             "eccentricity": Parameter(0.05, "dimensionless", f),
             "nodes": Parameter(32, "count", i)},
            _run_celestial_frozen, _prepare_celestial),
        Scenario(
            "celestial-residual",
            "Full moving-perturber orbit phase minus the frozen-probe "
            "adiabatic prediction: the geometric leftover per cycle.",
            {"m_jupiter": Parameter(1e-3, "m_sun", f),
             "r_jupiter": Parameter(5.2, "r_earth", f),
             "eccentricity": Parameter(0.05, "dimensionless", f),
             "phi0": Parameter(0.0, "radians", f),
             "nodes": Parameter(32, "count", i)},
            _run_celestial_residual, _prepare_celestial_residual),
        Scenario(
            "monopole-angmom",
            "Field angular momentum of a charge and a magnetic pole: one "
            "unit of charge*pole regardless of separation.",
            {"charge": Parameter(1.0, "charge", f),
             "pole_strength": Parameter(1.0, "pole", f),
             "separations": Parameter("0.7,1.0,2.5", "length", s)},
            _run_monopole_angmom, _prepare_monopole_angmom),
    ]
    return {sc.name: sc for sc in table}


SCENARIOS = _scenario_table()

# fast subset exercised by the `check` subcommand
CHECK_SCENARIOS = ("berry-equator", "topo-phase", "scatter-phase",
                   "scatter-bounce", "ab-electric", "rect-loop")
