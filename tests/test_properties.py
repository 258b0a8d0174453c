"""Property tests on random ragged layouts: 1-4 clusters of 1-4 users,
cluster sizes unequal whenever there is more than one cluster, since the
flat per-user layout's segment offsets are what such layouts exercise."""

import csv
import dataclasses
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noma_secrecy import _workers, montecarlo
from noma_secrecy.experiments import ExperimentSpec, _fmt, build_config, run_sweep, run_validate
from noma_secrecy.model import (
    ClusterConfig,
    DownlinkPower,
    EstimationQuality,
    SystemConfig,
    UplinkPower,
    compute_rho,
    db_to_linear,
)
from noma_secrecy.montecarlo import (
    _chunk_loop,
    _estimate,
    _rate_samples,
    error_decomposition_check,
    reduce_moments,
    reduce_rates,
    simulate_trials,
)
from noma_secrecy.optimize import (
    LogAffine,
    SolveOptions,
    SolverTrace,
    _dc_stage,
    _dc_step,
    _downlink_coeffs,
    _downlink_forms,
    _downlink_stage,
    _uplink_coeffs,
    _uplink_forms,
    _uplink_stage,
    baseline_downlink_se,
    baseline_fixed,
    baseline_uplink_se,
    maximize_ee,
    maximize_se,
    smooth_secrecy_sum,
)
from noma_secrecy.projgrad import (
    Box,
    CappedSimplex,
    ConcaveProblem,
    _all_finite,
    _newton_direction,
    _project_capped_simplex,
    _solve,
    maximize,
    project,
)
from noma_secrecy.rates import (
    _flat_rates,
    _user_terms,
    chi_mean,
    oma_report,
    secrecy_report,
)

from reference import ee_from_lambda_zero, finite_difference_gradient

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)
MONTE_CARLO = settings(max_examples=15, deadline=None, derandomize=True)
GRADIENT_RTOL = 1e-5  # the acceptance suite's finite-difference bound

ragged_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda sizes: len(sizes) == 1 or len(set(sizes)) > 1
)
single_user_sizes = st.integers(1, 4).map(lambda m: [1] * m)
tiny_sizes = st.lists(st.integers(1, 2), min_size=1, max_size=2).filter(
    lambda sizes: len(sizes) == 1 or len(set(sizes)) > 1
)


@st.composite
def instances(draw, sizes=ragged_sizes, eav_gains=st.sampled_from([0.0, 0.3, 10.0])):
    """(cfg, p, q, rng): gains uniform on (0.5, 100), uplink powers on
    (0.05, 0.95), downlink powers on (0.1, 4)."""
    sizes = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = SystemConfig(
        n_antennas=draw(st.sampled_from([2, 8, 64, 256])),
        clusters=tuple(ClusterConfig(np.sort(rng.uniform(0.5, 100.0, k))[::-1]) for k in sizes),
        pilot_len=len(sizes),
        coherence_len=300,
        eav_gain=draw(eav_gains),
    )
    p = UplinkPower(tuple(rng.uniform(0.05, 0.95, k) for k in sizes))
    q = DownlinkPower(tuple(rng.uniform(0.1, 4.0, k + 1) for k in sizes))
    return cfg, p, q, rng


def transcribed_rates(cfg, p, q, exact_gain):
    """The rates module's SINR and the eavesdropper rate, written out one
    user at a time."""
    nt = cfg.n_antennas
    gain = chi_mean(nt) ** 2 if exact_gain else float(nt)
    beta_e = cfg.eav_gain
    legit, eaves = [], []
    for m in range(cfg.n_clusters):
        energy = p.p[m] * cfg.beta(m) * cfg.pilot_len
        row = q.q[m]
        inter = sum(float(q.q[j].sum()) for j in range(cfg.n_clusters) if j != m)
        lrow, erow = [], []
        for k in range(cfg.users_per_cluster[m]):
            rho = energy[k] / (1.0 + energy.sum())
            beta = cfg.beta(m)[k]
            qk = row[1 + k]
            kappa = qk * beta * rho * gain
            if exact_gain:
                im1 = qk * beta * (rho * nt + 1.0 - rho) - kappa
            else:
                im1 = qk * beta * (1.0 - rho)
            im2 = beta * (row[1 : 1 + k].sum() * (rho * nt + 1.0 - rho) + row[0] * (1.0 - rho))
            im3 = beta * inter
            lrow.append(cfg.overhead * math.log2(1.0 + kappa / (im1 + im2 + im3 + 1.0)))
            den_e = beta_e * (row.sum() - qk) + beta_e * inter + 1.0
            erow.append(cfg.overhead * math.log2(1.0 + qk * beta_e / den_e))
        legit.append(lrow)
        eaves.append(erow)
    return legit, eaves


def _rel_err(grad, fd):
    return np.linalg.norm(grad - fd) / np.linalg.norm(grad)


@PROPERTY
@given(instances(), st.booleans(), st.booleans())
def test_report_matches_per_user_transcription(instance, exact_gain, silence_some):
    cfg, p, q, rng = instance
    if silence_some:
        q = DownlinkPower(tuple(np.where(rng.random(r.size) < 0.3, 0.0, r) for r in q.q))
    report = secrecy_report(cfg, p, q, exact_gain=exact_gain)
    legit, eaves = transcribed_rates(cfg, p, q, exact_gain)
    rho = compute_rho(cfg, p)
    legit_flat, eaves_flat = _flat_rates(cfg, rho.flat(), q.flat(), exact_gain)
    kappa, im1, im2, im3 = _user_terms(cfg, rho.flat(), q.flat(), exact_gain)[:4]
    for m in range(cfg.n_clusters):
        np.testing.assert_allclose(report.legit[m], legit[m], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(report.eaves[m], eaves[m], rtol=1e-12, atol=0.0)
        for k in range(cfg.users_per_cluster[m]):
            # The flat rates and the SINR terms read the same evaluator.
            u = int(cfg.user_offsets[m]) + k
            assert legit_flat[u] == report.legit[m][k]
            assert eaves_flat[u] == report.eaves[m][k]
            sinr = kappa[u] / (im1[u] + im2[u] + im3[u] + 1.0)
            rate = cfg.overhead * math.log2(1.0 + sinr)
            assert math.isclose(rate, report.legit[m][k], rel_tol=1e-12, abs_tol=0.0)


@PROPERTY
@given(instances())
def test_part_gradients_match_finite_differences(instance):
    cfg, p, q, _ = instance
    f1, f2 = _uplink_forms(cfg, _uplink_coeffs(cfg, q))
    _, g1 = f1.evaluate(p.flat())
    _, g2 = f2.evaluate(p.flat())
    fd1 = finite_difference_gradient(lambda x: f1.evaluate(x)[0], p.flat())
    fd2 = finite_difference_gradient(lambda x: f2.evaluate(x)[0], p.flat())
    assert _rel_err(g1, fd1) < GRADIENT_RTOL
    assert _rel_err(g2, fd2) < GRADIENT_RTOL

    concave, sub = _downlink_forms(cfg, _downlink_coeffs(cfg, compute_rho(cfg, p)))
    _, cg = concave.evaluate(q.flat())
    _, sg = sub.evaluate(q.flat())
    fd_c = finite_difference_gradient(lambda x: concave.evaluate(x)[0], q.flat())
    fd_s = finite_difference_gradient(lambda x: sub.evaluate(x)[0], q.flat())
    assert _rel_err(cg, fd_c) < GRADIENT_RTOL
    assert _rel_err(sg, fd_s) < GRADIENT_RTOL


def _hessian_by_differences(form, x, step=1e-6):
    """Central differences of form's exact gradient, column by column."""
    columns = []
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        forward, backward = x.copy(), x.copy()
        forward[i] += h
        backward[i] -= h
        columns.append((form.evaluate(forward)[1] - form.evaluate(backward)[1]) / (2.0 * h))
    return np.column_stack(columns)


@PROPERTY
@given(instances())
def test_part_hessians_match_finite_differences(instance):
    cfg, p, q, _ = instance
    rho = compute_rho(cfg, p)
    stages = (
        (_uplink_forms(cfg, _uplink_coeffs(cfg, q)), p.flat()),
        (_downlink_forms(cfg, _downlink_coeffs(cfg, rho)), q.flat()),
    )
    for forms, x in stages:
        for form in forms:
            hess = form.hessian(x)
            scale = np.abs(hess).max()
            assert hess.shape == (x.size, x.size) and scale > 0.0
            assert _rel_err(hess, _hessian_by_differences(form, x)) < GRADIENT_RTOL
            np.testing.assert_allclose(hess, hess.T, rtol=0.0, atol=1e-13 * scale)
            assert np.linalg.eigvalsh(hess).max() <= 1e-12 * scale


@PROPERTY
@given(instances(sizes=single_user_sizes))
def test_single_user_clusters_reduce_to_oma(instance):
    cfg, p, q, _ = instance
    a = oma_report(cfg, p, q)
    b = secrecy_report(cfg, p, q)
    for m in range(cfg.n_clusters):
        np.testing.assert_allclose(b.legit[m], a.legit[m], rtol=1e-12)
        np.testing.assert_allclose(b.eaves[m], a.eaves[m], rtol=1e-12)
        np.testing.assert_allclose(b.secrecy[m], a.secrecy[m], rtol=1e-12)
    assert math.isclose(b.sum_secrecy, a.sum_secrecy, rel_tol=1e-12, abs_tol=1e-15)


lams = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))


def stage_objective(cfg, p, q, lam, circuit_power) -> float:
    """The stage objective on power containers: the smooth secrecy sum
    minus the power price, the reference the stages' flat objectives
    repeat operation for operation."""
    value = smooth_secrecy_sum(cfg, p, q)
    if lam != 0.0:
        value -= lam * (p.total() + q.total() + circuit_power)
    return value


@PROPERTY
@given(instances(), lams, st.floats(0.01, 5.0))
def test_prebuilt_stage_objectives_equal_the_stage_objective(instance, lam, circuit):
    # Exactly equal: the prebuilt objectives repeat `stage_objective`'s
    # arithmetic operation for operation, and the solvers' bytes rely on it.
    cfg, p, q, _ = instance
    expected = stage_objective(cfg, p, q, lam, circuit)
    uplink = _uplink_stage(cfg, q, 1.0, lam, circuit)
    downlink = _downlink_stage(cfg, compute_rho(cfg, p), 10.0, lam, circuit, p.total())
    assert uplink.objective(p.flat()) == expected
    assert downlink.objective(q.flat()) == expected


@PROPERTY
@given(instances(), st.sampled_from([0.0, 0.3]), st.booleans())
def test_surrogate_reuses_its_log_arguments_exactly(instance, lam, downlink):
    cfg, p, q, rng = instance
    if downlink:
        stage, x_prev = _downlink_stage(cfg, compute_rho(cfg, p), 100.0, lam), q.flat()
    else:
        stage, x_prev = _uplink_stage(cfg, q, 1.0, lam), p.flat()
    stage.linearize(x_prev)
    problem = stage.problem
    concave, sub = stage.forms
    x = x_prev * rng.uniform(0.5, 1.0, x_prev.size)
    expected = cfg.overhead * concave.hessian(x)
    problem.evaluate(x_prev)
    assert np.array_equal(problem.hessian(x), expected)  # another array: recomputed
    value, grad = problem.evaluate(x)
    assert np.array_equal(problem.hessian(x), expected)  # the array evaluated last: reused
    # The surrogate written out with its price terms, which a zero lam drops.
    scale = cfg.overhead
    sub_prev, sub_grad = sub.evaluate(x_prev)
    lin = scale * sub_grad
    cval, cgrad = concave.evaluate(x)
    const = -scale * sub_prev + float(lin @ x_prev)
    assert value == scale * cval - lam * float(x.sum()) - float(lin @ x) + const
    assert np.array_equal(grad, scale * cgrad - lam - lin)


@PROPERTY
@given(instances(), st.sampled_from([0.0, 0.3]), st.booleans())
def test_dc_step_start_equals_a_fresh_evaluation(instance, lam, downlink):
    """Each DC step hands the next its concave half's log arguments, value
    and gradient at its maximizer; they equal a fresh evaluation there,
    and steps that take them take the same path as steps that do not."""
    cfg, p, q, _ = instance
    if downlink:
        stage, x = _downlink_stage(cfg, compute_rho(cfg, p), 100.0, lam), q.flat()
    else:
        stage, x = _uplink_stage(cfg, q, 1.0, lam), p.flat()
    concave = stage.forms[0]
    options, trace = SolveOptions(), SolverTrace()
    chained, start = x, None
    for _ in range(3):
        fresh, _ = _dc_step(stage, chained.copy(), options, trace)
        chained, start = _dc_step(stage, chained.copy(), options, trace, start)
        assert np.array_equal(chained, fresh)
        if start is not None:
            args, value, grad = start
            cval, cgrad = concave.evaluate(chained)
            assert np.array_equal(args, concave.A @ chained + concave.b)
            assert value == cfg.overhead * cval
            assert np.array_equal(grad, cfg.overhead * cgrad)


def container_stage_loop(cfg, build, x, other, lam, circuit, options):
    """The stage loop on power containers: a fresh stage, and so a fresh
    surrogate, for every DC step, each maximizer wrapped in x's type and
    the objective taken by `stage_objective`. The reference of
    `_dc_stage`, which passes flat points and builds its stage once."""
    uplink = isinstance(x, UplinkPower)

    def objective(x):
        return stage_objective(cfg, *((x, other) if uplink else (other, x)), lam, circuit)

    trace = SolverTrace()
    values = [objective(x)]
    converged = False
    concave = None
    for _ in range(options.max_inner):
        point, concave = _dc_step(build(), x.flat(), options, trace, concave)
        x = type(x).from_flat(cfg, point)
        values.append(objective(x))
        if values[-1] - values[-2] < options.inner_tol:
            converged = True
            break
    trace.step_values.append(values)
    trace.stage_caps += not converged
    return x, trace, converged


@PROPERTY
@given(instances(), lams, st.booleans(), st.sampled_from([2, 5, 50]))
def test_flat_stage_loop_equals_the_container_loop_bit_for_bit(instance, lam, downlink,
                                                               max_inner):
    cfg, p, q, _ = instance
    circuit = 0.5
    if downlink:
        def build():
            return _downlink_stage(cfg, compute_rho(cfg, p), 100.0, lam, circuit, p.total())
        x, other = q, p
    else:
        def build():
            return _uplink_stage(cfg, q, 1.0, lam, circuit)
        x, other = p, q
    options = SolveOptions(max_inner=max_inner)
    expected, reference, ref_converged = container_stage_loop(
        cfg, build, x, other, lam, circuit, options
    )
    trace = SolverTrace()
    stage = build()
    got, value, converged = _dc_stage(cfg, stage, x, stage.objective(x.flat()), options, trace)
    assert type(got) is type(x)
    assert got.flat().tobytes() == expected.flat().tobytes()
    assert converged == ref_converged
    assert value == reference.step_values[0][-1]
    assert [np.array(v).tobytes() for v in trace.step_values] == [
        np.array(v).tobytes() for v in reference.step_values
    ]
    assert trace.kernel_stops == reference.kernel_stops
    assert trace.kernel_iterations == reference.kernel_iterations
    assert trace.kernel_fallbacks == reference.kernel_fallbacks
    assert trace.stage_caps == reference.stage_caps


@PROPERTY
@given(instances(), st.sampled_from([0.0, 0.2]))
def test_dc_steps_never_lower_the_stage_objective(instance, penalty):
    cfg, p, q, _ = instance

    def stage(p, q):
        return smooth_secrecy_sum(cfg, p, q) - penalty * (p.total() + q.total())

    options, trace = SolveOptions(), SolverTrace()
    before = stage(p, q)
    up = _uplink_stage(cfg, q, 1.0, penalty)
    p_next = UplinkPower.from_flat(cfg, _dc_step(up, p.flat(), options, trace)[0])
    after_up = stage(p_next, q)
    assert after_up >= before - 1e-9

    down = _downlink_stage(cfg, compute_rho(cfg, p_next), 100.0, penalty)
    q_next = DownlinkPower.from_flat(cfg, _dc_step(down, q.flat(), options, trace)[0])
    assert stage(p_next, q_next) >= after_up - 1e-9
    assert q_next.total() <= 100.0 + 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instances(), st.sampled_from([0.5, 1.0]), st.sampled_from([1.0, 10.0, 100.0]))
def test_se_solvers_ascend_and_stay_feasible(instance, p_max, q_max):
    cfg, _, _, _ = instance
    for solve in (maximize_se, baseline_uplink_se, baseline_downlink_se):
        p, q, _, trace = solve(cfg, p_max, q_max)
        for values in [trace.outer_values, *trace.step_values]:
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:])), (solve, values)
        assert np.all(p.flat() >= 0.0) and np.all(p.flat() <= p_max + 1e-12)
        assert np.all(q.flat() >= 0.0) and q.total() <= q_max + 1e-9


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    instances(sizes=tiny_sizes),
    st.sampled_from([1.0, 10.0, 100.0]),
    st.sampled_from([0.1, 1.0]),
)
def test_dinkelbach_lambda_is_monotone_and_ends_within_tolerance(instance, q_max, circuit):
    cfg, _, _, _ = instance
    _, _, _, trace = maximize_ee(cfg, 1.0, q_max, circuit_power=circuit)
    lams = trace.lambda_sequence
    assert all(b >= a for a, b in zip(lams, lams[1:])), lams
    assert trace.converged
    assert trace.epsilons[-1] <= SolveOptions().ee_tol


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    instances(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3)),
    st.sampled_from([1.0, 10.0, 100.0]),
    st.floats(-20.0, 10.0),
)
def test_scaled_start_keeps_lambda_monotone_and_the_lambda_zero_answer(
    instance, q_max, circuit_db
):
    """Dinkelbach from the best scaled fixed split: lambda never
    decreases, the final EE is at least lambda_0 and at least the EE of
    the loop that started at lambda = 0 from the full-budget split, less
    inner_tol. The last check is not a theorem: the two starts can end
    at different local optima, and on some layouts outside these
    examples the scaled start ends more than 1% lower."""
    cfg, _, _, _ = instance
    circuit = db_to_linear(circuit_db)
    _, _, ee, trace = maximize_ee(cfg, 1.0, q_max, circuit_power=circuit)
    lams = trace.lambda_sequence
    assert all(b >= a for a, b in zip(lams, lams[1:])), lams
    assert ee >= lams[0]
    assert ee >= ee_from_lambda_zero(cfg, 1.0, q_max, circuit) - SolveOptions().inner_tol


@PROPERTY
@given(instances())
def test_slot_indicators_match_user_powers(instance):
    cfg, _, q, _ = instance
    x = q.flat()
    for matrix, view in zip(cfg.slot_indicators, cfg.user_powers(x)):
        np.testing.assert_allclose(matrix @ x, view, rtol=1e-12, atol=1e-12)


def test_log_affine_rejects_non_positive_arguments():
    form = LogAffine(A=np.array([[1.0, -1.0]]), b=np.array([0.0]), w=np.array([1.0]))
    assert form.evaluate(np.array([2.0, 1.0]))[0] == 0.0
    for x in ([1.0, 1.0], [1.0, 2.0]):
        with pytest.raises(FloatingPointError):
            form.evaluate(np.array(x))


def transcribed_trial_rates(cfg, q, beam, an, eave_beam, eave_an):
    """The former ergodic-oracle loop body: one trial's legitimate and
    eavesdropper log2(1 + SINR) from that trial's tables."""
    cluster_of = cfg.cluster_of
    q_flat = q.flat()
    q_own = q_flat[cfg.user_slots]
    q_an = q_flat[cfg.slot_offsets]
    q_user_sum = np.add.reduceat(q_own, cfg.user_offsets)
    own_w = beam[np.arange(cfg.total_users), cluster_of]
    received = beam @ q_user_sum + an @ q_an
    den = cfg.flat_betas * (
        received - own_w * (q_user_sum[cluster_of] - cfg.stronger_sums(q_own))
    ) + 1.0
    legit = np.log2(1.0 + cfg.flat_betas * q_own * own_w / den)
    e_received = float(eave_beam @ q_user_sum + eave_an @ q_an)
    e_own = eave_beam[cluster_of]
    e_num = cfg.eav_gain * q_own * e_own
    e_den = cfg.eav_gain * (e_received - q_own * e_own) + 1.0
    return legit, np.log2(1.0 + e_num / e_den)


@MONTE_CARLO
@given(instances(), st.integers(1, 20), st.integers(0, 2**16))
def test_batched_rate_reduction_matches_per_trial_loop(instance, n_trials, seed):
    cfg, p, q, _ = instance
    tables = simulate_trials(cfg, p, n_trials, seed)
    assert tables.beam.shape == (n_trials, cfg.total_users, cfg.n_clusters)
    legit, eaves = _rate_samples(cfg, q, tables)
    for t in range(n_trials):
        expected = transcribed_trial_rates(
            cfg, q, tables.beam[t], tables.an[t], tables.eave_beam[t], tables.eave_an[t]
        )
        assert np.array_equal(legit[t], expected[0])
        assert np.array_equal(eaves[t], expected[1])


@MONTE_CARLO
@given(instances(), st.integers(1, 20), st.sampled_from([-5.0, 0.0, 10.0]))
def test_validate_rows_equal_standalone_oracles(instance, n_trials, q_max_db):
    cfg, _, _, _ = instance
    spec = ExperimentSpec(
        scenario="property",
        n_antennas=cfg.n_antennas,
        coherence_len=cfg.coherence_len,
        eav_gain=cfg.eav_gain,
        pilot_len=None,
        clusters=tuple(tuple(c.betas) for c in cfg.clusters),
        n_clusters=None,
        users_per_cluster=None,
        total_users=None,
        p_max_db=0.0,
        q_max_db=q_max_db,
        circuit_power_db=None,
        an_fraction=0.2,
        sweep_axis=None,
        sweep_values=(),
        trials=n_trials,
        seed=n_trials + 7,
        output=None,
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = run_validate(spec, os.path.join(tmp, "validate.csv"))[0]
        with open(out, newline="") as fh:
            rows = [
                (r["kind"], r["name"], r["cluster"], r["user"], r["empirical"], r["stderr"])
                for r in csv.DictReader(fh)
            ]

    cfg = build_config(spec)
    p, q = baseline_fixed(cfg, db_to_linear(0.0), db_to_linear(q_max_db), 0.2)
    tables = simulate_trials(cfg, p, n_trials, spec.seed)
    expected = [
        ("moment", s.name, _fmt(s.cluster + 1), _fmt(None if s.user is None else s.user + 1))
        + (_fmt(s.empirical), _fmt(s.stderr))
        for s in reduce_moments(cfg, p, q, tables)
    ]
    oracle = reduce_rates(cfg, q, tables)
    for m in range(cfg.n_clusters):
        for k in range(cfg.users_per_cluster[m]):
            legit_se, eaves_se = oracle.legit_se[m][k], oracle.eaves_se[m][k]
            for name, se in (
                ("legit", legit_se),
                ("eaves", eaves_se),
                ("secrecy", math.hypot(legit_se, eaves_se)),
            ):
                value = getattr(oracle.report, name)[m][k]
                expected.append(("rate", name, _fmt(m + 1), _fmt(k + 1), _fmt(value), _fmt(se)))
    assert rows == expected


def transcribed_trial_tables(cfg, p, n_trials, seed, streams=None):
    """The former per-trial, per-cluster pipeline: one complex-normal call
    per cluster and step, one estimate, beam and AN direction per cluster,
    and the tables stacked trial by trial. Trial t draws from streams[t]
    when given."""

    def cn(rng, *shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

    trials = []
    for t in range(n_trials):
        if streams is not None:
            rng = streams[t]
        else:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        h = [cn(rng, k, cfg.n_antennas) for k in cfg.users_per_cluster]
        g = cn(rng, cfg.n_antennas)
        h_hat = []
        for m in range(cfg.n_clusters):
            energy = p.p[m] * cfg.beta(m) * cfg.pilot_len
            y = (np.sqrt(energy)[:, None] * h[m]).sum(axis=0) + cn(rng, cfg.n_antennas)
            total = energy.sum()
            h_hat.append(math.sqrt(total) / (1.0 + total) * y)
        w = [hh / np.linalg.norm(hh) for hh in h_hat]
        z = []
        for hh in h_hat:
            norm_sq = float(np.vdot(hh, hh).real)
            while True:
                v = cn(rng, hh.size)
                if norm_sq > 0.0:
                    v = v - hh * (np.vdot(hh, v) / norm_sq)
                if np.linalg.norm(v) > 1e-9:
                    break
            z.append(v / np.linalg.norm(v))
        w_mat, z_mat = np.stack(w), np.stack(z)
        h_conj = np.concatenate(h).conj()
        dots_w = h_conj @ w_mat.T
        trials.append((
            dots_w[np.arange(cfg.total_users), cfg.cluster_of],
            np.abs(dots_w) ** 2,
            np.abs(h_conj @ z_mat.T) ** 2,
            np.abs(w_mat @ g.conj()) ** 2,
            np.abs(z_mat @ g.conj()) ** 2,
            [np.linalg.norm(hh) for hh in h_hat],
        ))
    return [np.array(column) for column in zip(*trials)]


big_ragged_sizes = st.lists(st.integers(1, 10), min_size=1, max_size=4).filter(
    lambda sizes: len(sizes) == 1 or len(set(sizes)) > 1
)


@MONTE_CARLO
@given(instances(sizes=big_ragged_sizes), st.integers(1, 40), st.integers(0, 2**16))
def test_trial_tables_equal_per_cluster_pipeline(instance, n_trials, seed):
    # Chunks of 1, 3 and the default size: up to 40 trials cross chunk
    # boundaries at every size, and the bytes may depend on none of them.
    cfg, p, _, _ = instance
    expected = transcribed_trial_tables(cfg, p, n_trials, seed)
    for chunk in (1, 3, montecarlo._CHUNK_TRIALS):
        with mock.patch.object(montecarlo, "_CHUNK_TRIALS", chunk):
            tables = simulate_trials(cfg, p, n_trials, seed)
        for name, table in zip(
            ("own", "beam", "an", "eave_beam", "eave_an", "estimate_norm"), expected
        ):
            assert np.array_equal(getattr(tables, name), table), (name, chunk)


class NormalStream:
    """Stands in for a trial's generator: serves a fixed sequence of
    standard normals in order, whatever the shapes requested, and records
    the shape of each request."""

    def __init__(self, values):
        self.values, self.used, self.shapes = values, 0, []

    def standard_normal(self, size=None, out=None):
        shape = tuple(size if out is None else out.shape)
        block = self.values[self.used : self.used + math.prod(shape)].reshape(shape)
        self.used += block.size
        self.shapes.append(shape)
        if out is None:
            return block.copy()
        out[...] = block
        return out


def test_an_redraw_comes_from_its_own_trial_after_its_three_draws():
    cfg = SystemConfig(
        n_antennas=8,
        clusters=(ClusterConfig(np.array([9.0, 3.0])), ClusterConfig(np.array([5.0]))),
        pilot_len=2,
        coherence_len=300,
        eav_gain=10.0,
    )
    p = UplinkPower(([0.8, 0.4], [0.6]))
    n, n_trials, target, seed = cfg.n_antennas, 7, 4, 11
    draws = [(2 * (cfg.total_users + 1), n), (2 * cfg.n_clusters, n), (2 * cfg.n_clusters, n)]
    values = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,))).standard_normal(
            sum(math.prod(d) for d in draws) + 4 * n
        )
        for t in range(n_trials)
    ]
    # The target trial's AN draw for the last cluster is a multiple of that
    # cluster's estimate, so it projects to zero and is drawn again. The
    # last cluster is the one whose redraw the per-cluster pipeline also
    # takes after every other draw of the trial.
    stream = NormalStream(values[target])
    with mock.patch.object(montecarlo, "_trial_streams", lambda seed, count: iter([stream])):
        (h_hat,) = _chunk_loop(
            cfg, 1, seed, 2, lambda rngs, rows, y: (_estimate(cfg, p, rows[:, :-1], y),)
        )
    h_hat = h_hat[0, -1]
    start = stream.used + 2 * (cfg.n_clusters - 1) * n
    values[target][start : start + 2 * n] = np.concatenate((h_hat.real, h_hat.imag))

    expected = transcribed_trial_tables(
        cfg, p, n_trials, seed, [NormalStream(v) for v in values]
    )
    # Trial 4 lies inside a chunk at both sizes: the second of [3, 4, 5]
    # and the fifth of the one chunk of 7.
    for chunk in (3, montecarlo._CHUNK_TRIALS):
        streams = [NormalStream(v) for v in values]
        with mock.patch.object(montecarlo, "_CHUNK_TRIALS", chunk), mock.patch.object(
            montecarlo, "_trial_streams", lambda seed, count: iter(streams[:count])
        ):
            tables = simulate_trials(cfg, p, n_trials, seed)
        for t, used in enumerate(streams):
            assert used.shapes == draws + ([(2, n)] if t == target else []), (t, chunk)
        for name, table in zip(
            ("own", "beam", "an", "eave_beam", "eave_an", "estimate_norm"), expected
        ):
            assert np.array_equal(getattr(tables, name), table), (name, chunk)


def split_runs(run, n_trials):
    """run() under every worker count 1-4 and chunk size 1, 3 and 16, the
    split forced by as many CPUs as workers and a per-worker minimum of one
    trial; yields (workers, chunk, result)."""
    for workers in (1, 2, 3, 4):
        for chunk in (1, 3, 16):
            cpus = set(range(workers))
            with mock.patch.object(montecarlo, "_CHUNK_TRIALS", chunk), mock.patch.object(
                montecarlo, "_MIN_TRIALS_PER_WORKER", 1
            ), mock.patch.object(os, "sched_getaffinity", lambda pid: cpus, create=True):
                assert montecarlo._worker_count(n_trials) == min(workers, n_trials)
                yield workers, chunk, run()


@MONTE_CARLO
@given(instances(sizes=big_ragged_sizes), st.integers(1, 40), st.integers(0, 2**16))
def test_trial_tables_equal_for_any_worker_count(instance, n_trials, seed):
    cfg, p, _, _ = instance
    expected = simulate_trials(cfg, p, n_trials, seed)
    for workers, chunk, tables in split_runs(
        lambda: simulate_trials(cfg, p, n_trials, seed), n_trials
    ):
        for field in dataclasses.fields(tables):
            got, want = getattr(tables, field.name), getattr(expected, field.name)
            assert np.array_equal(got, want), (field.name, workers, chunk)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@MONTE_CARLO
@given(instances(sizes=big_ragged_sizes), st.integers(1, 40), st.integers(0, 2**16))
def test_error_decomposition_equal_for_any_worker_count(instance, n_trials, seed):
    cfg, p, _, _ = instance
    # repr is exact for floats and equal for nan, unlike ==.
    expected = repr(error_decomposition_check(cfg, p, n_trials, seed))
    for workers, chunk, stats in split_runs(
        lambda: error_decomposition_check(cfg, p, n_trials, seed), n_trials
    ):
        assert repr(stats) == expected, (workers, chunk)


@PROPERTY
@given(st.integers(0, 2**128 - 1), st.integers(0, 2**32 - 40), st.integers(1, 40))
@example(0, 0, 5)
@example(2**32 - 1, 3, 7)
@example(2**32, 0, 1)
@example(2**64, 17, 40)
@example(2**127, 2**32 - 40, 40)  # up to the last one-word trial index
def test_seed_words_equal_spawned_seed_sequences(seed, start, count):
    stop = start + count
    words = montecarlo._seed_words(seed, start, stop)
    assert words.shape == (count, 4) and words.dtype == np.uint64
    for i, (row, rng) in enumerate(zip(words, montecarlo._trial_streams(seed, stop, start))):
        spawned = np.random.SeedSequence(seed, spawn_key=(start + i,))
        assert np.array_equal(row, spawned.generate_state(4, np.uint64)), i
        reference = np.random.default_rng(spawned)
        assert np.array_equal(rng.standard_normal(3), reference.standard_normal(3)), i
        assert rng.integers(2**63) == reference.integers(2**63), i


def cn_expression(raw, counts):
    """The complex rows as one expression: two row copies, three complex
    temporaries."""
    counts = np.array(counts)
    sizes = counts.repeat(counts)
    re_row = np.arange(sizes.size) + (counts.cumsum() - counts).repeat(counts)
    return (raw[..., re_row, :] + 1j * raw[..., re_row + sizes, :]) / math.sqrt(2.0)


@st.composite
def raw_draws(draw):
    """Block sizes and a (trials, 2 * rows, n) array of finite floats, with
    signed zeros, subnormals and huge values among them."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    shape = (draw(st.integers(1, 3)), 2 * sum(counts), draw(st.integers(1, 5)))
    elements = st.floats(allow_nan=False, allow_infinity=False)
    return counts, draw(hnp.arrays(np.float64, shape, elements=elements))


@PROPERTY
@given(raw_draws())
@example(([2, 1], np.array([[[-0.0], [0.0], [-0.0], [-0.0], [1.5], [-0.0]]])))
def test_cn_equals_the_expression_bit_for_bit(draws):
    counts, raw = draws
    got = montecarlo._cn(raw, montecarlo._cn_rows(counts))
    assert np.array_equal(got.view(np.uint64), cn_expression(raw, counts).view(np.uint64))


@PROPERTY
@given(instances(sizes=big_ragged_sizes))
def test_allocations_are_row_views_of_one_read_only_buffer(instance):
    cfg, _, _, rng = instance
    users = cfg.users_per_cluster

    def spread(n, top):
        # Magnitudes over many decades, so a change in the order of the
        # additions in total() shows in its last bits.
        return rng.uniform(0.5, 1.0, n) * 10.0 ** rng.uniform(-8.0, top, n)

    for cls, field, sizes, top in (
        (UplinkPower, "p", users, 8.0),
        (DownlinkPower, "q", tuple(k + 1 for k in users), 8.0),
        (EstimationQuality, "rho", users, -0.5),
    ):
        x = spread(sum(sizes), top)
        copies = [np.array(r) for r in np.split(x, np.cumsum(sizes)[:-1])]
        for made in (cls.from_flat(cfg, x), cls(tuple(copies))):
            flat, rows = made.flat(), getattr(made, field)
            assert flat is made.flat() and flat.tobytes() == x.tobytes()
            assert [r.size for r in rows] == list(sizes)
            assert all(np.shares_memory(r, flat) for r in rows)
            assert made.total() == float(sum(r.sum() for r in copies))
            for view in (flat, *rows):
                with pytest.raises(ValueError, match="read-only"):
                    view[-1] = 0.0
        assert x.flags.writeable  # from_flat wrapped a copy


coordinates = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12)


@PROPERTY
@given(coordinates, st.data())
def test_box_projection_is_idempotent(x, data):
    bounds = st.lists(st.floats(-5.0, 5.0), min_size=len(x), max_size=len(x))
    lower = np.array(data.draw(bounds))
    box = Box(lower=lower, upper=lower + np.abs(data.draw(bounds)))
    once = project(box, x)
    assert np.all((box.lower <= once) & (once <= box.upper))
    assert np.array_equal(project(box, once), once)


@PROPERTY
@given(coordinates, st.data())
def test_box_projection_equals_clip(x, data):
    def bounds(finite, infinite):
        return st.lists(st.one_of(finite, st.just(infinite)), min_size=len(x), max_size=len(x))

    box = Box(
        lower=data.draw(bounds(st.floats(-5.0, 0.0), -math.inf)),
        upper=data.draw(bounds(st.floats(0.0, 5.0), math.inf)),
    )
    expected = np.clip(np.asarray(x, dtype=float), box.lower, box.upper)
    assert np.array_equal(project(box, x), expected)


@PROPERTY
@given(coordinates, st.floats(0.0, 1.0), st.booleans())
def test_capped_simplex_projection_is_idempotent(x, share, active):
    positive = float(np.maximum(x, 0.0).sum())
    # An active cap lies below the clipped sum, an inactive one at or above it.
    assume(positive > 0.0 or not active)
    cap = share * positive if active else positive + share
    assume(not active or cap < positive)
    once = project(CappedSimplex(cap), x)
    assert once.min() >= 0.0 and once.sum() <= cap + 1e-12
    if not active:
        assert np.array_equal(once, np.maximum(x, 0.0))
    np.testing.assert_allclose(project(CappedSimplex(cap), once), once, rtol=0.0, atol=1e-12)


@st.composite
def kernel_problems(draw):
    """(problem with a Hessian, start point, off): a concave quadratic or
    a log-sum minus a linear term, on a box or a capped simplex. On a
    "face" instance the optimum lies on the simplex's cap with the first
    `off` coordinates at 0 (their gradient is negative everywhere near
    it); `off` is None on the others."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    where = draw(st.sampled_from(["box", "simplex", "face"]))
    if where == "face":
        n = max(n, 2)
        off = draw(st.integers(1, n - 1))
    cap = rng.uniform(0.5, 3.0)
    if draw(st.booleans()):
        # Quadratic -1/2 (x - c)' Q (x - c). On a face instance the
        # coupling is too weak to move the optimum off the cap.
        root = rng.normal(size=(n, n)) * (1e-3 / n if where == "face" else 1.0)
        curvature = np.diag(rng.uniform(1.0, 10.0, n)) + root.T @ root
        center = rng.uniform(-2.0, 3.0, n)
        if where == "face":
            center = 2.0 * cap + rng.uniform(0.0, 1.0, n)
            center[:off] = -100.0

        def evaluate(x):
            diff = x - center
            return -0.5 * float(diff @ curvature @ diff), -curvature @ diff

        def hessian(x):
            return -curvature

        lower = rng.uniform(-1.0, 0.0, n)
    else:
        # sum_j w_j log2(a_j' x + b_j) - lin' x, with a, b > 0 so every
        # log argument is positive on x >= 0.
        form = LogAffine(
            A=rng.uniform(0.0, 1.0, (n + 2, n)),
            b=rng.uniform(0.1, 1.0, n + 2),
            w=rng.uniform(0.5, 2.0, n + 2),
        )
        lin = rng.uniform(-0.5, 3.0, n)
        if where == "face":
            lin = np.full(n, -1.0)
            lin[:off] = 1e3

        def evaluate(x):
            value, grad = form.evaluate(x)
            return value - float(lin @ x), grad - lin

        hessian = form.hessian
        lower = np.zeros(n)
    if where == "box":
        feasible_set = Box(lower=lower, upper=lower + rng.uniform(0.1, 2.0, n))
    else:
        feasible_set = CappedSimplex(cap)
    problem = ConcaveProblem(dim=n, evaluate=evaluate, feasible_set=feasible_set, hessian=hessian)
    x0 = project(feasible_set, rng.uniform(-1.0, 2.0, n))
    return problem, x0, off if where == "face" else None


@PROPERTY
@given(kernel_problems())
def test_newton_kernel_matches_the_gradient_kernel(instance):
    problem, x0, off = instance
    tol = 1e-7
    newton = maximize(problem, x0, tol=tol, max_iter=300)
    gradient = maximize(dataclasses.replace(problem, hessian=None), x0, tol=tol, max_iter=20000)
    # The gradient kernel may end at its backtracking floor near the
    # optimum, where rounding decides its Armijo test.
    assert newton.stop == "stationary" and gradient.stop != "cap"
    assert np.all(np.diff(newton.history) >= 0.0)
    assert abs(newton.value - gradient.value) <= tol * (1.0 + abs(gradient.value))
    if off is not None:
        cap = problem.feasible_set.cap
        assert newton.point.sum() == pytest.approx(cap, rel=1e-12)
        assert np.all(newton.point[:off] == 0.0)


def _kkt(rng, n_free):
    """A face step's KKT matrix [-H 1; 1' 0] for a random negative
    definite H of n_free variables."""
    root = rng.normal(size=(n_free, n_free))
    kkt = np.ones((n_free + 1, n_free + 1))
    kkt[:-1, :-1] = root.T @ root + np.diag(rng.uniform(1e-3, 10.0, n_free))
    kkt[-1, -1] = 0.0
    return kkt


@PROPERTY
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans(), st.floats(-8.0, 8.0))
def test_solve_equals_numpy_solve_bit_for_bit(n, seed, kkt, log_scale):
    rng = np.random.default_rng(seed)
    a = _kkt(rng, n - 1) if kkt and n > 1 else rng.normal(size=(n, n)) * 10.0**log_scale
    b = rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0)
    assert np.array_equal(_solve(a, b), np.linalg.solve(a, b))


@pytest.mark.parametrize(
    "a", [np.zeros((1, 1)), np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((3, 3))]
)
def test_solve_raises_on_a_singular_matrix(a):
    before = np.geterr(), np.geterrcall()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, np.ones(a.shape[0]))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _solve(a, np.ones(a.shape[0]))
    assert (np.geterr(), np.geterrcall()) == before


def _reference_newton_direction(feasible_set, x, grad, hess, target, eps):
    """The projected Newton direction with its active sets as numpy masks
    and np.linalg.solve: the rule `_newton_direction` must equal bit for
    bit."""
    if isinstance(feasible_set, CappedSimplex):
        cap = feasible_set.cap
        slack = cap - float(x.sum())
        if slack <= eps and np.maximum(x + grad, 0.0).sum() > cap:
            active = (x <= eps) & (target == 0.0)
            free = np.flatnonzero(~active)
            kkt = np.ones((free.size + 1, free.size + 1))
            kkt[:-1, :-1] = -hess[free[:, None], free]
            kkt[-1, -1] = 0.0
            solution = np.linalg.solve(kkt, np.append(grad[free], slack + x[active].sum()))
            direction = -x
            direction[free] = solution[:-1]
            return direction
        lower, upper = 0.0, np.inf
    else:
        lower, upper = feasible_set.lower, feasible_set.upper
    active = ((x <= lower + eps) & (grad < 0.0)) | ((x >= upper - eps) & (grad > 0.0))
    free = np.flatnonzero(~active)
    direction = grad.copy()
    if free.size:
        direction[free] = np.linalg.solve(-hess[free[:, None], free], grad[free])
    return direction


@st.composite
def newton_inputs(draw):
    """(feasible set, x, grad, hess, target, eps) with some variables at
    or within eps of their bounds, and on the capped set a sum at or near
    the cap, so that both active-set rules and the face step run."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    grad = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    grad[rng.random(n) < 0.2] = 0.0
    root = rng.normal(size=(n, n))
    hess = -(root.T @ root + np.diag(rng.uniform(0.0, 5.0, n)))
    # 0 free, 1 at a bound, 2 near one, 3 exactly eps inside one, 4 at the upper bound.
    place = rng.integers(0, 5, n)
    if draw(st.booleans()):
        lower, upper = rng.uniform(-1.0, 0.0, n), rng.uniform(0.5, 2.0, n)
        x = rng.uniform(lower, upper)
        x = np.where(place == 1, lower, x)
        x = np.where(place == 2, lower + eps * rng.uniform(0.0, 1.5, n), x)
        x = np.where(place == 3, np.where(rng.random(n) < 0.5, lower + eps, upper - eps), x)
        x = np.where(place == 4, upper, x)
        feasible_set = Box(lower=lower, upper=upper)
    else:
        x = rng.uniform(0.0, 1.0, n)
        x = np.where(place == 1, 0.0, x)
        x = np.where(place == 2, eps * rng.uniform(0.0, 1.5, n), x)
        x = np.where(place == 3, eps, x)
        cap = float(x.sum()) + draw(st.sampled_from([0.0, eps / 2, 1.0]))
        feasible_set = CappedSimplex(cap)
    return feasible_set, x, grad, hess, project(feasible_set, x + grad), eps


@PROPERTY
@given(newton_inputs())
def test_newton_direction_equals_the_mask_rule_bit_for_bit(inputs):
    try:
        expected = _reference_newton_direction(*inputs)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _newton_direction(*inputs)
        return
    assert np.array_equal(_newton_direction(*inputs), expected, equal_nan=True)


@PROPERTY
@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.5]) | st.floats(-10.0, 10.0),
        min_size=1,
        max_size=12,
    ),
    st.floats(0.0, 20.0),
)
def test_capped_simplex_projection_equals_the_sorted_rule_bit_for_bit(x, cap):
    x = np.array(x)
    clipped = np.maximum(x, 0.0)
    if clipped.sum() <= cap:
        expected = clipped
    else:
        u = np.sort(x)[::-1]
        excess = np.cumsum(u) - cap
        active = u - excess / np.arange(1, x.size + 1) > 0.0
        active[0] = True
        r = int(np.nonzero(active)[0][-1]) + 1
        expected = np.maximum(x - excess[r - 1] / r, 0.0)
    got = _project_capped_simplex(x, cap)
    assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))


@PROPERTY
@given(
    st.lists(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324])
        | st.floats(allow_nan=True, allow_infinity=True),
        min_size=1,
        max_size=40,
    )
)
def test_all_finite_equals_numpys_isfinite(values):
    v = np.array(values)
    assert _all_finite(v) is bool(np.isfinite(v).all())


@PROPERTY
@given(kernel_problems(), st.sampled_from(["float", "0-d"]))
def test_box_with_scalar_bounds_takes_the_same_steps(instance, kind):
    problem, _, _ = instance
    assume(isinstance(problem.feasible_set, Box))
    n = problem.dim
    # Inside the problem's own box, where its log arguments are positive.
    lower = float(problem.feasible_set.lower.max())
    upper = lower + 1.0
    if kind == "float":
        scalar = Box(lower=lower, upper=upper)
    else:
        scalar = Box(lower=np.array(lower), upper=np.array(upper))
    full = Box(lower=np.full(n, lower), upper=np.full(n, upper))
    x0 = np.linspace(lower, upper, n)
    runs = [maximize(dataclasses.replace(problem, feasible_set=box), x0) for box in (scalar, full)]
    assert runs[0].history == runs[1].history
    assert np.array_equal(runs[0].point, runs[1].point)
    assert (runs[0].iterations, runs[0].stop, runs[0].fallbacks) == (
        runs[1].iterations, runs[1].stop, runs[1].fallbacks
    )


@st.composite
def sweep_specs(draw):
    """A sweep spec over 1-5 points of any axis, on a small layout: 1-2
    clusters of 1-2 users, or on the users_per_cluster axis a drawn pool
    of 4 gains. No circuit power: the EE solve adds time, not paths."""
    axis = draw(st.sampled_from(["n_antennas", "q_max_db", "p_max_db", "users_per_cluster"]))
    grid = {
        "n_antennas": [2, 3, 4, 6, 8, 12, 16],
        "q_max_db": [-10.0, -5.0, 0.0, 5.0, 10.0, 20.0],
        "p_max_db": [-10.0, -3.0, 0.0, 5.0, 10.0],
        "users_per_cluster": [1, 2, 4],
    }[axis]
    values = sorted(draw(st.lists(st.sampled_from(grid), min_size=1, max_size=5, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(tiny_sizes)
    clusters = tuple(tuple(np.sort(rng.uniform(0.5, 100.0, k))[::-1].tolist()) for k in sizes)
    pool = axis == "users_per_cluster"
    return ExperimentSpec(
        scenario="property",
        n_antennas=draw(st.sampled_from([4, 8])),
        coherence_len=300,
        eav_gain=draw(st.sampled_from([0.0, 10.0])),
        pilot_len=None,
        clusters=None if pool else clusters,
        n_clusters=None,
        users_per_cluster=1 if pool else None,
        total_users=4 if pool else None,
        p_max_db=0.0,
        q_max_db=10.0,
        circuit_power_db=None,
        an_fraction=0.2,
        sweep_axis=axis,
        sweep_values=tuple(values),
        trials=1,
        seed=draw(st.integers(0, 2**16)),
        output=None,
    )


def sweep_bytes(spec, workers):
    """run_sweep's two files with the worker count forced to `workers`,
    or the error it raised."""
    cpus = set(range(workers))
    with mock.patch.object(os, "sched_getaffinity", lambda pid: cpus, create=True):
        assert _workers.available_cpus() == workers
        with tempfile.TemporaryDirectory() as tmp:
            try:
                paths = run_sweep(spec, os.path.join(tmp, "sweep.csv"))
            except ValueError as exc:
                return "error: %s" % exc
            return [open(path, "rb").read() for path in paths]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(sweep_specs())
def test_sweep_bytes_equal_for_any_worker_count(spec):
    expected = sweep_bytes(spec, 1)
    for workers in (2, 3, 4):
        assert sweep_bytes(spec, workers) == expected, workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def exact(value):
    """The bits of a solver result, for equality: arrays and allocations
    as bytes, floats by repr, containers element by element."""
    if isinstance(value, (UplinkPower, DownlinkPower)):
        return value.flat().tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if dataclasses.is_dataclass(value):
        return {f.name: exact(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    return value


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    instances(),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.sampled_from([1.0, 10.0, 100.0]),
    st.sampled_from([1, 3, 50]),
    st.sampled_from([1, 4]),
    st.sampled_from([0.0, 0.2, 0.6]),
)
def test_passed_uplink_baseline_equals_a_fresh_solve(instance, p_max, q_max, max_inner, max_outer,
                                                     an_fraction):
    cfg = instance[0]
    options = SolveOptions(max_inner=max_inner, max_outer=max_outer)
    fresh = maximize_se(cfg, p_max, q_max, options, an_fraction)
    uplink = baseline_uplink_se(cfg, p_max, q_max, options, an_fraction)
    reused = maximize_se(cfg, p_max, q_max, options, an_fraction, _uplink=uplink)
    assert exact(reused) == exact(fresh)
