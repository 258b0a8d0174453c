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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noma_secrecy import montecarlo
from noma_secrecy.experiments import ExperimentSpec, _fmt, build_config, run_validate
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
    ergodic_rate_oracle,
    error_decomposition_check,
    moment_suite,
    simulate_trials,
)
from noma_secrecy.optimize import (
    LogAffine,
    SolveOptions,
    _downlink_coeffs,
    _downlink_forms,
    _downlink_stage,
    _stage_objective,
    _surrogate,
    _uplink_coeffs,
    _uplink_forms,
    _uplink_stage,
    baseline_fixed,
    downlink_dc_step,
    maximize_ee,
    smooth_secrecy_sum,
    uplink_dc_step,
)
from noma_secrecy.projgrad import (
    Box,
    CappedSimplex,
    ConcaveProblem,
    finite_difference_gradient,
    maximize,
    project,
)
from noma_secrecy.rates import (
    chi_mean,
    eaves_rate,
    legit_rate,
    oma_report,
    secrecy_report,
    sinr_terms,
)

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
    for m in range(cfg.n_clusters):
        np.testing.assert_allclose(report.legit[m], legit[m], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(report.eaves[m], eaves[m], rtol=1e-12, atol=0.0)
        for k in range(cfg.users_per_cluster[m]):
            # The scalar views read the same evaluator.
            assert legit_rate(cfg, rho, q, m, k, exact_gain) == report.legit[m][k]
            assert eaves_rate(cfg, q, m, k) == report.eaves[m][k]
            terms = sinr_terms(cfg, rho, q, m, k, exact_gain)
            rate = cfg.overhead * math.log2(1.0 + terms.sinr)
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


@PROPERTY
@given(instances(), lams, st.floats(0.01, 5.0))
def test_prebuilt_stage_objectives_equal_the_stage_objective(instance, lam, circuit):
    # Exactly equal: the prebuilt objectives repeat `_stage_objective`'s
    # arithmetic operation for operation, and the solvers' bytes rely on it.
    cfg, p, q, _ = instance
    expected = _stage_objective(cfg, p, q, lam, circuit)
    uplink = _uplink_stage(cfg, q, 1.0, lam, circuit)
    downlink = _downlink_stage(cfg, compute_rho(cfg, p), 10.0, lam, circuit, p.total())
    assert uplink.objective(p) == expected
    assert downlink.objective(q) == expected


@PROPERTY
@given(instances(), st.sampled_from([0.0, 0.3]), st.booleans())
def test_surrogate_reuses_its_log_arguments_exactly(instance, lam, downlink):
    cfg, p, q, rng = instance
    if downlink:
        stage, x_prev = _downlink_stage(cfg, compute_rho(cfg, p), 100.0, lam), q.flat()
    else:
        stage, x_prev = _uplink_stage(cfg, q, 1.0, lam), p.flat()
    problem = _surrogate(cfg, stage, x_prev)
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
@given(instances(), st.sampled_from([0.0, 0.2]))
def test_dc_steps_never_lower_the_stage_objective(instance, penalty):
    cfg, p, q, _ = instance

    def stage(p, q):
        return smooth_secrecy_sum(cfg, p, q) - penalty * (p.total() + q.total())

    before = stage(p, q)
    p_next = uplink_dc_step(cfg, q, p, p_max=1.0, penalty=penalty)
    after_up = stage(p_next, q)
    assert after_up >= before - 1e-9

    q_next = downlink_dc_step(cfg, compute_rho(cfg, p_next), q, q_max=100.0, penalty=penalty)
    assert stage(p_next, q_next) >= after_up - 1e-9
    assert q_next.total() <= 100.0 + 1e-9


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
    expected = [
        ("moment", s.name, _fmt(s.cluster + 1), _fmt(None if s.user is None else s.user + 1))
        + (_fmt(s.empirical), _fmt(s.stderr))
        for s in moment_suite(cfg, p, q, n_trials, spec.seed)
    ]
    oracle = ergodic_rate_oracle(cfg, p, q, n_trials, spec.seed)
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
