"""Property tests on random ragged layouts: 1-4 clusters of 1-4 users,
cluster sizes unequal whenever there is more than one cluster, since the
flat per-user layout's segment offsets are what such layouts exercise."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_secrecy.model import (
    ClusterConfig,
    DownlinkPower,
    SystemConfig,
    UplinkPower,
    compute_rho,
)
from noma_secrecy.optimize import (
    _downlink_coeffs,
    _downlink_parts,
    _uplink_coeffs,
    _uplink_parts,
    downlink_dc_step,
    smooth_secrecy_sum,
    uplink_dc_step,
)
from noma_secrecy.projgrad import finite_difference_gradient
from noma_secrecy.rates import (
    chi_mean,
    eaves_rate,
    legit_rate,
    oma_report,
    secrecy_report,
    sinr_terms,
)

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)
GRADIENT_RTOL = 1e-5  # the acceptance suite's finite-difference bound

ragged_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda sizes: len(sizes) == 1 or len(set(sizes)) > 1
)
single_user_sizes = st.integers(1, 4).map(lambda m: [1] * m)


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
    up = _uplink_coeffs(cfg, q)
    _, g1, _, g2 = _uplink_parts(cfg, up, p.flat())
    fd1 = finite_difference_gradient(lambda x: _uplink_parts(cfg, up, x)[0], p.flat())
    fd2 = finite_difference_gradient(lambda x: _uplink_parts(cfg, up, x)[2], p.flat())
    assert _rel_err(g1, fd1) < GRADIENT_RTOL
    assert _rel_err(g2, fd2) < GRADIENT_RTOL

    down = _downlink_coeffs(cfg, compute_rho(cfg, p))
    _, cg, _, sg = _downlink_parts(cfg, down, q.flat())
    fd_c = finite_difference_gradient(lambda x: _downlink_parts(cfg, down, x)[0], q.flat())
    fd_s = finite_difference_gradient(lambda x: _downlink_parts(cfg, down, x)[2], q.flat())
    assert _rel_err(cg, fd_c) < GRADIENT_RTOL
    assert _rel_err(sg, fd_s) < GRADIENT_RTOL


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
