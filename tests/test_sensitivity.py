import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trajsense import (
    DynamicsMode,
    JointState,
    PolicySpec,
    SampleSet,
    basis_directions,
    build_jacobian_stack,
    build_sample_sets,
    build_samples,
    cosine_alignment,
    evaluate,
    fit_gp,
    fit_sensitivity_model,
    gp_score,
    reconstruct_linear,
    rollout,
)
from scipy.linalg import cho_solve

from trajsense import gp as gp_mod
from trajsense import sensitivity as sensitivity_mod
from trajsense.align import align_zero_crossing
from trajsense.errors import (
    ConfigError,
    DatasetError,
    DegenerateScoreError,
    FitError,
    InsufficientDataError,
    LandmarkMissingError,
    UndefinedAlignmentError,
    UntrainedTimestepError,
)
from trajsense.gp import ExactGP, _cholesky_with_jitter
from trajsense.perturb import DirectionBasis
from trajsense.sensitivity import PER_TIMESTEP_COLUMNS, SensitivityModel
from trajsense import io as tio
from trajsense.sensitivity import align_recording
from trajsense.sim import START_POSE, Trajectory, inject_temporal_noise, rollout_batch
from trajsense.voxel import voxelize_trajectory

import oracles
from oracles import pendulum3_pd_sensitivities, ramp_torque_jacobian

LINEAR = DynamicsMode("linear", damping=0.0)
DT = 0.01
RAMP_THETA = np.array([1e-5, 1e-4, -1e-5, -0.28, -0.15, -0.08])


def ramp_policy(theta=None):
    return PolicySpec("linear_openloop", RAMP_THETA if theta is None else theta)


def ramp_rollout(theta=None, T=300):
    return rollout(ramp_policy(theta), JointState(START_POSE, np.zeros(3)), T, DT,
                   LINEAR)


def analytic_jacobian(n):
    """d(angles_n)/d(theta) for the ramp controller in linear mode: (3, 6)."""
    dx_dw, dx_db = ramp_torque_jacobian(DT, n)
    J = np.zeros((3, 6))
    for i in range(3):
        J[i, i] = dx_dw
        J[i, 3 + i] = dx_db
    return J


# -- build_samples -------------------------------------------------------------


def test_tiny_perturbation_gives_tiny_delta():
    source = ramp_rollout(T=100)
    delta = 1e-9 * np.linalg.norm(RAMP_THETA) * np.ones(6) / np.sqrt(6)
    pert = ramp_rollout(RAMP_THETA + delta, T=100)
    samples = build_samples(source, [(delta, pert)])
    assert len(samples) == 101
    assert samples.delta_x.shape == (1, 101, 3)
    assert np.max(np.abs(samples.delta_x)) < 1e-8


def test_delta_matches_analytic_jacobian():
    source = ramp_rollout()
    rng = np.random.default_rng(0)
    delta = rng.normal(size=6) * 1e-3
    pert = ramp_rollout(RAMP_THETA + delta)
    samples = build_samples(source, [(delta, pert)])
    for t, dx in enumerate(samples.delta_x[0]):
        expect = analytic_jacobian(t) @ delta
        assert np.allclose(dx, expect, atol=1e-6)


def test_build_samples_validates_inputs():
    source = ramp_rollout(T=50)
    with pytest.raises(DatasetError):
        build_samples(source, [(np.zeros(6), ramp_rollout(T=50))])
    with pytest.raises(DatasetError):
        build_samples(source, [(np.ones(6), ramp_rollout(T=60))])


def test_build_sample_sets_takes_each_recording_once_for_every_gamma(lagged_ramps,
                                                                     monkeypatch):
    source, trajs = lagged_ramps
    deltas = np.random.default_rng(3).normal(size=(len(trajs), 6))
    gammas = (None, 0.01, 0.04)
    aligned = []
    real = align_recording
    monkeypatch.setattr(sensitivity_mod, "align_recording",
                        lambda *args: aligned.append(1) or real(*args))
    sets = build_sample_sets(source, deltas, iter(trajs), "correlation", 20, gammas)
    assert len(aligned) == len(trajs)
    for gamma, samples in zip(gammas, sets):
        one = build_samples(source, list(zip(deltas, trajs)), "correlation", 20, gamma)
        assert np.array_equal(samples.delta_theta, one.delta_theta)
        assert np.array_equal(samples.delta_x, one.delta_x)


def test_build_sample_sets_names_the_recording_at_fault():
    source = ramp_rollout(T=50)
    deltas = np.ones((3, 6))
    trajs = [ramp_rollout(T=50) for _ in range(3)]
    # one row of delta_theta per recording, no more and no fewer
    for n in (2, 4):
        with pytest.raises(DatasetError, match="one recording per row of delta_theta"):
            build_sample_sets(source, np.ones((n, 6)), iter(trajs))
    # a recording without a meta["path"] is named by its position
    deltas[2] = 0.0
    with pytest.raises(DatasetError, match="^recording 2: delta_theta must be nonzero"):
        build_sample_sets(source, deltas, iter(trajs))
    trajs[1] = ramp_rollout(T=60)
    trajs[1].meta["path"] = "trajectories/sample_0001.csv"
    with pytest.raises(DatasetError, match="^trajectories/sample_0001.csv: .*length"):
        build_sample_sets(source, deltas, iter(trajs))


def test_build_samples_realigns_shifted_trajectory():
    source = ramp_rollout()
    delta = np.array([0, 0, 0, 1e-3, 0, 0.0])
    pert = ramp_rollout(RAMP_THETA + delta)
    lagged = inject_temporal_noise(pert, 8)
    aligned = build_samples(source, [(delta, lagged)], "correlation", 20).delta_x[0]
    raw = build_samples(source, [(delta, lagged)]).delta_x[0]
    # interior timesteps recover the un-lagged differences
    expect = build_samples(source, [(delta, pert)]).delta_x[0]
    assert np.allclose(aligned[20:281], expect[20:281], atol=1e-9)
    raw_err = np.mean(np.abs(raw - expect).max(axis=1))
    aligned_err = np.mean(np.abs(aligned - expect).max(axis=1))
    assert aligned_err < 0.01 * raw_err


def test_build_samples_voxelizes_when_configured():
    source = ramp_rollout(T=50)
    delta = np.array([0, 0, 0, 1e-2, 0, 0.0])
    pert = ramp_rollout(RAMP_THETA + delta, T=50)
    samples = build_samples(source, [(delta, pert)], gamma=0.04)
    width = 0.08
    ratio = samples.delta_x / width
    assert np.allclose(ratio, np.round(ratio), atol=1e-9)


@pytest.fixture(scope="module")
def lagged_ramps():
    """A source and 24 perturbed ramp recordings, each lagged by up to 8 steps."""
    rng = np.random.default_rng(11)
    deltas = rng.normal(size=(24, 6)) * 1e-2
    trajs = rollout_batch(ramp_policy(), RAMP_THETA + deltas,
                          JointState(START_POSE, np.zeros(3)), 200, DT, LINEAR)
    return ramp_rollout(T=200), [inject_temporal_noise(tr, int(rng.integers(-8, 9)))
                                 for tr in trajs]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("align_method, gamma", [
    ("none", None),
    ("correlation", None),
    ("none", 0.04),
    ("correlation", 0.01),
], ids=["raw", "correlation", "voxel", "correlation-voxel"])
def test_dense_build_and_writer_match_the_object_oracle(tmp_path, lagged_ramps, m,
                                                        align_method, gamma):
    source, trajs = lagged_ramps
    # build_samples only carries delta_theta along, so any nonzero m-vectors
    # can label the recordings; spread exponents exercise the printed digits
    rng = np.random.default_rng(m)
    labels = rng.normal(size=(len(trajs), m)) * 10.0 ** rng.integers(-4, 2, size=(len(trajs), 1))
    if m >= 2:
        # rows where a vectorized norm rounds differently from a 1-D norm
        per_row = [np.linalg.norm(v) for v in labels]
        assert np.any(per_row != np.linalg.norm(labels, axis=1))
    pairs = list(zip(labels, trajs))
    samples = build_samples(source, pairs, align_method, 20, gamma)

    prep = lambda tr: voxelize_trajectory(tr, gamma) if gamma else tr  # noqa: E731
    ref = oracles.object_build_samples(
        prep(source).angles,
        [(d, prep(align_recording(source, d, tr, align_method, 20)).angles) for d, tr in pairs])
    assert len(samples) == len(ref) == 24 * 201
    assert np.array_equal(samples.delta_x.reshape(-1, 3), [s.delta_x for s in ref])
    assert np.array_equal(samples.delta_theta.repeat(201, axis=0),
                          [s.delta_theta for s in ref])

    new, old = str(tmp_path / "new.csv"), str(tmp_path / "old.csv")
    tio.write_samples(samples, new)
    oracles.csv_write_samples(ref, old)
    assert Path(new).read_bytes() == Path(old).read_bytes()


# -- directional derivative ----------------------------------------------------


def test_directional_derivative_matches_oracle():
    source = ramp_rollout()
    rng = np.random.default_rng(1)
    delta = rng.normal(size=6) * 1e-4
    pert = ramp_rollout(RAMP_THETA + delta)
    samples = build_samples(source, [(delta, pert)])
    unit = delta / np.linalg.norm(delta)
    per_unit = samples.delta_x[0] / np.linalg.norm(samples.delta_theta[0])
    for t in range(0, 301, 50):
        expect = analytic_jacobian(t) @ unit
        assert np.allclose(per_unit[t], expect, atol=1e-6)


# -- linear reconstruction -----------------------------------------------------


def make_stack(theta=None, T=200, scale=1e-4, timesteps=None):
    theta = RAMP_THETA if theta is None else theta
    x0 = JointState(START_POSE, np.zeros(3))

    def run(delta):
        return rollout(ramp_policy(theta + delta), x0, T, DT, LINEAR).angles

    basis = basis_directions(6, scale)
    return build_jacobian_stack(run, basis, timesteps=timesteps), basis


def test_reconstruct_basis_column_selection():
    stack, basis = make_stack()
    col = reconstruct_linear(stack, basis.Lambda[:, 2], t=100)
    assert np.allclose(col, stack.matrices[100][:, 2])
    assert np.allclose(reconstruct_linear(stack, np.zeros(6), t=100), 0.0)


def test_reconstruct_reads_the_basis_its_stack_was_probed_along():
    # a rotated orthonormal basis: the stack's columns are derivatives along
    # its columns, so reconstruction must project onto that basis, not the
    # coordinate axes
    Q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(6, 6)))
    basis = DirectionBasis(Lambda=Q, steps=1e-4 * Q)
    x0 = JointState(START_POSE, np.zeros(3))

    def run(delta):
        return rollout(ramp_policy(RAMP_THETA + delta), x0, 200, DT, LINEAR).angles

    stack = build_jacobian_stack(run, basis, timesteps=[100])
    delta = 1e-3 * np.random.default_rng(12).normal(size=6)
    truth = run(delta)[100] - run(np.zeros(6))[100]
    assert np.allclose(reconstruct_linear(stack, delta, 100), truth, rtol=1e-5, atol=1e-10)
    assert np.allclose(reconstruct_linear(stack, Q[:, 4], 100), stack.matrices[100][:, 4])


def test_reconstruct_missing_timestep():
    stack, basis = make_stack(timesteps=[0, 50, 100])
    with pytest.raises(UntrainedTimestepError):
        reconstruct_linear(stack, np.ones(6), t=77)


def test_reconstruct_matches_fresh_rollout_linear_mode():
    stack, basis = make_stack()
    rng = np.random.default_rng(2)
    source = ramp_rollout(T=200)
    for _ in range(5):
        delta = rng.normal(size=6) * 1e-3
        pert = ramp_rollout(RAMP_THETA + delta, T=200)
        for t in (50, 100, 200):
            recon = reconstruct_linear(stack, delta, t)
            truth = pert.angles[t] - source.angles[t]
            assert np.allclose(recon, truth, rtol=1e-5, atol=1e-10)


def test_reconstruct_first_order_in_pendulum_mode():
    mode = DynamicsMode("pendulum3", damping=0.5, gravity_gain=0.3)
    x0 = JointState(START_POSE, np.zeros(3))
    theta = np.array([0.0, 0.0, 0.0, 0.1, -0.05, 0.08])

    def run(delta):
        return rollout(ramp_policy(theta + delta), x0, 200, DT, mode).angles

    basis = basis_directions(6, 1e-6)
    stack = build_jacobian_stack(run, basis, timesteps=[150])
    base = run(np.zeros(6))
    rng = np.random.default_rng(3)
    direction = rng.normal(size=6)
    direction /= np.linalg.norm(direction)
    errs = []
    for scale in (2e-2, 1e-2):
        delta = scale * direction
        truth = run(delta)[150] - base[150]
        recon = reconstruct_linear(stack, delta, 150)
        errs.append(np.linalg.norm(recon - truth))
    assert errs[1] <= errs[0] / 3.5  # close to the quadratic factor of 4


def test_jacobian_stack_converges_to_the_exact_pendulum3_sensitivities():
    # forward differences on pd_u's dynamics, gains and target: first order,
    # so the error falls 10x with the step
    mode = DynamicsMode("pendulum3", damping=0.8, gravity_gain=0.3)
    x_star = np.array([np.pi / 10, 3 * np.pi / 4, 7 * np.pi / 12])
    theta, x0 = np.array([1.0, 0.01]), JointState(START_POSE, np.zeros(3))
    _, exact, _, _, _ = pendulum3_pd_sensitivities(START_POSE, np.zeros(3), *theta, x_star,
                                                   DT, 1500, mode.damping, mode.gravity_gain)

    def run(delta):
        policy = PolicySpec("pd_feedback", theta + delta, {"x_star": x_star})
        return rollout(policy, x0, 1500, DT, mode).angles

    timesteps = (300, 900, 1400)
    errors = []
    for scale in (1e-4, 1e-5):
        stack = build_jacobian_stack(run, basis_directions(2, scale), timesteps=timesteps)
        errors.append([np.abs(stack.matrices[t] - exact[t]).max() / np.abs(exact[t]).max()
                       for t in timesteps])
    assert np.allclose(np.divide(*errors), 10, rtol=0.05)
    assert max(errors[1]) < 1e-4


# -- GP fitting and prediction ---------------------------------------------------


def linear_map_samples(n=30, t=10, seed=0):
    """delta_x = J delta_theta at timestep t; all-zero changes before it."""
    rng = np.random.default_rng(seed)
    J = np.array([[0.5, -0.2], [0.1, 0.8], [-0.3, 0.4]])
    D = rng.uniform(-1, 1, size=(n, 2))
    delta_x = np.zeros((n, t + 1, 3))
    delta_x[:, t] = D @ J.T
    return SampleSet(delta_theta=D, delta_x=delta_x), J


def zero_source(samples):
    """An all-zero source trajectory as long as samples' recordings, for
    samples that were not differenced against one."""
    n, d = samples.n_steps, samples.delta_x.shape[2]
    return Trajectory(DT, np.zeros((n + 1, d)), np.zeros((n + 1, d)), np.zeros((n, d)))


def test_fit_gp_reproduces_training_targets():
    samples, _ = linear_map_samples()
    model = fit_gp(samples, t=10)
    X = samples.delta_theta
    Y = samples.delta_x[:, 10]
    pred, _ = model.predict(X)
    for i in range(3):
        assert gp_score(Y[:, i], pred[:, i]) >= 0.99


def test_fit_gp_pins_origin():
    # the (0, 0) anchor is a training point, so the posterior mean at zero
    # stays within the fitted noise level of zero
    samples, _ = linear_map_samples()
    model = fit_gp(samples, t=10)
    mean, _ = model.predict(np.zeros((1, 2)))
    assert np.allclose(mean, 0.0, atol=2e-5)


def test_fit_gp_requires_two_samples():
    samples, _ = linear_map_samples(n=1)
    with pytest.raises(InsufficientDataError):
        fit_gp(samples, t=10)
    samples, _ = linear_map_samples(n=5)
    with pytest.raises(InsufficientDataError):
        fit_gp(samples, t=11)


def test_fit_gp_names_the_timestep_and_dimension_that_failed():
    samples, _ = linear_map_samples()
    samples.delta_x[7, 10, 1] = np.nan
    with pytest.raises(FitError, match="timestep 10, dimension 1") as info:
        fit_gp(samples, t=10)
    assert isinstance(info.value.__cause__, ValueError)
    fit_gp(samples, t=9)  # the other timesteps still fit


def test_fit_gp_warm_starts_from_its_predecessor_unless_that_is_degenerate(monkeypatch):
    samples, _ = linear_map_samples()
    flat = fit_gp(samples, t=0)  # the all-zero map
    assert flat.degenerate.all()
    cold = fit_gp(samples, t=10)
    # a degenerate predecessor lends nothing: the random draw stays
    for a, b in zip(cold.state()[2], fit_gp(samples, t=10, warm=flat).state()[2]):
        assert np.array_equal(a, b)
    warms, real_starts = [], gp_mod._starts
    monkeypatch.setattr(gp_mod, "_starts", lambda *args: warms.append(args[4])
                        or real_starts(*args))
    fit_gp(samples, t=10, warm=cold)
    assert len(warms) == 3
    for w, phi in zip(warms, cold.state()[2]):
        assert np.array_equal(w, phi)


def pd_samples(n=30, T=300):
    """Kp-perturbed PD rollouts of the 3-link pendulum, differenced against the
    unperturbed one: the kind of data the pipeline fits."""
    x_star = np.array([0.3141592653589793, 2.356194490192345, 1.8325957145940461])
    mode = DynamicsMode("pendulum3", damping=0.8, gravity_gain=0.3)
    x0 = JointState(START_POSE, np.zeros(3))
    deltas = np.column_stack([np.random.default_rng(3).uniform(-0.5, 1.5, n), np.zeros(n)])
    policy = PolicySpec("pd_feedback", np.array([1.0, 0.01]), {"x_star": x_star})
    trajs = rollout_batch(policy, policy.theta + np.vstack([np.zeros((1, 2)), deltas]), x0,
                          T, DT, mode)
    return build_samples(trajs[0], list(zip(deltas, trajs[1:])))


def test_warm_chain_needs_fewer_likelihood_evaluations(monkeypatch):
    samples = pd_samples()
    timesteps = range(20, samples.n_steps + 1, 20)
    calls = [0]
    real = ExactGP._nll_and_grad

    def counted(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(ExactGP, "_nll_and_grad", counted)
    chain = fit_sensitivity_model(samples, timesteps, zero_source(samples), np.zeros(2),
                                  n_restarts=2, seed=1)
    warm_calls, calls[0] = calls[0], 0
    for t in timesteps:
        fit_gp(samples, t, n_restarts=2, seed=1)  # each timestep on its own
    assert warm_calls < calls[0]
    assert chain.timesteps == list(timesteps)


def test_model_predicts_held_out_perturbations():
    samples, J = linear_map_samples(n=60, seed=4)
    model = fit_sensitivity_model(samples, [10], zero_source(samples), np.zeros(2))
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = rng.uniform(-0.8, 0.8, size=2)
        mean, std = model.model_at(10).predict(d)
        assert np.all(np.abs(mean[0] - J @ d) <= 3 * std[0] + 1e-6)
    with pytest.raises(UntrainedTimestepError):
        model.model_at(11)


def test_gp_matches_analytic_jacobian_in_linear_mode():
    # perturb the slope and offset of one joint, the regime the GP maps see
    # in practice, and compare against the closed-form Jacobian-vector product
    source = ramp_rollout(T=100)
    rng = np.random.default_rng(6)
    scale = 1e-3

    def draw(s):
        delta = np.zeros(6)
        delta[0] = rng.normal() * s
        delta[3] = rng.normal() * s
        return delta

    perturbed = [(d, ramp_rollout(RAMP_THETA + d, T=100))
                 for d in (draw(scale) for _ in range(80))]
    samples = build_samples(source, perturbed)
    model = fit_sensitivity_model(samples, timesteps=[40, 100], source=source,
                                  nominal_theta=RAMP_THETA)
    for t in (40, 100):
        J = analytic_jacobian(t)
        for _ in range(10):
            delta = draw(scale * 0.5)
            mean = model.model_at(t).predict(delta)[0][0]
            truth = J @ delta
            assert np.linalg.norm(mean - truth) <= 1e-3 * np.linalg.norm(truth) + 1e-12


def test_gp_derivative_at_zero_matches_the_exact_pendulum3_sensitivity():
    # the paper's central claim, scored: the GP maps' slope along kp at
    # delta = 0, by central differences of the posterior mean, against the
    # exact d angles / d kp of the README's PD policy (no torque clips and no
    # joint hits a stop, so the oracle's derivative is the true one). Measured:
    # relative errors 8e-6..4e-5 up to t = 1200 and 3.0e-3 at t = 1500, where
    # the settled arm's sensitivity is small; cosines >= 0.9999995
    mode = DynamicsMode("pendulum3", damping=0.8, gravity_gain=0.3)
    x_star, x0 = np.array([0.31, 2.36, 1.83]), JointState(START_POSE, np.zeros(3))
    policy = PolicySpec("pd_feedback", [0.4, 0.01], {"x_star": x_star})
    T, timesteps, h = 1500, [100, 300, 600, 900, 1200, 1500], 1e-4
    _, dx, _, clipped, clamped = pendulum3_pd_sensitivities(START_POSE, np.zeros(3), 0.4, 0.01,
                                                            x_star, DT, T, 0.8, 0.3)
    assert clipped == clamped == 0
    kps = np.random.default_rng(0).uniform(0.2, 0.6, size=20)
    thetas = np.column_stack([kps, np.full(kps.size, 0.01)])
    source = rollout(policy, x0, T, DT, mode)
    recordings = rollout_batch(policy, thetas, x0, T, DT, mode)
    samples = build_samples(source, list(zip(thetas - policy.theta, recordings)))
    model = fit_sensitivity_model(samples, timesteps, source, policy.theta)
    for t in timesteps:
        mean, _ = model.model_at(t).predict(np.array([[h, 0.0], [-h, 0.0]]), std=False)
        slope, exact = (mean[0] - mean[1]) / (2 * h), dx[t, :, 0]
        rel = np.linalg.norm(slope - exact) / np.linalg.norm(exact)
        assert rel < (1e-3 if t <= 1200 else 5e-2), (t, rel)
        assert slope @ exact / (np.linalg.norm(slope) * np.linalg.norm(exact)) > 0.9999, t


def test_model_save_load_round_trip(tmp_path):
    samples, _ = linear_map_samples(n=40, seed=7)
    model = fit_sensitivity_model(samples, [10], zero_source(samples), np.zeros(2))
    path = tmp_path / "model.npz"
    model.save(path)
    from trajsense.sensitivity import SensitivityModel

    loaded = SensitivityModel.load(path)
    q = np.array([[0.3, -0.4]])
    m1, s1 = model.model_at(10).predict(q)
    m2, s2 = loaded.model_at(10).predict(q)
    assert np.array_equal(m1, m2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(loaded.delta_low, model.delta_low)



def _restore_by_refit(X, y, phi):
    """The former load path, written out by hand: standardize the inputs,
    write the stored hyperparameters into a one-column GP on the targets y
    (n,), and factorize a kernel built from the (n, n, m) tensor of squared
    differences. Returns the GP and that factor, which its variance is to
    read."""
    gp = ExactGP()
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    gp._y = y[:, None]
    scale = X.std(axis=0)
    scale[scale < 1e-12] = 1.0
    gp._X_raw, gp._x_mean, gp._x_scale = X, X.mean(axis=0), scale
    gp._X = (X - gp._x_mean) / gp._x_scale
    gp.degenerate = np.array([float(np.var(gp._y)) < gp_mod._TARGET_VAR_FLOOR])
    m = X.shape[1]
    gp.phi = np.asarray(phi, dtype=float)[None]
    log_ls, log_sf2, log_sn2 = phi[:m], float(phi[m]), float(phi[m + 1])
    d2 = (gp._X[:, None, :] - gp._X[None, :, :]) ** 2 / np.exp(log_ls) ** 2
    K = np.exp(log_sf2) * np.exp(-0.5 * d2.sum(axis=2))
    K += np.exp(log_sn2) * np.eye(gp._X.shape[0])
    L, jitter = _cholesky_with_jitter(K, scale=np.exp(log_sf2))
    gp.jitter = np.array([jitter])
    gp.alpha = cho_solve((L, True), y)[None]
    return gp, L


def test_model_load_factorizes_once_and_predicts_as_the_refit_did(tmp_path, monkeypatch):
    # timestep 0 has all-zero targets: the degenerate flat-prior GP
    samples, _ = linear_map_samples(n=40, seed=7)
    model = fit_sensitivity_model(samples, [0, 10], zero_source(samples), np.zeros(2))
    path = tmp_path / "model.npz"
    model.save(path)

    calls, stacks = [], []
    real, real_stack = gp_mod._cholesky_with_jitter, gp_mod._sq_dist_stack
    monkeypatch.setattr(gp_mod, "_cholesky_with_jitter",
                        lambda K, scale=1.0: calls.append(1) or real(K, scale))
    monkeypatch.setattr(gp_mod, "_sq_dist_stack",
                        lambda A, B=None: stacks.append(B) or real_stack(A, B))
    monkeypatch.setattr(ExactGP, "fit", None)  # loading must not refit
    loaded = SensitivityModel.load(path)
    monkeypatch.undo()
    assert len(calls) == 6  # 2 timesteps x 3 dims
    assert stacks == [None]  # one training distance stack for the whole file

    data = np.load(path)
    q = np.random.default_rng(8).uniform(-1, 1, size=(25, 2))
    for k, t in enumerate((0, 10)):
        gp = loaded.model_at(t)
        mean, std = gp.predict(q)
        for i in range(3):
            ref, L = _restore_by_refit(data["X"], data["y"][k][:, i], data["phi"][k, i])
            with monkeypatch.context() as m:
                # its variance reads the factor the former path made
                m.setattr(gp_mod, "_cholesky", lambda D, phi: (L, ref.jitter[0]))
                ref_mean, ref_std = ref.predict(q)
            assert np.array_equal(mean[:, i], ref_mean[:, 0])
            assert np.array_equal(std[:, i], ref_std[:, 0])
            assert gp.degenerate[i] == ref.degenerate[0] == (t == 0)
            assert gp.jitter[i] == ref.jitter[0]
    assert loaded.summary_lines() == model.summary_lines()


def test_fitted_and_loaded_maps_keep_no_kernel_factor(tmp_path):
    # means are K* alpha; a variance rebuilds its factor on demand, so no map
    # keeps an n x n array once alpha is solved
    samples, _ = linear_map_samples(n=40, seed=7)
    model = fit_sensitivity_model(samples, [0, 10], zero_source(samples), np.zeros(2))
    model.save(tmp_path / "model.npz")
    n = len(samples.delta_theta) + 1  # the pinned origin
    for m in (model, SensitivityModel.load(tmp_path / "model.npz")):
        sizes = [v.size for t in m.timesteps for v in vars(m.model_at(t)).values()
                 if isinstance(v, np.ndarray)]
        assert sizes and max(sizes) < n * n


def test_a_loaded_model_retains_less_than_one_kernel_factor(tmp_path):
    # T x d maps on n shared inputs hold alpha and y, O(T d n) floats; keeping
    # each map's factor retained T d n^2 floats, here 24 x 0.72 MB
    T, d, n = 8, 3, 301
    rng = np.random.default_rng(5)
    phi = np.tile([0.0, 0.0, 0.0, np.log(1e-4)], (T, d, 1))
    np.savez_compressed(tmp_path / "model.npz", timesteps=10 * np.arange(T),
                        X=rng.uniform(-1, 1, size=(n, 2)), y=rng.normal(size=(T, n, d)),
                        phi=phi, src=np.zeros((T, d)), nominal_theta=np.zeros(2))
    tracemalloc.start()
    try:
        model = SensitivityModel.load(tmp_path / "model.npz")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert model.timesteps == list(range(0, 10 * T, 10))
    assert retained < 8 * n * n, f"retained {retained / 1e6:.2f} MB"


def test_model_file_stores_shared_inputs_once(tmp_path):
    samples, _ = linear_map_samples(n=40, seed=7)
    model = fit_sensitivity_model(samples, [0, 10], zero_source(samples), np.zeros(2))
    path = tmp_path / "model.npz"
    model.save(path)
    with np.load(path) as data:
        assert sorted(data.files) == sorted(["timesteps", "X", "y", "phi", "src",
                                             "nominal_theta"])
        assert data["X"].shape == (41, 2)  # the pinned origin plus 40
        assert data["y"].shape == (2, 41, 3)
        assert data["phi"].shape == (2, 3, 4)
        assert data["src"].shape == (2, 3) and data["nominal_theta"].shape == (2,)
        for k, t in enumerate((0, 10)):
            X, Y, phi = model.model_at(t).state()
            assert np.array_equal(data["X"], X)
            for i in range(3):
                assert np.array_equal(data["y"][k][:, i], Y[:, i])
                assert np.array_equal(data["phi"][k, i], phi[i])

    # the two former layouts: one X, y and phi per (timestep, dimension), and
    # one X, y and phi per timestep
    per_dim, per_t = {"timesteps": np.array([10])}, {"timesteps": np.array([10])}
    X, Y, phi = model.model_at(10).state()
    for i in range(3):
        per_dim["t000010_d%d_X" % i], per_dim["t000010_d%d_y" % i], \
            per_dim["t000010_d%d_phi" % i] = X, Y[:, i], phi[i]
    per_t.update(t000010_X=X, t000010_y=Y, t000010_phi=phi)
    for name, arrays in (("per_dim_model.npz", per_dim), ("per_t_model.npz", per_t)):
        np.savez_compressed(tmp_path / name, **arrays)
        with pytest.raises(ConfigError, match=name) as info:
            SensitivityModel.load(tmp_path / name)
        assert "refit" in str(info.value)


def test_model_load_reads_no_former_range_arrays(tmp_path):
    # files of the former pipeline also hold delta_low and delta_high, the
    # range of X's rows below the pinned origin: they load as before
    samples, _ = linear_map_samples(n=40, seed=7)
    model = fit_sensitivity_model(samples, [0, 10], zero_source(samples), np.zeros(2))
    assert np.array_equal(model.delta_low, samples.delta_theta.min(axis=0))
    assert np.array_equal(model.delta_high, samples.delta_theta.max(axis=0))
    model.save(tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as data:
        arrays = dict(data)
    arrays.update(delta_low=model.delta_low, delta_high=model.delta_high)
    np.savez_compressed(tmp_path / "former.npz", **arrays)
    loaded = SensitivityModel.load(tmp_path / "former.npz")
    q = np.random.default_rng(9).uniform(-1, 1, size=(25, 2))
    for t in (0, 10):
        for a, b in zip(model.model_at(t).predict(q), loaded.model_at(t).predict(q)):
            assert np.array_equal(a, b)
    assert np.array_equal(loaded.delta_low, model.delta_low)
    assert np.array_equal(loaded.delta_high, model.delta_high)


def test_model_load_rejects_a_file_without_timesteps(tmp_path):
    # a file whose per-timestep arrays are all empty raised the model's
    # DatasetError, which names no file
    samples, _ = linear_map_samples(n=40, seed=7)
    model = fit_sensitivity_model(samples, [0, 10], zero_source(samples), np.zeros(2))
    model.save(tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as data:
        arrays = {k: data[k] if k in ("X", "nominal_theta") else data[k][:0]
                  for k in data.files}
    np.savez_compressed(tmp_path / "empty.npz", **arrays)
    with pytest.raises(ConfigError, match="empty.npz: 'timesteps' must be distinct"):
        SensitivityModel.load(tmp_path / "empty.npz")


def test_model_save_rejects_maps_on_other_inputs():
    # the model checks its one X when it is built, before anything is saved
    a, _ = linear_map_samples(n=40, seed=7)
    b, _ = linear_map_samples(n=40, seed=8)
    with pytest.raises(DatasetError, match="timestep 10"):
        SensitivityModel({0: fit_gp(a, t=0), 10: fit_gp(b, t=10)},
                         {0: np.zeros(3), 10: np.zeros(3)}, np.zeros(2))
    # a model without maps has no X: it raised an IndexError, not a DatasetError
    with pytest.raises(DatasetError, match="one timestep at least"):
        SensitivityModel({}, {}, np.zeros(2))


@pytest.mark.parametrize("source_angles, nominal, message", [
    ({}, np.zeros(2), "^timestep 10: no source angles$"),
    ({10: np.zeros(7)}, np.zeros(2), r"^timestep 10: source angles of shape \(7,\), need \(3,\)$"),
    ({10: np.zeros(3)}, np.zeros(5), r"^nominal_theta has shape \(5,\), need \(2,\)$"),
], ids=["missing-timestep", "source-shape", "nominal-shape"])
def test_a_model_names_source_angles_or_a_nominal_that_do_not_fit_its_maps(
        source_angles, nominal, message):
    # a missing timestep raised a bare KeyError in source_angles_at, and the
    # misshapen arrays were saved into a file that load rejects
    gp = fit_gp(linear_map_samples(n=40, seed=7)[0], t=10)
    with pytest.raises(DatasetError, match=message):
        SensitivityModel({10: gp}, source_angles, nominal)


def _with_frozen_column(samples):
    """samples with a third parameter that no recording perturbs."""
    frozen = np.column_stack([samples.delta_theta, np.zeros(len(samples.delta_theta))])
    return SampleSet(delta_theta=frozen, delta_x=samples.delta_x)


@pytest.mark.parametrize("rows", [1, 201])
def test_timestep_predict_is_each_gps_own_predict(tmp_path, rows):
    # one shared query stack for the d columns changes no bit of any
    # posterior: each column predicts as a one-column GP on its state
    samples = _with_frozen_column(linear_map_samples(n=40, seed=7)[0])
    model = fit_sensitivity_model(samples, [0, 10], zero_source(samples), np.zeros(3))
    model.save(tmp_path / "model.npz")
    q = np.random.default_rng(rows).uniform(-1, 1, size=(rows, 3))
    q[:, 2] = 0.0  # the frozen parameter stays frozen
    for m in (model, SensitivityModel.load(tmp_path / "model.npz")):
        for t in (0, 10):  # t = 0 is the degenerate flat map
            tm = m.model_at(t)
            assert list(tm.degenerate) == [t == 0] * 3
            mean, std = tm.predict(q)
            assert mean.shape == std.shape == (rows, 3)
            X, Y, phi = tm.state()
            for i in range(3):
                own = ExactGP.from_states(X, [Y[:, i:i + 1]], [phi[i:i + 1]])[0]
                own_mean, own_std = own.predict(q)
                assert np.array_equal(mean[:, i], own_mean[:, 0])
                assert np.array_equal(std[:, i], own_std[:, 0])


def test_zero_crossing_falls_back_to_correlation_without_landmark():
    # the ramp drives joint 1 steadily toward its stop: its velocity never
    # crosses zero within 300 steps, so there is no landmark to align on
    source = ramp_rollout()
    delta = np.array([0, 0, 0, 1e-3, 0, 0.0])
    lagged = inject_temporal_noise(ramp_rollout(RAMP_THETA + delta), 8)
    with pytest.raises(LandmarkMissingError):
        align_zero_crossing(source, lagged)
    zero = build_samples(source, [(delta, lagged)], "zero_crossing", 20)
    corr = build_samples(source, [(delta, lagged)], "correlation", 20)
    assert len(zero) == len(corr) == 301
    assert np.array_equal(zero.delta_x, corr.delta_x)
    raw = build_samples(source, [(delta, lagged)])
    assert not np.array_equal(zero.delta_x, raw.delta_x)

# -- metrics -------------------------------------------------------------------


def test_gp_score_perfect_and_baseline():
    y = np.array([1.0, 2.0, 3.0])
    assert gp_score(y, y) == 1.0
    assert gp_score(y, np.full(3, y.mean())) == 0.0


def test_gp_score_worked_example():
    assert gp_score([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5)


def test_gp_score_degenerate_truth():
    with pytest.raises(DegenerateScoreError):
        gp_score([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateScoreError):
        gp_score([1.0], [1.0])


def test_cosine_alignment_cases():
    v = np.array([0.3, -0.2, 0.9])
    assert cosine_alignment(v, v) == pytest.approx(1.0)
    assert cosine_alignment(v, -v) == pytest.approx(-1.0)
    assert cosine_alignment([1, 0, 0], [1, 1, 0]) == pytest.approx(1 / np.sqrt(2))
    assert cosine_alignment(2 * v, 5 * v) == pytest.approx(1.0)
    with pytest.raises(UndefinedAlignmentError):
        cosine_alignment(np.zeros(3), v)


def test_evaluate_perfect_model_on_identical_data():
    samples, _ = linear_map_samples(n=40, seed=8)
    model = fit_sensitivity_model(samples, [10], zero_source(samples), np.zeros(2))
    per_t, hists = evaluate(model, samples)
    col = dict(zip(PER_TIMESTEP_COLUMNS, per_t.T))
    assert col["score"].mean() >= 1.0 - 1e-6
    assert col["nmse"].mean() <= 1e-10
    assert col["cos_mean"].mean() >= 1.0 - 1e-6
    assert col["t"][0] == 10
    assert hists[0].sum() == 40
    assert hists[0].shape == (20,)


def test_evaluate_rejects_empty_heldout():
    samples, _ = linear_map_samples()
    model = fit_sensitivity_model(samples, [10], zero_source(samples), np.zeros(2))
    with pytest.raises(ConfigError):
        evaluate(model, SampleSet(np.empty((0, 2)), np.empty((0, 0, 3))))


def test_evaluate_equals_the_former_per_row_loop():
    # held out: at t = 4 the model predicts exactly zero (all-zero training
    # targets), so no cosine is defined and the timestep is skipped; at t = 7
    # row 0's truth is zero; at t = 10 dimension 2 has no variance
    rng = np.random.default_rng(3)
    J = np.array([[0.5, -0.2], [0.1, 0.8], [-0.3, 0.4]])

    def samples(n):
        D = rng.uniform(-1, 1, size=(n, 2))
        delta_x = np.zeros((n, 11, 3))
        delta_x[:, 7] = np.sin(2 * D @ J.T)
        delta_x[:, 10] = D @ J.T
        return SampleSet(D, delta_x)

    train = samples(30)
    model = fit_sensitivity_model(train, [4, 7, 10], zero_source(train), np.zeros(2))
    test = samples(12)
    test.delta_x[:, 4] = rng.normal(size=(12, 3))
    test.delta_x[0, 7] = 0.0
    test.delta_x[:, 10, 2] = 0.25
    row, rows, former_hists = oracles.former_evaluate(model, test)
    per_t, hists = evaluate(model, test)
    col = dict(zip(PER_TIMESTEP_COLUMNS, per_t.T))
    assert np.array_equal(col["t"], [7, 10]) and [r.t for r in rows] == [7, 10]
    for name in ("nmse", "cos_mean", "n_test"):
        assert np.array_equal(col[name], [getattr(r, name) for r in rows]), name
    assert np.array_equal(hists, [former_hists[t] for t in (7, 10)])
    assert hists[0].sum() == 11 and hists[1].sum() == 12
    assert col["nmse"].mean() == row.mse_avg and col["cos_mean"].mean() == row.cos_avg
    for mine, former in [*zip(col["score"], [r.score for r in rows]),
                         (col["score"].mean(), row.score_avg)]:
        assert abs(mine - former) <= 1e-14 * max(1.0, abs(former))


def test_alignment_improves_with_time_under_startup_jitter():
    # sinusoidal drive with a jittered start: early responses are dominated by
    # the decaying initial-condition error, late ones by the true sensitivity
    mode = DynamicsMode("linear", damping=0.8)
    pol = PolicySpec("sinusoidal", [0.5, 0.02], {"joints": (1,)})
    T = 600
    rng = np.random.default_rng(9)
    source = rollout(pol, JointState(START_POSE, np.zeros(3)), T, DT, mode)

    def jittered(theta, seed):
        x0 = JointState(START_POSE + np.random.default_rng(seed).normal(0, 0.01, 3),
                        np.zeros(3))
        return rollout(PolicySpec("sinusoidal", theta, {"joints": (1,)}), x0, T, DT,
                       mode)

    train, test = [], []
    for k in range(40):
        delta = rng.normal(0, 1, size=2) * np.array([0.05, 0.002])
        pair = (delta, jittered(pol.theta + delta, seed=1000 + k))
        (train if k < 30 else test).append(pair)
    timesteps = list(range(20, T + 1, 20))
    model = fit_sensitivity_model(build_samples(source, train), timesteps, source, pol.theta)

    clean_pairs = [(d, rollout(PolicySpec("sinusoidal", pol.theta + d,
                                          {"joints": (1,)}),
                               JointState(START_POSE, np.zeros(3)), T, DT, mode))
                   for d, _ in test]
    per_t, _ = evaluate(model, build_samples(source, clean_pairs))
    n, cos_mean = len(per_t), per_t[:, PER_TIMESTEP_COLUMNS.index("cos_mean")]
    early = np.median(cos_mean[: max(1, n // 5)])
    late = np.median(cos_mean[-max(1, n // 5):])
    assert late >= early
