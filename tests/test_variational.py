import math

import numpy as np
import pytest

from taskinfo import tasks
from taskinfo.models import Architecture, dataset_loss, init_params, unflatten_params
from taskinfo.variational import (
    FisherDiagonal,
    GaussianPosterior,
    IsotropicPrior,
    MlpLossModel,
    QuadraticLossModel,
    VariationalConfig,
    _mc_losses,
    closed_form_sigma,
    crossing_beta,
    fim_trace,
    fisher_diagonal,
    fisher_information_nats,
    kl_gaussian,
    mc_lagrangian_and_grads,
    optimize_gaussian,
    optimize_posterior,
    prior_matched_posterior,
    structure_sweep,
    vector_architecture,
)

from .reference import (
    finite_difference_gradient,
    gaussian_kl_quadrature,
    relative_errors,
)

LN2 = math.log(2.0)


def posterior(mean, log_var):
    mean = np.asarray(mean, dtype=float)
    return GaussianPosterior(mean, np.asarray(log_var, dtype=float),
                             vector_architecture(mean.size))


# ---------------------------------------------------------------------------
# KL


def test_kl_zero_when_posterior_equals_prior():
    lam = 1.7
    q = posterior(np.zeros(4), np.full(4, 2 * math.log(lam)))
    assert kl_gaussian(q, IsotropicPrior(lam)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_kl_one_dim_half(lam):
    # k=1 (padded with a prior-matched coordinate), mu=lam, sigma^2=lam^2
    q = posterior([lam, 0.0], [2 * math.log(lam)] * 2)
    assert kl_gaussian(q, IsotropicPrior(lam)) == pytest.approx(0.5, abs=1e-12)
    quad = gaussian_kl_quadrature(lam, lam * lam, lam)
    assert quad == pytest.approx(0.5, abs=1e-6)


def test_kl_matches_quadrature_per_coordinate():
    lam = 1.3
    mu, var = 0.4, lam * lam / math.e
    q = posterior([mu, mu, 0.0], [math.log(var)] * 2 + [2 * math.log(lam)])
    expected = 2 * gaussian_kl_quadrature(mu, var, lam)
    assert kl_gaussian(q, IsotropicPrior(lam)) == pytest.approx(expected,
                                                                abs=1e-6)


def test_kl_two_dim_lambda_over_e():
    lam = 2.0
    q = posterior([0.0, 0.0], [math.log(lam * lam / math.e)] * 2)
    assert kl_gaussian(q, IsotropicPrior(lam)) == \
        pytest.approx(1.0 / math.e, abs=1e-12)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    prior = IsotropicPrior(1.0)
    for _ in range(50):
        q = posterior(rng.normal(size=5), rng.normal(size=5))
        assert kl_gaussian(q, prior) >= 0.0


# ---------------------------------------------------------------------------
# expected loss


def expected_loss(q, d, mc_samples, seed):
    """Reparameterized MC mean of the total dataset loss under Q."""
    return float(_mc_losses([MlpLossModel(q.arch, d)], [q], mc_samples, seed)[0].mean())


@pytest.fixture(scope="module")
def small_task():
    return tasks.generate_random_label_task(12, tasks.RealSpace(3), 2, seed=4)


def test_expected_loss_delta_posterior(small_task):
    arch = Architecture((3, 4, 2))
    p = init_params(arch, seed=0)
    from taskinfo.models import flatten_params
    q = GaussianPosterior(flatten_params(p),
                          np.full(arch.num_params, 2 * math.log(1e-8)), arch)
    got = expected_loss(q, small_task, 64, seed=1)
    want = dataset_loss(p, small_task)
    assert got == pytest.approx(want, rel=1e-6)


def test_expected_loss_zero_output_weights(small_task):
    # zero mean and tiny variance on the output layer: exactly uniform output
    arch = Architecture((3, 2))
    q = GaussianPosterior(np.zeros(arch.num_params),
                          np.full(arch.num_params, -60.0), arch)
    got = expected_loss(q, small_task, 16, seed=0)
    assert got == pytest.approx(12 * LN2, rel=1e-9)


def test_expected_loss_mc_convergence(small_task):
    arch = Architecture((3, 4, 2))
    q = prior_matched_posterior(arch, IsotropicPrior(1.0))
    a = expected_loss(q, small_task, 10_000, seed=1)
    b = expected_loss(q, small_task, 100_000, seed=2)
    # MC sigma of the 1e4-sample mean, estimated from 30 disjoint estimates
    samples = [expected_loss(q, small_task, 100, seed=100 + i)
               for i in range(30)]
    sigma_1e4 = np.std(samples) * math.sqrt(100 / 10_000)
    sigma_diff = sigma_1e4 * math.sqrt(1.1)   # plus the 1e5 estimate's share
    assert abs(a - b) < 3 * sigma_diff


def test_prior_matched_posterior_has_zero_kl():
    for scale in (1.0, 1.4):
        for widths in ((3, 2), (3, 4, 2)):
            prior = IsotropicPrior(scale)
            q = prior_matched_posterior(Architecture(widths), prior)
            assert kl_gaussian(q, prior) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# optimizer vs closed form


def test_optimizer_matches_closed_form_sigma():
    h = np.linspace(0.2, 3.0, 10)
    model = QuadraticLossModel(h, w0=np.full(10, 0.3))
    cfg = VariationalConfig(steps=5000, learning_rate=0.05, grad_clip=None)
    for lam, beta in [(1.0, 2.0), (10.0, 0.5)]:
        res = optimize_gaussian(model, beta, IsotropicPrior(lam), cfg, seed=0)
        target = closed_form_sigma(h, beta, lam)
        rel = relative_errors(np.exp(res.posterior.log_var), target)
        assert rel.max() < 1e-3


def test_closed_form_sigma_identity_case():
    # H = I, beta = 2, lambda -> infinity: Sigma* -> I
    s = closed_form_sigma(np.ones(4), 2.0, 1e9)
    assert np.allclose(s, 1.0, rtol=1e-12)


def test_closed_form_sigma_large_lambda_limit():
    h = np.array([0.5, 2.0, 4.0])
    s = closed_form_sigma(h, 3.0, 1e8)
    assert np.allclose(s, (3.0 / 2.0) / h, rtol=1e-9)


def test_closed_form_sigma_flat_direction_prior_variance():
    lam = 2.5
    s = closed_form_sigma(np.array([0.0, 1.0]), 1.0, lam)
    assert s[0] == pytest.approx(lam * lam, rel=1e-12)


def test_config_rejects_nonpositive_logvar_learning_rate():
    for bad in (-0.5, 0.0):
        with pytest.raises(ValueError, match="logvar_learning_rate"):
            VariationalConfig(logvar_learning_rate=bad)
    assert VariationalConfig(logvar_learning_rate=None).logvar_learning_rate is None
    assert VariationalConfig(logvar_learning_rate=0.3).logvar_learning_rate == 0.3


@pytest.mark.parametrize("bad", [{"report_mc": 0}, {"trace_every": 0},
                                 {"grad_clip": -1.0}, {"grad_clip": 0.0}])
def test_config_rejects_bad_report_trace_and_clip(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        VariationalConfig(**bad)


def test_config_allows_no_grad_clip():
    assert VariationalConfig(grad_clip=None).grad_clip is None


def test_expected_loss_se_zero_for_exact_models():
    model = QuadraticLossModel(np.linspace(0.5, 2.0, 4))
    cfg = VariationalConfig(steps=20, learning_rate=0.05, report_mc=8)
    res = optimize_gaussian(model, 1.0, IsotropicPrior(1.0), cfg, seed=0)
    assert res.expected_loss_se == 0.0


def test_expected_loss_se_shrinks_as_inverse_sqrt_report_mc(small_task):
    arch = Architecture((3, 4, 2))
    ses = []
    for report_mc in (64, 256, 1024, 4096):
        cfg = VariationalConfig(steps=30, learning_rate=0.05, mc_samples=4,
                                report_mc=report_mc)
        res = optimize_posterior(small_task, arch, 1.0, IsotropicPrior(1.0),
                                 cfg, seed=3)
        assert res.expected_loss_se > 0.0
        ses.append(res.expected_loss_se)
    # the same posterior each time: se * sqrt(report_mc) estimates one std
    scaled = np.array(ses) * np.sqrt([64, 256, 1024, 4096])
    assert scaled.max() / scaled.min() < 1.5
    assert ses[-1] < ses[0] / 4


def test_expected_loss_se_nan_for_a_single_report_draw(small_task):
    cfg = VariationalConfig(steps=2, learning_rate=0.05, mc_samples=2,
                            report_mc=1)
    res = optimize_posterior(small_task, Architecture((3, 2)), 1.0,
                             IsotropicPrior(1.0), cfg, seed=0)
    assert math.isnan(res.expected_loss_se)


def test_optimizer_divergence_raises(small_task):
    from taskinfo.models import TrainingDiverged
    arch = Architecture((3, 4, 2))
    cfg = VariationalConfig(steps=50, learning_rate=1e12, mc_samples=2,
                            report_mc=8, grad_clip=None)
    with pytest.raises(TrainingDiverged):
        optimize_posterior(small_task, arch, 0.1, IsotropicPrior(1.0), cfg,
                           seed=0)


def test_optimizer_collapses_to_prior_at_huge_beta(small_task):
    # step size scaled to the beta magnitude, as for any SGD run
    arch = Architecture((3, 4, 2))
    prior = IsotropicPrior(1.0)
    cfg = VariationalConfig(steps=300, learning_rate=0.001, mc_samples=4,
                            report_mc=64)
    res = optimize_posterior(small_task, arch, 1e6, prior, cfg, seed=1)
    assert res.kl < 0.1


# ---------------------------------------------------------------------------
# MC gradient vs finite differences (common random numbers)


def test_mc_lagrangian_gradients_match_finite_differences(small_task):
    arch = Architecture((3, 2))
    model = MlpLossModel(arch, small_task)
    prior = IsotropicPrior(1.0)
    rng = np.random.default_rng(8)
    k = arch.num_params
    mu = rng.normal(size=k) * 0.4
    lv = rng.normal(size=k) * 0.3 - 1.0
    beta, mc, seed = 0.8, 16, 12

    def value_at(mu_v, lv_v):
        q = GaussianPosterior(mu_v, lv_v, arch)
        return mc_lagrangian_and_grads(model, q, beta, prior, mc, seed)[0]

    q0 = GaussianPosterior(mu, lv, arch)
    _, gmu, glv = mc_lagrangian_and_grads(model, q0, beta, prior, mc, seed)
    fd_mu = finite_difference_gradient(lambda v: value_at(v, lv), mu.copy())
    fd_lv = finite_difference_gradient(lambda v: value_at(mu, v), lv.copy())
    assert relative_errors(gmu, fd_mu, floor=1e-6).max() < 1e-4
    assert relative_errors(glv, fd_lv, floor=1e-6).max() < 1e-4


# ---------------------------------------------------------------------------
# Fisher information


def test_fisher_zero_influence_parameter():
    # input coordinate 1 is always zero: its weights carry no information
    d = tasks.Dataset(np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]),
                      np.array([0, 1, 0]), 2, tasks.RealSpace(2))
    arch = Architecture((2, 2))
    p = init_params(arch, seed=0)
    f = fisher_diagonal(p, d)
    entries = unflatten_params(f.entries, arch)
    assert np.abs(entries.weights[0][1, :]).max() == 0.0


def test_fisher_nonnegative_and_trace(small_task):
    arch = Architecture((3, 4, 2))
    p = init_params(arch, seed=2)
    f = fisher_diagonal(p, small_task)
    assert (f.entries >= 0).all()
    assert fim_trace(p, small_task) == pytest.approx(f.entries.sum(), rel=1e-12)


def test_fisher_sampled_mode_approximates_exact(small_task):
    arch = Architecture((3, 2))
    p = init_params(arch, seed=2)
    exact = fisher_diagonal(p, small_task, mode="exact").entries
    sampled = np.mean([
        fisher_diagonal(p, small_task, mode="sampled", seed=s).entries
        for s in range(200)], axis=0)
    assert np.abs(sampled - exact).max() < 0.15 * max(exact.max(), 1e-3)


def test_fisher_unknown_mode_raises_on_an_empty_dataset():
    d = tasks.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2,
                      tasks.RealSpace(2))
    with pytest.raises(ValueError, match="unknown fisher mode 'bogus'"):
        fisher_diagonal(init_params(Architecture((2, 2)), seed=0), d, mode="bogus")


def test_fisher_rejects_a_discrete_dataset():
    d = tasks.Dataset(np.array([0, 1, 2]), np.array([0, 1, 0]), 2,
                      tasks.DiscreteSpace(3))
    with pytest.raises(ValueError, match="networks consume real-vector tasks"):
        fisher_diagonal(init_params(Architecture((3, 2)), seed=0), d)


@pytest.mark.parametrize("widths", [(4, 2), (3, 2, 2)])
def test_fisher_rejects_an_architecture_that_does_not_fit(small_task, widths):
    # small_task has 3 inputs and 2 labels: a 4-input net or a 2-label net
    # on 3 labels must fail as MlpLossModel does, not inside a matmul
    d = small_task if widths[0] == 4 else tasks.Dataset(
        small_task.inputs, np.arange(small_task.n) % 3, 3, small_task.space)
    with pytest.raises(ValueError, match="architecture incompatible with dataset"):
        MlpLossModel(Architecture(widths), d)
    with pytest.raises(ValueError, match="architecture incompatible with dataset"):
        fisher_diagonal(init_params(Architecture(widths), seed=0), d)


def test_fisher_hessian_relation_logistic_regression():
    # at the optimum of a multinomial logistic regression, N F = Hessian
    d = tasks.generate_random_label_task(40, tasks.RealSpace(3), 2, seed=6)
    arch = Architecture((3, 2))
    from taskinfo.models import SgdConfig, sgd_train, flatten_params
    res = sgd_train(d, arch, SgdConfig(learning_rate=0.01, batch_size=40,
                                       epochs=4000, seed=0), init=0)
    p = res.params
    f = fisher_diagonal(p, d)
    vec = flatten_params(p)
    step = 1e-4

    def loss_at(v):
        return dataset_loss(unflatten_params(v, arch), d)

    hess = np.zeros_like(vec)
    base = loss_at(vec)
    for i in range(vec.size):
        up, down = vec.copy(), vec.copy()
        up[i] += step
        down[i] -= step
        hess[i] = (loss_at(up) - 2 * base + loss_at(down)) / step ** 2
    nf = d.n * f.entries
    mask = nf > 1e-6
    assert relative_errors(nf[mask], hess[mask]).max() < 0.05


def test_fisher_information_nats_identity():
    f = FisherDiagonal(np.ones(6), n=10)
    assert fisher_information_nats(f, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_fisher_information_nats_lambda_doubling():
    f = FisherDiagonal(np.array([0.5, 2.0, 1.0]), n=5)
    k = 3
    delta = fisher_information_nats(f, 2.0) - fisher_information_nats(f, 1.0)
    assert delta == pytest.approx(k * LN2, rel=1e-12)


def test_fisher_information_nats_floors_flat_directions():
    f = FisherDiagonal(np.array([0.0, 1.0]), n=5)
    got = fisher_information_nats(f, 1.0, eps_f=1e-8)
    assert got == pytest.approx(0.5 * math.log(1e-8), rel=1e-12)


def test_kl_minus_fisher_nats_converges_in_lambda():
    h = np.linspace(0.3, 2.5, 8)
    beta = 2.0
    w_star = np.full(8, 0.1)
    n = 40
    f = FisherDiagonal(2.0 * h / n, n=n)   # H_total = 2h = n F
    diffs = []
    for lam in (10.0, 100.0, 1000.0):
        sig2 = closed_form_sigma(h, beta, lam)
        q = posterior(w_star, np.log(sig2))
        diffs.append(kl_gaussian(q, IsotropicPrior(lam))
                     - fisher_information_nats(f, lam))
    spread = max(diffs) - min(diffs)
    assert spread < 0.05 * abs(np.mean(diffs))


# ---------------------------------------------------------------------------
# structure sweep


def test_sweep_first_beta_huge_trivial_point():
    d = tasks.generate_random_label_task(40, tasks.RealSpace(16), 2, seed=1)
    arch = Architecture((16, 2))
    cfg = VariationalConfig(steps=150, learning_rate=0.01, mc_samples=4,
                            report_mc=128)
    sweep = structure_sweep(d, arch, [512.0, 256.0], IsotropicPrior(1.0), cfg,
                            seed=2)
    assert sweep.kls[0] < 0.1
    assert sweep.losses[0] / 40 > 0.5 * LN2


def test_sweep_monotone_tradeoff():
    d = tasks.generate_random_label_task(60, tasks.RealSpace(32), 2, seed=3)
    arch = Architecture((32, 2))
    cfg = VariationalConfig(steps=250, learning_rate=0.5,
                            logvar_learning_rate=1.0, mc_samples=4,
                            report_mc=256)
    betas = [8.0, 2.0, 0.5, 0.125]
    sweep = structure_sweep(d, arch, betas, IsotropicPrior(1.0), cfg, seed=4)
    # KL grows and loss falls as beta anneals down (3-sigma MC slack ~ 2%)
    assert (np.diff(sweep.kls) > -0.5).all()
    assert (np.diff(sweep.losses) < 0.02 * sweep.losses[0]).all()


def test_sweep_memorization_slope_near_minus_one():
    # in the overfitting regime (around beta = 1) each NAT of information
    # buys about one NAT of loss
    d = tasks.generate_random_label_task(300, tasks.RealSpace(512), 2, seed=2)
    arch = Architecture((512, 2))
    cfg = VariationalConfig(steps=400, learning_rate=1.0,
                            logvar_learning_rate=2.0, mc_samples=4,
                            report_mc=256)
    betas = [2.0, 1.4, 1.0, 0.7, 0.5]
    sweep = structure_sweep(d, arch, betas, IsotropicPrior(1.0), cfg, seed=7)
    slope = np.polyfit(sweep.kls, sweep.losses, 1)[0]
    assert -1.2 <= slope <= -0.8
    # pushing the loss below N lnK always costs at least that much KL
    n_lnk = 300 * LN2
    for loss, kl in zip(sweep.losses, sweep.kls):
        if loss < n_lnk:
            assert kl >= 0.8 * (n_lnk - loss)


def test_sweep_requires_decreasing_schedule(small_task):
    arch = Architecture((3, 2))
    with pytest.raises(ValueError, match="decreasing"):
        structure_sweep(small_task, arch, [1.0, 2.0], IsotropicPrior(1.0),
                        VariationalConfig(steps=1), seed=0)


def test_sweep_tradeoff_points():
    d = tasks.generate_random_label_task(20, tasks.RealSpace(8), 2, seed=5)
    arch = Architecture((8, 2))
    cfg = VariationalConfig(steps=50, learning_rate=0.5, mc_samples=2,
                            report_mc=32)
    sweep = structure_sweep(d, arch, [4.0, 1.0], IsotropicPrior(1.0), cfg,
                            seed=6)
    points = sweep.tradeoff_points()            # (KL, loss), KL ascending
    assert len(points) == 2 and points == sorted(points)
    assert set(points) == set(zip(sweep.kls.tolist(), sweep.losses.tolist()))


def test_crossing_beta_interpolates():
    betas = [8.0, 4.0, 2.0, 1.0]
    losses = [1.0, 0.8, 0.4, 0.1]
    got = crossing_beta(betas, losses, 0.6)
    assert 2.0 < got < 4.0
    assert crossing_beta(betas, losses, 2.0) == 8.0   # already below at start
    assert crossing_beta(betas, [1.0, 0.9, 0.8, 0.7], 0.5) is None
