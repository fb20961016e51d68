import numpy as np
import pytest
import scipy.optimize

import lmtsim
from lmtsim import diagnostics as dg
from lmtsim import lmt
from lmtsim import objectives as obj


def test_consensus_error_values():
    assert dg.consensus_error(np.tile([1.0, 2.0], (4, 1))) == 0.0
    assert dg.consensus_error(np.array([[1.0], [-1.0]])) == pytest.approx(2.0)
    assert dg.consensus_error(np.array([[1.0], [0.0]])) == pytest.approx(0.5)


def test_consensus_error_shift_invariance():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 4))
    shift = rng.normal(size=4)
    a = dg.consensus_error(M)
    b = dg.consensus_error(M + shift)
    assert a == pytest.approx(b, rel=1e-12)


def test_d_bar_sequence_cases():
    x0 = np.array([1.0, 2.0])
    assert np.array_equal(dg.d_bar_sequence(x0, None, 0.5, 0), x0)
    x1 = np.array([3.0, 4.0])
    assert np.allclose(dg.d_bar_sequence(x1, x0, 0.0, 1), x1)
    v = np.array([0.3, -0.3])
    assert np.allclose(dg.d_bar_sequence(v, v, 0.8, 5), v, atol=1e-14)
    with pytest.raises(ValueError):
        dg.d_bar_sequence(x1, x0, 1.0, 1)
    with pytest.raises(ValueError):
        dg.d_bar_sequence(x1, None, 0.5, 1)


def make_hp(beta, eta_a=0.1, eta_s=0.1, Q=2):
    return lmt.HyperParams(Q=Q, eta_a=eta_a, eta_s=eta_s, beta=beta, eta_w=0.5)


def test_lyapunov_zero_at_perfect_state():
    lca = lmtsim.lca_params(0.5)
    val = dg.lyapunov_surrogate(f_dbar=1.25, f_star=1.25, z_bar_sq=0.0,
                                consensus_x=0.0, consensus_y=0.0, z_dev=0.0,
                                hp=make_hp(0.5), L=1.0, lca=lca, n=4)
    assert val == 0.0


def test_lyapunov_momentum_coefficient_cubic():
    # only the momentum term active: doubling (1 - beta) scales it by 1/8
    lca = lmtsim.lca_params(0.5)
    kwargs = dict(f_dbar=0.0, f_star=0.0, z_bar_sq=1.0, consensus_x=0.0,
                  consensus_y=0.0, z_dev=0.0, L=1.0, lca=lca, n=4)
    hi = dg.lyapunov_surrogate(hp=make_hp(beta=0.5), **kwargs)   # 1-beta = 0.5
    lo = dg.lyapunov_surrogate(hp=make_hp(beta=0.75), **kwargs)  # 1-beta = 0.25
    assert lo / hi == pytest.approx(8.0, rel=1e-12)


def test_lyapunov_requires_f_star():
    lca = lmtsim.lca_params(0.5)
    with pytest.raises(ValueError):
        dg.lyapunov_surrogate(f_dbar=0.0, f_star=None, z_bar_sq=0.0,
                              consensus_x=0.0, consensus_y=0.0, z_dev=0.0,
                              hp=make_hp(0.5), L=1.0, lca=lca, n=4)


def test_solve_f_star_quadratic_matches_closed_form():
    oracle = obj.quadratic_pl_oracle(n=6, p=5, mu_min=0.3, L=1.0, sigma=0.0,
                                     rng_seed=3)
    solved = dg.solve_f_star(oracle)
    assert solved == pytest.approx(oracle.f_star, abs=1e-9)


def test_solve_f_star_logistic_against_bfgs():
    data = obj.make_synthetic_classification(60, 5, seed=2)
    parts = obj.partition_heterogeneous(data, 4)
    oracle = obj.logistic_l2_oracle(parts, rho=0.2, batch=None)
    solved = dg.solve_f_star(oracle)
    res = scipy.optimize.minimize(oracle.global_value, np.zeros(5),
                                  jac=oracle.global_gradient, method="BFGS",
                                  options={"gtol": 1e-12})
    assert solved == pytest.approx(float(res.fun), abs=1e-9)
    # no probed point can beat the solved minimum
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert oracle.global_value(rng.normal(size=5)) >= solved - 1e-12


def test_lyapunov_surrogate_monotone_on_deterministic_run():
    # golden regression: quiet schedule, no noise, surrogate never increases
    # after the first rounds
    n, p = 5, 6
    mix = lmtsim.build_ring_mixing(n)
    lca = lmtsim.lca_params(mix.lam)
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.3, L=1.0, sigma=0.0,
                                     rng_seed=8)
    hp = lmt.theorem1_stepsizes(L=oracle.L, sigma=0.0, n=n, Q=3, T=100,
                                delta_f=1.0, beta=lca.rho_w, eta_w=lca.eta_w)
    st = lmt.init_state("lmt", np.zeros((n, p)))
    xbar_prev = None
    values = []
    for t in range(60):
        xbar = st["X"].mean(axis=0)
        zbar = st["Z"].mean(axis=0)
        dev = st["Z"] - oracle.full_gradients_at(xbar)
        d_bar = dg.d_bar_sequence(xbar, xbar_prev, hp.beta, t)
        cons_x = dg.consensus_error(st["X"])
        st = lmt.lmt_round(st, oracle, mix, hp)
        values.append(dg.lyapunov_surrogate(
            f_dbar=oracle.global_value(d_bar), f_star=oracle.f_star,
            z_bar_sq=float(zbar @ zbar), consensus_x=cons_x,
            consensus_y=dg.consensus_error(st["Y"]),
            z_dev=float(np.sum(dev * dev)), hp=hp, L=oracle.L, lca=lca, n=n))
        xbar_prev = xbar
    values = np.array(values)
    diffs = np.diff(values[3:])
    assert np.all(diffs <= 1e-12 * np.abs(values[3:-1]))
