import math

import numpy as np
import pytest
import scipy.optimize

import lmtsim
from helpers import quadratic_values_at_rows
from lmtsim import diagnostics as dg
from lmtsim import lmt
from lmtsim import objectives as obj
from lmtsim.config import ExperimentConfig, parse_config_text
from lmtsim.harness import run_experiment


def test_consensus_error_values():
    assert dg.consensus_error(np.tile([1.0, 2.0], (4, 1))) == 0.0
    assert dg.consensus_error(np.array([[1.0], [-1.0]])) == pytest.approx(2.0)
    assert dg.consensus_error(np.array([[1.0], [0.0]])) == pytest.approx(0.5)


def test_consensus_error_measures_from_the_mean_it_is_given():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(2, 5, 4))
    x_bar = dg.axis_mean(M, -2)
    assert dg.consensus_error(M, x_bar).tobytes() == dg.consensus_error(M).tobytes()
    elsewhere = x_bar + rng.normal(size=x_bar.shape)
    centered = M - elsewhere[:, None, :]
    expected = np.sum(centered * centered, axis=(-2, -1))
    assert dg.consensus_error(M, elsewhere).tobytes() == expected.tobytes()


def test_stacked_vector_products_equal_one_product_per_vector():
    """The stacked ``v @ v`` of ``squared_norms`` and a row-wise ``np.sum``
    are bit-equal to numpy's per-vector BLAS dot and pairwise sum, at every
    length from 1 to 333 (pairwise summation splits past 8 and 128)."""
    rng = np.random.default_rng(5)
    for p in range(1, 334):
        V = rng.normal(size=(3, 4, p)) * np.exp(rng.normal(size=(3, 4, 1)))
        norms = dg.squared_norms(V)
        assert norms.shape == (3, 4)
        per_vector = np.array([[v @ v for v in block] for block in V])
        assert norms.tobytes() == per_vector.tobytes(), p
        assert dg.squared_norms(V[0, 0]).tobytes() == per_vector[0, 0].tobytes(), p
        lengths = np.array([[np.linalg.norm(v) for v in block] for block in V])
        assert np.sqrt(norms).tobytes() == lengths.tobytes(), p
        xs = V * V
        ratios = xs / (1.0 + xs)
        sums = np.array([[np.sum(r) for r in block] for block in ratios])
        assert np.sum(ratios, axis=-1).tobytes() == sums.tobytes(), p


def test_axis_mean_equals_ndarray_mean_bit_for_bit():
    rng = np.random.default_rng(8)
    for shape in ((8, 10, 10), (1, 50, 50), (8, 10), (3, 7, 13)):
        M = rng.normal(size=shape) * np.exp(rng.normal(size=shape))
        for axis in range(-len(shape), 0):
            got, expected = dg.axis_mean(M, axis), M.mean(axis=axis)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (shape, axis)


def test_consensus_error_shift_invariance():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 4))
    shift = rng.normal(size=4)
    a = dg.consensus_error(M)
    b = dg.consensus_error(M + shift)
    assert a == pytest.approx(b, rel=1e-12)


def test_d_bar_sequence_cases():
    x0 = np.array([1.0, 2.0])
    assert np.array_equal(dg.d_bar_sequence(x0, None, 0.5), x0)
    x1 = np.array([3.0, 4.0])
    assert np.allclose(dg.d_bar_sequence(x1, x0, 0.0), x1)
    v = np.array([0.3, -0.3])
    assert np.allclose(dg.d_bar_sequence(v, v, 0.8), v, atol=1e-14)


def make_hp(beta, eta_a=0.1, eta_s=0.1, Q=2):
    return lmt.HyperParams(Q=Q, eta_a=eta_a, eta_s=eta_s, beta=beta)


def test_lyapunov_zero_at_perfect_state():
    val = dg.lyapunov_surrogate(gap=0.0, z_bar_sq=0.0,
                                consensus_x=0.0, consensus_y=0.0, z_dev=0.0,
                                hp=make_hp(0.5), L=1.0, rho_w=0.7, n=4)
    assert val == 0.0


def test_lyapunov_momentum_coefficient_cubic():
    # only the momentum term active: doubling (1 - beta) scales it by 1/8
    kwargs = dict(gap=0.0, z_bar_sq=1.0, consensus_x=0.0,
                  consensus_y=0.0, z_dev=0.0, L=1.0, rho_w=0.7, n=4)
    hi = dg.lyapunov_surrogate(hp=make_hp(beta=0.5), **kwargs)   # 1-beta = 0.5
    lo = dg.lyapunov_surrogate(hp=make_hp(beta=0.75), **kwargs)  # 1-beta = 0.25
    assert lo / hi == pytest.approx(8.0, rel=1e-12)


def test_a_stack_surrogate_equals_each_points_own_bit_for_bit():
    # 64 points, whose composite steps' cubes numpy's vector power rounds
    # otherwise than Python's for about one in twenty, and an eta_a whose
    # square it rounds otherwise
    rng = np.random.default_rng(4)
    Q = np.sort(rng.integers(1, 9, 64))[::-1]
    eta_a = np.concatenate([[0.9382184312295399], rng.uniform(1e-3, 1.0, 63)])
    terms = {name: rng.uniform(0.0, 2.0, (64, 3))
             for name in ("gap", "z_bar_sq", "consensus_x", "consensus_y", "z_dev")}
    on_points = (-1, 1, 1, 1)
    stack = lmt.HyperParams(Q=Q.reshape(on_points), eta_a=eta_a.reshape(on_points),
                            eta_s=0.3, beta=0.6)
    got = dg.lyapunov_surrogate(hp=stack, L=1.5, rho_w=0.7, n=5, **terms)
    for k in range(64):
        hp = lmt.HyperParams(Q=int(Q[k]), eta_a=float(eta_a[k]), eta_s=0.3, beta=0.6)
        own = dg.lyapunov_surrogate(hp=hp, L=1.5, rho_w=0.7, n=5,
                                    **{name: v[k] for name, v in terms.items()})
        assert got[k].tobytes() == own.tobytes(), k


def test_each_round_metric_has_the_leading_shape_of_the_state():
    # points, then trials: a round-0 d_bar_drift of shape (2,) once broke
    # the stack's finiteness check
    n, p = 5, 3
    mix = lmtsim.build_ring_mixing(n)
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.3, L=1.0, sigma=0.0, rng_seed=8)
    hp = make_hp(beta=mix.rho_w)
    state = lmt.init_state("lmt", np.random.default_rng(2).normal(size=(2, 3, n, p)))
    carry = x_bar_prev = None
    for _ in range(2):
        new = lmt.lmt_round(state, oracle, mix, hp)
        inputs = dg.input_metrics(oracle, hp, state, x_bar_prev)
        row, carry = dg.round_metrics(oracle, hp, mix, state, new, carry, inputs)
        assert len(row) == 7
        assert {name: np.shape(v) for name, v in row.items()} == {name: (2, 3) for name in row}
        x_bar_prev, state = inputs[0], new


def test_solve_f_star_quadratic_matches_closed_form():
    oracle = obj.quadratic_pl_oracle(n=6, p=5, mu_min=0.3, L=1.0, sigma=0.0,
                                     rng_seed=3)
    solved = dg.solve_f_star(oracle)
    assert solved == pytest.approx(oracle.f_star, abs=1e-9)


class OneDimensional:
    """A fake oracle of ``F`` on the real line, given ``F`` and its first two
    derivatives, that records where ``F`` is evaluated."""

    dim = 1

    def __init__(self, value, gradient, hessian):
        self._value, self._gradient, self._hessian = value, gradient, hessian
        self.seen = []

    def global_value(self, x):
        self.seen.append(float(x[0]))
        return self._value(x[0])

    def global_gradient(self, x):
        return np.array([self._gradient(x[0])])

    def global_hessian(self, x):
        return np.array([[self._hessian(x[0])]])


def test_solve_f_star_backtracks_and_caps_its_steps():
    # the first full Newton step from 0 lands near x = 50, far uphill
    F = OneDimensional(lambda x: math.log(math.cosh(x - 3)) + x * x / 200,
                       lambda x: math.tanh(x - 3) + x / 100,
                       lambda x: 1 / math.cosh(x - 3) ** 2 + 1 / 100)
    solved = dg.solve_f_star(F)
    assert F.seen[1] == pytest.approx(50.088, abs=1e-3)
    assert F.seen[2] == F.seen[1] / 2  # backtracked
    bounded = scipy.optimize.minimize_scalar(
        lambda x: math.log(math.cosh(x - 3)) + x * x / 200, bounds=(-10, 10),
        method="bounded", options={"xatol": 1e-12})
    assert solved == pytest.approx(0.0445543905568470, rel=1e-14)
    assert solved == pytest.approx(bounded.fun, rel=1e-14)
    # unbounded below: every full step is taken and none reaches a minimum
    with pytest.raises(RuntimeError, match="within 100 steps"):
        dg.solve_f_star(OneDimensional(lambda x: -x, lambda x: -1.0, lambda x: 1.0))


# the goldens' data at agents=5; TINY_RIDGE_CFG's separable data, whose
# Hessian is nearly singular at these ridges, and its 200 x 20 variant
@pytest.mark.parametrize("samples, features, seed, agents, rho", [
    pytest.param(60, 5, 2, 4, 0.2, id="60x5"),
    pytest.param(60, 5, 2, 5, 0.2, id="golden"),
    pytest.param(8, 10, 0, 4, 3e-7, id="8x10-3e-7"),
    pytest.param(8, 10, 0, 4, 1e-12, id="8x10-1e-12"),
    pytest.param(200, 20, 0, 4, 1e-12, id="200x20-1e-12")])
def test_solve_f_star_logistic_against_trust_exact(samples, features, seed, agents, rho):
    data = obj.make_synthetic_classification(samples, features, seed=seed)
    oracle = obj.LogisticOracle(obj.partition_heterogeneous(data, agents), "l2", rho, None)
    solved = dg.solve_f_star(oracle)
    # rho-strong convexity puts f_star within |g|^2 / (2 rho) below F at any
    # point; BFGS stops too early for this bracket to close on 200 x 20
    res = scipy.optimize.minimize(oracle.global_value, np.zeros(features),
                                  jac=oracle.global_gradient, hess=oracle.global_hessian,
                                  method="trust-exact", options={"gtol": 1e-15})
    upper = oracle.global_value(res.x)
    g = oracle.global_gradient(res.x)
    lower = upper - float(g @ g) / (2.0 * rho)
    # within a few ulp, the rounding of F itself: either solve may land a
    # little above the other, by how much varies with the BLAS thread count
    few_ulp = 4.0 * np.spacing(solved)
    assert lower - few_ulp <= solved <= upper + few_ulp
    assert upper - lower <= few_ulp
    # no probed point can beat the solved minimum
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert oracle.global_value(rng.normal(size=features)) >= solved - 1e-12


def test_lyapunov_surrogate_monotone_on_deterministic_run():
    # golden regression: quiet schedule, no noise, surrogate never increases
    # after the first rounds
    n, p = 5, 6
    mix = lmtsim.build_ring_mixing(n)
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.3, L=1.0, sigma=0.0,
                                     rng_seed=8)
    hp = lmt.theorem1_stepsizes(L=oracle.L, sigma=0.0, n=n, Q=3, T=100,
                                delta_f=1.0, beta=mix.rho_w)
    st = lmt.init_state("lmt", np.zeros((n, p)))
    xbar_prev = None
    values = []
    for _ in range(60):
        xbar = st["X"].mean(axis=0)
        zbar = st["Z"].mean(axis=0)
        dev = st["Z"] - oracle.full_gradients_at(xbar)
        d_bar = dg.d_bar_sequence(xbar, xbar_prev, hp.beta)
        cons_x = dg.consensus_error(st["X"])
        st = lmt.lmt_round(st, oracle, mix, hp)
        values.append(dg.lyapunov_surrogate(
            gap=oracle.global_value(d_bar) - oracle.f_star,
            z_bar_sq=float(zbar @ zbar), consensus_x=cons_x,
            consensus_y=dg.consensus_error(st["Y"]),
            z_dev=float(np.sum(dev * dev)), hp=hp, L=oracle.L, rho_w=mix.rho_w, n=n))
        xbar_prev = xbar
    values = np.array(values)
    diffs = np.diff(values[3:])
    assert np.all(diffs <= 1e-12 * np.abs(values[3:-1]))


def test_quadratic_opt_gap_stays_non_negative_at_the_optimum(monkeypatch):
    # criterion 6's testbed without noise: the iterates reach x_star to
    # machine precision, where F(x) - f_star (f_star ~ 4.09) turned negative
    # in 1,742 of 3,000 rounds
    cfg = ExperimentConfig.from_mapping(parse_config_text("""
        topology.kind = ring
        topology.n = 10
        objective.kind = quadratic_pl
        objective.dim = 10
        objective.mu = 1.0
        objective.L = 1.0
        objective.sigma = 0.0
        objective.seed = 21
        method = lmt
        schedule = figure1
        hyper.Q = 4
        run.T = 3000
        run.trials = 1
    """))
    points = []
    closed_form = obj.QuadraticOracle.opt_gap

    def recording(oracle, X):
        points.append((oracle, X.copy()))
        return closed_form(oracle, X)

    monkeypatch.setattr(obj.QuadraticOracle, "opt_gap", recording)
    table = run_experiment(cfg)
    assert (table.columns["opt_gap_mean"] >= 0.0).all()
    assert table.columns["consensus_x"][-1] < 1e-25
    # away from the optimum it is the difference form, to 1e-12 relative
    # above that form's own rounding floor: up to 24 ulp of f_star measured
    # on this run, which is 6.5e-12 relative at a gap of 1e-3
    compared = 0
    for oracle, X in points:
        gap = closed_form(oracle, X)
        difference = quadratic_values_at_rows(oracle, X).mean(axis=-1) - oracle.f_star
        far = gap > 1e-3
        compared += np.count_nonzero(far)
        assert np.all(np.abs(gap - difference)[far]
                      <= 1e-12 * gap[far] + 32 * np.spacing(oracle.f_star))
    assert compared > 100
