import math

import numpy as np
import pytest
from scipy.special import log_expit

from helpers import finite_difference_gradient, fresh_stream
from lmtsim import objectives as obj
from lmtsim.streams import TrialStreams, bounded_uint32


def two_class_dataset(m=40, p=6, seed=0):
    return obj.make_synthetic_classification(m, p, seed)


# ---------------------------------------------------------------------------
# partitioning and loaders

def test_partition_sorts_labels_heterogeneously():
    data = obj.Dataset(features=np.arange(8.0).reshape(4, 2),
                       labels=np.array([1.0, -1.0, 1.0, -1.0]))
    parts = obj.partition_heterogeneous(data, 2)
    assert np.all(parts.shards[0][1] == -1.0)
    assert np.all(parts.shards[1][1] == 1.0)


def test_partition_sizes_balanced():
    data = obj.Dataset(features=np.zeros((10, 2)), labels=np.ones(10))
    parts = obj.partition_heterogeneous(data, 3)
    assert parts.sizes == (4, 3, 3)
    assert all(np.all(l == 1.0) for _, l in parts.shards)


def test_partition_disjoint_and_exhaustive():
    data = two_class_dataset(31, 4, seed=5)
    parts = obj.partition_heterogeneous(data, 7)
    gathered = np.concatenate([f for f, _ in parts.shards])
    assert gathered.shape == data.features.shape
    original = sorted(map(tuple, data.features))
    returned = sorted(map(tuple, gathered))
    assert original == returned


def test_partition_too_many_agents():
    data = obj.Dataset(features=np.zeros((3, 1)), labels=np.ones(3))
    with pytest.raises(obj.DatasetError):
        obj.partition_heterogeneous(data, 4)


def test_load_libsvm(tmp_path):
    path = tmp_path / "d.libsvm"
    path.write_text("+1 1:0.5 3:2.0\n-1 2:1.0\n")
    data = obj.load_libsvm(str(path))
    assert data.features.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
    assert data.labels.tolist() == [1.0, -1.0]


def test_load_libsvm_errors(tmp_path):
    empty = tmp_path / "e.libsvm"
    empty.write_text("")
    with pytest.raises(obj.DatasetError, match="empty"):
        obj.load_libsvm(str(empty))
    bad = tmp_path / "b.libsvm"
    bad.write_text("+1 1:0.5\n-1 nonsense\n")
    with pytest.raises(obj.DatasetError, match="b.libsvm:2"):
        obj.load_libsvm(str(bad))
    multi = tmp_path / "m.libsvm"
    multi.write_text("0 1:1\n1 1:1\n2 1:1\n")
    with pytest.raises(obj.DatasetError, match="two-class"):
        obj.load_libsvm(str(multi))


def test_load_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0.5,0,2.0,1\n1.0,0,0.0,0\n")
    data = obj.load_csv(str(path))
    assert data.features.tolist() == [[0.5, 0.0, 2.0], [1.0, 0.0, 0.0]]
    # raw labels {0, 1} remap by sorted order to {-1, +1}
    assert data.labels.tolist() == [1.0, -1.0]


def test_load_csv_errors(tmp_path):
    bad = tmp_path / "b.csv"
    bad.write_text("1.0,1\n1.0,x\n")
    with pytest.raises(obj.DatasetError, match="b.csv:2"):
        obj.load_csv(str(bad))


def test_synthetic_dataset_deterministic():
    a = two_class_dataset(30, 5, seed=9)
    b = two_class_dataset(30, 5, seed=9)
    assert np.array_equal(a.features, b.features)
    assert set(np.unique(a.labels)) == {-1.0, 1.0}


# ---------------------------------------------------------------------------
# logistic oracles

def test_logistic_single_sample_hand_values():
    data = obj.PartitionedDataset(shards=((np.array([[1.0]]), np.array([1.0])),))
    oracle = obj.logistic_l2_oracle(data, rho=0.0, batch=None)
    assert oracle.value(0, np.zeros(1)) == pytest.approx(math.log(2.0), abs=1e-12)
    assert oracle.full_gradient(0, np.zeros(1))[0] == pytest.approx(-0.5, abs=1e-12)


def test_log_expit_loss_equals_logaddexp_bit_for_bit():
    # the logistic loss is evaluated as -log_expit(m); it must equal the
    # textbook logaddexp(0, -m) bit for bit, edge values included
    rng = np.random.default_rng(4)
    margins = np.concatenate([
        rng.normal(scale=scale, size=20_000) for scale in (1.0, 30.0, 300.0)] + [
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 100.0, -100.0, 250.5, -250.5,
                  700.0, -700.0, 745.2, -745.2, 5e-324, -5e-324])])
    with np.errstate(invalid="ignore"):
        expected = np.logaddexp(0.0, -margins)
    assert (-log_expit(margins)).tobytes() == expected.tobytes()


def test_logistic_values_equal_the_logaddexp_form_bit_for_bit():
    parts = obj.partition_heterogeneous(two_class_dataset(60, 5, seed=3), 4)
    oracle = obj.logistic_l2_oracle(parts, rho=0.2, batch=1)
    X = np.random.default_rng(6).normal(scale=20.0, size=(3, 4, 5))
    U = np.concatenate([f for f, _ in parts.shards])
    v = np.concatenate([l for _, l in parts.shards])
    weights = np.concatenate([np.full(len(l), 1.0 / (4 * len(l))) for _, l in parts.shards])
    for Xt, values in zip(X, oracle.global_values_at_rows(X)):
        losses = weights @ np.logaddexp(0.0, -(v[:, None] * (U @ Xt.T)))
        ridge = np.array([0.1 * float(x @ x) for x in Xt])
        assert values.tobytes() == (losses + ridge).tobytes()
    for i, (Ui, vi) in enumerate(parts.shards):
        x = X[0, i]
        expected = float(np.mean(np.logaddexp(0.0, -(vi * (Ui @ x))))) + 0.1 * float(x @ x)
        assert oracle.value(i, x) == expected


def test_logistic_gradient_at_origin_closed_form():
    data = two_class_dataset(24, 5, seed=1)
    parts = obj.partition_heterogeneous(data, 4)
    oracle = obj.logistic_l2_oracle(parts, rho=0.3, batch=None)
    for i in range(4):
        U, v = parts.shards[i]
        expected = -(U * v[:, None]).mean(axis=0) / 2.0
        assert np.allclose(oracle.full_gradient(i, np.zeros(5)), expected, atol=1e-12)


def test_nonconvex_regularizer_hand_values():
    data = obj.PartitionedDataset(shards=((np.array([[1.0, 0.0]]), np.array([1.0])),))
    oracle = obj.logistic_nonconvex_oracle(data, omega=0.05, batch=None)
    x = np.array([1.0, 1.0])
    # each coordinate contributes 0.05 * (1/2) / 2 to the value
    data_term = math.log(1.0 + math.exp(-1.0))
    assert oracle.value(0, x) == pytest.approx(data_term + 2 * 0.0125, abs=1e-12)
    # regularizer gradient coordinate: 0.05 * 1 / (1 + 1)^2 = 0.0125
    g = oracle.full_gradient(0, x)
    assert g[1] == pytest.approx(0.0125, abs=1e-12)
    zero = oracle.full_gradient(0, np.zeros(2))
    assert oracle.value(0, np.zeros(2)) == pytest.approx(math.log(2.0), abs=1e-12)
    assert zero[1] == pytest.approx(0.0, abs=1e-15)


def test_nonconvex_omega_zero_matches_ridge_rho_zero():
    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=2), 3)
    a = obj.logistic_l2_oracle(parts, rho=0.0, batch=None)
    b = obj.logistic_nonconvex_oracle(parts, omega=0.0, batch=None)
    x = np.linspace(-1, 1, 4)
    for i in range(3):
        assert a.value(i, x) == pytest.approx(b.value(i, x), abs=1e-14)
        assert np.allclose(a.full_gradient(i, x), b.full_gradient(i, x), atol=1e-14)


def test_full_batch_mode_equals_full_gradient():
    parts = obj.partition_heterogeneous(two_class_dataset(20, 4, seed=3), 2)
    oracle = obj.logistic_l2_oracle(parts, rho=0.2, batch=None)
    x = np.array([0.1, -0.4, 0.2, 0.0])
    assert oracle.sigma == 0.0
    g1 = oracle.stochastic_gradient(0, x, None)
    assert np.array_equal(g1, oracle.full_gradient(0, x))


def test_minibatch_unbiased_and_variance_bounded():
    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=4), 3)
    oracle = obj.logistic_l2_oracle(parts, rho=0.2, batch=2)
    rng = np.random.default_rng(77)
    x = rng.normal(size=4) * 0.5
    full = oracle.full_gradient(1, x)
    draws = np.stack([oracle.stochastic_gradient(1, x, rng) for _ in range(10_000)])
    per_coord_err = np.abs(draws.mean(axis=0) - full)
    assert np.all(per_coord_err <= 3.0 * oracle.sigma / math.sqrt(10_000))
    sq_dev = np.sum((draws - full) ** 2, axis=1)
    assert sq_dev.mean() <= oracle.sigma ** 2 * 1.1


def test_logistic_smoothness_bound_honored():
    parts = obj.partition_heterogeneous(two_class_dataset(40, 6, seed=5), 4)
    oracle = obj.logistic_l2_oracle(parts, rho=0.2, batch=1)
    bound = max(np.mean(np.sum(f * f, axis=1)) for f, _ in parts.shards) / 4.0 + 0.2
    assert oracle.L <= bound + 1e-12


def test_logistic_configuration_errors():
    parts = obj.partition_heterogeneous(two_class_dataset(20, 4, seed=6), 2)
    with pytest.raises(ValueError, match="batch"):
        obj.logistic_l2_oracle(parts, rho=0.2, batch=100)
    with pytest.raises(ValueError):
        obj.logistic_l2_oracle(parts, rho=-0.1, batch=1)
    empty = obj.PartitionedDataset(shards=((np.zeros((0, 2)), np.zeros(0)),))
    with pytest.raises(obj.DatasetError, match="nonempty"):
        obj.logistic_l2_oracle(empty, rho=0.2, batch=1)


def test_stochastic_gradient_matrix_matches_per_agent_calls():
    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=8), 3)
    oracle = obj.logistic_l2_oracle(parts, rho=0.2, batch=2)
    X = np.random.default_rng(5).normal(size=(3, 4))
    streams = TrialStreams(99, 0)
    G = oracle.stochastic_gradient_matrix(X, oracle.draw(streams, 7, 2)[1])
    for i in range(3):
        gi = oracle.stochastic_gradient(i, X[i], fresh_stream(99, 0, i, 7, 1))
        assert np.allclose(G[i], gi, atol=1e-15)


def _uneven_partition(sizes, p=3):
    """Shards of the given sizes, rows and labels drawn from one seed."""
    rng = np.random.default_rng(sum(sizes))
    return obj.PartitionedDataset(shards=tuple(
        (rng.normal(size=(s, p)), np.where(rng.random(s) < 0.5, -1.0, 1.0)) for s in sizes))


def _assert_round_rows_match_streams(oracle, sizes, b, seed=13, trials=(2, 7, 0), t=6, Q=3):
    """Rows of one trial, and of a batch of trials, equal the site streams'."""
    rows = oracle.draw(TrialStreams(seed, trials[0]), t, Q)
    batch = oracle.draw(TrialStreams(seed, trials), t, Q)
    assert rows.shape == (Q, len(sizes), b)
    assert batch.shape == (Q, len(trials), len(sizes), b)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for step in range(Q):
        for i, s in enumerate(sizes):
            for slot, trial in enumerate(trials):
                expected = fresh_stream(seed, trial, i, t, step).integers(0, s, size=b)
                assert np.array_equal(batch[step, slot, i], offsets[i] + expected)
            assert np.array_equal(rows[step, i], batch[step, 0, i])


@pytest.mark.parametrize("b", [1, 2, 7, 8, 9, 17])
def test_logistic_round_draws_match_per_site_streams(b):
    sizes = (17, 23, 40, 18, 31)
    oracle = obj.logistic_l2_oracle(_uneven_partition(sizes), rho=0.2, batch=b)
    _assert_round_rows_match_streams(oracle, sizes, b)


def test_logistic_round_draws_with_single_row_shard():
    sizes = (1, 5, 2)
    oracle = obj.logistic_l2_oracle(_uneven_partition(sizes), rho=0.2, batch=1)
    _assert_round_rows_match_streams(oracle, sizes, 1)


def test_logistic_rejected_sites_are_redrawn_from_their_streams(monkeypatch):
    def reject_all(words, bound, count):
        values, rejected = bounded_uint32(words, bound, count)
        return np.zeros_like(values), np.ones_like(rejected)

    monkeypatch.setattr(obj, "bounded_uint32", reject_all)
    sizes = (17, 23, 40)
    oracle = obj.logistic_l2_oracle(_uneven_partition(sizes), rho=0.2, batch=9)
    _assert_round_rows_match_streams(oracle, sizes, 9)


def test_quadratic_round_noise_matches_per_agent_calls():
    oracle = obj.quadratic_pl_oracle(n=3, p=4, mu_min=0.2, L=1.0, sigma=0.5, rng_seed=1)
    X = np.random.default_rng(5).normal(size=(3, 4))
    draws = oracle.draw(TrialStreams(99, 0), 7, 2)
    assert draws.shape == (2, 3, 4)
    for step in range(2):
        G = oracle.stochastic_gradient_matrix(X, draws[step])
        for i in range(3):
            gi = oracle.stochastic_gradient(i, X[i], fresh_stream(99, 0, i, 7, step))
            assert np.allclose(G[i], gi, atol=1e-15)


def test_quadratic_round_noise_of_a_batch_matches_each_trial():
    oracle = obj.quadratic_pl_oracle(n=3, p=4, mu_min=0.2, L=1.0, sigma=0.5, rng_seed=1)
    trials = [4, 0, 9]
    draws = oracle.draw(TrialStreams(99, trials), 7, 2)
    assert draws.shape == (2, 3, 3, 4)
    scale = 0.5 / np.sqrt(4)
    for slot, trial in enumerate(trials):
        assert draws[:, slot].tobytes() == oracle.draw(TrialStreams(99, trial), 7, 2).tobytes()
        for step in range(2):
            for i in range(3):
                expected = fresh_stream(99, trial, i, 7, step).normal(0.0, scale, size=4)
                assert draws[step, slot, i].tobytes() == expected.tobytes()


def test_draws_are_none_in_deterministic_mode():
    parts = obj.partition_heterogeneous(two_class_dataset(20, 4, seed=6), 2)
    assert obj.logistic_l2_oracle(parts, rho=0.2, batch=None).draw(None, 0, 3) is None
    quad = obj.QuadraticOracle(A=np.eye(2)[None], b=np.zeros((1, 2)), sigma=0.0)
    assert quad.draw(None, 0, 3) is None
    with pytest.raises(ValueError, match="streams"):
        obj.logistic_l2_oracle(parts, rho=0.2, batch=1).draw(None, 0, 3)


# ---------------------------------------------------------------------------
# the exact-gradient kernel against the per-agent reference

EXACT_KERNEL_PARTITIONS = {
    # one run of equal shards
    "equal": lambda: obj.partition_heterogeneous(two_class_dataset(40, 5, seed=9), 4),
    # 17 shards of 41 rows, then 33 of 40: two runs
    "two_sizes": lambda: obj.partition_heterogeneous(two_class_dataset(2017, 50, seed=1), 50),
    # every agent a run of its own
    "uneven": lambda: _uneven_partition((17, 23, 40, 18, 31), p=6),
}


@pytest.mark.parametrize("reg", ["l2", "nonconvex"])
@pytest.mark.parametrize("partition", list(EXACT_KERNEL_PARTITIONS))
def test_exact_gradient_kernel_equals_per_agent_calls_bit_for_bit(partition, reg):
    parts = EXACT_KERNEL_PARTITIONS[partition]()
    oracle = obj.LogisticOracle(parts, reg=reg, coeff=0.1, batch=None)
    n, p = oracle.n_agents, oracle.dim
    rng = np.random.default_rng(3)

    def reference(X):
        """Per-agent gradients, agent i at row i, for every leading index."""
        return np.array([[oracle.full_gradient(i, Xt[i]) for i in range(n)]
                         for Xt in X.reshape(-1, n, p)]).reshape(X.shape)

    # rows of their own, without and with a leading trial axis
    for shape in [(n, p), (3, n, p)]:
        X = rng.normal(size=shape)
        assert oracle.stochastic_gradient_matrix(X, None).tobytes() == reference(X).tobytes()
    # one point broadcast to every agent, without and with a trial axis
    for shape in [(p,), (2, p)]:
        x = rng.normal(size=shape)
        expected = reference(np.broadcast_to(x[..., None, :], shape[:-1] + (n, p)))
        assert oracle.full_gradients_at(x).tobytes() == expected.tobytes()
    for x in rng.normal(size=(5, p)):
        assert oracle.global_value(x) == float(np.mean([oracle.value(i, x) for i in range(n)]))


# ---------------------------------------------------------------------------
# quadratic oracle

def test_quadratic_identity_construction():
    oracle = obj.QuadraticOracle(A=np.eye(2)[None], b=np.zeros((1, 2)), sigma=0.0)
    x = np.array([0.3, -0.7])
    assert np.allclose(oracle.full_gradient(0, x), x, atol=1e-15)
    assert oracle.f_star == pytest.approx(0.0, abs=1e-15)
    assert oracle.value(0, x) == pytest.approx(0.5 * float(x @ x), abs=1e-15)


def test_quadratic_minimizer_solves_normal_equations():
    oracle = obj.quadratic_pl_oracle(n=12, p=7, mu_min=0.2, L=1.5, sigma=0.0,
                                     rng_seed=4)
    # independent solve of the stationarity condition
    H = oracle.A.mean(axis=0)
    rhs = np.einsum("ipq,iq->p", oracle.A, oracle.b) / 12
    x_star = np.linalg.solve(H, rhs)
    assert np.linalg.norm(oracle.global_gradient(x_star)) <= 1e-10
    assert np.allclose(x_star, oracle.x_star, atol=1e-10)


def test_quadratic_hessian_spectrum_and_psd_agents():
    oracle = obj.quadratic_pl_oracle(n=9, p=6, mu_min=0.3, L=2.0, sigma=0.0,
                                     rng_seed=11)
    eigvals = np.linalg.eigvalsh(oracle.A.mean(axis=0))
    assert eigvals.min() == pytest.approx(0.3, abs=1e-9)
    assert eigvals.max() == pytest.approx(2.0, abs=1e-9)
    for Ai in oracle.A:
        assert np.linalg.eigvalsh(Ai).min() > 0.0


def test_quadratic_pl_inequality():
    oracle = obj.quadratic_pl_oracle(n=8, p=5, mu_min=0.25, L=1.0, sigma=0.0,
                                     rng_seed=13)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=5) * 3.0
        lhs = 2.0 * 0.25 * (oracle.global_value(x) - oracle.f_star)
        g = oracle.global_gradient(x)
        assert lhs <= float(g @ g) * (1.0 + 1e-9)


def test_quadratic_noise_statistics():
    oracle = obj.quadratic_pl_oracle(n=3, p=8, mu_min=0.5, L=1.0, sigma=2.0,
                                     rng_seed=3)
    x = np.zeros(8)
    rng = np.random.default_rng(42)
    full = oracle.full_gradient(0, x)
    draws = np.stack([oracle.stochastic_gradient(0, x, rng) for _ in range(20_000)])
    assert np.allclose(draws.mean(axis=0), full, atol=3.0 * 2.0 / math.sqrt(20_000))
    sq = np.sum((draws - full) ** 2, axis=1)
    assert sq.mean() == pytest.approx(4.0, rel=0.05)


def test_quadratic_center_moves_minimizer_to_origin():
    oracle = obj.quadratic_pl_oracle(n=6, p=4, mu_min=0.2, L=1.0, sigma=0.0,
                                     rng_seed=21, center=True)
    assert np.linalg.norm(oracle.x_star) <= 1e-12
    assert np.linalg.norm(oracle.global_gradient(np.zeros(4))) <= 1e-12


def test_quadratic_parameter_errors():
    with pytest.raises(ValueError):
        obj.quadratic_pl_oracle(n=3, p=4, mu_min=2.0, L=1.0, sigma=0.0, rng_seed=0)
    with pytest.raises(ValueError):
        obj.quadratic_pl_oracle(n=3, p=4, mu_min=0.5, L=1.0, sigma=-1.0, rng_seed=0)


def test_global_values_at_rows_consistency():
    oracle = obj.quadratic_pl_oracle(n=5, p=4, mu_min=0.2, L=1.0, sigma=0.0,
                                     rng_seed=2)
    X = np.random.default_rng(1).normal(size=(5, 4))
    direct = np.array([oracle.global_value(x) for x in X])
    assert np.allclose(oracle.global_values_at_rows(X), direct, atol=1e-12)

    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=2), 5)
    logistic = obj.logistic_l2_oracle(parts, rho=0.2, batch=1)
    direct = np.array([logistic.global_value(x) for x in X])
    assert np.allclose(logistic.global_values_at_rows(X), direct, atol=1e-12)


# ---------------------------------------------------------------------------
# gradient correctness against finite differences

@pytest.mark.parametrize("factory", ["l2", "nonconvex", "quadratic"])
def test_finite_difference_gradients(factory):
    rng = np.random.default_rng(17)
    if factory == "quadratic":
        oracle = obj.quadratic_pl_oracle(n=4, p=5, mu_min=0.2, L=1.0, sigma=0.0,
                                         rng_seed=5)
    else:
        parts = obj.partition_heterogeneous(two_class_dataset(28, 5, seed=7), 4)
        if factory == "l2":
            oracle = obj.logistic_l2_oracle(parts, rho=0.2, batch=None)
        else:
            oracle = obj.logistic_nonconvex_oracle(parts, omega=0.05, batch=None)
    for _ in range(10):
        i = int(rng.integers(0, oracle.n_agents))
        x = rng.normal(size=oracle.dim)
        approx = finite_difference_gradient(lambda y: oracle.value(i, y), x)
        exact = oracle.full_gradient(i, x)
        denom = max(np.linalg.norm(exact), 1e-8)
        assert np.linalg.norm(approx - exact) / denom <= 1e-5
