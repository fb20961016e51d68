import math

import numpy as np
import pytest
from scipy.special import expit, log_expit

from helpers import finite_difference_gradient, fresh_stream, local_reference, \
    quadratic_values_at_rows, round_sites
from lmtsim import objectives as obj
from lmtsim.streams import TrialStreams


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
    for text, fault in [("+1 1:0.5\n-1 nonsense\n", "b.libsvm:2"),
                        ("+1 1:0.5\n-1 2:nan\n", "b.libsvm:2: .*non-finite value 'nan'"),
                        ("inf 1:0.5\n-1 2:1\n", "b.libsvm:1: .*non-finite value 'inf'")]:
        bad.write_text(text)
        with pytest.raises(obj.DatasetError, match=fault):
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
    for text, fault in [("1.0,1\n1.0,x\n", "b.csv:2"),
                        ("1.0,1\ninf,-1\n", "b.csv:2: .*non-finite value 'inf'"),
                        ("1.0,1\n2.0,nan\n", "b.csv:2: .*non-finite value 'nan'"),
                        ("1e999,1\n2.0,-1\n", "b.csv:1: .*non-finite value '1e999'"),
                        ("1.0,2.0,1\n1.0,-1\n", r"b.csv: inconsistent column counts \[2, 3\]"),
                        ("1.0,1\n1.0\n", "b.csv:2: need at least one feature and a label"),
                        ("# a comment\n\n# and another\n", "b.csv: empty dataset file")]:
        bad.write_text(text)
        with pytest.raises(obj.DatasetError, match=fault):
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
    oracle = obj.LogisticOracle(data, "l2", 0.0, None)
    assert oracle.global_value(np.zeros(1)) == pytest.approx(math.log(2.0), abs=1e-12)
    assert oracle.full_gradients_at(np.zeros(1))[0, 0] == pytest.approx(-0.5, abs=1e-12)


def edge_margins():
    """Margins at three scales plus the edge values of the logistic loss:
    +-0, +-inf, NaN, large margins, +-745.2 (where exp(-|m|) is subnormal)
    and the smallest subnormals."""
    rng = np.random.default_rng(4)
    return np.concatenate([
        rng.normal(scale=scale, size=20_000) for scale in (1.0, 30.0, 300.0)] + [
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 100.0, -100.0, 250.5, -250.5,
                  700.0, -700.0, 745.2, -745.2, 5e-324, -5e-324])])


def assert_within_ulps(got, expected, ulps):
    """``got`` equals ``expected`` within ``ulps`` units in the last place
    of ``expected``, elementwise, with NaN and inf at the same positions."""
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    inf = np.isinf(expected)
    assert np.array_equal(got[inf], expected[inf])
    finite = np.isfinite(expected)
    assert np.all(np.abs(got[finite] - expected[finite])
                  <= ulps * np.spacing(np.abs(expected[finite])))


def test_log_expit_loss_equals_logaddexp_bit_for_bit():
    # global_value evaluates the logistic loss as -log_expit(m); it must
    # equal the textbook logaddexp(0, -m) bit for bit, edge values included
    margins = edge_margins()
    with np.errstate(invalid="ignore"):
        expected = np.logaddexp(0.0, -margins)
    assert (-log_expit(margins)).tobytes() == expected.tobytes()


def test_inplace_logistic_loss_within_4_ulp_of_logaddexp():
    # the in-place loss takes the negated margins
    margins = edge_margins()
    with np.errstate(invalid="ignore"):
        expected = np.logaddexp(0.0, -margins)
        got = obj.logistic_loss_inplace(-margins)
    assert_within_ulps(got, expected, 4)
    # the edge values come out exactly as logaddexp gives them
    assert (got[-15:] == expected[-15:])[~np.isnan(expected[-15:])].all()


def test_logistic_values_equal_the_logaddexp_form_bit_for_bit():
    # global_value is bit-equal to the logaddexp form; the rows form of
    # the opt-gap diagnostic is within 4 ulp of it
    parts = obj.partition_heterogeneous(two_class_dataset(60, 5, seed=3), 4)
    oracle = obj.LogisticOracle(parts, "l2", 0.2, 1)
    X = np.random.default_rng(6).normal(scale=20.0, size=(3, 4, 5))
    U = np.concatenate([f for f, _ in parts.shards])
    v = np.concatenate([l for _, l in parts.shards])
    weights = np.concatenate([np.full(len(l), 1.0 / (4 * len(l))) for _, l in parts.shards])
    for Xt, values in zip(X, oracle.global_values_at_rows(X)):
        losses = weights @ np.logaddexp(0.0, -(v[:, None] * (U @ Xt.T)))
        ridge = np.array([0.1 * float(x @ x) for x in Xt])
        assert_within_ulps(values, losses + ridge, 4)
    for x in X[0]:
        expected = [float(np.mean(np.logaddexp(0.0, -(vi * (Ui @ x))))) + 0.1 * float(x @ x)
                    for Ui, vi in parts.shards]
        assert oracle.global_value(x) == float(np.mean(expected))


def test_logistic_gradient_at_origin_closed_form():
    data = two_class_dataset(24, 5, seed=1)
    parts = obj.partition_heterogeneous(data, 4)
    oracle = obj.LogisticOracle(parts, "l2", 0.3, None)
    G = oracle.full_gradients_at(np.zeros(5))
    for i in range(4):
        U, v = parts.shards[i]
        expected = -(U * v[:, None]).mean(axis=0) / 2.0
        assert np.allclose(G[i], expected, atol=1e-12)


def test_nonconvex_regularizer_hand_values():
    data = obj.PartitionedDataset(shards=((np.array([[1.0, 0.0]]), np.array([1.0])),))
    oracle = obj.LogisticOracle(data, "nonconvex", 0.05, None)
    x = np.array([1.0, 1.0])
    # each coordinate contributes 0.05 * (1/2) / 2 to the value
    data_term = math.log(1.0 + math.exp(-1.0))
    assert oracle.global_value(x) == pytest.approx(data_term + 2 * 0.0125, abs=1e-12)
    # regularizer gradient coordinate: 0.05 * 1 / (1 + 1)^2 = 0.0125
    g = oracle.full_gradients_at(x)[0]
    assert g[1] == pytest.approx(0.0125, abs=1e-12)
    zero = oracle.full_gradients_at(np.zeros(2))[0]
    assert oracle.global_value(np.zeros(2)) == pytest.approx(math.log(2.0), abs=1e-12)
    assert zero[1] == pytest.approx(0.0, abs=1e-15)


def test_nonconvex_omega_zero_matches_ridge_rho_zero():
    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=2), 3)
    a = obj.LogisticOracle(parts, "l2", 0.0, None)
    b = obj.LogisticOracle(parts, "nonconvex", 0.0, None)
    x = np.linspace(-1, 1, 4)
    assert a.global_value(x) == pytest.approx(b.global_value(x), abs=1e-14)
    assert np.allclose(a.full_gradients_at(x), b.full_gradients_at(x), atol=1e-14)


def test_full_batch_mode_equals_full_gradient():
    parts = obj.partition_heterogeneous(two_class_dataset(20, 4, seed=3), 2)
    oracle = obj.LogisticOracle(parts, "l2", 0.2, None)
    x = np.array([0.1, -0.4, 0.2, 0.0])
    assert oracle.sigma == 0.0
    (draws_step,) = oracle.draw(None, 0, 1)
    G = oracle.stochastic_gradient_matrix(np.stack([x, x]), draws_step)
    assert np.array_equal(G, oracle.full_gradients_at(x))


def _agent_samples(oracle, x, agent, samples, seed, Q=100):
    """``samples`` stochastic gradients of ``agent`` at ``x``, drawn as
    rounds draw them: every local step of successive rounds of one trial's
    streams, with all agents at ``x``."""
    streams = TrialStreams(seed, 0)
    X = np.broadcast_to(x, (oracle.n_agents, oracle.dim))
    return np.stack([oracle.stochastic_gradient_matrix(X, draws_step)[agent]
                     for t in range(samples // Q) for draws_step in oracle.draw(streams, t, Q)])


def test_minibatch_unbiased_and_variance_bounded():
    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=4), 3)
    oracle = obj.LogisticOracle(parts, "l2", 0.2, 2)
    x = np.random.default_rng(77).normal(size=4) * 0.5
    full = oracle.full_gradients_at(x)[1]
    draws = _agent_samples(oracle, x, 1, 10_000, seed=77)
    assert draws.shape == (10_000, 4)
    per_coord_err = np.abs(draws.mean(axis=0) - full)
    assert np.all(per_coord_err <= 3.0 * oracle.sigma / math.sqrt(10_000))
    sq_dev = np.sum((draws - full) ** 2, axis=1)
    assert sq_dev.mean() <= oracle.sigma ** 2 * 1.1


def test_logistic_smoothness_bound_honored():
    parts = obj.partition_heterogeneous(two_class_dataset(40, 6, seed=5), 4)
    oracle = obj.LogisticOracle(parts, "l2", 0.2, 1)
    bound = max(np.mean(np.sum(f * f, axis=1)) for f, _ in parts.shards) / 4.0 + 0.2
    assert oracle.L <= bound + 1e-12


def test_logistic_configuration_errors():
    parts = obj.partition_heterogeneous(two_class_dataset(20, 4, seed=6), 2)
    with pytest.raises(ValueError, match="batch"):
        obj.LogisticOracle(parts, "l2", 0.2, 100)
    with pytest.raises(ValueError):
        obj.LogisticOracle(parts, "l2", -0.1, 1)
    empty = obj.PartitionedDataset(shards=((np.zeros((0, 2)), np.zeros(0)),))
    with pytest.raises(obj.DatasetError, match="nonempty"):
        obj.LogisticOracle(empty, "l2", 0.2, 1)


def test_stochastic_gradient_matrix_matches_per_agent_calls():
    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=8), 3)
    oracle = obj.LogisticOracle(parts, "l2", 0.2, 2)
    X = np.random.default_rng(5).normal(size=(3, 4))
    streams = TrialStreams(99, 0)
    G = oracle.stochastic_gradient_matrix(X, oracle.draw(streams, 7, 2)[1])
    reference = local_reference(oracle, parts)
    sites = round_sites(99, 0, 7, 2, 3, lambda gen, i: reference.stochastic_gradient(i, X[i], gen))
    # the minibatch sum runs in another order than the reference's: equal
    # within 1e-15, a few ulp of these gradients of size up to 1
    for i in range(3):
        assert np.allclose(G[i], sites[1][i], rtol=0, atol=1e-15)


@pytest.mark.parametrize("reg", ["l2", "nonconvex"])
def test_minibatch_logistic_gradient_equals_the_label_signed_formula_bit_for_bit(reg):
    # the oracle keeps its rows negated; rounding is symmetric in sign, so
    # its gradient equals the formula on the label-signed rows v u exactly
    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=8), 3)
    oracle = obj.LogisticOracle(parts, reg, 0.2, 2)
    reference = local_reference(oracle, parts)
    signed = np.concatenate(reference.signed)
    X = np.random.default_rng(5).normal(size=(2, 3, 4))
    for draws_step in oracle.draw(TrialStreams(99, [0, 1]), 7, 3):
        S = signed[draws_step]
        slope = expit(-np.einsum("...abp,...ap->...ab", S, X))
        expected = (-np.einsum("...ab,...abp->...ap", slope, S) / 2
                    + reference._reg_gradient(X))
        got = oracle.stochastic_gradient_matrix(X, draws_step)
        assert got.tobytes() == expected.tobytes()


def _uneven_partition(sizes, p=3):
    """Shards of the given sizes, rows and labels drawn from one seed."""
    rng = np.random.default_rng(sum(sizes))
    return obj.PartitionedDataset(shards=tuple(
        (rng.normal(size=(s, p)), np.where(rng.random(s) < 0.5, -1.0, 1.0)) for s in sizes))


def _assert_round_rows_match_streams(oracle, sizes, b, seed=13, trials=(2, 7, 0), t=6, Q=3):
    """Rows of one trial, and of a batch of trials, equal each site's
    ``integers`` call on the stream of its trial and round."""
    rows = oracle.draw(TrialStreams(seed, trials[0]), t, Q)
    batch = oracle.draw(TrialStreams(seed, trials), t, Q)
    assert rows.shape == (Q, len(sizes), b)
    assert batch.shape == (Q, len(trials), len(sizes), b)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for slot, trial in enumerate(trials):
        sites = round_sites(seed, trial, t, Q, len(sizes),
                            lambda gen, i: gen.integers(0, sizes[i], size=b))
        for step in range(Q):
            for i in range(len(sizes)):
                assert np.array_equal(batch[step, slot, i], offsets[i] + sites[step][i])
    assert np.array_equal(rows, batch[:, 0])


@pytest.mark.parametrize("b", [1, 2, 7, 8, 9, 17])
def test_logistic_round_draws_match_per_site_streams(b):
    sizes = (17, 23, 40, 18, 31)
    oracle = obj.LogisticOracle(_uneven_partition(sizes), "l2", 0.2, b)
    _assert_round_rows_match_streams(oracle, sizes, b)


def test_logistic_round_draws_with_single_row_shard():
    sizes = (1, 5, 2)
    oracle = obj.LogisticOracle(_uneven_partition(sizes), "l2", 0.2, 1)
    _assert_round_rows_match_streams(oracle, sizes, 1)


def _assert_refused_rounds_are_redrawn(oracles, seed=13, trials=(2, 7, 0)):
    """Round draws that a shared ``TrialStreams``'s cached block cannot
    serve (more steps, another round, another oracle's draws) are drawn anew
    from the streams, as are those it serves: for each of two
    ``(oracle, expected)``, each trial's equal ``expected(gen, Q)`` on a
    fresh generator of its round's stream."""
    streams = TrialStreams(seed, list(trials))
    requests = [(0, 6, 1), (0, 6, 3), (0, 6, 2), (1, 6, 2), (0, 6, 2), (1, 6, 1),
                (0, 7, 3), (0, 6, 3), (0, 6, 1)]
    for which, t, Q in requests:
        oracle, expected = oracles[which]
        got = oracle.draw(streams, t, Q)
        for slot, trial in enumerate(trials):
            want = expected(fresh_stream(seed, trial, t), Q)
            assert got[:, slot].tobytes() == want.tobytes(), (which, t, Q, slot)


def _minibatch_rows(sizes, b):
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])[:, None]
    return lambda gen, Q: offsets + gen.integers(0, np.array(sizes)[:, None],
                                                 size=(Q, len(sizes), b))


def test_logistic_rejected_sites_are_redrawn_from_their_streams():
    sizes = (17, 23, 40)
    _assert_refused_rounds_are_redrawn([
        (obj.LogisticOracle(_uneven_partition(sizes), "l2", 0.2, b), _minibatch_rows(sizes, b))
        for b in (9, 5)])


def test_quadratic_round_noise_matches_per_agent_calls():
    """Noisy gradients of one trial, and of a batch of trials, equal the
    reference's per-agent ``A_i (x_i - b_i)`` plus its own normal draws,
    bit for bit, at a p where a sum in another order than gemv's shows."""
    n, p, Q = 3, 10, 2
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.2, L=1.0, sigma=0.5, rng_seed=1)
    reference = local_reference(oracle)
    rng = np.random.default_rng(5)
    for trials in [4, [4, 0, 9]]:
        streams = TrialStreams(99, trials)
        X = rng.normal(size=streams.shape + (n, p))
        draws = oracle.draw(streams, 7, Q)
        assert draws.shape == (Q,) + streams.shape + (n, p)
        rows = X.reshape(-1, n, p)
        expected = [round_sites(99, trial, 7, Q, n,
                                lambda gen, i: reference.stochastic_gradient(i, x[i], gen))
                    for trial, x in zip(streams.trials, rows)]
        for step in range(Q):
            G = oracle.stochastic_gradient_matrix(X, draws[step]).reshape(-1, n, p)
            for slot in range(len(rows)):
                for i in range(n):
                    assert G[slot, i].tobytes() == expected[slot][step][i].tobytes()


@pytest.mark.parametrize("p", [4, 8, 13])
def test_quadratic_gradients_equal_per_agent_products_bit_for_bit(p):
    """The stacked products equal ``A_i @ (x_i - b_i)`` and ``A_i @ x -
    Ab_i`` agent by agent, without and with a leading trial axis; from
    p = 8 on, a sum in another order than gemv's shows."""
    n = 5
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.2, L=1.0, sigma=0.5, rng_seed=2)
    reference = local_reference(oracle)
    rng = np.random.default_rng(3)
    for shape in [(n, p), (3, n, p)]:
        X = rng.normal(size=shape)
        expected = [reference.gradient(i, x[i]) for x in X.reshape(-1, n, p) for i in range(n)]
        assert oracle.stochastic_gradient_matrix(X, None).tobytes() == np.array(expected).tobytes()
    # the constant term, with its b_i != 0, is the one the oracle sets up
    for shape in [(p,), (2, p)]:
        x = rng.normal(size=shape)
        expected = [oracle.A[i] @ xt - oracle._Ab[i] for xt in x.reshape(-1, p) for i in range(n)]
        assert oracle.full_gradients_at(x).tobytes() == np.array(expected).tobytes()


def _assert_noise_matches_streams(oracle, Q, seed=99, trials=(4, 0, 9), t=7):
    """Noise of one trial, and of a batch of trials, equals each site's
    ``Generator.normal`` call on the stream of its trial and round, bit for
    bit."""
    n, p = oracle.n_agents, oracle.dim
    scale = oracle.sigma / np.sqrt(p)
    alone = oracle.draw(TrialStreams(seed, trials[0]), t, Q)
    batch = oracle.draw(TrialStreams(seed, list(trials)), t, Q)
    assert alone.shape == (Q, n, p) and batch.shape == (Q, len(trials), n, p)
    for slot, trial in enumerate(trials):
        sites = round_sites(seed, trial, t, Q, n, lambda gen, i: gen.normal(0.0, scale, size=p))
        for step in range(Q):
            for i in range(n):
                assert batch[step, slot, i].tobytes() == sites[step][i].tobytes(), (step, slot, i)
    assert alone.tobytes() == batch[:, 0].tobytes()


def test_quadratic_round_noise_of_a_batch_matches_each_trial():
    oracle = obj.quadratic_pl_oracle(n=3, p=4, mu_min=0.2, L=1.0, sigma=0.5, rng_seed=1)
    _assert_noise_matches_streams(oracle, 2)


@pytest.mark.parametrize("Q", [1, 3, 8])
@pytest.mark.parametrize("p", [1, 4, 5, 13])
def test_quadratic_noise_equals_per_site_normals(p, Q):
    oracle = obj.quadratic_pl_oracle(n=5, p=p, mu_min=0.2, L=1.0, sigma=0.5, rng_seed=1)
    _assert_noise_matches_streams(oracle, Q)


def test_quadratic_rejected_sites_are_redrawn_from_their_streams():
    def noisy(sigma):
        oracle = obj.quadratic_pl_oracle(n=3, p=5, mu_min=0.2, L=1.0, sigma=sigma, rng_seed=1)
        return oracle, lambda gen, Q: gen.normal(0.0, sigma / np.sqrt(5), size=(Q, 3, 5))

    _assert_refused_rounds_are_redrawn([noisy(0.5), noisy(0.25)])


def test_draws_are_none_in_deterministic_mode():
    parts = obj.partition_heterogeneous(two_class_dataset(20, 4, seed=6), 2)
    assert obj.LogisticOracle(parts, "l2", 0.2, None).draw(None, 0, 3) == [None] * 3
    quad = obj.QuadraticOracle(A=np.eye(2)[None], b=np.zeros((1, 2)), sigma=0.0)
    assert quad.draw(None, 0, 3) == [None] * 3
    with pytest.raises(ValueError, match="streams"):
        obj.LogisticOracle(parts, "l2", 0.2, 1).draw(None, 0, 3)


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
    local = local_reference(oracle, parts)

    def reference(X):
        """Per-agent gradients, agent i at row i, for every leading index."""
        return np.array([[local.gradient(i, Xt[i]) for i in range(n)]
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
        assert oracle.global_value(x) == float(np.mean([local.value(i, x) for i in range(n)]))


# ---------------------------------------------------------------------------
# quadratic oracle

def test_quadratic_identity_construction():
    oracle = obj.QuadraticOracle(A=np.eye(2)[None], b=np.zeros((1, 2)), sigma=0.0)
    x = np.array([0.3, -0.7])
    assert np.allclose(oracle.full_gradients_at(x)[0], x, atol=1e-15)
    assert oracle.f_star == pytest.approx(0.0, abs=1e-15)
    assert oracle.global_value(x) == pytest.approx(0.5 * float(x @ x), abs=1e-15)


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
    full = oracle.full_gradients_at(x)[0]
    draws = _agent_samples(oracle, x, 0, 20_000, seed=42)
    assert draws.shape == (20_000, 8)
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
    assert np.allclose(quadratic_values_at_rows(oracle, X), direct, atol=1e-12)

    parts = obj.partition_heterogeneous(two_class_dataset(30, 4, seed=2), 5)
    logistic = obj.LogisticOracle(parts, "l2", 0.2, 1)
    direct = np.array([logistic.global_value(x) for x in X])
    assert np.allclose(logistic.global_values_at_rows(X), direct, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# gradient correctness against finite differences

@pytest.mark.parametrize("factory", ["l2", "nonconvex", "quadratic"])
def test_finite_difference_gradients(factory):
    rng = np.random.default_rng(17)
    parts = None
    if factory == "quadratic":
        oracle = obj.quadratic_pl_oracle(n=4, p=5, mu_min=0.2, L=1.0, sigma=0.0,
                                         rng_seed=5)
    else:
        parts = obj.partition_heterogeneous(two_class_dataset(28, 5, seed=7), 4)
        if factory == "l2":
            oracle = obj.LogisticOracle(parts, "l2", 0.2, None)
        else:
            oracle = obj.LogisticOracle(parts, "nonconvex", 0.05, None)
    reference = local_reference(oracle, parts)
    for _ in range(10):
        i = int(rng.integers(0, oracle.n_agents))
        x = rng.normal(size=oracle.dim)
        approx = finite_difference_gradient(lambda y: reference.value(i, y), x)
        exact = oracle.full_gradients_at(x)[i]
        denom = max(np.linalg.norm(exact), 1e-8)
        assert np.linalg.norm(approx - exact) / denom <= 1e-5
