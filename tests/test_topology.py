import math

import numpy as np
import pytest

from helpers import save_mixing_csv
from lmtsim import topology as tp


def lazy_ring_eigen(n):
    """Closed-form circulant eigenvalues of the lazy uniform ring."""
    k = np.arange(n)
    return (1.0 + (1.0 + 2.0 * np.cos(2.0 * np.pi * k / n)) / 3.0) / 2.0


@pytest.mark.parametrize("n", [3, 4, 5, 10, 50, 100])
def test_ring_matrix_invariants(n):
    mix = tp.build_ring_mixing(n)
    W = mix.weights
    assert np.abs(W - W.T).max() <= 1e-12
    assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12
    assert W.min() >= -1e-12
    assert np.linalg.eigvalsh(W).min() >= -1e-12
    assert 0.0 <= mix.lam < 1.0
    assert mix.spectral_gap == pytest.approx(1.0 - mix.lam)


def test_ring_matches_circulant_closed_form():
    for n in (4, 20, 50, 100):
        mix = tp.build_ring_mixing(n)
        eigen = lazy_ring_eigen(n)
        expected = np.abs(eigen[1:]).max()
        assert mix.lam == pytest.approx(expected, abs=1e-12)


def test_ring4_eigenvalue_is_two_thirds():
    # k=1 circulant eigenvalue: (1 + (1 + 2 cos(pi/2)) / 3) / 2 = 2/3
    mix = tp.build_ring_mixing(4)
    assert mix.lam == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert mix.spectral_gap == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_ring_quoted_spectral_gaps():
    assert tp.build_ring_mixing(100).spectral_gap == pytest.approx(6.6e-4, rel=0.05)
    assert tp.build_ring_mixing(50).spectral_gap == pytest.approx(2.6e-3, rel=0.05)


def test_ring_rejects_tiny_graphs():
    with pytest.raises(tp.MixingMatrixError):
        tp.build_ring_mixing(2)


def test_complete_mixing():
    m1 = tp.build_complete_mixing(1)
    assert m1.weights.tolist() == [[1.0]]
    assert m1.lam == 0.0
    m3 = tp.build_complete_mixing(3)
    assert np.allclose(m3.weights, 1.0 / 3.0)
    assert m3.lam == pytest.approx(0.0, abs=1e-12)
    assert tp.build_complete_mixing(10).spectral_gap == pytest.approx(1.0, abs=1e-12)


def test_spectral_quantities_validation_errors():
    good = tp.build_ring_mixing(5).weights.copy()

    asym = good.copy()
    asym[0, 1] += 1e-6
    with pytest.raises(tp.MixingMatrixError, match="symmetric"):
        tp.from_weights(asym)

    nonstoch = good * 0.9
    with pytest.raises(tp.MixingMatrixError, match="sum"):
        tp.from_weights(nonstoch)

    # symmetric doubly stochastic but indefinite: rapid-mixing ring without
    # the lazy half step
    n = 6
    W0 = np.zeros((n, n))
    idx = np.arange(n)
    W0[idx, (idx + 1) % n] = 0.5
    W0[idx, (idx - 1) % n] = 0.5
    with pytest.raises(tp.MixingMatrixError, match="semidefinite"):
        tp.from_weights(W0)

    neg = good.copy()
    neg[0, 0] -= 1e-6
    neg[0, 2] += 1e-6
    neg[2, 0] += 1e-6
    neg[2, 2] -= 1e-6
    # keep it symmetric/stochastic but push an entry negative
    neg[0, 2] -= 2e-6 + neg[0, 2]
    with pytest.raises(tp.MixingMatrixError):
        tp.from_weights(neg)


def test_disconnected_graph_warns_not_raises():
    block = np.full((3, 3), 1.0 / 3.0)
    W = np.zeros((6, 6))
    W[:3, :3] = block
    W[3:, 3:] = block
    with pytest.warns(UserWarning, match="not connected"):
        mix = tp.from_weights(W)
    assert mix.lam == 1.0
    assert mix.spectral_gap == 0.0


def test_lca_params_formula():
    single = tp.build_complete_mixing(1)
    assert single.lam == 0.0
    assert single.eta_w == 0.5
    assert single.rho_w == math.sqrt(0.5)
    assert tp.C0 == 14.0

    for n, eta_ref, rho_ref in [(50, 0.93244, 0.96563), (100, 0.96501, 0.98235)]:
        mix = tp.build_ring_mixing(n)
        direct = 1.0 / (1.0 + math.sqrt(1.0 - mix.lam * mix.lam))
        assert mix.eta_w == pytest.approx(direct, abs=1e-14)
        assert mix.eta_w == pytest.approx(eta_ref, abs=1e-5)
        assert mix.rho_w == pytest.approx(rho_ref, abs=1e-5)
        assert mix.rho_w ** 2 == pytest.approx(mix.eta_w, abs=1e-14)


def test_lca_params_domain():
    # lam spans [0, 1]: a complete graph mixes in one round, and a
    # disconnected one has lam = 1 exactly, where the constants reach 1
    assert tp.build_complete_mixing(4).eta_w == pytest.approx(0.5, abs=1e-15)
    two_blocks = np.kron(np.eye(2), np.full((2, 2), 0.5))
    with pytest.warns(UserWarning, match="not connected"):
        mix = tp.from_weights(two_blocks)
    assert (mix.lam, mix.eta_w, mix.rho_w) == (1.0, 1.0, 1.0)


def test_lca_mix_consensus_fixed_point():
    mix = tp.build_ring_mixing(6)
    v = np.arange(3.0)
    top = np.tile(v, (6, 1))
    assert np.allclose(tp.lca_mix(mix, 0.7, top, top.copy()), top, atol=1e-13)


def test_lca_mix_zero_eta_is_plain_mixing():
    mix = tp.build_ring_mixing(5)
    rng = np.random.default_rng(0)
    top = rng.normal(size=(5, 3))
    bottom = rng.normal(size=(5, 3))
    assert np.allclose(tp.lca_mix(mix, 0.0, top, bottom), mix.weights @ top, atol=1e-14)


def test_lca_mix_shape_errors():
    mix = tp.build_ring_mixing(5)
    with pytest.raises(ValueError):
        tp.lca_mix(mix, 0.5, np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        tp.lca_mix(mix, 0.5, np.zeros((4, 2)), np.zeros((4, 2)))


def test_stacking_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        p = int(rng.integers(1, 6))
        A = rng.normal(size=(n, p))
        proj = np.eye(n) - np.ones((n, n)) / n
        stacked = np.vstack([proj @ A, proj @ A])
        lhs = float(np.sum(stacked * stacked))
        rhs = 2.0 * float(np.sum((proj @ A) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lca_contraction_short_suite():
    # smaller version of the acceptance property; also cross-checks the
    # operator against explicit 2n x 2n matrix powering
    rng = np.random.default_rng(123)
    for case in range(20):
        n = int(rng.integers(3, 21))
        p = int(rng.integers(1, 6))
        mix = tp.build_ring_mixing(n) if case % 4 else tp.build_complete_mixing(n)
        A = rng.normal(size=(n, p))
        proj = np.eye(n) - np.ones((n, n)) / n
        pa = proj @ A
        bound0 = float(np.sum(pa * pa))

        big = np.zeros((2 * n, 2 * n))
        big[:n, :n] = (1.0 + mix.eta_w) * mix.weights
        big[:n, n:] = -mix.eta_w * np.eye(n)
        big[n:, :n] = np.eye(n)
        proj2 = np.zeros((2 * n, 2 * n))
        proj2[:n, :n] = proj
        proj2[n:, n:] = proj

        top, bottom = pa.copy(), pa.copy()
        vec = np.vstack([pa, pa])
        for k in range(31):
            stacked = np.vstack([top, bottom])
            assert np.abs(stacked - vec).max() <= 1e-10 * (1 + np.abs(vec).max())
            projected = proj2 @ stacked
            norm2 = float(np.sum(projected * projected))
            assert norm2 <= 14.0 * mix.rho_w ** (2 * k) * bound0 * (1 + 1e-9)
            top, bottom = tp.lca_mix(mix, mix.eta_w, top, bottom), top
            vec = big @ vec


def test_csv_roundtrip(tmp_path):
    mix = tp.build_ring_mixing(7)
    path = tmp_path / "w.csv"
    save_mixing_csv(mix, str(path))
    loaded = tp.load_mixing_csv(str(path))
    assert np.array_equal(loaded.weights, mix.weights)
    assert loaded.lam == pytest.approx(mix.lam, abs=1e-14)


def test_csv_load_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,0.5\n0.5,oops\n")
    with pytest.raises(tp.MixingMatrixError, match="bad.csv:2"):
        tp.load_mixing_csv(str(bad))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.5,0.5\n1.0\n")
    with pytest.raises(tp.MixingMatrixError, match="ragged"):
        tp.load_mixing_csv(str(ragged))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(tp.MixingMatrixError, match="empty"):
        tp.load_mixing_csv(str(empty))
    invalid = tmp_path / "invalid.csv"
    invalid.write_text("0.9,0.1\n0.2,0.8\n")
    with pytest.raises(tp.MixingMatrixError, match="symmetric"):
        tp.load_mixing_csv(str(invalid))
