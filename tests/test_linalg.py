import math

import numpy as np
import pytest

from uncollapse import linalg

from conftest import random_complex_matrix, random_unitary


def test_herm_eig_identity():
    out = linalg.herm_eig(np.eye(2))
    assert np.allclose(out.values, [1.0, 1.0])
    assert linalg.max_abs(out.vectors.conj().T @ out.vectors - np.eye(2)) <= 1e-12


def test_herm_eig_diagonal_ascending():
    out = linalg.herm_eig(np.diag([1.0, 0.25]))
    assert np.allclose(out.values, [0.25, 1.0])
    # already diagonal: canonical basis vectors
    assert np.allclose(np.abs(out.vectors), np.eye(2)[:, ::-1])


def test_herm_eig_reconstruction_random(rng):
    for _ in range(20):
        b = random_complex_matrix(rng, 4)
        a = b + b.conj().T
        out = linalg.herm_eig(a)
        scale = max(1.0, linalg.max_abs(a))
        assert linalg.max_abs(out.reconstruct() - a) <= 1e-12 * scale
        assert linalg.max_abs(out.vectors.conj().T @ out.vectors - np.eye(4)) <= 1e-12
        assert np.all(np.diff(out.values) >= 0.0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_degenerate_deterministic():
    a = np.diag([2.0, 2.0, 5.0]).astype(complex)
    first = linalg.herm_eig(a)
    second = linalg.herm_eig(a)
    assert np.array_equal(first.vectors, second.vectors)
    # degenerate block rebuilt from the canonical basis
    assert np.allclose(np.abs(first.vectors[:, :2]), np.eye(3)[:, :2])


def test_svd_unitary_input(rng):
    u = random_unitary(rng, 3)
    out = linalg.svd(u)
    assert np.allclose(out.s, np.ones(3), atol=1e-12)


def test_svd_diagonal_stretch():
    r = 0.8
    out = linalg.svd(np.diag([math.exp(r / 2.0), math.exp(-r / 2.0)]))
    assert np.allclose(out.s, [math.exp(abs(r) / 2.0), math.exp(-abs(r) / 2.0)])


def test_svd_reconstruction_and_cross_check(rng):
    # singular values must match the square roots of the eigenvalues of
    # M†M computed by the independent Hermitian path
    for _ in range(20):
        m = random_complex_matrix(rng, 3)
        out = linalg.svd(m)
        assert linalg.max_abs(out.reconstruct() - m) <= 1e-11 * max(1.0, linalg.max_abs(m))
        herm = linalg.herm_eig(m.conj().T @ m)
        assert np.allclose(out.s, np.sqrt(np.clip(herm.values[::-1], 0.0, None)), atol=1e-10)
        assert linalg.is_unitary(out.u)
        assert linalg.is_unitary(out.v)


def _reference_fix_column_phases(vectors, rows=None):
    """The column-by-column loop that ``_fix_column_phases`` replaced."""
    out = vectors.copy()
    rows = None if rows is None else rows.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        mag = abs(col[k])
        if mag > 0.0:
            phase = col[k] / mag
            out[:, j] = col * phase.conjugate()
            if rows is not None:
                rows[j, :] = rows[j, :] * phase
    return out, rows


def test_fix_column_phases_bytes_match_reference_loop(rng):
    # 1x1 vectors or rows are left out: numpy multiplies a one-element
    # array by its scalar path, which may round the last bit differently
    cases = []
    for m, n in ((2, 2), (4, 4), (3, 5), (5, 3), (2, 1), (1, 3), (8, 8), (64, 64)):
        cases.append(random_complex_matrix(rng, max(m, n))[:m, :n])
        zeroed = random_complex_matrix(rng, max(m, n))[:m, :n]
        zeroed[:, ::2] = 0.0
        zeroed[0, 0] = -0.0
        cases.append(zeroed)
        # entries of exact magnitude 2 in four phases, so columns tie for their largest
        cases.append(rng.choice(np.array([2.0, -2.0, 2.0j, -2.0j, 1.0 + 1.0j]), (m, n)))
    for dim in (2, 3, 8, 64):
        cases.append(random_unitary(rng, dim))
        b = random_complex_matrix(rng, dim)
        cases.append(np.linalg.eigh(b + b.conj().T)[1])
    cases.append(np.zeros((3, 3), dtype=complex))
    for vectors in cases:
        rows = random_complex_matrix(rng, max(4, vectors.shape[1]))[: vectors.shape[1], :4]
        for r in (None, rows):
            got, got_rows = linalg._fix_column_phases(vectors, r)
            want, want_rows = _reference_fix_column_phases(vectors, r)
            assert got.tobytes() == want.tobytes()
            if r is None:
                assert got_rows is None
            else:
                assert got_rows.tobytes() == want_rows.tobytes()
                assert got_rows is not r


def test_u2_exp_zero_duration():
    assert np.array_equal(linalg.u2_exp(1.3, 0.7, 0.0), np.eye(2))


def test_u2_exp_pi_pulse_swaps_amplitudes():
    u = linalg.u2_exp(0.0, 1.0, math.pi / 2.0)
    assert np.allclose(u, -1j * np.array([[0, 1], [1, 0]]), atol=1e-13)


def test_u2_exp_z_rotation():
    u = linalg.u2_exp(math.pi, 0.0, 1.0)
    assert np.allclose(u, np.diag([1j, -1j]), atol=1e-13)


def test_u2_exp_unitary(rng):
    for _ in range(25):
        eps, h, t = rng.uniform(-4, 4, size=3)
        u = linalg.u2_exp(eps, h, t)
        assert linalg.max_abs(u.conj().T @ u - np.eye(2)) <= 1e-13


def test_basis_to_all_ones_identity():
    assert np.array_equal(linalg.basis_to_all_ones(3, 4), np.eye(4))


def test_basis_to_all_ones_transposition():
    p = linalg.basis_to_all_ones(0, 4)
    e0 = np.zeros(4)
    e0[0] = 1.0
    out = p @ e0
    assert out[3] == 1.0 and np.count_nonzero(out) == 1


def test_basis_to_all_ones_dim8():
    p = linalg.basis_to_all_ones(2, 8)
    e2 = np.zeros(8)
    e2[2] = 1.0
    target = np.zeros(8)
    target[7] = 1.0
    assert np.array_equal(p @ e2, target)
    assert linalg.is_unitary(p)


def test_basis_to_all_ones_range_check():
    with pytest.raises(ValueError):
        linalg.basis_to_all_ones(4, 4)
