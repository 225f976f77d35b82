import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncg_ymh import superop
from ncg_ymh.errors import DimensionMismatch

rng = np.random.default_rng(5)


def rand_c(m, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    return r.normal(size=(m, m)) + 1j * r.normal(size=(m, m))


def apply(op, X):
    """op applied to the square matrix X through the vec convention."""
    return superop.unvec(op @ superop.vec(X), X.shape[0])


def test_vec_unvec_roundtrip():
    X = rand_c(3)
    assert np.array_equal(superop.unvec(superop.vec(X), 3), X)


def test_vec_convention_oracle():
    # vec(A X B) = (B^T kron A) vec(X) at m = 3
    A, X, B = rand_c(3), rand_c(3), rand_c(3)
    lhs = superop.vec(A @ X @ B)
    rhs = np.kron(B.T, A) @ superop.vec(X)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_left_right_oracle():
    K, T = rand_c(3), rand_c(3)
    np.testing.assert_allclose(apply(superop.left_mult(K), T), K @ T, atol=1e-12)
    np.testing.assert_allclose(apply(superop.right_mult(K), T), T @ K, atol=1e-12)
    # Left(K) Right(K) vec(T) = vec(K T K)
    both = superop.left_mult(K) @ superop.right_mult(K)
    np.testing.assert_allclose(apply(both, T), K @ T @ K, atol=1e-12)


def test_identity_and_traces():
    assert np.allclose(superop.left_mult(np.eye(4)), np.eye(16))
    K = rand_c(3)
    assert abs(np.trace(superop.left_mult(K)) - 3 * np.trace(K)) <= 1e-12
    A, B = rand_c(3), rand_c(3)
    comp = superop.left_mult(A) @ superop.left_mult(B)
    assert abs(np.trace(comp) - 3 * np.trace(A @ B)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31))
def test_left_right_commute(m, seed):
    K, W = rand_c(m, seed), rand_c(m, seed + 1)
    lhs = superop.left_mult(K) @ superop.right_mult(W)
    rhs = superop.right_mult(W) @ superop.left_mult(K)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.sampled_from([-1, 1]),
       st.integers(min_value=0, max_value=2 ** 31))
def test_gen_comm_action(m, e, seed):
    K, T = rand_c(m, seed), rand_c(m, seed + 2)
    out = apply(superop.gen_comm(K, e), T)
    np.testing.assert_allclose(out, K @ T + e * T @ K, atol=1e-12)


def test_gen_comm_with_identity():
    assert np.abs(superop.gen_comm(np.eye(3), -1)).max() == 0
    assert np.allclose(superop.gen_comm(np.eye(3), +1), 2 * np.eye(9))


def test_gen_comm_e_selfadjointness():
    # with K* = e K the operator satisfies adjoint = e * op ("e-self-adjoint");
    # kron with the matching gamma then makes the Dirac term self-adjoint
    H = rand_c(3)
    H = (H + H.conj().T) / 2
    op = superop.gen_comm(1j * H, -1)
    np.testing.assert_allclose(op.conj().T, -op, atol=1e-12)
    op = superop.gen_comm(H, +1)
    np.testing.assert_allclose(op.conj().T, op, atol=1e-12)


def test_adjoint_of_gen_comm_rule():
    # adjoint({K, .}_e) = {K*, .}_e under the Hilbert-Schmidt pairing
    for e in (-1, +1):
        K = rand_c(4)
        lhs = superop.gen_comm(K, e).conj().T
        rhs = superop.gen_comm(K.conj().T, e)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_hilbert_schmidt_pairing():
    K = rand_c(3)
    S = superop.gen_comm(K, -1)
    T, W = rand_c(3), rand_c(3)
    lhs = np.vdot(superop.vec(W), S @ superop.vec(T))
    rhs = np.vdot(S.conj().T @ superop.vec(W), superop.vec(T))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_adjoint_left_is_left_of_adjoint():
    K = rand_c(3)
    np.testing.assert_allclose(superop.left_mult(K).conj().T,
                               superop.left_mult(K.conj().T), atol=1e-13)


def test_kron_identities():
    assert np.array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))
    A, C = rand_c(2), rand_c(2)
    B, D = rand_c(3), rand_c(3)
    np.testing.assert_allclose(np.kron(A, B) @ np.kron(C, D),
                               np.kron(A @ C, B @ D), atol=1e-12)
    assert abs(np.trace(np.kron(A, B)) - np.trace(A) * np.trace(B)) <= 1e-12
    # associativity: entries are triple products, equal to a reassociation ulp
    np.testing.assert_allclose(np.kron(np.kron(A, B), C),
                               np.kron(A, np.kron(B, C)), rtol=1e-14)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        superop.left_mult(np.ones((2, 3)))


def test_transpose_permutation():
    P = superop.transpose_permutation(3)
    X = rand_c(3)
    np.testing.assert_allclose(P @ superop.vec(X), superop.vec(X.T), atol=0)
    assert np.array_equal(P @ P, np.eye(9))
