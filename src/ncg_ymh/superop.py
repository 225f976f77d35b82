"""Operators on matrix Hilbert spaces via column-major vectorization.

A matrix space M_m carries the Hilbert-Schmidt inner product
<T, W> = Tr(T* W).  Linear maps M_m -> M_m are stored as dense m^2 x m^2
matrices acting on column-stacked matrices, with the convention

    vec(A X B) = (B^T (x) A) vec(X)            (vec column-major)

so left multiplication by K is 1 (x) K and right multiplication is K^T (x) 1.
The maps are plain (m^2, m^2) numpy arrays: they compose with @, their
Hilbert-Schmidt adjoint is .conj().T and their trace is np.trace.  This
single convention is shared by every closed-form / brute-force comparison
in the package.  The action itself is evaluated on m x m matrices (see
`action`); these dense forms are its brute-force oracle.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


def vec(X: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(X).flatten(order="F")


def unvec(v: np.ndarray, m: int) -> np.ndarray:
    return np.asarray(v).reshape((m, m), order="F")


def transpose_permutation(m: int) -> np.ndarray:
    """Permutation P with P vec(X) = vec(X^T); P^2 = 1."""
    # row i + j m picks entry j + i m
    return np.eye(m * m)[np.arange(m * m).reshape(m, m).T.ravel()]


def _square(K: np.ndarray) -> np.ndarray:
    K = np.ascontiguousarray(K, dtype=complex)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {K.shape}")
    return K


def left_mult(K: np.ndarray) -> np.ndarray:
    """T |-> K T."""
    K = _square(K)
    return np.kron(np.eye(K.shape[0]), K)


def right_mult(K: np.ndarray) -> np.ndarray:
    """T |-> T K."""
    K = _square(K)
    return np.kron(K.T, np.eye(K.shape[0]))


def gen_comm(K: np.ndarray, e: int) -> np.ndarray:
    """Generalized (anti)commutator {K, .}_e = Left(K) + e Right(K).

    e = -1 gives the commutator, e = +1 the anticommutator.  The result is
    self-adjoint whenever K* = e K.
    """
    if e not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {e}")
    return left_mult(K) + e * right_mult(K)
