"""Operators on matrix Hilbert spaces via column-major vectorization.

A matrix space M_m carries the Hilbert-Schmidt inner product
<T, W> = Tr(T* W).  Linear maps M_m -> M_m are stored as dense m^2 x m^2
matrices acting on column-stacked matrices, with the convention

    vec(A X B) = (B^T (x) A) vec(X)            (vec column-major)

so left multiplication by K is 1 (x) K and right multiplication is K^T (x) 1.
This single convention is shared by every closed-form / brute-force
comparison in the package.  The action itself is evaluated on m x m
matrices (see `action`); these dense forms are its brute-force oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


def vec(X: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(X).flatten(order="F")


def unvec(v: np.ndarray, m: int) -> np.ndarray:
    return np.asarray(v).reshape((m, m), order="F")


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product, row-index convention consistent with vec."""
    return np.kron(np.asarray(A), np.asarray(B))


def transpose_permutation(m: int) -> np.ndarray:
    """Permutation P with P vec(X) = vec(X^T); P^2 = 1."""
    # row i + j m picks entry j + i m
    return np.eye(m * m)[np.arange(m * m).reshape(m, m).T.ravel()]


@dataclass(frozen=True)
class SuperOp:
    """A linear operator on m x m matrices, held as its m^2 x m^2 rep."""

    side_dim: int
    rep: np.ndarray

    def __post_init__(self):
        m2 = self.side_dim * self.side_dim
        if self.rep.shape != (m2, m2):
            raise DimensionMismatch(
                f"rep shape {self.rep.shape} incompatible with side_dim {self.side_dim}")

    def _check(self, other: "SuperOp"):
        if self.side_dim != other.side_dim:
            raise DimensionMismatch(
                f"side dims differ: {self.side_dim} vs {other.side_dim}")

    def __add__(self, other: "SuperOp") -> "SuperOp":
        self._check(other)
        return SuperOp(self.side_dim, self.rep + other.rep)

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        self._check(other)
        return SuperOp(self.side_dim, self.rep - other.rep)

    def __mul__(self, scalar) -> "SuperOp":
        return SuperOp(self.side_dim, scalar * self.rep)

    __rmul__ = __mul__

    def __neg__(self) -> "SuperOp":
        return SuperOp(self.side_dim, -self.rep)

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        self._check(other)
        return SuperOp(self.side_dim, self.rep @ other.rep)

    def adjoint(self) -> "SuperOp":
        """Adjoint w.r.t. the Hilbert-Schmidt inner product."""
        return SuperOp(self.side_dim, self.rep.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.rep))


def _square(K: np.ndarray) -> np.ndarray:
    K = np.ascontiguousarray(K, dtype=complex)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {K.shape}")
    return K


def left_mult(K: np.ndarray) -> SuperOp:
    """T |-> K T."""
    K = _square(K)
    m = K.shape[0]
    return SuperOp(m, np.kron(np.eye(m), K))


def right_mult(K: np.ndarray) -> SuperOp:
    """T |-> T K."""
    K = _square(K)
    m = K.shape[0]
    return SuperOp(m, np.kron(K.T, np.eye(m)))


def gen_comm(K: np.ndarray, e: int) -> SuperOp:
    """Generalized (anti)commutator {K, .}_e = Left(K) + e Right(K).

    e = -1 gives the commutator, e = +1 the anticommutator.  The result is
    self-adjoint whenever K* = e K.
    """
    if e not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {e}")
    return left_mult(K) + e * right_mult(K)
