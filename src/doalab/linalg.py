"""The sample covariance and its one eigendecomposition.

:func:`hermitian_evd` is the checked, counted Hermitian eigendecomposition;
:func:`partition` is the only caller of it in the package, and every
estimator in :mod:`doalab.methods` and every order criterion in
:mod:`doalab.order` starts from its :class:`SubspaceDecomposition`, which
keeps the eigenpairs once: each operand a method can score is a view or a
column scaling of them.  Matrices are plain ``complex128`` ndarrays with
value semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for accepting an input as Hermitian.
HERMITIAN_RTOL = 1e-8
# Negative eigenvalues within this relative band are rounding noise on a PSD
# input and get clamped to zero; anything more negative rejects the input.
PSD_CLAMP_RTOL = 1e-10

# Instrumentation: number of eigendecompositions performed by this process.
# The greedy iterative-MUSIC estimators advertise a single decomposition per
# estimate, and the benchmark asserts that through this counter.
_evd_calls = 0


def evd_call_count() -> int:
    """Return the number of ``hermitian_evd`` calls made so far."""
    return _evd_calls


def hermitian_evd(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian positive semidefinite matrix.

    An input that is Hermitian within tolerance but not exactly is
    symmetrized before decomposition, so tiny asymmetries from accumulated
    rounding are tolerated; an exactly Hermitian input is decomposed as
    given.  Negative eigenvalues within ``PSD_CLAMP_RTOL`` of the largest
    one are clamped to zero, which makes positive semidefinite inputs come
    out exactly PSD; any more negative eigenvalue rejects the input, since
    every estimator takes square roots of the eigenvalues.  The eigenvalues
    and eigenvectors are descending views of LAPACK's ascending output.

    Args:
        R: Square matrix, Hermitian within ``HERMITIAN_RTOL`` (relative
            Frobenius).

    Returns:
        ``(eigenvalues, eigenvectors)``: the real eigenvalues, descending,
        and the unitary matrix whose columns are the matching orthonormal
        eigenvectors.

    Raises:
        ValueError: If the input is not square, contains non-finite entries,
            is not Hermitian within tolerance, or is not positive
            semidefinite.
    """
    global _evd_calls
    R = np.asarray(R)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValueError("matrix contains non-finite entries")
    if not np.array_equal(R, R.conj().T):
        # Compared at unit scale: Frobenius norms of R itself overflow or
        # underflow at extreme scales and would silently pass any matrix.
        scale = np.max(np.abs(R))
        unit = R / scale
        if np.linalg.norm(unit - unit.conj().T) > HERMITIAN_RTOL * np.linalg.norm(unit):
            raise ValueError("matrix is not Hermitian within tolerance")
        R = 0.5 * (R + R.conj().T)
    _evd_calls += 1
    w, V = np.linalg.eigh(R)
    # LAPACK returns ascending eigenvalues; flip to descending.
    w, V = w[::-1], V[:, ::-1]
    if w.size and w[-1] < 0:
        tol = PSD_CLAMP_RTOL * max(w[0], 0.0)
        w[(w < 0) & (w >= -tol)] = 0.0
        if w[-1] < 0:
            raise ValueError("negative eigenvalue: matrix is not positive semidefinite")
    return w, V


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Eigenpairs of a PSD covariance, split after the K dominant ones.

    Attributes:
        eigenvalues: The M eigenvalues, descending and nonnegative.
        eigenvectors: M x M unitary matrix of the matching eigenvectors.
        K: Signal subspace dimension.

    S, G, lambda_s and lambda_n are views of the eigenpairs; the scaled
    operands are built on each access.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    K: int

    @property
    def M(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def S(self) -> np.ndarray:
        """M x K matrix of the K dominant eigenvectors."""
        return self.eigenvectors[:, : self.K]

    @property
    def G(self) -> np.ndarray:
        """M x (M-K) matrix of the remaining eigenvectors."""
        return self.eigenvectors[:, self.K :]

    @property
    def lambda_s(self) -> np.ndarray:
        """The K largest eigenvalues, descending."""
        return self.eigenvalues[: self.K]

    @property
    def lambda_n(self) -> np.ndarray:
        """The M-K smallest eigenvalues, descending."""
        return self.eigenvalues[self.K :]

    @property
    def weighted_signal(self) -> np.ndarray:
        """Signal eigenvectors scaled columnwise by sqrt(lambda_s)."""
        return self.S * np.sqrt(self.lambda_s)[None, :]

    @property
    def weighted_noise(self) -> np.ndarray:
        """Noise eigenvectors scaled columnwise by sqrt(lambda_n)."""
        return self.G * np.sqrt(self.lambda_n)[None, :]

    @property
    def sqrt_R(self) -> np.ndarray:
        """Canonical covariance square root ``V diag(sqrt(eigenvalues))``:
        its first K columns are weighted_signal and the rest weighted_noise,
        exactly."""
        return self.eigenvectors * np.sqrt(self.eigenvalues)[None, :]


def sample_covariance(Y: np.ndarray) -> np.ndarray:
    """Sample covariance ``Y @ Y^H / L`` over the L snapshot columns.

    Symmetrized to machine precision so downstream Hermitian routines never
    see accumulated asymmetry.
    """
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ValueError("expected a matrix with at least one snapshot column")
    R = (Y @ Y.conj().T) / Y.shape[1]
    return 0.5 * (R + R.conj().T)


def partition(R: np.ndarray, K: int) -> SubspaceDecomposition:
    """Eigendecompose R (:func:`hermitian_evd`) and split its eigenpairs
    after the K dominant ones.

    Args:
        R: M x M Hermitian PSD sample covariance.
        K: Signal subspace dimension, 0 <= K < M; K = 0 puts every
            eigenpair in the noise block.

    Raises:
        ValueError: If K is out of range, or R is not Hermitian or not
            positive semidefinite.
    """
    M = R.shape[0]
    if not 0 <= K < M:
        raise ValueError(f"K must satisfy 0 <= K < M, got K={K}, M={M}")
    return SubspaceDecomposition(*hermitian_evd(R), K)
