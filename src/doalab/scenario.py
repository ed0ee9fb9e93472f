"""Synthetic multi-target observations for a uniform linear array.

Models a passive OFDM sensing receiver: an M-element half-wavelength ULA, the
package's one geometry, collects D symbols by Q subcarriers of narrowband
snapshots from K point targets.  Angles are kept in the normalized domain
u = sin(theta) in [-1, 1) throughout; only the I/O layer ever talks degrees.

Two ways to draw a trial's data share one coefficient model:
:func:`synthesize_observation` builds the M x L observation itself, while
:func:`draw_covariance` draws its sample covariance directly, exactly in
distribution, from the K x K coefficient Gram of :func:`coefficient_gram`.
The estimators and the benchmark read only the covariance.

All randomness flows through an explicit numpy Generator so that a seed (or
a per-trial stream derived from one) reproduces every draw bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0
# Reference range for the inverse-square amplitude law.
RANGE_REF_M = 20.0
MIN_RANGE_M = 5.0
# Redraw cap for the minimum-separation rejection sampler.
MAX_DRAW_ATTEMPTS = 10_000
# Multiplier used to spread trial indices across the 64-bit seed space
# (golden-ratio constant, same spirit as splitmix64).
_SEED_SPREAD = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ScenarioConfig:
    """Radar scene and simulation parameters.

    Attributes:
        targets: Number of point targets K (1 <= K < antennas).
        antennas: ULA element count M.
        subcarriers: OFDM subcarriers Q per symbol.
        symbols: OFDM symbols D per observation.
        snr_db: Per-target-average SNR in dB; ``math.inf`` means noiseless.
        carrier_freq_hz: Carrier frequency.
        subcarrier_spacing_hz: Subcarrier spacing; the symbol period is its
            reciprocal.
        max_range_m: Upper end of the uniform range draw, at least
            MIN_RANGE_M.
        grid_points: Search-grid size N used by the estimators; target draws
            enforce a minimum angular gap of 2/N.
        seed: Base seed for all randomness.
    """

    targets: int = 8
    antennas: int = 16
    subcarriers: int = 512
    symbols: int = 10
    snr_db: float = 40.0
    carrier_freq_hz: float = 5e9
    subcarrier_spacing_hz: float = 78125.0
    max_range_m: float = 60.0
    grid_points: int = 2048
    seed: int = 0

    def validate(self) -> None:
        """Raise ValueError on any structural invariant breach."""
        if self.targets < 1:
            raise ValueError("targets must be >= 1")
        if self.antennas < 2:
            raise ValueError("antennas must be >= 2")
        if self.targets >= self.antennas:
            raise ValueError("targets must be < antennas (proper signal subspace)")
        if self.subcarriers < 1 or self.symbols < 1:
            raise ValueError("subcarriers and symbols must be >= 1")
        if self.grid_points < 2 * self.antennas:
            raise ValueError("grid_points must be >= 2 * antennas")
        if self.grid_points % 2:
            raise ValueError("grid_points must be even")
        for name in ("carrier_freq_hz", "subcarrier_spacing_hz"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not MIN_RANGE_M <= self.max_range_m < math.inf:
            raise ValueError(f"max_range_m must be finite and >= {MIN_RANGE_M:g}")
        if not (self.snr_db == math.inf or math.isfinite(self.snr_db)):
            raise ValueError("snr_db must be finite or +inf")

    @property
    def symbol_period_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def snapshots(self) -> int:
        """Total snapshot count L = D * Q."""
        return self.symbols * self.subcarriers


@dataclass(frozen=True)
class GroundTruth:
    """Per-trial true target parameters.

    Attributes:
        doas: K normalized angles u_k = sin(theta_k) in [-1, 1).
        ranges: K two-way propagation delays tau_k in seconds.
        dopplers: K Doppler shifts in Hz.
        amplitudes: K complex amplitudes alpha_k.
        noise_variance: Per-entry complex noise power sigma^2.
    """

    doas: np.ndarray
    ranges: np.ndarray
    dopplers: np.ndarray
    amplitudes: np.ndarray
    noise_variance: float


@dataclass(frozen=True)
class Observation:
    """One synthesized observation.

    ``Y = steering_matrix(truth.doas) @ coeffs + noise`` holds bit-exactly
    with the stored components.

    Attributes:
        Y: M x (D*Q) received-signal matrix, snapshots as columns ordered
            symbol-major (column index d*Q + q).
        coeffs: K x (D*Q) modulated channel coefficients (the per-target
            phase history times the unknown unit-modulus data symbols).
        truth: The generating GroundTruth.
        noise: The M x (D*Q) additive noise draw.
    """

    Y: np.ndarray
    coeffs: np.ndarray
    truth: GroundTruth
    noise: np.ndarray = field(repr=False, default=None)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial RNG stream.

    Streams depend only on (seed, trial_index), so adding trials never
    perturbs earlier ones and the same trial replays identically.
    """
    stream = (int(seed) ^ (int(trial_index) * _SEED_SPREAD)) % (1 << 64)
    return np.random.Generator(np.random.PCG64(stream))


def steering_matrix(us, M: int) -> np.ndarray:
    """Half-wavelength ULA steering vectors for normalized angles, as columns.

    Entry (m, i) is exp(j * pi * us[i] * m) for m = 0..M-1, so each
    column starts at 1 and has unit-modulus entries.  Column order follows
    the input order; an empty sequence yields an M x 0 matrix.  This is the
    package's one steering builder: the grid's steering table
    (:func:`doalab.fastgrid.make_grid`) is its output on the grid angles.

    Raises:
        ValueError: If any |u| > 1.
    """
    us = np.asarray(us, dtype=float).reshape(-1)
    if us.size and np.max(np.abs(us)) > 1.0:
        raise ValueError("normalized angle out of range")
    return np.exp(1j * math.pi * np.outer(np.arange(M), us))


def draw_targets(cfg: ScenarioConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw a random target set consistent with the configuration.

    Angles are i.i.d. uniform on [-1, 1), redrawn as a block until every
    pairwise gap is at least 2/N (one grid cell).  Ranges are uniform on
    [5 m, max_range_m] and converted to two-way delays; amplitude magnitudes
    follow an inverse-square-of-range law with uniform phases, which gives a
    realistic strong/weak target spread.  Dopplers stay within a quarter of
    the slow-time Nyquist rate.  The noise variance is solved from the SNR
    identity snr = mean(|alpha|^2) / sigma^2.

    Raises:
        ValueError: If the minimum-gap rejection sampler exceeds its attempt
            budget (too many targets for the grid resolution).
    """
    cfg.validate()
    K = cfg.targets
    min_gap = 2.0 / cfg.grid_points
    for _ in range(MAX_DRAW_ATTEMPTS):
        u = rng.uniform(-1.0, 1.0, K)
        if K == 1 or np.min(np.diff(np.sort(u))) >= min_gap:
            break
    else:
        raise ValueError(
            f"could not draw {K} angles with pairwise gap >= {min_gap:g}"
        )
    ranges_m = rng.uniform(MIN_RANGE_M, cfg.max_range_m, K)
    delays = 2.0 * ranges_m / SPEED_OF_LIGHT
    f_dmax = 0.25 / (cfg.symbols * cfg.symbol_period_s)
    dopplers = rng.uniform(-f_dmax, f_dmax, K)
    magnitudes = (RANGE_REF_M / ranges_m) ** 2
    phases = rng.uniform(0.0, 2.0 * math.pi, K)
    amplitudes = magnitudes * np.exp(1j * phases)
    mean_power = float(np.mean(magnitudes**2))
    if cfg.snr_db == math.inf:
        sigma2 = 0.0
    else:
        sigma2 = mean_power / (10.0 ** (cfg.snr_db / 10.0))
    return GroundTruth(
        doas=u,
        ranges=delays,
        dopplers=dopplers,
        amplitudes=amplitudes,
        noise_variance=sigma2,
    )


def _phase_ramps(truth: GroundTruth, cfg: ScenarioConfig) -> tuple:
    """The three factors of the per-target coefficient model.

    Returns the K carrier phases times amplitudes
    ``alpha_k exp(-j 2 pi f_c tau_k)``, the K x D Doppler ramps
    ``exp(+j 2 pi f_k d T_sym)`` and the K x Q range ramps
    ``exp(-j 2 pi df tau_k q)``; target k's coefficient at symbol d,
    subcarrier q is their product times that snapshot's data symbol.
    """
    D, Q = cfg.symbols, cfg.subcarriers
    carrier = truth.amplitudes * np.exp(-2j * math.pi * cfg.carrier_freq_hz * truth.ranges)
    ramp_d = np.exp(2j * math.pi * cfg.symbol_period_s * np.outer(truth.dopplers, np.arange(D)))
    ramp_q = np.exp(-2j * math.pi * cfg.subcarrier_spacing_hz * np.outer(truth.ranges, np.arange(Q)))
    return carrier, ramp_d, ramp_q


def _complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """i.i.d. circular CN(0, variance) entries, variance/2 per real component
    (all real parts drawn first, then all imaginary parts)."""
    z = np.empty(shape, dtype=complex)
    part = np.empty(shape)
    z.real = rng.standard_normal(out=part)
    z.imag = rng.standard_normal(out=part)
    z *= math.sqrt(variance / 2.0)
    return z


def synthesize_observation(
    truth: GroundTruth, cfg: ScenarioConfig, rng: np.random.Generator
) -> Observation:
    """Synthesize the received-signal matrix for a given target set.

    The per-target coefficient at symbol d, subcarrier q is

        alpha_k * exp(-j 2 pi f_c tau_k) * exp(-j 2 pi df tau_k q)
                * exp(+j 2 pi f_k d T_sym)

    i.e. a carrier phase, a range-induced phase ramp across subcarriers, and
    a Doppler-induced ramp across symbols sampled at the symbol period
    T_sym = 1/df.  Unknown unit-modulus data symbols multiply each snapshot;
    noise entries are i.i.d. circular complex Gaussian with total variance
    sigma^2 (half per real component).  Snapshots are laid out symbol-major:
    column index d*Q + q.
    """
    K = truth.doas.size
    D, Q, M = cfg.symbols, cfg.subcarriers, cfg.antennas
    carrier, ramp_d, ramp_q = _phase_ramps(truth, cfg)
    coeffs = carrier[:, None, None] * ramp_d[:, :, None] * ramp_q[:, None, :]
    coeffs = coeffs.reshape(K, D * Q)
    coeffs *= np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, D * Q))  # data symbols

    noise = _complex_normal(rng, (M, D * Q), truth.noise_variance)

    A = steering_matrix(truth.doas, M)
    Y = A @ coeffs
    Y += noise
    return Observation(Y=Y, coeffs=coeffs, truth=truth, noise=noise)


def coefficient_gram(truth: GroundTruth, cfg: ScenarioConfig) -> np.ndarray:
    """The K x K coefficient Gram ``coeffs @ coeffs^H`` of a trial, in closed form.

    The unit-modulus data symbols cancel out of it, and the symbol-major
    snapshot sum factors into the Hadamard product of ``carrier carrier^H``
    with the Doppler-ramp Gram (over D symbols) and the range-ramp Gram
    (over Q subcarriers), so it costs O(K^2 (D + Q)) instead of O(K^2 D Q).
    """
    carrier, ramp_d, ramp_q = _phase_ramps(truth, cfg)
    gram = np.outer(carrier, carrier.conj())
    gram *= ramp_d @ ramp_d.conj().T
    gram *= ramp_q @ ramp_q.conj().T
    return gram


def complex_wishart(M: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """One M x M draw of the complex Wishart CW_M(dof, I), i.e. of ``N N^H``
    for an M x dof block N of i.i.d. CN(0, 1) entries.

    With dof >= M it is ``T T^H`` for the lower-triangular Bartlett factor T:
    ``|T_ii|^2`` is Gamma(dof - i, 1) for i = 0..M-1 and the entries below
    the diagonal are CN(0, 1) (Goodman 1963), M(M+1)/2 draws instead of
    M * dof.  With fewer degrees of freedom N is drawn explicitly; dof = 0
    gives the zero matrix.
    """
    if dof < M:
        N = _complex_normal(rng, (M, dof), 1.0)
        return N @ N.conj().T
    T = np.zeros((M, M), dtype=complex)
    below = np.tril_indices(M, -1)
    T[below] = _complex_normal(rng, below[0].size, 1.0)
    T[np.diag_indices(M)] = np.sqrt(rng.standard_gamma(dof - np.arange(M)))
    return T @ T.conj().T


def gram_factor(gram: np.ndarray, rank: int) -> np.ndarray:
    """K x rank factor Gamma of a K x K Hermitian PSD Gram, ``Gamma Gamma^H = gram``
    up to rounding when the Gram's rank is at most ``rank``.

    Columns are the ``rank`` dominant eigenvectors of numpy's ``eigh``
    scaled by the square roots of their eigenvalues (negative rounding
    clamped to zero).  It deliberately bypasses
    :func:`doalab.linalg.hermitian_evd`, whose call counter counts the
    estimators' eigendecompositions only.
    """
    w, V = np.linalg.eigh(gram)
    w, V = w[::-1][:rank], V[:, ::-1][:, :rank]
    return V * np.sqrt(np.maximum(w, 0.0))


def covariance_from_parts(
    A: np.ndarray, gamma: np.ndarray, n1: np.ndarray, noise_gram, snapshots: int
) -> np.ndarray:
    """``((A Gamma + N1)(A Gamma + N1)^H + W) / L``, symmetrized to exactly Hermitian.

    This is ``Y Y^H / L`` for ``Y = A C + N`` once the noise is rotated onto
    C's row space: with ``C = Gamma B`` for orthonormal rows B and B_perp
    completing them, ``N = N1 B + N2 B_perp`` and ``W = N2 N2^H``.
    ``noise_gram`` may be the scalar 0 (no noise beyond N1).
    """
    X = A @ gamma
    X += n1
    R = X @ X.conj().T
    R += noise_gram
    R /= snapshots
    return 0.5 * (R + R.conj().T)


def draw_covariance(
    truth: GroundTruth, gram: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw the sample covariance of :func:`synthesize_observation`'s Y without Y.

    With ``gram = coefficient_gram(truth, cfg)`` and L = D Q snapshots, the
    M x M result has exactly the distribution of ``Y Y^H / L``: rotating the
    noise onto the coefficients' row space (r = min(K, L) dimensions) leaves
    an M x r block N1 of i.i.d. CN(0, sigma^2) entries beside it and a
    complement whose Gram is sigma^2 times a CW_M(L - r, I) draw (see
    :func:`covariance_from_parts` and :func:`complex_wishart`).  So a trial
    costs at most M r + M(M+1)/2 draws (complex normals, and the Bartlett
    diagonal's gammas) instead of M L complex normals, and no M x L array.
    A noiseless scene (sigma^2 = 0) draws nothing and gives
    ``A gram A^H / L``.  The draws continue ``rng`` after draw_targets, so
    one (seed, trial) stream reproduces the covariance bit-for-bit.
    """
    M, L = cfg.antennas, cfg.snapshots
    A = steering_matrix(truth.doas, M)
    gamma = gram_factor(gram, min(gram.shape[0], L))
    sigma2 = truth.noise_variance
    if sigma2 == 0:
        return covariance_from_parts(A, gamma, 0.0, 0.0, L)
    r = gamma.shape[1]
    n1 = _complex_normal(rng, (M, r), sigma2)
    return covariance_from_parts(A, gamma, n1, sigma2 * complex_wishart(M, L - r, rng), L)
