"""Joint-frequency grids and the Gaussian model of the photon pair's spectrum.

Working units are nm for wavelengths, fs for times and rad/fs for angular
frequencies. A grid holds detunings nu = omega - omega0 around the
downconverted-photon center frequency, shared by both frequency axes.

Width conventions (fixed here because they are otherwise ambiguous):

* A filtered photon with coherence time ``t_c`` has the Gaussian amplitude
  spectrum exp(-nu^2 / (4 sigma^2)) with sigma = 1/t_c, so the magnitude of
  its field autocorrelation is exp(-tau^2 / (2 t_c^2)).
* The pump envelope enters the joint amplitude as
  exp(-(nu1 + nu2)^2 * tau_p^2 / 2) for pump coherence time ``tau_p``.

The joint spectral amplitude is the product of the pump envelope and one
filter Gaussian per photon; phase matching of the thin crystal is absorbed
into the filter widths, which are the narrower constraint. This model is
analytically integrable, which is what makes the closed-form reference in
``oracle`` possible (see docs/closed_form.md).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractViolation

SPEED_OF_LIGHT_NM_PER_FS = 299.792458

_MIN_GRID_N = 64
_MAX_GRID_N = 8192
_MIN_SPAN_SIGMA = 4.0
# Grid spacing must stay below this multiple of the narrowest spectral
# feature for the quadrature to hold the 1e-3 closed-form gate.
_RIDGE_SAMPLING_FACTOR = 1.25


def _is_real(value) -> bool:
    """Whether a config value is a real number: any int or float type,
    numpy scalars included, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_field_types(config) -> None:
    """Refuse a field value that is not of the type of the field's default.

    A float field takes any real number and an int field any integer,
    numpy scalars included but bool in neither, and a real must be
    finite; any other field takes instances of its default's class, so
    a rod axis must be a RodAxis, not its name.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        kind = type(f.default)
        if kind is float or kind is int:
            if not _is_real(value) or (kind is int and not isinstance(value, numbers.Integral)):
                noun = "an integer" if kind is int else "a real number"
                raise ConfigurationError(f"{f.name} must be {noun}, got {value!r}")
            if not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        elif not isinstance(value, kind):
            raise ConfigurationError(f"{f.name} must be a {kind.__name__}, got {value!r}")


def coherence_time_from_filter(fwhm_nm: float, center_nm: float) -> float:
    """Coherence time (fs) of a photon behind a bandpass filter.

    Uses lambda^2 / (c * delta_lambda) with c in nm/fs; a 20 nm filter at
    780 nm gives roughly 101 fs.
    """
    if fwhm_nm <= 0 or center_nm <= 0:
        raise ConfigurationError(
            f"filter width and center must be positive, got fwhm={fwhm_nm}, center={center_nm}"
        )
    return center_nm**2 / (SPEED_OF_LIGHT_NM_PER_FS * fwhm_nm)


def sigma_from_coherence_time(t_c: float) -> float:
    """Amplitude-spectrum width sigma = 1/t_c (rad/fs) for a Gaussian line.

    Convention: amplitude spectrum exp(-nu^2/(4 sigma^2)), autocorrelation
    magnitude exp(-tau^2/(2 t_c^2)).
    """
    if t_c <= 0:
        raise ConfigurationError(f"coherence time must be positive, got {t_c}")
    return 1.0 / t_c


@dataclass(frozen=True)
class SpectralParams:
    """Spectral description of the pump, the pair and the detection filters.

    pump_coherence_time in fs, filter_fwhm / filter_center in nm.
    asymmetry_ratio scales the two photons' marginal widths as
    sigma1 = ratio * sigma_f and sigma2 = sigma_f / ratio, a one-parameter
    handle on the spectral distinction between the two rays; 1 means the
    pair is exchange symmetric. Rates depend on detunings only, so the
    optical center frequencies do not enter.
    """

    pump_coherence_time: float = 120.0
    filter_fwhm: float = 20.0
    filter_center: float = 780.0
    asymmetry_ratio: float = 1.0

    def __post_init__(self) -> None:
        _check_field_types(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0:
                raise ConfigurationError(f"{f.name} must be positive, got {value}")
        # Finite inputs can still give widths that underflow to 0 or overflow
        # to inf once squared, which would divide by zero downstream.
        try:
            derived = (
                4.0 * self.sigma1**2,
                4.0 * self.sigma2**2,
                interference_width(self),
                pump_ridge_sigma(self),
            )
        except (ArithmeticError, ConfigurationError):
            derived = (math.nan,)
        if not all(x > 0 and math.isfinite(x) for x in derived):
            raise ConfigurationError(
                "spectral parameters out of range: a derived width "
                f"underflows to 0 or overflows to inf in {self!r}"
            )

    @property
    def filter_coherence_time(self) -> float:
        return coherence_time_from_filter(self.filter_fwhm, self.filter_center)

    @property
    def sigma_filter(self) -> float:
        return sigma_from_coherence_time(self.filter_coherence_time)

    @property
    def sigma1(self) -> float:
        return self.asymmetry_ratio * self.sigma_filter

    @property
    def sigma2(self) -> float:
        return self.sigma_filter / self.asymmetry_ratio

    @property
    def sigma_max(self) -> float:
        """Largest per-photon spectral sigma; the pump factor only narrows
        the support, so it does not enter the span requirement."""
        return max(self.sigma1, self.sigma2)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform, symmetric detuning grid shared by both frequency axes, built
    only from its size n, a power of two from 2 to 8192, and its half-width
    in rad/fs, whose spacing 2 half_width / (n - 1), the uniform quadrature
    weight, must be finite and non-zero; anything else is a
    ContractViolation. The points np.linspace(-half_width, half_width, n)
    are derived from them, so every grid is uniform by construction."""

    n: int
    half_width: float
    points: np.ndarray = field(init=False, repr=False, compare=False)
    weight: float = field(init=False)

    def __post_init__(self) -> None:
        n, half = self.n, self.half_width
        if not (isinstance(n, numbers.Integral) and 2 <= n <= _MAX_GRID_N and n & (n - 1) == 0):
            raise ContractViolation(f"grid n = {n} is not a power of two from 2 to {_MAX_GRID_N}")
        object.__setattr__(self, "n", int(n))
        weight = 2.0 * half / (self.n - 1) if _is_real(half) else math.nan
        if not 0.0 < weight < math.inf:
            raise ContractViolation(f"grid half-width {half} gives no finite, non-zero spacing")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "points", np.linspace(-half, half, self.n))
        self.points.setflags(write=False)


def _check_grid_request(n: int, span_sigma: float) -> None:
    if not _MIN_GRID_N <= n <= _MAX_GRID_N or (n & (n - 1)) != 0:
        raise ConfigurationError(
            f"grid n must be a power of two from {_MIN_GRID_N} to {_MAX_GRID_N}, got {n}"
        )
    if not (span_sigma >= _MIN_SPAN_SIGMA and math.isfinite(span_sigma)):
        raise ConfigurationError(
            f"grid span must be finite and cover at least +-{_MIN_SPAN_SIGMA} sigma, "
            f"got {span_sigma}"
        )


def pump_ridge_sigma(params: SpectralParams) -> float:
    """Width (rad/fs) of the narrowest feature of |f|^2, which lies along
    the sum-frequency direction once the pump outlives the filters."""
    s = 1.0 / (4.0 * params.sigma1**2) + 1.0 / (4.0 * params.sigma2**2)
    return 1.0 / math.sqrt(2.0 * params.pump_coherence_time**2 + s)


def auto_grid(params: SpectralParams, n: int = 256, span_sigma: float = 6.0) -> FrequencyGrid:
    """Grid used by the engine: the requested size, raised to the next power
    of two whenever the pump ridge would otherwise be undersampled.

    A long pump coherence time squeezes the joint amplitude onto a narrow
    anti-diagonal ridge; sampling it coarser than its width aliases the
    rates. The requested n acts as a floor, never a ceiling.
    """
    _check_grid_request(n, span_sigma)

    ridge = pump_ridge_sigma(params)
    max_spacing = _RIDGE_SAMPLING_FACTOR * ridge
    intervals = 2.0 * span_sigma * params.sigma_max / max_spacing
    # n points span n - 1 intervals, and no grid is finer than n = _MAX_GRID_N.
    if not intervals <= _MAX_GRID_N - 1:
        needed = 2.0 ** math.ceil(math.log2(intervals + 1.0)) if intervals < 2.0**1023 else math.inf
        raise ConfigurationError(
            f"resolving the amplitude's ridge, {ridge:.3g} rad/fs wide on a span of "
            f"+-{span_sigma * params.sigma_max:.3g} rad/fs, needs {intervals:.6g} grid intervals, "
            f"n = {needed:.6g}, past the largest grid, n = {_MAX_GRID_N}; a longer pump "
            "coherence time or a narrower photon narrows the ridge, and the closed-form "
            "reference needs no grid"
        )
    n_eff = n
    while n_eff < intervals + 1:
        n_eff *= 2
    return FrequencyGrid(n_eff, span_sigma * params.sigma_max)


class JointSpectralAmplitude:
    """Pair amplitude f(nu_i, nu_j) = g1[i] g2[j] pump[i + j] / N on a
    shared grid, given by its 1-D ``factors`` (g1, g2, pump), real or
    complex.

    Axis 0 is the photon sent into arm 1, axis 1 the photon in arm 2; pump
    lives on the 2n - 1 grid sums and N is the L2 norm of the product. A
    spectral phase on either photon, from dispersion or a birefringent
    element, is a complex g1 or g2. The factors are kept read-only, as
    float64 or complex128; nothing forms the n x n array. ``symmetric``
    tells whether swapping the two arguments is the identity bit for bit.
    """

    _spectral: SpectralParams | None = None

    def __init__(self, grid: FrequencyGrid, factors: tuple[np.ndarray, np.ndarray, np.ndarray]):
        # Integer squares wrap and bool arrays read as 0 and 1, so neither
        # has a meaningful norm.
        for array in factors:
            if not np.issubdtype(array.dtype, np.inexact):
                raise ContractViolation(
                    f"amplitude arrays must be float or complex, got dtype {array.dtype}"
                )
        n = grid.n
        if [f.shape for f in factors] != [(n,), (n,), (2 * n - 1,)]:
            raise ContractViolation(f"factors must have lengths n, n and 2n - 1 for n = {n}")
        factors = tuple(f.astype(np.result_type(f, np.float64), copy=False) for f in factors)
        # The rate engine skips kernel entries where |pump|^2 is zero; they
        # are exact zeros only while the products of four filter factors
        # are finite, which finite fourth powers guarantee.
        with np.errstate(over="ignore", invalid="ignore"):
            peaks = [np.abs(f).max() for f in factors]
            finite = all(np.isfinite(peak * peak) for peak in peaks)
            finite = finite and all(np.isfinite(peak**4) for peak in peaks[:2])
        if not finite:
            raise ContractViolation(
                "factors must have finite squares, and the filter factors finite fourth powers"
            )
        for array in factors:
            array.setflags(write=False)
        self.grid = grid
        self.factors = factors

    @property
    def spectral(self) -> SpectralParams | None:
        """The spectral model ``build_jsa`` drew the factors from, or None
        for factors built by hand."""
        return self._spectral

    @cached_property
    def symmetric(self) -> bool:
        """Whether f(nu1, nu2) == f(nu2, nu1) bit for bit, which g1 == g2
        guarantees."""
        return np.array_equal(self.factors[0], self.factors[1])


def build_jsa(params: SpectralParams, grid: FrequencyGrid | None = None) -> JointSpectralAmplitude:
    """Double-Gaussian joint spectral amplitude, normalized to unit L2 norm.

    f(nu1, nu2) = N * exp(-(nu1+nu2)^2 tau_p^2 / 2)
                    * exp(-nu1^2 / (4 sigma1^2)) * exp(-nu2^2 / (4 sigma2^2))

    The model is real and returned as its factors, which cost O(n) calls
    to exp: the two filter Gaussians and the pump factor, which depends on
    nu1 + nu2 only and is evaluated once per sum
    s_m = nu[min(m, n-1)] + nu[max(0, m-n+1)]. The rate engine and the
    arrival-time marginals read these factors without an n x n array.

    With asymmetry_ratio = 1 the two filter factors are equal bit for bit,
    so the amplitude is exactly exchange symmetric, down to the
    floating-point representation. The amplitude keeps ``params`` as its
    ``spectral`` model.
    """
    if grid is None:
        grid = auto_grid(params)
    if grid.half_width < _MIN_SPAN_SIGMA * params.sigma_max:
        raise ConfigurationError(
            f"grid half-width {grid.half_width:.6g} rad/fs does not cover "
            f"+-{_MIN_SPAN_SIGMA} x sigma_max = {_MIN_SPAN_SIGMA * params.sigma_max:.6g}"
        )
    nu = grid.points
    g1 = np.exp(-(nu**2) / (4.0 * params.sigma1**2))
    g2 = np.exp(-(nu**2) / (4.0 * params.sigma2**2))
    sums = np.concatenate((nu + nu[0], nu[1:] + nu[-1]))
    pump = np.exp(-0.5 * (params.pump_coherence_time * sums) ** 2)
    jsa = JointSpectralAmplitude(grid, (g1, g2, pump))
    jsa._spectral = params
    return jsa


def interference_width(params: SpectralParams) -> float:
    """Delay scale (fs) of the interference structure, sqrt(2 s) with
    s = 1/(4 sigma1^2) + 1/(4 sigma2^2); equals the filter coherence time
    for a symmetric pair. Used to place baseline wings in scans."""
    s = 1.0 / (4.0 * params.sigma1**2) + 1.0 / (4.0 * params.sigma2**2)
    return math.sqrt(2.0 * s)
