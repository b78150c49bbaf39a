"""Dense n x n references for the tests: the amplitude, the assembled
coincidence amplitude, its rate, its 2-D arrival-time density and the
overlap of two paths, each formed as a whole n x n array.

The package computes all of these from the amplitude's 1-D factors
without such an array; these helpers compute them the direct way, sharing
no code with the engine, so that tests can hold one against the other.
They cost O(n^2) memory, 192 MiB for the time density at n = 2048.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from biphoton import ContractViolation, FrequencyGrid, JointSpectralAmplitude, PathAmplitude


def sum_squares(values: np.ndarray) -> float:
    """sum |v|^2 over all elements; a complex array is read as its
    interleaved real and imaginary parts, so no part is copied out."""
    flat = np.ravel(values)
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    return float(np.einsum("i,i->", flat, flat))


def unit_scale(values: np.ndarray, weight: float) -> float:
    """The L2 norm sqrt(sum |f|^2) w of ``values``; refuses zero and
    non-finite."""
    norm = math.sqrt(sum_squares(values)) * weight
    if norm == 0.0 or not math.isfinite(norm):
        raise ContractViolation("cannot normalize a zero or non-finite amplitude")
    return norm


def amplitude_values(jsa: JointSpectralAmplitude) -> np.ndarray:
    """The n x n amplitude f: the filter outer product times the Hankel view
    pump[i + j], divided by its norm in place."""
    g1, g2, pump = jsa.factors
    out = np.outer(g1, g2).astype(np.result_type(g1, g2, pump), copy=False)
    out *= np.lib.stride_tricks.sliding_window_view(pump, jsa.grid.n)
    out /= unit_scale(out, jsa.grid.weight)
    return out


@dataclass(frozen=True)
class CoincidenceAmplitude:
    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)


def path_matrix(path: PathAmplitude, f: np.ndarray, nu: np.ndarray) -> np.ndarray:
    base = f.T if path.swapped else f
    phase_a = np.exp(1j * nu * path.delay_a)
    phase_b = np.exp(1j * nu * path.delay_b)
    out = base * phase_a[:, None]
    out *= phase_b[None, :]
    out *= path.coefficient
    return out


def assemble_amplitude(paths, jsa: JointSpectralAmplitude, f=None) -> CoincidenceAmplitude:
    """Pointwise sum of the path amplitudes, in the order given; ``f`` is
    the amplitude's n x n values, formed here if not given."""
    f = amplitude_values(jsa) if f is None else f
    total = np.zeros((jsa.grid.n, jsa.grid.n), dtype=np.complex128)
    for path in paths:
        total += path_matrix(path, f, jsa.grid.points)
    return CoincidenceAmplitude(grid=jsa.grid, values=total)


def amplitude_rate(amp: CoincidenceAmplitude) -> float:
    """Direct grid sum of |A|^2 w^2 over an assembled amplitude."""
    return sum_squares(amp.values) * amp.grid.weight**2


@dataclass(frozen=True)
class DenseTimeDensity:
    """|amplitude|^2 in joint arrival-time coordinates (t_a, t_b), fs."""

    times: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    mean_a: float
    mean_b: float
    total: float


def time_joint_density(amp: CoincidenceAmplitude) -> DenseTimeDensity:
    """Transform an assembled amplitude to the joint arrival-time density."""
    grid = amp.grid
    n = grid.n
    h = grid.weight
    transformed = np.fft.fft2(amp.values)
    scale = (h * h / (2.0 * np.pi)) ** 2
    density = (transformed.real**2 + transformed.imag**2) * scale
    density = np.fft.fftshift(density)
    times = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=h))
    dt = 2.0 * np.pi / (n * h)
    total = float(density.sum()) * dt * dt
    if total == 0.0:
        raise ContractViolation("time density is identically zero; no coincidence paths")
    marginal_a = density.sum(axis=1) * dt
    marginal_b = density.sum(axis=0) * dt
    mean_a = float((times * marginal_a).sum()) * dt / total
    mean_b = float((times * marginal_b).sum()) * dt / total
    return DenseTimeDensity(times=times, density=density, mean_a=mean_a, mean_b=mean_b, total=total)


def dense_overlap(paths, jsa: JointSpectralAmplitude) -> complex:
    """Reference for ``path_overlap``: <A_1 | A_2> / (||A_1|| ||A_2||) of
    the two paths' assembled n x n amplitudes."""
    f = amplitude_values(jsa)
    a, b = (assemble_amplitude([p], jsa, f).values for p in paths)
    return complex(np.vdot(a, b)) / math.sqrt(sum_squares(a) * sum_squares(b))
