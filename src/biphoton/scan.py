"""Coincidence rates, trombone-delay scans and time-domain diagnostics.

The rate is the uniform-weight grid sum R = sum |A(nu_a, nu_b)|^2 w^2 of
the assembled coincidence amplitude, expanded over pairs of paths:

    R = sum_p |c_p|^2 T(p,p) + sum_{p<q} 2 Re[c_p conj(c_q) T(p,q)],
    T(p,q) = sum_ij f_p(i,j) conj(f_q(i,j)) e^{i nu_i D_a} e^{i nu_j D_b} w^2.

The trombone delay d rides on the arm-1 photon, so it shifts D_a of an
unswapped path and D_b of a swapped one, and drops out of T(p,p). On the
uniform grid nu_i - nu_j = (i - j) h, so with the delay differences
D_a0, D_b0 of the paths at d = 0 and s = swap_q - swap_p in {-1, 0, 1},

    T(p,q)(d) = sum_k C_k e^{i s d k h},
    C_k = w^2 sum_{i-j=k} f_p(i,j) conj(f_q(i,j)) e^{i nu_i D_a0} e^{i nu_j D_b0}
        = w^2 e^{i k h D_a0} sum_{i-j=k} f_p(i,j) conj(f_q(i,j)) e^{i nu_j (D_a0 + D_b0)},

since nu_i = nu_j + k h on diagonal k: one phase per column before the
reduction and one per diagonal after it. The kernel f_p conj(f_q) of a
real amplitude is real, and so are the C_k of a pair with no delay
differences, every self pair among them.

A scan therefore costs one diagonal reduction per distinct pair and, per
delay point, O(n) complex multiplies and O(sqrt(n)) complex exps: the
phases e^{i s d k h}, k = K B + j with B ~ sqrt(n), are the products of
e^{i s d K B h} and e^{i s d j h}. It runs in O(n) working memory: the
reduction draws the kernel f_p conj(f_q) a block of rows at a time and
never holds it whole. The rows come from one of two sources.

* Factors, from ``build_jsa``: f = F / (sqrt(S) w) with
  F(i, j) = g1[i] g2[j] P[i + j], so every kernel of F is
  a(i) b(j) Q[i + j], where Q = P^2 and a, b are products of g1 and g2,
  which trade places on a swapped path. The reduction runs on F and
  divides by S = sum |F|^2 afterwards, so w^2 cancels; S is the total of
  the zero-delay self sums of unswapped paths, which a scan needs anyway.
  A block writes only the columns that meet a grid sum on which Q is
  non-zero; the others hold exact zeros. So the reduction costs
  O(n (W + rows per block)), W the number of such grid sums, with the
  same bits as the full O(n^2) pass.
* Dense values, of an amplitude a caller built: rows of f_p times rows
  of conj(f_q), a swapped path reading columns, and the sums times w^2.

The grid sums repeat in each port delay with period 2 pi / h, so delays
at which a rate would read an alias of the interference term are refused
before anything is built.

Every term, the d-independent self terms included, is evaluated by the
same routine, so identical summands cancel exactly. An ideal dip bottoms
out at a rate of exactly zero rather than at rounding noise when two
things hold: the amplitude is bitwise exchange symmetric (equal filter
factors, or dense values equal to their transpose), so at d = 0 the
cross pair of two equal-rod paths reads the very diagonal sums of the
self pairs, and the path coefficients are exact, |c_rr| == |c_tt| bit for
bit, which the degree-exact analyzer trig of ``elements`` gives at
multiples of 45 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .pathsum import CoincidenceAmplitude, PathAmplitude, assemble_amplitude, enumerate_paths
from .spectral import (
    JointSpectralAmplitude,
    _construct_grid,
    _sum_squares,
    build_jsa,
    interference_width,
)

if TYPE_CHECKING:
    from .presets import ExperimentConfig

DEFAULT_FLAT_THRESHOLD = 0.02
DEFAULT_WING_FACTOR = 3.0
DEFAULT_SCAN_MIN = -1500.0
DEFAULT_SCAN_MAX = 1500.0
DEFAULT_SCAN_STEPS = 151
#: Largest number of delay points one scan accepts. Memory grows only
#: linearly with it, but the bound keeps a mistyped count from asking for
#: gigabytes or running for hours.
MAX_SCAN_STEPS = 100_000

# Complex elements per block of the diagonal reduction and of the phase
# table, so that working memory stays O(n) whatever n and the step count.
_BLOCK = 1 << 14


def _support(values: np.ndarray) -> tuple[int, int] | None:
    """First and last index at which ``values`` is non-zero, or None if
    it is zero everywhere."""
    nonzero = np.flatnonzero(values)
    return (int(nonzero[0]), int(nonzero[-1])) if len(nonzero) else None


class RateKernel:
    """Per-amplitude cache of the pair sums behind the rate.

    Each distinct pair of paths costs one diagonal reduction of its kernel
    f_p conj(f_q), cached under the swap flags and the delay differences
    at d = 0; each delay point then costs O(n). The reduction draws the
    kernel a block of rows at a time and never holds it whole: from the
    1-D factors of a ``build_jsa`` amplitude, or from the rows of a dense
    amplitude's values. An amplitude that is exchange symmetric bit for
    bit makes swapping the identity, so every pair reads the sums of
    unswapped paths.
    """

    def __init__(self, jsa: JointSpectralAmplitude):
        self.jsa = jsa
        self.grid = jsa.grid
        self._diagonals: dict[tuple[bool, bool, float, float], np.ndarray] = {}
        n = self.grid.n
        h = self.grid.weight
        # k h for the diagonals k = i - j = 1 - n, ..., n - 1.
        self._lags = np.arange(1 - n, n) * h
        # k h for k = K B + j >= 0 with B = 2^floor(log2(n) / 2): the coarse
        # lags K B h and the fine lags j h, j < B, each the product fl(k h).
        stride = 1 << (int(n).bit_length() - 1) // 2
        self._coarse_lags = np.arange(0, n, stride) * h
        self._fine_lags = np.arange(stride) * h

    @cached_property
    def _symmetric(self) -> bool:
        """Whether swapping the amplitude's arguments is the identity, bit for bit.

        With factors that is g1 == g2. Dense values are compared in bands
        of 64 rows with the matching bands of columns, on and above the
        diagonal only, so the transposed reads stay in cache.
        """
        if self.jsa.factors is not None:
            g1, g2, _ = self.jsa.factors
            return np.array_equal(g1, g2)
        v = self.jsa.values
        return all(
            np.array_equal(v[i : i + 64, i:], v[i:, i : i + 64].T) for i in range(0, len(v), 64)
        )

    @cached_property
    def _total(self) -> float:
        """S = sum |F|^2 over the grid for the unnormalized product F of the
        factors: the total of the zero-delay self sums of unswapped paths,
        which are cached, normalized, on the way."""
        raw = self._diagonal_sums(False, False, 0.0, 0.0)
        total = float(raw.sum())
        if not (total > 0.0 and math.isfinite(total)):
            raise ContractViolation("cannot normalize a zero or non-finite amplitude")
        self._diagonals[(False, False, 0.0, 0.0)] = raw / total
        return total

    def pair_sum(self, p: PathAmplitude, q: PathAmplitude) -> np.ndarray:
        """The diagonal sums C_k of T(p, q) above, for paths p, q taken at
        d = 0; index k + n - 1 holds diagonal k = i - j."""
        swaps = (p.swapped, q.swapped)
        if any(swaps) and self._symmetric:
            swaps = (False, False)
        key = (*swaps, p.delay_a - q.delay_a, p.delay_b - q.delay_b)
        factored = self.jsa.factors is not None
        if factored:
            # With f = F / (sqrt(S) w), w^2 sum F_p F_q / (S w^2) = sum F_p F_q / S.
            total = self._total
        sums = self._diagonals.get(key)
        if sums is None:
            sums = self._diagonal_sums(*key)
            sums = sums / total if factored else sums * self.grid.weight**2
            self._diagonals[key] = sums
        return sums

    def _factored_rows(self, swap_p: bool, swap_q: bool, phase_b: np.ndarray | None):
        """Writer of kernel rows a(i) b(j) Q[i + j] for the factors' model,
        columns reversed and times ``phase_b``, optionally only the
        reversed ``columns``; the kernel's dtype; and the grid sums on
        which Q is non-zero.

        f_p(i, j) is g1[i] g2[j] pump[i + j], with g1 and g2 trading places
        for a swapped path, so a and b are the products of the filter
        factors on each axis and Q = pump^2 on the 2n - 1 grid sums.
        """
        g1, g2, _ = self.jsa.factors
        n = self.grid.n
        a = (g2 if swap_p else g1) * (g2 if swap_q else g1)
        b = ((g1 if swap_p else g2) * (g1 if swap_q else g2))[::-1]
        if phase_b is not None:
            b = b * phase_b
        windows, support = self._pump_band

        def write(start: int, stop: int, out: np.ndarray, columns: slice | None = None) -> None:
            q = windows[n - stop : n - start][::-1]
            if columns is None:
                np.multiply(q, b, out=out)
            else:
                np.multiply(q[:, columns], b[columns], out=out)
            out *= a[start:stop, None]

        return write, b.dtype, support

    @cached_property
    def _pump_band(self) -> tuple[np.ndarray, tuple[int, int] | None]:
        """The windows of the reversed Q = pump^2 that the factored rows
        read, and the first and last grid sum on which Q is non-zero.

        Reversed row i reads Q[i + n - 1 - j], i.e. the window of the
        reversed Q that starts at n - 1 - i. The support is that of Q
        itself, since pump^2 underflows to 0 where pump may not.
        """
        q = self.jsa.factors[2] * self.jsa.factors[2]
        windows = np.lib.stride_tricks.sliding_window_view(q[::-1].copy(), self.grid.n)
        return windows, _support(q)

    def _dense_rows(self, swap_p: bool, swap_q: bool, phase_b: np.ndarray | None):
        """Writer of kernel rows f_p conj(f_q) from dense values, columns
        reversed and times ``phase_b``, the kernel's dtype, and every grid
        sum as the support. A swapped path reads its rows from the columns
        of the values."""
        v = self.jsa.values
        # Conjugation is the identity on a real amplitude, which therefore
        # takes a single pass.
        conjugate = np.iscomplexobj(v)

        def rows(swapped: bool, start: int, stop: int) -> np.ndarray:
            return (v[:, start:stop].T if swapped else v[start:stop])[:, ::-1]

        def write(start: int, stop: int, out: np.ndarray) -> None:
            f_p, f_q = rows(swap_p, start, stop), rows(swap_q, start, stop)
            if conjugate:
                np.conjugate(f_q, out=out)
                out *= f_p
            else:
                np.multiply(f_p, f_q, out=out)
            if phase_b is not None:
                out *= phase_b

        complex_ = conjugate or phase_b is not None
        return write, np.dtype(np.complex128 if complex_ else np.float64), (0, 2 * len(v) - 2)

    def _diagonal_sums(
        self, swap_p: bool, swap_q: bool, delta_a: float, delta_b: float
    ) -> np.ndarray:
        """sum_{i-j=k} f_p(i,j) conj(f_q(i,j)) e^{i nu_i D_a0} e^{i nu_j D_b0}
        for each diagonal k, unnormalized: of the values for a dense
        amplitude, of the product of the factors otherwise."""
        n = self.grid.n
        # On diagonal k, nu_i = nu_j + k h, so the port phases factor as
        # e^{i k h D_a} e^{i nu_j (D_a + D_b)}: one phase per column before
        # the reduction and one per diagonal after it. A real kernel whose
        # column phase vanishes stays real.
        column = delta_a + delta_b
        phase_b = np.exp(1j * self.grid.points[::-1] * column) if column else None
        source = self._dense_rows if self.jsa.factors is None else self._factored_rows
        write, dtype, support = source(swap_p, swap_q, phase_b)
        sums = np.zeros(2 * n - 1, dtype=dtype)
        if support is None:
            return sums
        m_lo, m_hi = support
        # Rows [start, stop) with their columns reversed land in a zero-padded
        # buffer of row length n + rows; read with row length n + rows - 1,
        # row r shifts right by r, so column sums are the anti-diagonal sums
        # of the reversed block, i.e. the diagonals i - j of the kernel.
        rows = min(n, max(1, _BLOCK // n))
        width = n + rows - 1
        buffer = narrow = None
        for start in range(0, n, rows):
            stop = min(n, start + rows)
            # Only the reversed columns [lo, hi), c = n - 1 - j, reach a grid
            # sum i + j in the support. The rest of the block holds products
            # with Q = 0, zeros of either sign since the factors' squares are
            # finite (``JointSpectralAmplitude`` checks). They change no
            # non-zero running sum, and a zero one only in its sign, which
            # the +0 that ``sums`` starts from absorbs; so a narrower block
            # sheared the same way gives the same bits.
            lo, hi = max(0, n - 1 - m_hi + start), min(n, n + stop - 1 - m_lo)
            if lo >= hi:
                continue
            if hi - lo == n:
                if buffer is None:
                    buffer = np.zeros((rows, width + 1), dtype=dtype)
                block, span = buffer[: stop - start], width
                write(start, stop, block[:, :n])
            else:
                # Narrower blocks, of at most m_hi - m_lo + rows columns,
                # take a second buffer, whose padding is cleared for each
                # row length.
                if narrow is None:
                    narrow = np.empty(rows * (min(n, m_hi - m_lo + rows) + rows), dtype=dtype)
                span = hi - lo + stop - start - 1
                block = narrow[: (stop - start) * (span + 1)].reshape(stop - start, span + 1)
                block[:, hi - lo :] = 0
                write(start, stop, block[:, : hi - lo], slice(lo, hi))
            sheared = block.reshape(-1)[: (stop - start) * span].reshape(stop - start, span)
            sums[start + lo : start + lo + span] += sheared.sum(axis=0)[: 2 * n - 1 - start - lo]
        if delta_a:
            sums = sums * np.exp(1j * self._lags * delta_a)
        return sums

    def _at(self, sums: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """sum_k C_k e^{i x k h} for each slope x = s d, one row per slope.

        The phase table for the lags k = K B + j >= 0 is the outer product
        of the coarse phases e^{i x K B h} and the fine phases e^{i x j h},
        j < B ~ sqrt(n), so a row costs about 2 sqrt(n) complex exps and n
        complex multiplies; it is read as its conjugate for -k. A slope of
        +-0 gives a row of exactly 1 +- 0i. Each row is reduced on its own,
        so a slope gives the same bits wherever it sits in ``slopes``.
        """
        n = self.grid.n
        coarse_lags, fine_lags = self._coarse_lags, self._fine_lags
        # A grid of n points that is not a power of two pads the k >= 0 half
        # to a whole number of coarse steps; the padding is never read.
        padded = len(coarse_lags) * len(fine_lags)
        out = np.empty(len(slopes), dtype=np.complex128)
        rows = max(1, _BLOCK // len(sums))
        phase = np.empty((min(rows, len(slopes)), n - 1 + padded), dtype=np.complex128)
        for start in range(0, len(slopes), rows):
            chunk = slopes[start : start + rows]
            coarse = np.exp(1j * np.multiply.outer(chunk, coarse_lags))
            fine = np.exp(1j * np.multiply.outer(chunk, fine_lags))
            table = phase[: len(chunk)]
            half = table[:, n - 1 :].reshape(len(chunk), len(coarse_lags), len(fine_lags))
            np.multiply(coarse[:, :, None], fine[:, None, :], out=half)
            table = table[:, : 2 * n - 1]
            np.conjugate(table[:, : n - 1 : -1], out=table[:, : n - 1])
            table *= sums
            out[start : start + rows] = table.sum(axis=1)
        return out

    def rate(self, paths: Sequence[PathAmplitude], delays) -> np.ndarray:
        """Rates at each trombone delay in ``delays`` for ``paths``, the
        coincidence paths at d = 0."""
        delays = np.asarray(delays, dtype=float)
        total = np.zeros(delays.shape)
        # |c|^2 is formed as c conj(c), the same product as the cross terms,
        # so two paths with equal pair sums and c_q = -c_p cancel exactly.
        at_rest = np.zeros(1)
        for p in paths:
            weight = (p.coefficient * p.coefficient.conjugate()).real
            total += weight * self._at(self.pair_sum(p, p), at_rest)[0].real
        for i, p in enumerate(paths):
            for q in paths[i + 1 :]:
                cross = p.coefficient * np.conj(q.coefficient)
                slope = int(q.swapped) - int(p.swapped)
                total += 2.0 * (cross * self._at(self.pair_sum(p, q), slope * delays)).real
        return total


def _check_alias(
    config: "ExperimentConfig",
    paths: Sequence[PathAmplitude],
    period: float,
    d_min: float,
    d_max: float,
) -> None:
    """Refuse trombone delays in [d_min, d_max] at which the grid rate
    reads an alias.

    On a grid of spacing h the pair sum T(p, q) is periodic in each port
    delay difference with period 2 pi / h: besides the Gaussian cross
    factor G at (D_a, D_b) it holds images of G shifted by whole periods
    in either port. With u = D_a + D_b, which the trombone leaves fixed,
    and v = D_a - D_b, which it moves by 2 s d,
    G = exp(-u^2 / (8 (2 tau_p^2 + s)) - v^2 / (8 s)) (docs/closed_form.md).
    A pair of paths passes when, over the whole scan, each port delay
    difference stays within one period and every image up to two periods
    away in each port keeps an exponent of at least DEFAULT_WING_FACTOR^2,
    so it adds at most e^-9 (1.2e-4) of the cross term. For matched rods
    the binding image is one period away in both ports with opposite
    signs, and the bound reads |d| <= 2 pi / h - DEFAULT_WING_FACTOR times the
    interference width; along u the pump width sets it instead.
    """
    spectral = config.spectral
    scale_v = 4.0 * interference_width(spectral) ** 2
    scale_u = 16.0 * spectral.pump_coherence_time**2 + scale_v
    floor = DEFAULT_WING_FACTOR**2
    for i, p in enumerate(paths):
        for q in paths[i + 1 :]:
            delta_a, delta_b = p.delay_a - q.delay_a, p.delay_b - q.delay_b
            slope = int(q.swapped) - int(p.swapped)
            ends = [(delta_a + slope * d, delta_b - slope * d) for d in (d_min, d_max)]
            reach = max(abs(x) for end in ends for x in end)
            if reach < period:
                u = delta_a + delta_b
                v_lo, v_hi = sorted(a - b for a, b in ends)
                nearest = math.inf
                for m_a in range(-2, 3):
                    for m_b in range(-2, 3):
                        if m_a or m_b:
                            shift = (m_a - m_b) * period
                            v = min(max(-shift, v_lo), v_hi) + shift
                            u_image = u + (m_a + m_b) * period
                            nearest = min(nearest, u_image * u_image / scale_u + v * v / scale_v)
            if not (reach < period and nearest >= floor):
                raise ConfigurationError(
                    f"trombone delays in [{d_min:g}, {d_max:g}] fs alias on this grid: paths "
                    f"{p.label}/{q.label} reach port delay differences of {reach:.6g} fs, "
                    f"and the rate repeats every {period:.6g} fs; shorten the delays or "
                    "the rods, or raise grid_n"
                )


def _checked_inputs(
    config: "ExperimentConfig", d_min: float, d_max: float, jsa: JointSpectralAmplitude | None
) -> tuple[tuple[PathAmplitude, ...], JointSpectralAmplitude]:
    """The paths at d = 0 and the amplitude for trombone delays in
    [d_min, d_max]; the delays are checked against aliasing before the
    amplitude is built."""
    paths = enumerate_paths(config)
    grid = config.frequency_grid() if jsa is None else jsa.grid
    _check_alias(config, paths, 2.0 * math.pi / grid.weight, d_min, d_max)
    if jsa is None:
        jsa = build_jsa(config.spectral, grid)
    return paths, jsa


def coincidence_rate(
    config: "ExperimentConfig", d: float, jsa: JointSpectralAmplitude | None = None
) -> float:
    """Coincidence rate at trombone delay d (arbitrary units, fixed
    normalization for a given spectral model).

    Passing a precomputed ``jsa`` (for this config's spectral parameters)
    skips rebuilding it; delays enter through phases only.
    """
    paths, jsa = _checked_inputs(config, d, d, jsa)
    return float(RateKernel(jsa).rate(paths, [d])[0])


def amplitude_rate(amp: CoincidenceAmplitude) -> float:
    """Direct grid sum of |A|^2 w^2 over an assembled amplitude."""
    return _sum_squares(amp.values) * amp.grid.weight**2


@dataclass(frozen=True)
class ScanResult:
    """Rates versus trombone delay plus the derived dip/peak summary.

    ``visibility`` is the larger deviation from the baseline over the
    baseline: (baseline - min) / baseline for a dip and (max - baseline) /
    baseline for a peak, so an ideal dip and an ideal peak both read 1. It
    lands in [0, 1] by construction; nothing is clipped. A zero baseline
    reads flat with visibility 0.
    """

    delays: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    baseline: float
    extremum: float
    visibility: float
    kind: str

    def __post_init__(self) -> None:
        self.delays.setflags(write=False)
        self.rates.setflags(write=False)


def scan_delay(
    config: "ExperimentConfig",
    d_min: float = DEFAULT_SCAN_MIN,
    d_max: float = DEFAULT_SCAN_MAX,
    steps: int = DEFAULT_SCAN_STEPS,
    *,
    jsa: JointSpectralAmplitude | None = None,
    flat_threshold: float = DEFAULT_FLAT_THRESHOLD,
    wing_factor: float = DEFAULT_WING_FACTOR,
) -> ScanResult:
    """Scan the trombone delay and classify the resulting curve.

    The baseline is the mean rate in the wings, |d| > wing_factor times the
    interference width of the spectral model; the scan range must reach the
    wings. A curve whose largest relative deviation from the baseline stays
    below flat_threshold is classified flat, otherwise dip or peak by the
    dominant deviation. ``steps`` runs from 3 to ``MAX_SCAN_STEPS``.
    """
    if not (math.isfinite(d_min) and math.isfinite(d_max)):
        raise ConfigurationError(f"scan edges must be finite, got {d_min}, {d_max}")
    if not d_min < d_max:
        raise ConfigurationError(f"need d_min < d_max, got {d_min} >= {d_max}")
    if not 3 <= steps <= MAX_SCAN_STEPS:
        raise ConfigurationError(
            f"need between 3 and {MAX_SCAN_STEPS} delay steps, got {steps}"
        )
    paths, jsa = _checked_inputs(config, d_min, d_max, jsa)
    delays = np.linspace(d_min, d_max, steps)
    rates = RateKernel(jsa).rate(paths, delays)

    wing = wing_factor * interference_width(config.spectral)
    wing_mask = np.abs(delays) > wing
    if not wing_mask.any():
        raise ConfigurationError(
            f"scan range [{d_min}, {d_max}] fs has no points beyond the baseline "
            f"wings at |d| > {wing:.4g} fs"
        )
    baseline = float(rates[wing_mask].mean())

    rmin = float(rates.min())
    rmax = float(rates.max())
    if baseline == 0.0:
        kind = "flat"
        extremum = rmax
        vis = 0.0
    else:
        vis = max(rmax - baseline, baseline - rmin) / baseline
        if vis < flat_threshold:
            kind = "flat"
            extremum = rmax if rmax - baseline >= baseline - rmin else rmin
        elif baseline - rmin >= rmax - baseline:
            kind = "dip"
            extremum = rmin
        else:
            kind = "peak"
            extremum = rmax
    return ScanResult(
        delays=delays,
        rates=rates,
        baseline=baseline,
        extremum=extremum,
        visibility=vis,
        kind=kind,
    )


@dataclass(frozen=True)
class TimeJointDensity:
    """|amplitude|^2 in joint arrival-time coordinates (t_a, t_b), fs.

    Integrates (with the conjugate time step as weight) to the same total
    as the frequency-domain rate.
    """

    times: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    mean_a: float
    mean_b: float
    total: float

    def __post_init__(self) -> None:
        self.times.setflags(write=False)
        self.density.setflags(write=False)


def time_joint_density(amp: CoincidenceAmplitude) -> TimeJointDensity:
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
    return TimeJointDensity(times=times, density=density, mean_a=mean_a, mean_b=mean_b, total=total)


def _check_time_window(
    config: "ExperimentConfig", paths: Sequence[PathAmplitude], half_window: float
) -> None:
    """Refuse paths whose arrival times would wrap around the time window.

    The transform of a grid of spacing h places a path at (D_a, D_b) in the
    periodic window [-pi/h, pi/h) and wraps whatever lies beyond. For the
    Gaussian model each port's marginal density falls off as
    exp(-(t - D)^2 / w^2) with w^2 = tau_p^2 + 1 / (2 sigma^2), sigma that of
    the photon at the port: the pump width enters along t_a + t_b and so
    reaches both ports. A path passes when each port delay stays
    DEFAULT_WING_FACTOR times w inside the window, so that less than 1.1e-5
    of its density (erfc(3) / 2) wraps.
    """
    spectral = config.spectral
    tau2 = spectral.pump_coherence_time**2
    sigmas = (spectral.sigma1, spectral.sigma2)
    for p in paths:
        # A swapped path has the photon of arm 1 at port B.
        for delay, sigma in zip((p.delay_a, p.delay_b), sigmas[::-1] if p.swapped else sigmas):
            reach = abs(delay) + DEFAULT_WING_FACTOR * math.sqrt(tau2 + 0.5 / sigma**2)
            if not reach < half_window:
                raise ConfigurationError(
                    f"arrival times of path {p.label} reach {reach:.6g} fs, past the time "
                    f"window of +-{half_window:.6g} fs on this grid; shorten the delays or "
                    "the rods, or raise grid_n"
                )


def arrival_time_joint(
    config: "ExperimentConfig", d: float, jsa: JointSpectralAmplitude | None = None
) -> TimeJointDensity:
    """Joint arrival-time density of the coincidence amplitude at delay d.

    The marginal means locate each detector's photon in time; their
    difference reveals which detector fires first, independently of whether
    the rate curve shows interference. Delays whose arrival times would
    wrap around the time window of the grid are refused before anything is
    built.
    """
    grid = config.frequency_grid() if jsa is None else jsa.grid
    if grid.n < 128:
        raise ConfigurationError(
            f"arrival-time diagnostics need grid n >= 128, got {grid.n}"
        )
    paths = enumerate_paths(config, d)
    _check_time_window(config, paths, math.pi / grid.weight)
    if jsa is None:
        jsa = build_jsa(config.spectral, grid)
    return time_joint_density(assemble_amplitude(paths, jsa))


def refine_check(config: "ExperimentConfig", d: float) -> float:
    """Relative rate change upon doubling the grid resolution.

    Smooth Gaussian integrands converge superalgebraically, so anything
    above ~1e-6 at the default resolution signals an undersampled grid.
    The denominator is floored at 1e-6 of the non-interfering level so
    that a perfectly cancelled dip point does not turn rounding noise
    into a spurious ratio.
    """
    grid = config.frequency_grid()
    fine = _construct_grid(config.spectral, 2 * grid.n, grid.span_sigma)
    coarse_rate = coincidence_rate(config, d, jsa=build_jsa(config.spectral, grid))
    fine_rate = coincidence_rate(config, d, jsa=build_jsa(config.spectral, fine))
    scale = sum(abs(p.coefficient) ** 2 for p in enumerate_paths(config, d))
    return abs(coarse_rate - fine_rate) / max(fine_rate, 1e-6 * scale, 1e-30)
