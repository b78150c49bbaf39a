"""Coincidence rates, path overlaps, trombone-delay scans and time-domain
diagnostics.

The rate is the uniform-weight grid sum R = sum |A(nu_a, nu_b)|^2 w^2 of
the coincidence amplitude, expanded over pairs of paths:

    R = sum_p |c_p|^2 T(p,p) + sum_{p<q} 2 Re[c_p conj(c_q) T(p,q)],
    T(p,q) = sum_ij f_p(i,j) conj(f_q(i,j)) e^{i nu_i D_a} e^{i nu_j D_b} w^2.

The trombone delay d rides on the arm-1 photon, so with the delay
differences D_a0, D_b0 of the paths at d = 0 and s = swap_q - swap_p in
{-1, 0, 1} it moves D_a = D_a0 + s d and D_b = D_b0 - s d and leaves
U = D_a + D_b, the shift of the pair emission time, fixed. On the uniform
grid nu_i = nu_j + k h on diagonal k = i - j, so for p unswapped

    T(p,q)(d) = sum_k P_k e^{i k h D(d)},
    P_k(crossed, U) = w^2 sum_{i-j=k} F(i,j) conj(F_c(i,j)) e^{i nu_j U},

with D = D_a, f_p = F and f_q = F_c, which is F transposed when the pair
is crossed, exactly one path swapped. A swapped p transposes the summand,
which exchanges the ports, so its pair reads the same P_k at D = D_b: D(d)
is the delay difference at the port that p's arm-1 photon reaches,
D_a0 + s d or D_b0 - s d. Each pair sum is thus keyed by (crossed, U)
alone. Uncrossed kernels are real, |F|^2 however complex F, and so are
their P_k at U = 0, every self pair's among them.

A rate reads only Re[c T] of each pair, c = c_p conj(c_q), and a lag -k
reads as the conjugate of lag k, Re[z e^{-i x}] = Re[conj(z) e^{i x}], so
each pair folds its 2 n - 1 sums into n lags,

    Re[c T(p,q)(d)] = Re sum_{k>=0} R_k e^{i k h D(d)},
    R_0 = c P_0,  R_k = c P_k + conj(c P_-k).

A scan therefore costs one reduction walk per crossed that its pairs
read, which reduces every U of that crossed at once (below), and, per
delay point, about log2(n) complex exps and n complex multiply-adds:
with k = K B + j and B = 2^floor(log2(n) / 2), the phase e^{i D k h} is
the product of e^{i D K B h} and e^{i D j h}, so the folded lags, exactly
an (n / B) x B matrix, take the B fine phases in one matrix-vector product
and the n / B coarse phases in a short sum after it. Both tables are
built by doubling from the phases of the lags 2^b h and 2^b B h, each
phase a product of at most log2(n / B) of them. Every self pair reads
the same sums at D = 0, so a scan folds its self terms into one table,
weighted by sum_p c_p conj(c_p), and reads it once. It runs on an
unnormalized amplitude F, f = F / (sqrt(S) w), and divides by S =
sum |F|^2 afterwards, so w^2 cancels and no rate depends on the scale of
F; S is the total of the uncrossed sums at U = 0, which a scan needs
anyway.

The reduction never holds the kernel K = F conj(F_c) whole; it reads the
amplitude's 1-D factors, F(i, j) = g1[i] g2[j] P[i + j], in O(n) working
memory. Every kernel of F is a(i) b(j) Q[i + j], where Q = |P|^2, so a
pump phase cancels, and a = g1 conj(g1 or g2), b = g2 conj(g2 or g1) are
products of the filter factors, which trade places in F_c. The reduction
walks it by grid sum: with i + j = 2u + p and i - j = 2t + p of one
parity p, P_{2t+p} = sum_u Q[2u+p] a(u+t+p) b(u-t) e^{i nu_{u-t} U}, so
t indexes the sums and a block of a few u, both parities at once, is
reduced against its Q in one matrix product. On the uniform grid
nu_{u-t} = nu_0 + (u - t) h, so the column phase splits into
e^{i (u - n/2) h U}, which goes on the weights Q[2u+p], and
e^{i (nu_0 + (n/2 - t) h) U}, which multiplies the reduced sums. Both
come from e^{i m h U} = e^{i K B h U} e^{i j h U}, m = K B + j, the split
of a delay point's phases, taken with one exp per fine and coarse step,
so a walk makes O(sqrt n) angles and exps per U. The blocks of a b then
carry no phase, real for real factors, and each is formed once and
reduced against Q for U = 0 and against the real and imaginary rows of
the weights of every other U. Blocks that meet no grid sum on which Q is
non-zero hold exact zeros and are skipped, so the reduction costs
O(n W), W the number of such grid sums, with the same bits as the full
O(n^2) pass. When a == b bit for bit, as for equal filter factors
uncrossed and for real ones crossed, the kernel is symmetric and
P_-k = e^{i k h U} P_k, so the walk reduces k >= 0 only, half the
blocks' products, and fills k < 0 from them.

The path overlaps read the same pair sums at d = 0: two paths overlap
by conj(c_p) c_q T(q, p) / (|c_p| |c_q|), the self pairs summing to 1,
and an amplitude's exchange asymmetry is 1 - |T(p, q)| for delay-free
paths p unswapped and q swapped.

The grid sums repeat in each port delay with period 2 pi / h, so a rate's
grid is raised until no delay reads an alias, up to n = 8192.

The arrival-time diagnostic needs the DFT of A itself, not its pair sums,
but only its two marginals: by Parseval along the other port, each is a
sum of 1-D transforms of A's columns or rows, which are built from the
factors a block at a time. Its grid is raised until no arrival time
wraps around the DFT's time window, up to n = 8192 as well.

Every term, the d-independent self terms included, is folded and read
by the same routines, so identical summands cancel exactly. An ideal dip
bottoms out at a rate of exactly zero rather than at rounding noise when
two things hold: the amplitude is bitwise exchange symmetric (equal filter
factors), so at d = 0 the cross pair of two equal-rod paths reads the
very diagonal sums of the self pairs, and the path coefficients are
exact, |c_rr| == |c_tt| bit for bit, which the degree-exact analyzer trig
of ``elements`` gives at multiples of 45 deg.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .pathsum import PathAmplitude, _checked_delay, _checked_delays, enumerate_paths
from .spectral import _MAX_GRID_N, _MIN_GRID_N, FrequencyGrid, JointSpectralAmplitude
from .spectral import SpectralParams, _is_real, build_jsa, interference_width

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
#: Largest number of values one sweep accepts: each is a scan of its own,
#: which can take seconds on a raised grid.
MAX_SWEEP_ROWS = 1000
# Complex elements per block of the factored reduction, of the slopes
# that ``RateKernel._at`` sums at once and, up to n = 2048, of the
# amplitude that ``_marginal`` transforms at once, so that working memory
# stays O(n) whatever n and the step count.
_BLOCK = 1 << 14

# 2 pi to the precision of np.longdouble.
_TWO_PI = 8 * np.arctan(np.longdouble(1))


def _lattice(flat: np.ndarray, start: int, strides: tuple[int, ...], shape) -> np.ndarray:
    """View of the 1-D array ``flat`` from element ``start`` on, with
    ``strides`` counted in elements; numpy refuses a view that leaves it."""
    size = flat.itemsize
    return np.ndarray(
        shape, flat.dtype, flat, offset=size * start, strides=[size * s for s in strides]
    )


def _times_conj(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x conj(y), with no conjugate taken of a real y."""
    return x * np.conj(y) if np.iscomplexobj(y) else x * y


def _support(values: np.ndarray) -> tuple[int, int] | None:
    """First and last index at which ``values`` is non-zero, or None if
    it is zero everywhere."""
    nonzero = np.flatnonzero(values)
    return (int(nonzero[0]), int(nonzero[-1])) if len(nonzero) else None


def _phase_angles(origin, steps: np.ndarray, h: float, shifts: Sequence[float]):
    """(origin + m h) U mod 2 pi in float64, one row per U in ``shifts`` and
    one column per m in ``steps``; ``origin`` is one number or one per m.

    The angles are formed and reduced in np.longdouble, which is 80-bit
    extended precision on x86-64 Linux, so that each is off by about an
    ulp of 2 pi however large (origin + m h) U is. Formed in float64, an
    angle of x rad would round by about 1e-16 x before it is reduced, and
    a walk's sum angle, (nu_0 + n h) U, is 1.2e3 rad for the default
    photons at U = 2e4 fs. Where np.longdouble is float64, the angles
    fall back to that accuracy.
    """
    x = np.asarray(origin, dtype=np.longdouble) + steps.astype(np.longdouble) * np.longdouble(h)
    angles = np.multiply.outer(np.asarray(shifts, dtype=np.longdouble), x)
    return np.remainder(angles, _TWO_PI).astype(np.float64)


def _outer_phases(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """coarse[K] fine[j] at m = K B + j, B = len(fine), over the last axes
    of ``coarse`` and ``fine``, one row per leading index: the phase of
    step m from those of the coarse steps K B and fine steps j."""
    table = coarse[..., :, None] * fine[..., None, :]
    return table.reshape(*table.shape[:-2], math.prod(table.shape[-2:]))


def _phase_tables(base: np.ndarray, fine_steps: int, coarse_steps: int):
    """The fine phases e^{i x j h}, fine[x, j] for j < ``fine_steps``, and
    the coarse phases e^{i x K B h}, coarse[x, K] for K < ``coarse_steps``,
    from ``base[b, x]``, the phases of the base lags 2^b h and 2^b B h.

    Phase 0 is 1, and each base phase doubles the phases filled so far, so
    each is the product of at most log2(coarse_steps) base phases, and
    exactly 1 +- 0i at x = +-0. The table is filled with the step as its
    leading axis, where each product reads and writes whole contiguous
    blocks; the fine phases are copied out with it as the last, and the
    coarse ones are a view of it.
    """
    table = np.empty((coarse_steps, *base.shape[1:]), dtype=np.complex128)
    table[0] = 1.0
    for b, phase in enumerate(base):
        width = 1 << b
        np.multiply(table[:width], phase, out=table[width : 2 * width])
    return table[:fine_steps, :, 0].T.copy(), table[:, :, 1].T


def _fold(sums: np.ndarray, coefficient) -> np.ndarray:
    """The n folded lags of the pair sums ``sums``, index k + n - 1 for
    diagonal k, weighted by ``coefficient`` c: R_0 = c P_0 and R_k =
    c P_k + conj(c P_-k), so that Re sum_{k>=0} R_k e^{i x k h} is
    Re[c sum_k P_k e^{i x k h}] at every slope x."""
    n = (len(sums) + 1) // 2
    weighted = coefficient * sums
    folded = weighted[n - 1 :].copy()
    folded[1:] += np.conj(weighted[n - 2 :: -1])
    return folded


def _port_delay(p: PathAmplitude, q: PathAmplitude, delays: np.ndarray) -> np.ndarray:
    """D(d) of each trombone delay d, the delay difference of paths p and q
    at the port that p's arm-1 photon reaches: the slope at which ``_at``
    reads their pair sum."""
    slope = int(q.swapped) - int(p.swapped)
    if p.swapped:
        return (p.delay_b - q.delay_b) - slope * delays
    return (p.delay_a - q.delay_a) + slope * delays


class RateKernel:
    """Per-amplitude cache of the pair sums behind the rate.

    Each distinct (crossed, U) is reduced once from the kernel
    F conj(F_c) and its column phase, and each delay point then costs
    O(n), read at the slope ``_port_delay`` gives the pair; so a pair and
    its mirror image, both paths' swaps flipped, share one reduction. The
    reduction never holds the kernel whole: ``_diagonal_sums`` walks the
    amplitude's 1-D factors a few grid sums at a time, O(n W) for W grid
    sums with a non-zero pump, and one walk reduces every U of one
    ``crossed``, only half of it when its kernel is symmetric. ``rate``
    asks for the keys of all its pairs at once, so a scan makes one walk
    per ``crossed`` that its pairs read. An amplitude that is exchange
    symmetric bit for bit makes crossing the identity, so every pair reads
    uncrossed sums, all of them from one walk.
    """

    def __init__(self, jsa: JointSpectralAmplitude):
        self.jsa = jsa
        self.grid = jsa.grid
        self._diagonals: dict[tuple[bool, float], np.ndarray] = {}
        self._norm: float | None = None
        n, h = self.grid.n, self.grid.weight
        # k = K B + j >= 0 with B = 2^floor(log2(n) / 2), j < B and K < n / B;
        # a walk splits its grid steps m < n the same way.
        # Row b of the base lags holds the fine lag 2^b h and the coarse lag
        # 2^b B h, each exact as a power of two times h, for 2^b < n / B.
        fine = 1 << (n.bit_length() - 1) // 2
        self._steps = fine, n // fine
        bits = np.arange((self._steps[1] - 1).bit_length())[:, None, None]
        self._base_lags = np.ldexp([h, fine * h], bits)

    @property
    def _total(self) -> float:
        """S = sum |F|^2 over the grid for the unnormalized amplitude F: the
        total of the uncrossed sums at U = 0, which the kernel's first walk
        reduces along with the keys it was asked for."""
        if self._norm is None:
            self._reduce(())
        return self._norm

    def _key(self, p: PathAmplitude, q: PathAmplitude) -> tuple[bool, float]:
        """(crossed, U) of paths p, q at d = 0."""
        crossed = p.swapped != q.swapped and not self.jsa.symmetric
        return crossed, (p.delay_a - q.delay_a) + (p.delay_b - q.delay_b)

    def _reduce(self, keys) -> None:
        """Cache the normalized pair sums of each key in ``keys`` that is not
        cached yet, in one ``_diagonal_sums`` walk per ``crossed``, the
        uncrossed one first. Until S is known that walk also reduces U = 0,
        whose total S divides every sum: with f = F / (sqrt(S) w),
        w^2 sum F F_c / (S w^2) = sum F F_c / S."""
        missing = {key for key in keys if key not in self._diagonals}
        if self._norm is None:
            missing.add((False, 0.0))
        for crossed in (False, True):
            shifts = sorted({shift for c, shift in missing if c == crossed})
            if not shifts:
                continue
            raw = self._diagonal_sums(crossed, shifts)
            if self._norm is None:
                total = float(raw[shifts.index(0.0)].sum())
                if not (total > 0.0 and math.isfinite(total)):
                    raise ContractViolation("cannot normalize a zero or non-finite amplitude")
                self._norm = total
            for shift, sums in zip(shifts, raw):
                self._diagonals[crossed, shift] = sums / self._norm

    def pair_sum(self, p: PathAmplitude, q: PathAmplitude) -> np.ndarray:
        """The diagonal sums P_k(crossed, U) of paths p, q taken at d = 0;
        index k + n - 1 holds diagonal k = i - j. T(p, q) at trombone delay
        d is sum_k P_k e^{i k h D(d)}, at the slope D(d) = D_a0 + s d when p
        is unswapped and D_b0 - s d when p is swapped, s = swap_q - swap_p."""
        key = self._key(p, q)
        self._reduce([key])
        return self._diagonals[key]

    def _diagonal_sums(self, crossed: bool, shifts: Sequence[float]) -> list[np.ndarray]:
        """For each U in ``shifts``, P_{2t+p} = sum_u Q[2u+p] a(u+t+p) b(u-t)
        e^{i nu_{u-t} U} for k = 2t + p = 1 - n, ..., n - 1, unnormalized:
        the sums sum_{i-j=k} F(i,j) conj(F_c(i,j)) e^{i nu_j U} of the kernel
        a(i) b(j) Q[i + j] times its column phase. F(i, j) is g1[i] g2[j]
        pump[i + j], with g1 and g2 trading places in F_c when ``crossed``,
        so a = g1 conj(g1 or g2), b = g2 conj(g2 or g1) and Q = |pump|^2.

        One walk reduces every U. With nu_j = nu_0 + j h and j = u - t, the
        column phase splits into e^{i (u - n/2) h U}, which ``_walk`` puts
        on the pump weights, and e^{i (nu_0 + (n/2 - t) h) U}, which
        multiplies the sums it returns. These sum phases are formed here,
        after the walk has freed its blocks and weights, as products of the
        O(sqrt n) phases it returns, with no exp of their own. So the blocks
        of a b carry no phase, and the sums at U = 0 get the same bits
        whatever else the walk reduces.

        When a == b the kernel is symmetric, K(i, j) = K(j, i), so
        P_-k = e^{i k h U} P_k, and the walk reduces k >= 0 only. The sums
        of -k = 2t' + p, t' = -t - p, are then those of k, copied, times the
        phase of t': (n/2 - t') h = (n/2 - t) h + k h carries e^{i k h U}.
        """
        n = self.grid.n
        phased = [shift for shift in shifts if shift]
        # The walk's blocks and weights are freed before the sums are phased.
        at_rest, reduced, sum_phases, mirrored = self._walk(
            crossed, len(phased) < len(shifts), phased
        )

        def interleave(sums):
            # sums[p, t + n // 2] holds P_{2t+p}, which sits at n + k.
            out = sums.T.reshape(-1)[1:]
            if mirrored:
                out[n - 2 :: -1] = out[n:]
            return out

        out = {0.0: interleave(at_rest)} if at_rest is not None else {}
        for m, shift in enumerate(phased):
            fine, coarse = sum_phases
            # The phase of t, at k = 2t and 2t + 1.
            phases = np.repeat(_outer_phases(coarse[m], fine[m]), 2)[1:]
            out[shift] = interleave(reduced[:, 2 * m] + 1j * reduced[:, 2 * m + 1]) * phases
        return [out[shift] for shift in shifts]

    def _base_phases(self, shifts: Sequence[float]) -> list[np.ndarray]:
        """The phases from which a walk forms its column phases, one row per
        U in ``shifts``: those of the fine angles j h U, j < B, the coarse
        angles K B h U, K < n / B, the weight angle -(n/2) h U and the sum
        angle (nu_0 + n h) U, as four arrays.

        e^{i m h U} is coarse[K] fine[j] at m = K B + j; the weight phase
        turns it into e^{i (u - n/2) h U} at m = u, and the sum phase its
        conjugate into e^{i (nu_0 + (n/2 - t) h) U} at m = t + n // 2. So a
        walk takes O(sqrt n) angles and exps per U, each angle reduced by
        ``_phase_angles``.
        """
        n = self.grid.n
        fine_steps, coarse_steps = self._steps
        steps = np.concatenate(
            (np.arange(fine_steps), fine_steps * np.arange(coarse_steps), [-n / 2, n])
        )
        origins = np.zeros(len(steps))
        origins[-1] = self.grid.points[0]
        phases = np.exp(1j * _phase_angles(origins, steps, self.grid.weight, shifts))
        return np.split(phases, np.cumsum(self._steps + (1,)), axis=1)

    def _walk(self, crossed: bool, at_rest: bool, phased: list[float]):
        """Reduce the blocks of a(u + t + p) b(u - t) against Q[2u + p] when
        ``at_rest``, and against Q times the real and the imaginary part of
        the weight phase e^{i (u - n/2) h U} for each U in ``phased``.
        Returns the sums at rest, sums[p, t + n // 2], or None; the phased
        ones, reduced[p, 2 m + (0 for real, 1 for imaginary), t + n // 2] for
        the m-th U, all of the dtype of a; the phases of the sums as a pair
        (fine, coarse) of O(sqrt n) phases per U, whose ``_outer_phases``
        at row m is e^{i (nu_0 + (n/2 - t) h) U} at t + n // 2; and whether
        a == b, in which case only the sums of t >= 0 are reduced and the
        rest are zeros. A walk with no phased U forms no phases at all, and
        returns None for the phased sums and for their phases.

        The weight phases of all n values of u are formed from
        ``_base_phases`` in one broadcast product, and only the weights
        outlive it. A block of ``rows`` values of u, both parities at once,
        is formed once. It is reduced in one matrix product against Q, the
        same call whatever else the walk reduces, and in one more against
        the stacked real and imaginary rows of every phased U, on a real
        view even when a is complex. Blocks start at multiples of ``rows``,
        and only those that meet a grid sum 2u + p on which Q is non-zero
        are walked. Any other block holds products with Q = 0, zeros of
        either sign since the products of factors are finite
        (``JointSpectralAmplitude`` checks), and would add them to sums that
        start at +0 and never turn -0; so a narrower support gives the same
        bits. A block spans the t at which some (u + t + p, u - t) lies on
        the grid, and reads the zeros padding a and b for the rest.
        """
        g1, g2, pump = self.jsa.factors
        n = self.grid.n
        rows = min(n, _BLOCK // n)
        # |g1|^2 and |g2|^2 are real however complex the factors.
        dtype = np.result_type(g1, g2) if crossed else np.dtype(np.float64)
        padded_a = np.zeros(n + 2 * rows, dtype)
        reversed_b = np.zeros(n + 2 * rows, dtype)
        if crossed:
            padded_a[rows : rows + n] = _times_conj(g1, g2)
            reversed_b[rows : rows + n] = _times_conj(g2, g1)[::-1]
        else:
            padded_a[rows : rows + n] = _times_conj(g1, g1).real
            reversed_b[rows : rows + n] = _times_conj(g2, g2).real[::-1]
        mirrored = np.array_equal(padded_a, reversed_b[::-1])
        # pairs[p, u] is Q[2u + p], with Q = 0 at the grid sum 2n - 1.
        pairs = np.zeros(2 * n)
        pairs[:-1] = _times_conj(pump, pump).real
        support = _support(pairs)
        pairs = pairs.reshape(n, 2).T.copy()
        reduced = sum_phases = None
        if phased:
            # Rows 2 m and 2 m + 1 of weights[p] are Q[2u + p] times the real
            # and the imaginary part of the m-th U's weight phase.
            fine, coarse, weight, total = self._base_phases(phased)
            weights = np.empty((2, 2 * len(phased), n))
            table = _outer_phases(coarse * weight, fine)
            np.multiply(pairs[:, None], table.real, out=weights[:, 0::2])
            np.multiply(pairs[:, None], table.imag, out=weights[:, 1::2])
            # Only the O(sqrt n) phases of the sums are kept through the walk.
            del table
            sum_phases = np.conj(fine), np.conj(coarse) * total
            # A complex block is reduced against the phased weights as its
            # interleaved real and imaginary parts.
            parts = dtype.itemsize // 8
            reduced = np.zeros((2, 2 * len(phased), parts * n))
        sums = np.zeros((2, n), dtype) if at_rest else None
        buffer = np.empty(2 * rows * n, dtype)
        first, last = (support[0] // 2, support[1] // 2) if support else (0, -1)
        lowest = 0 if mirrored else -(n // 2)
        for u0 in range(first - first % rows, last + 1, rows):
            u1 = u0 + rows
            t0 = max(u0 - n + 1, -u1, lowest)
            t1 = min(u1, n - u0, n // 2)
            shape = (2, u1 - u0, t1 - t0)
            block = buffer[: math.prod(shape)].reshape(shape)
            # a(u + t + p) advances with p, u and t; b(u - t), at n - 1 - u + t
            # of the reversed b, falls with u and advances with t.
            a_view = _lattice(padded_a, rows + u0 + t0, (1, 1, 1), shape)
            b_view = _lattice(reversed_b, rows + n - 1 - u0 + t0, (0, -1, 1), shape)
            np.multiply(a_view, b_view, out=block)
            if at_rest:
                sums[:, t0 + n // 2 : t1 + n // 2] += np.matmul(pairs[:, None, u0:u1], block)[:, 0]
            if phased:
                columns = slice(parts * (t0 + n // 2), parts * (t1 + n // 2))
                reduced[:, :, columns] += np.matmul(weights[:, :, u0:u1], block.view(np.float64))
        return sums, None if reduced is None else reduced.view(dtype), sum_phases, mirrored

    def _at(self, lags: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """Re sum_{k>=0} R_k e^{i x k h} for each slope x = D(d), from the
        n folded lags R_k of ``_fold``.

        The lags are reshaped into an (n / B) x B matrix whose row K holds
        R_{K B + j}, B = 2^floor(log2(n) / 2). A slope costs about log2(n)
        complex exps and n complex multiply-adds: the matrix times its fine
        phases e^{i x j h}, then against its coarse phases e^{i x K B h}.
        ``_phase_tables`` doubles both tables from the phases of the base
        lags. At x = +-0 every phase is 1 +- 0i. A slope runs the same calls
        on the same shapes wherever it sits in ``slopes``, so it gets the
        same bits.
        """
        fine_steps, coarse_steps = self._steps
        matrix = lags.astype(np.complex128, copy=False).reshape(coarse_steps, fine_steps)
        out = np.empty(len(slopes))
        # A block's tables fill _BLOCK / 2 and its products _BLOCK / 4; all its
        # arrays stay under 2 _BLOCK.
        rows = _BLOCK // (4 * coarse_steps)

        def block(chunk):
            # Its tables are freed before the next block's are made.
            base = np.exp(1j * (self._base_lags * chunk[:, None]))
            fine, coarse = _phase_tables(base, fine_steps, coarse_steps)
            products = np.matmul(matrix, fine[:, :, None])[:, :, 0]
            products *= coarse
            return products.sum(axis=-1).real

        for start in range(0, len(slopes), rows):
            out[start : start + rows] = block(slopes[start : start + rows])
        return out

    def at_rest(self, p: PathAmplitude, q: PathAmplitude) -> np.complex128:
        """T(p, q) at d = 0, its real and imaginary parts read by the same
        ``_at`` call as any other delay, from the folds at c = 1 and -i."""
        sums, slope = self.pair_sum(p, q), _port_delay(p, q, np.zeros(1))
        real, imag = (self._at(_fold(sums, c), slope)[0] for c in (1.0, -1j))
        return np.complex128(complex(real, imag))

    def rate(self, paths: Sequence[PathAmplitude], delays) -> np.ndarray:
        """Rates at each trombone delay in ``delays`` for ``paths``, the
        coincidence paths at d = 0."""
        delays = np.asarray(delays, dtype=float)
        self._reduce([self._key(p, q) for i, p in enumerate(paths) for q in paths[i:]])
        total = np.zeros(delays.shape)
        if paths:
            # Every self pair reads the uncrossed sums at U = 0 at the slope
            # +0, so one fold weighted by the sum of |c|^2 serves them all.
            # |c|^2 is formed as c conj(c), the same product as the cross
            # terms, so two paths with equal pair sums and c_q = -c_p cancel
            # exactly.
            weight = sum(p.coefficient * np.conj(p.coefficient) for p in paths)
            lags = _fold(self.pair_sum(paths[0], paths[0]), weight)
            total += self._at(lags, np.zeros(1))
        for i, p in enumerate(paths):
            for q in paths[i + 1 :]:
                lags = _fold(self.pair_sum(p, q), p.coefficient * np.conj(q.coefficient))
                total += 2.0 * self._at(lags, _port_delay(p, q, delays))
        return total


def path_overlap(
    paths: tuple[PathAmplitude, ...] | list[PathAmplitude],
    jsa: JointSpectralAmplitude,
) -> complex:
    """Normalized overlap <A_1 | A_2> / (||A_1|| ||A_2||) of the two paths.

    Its magnitude is the degree of indistinguishability of the paths and
    bounds the achievable interference visibility. It is read off the
    pair sums at d = 0, as the module docstring sets out, and refused, as
    a rate is, where they alias on the grid of an amplitude that knows its
    ``spectral`` model.
    """
    if len(paths) != 2:
        raise ContractViolation(f"path_overlap needs exactly two paths, got {len(paths)}")
    p, q = paths
    if p == q:
        # A path overlaps itself perfectly by definition.
        return complex(1.0)
    if p.coefficient == 0 or q.coefficient == 0:
        raise ContractViolation("path overlap is undefined for a zero-norm path")
    if jsa.spectral is not None and (reason := _alias(jsa.spectral, paths, 0.0, 0.0, jsa.grid)):
        raise ConfigurationError(f"path overlap at zero delay: {reason}; shorten the rods")
    # Unit phases, so that tiny coefficients do not underflow to 0 / 0.
    phase = (p.coefficient / abs(p.coefficient)).conjugate() * (q.coefficient / abs(q.coefficient))
    return complex(phase * RateKernel(jsa).at_rest(q, p))


def jsa_swap_distance(jsa: JointSpectralAmplitude) -> float:
    """Exchange asymmetry 1 - |<f | f_swapped>|, in [0, 1].

    Zero iff the amplitude is exchange symmetric; this bounds the visibility
    any analyzer setting can reach. It is 1 - |sum_k P_k| of the
    (unswapped, swapped) pair of delay-free paths. A zero or non-finite
    amplitude is refused, symmetric or not.
    """
    kernel = RateKernel(jsa)
    kernel._total  # refuses an amplitude without a norm
    if jsa.symmetric:
        # Identical arrays overlap perfectly by definition.
        return 0.0
    unswapped = PathAmplitude("unswapped", 1.0, 0.0, 0.0, False)
    swapped = PathAmplitude("swapped", 1.0, 0.0, 0.0, True)
    return 1.0 - float(abs(kernel.at_rest(unswapped, swapped)))


def _alias(
    spectral: SpectralParams,
    paths: Sequence[PathAmplitude],
    d_min: float,
    d_max: float,
    grid: FrequencyGrid,
) -> str | None:
    """Why the rate on ``grid`` aliases at trombone delays in [d_min, d_max], or None.

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
    period = 2.0 * math.pi / grid.weight
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
                return (
                    f"trombone delays in [{d_min:g}, {d_max:g}] fs alias: paths {p.label}/"
                    f"{q.label} reach port delay differences of {reach:.6g} fs, and the rate "
                    f"repeats every {period:.6g} fs on the grid of n = {grid.n}"
                )
    return None


def _plan_grid(config: "ExperimentConfig", bound) -> FrequencyGrid:
    """The ridge rule's grid for the request of ``config``, doubled until
    ``bound``, which says why a grid breaks it, returns None; past the
    largest grid the bound that needs more is named and refused."""
    grid = config.frequency_grid()
    while reason := bound(grid):
        if grid.n == _MAX_GRID_N:
            raise ConfigurationError(f"{reason}, the largest grid; shorten the delays or rods")
        grid = FrequencyGrid(2 * grid.n, grid.half_width)
    return grid


def _rate_grid(config: "ExperimentConfig", d_min: float, d_max: float) -> FrequencyGrid:
    """The grid on which no rate of ``config`` in [d_min, d_max] reads an alias."""
    paths = enumerate_paths(config)
    return _plan_grid(config, partial(_alias, config.spectral, paths, d_min, d_max))


def coincidence_rate(config: "ExperimentConfig", d, kernel: RateKernel | None = None):
    """Coincidence rate at finite trombone delay ``d`` (arbitrary units,
    fixed normalization for a given spectral model), a float; for a 1-D
    sequence of delays, a float64 array with the bits of the single calls.

    Without a ``kernel`` one is built on the grid planned for the delays;
    a ``kernel`` of this config's spectral parameters keeps its pair sums,
    so configs that differ only in analyzers or pair phase share them, and
    its grid, on which aliasing delays are refused before anything is built.
    """
    delays = _checked_delays(d)
    paths = enumerate_paths(config)
    bound = partial(_alias, config.spectral, paths, delays.min(), delays.max())
    if kernel is None:
        kernel = RateKernel(build_jsa(config.spectral, _plan_grid(config, bound)))
    elif reason := bound(kernel.grid):
        raise ConfigurationError(f"{reason}; shorten the delays or rods")
    rates = kernel.rate(paths, np.atleast_1d(delays))
    return float(rates[0]) if delays.ndim == 0 else rates


@dataclass(frozen=True)
class ScanResult:
    """Rates versus trombone delay plus the derived dip/peak summary.

    ``visibility`` is the larger deviation from the baseline over the
    baseline: (baseline - min) / baseline for a dip and (max - baseline) /
    baseline for a peak, so an ideal dip and an ideal peak both read 1.
    Nothing is clipped: with a positive baseline it is never below 0, but
    it exceeds 1 by as much as the rates round past 0 or past twice the
    baseline. fig4c with 1e-10 mm rods, for one, reads its smallest rate
    -5.6e-17 and its visibility 1 + 2^-52, as the cross pair's tiny delay
    is read through the phased walk. A zero baseline reads flat with
    visibility 0.
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


def _scan_delays(spectral: SpectralParams, d_min: float, d_max: float, steps: int):
    """The delays of a scan and the mask of those in the baseline wings, once all are checked."""
    # Checked as config fields are: numpy scalars pass, bool and text do not.
    if not (_is_real(d_min) and _is_real(d_max)):
        raise ConfigurationError(f"scan edges must be real numbers, got {d_min!r}, {d_max!r}")
    if not (_is_real(steps) and isinstance(steps, numbers.Integral)):
        raise ConfigurationError(f"delay steps must be an integer, got {steps!r}")
    # Edges that are not finite, or a span past the largest float, would
    # space the delays by inf or nan.
    if not math.isfinite(d_max - d_min):
        raise ConfigurationError(f"scan edges and span must be finite, got {d_min}, {d_max}")
    if not d_min < d_max:
        raise ConfigurationError(f"need d_min < d_max, got {d_min} >= {d_max}")
    if not 3 <= steps <= MAX_SCAN_STEPS:
        raise ConfigurationError(
            f"need between 3 and {MAX_SCAN_STEPS} delay steps, got {steps}"
        )
    delays = np.linspace(d_min, d_max, steps)
    wing = DEFAULT_WING_FACTOR * interference_width(spectral)
    wing_mask = np.abs(delays) > wing
    if not wing_mask.any():
        raise ConfigurationError(
            f"scan range [{d_min}, {d_max}] fs has no points beyond the baseline "
            f"wings at |d| > {wing:.4g} fs"
        )
    return delays, wing_mask


def scan_delay(
    config: "ExperimentConfig",
    d_min: float = DEFAULT_SCAN_MIN,
    d_max: float = DEFAULT_SCAN_MAX,
    steps: int = DEFAULT_SCAN_STEPS,
    *,
    kernel: RateKernel | None = None,
) -> ScanResult:
    """Scan the trombone delay with ``coincidence_rate``, on ``kernel`` if
    one is given, and classify the resulting curve.

    The baseline is the mean rate in the wings, |d| > DEFAULT_WING_FACTOR
    times the interference width of the spectral model; the scan range must
    reach the wings. A curve whose largest relative deviation from the
    baseline stays below DEFAULT_FLAT_THRESHOLD is classified flat,
    otherwise dip or peak by the dominant deviation. ``steps`` runs from 3
    to ``MAX_SCAN_STEPS``.
    """
    delays, wing_mask = _scan_delays(config.spectral, d_min, d_max, steps)
    rates = coincidence_rate(config, delays, kernel)
    baseline = float(rates[wing_mask].mean())

    rmin = float(rates.min())
    rmax = float(rates.max())
    if baseline == 0.0:
        kind = "flat"
        extremum = rmax
        vis = 0.0
    else:
        vis = max(rmax - baseline, baseline - rmin) / baseline
        if vis < DEFAULT_FLAT_THRESHOLD:
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
    """The arrival-time marginals of |amplitude|^2 at ports A and B, over
    ``times`` (fs), the DFT's time window in ascending order.

    Each marginal integrates, with the time step as weight, to ``total``,
    the frequency-domain rate of the same amplitude on the same grid.
    """

    times: np.ndarray = field(repr=False)
    marginal_a: np.ndarray = field(repr=False)
    marginal_b: np.ndarray = field(repr=False)
    mean_a: float
    mean_b: float
    total: float

    def __post_init__(self) -> None:
        for array in (self.times, self.marginal_a, self.marginal_b):
            array.setflags(write=False)


def _marginal(terms, pump: np.ndarray) -> np.ndarray:
    """sum_r |DFT_c B(r, c)|^2 of B(r, c) = pump[r + c] sum_p x_p[r] y_p[c]
    over the (x_p, y_p) in ``terms``, built and transformed ``_BLOCK``
    elements at a time, or 8 rows where n > _BLOCK / 8: numpy's FFT takes
    half the time per row on 8 rows as on 2 (65 against 133 us at
    n = 8192 on a 2-vCPU AVX-512 VM). The terms are added one by one, not
    fused, so that two paths that cancel leave exact zeros."""
    n = len(terms[0][1])
    hankel = np.lib.stride_tricks.sliding_window_view(pump, n)
    height = max(8, _BLOCK // n)
    # The squares of the real and imaginary parts of each column, interleaved.
    out = np.zeros(2 * n)
    for r in range(0, n, height):
        (x, y), *rest = terms
        block = x[r : r + height, None] * y
        for x, y in rest:
            block += x[r : r + height, None] * y
        block *= hankel[r : r + height]
        spectrum = np.fft.fft(block, axis=1).view(np.float64)
        out += np.einsum("ij,ij->j", spectrum, spectrum)
    return out[0::2] + out[1::2]


def _time_marginals(
    paths: Sequence[PathAmplitude], jsa: JointSpectralAmplitude
) -> TimeJointDensity:
    """The arrival-time marginals of the coincidence amplitude of ``paths``.

    A(i, j) = pump[i + j] sum_p u_p[i] v_p[j], u_p = c_p g_a e^{i nu D_a},
    v_p = g_b e^{i nu D_b}, where (g_a, g_b) is (g1, g2), swapped for a
    swapped path. By Parseval along port B the port-A marginal of the 2-D
    DFT is n sum_j |DFT_i A(i, j)|^2, so blocks of columns of A are built
    and transformed along i, and blocks of rows give port B alike. The
    amplitude is normalized by S = sum |F|^2 of its unnormalized product
    F, which is sum_m |pump_m|^2 (|g1|^2 * |g2|^2)_m. ``paths`` must not be
    empty; ``arrival_time_joint`` refuses a configuration without paths.
    """
    grid = jsa.grid
    n, h, nu = grid.n, grid.weight, grid.points
    g1, g2, pump = jsa.factors
    power = [f.real**2 + f.imag**2 for f in jsa.factors]
    norm = float(np.convolve(power[0], power[1]) @ power[2])
    if norm == 0.0 or not math.isfinite(norm):
        raise ContractViolation("cannot normalize a zero or non-finite amplitude")
    terms = []
    for p in paths:
        g_a, g_b = (g2, g1) if p.swapped else (g1, g2)
        u = p.coefficient * g_a * np.exp(1j * nu * p.delay_a)
        terms.append((u, g_b * np.exp(1j * nu * p.delay_b)))
    # |DFT|^2 (h^2 / 2 pi)^2 of A / (sqrt(S) h), summed over the other port
    # with the time step dt = 2 pi / (n h), is h / (2 pi S) sum |DFT A|^2.
    scale = h / (2.0 * np.pi * norm)
    marginal_a = np.fft.fftshift(_marginal([(v, u) for u, v in terms], pump) * scale)
    marginal_b = np.fft.fftshift(_marginal(terms, pump) * scale)
    times = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=h))
    mass = float(marginal_a.sum())
    if mass == 0.0:
        raise ConfigurationError("time density is identically zero; the coincidence paths cancel")
    return TimeJointDensity(
        times=times,
        marginal_a=marginal_a,
        marginal_b=marginal_b,
        mean_a=float(times @ marginal_a) / mass,
        mean_b=float(times @ marginal_b) / mass,
        total=mass * 2.0 * np.pi / (n * h),
    )


def _time_window(
    config: "ExperimentConfig", paths: Sequence[PathAmplitude], grid: FrequencyGrid
) -> str | None:
    """Why the arrival times of ``paths`` wrap around the time window of ``grid``, or None.

    The transform of a grid of spacing h places a path at (D_a, D_b) in the
    periodic window [-pi/h, pi/h) and wraps whatever lies beyond. For the
    Gaussian model each port's marginal density falls off as
    exp(-(t - D)^2 / w^2) with w^2 = tau_p^2 + 1 / (2 sigma^2), sigma that of
    the photon at the port: the pump width enters along t_a + t_b and so
    reaches both ports. A path passes when each port delay stays
    DEFAULT_WING_FACTOR times w inside the window, so that less than 1.1e-5
    of its density (erfc(3) / 2) wraps.
    """
    half_window = math.pi / grid.weight
    spectral = config.spectral
    tau2 = spectral.pump_coherence_time**2
    sigmas = (spectral.sigma1, spectral.sigma2)
    for p in paths:
        # A swapped path has the photon of arm 1 at port B.
        for delay, sigma in zip((p.delay_a, p.delay_b), sigmas[::-1] if p.swapped else sigmas):
            reach = abs(delay) + DEFAULT_WING_FACTOR * math.sqrt(tau2 + 0.5 / sigma**2)
            if not reach < half_window:
                return (
                    f"arrival times of path {p.label} reach {reach:.6g} fs, past the time "
                    f"window of +-{half_window:.6g} fs on the grid of n = {grid.n}"
                )
    return None


def arrival_time_joint(config: "ExperimentConfig", d: float) -> TimeJointDensity:
    """Arrival-time marginals of the coincidence amplitude at delay d.

    The marginal means locate each detector's photon in time; their
    difference reveals which detector fires first, independently of whether
    the rate curve shows interference. Its grid is raised until no arrival
    time wraps around the time window, and refused before anything is
    built past the largest grid. The marginals take O(n^2 log n) time and
    O(n) memory: no n x n array is formed. A configuration without
    coincidences, no path or two that cancel, is a ConfigurationError.
    """
    paths = enumerate_paths(config, d)
    if not paths:
        raise ConfigurationError("time density is identically zero; no coincidence paths")
    grid = _plan_grid(config, partial(_time_window, config, paths))
    return _time_marginals(paths, build_jsa(config.spectral, grid))


def refine_check(config: "ExperimentConfig", d: float) -> float:
    """Relative rate change upon doubling the grid resolution.

    Smooth Gaussian integrands converge superalgebraically, so anything
    above ~1e-6 at the default resolution signals an undersampled grid.
    The denominator is floored at 1e-6 of the non-interfering level so
    that a perfectly cancelled dip point does not turn rounding noise
    into a spurious ratio. The rate at d is read on its planned grid and
    on its double, refused before any JSA is built outside n = 64 to 8192.
    """
    d = _checked_delay(d)
    paths = enumerate_paths(config)
    grid = _plan_grid(config, partial(_alias, config.spectral, paths, d, d))
    if not _MIN_GRID_N <= (fine := 2 * grid.n) <= _MAX_GRID_N:
        raise ConfigurationError(f"refining the rate at d = {d:g} fs needs a grid of n = {fine}")
    jsas = (build_jsa(config.spectral, g) for g in (grid, FrequencyGrid(fine, grid.half_width)))
    coarse_rate, fine_rate = (float(RateKernel(jsa).rate(paths, [d])[0]) for jsa in jsas)
    scale = sum(abs(p.coefficient) ** 2 for p in paths)
    return abs(coarse_rate - fine_rate) / max(fine_rate, 1e-6 * scale, 1e-30)
