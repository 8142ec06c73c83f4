"""The search domain: the Sobol draw, DomainSpec, and the maximization of an
acquisition over a domain.

An acquisition here is any function from (m, d) points to (m,) values; the
optimization loops pass their plan's upper confidence bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

__all__ = ["DomainSpec", "maximize_acquisition", "sobol_points"]

_SOBOL_BITS = 30
_SOBOL_MAXDIM = 21201
# Joe & Kuo's direction numbers as scipy ships them, found by path: importing
# scipy.stats to locate them would load all its distributions.
_SOBOL_TABLE = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"


@functools.cache
def _sobol_directions(d: int) -> np.ndarray:
    """The (d, 30) Sobol direction numbers as 30-bit fractions, read-only.

    Row 0 is all ones (van der Corput), so 1-D reads no table.  Row r > 0
    starts from Joe & Kuo's initial numbers for primitive polynomial p and
    continues by Bratley & Fox's recurrence.  Only the d rows needed are kept:
    the 3 MB table is read and freed here.  Freeing it raises glibc's dynamic
    mmap threshold, which keeps the d > 1 search's temporaries on the heap
    (BENCH_import.json); a table held for the process's life would not.
    """
    v = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    if d > 1:
        with np.load(_SOBOL_TABLE) as table:
            poly, init = table["poly"][1:d], table["vinit"][1:d]
        deg = np.frexp(poly)[1] - 1  # a polynomial's degree is its bit length less one
        v[1:, :init.shape[1]] = init  # the first deg numbers; the recurrence overwrites the rest
        for i in range(1, _SOBOL_BITS):
            r = np.flatnonzero(deg <= i)  # the rows whose number i follows the recurrence
            m, p = deg[r], poly[r]
            new = v[r + 1, i - m]
            for k in range(min(i, init.shape[1])):
                tap = (k < m) & ((p >> np.maximum(m - 1 - k, 0)) & 1 == 1)
                new ^= (v[r + 1, i - k - 1] << (k + 1)) * tap
            v[r + 1, i] = new
    v = (v << np.arange(_SOBOL_BITS - 1, -1, -1)).astype(np.uint32)
    v.flags.writeable = False
    return v


def sobol_points(bounds, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """The first n Sobol points scaled to bounds (d, 2), bit for bit scipy
    1.17's qmc.scale(qmc.Sobol(d, scramble=rng is not None, seed=rng).random(n), lo, hi).

    30 bits in Gray-code order from the first point.  With rng the sequence is
    scrambled (Owen-style linear matrix scrambling plus a digital shift) by
    rng's first spawned child, as scipy draws it.  Nothing warns when n is not
    a power of two.
    """
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    if d > _SOBOL_MAXDIM:
        raise ValueError(f"Sobol points have at most {_SOBOL_MAXDIM} dimensions, got {d}")
    if not 0 <= n <= 2**_SOBOL_BITS:
        raise ValueError(f"Sobol points number 0 to 2**{_SOBOL_BITS}, got {n}")
    v, shift = _sobol_directions(d), np.zeros(d, dtype=np.uint32)
    if rng is not None:
        child = rng.spawn(1)[0]
        bottom_first = np.arange(_SOBOL_BITS, dtype=np.uint32)
        shift = child.integers(0, 2, (d, _SOBOL_BITS), dtype=np.uint32) @ (1 << bottom_first)
        lms = np.tril(child.integers(0, 2, (d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
        lms[:, range(_SOBOL_BITS), range(_SOBOL_BITS)] = 1
        top_first = bottom_first[::-1]
        bits = (v[:, :, None] >> top_first) & 1  # (d, number, bit from the top)
        v = ((bits @ lms.transpose(0, 2, 1)) & 1) @ (1 << top_first)  # each number's bits times lms, mod 2
    # Point k flips the number at k's lowest set bit, so point k is shift xor
    # the numbers at the set bits of k's Gray code.
    k = np.arange(1, n)
    quasi = np.bitwise_xor.accumulate(np.vstack([shift, v.T[np.frexp(k & -k)[1] - 1]]), axis=0)[:n]
    return quasi * 2.0**-_SOBOL_BITS * (bounds[:, 1] - bounds[:, 0]) + bounds[:, 0]


@dataclass(frozen=True)
class DomainSpec:
    """Search domain: bounds plus the 1-D evaluation grid (when d == 1)."""

    bounds: np.ndarray  # (d, 2)
    grid: Optional[np.ndarray] = None  # (m, d); required for d == 1
    n_starts: int = 64  # multi-start count for d > 1
    coord_grid: int = 33  # per-coordinate resolution for refinement

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """The d > 1 search's starts: the first n_starts unscrambled Sobol
        points, scaled to the bounds and drawn once, since every step uses the
        same ones."""
        starts = sobol_points(self.bounds, self.n_starts)
        starts.flags.writeable = False
        return starts

    @functools.cached_property
    def lines(self) -> np.ndarray:
        """The d > 1 search's (d, coord_grid) candidate values, row j spanning
        coordinate j's bounds, built once, as every search uses the same ones."""
        lines = np.array([np.linspace(lo, hi, self.coord_grid) for lo, hi in self.bounds])
        lines.flags.writeable = False
        return lines

    @staticmethod
    def from_bounds(bounds, grid_size: int = 1001) -> "DomainSpec":
        bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
        if bounds.shape[0] == 1:
            grid = np.linspace(bounds[0, 0], bounds[0, 1], grid_size).reshape(-1, 1)
            return DomainSpec(bounds, grid)
        return DomainSpec(bounds, None)


def maximize_acquisition(domain: DomainSpec, acquisition: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Argmax of acquisition, (m, d) points to (m,) values, over domain:
    grid scan in 1-D, multi-start coordinate refinement otherwise.
    Ties break toward the lowest grid index.

    Above 1-D the Sobol starts move together: each sweep coordinate is one
    acquisition call over the candidate lines of the distinct starts only,
    2*d + 1 calls per search.  Equal starts have equal lines, so they stay
    equal: after each block only the first copy of each, in start order, goes
    on, and the first-maximum rule picks the point a block of every start would.
    """
    if domain.grid is not None:
        if domain.grid.shape[0] == 0:
            raise ValueError("empty acquisition domain")
        return domain.grid[int(np.argmax(acquisition(domain.grid)))].copy()

    d, k = domain.dim, domain.coord_grid
    x = domain.starts  # (n, d): every start at once; Sobol points are distinct
    for _ in range(2):  # coordinate sweeps
        for j in range(d):
            n = x.shape[0]
            cand = np.repeat(x, k, axis=0)  # start i's line is rows i*k .. i*k + k-1
            cand.reshape(n, k, d)[:, :, j] = domain.lines[j]
            vals = acquisition(cand).reshape(n, k)
            x = cand.reshape(n, k, d)[np.arange(n), np.argmax(vals, axis=1)]  # first maximum per start
            rows = x.view(np.dtype((np.void, x.itemsize * d))).ravel()  # each start's bytes as one item
            x = x[np.sort(np.unique(rows, return_index=True)[1])]  # each first copy, in start order
    return x[int(np.argmax(acquisition(x)))].copy()  # first start on a tie
