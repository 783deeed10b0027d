"""Uniform-grid quantizers and the data-driven abstract transition map.

A UniformGrid partitions a box into axis-aligned cells; the representative of
each cell is its center, so the quantizer P satisfies ||P(x) - x||_inf <= sigma
with sigma = half the maximum cell width.  Abstract transitions are produced
only by querying the oracle at representatives and quantizing the result;
oracle outputs that leave the state box land in a distinguished absorbing sink
(index = total cell count) that the safety game treats as losing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .model import BlackBoxSystem, as_box

Array = np.ndarray

CELL_CAP = 100_000_000  # cells of one grid

# The one cap on table-sized work, in entries: the abstract transition table
# (cells x inputs x disturbance cells) and every array that certify or
# abstract keeps beside it that grows with the grid or the sample count.
DEFAULT_TABLE_CAP = 10_000_000
TABLE_NAME = "the transition table (cells x inputs x disturbance cells)"

# Rows per oracle call of transition_table, rounded down to whole state cells.
# On the room oracle (one core, numpy 2.4), 2**14 rows took 20-27 ns per
# row, as fast as any size from 2**10 to 2**16, with about 1.2 MiB of chunk
# temporaries at sigma 0.02; one call over all 5 M rows at sigma 0.005 took
# 69 ns per row and 272 MiB.  The safety game reads the table in the same
# chunks; there 2**12 to 2**18 entries took the same time at sigma 0.005.
TABLE_CHUNK_ROWS = 1 << 14


def check_table_cap(what: str, entries: int, cap: int, itemsize: int = 8) -> None:
    """Raise CapacityError, naming `what` with its entries and their bytes at
    `itemsize` each (8 for int64 or float64), when it would hold more than
    `cap` entries; call it before allocating."""
    if entries > cap:
        raise CapacityError(
            f"{what} would hold {entries:,} entries ({itemsize * entries:,} "
            f"bytes), over the table cap of {cap:,} entries")


@dataclass(frozen=True, eq=False)
class UniformGrid:
    """Axis-aligned uniform partition of a box; cell indices are lexicographic
    (last coordinate varies fastest) and bijective with cell centers."""

    box: Array
    cells_per_dim: tuple
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "box", as_box(self.box))
        cells = tuple(int(k) for k in self.cells_per_dim)
        if len(cells) != self.box.shape[0] or any(k < 1 for k in cells):
            raise ValueError("cells_per_dim must hold one positive count per coordinate")
        object.__setattr__(self, "cells_per_dim", cells)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def total_cells(self) -> int:
        return int(np.prod(self.cells_per_dim, dtype=object))

    @property
    def widths(self) -> Array:
        counts = np.asarray(self.cells_per_dim, dtype=float)
        return (self.box[:, 1] - self.box[:, 0]) / counts

    def multi_index(self, flat: int) -> tuple:
        if not 0 <= flat < self.total_cells:
            raise ValueError(f"flat index {flat} out of range")
        out = []
        for k in reversed(self.cells_per_dim):
            flat, r = divmod(flat, k)
            out.append(r)
        return tuple(reversed(out))

    def cell_indices(self, points) -> Array:
        """Flat indices of the cells containing each point, shape (..., dim)
        -> (...); boundary points snap to the lower-index cell.  Raises
        DomainError if any point lies outside the box (NaN included)."""
        pts = np.asarray(points, dtype=float)
        pts = pts.reshape(pts.shape[:-1] + (self.dim,))
        lows, highs = self.box[:, 0], self.box[:, 1]
        outside = ~((pts >= lows) & (pts <= highs))
        if outside.any():
            at = np.argwhere(outside)[0]
            j = int(at[-1])
            raise DomainError(
                f"coordinate {j} = {pts[tuple(at)]!r} outside "
                f"[{lows[j]!r}, {highs[j]!r}]")
        counts = np.asarray(self.cells_per_dim, dtype=np.int64)
        # left-closed only at the low edge: ties go down
        multi = np.ceil((pts - lows) / self.widths).astype(np.int64) - 1
        np.clip(multi, 0, counts - 1, out=multi)
        # integer Horner steps, last coordinate fastest: an int64 matmul
        # has no BLAS path and costs several times more
        flat = np.zeros(multi.shape[:-1], dtype=np.int64)
        for j, k in enumerate(self.cells_per_dim):
            flat *= k
            flat += multi[..., j]
        return flat

    def cell_index(self, x) -> int:
        """Flat index of the cell containing x; boundary points snap to the
        lower-index cell.  Raises DomainError outside the box."""
        return int(self.cell_indices(np.asarray(x, dtype=float).reshape(self.dim)))

    def representative(self, flat: int) -> Array:
        multi = np.asarray(self.multi_index(flat), dtype=float)
        return self.box[:, 0] + (multi + 0.5) * self.widths

    def axis_centers(self) -> list:
        """Per coordinate, the cell centers along that axis, ascending."""
        return [self.box[j, 0] + (np.arange(k) + 0.5) * self.widths[j]
                for j, k in enumerate(self.cells_per_dim)]

    def all_representatives(self) -> Array:
        """Centers of all cells, shape (total_cells, dim), in flat-index order."""
        if self.dim == 0:
            return np.zeros((1, 0))
        mesh = np.meshgrid(*self.axis_centers(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float).reshape(self.dim)
        return bool(np.all(x >= self.box[:, 0]) and np.all(x <= self.box[:, 1]))


@dataclass(frozen=True, eq=False)
class AbstractPoint:
    """A cell index with its representative.  For the sink, index equals the
    grid's total cell count and the representative is the center of the nearest
    in-box cell (kept so score functions stay evaluable)."""

    index: int
    representative: Array
    is_sink: bool = False


def make_grid(box, target_sigma: float) -> UniformGrid:
    """Smallest per-coordinate cell counts with every half-width <=
    target_sigma; more than CELL_CAP cells are refused."""
    box = as_box(box)
    if box.shape[0] == 0:
        raise ValueError("cannot grid an empty box")
    if not target_sigma > 0:
        raise ValueError("target_sigma must be positive")
    counts = []
    for lo, hi in box:
        w = hi - lo
        k = max(1, math.ceil(w / (2.0 * target_sigma) - 1e-9))
        while w / (2.0 * k) > target_sigma:  # guard the float shortcut above
            k += 1
        counts.append(k)
    total = 1
    for k in counts:
        total *= k
    if total > CELL_CAP:
        raise CapacityError(f"{total} cells exceed the cap {CELL_CAP}")
    widths = (box[:, 1] - box[:, 0]) / np.asarray(counts, dtype=float)
    sigma = float(np.max(widths) / 2.0)
    return UniformGrid(box=box, cells_per_dim=tuple(counts), sigma=sigma)


def trivial_grid() -> UniformGrid:
    """The zero-dimensional grid (one cell, empty representative), used as the
    disturbance grid of systems without disturbances."""
    return UniformGrid(box=np.empty((0, 2)), cells_per_dim=(), sigma=0.0)


def product_grid(grids) -> UniformGrid:
    """Concatenate grids coordinate-wise; cell indices factor lexicographically,
    so quantizing a stacked vector equals stacking per-factor quantizations."""
    grids = list(grids)
    if not grids:
        return trivial_grid()
    box = np.vstack([g.box for g in grids])
    cells = tuple(k for g in grids for k in g.cells_per_dim)
    sigma = max(g.sigma for g in grids)
    return UniformGrid(box=box, cells_per_dim=cells, sigma=sigma)


def quantize(grid: UniformGrid, x) -> AbstractPoint:
    """Map x to its containing cell (center representative)."""
    idx = grid.cell_index(x)
    return AbstractPoint(index=idx, representative=grid.representative(idx))


def sink_point(grid: UniformGrid, y) -> AbstractPoint:
    """The absorbing out-of-box state, carrying the nearest in-box cell center."""
    y = np.asarray(y, dtype=float).reshape(grid.dim)
    clamped = np.clip(y, grid.box[:, 0], grid.box[:, 1])
    idx = grid.cell_index(clamped)
    return AbstractPoint(index=grid.total_cells,
                         representative=grid.representative(idx), is_sink=True)


def _reject_nan(y: Array) -> None:
    if np.isnan(y).any():
        raise DomainError("oracle reply is NaN; cannot quantize it")


def abstract_transition(sys: BlackBoxSystem, state_grid: UniformGrid,
                        dist_grid: UniformGrid | None, xhat: AbstractPoint,
                        nu, dhat: AbstractPoint | None) -> AbstractPoint:
    """One abstract step: query the oracle at the representatives, quantize.

    Outputs escaping the state box (+-inf included) return the sink point; a
    NaN output raises DomainError."""
    d = None if dhat is None else dhat.representative
    y = sys.step(xhat.representative, nu, d)
    _reject_nan(y)
    if state_grid.contains(y):
        return quantize(state_grid, y)
    return sink_point(state_grid, y)


def transition_table(sys: BlackBoxSystem, state_grid: UniformGrid,
                     dist_grid: UniformGrid, inputs,
                     successor: Array | None = None,
                     rep_cell: Array | None = None) -> None:
    """The abstract transition map, walked over its (cell, input, disturbance
    cell) rows of representatives in chunks of whole state cells: one oracle
    call per chunk of about TABLE_CHUNK_ROWS rows (at least one cell), the
    chunks in cell order, so the calls cover every row once, in order, the
    disturbance cell fastest.

    Each chunk's replies are quantized and written into the arrays the caller
    passes, each of shape (cells, inputs, disturbance cells) or a view with
    those axes: `successor` gets the quantized reply, or the sink
    (= total_cells) when the reply leaves the state box; `rep_cell` gets the
    in-box cell whose center represents the successor, the nearest one after
    clamping for the sink.  A caller passes the halves it keeps, both from
    the one pass, and no table-sized temporary is made.  Agrees entry by
    entry with abstract_transition."""
    state_reps = state_grid.all_representatives()
    dist_reps = dist_grid.all_representatives()
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    n_s, n_u, n_d = state_reps.shape[0], inputs.shape[0], dist_reps.shape[0]
    per_cell = n_u * n_d
    step = min(n_s, max(1, TABLE_CHUNK_ROWS // per_cell))
    # the input and disturbance columns repeat with every cell, so one copy
    # for a full chunk serves all; read-only, as no oracle may change them
    nu = np.tile(np.repeat(inputs, n_d, axis=0), (step, 1))
    d = np.tile(dist_reps, (step * n_u, 1))
    nu.flags.writeable = d.flags.writeable = False
    lows, highs = state_grid.box[:, 0], state_grid.box[:, 1]
    for lo in range(0, n_s, step):
        hi = min(lo + step, n_s)
        rows = (hi - lo) * per_cell
        replies = sys.step(np.repeat(state_reps[lo:hi], per_cell, axis=0),
                           nu[:rows], d[:rows])
        replies = replies.reshape(hi - lo, n_u, n_d, state_grid.dim)
        _reject_nan(replies)
        cells = state_grid.cell_indices(np.clip(replies, lows, highs))
        if rep_cell is not None:
            rep_cell[lo:hi] = cells
        if successor is not None:
            inside = np.all((replies >= lows) & (replies <= highs), axis=-1)
            successor[lo:hi] = np.where(inside, cells, n_s)
