"""Black-box discrete-time control systems and their interconnection.

A subsystem is a map x(k+1) = f(x(k), nu(k), d(k)) with state x in a box X,
input nu from a finite set U, and disturbance d in a box D.  The map itself is
only ever reached through its oracle callable; nothing in the toolkit inspects
model internals.  The oracle contract is batched: it receives row stacks
x (k, n), nu (k, m) and d (k, p) and returns the k successors as (k, n).
BlackBoxSystem.step is the one entry point; it accepts one point (k = 1) or
row stacks and makes exactly one oracle call either way.  Networks are formed
by wiring each subsystem's disturbance blocks to neighbor states
(d_ij = x_j), after which the network itself is a disturbance-free system.

The built-in benchmark is a circular network of rooms exchanging heat with
their two neighbors, a cooler, and the outside.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


def is_integer(value) -> bool:
    """An integer but not a bool (YAML's true and false are Integral too)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number but not a bool, which YAML's true would pass as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_box(box) -> Array:
    """Normalize interval bounds to a float array of shape (k, 2), low < high."""
    b = np.asarray(box, dtype=float)
    if b.size == 0:
        return b.reshape(0, 2)
    if b.ndim == 1 and b.shape[0] == 2:
        b = b.reshape(1, 2)
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError("box must be a (k, 2) array of [low, high] rows")
    if not np.all(np.isfinite(b)):
        raise ValueError("box bounds must be finite")
    if np.any(b[:, 0] >= b[:, 1]):
        raise ValueError("box rows must satisfy low < high")
    return b


class ProductInputSet(Sequence):
    """Cartesian product of per-subsystem input sets, enumerated lazily.

    Element i is the concatenation of one input vector per factor.  Index
    order is lexicographic with the last factor varying fastest, so the set
    behaves like an explicit nested loop without ever materializing all
    prod(len(factor)) tuples.
    """

    def __init__(self, factors):
        self._factors = [tuple(tuple(float(c) for c in np.atleast_1d(v)) for v in f)
                         for f in factors]
        if not self._factors or any(len(f) == 0 for f in self._factors):
            raise ValueError("every factor must be a non-empty input set")
        self._sizes = [len(f) for f in self._factors]
        n = 1
        for s in self._sizes:
            n *= s
        self._len = n

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(i)
        parts = []
        for size, factor in zip(reversed(self._sizes), reversed(self._factors)):
            i, r = divmod(i, size)
            parts.append(factor[r])
        out = ()
        for p in reversed(parts):
            out = out + p
        return out


@dataclass(frozen=True, eq=False)
class SystemSignature:
    """Interface card of one black box: dimensions, domains, finite input set."""

    state_dim: int
    input_set: Sequence
    disturbance_dim: int
    state_box: Array
    disturbance_box: Array

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be positive")
        if self.disturbance_dim < 0:
            raise ValueError("disturbance_dim must be non-negative")
        object.__setattr__(self, "state_box", as_box(self.state_box))
        object.__setattr__(self, "disturbance_box", as_box(self.disturbance_box))
        if self.state_box.shape[0] != self.state_dim:
            raise ValueError("state_box must have one interval per state coordinate")
        if self.disturbance_box.shape[0] != self.disturbance_dim:
            raise ValueError("disturbance_box must have one interval per disturbance coordinate")
        inputs = self.input_set
        if not isinstance(inputs, ProductInputSet):
            inputs = tuple(tuple(float(c) for c in np.atleast_1d(v)) for v in inputs)
            if len(inputs) == 0:
                raise ValueError("input_set must be non-empty")
            if len(set(inputs)) != len(inputs):
                raise ValueError("input_set must be duplicate-free")
            dims = {len(v) for v in inputs}
            if len(dims) != 1:
                raise ValueError("all input vectors must share one dimension")
        object.__setattr__(self, "input_set", inputs)

    @property
    def input_dim(self) -> int:
        return len(self.input_set[0])

    @property
    def n_inputs(self) -> int:
        return len(self.input_set)

    def input(self, index: int) -> Array:
        return np.asarray(self.input_set[index], dtype=float)

    def input_array(self) -> Array:
        """All inputs stacked as an (n_inputs, input_dim) array."""
        return np.asarray([self.input_set[i] for i in range(self.n_inputs)], dtype=float)


@dataclass(frozen=True, eq=False)
class BlackBoxSystem:
    """A signature plus the one-step oracle; the map is never inspected.

    The oracle maps row stacks x (k, n), nu (k, m), d (k, p) to successors
    (k, n), one row per query."""

    signature: SystemSignature
    oracle: Callable[[Array, Array, Array], Array]

    def step(self, x, nu, d=None) -> Array:
        """Successors of one point (1-D x, result (n,)) or of row stacks
        (2-D x, result (k, n)); exactly one oracle call either way."""
        sig = self.signature
        x = np.asarray(x, dtype=float)
        single = x.ndim < 2
        k = 1 if single else x.shape[0]
        # explicit row counts: reshape(-1, 0) cannot infer k for empty rows
        x = x.reshape(k, sig.state_dim)
        nu = np.asarray(nu, dtype=float).reshape(k, sig.input_dim)
        d = np.empty((k, 0)) if d is None else np.asarray(d, dtype=float)
        d = d.reshape(k, sig.disturbance_dim)
        y = np.asarray(self.oracle(x, nu, d), dtype=float).reshape(k, sig.state_dim)
        return y[0] if single else y


@dataclass(frozen=True)
class InterconnectionTopology:
    """wiring[i] lists the neighbor indices whose states feed subsystem i's disturbance."""

    wiring: tuple

    def __post_init__(self):
        norm = tuple(tuple(int(j) for j in row) for row in self.wiring)
        object.__setattr__(self, "wiring", norm)
        m = len(norm)
        if m == 0:
            raise ValueError("topology must have at least one subsystem")
        for i, row in enumerate(norm):
            for j in row:
                if j == i:
                    raise ValueError(f"subsystem {i} wired to itself")
                if not 0 <= j < m:
                    raise ValueError(f"subsystem {i} wired to unknown index {j}")

    @property
    def num_subsystems(self) -> int:
        return len(self.wiring)


# ----------------------------------------------------------------------------
# Room-temperature benchmark network
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RoomNetworkParams:
    """Circular network of rooms coupled to two neighbors, a cooler, and outside.

    Room i evolves as
        x_i+ = a_ii x_i + conduction*(d_left + d_right)
               + cooler_coupling*cooler_temp*nu_i + outside_coupling*T_e_i
    with a_ii = 1 - 2*conduction - outside_coupling - cooler_coupling*nu_i.
    """

    num_rooms: int = 5
    conduction: float = 0.005
    outside_coupling: float = 0.06
    cooler_coupling: float = 0.145
    cooler_temp: float = 5.0
    outside_temp: float | tuple = -2.0
    input_levels: tuple = (0.0, 0.05, 0.1, 0.15, 0.2)
    state_low: float = -0.5
    state_high: float = 0.5

    def __post_init__(self):
        if not is_integer(self.num_rooms):
            raise ValueError("num_rooms must be an integer")
        if self.num_rooms < 2:
            raise ValueError("num_rooms must be at least 2")
        temps = self.outside_temp
        named = [(name, getattr(self, name)) for name in (
            "conduction", "outside_coupling", "cooler_coupling", "cooler_temp",
            "state_low", "state_high")]
        named += [("outside_temp", t)
                  for t in ((temps,) if np.isscalar(temps) else temps)]
        named += [("input_levels", v) for v in self.input_levels]
        for name, value in named:
            if not (is_real(value) and np.isfinite(value)):
                raise ValueError(f"{name}: {value!r} is not a finite number")
        if len(self.outside_temps) != self.num_rooms:
            raise ValueError("outside_temp must be scalar or one value per room")
        if min(self.conduction, self.outside_coupling, self.cooler_coupling) <= 0:
            raise ValueError("thermal factors must be positive")
        if self.state_low >= self.state_high:
            raise ValueError("state_low must be below state_high")
        levels = tuple(float(v) for v in self.input_levels)
        if len(levels) == 0 or len(set(levels)) != len(levels):
            raise ValueError("input_levels must be non-empty and duplicate-free")
        object.__setattr__(self, "input_levels", levels)
        for nu in levels:
            a = self.diagonal(nu)
            if not 0.0 < a < 1.0:
                raise ValueError(
                    f"diagonal 1 - 2*conduction - outside_coupling - cooler_coupling*nu "
                    f"= {a} outside (0,1) at nu={nu}")

    def diagonal(self, nu: float) -> float:
        return 1.0 - 2.0 * self.conduction - self.outside_coupling \
            - self.cooler_coupling * float(nu)

    @property
    def outside_temps(self) -> tuple:
        t = self.outside_temp
        return (float(t),) * self.num_rooms if np.isscalar(t) \
            else tuple(float(v) for v in t)


def _room_oracle(params: RoomNetworkParams, index: int):
    base = 1.0 - 2.0 * params.conduction - params.outside_coupling
    c = params.conduction
    gain = params.cooler_coupling
    tc = params.cooler_temp
    drive = params.outside_coupling * params.outside_temps[index]

    def oracle(x, nu, d):
        a = base - gain * nu[:, 0]
        return (a * x[:, 0] + c * (d[:, 0] + d[:, 1]) + gain * tc * nu[:, 0]
                + drive)[:, None]

    return oracle


def _network_oracle(params: RoomNetworkParams):
    base = 1.0 - 2.0 * params.conduction - params.outside_coupling
    c = params.conduction
    gain = params.cooler_coupling
    tc = params.cooler_temp
    drive = params.outside_coupling * np.asarray(params.outside_temps)

    def oracle(x, nu, d):
        a = base - gain * nu
        return a * x + c * (np.roll(x, 1, axis=1) + np.roll(x, -1, axis=1)) \
            + gain * tc * nu + drive

    return oracle


def build_room_network(params: RoomNetworkParams):
    """Return (network BlackBoxSystem, InterconnectionTopology, per-room systems).

    The network input set is the lazy product of the per-room input levels;
    room i's disturbance is (x_{i-1}, x_{i+1}) with indices mod num_rooms.
    """
    m = params.num_rooms
    interval = (params.state_low, params.state_high)
    room_inputs = tuple((v,) for v in params.input_levels)
    rooms = []
    for i in range(m):
        sig = SystemSignature(
            state_dim=1, input_set=room_inputs, disturbance_dim=2,
            state_box=[interval], disturbance_box=[interval, interval])
        rooms.append(BlackBoxSystem(signature=sig, oracle=_room_oracle(params, i)))
    topology = InterconnectionTopology(
        wiring=tuple(((i - 1) % m, (i + 1) % m) for i in range(m)))
    net_sig = SystemSignature(
        state_dim=m, input_set=ProductInputSet([room_inputs] * m),
        disturbance_dim=0, state_box=[interval] * m,
        disturbance_box=np.empty((0, 2)))
    network = BlackBoxSystem(signature=net_sig, oracle=_network_oracle(params))
    return network, topology, rooms
