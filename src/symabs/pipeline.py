"""Configuration and the staged certification pipeline.

Stages: sample -> certify -> compose -> abstract -> synthesize -> simulate ->
report.  Every stage reads its inputs from the output directory (or derives
them from the configuration), writes deterministic artifacts (sorted keys,
shortest-round-trip floats, no timestamps), and can be rerun independently.
Identical runs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import compose as compose_mod
from . import scenario
from .errors import ConfigError, RefinementError
from .extoracle import ExternalOracle
from .model import (InterconnectionTopology, RoomNetworkParams, SystemSignature,
                    build_room_network, is_integer, is_real)
from .quantize import (DEFAULT_TABLE_CAP, TABLE_NAME, UniformGrid,
                       check_table_cap, make_grid, product_grid, trivial_grid)
from .scenario import (ApbfCertificate, DataLipschitz, LinearLipschitz,
                       NonlinearLipschitz, SampleBatch, VariableBoxes,
                       draw_samples, quartic_difference_basis)
from .synthesize import (AbstractionHeader, ControllerTable,
                         FiniteTransitionSystem, RefinedController,
                         enumerate_abstraction, safety_synthesis,
                         simulate_closed_loop, table_dtype)

Array = np.ndarray


# ----------------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------------

def _from_mapping(cls, data, context: str):
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a mapping")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    return cls(**data)


def _checked(context: str, build):
    """build(), with the ValueError or TypeError of a constructor's own
    checks raised as a ConfigError for the config section `context`."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _levels(name: str, value) -> tuple:
    """certify.<name>, one number or a non-empty list of them, each in
    (0, 1), as a tuple of floats.  A bool is 0 or 1, so it is refused."""
    levels = value if isinstance(value, (list, tuple)) else [value]
    if not (levels and all(isinstance(v, numbers.Real) and 0 < v < 1
                           for v in levels)):
        raise ConfigError(f"certify.{name} must be a number in (0, 1) or a "
                          f"non-empty list of them")
    return tuple(float(v) for v in levels)


def _tupled(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tupled(v) for v in value)
    return value


@dataclass(frozen=True)
class SystemConfig:
    """Which system to certify: the built-in room network or an external
    oracle subprocess speaking the STEP protocol."""

    kind: str = "rooms"
    num_rooms: int = 5
    conduction: float = 0.005
    outside_coupling: float = 0.06
    cooler_coupling: float = 0.145
    cooler_temp: float = 5.0
    outside_temp: float = -2.0
    input_levels: tuple = (0.0, 0.05, 0.1, 0.15, 0.2)
    state_low: float = -0.5
    state_high: float = 0.5
    # external-kind fields
    command: tuple = ()
    timeout: float = 5.0
    state_box: tuple = ()
    disturbance_box: tuple = ()
    input_set: tuple = ()

    def __post_init__(self):
        if self.kind not in ("rooms", "external"):
            raise ConfigError("system.kind must be 'rooms' or 'external'")
        if not (is_real(self.timeout) and 0 < self.timeout < np.inf):
            raise ConfigError("system.timeout must be a positive number of seconds")
        for name in ("input_levels", "command", "state_box", "disturbance_box",
                     "input_set"):
            object.__setattr__(self, name, _tupled(getattr(self, name)))
        if self.kind == "external":
            if not self.command:
                raise ConfigError("external system needs a command")
            if not self.state_box or not self.input_set:
                raise ConfigError("external system needs state_box and input_set")
            _checked("system", self.signature)
        else:
            _checked("system", self.room_params)

    def room_params(self) -> RoomNetworkParams:
        return RoomNetworkParams(
            num_rooms=self.num_rooms, conduction=self.conduction,
            outside_coupling=self.outside_coupling,
            cooler_coupling=self.cooler_coupling, cooler_temp=self.cooler_temp,
            outside_temp=self.outside_temp, input_levels=self.input_levels,
            state_low=self.state_low, state_high=self.state_high)

    def signature(self) -> SystemSignature:
        """The external system's signature: its boxes and input set."""
        return SystemSignature(
            state_dim=len(self.state_box), input_set=self.input_set,
            disturbance_dim=len(self.disturbance_box), state_box=self.state_box,
            disturbance_box=np.asarray(self.disturbance_box,
                                       dtype=float).reshape(-1, 2))

    @property
    def state_dim(self) -> int:
        """State dimension of each subsystem: a room has one coordinate."""
        return 1 if self.kind == "rooms" else len(self.state_box)

    @property
    def identical_subsystems(self) -> bool:
        return self.kind == "rooms" and np.isscalar(self.outside_temp)


# What each lipschitz.kind's slopes rest on, as `report` states it.
SLOPE_SOURCES = {"data": "estimated from sampled slopes, not proved",
                 "linear": "given (A, B, E) matrices",
                 "nonlinear": "given bounds"}


@dataclass(frozen=True)
class LipschitzBoundConfig:
    kind: str = "data"  # data | linear | nonlinear
    pairs: int = 200
    seed: int = 7
    safety: float = 1.5
    j_f: float | None = None
    j_x: float | None = None
    j_d: float | None = None
    a: tuple = ()
    b: tuple = ()
    e: tuple = ()

    def __post_init__(self):
        if self.kind not in ("data", "linear", "nonlinear"):
            raise ConfigError("lipschitz.kind must be data, linear or nonlinear")
        for name in ("a", "b", "e"):
            object.__setattr__(self, name, _tupled(getattr(self, name)))
        if self.kind == "nonlinear" and None in (self.j_f, self.j_x, self.j_d):
            raise ConfigError("nonlinear lipschitz needs j_f, j_x, j_d")
        if self.kind == "linear" and not self.a:
            raise ConfigError("linear lipschitz needs the a matrix")
        _checked("certify.lipschitz", self.source)

    def source(self):
        if self.kind == "data":
            return DataLipschitz(pairs=self.pairs, seed=self.seed,
                                 safety=self.safety)
        if self.kind == "nonlinear":
            return NonlinearLipschitz(j_f=self.j_f, j_x=self.j_x, j_d=self.j_d)
        return LinearLipschitz(a=np.asarray(self.a, dtype=float),
                               b=np.asarray(self.b, dtype=float) if self.b else None,
                               e=np.asarray(self.e, dtype=float) if self.e else None)


@dataclass(frozen=True)
class CertifyConfig:
    sigma: float = 0.025
    mu_grid: tuple = (0.5,)
    eps: tuple = (0.1,)
    beta: float = 0.01
    psi: float = 0.99
    lam: float = 1.0
    unknowns: int | None = None
    xi_target: float | None = -9.0
    boxes: dict = field(default_factory=lambda: {
        "gamma": (1e-3, 1e3), "eta": (0.0, 1e3),
        "theta": (0.0, 20.0), "phi": (0.0, 50.0)})
    lipschitz: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "mu_grid", _levels("mu_grid", self.mu_grid))
        object.__setattr__(self, "eps", _levels("eps", self.eps))
        if not (isinstance(self.beta, numbers.Real) and 0 < self.beta < 1):
            raise ConfigError("certify.beta must lie in (0, 1)")
        if not (isinstance(self.boxes, dict) and all(
                isinstance(box, (list, tuple)) for box in self.boxes.values())):
            raise ConfigError("certify.boxes must map names to [low, high] pairs")
        object.__setattr__(self, "boxes", {k: tuple(v) for k, v in self.boxes.items()})
        if not (is_real(self.sigma) and self.sigma > 0):
            raise ConfigError("certify.sigma must be a positive number")
        if not (isinstance(self.psi, numbers.Real) and 0 < self.psi < 1):
            raise ConfigError("certify.psi must lie in (0, 1)")
        if not (is_real(self.lam) and self.lam > 0):
            raise ConfigError("certify.lam must be a positive number")
        xi = self.xi_target
        if xi is not None and not (is_real(xi) and np.isfinite(xi)):
            raise ConfigError("certify.xi_target must be a finite number or null")
        if self.unknowns is not None and not (is_integer(self.unknowns)
                                              and self.unknowns >= 1):
            raise ConfigError("certify.unknowns must be a positive integer or null")
        _checked("certify.boxes", self.variable_boxes)
        self.lipschitz_config()

    def variable_boxes(self) -> VariableBoxes:
        return VariableBoxes.from_mapping(self.boxes)

    def lipschitz_config(self) -> LipschitzBoundConfig:
        return _from_mapping(LipschitzBoundConfig, self.lipschitz,
                             "certify.lipschitz")


@dataclass(frozen=True)
class ComposeConfig:
    slack: float = 1e-6

    def __post_init__(self):
        if not (isinstance(self.slack, numbers.Real) and 0 < self.slack < 1):
            raise ConfigError("compose.slack must lie in (0, 1)")


@dataclass(frozen=True)
class SynthesizeConfig:
    # Safe band for the abstract game.  Tighter than the containment box on
    # purpose: winning cells at the band edge still choose inputs whose real
    # closed loop pulls inward, absorbing quantization drift.  None means the
    # whole state box.
    safe_low: tuple | float | None = -0.3
    safe_high: tuple | float | None = 0.3
    horizon: int = 100
    initial: tuple | str = "winning-centers"
    max_runs: int = 64
    # Entries of the transition table, for certify's as well as abstract's.
    query_cap: int = DEFAULT_TABLE_CAP

    def __post_init__(self):
        for name, low in (("horizon", 0), ("max_runs", 1), ("query_cap", 1)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                raise ConfigError(f"synthesize.{name} must be an integer of "
                                  f"at least {low}")
        if not isinstance(self.initial, str):
            object.__setattr__(self, "initial", _tupled(self.initial))
        elif self.initial != "winning-centers":
            raise ConfigError("synthesize.initial must be 'winning-centers' "
                              "or a list of start states")

    def safe_band(self, dim: int) -> tuple[Array, Array]:
        """(low, high) of the safe band over dim state coordinates.  One
        value holds on every coordinate; None leaves that side open."""
        band = []
        for name, open_side in (("safe_low", -np.inf), ("safe_high", np.inf)):
            given = getattr(self, name)
            value = _checked(f"synthesize.{name}", lambda: np.asarray(
                open_side if given is None else given, dtype=float))
            if value.shape not in ((), (1,), (dim,)):
                raise ConfigError(f"synthesize.{name} must be one number or "
                                  f"{dim}, one per state coordinate")
            band.append(np.broadcast_to(value, (dim,)))
        return band[0], band[1]


@dataclass(frozen=True)
class ReportConfig:
    reference_sample_size: int | None = None

    def __post_init__(self):
        ref = self.reference_sample_size
        if ref is not None and not (is_integer(ref) and ref > 0):
            raise ConfigError("report.reference_sample_size must be a "
                              "positive integer or null")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    system: SystemConfig = field(default_factory=SystemConfig)
    certify: CertifyConfig = field(default_factory=CertifyConfig)
    compose: ComposeConfig = field(default_factory=ComposeConfig)
    synthesize: SynthesizeConfig = field(default_factory=SynthesizeConfig)
    report: ReportConfig = field(default_factory=ReportConfig)

    def __post_init__(self):
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        self.synthesize.safe_band(self.system.state_dim)

    @classmethod
    def from_mapping(cls, data) -> "PipelineConfig":
        data = dict(data or {})
        known = {"seed", "system", "certify", "compose", "synthesize", "report"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            seed=data.get("seed", 0),
            system=_from_mapping(SystemConfig, data.get("system"), "system"),
            certify=_from_mapping(CertifyConfig, data.get("certify"), "certify"),
            compose=_from_mapping(ComposeConfig, data.get("compose"), "compose"),
            synthesize=_from_mapping(SynthesizeConfig, data.get("synthesize"),
                                     "synthesize"),
            report=_from_mapping(ReportConfig, data.get("report"), "report"))

    def to_mapping(self) -> dict:
        def plain(value):
            if isinstance(value, tuple):
                return [plain(v) for v in value]
            if isinstance(value, dict):
                return {k: plain(v) for k, v in value.items()}
            return value

        out = {"seed": self.seed}
        for name in ("system", "certify", "compose", "synthesize", "report"):
            section = getattr(self, name)
            out[name] = {f.name: plain(getattr(section, f.name))
                         for f in dataclasses.fields(section)}
        return out

    def to_yaml(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.to_mapping(), fh, sort_keys=True,
                           default_flow_style=False)


# ----------------------------------------------------------------------------
# System construction and grids
# ----------------------------------------------------------------------------

@dataclass(eq=False)
class SystemBundle:
    topology: InterconnectionTopology
    subsystems: list
    cleanup: object = None  # ExternalOracle to close, if any

    @property
    def count(self) -> int:
        return len(self.subsystems)


def build_systems(config: PipelineConfig) -> SystemBundle:
    sys_cfg = config.system
    if sys_cfg.kind == "rooms":
        _, topology, rooms = build_room_network(sys_cfg.room_params())
        return SystemBundle(topology=topology, subsystems=rooms)
    oracle = ExternalOracle(list(sys_cfg.command), sys_cfg.signature(),
                            timeout=sys_cfg.timeout)
    system = oracle.as_system()
    topology = InterconnectionTopology(wiring=((),))
    return SystemBundle(topology=topology, subsystems=[system], cleanup=oracle)


@contextmanager
def _systems(config: PipelineConfig, bundle: SystemBundle | None):
    """The given bundle, or one built from the config and closed on exit."""
    if bundle is not None:
        yield bundle
        return
    bundle = build_systems(config)
    try:
        yield bundle
    finally:
        if bundle.cleanup is not None:
            bundle.cleanup.close()


def subsystem_grids(bundle: SystemBundle, sigma: float, indices):
    """(state grids, disturbance grids) of the subsystems `indices`, as dicts
    keyed by subsystem index in ascending order; a repeated index is built
    once.  Wired subsystems reuse their neighbors' state grids as disturbance
    factors, so the state grids also hold those neighbors'; no other
    subsystem's grid is built."""
    indices = sorted(set(indices))
    wiring = bundle.topology.wiring
    needed = set(indices).union(*(wiring[i] for i in indices))
    state_grids = {j: make_grid(bundle.subsystems[j].signature.state_box, sigma)
                   for j in sorted(needed)}
    dist_grids = {}
    for i in indices:
        sub = bundle.subsystems[i]
        if wiring[i]:
            dist_grids[i] = product_grid([state_grids[j] for j in wiring[i]])
        elif sub.signature.disturbance_dim == 0:
            dist_grids[i] = trivial_grid()
        else:
            dist_grids[i] = make_grid(sub.signature.disturbance_box, sigma)
    return state_grids, dist_grids


# ----------------------------------------------------------------------------
# Artifact I/O
# ----------------------------------------------------------------------------

def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_certificates(path, payload) -> None:
    """Write {"shared": ..., "certificates": [...]} byte for byte as
    `_write_json` would, encoding each distinct mapping in the (non-empty)
    list once.  Rooms that share a certificate share one mapping object, and
    json's indenting encoder is pure Python, so a 30-room ring would encode
    the same certificate 30 times."""
    texts = {}
    for cert in payload["certificates"]:
        if id(cert) not in texts:
            # re-indented to list depth 2; json escapes newlines in strings
            texts[id(cert)] = json.dumps(cert, sort_keys=True,
                                         indent=1).replace("\n", "\n  ")
    items = ",\n  ".join(texts[id(cert)] for cert in payload["certificates"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "certificates": [\n  {items}\n ],\n'
                 f' "shared": {json.dumps(payload["shared"])}\n}}\n')


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def batch_to_mapping(batch: SampleBatch) -> dict:
    return {"seed": batch.seed, "state_dim": batch.state_dim,
            "dist_dim": batch.dist_dim,
            "points": [[float(v) for v in row] for row in batch.points]}


def _grid_mapping(grid: UniformGrid) -> dict:
    return {"box": grid.box.tolist(), "cells": list(grid.cells_per_dim),
            "sigma": float(grid.sigma)}


def _grid_from_mapping(data) -> UniformGrid:
    cells = data["cells"]
    if not (isinstance(cells, list) and all(is_integer(k) for k in cells)):
        raise ValueError(f"cells {cells!r} is not a list of integers")
    return UniformGrid(box=data["box"], cells_per_dim=cells,
                       sigma=float(data["sigma"]))


@contextmanager
def _reading(path, what: str):
    """Raise the error of a malformed, truncated or empty file, met while
    the block reads or parses it, as a ConfigError that names the file."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OverflowError, EOFError) as exc:
        raise ConfigError(f"{path}: malformed {what} ({exc})") from None


def _header_path(path) -> str:
    """The JSON header beside the abstraction table at path."""
    return os.path.splitext(os.fspath(path))[0] + ".json"


def _abstraction_header(state_grid: UniformGrid, dist_grid: UniformGrid,
                        inputs: Array, system) -> dict:
    return {"state_grid": _grid_mapping(state_grid),
            "dist_grid": _grid_mapping(dist_grid),
            "inputs": inputs.tolist(), "system": system}


def write_abstraction(path, fts: FiniteTransitionSystem,
                      system: dict | None) -> None:
    """Write the successor table, shape (n_states, n_inputs, n_dists), to
    path as .npy in table_dtype, the smallest unsigned dtype that holds the
    sink, and beside it a JSON header of the grids, the inputs and
    `system`, the stages' record of the system queried: the config's
    `system` section."""
    with open(path, "wb") as fh:  # np.save would add .npy to a bare path
        np.save(fh, fts.table.astype(table_dtype(fts.n_states), copy=False))
    _write_json(_header_path(path), _abstraction_header(
        fts.state_grid, fts.dist_grid, fts.inputs, system))


def read_abstraction_header(path) -> AbstractionHeader:
    """The grids and inputs of the abstraction at path, from its JSON
    header alone."""
    path = _header_path(path)
    with _reading(path, "abstraction header"):
        data = _read_json(path)
        inputs = np.asarray(data["inputs"], dtype=float)
        if inputs.ndim != 2 or 0 in inputs.shape:
            raise ValueError("inputs must be a non-empty list of input vectors")
        return AbstractionHeader(state_grid=_grid_from_mapping(data["state_grid"]),
                                 dist_grid=_grid_from_mapping(data["dist_grid"]),
                                 inputs=inputs)


def read_abstraction(path) -> FiniteTransitionSystem:
    """The abstraction at path: its header, and a table of n_states *
    n_inputs * n_dists integer successors, each a cell or the sink.  The
    loaded table is the abstraction's own, in the stored dtype."""
    head = read_abstraction_header(path)

    # through a handle that is closed even when it holds an .npz
    with _reading(path, "abstraction table"), open(path, "rb") as fh:
        body = np.load(fh, allow_pickle=False)
    if not isinstance(body, np.ndarray) or body.dtype.kind not in "iu":
        raise ConfigError(f"{path}: the table is not an integer array")
    # the constructor checks the shape and the range of the successors
    return _checked(str(path), lambda: FiniteTransitionSystem(
        table=body, state_grid=head.state_grid, dist_grid=head.dist_grid,
        inputs=head.inputs))


def write_controller(path, ctrl: ControllerTable) -> None:
    """Write {"chosen": [...]}: per cell, its chosen input index, or -1
    where the cell is not winning."""
    _write_json(path, {"chosen": ctrl.chosen.tolist()})


def read_controller(path, fts: AbstractionHeader) -> ControllerTable:
    """The controller at path, against fts (the abstraction or its header):
    per cell, an input index of fts or -1."""
    with _reading(path, "controller"):
        chosen = _read_json(path)["chosen"]
    if not (isinstance(chosen, list) and all(is_integer(u) for u in chosen)):
        raise ConfigError(f"{path}: malformed controller (not a list of integers)")
    if len(chosen) != fts.n_states:
        raise ConfigError(f"{path}: {len(chosen)} cells, expected {fts.n_states}")
    if not all(-1 <= u < fts.n_inputs for u in chosen):
        raise ConfigError(f"{path}: input index out of range")
    return ControllerTable(chosen=np.array(chosen, dtype=np.int64), fts=fts)


# Stands in for the subsystem column while a room's rows are shared: no run
# label (write_trajectories refuses one with it), integer or float repr has it.
_SUBSYSTEM = "\0"


def _room_rows(head, tail, states, indices, safe, inputs) -> str:
    """The rows of one room, states (T+1, n), with _SUBSYSTEM in the
    subsystem column: one % pass over a row template; inputs[j] is the
    text of input j."""
    t, n = indices.shape[0], states.shape[1]
    body = np.empty((t, n + 4), dtype=object)  # Python ints, floats, bools
    body[:, 0], body[:, 1:n + 1], body[:, n + 1] = range(t), states[:t], indices
    body[:, n + 2], body[:, n + 3] = [inputs[j] for j in indices.tolist()], safe[:t]
    values = body.ravel().tolist() + [t, *states[t].tolist(), int(safe[t])]
    state = ";".join(["%r"] * n)
    return (f"{head}{state},%d,%s{tail}" * t + f"{head}{state},,{tail}") % tuple(values)


def write_trajectories(path, labels, log) -> None:
    """Write the ClosedLoopLog `log`, run r under labels[r], which must not
    hold a NUL character.  Within a run, rooms whose states, input indices
    and safety flags match bit for bit over one input table are formatted
    once, and each room's index is joined into the pieces of that text."""
    if len(labels) != len(log) or any(_SUBSYSTEM in str(s) for s in labels):
        raise ValueError(f"need {len(log)} run labels, none with a NUL character")
    off = log.offsets.tolist()
    texts = {id(tab): [";".join(map(repr, nu)) for nu in
                       np.asarray(tab, float).tolist()] for tab in log.tables}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run,time,subsystem,state,input_index,input,safe,truncated\n")
        for r, label in enumerate(labels):
            t = int(log.steps[r])
            head = f"{str(label).replace('%', '%%')},%d,{_SUBSYSTEM},"
            tail = f",%d,{int(t < log.horizon)}\n"
            # transposed: each room's states, indices and flags are rows
            x, u, ok = (np.ascontiguousarray(a[:t + k, r].T) for a, k in (
                (log.states, 1), (log.input_indices, 0), (log.safe, 1)))
            rooms, parts = {}, []
            for i, tab in enumerate(log.tables):
                xi = x[off[i]:off[i + 1]]
                key = (id(tab), xi.tobytes() + u[i].tobytes() + ok[i].tobytes())
                if key not in rooms:
                    rooms[key] = _room_rows(head, tail, xi.T, u[i], ok[i],
                                            texts[id(tab)]).split(_SUBSYSTEM)
                parts.append(str(i).join(rooms[key]))
            fh.write("".join(parts))


# ----------------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------------

def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def computed_sample_size(config: PipelineConfig, state_dim: int) -> tuple[int, int]:
    """(Q, unknown count) implied by the certification settings."""
    cert = config.certify
    try:
        plan = scenario.sample_plan(cert.mu_grid, cert.eps, cert.beta,
                                    quartic_difference_basis(state_dim).z,
                                    cert.unknowns)
    except ValueError as exc:
        raise ConfigError(f"certify: {exc}") from None
    return plan.q, plan.unknowns


def _owners(config: PipelineConfig, bundle: SystemBundle) -> list:
    """For each subsystem, the one whose samples, certificate, abstraction and
    controller serve it: 0 for all when the subsystems are identical, else
    itself.  Stages compute and store artifacts for distinct owners only."""
    if config.system.identical_subsystems:
        return [0] * bundle.count
    return list(range(bundle.count))


def _draw_batches(config: PipelineConfig, bundle: SystemBundle, q: int):
    """One sample batch per distinct owner, in index order: owner i's q
    points drawn at seed + i over its state and disturbance box.  Certify
    draws its batches here on every run; samples.json holds the same
    batches for inspection and is never read back."""
    return [draw_samples(bundle.subsystems[i].signature, q, config.seed + i)
            for i in sorted(set(_owners(config, bundle)))]


def stage_sample(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    with _systems(config, bundle) as bundle:
        q, _ = computed_sample_size(config, config.system.state_dim)
        batches = _draw_batches(config, bundle, q)
        payload = {"shared": config.system.identical_subsystems, "q": q,
                   "batches": [batch_to_mapping(b) for b in batches]}
        _write_json(os.path.join(out_dir, "samples.json"), payload)
        return payload


def stage_certify(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    with _systems(config, bundle) as bundle:
        cert_cfg = config.certify
        owners = _owners(config, bundle)
        state_grids, dist_grids = subsystem_grids(bundle, cert_cfg.sigma, owners)
        q, unknowns = computed_sample_size(config, config.system.state_dim)
        cap = config.synthesize.query_cap
        lip_cfg = cert_cfg.lipschitz_config()
        lipschitz = lip_cfg.source()
        for sig in (system.signature for system in bundle.subsystems):
            _checked("certify.lipschitz", lambda: lipschitz.check(sig))
            if lip_cfg.kind == "data":  # before the probe draws them
                check_table_cap("the slope probe's point pairs (pairs x state and "
                                "disturbance coordinates)", lip_cfg.pairs * (
                                    sig.state_dim + sig.disturbance_dim), cap)
        batches = _draw_batches(config, bundle, q)
        boxes = cert_cfg.variable_boxes()
        system = config.to_mapping()["system"]
        certs = {}
        for i, batch in zip(sorted(set(owners)), batches):
            sub, grid = bundle.subsystems[i], state_grids[i]
            # certify's one oracle pass over the table also fills the
            # abstraction, which abstract then finds stored.  Past the cap
            # the table is refused before it is made, with the message of
            # certify's own int64 copy.
            shape = (grid.total_cells, sub.signature.n_inputs,
                     dist_grids[i].total_cells)
            check_table_cap(TABLE_NAME, shape[0] * shape[1] * shape[2], cap)
            table = np.empty(shape, dtype=table_dtype(shape[0]))
            certs[i] = scenario.certify_apbf(
                sub, grid, dist_grids[i], cert_cfg.mu_grid, cert_cfg.eps,
                cert_cfg.beta, lipschitz, samples=batch, boxes=boxes,
                unknowns=unknowns, psi=cert_cfg.psi, lam=cert_cfg.lam,
                xi_target=cert_cfg.xi_target, table_cap=cap, successor=table)
            _discard(out_dir, f"controller_{i}.json", "synthesis.json")
            write_abstraction(
                os.path.join(out_dir, f"abstraction_{i}.npy"),
                FiniteTransitionSystem(table=table, state_grid=grid,
                                       dist_grid=dist_grids[i],
                                       inputs=sub.signature.input_array()),
                system)
        shared = config.system.identical_subsystems
        # LP telemetry per certified subsystem and mu level, and the slope
        # source; kept out of certificates.json, whose bytes reruns must
        # reproduce.
        _write_json(os.path.join(out_dir, "lp_stats.json"),
                    {"shared": shared, "lipschitz_kind": lip_cfg.kind,
                     "subsystems": [list(c.lp_stats) for c in certs.values()]})
        mappings = {i: cert.to_mapping() for i, cert in certs.items()}
        payload = {"shared": shared,
                   "certificates": [mappings[i] for i in owners]}
        _write_certificates(os.path.join(out_dir, "certificates.json"), payload)
        _discard(out_dir, "composed.json", "simulation.json", "trajectories.csv")
        return payload


def load_certificates(out_dir: str):
    """The certificates of certificates.json.  A basis record other than the
    one certify writes is refused as a configuration error that names the
    file.  Each run of equal mappings, as a shared ring writes, is parsed
    once and gives one object.  Mappings count as equal only when their
    marshal bytes are too, which tells 1 from 1.0 and true and 0.0 from
    -0.0 (format 2, whose bytes do not depend on reference counts); the
    file's `shared` flag is not trusted for this."""
    import marshal  # built in and loaded with the interpreter
    path = os.path.join(out_dir, "certificates.json")
    certs, last = [], None
    with _reading(path, "certificates"):
        for c in _read_json(path)["certificates"]:
            if c != last or marshal.dumps(c, 2) != marshal.dumps(last, 2):
                cert, last = ApbfCertificate.from_mapping(c), c
            certs.append(cert)
    return certs


def stage_compose(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    with _systems(config, bundle) as bundle:
        certs = load_certificates(out_dir)
        gains = compose_mod.build_gain_matrix(certs, bundle.topology)
        circ = compose_mod.check_circularity(gains)
        payload = {
            "gain_matrix": [[float(v) for v in row] for row in gains.entries],
            "circularity_ok": circ.ok,
            "worst_pair_product": circ.worst_pair_product,
            "max_entry": circ.max_entry,
            "witness": list(circ.witness) if circ.witness else None,
            "witness_product": circ.witness_product,
        }
        if circ.ok:
            scalings = compose_mod.find_scalings(gains, config.compose.slack)
            abf = compose_mod.compose_abf(certs, scalings)
            # Vacuous: the radius is at least half the narrowest state-box
            # width, so the ball around the box centre already spans the box
            # along that axis and the relation separates no cells there.
            narrowest = min(float(np.min(np.diff(s.signature.state_box, axis=1)))
                            for s in bundle.subsystems)
            payload.update({
                "kappa": [float(v) for v in scalings.kappa],
                "max_ratio": scalings.max_ratio,
                "gamma": float(abf.gamma), "mu": abf.mu,
                "theta": float(abf.theta),
                "confidence": abf.confidence, "eps_tilde": abf.eps_tilde,
                "vacuous": bool(abf.eps_tilde >= narrowest / 2.0),
            })
        _write_json(os.path.join(out_dir, "composed.json"), payload)
        _discard(out_dir, "simulation.json", "trajectories.csv")
        return payload


def load_composed(out_dir: str) -> compose_mod.ComposedAbf:
    """The network relation of composed.json and the certificates."""
    path = os.path.join(out_dir, "composed.json")
    with _reading(path, "composition"):
        payload = _read_json(path)
        if not payload["circularity_ok"]:
            raise ConfigError("composition failed; no relation available")
    certs = load_certificates(out_dir)
    with _reading(path, "composition"):
        gains = compose_mod.GainMatrix(
            entries=np.asarray(payload["gain_matrix"], dtype=float))
        return compose_mod.compose_abf(certs, compose_mod.ScalingVector(
            kappa=np.asarray(payload["kappa"], dtype=float),
            max_ratio=float(payload["max_ratio"]), gains=gains))


def stage_abstract(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    """Write each distinct owner's abstraction, unless the stored one serves
    this config: a table whose header holds this config's grids, inputs and
    system record, as certify writes it.  Otherwise query the oracle."""
    out_dir = _ensure_out(out_dir)
    with _systems(config, bundle) as bundle:
        state_grids, dist_grids = subsystem_grids(
            bundle, config.certify.sigma, _owners(config, bundle))
        system = config.to_mapping()["system"]
        cap = config.synthesize.query_cap
        for i in dist_grids:
            path = os.path.join(out_dir, f"abstraction_{i}.npy")
            sub, grid = bundle.subsystems[i], state_grids[i]
            inputs = sub.signature.input_array()
            head, stored = _header_path(path), False
            if os.path.exists(path) and os.path.exists(head):
                with _reading(head, "abstraction header"):
                    stored = _read_json(head) == _abstraction_header(
                        grid, dist_grids[i], inputs, system)
            if stored:
                # a stored table is held to the cap, as a queried one is
                check_table_cap(TABLE_NAME, grid.total_cells * len(inputs)
                                * dist_grids[i].total_cells, cap,
                                table_dtype(grid.total_cells).itemsize)
            else:
                fts = enumerate_abstraction(sub, grid, dist_grids[i],
                                            query_cap=cap)
                write_abstraction(path, fts, system)
            _discard(out_dir, f"controller_{i}.json")
        _discard(out_dir, "synthesis.json", "simulation.json", "trajectories.csv")
        return {"subsystems": bundle.count,
                "shared": config.system.identical_subsystems}


def _safe_cells(config: PipelineConfig, fts: FiniteTransitionSystem) -> list:
    grid = fts.state_grid
    low, high = config.synthesize.safe_band(grid.dim)
    reps = grid.all_representatives()
    half = grid.widths / 2.0
    keep = np.all(reps - half >= low - 1e-12, axis=1) \
        & np.all(reps + half <= high + 1e-12, axis=1)
    return [int(s) for s in np.flatnonzero(keep)]


def stage_synthesize(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    with _systems(config, bundle) as bundle:
        owners = _owners(config, bundle)
        winning = {}
        for i in sorted(set(owners)):
            fts = read_abstraction(os.path.join(out_dir, f"abstraction_{i}.npy"))
            ctrl = safety_synthesis(fts, _safe_cells(config, fts))
            write_controller(os.path.join(out_dir, f"controller_{i}.json"), ctrl)
            winning[i] = int(ctrl.winning.sum())
        payload = {"winning": [winning[i] for i in owners],
                   "ok": all(c > 0 for c in winning.values())}
        _write_json(os.path.join(out_dir, "synthesis.json"), payload)
        _discard(out_dir, "simulation.json", "trajectories.csv")
        return payload


def _initial_conditions(config: PipelineConfig, controllers):
    """(run labels, (runs, network state dim) stack of starts)."""
    syn = config.synthesize
    if not isinstance(syn.initial, str):
        width = sum(c.fts.state_grid.dim for c in controllers)
        try:
            starts = np.asarray(syn.initial, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"synthesize.initial: {exc}") from None
        if starts.ndim == 1:
            starts = starts[None, :]
        if starts.ndim != 2 or starts.shape[1] != width:
            raise ConfigError(f"synthesize.initial: each start needs {width} "
                              f"coordinates, one per network state coordinate")
        if not np.all(np.isfinite(starts)):
            raise ConfigError("synthesize.initial: every start coordinate "
                              "must be finite")
        return [f"x{k}" for k in range(starts.shape[0])], starts
    # winning-centers: every subsystem starts at the same winning cell center
    # of subsystem 0's grid (desk-scale sweep over winning cells).
    grid = controllers[0].fts.state_grid
    cells = controllers[0].winning_states[:syn.max_runs]
    centers = np.array([grid.representative(s) for s in cells])
    starts = np.tile(centers.reshape(len(cells), grid.dim), len(controllers))
    return [f"cell{s}" for s in cells], starts


def stage_simulate(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    with _systems(config, bundle) as bundle:
        rel = load_composed(out_dir)
        owners = _owners(config, bundle)
        tables = {}
        for i in sorted(set(owners)):
            header = read_abstraction_header(
                os.path.join(out_dir, f"abstraction_{i}.npy"))
            tables[i] = read_controller(
                os.path.join(out_dir, f"controller_{i}.json"), header)
            if not tables[i].winning.any():
                raise RefinementError(
                    f"subsystem {i} has an empty winning set; there is no "
                    f"controller to refine")
        # one refined controller per shared table and scaling: the relation
        # component divides S by kappa_i, which can move argmin ties and
        # the miss message, so rooms with another kappa get their own
        controllers = [tables[i] for i in owners]
        refined, by_key = [], {}
        for i, c in enumerate(controllers):
            key = (owners[i], float(rel.scalings.kappa[i]))
            if key not in by_key:
                by_key[key] = RefinedController(c, rel.component(i))
            refined.append(by_key[key])
        labels, starts = _initial_conditions(config, controllers)
        horizon = config.synthesize.horizon
        check_table_cap("the closed-loop states (horizon + 1 x runs x state "
                        "coordinates)", (horizon + 1) * starts.size,
                        config.synthesize.query_cap)
        # every room steps with its owner's system, so rooms that share an
        # owner share one object and advance in one oracle call per step
        log = simulate_closed_loop(
            [bundle.subsystems[o] for o in owners], bundle.topology, refined,
            starts, horizon)
        all_safe = bool(log.safe.size and (log.steps == horizon).all()
                        and log.safe.all())
        write_trajectories(os.path.join(out_dir, "trajectories.csv"), labels, log)
        payload = {"runs": len(log), "all_safe": all_safe, "horizon": horizon}
        # why each truncated run stopped; absent when none did
        if log.diagnostics:
            payload["truncated"] = [
                {"run": labels[r], "step": int(log.steps[r]), "subsystem": i,
                 "message": message}
                for r, (i, message) in sorted(log.diagnostics.items())]
        _write_json(os.path.join(out_dir, "simulation.json"), payload)
        return payload


def stage_report(config: PipelineConfig, out_dir: str) -> str:
    """Summarize whatever artifacts exist; always derivable: the minimal
    sample size implied by the configuration, compared against an optional
    externally reported reference value."""
    out_dir = _ensure_out(out_dir)
    lines = []
    q, unknowns = computed_sample_size(config, config.system.state_dim)
    lines.append(f"minimal sample size (eps={list(config.certify.eps)}, "
                 f"beta={config.certify.beta!r}, unknowns={unknowns}): {q}")
    ref = config.report.reference_sample_size
    if ref is not None:
        flag = "MATCH" if ref == q else "MISMATCH"
        lines.append(f"reference sample size: {ref}")
        lines.append(f"sample size comparison: computed {q} vs reference {ref} "
                     f"-> {flag}")

    certified = circ_ok = syn_ok = False
    lp_path = os.path.join(out_dir, "lp_stats.json")
    kind = lp_line = None
    if os.path.exists(lp_path):
        with _reading(lp_path, "LP statistics"):
            lp_stats = _read_json(lp_path)
            levels = [lvl for sub in lp_stats["subsystems"] for lvl in sub]
            kind = lp_stats.get("lipschitz_kind")
            lp_line = (
                f"lp ({len(levels)} solves): "
                f"rounds={sum(lvl['rounds'] for lvl in levels)} "
                f"pivots={sum(lvl['pivots'] for lvl in levels)} "
                f"master_rows_max={max(lvl['master_rows'] for lvl in levels)} "
                f"binding H1={sum(lvl['binding']['H1'] for lvl in levels)} "
                f"H2={sum(lvl['binding']['H2'] for lvl in levels)} "
                f"pruned={sum(lvl['pruned'] for lvl in levels)}/"
                f"{sum(lvl['blocks'] + lvl['pruned'] for lvl in levels)}")
    if os.path.exists(os.path.join(out_dir, "certificates.json")):
        certs = load_certificates(out_dir)
        certified = all(c.certified for c in certs)
        cert = certs[0]
        lines.append(f"subsystems certified: "
                     f"{sum(1 for c in certs if c.certified)} of {len(certs)}")
        lines.append(f"q: {cert.q}")
        lines.append(f"xi_star: {cert.xi_star!r}")
        lines.append(f"xi_achieved: {cert.xi_achieved!r}")
        lines.append(f"lipschitz: {list(cert.lipschitz)!r}")
        # the kind that certified the run, not the one configured now
        if kind in SLOPE_SOURCES:
            lines.append(f"lipschitz source: {kind} ({SLOPE_SOURCES[kind]})")
        lines.append(f"kappa_radii: {list(cert.kappa_radii)!r}")
        lines.append(f"margin: {cert.margin!r}")
        lines.append(f"certified: {cert.certified}")
        lines.append(f"subsystem gains: gamma={cert.gamma!r} mu={cert.mu!r} "
                     f"eta={cert.eta!r} theta={cert.theta!r}")
    if lp_line is not None:
        lines.append(lp_line)

    comp_path = os.path.join(out_dir, "composed.json")
    if os.path.exists(comp_path):
        with _reading(comp_path, "composition"):
            comp = _read_json(comp_path)
            circ_ok = bool(comp["circularity_ok"])
            lines.append(f"circularity_ok: {comp['circularity_ok']}")
            lines.append(f"worst_pair_product: {comp['worst_pair_product']!r}")
            if circ_ok:
                lines.append(f"kappa: {comp['kappa']!r}")
                lines.append(f"composed: gamma={comp['gamma']!r} "
                             f"mu={comp['mu']!r} theta={comp['theta']!r}")
                lines.append(f"eps_tilde: {comp['eps_tilde']!r} "
                             f"vacuous: {comp['vacuous']}")
                lines.append(f"confidence: {comp['confidence']!r}")
            else:
                lines.append(f"violating cycle: {comp['witness']!r} "
                             f"gain product: {comp['witness_product']!r}")

    syn_path = os.path.join(out_dir, "synthesis.json")
    if os.path.exists(syn_path):
        with _reading(syn_path, "synthesis"):
            syn = _read_json(syn_path)
            syn_ok = syn["ok"]
            lines.append(f"winning cells per subsystem: {syn['winning']}")
    sim_path = os.path.join(out_dir, "simulation.json")
    if os.path.exists(sim_path):
        with _reading(sim_path, "simulation"):
            sim = _read_json(sim_path)
            lines.append(f"simulation runs: {sim['runs']} "
                         f"horizon: {sim['horizon']}")
            lines.append(f"all trajectories safe: {sim['all_safe']}")
            if sim.get("truncated"):
                first = sim["truncated"][0]
                lines.append(f"truncated runs: {len(sim['truncated'])}; first: "
                             f"run {first['run']} subsystem {first['subsystem']} "
                             f"step {first['step']}: {first['message']}")
            ok = certified and circ_ok and syn_ok and sim["all_safe"]
        lines.append(f"ok: {ok}")
    elif os.path.exists(os.path.join(out_dir, "certificates.json")):
        lines.append("ok: False")  # a run that never simulated

    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


@dataclass(eq=False)
class PipelineResult:
    ok: bool
    certified: bool
    circularity_ok: bool
    winning: list
    all_safe: bool
    summary: str


def _discard(out_dir: str, *names) -> None:
    """Remove the artifacts that a stage's new output invalidates, so that
    `report` does not read them beside it."""
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            os.remove(path)


def run_pipeline(config: PipelineConfig, out_dir: str) -> PipelineResult:
    """Run every stage in order.  Compose needs every subsystem certified
    and simulate needs a relation and winning cells; a stage that cannot run
    is skipped and the run is not ok.  The stages before it removed what an
    earlier run left of it."""
    out_dir = _ensure_out(out_dir)
    config.to_yaml(os.path.join(out_dir, "resolved_config.yaml"))
    with _systems(config, None) as bundle:
        stage_sample(config, out_dir, bundle)
        cert_payload = stage_certify(config, out_dir, bundle)
        certified = all(c["certified"] for c in cert_payload["certificates"])
        circ_ok = False
        if certified:
            comp_payload = stage_compose(config, out_dir, bundle)
            circ_ok = bool(comp_payload["circularity_ok"])
        stage_abstract(config, out_dir, bundle)
        syn_payload = stage_synthesize(config, out_dir, bundle)
        winning = syn_payload["winning"]
        all_safe = False
        if circ_ok and syn_payload["ok"]:
            sim_payload = stage_simulate(config, out_dir, bundle)
            all_safe = bool(sim_payload["all_safe"])
        summary = stage_report(config, out_dir)
        ok = certified and circ_ok and syn_payload["ok"] and all_safe
        return PipelineResult(ok=ok, certified=certified, circularity_ok=circ_ok,
                              winning=winning, all_safe=all_safe, summary=summary)
