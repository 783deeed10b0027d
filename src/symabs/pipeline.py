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
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import compose as compose_mod
from . import scenario, synthesize
from .errors import ConfigError, RefinementError
from .extoracle import ExternalOracle
from .model import (InterconnectionTopology, RoomNetworkParams, SystemSignature,
                    build_room_network)
from .quantize import UniformGrid, make_grid, product_grid, trivial_grid
from .scenario import (ApbfCertificate, DataLipschitz, LinearLipschitz,
                       NonlinearLipschitz, SampleBatch, VariableBoxes,
                       draw_samples, quartic_difference_basis)
from .synthesize import (AbstractionHeader, ControllerTable,
                         FiniteTransitionSystem, RefinedController,
                         enumerate_abstraction, safety_synthesis,
                         simulate_closed_loop)

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
        object.__setattr__(self, "input_levels", _tupled(self.input_levels))
        object.__setattr__(self, "command", _tupled(self.command))
        object.__setattr__(self, "state_box", _tupled(self.state_box))
        object.__setattr__(self, "disturbance_box", _tupled(self.disturbance_box))
        object.__setattr__(self, "input_set", _tupled(self.input_set))
        if self.kind == "external":
            if not self.command:
                raise ConfigError("external system needs a command")
            if not self.state_box or not self.input_set:
                raise ConfigError("external system needs state_box and input_set")
        else:
            _checked("system", self.room_params)

    def room_params(self) -> RoomNetworkParams:
        return RoomNetworkParams(
            num_rooms=self.num_rooms, conduction=self.conduction,
            outside_coupling=self.outside_coupling,
            cooler_coupling=self.cooler_coupling, cooler_temp=self.cooler_temp,
            outside_temp=self.outside_temp, input_levels=self.input_levels,
            state_low=self.state_low, state_high=self.state_high)

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
    row_cap: int = scenario.DEFAULT_ROW_CAP

    def __post_init__(self):
        object.__setattr__(self, "mu_grid", _tupled(self.mu_grid))
        object.__setattr__(self, "eps", _tupled(np.atleast_1d(self.eps).tolist()))
        object.__setattr__(self, "boxes", {k: tuple(v) for k, v in self.boxes.items()})
        if not (isinstance(self.sigma, numbers.Real) and self.sigma > 0):
            raise ConfigError("certify.sigma must be a positive number")
        if not (isinstance(self.psi, numbers.Real) and 0 < self.psi < 1):
            raise ConfigError("certify.psi must lie in (0, 1)")
        if not (isinstance(self.lam, numbers.Real) and self.lam > 0):
            raise ConfigError("certify.lam must be a positive number")
        _checked("certify.boxes", self.variable_boxes)
        self.lipschitz_config()

    def variable_boxes(self) -> VariableBoxes:
        return VariableBoxes.from_mapping(self.boxes)

    def lipschitz_config(self) -> LipschitzBoundConfig:
        return _from_mapping(LipschitzBoundConfig, dict(self.lipschitz),
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
    query_cap: int = synthesize.DEFAULT_QUERY_CAP

    def __post_init__(self):
        for name, low in (("horizon", 0), ("max_runs", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
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


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    system: SystemConfig = field(default_factory=SystemConfig)
    certify: CertifyConfig = field(default_factory=CertifyConfig)
    compose: ComposeConfig = field(default_factory=ComposeConfig)
    synthesize: SynthesizeConfig = field(default_factory=SynthesizeConfig)
    report: ReportConfig = field(default_factory=ReportConfig)

    def __post_init__(self):
        self.synthesize.safe_band(self.system.state_dim)

    @classmethod
    def from_mapping(cls, data) -> "PipelineConfig":
        data = dict(data or {})
        known = {"seed", "system", "certify", "compose", "synthesize", "report"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            seed=int(data.get("seed", 0)),
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

    @classmethod
    def from_yaml(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(yaml.safe_load(fh) or {})

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
    signature = SystemSignature(
        state_dim=len(sys_cfg.state_box),
        input_set=sys_cfg.input_set,
        disturbance_dim=len(sys_cfg.disturbance_box),
        state_box=sys_cfg.state_box,
        disturbance_box=np.asarray(sys_cfg.disturbance_box, dtype=float).reshape(-1, 2))
    oracle = ExternalOracle(list(sys_cfg.command), signature,
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


def subsystem_grids(bundle: SystemBundle, sigma: float):
    """Per-subsystem (state grid, disturbance grid); wired subsystems reuse
    their neighbors' state grids as disturbance factors."""
    state_grids = [make_grid(s.signature.state_box, sigma)
                   for s in bundle.subsystems]
    dist_grids = []
    for i, sub in enumerate(bundle.subsystems):
        wired = bundle.topology.wiring[i]
        if wired:
            dist_grids.append(product_grid([state_grids[j] for j in wired]))
        elif sub.signature.disturbance_dim == 0:
            dist_grids.append(trivial_grid())
        else:
            dist_grids.append(make_grid(sub.signature.disturbance_box, sigma))
    return state_grids, dist_grids


# ----------------------------------------------------------------------------
# Artifact I/O
# ----------------------------------------------------------------------------

def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def batch_to_mapping(batch: SampleBatch) -> dict:
    return {"seed": batch.seed, "state_dim": batch.state_dim,
            "dist_dim": batch.dist_dim,
            "points": [[float(v) for v in row] for row in batch.points]}


def batch_from_mapping(data) -> SampleBatch:
    return SampleBatch(seed=int(data["seed"]), state_dim=int(data["state_dim"]),
                       dist_dim=int(data["dist_dim"]),
                       points=np.asarray(data["points"], dtype=float))


def _grid_header(tag: str, grid: UniformGrid) -> str:
    box = ";".join(f"{float(lo)!r},{float(hi)!r}" for lo, hi in grid.box)
    cells = ",".join(str(k) for k in grid.cells_per_dim)
    return f"# {tag} box=[{box}] cells=[{cells}] sigma={float(grid.sigma)!r}\n"


def _parse_grid_header(line: str) -> UniformGrid:
    body = line.split(None, 2)[2]
    fields = {}
    for part in body.split():
        key, val = part.split("=", 1)
        fields[key] = val
    box_txt = fields["box"].strip("[]")
    box = [tuple(float(v) for v in pair.split(",")) for pair in
           box_txt.split(";")] if box_txt else []
    cells_txt = fields["cells"].strip("[]")
    cells = tuple(int(v) for v in cells_txt.split(",")) if cells_txt else ()
    return UniformGrid(box=np.asarray(box, dtype=float).reshape(len(box), 2),
                       cells_per_dim=cells, sigma=float(fields["sigma"]))


def _read_int_rows(fh, path, rows: int, columns: int) -> Array:
    """The rest of an artifact file, which must be a (rows, columns) table
    of integers."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is 0 x n
        try:
            body = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    shape = body.shape if body.size else (0, columns)
    if shape != (rows, columns):
        raise ConfigError(f"{path}: body is {shape[0]} x {shape[1]}, "
                          f"expected {rows} x {columns}")
    return body


def write_abstraction(path, fts: FiniteTransitionSystem) -> None:
    """Write the header lines (grids, inputs, counts), then one row per
    (state, input) in index order, holding the successors of its n_dists
    disturbance cells in order.  The sink row is implied."""
    n_s, n_u, n_d = fts.n_states, fts.n_inputs, fts.n_dists
    line = ",".join(["%d"] * n_d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_grid_header("state_grid", fts.state_grid))
        fh.write(_grid_header("dist_grid", fts.dist_grid))
        inputs = ";".join(",".join(repr(float(v)) for v in row)
                          for row in fts.inputs)
        fh.write(f"# inputs [{inputs}]\n")
        fh.write(f"# counts states={n_s} inputs={n_u} dists={n_d}\n")
        fh.write(line * (n_s * n_u) % tuple(fts.table[:n_s].ravel().tolist()))


def _parse_abstraction_header(fh, path) -> AbstractionHeader:
    """The grids and inputs from the four header lines of an abstraction
    file, leaving fh at the first transition row.  The declared counts must
    be those of the grids and the inputs."""
    try:
        state_grid = _parse_grid_header(fh.readline())
        dist_grid = _parse_grid_header(fh.readline())
        body = fh.readline().split(None, 2)[2].strip().strip("[]")
        inputs = np.asarray([[float(v) for v in row.split(",")]
                             for row in body.split(";")])
        counts = dict(part.split("=") for part in
                      fh.readline().split(None, 2)[2].split())
        declared = tuple(int(counts[k]) for k in ("states", "inputs", "dists"))
        header = AbstractionHeader(state_grid=state_grid, dist_grid=dist_grid,
                                   inputs=inputs)
    except (ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed abstraction header ({exc})") \
            from None
    if declared != (header.n_states, header.n_inputs, header.n_dists):
        raise ConfigError(f"{path}: header counts {declared} do not match "
                          f"its grids and inputs")
    return header


def read_abstraction_header(path) -> AbstractionHeader:
    """Parse only the header of an abstraction file: its grids and inputs."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_abstraction_header(fh, path)


def read_abstraction(path) -> FiniteTransitionSystem:
    """Parse an abstraction file: the header, then n_states * n_inputs rows
    of n_dists successors, each a cell or the sink."""
    with open(path, "r", encoding="utf-8") as fh:
        head = _parse_abstraction_header(fh, path)
        n_s, n_u, n_d = head.n_states, head.n_inputs, head.n_dists
        rows = _read_int_rows(fh, path, n_s * n_u, n_d)
    table = np.empty((n_s + 1, n_u, n_d), dtype=np.int64)
    table[:n_s] = rows.reshape(n_s, n_u, n_d)
    table[n_s] = n_s
    # the constructor checks that each successor is a cell or the sink
    return _checked(str(path), lambda: FiniteTransitionSystem(
        table=table, state_grid=head.state_grid, dist_grid=head.dist_grid,
        inputs=head.inputs))


def write_controller(path, ctrl: ControllerTable) -> None:
    """Write a `# winning N of M` line, then one line per cell: its chosen
    input index, or -1 where the cell is not winning."""
    n_s = ctrl.fts.n_states
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# winning {ctrl.winning_states.size} of {n_s}\n")
        fh.write("%d\n" * n_s % tuple(ctrl.chosen[:n_s].tolist()))


def read_controller(path, fts: AbstractionHeader) -> ControllerTable:
    """Parse a controller file against fts (the abstraction or its header):
    one line per cell, each an input index of fts or -1."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("# winning "):
            raise ConfigError(f"{path}: unexpected controller header "
                              f"{header.strip()!r}")
        rows = _read_int_rows(fh, path, fts.n_states, 1)
    if np.any(rows < -1) or np.any(rows >= fts.n_inputs):
        raise ConfigError(f"{path}: input index out of range")
    return ControllerTable(chosen=np.append(rows[:, 0], -1), fts=fts)


def write_trajectories(path, runs) -> None:
    """runs: list of (run_label, list of Trajectory).  One % pass per run,
    with a row template per trajectory; %r writes each float's repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run,time,subsystem,state,input_index,input,safe,truncated\n")
        for label, trajs in runs:
            formats, values = [], []
            for tr in trajs:
                t = tr.inputs.shape[0]
                head = f"{str(label).replace('%', '%%')},%d,{tr.subsystem},"
                state = ";".join(["%r"] * tr.states.shape[1])
                nu = ";".join(["%r"] * tr.inputs.shape[1])
                tail = f",%d,{int(tr.truncated_at is not None)}\n"
                formats.append(f"{head}{state},%d,{nu}{tail}" * t
                               + f"{head}{state},,{tail}")
                body = np.column_stack([np.arange(t), tr.states[:t],
                                        tr.input_indices, tr.inputs,
                                        tr.safe[:t]])
                values += body.ravel().tolist()
                values += [t, *tr.states[t].tolist(), int(bool(tr.safe[t]))]
            fh.write("".join(formats) % tuple(values))


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
    """One sample batch per distinct owner, in index order."""
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


def _load_or_draw_samples(config: PipelineConfig, out_dir: str,
                          bundle: SystemBundle, q: int):
    """The stored batches if they are the ones this config draws (same q and
    sharing, one per distinct owner at seed + owner), else a fresh draw."""
    path = os.path.join(out_dir, "samples.json")
    if os.path.exists(path):
        payload = _read_json(path)
        seeds = [config.seed + i for i in sorted(set(_owners(config, bundle)))]
        if payload.get("q") == q and \
                payload.get("shared") == config.system.identical_subsystems and \
                [b["seed"] for b in payload["batches"]] == seeds:
            return [batch_from_mapping(b) for b in payload["batches"]]
    return _draw_batches(config, bundle, q)


def stage_certify(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    with _systems(config, bundle) as bundle:
        cert_cfg = config.certify
        state_grids, dist_grids = subsystem_grids(bundle, cert_cfg.sigma)
        state_dim = config.system.state_dim
        basis = quartic_difference_basis(state_dim)
        q, unknowns = computed_sample_size(config, state_dim)
        batches = _load_or_draw_samples(config, out_dir, bundle, q)
        lip_cfg = cert_cfg.lipschitz_config()
        lipschitz = lip_cfg.source()
        boxes = cert_cfg.variable_boxes()
        owners = _owners(config, bundle)
        certs = {i: scenario.certify_apbf(
            bundle.subsystems[i], state_grids[i], dist_grids[i], basis,
            cert_cfg.mu_grid, cert_cfg.eps, cert_cfg.beta, lipschitz,
            boxes=boxes, unknowns=unknowns, seed=batch.seed,
            psi=cert_cfg.psi, lam=cert_cfg.lam,
            xi_target=cert_cfg.xi_target, row_cap=cert_cfg.row_cap,
            samples=batch)
            for i, batch in zip(sorted(set(owners)), batches)}
        shared = config.system.identical_subsystems
        # LP telemetry per certified subsystem and mu level, and the slope
        # source; kept out of certificates.json, whose bytes reruns must
        # reproduce.
        _write_json(os.path.join(out_dir, "lp_stats.json"),
                    {"shared": shared, "lipschitz_kind": lip_cfg.kind,
                     "subsystems": [list(c.lp_stats) for c in certs.values()]})
        payload = {"shared": shared,
                   "certificates": [certs[i].to_mapping() for i in owners]}
        _write_json(os.path.join(out_dir, "certificates.json"), payload)
        return payload


def load_certificates(out_dir: str):
    """The certificates of certificates.json.  A basis in a mode other than
    "difference" is refused as a configuration error that names the file."""
    path = os.path.join(out_dir, "certificates.json")
    payload = _read_json(path)
    return _checked(path, lambda: [ApbfCertificate.from_mapping(c)
                                   for c in payload["certificates"]])


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
                "gamma": abf.gamma, "mu": abf.mu, "theta": abf.theta,
                "confidence": abf.confidence, "eps_tilde": abf.eps_tilde,
                "vacuous": bool(abf.eps_tilde >= narrowest / 2.0),
            })
        _write_json(os.path.join(out_dir, "composed.json"), payload)
        return payload


def load_composed(out_dir: str) -> tuple[compose_mod.ComposedAbf, dict]:
    payload = _read_json(os.path.join(out_dir, "composed.json"))
    if not payload.get("circularity_ok"):
        raise ConfigError("composition failed; no relation available")
    certs = load_certificates(out_dir)
    gains = compose_mod.GainMatrix(
        entries=np.asarray(payload["gain_matrix"], dtype=float))
    scalings = compose_mod.ScalingVector(
        kappa=np.asarray(payload["kappa"], dtype=float),
        max_ratio=float(payload["max_ratio"]), gains=gains)
    return compose_mod.compose_abf(certs, scalings), payload


def stage_abstract(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    with _systems(config, bundle) as bundle:
        state_grids, dist_grids = subsystem_grids(bundle, config.certify.sigma)
        for i in sorted(set(_owners(config, bundle))):
            fts = enumerate_abstraction(
                bundle.subsystems[i], state_grids[i], dist_grids[i],
                query_cap=config.synthesize.query_cap)
            write_abstraction(os.path.join(out_dir, f"abstraction_{i}.csv"), fts)
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
            fts = read_abstraction(os.path.join(out_dir, f"abstraction_{i}.csv"))
            ctrl = safety_synthesis(fts, _safe_cells(config, fts))
            write_controller(os.path.join(out_dir, f"controller_{i}.csv"), ctrl)
            winning[i] = int(ctrl.winning.sum())
        payload = {"winning": [winning[i] for i in owners],
                   "ok": all(c > 0 for c in winning.values())}
        _write_json(os.path.join(out_dir, "synthesis.json"), payload)
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
        rel, _ = load_composed(out_dir)
        owners = _owners(config, bundle)
        tables = {}
        for i in sorted(set(owners)):
            header = read_abstraction_header(
                os.path.join(out_dir, f"abstraction_{i}.csv"))
            tables[i] = read_controller(
                os.path.join(out_dir, f"controller_{i}.csv"), header)
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
        # every room steps with its owner's system, so rooms that share an
        # owner share one object and advance in one oracle call per step
        runs = list(zip(labels, simulate_closed_loop(
            [bundle.subsystems[o] for o in owners], bundle.topology, refined,
            starts, config.synthesize.horizon)))
        all_safe = bool(runs) and all(
            tr.truncated_at is None and bool(tr.safe.all())
            for _, trajs in runs for tr in trajs)
        write_trajectories(os.path.join(out_dir, "trajectories.csv"), runs)
        payload = {"runs": len(runs), "all_safe": all_safe,
                   "horizon": config.synthesize.horizon}
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
        flag = "MATCH" if int(ref) == q else "MISMATCH"
        lines.append(f"reference sample size: {ref}")
        lines.append(f"sample size comparison: computed {q} vs reference {ref} "
                     f"-> {flag}")

    certified = circ_ok = syn_ok = False
    lp_path = os.path.join(out_dir, "lp_stats.json")
    lp_stats = _read_json(lp_path) if os.path.exists(lp_path) else {}
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
        kind = lp_stats.get("lipschitz_kind")
        if kind in SLOPE_SOURCES:
            lines.append(f"lipschitz source: {kind} ({SLOPE_SOURCES[kind]})")
        lines.append(f"kappa_radii: {list(cert.kappa_radii)!r}")
        lines.append(f"margin: {cert.margin!r}")
        lines.append(f"certified: {cert.certified}")
        lines.append(f"subsystem gains: gamma={cert.gamma!r} mu={cert.mu!r} "
                     f"eta={cert.eta!r} theta={cert.theta!r}")
    if lp_stats:
        levels = [lvl for sub in lp_stats["subsystems"] for lvl in sub]
        lines.append(
            f"lp ({len(levels)} solves): "
            f"rounds={sum(lvl['rounds'] for lvl in levels)} "
            f"pivots={sum(lvl['pivots'] for lvl in levels)} "
            f"master_rows_max={max(lvl['master_rows'] for lvl in levels)} "
            f"binding H1={sum(lvl['binding']['H1'] for lvl in levels)} "
            f"H2={sum(lvl['binding']['H2'] for lvl in levels)} "
            f"pruned={sum(lvl['pruned'] for lvl in levels)}/"
            f"{sum(lvl['blocks'] + lvl['pruned'] for lvl in levels)}")

    comp_path = os.path.join(out_dir, "composed.json")
    if os.path.exists(comp_path):
        comp = _read_json(comp_path)
        circ_ok = bool(comp["circularity_ok"])
        lines.append(f"circularity_ok: {comp['circularity_ok']}")
        lines.append(f"worst_pair_product: {comp['worst_pair_product']!r}")
        if circ_ok:
            lines.append(f"kappa: {comp['kappa']!r}")
            lines.append(f"composed: gamma={comp['gamma']!r} mu={comp['mu']!r} "
                         f"theta={comp['theta']!r}")
            lines.append(f"eps_tilde: {comp['eps_tilde']!r} "
                         f"vacuous: {comp['vacuous']}")
            lines.append(f"confidence: {comp['confidence']!r}")
        else:
            lines.append(f"violating cycle: {comp['witness']!r} "
                         f"gain product: {comp['witness_product']!r}")

    syn_path = os.path.join(out_dir, "synthesis.json")
    if os.path.exists(syn_path):
        syn = _read_json(syn_path)
        syn_ok = syn["ok"]
        lines.append(f"winning cells per subsystem: {syn['winning']}")
    sim_path = os.path.join(out_dir, "simulation.json")
    if os.path.exists(sim_path):
        sim = _read_json(sim_path)
        lines.append(f"simulation runs: {sim['runs']} horizon: {sim['horizon']}")
        lines.append(f"all trajectories safe: {sim['all_safe']}")
        ok = certified and circ_ok and syn_ok and sim["all_safe"]
        lines.append(f"ok: {ok}")

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
    """Remove what an earlier run left of a stage that this run skips, so
    that `report` does not read it as this run's."""
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            os.remove(path)


def run_pipeline(config: PipelineConfig, out_dir: str) -> PipelineResult:
    """Run every stage in order.  Compose needs every subsystem certified
    and simulate needs a relation and winning cells; a stage that cannot run
    is skipped, its earlier artifacts are removed, and the run is not ok."""
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
        else:
            _discard(out_dir, "composed.json")
        stage_abstract(config, out_dir, bundle)
        syn_payload = stage_synthesize(config, out_dir, bundle)
        winning = syn_payload["winning"]
        all_safe = False
        if circ_ok and syn_payload["ok"]:
            sim_payload = stage_simulate(config, out_dir, bundle)
            all_safe = bool(sim_payload["all_safe"])
        else:
            _discard(out_dir, "simulation.json", "trajectories.csv")
        summary = stage_report(config, out_dir)
        ok = certified and circ_ok and syn_payload["ok"] and all_safe
        return PipelineResult(ok=ok, certified=certified, circularity_ok=circ_ok,
                              winning=winning, all_safe=all_safe, summary=summary)
