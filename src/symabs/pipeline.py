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
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import compose as compose_mod
from . import scenario
from .errors import ConfigError, RefinementError
from .extoracle import ExternalOracle
from .model import (BlackBoxSystem, InterconnectionTopology, RoomNetworkParams,
                    SystemSignature, build_room_network)
from .quantize import UniformGrid, make_grid, product_grid, trivial_grid
from .scenario import (ApbfCertificate, BasisSpec, DataLipschitz,
                       LinearLipschitz, NonlinearLipschitz, SampleBatch,
                       VariableBoxes, draw_samples, min_sample_size,
                       quartic_difference_basis)
from .synthesize import (ControllerTable, FiniteTransitionSystem,
                         enumerate_abstraction, refine_controller,
                         safety_synthesis, simulate_closed_loop)

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

    def room_params(self) -> RoomNetworkParams:
        return RoomNetworkParams(
            num_rooms=self.num_rooms, conduction=self.conduction,
            outside_coupling=self.outside_coupling,
            cooler_coupling=self.cooler_coupling, cooler_temp=self.cooler_temp,
            outside_temp=self.outside_temp, input_levels=self.input_levels,
            state_low=self.state_low, state_high=self.state_high)

    @property
    def identical_subsystems(self) -> bool:
        return self.kind == "rooms" and np.isscalar(self.outside_temp)


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
    basis: dict | None = None  # BasisSpec mapping; None means quartic default
    mu_grid: tuple = (0.5,)
    eps: tuple = (0.1,)
    beta: float = 0.01
    psi: float = 0.99
    lam: float = 1.0
    unknowns: int | None = None
    volume: float | None = None
    kappa_radius: float | None = None
    xi_target: float | None = -9.0
    boxes: dict = field(default_factory=lambda: {
        "gamma": (1e-3, 1e3), "eta": (0.0, 1e3),
        "theta": (0.0, 20.0), "phi": (0.0, 50.0)})
    lipschitz: dict = field(default_factory=dict)
    share_identical: bool = True
    lexicographic: bool = True
    row_cap: int = scenario.DEFAULT_ROW_CAP

    def __post_init__(self):
        object.__setattr__(self, "mu_grid", _tupled(self.mu_grid))
        object.__setattr__(self, "eps", _tupled(np.atleast_1d(self.eps).tolist()))
        object.__setattr__(self, "boxes", {k: tuple(v) for k, v in self.boxes.items()})

    def basis_spec(self, state_dim: int) -> BasisSpec:
        if self.basis is None:
            return quartic_difference_basis(state_dim)
        return BasisSpec.from_mapping(self.basis)

    def variable_boxes(self) -> VariableBoxes:
        return VariableBoxes.from_mapping(self.boxes)

    def lipschitz_config(self) -> LipschitzBoundConfig:
        return _from_mapping(LipschitzBoundConfig, dict(self.lipschitz),
                             "certify.lipschitz")


@dataclass(frozen=True)
class ComposeConfig:
    slack: float = 1e-6


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
    query_cap: int = 10_000_000

    def __post_init__(self):
        if not isinstance(self.initial, str):
            object.__setattr__(self, "initial", _tupled(self.initial))
        elif self.initial != "winning-centers":
            raise ConfigError("synthesize.initial must be 'winning-centers' "
                              "or a list of start states")


@dataclass(frozen=True)
class ReportConfig:
    reference_sample_size: int | None = None


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    jobs: int = 1
    system: SystemConfig = field(default_factory=SystemConfig)
    certify: CertifyConfig = field(default_factory=CertifyConfig)
    compose: ComposeConfig = field(default_factory=ComposeConfig)
    synthesize: SynthesizeConfig = field(default_factory=SynthesizeConfig)
    report: ReportConfig = field(default_factory=ReportConfig)

    @classmethod
    def from_mapping(cls, data) -> "PipelineConfig":
        data = dict(data or {})
        known = {"seed", "jobs", "system", "certify", "compose", "synthesize",
                 "report"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            seed=int(data.get("seed", 0)),
            jobs=int(data.get("jobs", 1)),
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

        out = {"seed": self.seed, "jobs": self.jobs}
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
    network: BlackBoxSystem | None
    topology: InterconnectionTopology
    subsystems: list
    cleanup: object = None  # ExternalOracle to close, if any

    @property
    def count(self) -> int:
        return len(self.subsystems)


def build_systems(config: PipelineConfig) -> SystemBundle:
    sys_cfg = config.system
    if sys_cfg.kind == "rooms":
        network, topology, rooms = build_room_network(sys_cfg.room_params())
        return SystemBundle(network=network, topology=topology, subsystems=rooms)
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
    return SystemBundle(network=None, topology=topology, subsystems=[system],
                        cleanup=oracle)


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


def _read_int_rows(fh, path, columns: int) -> Array:
    """The rest of an artifact file as an (n, columns) int64 array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is n = 0
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if rows.size == 0:
        return rows.reshape(0, columns)
    if rows.shape[1] != columns:
        raise ConfigError(f"{path}: rows have {rows.shape[1]} fields, "
                          f"expected {columns}")
    return rows


def write_abstraction(path, fts: FiniteTransitionSystem) -> None:
    n_s, n_u, n_d = fts.n_states, fts.n_inputs, fts.n_dists
    index = np.indices((n_s, n_u, n_d)).reshape(3, -1)
    body = np.vstack([index, fts.table[:n_s].reshape(-1)]).T
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_grid_header("state_grid", fts.state_grid))
        fh.write(_grid_header("dist_grid", fts.dist_grid))
        inputs = ";".join(",".join(repr(float(v)) for v in row)
                          for row in fts.inputs)
        fh.write(f"# inputs [{inputs}]\n")
        fh.write(f"# counts states={n_s} inputs={n_u} dists={n_d}\n")
        fh.write("state,input,dist,successor\n")
        fh.write(("%d,%d,%d,%d\n" * body.shape[0]) % tuple(body.ravel().tolist()))


def read_abstraction(path) -> FiniteTransitionSystem:
    """Parse an abstraction file; every (state, input, dist) triple must
    appear exactly once, with its successor a cell or the sink."""
    with open(path, "r", encoding="utf-8") as fh:
        state_grid = _parse_grid_header(fh.readline())
        dist_grid = _parse_grid_header(fh.readline())
        inputs_line = fh.readline().split(None, 2)[2].strip()
        body = inputs_line.strip("[]")
        inputs = np.asarray([[float(v) for v in row.split(",")]
                             for row in body.split(";")])
        counts = dict(part.split("=") for part in
                      fh.readline().split(None, 2)[2].split())
        n_s, n_u, n_d = (int(counts[k]) for k in ("states", "inputs", "dists"))
        header = fh.readline().strip()
        if header != "state,input,dist,successor":
            raise ConfigError(f"unexpected abstraction header {header!r}")
        rows = _read_int_rows(fh, path, 4)
    if rows.shape[0] != n_s * n_u * n_d:
        raise ConfigError(f"{path}: {rows.shape[0]} transitions, expected "
                          f"{n_s * n_u * n_d}")
    if np.any(rows < 0) or np.any(rows >= [n_s, n_u, n_d, n_s + 1]):
        raise ConfigError(f"{path}: transition index out of range")
    table = np.full((n_s + 1, n_u, n_d), -1, dtype=np.int64)
    s, u, d, nxt = rows.T
    table[s, u, d] = nxt
    if np.any(table[:n_s] < 0):  # as many rows as triples, so one repeats
        raise ConfigError(f"{path}: repeated (state, input, dist) row")
    table[n_s] = n_s
    return FiniteTransitionSystem(table=table, state_grid=state_grid,
                                  dist_grid=dist_grid, inputs=inputs)


def write_controller(path, ctrl: ControllerTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# winning {int(ctrl.winning.sum())} of {ctrl.fts.n_states}\n")
        fh.write("state,input\n")
        for s in ctrl.winning_states:
            fh.write(f"{int(s)},{int(ctrl.chosen[s])}\n")


def read_controller(path, fts: FiniteTransitionSystem) -> ControllerTable:
    """Parse a controller file; each winning state appears once, with an
    input index of fts."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # comment
        header = fh.readline().strip()
        if header != "state,input":
            raise ConfigError(f"unexpected controller header {header!r}")
        rows = _read_int_rows(fh, path, 2)
    if np.any(rows < 0) or np.any(rows >= [fts.n_states, fts.n_inputs]):
        raise ConfigError(f"{path}: state or input index out of range")
    s, u = rows.T
    winning = np.zeros(fts.n_states + 1, dtype=bool)
    winning[s] = True
    if np.count_nonzero(winning) != s.size:
        raise ConfigError(f"{path}: repeated state row")
    chosen = np.full(fts.n_states + 1, -1, dtype=np.int64)
    chosen[s] = u
    return ControllerTable(winning=winning, chosen=chosen, fts=fts)


def write_trajectories(path, runs) -> None:
    """runs: list of (run_label, list of Trajectory)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run,time,subsystem,state,input_index,input,safe,truncated\n")
        for label, trajs in runs:
            for tr in trajs:
                horizon = tr.inputs.shape[0]
                for k in range(tr.states.shape[0]):
                    state = ";".join(repr(float(v)) for v in tr.states[k])
                    if k < horizon:
                        idx = str(int(tr.input_indices[k]))
                        nu = ";".join(repr(float(v)) for v in tr.inputs[k])
                    else:
                        idx, nu = "", ""
                    trunc = "1" if tr.truncated_at is not None else "0"
                    fh.write(f"{label},{k},{tr.subsystem},{state},{idx},{nu},"
                             f"{int(bool(tr.safe[k]))},{trunc}\n")


# ----------------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------------

def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def computed_sample_size(config: PipelineConfig, state_dim: int) -> tuple[int, int]:
    """(Q, unknown count) implied by the certification settings."""
    cert = config.certify
    basis = cert.basis_spec(state_dim)
    unknowns = cert.unknowns if cert.unknowns is not None else basis.z + 4
    eps = list(cert.eps)
    if len(eps) == 1:
        eps = eps * len(cert.mu_grid)
    return min_sample_size(eps, cert.beta, unknowns), unknowns


def stage_sample(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    own = bundle is None
    bundle = bundle or build_systems(config)
    try:
        q, _ = computed_sample_size(config, bundle.subsystems[0].signature.state_dim)
        shared = config.certify.share_identical and config.system.identical_subsystems
        count = 1 if shared else bundle.count
        batches = [draw_samples(bundle.subsystems[i].signature, q,
                                config.seed + i) for i in range(count)]
        payload = {"shared": shared, "q": q,
                   "batches": [batch_to_mapping(b) for b in batches]}
        _write_json(os.path.join(out_dir, "samples.json"), payload)
        return payload
    finally:
        if own and bundle.cleanup is not None:
            bundle.cleanup.close()


def _load_or_draw_samples(config: PipelineConfig, out_dir: str,
                          bundle: SystemBundle, q: int):
    path = os.path.join(out_dir, "samples.json")
    shared = config.certify.share_identical and config.system.identical_subsystems
    if os.path.exists(path):
        payload = _read_json(path)
        if payload.get("q") == q and payload.get("shared") == shared:
            return [batch_from_mapping(b) for b in payload["batches"]], shared
    count = 1 if shared else bundle.count
    return [draw_samples(bundle.subsystems[i].signature, q, config.seed + i)
            for i in range(count)], shared


def stage_certify(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    own = bundle is None
    bundle = bundle or build_systems(config)
    try:
        cert_cfg = config.certify
        state_grids, dist_grids = subsystem_grids(bundle, cert_cfg.sigma)
        basis = cert_cfg.basis_spec(bundle.subsystems[0].signature.state_dim)
        q, unknowns = computed_sample_size(
            config, bundle.subsystems[0].signature.state_dim)
        batches, shared = _load_or_draw_samples(config, out_dir, bundle, q)
        lipschitz = cert_cfg.lipschitz_config().source()
        boxes = cert_cfg.variable_boxes()
        count = 1 if shared else bundle.count
        certs = []
        for i in range(count):
            certs.append(scenario.certify_apbf(
                bundle.subsystems[i], state_grids[i], dist_grids[i], basis,
                cert_cfg.mu_grid, cert_cfg.eps, cert_cfg.beta, lipschitz,
                boxes=boxes, unknowns=unknowns, seed=config.seed + i,
                volume=cert_cfg.volume, kappa_radius=cert_cfg.kappa_radius,
                psi=cert_cfg.psi, lam=cert_cfg.lam,
                lexicographic=cert_cfg.lexicographic,
                xi_target=cert_cfg.xi_target, row_cap=cert_cfg.row_cap,
                jobs=config.jobs, samples=batches[i]))
        if shared:
            certs = certs * bundle.count
        payload = {"shared": shared,
                   "certificates": [c.to_mapping() for c in certs]}
        _write_json(os.path.join(out_dir, "certificates.json"), payload)
        return payload
    finally:
        if own and bundle.cleanup is not None:
            bundle.cleanup.close()


def load_certificates(out_dir: str):
    payload = _read_json(os.path.join(out_dir, "certificates.json"))
    return [ApbfCertificate.from_mapping(c) for c in payload["certificates"]]


def stage_compose(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    own = bundle is None
    bundle = bundle or build_systems(config)
    try:
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
            rel = compose_mod.relation(abf)
            payload.update({
                "kappa": [float(v) for v in scalings.kappa],
                "max_ratio": scalings.max_ratio,
                "gamma": abf.gamma, "mu": abf.mu, "theta": abf.theta,
                "confidence": abf.confidence, "eps_tilde": rel.eps_tilde,
            })
        _write_json(os.path.join(out_dir, "composed.json"), payload)
        return payload
    finally:
        if own and bundle.cleanup is not None:
            bundle.cleanup.close()


def load_composed(out_dir: str) -> tuple[compose_mod.SimulationRelation, dict]:
    payload = _read_json(os.path.join(out_dir, "composed.json"))
    if not payload.get("circularity_ok"):
        raise ConfigError("composition failed; no relation available")
    certs = load_certificates(out_dir)
    gains = compose_mod.GainMatrix(
        entries=np.asarray(payload["gain_matrix"], dtype=float))
    scalings = compose_mod.ScalingVector(
        kappa=np.asarray(payload["kappa"], dtype=float),
        max_ratio=float(payload["max_ratio"]), gains=gains)
    abf = compose_mod.compose_abf(certs, scalings)
    return compose_mod.relation(abf), payload


def stage_abstract(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    own = bundle is None
    bundle = bundle or build_systems(config)
    try:
        state_grids, dist_grids = subsystem_grids(bundle, config.certify.sigma)
        shared = config.certify.share_identical and config.system.identical_subsystems
        tables = {}
        for i in range(bundle.count):
            if shared and 0 in tables:
                fts = tables[0]
            else:
                fts = enumerate_abstraction(
                    bundle.subsystems[i], state_grids[i], dist_grids[i],
                    query_cap=config.synthesize.query_cap)
                tables[i] = fts
            write_abstraction(os.path.join(out_dir, f"abstraction_{i}.csv"), fts)
        return {"subsystems": bundle.count, "shared": shared}
    finally:
        if own and bundle.cleanup is not None:
            bundle.cleanup.close()


def _safe_cells(config: PipelineConfig, fts: FiniteTransitionSystem) -> list:
    syn = config.synthesize
    grid = fts.state_grid
    if syn.safe_low is None and syn.safe_high is None:
        return list(range(fts.n_states))
    low = np.full(grid.dim, -np.inf) if syn.safe_low is None else \
        np.broadcast_to(np.asarray(syn.safe_low, dtype=float), (grid.dim,))
    high = np.full(grid.dim, np.inf) if syn.safe_high is None else \
        np.broadcast_to(np.asarray(syn.safe_high, dtype=float), (grid.dim,))
    reps = grid.all_representatives()
    half = grid.widths / 2.0
    keep = np.all(reps - half >= low - 1e-12, axis=1) \
        & np.all(reps + half <= high + 1e-12, axis=1)
    return [int(s) for s in np.flatnonzero(keep)]


def stage_synthesize(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    own = bundle is None
    bundle = bundle or build_systems(config)
    try:
        winning_counts = []
        for i in range(bundle.count):
            fts = read_abstraction(os.path.join(out_dir, f"abstraction_{i}.csv"))
            ctrl = safety_synthesis(fts, _safe_cells(config, fts))
            write_controller(os.path.join(out_dir, f"controller_{i}.csv"), ctrl)
            winning_counts.append(int(ctrl.winning.sum()))
        payload = {"winning": winning_counts,
                   "ok": all(c > 0 for c in winning_counts)}
        _write_json(os.path.join(out_dir, "synthesis.json"), payload)
        return payload
    finally:
        if own and bundle.cleanup is not None:
            bundle.cleanup.close()


def _initial_conditions(config: PipelineConfig, controllers, grids) -> list:
    syn = config.synthesize
    if not isinstance(syn.initial, str):
        starts = np.asarray(syn.initial, dtype=float)
        if starts.ndim == 1:
            starts = starts[None, :]
        return [(f"x{k}", starts[k]) for k in range(starts.shape[0])]
    # winning-centers: every subsystem starts at the same winning cell center
    # of subsystem 0's grid (desk-scale sweep over winning cells).
    ctrl0 = controllers[0]
    cells = [int(s) for s in ctrl0.winning_states]
    runs = []
    for s in cells[:syn.max_runs]:
        center = grids[0].representative(s)
        x0 = np.concatenate([center for _ in controllers])
        runs.append((f"cell{s}", x0))
    return runs


def stage_simulate(config: PipelineConfig, out_dir: str, bundle=None) -> dict:
    out_dir = _ensure_out(out_dir)
    own = bundle is None
    bundle = bundle or build_systems(config)
    try:
        rel, _ = load_composed(out_dir)
        controllers = []
        grids = []
        for i in range(bundle.count):
            fts = read_abstraction(os.path.join(out_dir, f"abstraction_{i}.csv"))
            ctrl = read_controller(os.path.join(out_dir, f"controller_{i}.csv"),
                                   fts)
            if not ctrl.winning.any():
                raise RefinementError(
                    f"subsystem {i} has an empty winning set; there is no "
                    f"controller to refine")
            controllers.append(ctrl)
            grids.append(fts.state_grid)
        refined = [refine_controller(controllers[i], rel.component(i), grids[i])
                   for i in range(bundle.count)]
        runs = []
        all_safe = True
        for label, x0 in _initial_conditions(config, controllers, grids):
            trajs = simulate_closed_loop(bundle.subsystems, bundle.topology,
                                         refined, x0, config.synthesize.horizon)
            ok = all(tr.truncated_at is None and bool(tr.safe.all())
                     for tr in trajs)
            all_safe = all_safe and ok
            runs.append((label, trajs))
        write_trajectories(os.path.join(out_dir, "trajectories.csv"), runs)
        payload = {"runs": len(runs), "all_safe": all_safe,
                   "horizon": config.synthesize.horizon}
        _write_json(os.path.join(out_dir, "simulation.json"), payload)
        return payload
    finally:
        if own and bundle.cleanup is not None:
            bundle.cleanup.close()


def stage_report(config: PipelineConfig, out_dir: str) -> str:
    """Summarize whatever artifacts exist; always derivable: the minimal
    sample size implied by the configuration, compared against an optional
    externally reported reference value."""
    out_dir = _ensure_out(out_dir)
    lines = []
    state_dim = 1 if config.system.kind == "rooms" else len(config.system.state_box)
    q, unknowns = computed_sample_size(config, state_dim)
    lines.append(f"minimal sample size (eps={list(config.certify.eps)}, "
                 f"beta={config.certify.beta!r}, unknowns={unknowns}): {q}")
    ref = config.report.reference_sample_size
    if ref is not None:
        flag = "MATCH" if int(ref) == q else "MISMATCH"
        lines.append(f"reference sample size: {ref}")
        lines.append(f"sample size comparison: computed {q} vs reference {ref} "
                     f"-> {flag}")

    cert_path = os.path.join(out_dir, "certificates.json")
    if os.path.exists(cert_path):
        certs = load_certificates(out_dir)
        cert = certs[0]
        lines.append(f"subsystems certified: "
                     f"{sum(1 for c in certs if c.certified)} of {len(certs)}")
        lines.append(f"q: {cert.q}")
        lines.append(f"xi_star: {cert.xi_star!r}")
        lines.append(f"xi_achieved: {cert.xi_achieved!r}")
        lines.append(f"lipschitz: {list(cert.lipschitz)!r}")
        lines.append(f"kappa_radii: {list(cert.kappa_radii)!r}")
        lines.append(f"margin: {cert.margin!r}")
        lines.append(f"certified: {cert.certified}")
        lines.append(f"subsystem gains: gamma={cert.gamma!r} mu={cert.mu!r} "
                     f"eta={cert.eta!r} theta={cert.theta!r}")

    comp_path = os.path.join(out_dir, "composed.json")
    ok = None
    if os.path.exists(comp_path):
        comp = _read_json(comp_path)
        lines.append(f"circularity_ok: {comp['circularity_ok']}")
        lines.append(f"worst_pair_product: {comp['worst_pair_product']!r}")
        if comp.get("circularity_ok"):
            lines.append(f"kappa: {comp['kappa']!r}")
            lines.append(f"composed: gamma={comp['gamma']!r} mu={comp['mu']!r} "
                         f"theta={comp['theta']!r}")
            eps_tilde = math.sqrt(comp["theta"] / comp["gamma"])
            lines.append(f"eps_tilde: {eps_tilde!r}")
            lines.append(f"confidence: {comp['confidence']!r}")

    syn_path = os.path.join(out_dir, "synthesis.json")
    if os.path.exists(syn_path):
        syn = _read_json(syn_path)
        lines.append(f"winning cells per subsystem: {syn['winning']}")
    sim_path = os.path.join(out_dir, "simulation.json")
    if os.path.exists(sim_path):
        sim = _read_json(sim_path)
        lines.append(f"simulation runs: {sim['runs']} horizon: {sim['horizon']}")
        lines.append(f"all trajectories safe: {sim['all_safe']}")
        certs_ok = os.path.exists(cert_path) and \
            all(c.certified for c in load_certificates(out_dir))
        syn_ok = os.path.exists(syn_path) and _read_json(syn_path)["ok"]
        ok = certs_ok and syn_ok and sim["all_safe"]
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


def run_pipeline(config: PipelineConfig, out_dir: str) -> PipelineResult:
    out_dir = _ensure_out(out_dir)
    config.to_yaml(os.path.join(out_dir, "resolved_config.yaml"))
    bundle = build_systems(config)
    try:
        stage_sample(config, out_dir, bundle)
        cert_payload = stage_certify(config, out_dir, bundle)
        certified = all(c["certified"] for c in cert_payload["certificates"])
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
    finally:
        if bundle.cleanup is not None:
            bundle.cleanup.close()
