import dataclasses
import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import yaml

from symabs import cli, pipeline
from symabs.errors import ConfigError, RefinementError
from symabs.model import BlackBoxSystem, RoomNetworkParams, build_room_network
from symabs.pipeline import (
    CertifyConfig,
    PipelineConfig,
    ReportConfig,
    SynthesizeConfig,
    SystemConfig,
    _load_or_draw_samples,
    batch_from_mapping,
    batch_to_mapping,
    build_systems,
    computed_sample_size,
    read_abstraction,
    read_abstraction_header,
    read_controller,
    run_pipeline,
    stage_abstract,
    stage_certify,
    stage_compose,
    stage_report,
    stage_sample,
    stage_simulate,
    stage_synthesize,
    subsystem_grids,
    write_abstraction,
    write_controller,
)
from symabs.quantize import make_grid, product_grid, trivial_grid
from symabs.scenario import (ApbfCertificate, draw_samples, min_sample_size,
                             quartic_difference_basis)
from symabs.synthesize import (FiniteTransitionSystem, Trajectory,
                               enumerate_abstraction, safety_synthesis,
                               simulate_closed_loop)

MINI_YAML = textwrap.dedent("""
    seed: 3
    system:
      num_rooms: 3
    certify:
      sigma: 0.025
      eps: [0.2]
      beta: 0.05
    synthesize:
      horizon: 30
      max_runs: 8
""")


def mini_config():
    return PipelineConfig.from_mapping(yaml.safe_load(MINI_YAML))


def hetero_yaml():
    """MINI_YAML with one outside temperature per room, so no two rooms are
    identical and every stage works per room."""
    doc = yaml.safe_load(MINI_YAML)
    doc["system"]["outside_temp"] = [-2.0, -1.5, -1.0]
    return yaml.safe_dump(doc)


def _artifact_names(out, stem):
    return sorted(p.name for p in out.glob(f"{stem}_*.csv"))


def test_config_yaml_roundtrip(tmp_path):
    config = PipelineConfig(
        seed=11,
        system=SystemConfig(num_rooms=4, outside_temp=-1.5),
        certify=CertifyConfig(sigma=0.05, mu_grid=(0.4, 0.6), eps=(0.2,),
                              xi_target=None),
        synthesize=SynthesizeConfig(safe_low=-0.25, safe_high=0.25, horizon=7),
        report=ReportConfig(reference_sample_size=99))
    path = tmp_path / "config.yaml"
    config.to_yaml(path)
    back = PipelineConfig.from_yaml(path)
    assert back.to_mapping() == config.to_mapping()
    assert back.certify.mu_grid == (0.4, 0.6)
    assert back.synthesize.horizon == 7
    assert back.report.reference_sample_size == 99


def test_config_rejects_unknown_keys(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown config keys"):
        PipelineConfig.from_mapping({"seeds": 1})
    with pytest.raises(ConfigError, match="unknown certify keys"):
        PipelineConfig.from_mapping({"certify": {"sigmas": 0.1}})
    with pytest.raises(ConfigError, match="must be a mapping"):
        PipelineConfig.from_mapping({"certify": [1, 2]})
    with pytest.raises(ConfigError):
        SystemConfig(kind="banana")
    with pytest.raises(ConfigError):
        SystemConfig(kind="external", command=())
    with pytest.raises(ConfigError):
        SynthesizeConfig(initial="everywhere")
    # removed settings: the thread pool, the kappa-radius overrides and the
    # lexicographic switch
    with pytest.raises(ConfigError, match="unknown config keys"):
        PipelineConfig.from_mapping({"jobs": 2})
    for key, value in (("volume", 4.0), ("kappa_radius", 0.5),
                       ("lexicographic", False)):
        with pytest.raises(ConfigError, match="unknown certify keys"):
            PipelineConfig.from_mapping({"certify": {key: value}})
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--out", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_computed_sample_size_matches_direct_call():
    config = mini_config()
    q, unknowns = computed_sample_size(config, state_dim=1)
    assert unknowns == 7  # quartic scalar basis: z=3 plus gamma eta theta xi
    assert q == min_sample_size([0.2], 0.05, 7)
    # a scalar eps serves every mu level, and each level spends it
    two = dataclasses.replace(config, certify=dataclasses.replace(
        config.certify, mu_grid=(0.4, 0.6)))
    assert two.certify.eps == (0.2,)
    assert computed_sample_size(two, state_dim=1) == (
        min_sample_size([0.2, 0.2], 0.05, 7), 7)
    # one eps per level must match the level count
    bad = dataclasses.replace(two, certify=dataclasses.replace(
        two.certify, eps=(0.2, 0.1, 0.3)))
    with pytest.raises(ConfigError, match="one value per mu level"):
        computed_sample_size(bad, state_dim=1)


def test_sample_batch_mapping_roundtrip():
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    batch = draw_samples(rooms[0].signature, 17, seed=9)
    back = batch_from_mapping(batch_to_mapping(batch))
    assert back.seed == batch.seed
    assert back.count == 17
    assert np.array_equal(back.points, batch.points)


def _room_fts(sigma):
    """Room 0 of a 3-room ring on a grid of half-width sigma."""
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    sg = make_grid([(-0.5, 0.5)], sigma)
    return enumerate_abstraction(rooms[0], sg, product_grid([sg, sg]))


def _random_fts(state_grid, dist_grid, inputs, seed=0):
    """An abstraction with random successors (cells and the sink)."""
    n_s = state_grid.total_cells
    shape = (n_s + 1, inputs.shape[0], dist_grid.total_cells)
    table = np.random.default_rng(seed).integers(0, n_s + 1, size=shape)
    table[n_s] = n_s
    return FiniteTransitionSystem(state_grid=state_grid, dist_grid=dist_grid,
                                  inputs=inputs, table=table)


def _assert_same_abstraction(back, fts):
    assert np.array_equal(back.table, fts.table)
    for grid in ("state_grid", "dist_grid"):
        a, b = getattr(back, grid), getattr(fts, grid)
        assert a.cells_per_dim == b.cells_per_dim
        assert np.array_equal(a.box, b.box)
        assert a.sigma == b.sigma
    assert np.array_equal(back.inputs, fts.inputs)


@pytest.mark.parametrize("make_fts", [
    # a room: 4 cells, 5 inputs, 16 disturbance cells
    lambda: _room_fts(0.125),
    # no disturbance: one successor per row
    lambda: _random_fts(make_grid([(-0.5, 0.5)], 0.1), trivial_grid(),
                        np.array([[0.0], [0.2]])),
    # a 2-D state grid with 2-D inputs
    lambda: _random_fts(make_grid([(-1.0, 1.0), (0.0, 0.5)], 0.125),
                        make_grid([(-0.5, 0.5)], 0.25),
                        np.array([[0.0, 1.0], [0.5, -0.5], [1.0, 0.0]])),
], ids=["room", "no-disturbance", "2d-state"])
def test_abstraction_file_roundtrip(tmp_path, make_fts):
    fts = make_fts()
    path = tmp_path / "abstraction.csv"
    write_abstraction(path, fts)
    # after the four header lines, one row per (state, input) holding the
    # successors of every disturbance cell, in index order
    lines = path.read_text().splitlines(keepends=True)
    assert all(line.startswith("# ") for line in lines[:4])
    n_s, n_u, _ = fts.table[:-1].shape
    body = "".join(",".join(str(v) for v in fts.table[s, u]) + "\n"
                   for s in range(n_s) for u in range(n_u))
    assert "".join(lines[4:]) == body
    _assert_same_abstraction(read_abstraction(path), fts)
    head = read_abstraction_header(path)
    assert (head.n_states, head.n_inputs, head.n_dists) == \
        (fts.n_states, fts.n_inputs, fts.n_dists)


def test_controller_file_roundtrip(tmp_path):
    fts = _room_fts(0.05)
    path = tmp_path / "controller.csv"
    for safe in (range(2, 8), []):  # the empty winning set: every line -1
        ctrl = safety_synthesis(fts, safe=safe)
        assert (ctrl.winning_states.size > 0) == bool(safe)
        write_controller(path, ctrl)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# winning {ctrl.winning_states.size} of 10"
        assert lines[1:] == [str(u) for u in ctrl.chosen[:-1]]
        back = read_controller(path, fts)
        assert np.array_equal(back.winning, ctrl.winning)
        assert np.array_equal(back.chosen, ctrl.chosen)


def _corrupt(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _last_field(lines, value):
    """The last successor of the last row set to value."""
    return lines[:-1] + [lines[-1].rsplit(",", 1)[0] + f",{value}\n"]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "body is 19 x 16, expected 20 x 16"),
    (lambda lines: lines + [lines[-1]], "body is 21 x 16, expected 20 x 16"),
    (lambda lines: lines[:4] + [line.rsplit(",", 1)[0] + "\n"
                                for line in lines[4:]],
     "body is 20 x 15, expected 20 x 16"),
    (lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + "\n"],
     "number of columns"),
    (lambda lines: _last_field(lines, -1), "out of range"),
    (lambda lines: _last_field(lines, 5), "out of range"),
    (lambda lines: _last_field(lines, "x"), "could not convert"),
])
def test_abstraction_file_rejects_corrupt_body(tmp_path, edit, message):
    fts = _room_fts(0.125)  # 4 cells, 5 inputs, 16 dist cells
    path = tmp_path / "abstraction.csv"
    write_abstraction(path, fts)
    assert path.read_text().endswith(
        ",".join(str(v) for v in fts.table[3, 4]) + "\n")
    _corrupt(path, edit)
    with pytest.raises(ConfigError, match=message) as err:
        read_abstraction(path)
    assert str(path) in str(err.value)


def test_old_layout_files_are_refused(tmp_path):
    fts = _room_fts(0.125)
    path = tmp_path / "abstraction.csv"
    write_abstraction(path, fts)
    head = path.read_text().splitlines(keepends=True)[:4]
    n_s, n_u, n_d = fts.table[:-1].shape
    path.write_text("".join(head) + "state,input,dist,successor\n" + "".join(
        f"{s},{u},{d},{fts.table[s, u, d]}\n" for s in range(n_s)
        for u in range(n_u) for d in range(n_d)))
    with pytest.raises(ConfigError) as err:
        read_abstraction(path)
    assert str(path) in str(err.value)
    ctrl = safety_synthesis(fts, safe=range(4))
    path = tmp_path / "controller.csv"
    path.write_text(f"# winning {ctrl.winning_states.size} of 4\nstate,input\n"
                    + "".join(f"{s},{ctrl.chosen[s]}\n"
                              for s in ctrl.winning_states))
    with pytest.raises(ConfigError) as err:
        read_controller(path, fts)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1] + ["-2\n"], "out of range"),
    (lambda lines: lines[:-1] + ["5\n"], "out of range"),
    (lambda lines: lines[:-1], "body is 9 x 1, expected 10 x 1"),
    (lambda lines: lines + ["0\n"], "body is 11 x 1, expected 10 x 1"),
    (lambda lines: lines[:-1] + ["0,1\n"], "number of columns"),
    (lambda lines: lines[:-1] + ["x\n"], "could not convert"),
    (lambda lines: ["state,input\n"] + lines[1:],
     "unexpected controller header"),
])
def test_controller_file_rejects_corrupt_body(tmp_path, edit, message):
    fts = _room_fts(0.05)  # 10 cells, 5 inputs
    ctrl = safety_synthesis(fts, safe=range(2, 8))
    assert not ctrl.winning[0]
    path = tmp_path / "controller.csv"
    write_controller(path, ctrl)
    _corrupt(path, edit)
    with pytest.raises(ConfigError, match=message) as err:
        read_controller(path, fts)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[1:], "malformed abstraction header"),
    (lambda lines: [lines[0].replace("cells=[4]", "cells=[x]")] + lines[1:],
     "malformed abstraction header"),
    (lambda lines: [lines[0].replace(" sigma=", " width=")] + lines[1:],
     "malformed abstraction header"),
    (lambda lines: lines[:2] + ["# inputs []\n"] + lines[3:],
     "malformed abstraction header"),
    (lambda lines: lines[:3] + [lines[3].replace(" dists=16", "")] + lines[4:],
     "malformed abstraction header"),
    (lambda lines: lines[:3] + [lines[3].replace("states=4", "states=5")]
     + lines[4:], r"header counts \(5, 5, 16\) do not match"),
    (lambda lines: lines[:3] + [lines[3].replace("inputs=5", "inputs=4")]
     + lines[4:], r"header counts \(4, 4, 16\) do not match"),
])
def test_abstraction_file_rejects_corrupt_header(tmp_path, edit, message):
    fts = _room_fts(0.125)  # 4 cells, 5 inputs, 16 dist cells
    path = tmp_path / "abstraction.csv"
    write_abstraction(path, fts)
    head = read_abstraction_header(path)
    assert (head.n_states, head.n_inputs, head.n_dists) == (4, 5, 16)
    assert np.array_equal(head.inputs, fts.inputs)
    _corrupt(path, edit)
    for reader in (read_abstraction, read_abstraction_header):
        with pytest.raises(ConfigError, match=message) as err:
            reader(path)
        assert str(path) in str(err.value)


def test_report_only_run_match_and_mismatch(tmp_path):
    config = dataclasses.replace(
        mini_config(), report=ReportConfig(reference_sample_size=10_000))
    text = stage_report(config, str(tmp_path / "a"))
    q, _ = computed_sample_size(config, 1)
    assert f"computed {q} vs reference 10000 -> MISMATCH" in text
    good = dataclasses.replace(config, report=ReportConfig(reference_sample_size=q))
    text = stage_report(good, str(tmp_path / "b"))
    assert f"computed {q} vs reference {q} -> MATCH" in text
    assert (tmp_path / "b" / "summary.txt").read_text() == text


def test_report_names_the_violating_cycle(tmp_path):
    out = tmp_path / "failed"
    out.mkdir()
    (out / "composed.json").write_text(json.dumps({
        "gain_matrix": [[0.5, 3.0], [0.4, 0.5]], "circularity_ok": False,
        "worst_pair_product": 1.2000000000000002, "max_entry": 3.0,
        "witness": [0, 1], "witness_product": 1.2000000000000002}))
    text = stage_report(mini_config(), str(out))
    assert "circularity_ok: False\n" in text
    assert "violating cycle: [0, 1] gain product: 1.2000000000000002\n" in text
    assert "eps_tilde" not in text


def test_compose_writes_the_violating_cycle(tmp_path):
    # eta 2 over gamma 1 on every ring edge: each 2-cycle has product 4
    cert = ApbfCertificate(gamma=1.0, mu=0.5, eta=2.0, theta=0.1, beta=1e-3,
                           certified=True, margin=-0.01,
                           basis=quartic_difference_basis(1),
                           phi=(0.0, 1.0, 0.0))
    (tmp_path / "certificates.json").write_text(json.dumps(
        {"shared": True, "certificates": [cert.to_mapping()] * 3}))
    payload = stage_compose(mini_config(), str(tmp_path))
    assert payload["circularity_ok"] is False
    assert "kappa" not in payload
    stored = json.loads((tmp_path / "composed.json").read_text())
    cycle, gains = stored["witness"], np.asarray(stored["gain_matrix"])
    assert len(cycle) >= 2  # the self-loops are 0.5
    product = np.prod([gains[a, b] for a, b in zip(cycle, np.roll(cycle, -1))])
    assert stored["witness_product"] == product >= 4.0
    with pytest.raises(ConfigError):
        pipeline.load_composed(str(tmp_path))


def test_certify_reuses_stored_sample_batches(tmp_path):
    config = mini_config()
    out = str(tmp_path / "out")
    bundle = build_systems(config)
    payload = stage_sample(config, out, bundle)
    q = payload["q"]
    # tamper one stored coordinate; the loader must hand back exactly what is
    # on disk whenever q and the sharing flag agree
    path = tmp_path / "out" / "samples.json"
    data = json.loads(path.read_text())
    data["batches"][0]["points"][0][0] = 0.123456
    path.write_text(json.dumps(data))
    batches = _load_or_draw_samples(config, out, bundle, q)
    assert payload["shared"] and len(batches) == 1  # one batch serves all
    assert batches[0].points[0][0] == 0.123456
    # a q mismatch forces a fresh draw of the requested size
    batches = _load_or_draw_samples(config, out, bundle, q + 1)
    assert batches[0].count == q + 1
    assert batches[0].points[0][0] != 0.123456
    # so does a batch count other than one per distinct subsystem
    data["batches"].append(data["batches"][0])
    path.write_text(json.dumps(data))
    batches = _load_or_draw_samples(config, out, bundle, q)
    assert len(batches) == 1
    assert batches[0].points[0][0] != 0.123456


def test_certify_redraws_samples_stored_under_another_seed(tmp_path):
    config = mini_config()
    assert config.seed == 3
    other = dataclasses.replace(config, seed=4)
    staged, fresh = tmp_path / "staged", tmp_path / "fresh"
    bundle = build_systems(config)
    stage_sample(config, str(staged), bundle)
    stage_certify(other, str(staged), bundle)
    stage_certify(other, str(fresh), bundle)
    assert (staged / "certificates.json").read_bytes() == \
        (fresh / "certificates.json").read_bytes()
    cert = json.loads((fresh / "certificates.json").read_text())
    assert cert["certificates"][0]["seed"] == 4


def _write_trajectories_by_row(path, runs):
    """The row-at-a-time writer that write_trajectories replaced; the
    reference for its bytes."""
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


def test_write_trajectories_matches_row_writer(tmp_path):
    rng = np.random.default_rng(0)

    def traj(sub, n, p, t, truncated_at=None):
        return Trajectory(
            subsystem=sub, states=rng.uniform(-1, 1, (t + 1, n)) / 3.0,
            inputs=rng.choice([0.0, 0.05, -0.1, 1e-17], (t, p)),
            input_indices=rng.integers(0, 5, t),
            safe=rng.random(t + 1) < 0.7, truncated_at=truncated_at)

    runs = [("cell3", [traj(0, 1, 1, 6), traj(1, 2, 2, 6)]),
            ("x0", [traj(0, 1, 1, 2, truncated_at=2),
                    traj(1, 2, 2, 2, truncated_at=2)]),
            ("x1", [traj(0, 1, 1, 0, truncated_at=0),
                    traj(1, 2, 2, 0, truncated_at=0)]),
            ("50%", [traj(0, 3, 1, 1)])]
    runs[0][1][0].states[2, 0] = -0.0
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    pipeline.write_trajectories(got, runs)
    _write_trajectories_by_row(want, runs)
    assert got.read_bytes() == want.read_bytes()
    assert "\nx1,0,1," in got.read_text()  # a run truncated at its start


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    config = mini_config()
    result = run_pipeline(config, str(out))
    return config, out, result


def test_mini_pipeline_end_to_end(mini_run):
    config, out, result = mini_run
    assert result.certified
    assert result.circularity_ok
    assert all(w > 0 for w in result.winning)
    assert result.all_safe
    assert result.ok
    for name in ("resolved_config.yaml", "samples.json", "certificates.json",
                 "composed.json", "synthesis.json", "simulation.json",
                 "trajectories.csv", "summary.txt"):
        assert (out / name).exists(), name
    # identical rooms share one abstraction and one controller file
    assert _artifact_names(out, "abstraction") == ["abstraction_0.csv"]
    assert _artifact_names(out, "controller") == ["controller_0.csv"]
    assert result.winning == [result.winning[0]] * 3
    assert "ok: True" in result.summary
    composed = json.loads((out / "composed.json").read_text())
    assert f"eps_tilde: {composed['eps_tilde']!r} " in result.summary
    assert "lipschitz source: data (estimated from sampled slopes, not " \
        "proved)\n" in result.summary


SLOPE_KINDS = {
    "data": ({}, "data (estimated from sampled slopes, not proved)"),
    "linear": ({"kind": "linear", "a": [[0.93]]},
               "linear (given (A, B, E) matrices)"),
    "nonlinear": ({"kind": "nonlinear", "j_f": 0.6, "j_x": 0.93, "j_d": 0.01},
                  "nonlinear (given bounds)"),
}


@pytest.mark.parametrize("certified_by, reported_with", [
    ("data", "linear"), ("linear", "nonlinear"), ("nonlinear", "data")])
def test_report_names_the_slope_source(mini_run, tmp_path, certified_by,
                                       reported_with):
    # the line names the kind that certified the run, whatever kind the
    # config given to report names
    def config(kind):
        doc = yaml.safe_load(MINI_YAML)
        doc["certify"]["lipschitz"] = SLOPE_KINDS[kind][0]
        return PipelineConfig.from_mapping(doc)

    run = tmp_path / "run"
    if certified_by == "data":
        shutil.copytree(mini_run[1], run)
    else:
        stage_certify(config(certified_by), str(run))
    stats = json.loads((run / "lp_stats.json").read_text())
    assert stats["lipschitz_kind"] == certified_by
    text = stage_report(config(reported_with), str(run))
    assert f"lipschitz source: {SLOPE_KINDS[certified_by][1]}\n" in text
    assert SLOPE_KINDS[reported_with][1] not in text


def test_shared_run_enumerates_solves_and_reads_once(tmp_path, monkeypatch):
    # identical rooms: one table, one game, one file of each, and one read
    # of the abstraction, in synthesize; simulate reads only its header
    calls = {}
    for name in ("enumerate_abstraction", "safety_synthesis",
                 "write_abstraction", "read_abstraction", "write_controller",
                 "read_controller"):
        def counted(*args, _inner=getattr(pipeline, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kw)
        monkeypatch.setattr(pipeline, name, counted)
    result = run_pipeline(mini_config(), str(tmp_path / "out"))
    assert result.ok
    assert calls == {"enumerate_abstraction": 1, "safety_synthesis": 1,
                     "write_abstraction": 1, "read_abstraction": 1,
                     "write_controller": 1, "read_controller": 1}


def test_hetero_pipeline_writes_one_abstraction_per_room(tmp_path,
                                                         monkeypatch):
    config = PipelineConfig.from_mapping(yaml.safe_load(hetero_yaml()))
    assert not config.system.identical_subsystems
    refined, systems = [], []

    def loop(subsystems, topology, controllers, *args):
        systems.extend(subsystems)
        refined.extend(controllers)
        return simulate_closed_loop(subsystems, topology, controllers, *args)

    monkeypatch.setattr(pipeline, "simulate_closed_loop", loop)
    out = tmp_path / "hetero"
    result = run_pipeline(config, str(out))
    assert result.ok
    assert _artifact_names(out, "abstraction") == [f"abstraction_{i}.csv"
                                                   for i in range(3)]
    assert _artifact_names(out, "controller") == [f"controller_{i}.csv"
                                                  for i in range(3)]
    # each room's files hold its own table and game, and simulate refines
    # each room's own controller, not a copy of room 0's
    bundle = build_systems(config)
    state_grids, dist_grids = subsystem_grids(bundle, config.certify.sigma)
    chosen = []
    for i in range(3):
        fts = enumerate_abstraction(bundle.subsystems[i], state_grids[i],
                                    dist_grids[i])
        assert np.array_equal(
            read_abstraction(out / f"abstraction_{i}.csv").table, fts.table)
        ctrl = safety_synthesis(fts, pipeline._safe_cells(config, fts))
        back = read_controller(out / f"controller_{i}.csv", fts)
        assert np.array_equal(back.chosen, ctrl.chosen)
        assert np.array_equal(refined[i].table.chosen, ctrl.chosen)
        assert result.winning[i] == int(ctrl.winning.sum())
        chosen.append(ctrl.chosen)
    assert not np.array_equal(chosen[0], chosen[2])
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["shared"] is False
    assert len({json.dumps(c) for c in certs["certificates"]}) == 3
    # and each room's refined controller and system are objects of their own
    assert len({id(c) for c in refined}) == 3
    assert len({id(s) for s in systems}) == 3


def _simulated_loop(config, out, monkeypatch):
    """The systems and refined controllers stage_simulate hands to the
    closed loop."""
    systems, refined = [], []

    def loop(subsystems, topology, controllers, *args):
        systems.extend(subsystems)
        refined.extend(controllers)
        return simulate_closed_loop(subsystems, topology, controllers, *args)

    monkeypatch.setattr(pipeline, "simulate_closed_loop", loop)
    stage_simulate(config, str(out))
    return systems, refined


def test_shared_simulate_refines_one_controller_per_kappa(mini_run, tmp_path,
                                                          monkeypatch):
    config, out, _ = mini_run
    copy = tmp_path / "mini"
    shutil.copytree(out, copy)
    systems, refined = _simulated_loop(config, copy, monkeypatch)
    assert len(refined) == 3 and all(c is refined[0] for c in refined)
    # identical rooms also step with one system object: their owner's
    assert len(systems) == 3 and all(s is systems[0] for s in systems)
    assert (copy / "trajectories.csv").read_bytes() == \
        (out / "trajectories.csv").read_bytes()
    # a composition whose scalings differ: one object per distinct kappa
    composed = json.loads((copy / "composed.json").read_text())
    composed["kappa"] = [1.0, 2.0, 1.0]
    (copy / "composed.json").write_text(json.dumps(composed))
    systems, refined = _simulated_loop(config, copy, monkeypatch)
    assert all(s is systems[0] for s in systems)
    assert refined[0] is refined[2] and refined[1] is not refined[0]
    assert [c.relation.kappa for c in refined] == [1.0, 2.0, 1.0]
    assert refined[0].table is refined[1].table


def test_simulate_reads_headers_and_steps_once_per_system(mini_run, tmp_path,
                                                          monkeypatch):
    # simulate reads each abstraction's header and its controller, never the
    # transition rows, and the identical rooms, which share one system
    # object, advance in one oracle call per step
    config, out, _ = mini_run
    copy = tmp_path / "mini"
    shutil.copytree(out, copy)
    (copy / "trajectories.csv").unlink()

    def refuse(path):
        raise AssertionError(f"simulate parsed the transitions of {path}")

    calls = []
    step = BlackBoxSystem.step

    def counted(self, *args):
        calls.append(self)
        return step(self, *args)

    monkeypatch.setattr(pipeline, "read_abstraction", refuse)
    monkeypatch.setattr(BlackBoxSystem, "step", counted)
    payload = stage_simulate(config, str(copy))
    assert payload["all_safe"]  # so no run is truncated
    assert (copy / "trajectories.csv").read_bytes() == \
        (out / "trajectories.csv").read_bytes()
    assert len(calls) == config.synthesize.horizon


@pytest.mark.parametrize("where, edit, message", [
    ("abstraction_0.csv",
     lambda lines: [lines[0].replace("cells=[20]", "cells=[")] + lines[1:],
     "malformed abstraction header"),
    ("abstraction_0.csv",
     lambda lines: lines[:3] + [lines[3].replace("inputs=5", "inputs=6")]
     + lines[4:], "do not match"),
    ("controller_0.csv", lambda lines: lines + ["0\n"],
     "body is 21 x 1, expected 20 x 1"),
    ("controller_0.csv", lambda lines: lines[:-1] + ["5\n"], "out of range"),
])
def test_simulate_rejects_corrupt_header_or_controller(mini_run, tmp_path,
                                                       where, edit, message):
    config, out, _ = mini_run
    copy = tmp_path / "mini"
    shutil.copytree(out, copy)
    assert "cells=[20]" in (copy / "abstraction_0.csv").read_text()
    _corrupt(copy / where, edit)
    with pytest.raises(ConfigError, match=message) as err:
        stage_simulate(config, str(copy))
    assert where in str(err.value)


def test_report_ok_requires_circularity(mini_run, tmp_path):
    config, out, _ = mini_run
    copy = tmp_path / "mini"
    shutil.copytree(out, copy)
    text = stage_report(config, str(copy))
    assert text == (out / "summary.txt").read_text()
    assert text.endswith("ok: True\n")
    # a rerun whose compose failed, next to the earlier passing simulation
    (copy / "composed.json").write_text(json.dumps({
        "gain_matrix": [[0.5, 3.0, 0.0], [0.4, 0.5, 0.0], [0.0, 0.0, 0.5]],
        "circularity_ok": False, "worst_pair_product": 1.2000000000000002,
        "max_entry": 3.0, "witness": [0, 1],
        "witness_product": 1.2000000000000002}))
    text = stage_report(config, str(copy))
    assert "circularity_ok: False\n" in text
    assert "all trajectories safe: True\n" in text
    assert text.endswith("ok: False\n")


def test_mini_pipeline_is_deterministic(mini_run, tmp_path):
    config, out, _ = mini_run
    again = tmp_path / "again"
    run_pipeline(config, str(again))
    for name in ("samples.json", "certificates.json", "composed.json",
                 "trajectories.csv", "summary.txt"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_mini_pipeline_writes_lp_stats(mini_run):
    _, out, result = mini_run
    stats = json.loads((out / "lp_stats.json").read_text())
    assert stats["shared"] is True
    assert len(stats["subsystems"]) == 1  # one LP serves the identical rooms
    (level,) = stats["subsystems"][0]
    assert level["mu"] == 0.5
    assert level["rounds"] >= 4  # xi, then the eta, gamma and theta phases
    assert level["pivots"] > 0
    assert 0 < level["master_rows"]
    assert level["binding"]["H1"] + level["binding"]["H2"] >= 1
    line = (f"lp (1 solves): rounds={level['rounds']} pivots={level['pivots']} "
            f"master_rows_max={level['master_rows']} "
            f"binding H1={level['binding']['H1']} H2={level['binding']['H2']}")
    assert line in result.summary
    # the scan skips H2 blocks that cannot hold a violator
    assert level["pruned"] > 0 and level["blocks"] >= 0
    total = level["blocks"] + level["pruned"]
    assert f"{line} pruned={level['pruned']}/{total}" in result.summary
    # telemetry stays out of the pinned certificate file
    certs = json.loads((out / "certificates.json").read_text())["certificates"]
    assert all("lp_stats" not in c for c in certs)


def test_mini_trajectories_stay_inside_state_box(mini_run):
    _, out, _ = mini_run
    lines = (out / "trajectories.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split(",")[:4] == ["run", "time", "subsystem", "state"]
    states = [float(r.split(",")[3]) for r in rows]
    assert rows
    assert max(abs(s) for s in states) <= 0.5
    assert all(r.split(",")[6] == "1" for r in rows)  # safe flag per row


def test_cli_simulate_with_empty_winning_set_exits_2(mini_run, tmp_path,
                                                     capsys):
    # a safe band narrower than one cell (width 0.05) holds no whole cell,
    # so every subsystem's winning set is empty
    _, out, _ = mini_run
    run = tmp_path / "band"
    shutil.copytree(out, run)
    doc = yaml.safe_load(MINI_YAML)
    doc["synthesize"].update({"safe_low": 0.01, "safe_high": 0.03})
    cfg = tmp_path / "band.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    rc = cli.main(["synthesize", "--config", str(cfg), "--out", str(run)])
    assert rc == 1
    assert "winning cells per subsystem: [0, 0, 0]" in capsys.readouterr().out
    with pytest.raises(RefinementError, match="subsystem 0 has an empty "
                       "winning set"):
        stage_simulate(PipelineConfig.from_yaml(cfg), str(run))
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(run)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error in stage simulate: subsystem 0 has an empty winning set" \
        in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, settings, message", [
    ("casestudy", {"max_runs": 0}, "max_runs must be an integer of at least 1"),
    ("casestudy", {"max_runs": -1}, "max_runs must be an integer of at least 1"),
    ("casestudy", {"max_runs": "3"}, "max_runs must be an integer of at least 1"),
    ("casestudy", {"horizon": -1}, "horizon must be an integer of at least 0"),
    ("casestudy", {"horizon": 2.5}, "horizon must be an integer of at least 0"),
    ("simulate", {"initial": [[0.0, 0.1]]}, "each start needs 3 coordinates"),
    ("simulate", {"initial": [0.0, 0.1, 0.2, 0.0]},
     "each start needs 3 coordinates"),
    ("simulate", {"initial": [[0.0, 0.1, 0.2], [0.0]]}, "synthesize.initial"),
])
def test_cli_rejects_bad_simulate_settings(mini_run, tmp_path, capsys, command,
                                           settings, message):
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    doc = yaml.safe_load(MINI_YAML)
    doc["synthesize"].update(settings)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    rc = cli.main([command, "--config", str(cfg), "--out", str(run)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error in stage {command}: " in captured.err
    assert message in captured.err
    assert "Traceback" not in captured.err
    # the earlier run's verdict stays where it was
    assert (run / "simulation.json").read_bytes() == \
        (out / "simulation.json").read_bytes()


@pytest.mark.parametrize("section, settings, extra, message", [
    ("certify", {"sigma": 0}, [], "certify.sigma must be a positive number"),
    ("certify", {"sigma": -0.1}, [], "certify.sigma must be a positive number"),
    ("certify", {"lipschitz": {"pairs": 1}}, [],
     "certify.lipschitz: need at least 2 pairs"),
    ("certify", {"boxes": {"gamma": [1, 0]}}, [],
     "certify.boxes: gamma box must be finite with lo < hi"),
    ("system", {"num_rooms": 1}, [], "system: num_rooms must be at least 2"),
    ("system", {}, ["--rooms", "1"], "system: num_rooms must be at least 2"),
    ("compose", {"slack": -1}, [], "compose.slack must lie in (0, 1)"),
    ("certify", {"psi": 2}, [], "certify.psi must lie in (0, 1)"),
    ("certify", {"lam": -1}, [], "certify.lam must be a positive number"),
    ("certify", {"lipschitz": {"kind": "nonlinear", "j_f": -1, "j_x": 0.93,
                               "j_d": 0.01}}, [],
     "certify.lipschitz: j_f, j_x and j_d must be non-negative"),
    ("certify", {"lipschitz": {"safety": -1}}, [],
     "certify.lipschitz: safety must be non-negative"),
    ("synthesize", {"safe_low": "x"}, [],
     "synthesize.safe_low: could not convert string to float"),
    ("synthesize", {"safe_low": [-0.3, -0.2]}, [],
     "synthesize.safe_low must be one number or 1, one per state coordinate"),
    ("synthesize", {"safe_high": [[0.3]]}, [],
     "synthesize.safe_high must be one number or 1, one per state coordinate"),
    ("certify", {"basis": {"mode": "difference", "exponents": [[4], [2], [0]]}},
     [], "unknown certify keys: ['basis']"),
])
def test_cli_rejects_bad_config_values(tmp_path, capsys, section, settings,
                                       extra, message):
    doc = yaml.safe_load(MINI_YAML)
    doc.setdefault(section, {}).update(settings)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    rc = cli.main(["casestudy", "--config", str(cfg), "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error in stage casestudy: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()  # refused before any stage ran


def test_safe_band_length_follows_the_state_dimension():
    doc = {"system": {"kind": "external", "command": ["oracle"],
                      "state_box": [[-0.5, 0.5], [-1.0, 1.0]],
                      "input_set": [[0.0]]},
           "synthesize": {"safe_low": [-0.3, -0.2], "safe_high": 0.3}}
    config = PipelineConfig.from_mapping(doc)
    assert config.system.state_dim == 2
    low, high = config.synthesize.safe_band(2)
    assert low.tolist() == [-0.3, -0.2] and high.tolist() == [0.3, 0.3]
    doc["synthesize"]["safe_low"] = [-0.3, -0.2, -0.1]
    with pytest.raises(ConfigError, match="safe_low must be one number or 2"):
        PipelineConfig.from_mapping(doc)
    assert PipelineConfig().system.state_dim == 1


def test_cli_uncertified_casestudy_exits_1_with_a_summary(mini_run, tmp_path,
                                                          capsys):
    # a slope estimate 100 times too steep leaves the margin positive; the
    # directory holds an earlier, passing run, whose relation and
    # simulation must not be reported as this run's
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    doc = yaml.safe_load(MINI_YAML)
    doc["certify"]["lipschitz"] = {"safety": 100}
    cfg = tmp_path / "steep.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    rc = cli.main(["casestudy", "--config", str(cfg), "--out", str(run)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ""
    summary = (run / "summary.txt").read_text()
    assert captured.out == summary
    assert "subsystems certified: 0 of 3\n" in summary
    assert "certified: False\n" in summary
    assert "circularity_ok" not in summary and "ok: " not in summary
    for name in ("composed.json", "simulation.json", "trajectories.csv"):
        assert not (run / name).exists(), name
    # abstract and synthesize do not need the certificate and still run
    assert (run / "controller_0.csv").exists()
    assert "winning cells per subsystem: " in summary


def test_certificate_with_another_basis_mode_is_refused(mini_run, tmp_path,
                                                        capsys):
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    path = run / "certificates.json"
    payload = json.loads(path.read_text())
    payload["certificates"][0]["basis"] = {
        "mode": "general", "exponents": [[[2], [0]], [[0], [2]], [[0], [0]]]}
    path.write_text(json.dumps(payload))
    cfg = tmp_path / "mini.yaml"
    cfg.write_text(MINI_YAML)
    rc = cli.main(["compose", "--config", str(cfg), "--out", str(run)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error in stage compose: {path}: basis mode must be " \
        f"'difference', not 'general'" in captured.err
    assert "Traceback" not in captured.err


def test_simulate_without_runs_is_not_safe(mini_run, tmp_path, monkeypatch):
    config, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    monkeypatch.setattr(pipeline, "_initial_conditions",
                        lambda config, tables: ([], np.zeros((0, 3))))
    payload = stage_simulate(config, str(run))
    assert payload["runs"] == 0 and payload["all_safe"] is False


def test_pipeline_does_not_import_numpy_ma(tmp_path):
    # np.unique's first call imports numpy.ma, about 0.6 MB of peak RSS; a
    # fresh process runs the mini pipeline and must not load it
    script = textwrap.dedent("""
        import sys
        import yaml
        from symabs.pipeline import PipelineConfig, run_pipeline
        config = PipelineConfig.from_mapping(yaml.safe_load(sys.stdin.read()))
        assert run_pipeline(config, sys.argv[1]).ok
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          input=MINI_YAML, capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_casestudy_and_report(tmp_path, capsys):
    cfg = tmp_path / "mini.yaml"
    cfg.write_text(MINI_YAML)
    out = tmp_path / "cli_out"
    rc = cli.main(["casestudy", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "ok: True" in captured.out
    rc = cli.main(["report", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "minimal sample size" in captured.out
    assert "all trajectories safe: True" in captured.out


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    rc = cli.main(["report", "--config", str(missing), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error in stage report" in captured.err
    bad = tmp_path / "bad.yaml"
    bad.write_text("certify:\n  nonsense: 1\n")
    rc = cli.main(["sample", "--config", str(bad), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown certify keys" in captured.err


@pytest.mark.parametrize("text", [MINI_YAML, hetero_yaml()],
                         ids=["shared", "hetero"])
def test_cli_stage_by_stage_matches_casestudy(tmp_path, capsys, text):
    # every stage in its own CLI call hands off through the files alone
    cfg = tmp_path / "mini.yaml"
    cfg.write_text(text)
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert cli.main(["casestudy", "--config", str(cfg), "--out", str(whole)]) == 0
    for stage in ("sample", "certify", "compose", "abstract", "synthesize",
                  "simulate"):
        assert cli.main([stage, "--config", str(cfg), "--out", str(staged)]) == 0
    capsys.readouterr()
    for name in ("trajectories.csv", "synthesis.json", "certificates.json"):
        assert (staged / name).read_bytes() == (whole / name).read_bytes(), name
    for stem in ("abstraction", "controller"):
        assert _artifact_names(staged, stem) == _artifact_names(whole, stem)
        assert len(_artifact_names(staged, stem)) == (1 if text == MINI_YAML
                                                      else 3)


def test_cli_rooms_override(tmp_path):
    out = tmp_path / "rooms_out"
    cfg = tmp_path / "mini.yaml"
    # one outside temperature per room, so the rooms are not identical and
    # the batch count exposes the room count
    doc = yaml.safe_load(MINI_YAML)
    doc["system"]["outside_temp"] = [-2.0, -1.5, -1.0, -0.5]
    cfg.write_text(yaml.safe_dump(doc))
    rc = cli.main(["sample", "--config", str(cfg), "--rooms", "4",
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "samples.json").read_text())
    assert payload["shared"] is False
    assert len(payload["batches"]) == 4


def test_external_oracle_pipeline_stages(tmp_path):
    # drive one room through the subprocess protocol end to end up to the
    # certification stage, using the CLI's own oracle-server as the backend
    server = ("from symabs.cli import main; import sys; "
              "sys.exit(main(['oracle-server', '--subsystem', '0']))")
    config = PipelineConfig.from_mapping({
        "system": {
            "kind": "external",
            "command": (sys.executable, "-c", server),
            "state_box": ((-0.5, 0.5),),
            "disturbance_box": ((-0.5, 0.5), (-0.5, 0.5)),
            "input_set": ((0.0,), (0.05,), (0.1,), (0.15,), (0.2,)),
        },
        "certify": {
            "sigma": 0.25,
            "eps": [0.5],
            "beta": 0.5,
            "xi_target": None,
            "lipschitz": {"kind": "linear", "a": ((0.93,),),
                          "b": ((0.725,),), "e": ((0.005, 0.005),)},
        },
    })
    out = str(tmp_path / "ext")
    bundle = build_systems(config)
    try:
        stage_sample(config, out, bundle)
        payload = stage_certify(config, out, bundle)
    finally:
        bundle.cleanup.close()
    q, _ = computed_sample_size(config, 1)
    cert = payload["certificates"][0]
    assert cert["q"] == q
    assert isinstance(cert["certified"], bool)
    assert len(payload["certificates"]) == 1


def test_external_oracle_simulate_rejects_unwired_disturbance(tmp_path, capsys):
    # one external room declares two disturbance coordinates, but nothing
    # is wired to it, so closed-loop simulation has no value to feed it
    server = ("from symabs.cli import main; import sys; "
              "sys.exit(main(['oracle-server', '--subsystem', '0']))")
    config = PipelineConfig.from_mapping({
        "system": {
            "kind": "external",
            "command": (sys.executable, "-c", server),
            "state_box": ((-0.5, 0.5),),
            "disturbance_box": ((-0.5, 0.5), (-0.5, 0.5)),
            "input_set": ((0.0,), (0.05,), (0.1,), (0.15,), (0.2,)),
        },
        "certify": {"sigma": 0.1},
    })
    out = str(tmp_path / "ext")
    bundle = build_systems(config)
    try:
        for stage in (stage_sample, stage_certify, stage_compose,
                      stage_abstract, stage_synthesize):
            stage(config, out, bundle)
        with pytest.raises(ConfigError, match="subsystem 0 has disturbance_dim "
                           "2, but its wired neighbours supply 0"):
            stage_simulate(config, out, bundle)
    finally:
        bundle.cleanup.close()
    path = tmp_path / "ext.yaml"
    config.to_yaml(path)
    rc = cli.main(["simulate", "--config", str(path), "--out", out])
    assert rc == 2
    assert "disturbance_dim" in capsys.readouterr().err
