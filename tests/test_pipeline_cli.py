import dataclasses
import json
import os
import pickle
import shutil
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import squared_distances_einsum
from symabs import cli, pipeline, scenario
from symabs.errors import CapacityError, ConfigError, RefinementError
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
from symabs.synthesize import (ClosedLoopLog, FiniteTransitionSystem,
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
    return sorted(p.name for p in out.glob(f"{stem}_*"))


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
    back = PipelineConfig.from_mapping(yaml.safe_load(path.read_text()))
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
    """An abstraction with random int64 successors (cells and the sink)."""
    n_s = state_grid.total_cells
    shape = (n_s, inputs.shape[0], dist_grid.total_cells)
    table = np.random.default_rng(seed).integers(0, n_s + 1, size=shape)
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
    # no disturbance: one successor per (state, input)
    lambda: _random_fts(make_grid([(-0.5, 0.5)], 0.1), trivial_grid(),
                        np.array([[0.0], [0.2]])),
    # a 2-D state grid with 2-D inputs
    lambda: _random_fts(make_grid([(-1.0, 1.0), (0.0, 0.5)], 0.125),
                        make_grid([(-0.5, 0.5)], 0.25),
                        np.array([[0.0, 1.0], [0.5, -0.5], [1.0, 0.0]])),
], ids=["room", "no-disturbance", "2d-state"])
def test_abstraction_file_roundtrip(tmp_path, make_fts):
    fts = make_fts()
    path = tmp_path / "abstraction.npy"
    write_abstraction(path, fts)
    # the .npy holds the table, one row per cell, in the smallest dtype
    # that holds the sink, and the header beside it the grids and inputs
    body = np.load(path, allow_pickle=False)
    assert body.dtype == np.min_scalar_type(fts.sink) == np.uint8
    assert body.shape == (fts.n_states, fts.n_inputs, fts.n_dists)
    assert np.array_equal(body, fts.table)
    header = json.loads((tmp_path / "abstraction.json").read_text())
    assert sorted(header) == ["dist_grid", "inputs", "state_grid"]
    assert header["state_grid"]["cells"] == list(fts.state_grid.cells_per_dim)
    assert header["inputs"] == fts.inputs.tolist()
    back = read_abstraction(path)
    _assert_same_abstraction(back, fts)
    assert back.table.dtype == body.dtype  # the stored dtype is kept
    head = read_abstraction_header(path)
    assert (head.n_states, head.n_inputs, head.n_dists) == \
        (fts.n_states, fts.n_inputs, fts.n_dists)
    assert np.array_equal(head.inputs, fts.inputs)


def test_abstraction_table_dtype_holds_the_sink(tmp_path):
    # 255 cells: the sink is 255, still a uint8; 256 cells need a uint16
    for cells, dtype in ((255, np.uint8), (256, np.uint16)):
        grid = make_grid([(0.0, 1.0)], 0.5 / cells)
        assert grid.total_cells == cells
        fts = _random_fts(grid, trivial_grid(), np.array([[0.0]]))
        path = tmp_path / f"abstraction_{cells}.npy"
        write_abstraction(path, fts)
        assert np.load(path).dtype == dtype
        _assert_same_abstraction(read_abstraction(path), fts)


def test_abstraction_table_keeps_the_stored_dtype(tmp_path):
    # the table is read in the dtype it was stored in, never widened: over
    # 300 cells a uint8 or int8 body can hold only cells, and is kept as
    # stored; the game plays the same on each
    fts = _random_fts(make_grid([(0.0, 1.0)], 0.5 / 300), trivial_grid(),
                      np.array([[0.0], [1.0]]))
    body = fts.table
    want = safety_synthesis(fts, safe=range(10, 290)).chosen
    small = dataclasses.replace(fts, table=body % 100)  # any cell fits a byte
    want_small = safety_synthesis(small, safe=range(10, 290)).chosen
    path = tmp_path / "abstraction.npy"
    write_abstraction(path, fts)
    for stored in (np.uint16, np.int64, np.int32, np.uint8, np.int8):
        _save(path, small.table.astype(stored))
        back = read_abstraction(path)
        assert back.table.dtype == stored
        assert np.array_equal(back.table, small.table)
        assert np.array_equal(
            safety_synthesis(back, safe=range(10, 290)).chosen, want_small)
    _save(path, body.astype(np.uint16))
    back = read_abstraction(path)
    assert np.array_equal(safety_synthesis(back, safe=range(10, 290)).chosen,
                          want)


def test_controller_file_roundtrip(tmp_path):
    fts = _room_fts(0.05)
    path = tmp_path / "controller.json"
    for safe in (range(2, 8), []):  # the empty winning set: every entry -1
        ctrl = safety_synthesis(fts, safe=safe)
        assert (ctrl.winning_states.size > 0) == bool(safe)
        write_controller(path, ctrl)
        assert ctrl.chosen.shape == (fts.n_states,)  # one entry per cell
        assert json.loads(path.read_text()) == {
            "chosen": ctrl.chosen.tolist()}
        back = read_controller(path, fts)
        assert np.array_equal(back.winning, ctrl.winning)
        assert np.array_equal(back.chosen, ctrl.chosen)
        assert back.chosen.dtype == ctrl.chosen.dtype


def _save(path, array, save=np.save, **kw):
    with open(path, "wb") as fh:  # a handle: np.savez would append .npz
        save(fh, array, **kw)


def _with_last(body, value):
    """The table as int64, with its last successor set to value."""
    body = body.astype(np.int64)
    body[-1, -1, -1] = value
    return body


@pytest.mark.parametrize("edit, message", [
    (lambda path, body: _save(path, body[:-1]),
     r"has shape \(3, 5, 16\), expected \(4, 5, 16\)"),
    (lambda path, body: _save(path, body[:, :, :-1]),
     r"has shape \(4, 5, 15\), expected \(4, 5, 16\)"),
    (lambda path, body: _save(path, body.reshape(20, 16)),
     r"has shape \(20, 16\), expected \(4, 5, 16\)"),
    (lambda path, body: _save(path, _with_last(body, -1)), "out of range"),
    (lambda path, body: _save(path, _with_last(body, 5)), "out of range"),
    (lambda path, body: _save(path, body.astype(np.float64)),
     "not an integer array"),
    (lambda path, body: _save(path, body.astype(np.bool_)),
     "not an integer array"),
    (lambda path, body: _save(path, body.astype(object), allow_pickle=True),
     "malformed abstraction table .*allow_pickle"),
    (lambda path, body: path.write_bytes(pickle.dumps(body)),
     "malformed abstraction table .*allow_pickle"),
    (lambda path, body: path.write_bytes(path.read_bytes()[:-7]),
     "malformed abstraction table"),
    (lambda path, body: path.write_bytes(path.read_bytes()[:20]),
     "malformed abstraction table"),
    (lambda path, body: path.write_bytes(b""), "malformed abstraction table"),
    (lambda path, body: _save(path, body, np.savez), "not an integer array"),
])
def test_abstraction_file_rejects_corrupt_body(tmp_path, edit, message):
    fts = _room_fts(0.125)  # 4 cells, 5 inputs, 16 dist cells: the sink is 4
    path = tmp_path / "abstraction.npy"
    write_abstraction(path, fts)
    edit(path, np.load(path))
    with pytest.raises(ConfigError, match=message) as err:
        read_abstraction(path)
    assert str(path) in str(err.value)
    # simulate reads only the header, which is intact
    assert read_abstraction_header(path).n_states == 4


@pytest.mark.parametrize("edit, cause", [
    (lambda header: header.pop("inputs"), "'inputs'"),
    (lambda header: header.pop("state_grid"), "'state_grid'"),
    (lambda header: header["dist_grid"].pop("sigma"), "'sigma'"),
    (lambda header: header["dist_grid"].update(sigma=10 ** 400), "too large"),
    (lambda header: header["state_grid"].update(cells=["x"]),
     r"cells \['x'\] is not a list of integers"),
    (lambda header: header["state_grid"].update(cells=[4.5]),
     r"cells \[4.5\] is not a list of integers"),
    (lambda header: header["state_grid"].update(cells=4),
     "cells 4 is not a list of integers"),
    (lambda header: header["state_grid"].update(cells=[0]),
     "one positive count per coordinate"),
    (lambda header: header["state_grid"].update(cells=[4, 4]),
     "one positive count per coordinate"),
    (lambda header: header["state_grid"].update(box=[[0.5, -0.5]]),
     "low < high"),
    (lambda header: header.update(inputs=[]), "non-empty list of input"),
    (lambda header: header.update(inputs=[[]]), "non-empty list of input"),
    (lambda header: header.update(inputs=[[0.0], [0.1, 0.2]]), "inhomogeneous"),
    (lambda header: header.update(inputs=["x"]), "could not convert"),
    (lambda header: header.clear(), "'inputs'"),
])
def test_abstraction_file_rejects_corrupt_header(tmp_path, edit, cause):
    fts = _room_fts(0.125)  # 4 cells, 5 inputs, 16 dist cells
    path = tmp_path / "abstraction.npy"
    write_abstraction(path, fts)
    header_path = tmp_path / "abstraction.json"
    header = json.loads(header_path.read_text())
    edit(header)
    header_path.write_text(json.dumps(header))
    for reader in (read_abstraction, read_abstraction_header):
        with pytest.raises(ConfigError,
                           match=f"malformed abstraction header .*{cause}") as err:
            reader(path)
        assert str(header_path) in str(err.value)


@pytest.mark.parametrize("text", ["", "{", "[1, 2]", "null"],
                         ids=["empty", "truncated", "list", "null"])
def test_artifact_json_that_does_not_parse_is_refused(tmp_path, text):
    fts = _room_fts(0.125)
    path = tmp_path / "abstraction.npy"
    write_abstraction(path, fts)
    (tmp_path / "abstraction.json").write_text(text)
    with pytest.raises(ConfigError, match="malformed abstraction header"):
        read_abstraction_header(path)
    controller = tmp_path / "controller.json"
    controller.write_text(text)
    with pytest.raises(ConfigError, match="malformed controller") as err:
        read_controller(controller, fts)
    assert str(controller) in str(err.value)


@pytest.mark.parametrize("edit, message", [
    (lambda chosen: chosen[:-1] + [-2], "out of range"),
    (lambda chosen: chosen[:-1] + [5], "out of range"),
    (lambda chosen: chosen[:-1], "9 cells, expected 10"),
    (lambda chosen: chosen + [0], "11 cells, expected 10"),
    (lambda chosen: chosen[:-1] + [0.0], "malformed controller"),
    (lambda chosen: chosen[:-1] + [True], "malformed controller"),
    (lambda chosen: chosen[:-1] + ["0"], "malformed controller"),
    (lambda chosen: chosen[:-1] + [[0]], "malformed controller"),
    (lambda chosen: {"0": 1}, "malformed controller"),
    (lambda chosen: None, "malformed controller"),
])
def test_controller_file_rejects_corrupt_body(tmp_path, edit, message):
    fts = _room_fts(0.05)  # 10 cells, 5 inputs
    ctrl = safety_synthesis(fts, safe=range(2, 8))
    assert not ctrl.winning[0]
    path = tmp_path / "controller.json"
    write_controller(path, ctrl)
    chosen = json.loads(path.read_text())["chosen"]
    path.write_text(json.dumps({"chosen": edit(chosen)}))
    with pytest.raises(ConfigError, match=message) as err:
        read_controller(path, fts)
    assert str(path) in str(err.value)
    path.write_text(json.dumps({"winning": chosen}))
    with pytest.raises(ConfigError, match="malformed controller"):
        read_controller(path, fts)


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
    reference for its bytes.  runs: (label, list of Trajectory) pairs."""
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


def _matches_row_writer(tmp_path, labels, log):
    """write_trajectories writes the row writer's bytes over log's views."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    pipeline.write_trajectories(got, labels, log)
    _write_trajectories_by_row(want, list(zip(labels, log)))
    assert got.read_bytes() == want.read_bytes()
    return got.read_text()


def _random_log(rng, dims, tables, steps, horizon):
    """A log of len(steps) runs over rooms of the given state dims and input
    tables (shared objects where repeated), with entries past each run's
    steps left as they were drawn."""
    runs, m = len(steps), len(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    return ClosedLoopLog(
        states=rng.uniform(-1, 1, (horizon + 1, runs, offsets[-1])) / 3.0,
        offsets=offsets,
        input_indices=np.stack([rng.integers(0, len(t), (horizon, runs))
                                for t in tables], axis=2),
        tables=list(tables), safe=rng.random((horizon + 1, runs, m)) < 0.7,
        steps=np.asarray(steps, dtype=np.int64),
        diagnostics=[[None] * m for _ in range(runs)])


def test_write_trajectories_matches_row_writer(tmp_path):
    rng = np.random.default_rng(0)
    levels = np.array([[0.0], [0.05], [-0.1], [1e-17], [0.2]])
    pairs = np.array([[0.0, 0.05], [-0.1, 1e-17], [0.2, 0.2]])
    # rooms of state dimension 1 and 2 and input widths 1 and 2, in runs
    # that reach the horizon and runs truncated mid-run and at step 0
    log = _random_log(rng, [1, 2], [levels, pairs], [6, 2, 0, 6], 6)
    log.states[2, 0, 0] = -0.0
    text = _matches_row_writer(tmp_path, ["cell3", "x0", "x1", "50%"], log)
    assert "\ncell3,2,0,-0.0," in text
    assert "\nx1,0,1," in text and "\nx1,1," not in text  # truncated at 0
    # rooms that repeat one room, or differ from it only in the sign of a
    # zero, in a safety flag, or in the input table behind equal indices:
    # the same values in another object, other values, or another width
    same = levels.copy()
    other = levels[[1, 2, 3, 4, 0]]  # another input at every index
    wide = np.tile(levels, 2)
    tables = [levels, levels, same, other, wide, levels]
    log = _random_log(rng, [1] * 6, tables, [5, 3, 0, 5], 5)
    for array in (log.states, log.input_indices, log.safe):
        array[...] = array[:, :, :1]  # every room as room 0
    log.states[3, :, 1] = 0.0
    log.states[3, :, [0, 2, 3, 4, 5]] = -0.0
    log.safe[1, :, 5] = ~log.safe[1, :, 0]
    text = _matches_row_writer(tmp_path, ["cell7", "x2", "x3", "5%d"], log)
    assert "\ncell7,3,0,-0.0," in text and "\ncell7,3,1,0.0," in text
    idx = int(log.input_indices[0, 0, 0])
    state, nu = float(log.states[0, 0, 3]), float(other[idx, 0])
    assert f"\ncell7,0,3,{state!r},{idx},{nu!r}," in text
    # a label holding the subsystem column's stand-in, and a label count
    # other than the run count, are refused
    for label in ("x\0", "\0"):
        with pytest.raises(ValueError, match="NUL"):
            pipeline.write_trajectories(tmp_path / "bad.csv", [label] * 4, log)
    with pytest.raises(ValueError, match="need 4 run labels"):
        pipeline.write_trajectories(tmp_path / "bad.csv", ["x"] * 3, log)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_trajectories_matches_row_writer_on_random_logs(tmp_path, data):
    # small values drawn from a short list, so that rooms repeat, and zeros
    # of both signs
    values = st.sampled_from([0.0, -0.0, 0.1, -0.25, 1e-17])
    pool = [np.array([[0.0], [0.05]]), np.array([[0.0], [0.05]]),
            np.array([[0.05], [0.0], [-0.1]]), np.array([[0.0, 0.1], [0.2, -0.0]])]
    m = data.draw(st.integers(1, 4))
    dims = data.draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    tables = data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    horizon = data.draw(st.integers(0, 4))
    steps = data.draw(st.lists(st.integers(0, horizon), max_size=3))
    log = _random_log(np.random.default_rng(0), dims, tables, steps, horizon)
    log.states[...] = np.reshape(data.draw(st.lists(
        values, min_size=log.states.size, max_size=log.states.size)),
        log.states.shape)
    log.input_indices[...] = np.reshape(data.draw(st.lists(
        st.integers(0, 1), min_size=log.input_indices.size,
        max_size=log.input_indices.size)), log.input_indices.shape)
    log.safe[...] = np.reshape(data.draw(st.lists(
        st.booleans(), min_size=log.safe.size, max_size=log.safe.size)),
        log.safe.shape)
    labels = data.draw(st.lists(st.sampled_from(["x0", "50%", "5%d", "c,7"]),
                                min_size=len(steps), max_size=len(steps)))
    _matches_row_writer(tmp_path, labels, log)


def _all_safe_by_trajectory(log):
    """all_safe as it was defined over the per-room trajectories."""
    trajs = [tr for run in log for tr in run]
    return bool(trajs) and all(tr.truncated_at is None for tr in trajs) \
        and bool(np.concatenate([tr.safe for tr in trajs]).all())


@pytest.mark.parametrize("case", ["as run", "one unsafe state", "truncated",
                                  "no runs"])
def test_simulate_all_safe_matches_the_trajectory_definition(
        mini_run, tmp_path, monkeypatch, case):
    config, out, _ = mini_run
    copy = tmp_path / "mini"
    shutil.copytree(out, copy)
    logs = []

    def loop(*args):
        log = simulate_closed_loop(*args)
        if case == "one unsafe state":
            log.safe[4, 1, 2] = False
        elif case == "truncated":  # its later states and flags left as run
            log.steps[1] = 3
        logs.append(log)
        return log

    monkeypatch.setattr(pipeline, "simulate_closed_loop", loop)
    if case == "no runs":
        monkeypatch.setattr(pipeline, "_initial_conditions",
                            lambda config, controllers: ([], np.empty((0, 3))))
    payload = stage_simulate(config, str(copy))
    [log] = logs
    assert payload["all_safe"] == _all_safe_by_trajectory(log) \
        == (case == "as run")
    assert payload["runs"] == len(log) == (0 if case == "no runs" else 8)


def test_write_certificates_matches_json_dump(tmp_path, mini_run):
    _, out, _ = mini_run
    cert = json.loads((out / "certificates.json").read_text())["certificates"][0]
    other = dict(cert, gamma=-0.0, eps=[], margins=[float("nan"), 1e-17],
                 note="two\nlines", boxes={"eta": [0.0, {"deep": [1, []]}]})
    for payload in ({"shared": True, "certificates": [cert] * 30},
                    {"shared": False,
                     "certificates": [cert, other, dict(cert), other]},
                    {"shared": False, "certificates": [other]}):
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        pipeline._write_certificates(got, payload)
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        assert got.read_bytes() == want.read_bytes()


def test_load_certificates_parses_each_run_of_equal_mappings_once(
        tmp_path, mini_run):
    _, out, _ = mini_run
    cert = json.loads((out / "certificates.json").read_text())["certificates"][0]
    phi = list(cert["phi"])
    # mappings equal to cert by ==, but not as JSON: a zero of the other
    # sign, a float for an int and 1 for true
    other = dict(cert, gamma=2.0 * cert["gamma"])
    signed = [dict(cert, phi=phi[:1] + [z] + phi[2:]) for z in (0.0, -0.0)]
    floated = [dict(other, q=cert["q"]), dict(other, q=float(cert["q"]))]
    truth = [dict(cert, certified=True), dict(cert, certified=1)]
    assert signed[0] == signed[1] and floated[0] == floated[1] \
        and truth[0] == truth[1]
    mappings = [cert, dict(cert), cert, other, cert, cert, *signed, *floated,
                *truth]
    runs = [0, 0, 0, 1, 2, 2, 3, 4, 5, 6, 7, 8]
    # the flag claims one shared certificate; it is not trusted
    (tmp_path / "certificates.json").write_text(json.dumps(
        {"certificates": mappings, "shared": True}))
    certs = pipeline.load_certificates(str(tmp_path))
    assert len(certs) == len(mappings)
    for j in range(1, len(certs)):
        assert (certs[j] is certs[j - 1]) == (runs[j] == runs[j - 1])
    for got, mapping in zip(certs, mappings):
        want = ApbfCertificate.from_mapping(mapping).to_mapping()
        assert repr(got.to_mapping()) == repr(want)
    assert str(certs[6].phi[1]) == "0.0" and str(certs[7].phi[1]) == "-0.0"
    assert type(certs[9].q) is float and certs[11].certified == 1


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
    # identical rooms share one abstraction (table and header) and one
    # controller
    assert _artifact_names(out, "abstraction") == ["abstraction_0.json",
                                                   "abstraction_0.npy"]
    assert _artifact_names(out, "controller") == ["controller_0.json"]
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


@pytest.mark.parametrize("matrices, message", [
    ({"a": [[0.9, 0.1]]}, "a is 1x2, but the system needs 1x1"),
    ({"a": [[0.9]], "b": [[1, 2, 3]]}, "b is 1x3, but the system needs 1x1"),
    # a room has two neighbours, so E has two columns
    ({"a": [[0.93]], "e": [[0.005]]}, "e is 1x1, but the system needs 1x2"),
])
def test_cli_certify_refuses_misshaped_linear_matrices(tmp_path, capsys,
                                                       matrices, message):
    doc = yaml.safe_load(MINI_YAML)
    doc["certify"]["lipschitz"] = dict(matrices, kind="linear")
    cfg = tmp_path / "linear.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
    before = sorted(p.name for p in out.iterdir())
    rc = cli.main(["certify", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error in stage certify: certify.lipschitz: {message}" \
        in captured.err
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in out.iterdir()) == before


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


def test_subsystem_grids_builds_the_requested_rooms_and_their_neighbours():
    # a shared ring certifies and abstracts room 0 only; its disturbance
    # grid needs the state grids of its two wired neighbours and no other
    bundle = build_systems(PipelineConfig.from_mapping(
        {"system": {"num_rooms": 6}}))
    every_state, every_dist = subsystem_grids(bundle, 0.05,
                                             range(bundle.count))
    assert sorted(every_state) == sorted(every_dist) == list(range(6))
    state_grids, dist_grids = subsystem_grids(bundle, 0.05, [0, 0])
    assert sorted(dist_grids) == [0]
    assert sorted(state_grids) == sorted({0, *bundle.topology.wiring[0]}) \
        and len(state_grids) == 3
    for grids, every in ((state_grids, every_state), (dist_grids, every_dist)):
        for i, grid in grids.items():
            assert grid.cells_per_dim == every[i].cells_per_dim
            assert grid.box.tobytes() == every[i].box.tobytes()
            assert grid.sigma == every[i].sigma


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
    assert _artifact_names(out, "abstraction") == [
        f"abstraction_{i}.{ext}" for i in range(3) for ext in ("json", "npy")]
    assert _artifact_names(out, "controller") == [f"controller_{i}.json"
                                                  for i in range(3)]
    # each room's files hold its own table and game, and simulate refines
    # each room's own controller, not a copy of room 0's
    bundle = build_systems(config)
    state_grids, dist_grids = subsystem_grids(bundle, config.certify.sigma,
                                              range(bundle.count))
    chosen = []
    for i in range(3):
        fts = enumerate_abstraction(bundle.subsystems[i], state_grids[i],
                                    dist_grids[i])
        assert np.array_equal(
            read_abstraction(out / f"abstraction_{i}.npy").table, fts.table)
        ctrl = safety_synthesis(fts, pipeline._safe_cells(config, fts))
        back = read_controller(out / f"controller_{i}.json", fts)
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


def test_simulate_scores_each_distinct_room_state_once(mini_run, tmp_path,
                                                      monkeypatch):
    # the three identical rooms of a run share one controller and, started
    # at one winning-cell center, one trajectory: each refinement step
    # scores one state per distinct run state, not one per run and room
    config, out, _ = mini_run
    copy = tmp_path / "mini"
    shutil.copytree(out, copy)
    rows = []
    features = scenario.BasisSpec.features

    def counted(self, x, xhat):
        rows.append(np.shape(x)[0])
        return features(self, x, xhat)

    monkeypatch.setattr(scenario.BasisSpec, "features", counted)
    payload = stage_simulate(config, str(copy))
    assert payload["all_safe"]  # so every run is alive at every step
    assert (copy / "trajectories.csv").read_bytes() == \
        (out / "trajectories.csv").read_bytes()
    lines = (out / "trajectories.csv").read_text().splitlines()[1:]
    states = {}
    for line in lines:
        run, time, _, state = line.split(",")[:4]
        states.setdefault(int(time), set()).add((run, state))
    horizon, runs = config.synthesize.horizon, payload["runs"]
    assert all(len(states[k]) == runs for k in range(horizon + 1))
    distinct = [len({s for _, s in states[k]}) for k in range(horizon)]
    assert rows == distinct and max(rows) <= runs


@pytest.mark.parametrize("where, edit, message", [
    ("abstraction_0.json",
     lambda doc: doc["state_grid"].update(cells="[20]"),
     "malformed abstraction header"),
    ("abstraction_0.json", lambda doc: doc.pop("dist_grid"),
     "malformed abstraction header"),
    ("controller_0.json", lambda doc: doc["chosen"].append(0),
     "21 cells, expected 20"),
    ("controller_0.json", lambda doc: doc["chosen"].__setitem__(-1, 5),
     "out of range"),
])
def test_simulate_rejects_corrupt_header_or_controller(mini_run, tmp_path,
                                                       where, edit, message):
    config, out, _ = mini_run
    copy = tmp_path / "mini"
    shutil.copytree(out, copy)
    header = json.loads((copy / "abstraction_0.json").read_text())
    assert header["state_grid"]["cells"] == [20]
    doc = json.loads((copy / where).read_text())
    edit(doc)
    (copy / where).write_text(json.dumps(doc))
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
                 "abstraction_0.npy", "abstraction_0.json", "controller_0.json",
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
        stage_simulate(PipelineConfig.from_mapping(yaml.safe_load(
            cfg.read_text())), str(run))
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
    ("simulate", {"initial": [[float("nan"), 0.0, 0.0]]},
     "synthesize.initial: every start coordinate must be finite"),
    ("simulate", {"initial": [[0.0, 0.1, 0.2], [0.0, float("-inf"), 0.0]]},
     "synthesize.initial: every start coordinate must be finite"),
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


EXTERNAL = {"kind": "external", "command": ["oracle"],
            "state_box": [[-0.5, 0.5]], "input_set": [[0.0]]}


@pytest.mark.parametrize("section, settings, extra, message", [
    ("certify", {"sigma": 0}, [], "certify.sigma must be a positive number"),
    ("certify", {"sigma": -0.1}, [], "certify.sigma must be a positive number"),
    ("certify", {"lipschitz": {"pairs": 1}}, [],
     "certify.lipschitz: need at least 2 pairs"),
    # past the sample cap the slope probe's arrays could not be allocated
    ("certify", {"lipschitz": {"pairs": 2 ** 62}}, [],
     "certify.lipschitz: pairs must be at most 10,000,000, the sample cap "
     "on the slope probe's (pairs x coordinates) arrays"),
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
    ("synthesize", {"horizon": True}, [],
     "synthesize.horizon must be an integer of at least 0"),
    ("synthesize", {"max_runs": True}, [],
     "synthesize.max_runs must be an integer of at least 1"),
    ("synthesize", {"query_cap": "x"}, [],
     "synthesize.query_cap must be an integer of at least 1"),
    ("synthesize", {"query_cap": 0}, [],
     "synthesize.query_cap must be an integer of at least 1"),
    ("synthesize", {"query_cap": -5}, [],
     "synthesize.query_cap must be an integer of at least 1"),
    # section None sets top-level keys
    (None, {"seed": "abc"}, [], "seed must be a non-negative integer"),
    (None, {"seed": 1.7}, [], "seed must be a non-negative integer"),
    (None, {"seed": True}, [], "seed must be a non-negative integer"),
    (None, {"seed": -1}, [], "seed must be a non-negative integer"),
    (None, {}, ["--seed", "-1"], "seed must be a non-negative integer"),
    ("system", {"num_rooms": 2.5}, [], "system: num_rooms must be an integer"),
    ("system", {"num_rooms": True}, [], "system: num_rooms must be an integer"),
    ("system", {"outside_temp": [-2, -1]}, [],
     "system: outside_temp must be scalar or one value per room"),
    # one temperature per configured room, but not per room of the override
    ("system", {"outside_temp": [-2, -1.5, -1]}, ["--rooms", "4"],
     "system: outside_temp must be scalar or one value per room"),
    ("system", {"kind": "external", "command": ["oracle"],
                "state_box": [[-0.5, 0.5]], "input_set": [[0.0]],
                "timeout": 0}, [],
     "system.timeout must be a positive number of seconds"),
    ("certify", {"lipschitz": {"pairs": 2.5}}, [],
     "certify.lipschitz: pairs must be an integer"),
    ("certify", {"lipschitz": {"seed": "abc"}}, [],
     "certify.lipschitz: seed must be a non-negative integer"),
    ("certify", {"xi_target": "abc"}, [],
     "certify.xi_target must be a finite number or null"),
    ("certify", {"xi_target": float("inf")}, [],
     "certify.xi_target must be a finite number or null"),
    ("report", {"reference_sample_size": "abc"}, [],
     "report.reference_sample_size must be a positive integer or null"),
    ("report", {"reference_sample_size": 2.5}, [],
     "report.reference_sample_size must be a positive integer or null"),
    # the row cap is gone, whatever an old config sets it to:
    # synthesize.query_cap caps certify's table too
    ("certify", {"row_cap": 50_000_000}, [], "unknown certify keys: ['row_cap']"),
    ("certify", {"row_cap": 10 ** 9}, [], "unknown certify keys: ['row_cap']"),
    ("certify", {"row_cap": "abc"}, [], "unknown certify keys: ['row_cap']"),
    ("certify", {"unknowns": 7.9}, [],
     "certify.unknowns must be a positive integer or null"),
    ("certify", {"unknowns": True}, [],
     "certify.unknowns must be a positive integer or null"),
    ("certify", {"unknowns": 0}, [],
     "certify.unknowns must be a positive integer or null"),
    # a string is the whole file, here one that is not YAML
    (None, "system: [1\n", [], "the config is not valid YAML"),
    # wrongly typed values, refused by type and range, not by a traceback
    ("certify", {"boxes": [1, 2]}, [],
     "certify.boxes must map names to [low, high] pairs"),
    ("certify", {"boxes": {"gamma": 5}}, [],
     "certify.boxes must map names to [low, high] pairs"),
    ("certify", {"lipschitz": [1]}, [], "certify.lipschitz must be a mapping"),
    ("certify", {"eps": [[0.1]]}, [],
     "certify.eps must be a number in (0, 1) or a non-empty list of them"),
    ("certify", {"eps": []}, [],
     "certify.eps must be a number in (0, 1) or a non-empty list of them"),
    ("certify", {"eps": 1.5}, [],
     "certify.eps must be a number in (0, 1) or a non-empty list of them"),
    ("certify", {"mu_grid": {"a": 1}}, [],
     "certify.mu_grid must be a number in (0, 1) or a non-empty list of them"),
    ("certify", {"beta": "abc"}, [], "certify.beta must lie in (0, 1)"),
    ("certify", {"beta": 1}, [], "certify.beta must lie in (0, 1)"),
    ("certify", {"beta": True}, [], "certify.beta must lie in (0, 1)"),
    # an external system's boxes and inputs, checked when the config is
    # built rather than when sample builds the system
    ("system", dict(EXTERNAL, state_box=[[0.5, -0.5]]), [],
     "system: box rows must satisfy low < high"),
    ("system", dict(EXTERNAL, input_set=[[0.0], [0.0]]), [],
     "system: input_set must be duplicate-free"),
    ("system", dict(EXTERNAL, disturbance_box=[[1, 0]]), [],
     "system: box rows must satisfy low < high"),
    ("system", dict(EXTERNAL, state_box=[-0.5, 0.5]), [],
     "system: state_box must have one interval per state coordinate"),
    ("system", dict(EXTERNAL, state_box=3), [],
     "system: object of type 'int' has no len()"),
])
def test_cli_rejects_bad_config_values(tmp_path, capsys, section, settings,
                                       extra, message):
    cfg = tmp_path / "bad.yaml"
    if isinstance(settings, str):
        cfg.write_text(settings)
    else:
        doc = yaml.safe_load(MINI_YAML)
        (doc if section is None else doc.setdefault(section, {})).update(settings)
        cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    rc = cli.main(["casestudy", "--config", str(cfg), "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error in stage casestudy: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()  # refused before any stage ran


# The default room at sigma 0.01: 50 cells, 5 inputs and 50 x 50
# disturbance cells, one table entry each.
FINE_SIGMA, FINE_ENTRIES = 0.01, 50 * 5 * 2500


def test_cli_refuses_a_table_past_the_cap_before_allocating_it(tmp_path,
                                                               capsys):
    # sigma 0.005: 100 cells, 5 inputs and 100 x 100 disturbance cells
    entries = 100 * 5 * 10_000
    cfg = tmp_path / "cap.yaml"
    cfg.write_text(yaml.safe_dump({"certify": {"sigma": 0.005},
                                   "synthesize": {"query_cap": 100_000}}))
    tracemalloc.start()
    try:
        rc = cli.main(["casestudy", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert (f"transition table (cells x inputs x disturbance cells) would "
            f"hold {entries:,} entries ({8 * entries:,} bytes), over the "
            f"table cap of 100,000 entries") in err
    # refused before the table, or any array the size of it, was made
    assert peak < 8 * entries / 20, peak
    # abstract is held to the same cap
    rc = cli.main(["abstract", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{entries:,} entries" in capsys.readouterr().err


def test_cli_refuses_a_closed_loop_past_the_cap_before_allocating_it(
        tmp_path, capsys):
    # simulate keeps (horizon + 1) x runs x state coordinates states; a
    # horizon of 2**62 is refused against the table cap before the loop
    doc = yaml.safe_load(MINI_YAML)
    doc["synthesize"]["horizon"] = 2 ** 62
    cfg = tmp_path / "long.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    for command in ("casestudy", "simulate"):
        rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, command
        assert "Traceback" not in err
        assert (f"error in stage {command}: the closed-loop states (horizon "
                f"+ 1 x runs x state coordinates) would hold ") in err
        assert "over the table cap of 10,000,000 entries" in err
        assert not (out / "trajectories.csv").exists()
    # the cap is exact: 31 steps x 8 runs x 3 rooms fit 744 entries
    config = mini_config()
    run_pipeline(config, str(out))
    synth = config.synthesize
    for cap, fits in ((744, True), (743, False)):
        capped = dataclasses.replace(config, synthesize=dataclasses.replace(
            synth, query_cap=cap))
        if fits:
            assert stage_simulate(capped, str(out))["runs"] == 8
        else:
            with pytest.raises(CapacityError, match="744 entries"):
                stage_simulate(capped, str(out))


def test_cap_messages_name_each_arrays_own_bytes(tmp_path, capsys):
    # The default room's table holds 20 x 5 x 400 entries: abstract builds
    # it in uint8 (20 cells), certify keeps an int64 copy.
    cfg = tmp_path / "cap.yaml"
    cfg.write_text(yaml.safe_dump({"synthesize": {"query_cap": 1000}}))
    for command, itemsize in (("abstract", 1), ("certify", 8)):
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2, command
        assert "Traceback" not in err
        assert (f"error in stage {command}: the transition table (cells x "
                f"inputs x disturbance cells) would hold 40,000 entries "
                f"({itemsize * 40_000:,} bytes), over the table cap of 1,000 "
                f"entries") in err


def test_cli_refuses_a_slope_probe_past_the_cap_before_drawing_it(tmp_path,
                                                                  capsys):
    # A million pairs would have the probe draw 1 M x 3 coordinates per
    # array (at SAMPLE_CAP, 10 M x 3); a cap one entry short refuses them
    # before any draw.
    cfg = tmp_path / "probe.yaml"
    cfg.write_text(yaml.safe_dump(
        {"certify": {"lipschitz": {"pairs": 1_000_000}},
         "synthesize": {"query_cap": 2_999_999}}))
    tracemalloc.start()
    try:
        rc = cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert ("error in stage certify: the slope probe's point pairs (pairs x "
            "state and disturbance coordinates) would hold 3,000,000 entries "
            "(24,000,000 bytes), over the table cap of 2,999,999 entries") in err
    assert peak < 8 * 2 ** 20, peak
    assert not (tmp_path / "certificates.json").exists()
    # the cap is exact: the default 200 pairs x 3 coordinates fit 600 entries,
    # and the stage goes on to the table, which that cap refuses in turn
    config = PipelineConfig()
    for cap, what in ((599, "slope probe's point pairs"), (600, "transition table")):
        capped = dataclasses.replace(config, synthesize=dataclasses.replace(
            config.synthesize, query_cap=cap))
        with pytest.raises(CapacityError, match=what):
            stage_certify(capped, str(tmp_path))


def test_distance_factors_keep_the_ring5_fine_certificate_bytes(tmp_path,
                                                                monkeypatch):
    # A room has two disturbance axes and one state axis, and a sum of at
    # most two squared gaps rounds once in any order, so the bench's
    # five-room ring at sigma 0.02 certifies to the same bytes as with the
    # one-shot einsum over the whole difference array.
    config = PipelineConfig.from_mapping({
        "seed": 0, "system": {"num_rooms": 5,
                              "input_levels": [0.0, 0.05, 0.1, 0.15, 0.2]},
        "certify": {"sigma": 0.02, "lipschitz": {"seed": 1}}})
    run_pipeline(config, str(tmp_path / "factors"))
    calls = []
    monkeypatch.setattr(scenario, "_squared_distances", lambda points, grid: (
        calls.append(grid) or squared_distances_einsum(
            points, grid.all_representatives())))
    run_pipeline(config, str(tmp_path / "einsum"))
    assert len(calls) == 2
    for name in ("certificates.json", "lp_stats.json"):
        assert (tmp_path / "factors" / name).read_bytes() == \
            (tmp_path / "einsum" / name).read_bytes(), name


def test_certify_peak_is_a_small_multiple_of_the_tables_it_keeps(
        tmp_path, monkeypatch):
    # What SopData keeps: the successor table (8 bytes per table entry) and
    # the per-sample factors.  Besides them certify holds one scan block
    # (another 8 bytes per entry) and transients bounded by the chunk and
    # slice constants, so its traced peak stays within twice what it keeps
    # (1.7 times here); the row-stacked table and the one-shot scan and
    # distance copies of earlier versions came to 4.8 times, and a negated
    # copy of the disturbance distances per mu level to 2.03 times.
    config = PipelineConfig.from_mapping({"certify": {"sigma": FINE_SIGMA}})
    stage_sample(config, str(tmp_path))
    kept = {}
    instance = scenario.SopData.instance

    def spy(data, *args, **kwargs):
        kept.update({name: getattr(data, name).nbytes for name in (
            "x_plus", "successor_reps", "g_cur", "g_succ", "dist2_state",
            "dist2_dist")})
        return instance(data, *args, **kwargs)

    monkeypatch.setattr(scenario.SopData, "instance", spy)
    tracemalloc.start()
    try:
        stage_certify(config, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept["successor_reps"] == 8 * FINE_ENTRIES
    assert peak < 2.0 * sum(kept.values()), (peak, kept)


def test_abstract_peak_is_a_small_multiple_of_the_stored_table(tmp_path):
    # the table is enumerated in the file's uint8 dtype (one byte per
    # entry) and saved without a copy; with an int64 table and a sink row
    # the stage traced 5.88 MiB, 9.9 times the table
    config = PipelineConfig.from_mapping({"certify": {"sigma": FINE_SIGMA}})
    tracemalloc.start()
    try:
        stage_abstract(config, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.load(tmp_path / "abstraction_0.npy").nbytes == FINE_ENTRIES
    assert peak < 4 * FINE_ENTRIES, peak


def test_synthesize_peak_is_a_small_multiple_of_the_stored_table(tmp_path):
    # the table read back is the file's own uint8 array (one byte per
    # entry), and the game takes it in slices; widened to int64 the stage
    # traced ten times the file
    config = PipelineConfig.from_mapping({"certify": {"sigma": FINE_SIGMA}})
    stage_abstract(config, str(tmp_path))
    stored = os.path.getsize(tmp_path / "abstraction_0.npy")
    assert stored > FINE_ENTRIES
    tracemalloc.start()
    try:
        stage_synthesize(config, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * stored, (peak, stored)


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


def _steep_config(tmp_path):
    # a slope estimate 100 times too steep leaves the margin positive
    doc = yaml.safe_load(MINI_YAML)
    doc["certify"]["lipschitz"] = {"safety": 100}
    cfg = tmp_path / "steep.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    return cfg


DOWNSTREAM = ("composed.json", "simulation.json", "trajectories.csv")


def test_cli_uncertified_casestudy_exits_1_with_a_summary(mini_run, tmp_path,
                                                          capsys):
    # the directory holds an earlier, passing run, whose relation and
    # simulation must not be reported as this run's
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    cfg = _steep_config(tmp_path)
    rc = cli.main(["casestudy", "--config", str(cfg), "--out", str(run)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ""
    summary = (run / "summary.txt").read_text()
    assert captured.out == summary
    assert "subsystems certified: 0 of 3\n" in summary
    assert "certified: False\n" in summary
    assert "circularity_ok" not in summary and "simulation runs" not in summary
    assert summary.endswith("\nok: False\n")
    for name in DOWNSTREAM:
        assert not (run / name).exists(), name
    # abstract and synthesize do not need the certificate and still run
    assert (run / "controller_0.json").exists()
    assert "winning cells per subsystem: " in summary


def test_cli_certify_removes_what_it_invalidates(mini_run, tmp_path, capsys):
    # run stage by stage over a passing run's directory, a failed certify
    # leaves no relation or simulation of the old certificates behind
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    assert all((run / name).exists() for name in DOWNSTREAM)
    cfg = _steep_config(tmp_path)
    assert cli.main(["certify", "--config", str(cfg), "--out", str(run)]) == 1
    for name in DOWNSTREAM:
        assert not (run / name).exists(), name
    assert cli.main(["report", "--config", str(cfg), "--out", str(run)]) == 0
    summary = capsys.readouterr().out
    assert "certified: False\n" in summary
    for stale in ("circularity_ok", "eps_tilde", "all trajectories safe"):
        assert stale not in summary, stale
    assert summary.endswith("\nok: False\n")


@pytest.mark.parametrize("stage, removed", [
    ("compose", ()),
    ("abstract", ("synthesis.json", "controller_0.json")),
    ("synthesize", ()),
], ids=["compose", "abstract", "synthesize"])
def test_cli_later_stages_remove_the_simulation(mini_run, tmp_path, capsys,
                                                stage, removed):
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    cfg = tmp_path / "mini.yaml"
    cfg.write_text(MINI_YAML)
    assert cli.main([stage, "--config", str(cfg), "--out", str(run)]) == 0
    for name in ("simulation.json", "trajectories.csv") + removed:
        assert not (run / name).exists(), name
    assert (run / "composed.json").exists()
    assert cli.main(["report", "--config", str(cfg), "--out", str(run)]) == 0
    summary = capsys.readouterr().out
    assert "all trajectories safe" not in summary
    assert ("winning cells" in summary) == (not removed)
    assert summary.endswith("\nok: False\n")


def test_cli_compose_prints_plain_floats(mini_run, tmp_path, capsys):
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    cfg = tmp_path / "mini.yaml"
    cfg.write_text(MINI_YAML)
    assert cli.main(["compose", "--config", str(cfg), "--out", str(run)]) == 0
    comp = json.loads((run / "composed.json").read_text())
    assert capsys.readouterr().out == (
        f"circularity_ok: True\n"
        f"gamma={comp['gamma']!r} mu={comp['mu']!r} theta={comp['theta']!r} "
        f"confidence={comp['confidence']!r}\n")
    assert (run / "composed.json").read_bytes() == \
        (out / "composed.json").read_bytes()


@pytest.mark.parametrize("command", ["compose", "simulate"])
@pytest.mark.parametrize("edit", [
    {"basis": {"mode": "difference"}},
    {"basis": {"mode": "difference", "exponents": [[2], [0]]}},
    {"basis": {"mode": "difference", "exponents": [[6], [2], [0]]}},
    {"basis": {"mode": "difference", "exponents": [[3], [2], [0]]}},
    {"basis": {"mode": "difference", "exponents": []}},
    {"basis": {"mode": "general", "exponents": [[4], [2], [0]]}},
    {"phi": [1.0, 2.0]},
], ids=["no-exponents", "2-0", "6-2-0", "odd", "empty", "general", "phi"])
def test_certificate_with_another_basis_is_refused(mini_run, tmp_path, capsys,
                                                   command, edit):
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    path = run / "certificates.json"
    payload = json.loads(path.read_text())
    payload["certificates"][0].update(edit)
    path.write_text(json.dumps(payload))
    cfg = tmp_path / "mini.yaml"
    cfg.write_text(MINI_YAML)
    rc = cli.main([command, "--config", str(cfg), "--out", str(run)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error in stage {command}: {path}: ")
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
    rooms = 1 if text == MINI_YAML else 3
    for stem, files in (("abstraction", 2), ("controller", 1)):
        names = _artifact_names(whole, stem)
        assert _artifact_names(staged, stem) == names
        assert len(names) == files * rooms
        for name in names:
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), \
                name


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
