import dataclasses
import json
import os
import shutil
import sys
import textwrap

import numpy as np
import pytest
import yaml

from symabs import cli
from symabs.errors import ConfigError, RefinementError
from symabs.model import RoomNetworkParams, build_room_network
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
    read_controller,
    run_pipeline,
    stage_abstract,
    stage_certify,
    stage_compose,
    stage_report,
    stage_sample,
    stage_simulate,
    stage_synthesize,
    write_abstraction,
    write_controller,
)
from symabs.quantize import make_grid, product_grid
from symabs.scenario import draw_samples, min_sample_size
from symabs.synthesize import enumerate_abstraction, safety_synthesis

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


def test_config_rejects_unknown_keys():
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


def test_computed_sample_size_matches_direct_call():
    config = mini_config()
    q, unknowns = computed_sample_size(config, state_dim=1)
    assert unknowns == 7  # quartic scalar basis: z=3 plus gamma eta theta xi
    assert q == min_sample_size([0.2], 0.05, 7)


def test_sample_batch_mapping_roundtrip():
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    batch = draw_samples(rooms[0].signature, 17, seed=9)
    back = batch_from_mapping(batch_to_mapping(batch))
    assert back.seed == batch.seed
    assert back.count == 17
    assert np.array_equal(back.points, batch.points)


def test_abstraction_file_roundtrip(tmp_path):
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    sg = make_grid([(-0.5, 0.5)], 0.125)
    dg = product_grid([sg, sg])
    fts = enumerate_abstraction(rooms[0], sg, dg)
    path = tmp_path / "abstraction.csv"
    write_abstraction(path, fts)
    # the body is byte-identical to one formatted row per transition
    n_s, n_u, n_d = fts.table[:-1].shape
    body = "".join(f"{s},{u},{d},{fts.table[s, u, d]}\n" for s in range(n_s)
                   for u in range(n_u) for d in range(n_d))
    assert path.read_text().split("state,input,dist,successor\n")[1] == body
    back = read_abstraction(path)
    assert np.array_equal(back.table, fts.table)
    assert back.state_grid.cells_per_dim == fts.state_grid.cells_per_dim
    assert np.allclose(back.state_grid.box, fts.state_grid.box)
    assert np.isclose(back.state_grid.sigma, fts.state_grid.sigma)
    assert np.allclose(back.inputs, fts.inputs)
    assert np.allclose(back.dist_grid.box, fts.dist_grid.box)


def test_controller_file_roundtrip(tmp_path):
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    sg = make_grid([(-0.5, 0.5)], 0.05)
    dg = product_grid([sg, sg])
    fts = enumerate_abstraction(rooms[0], sg, dg)
    path = tmp_path / "controller.csv"
    for safe in (range(2, 8), []):  # the empty winning set has no body rows
        ctrl = safety_synthesis(fts, safe=safe)
        assert (ctrl.winning_states.size > 0) == bool(safe)
        write_controller(path, ctrl)
        back = read_controller(path, fts)
        assert np.array_equal(back.winning, ctrl.winning)
        assert np.array_equal(back.chosen, ctrl.chosen)


def _corrupt(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "transitions, expected"),
    (lambda lines: lines[:-1] + [lines[5]], "repeated"),
    (lambda lines: lines[:-1] + ["0,0,1,2\n", lines[-1]], "transitions, expected"),
    (lambda lines: lines[:-1] + ["4,0,8,0\n"], "out of range"),
    (lambda lines: lines[:-1] + ["3,4,8,5\n"], "out of range"),
    (lambda lines: lines[:-1] + ["3,4,8,-1\n"], "out of range"),
    (lambda lines: lines[:-1] + ["3,4,8\n"], "columns"),
])
def test_abstraction_file_rejects_corrupt_body(tmp_path, edit, message):
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    sg = make_grid([(-0.5, 0.5)], 0.125)  # 4 cells, 5 inputs, 16 dist cells
    fts = enumerate_abstraction(rooms[0], sg, product_grid([sg, sg]))
    path = tmp_path / "abstraction.csv"
    write_abstraction(path, fts)
    assert path.read_text().endswith(f"3,4,15,{fts.table[3, 4, 15]}\n")
    _corrupt(path, edit)
    with pytest.raises(ConfigError, match=message) as err:
        read_abstraction(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + [lines[2]], "repeated"),
    (lambda lines: lines + ["20,0\n"], "out of range"),
    (lambda lines: lines + ["0,5\n"], "out of range"),
    (lambda lines: lines + ["0,x\n"], "could not convert"),
])
def test_controller_file_rejects_corrupt_body(tmp_path, edit, message):
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    sg = make_grid([(-0.5, 0.5)], 0.05)  # 20 cells, 5 inputs
    fts = enumerate_abstraction(rooms[0], sg, product_grid([sg, sg]))
    ctrl = safety_synthesis(fts, safe=range(2, 8))
    assert not ctrl.winning[0]
    path = tmp_path / "controller.csv"
    write_controller(path, ctrl)
    _corrupt(path, edit)
    with pytest.raises(ConfigError, match=message) as err:
        read_controller(path, fts)
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
    batches, shared = _load_or_draw_samples(config, out, bundle, q)
    assert shared
    assert batches[0].points[0][0] == 0.123456
    # a q mismatch forces a fresh draw of the requested size
    batches, _ = _load_or_draw_samples(config, out, bundle, q + 1)
    assert batches[0].count == q + 1
    assert batches[0].points[0][0] != 0.123456


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
    for i in range(3):
        assert (out / f"abstraction_{i}.csv").exists()
        assert (out / f"controller_{i}.csv").exists()
    assert "ok: True" in result.summary


def test_mini_pipeline_is_deterministic(mini_run, tmp_path):
    config, out, _ = mini_run
    again = tmp_path / "again"
    run_pipeline(config, str(again))
    for name in ("samples.json", "certificates.json", "composed.json",
                 "trajectories.csv", "summary.txt"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


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


def test_cli_rooms_override(tmp_path):
    out = tmp_path / "rooms_out"
    cfg = tmp_path / "mini.yaml"
    # sharing off so the batch count exposes the room count
    doc = yaml.safe_load(MINI_YAML)
    doc["certify"]["share_identical"] = False
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
