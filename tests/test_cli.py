import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialize_scene
from setmeans.cli import (
    SceneError,
    entry,
    load_scene_point_sets,
    parse_scene,
    run_command,
    write_report,
)
from setmeans.geometry import ConvergenceError, NormalFan, hull
from setmeans import simulate
from setmeans.randomsets import DiscreteRandomSet
from setmeans.simulate import ExperimentConfig, lln_experiment

SCENES = Path(__file__).resolve().parent.parent / "scenes"

TWO_SEGMENTS = json.dumps({
    "version": 1,
    "dim": 2,
    "atoms": [
        {"weight": 0.5, "vertices": [[0.0, 0.0], [1.0, 0.0]]},
        {"weight": 0.5, "vertices": [[0.0, 0.0], [0.0, 1.0]]},
    ],
})


def write_scene(tmp_path, text, name="scene.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# scene parsing

def test_parse_two_segment_scene():
    y = parse_scene(TWO_SEGMENTS)
    assert y.atom_count == 2
    assert y.dim == 2
    assert np.allclose(y.weights, [0.5, 0.5])


def test_parse_rejects_bad_weight_sum():
    doc = json.loads(TWO_SEGMENTS)
    doc["atoms"][1]["weight"] = 0.4
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert "atoms" in str(err.value)


def test_parse_prunes_interior_points():
    doc = json.loads(TWO_SEGMENTS)
    doc["atoms"][0]["vertices"] = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
    y = parse_scene(json.dumps(doc))
    assert y.bodies[0].vertex_count == 2


def test_parse_rejects_nan_literals():
    text = TWO_SEGMENTS.replace("1.0", "NaN", 1)
    with pytest.raises(SceneError):
        parse_scene(text)


def test_parse_rejects_bad_version_and_paths_in_errors():
    doc = json.loads(TWO_SEGMENTS)
    doc["version"] = 7
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert "version" in str(err.value)

    doc = json.loads(TWO_SEGMENTS)
    doc["atoms"][1]["vertices"][0] = [0.0]  # wrong dimension
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert "atoms[1].vertices[0]" in str(err.value)


def test_scene_round_trip():
    y = parse_scene(TWO_SEGMENTS)
    again = parse_scene(json.dumps(serialize_scene(y)))
    assert np.allclose(again.weights, y.weights, atol=1e-12)
    for a, b in zip(again.bodies, y.bodies):
        assert np.allclose(a.vertices, b.vertices, atol=1e-12)


@st.composite
def laws(draw):
    """Laws of 1..4 atoms in 1..3 dimensions: raw weights, and hulls of
    integer points times a power of two (exact in binary)."""
    dim = draw(st.integers(1, 3))
    factor = 2.0 ** draw(st.integers(-30, 30))
    point = st.lists(st.integers(-20, 20), min_size=dim, max_size=dim)
    atoms = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.01, 10.0), min_size=atoms, max_size=atoms))
    bodies = tuple(hull(factor * np.array(draw(st.lists(point, min_size=1, max_size=8))))
                   for _ in range(atoms))
    return DiscreteRandomSet(weights=np.array(weights) / sum(weights), bodies=bodies)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(laws())
def test_scene_round_trip_is_exact(y):
    again = parse_scene(json.dumps(serialize_scene(y)))
    assert np.array_equal(again.weights, y.weights)
    assert len(again.bodies) == len(y.bodies)
    for a, b in zip(again.bodies, y.bodies):
        assert np.array_equal(a.vertices, b.vertices)


def test_load_scene_point_sets_keeps_raw_points(tmp_path):
    doc = json.loads(TWO_SEGMENTS)
    doc["atoms"][0]["vertices"] = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
    path = write_scene(tmp_path, json.dumps(doc))
    sets = load_scene_point_sets(path)
    assert len(sets[0]) == 3  # interior point preserved for raw-sum enumeration


def test_load_scene_point_sets_decodes_once_and_validates(tmp_path, monkeypatch):
    doc = json.loads(TWO_SEGMENTS)
    doc["atoms"][1]["weight"] = 0.25
    bad = write_scene(tmp_path, json.dumps(doc), "bad.json")
    good = write_scene(tmp_path, TWO_SEGMENTS)
    decodes = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: decodes.append(1) or loads(*a, **kw))
    assert len(load_scene_point_sets(good)) == 2
    assert len(decodes) == 1
    with pytest.raises(SceneError, match="weights sum"):
        load_scene_point_sets(bad)


# ---------------------------------------------------------------------------
# commands

def test_expectation_command_prints_half_square(tmp_path, capsys):
    path = write_scene(tmp_path, TWO_SEGMENTS)
    assert run_command(["expectation", "--scene", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    got = {tuple(float(x) for x in line.split()) for line in out}
    assert got == {(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)}


def test_hausdorff_command(tmp_path, capsys):
    a = write_scene(tmp_path, TWO_SEGMENTS, "a.json")
    b = write_scene(tmp_path, TWO_SEGMENTS, "b.json")
    assert run_command(["hausdorff", a, b]) == 0
    out = capsys.readouterr().out
    assert "exact 0.0" in out


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    path = write_scene(tmp_path, TWO_SEGMENTS)
    assert run_command(["expectation", "--scene", path, "--bogus"]) == 1


def test_unreadable_scene_is_usage_error(capsys):
    assert run_command(["expectation", "--scene", "/no/such/file.json"]) == 1


def test_simulate_writes_artifacts_and_exits_zero(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    out = tmp_path / "run"
    rc = run_command([
        "simulate", "clt-exposed", "--scene", scene, "--dir", "1,1",
        "--seed", "42", "--reps", "60", "--sizes", "200", "--out", str(out),
    ])
    assert rc == 0
    csv = (out / "records.csv").read_text().splitlines()
    assert csv[0] == "replication,N,stat_0,stat_1"
    assert len(csv) == 1 + 60
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "clt-exposed"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "clt-exposed"
    assert manifest["master_seed"] == 42


def test_simulate_not_exposed_exits_one_naming_atom(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    rc = run_command([
        "simulate", "clt-exposed", "--scene", scene, "--dir", "1,0",
        "--seed", "1", "--reps", "30", "--sizes", "100", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "NotExposed" in err
    assert "atom(s) 2" in err


def test_simulate_verdict_failure_exits_two(tmp_path, capsys):
    # sizes 2 vs 8 have genuinely different scaled distributions: the
    # stability verdict must fail and the command must exit 2, not crash
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    rc = run_command([
        "simulate", "clt-hausdorff", "--scene", scene,
        "--seed", "5", "--reps", "500", "--sizes", "2,8", "--out", str(tmp_path / "v"),
    ])
    assert rc == 2
    assert "verdict failure" in capsys.readouterr().err


def test_simulate_missing_direction_is_usage_error(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    rc = run_command([
        "simulate", "clt-exposed", "--scene", scene,
        "--seed", "1", "--reps", "30", "--sizes", "100", "--out", str(tmp_path / "y"),
    ])
    assert rc == 1


def test_simulate_zero_replications_is_usage_error(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    rc = run_command([
        "simulate", "lln", "--scene", scene,
        "--seed", "1", "--reps", "0", "--sizes", "100", "--out", str(tmp_path / "z"),
    ])
    assert rc == 1


def test_simulate_rejects_seeds_outside_64_bits(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)

    def run(seed, name):
        return run_command(["simulate", "lln", "--scene", scene, "--seed", str(seed),
                            "--reps", "3", "--sizes", "4096", "--out", str(tmp_path / name)])

    assert run(2 ** 64, "over") == 1
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert run(-1, "negative") == 1
    assert not (tmp_path / "over").exists() and not (tmp_path / "negative").exists()
    assert run(2 ** 64 - 1, "top") == 0
    # a manifest edited to an out-of-range seed is refused by replay as well
    manifest = json.loads((tmp_path / "top" / "manifest.json").read_text())
    manifest["config"]["seed"] = 2 ** 64
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    assert run_command(["replay", str(tmp_path / "edited.json"),
                        "--out", str(tmp_path / "replayed")]) == 1


def test_replay_reproduces_records_byte_for_byte(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    argv = ["simulate", "lln", "--scene", scene, "--seed", "7",
            "--reps", "25", "--sizes", "16,64", "--out", str(out1)]
    assert run_command(argv) == 0
    assert run_command(["replay", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()


def test_replay_refuses_a_scene_edited_after_the_run(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    out1 = tmp_path / "r1"
    assert run_command(["simulate", "lln", "--scene", scene, "--seed", "7",
                        "--reps", "5", "--sizes", "16,64", "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert len(manifest["scene_sha256"]) == 64
    write_scene(tmp_path, TWO_SEGMENTS.replace("[1.0, 0.0]", "[2.0, 0.0]"))
    capsys.readouterr()
    assert run_command(["replay", str(out1 / "manifest.json"), "--out", str(tmp_path / "r2")]) == 1
    err = capsys.readouterr().err
    assert scene in err and "changed" in err
    assert not (tmp_path / "r2").exists()


def _recorded_run(tmp_path):
    """Manifest of a small lln run on the two-segment scene."""
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    out = tmp_path / "recorded"
    assert run_command(["simulate", "lln", "--scene", scene, "--seed", "7",
                        "--reps", "5", "--sizes", "16,64", "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())


def _replay_through_entry(tmp_path, manifest, capsys, monkeypatch):
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["setmeans", "replay", str(tmp_path / "edited.json"),
                                      "--out", str(tmp_path / "replayed")])
    with pytest.raises(SystemExit) as exc:
        entry()
    return exc.value.code, capsys.readouterr().err


def test_manifest_pins_versions_and_the_records_digest(tmp_path):
    manifest = _recorded_run(tmp_path)
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "setmeans"}
    records = (tmp_path / "recorded" / "records.csv").read_bytes()
    assert manifest["records_sha256"] == hashlib.sha256(records).hexdigest()


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("config"),
    lambda m: m.pop("records_sha256"),
    lambda m: m["config"].pop("scene"),
    lambda m: m["config"].update(scene=3),
    lambda m: m["config"].pop("seed"),
    lambda m: m["config"].update(seed="7"),
    lambda m: m["config"].update(reps=5.5),
    lambda m: m["config"].pop("sizes"),
    lambda m: m["config"].update(sizes=16),
    lambda m: m["config"].update(sizes=["16"]),
    lambda m: m["config"].update(dir=1.0),
], ids=["no-config", "no-records-digest", "no-scene", "scene-number", "no-seed", "seed-text",
        "reps-float", "no-sizes", "sizes-number", "sizes-text", "dir-number"])
def test_replay_refuses_a_malformed_manifest_with_one_error_line(
        tmp_path, capsys, monkeypatch, edit):
    manifest = _recorded_run(tmp_path)
    edit(manifest)
    code, err = _replay_through_entry(tmp_path, manifest, capsys, monkeypatch)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "replayed").exists()


def test_replay_refuses_a_manifest_that_is_not_an_object(tmp_path, capsys, monkeypatch):
    code, err = _replay_through_entry(tmp_path, [_recorded_run(tmp_path)], capsys, monkeypatch)
    assert code == 1
    assert err == "error: manifest must be a JSON object\n"


def test_replay_with_an_edited_records_digest_exits_three(tmp_path, capsys, monkeypatch):
    manifest = _recorded_run(tmp_path)
    recorded = manifest["records_sha256"]
    manifest["records_sha256"] = "0" * 64
    code, err = _replay_through_entry(tmp_path, manifest, capsys, monkeypatch)
    assert code == 3
    assert err.startswith("error: ReplayMismatch: ") and err.count("\n") == 1
    assert recorded in err and "0" * 64 in err


def test_replay_rejects_an_unknown_kind(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    manifest = {"command": "simulate", "kind": "bogus",
                "config": {"scene": scene, "seed": 1, "reps": 3, "sizes": [4],
                           "dir": [0.0, -1.0], "point": None}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert run_command(["replay", str(tmp_path / "manifest.json"),
                        "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_rerun_same_command_is_byte_stable(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = run_command([
            "simulate", "clt-tangent", "--scene", scene, "--dir", "1,0",
            "--seed", "11", "--reps", "40", "--sizes", "64,256", "--out", str(out),
        ])
        assert rc == 0
        outs.append((out / "records.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sfs_bound_command(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    assert run_command(["sfs-bound", "--scene", scene, "--repeat", "2"]) == 0
    out = capsys.readouterr().out
    assert "within_bound true" in out


def test_sfs_bound_on_a_3d_scene_exits_one(tmp_path, capsys):
    scene = write_scene(tmp_path, json.dumps({
        "version": 1,
        "dim": 3,
        "atoms": [
            {"weight": 0.5, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            {"weight": 0.5, "vertices": [[0, 0, 0], [1, 1, 1]]},
        ],
    }))
    assert run_command(["sfs-bound", "--scene", scene]) == 1
    err = capsys.readouterr().err
    assert "GeometryError" in err
    assert "affine rank <= 2" in err


def test_face_and_nearest_commands(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    assert run_command(["face", "--scene", scene, "--dir", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "is_exposed true" in out
    assert run_command(["nearest", "--scene", scene, "--point", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "nearest 0.5 0.5" in out


def test_shipped_scene_fixtures_parse():
    for name in ("two_segments.json", "stacked_squares.json", "side_by_side_squares.json"):
        y = parse_scene((SCENES / name).read_text())
        assert isinstance(y, DiscreteRandomSet)


def test_exit_codes_through_the_binary(tmp_path):
    scene = write_scene(tmp_path, TWO_SEGMENTS)

    def invoke(*argv):
        return subprocess.run([sys.executable, "-m", "setmeans.cli", *argv],
                              capture_output=True, text=True)

    ok = invoke("expectation", "--scene", scene)
    assert ok.returncode == 0

    usage = invoke("simulate", "clt-exposed", "--scene", scene, "--dir", "1,0",
                   "--seed", "1", "--reps", "30", "--sizes", "100",
                   "--out", str(tmp_path / "u"))
    assert usage.returncode == 1
    assert "NotExposed" in usage.stderr

    failed = invoke("simulate", "clt-hausdorff", "--scene", scene, "--seed", "5",
                    "--reps", "500", "--sizes", "2,8", "--out", str(tmp_path / "f"))
    assert failed.returncode == 2


def test_lln_below_unit_scale_is_the_unit_run_scaled(tmp_path, capsys):
    doc = json.loads(TWO_SEGMENTS)
    for atom in doc["atoms"]:
        atom["vertices"] = (1e-6 * np.array(atom["vertices"])).tolist()
    unit = write_scene(tmp_path, TWO_SEGMENTS, "unit.json")
    small = write_scene(tmp_path, json.dumps(doc), "small.json")
    argv = ["simulate", "lln", "--seed", "1", "--reps", "20", "--sizes", "16,64"]
    run_command(argv + ["--scene", unit, "--out", str(tmp_path / "unit")])
    assert run_command(argv + ["--scene", small, "--out", str(tmp_path / "small")]) == 0
    capsys.readouterr()
    want, got = (np.loadtxt(tmp_path / d / "records.csv", delimiter=",", skiprows=1)
                 for d in ("unit", "small"))
    assert np.array_equal(got[:, :2], want[:, :2])
    assert np.allclose(got[:, 2], 1e-6 * want[:, 2], rtol=1e-9, atol=0.0)


def scaled_scene(text: str, factor: float) -> str:
    doc = json.loads(text)
    for atom in doc["atoms"]:
        atom["vertices"] = (factor * np.array(atom["vertices"])).tolist()
    return json.dumps(doc)


def test_face_of_a_tiny_scene_is_the_unit_face_scaled(tmp_path, capsys):
    scene = write_scene(tmp_path, scaled_scene(TWO_SEGMENTS, 1e-10))
    assert run_command(["face", "--scene", scene, "--dir", "1,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    support_value = float(lines[1].split()[1])
    assert support_value == pytest.approx(1e-10 / np.sqrt(2.0), rel=1e-12)
    assert lines[2] == "is_exposed true"
    assert np.allclose([float(c) for c in lines[-1].split()], [5e-11, 5e-11], rtol=1e-12, atol=0)


def test_face_of_a_rare_near_tie_is_the_mean_of_the_atom_faces(tmp_path, capsys):
    # weighted by 0.01, atom 2's runner-up vertex lies 2e-10 below the top of E
    scene = write_scene(tmp_path, json.dumps({"version": 1, "dim": 2, "atoms": [
        {"weight": 0.99, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
        {"weight": 0.01, "vertices": [[0, 0], [1, -2e-8]]}]}))
    assert run_command(["face", "--scene", scene, "--dir", "0,-1"]) == 0
    out = capsys.readouterr().out
    assert "is_exposed false" in out
    assert out.split("face_vertices:\n")[1].splitlines() == ["0.01 -2e-10", "1.0 -2e-10"]


def test_facet_freq_runs_on_a_law_with_a_near_tie(tmp_path, capsys):
    # atom 2's runner-up vertex lies 2e-8 below its exposed vertex in
    # direction (0, -1): the mean's face is still the mean of the atom faces
    scene = write_scene(tmp_path, json.dumps({"version": 1, "dim": 2, "atoms": [
        {"weight": 0.9, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
        {"weight": 0.1, "vertices": [[0, 0], [1, -2e-8]]}]}))
    out = tmp_path / "out"
    code = run_command(["simulate", "facet-freq", "--scene", scene, "--dir", "0,-1", "--seed", "1",
                        "--reps", "50", "--sizes", "16", "--out", str(out)])
    assert code in (0, 2), capsys.readouterr().err
    records = np.loadtxt(out / "records.csv", delimiter=",", skiprows=1)
    assert (records[:, 2] == 1.0).all()   # atom 1 has the bottom facet; every mean inherits it


def test_clt_facet_on_a_tiny_scene_is_the_unit_run_scaled(tmp_path, capsys):
    text = (SCENES / "stacked_squares.json").read_text()
    argv = ["simulate", "clt-facet", "--seed", "3", "--reps", "40", "--sizes", "4,16"]
    for name, factor in (("unit", 1.0), ("tiny", 1e-10)):
        scene = write_scene(tmp_path, scaled_scene(text, factor), f"{name}.json")
        point = f"{0.5 * factor},{-1.0 * factor}"
        assert run_command(argv + ["--scene", scene, "--point", point,
                                   "--out", str(tmp_path / name)]) in (0, 2)
    capsys.readouterr()
    want, got = (np.loadtxt(tmp_path / d / "records.csv", delimiter=",", skiprows=1)
                 for d in ("unit", "tiny"))
    assert np.allclose(got[:, 2], 1e-10 * want[:, 2], rtol=1e-9, atol=1e-24)
    reports = [json.loads((tmp_path / d / "report.json").read_text()) for d in ("unit", "tiny")]
    assert reports[0]["moments"]["excursions"] == reports[1]["moments"]["excursions"]


def _not_converging(*args):
    raise ConvergenceError("min-norm solver did not converge")


_fan_hausdorff = NormalFan.hausdorff


def _fan_off_by_1e6(fan, coefs, ref):
    return _fan_hausdorff(fan, coefs, ref) + 1e-6


def _off_by_1e6(kernel):
    return lambda *args: kernel(*args) + 1e-6


_fan_point_distance = NormalFan.point_distance


@pytest.mark.parametrize("argv, target, value, error", [
    (["nearest", "--scene", "{scene}", "--point", "2,2"],
     "setmeans.geometry._min_norm_point", _not_converging, "ConvergenceError"),
    (["simulate", "clt-exposed", "--scene", "{scene}", "--dir", "1,1", "--seed", "1",
      "--reps", "3", "--sizes", "4", "--out", "{out}"],
     "setmeans.randomsets.COMMUTATION_TOL", -1.0, "CommutationError"),
    (["simulate", "lln", "--scene", "{scene}", "--seed", "1", "--reps", "3",
      "--sizes", "16,64", "--out", "{out}"],
     "setmeans.geometry.NormalFan.hausdorff", _fan_off_by_1e6, "OracleMismatch"),
    (["simulate", "clt-exposed", "--scene", "{scene}", "--dir", "1,1", "--seed", "1",
      "--reps", "3", "--sizes", "4", "--out", "{out}"],
     "setmeans.simulate._fold", _off_by_1e6(simulate._fold), "OracleMismatch"),
    (["simulate", "clt-tangent", "--scene", "{scene}", "--dir", "1,0", "--seed", "1",
      "--reps", "3", "--sizes", "4", "--out", "{out}"],
     "setmeans.simulate._fold", _off_by_1e6(simulate._fold), "OracleMismatch"),
    (["simulate", "clt-facet", "--scene", "{stacked}", "--point", "0.5,-1", "--seed", "1",
      "--reps", "3", "--sizes", "4", "--out", "{out}"],
     "setmeans.geometry.NormalFan.point_distance", _off_by_1e6(_fan_point_distance),
     "OracleMismatch"),
    (["simulate", "facet-freq", "--scene", "{scene}", "--dir", "0,-1", "--seed", "1",
      "--reps", "3", "--sizes", "4", "--out", "{out}"],
     "setmeans.simulate._facet_kernel", _off_by_1e6(simulate._facet_kernel), "OracleMismatch"),
])
def test_broken_internal_invariants_exit_three_without_traceback(
        tmp_path, capsys, monkeypatch, argv, target, value, error):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    argv = [a.format(scene=scene, stacked=SCENES / "stacked_squares.json", out=tmp_path / "out")
            for a in argv]
    monkeypatch.setattr(target, value)
    monkeypatch.setattr(sys, "argv", ["setmeans", *argv])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# write_report

def test_write_report_csv_shape_and_stability(tmp_path):
    y = parse_scene(TWO_SEGMENTS)
    cfg = ExperimentConfig(master_seed=2, sample_sizes=(8, 32), replications=10)
    report = lln_experiment(y, cfg)
    p1 = write_report(report, str(tmp_path / "w1"))
    p2 = write_report(report, str(tmp_path / "w2"))
    b1 = Path(p1["records"]).read_bytes()
    assert b1 == Path(p2["records"]).read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "replication,N,stat"
    assert len(lines) == 1 + 10 * 2
