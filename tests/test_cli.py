import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import FAR_POLYGON, FAR_QUERY, exact_nearest, records_csv, serialize_scene
from setmeans.cli import (
    SceneError,
    entry,
    load_scene_point_sets,
    parse_scene,
    run_command,
    write_report,
)
from setmeans.geometry import (
    REL_TOL,
    ROUNDOFF,
    ConvergenceError,
    NormalFan,
    _fold,
    box_of,
    hull,
    tolerance,
)
from setmeans import cli, simulate
from setmeans.randomsets import DiscreteRandomSet
from setmeans.simulate import ExperimentConfig, ExperimentReport, lln_experiment

SCENES = Path(__file__).resolve().parent.parent / "scenes"

TWO_SEGMENTS = json.dumps({
    "version": 1,
    "dim": 2,
    "atoms": [
        {"weight": 0.5, "vertices": [[0.0, 0.0], [1.0, 0.0]]},
        {"weight": 0.5, "vertices": [[0.0, 0.0], [0.0, 1.0]]},
    ],
})


CUBE = json.dumps({
    "version": 1,
    "dim": 3,
    "atoms": [{"weight": 1.0, "vertices": [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                                           for z in (0.0, 1.0)]}],
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


def edited_scene(edit) -> str:
    doc = json.loads(TWO_SEGMENTS)
    edit(doc)
    return json.dumps(doc)


BAD_SCENES = {   # id -> (scene text, the field its error names)
    "invalid-json": ('{"version": 1, "dim": 2', "$"),
    "top-level-list": ("[1, 2]", "$"),
    "dim-zero": (edited_scene(lambda d: d.update(dim=0)), "dim"),
    "dim-text": (edited_scene(lambda d: d.update(dim="2")), "dim"),
    "atoms-empty": (edited_scene(lambda d: d.update(atoms=[])), "atoms"),
    "atom-number": (edited_scene(lambda d: d["atoms"].__setitem__(0, 0.5)), "atoms[0]"),
    "weight-negative": (edited_scene(lambda d: d["atoms"][1].update(weight=-0.5)),
                        "atoms[1].weight"),
    "weight-text": (edited_scene(lambda d: d["atoms"][0].update(weight="0.5")), "atoms[0].weight"),
    "vertices-empty": (edited_scene(lambda d: d["atoms"][1].update(vertices=[])),
                       "atoms[1].vertices"),
    # json reads 1e999 as an infinite float, not as a constant
    "coordinate-1e999": (TWO_SEGMENTS.replace("1.0", "1e999", 1), "atoms[0].vertices[1]"),
}


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

    for case, (text, path) in BAD_SCENES.items():
        with pytest.raises(SceneError) as err:
            parse_scene(text)
        assert err.value.path == path and str(err.value).startswith(f"{path}: "), case


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


def test_a_scene_whose_box_overflows_exits_one(tmp_path, capsys):
    # the squared diagonal of this triangle overflows; it once printed the origin
    doc = {"version": 1, "dim": 2,
           "atoms": [{"weight": 1.0, "vertices": [[0, 0], [1e200, 0], [0, 1e200]]}]}
    assert run_command(["expectation", "--scene", write_scene(tmp_path, json.dumps(doc))]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "GeometryError" in captured.err


# 10**15 values or list slots of 8 bytes lie beyond any address space, so
# numpy and the list repeat refuse each allocation before touching a page
@pytest.mark.parametrize("argv", [
    ["hausdorff", "{scene}", "{scene}", "--grid", "1000000000000000"],
    ["simulate", "lln", "--scene", "{scene}", "--seed", "1", "--reps", "10",
     "--sizes", "1000000000000000", "--out", "{out}"],
    ["simulate", "lln", "--scene", "{scene}", "--seed", "1", "--reps", "1000000000000000",
     "--sizes", "10", "--out", "{out}"],
    ["sfs-bound", "--scene", "{scene}", "--repeat", "1000000000000000"],
])
def test_an_input_too_large_to_allocate_exits_one(tmp_path, capsys, argv):
    argv = [a.format(scene=write_scene(tmp_path, TWO_SEGMENTS), out=tmp_path / "out") for a in argv]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, text, error", [
    *[(["expectation", "--scene", "{scene}"], text, f"error: scene: {path}: ")
      for text, path in BAD_SCENES.values()],
    (["simulate", "clt-exposed", "--scene", "{scene}", "--dir", "1,1,1", "--seed", "1",
      "--reps", "30", "--sizes", "100", "--out", "{out}"], TWO_SEGMENTS,
     "error: --dir must have 2 components"),
    (["sfs-bound", "--scene", "{scene}", "--repeat", "0"], TWO_SEGMENTS,
     "error: --repeat must be positive"),
], ids=[*BAD_SCENES, "dir-components", "repeat-zero"])
def test_a_rejected_input_exits_one_with_one_error_line_naming_the_field(
        tmp_path, capsys, argv, text, error):
    argv = [a.format(scene=write_scene(tmp_path, text), out=tmp_path / "out") for a in argv]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(error) and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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


def test_simulate_and_replay_hash_the_scene_bytes_they_parse(tmp_path, capsys, monkeypatch):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    opened, parsed = [], []

    def recording_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    parse = cli.parse_scene
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    monkeypatch.setattr(cli, "parse_scene", lambda text: parsed.append(text) or parse(text))
    out = tmp_path / "run"
    assert run_command(["simulate", "lln", "--scene", scene, "--seed", "7",
                        "--reps", "5", "--sizes", "16,64", "--out", str(out)]) == 0
    assert run_command(["replay", str(out / "manifest.json"), "--out", str(tmp_path / "again")]) == 0
    assert opened.count(scene) == 2 and len(parsed) == 2   # one read per command
    recorded = json.loads((out / "manifest.json").read_text())["scene_sha256"]
    assert [hashlib.sha256(text.encode()).hexdigest() for text in parsed] == [recorded] * 2


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


@pytest.mark.parametrize("factor", [1e-13, 1.0])
def test_sfs_bound_reports_a_gap_one_percent_over_the_bound(tmp_path, capsys, monkeypatch, factor):
    from setmeans import cli, geometry

    def over(sets):
        _, bound = geometry.shapley_folkman_gap(sets)
        return 1.01 * bound, bound

    monkeypatch.setattr(cli, "shapley_folkman_gap", over)
    scene = write_scene(tmp_path, scaled_scene(TWO_SEGMENTS, factor))
    assert run_command(["sfs-bound", "--scene", scene, "--repeat", "2"]) == 0
    assert "within_bound false" in capsys.readouterr().out


def test_sfs_bound_on_a_law_with_too_many_raw_sums_exits_one(tmp_path, capsys):
    # 12^6 raw sums: the sixth step would exceed SFS_MAX_SUMS = 2^18
    rng = np.random.default_rng(6)
    atoms = [{"weight": 1.0 / 6.0, "vertices": rng.normal(size=(12, 2)).tolist()} for _ in range(6)]
    scene = write_scene(tmp_path, json.dumps({"version": 1, "dim": 2, "atoms": atoms}))
    assert run_command(["sfs-bound", "--scene", scene]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: GeometryError: the raw sum would enumerate 2985984 sums, more than "
                   "the limit of 262144"]


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


def test_nearest_on_a_small_polygon_far_from_the_origin(tmp_path, capsys):
    # Wolfe's solver ran out of iterations on this scene (exit 3)
    scene = write_scene(tmp_path, json.dumps({"version": 1, "dim": 2, "atoms": [
        {"weight": 1.0, "vertices": FAR_POLYGON}]}))
    point = ",".join(repr(c) for c in FAR_QUERY)
    assert run_command(["nearest", "--scene", scene, "--point", point]) == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    d2, p = exact_nearest(FAR_POLYGON, FAR_QUERY)
    tol = tolerance(REL_TOL, box_of(np.array(FAR_POLYGON))) + ROUNDOFF * max(map(abs, FAR_QUERY))
    assert abs(float(lines["distance"]) - np.sqrt(float(d2))) <= tol
    assert np.allclose([float(c) for c in lines["nearest"].split()], np.array(p, dtype=float),
                       rtol=0, atol=tol)


FAR_POLYTOPE = [[17414.816850227584, 64309.299865368994, -70952.84394554459],
                [17414.81748952428, 64309.301143962395, -70952.84394554459],
                [17414.81812882098, 64309.301143962395, -70952.84458484128],
                [17414.81876811768, 64309.299865368994, -70952.84458484128],
                [17414.81876811768, 64309.301143962395, -70952.84522413799]]
FAR_POLYTOPE_QUERY = "17414.818074140145,64309.30113113589,-70952.84474386563"
# the distance in exact rational arithmetic on these floats: the least over the
# vertex subsets whose affine min-norm point has nonnegative weights
FAR_POLYTOPE_DISTANCE = 1.38194616977073014855e-4


def test_nearest_on_a_small_polytope_far_from_the_origin(tmp_path, capsys):
    # Wolfe's solver cycled on a round-off stall here and ran out of iterations (exit 3)
    scene = write_scene(tmp_path, json.dumps({"version": 1, "dim": 3, "atoms": [
        {"weight": 1.0, "vertices": FAR_POLYTOPE}]}))
    assert run_command(["nearest", "--scene", scene, "--point", FAR_POLYTOPE_QUERY]) == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    tol = tolerance(REL_TOL, box_of(np.array(FAR_POLYTOPE)))
    assert abs(float(lines["distance"]) - FAR_POLYTOPE_DISTANCE) <= tol


@pytest.mark.parametrize("sizes", ["16,x", ","])
def test_malformed_sample_sizes_are_one_usage_error_line(tmp_path, capsys, sizes):
    assert run_command(["simulate", "lln", "--scene", str(SCENES / "two_segments.json"),
                        "--seed", "1", "--reps", "3", "--sizes", sizes,
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "sample sizes" in err[0]


@pytest.mark.parametrize("kind, extra", [
    ("clt-exposed", ["--dir", "1,1"]),
    ("clt-tangent", ["--dir", "1,0"]),
    ("clt-facet", ["--point", "0.5,-1"]),
    ("clt-hausdorff", []),
])
def test_too_few_replications_for_a_ks_verdict_fail_before_drawing(
        tmp_path, capsys, monkeypatch, kind, extra):
    def no_draws(*args):
        raise AssertionError("drew before checking --reps")

    monkeypatch.setattr(simulate, "_count_blocks", no_draws)
    scene = SCENES / ("stacked_squares.json" if kind == "clt-facet" else "two_segments.json")
    assert run_command(["simulate", kind, "--scene", str(scene), "--seed", "1", "--reps", "19",
                        "--sizes", "4,16", "--out", str(tmp_path / "out"), *extra]) == 1
    err = capsys.readouterr().err
    assert err == "error: ValueError: the KS verdict needs at least 20 replications, got 19\n"


def test_few_replications_are_fine_without_a_ks_verdict(tmp_path, capsys):
    # both atoms have support 0 in direction (-1, -1): the predicted variance is 0
    assert run_command(["simulate", "clt-tangent", "--scene", str(SCENES / "two_segments.json"),
                        "--dir", "-1,-1", "--seed", "1", "--reps", "3", "--sizes", "4,16",
                        "--out", str(tmp_path / "out")]) == 0
    assert "verdict variance: pass" in capsys.readouterr().out


def test_negative_vectors_are_values_not_options(tmp_path, capsys):
    two_segments, stacked = str(SCENES / "two_segments.json"), str(SCENES / "stacked_squares.json")
    assert run_command(["face", "--scene", two_segments, "--dir", "-1,0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("direction -1.0 0.0\n")
    assert "is_exposed false" in out
    assert run_command(["nearest", "--scene", stacked, "--point", "-1,0.5"]) == 0
    assert capsys.readouterr().out == "nearest 0.0 0.5\ndistance 1.0\n"
    assert run_command(["nearest", "--scene", stacked, "--point", "-.5,-1"]) == 0
    assert capsys.readouterr().out.startswith("nearest 0.0 0.5\n")
    out_dir = tmp_path / "exposed"
    assert run_command(["simulate", "clt-exposed", "--scene", two_segments, "--dir", "-1,1",
                        "--seed", "1", "--reps", "30", "--sizes", "4,16",
                        "--out", str(out_dir)]) in (0, 2)
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["direction"] == [-1.0, 1.0]
    # an option with its value left out is still a usage error
    assert run_command(["face", "--scene", two_segments, "--dir"]) == 1
    assert "expected one argument" in capsys.readouterr().err


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


def test_a_2d_run_never_loads_scipy_spatial(tmp_path):
    # two atoms with interior points and a point on an edge, which the loader hulls away
    scene = write_scene(tmp_path, json.dumps({"version": 1, "dim": 2, "atoms": [
        {"weight": 0.4, "vertices": [[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2],
                                     [0, 0], [0.5, 0.5], [-1, 1], [1.5, 1]]},
        {"weight": 0.6, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0], [0.25, 0.5]]},
    ]}))
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "from setmeans.cli import run_command",
        f"assert run_command(['expectation', '--scene', {str(SCENES / 'stacked_squares.json')!r}]) == 0",
        f"for i, path in enumerate([{scene!r}, {str(SCENES / 'side_by_side_squares.json')!r}]):",
        "    assert run_command(['simulate', 'lln', '--scene', path, '--seed', '1', '--reps', '20',"
        f" '--sizes', '16,256', '--out', {str(tmp_path / 'lln')!r} + str(i)]) == 0",
        "from setmeans.geometry import ConvexBody",
        "assert len(ConvexBody([[0, 0], [0, 1], [1, 0.5], [2, 0], [2, 1]])._walk[1]) == 4",  # a raw polygon
        "assert 'scipy.spatial' not in sys.modules, 'a 2-D run loaded scipy.spatial'",
        "from setmeans.geometry import hull",
        "assert hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.1, 0.1, 0.1]]).vertex_count == 4",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for i in (0, 1):
        assert (tmp_path / f"lln{i}" / "records.csv").exists()


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


def _off_at_the_last_size(kernel):
    """``kernel`` with 1e-6 added at the last sample size of each ``(B, S, ...)``
    block only: the in-run oracle must check every size, not just the first."""
    def off(*args):
        out = kernel(*args)
        if np.ndim(out) >= 2:
            out[:, -1] += 1e-6
        return out
    return off


def _off_beyond_the_oracle(kernel):
    """``kernel`` with 10 added from replication 1 on of each ``(B, S, ...)``
    block: the oracle checks replication 0 only, so the distances must
    break the convexity bound (no mean is farther from E than an atom)."""
    def off(*args):
        out = kernel(*args)
        if np.ndim(out) >= 2:
            out[1:] += 10.0
        return out
    return off


_fan_point_distance = NormalFan.point_distance


@pytest.mark.parametrize("argv, target, value, error", [
    (["nearest", "--scene", "{cube}", "--point", "2,2,2"],
     "setmeans.geometry._min_norm_point", _not_converging, "ConvergenceError"),
    (["simulate", "clt-exposed", "--scene", "{scene}", "--dir", "1,1", "--seed", "1",
      "--reps", "3", "--sizes", "4", "--out", "{out}"],
     "setmeans.randomsets.COMMUTATION_TOL", -1.0, "CommutationError"),
    (["simulate", "lln", "--scene", "{scene}", "--seed", "1", "--reps", "3",
      "--sizes", "16,64", "--out", "{out}"],
     "setmeans.geometry.NormalFan.hausdorff", _fan_off_by_1e6, "OracleMismatch"),
    (["simulate", "clt-exposed", "--scene", "{scene}", "--dir", "1,1", "--seed", "1",
      "--reps", "20", "--sizes", "4", "--out", "{out}"],
     "setmeans.simulate._fold", _off_by_1e6(_fold), "OracleMismatch"),
    (["simulate", "clt-tangent", "--scene", "{scene}", "--dir", "1,0", "--seed", "1",
      "--reps", "20", "--sizes", "4", "--out", "{out}"],
     "setmeans.simulate._fold", _off_by_1e6(_fold), "OracleMismatch"),
    (["simulate", "clt-facet", "--scene", "{stacked}", "--point", "0.5,-1", "--seed", "1",
      "--reps", "20", "--sizes", "4", "--out", "{out}"],
     "setmeans.geometry.NormalFan.point_distance", _off_by_1e6(_fan_point_distance),
     "OracleMismatch"),
    (["simulate", "facet-freq", "--scene", "{scene}", "--dir", "0,-1", "--seed", "1",
      "--reps", "3", "--sizes", "4", "--out", "{out}"],
     "setmeans.simulate._facet_kernel", _off_by_1e6(simulate._facet_kernel), "OracleMismatch"),
    (["simulate", "lln", "--scene", "{scene}", "--seed", "1", "--reps", "3",
      "--sizes", "16,64", "--out", "{out}"],
     "setmeans.geometry.NormalFan.hausdorff", _off_at_the_last_size(_fan_hausdorff),
     "OracleMismatch"),
    (["simulate", "clt-exposed", "--scene", "{scene}", "--dir", "1,1", "--seed", "1",
      "--reps", "20", "--sizes", "4,16", "--out", "{out}"],
     "setmeans.simulate._fold", _off_at_the_last_size(_fold), "OracleMismatch"),
    (["simulate", "lln", "--scene", "{scene}", "--seed", "1", "--reps", "30",
      "--sizes", "16,64", "--out", "{out}"],
     "setmeans.geometry.NormalFan.hausdorff", _off_beyond_the_oracle(_fan_hausdorff),
     "OracleMismatch"),
])
def test_broken_internal_invariants_exit_three_without_traceback(
        tmp_path, capsys, monkeypatch, argv, target, value, error):
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    cube = write_scene(tmp_path, CUBE, "cube.json")   # Wolfe's solver runs off 2-D only
    argv = [a.format(scene=scene, cube=cube, stacked=SCENES / "stacked_squares.json",
                     out=tmp_path / "out") for a in argv]
    monkeypatch.setattr(target, value)
    monkeypatch.setattr(sys, "argv", ["setmeans", *argv])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ")
    assert "Traceback" not in err


THRESHOLDS = {
    "lln": {"median_max": 0.05, "slope_range": [-0.65, -0.35]},
    "clt-hausdorff": {"ks_alpha": 0.01},
    "clt-exposed": {"direction": [1.0, 1.0], "cov_atol": 0.03, "ks_alpha": 0.01},
    "clt-tangent": {"direction": [1.0, 0.0], "variance_rtol": 0.1, "ks_alpha": 0.01},
    "clt-facet": {"point": [0.5, -1.0], "variance_rtol": 0.1, "degenerate_atol": 1e-3,
                  "ks_alpha": 0.01},
    "facet-freq": {"direction": [0.0, -1.0]},
}


@pytest.mark.parametrize("kind, scene, extra", [
    ("lln", "two_segments", []),
    ("clt-hausdorff", "two_segments", []),
    ("clt-exposed", "two_segments", ["--dir", "1,1"]),
    ("clt-tangent", "two_segments", ["--dir", "1,0"]),
    ("clt-facet", "stacked_squares", ["--point", "0.5,-1"]),
    ("facet-freq", "two_segments", ["--dir", "0,-1"]),
])
def test_reports_echo_the_verdict_thresholds(kind, scene, extra, tmp_path, capsys):
    out = tmp_path / kind
    code = run_command(["simulate", kind, "--scene", str(SCENES / f"{scene}.json"), "--seed", "4",
                        "--reps", "30", "--sizes", "4,16,64", "--out", str(out), *extra])
    assert code in (0, 2), capsys.readouterr().err
    config = json.loads((out / "report.json").read_text())["config"]
    assert config == {"master_seed": 4, "sample_sizes": [4, 16, 64], "replications": 30,
                      **THRESHOLDS[kind]}


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


# Values whose shortest round-trip repr a fixed-precision format gets wrong:
# the sign of zero, the least subnormal, the switch to exponent notation
# below 1e-4 and from 1e16 on.
REPR_EDGES = [-0.0, 0.0, 5e-324, 1e-05, 0.0001, 1e16, 9999999999999998.0]


@st.composite
def records_and_sizes(draw):
    shape = (draw(st.integers(1, 50)), draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    values = st.one_of(st.floats(width=64), st.sampled_from(REPR_EDGES))
    records = draw(hnp.arrays(np.float64, shape, elements=values))
    sizes = draw(st.lists(st.integers(1, 10 ** 9), min_size=shape[1], max_size=shape[1]))
    return records, sizes


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(records_and_sizes())
@example((np.array(REPR_EDGES).reshape(1, 7, 1), list(range(1, 8))))
@example((np.array(REPR_EDGES[:6]).reshape(2, 1, 3), [5]))
@example((np.array(REPR_EDGES * 2).reshape(7, 2, 1), [1, 10 ** 9]))
def test_write_report_records_are_the_value_by_value_oracle(tmp_path_factory, case):
    records, sizes = case
    report = ExperimentReport(experiment="lln", config={"sample_sizes": sizes}, records=records,
                              moments={}, verdicts={})
    out = tmp_path_factory.mktemp("report")
    paths = write_report(report, str(out), manifest={"command": "simulate"})
    data = Path(paths["records"]).read_bytes()
    assert data == records_csv(records, sizes).encode("utf-8")
    doc = json.loads(Path(paths["report"]).read_text())
    assert doc["record_count"] == records.shape[0] * records.shape[1] == data.count(b"\n") - 1
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert manifest["records_sha256"] == hashlib.sha256(data).hexdigest()


def test_calls_through_the_shared_parser_are_independent(tmp_path, capsys):
    cli._parser.cache_clear()
    scene = write_scene(tmp_path, TWO_SEGMENTS)
    assert run_command(["expectation", "--scene", scene]) == 0
    first = capsys.readouterr().out
    assert run_command(["simulate", "clt-exposed", "--scene", scene, "--dir", "1,1",
                        "--seed", "42", "--reps", "60", "--sizes", "200",
                        "--out", str(tmp_path / "exposed")]) == 0
    assert run_command(["simulate", "lln", "--scene", scene, "--seed", "7",
                        "--reps", "5", "--sizes", "16,64", "--out", str(tmp_path / "lln")]) == 0
    manifest = json.loads((tmp_path / "lln" / "manifest.json").read_text())
    assert manifest["config"]["dir"] is None
    assert run_command(["expectation", "--scene", scene, "--bogus"]) == 1
    capsys.readouterr()
    assert run_command(["expectation", "--scene", scene]) == 0
    assert capsys.readouterr().out == first
