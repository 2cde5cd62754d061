"""Tests of the benchmark itself: smoke runs, the correctness gate and the tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy is used)

run.import_program()

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload,seed", [("boundary-scenes", 42), ("lln-poly2d", 7),
                                           ("lln-poly2d", 42)])
def test_smoke_run_prints_every_end_to_end_metric(workload, seed):
    proc, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                        "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric():
    proc, lines = bench("--workload", "lln-poly2d", "--seed", "3", "--seconds", "0",
                        "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["geometry.hausdorff.calls"]["value"] > 0


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc, lines = bench("--workload", "lln-poly2d", "--seed", "1", "--seconds", "1",
                        cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def _smoke_pass(workload, seed, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    commands, _ = workloads.prepare(workload, seed, str(tmp_path), str(ROOT), smoke=True)
    done = run.Pass(commands, seed, str(tmp_path / "out"))
    return commands, done


def _results(commands, done):
    return [gate.read_result(c, code, out)
            for c, code, out in zip(commands, done.exit_codes, done.out_dirs)]


def _perturb(out_dir, rep, delta):
    path = Path(out_dir) / "records.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if int(fields[0]) == rep:
            fields[-1] = repr(float(fields[-1]) + delta)
            lines[i] = ",".join(fields)
            break
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", [42, 7])
def test_perturbed_record_trips_the_gate(seed, tmp_path):
    commands, done = _smoke_pass("boundary-scenes", seed, tmp_path)
    reference = gate.load_reference("boundary-scenes", seed)
    assert (reference is not None) == (seed == workloads.DEFAULT_SEED)
    failed, reasons = gate.check(_results(commands, done), seed, reference,
                                 verdicts_required=False)
    assert failed == 0, reasons

    # without a reference only the oracle's replications are recomputed
    tangent = next(i for i, c in enumerate(commands) if c.name == "clt-tangent")
    rep = min(gate.oracle_reps(commands[tangent], seed))
    _perturb(done.out_dirs[tangent], rep, 1e-6)
    failed, reasons = gate.check(_results(commands, done), seed, reference,
                                 verdicts_required=False)
    assert failed >= 1
    assert any("clt-tangent" in r for r in reasons)


def test_tracer_keeps_records_identical_and_restores_every_name(tmp_path):
    import setmeans.geometry as geometry
    import setmeans.simulate as simulate

    originals = {name: getattr(geometry, name) for name in tracer.TRACED["geometry"]}
    commands, plain = _smoke_pass("lln-poly2d", 5, tmp_path / "plain")
    t = tracer.Tracer()
    with t.installed():
        assert simulate.hausdorff is not originals["hausdorff"]
        assert geometry.hull is not originals["hull"]
        traced = run.Pass(commands, 5, str(tmp_path / "traced"))
    assert traced.digest == plain.digest
    assert all(getattr(geometry, name) is fn for name, fn in originals.items())
    assert simulate.hausdorff is originals["hausdorff"]

    table = t.table()
    assert len(table["id"]) > 0
    assert np.all(table["self"] >= 0)
    assert np.all(table["self"] <= table["end"] - table["start"])
    metrics = tracer.layer_metrics(t, workloads.HAUSDORFF_TAIL_PCT["lln-poly2d"])
    assert metrics["geometry.point_distance.per_hausdorff"] > 1
    assert 0 < metrics["geometry.minkowski_sum.kept_frac"] < 1
    assert 0 < metrics["geometry.hausdorff.call_ms_p50"] <= metrics["geometry.hausdorff.call_ms_hi"]


def test_records_per_s_counts_only_the_experiment_calls(tmp_path):
    commands, done = _smoke_pass("boundary-scenes", 11, tmp_path)
    assert 0 < done.records <= sum(c.records_per_pass for c in commands)
    assert 0 < done.experiment_s < sum(done.command_s)
    assert done.records_per_s == done.records / done.experiment_s


def test_decile_takes_the_slow_side_of_the_passes():
    rates = [24.0, 25.0, 44.0, 45.0, 46.0, 43.0, 24.5, 45.5, 44.5, 23.0, 46.5]
    assert run.decile(rates, low=True) == pytest.approx(24.0)
    assert run.decile([1.0 / r for r in rates], low=False) == pytest.approx(1.0 / 24.0)
    assert run.decile([3.0], low=True) == 3.0


def test_self_time_is_duration_minus_child_spans():
    t = tracer.Tracer()
    t.spans = [(2, 1, 0, 10, 20), (3, 1, 0, 30, 35), (4, 3, 0, 31, 32), (1, 0, 1, 0, 100)]
    table = t.table()
    self_time = dict(zip(table["id"].tolist(), table["self"].tolist()))
    assert self_time == {1: 85, 2: 10, 3: 4, 4: 1}


def test_law_generator_is_seeded_with_fixed_shapes():
    from setmeans.cli import parse_scene
    from setmeans.randomsets import expectation

    law = workloads.LAW_2D
    doc = workloads.generate_scene(law, 3)
    assert doc == workloads.generate_scene(law, 3)
    assert doc != workloads.generate_scene(law, 4)
    assert all(len(atom["vertices"]) == law.points for atom in doc["atoms"])
    y = parse_scene(json.dumps(doc))
    assert y.atom_count == law.atoms
    assert all(body.vertex_count == law.hull_vertices for body in y.bodies)
    assert expectation(y).vertex_count == law.atoms * law.hull_vertices
