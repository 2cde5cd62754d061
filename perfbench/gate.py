"""Correctness gate: records checked against a slow oracle and a reference.

The oracle recomputes a seeded subset of replications along the slow
public path: counts from ``rng.uniforms``, ``sample_many`` and
``bincount``, the mean body folded with ``scale`` and ``minkowski_sum``,
then ``hausdorff``, ``support_face`` or ``point_distance``.  On the
default seed every record is also compared with the committed reference
of that workload.  Values are compared within 1e-9 * (1 + envelope) on
the unscaled geometric quantity, never byte for byte, so kernels that
change results at the ULP level still pass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from workloads import DEFAULT_SEED, Command

REL_TOL = 1e-9
ORACLE_REPS = 6      # replications recomputed per command

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass
class CommandResult:
    """What one command produced: exit code and the parsed records.csv."""

    command: Command
    exit_code: int
    records: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    report: dict = field(default_factory=dict)


def read_result(command: Command, exit_code: int, out_dir: str) -> CommandResult:
    path = os.path.join(out_dir, "records.csv")
    if not os.path.exists(path):
        return CommandResult(command, exit_code)
    records = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return CommandResult(command, exit_code, records, report)


def _scale(kind: str, n: int) -> float:
    """Factor between a record's statistic and the geometric quantity."""
    return 1.0 if kind in ("lln", "facet-freq") else float(np.sqrt(n))


def _mean_body(y, counts, n):
    from setmeans.geometry import minkowski_sum, scale

    acc = None
    for body, c in zip(y.bodies, counts):
        if c:
            piece = scale(body, c / n)
            acc = piece if acc is None else minkowski_sum(acc, piece)
    return acc


def oracle_records(command: Command, seed: int, reps) -> tuple[dict, float]:
    """Unscaled statistics of the given replications, keyed by (rep, N), and
    the comparison tolerance.  A replication whose exposed face is tied at
    some size has no records (the experiment discards it)."""
    from setmeans.cli import load_scene
    from setmeans.geometry import hausdorff, point_distance, support_face
    from setmeans.randomsets import expectation, sample_many
    from setmeans.rng import uniforms

    y = load_scene(command.scene)
    ey = expectation(y)
    u = None if command.direction is None else \
        np.array([float(c) for c in command.direction.split(",")])
    x = None if command.point is None else \
        np.array([float(c) for c in command.point.split(",")])
    out = {}
    for rep in reps:
        draws = sample_many(y, uniforms(seed, rep, command.sizes[-1]))
        rows = {}
        for n in command.sizes:
            mean = _mean_body(y, np.bincount(draws[:n], minlength=y.atom_count), n)
            if command.kind == "lln":
                value = [hausdorff(mean, ey)]
            elif command.kind == "clt-exposed":
                face = support_face(mean, u).face
                if face.vertex_count != 1:
                    rows = {}
                    break
                value = face.vertices[0] - support_face(ey, u).face.vertices[0]
            elif command.kind == "clt-tangent":
                value = [support_face(mean, u).support_value - support_face(ey, u).support_value]
            elif command.kind == "clt-facet":
                value = [point_distance(mean, x) - point_distance(ey, x)]
            else:  # facet-freq
                value = [1.0 if support_face(mean, u).face.vertex_count >= 2 else 0.0]
            rows[(rep, n)] = np.asarray(value, dtype=float)
        out.update(rows)
    return out, REL_TOL * (1.0 + y.envelope)


def oracle_reps(command: Command, seed: int) -> set[int]:
    rng = np.random.default_rng([seed & (2 ** 64 - 1), command.reps, len(command.sizes)])
    count = min(ORACLE_REPS, command.reps)
    return {int(r) for r in rng.choice(command.reps, size=count, replace=False)}


def _by_key(records: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    return {(int(r[0]), int(r[1])): r[2:] for r in records}


def count_mismatches(kind: str, records: np.ndarray, expected: dict, reps: set[int],
                     tol: float, scaled: bool) -> int:
    """Records of replications ``reps`` that are missing, extra or off by
    more than ``tol`` against ``expected``.  ``scaled`` says ``expected``
    holds record statistics rather than unscaled geometric values."""
    got = {k: v for k, v in _by_key(records).items() if k[0] in reps}
    bad = len(got.keys() ^ expected.keys())
    for key in got.keys() & expected.keys():
        factor = _scale(kind, key[1])
        have = got[key] / factor
        want = expected[key] / factor if scaled else expected[key]
        if have.shape != want.shape or np.any(np.abs(have - want) > tol):
            bad += 1
    return bad


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.npz")


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED or not os.path.exists(reference_path(workload)):
        return None
    return np.load(reference_path(workload))


def check(results: list[CommandResult], seed: int, reference,
          verdicts_required: bool) -> tuple[int, list[str]]:
    """Failed record count and reasons for one pass of a workload.

    A command that errored, or failed a verdict where verdicts are
    required, fails all its expected records.
    """
    failed = 0
    reasons = []
    for res in results:
        cmd = res.command
        expected_count = cmd.records_per_pass
        if res.exit_code not in ((0,) if verdicts_required else (0, 2)) or res.records.size == 0:
            failed += expected_count
            reasons.append(f"{cmd.name}: exit code {res.exit_code}")
            continue
        accounted = len(res.records) + int(res.report["discarded"]) * len(cmd.sizes)
        if accounted != expected_count:
            failed += abs(expected_count - accounted)
            reasons.append(f"{cmd.name}: {accounted} records accounted for, "
                           f"expected {expected_count}")
        reps = oracle_reps(cmd, seed)
        expected, tol = oracle_records(cmd, seed, reps)
        bad = count_mismatches(cmd.kind, res.records, expected, reps, tol, scaled=False)
        if bad:
            failed += bad
            reasons.append(f"{cmd.name}: {bad} records disagree with the oracle")
        if reference is None or f"{cmd.name}.records" not in reference:
            continue
        ref = _by_key(reference[f"{cmd.name}.records"])
        reps = set(range(cmd.reps))
        ref = {k: v for k, v in ref.items() if k[0] in reps}
        bad = count_mismatches(cmd.kind, res.records, ref, reps, tol, scaled=True)
        if bad:
            failed += bad
            reasons.append(f"{cmd.name}: {bad} records disagree with the reference")
        if cmd.reps != int(reference[f"{cmd.name}.reps"]):
            continue
        # counts that only the full run determines (is_facet_at excursions)
        counts = {"discarded": res.report["discarded"],
                  "excursions": res.report["moments"].get("excursions")}
        for key, got in counts.items():
            want = reference.get(f"{cmd.name}.{key}")
            if want is not None and got != int(want):
                failed += 1
                reasons.append(f"{cmd.name}: {key} {got} != reference {int(want)}")
    return failed, reasons
