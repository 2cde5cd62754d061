"""Command-line interface: JSON scenes in, reports/CSV/manifests out.

Exit codes: 0 on success, 1 on usage or input errors (including blocked
experiment preconditions, a malformed replay manifest, a replayed scene
that no longer matches its manifest and an input too large to allocate,
such as a grid, sample size, replication count or repeat count beyond
the memory available), 2 when the experiment ran
but an acceptance verdict inside the report failed, 3 when an internal
invariant broke (a solver did not converge, a face failed the
commutation check, a count kernel disagreed with its oracle, a sample
mean left the hull of the atoms, or a replay wrote records whose digest
differs from the manifest's).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import re
import sys
import time
from typing import Optional

import numpy as np
import scipy

from . import __version__, simulate
from .geometry import (
    REL_TOL,
    ConvergenceError,
    ConvexBody,
    GeometryError,
    box_of,
    hausdorff,
    hausdorff_via_support,
    hull,
    nearest_point,
    point_distance,
    shapley_folkman_gap,
    support_face,
    tolerance,
)
from .randomsets import (
    WEIGHT_SUM_TOL,
    CommutationError,
    DiscreteRandomSet,
    NotExposed,
    expectation,
    expectation_face,
)
from .simulate import (
    ExperimentConfig,
    ExperimentReport,
    IncompatibleSelection,
    InsideBody,
    NoFacet,
    OracleMismatch,
)

SCENE_VERSION = 1
# simulate kind -> (experiment function in setmeans.simulate, required vector flag)
_EXPERIMENTS = {
    "lln": ("lln_experiment", None),
    "clt-hausdorff": ("clt_hausdorff_experiment", None),
    "clt-exposed": ("clt_exposed_experiment", "dir"),
    "clt-tangent": ("clt_tangent_experiment", "dir"),
    "clt-facet": ("clt_facet_experiment", "point"),
    "facet-freq": ("facet_frequency_experiment", "dir"),
}
SIMULATE_KINDS = tuple(_EXPERIMENTS)

_USAGE_ERRORS = (
    GeometryError,
    NotExposed,
    IncompatibleSelection,
    NoFacet,
    InsideBody,
    ValueError,
    OSError,
)


class SceneError(ValueError):
    """Scene file violates the schema; ``path`` locates the offending field."""

    def __init__(self, path: str, reason: str):
        self.path = path
        super().__init__(f"{path}: {reason}")


class UsageError(ValueError):
    pass


class ReplayMismatch(RuntimeError):
    """A replay wrote records whose digest differs from the manifest's."""


_INTERNAL_ERRORS = (ConvergenceError, CommutationError, OracleMismatch, ReplayMismatch)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token matching this as a value, not an option; its own
        # pattern takes plain negative numbers only, not vectors such as -1,0 or -.5,1
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse would sys.exit(2); keep 1 for usage errors
        raise UsageError(message)


# ---------------------------------------------------------------------------
# scene format

def _reject_constant(token: str):
    raise SceneError("$", f"non-finite literal {token!r} is not allowed")


def _scene_doc(text: str) -> dict:
    """Decode a JSON scene and check it against the schema."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SceneError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SceneError("$", "top level must be an object")
    if doc.get("version") != SCENE_VERSION:
        raise SceneError("version", f"unsupported version {doc.get('version')!r}, expected {SCENE_VERSION}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise SceneError("dim", "must be a positive integer")
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise SceneError("atoms", "must be a nonempty list")

    total = 0.0
    for i, atom in enumerate(atoms):
        where = f"atoms[{i}]"
        if not isinstance(atom, dict):
            raise SceneError(where, "must be an object")
        w = atom.get("weight")
        if not isinstance(w, (int, float)) or isinstance(w, bool) or not np.isfinite(w) or w <= 0:
            raise SceneError(f"{where}.weight", "must be a finite positive number")
        vertices = atom.get("vertices")
        if not isinstance(vertices, list) or not vertices:
            raise SceneError(f"{where}.vertices", "must be a nonempty list of points")
        for j, v in enumerate(vertices):
            if not isinstance(v, list) or len(v) != dim:
                raise SceneError(f"{where}.vertices[{j}]", f"must be a list of {dim} numbers")
            for c in v:
                if not isinstance(c, (int, float)) or isinstance(c, bool) or not np.isfinite(c):
                    raise SceneError(f"{where}.vertices[{j}]", "coordinates must be finite numbers")
        total += float(w)

    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise SceneError("atoms", f"weights sum to {total!r}, outside 1 +/- {WEIGHT_SUM_TOL}")
    return doc


def parse_scene(text: str) -> DiscreteRandomSet:
    """Parse a JSON scene into a random set; vertex lists are hulled."""
    atoms = _scene_doc(text)["atoms"]
    return DiscreteRandomSet(
        weights=np.array([float(atom["weight"]) for atom in atoms]),
        bodies=tuple(hull(np.asarray(atom["vertices"], dtype=float)) for atom in atoms),
    )


def load_scene(path: str) -> DiscreteRandomSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read())


def load_scene_point_sets(path: str) -> list[np.ndarray]:
    """Raw per-atom vertex lists, unhulled (interior points preserved)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _scene_doc(fh.read())
    return [np.asarray(atom["vertices"], dtype=float) for atom in doc["atoms"]]


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# report output

def _format_float(x: float) -> str:
    return repr(float(x))


def _records_csv(records: np.ndarray, sizes) -> bytes:
    """The ``records.csv`` bytes of an ``(R, S, k)`` records array (see ``write_report``)."""
    R, S, width = records.shape
    header = "replication,N,stat" if width == 1 else \
        "replication,N," + ",".join(f"stat_{i}" for i in range(width))
    # Most statistics are functions of a few draw counts, so few values are
    # distinct: repr each distinct bit pattern once (bits keep -0.0 apart from 0.0).
    bits, which = np.unique(np.ascontiguousarray(records, dtype=float).ravel().view(np.int64),
                            return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    # row r, s: "r," "N," value "," ... value "\n"
    cells = np.empty((R, S, 2 * width + 2), dtype=object)
    cells[:, :, 0] = np.array([f"{rep}," for rep in range(R)], dtype=object)[:, None]
    cells[:, :, 1] = np.array([f"{n}," for n in sizes], dtype=object)
    cells[:, :, 2::2] = text[which].reshape(R, S, width)
    cells[:, :, 3::2] = ","
    cells[:, :, -1] = "\n"
    return (header + "\n" + "".join(cells.ravel().tolist())).encode("utf-8")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n")


def write_report(report: ExperimentReport, out_dir: str,
                 manifest: Optional[dict] = None) -> dict:
    """Write report JSON, records CSV and (optionally) a manifest.

    The CSV is byte-stable for a fixed report: header
    ``replication,N,stat`` (scalar) or ``replication,N,stat_0,..``, then
    one row per checkpoint ``report.records[r, s]``, replication-major,
    then by size, each value Python's shortest round-trip ``repr`` of
    the float64, every row ending in ``\n``, the last one included.
    The manifest's ``records_sha256`` is the digest of exactly those
    bytes.  ``report.json`` keeps a ``discarded`` key, always 0, for its
    readers.  Returns the paths written, by artifact name.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.json"),
        "records": os.path.join(out_dir, "records.csv"),
    }
    data = _records_csv(report.records, report.config["sample_sizes"])
    with open(paths["records"], "wb") as fh:
        fh.write(data)

    R, S = report.records.shape[:2]
    _write_json(paths["report"], {
        "experiment": report.experiment,
        "config": report.config,
        "moments": report.moments,
        "verdicts": report.verdicts,
        "discarded": 0,
        "duration_seconds": report.duration_seconds,
        "passed": report.passed(),
        "record_count": R * S,
    })

    if manifest is not None:
        paths["manifest"] = os.path.join(out_dir, "manifest.json")
        manifest = dict(manifest)
        manifest["artifacts"] = ["report.json", "records.csv"]
        manifest["records_sha256"] = hashlib.sha256(data).hexdigest()
        manifest["versions"] = {"python": platform.python_version(), "numpy": np.__version__,
                                "scipy": scipy.__version__, "setmeans": __version__}
        _write_json(paths["manifest"], manifest)
    return paths


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_numbers(text: str, what: str, kind=float) -> list:
    """The comma-separated ``kind`` values of ``text``; empty parts are skipped."""
    try:
        values = [kind(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"invalid {what}: {text!r}") from exc
    if not values:
        raise UsageError(f"empty {what}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="setmeans",
                     description="Convex random-set expectations and sample-mean experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expectation", help="print the vertices of the expected body")
    p.add_argument("--scene", required=True)

    p = sub.add_parser("hausdorff", help="distances between the expectations of two scenes")
    p.add_argument("scene_a")
    p.add_argument("scene_b")
    p.add_argument("--grid", type=int, default=3600)

    p = sub.add_parser("face", help="support face of the expectation in a direction")
    p.add_argument("--scene", required=True)
    p.add_argument("--dir", required=True)

    p = sub.add_parser("nearest", help="nearest point of the expectation to a query point")
    p.add_argument("--scene", required=True)
    p.add_argument("--point", required=True)

    p = sub.add_parser("sfs-bound", help="raw-sum convexification gap of the scene's vertex sets")
    p.add_argument("--scene", required=True)
    p.add_argument("--repeat", type=int, default=1)

    p = sub.add_parser("simulate", help="run a seeded sample-mean experiment")
    p.add_argument("kind", choices=SIMULATE_KINDS)
    p.add_argument("--scene", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--dir", default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("replay", help="re-run a simulate command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    return parser


def _print_body(body: ConvexBody, file=None):
    for row in body.vertices:
        print(" ".join(_format_float(c) for c in row), file=file or sys.stdout)


def _run_simulate(kind: str, scene_path: str, seed: int, reps: int,
                  sizes: list[int], direction, point, out_dir: str,
                  recorded: Optional[dict] = None) -> int:
    """Run one experiment and write its artifacts.  ``recorded`` is the
    manifest of a run being replayed: its scene digest must match before
    the run and its records digest after it."""
    with open(scene_path, "rb") as fh:
        scene = fh.read()   # one read: the digest is of the bytes parsed
    scene_sha256 = hashlib.sha256(scene).hexdigest()
    if recorded is not None and scene_sha256 != recorded["scene_sha256"]:
        raise UsageError(f"scene {scene_path} has changed since the recorded run "
                         f"(sha256 {scene_sha256}, manifest {recorded['scene_sha256']})")
    y = parse_scene(scene.decode("utf-8"))
    config = ExperimentConfig(master_seed=seed, sample_sizes=sizes, replications=reps)
    fn_name, flag = _EXPERIMENTS[kind]
    # looked up per call, so a wrapper installed on setmeans.simulate is seen
    experiment = getattr(simulate, fn_name)
    if flag is None:
        report = experiment(y, config)
    else:
        vec = {"dir": direction, "point": point}[flag]
        if vec is None:
            raise UsageError(f"simulate {kind} requires --{flag}")
        vec = np.asarray(vec, dtype=float)
        if vec.shape[0] != y.dim:
            raise UsageError(f"--{flag} must have {y.dim} components")
        report = experiment(y, vec, config)

    manifest = {
        "command": "simulate",
        "kind": kind,
        "config": {
            "scene": scene_path,
            "seed": seed,
            "reps": reps,
            "sizes": list(sizes),
            "dir": list(direction) if direction is not None else None,
            "point": list(point) if point is not None else None,
        },
        "scene_sha256": scene_sha256,
        "master_seed": seed,
        "created_unix": int(time.time()),
    }
    paths = write_report(report, out_dir, manifest=manifest)
    print(f"wrote {paths['report']}")
    print(f"wrote {paths['records']}")
    if recorded is not None:
        records_sha256 = _file_sha256(paths["records"])
        if records_sha256 != recorded["records_sha256"]:
            raise ReplayMismatch(f"replayed records have sha256 {records_sha256}, "
                                 f"the manifest records {recorded['records_sha256']}")
    for name, verdict in report.verdicts.items():
        print(f"verdict {name}: {'pass' if verdict['pass'] else 'FAIL'}")
    if not report.passed():
        print(f"verdict failure: {', '.join(report.failed_verdicts())}", file=sys.stderr)
        return 2
    return 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_vector(value) -> bool:
    """None (flag not given) or a list of numbers."""
    return value is None or isinstance(value, list) and all(
        isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)


# manifest config key -> (validator, what a valid value is)
_REPLAY_FIELDS = {
    "scene": (lambda v: isinstance(v, str), "a path"),
    "seed": (_is_int, "an integer"),
    "reps": (_is_int, "an integer"),
    "sizes": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_int, v)),
              "a nonempty list of integers"),
    "dir": (_is_vector, "null or a list of numbers"),
    "point": (_is_vector, "null or a list of numbers"),
}


def _replay_config(manifest) -> dict:
    """The ``config`` of a simulate manifest, after checking every field replay reads."""
    if not isinstance(manifest, dict):
        raise UsageError("manifest must be a JSON object")
    if manifest.get("command") != "simulate" or manifest.get("kind") not in _EXPERIMENTS:
        raise UsageError("manifest does not describe a simulate run")
    for key in ("scene_sha256", "records_sha256"):
        if not isinstance(manifest.get(key), str):
            raise UsageError(f"manifest records no {key} digest")
    cfg = manifest.get("config")
    if not isinstance(cfg, dict):
        raise UsageError("manifest has no config object")
    for key, (valid, what) in _REPLAY_FIELDS.items():
        if not valid(cfg.get(key)):
            raise UsageError(f"manifest config.{key} must be {what}")
    return cfg


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process, built on first use; each
    ``parse_args`` call returns a fresh namespace, so no call sees another's."""
    return build_parser()


def run_command(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "expectation":
            _print_body(expectation(load_scene(args.scene)))
            return 0

        if args.command == "hausdorff":
            a = expectation(load_scene(args.scene_a))
            b = expectation(load_scene(args.scene_b))
            exact = hausdorff(a, b)
            approx = hausdorff_via_support(a, b, args.grid)
            print(f"exact {_format_float(exact)}")
            print(f"grid[m={args.grid}] {_format_float(approx)}")
            return 0

        if args.command == "face":
            y = load_scene(args.scene)
            direction = _parse_numbers(args.dir, "direction")
            cert = support_face(expectation(y), direction)
            face, _ = expectation_face(y, direction)   # the face rule: sum_j w_j F_j
            print("direction " + " ".join(_format_float(c) for c in cert.direction))
            print(f"support_value {_format_float(cert.support_value)}")
            print(f"is_exposed {str(face.vertex_count == 1).lower()}")
            if face.vertex_count > 1:
                print("facet_direction " + " ".join(_format_float(c) for c in cert.direction))
            print("face_vertices:")
            _print_body(face)
            return 0

        if args.command == "nearest":
            y = load_scene(args.scene)
            point = _parse_numbers(args.point, "point")
            ey = expectation(y)
            k = nearest_point(ey, point)
            print("nearest " + " ".join(_format_float(c) for c in k))
            print(f"distance {_format_float(point_distance(ey, point))}")
            return 0

        if args.command == "sfs-bound":
            if args.repeat < 1:
                raise UsageError("--repeat must be positive")
            sets = load_scene_point_sets(args.scene) * args.repeat
            gap, bound = shapley_folkman_gap(sets)
            print(f"sets {len(sets)}")
            print(f"gap {_format_float(gap)}")
            print(f"bound {_format_float(bound)}")
            slack = tolerance(REL_TOL, box_of(np.vstack(sets)))   # the gap's round-off
            print(f"within_bound {str(gap <= bound + slack).lower()}")
            return 0

        if args.command == "simulate":
            direction = _parse_numbers(args.dir, "direction") if args.dir is not None else None
            point = _parse_numbers(args.point, "point") if args.point is not None else None
            return _run_simulate(args.kind, args.scene, args.seed, args.reps,
                                 _parse_numbers(args.sizes, "sample sizes", int), direction,
                                 point, args.out)

        if args.command == "replay":
            with open(args.manifest, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            cfg = _replay_config(manifest)
            return _run_simulate(manifest["kind"], cfg["scene"], cfg["seed"], cfg["reps"],
                                 cfg["sizes"], cfg.get("dir"), cfg.get("point"),
                                 args.out, recorded=manifest)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SceneError as exc:
        print(f"error: scene: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:   # numpy's allocation failures are MemoryErrors too
        print(f"error: MemoryError: {str(exc) or 'the input needs more memory than is available'}",
              file=sys.stderr)
        return 1
    except _INTERNAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


def entry():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    entry()
