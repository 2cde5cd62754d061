"""Workload definitions and the seeded law generator.

A workload is a list of ``setmeans simulate`` commands.  The benchmark
seed feeds both the generated laws and each command's ``--seed``, so the
same seed always gives the same inputs and the same records.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

DEFAULT_SEED = 42   # the seed of the committed reference records

# Generated laws are 2-D: each atom is a hexagon with evenly spread
# vertex directions under a random rotation, jittered, at radius SPREAD,
# plus interior points that the scene loader must hull away; centres lie
# in [-CENTRE_OFFSET, CENTRE_OFFSET]^2.  With every atom a hexagon, E has
# 48 vertices whatever the seed, so the per-record cost (an exact
# Hausdorff distance grows with the vertex counts) stays the same.
SPREAD = 0.1
CENTRE_OFFSET = 0.2
JITTER = 0.15


@dataclass(frozen=True)
class Law:
    atoms: int
    points: int          # points per atom written to the scene
    hull_vertices: int   # of which this many are extreme


LAW_2D = Law(atoms=8, points=12, hull_vertices=6)


@dataclass(frozen=True)
class Command:
    """One ``simulate`` invocation; ``scene`` names a shipped scene file
    or, when ``law`` is set, the file the generated law is written to."""

    name: str
    kind: str
    scene: str
    reps: int
    sizes: tuple[int, ...]
    direction: Optional[str] = None
    point: Optional[str] = None
    law: Optional[Law] = None
    smoke_reps: int = 20

    def argv(self, seed: int, out_dir: str) -> list[str]:
        argv = ["simulate", self.kind, "--scene", self.scene, "--seed", str(seed),
                "--reps", str(self.reps), "--sizes", ",".join(map(str, self.sizes)),
                "--out", out_dir]
        if self.direction is not None:
            argv += ["--dir", self.direction]
        if self.point is not None:
            argv += ["--point", self.point]
        return argv

    def smoke(self) -> "Command":
        return replace(self, reps=self.smoke_reps)

    @property
    def records_per_pass(self) -> int:
        return self.reps * len(self.sizes)


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # Shipped scenes at their acceptance-test configurations: tiny bodies,
    # many replications; cost sits in the fold, support_face and the RNG.
    "boundary-scenes": (
        Command("clt-exposed", "clt-exposed", "scenes/two_segments.json", 2000, (1000,),
                direction="1,1"),
        Command("clt-tangent", "clt-tangent", "scenes/two_segments.json", 2000, (1000,),
                direction="1,0"),
        Command("clt-facet", "clt-facet", "scenes/stacked_squares.json", 2000, (1000,),
                point="0.5,-1"),
        Command("facet-freq", "facet-freq", "scenes/two_segments.json", 10000, (3,),
                direction="0,-1", smoke_reps=50),
    ),
    # The headline 2-D law: cost splits between the fold and exact Hausdorff.
    "lln-poly2d": (
        Command("lln", "lln", "law2d.json", 10, (16, 64, 256, 1024, 4096),
                law=LAW_2D, smoke_reps=2),
    ),
}


# geometry.hausdorff.call_ms_hi is this percentile of one traced pass's
# hausdorff calls: the highest with at least ten calls beyond it (a pass
# makes about 2006 calls on boundary-scenes and 58 on lln-poly2d).  It is
# fixed per workload so that parent and change report the same percentile.
HAUSDORFF_TAIL_PCT = {"boundary-scenes": 99.0, "lln-poly2d": 80.0}


def _atom_points(rng: np.random.Generator, law: Law) -> np.ndarray:
    from setmeans.geometry import hull

    k = law.hull_vertices
    angles = 2.0 * np.pi * np.arange(k) / k + rng.uniform(0.0, 2.0 * np.pi)
    while True:  # redraw until every jittered direction is extreme
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        dirs += JITTER * rng.normal(size=(k, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vertices = SPREAD * dirs * rng.uniform(0.9, 1.1, size=(k, 1))
        if hull(vertices).vertex_count == k:
            break
    centroid = vertices.mean(axis=0)
    mix = rng.dirichlet(np.ones(k), size=law.points - k)
    return np.vstack([vertices, centroid + 0.5 * (mix @ vertices - centroid)])


def generate_scene(law: Law, seed: int) -> dict:
    """Scene document of a seeded random 2-D law (JSON-ready)."""
    rng = np.random.default_rng([seed & (2 ** 64 - 1), law.atoms, law.points])
    centres = rng.uniform(-CENTRE_OFFSET, CENTRE_OFFSET, size=(law.atoms, 2))
    weights = rng.uniform(0.5, 1.5, size=law.atoms)
    weights /= weights.sum()
    atoms = [{"weight": float(w), "vertices": (c + _atom_points(rng, law)).tolist()}
             for w, c in zip(weights, centres)]
    return {"version": 1, "dim": 2, "atoms": atoms}


def prepare(workload: str, seed: int, work_dir: str, root: str,
            smoke: bool = False) -> tuple[list[Command], dict]:
    """Write generated scenes into ``work_dir`` and resolve scene paths.

    Returns the commands to run and a description of their inputs (scene
    sha256 and the vertex count of the expectation).
    """
    from setmeans.cli import load_scene
    from setmeans.randomsets import expectation

    commands = []
    inputs = {}
    for cmd in WORKLOADS[workload]:
        if cmd.law is not None:
            path = os.path.join(work_dir, cmd.scene)
            text = json.dumps(generate_scene(cmd.law, seed))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            path = os.path.join(root, cmd.scene)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        inputs[cmd.name] = {
            "scene": os.path.relpath(path, root),
            "sha256": digest,
            "e_vertices": expectation(load_scene(path)).vertex_count,
        }
        cmd = replace(cmd, scene=path)
        commands.append(cmd.smoke() if smoke else cmd)
    return commands, inputs
