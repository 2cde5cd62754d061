"""Fresh-process set-up time: import setmeans, load scenes, prepare experiments.

Usage: python3 setup_probe.py '<json spec>'.  The spec names the source
directory and, per command, its kind, scene and --dir/--point.  Prints
``{"setup_s": ...}``: the time from the start of this script until every
scene is parsed and hulled, its expectation is built and the
experiment's pre-loop preparation (selection, support variance or facet
inheritance) is done.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(spec: dict) -> float:
    sys.path.insert(0, spec["src"])
    from setmeans.cli import load_scene
    from setmeans.randomsets import (
        expectation,
        exposed_selection,
        facet_inheritance,
        nearest_point_selection,
        tangent_variance,
    )

    for cmd in spec["commands"]:
        y = load_scene(cmd["scene"])
        expectation(y)
        vec = cmd["direction"] or cmd["point"]
        vec = [float(c) for c in vec.split(",")] if vec else None
        if cmd["kind"] == "clt-exposed":
            exposed_selection(y, vec)
        elif cmd["kind"] == "clt-tangent":
            tangent_variance(y, vec)
        elif cmd["kind"] == "clt-facet":
            nearest_point_selection(y, vec)
        elif cmd["kind"] == "facet-freq":
            facet_inheritance(y, vec, 1)
    return time.perf_counter() - START


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(json.loads(sys.argv[1]))}))
