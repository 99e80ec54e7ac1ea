"""Generate the Monte Carlo reference probabilities in mc_reference.json.

    python3 heatbench/mc_reference.py

Each reference runs the same procedure as the benchmark op (same model,
grid, horizon, radius and event), with HIT_N or WINDOW_N paths, from SEED.
The file also stores those configurations; the benchmark refuses a
reference whose configurations differ from its own.  It checks every op's
estimate against these values with a two-sided binomial bound at
checks.MC_Z.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from heatrates import kernels as kn  # noqa: E402
from heatrates import simulate as sim  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 20150826
HIT_N = 40000
WINDOW_N = 6000


def main() -> int:
    null = spans.NullRecorder()
    results: dict = {"hit-short": {}, "window-long": {}}
    slot = 0
    for preset, cfg in wl.HIT_CONFIGS.items():
        t = time.perf_counter()
        model = kn.from_id(preset)
        scheme = sim.DyadicBlocks(per_block=wl.HIT_SHORT["per_block"])
        seed = wl.op_seed(SEED, 0, slot)
        p = wl.hit_estimate(model, cfg, seed, HIT_N, scheme, null)
        results["hit-short"][preset] = {"p": p, "n": HIT_N}
        print(f"hit-short {preset}: p = {p:.5f} ({time.perf_counter() - t:.1f} s)", file=sys.stderr)
        slot += 1
    for event, cfg in wl.WINDOW_CONFIGS.items():
        t = time.perf_counter()
        model = kn.from_id(cfg["preset"])
        scheme = sim.DyadicBlocks(per_block=wl.WINDOW_LONG["per_block"])
        seed = wl.op_seed(SEED, 0, slot)
        p = wl.window_estimate(event, model, seed, WINDOW_N, scheme, null)
        results["window-long"][event] = {"p": p, "n": WINDOW_N}
        print(f"window-long {event}: p = {p:.5f} ({time.perf_counter() - t:.1f} s)", file=sys.stderr)
        slot += 1

    doc = {"seed": SEED, **wl.reference_configs(), "results": results}
    wl.REFERENCE_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
