"""Digests of the see-saw's and the simulator's outputs, to show that a
change to either leaves every output bit-identical.

Usage: python tools/output_digest.py

Prints a sha256 of each output's bytes, per case:
  seesaw    quantum.qmax_seesaw at 32 restarts for the five named
            inequalities at dims (2,2), (3,3) and (4,4), seeds 0, 1 and 7:
            the value, the state and the projector set (Alice's, then Bob's)
  simulate  simkit.run_experiment on known_optimal_model for pentagon-1,
            pentagon-2 and pentagon-3 at 10^6 shots, visibility 0.9, seeds
            1 and 7: the report's repr, which holds every float exactly

Run it on two checkouts and compare the outputs with diff.  Uses the
standard library and numpy; pentabell is imported from the repository's
src directory.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pentabell import quantum, simkit  # noqa: E402
from pentabell.scenarios import named_inequality  # noqa: E402

INEQUALITIES = ("pentagon-1", "pentagon-2", "pentagon-3", "chsh-prob", "i3322")
DIMS = ((2, 2), (3, 3), (4, 4))
SEEDS = (0, 1, 7)
PENTAGONS = ("pentagon-1", "pentagon-2", "pentagon-3")
SIM_SEEDS = (1, 7)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    for name in INEQUALITIES:
        iq = named_inequality(name)
        for dims in DIMS:
            for seed in SEEDS:
                value, model = quantum.qmax_seesaw(iq, dims=dims, restarts=32, seed=seed)
                projectors = b"".join(p.tobytes() for p in model.alice + model.bob)
                digests = (sha(np.float64(value).tobytes()), sha(model.state.tobytes()), sha(projectors))
                print(f"seesaw {name} {dims[0]}x{dims[1]} seed {seed}: value {digests[0]}")
                print(f"    state {digests[1]}")
                print(f"    projectors {digests[2]}")
    for name in PENTAGONS:
        iq, model = named_inequality(name), quantum.known_optimal_model(name)
        for seed in SIM_SEEDS:
            report = simkit.run_experiment(iq, model, simkit.SimConfig(10**6, seed, 0.9))
            print(f"simulate {name} seed {seed}: {sha(repr(report).encode())}")


if __name__ == "__main__":
    main()
