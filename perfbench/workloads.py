"""Workload definitions: the CLI commands each benchmark pass runs, in order.

Every workload is a full round trip as a user runs it: generate the
training poses, voxelize, generate the held-out yarn-level reference, fit,
simulate the held-out scenario with the fitted material, compare.  Both
workloads share the training leg and differ in the simulate leg, so fit
changes show on both and simulate-path changes on one of them.

The workload seed draws the fit's starting material, `fit.gamma_init`,
within GAMMA_INIT_SPREAD of the CLI default (1, 1); everything else is fixed
here.  Rest-yarn jitter is not used: the CLI pins the yarn vertices at the
exact min-x and max-x extremes, so any x jitter would pin single vertices
instead of whole end columns and change the scenario.
"""

from __future__ import annotations

import random

GAMMA_INIT_SPREAD = 0.005

# The acceptance round trip (25x200 patch, 80 frames, ranks 1/10/30/full,
# gd 6 / gn 12) scaled down so that one pass takes about 13 s on a 2-core
# host and a run holds at least three; "tiny" is for the self-test only.
SCALES = {
    "full": dict(courses=6, wales=40, cell=0.03, train_frames=40, steps=40,
                 ranks=[1, None], gd_iters=3, gn_iters=6),
    "tiny": dict(courses=4, wales=24, cell=0.03, train_frames=12, steps=8,
                 ranks=[1, None], gd_iters=2, gn_iters=4),
}

ROD = {"stretch_stiffness": 500.0, "bend_stiffness": 0.5,
       "contact_stiffness": 200.0, "damping": 0.85, "pd_iters": 24,
       "contacts": False}

# held-out simulate leg of each workload
WORKLOADS = {
    # Mild stretch replayed with the direct solver: F stay mild, so the
    # scalar SL(3) fallback never fires and fitting dominates the pass.
    "stretch_roundtrip": dict(stretch=0.16, solver="direct", pd_iters=30,
                              max_relative_rms=0.05),
    # Ends pushed to 30 % of their length with CMS + A-Jacobi: the patch
    # buckles after about 24 of 40 steps and a share of projections goes
    # to the scalar re-solve, so p50 falls among the unbuckled steps and
    # p75 among the buckled ones.
    "compress_cms": dict(stretch=-0.7, solver="cms", pd_iters=10,
                         max_relative_rms=None),
}

STEP_DT = 2e-2
GEN_DT = 2e-3


def plan(workload, seed, scale="full"):
    """(config name -> config dict, [(command, config name, workspace)])."""
    w = WORKLOADS[workload]
    z = SCALES[scale]
    yarn = {"kind": "rib", "courses": z["courses"], "wales": z["wales"],
            "course_spacing": 0.005, "wale_spacing": 0.005,
            "amplitude": 0.002, "rib_period": 4, "linear_density": 0.002}
    rng = random.Random(seed)
    gamma_init = [1.0 + GAMMA_INIT_SPREAD * rng.uniform(-1.0, 1.0)
                  for _ in range(2)]
    last = z["train_frames"] - 1
    train = {
        "seed": seed, "yarn": yarn,
        "generate": {"scenario": "stretch", "steps": z["train_frames"],
                     "dt": GEN_DT, "stretch": 0.10, "rod": ROD},
        "mesh": {"cell_size": z["cell"]},
        "fit": {"samples": [last], "ranks": z["ranks"],
                "gd_iters": z["gd_iters"], "gn_iters": z["gn_iters"],
                "gamma_init": gamma_init},
    }
    held = {
        "seed": seed, "yarn": yarn,
        "generate": {"scenario": "stretch", "steps": z["steps"],
                     "dt": GEN_DT, "stretch": w["stretch"], "rod": ROD},
        "paths": {"mesh": "train/mesh", "material": "train/material.csv"},
        "simulate": {"scenario": "stretch", "steps": z["steps"],
                     "dt": STEP_DT, "pd_iters": w["pd_iters"],
                     "stretch": w["stretch"], "damping": 0.8,
                     "solver": w["solver"]},
    }
    steps = [
        ("generate", "train", "train"),
        ("voxelize", "train", "train"),
        ("generate", "held", "held"),
        ("fit", "train", "train"),
        ("simulate", "held", "held"),
        ("compare", "held", "held"),
    ]
    return {"train": train, "held": held}, steps
