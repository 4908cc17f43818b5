"""The runs whose output bytes are pinned, and the pins, for the tests
and for tools/drift.py.

``PINS`` is ``tests/pins.json``, the one store of exact SHA-256 pins
(numpy 2.4, scipy 1.17, OpenBLAS), in four sections:

- ``tables``: ``render(rows)`` of each ``TINY_RUNS`` run
  (tests/test_montecarlo.py::test_tables_pinned);
- ``outputs``: the (table, .meta.json) pair that each ``CLI_RUNS`` argv
  writes at ``--seed 7`` (tests/test_cli.py::test_outputs_pinned);
- ``files``: every file that the ``SAMPLE_MATCH_RUNS`` argvs write at
  ``--seed 7`` (tests/test_cli.py::test_sample_and_match_files_pinned);
- ``draws``: the heterogeneous-pair draws of
  tests/test_samplers.py::TestHeterogeneous::test_draws_pinned.

A change that moves values edits that file from the drift report. Each
library run looks up its entry point on ``corrmatch`` when it is
called, so a function that tools/drift.py records is the recorder.
"""

import json
from pathlib import Path

import numpy as np

import corrmatch as cm

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())

# SMALL_SBM as the CLI reads it from sbm.json
SMALL_SBM_CONFIG = {"sizes": [8, 8], "lambda": [[0.6, 0.1], [0.1, 0.6]]}
SMALL_SBM = cm.SbmParams(cm.BlockPartition(tuple(SMALL_SBM_CONFIG["sizes"])),
                         np.array(SMALL_SBM_CONFIG["lambda"]))
# numpy's own construction of stream(11, 0), which tools/drift.py also runs
# on commits that predate corrmatch.stream
REAL_PAIR = cm.sample_rho_sbm(SMALL_SBM, 0.6, np.random.Generator(np.random.PCG64(
    np.random.SeedSequence(11, spawn_key=(0,)))))

# the six experiments at tiny sizes, master_seed 7
TINY_RUNS = {
    "phase-transition": lambda: cm.phase_transition_experiment(
        mc_reps=3, master_seed=7, rho_grid=(0.25, 1.0), params=SMALL_SBM),
    "power-er": lambda: cm.power_er_experiment(
        p=0.5, q=0.4, n=12, rho=0.4, s_grid=(0, 6), x_grid=(0, 6), alpha=0.1,
        mc_reps=8, n_null=19, master_seed=7),
    "power-omni": lambda: cm.power_omni_experiment(
        n=18, d=3, num_anomalous=4, mix_w=0.1, x_grid=(0, 6), alpha=0.1,
        mc_reps=6, n_null=19, master_seed=7),
    "power-omni-redraw": lambda: cm.power_omni_experiment(
        n=18, d=3, num_anomalous=4, mix_w=0.1, x_grid=(6,), alpha=0.1,
        mc_reps=6, n_null=10, master_seed=7, redraw_latents=True),
    "cluster-gain": lambda: cm.cluster_gain_experiment(
        SMALL_SBM, (0.3, 0.9), d=2, k=2, mc_reps=2, master_seed=7, restarts=2),
    "cluster-shuffle": lambda: cm.shuffle_cluster_experiment(
        SMALL_SBM, rho=0.6, s_grid=(0, 8), d=2, k=2, mc_reps=2, master_seed=7,
        restarts=2),
    "cluster-real": lambda: cm.cluster_real_experiment(
        *REAL_PAIR, SMALL_SBM.partition.membership, (4, 16), d=2, k=2, mc_reps=2,
        master_seed=7, restarts=2),
}

# the experiments of acceptance criteria 07-10 (tests/test_acceptance.py)
CRITERION_SBM = cm.SbmParams(cm.BlockPartition((50, 50)),
                             np.array([[0.1, 0.05], [0.05, 0.2]]))
CRITERION_10_S_GRID = (0, 20, 40, 60, 80)
CRITERION_RUNS = {
    "criterion-07": lambda: cm.power_er_experiment(mc_reps=500, n_null=999, master_seed=1),
    "criterion-08": lambda: cm.power_omni_experiment(mc_reps=100, n_null=999,
                                                     master_seed=108),
    "criterion-09": lambda: cm.cluster_gain_experiment(
        CRITERION_SBM, (0.1, 0.3, 0.5), d=2, k=2, mc_reps=200, master_seed=109),
    "criterion-10": lambda: cm.shuffle_cluster_experiment(
        CRITERION_SBM, rho=0.5, s_grid=CRITERION_10_S_GRID, d=2, k=2, mc_reps=100,
        master_seed=110),
}

# Every exp experiment (both cluster modes, one --format json) and
# cluster-real at tiny sizes, run from a directory that holds sbm.json
# (SMALL_SBM) and REAL_PAIR as a.edg, b.edg and lab.txt, so that the paths
# echoed by cluster-real are relative.
CLI_RUNS = {
    "phase-transition": ("exp", "phase-transition", "--config", "sbm.json", "--mc", "3",
                         "--rho-grid", "0.25,1"),
    "phase-transition-default": ("exp", "phase-transition", "--mc", "1", "--rho-grid", "1"),
    "power-er": ("exp", "power-er", "--p", "0.5", "--q", "0.4", "--n", "12", "--rho", "0.4",
                 "--s-grid", "0,6", "--x-grid", "0,6", "--alpha", "0.1", "--mc", "4",
                 "--n-null", "19", "--null-p", "0.42"),
    "power-omni": ("exp", "power-omni", "--n", "18", "--d", "3", "--anomalous", "4",
                   "--w", "0.1", "--x-grid", "0,6", "--alpha", "0.1", "--mc", "3",
                   "--n-null", "19"),
    "power-omni-redraw-json": ("exp", "power-omni", "--n", "18", "--anomalous", "4",
                               "--x-grid", "6", "--alpha", "0.1", "--mc", "3",
                               "--n-null", "10", "--redraw-latents", "--format", "json"),
    "cluster-gain": ("exp", "cluster", "--config", "sbm.json", "--rho-grid", "0.3,0.9",
                     "--mc", "2"),
    "cluster-shuffle": ("exp", "cluster", "--config", "sbm.json", "--rho", "0.6",
                        "--seeds-grid", "0,8", "--mc", "2", "--d", "2", "--k", "2"),
    "cluster-shuffle-json": ("exp", "cluster", "--config", "sbm.json", "--seeds-grid", "8",
                             "--mc", "2", "--format", "json"),
    "cluster-real": ("cluster-real", "--a", "a.edg", "--b", "b.edg", "--labels", "lab.txt",
                     "--d", "2", "--k", "2", "--seeds-grid", "4,16", "--mc", "2"),
    "cluster-real-scree": ("cluster-real", "--a", "a.edg", "--b", "b.edg",
                           "--labels", "lab.txt", "--scree", "--k", "2",
                           "--seeds-grid", "8", "--mc", "2"),
}

# `sample`, then a seeded `match` and one started from the shuffle, run in
# order from a directory that holds er.json, protect.txt and seeds.txt
SAMPLE_MATCH_RUNS = (
    ("sample", "--model", "rho-er", "--config", "er.json", "--shuffle", "subset",
     "--protect-file", "protect.txt", "--subset-size", "10",
     "--out-a", "a.edg", "--out-b", "b.edg", "--out-perm", "sigma.txt"),
    ("match", "--a", "a.edg", "--b", "b.edg", "--seeds", "seeds.txt",
     "--out-perm", "phi.txt", "--report", "report.json"),
    ("match", "--a", "a.edg", "--b", "b.edg", "--init", "sigma.txt",
     "--out-perm", "phi_init.txt", "--report", "report_init.json"),
)
