"""Golden output hashes: byte-identical determinism against fixed digests.

Each case runs one small CLI invocation in a fresh directory, with the
config at the relative path ``config.json`` and outputs under ``out/``
(the manifest records the config path as given), and compares the sha256
of every file the invocation wrote with the digests below. The digests
were recorded from the code before the hot loops were made linear, those
of the two single sentinel runs without canaries and with a fit policy
from the code before sentinel runs were stored as columns, and those of
the jitter case on Python 3.11 from the code before the jitter was
computed in integers (3.10 then wrote other bytes), and those of the
curve-and-batch and default-store cases from the code before every output
name was checked against one write plan, and those of the channel-walk and
channel-constant cases, which bring the random walk, the EWMA-plus-slope
predictor and the constant channel into the command cases of
``tests/callers.py``, from commit dd590b2, before the functions that no
command entered were removed; a change that alters any output byte fails
here, unlike a rerun check.

This module does not need pytest: ``PYTHONPATH=src python
tests/golden_cases.py`` runs every case in a temporary directory, prints
one line per case and exits 1 on any mismatch, so the digests can be
checked on an interpreter without the test dependencies.
"""

import copy
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from resilsim.cli import main

README_CHANNEL = {
    "channel": {"kind": "bursty", "p_enter": 0.05, "p_exit": 0.3,
                "y_calm": 1, "y_burst": 5, "burst_correlated": True},
    "steps": 2000,
    "seed": 17,
    "knowledge_store": "lessons.json",
    "protocols": [
        {"kind": "elastic", "yield_point": 6},
        {"kind": "entelechial",
         "predictor": {"kind": "window_max", "window": 8}, "epsilon": 1.5},
        {"kind": "antifragile",
         "predictor": {"kind": "window_max", "window": 8}, "epsilon": 1.5,
         "epochs_per_review": 50,
         "identity_profile": {"kind": "teleconferencing", "jitter_bound": 0.5}},
    ],
}

README_SENTINEL = {
    "mine": {"p_enter_ts": 0.01, "p_exit_ts": 0.1},
    "miner": {"hazard_ts": 0.02, "evacuation_threshold": 25.0},
    "canary": {"hazard_ts": 0.3},
    "pool_size": 100,
    "steps": 500,
    "seed": 0,
}

# The README channel config without a knowledge_store: the default store,
# out/knowledge_store.json, is written and listed in the manifest.
DEFAULT_STORE_CHANNEL = copy.deepcopy(README_CHANNEL)
del DEFAULT_STORE_CHANNEL["knowledge_store"]

CASES = {
    "channel": (README_CHANNEL, ["channel"]),
    "sentinel-curve": (README_SENTINEL, ["sentinel", "--curve", "200"]),
    "sentinel-runs": ({"steps": 300, "seed": 4}, ["sentinel", "--runs", "60"]),
    "sentinel-curve-runs": (README_SENTINEL,
                            ["sentinel", "--curve", "200", "--runs", "60"]),
    "channel-default-store": (DEFAULT_STORE_CHANNEL, ["channel"]),
    # No canaries: blank estimate cells, and the miner dies at step 199.
    "sentinel-no-pool": ({"pool_size": 0, "steps": 500, "seed": 0}, ["sentinel"]),
    # A jitter whose last bit Python 3.10's statistics.pstdev once rounded
    # differently: 0.9693015993318163, not ...164.
    "channel-jitter": (
        {"channel": {"kind": "bursty", "p_enter": 0.05, "p_exit": 0.3,
                     "y_calm": 1, "y_burst": 5},
         "steps": 500, "seed": 10, "protocol": {"kind": "elastic", "yield_point": 4}},
        ["channel"],
    ),
    # The benchmark's channel-walk config at 2 000 steps: the random walk
    # and the EWMA-plus-slope predictor.
    "channel-walk": (
        {"channel": {"kind": "random_walk", "y0": 3, "step_prob": 0.2,
                     "min": 1, "max": 6},
         "steps": 2000, "seed": 5,
         "protocols": [
             {"kind": "elastic", "yield_point": 7},
             {"kind": "entelechial", "predictor": {"kind": "ewma_slope"},
              "epsilon": 1.5},
         ]},
        ["channel"],
    ),
    # The constant channel under one window-max entelechial protocol.
    "channel-constant": (
        {"channel": {"kind": "constant", "y": 3}, "steps": 500, "seed": 0,
         "protocol": {"kind": "entelechial",
                      "predictor": {"kind": "window_max", "window": 8},
                      "epsilon": 1.5}},
        ["channel"],
    ),
    # Evacuation through the fit threshold, at step 41.
    "sentinel-fit-policy": (
        {"miner": {"evacuation_threshold": -1000.0}, "canary": {"hazard_ts": 0.5},
         "policy": {"fit_threshold": 1e-20}, "pool_size": 20, "steps": 500, "seed": 0},
        ["sentinel"],
    ),
}

GOLDEN = {
    "channel": {
        "lessons.json": "25ab20441e6864780016fa926275fe507fe6e52f11140968d7f0c8559a9356a8",
        "out/aggregates.json": "a79d5fba0407250c2a6c5cb878f89ed84901b844620b1451873be77bf6463230",
        "out/antifragile_steps.csv": "ca71f5849a550ac0f16105b6b871ef56ace1c3d6bd8cdfd2204bc0418488c35b",
        "out/compare.csv": "e721e8c809d6f92e9c5ad362d4154847cede6013bf219b39dcbca3f94a084aa9",
        "out/elastic_steps.csv": "5f853b59b4064bc743565c95bcf67054eb00ca7c791b5d1c04b516f2f9ebeae1",
        "out/entelechial_steps.csv": "988907fb921dd518299856cadc09345895a7ed7c69173ac96448a03294213d3b",
        "out/manifest.json": "431aea4a7c6fef99ab838aa18f7dd1a92e6f6bf07c4bc5fb52a84d3bffeee017",
    },
    "channel-default-store": {
        "out/aggregates.json": "a79d5fba0407250c2a6c5cb878f89ed84901b844620b1451873be77bf6463230",
        "out/antifragile_steps.csv": "ca71f5849a550ac0f16105b6b871ef56ace1c3d6bd8cdfd2204bc0418488c35b",
        "out/compare.csv": "e721e8c809d6f92e9c5ad362d4154847cede6013bf219b39dcbca3f94a084aa9",
        "out/elastic_steps.csv": "5f853b59b4064bc743565c95bcf67054eb00ca7c791b5d1c04b516f2f9ebeae1",
        "out/entelechial_steps.csv": "988907fb921dd518299856cadc09345895a7ed7c69173ac96448a03294213d3b",
        "out/knowledge_store.json": "25ab20441e6864780016fa926275fe507fe6e52f11140968d7f0c8559a9356a8",
        "out/manifest.json": "6c8976227f8ba287c4489fe3ff01a05124cb8fef73269e3f7a6b512bcb65e35d",
    },
    "channel-jitter": {
        "out/aggregates.json": "e672250ddea4863897e83e77f9f0e79b89e171b879f529b79edf5aa82950ce11",
        "out/elastic_steps.csv": "313bc7faacc12b1b3a46c770a06258eb385a7410e75db294f989af6ff68468a6",
        "out/manifest.json": "3769dc3b61648914c240e061e25aa58c337b88c2ffa8afd553de47678519a671",
    },
    "channel-walk": {
        "out/aggregates.json": "616dbd6139dbba5a8ca2bbf4fb06a7e7a064d29d55fc725b2d425b72a24e43c5",
        "out/compare.csv": "034d05f0927ca20c5f55b585e848760cc5fa8233a03ec04ee132e76089724906",
        "out/elastic_steps.csv": "2d633fd709255c07b5839f8cf290709ce4572b7b5383fe4363537095b7dfb8f6",
        "out/entelechial_steps.csv": "25d8dde4119573246049526ab30d0b7c47b5234dd83c8bb3aba23115fdeaaad7",
        "out/manifest.json": "9329b645ab91a928a1aec88cd233b710d21730fd9c147cc19297aaebf4dd7452",
    },
    "channel-constant": {
        "out/aggregates.json": "cfaa21a98fc154b1b257c7fc96587a4cc977fd42bda00cf23c75ca7d85346b3c",
        "out/entelechial_steps.csv": "bb91c4d8238a6dfe24db17c846c35079ec3da732c2a4e70b32bacf790aeba504",
        "out/manifest.json": "68b8832f1d804fec40c483e8b4c8275ed133ab7fcf64954082f0a129445a394f",
    },
    "sentinel-curve": {
        "out/curve.csv": "c0694d0b7cedd22653369ab2a57a2453da6f803762b382086e246cda28f017de",
        "out/manifest.json": "f461ef2874426dfa8d27000fdcf55d0ec059f284770d3e8391ad26ed2e080460",
        "out/summary.json": "d4bd31fcf042b2ce0af90f565e7650275fe539af8851d36147e4390ab6671e78",
        "out/trace.csv": "a7ed98670b5ae7cf14ec82806b4ef1c0cf6b3c4e558cc4c03673fff3700359b9",
    },
    "sentinel-curve-runs": {
        "out/batch.json": "564c6a896f2e75cd035876e6091197191f8719964b3f80ce64ed341cbc0a6dfe",
        "out/curve.csv": "c0694d0b7cedd22653369ab2a57a2453da6f803762b382086e246cda28f017de",
        "out/manifest.json": "5aa3a845cec8830fc5462a1ed5ae904786b5676412e79a22fd1f2a5009f12780",
    },
    "sentinel-runs": {
        "out/batch.json": "b2fc4da7675d6d8222111eab60c5f29d996b32cbd7d7ee72953a8ed265d6ab6a",
        "out/manifest.json": "74416d64d3282d765416954f6296dff66363ebe068128871b09b265c5329eff8",
    },
    "sentinel-no-pool": {
        "out/manifest.json": "fd19b2f90f7eb88aa6fcc8e3a9b9d59a9cee8f79ad394ad72c5d01d388f0d5f8",
        "out/summary.json": "4f4695d5f4e0eecffb0d25fb1bb1345f4af51bc5e1202c36cbe87c7407fa964f",
        "out/trace.csv": "7a8b06963108f6d832ba0deec970ca110ce07cc573ef22c2c91d067c801de25e",
    },
    "sentinel-fit-policy": {
        "out/manifest.json": "fd19b2f90f7eb88aa6fcc8e3a9b9d59a9cee8f79ad394ad72c5d01d388f0d5f8",
        "out/summary.json": "f6e9d8c09f2190f6a0c633ecaca913a41eb3a34f62d8e0fd093396fc13355855",
        "out/trace.csv": "6335b84e70604c76415c5a96bcc3cd06c0a4854378bf1c6d74ff8ad87fe1e72d",
    },
}


def run_case(name, directory):
    """Run one case inside ``directory``; return {relative path: sha256}."""
    config, argv = CASES[name]
    (directory / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    code = main([*argv, "-c", "config.json", "-o", "out"])
    if code != 0:
        raise AssertionError(f"exit {code}")
    return {
        path.relative_to(directory).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


def check_all() -> int:
    """Run every case; print one line each; 1 if any digest differs."""
    failed = 0
    home = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as directory:
            os.chdir(directory)
            try:
                got = run_case(name, Path(directory))
                wrong = sorted(path for path in GOLDEN[name].keys() | got.keys()
                               if got.get(path) != GOLDEN[name].get(path))
                result = f"differs in {', '.join(wrong)}" if wrong else "ok"
            except AssertionError as exc:
                result = str(exc)
            finally:
                os.chdir(home)
        failed += result != "ok"
        print(f"{name}: {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check_all())
