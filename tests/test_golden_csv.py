"""Recorded sha256 of the CSV of a fixed set of sweeps.

The set holds every spec of the benchmark's three spec sets (built by
``perfbench/workloads.build_specs`` at 2 packets, seed 17) and the sweeps
that pin the exact behaviour of the SIC family, estimated-channel IDD and
LMS and JIO training, in blocks of several packets and of one.  A change
that moves a CSV fails here by name.  The hashes
hold for one numpy and one BLAS build; any other build skips.

Record the hashes of the current build with::

    PYTHONPATH=src python tests/test_golden_csv.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import mumimo as m

_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN = Path(__file__).resolve().parent / "golden_csv.json"
_SPEC = importlib.util.spec_from_file_location(
    "workloads", _ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

SEED = 17


def build_key():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def golden_specs():
    specs = {}
    for reference in ("uncoded-8x16", "coded-idd-8x16", "large-array"):
        for label, spec in workloads.build_specs(m, reference, 2, SEED).items():
            specs[f"{reference}:{label}"] = spec
    systems = {
        "cas-8x16": m.SystemConfig(n_users=8, n_bs=16),
        "das-8x8x1": m.SystemConfig(n_users=8, n_bs=8, n_heads=8, antennas_per_head=1),
        "cas-32x128": m.SystemConfig(n_users=32, n_bs=128),
    }
    common = dict(packets=2, seed=SEED)
    for sname, system in systems.items():
        for detector in ("sic", "mb-sic"):
            for design in ("zf", "mmse"):
                for ordering in ("norm", "snr", "sinr"):
                    specs[f"{sname}:{detector}/{design}/{ordering}"] = m.ScenarioSpec(
                        system=system, detector=detector, filter_design=design,
                        ordering=ordering, packet_symbols=500, snr_db=(4.0, 12.0),
                        **common)
    specs["cas-8x16:coded-lms"] = m.ScenarioSpec(
        system=systems["cas-8x16"], coded=True, estimator="lms", pilot_len=60,
        step_size=0.01, packet_symbols=300, snr_db=(14.0, 22.0), **common)
    # three packets: one training block of the stacked JIO bank
    specs["cas-8x64:rr-jio"] = m.ScenarioSpec(
        system=m.SystemConfig(n_users=8, n_bs=64), estimator="rr-jio", pilot_len=300,
        rank=5, forgetting=0.999, packet_symbols=500, snr_db=(0.0, 4.0, 8.0, 12.0),
        packets=3, seed=SEED)
    # sixteen streams: every training block holds one packet
    wide = m.SystemConfig(n_users=16, n_bs=64)
    specs["cas-16x64:lms"] = m.ScenarioSpec(
        system=wide, estimator="lms", pilot_len=300, step_size=0.01,
        packet_symbols=500, snr_db=(8.0,), **common)
    specs["cas-16x64:rr-jio"] = m.ScenarioSpec(
        system=wide, estimator="rr-jio", pilot_len=300, rank=5, forgetting=0.999,
        packet_symbols=500, snr_db=(8.0,), **common)
    return {label: spec.validate() for label, spec in specs.items()}


def csv_digest(spec):
    return hashlib.sha256(m.format_csv(m.run_sweep(spec)).encode()).hexdigest()


def _recorded():
    return json.loads(_GOLDEN.read_text()).get(build_key())


SPECS = golden_specs()


@pytest.mark.parametrize("label", SPECS)
def test_csv_matches_recorded_digest(label):
    recorded = _recorded()
    if recorded is None:
        pytest.skip(f"digests are recorded for other builds, not {build_key()}")
    assert csv_digest(SPECS[label]) == recorded[label], label


if __name__ == "__main__":
    table = json.loads(_GOLDEN.read_text()) if _GOLDEN.exists() else {}
    table[build_key()] = {label: csv_digest(spec) for label, spec in SPECS.items()}
    _GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(SPECS)} digests for {build_key()}", file=sys.stderr)
