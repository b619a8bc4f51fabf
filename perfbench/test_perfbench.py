"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each test starts the benchmark or its worker in fresh processes with short
run lengths, so the whole file takes about two minutes on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402,F401  (run.py must import no mumimo)
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_worker(tmp_path, workload, seconds, trace):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", "measure",
           "--workload", workload, "--seed", "5", "--seconds", str(seconds),
           "--src", str(ROOT / "src"), "--tmp", str(tmp_path), "--out", str(out)]
    subprocess.run(cmd + (["--trace"] if trace else []), cwd=ROOT, env=env_with_src(),
                   check=True, timeout=300, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def summary_of(tmp_path, result):
    spans = layertrace.read_spans(tmp_path / "spans.pkl")
    packets = result["packets_per_pass"] * len(result["pass_s"])
    return layertrace.Summary(spans, result["run_start"], result["run_end"], packets)


@pytest.fixture(scope="module")
def untraced_outputs():
    return {name: last_json(bench("--workload", name, "--seed", "2", "--seconds", "1",
                                  "--trace", "0"))
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced_output():
    return bench("--workload", "uncoded-8x16", "--seed", "2", "--seconds", "1",
                 "--trace", "1")


def test_benchmark_json_matches_printed_metrics(untraced_outputs, traced_output):
    assert [w["name"] for w in BENCHMARK["workloads"]] == sorted(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, out in untraced_outputs.items():
        printed = {k: v["unit"] for k, v in out["metrics"].items()}
        assert printed == end_to_end, name
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    out = last_json(traced_output)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == per_layer
    assert out["correct"]


def test_wrappers_only_in_traced_process(traced_output):
    assert "mumimo" not in sys.modules  # run.py never imports it
    assert (f"wrapped functions: traced process {len(layertrace.TARGETS)}, "
            "untraced process 0") in traced_output.stdout


def test_traced_and_untraced_csv_identical():
    code = """
import mumimo as m, layertrace
from workloads import build_specs
def csvs():
    return [m.format_csv(m.run_sweep(spec)) for spec in
            build_specs(m, "uncoded-8x16", 2, 9).values()]
plain = csvs()
tracer = layertrace.Tracer()
assert layertrace.install(tracer) > len(layertrace.TARGETS)
traced = csvs()
assert tracer.spans and traced == plain
print("identical", len(plain))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env_with_src(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "identical 14" in proc.stdout


def test_self_time_within_wall_and_counts_repeat(tmp_path):
    counts = []
    for i, seconds in enumerate((0, 2)):
        sub = tmp_path / str(i)
        result = run_worker(sub, "uncoded-8x16", seconds, trace=True)
        summary = summary_of(sub, result)
        assert 0 < summary.total_self_s <= summary.wall_s
        counts.append({name: calls / summary.packets
                       for name, (calls, _) in summary.functions.items()})
    assert counts[0] == counts[1]
    assert counts[0]["rng.substream"] == 12


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
             ("c", 2.0, 3.0, 1, None), ("b", 5.0, 6.0, 0, None)]
    selfs = {(n, s) for n, s, *_ in layertrace.self_times(spans)}
    assert selfs == {("a", 6.0), ("b", 2.0), ("c", 1.0), ("b", 1.0)}


def test_reference_check_uses_packet_spread():
    ref = {"p@4": {"ber": 0.1, "packet_sd": 0.04, "packets": 300, "slope_per_db": 0.01}}
    near, far = worker.Tally(), worker.Tally()
    near.row("p@4", 16, False, errors=1100, bits=10000)
    far.row("p@4", 16, False, errors=2000, bits=10000)
    near.check_reference(ref)
    far.check_reference(ref)
    assert near.failed == 0 and far.failed == 1


def test_reference_check_catches_degraded_receivers():
    """Packets of a worse receiver, held against the reference of the right one."""
    code = """
import json, mumimo as m, worker
from dataclasses import replace
from workloads import build_specs
sets = json.loads(worker.REFERENCE.read_text())["sets"]
def tally(spec, label, packets):
    t = worker.Tally()
    for snr in spec.snr_db:
        trials = [m.run_trial(spec, snr, trial) for trial in range(packets)]
        t.row(f"{label}@{snr:g}", packets, False, sum(r.errors for r in trials),
              sum(r.bits for r in trials))
    return t
uncoded = build_specs(m, "uncoded-8x16", 1, 31)
coded = build_specs(m, "coded-idd-8x16", 1, 31)["cas/mmse-idd4"]
cases = [(uncoded["cas/rmf"], "cas/mmse", 96, "uncoded-8x16"),
         (uncoded["cas/mmse-lms"], "cas/mmse", 96, "uncoded-8x16"),
         (replace(coded, idd_iterations=1).validate(), "cas/mmse-idd4", 120,
          "coded-idd-8x16"),
         (coded, "cas/mmse-idd4", 120, "coded-idd-8x16")]
for spec, label, packets, ref in cases:
    t = tally(spec, label, packets)
    t.check_reference(sets[ref])
    print(t.failed, end=" ")
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env_with_src(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # rmf and lms-estimated mmse fail the perfect-CSI mmse points at 4 and
    # 12 dB; one IDD iteration fails the four-iteration point; four pass
    assert proc.stdout.split() == ["2", "2", "1", "0"]


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(*BENCHMARK["command"][2:], "--workload", "uncoded-8x16", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / BENCHMARK["command"][1])
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
