"""Every function the benchmark's layer tracer wraps still exists.

``perfbench/layertrace.py`` names its targets by module and attribute; a
renamed or moved function would only show up in the slow benchmark tests.
This reads its table and resolves each entry the way the tracer does.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
_SPEC = importlib.util.spec_from_file_location("layertrace", _PATH)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


@pytest.mark.parametrize("metric, home, path, sites", layertrace.TARGETS,
                         ids=[target[0] for target in layertrace.TARGETS])
def test_trace_target_resolves(metric, home, path, sites):
    assert metric.split(".", 1)[0] in layertrace.LAYERS
    module = importlib.import_module(f"mumimo.{home}")
    owner, _, attr = path.rpartition(".")
    if owner:
        assert attr in vars(getattr(module, owner)), f"{home}.{path}"
        return
    original = getattr(module, attr)
    for site in sites or (home,):
        bound = vars(importlib.import_module(f"mumimo.{site}")).get(attr)
        assert bound is original, f"mumimo.{site} does not bind {home}.{attr}"


# Installs the tracer in a fresh interpreter, runs one small sweep per
# estimator, one per SIC-family detector and a coded one, then the command
# line on a config file, and prints the metrics that recorded a span.
_LIVENESS = """
import importlib.util, json, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("layertrace", sys.argv[1])
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
tracer = layertrace.Tracer()
layertrace.install(tracer)

import mumimo as m
from mumimo import cli, harness

common = dict(system=m.SystemConfig(n_users=2, n_bs=4), packet_symbols=64,
              snr_db=(8.0,), packets=2, seed=3)
runs = [dict(estimator=est, pilot_len=24, rank=2, forgetting=0.998)
        for est in harness.ESTIMATORS if est != "perfect"]
runs += [dict(detector=det, branches=2) for det in ("sic", "mb-sic", "df-s")]
runs.append(dict(coded=True, idd_iterations=2))
for run in runs:
    m.run_sweep(m.ScenarioSpec(**common, **run))
config = Path(sys.argv[2]) / "run.cfg"
config.write_text("n_users = 2\\nn_bs = 4\\npacket_symbols = 64\\nsnr_db = 8\\n"
                  f"packets = 2\\nout = {config.with_suffix('.csv')}\\n")
assert cli.main(["--config", str(config)]) == 0
print(json.dumps(sorted({span[0] for span in tracer.spans if span is not None})))
"""


def test_every_trace_target_records_a_span(tmp_path):
    # a target that resolves but that no sweep calls times nothing: every
    # metric of the table must see at least one call on the paths a config
    # reaches
    src = Path(importlib.import_module("mumimo").__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _LIVENESS, str(_PATH), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    recorded = set(json.loads(done.stdout.splitlines()[-1]))
    silent = [target[0] for target in layertrace.TARGETS if target[0] not in recorded]
    assert not silent, f"no span recorded for {silent}"
