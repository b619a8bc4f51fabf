"""Every function the benchmark's layer tracer wraps still exists.

``perfbench/layertrace.py`` names its targets by module and attribute; a
renamed or moved function would only show up in the slow benchmark tests.
This reads its table and resolves each entry the way the tracer does.
"""

import importlib
import importlib.util
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
