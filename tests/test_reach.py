"""Every statement of ``src/mumimo`` that a config can reach is reached.

A line tracer (``sys.settrace``) follows the golden sweeps to CSV, the
fuzzed configs with their rows and text round trips, and a few CLI runs.
Every statement inside a function body must then have run, apart from
docstrings, ``raise`` statements, ``except`` bodies and the functions of
``ALLOWED``, each with the reason its remaining statements stay.  A path
that no config reaches is either made reachable or deleted.
"""

import ast
import importlib.util
import sys
import time
import warnings
from pathlib import Path

import mumimo as m
import test_fuzz
import test_golden_csv
from mumimo import cli
from mumimo.errors import ParameterWarning

SRC = Path(m.__file__).resolve().parent

#: function (module.qualname) -> why some of its statements stay unreached
ALLOWED = {
    "detectors._sic_symbols": "the rmf stage filters are API-only; the detector "
                              "tests' oracles run them",
    "detectors.sic_detect": "an explicit permutation is API-only; the detector "
                            "tests' oracles pass one",
    "txchain.qpsk_map": "non-integer bits are API-only; the pipeline maps its own "
                        "integer payload",
    "harness.confidence_interval": "a zero-bit interval is API-only; a row always "
                                   "holds bits",
    "estimation.build_projection": "the Krylov breakdown is a numerical fallback",
    "harness.blas_thread_setter": "it runs in pool children, which the tracer "
                                  "does not follow",
    "harness._one_blas_thread": "it runs in pool children, which the tracer "
                                "does not follow",
}

#: wall-clock budget of the traced runs, in seconds
BUDGET_S = 5.0


def _header_end(stmt):
    """Last line of a statement's own code: the whole of a simple statement,
    the header of a compound one."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return body[0].lineno - 1
    return stmt.end_lineno


def _statements(body):
    """(first, last line) of each statement of a function body that must
    run, nested blocks included and nested functions' bodies not."""
    for i, stmt in enumerate(body):
        if (i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            continue  # a docstring
        if isinstance(stmt, (ast.Raise, ast.Global, ast.Nonlocal)):
            continue
        decorators = getattr(stmt, "decorator_list", [])
        if not isinstance(stmt, ast.Try):  # a try line runs no code of its own
            yield min([stmt.lineno] + [d.lineno for d in decorators]), _header_end(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, block, []))


def _functions(tree, prefix=""):
    """(qualname, node) of every function, methods and nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def unreached(ran):
    """module.qualname -> the first lines of its statements that never ran,
    given the (file, line) pairs ``ran``."""
    missing = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, func in _functions(tree):
            lines = [first for first, last in _statements(func.body)
                     if not any((str(path), n) in ran for n in range(first, last + 1))]
            if lines:
                missing[f"{path.stem}.{name}"] = lines
    return missing


def _trace_lines(run):
    """The (file, line) pairs of ``src/mumimo`` that ``run()`` executes; any
    tracer already set is restored afterwards."""
    ran, src = set(), str(SRC)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def _cli(tmp_path, name, text, *args):
    config = tmp_path / f"{name}.cfg"
    config.write_text(text)
    return cli.main(["--config", str(config), "--out", str(tmp_path / f"{name}.csv"),
                     *args])


def _import_afresh():
    # each module's top level runs again, in a copy that replaces nothing,
    # so a function that runs only at import is seen too
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            spec = importlib.util.spec_from_file_location(f"mumimo.{path.stem}", path)
            spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _clear_caches():
    # a cached function's body runs on a miss only, so every cache starts empty
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mumimo."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _run_everything(tmp_path):
    _import_afresh()
    _clear_caches()
    for spec in test_golden_csv.SPECS.values():
        m.format_csv(m.run_sweep(spec))
    test_fuzz.check_outcomes(test_fuzz.CONFIGS + test_fuzz.WRONG_TYPED)
    codes = [
        _cli(tmp_path, "commented",
             "# two users on four antennas\nn_users = 2   # K\nn_bs = 4\n"
             "packet_symbols = 32  # short packets\nsnr_db = 3\n",
             "--snr", "0:6:3", "--detector", "zf", "--seed", "5", "--packets", "2"),
        # the overflowing LMS link of test_non_finite_trial_is_a_failed_block, pooled
        _cli(tmp_path, "overflow",
             "n_users = 1\nn_bs = 2\ndetector = ml\nestimator = lms\nmu = 10\n"
             "pilot_len = 250\npacket_symbols = 40\npackets = 3\nseed = 111\n"
             "snr_db = 0,10\n", "--workers", "2"),
        # a seed of more 32-bit words than SeedSequence's pool holds
        _cli(tmp_path, "wide-seed", "n_users = 2\nn_bs = 4\npacket_symbols = 16\n"
             "snr_db = 5\npackets = 1\n", "--seed", str(2 ** 130 + 3)),
        # a full-rank reduced-rank bank is the full RLS solve
        _cli(tmp_path, "full-rank", "n_users = 2\nn_bs = 4\nestimator = rr-krylov\n"
             "rank = 4\npilot_len = 20\npacket_symbols = 16\nsnr_db = 5\npackets = 1\n"),
    ]
    assert codes == [cli.EXIT_OK, cli.EXIT_NUMERICAL, cli.EXIT_OK, cli.EXIT_OK]


def test_every_reachable_statement_is_reached(tmp_path, capsys):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        ran = _trace_lines(lambda: _run_everything(tmp_path))
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    missing = unreached(ran)
    print(f"traced runs: {elapsed:.2f} s; unreached: {missing}")
    assert {name: lines for name, lines in missing.items() if name not in ALLOWED} == {}
    # an entry whose function is now reached whole, or gone, is stale
    assert sorted(ALLOWED) == sorted(name for name in missing if name in ALLOWED)
    assert elapsed <= BUDGET_S


def test_the_tracer_sees_an_unreached_statement():
    # a function that runs only partly is named with its unreached line
    lines = {(str(SRC / "harness.py"), n)
             for n in range(1, len((SRC / "harness.py").read_text().splitlines()) + 1)}
    assert "harness.run_sweep" not in unreached(lines)
    tree = ast.parse((SRC / "harness.py").read_text())
    func = dict(_functions(tree))["run_sweep"]
    first, _ = next(_statements(func.body))
    missing = unreached(lines - {(str(SRC / "harness.py"), first)})
    assert missing["harness.run_sweep"] == [first]
