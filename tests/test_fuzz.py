"""A seeded fuzz over every config key: each drawn config is either rejected
at the boundary (``SystemConfig``, ``ScenarioSpec.validate``) or its sweep
returns rows that are marked failed or hold a BER inside its interval."""

import hashlib
import warnings

import numpy as np
import pytest

import mumimo as m
from mumimo import cli, harness
from mumimo.detectors import ORDERING_CRITERIA
from mumimo.errors import ConfigError, ParameterError, ParameterWarning

FUZZ_SEED = 20261022
FUZZ_CONFIGS = 300


def _pick(rng, options):
    return options[rng.integers(len(options))]


def _int(rng, lo, hi):
    """Mostly an int in [lo, hi]; else a numpy integer, or a value an int
    field must refuse."""
    u = rng.random()
    if u < 0.94:
        return int(rng.integers(lo, hi + 1))
    if u < 0.97:
        return _pick(rng, (np.int64, np.int32, np.uint8))(rng.integers(max(lo, 0), hi + 1))
    return _pick(rng, (True, False, 2.5, 2.0, "2", lo - 1, np.float64(1.0)))


def _float(rng, lo, hi, extremes):
    """Mostly a float in [lo, hi]; else an extreme, an int or a numpy float."""
    u = rng.random()
    if u < 0.92:
        return float(rng.uniform(lo, hi))
    if u < 0.97:
        return _pick(rng, extremes)
    return _pick(rng, (int(round(hi)), np.float64(lo)))


def _range(rng, lo, hi, extremes):
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return _pick(rng, extremes) if rng.random() < 0.06 else (float(a), float(b))


def draw_config(rng):
    """(SystemConfig kwargs, ScenarioSpec kwargs) over every key."""
    das = rng.random() < 0.3
    system = dict(
        n_users=_int(rng, 1, 4), n_bs=_int(rng, 1, 12) if rng.random() < 0.2 else _int(rng, 8, 16),
        n_heads=_int(rng, 1, 3) if das else 0,
        antennas_per_head=_int(rng, 1, 4) if das else 0,
        antennas_per_user=_int(rng, 1, 2),
        rho=_float(rng, 0.0, 1.0, (0.0, 1.0, 0.9, 1.2, -0.1, float("nan"))),
        path_loss_exp=_float(rng, 2.0, 4.0, (2.0, 4.0, 1.9, 4.5)),
        shadow_spread_db=_float(rng, 0.0, 10.0, (0.0, 40.0, 100.0, 1e3, -1.0,
                                                 float("inf"))),
        path_gain_range=_range(rng, 0.1, 1.0, ((0.5, 0.5), (0.0, 0.5), (0.9, 0.1),
                                               (1e-300, 1e-300))),
        distance_range=_range(rng, 0.05, 1.0, ((1.0, 1.0), (0.0, 0.5), (0.5, 1.5),
                                               (1e-300, 1e-300))),
        symbol_power=_float(rng, 0.1, 10.0, (1e6, 1e-6, 0.0, -1.0, 1e300)),
    )
    coded = rng.random() < 0.2
    estimator = _pick(rng, ("perfect",) * 6 + harness.ESTIMATORS * 2 + ("bogus",))
    spec = dict(
        detector="mmse" if (coded or estimator.startswith("rr-")) and rng.random() < 0.9
        else _pick(rng, harness.DETECTORS * 6 + ("bogus",)),
        ordering=_pick(rng, ORDERING_CRITERIA * 6 + ("bogus",)),
        branches=_int(rng, 1, 5),
        filter_design=_pick(rng, ("zf", "mmse") * 8 + ("wiener",)),
        coded=coded,
        idd_iterations=_int(rng, 1, 3),
        estimator=estimator,
        forgetting=_float(rng, 0.5, 1.0, (1.0, 0.9, 0.0, 1.1)),
        step_size=_float(rng, 0.001, 0.5, (10.0, 1e3, 0.0, -1.0)),
        rank=_int(rng, 1, 6),
        pilot_len=_int(rng, 0, 40),
        packet_symbols=_int(rng, 1, 40),
        snr_db=tuple(float(s) for s in np.round(rng.uniform(-10, 30, rng.integers(1, 3)), 2))
        if rng.random() < 0.9 else _pick(rng, ((300.0,), (-300.0,), (4000.0,), (5.0, 5.0), (),
                                              (float("nan"),))),
        packets=_int(rng, 1, 3),
        seed=_int(rng, 0, 1000),
        out=_pick(rng, ("fuzz.csv",) * 30 + (" fuzz.csv", "a #b", "", "x\ny")),
    )
    return system, spec


#: the drawn configs, one generator seeded once
CONFIGS = [draw_config(rng) for rng in [np.random.default_rng(FUZZ_SEED)]
           for _ in range(FUZZ_CONFIGS)]

WRONG_TYPED_CONFIGS = 60

#: per field kind, its fields and a wrong-typed value made from the drawn
#: one: a numeric string in a float field, an int or a string in a bool
#: field, a non-str in a str field, a range as a list, a string SNR point
_WRONG_TYPES = (
    (("rho", "path_loss_exp", "shadow_spread_db", "symbol_power", "forgetting",
      "step_size"), lambda rng, v: str(v)),
    (("coded",), lambda rng, v: _pick(rng, (int(v), str(v), "yes"))),
    (("detector", "ordering", "filter_design", "estimator", "out"),
     lambda rng, v: _pick(rng, (5, None, v.encode(), [v]))),
    (("path_gain_range", "distance_range"), lambda rng, v: list(v)),
    (("snr_db",), lambda rng, v: (str(v[0]),) + v[1:] if v else ("4",)),
)


def wrong_typed(rng, system, spec):
    """A copy of a drawn config with one field of a random kind replaced by
    a wrong-typed value."""
    system, spec = dict(system), dict(spec)
    names, make = _WRONG_TYPES[rng.integers(len(_WRONG_TYPES))]
    name = _pick(rng, names)
    owner = system if name in system else spec
    owner[name] = make(rng, owner[name])
    return system, spec


#: drawn configs with one wrong-typed field, from a second generator
WRONG_TYPED = [wrong_typed(rng, *CONFIGS[rng.integers(FUZZ_CONFIGS)])
               for rng in [np.random.default_rng(FUZZ_SEED + 1)]
               for _ in range(WRONG_TYPED_CONFIGS)]


def run_config(system, spec, workers=1):
    """The spec and its sweep, or the boundary's exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        try:
            scenario = m.ScenarioSpec(m.SystemConfig(**system), **spec)
            return scenario, m.run_sweep(scenario, workers=workers)
        except (ParameterError, ConfigError) as exc:
            return None, exc


def verdict(system, spec):
    """What a config came to: rejected with its exception, or ran with its
    CSV digest and each marked row's message."""
    scenario, outcome = run_config(system, spec)
    if scenario is None:
        return ("rejected", type(outcome).__name__, str(outcome))
    csv = hashlib.sha256(m.format_csv(outcome).encode()).hexdigest()[:12]
    return ("ran", csv, tuple((r.snr_db, r.message) for r in outcome.rows if r.failed))


def _config_text(system, spec, out):
    """The flat text of a drawn config, written as the values stand."""
    values = {**system, **spec, "out": out}
    lines = []
    for key, (_, field, index, _, _) in harness.CONFIG_KEYS.items():
        value = values[field]
        if index is not None:
            value = value[index]
        text = ",".join(map(str, value)) if field == "snr_db" else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def check_outcomes(configs):
    """Run each config: it is rejected at the boundary, or its rows hold
    0 <= ci_low <= ber <= ci_high <= 1 (or are marked failed) and its spec
    round-trips through its text with its hash.  Returns the verdict
    counts and the configs that ran, with their results."""
    counts = {"rejected": 0, "ran": 0, "marked": 0}
    ran = []
    for system, spec in configs:
        scenario, outcome = run_config(system, spec)
        if scenario is None:
            counts["rejected"] += 1
            continue
        counts["ran"] += 1
        ran.append((system, spec, outcome))
        for row in outcome.rows:
            if row.failed:
                counts["marked"] += 1
                continue
            assert 0.0 <= row.ci_low <= row.ber <= row.ci_high <= 1.0, (system, spec, row)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterWarning)
            again = m.parse_config(m.serialize_config(scenario))
        assert again == scenario
        assert harness.scenario_hash(again) == outcome.scenario_hash
    return counts, ran


def test_fuzzed_configs_are_rejected_or_run_to_valid_rows():
    counts, ran = check_outcomes(CONFIGS)
    print(f"fuzz verdicts: {counts}")
    assert counts["ran"] >= FUZZ_CONFIGS // 5 and counts["rejected"] >= FUZZ_CONFIGS // 5
    # a handful pooled: the same bytes as serial
    for system, spec, serial in ran[:3]:
        pooled = run_config(system, spec, workers=2)[1]
        assert m.format_csv(pooled) == m.format_csv(serial)


def test_wrong_typed_fields_are_rejected_or_stored_as_their_type():
    # a wrong type ends in ParameterError or ConfigError, never another
    # exception; a list range runs as its tuple
    counts, ran = check_outcomes(WRONG_TYPED)
    print(f"wrong-typed verdicts: {counts}")
    assert counts["rejected"] >= WRONG_TYPED_CONFIGS // 2 and counts["ran"] >= 1
    for system, spec, result in ran:
        assert all(type(v) is tuple for v in (result.scenario.system.path_gain_range,
                                               result.scenario.system.distance_range,
                                               result.scenario.snr_db))


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 5])
def test_fuzzed_configs_through_the_cli(tmp_path, capsys, index):
    # the exit code says what the config came to, and the output file is
    # either the sweep's whole CSV or absent
    system, spec = CONFIGS[index]
    out = tmp_path / "fuzz.csv"
    path = tmp_path / "fuzz.cfg"
    path.write_text(_config_text(system, spec, out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        code = cli.main(["--config", str(path)])
        try:
            scenario = m.parse_config(path.read_text())
        except ConfigError:
            scenario = None
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []
    if scenario is None:
        assert code == cli.EXIT_CONFIG and not out.exists()
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        result = m.run_sweep(scenario)
    assert code == (cli.EXIT_NUMERICAL if result.failures else cli.EXIT_OK)
    assert out.read_text() == m.format_csv(result)
