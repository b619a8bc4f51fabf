"""Harness tests: config parsing, trial/sweep determinism, CSV, CLI, README."""

import collections
import concurrent.futures
import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import conftest
import mumimo as m
from conftest import filter_training_experiment, same_bytes
from mumimo import cli, detectors, harness, idd
from mumimo.detectors import ORDERING_CRITERIA
from mumimo.errors import ConfigError, NumericalError, ParameterError, ParameterWarning

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = """
# smallest interesting uplink
n_users = 2
n_bs = 4
detector = mmse
packet_symbols = 64
snr_db = 8
packets = 2
seed = 3
"""


# every config key at a value other than its default
ALL_KEYS = m.ScenarioSpec(
    system=m.SystemConfig(n_users=3, n_bs=6, n_heads=2, antennas_per_head=2,
                          antennas_per_user=2, rho=0.35, path_loss_exp=3.5,
                          shadow_spread_db=6.0, path_gain_range=(0.5, 0.9),
                          distance_range=(0.2, 0.8), symbol_power=2.0),
    detector="mb-sic", ordering="sinr", branches=3, filter_design="zf",
    idd_iterations=2, estimator="rls", forgetting=0.97,
    step_size=0.01, rank=3, pilot_len=12, packet_symbols=100,
    snr_db=(-2.5, 0.0, 7.25), packets=9, seed=11, out="x.csv")


def same_record(a, b):
    """Two trial records hold the same errors, byte for byte, and bits."""
    return a.packet_bits == b.packet_bits and same_bytes(a.packet_errors, b.packet_errors)


def joined(records):
    """The records of packets run alone, as one record of their block."""
    records = list(records)
    return m.TrialRecord(np.concatenate([r.packet_errors for r in records], axis=-1),
                         records[0].packet_bits)


def small_spec(**overrides):
    base = dict(system=m.SystemConfig(n_users=2, n_bs=4), packet_symbols=64,
                snr_db=(8.0,), packets=2, seed=3)
    base.update(overrides)
    return m.ScenarioSpec(**base).validate()


# -- config parsing -----------------------------------------------------------

def test_parse_minimal_config():
    spec = m.parse_config(MINIMAL)
    assert spec.system.n_users == 2
    assert spec.system.n_rx_total == 4
    assert spec.detector == "mmse"
    assert spec.snr_db == (8.0,)
    assert spec.packets == 2


def test_parse_serialize_roundtrip():
    spec = m.parse_config(MINIMAL)
    again = m.parse_config(m.serialize_config(spec))
    assert again == spec
    # and a second round trip is a fixed point of the text form
    assert m.serialize_config(again) == m.serialize_config(spec)


@pytest.mark.parametrize("name, digest", [("minimal", "d8f12a954891"),
                                          ("all-keys", "a08ae7b18d7e")])
def test_scenario_hash_is_pinned_and_round_trips(name, digest):
    spec = m.parse_config(MINIMAL) if name == "minimal" else ALL_KEYS.validate()
    text = m.serialize_config(spec)
    again = m.parse_config(text)
    assert again == spec
    assert m.serialize_config(again) == text
    assert harness.scenario_hash(spec) == harness.scenario_hash(again) == digest


def test_parse_rejects_unknown_key_with_line():
    text = "n_users = 2\nn_bs = 4\ndetctor = mmse\n"
    with pytest.raises(ConfigError, match=r"line 3.*detctor"):
        m.parse_config(text)


def test_removed_maxlog_key_is_an_unknown_key(tmp_path, capsys):
    # Gray QPSK makes the max-log demapper exact, so the key had no effect
    text = MINIMAL + "idd.maxlog = true\n"
    with pytest.raises(ConfigError, match=r"line 10: unknown key 'idd.maxlog'"):
        m.parse_config(text)
    cfg = tmp_path / "old.cfg"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "unknown key 'idd.maxlog'" in capsys.readouterr().err


def test_parse_rejects_bad_syntax():
    with pytest.raises(ConfigError, match="line 1"):
        m.parse_config("just some words\n")


@pytest.mark.parametrize("lines, message", [
    ("packets = abc", r"line 3: key 'packets': invalid literal"),
    ("n_rx_total = four", r"line 3: key 'n_rx_total': invalid literal"),
    ("mu = nan", r"line 3: key 'mu': 'nan' is not a finite number"),
    ("snr_db = inf", r"line 3: key 'snr_db': .*'inf' is not a finite number"),
    ("packets = 3\npackets = 5", r"line 4: key 'packets' repeats line 3"),
], ids=["packets-abc", "n_rx_total-four", "mu-nan", "snr_db-inf", "repeated-packets"])
def test_malformed_value_is_config_error_with_line(tmp_path, capsys, lines, message):
    text = f"n_users = 2\nn_bs = 4\n{lines}\n"
    with pytest.raises(ConfigError, match=message):
        m.parse_config(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg)]) == cli.EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)


def test_parse_snr_specs():
    assert m.parse_snr_spec("0:16:4") == (0.0, 4.0, 8.0, 12.0, 16.0)
    assert m.parse_snr_spec("2.5") == (2.5,)
    assert m.parse_snr_spec("1,3,9") == (1.0, 3.0, 9.0)
    with pytest.raises(ConfigError):
        m.parse_snr_spec("5:1:2")
    with pytest.raises(ConfigError):
        m.parse_snr_spec("a:b:c")


def test_snr_range_point_count_is_capped(tmp_path, capsys):
    cap = harness.MAX_SNR_POINTS
    assert len(m.parse_snr_spec(f"0:{cap - 1}:1")) == cap
    for raw in (f"0:{cap}:1", "0:1e9:1", "0:1e308:1e-308", "-1e308:1e308:1"):
        with pytest.raises(ConfigError, match=f"more than {cap} points"):
            m.parse_snr_spec(raw)
    with pytest.raises(ConfigError, match=r"line 3: key 'snr_db': .*more than"):
        m.parse_config("n_users = 2\nn_bs = 4\nsnr_db = 0:1e9:1\n")
    cfg = write_config(tmp_path)
    assert cli.main(["--config", str(cfg), "--snr", "0:1e9:1"]) == cli.EXIT_CONFIG
    assert "more than" in capsys.readouterr().err


# 10^(SNR/10) overflows, sigma^2 underflows to 0, sigma^2 is inf, 10^(SNR/10) is 0
@pytest.mark.parametrize("snr", [4000, 3083, 3082, -3100, -3240])
def test_snr_without_a_noise_variance_is_a_config_error(tmp_path, capsys, snr):
    with pytest.raises(ConfigError, match=f"snr_db = {snr} dB has no finite"):
        m.parse_config(f"n_users = 2\nn_bs = 4\nsnr_db = 10,{snr}\n")
    cfg = write_config(tmp_path)
    assert cli.main(["--config", str(cfg), f"--snr={snr}"]) == cli.EXIT_CONFIG
    assert f"snr_db = {snr} dB" in capsys.readouterr().err
    # points whose noise variance stays finite and positive are accepted
    assert m.parse_config("n_users = 2\nn_bs = 4\nsnr_db = -3000,3070\n")


def test_parse_n_rx_total_cross_check():
    ok = "n_users = 2\nn_bs = 4\nn_rx_total = 4\nsnr_db = 10\n"
    assert m.parse_config(ok).system.n_rx_total == 4
    bad = "n_users = 2\nn_bs = 4\nn_rx_total = 6\nsnr_db = 10\n"
    with pytest.raises(ConfigError, match="n_rx_total"):
        m.parse_config(bad)


def test_parse_large_distributed_scenario():
    text = """
    n_users = 32
    antennas_per_user = 2
    n_bs = 32
    n_heads = 32
    antennas_per_head = 1
    n_rx_total = 64
    coded = true
    idd.iterations = 4
    packet_symbols = 500
    snr_db = 0:16:2
    """
    spec = m.parse_config(text)
    assert spec.system.n_rx_total == 64
    assert spec.system.n_streams == 64
    assert spec.system.n_heads > 0
    assert spec.coded and spec.idd_iterations == 4


def test_parse_comments_and_inline_comments():
    text = "n_users = 2  # two terminals\nn_bs = 4\n\n# done\nsnr_db = 5\n"
    assert m.parse_config(text).system.n_users == 2


def test_hash_in_value_is_not_a_comment():
    spec = small_spec(out="res#1.csv")
    text = m.serialize_config(spec)
    assert "out = res#1.csv\n" in text
    assert m.parse_config(text) == spec
    assert m.parse_config(text + "# done\n").out == "res#1.csv"
    tail = m.parse_config(text.replace("res#1.csv", "res#1.csv\t# trailing"))
    assert tail.out == "res#1.csv"


@pytest.mark.parametrize("out", ["", " x.csv", "x.csv ", "a\nb.csv", "a\x1cb.csv",
                                 "a #1.csv", "a\t#1.csv", "#1.csv"])
def test_validate_rejects_out_that_cannot_round_trip(out):
    with pytest.raises(ConfigError, match="out"):
        small_spec(out=out)


def test_validate_rejects_bad_combinations():
    with pytest.raises(ConfigError, match="ml"):
        small_spec(system=m.SystemConfig(n_users=11, n_bs=12), detector="ml")
    with pytest.raises(ConfigError, match="soft MMSE"):
        small_spec(detector="sic", coded=True)
    with pytest.raises(ConfigError, match="pilot_len"):
        small_spec(estimator="rls", pilot_len=0)
    with pytest.raises(ConfigError, match="lambda"):
        small_spec(forgetting=1.5)
    with pytest.raises(ConfigError):
        small_spec(detector="vblast")
    with pytest.raises(ConfigError):
        small_spec(snr_db=(3.0, 3.0))
    with pytest.raises(ConfigError, match="rank"):
        small_spec(estimator="rr-pc", pilot_len=16, rank=100)
    with pytest.raises(ConfigError):
        small_spec(coded=True, estimator="rr-jio", pilot_len=16)


@pytest.mark.parametrize("overrides", [
    dict(seed=-1), dict(snr_db=(float("inf"),)), dict(snr_db=(4.0, float("nan"))),
    dict(idd_iterations=0), dict(pilot_len=-3), dict(step_size=float("nan")),
], ids=["seed", "snr-inf", "snr-nan", "idd-iterations", "pilot-len", "mu-nan"])
def test_validate_is_the_gate_before_a_sweep(overrides):
    spec = m.ScenarioSpec(system=m.SystemConfig(n_users=2, n_bs=4), packet_symbols=64,
                          snr_db=(8.0,), packets=1, seed=3)
    spec = dataclasses.replace(spec, **overrides)
    with pytest.raises(ConfigError):
        spec.validate()
    with pytest.raises(ConfigError):
        m.run_sweep(spec)


#: every int field of a scenario and its config key
INT_KEYS = {"branches": "branches", "idd_iterations": "idd.iterations", "rank": "rank",
            "pilot_len": "pilot_len", "packet_symbols": "packet_symbols",
            "packets": "packets", "seed": "seed"}


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=["2.5", "2.0", "True", "str"])
@pytest.mark.parametrize("field", INT_KEYS)
def test_validate_rejects_non_integer_int_fields(field, value):
    # seed = 1.5 would run as seed 1 but write 1.5; packets = 2.5 would die
    # in range(); packets = True would run one packet
    spec = dataclasses.replace(small_spec(), **{field: value})
    message = f"{INT_KEYS[field]} must be an integer, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        spec.validate()
    with pytest.raises(ConfigError, match=re.escape(message)):
        m.run_sweep(spec)
    # nor would its text parse back to it
    try:
        again = m.parse_config(m.serialize_config(spec))
    except ConfigError:
        again = None
    assert again != spec


#: a DAS system whose every int field is 2
SYSTEM_TWOS = dict(n_users=2, n_bs=2, n_heads=2, antennas_per_head=2, antennas_per_user=2)


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=["2.5", "2.0", "True", "str"])
@pytest.mark.parametrize("field", SYSTEM_TWOS)
def test_system_rejects_non_integer_int_fields(field, value):
    # n_users = 2.0 would pass validation, die in run_sweep with a raw
    # TypeError and write a text that parse_config rejects
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        m.SystemConfig(**{**SYSTEM_TWOS, field: value})
    # what the system accepts writes a text that parses back to it, ints as ints
    system = m.SystemConfig(**SYSTEM_TWOS)
    again = m.parse_config(m.serialize_config(small_spec(system=system))).system
    assert again == system and type(getattr(again, field)) is int
    # a numpy integer is an integer: accepted and stored as an int, in the
    # system and in the scenario's packets
    numpy_two = m.SystemConfig(**{**SYSTEM_TWOS, field: np.int64(2)})
    assert numpy_two == system and type(getattr(numpy_two, field)) is int
    spec = small_spec(system=numpy_two, packets=np.int64(2)).validate()
    assert type(spec.packets) is int and spec == small_spec(system=system, packets=2)
    assert m.parse_config(m.serialize_config(spec)) == spec


#: a wrong-typed value of a field of each other kind, and what the field
#: must be
WRONG_TYPES = [("coded", "no", "True or False"), ("coded", 1, "True or False"),
               ("forgetting", "0.9", "a real number"), ("out", 5, "a string"),
               ("detector", 5, "a string"), ("snr_db", ("4",), "a sequence of real numbers"),
               ("snr_db", b"45", "a sequence of real numbers"),
               ("system", None, "a SystemConfig")]


@pytest.mark.parametrize("field, value, kind", WRONG_TYPES,
                         ids=[f"{f}={v!r}" for f, v, _ in WRONG_TYPES])
def test_validate_rejects_wrong_typed_fields(field, value, kind):
    # coded = "no" ran coded and wrote a text that parsed back as False;
    # most others raised a raw TypeError or AttributeError
    spec = dataclasses.replace(small_spec(), **{field: value})
    message = f"{harness._RENAMED.get(field, field)} must be {kind}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        spec.validate()
    with pytest.raises(ConfigError, match=re.escape(message)):
        m.run_sweep(spec)


SYSTEM_WRONG_TYPES = [("rho", "0.2", "a real number"), ("symbol_power", "1", "a real number"),
                      ("path_gain_range", (0.5,), "two real numbers"),
                      ("distance_range", ("0.2", "0.8"), "two real numbers")]


@pytest.mark.parametrize("field, value, kind", SYSTEM_WRONG_TYPES,
                         ids=[f"{f}={v!r}" for f, v, _ in SYSTEM_WRONG_TYPES])
def test_system_rejects_wrong_typed_fields(field, value, kind):
    message = f"{field} must be {kind}, got {value!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        m.SystemConfig(**{**SYSTEM_TWOS, field: value})


def test_list_ranges_and_snr_points_are_stored_as_tuples():
    # a list range died in validate with a raw "unhashable type: 'list'"
    lists = small_spec(system=m.SystemConfig(n_users=2, n_bs=4, path_gain_range=[0.5, 0.9],
                                             distance_range=[0.2, 0.8]), snr_db=[4, 8.5])
    tuples = small_spec(system=m.SystemConfig(n_users=2, n_bs=4, path_gain_range=(0.5, 0.9),
                                              distance_range=(0.2, 0.8)), snr_db=(4.0, 8.5))
    for value in (lists.system.path_gain_range, lists.system.distance_range, lists.snr_db):
        assert type(value) is tuple and all(type(v) is float for v in value)
    assert lists == tuples
    again = m.parse_config(m.serialize_config(lists))
    assert again == lists
    assert harness.scenario_hash(again) == harness.scenario_hash(lists) == harness.scenario_hash(
        tuples)
    assert m.format_csv(m.run_sweep(lists)) == m.format_csv(m.run_sweep(tuples))


def test_int_fields_round_trip_as_ints():
    again = m.parse_config(m.serialize_config(ALL_KEYS.validate()))
    for field in INT_KEYS:
        assert type(getattr(again, field)) is int
        assert getattr(again, field) == getattr(ALL_KEYS, field) != getattr(m.ScenarioSpec,
                                                                            field)


def test_equal_specs_hash_equally():
    ints = m.ScenarioSpec(system=m.SystemConfig(n_users=2, n_bs=4, rho=0),
                          forgetting=1, snr_db=(8,))
    floats = m.ScenarioSpec(system=m.SystemConfig(n_users=2, n_bs=4, rho=0.0),
                            forgetting=1.0, snr_db=(8.0,))
    assert ints == floats
    assert m.serialize_config(ints) == m.serialize_config(floats)
    again = m.parse_config(m.serialize_config(ints))
    assert again == ints
    assert (harness.scenario_hash(ints) == harness.scenario_hash(floats)
            == harness.scenario_hash(again))


@pytest.mark.parametrize("branches", [0, 3, 5])
def test_validate_rejects_branches_beyond_streams(branches):
    with pytest.raises(ConfigError, match="branches"):
        small_spec(detector="mb-sic", branches=branches)


def test_validate_accepts_branches_up_to_streams():
    assert small_spec(detector="mb-sic", branches=2).branches == 2
    # other detectors ignore the branch count
    assert small_spec(detector="sic", branches=5).branches == 5


# -- trials and sweeps --------------------------------------------------------

def test_run_trial_is_deterministic():
    spec = small_spec()
    a = m.run_trial(spec, 8.0, 1)
    b = m.run_trial(spec, 8.0, 1)
    assert (a.bits, a.errors) == (b.bits, b.errors)


def test_run_trial_rejects_unswept_snr():
    with pytest.raises(ConfigError):
        m.run_trial(small_spec(), 9.0, 0)


def test_run_trial_zero_noise_zf_is_error_free(monkeypatch):
    spec = small_spec(detector="zf")
    monkeypatch.setattr(harness, "trial_noise_variance", lambda s, snr: 0.0)
    res = m.run_trial(spec, 8.0, 0)
    assert res.errors == 0
    assert res.bits == 2 * 64 * 2  # streams x symbols x bits per symbol


def test_trial_bits_accounting_coded():
    spec = small_spec(coded=True, packet_symbols=100, detector="mmse")
    res = m.run_trial(spec, 8.0, 0)
    assert res.bits == 2 * 98  # streams x information bits
    assert res.errors <= res.bits
    assert len(res.per_iteration_errors) == spec.idd_iterations


def test_sweep_single_point_structure():
    spec = small_spec(packets=1)
    result = m.run_sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.bits == 2 * 64 * 2
    assert 0 <= row.errors <= row.bits
    assert row.ci_low <= row.ber <= row.ci_high


def test_coded_sweep_keeps_per_iteration_errors():
    spec = small_spec(coded=True, packet_symbols=100, idd_iterations=3,
                      snr_db=(2.0, 8.0), packets=3)
    result = m.run_sweep(spec)
    assert result.errors.shape == (2, spec.packets, 3)
    for row in result.rows:
        trials = [m.run_trial(spec, row.snr_db, t) for t in range(spec.packets)]
        assert row.per_iteration_errors == tuple(
            sum(t.per_iteration_errors[i] for t in trials) for i in range(3))
        assert row.per_iteration_errors[-1] == row.errors
    assert any(row.per_iteration_errors[0] > 0 for row in result.rows)
    # the CSV does not carry them: the errors of earlier iterations do not
    # reach it
    early = result.errors.copy()
    early[..., :-1] = 0
    bare = dataclasses.replace(result, errors=early)
    assert [row.per_iteration_errors[:-1] for row in bare.rows] == [(0, 0)] * 2
    assert m.format_csv(bare) == m.format_csv(result)
    assert m.run_sweep(small_spec()).rows[0].per_iteration_errors == ()


_RECORDED = {"uncoded": dict(snr_db=(2.0, 8.0), packets=5),
             "coded": dict(coded=True, packet_symbols=100, idd_iterations=3,
                           snr_db=(2.0, 8.0), packets=5),
             "coded-1-iteration": dict(coded=True, packet_symbols=100, idd_iterations=1,
                                       snr_db=(2.0, 8.0), packets=5)}


@pytest.mark.parametrize("extra", _RECORDED.values(), ids=_RECORDED)
def test_one_packet_records_sum_to_their_row(extra):
    # the contract that a benchmark summing run_trial(spec, snr, t) over a
    # point's packets relies on: .errors and .bits are ints, and their sums
    # are the point's row
    spec = small_spec(**extra)
    result = m.run_sweep(spec)
    for point, row in enumerate(result.rows):
        trials = [m.run_trial(spec, row.snr_db, t) for t in range(spec.packets)]
        assert all(type(t.errors) is int and type(t.bits) is int for t in trials)
        assert (sum(t.errors for t in trials), sum(t.bits for t in trials)) == (
            row.errors, row.bits)
        assert row.errors > 0
        # each packet's slot of the sweep's errors holds its record
        assert same_bytes(result.errors[point].T, np.concatenate(
            [t.packet_errors for t in trials], axis=-1))
    iterations = spec.idd_iterations if spec.coded else 1
    assert result.errors.shape == (2, spec.packets, iterations)


def test_rows_and_csv_are_a_function_of_the_errors_and_failed_blocks(monkeypatch):
    # two blocks a point; the first point loses its second block
    size = harness.MAX_BLOCK_STREAMS // 8
    spec = small_spec(system=m.SystemConfig(n_users=8, n_bs=16), snr_db=(10.0, 2.0, 6.0),
                      packets=size + 2)
    _failing_packets(monkeypatch, spec, [(1, size + 1)])
    result = m.run_sweep(spec)
    assert [r.snr_db for r in result.rows] == [2.0, 6.0, 10.0]
    assert result.failed == [[(range(size, size + 2),
                               "NumericalError: synthetic failure")], [], []]
    # built from the arrays alone, a result reads the same rows (a failed
    # row's NaNs compare by their repr) and CSV
    again = m.SweepResult(spec, result.errors.copy(), result.failed, "")
    assert repr(again.rows) == repr(result.rows)
    assert m.format_csv(again) == m.format_csv(result)
    bits = spec.packets * 8 * 2 * spec.packet_symbols
    for row, errors in zip(result.rows[1:], result.errors[1:]):
        assert (row.bits, row.errors) == (bits, int(errors[:, -1].sum()))
        assert row.ci_low <= row.ber == row.errors / bits <= row.ci_high
    failed = result.rows[0]
    assert (failed.failed, failed.failed_blocks, failed.bits, failed.errors) == (True, 1, 0, 0)
    assert np.isnan(failed.ber) and result.failures == {2.0: failed.message}
    # a failed point's packets, and the failure's message, are all its row reads
    noise = result.errors.copy()
    noise[0] += 7
    assert repr(m.SweepResult(spec, noise, result.failed, "").rows) == repr(result.rows)
    moved = [[(range(size, size + 2), "LinAlgError: elsewhere")], [], []]
    assert m.SweepResult(spec, noise, moved, "").rows[0].message == "LinAlgError: elsewhere"
    noise[1, 0, 0] += 1
    assert m.format_csv(m.SweepResult(spec, noise, result.failed, "")).split("\n")[2] != (
        m.format_csv(result).split("\n")[2])


def test_sweep_parallel_matches_serial():
    spec = small_spec(snr_db=(4.0, 10.0), packets=3)
    serial = m.run_sweep(spec, workers=1)
    parallel = m.run_sweep(spec, workers=3)
    assert m.format_csv(serial) == m.format_csv(parallel)


def test_sweep_marks_failed_points(monkeypatch):
    spec = small_spec(snr_db=(4.0, 10.0), packets=2)

    real = harness.run_trial

    def sometimes(s, snr_db, trial_index):
        if snr_db == 4.0:
            raise NumericalError("synthetic failure")
        return real(s, snr_db, trial_index)

    monkeypatch.setattr(harness, "run_trial", sometimes)
    result = m.run_sweep(spec)
    assert result.rows[0].failed and np.isnan(result.rows[0].ber)
    assert not result.rows[1].failed
    assert 4.0 in result.failures


# every receiver function and whether it also takes matched outputs after
# the Gram matrix (an inverse of it for linear_detect, or stacks of both
# for idd_receive)
_RECEIVERS = {"compute_receive_filter": False, "compute_ordering": False,
              "linear_detect": True, "sic_detect": True, "mb_sic_detect": True,
              "df_detect": True, "ml_detect_oracle": True,
              "soft_mmse_sic_detect": True, "idd_receive": True}


def test_receivers_see_only_the_matched_domain(monkeypatch):
    # the harness draws every packet's data as (A, y) before a receiver runs:
    # A is (M, M) and y is (M, T), never an array with N_A rows, and only
    # the pilots pass through the antennas
    system = m.SystemConfig(n_users=2, n_bs=6)  # M = 2 streams, N_A = 6 antennas
    n_streams, n_sym = system.n_streams, 100
    calls = collections.Counter()
    pilot_lens = []
    transmit = harness.channel_transmit

    def pilots_only(chan, symbols, *args):
        assert np.shape(symbols)[-2:] == (n_streams, pilot_lens[-1])
        calls["channel_transmit"] += 1
        return transmit(chan, symbols, *args)

    monkeypatch.setattr(harness, "channel_transmit", pilots_only)

    def guard(name, fn):
        def receiver(*args, **kwargs):
            if args[0] is not None or name != "linear_detect":
                assert np.shape(args[0])[-2:] == (n_streams, n_streams), name
            if _RECEIVERS[name]:
                assert np.shape(args[1])[-2:] == (n_streams, n_sym), name
            calls[name] += 1
            return fn(*args, **kwargs)
        return receiver

    for module in (harness, detectors, idd):
        for name in _RECEIVERS.keys() & vars(module).keys():
            monkeypatch.setattr(module, name, guard(name, getattr(module, name)))
    specs = [dict(detector=det) for det in harness.DETECTORS]
    specs += [dict(estimator=est, pilot_len=24) for est in ("ls", "lms")]
    specs += [dict(estimator="rr-krylov", pilot_len=24, rank=2, forgetting=0.998),
              dict(coded=True, idd_iterations=2)]
    for extra in specs:
        pilot_lens.append(extra.get("pilot_len", 0))
        m.run_sweep(small_spec(system=system, packet_symbols=n_sym, packets=3, branches=2,
                               **extra))
    # one block of three packets per sweep
    assert calls.pop("channel_transmit") == len(specs)
    assert calls.keys() == _RECEIVERS.keys()


# every uncoded receiver, on four streams so that orderings and branches differ
_FOUR = dict(system=m.SystemConfig(n_users=4, n_bs=8), branches=3)
_ONE_PACKET_VIEW = {"coded": dict(coded=True, packet_symbols=100),
                    "lms": dict(estimator="lms", pilot_len=16), "mmse": dict()}
_ONE_PACKET_VIEW.update({det: dict(_FOUR, detector=det) for det in ("rmf", "zf", "ml")})
_ONE_PACKET_VIEW.update({f"{det}-{design}": dict(_FOUR, detector=det, filter_design=design)
                         for det in ("df-s", "df-p") for design in ("zf", "mmse")})
_ONE_PACKET_VIEW.update({f"{det}-{design}-{order}": dict(_FOUR, detector=det,
                                                         filter_design=design, ordering=order)
                         for det in ("sic", "mb-sic") for design in ("zf", "mmse")
                         for order in ORDERING_CRITERIA})


@pytest.mark.parametrize("extra", _ONE_PACKET_VIEW.values(), ids=_ONE_PACKET_VIEW)
def test_run_trial_is_the_one_packet_view_of_its_block(extra):
    # a block is detected on its stacks in one call; each packet's result is
    # what it gives alone, in blocks of one, two and three packets
    spec = small_spec(packets=5, **extra)
    block = m.run_trial(spec, 8.0, range(5))
    assert same_record(block, joined(m.run_trial(spec, 8.0, t) for t in range(5)))
    for n_pkt in (1, 2, 3):
        part = m.run_trial(spec, 8.0, range(2, 2 + n_pkt))
        assert same_bytes(part.packet_errors, block.packet_errors[:, 2:2 + n_pkt])


_DAS = m.SystemConfig(n_users=2, n_bs=2, n_heads=2, antennas_per_head=1)
_TRAINED = {f"{est}-{name}": dict(system=system, estimator=est, pilot_len=24, rank=2,
                                   forgetting=0.998, step_size=0.05)
            for est in ("ls", "rls", "lms", "rr-pc", "rr-krylov", "rr-jio")
            for name, system in (("cas", m.SystemConfig(n_users=2, n_bs=4)),
                                 ("das", _DAS))}
_TRAINED["coded-lms"] = dict(coded=True, packet_symbols=100, estimator="lms",
                             pilot_len=24, step_size=0.05)


@pytest.mark.parametrize("n_pkt", [1, 2, 3])
@pytest.mark.parametrize("extra", _TRAINED.values(), ids=_TRAINED)
def test_trained_block_equals_its_packets_alone(extra, n_pkt):
    # a block trains its packets together; each result is the packet's own
    spec = small_spec(packets=3, **extra)
    assert same_record(m.run_trial(spec, 8.0, range(n_pkt)),
                       joined(m.run_trial(spec, 8.0, t) for t in range(n_pkt)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("est", ["lms", "rr-jio", "rr-krylov"])
def test_sweep_csv_matches_per_packet_training(monkeypatch, workers, est):
    spec = small_spec(estimator=est, pilot_len=24, rank=2, forgetting=0.998,
                      snr_db=(2.0, 8.0), packets=5)
    assert len(harness.trial_blocks(spec)[0]) > 1
    blocked = m.run_sweep(spec, workers=workers)
    real = harness._train

    def per_packet(spec, pilots, rx_pilots):
        return np.concatenate([real(spec, s[None], r[None])
                               for s, r in zip(pilots, rx_pilots)])

    monkeypatch.setattr(harness, "_train", per_packet)
    assert m.format_csv(m.run_sweep(spec, workers=workers)) == m.format_csv(blocked)


def test_trial_blocks_cover_the_point_within_the_stream_cap():
    size = harness.MAX_BLOCK_STREAMS // 2  # 2 streams per packet
    packets = 2 * size + 1
    spec = small_spec(packets=packets)
    blocks = harness.trial_blocks(spec)
    assert [t for b in blocks for t in b] == list(range(packets))
    assert all(len(b) * 2 <= harness.MAX_BLOCK_STREAMS for b in blocks)
    assert [len(b) for b in blocks] == [size, size, 1]
    wide = dataclasses.replace(spec, system=m.SystemConfig(
        n_users=harness.MAX_BLOCK_STREAMS + 1, n_bs=harness.MAX_BLOCK_STREAMS + 1))
    assert harness.trial_blocks(wide) == [range(t, t + 1) for t in range(packets)]


@pytest.mark.parametrize("workers", [1, 2])
def test_coded_sweep_csv_matches_per_packet_receiver(monkeypatch, workers):
    spec = small_spec(coded=True, packet_symbols=100, idd_iterations=3,
                      snr_db=(2.0, 8.0), packets=5)
    assert len(harness.trial_blocks(spec)[0]) > 1
    blocked = m.run_sweep(spec, workers=workers)
    real = harness.idd_receive

    def per_packet(grams, y, noise_var, perms, **kwargs):
        outs = [real(grams[k:k + 1], y[k:k + 1], noise_var, perms[k:k + 1], **kwargs)
                for k in range(len(y))]
        return m.IddResult(
            info_bits=np.concatenate([o.info_bits for o in outs]),
            per_iteration_bits=[np.concatenate(b) for b in
                                zip(*(o.per_iteration_bits for o in outs))],
            v_hat=np.concatenate([o.v_hat for o in outs]),
            xi_var=np.concatenate([o.xi_var for o in outs]))

    monkeypatch.setattr(harness, "idd_receive", per_packet)
    alone = m.run_sweep(spec, workers=workers)
    assert m.format_csv(alone) == m.format_csv(blocked)
    assert [r.per_iteration_errors for r in alone.rows] == [
        r.per_iteration_errors for r in blocked.rows]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("error", [NumericalError("synthetic failure"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["numerical", "linalg"])
@pytest.mark.parametrize("coded", [True, False], ids=["coded", "uncoded"])
def test_failure_in_one_packet_of_a_block_fails_only_its_point(monkeypatch, workers,
                                                               error, coded):
    spec = small_spec(coded=coded, packet_symbols=100, snr_db=(4.0, 10.0), packets=5)
    assert len(harness.trial_blocks(spec)) == 1  # packet 3 shares its block
    clean = m.run_sweep(spec)
    real = harness.rngmod.substream

    def fails_once(seed, snr_index, trial_index, *purpose):
        # the block fails while it draws packet 3's large-scale gains
        if (snr_index, trial_index) + purpose == (0, 3, harness.rngmod.LARGE_SCALE):
            raise error
        return real(seed, snr_index, trial_index, *purpose)

    monkeypatch.setattr(harness.rngmod, "substream", fails_once)
    result = m.run_sweep(spec, workers=workers)
    assert result.failures == {4.0: f"{type(error).__name__}: {error}"}
    assert result.rows[0].failed and np.isnan(result.rows[0].ber)
    assert result.rows[1] == clean.rows[1]


def _failing_packets(monkeypatch, spec, chosen):
    # the mmse filter raises on a block that holds a chosen (snr index,
    # trial index) packet, which it recognises by the Gram matrix of its
    # true channel
    chans = [conftest._draw_trial_channel(spec.system, spec.seed, *key) for key in chosen]
    grams = {(chan.conj().T @ chan).tobytes() for chan in chans}
    real = harness.compute_receive_filter

    def raising(gram, *args):
        if any(item.tobytes() in grams for item in np.reshape(gram, (-1,) + gram.shape[-2:])):
            raise NumericalError("synthetic failure")
        return real(gram, *args)

    monkeypatch.setattr(harness, "compute_receive_filter", raising)


def test_non_finite_trial_is_a_failed_block():
    # LMS at mu = 10 on a 1 x 2 ml link diverges and overflows in the
    # matched statistic; without the floating-point errors raised, both
    # rows printed as ordinary BERs (125/240 and 132/240)
    spec = m.ScenarioSpec(m.SystemConfig(1, 2), detector="ml", estimator="lms",
                          step_size=10.0, pilot_len=250, packet_symbols=40, packets=3,
                          seed=111, snr_db=(0.0, 10.0))
    with pytest.warns(ParameterWarning, match="LMS step size"):
        serial = m.run_sweep(spec)
    for row in serial.rows:
        assert row.failed and row.message.startswith("FloatingPointError: "), row
    with pytest.warns(ParameterWarning, match="LMS step size"):
        pooled = m.run_sweep(spec, workers=2)
    assert m.format_csv(pooled) == m.format_csv(serial)
    assert pooled.failed == serial.failed


BLAS_THREAD_GETTERS = {"scipy_openblas_set_num_threads64_": "scipy_openblas_get_num_threads64_",
                       "openblas_set_num_threads": "openblas_get_num_threads",
                       "mkl_set_num_threads": "mkl_get_max_threads"}


def _blas_threads(_):
    found = harness.blas_thread_setter()
    if found is None:
        return None
    lib, name = found
    return getattr(lib, BLAS_THREAD_GETTERS[name])()


def test_pool_workers_run_one_blas_thread():
    found = harness.blas_thread_setter()
    assert found is None or found[1] in harness.BLAS_THREAD_SETTERS
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, initializer=harness._one_blas_thread) as pool:
        threads = list(pool.map(_blas_threads, range(2)))
    assert threads == [None if found is None else 1] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_counts_failed_blocks(monkeypatch, workers):
    # eight streams a packet: two full blocks and one of two packets
    size = harness.MAX_BLOCK_STREAMS // 8
    spec = small_spec(system=m.SystemConfig(n_users=8, n_bs=16),
                      snr_db=(2.0, 6.0, 10.0), packets=2 * size + 2)
    assert [len(b) for b in harness.trial_blocks(spec)] == [size, size, 2]
    clean = m.run_sweep(spec)
    assert [row.failed_blocks for row in clean.rows] == [0, 0, 0]
    _failing_packets(monkeypatch, spec, [(0, 1), (0, 2), (0, 2 * size + 1), (2, size)])
    result = m.run_sweep(spec, workers=workers)
    assert [row.failed_blocks for row in result.rows] == [2, 0, 1]
    assert result.failures == {2.0: "NumericalError: synthetic failure",
                               10.0: "NumericalError: synthetic failure"}
    assert result.rows[1] == clean.rows[1]
    assert m.format_csv(result) == m.format_csv(m.run_sweep(spec, workers=3 - workers))


def test_cli_prints_failed_block_count(tmp_path, monkeypatch, capsys):
    out = tmp_path / "res.csv"
    cfg = write_config(tmp_path, f"out = {out}\n")
    size = harness.MAX_BLOCK_STREAMS // 2  # 2 streams per packet
    packets = 2 * size + 1
    spec = dataclasses.replace(m.parse_config(cfg.read_text()), packets=packets)
    assert [len(b) for b in harness.trial_blocks(spec)] == [size, size, 1]
    _failing_packets(monkeypatch, spec, [(0, 0), (0, 2), (0, 2 * size)])
    assert cli.main(["--config", str(cfg), "--packets", str(packets)]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().out.splitlines()[0] == (
        "snr 8 dB: FAILED in 2 blocks (first: NumericalError: synthetic failure)")
    monkeypatch.undo()
    _failing_packets(monkeypatch, spec, [(0, 3)])
    assert cli.main(["--config", str(cfg), "--packets", str(packets)]) == cli.EXIT_NUMERICAL
    assert "FAILED in 1 block (" in capsys.readouterr().out


def test_sweep_maps_raw_linalg_error_to_failed_point(monkeypatch):
    spec = small_spec(snr_db=(4.0, 10.0), packets=2)
    real = harness.compute_receive_filter

    def singular_at_low_snr(gram, symbol_power, noise_var, kind):
        if noise_var > harness.trial_noise_variance(spec, 10.0):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(gram, symbol_power, noise_var, kind)

    monkeypatch.setattr(harness, "compute_receive_filter", singular_at_low_snr)
    result = m.run_sweep(spec)
    assert result.rows[0].failed and np.isnan(result.rows[0].ber)
    assert result.failures == {4.0: "LinAlgError: Singular matrix"}
    assert not result.rows[1].failed and result.rows[1].bits > 0


def test_jio_short_forgetting_window_fails_its_point_naming_the_regime():
    # a window of 1/(1 - 0.7) ~ 3 samples against 64 dimensions: the
    # full-dimension iterate loses positive definiteness mid-training
    with pytest.warns(ParameterWarning, match="lambda = 0.7"):
        spec = small_spec(system=m.SystemConfig(n_users=8, n_bs=64), detector="mmse",
                          estimator="rr-jio", pilot_len=300, rank=5, forgetting=0.7,
                          packet_symbols=20, packets=1, snr_db=(12.0,))
        result = m.run_sweep(spec)
    assert result.rows[0].failed
    message = result.failures[12.0]
    assert message.startswith("NumericalError: ")
    for part in ("lambda = 0.7", "1/(1 - lambda) = 3.33", "N_A = 64"):
        assert part in message


def _regime_warnings(**overrides):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m.ScenarioSpec(**overrides).validate()
    return [str(w.message) for w in caught if issubclass(w.category, ParameterWarning)]


@pytest.mark.parametrize("estimator, n_bs, lam, warns", [
    # rr-*: the window against N_A = 64
    ("rr-jio", 64, 0.9, True), ("rr-jio", 64, 0.99, False), ("rr-krylov", 64, 0.98, True),
    ("rr-pc", 64, 0.985, False), ("rr-jio", 64, 1.0, False),
    ("rr-jio", 64, 1 - 1 / 64, False),  # a window of exactly N_A
    # rls: against M = 8 streams, whatever N_A is
    ("rls", 64, 0.8, True), ("rls", 16, 0.9, False), ("rls", 16, 0.875, False),
    # the other estimators have no forgetting window to check
    ("ls", 16, 0.5, False), ("lms", 16, 0.5, False), ("perfect", 16, 0.5, False),
])
def test_validate_warns_forgetting_window_below_dimension(estimator, n_bs, lam, warns):
    dimension = n_bs if estimator.startswith("rr-") else 8
    found = _regime_warnings(system=m.SystemConfig(n_users=8, n_bs=n_bs), estimator=estimator,
                             pilot_len=300, forgetting=lam)
    window = f"1/(1 - lambda) = {1.0 / (1.0 - lam):.3g} samples" if lam < 1.0 else ""
    assert found == ([f"estimator {estimator!r}: lambda = {lam} keeps a window of {window}, "
                      f"fewer than the {dimension} dimensions it regresses on"]
                     if warns else [])


@pytest.mark.parametrize("estimator", ["rr-pc", "rr-krylov", "rr-jio"])
def test_validate_warns_fewer_pilots_than_rank(estimator):
    system = m.SystemConfig(n_users=2, n_bs=16)
    assert _regime_warnings(system=system, estimator=estimator, rank=5, pilot_len=4) == [
        f"estimator {estimator!r}: 4 pilots cannot resolve a rank-5 filter"]
    assert _regime_warnings(system=system, estimator=estimator, rank=5, pilot_len=5) == []


def test_cli_linalg_failure_still_writes_csv(tmp_path, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(harness, "compute_receive_filter", singular)
    out = tmp_path / "res.csv"
    cfg = write_config(tmp_path)
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert out.read_text().split("\n")[1].split(",")[3] == "nan"


def test_failed_csv_write_leaves_existing_file_untouched(tmp_path):
    path = tmp_path / "r.csv"
    spec = small_spec(out=str(path))
    good = m.write_csv(m.run_sweep(spec), path)
    # a non-ASCII detector name makes the write itself fail mid-way
    bad = dataclasses.replace(m.run_sweep(spec),
                              scenario=dataclasses.replace(spec, detector="mms\u00e9"))
    with pytest.raises(UnicodeEncodeError):
        m.write_csv(bad, path)
    assert path.read_text() == good
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


def test_scenario_hash_ignores_output_path():
    a = small_spec(out="a.csv")
    b = small_spec(out="elsewhere/b.csv")
    assert harness.scenario_hash(a) == harness.scenario_hash(b)
    assert harness.scenario_hash(a) != harness.scenario_hash(small_spec(seed=4))
    assert m.run_sweep(a).scenario_hash == m.run_sweep(b).scenario_hash


def test_csv_format_and_rerun_bytes(tmp_path):
    spec = small_spec(snr_db=(4.0, 10.0), out=str(tmp_path / "r.csv"))
    text1 = m.write_csv(m.run_sweep(spec), spec.out)
    text2 = m.write_csv(m.run_sweep(spec), spec.out)
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == "snr_db,bits,errors,ber,ci_low,ci_high,detector,estimator,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "4" and first[6] == "mmse" and first[7] == "perfect"
    assert first[8] == "3"
    assert (tmp_path / "r.csv").read_text() == text1


def test_confidence_interval_zero_errors():
    lo, hi = m.confidence_interval(0, 1000)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / 1000))


def test_confidence_interval_normal_case():
    lo, hi = m.confidence_interval(100, 1000)
    p = 0.1
    half = 1.959963984540054 * np.sqrt(p * 0.9 / 1000)
    assert lo == pytest.approx(p - half)
    assert hi == pytest.approx(p + half)
    assert m.confidence_interval(0, 0) == (pytest.approx(np.nan, nan_ok=True),) * 2


def test_mean_gamma_sq_cached_and_deterministic():
    cfg = m.SystemConfig(n_users=2, n_bs=4)
    assert m.mean_gamma_sq(cfg) == m.mean_gamma_sq(cfg)
    other = m.SystemConfig(n_users=2, n_bs=4, path_loss_exp=3.0)
    assert m.mean_gamma_sq(other) > m.mean_gamma_sq(cfg)


def test_estimators_dispatch_smoke():
    for est in ("ls", "rls", "lms"):
        spec = small_spec(estimator=est, pilot_len=16)
        res = m.run_trial(spec, 8.0, 0)
        assert res.bits == 256
    for est in ("rr-pc", "rr-krylov", "rr-jio"):
        spec = small_spec(estimator=est, pilot_len=24, rank=2, forgetting=0.998)
        res = m.run_trial(spec, 8.0, 0)
        assert res.bits == 256


def test_rls_trial_uses_the_recursion_solution(monkeypatch):
    # one pilot for two streams: the closed form must stand where the
    # per-pilot recursion stands, with no pilot-count floor
    spec = small_spec(estimator="rls", pilot_len=1, forgetting=0.9)
    fast = m.run_trial(spec, 8.0, 0)

    class Recursion:
        def __init__(self, n_streams, n_rx, lam, delta, *, packets):
            self.trackers = [conftest.ReferenceRls(n_streams, n_rx, lam, delta)
                             for _ in range(packets)]

        def update(self, pilots, received):
            for tracker, s, r in zip(self.trackers, pilots, received):
                tracker.run(s, r)
            return self

        @property
        def estimate(self):
            return np.stack([tracker.estimate for tracker in self.trackers])

    monkeypatch.setattr(harness, "RlsChannelEstimator", Recursion)
    assert same_record(m.run_trial(spec, 8.0, 0), fast)
    assert fast.bits == 256


@pytest.mark.parametrize("est", ["rr-pc", "rr-krylov", "rr-jio", "lms"])
def test_filter_bank_block_training_matches_per_sample(monkeypatch, est):
    # one block update of all pilots decides like one update per pilot
    spec = small_spec(estimator=est, pilot_len=24, rank=2, forgetting=0.998)
    blocked = m.run_trial(spec, 8.0, 0)
    trainer = {"rr-jio": m.JioFilterBank,
               "lms": m.LmsChannelEstimator}.get(est, m.ReducedRankFilterBank)
    update = trainer.update

    def per_sample(self, first, second):
        for i in range(first.shape[-1]):
            update(self, first[..., i:i + 1], second[..., i:i + 1])
        return self

    monkeypatch.setattr(trainer, "update", per_sample)
    assert same_record(m.run_trial(spec, 8.0, 0), blocked)


# -- criterion 6's training-curve experiment (conftest) ----------------------

def test_filter_training_channel_matches_trial_draw(monkeypatch):
    # the experiment draws its channel as trial (0, 0) of the same seed:
    # large scale first, then one small-scale substream per user
    cfg = m.SystemConfig(n_users=3, n_bs=6, antennas_per_user=2)
    seen = []
    transmit = conftest.channel_transmit

    def recording_transmit(chan, *args):
        seen.append(chan)
        return transmit(chan, *args)

    monkeypatch.setattr(conftest, "channel_transmit", recording_transmit)
    filter_training_experiment(cfg, 10.0, "rls", 2, 1.0, 20, (20,), 10, seed=9)
    from mumimo import rng as rmod
    large = m.draw_large_scale(cfg, [rmod.substream(9, 0, 0, rmod.LARGE_SCALE)])
    small = m.draw_small_scale(cfg, [[rmod.substream(9, 0, 0, rmod.SMALL_SCALE, k)
                                      for k in range(3)]])
    expected = m.compose_channel(cfg, small, large)
    assert len(seen) == 2
    for chan in seen:
        assert same_bytes(chan, expected)


def test_filter_training_experiment_contract():
    cfg = m.SystemConfig(n_users=2, n_bs=8)
    bers = filter_training_experiment(cfg, 12.0, "rls", rank=2, lam=1.0,
                                      n_train=60, checkpoints=(10, 30, 60),
                                      n_eval=200, seed=4)
    again = filter_training_experiment(cfg, 12.0, "rls", rank=2, lam=1.0,
                                       n_train=60, checkpoints=(10, 30, 60),
                                       n_eval=200, seed=4)
    assert bers.shape == (3,)
    np.testing.assert_array_equal(bers, again)
    # a checkpoint sees the first c samples, whatever the other checkpoints
    alone = filter_training_experiment(cfg, 12.0, "rls", rank=2, lam=1.0,
                                       n_train=60, checkpoints=(30,),
                                       n_eval=200, seed=4)
    assert alone[0] == bers[1]
    assert np.all((bers >= 0) & (bers <= 1))
    with pytest.raises(ConfigError):
        filter_training_experiment(cfg, 12.0, "rls", 2, 1.0, 60, (0, 10), 100, 4)
    with pytest.raises(ConfigError):
        filter_training_experiment(cfg, 12.0, "hyb", 2, 1.0, 60, (10,), 100, 4)


@pytest.mark.parametrize("delta", [0.0, -0.5])
def test_filter_training_rejects_nonpositive_delta(delta):
    cfg = m.SystemConfig(n_users=2, n_bs=8)
    with pytest.raises(ConfigError, match="delta"):
        filter_training_experiment(cfg, 12.0, "rls", 2, 1.0, 60, (10, 60), 100, 4,
                                   delta=delta)


@pytest.mark.parametrize("kwargs, message", [
    (dict(checkpoints=[]), "checkpoints"),
    (dict(n_eval=0), "n_eval"),
    (dict(n_eval=-3), "n_eval"),
    (dict(method="hyb"), "unknown training method"),
], ids=["no-checkpoints", "n-eval-zero", "n-eval-negative", "unknown-method"])
def test_filter_training_checks_inputs_before_any_draw(monkeypatch, kwargs, message):
    def no_draw(*args, **kw):
        raise AssertionError("the channel was drawn before the inputs were checked")

    monkeypatch.setattr(conftest, "_draw_trial_channel", no_draw)
    call = dict(cfg=m.SystemConfig(n_users=2, n_bs=8), snr_db=12.0, method="rls",
                rank=2, lam=1.0, n_train=60, checkpoints=(10, 60), n_eval=100, seed=4)
    call.update(kwargs)
    with pytest.raises(ConfigError, match=message):
        filter_training_experiment(**call)


def test_filter_training_methods_share_data():
    cfg = m.SystemConfig(n_users=2, n_bs=8)
    kw = dict(snr_db=12.0, rank=2, lam=0.998, n_train=40, checkpoints=(40,),
              n_eval=100, seed=11)
    a = filter_training_experiment(cfg, method="rls", **kw)
    b = filter_training_experiment(cfg, method="jio", **kw)
    assert a.shape == b.shape  # same grid; data identity is by construction


# -- CLI ----------------------------------------------------------------------

def write_config(tmp_path, extra=""):
    path = tmp_path / "scen.cfg"
    path.write_text(MINIMAL + extra)
    return path


def test_cli_runs_and_writes(tmp_path, capsys):
    out = tmp_path / "res.csv"
    cfg = write_config(tmp_path, f"out = {out}\n")
    assert cli.main(["--config", str(cfg)]) == 0
    assert out.exists()
    text = out.read_text()
    assert text.startswith("snr_db,bits,errors")
    captured = capsys.readouterr()
    assert "wrote" in captured.out


def test_cli_overrides(tmp_path):
    out = tmp_path / "res.csv"
    cfg = write_config(tmp_path)
    code = cli.main(["--config", str(cfg), "--snr", "2:6:2", "--detector", "zf",
                     "--seed", "9", "--packets", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 SNR points
    assert lines[1].split(",")[6] == "zf"
    assert lines[1].split(",")[8] == "9"


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_users = 2\nn_bs = 4\nwhoops = 1\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_output_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "missing_dir" / "x.csv"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "output error" in capsys.readouterr().err
    assert not out.parent.exists()


def test_cli_checks_output_dir_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    cfg = write_config(tmp_path)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing_dir" / "x.csv", tmp_path / "file" / "x.csv"):
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and str(out.parent) in err
    # a root process passes any permission check: stand in for a read-only directory
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "not writable" in capsys.readouterr().err


def test_cli_rejects_unwritable_out_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    cfg = write_config(tmp_path)
    # an empty out is a config error, from the file or from --out
    empty = tmp_path / "empty.cfg"
    empty.write_text(MINIMAL + "out =\n")
    assert cli.main(["--config", str(empty)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert cli.main(["--config", str(cfg), "--out", ""]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    # a path that names a directory cannot be replaced by the CSV
    for out in ("sub", "sub/", str(tmp_path / "sub"), "new/"):
        assert cli.main(["--config", str(cfg), "--out", out]) == cli.EXIT_CONFIG, out
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "directory" in err, out
    dir_cfg = tmp_path / "dir.cfg"
    dir_cfg.write_text(MINIMAL + "out = sub\n")
    assert cli.main(["--config", str(dir_cfg)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("output error: ")


def test_cli_override_validation_error(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["--config", str(cfg), "--detector", "nope"]) == 2
    # overrides are read and checked like the keys in the file
    for flags in (["--packets", "abc"], ["--seed", "-1"], ["--snr", "0:inf:2"]):
        assert cli.main(["--config", str(cfg), *flags]) == 2, flags


@pytest.mark.parametrize("detector", [d for d in harness.DETECTORS if d != "mmse"])
def test_reduced_rank_estimators_take_only_the_mmse_detector(tmp_path, capsys, detector):
    # a trained rr-* bank detects linearly whatever the detector key says,
    # so any other name would label CSV rows with a detector that never ran
    rr = dict(estimator="rr-krylov", pilot_len=16, rank=2, branches=2)
    with pytest.raises(ConfigError, match="set detector = mmse"):
        small_spec(detector=detector, **rr)
    out = tmp_path / "x.csv"
    cfg = write_config(tmp_path, "".join(f"{key} = {value}\n" for key, value in rr.items()))
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "--detector", detector]) == cli.EXIT_CONFIG
    assert "set detector = mmse" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = write_config(tmp_path)
    assert cli.main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# -- README -------------------------------------------------------------------

def readme_table(heading):
    """(keys, default, meaning) per row of the table after ``heading``."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index(heading):].split("\n\n")[1]
    rows = []
    for line in block.splitlines()[2:]:
        keys, default, meaning = (c.strip() for c in line.strip("|").split("|"))
        rows.append((re.findall(r"`([^`]+)`", keys), default.strip("`"), meaning))
    return rows


def table_keys(owner):
    return {key for key, entry in harness.CONFIG_KEYS.items() if entry.owner is owner}


def key_default(key):
    owner, name, index = harness.CONFIG_KEYS[key][:3]
    default = {f.name: f.default for f in dataclasses.fields(owner)}[name]
    return default if index is None else default[index]


def test_readme_system_table_matches_defaults():
    rows = readme_table("System geometry and propagation:")
    assert {k for keys, _, _ in rows for k in keys} == {*table_keys(m.SystemConfig),
                                                        "n_rx_total"}
    for keys, default, _ in rows:
        if keys == ["n_rx_total"]:
            continue  # a cross-check, not a field
        values = [v.strip() for v in default.split("/")]
        assert len(values) == len(keys), keys
        for key, raw in zip(keys, values):
            if raw == "required":
                assert key_default(key) is dataclasses.MISSING, key
            else:
                assert harness.parse_value(key, raw) == key_default(key), key


def test_readme_scenario_table_matches_defaults():
    rows = readme_table("Scenario:")
    assert {k for (k,), _, _ in rows} == table_keys(m.ScenarioSpec)
    for (key,), raw, meaning in rows:
        assert harness.parse_value(key, raw) == key_default(key), key
        if key in ("detector", "ordering", "estimator", "filter_design"):
            # every option the table lists must pass validation
            options = re.findall(r"`([^`]+)`", meaning)
            assert options, key
            for option in options:
                overrides = {harness.CONFIG_KEYS[key].field: option}
                if key == "estimator" and option != "perfect":
                    overrides.update(pilot_len=8, rank=2)
                if option == "mb-sic":
                    overrides.update(branches=2)  # the spec has two streams
                small_spec(**overrides)
