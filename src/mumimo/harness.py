"""Monte Carlo harness: scenario configuration, trial execution, sweeps, CSV.

A :class:`ScenarioSpec` pins everything a run needs; every random draw
inside a trial comes from a substream keyed on (master seed, SNR index,
trial index, purpose), so trials are pure functions and sweeps reproduce
byte-identically regardless of execution order or worker count.
"""

import concurrent.futures
import contextlib
import hashlib
import math
import os
import re
import time
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import rng as rngmod
from .channel import (_distance_grid, compose_channel, draw_large_scale,
                      draw_small_scale, snr_to_noise_variance)
from .config import SystemConfig
from .detectors import (ML_CANDIDATE_GUARD, ORDERING_CRITERIA, compute_ordering,
                        compute_receive_filter, df_detect, linear_detect,
                        mb_sic_detect, ml_detect_oracle, sic_detect)
from .errors import ConfigError, NumericalError
from .estimation import (DEFAULT_DELTA, JioFilterBank, LmsChannelEstimator,
                         ReducedRankFilterBank, ls_channel_estimate)
from .idd import idd_receive
from .txchain import (TrellisSpec, assemble_frame, channel_transmit,
                      coded_payload_length, labels_to_bits,
                      qpsk_constellation)

DETECTORS = ("rmf", "zf", "mmse", "sic", "mb-sic", "df-s", "df-p", "ml")
ESTIMATORS = ("perfect", "ls", "rls", "lms", "rr-pc", "rr-krylov", "rr-jio")
CSV_COLUMNS = ("snr_db", "bits", "errors", "ber", "ci_low", "ci_high",
               "detector", "estimator", "seed")

_Z95 = 1.959963984540054

#: most points an ``a:b:step`` SNR range may expand to
MAX_SNR_POINTS = 1000

#: most streams (packets x streams per packet) one trial block decodes
#: together; 24 keeps a coded block's working set near one packet's
MAX_BLOCK_STREAMS = 24

#: a comment starts a line or follows whitespace
_COMMENT = re.compile(r"^#|\s#")

#: lower bounds of the integer fields of a scenario
_MINIMA = {"idd_iterations": 1, "pilot_len": 0, "packet_symbols": 1, "rank": 1,
           "packets": 1, "seed": 0}


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation campaign: system, receiver chain and sweep control."""

    system: SystemConfig
    detector: str = "mmse"
    ordering: str = "norm"
    branches: int = 4
    filter_design: str = "mmse"
    coded: bool = False
    idd_iterations: int = 4
    estimator: str = "perfect"
    forgetting: float = 1.0
    step_size: float = 0.05
    rank: int = 5
    pilot_len: int = 0
    packet_symbols: int = 1500
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0)
    packets: int = 100
    seed: int = 1
    out: str = "results.csv"

    def validate(self):
        for name, low in _MINIMA.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{_RENAMED.get(name, name)} must be >= {low}, "
                                  f"got {getattr(self, name)}")
        if self.detector not in DETECTORS:
            raise ConfigError(f"unknown detector {self.detector!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.ordering not in ORDERING_CRITERIA:
            raise ConfigError(f"unknown ordering criterion {self.ordering!r}")
        if self.filter_design not in ("zf", "mmse"):
            raise ConfigError(f"unknown filter design {self.filter_design!r}")
        if self.detector == "mb-sic" and not 1 <= self.branches <= self.system.n_streams:
            raise ConfigError(
                f"branches must lie in [1, {self.system.n_streams}], got {self.branches}")
        if self.detector == "ml" and 4 ** self.system.n_streams > ML_CANDIDATE_GUARD:
            raise ConfigError(
                f"ml detector would enumerate 4^{self.system.n_streams} candidates")
        if self.coded and self.detector != "mmse":
            raise ConfigError(
                "coded reception runs the soft MMSE detector; set detector = mmse")
        if self.coded and self.estimator.startswith("rr-"):
            raise ConfigError("direct filter estimation does not feed the coded receiver")
        if self.estimator != "perfect" and self.pilot_len < 1:
            raise ConfigError(f"estimator {self.estimator!r} needs pilot_len >= 1")
        if self.coded:
            try:
                coded_payload_length(self.packet_symbols)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if not 0.0 < self.forgetting <= 1.0:
            raise ConfigError("lambda must lie in (0, 1]")
        if not 0.0 < self.step_size < math.inf:
            raise ConfigError("mu must be finite and > 0")
        if self.estimator.startswith("rr-") and self.rank > self.system.n_rx_total:
            raise ConfigError("rank cannot exceed the number of receive antennas")
        if not self.snr_db:
            raise ConfigError("snr_db must list at least one point")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ConfigError(f"snr_db points must be finite, got {self.snr_db}")
        if len(set(self.snr_db)) != len(self.snr_db):
            raise ConfigError("snr_db points must be distinct")
        if not self.out:
            raise ConfigError("out must name the output file")
        if (self.out != self.out.strip() or len(self.out.splitlines()) > 1
                or _COMMENT.search(self.out)):
            raise ConfigError(f"out {self.out!r} cannot be written as a config value: "
                              "no surrounding whitespace, line break or ' #'")
        return self


@dataclass
class TrialResult:
    bits: int
    errors: int
    per_iteration_errors: tuple = None


@dataclass
class SweepRow:
    snr_db: float
    bits: int
    errors: int
    ber: float
    ci_low: float
    ci_high: float
    failed: bool = False
    message: str = ""
    per_iteration_errors: tuple = ()  # coded: errors after each IDD iteration


@dataclass
class SweepResult:
    scenario: ScenarioSpec
    rows: list
    scenario_hash: str
    wall_time_s: float = 0.0

    @property
    def failures(self):
        return {row.snr_db: row.message for row in self.rows if row.failed}


# -- configuration files ------------------------------------------------------

#: fields whose config keys differ from their names
_RENAMED = {"idd_iterations": "idd.iterations", "forgetting": "lambda",
            "step_size": "mu"}


def _parse_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _parse_bool(raw):
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"cannot read boolean from {raw!r}")


def parse_snr_spec(raw: str) -> tuple:
    """SNR points from ``a:b:step`` (inclusive) or a comma list."""
    raw = raw.strip()
    try:
        if ":" in raw:
            parts = raw.split(":")
            if len(parts) != 3:
                raise ValueError("expected a:b:step")
            a, b, step = (_parse_float(p) for p in parts)
            if step <= 0 or b < a:
                raise ValueError("need step > 0 and b >= a")
            span = np.floor((b - a) / step + 1e-9)  # may overflow to inf
            if span >= MAX_SNR_POINTS:
                raise ValueError(f"more than {MAX_SNR_POINTS} points")
            return tuple(round(a + i * step, 10) for i in range(int(span) + 1))
        return tuple(_parse_float(p) for p in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse SNR specification {raw!r}: {exc}") from None


# (parse, format) per field type; a float prints as repr(float(v)), so an int
# and the equal float write the same line
_FLOAT = (_parse_float, lambda v: repr(float(v)))
_CODECS = {int: (int, str), str: (str, str), float: _FLOAT,
           bool: (_parse_bool, lambda v: str(v).lower())}


#: where a config key lives: ``owner.field``, or end ``index`` of a range field
ConfigKey = namedtuple("ConfigKey", "owner field index parse format")


def _config_keys(cls):
    # SystemConfig's fields, then the rest of ScenarioSpec's, in declaration
    # order, which is the canonical line order; a *_range field is two keys
    for f in fields(cls):
        if f.type is SystemConfig:
            yield from _config_keys(SystemConfig)
        elif f.name.endswith("_range"):
            stem = f.name[:-len("range")]
            yield stem + "min", ConfigKey(cls, f.name, 0, *_FLOAT)
            yield stem + "max", ConfigKey(cls, f.name, 1, *_FLOAT)
        elif f.name == "snr_db":
            yield f.name, ConfigKey(cls, f.name, None, parse_snr_spec,
                                    lambda v: ",".join(format(s, ".10g") for s in v))
        else:
            yield _RENAMED.get(f.name, f.name), ConfigKey(cls, f.name, None,
                                                          *_CODECS[f.type])


#: config key -> ConfigKey, in canonical order
CONFIG_KEYS = dict(_config_keys(ScenarioSpec))


def parse_value(key: str, raw: str):
    """Read the text of one config value; ``n_rx_total`` reads as an int."""
    try:
        return (int if key == "n_rx_total" else CONFIG_KEYS[key].parse)(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def parse_config(text: str) -> ScenarioSpec:
    """Parse a flat ``key = value`` scenario file.

    Lines starting with ``#`` are comments, and so is the rest of a line
    from a ``#`` that follows whitespace; any other ``#`` is part of the
    value.  Unknown, repeated and malformed keys are rejected with their
    line number.  ``n_rx_total`` is accepted as a cross-check against the
    geometry keys.
    """
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _COMMENT.split(line.strip(), maxsplit=1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key != "n_rx_total" and key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = parse_value(key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None

    check_n_rx = values.pop("n_rx_total", None)
    # a lone path_gain_min keeps the link gain deterministic
    if "path_gain_min" in values:
        values.setdefault("path_gain_max", values["path_gain_min"])
    kwargs = {SystemConfig: {}, ScenarioSpec: {}}
    for key, value in values.items():
        owner, field, index = CONFIG_KEYS[key][:3]
        if index is not None:
            ends = kwargs[owner].get(field, getattr(owner, field))
            value = ends[:index] + (value,) + ends[index + 1:]
        kwargs[owner][field] = value
    try:
        system = SystemConfig(**kwargs[SystemConfig])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid system configuration: {exc}") from None
    if check_n_rx is not None and check_n_rx != system.n_rx_total:
        raise ConfigError(
            f"n_rx_total = {check_n_rx} contradicts geometry "
            f"(n_bs + n_heads * antennas_per_head = {system.n_rx_total})")
    return ScenarioSpec(system=system, **kwargs[ScenarioSpec]).validate()


def _config_lines(spec: ScenarioSpec):
    """(field, canonical ``key = value`` line) per config key."""
    for key, (owner, field, index, _, fmt) in CONFIG_KEYS.items():
        value = getattr(spec.system if owner is SystemConfig else spec, field)
        if index is not None:
            value = value[index]
        yield field, f"{key} = {fmt(value)}"


def serialize_config(spec: ScenarioSpec) -> str:
    """Canonical flat text for a scenario; parses back to an equal spec."""
    return "".join(line + "\n" for _, line in _config_lines(spec))


def scenario_hash(spec: ScenarioSpec) -> str:
    """Short digest of the scenario; the output path is not part of it."""
    text = "".join(line + "\n" for field, line in _config_lines(spec) if field != "out")
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- trial execution ----------------------------------------------------------

def mean_gamma_sq(cfg: SystemConfig) -> float:
    """Exact E[gamma^2] of the large-scale model, used by the SNR mapping.

    ``gamma^2 = link * d^-tau * 10^(sigma v / 5)`` with independent factors:
    a uniform link gain, a distance uniform on the grid and a standard
    normal v, whose lognormal factor has mean ``exp((sigma ln10 / 5)^2 / 2)``.
    """
    grid = _distance_grid(cfg.distance_range)
    shadow = np.exp((cfg.shadow_spread_db * np.log(10.0) / 5.0) ** 2 / 2.0)
    return float(np.mean(cfg.path_gain_range) * np.mean(grid ** -cfg.path_loss_exp)
                 * shadow)


def trial_noise_variance(spec: ScenarioSpec, snr_db: float) -> float:
    rate = TrellisSpec().rate if spec.coded else 1.0
    return snr_to_noise_variance(snr_db, spec.system, rate, 2,
                                 mean_gamma_sq(spec.system))


def _draw_trial_channel(cfg: SystemConfig, seed: int, snr_index: int,
                        trial_index: int):
    large = draw_large_scale(cfg, rngmod.substream(
        seed, snr_index, trial_index, rngmod.LARGE_SCALE))
    small = [draw_small_scale(cfg, cfg.n_rx_total, rngmod.substream(
        seed, snr_index, trial_index, rngmod.SMALL_SCALE, k))
        for k in range(cfg.n_users)]
    return compose_channel(cfg, small, large)


def _build_trial_frame(spec: ScenarioSpec, snr_index: int, trial_index: int):
    cfg = spec.system
    m = cfg.n_streams
    payload_rng = rngmod.substream(spec.seed, snr_index, trial_index, rngmod.PAYLOAD)
    if spec.coded:
        k_info = coded_payload_length(spec.packet_symbols)
        payload = payload_rng.integers(0, 2, size=(m, k_info))
    else:
        payload = payload_rng.integers(0, 2, size=(m, 2 * spec.packet_symbols))
    frame_rng = rngmod.substream(spec.seed, snr_index, trial_index, rngmod.FRAME)
    return assemble_frame(cfg, payload, spec.pilot_len, frame_rng, coded=spec.coded)


def _estimate_channel(spec: ScenarioSpec, frame, received_pilots):
    cfg = spec.system
    if spec.estimator in ("ls", "rls"):
        # rls is the exact solution of the recursion started from P = I / delta
        delta = DEFAULT_DELTA if spec.estimator == "rls" else 0.0
        return ls_channel_estimate(frame.pilots, received_pilots, spec.forgetting,
                                   delta)
    tracker = LmsChannelEstimator(cfg.n_streams, cfg.n_rx_total, spec.step_size,
                                  cfg.symbol_power)
    return tracker.update(frame.pilots, received_pilots).estimate


def _train_filter_bank(spec: ScenarioSpec, frame, received_pilots):
    cfg = spec.system
    kind = spec.estimator.split("-", 1)[1]
    if kind == "jio":
        bank = JioFilterBank(cfg.n_rx_total, cfg.n_streams, spec.rank, spec.forgetting)
    else:
        bank = ReducedRankFilterBank(cfg.n_rx_total, cfg.n_streams, kind,
                                     spec.rank, spec.forgetting)
    bank.update(received_pilots, frame.pilots)
    return bank.weights


def _hard_detect(spec: ScenarioSpec, chan, block, noise_var, constellation):
    sp = spec.system.symbol_power
    name = spec.detector
    if name in ("rmf", "zf", "mmse"):
        return linear_detect(compute_receive_filter(chan, sp, noise_var, name),
                             block, constellation)
    if name == "sic":
        order = compute_ordering(chan, sp, noise_var, spec.ordering)
        return sic_detect(chan, block, order, spec.filter_design, sp, noise_var,
                          constellation)
    if name == "mb-sic":
        return mb_sic_detect(chan, block, spec.branches, spec.filter_design, sp,
                             noise_var, spec.ordering, constellation)
    if name == "df-s" or name == "df-p":
        mode = "s-df" if name == "df-s" else "p-df"
        return df_detect(chan, block, mode, spec.filter_design, sp, noise_var,
                         constellation)
    return ml_detect_oracle(chan, block, constellation)


def _receive_packet(spec: ScenarioSpec, snr_index: int, trial_index: int,
                    noise_var: float):
    """Draw one packet and estimate what its receiver works from.

    Returns the frame, the received data block and either the channel the
    detector uses (true or estimated) or the trained filter bank.
    """
    chan = _draw_trial_channel(spec.system, spec.seed, snr_index, trial_index)
    frame = _build_trial_frame(spec, snr_index, trial_index)
    received = channel_transmit(
        chan, frame.symbols(), noise_var,
        rngmod.substream(spec.seed, snr_index, trial_index, rngmod.NOISE))
    rx_pilots = received[:, :frame.n_pilots]
    rx_data = received[:, frame.n_pilots:]
    if spec.estimator.startswith("rr-"):
        return frame, rx_data, _train_filter_bank(spec, frame, rx_pilots)
    if spec.estimator != "perfect":
        return frame, rx_data, _estimate_channel(spec, frame, rx_pilots)
    return frame, rx_data, chan


def _detect_uncoded(spec: ScenarioSpec, packet, noise_var: float) -> TrialResult:
    frame, rx_data, chan_or_bank = packet
    constellation = qpsk_constellation(spec.system.symbol_power)
    if spec.estimator.startswith("rr-"):
        out = linear_detect(chan_or_bank, rx_data, constellation)
    else:
        out = _hard_detect(spec, chan_or_bank, rx_data, noise_var, constellation)
    decided = labels_to_bits(out.labels)
    reference = frame.channel_bits.reshape(decided.shape)
    return TrialResult(bits=reference.size, errors=int(np.sum(decided != reference)))


def _decode_coded(spec: ScenarioSpec, snr_index: int, block: range,
                  noise_var: float) -> list:
    """Draw the coded packets of ``block`` and decode them in one
    :func:`idd_receive` call."""
    info_bits, rx_data, chans, perms = [], [], [], []
    for t in block:
        frame, data, chan = _receive_packet(spec, snr_index, t, noise_var)
        info_bits.append(frame.info_bits)
        rx_data.append(data)
        chans.append(chan)
        perms.append(frame.perms)
    # the stacks replace the per-packet arrays for the length of the decode
    rx_data, chans, perms = np.stack(rx_data), np.stack(chans), np.stack(perms)
    result = idd_receive(rx_data, chans, noise_var, perms,
                         symbol_power=spec.system.symbol_power,
                         n_outer=spec.idd_iterations)
    results = []
    for k, info in enumerate(info_bits):
        per_iter = tuple(int(np.sum(bits[k] != info)) for bits in result.per_iteration_bits)
        results.append(TrialResult(bits=info.size, errors=per_iter[-1],
                                   per_iteration_errors=per_iter))
    return results


def run_trial(spec: ScenarioSpec, snr_db: float, trials):
    """Simulate packets of one SNR point; pure in (spec, snr, trial index).

    ``trials`` is one trial index, which returns its :class:`TrialResult`,
    or a ``range`` of them, simulated as one block, which returns a list.
    Every packet draws its channel, frame and noise from its own
    substreams, and coded packets decode exactly as they would alone, so
    a packet's result does not depend on the block it ran in.  The coded
    packets of a block go through one :func:`idd_receive` call; uncoded
    packets are detected one at a time.
    """
    try:
        snr_index = spec.snr_db.index(float(snr_db))
    except ValueError:
        raise ConfigError(f"snr_db = {snr_db} is not part of the scenario sweep") from None
    block = trials if isinstance(trials, range) else range(trials, trials + 1)
    noise_var = trial_noise_variance(spec, snr_db)
    if spec.coded:
        results = _decode_coded(spec, snr_index, block, noise_var)
    else:
        results = [_detect_uncoded(spec, _receive_packet(spec, snr_index, t, noise_var),
                                   noise_var) for t in block]
    return results if isinstance(trials, range) else results[0]


def confidence_interval(errors: int, bits: int, z: float = _Z95):
    """Binomial normal-approximation CI; one-sided exact bound at zero errors."""
    if bits <= 0:
        return float("nan"), float("nan")
    p = errors / bits
    if errors == 0:
        return 0.0, 1.0 - 0.025 ** (1.0 / bits)
    half = z * np.sqrt(p * (1.0 - p) / bits)
    return max(p - half, 0.0), min(p + half, 1.0)


def trial_blocks(spec: ScenarioSpec) -> list:
    """The ranges of trial indices that one SNR point runs as blocks.

    A block holds every packet of the point, up to ``MAX_BLOCK_STREAMS``
    streams (at least one packet).
    """
    size = max(1, MAX_BLOCK_STREAMS // spec.system.n_streams)
    return [range(t, min(t + size, spec.packets)) for t in range(0, spec.packets, size)]


def _trial_task(args):
    spec, snr_db, block = args
    try:
        return snr_db, run_trial(spec, snr_db, block), None
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return snr_db, None, f"{type(exc).__name__}: {exc}"


def run_sweep(spec: ScenarioSpec, workers: int = 1) -> SweepResult:
    """Run every (SNR, packet) trial and aggregate order-independently.

    The packets of each SNR point run in blocks (:func:`trial_blocks`),
    one task each.  A numerical failure in any packet (a
    :class:`NumericalError` or a raw ``LinAlgError`` from numpy) marks
    that SNR point failed and the sweep moves on.  Results are identical
    for any worker count.
    """
    spec.validate()
    start = time.perf_counter()
    tasks = [(spec, snr, block) for snr in spec.snr_db for block in trial_blocks(spec)]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_task, tasks))
    else:
        outcomes = [_trial_task(t) for t in tasks]

    by_point = {snr: [] for snr in spec.snr_db}
    failures = {}
    for snr_db, results, err in outcomes:
        if err is not None:
            failures.setdefault(snr_db, err)
        else:
            by_point[snr_db].extend(results)
    rows = []
    for snr in sorted(spec.snr_db):
        if snr in failures:
            rows.append(SweepRow(snr_db=snr, bits=0, errors=0, ber=float("nan"),
                                 ci_low=float("nan"), ci_high=float("nan"),
                                 failed=True, message=failures[snr]))
            continue
        bits = sum(r.bits for r in by_point[snr])
        errors = sum(r.errors for r in by_point[snr])
        lo, hi = confidence_interval(errors, bits)
        per_iter = (tuple(map(sum, zip(*(r.per_iteration_errors for r in by_point[snr]))))
                    if spec.coded else ())
        rows.append(SweepRow(snr_db=snr, bits=bits, errors=errors,
                             ber=errors / bits, ci_low=lo, ci_high=hi,
                             per_iteration_errors=per_iter))
    return SweepResult(scenario=spec, rows=rows, scenario_hash=scenario_hash(spec),
                       wall_time_s=time.perf_counter() - start)


def format_csv(result: SweepResult) -> str:
    """Render sweep rows with the fixed column set (no timing fields)."""
    spec = result.scenario
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        lines.append(",".join([
            format(row.snr_db, ".10g"),
            str(row.bits),
            str(row.errors),
            format(row.ber, ".10g"),
            format(row.ci_low, ".10g"),
            format(row.ci_high, ".10g"),
            spec.detector,
            spec.estimator,
            str(spec.seed),
        ]))
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path):
    """Write the CSV atomically: a temp file in the target directory, then
    ``os.replace``, so an existing file is never left half-written."""
    text = format_csv(result)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return text


# -- receive-filter training experiment --------------------------------------

def filter_training_experiment(cfg: SystemConfig, snr_db: float, method: str,
                               rank: int, lam: float, n_train: int,
                               checkpoints, n_eval: int, seed: int,
                               delta: float = DEFAULT_DELTA) -> np.ndarray:
    """BER of linear detection with trained filters, at training checkpoints.

    One channel realization per seed; filters adapt over ``n_train`` known
    symbol vectors at the given SNR and are frozen at each checkpoint to
    detect a held-out block of ``n_eval`` vectors (fresh symbols and
    noise).  Methods: ``rls`` (full rank), ``krylov``, ``pc``, ``jio``.
    The substreams depend only on (seed, purpose), so different methods
    see identical data.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > n_train:
        raise ConfigError("checkpoints must list at least one point in [1, n_train]")
    if n_eval < 1:
        raise ConfigError(f"n_eval must be >= 1, got {n_eval}")
    if delta <= 0.0:
        raise ConfigError(f"delta must be > 0, got {delta}")
    m = cfg.n_streams
    if method == "rls":
        # at full rank the bank solves the delta-regularized normal equations,
        # where the RLS recursion started from P = I / delta stands
        bank = ReducedRankFilterBank(cfg.n_rx_total, m, "krylov", cfg.n_rx_total,
                                     lam, delta)
    elif method == "jio":
        # joint refinement starts once the pooled covariance has ~4 snapshots
        # per dimension; before that the bank runs on the Krylov ladder
        bank = JioFilterBank(cfg.n_rx_total, m, rank, lam, delta,
                             warmup=4 * cfg.n_rx_total)
    elif method in ("krylov", "pc"):
        bank = ReducedRankFilterBank(cfg.n_rx_total, m, method, rank, lam, delta)
    else:
        raise ConfigError(f"unknown training method {method!r}")

    noise_var = snr_to_noise_variance(snr_db, cfg, 1.0, 2, mean_gamma_sq(cfg))
    chan = _draw_trial_channel(cfg, seed, 0, 0)
    constellation = qpsk_constellation(cfg.symbol_power)

    payload_rng = rngmod.substream(seed, 0, 0, rngmod.PAYLOAD)
    train_labels = payload_rng.integers(0, 4, size=(m, n_train))
    train_syms = constellation[train_labels]
    train_rx = channel_transmit(chan, train_syms, noise_var,
                                rngmod.substream(seed, 0, 0, rngmod.NOISE))
    eval_rng = rngmod.substream(seed, 0, 0, rngmod.EVAL)
    eval_labels = eval_rng.integers(0, 4, size=(m, n_eval))
    eval_syms = constellation[eval_labels]
    eval_rx = channel_transmit(chan, eval_syms, noise_var,
                               rngmod.substream(seed, 0, 0, rngmod.EVAL, 1))

    eval_bits = labels_to_bits(eval_labels)
    bers = np.empty(len(checkpoints))
    for i, (lo, hi) in enumerate(zip([0] + checkpoints[:-1], checkpoints)):
        bank.update(train_rx[:, lo:hi], train_syms[:, lo:hi])
        out = linear_detect(bank.weights, eval_rx, constellation)
        bers[i] = np.mean(labels_to_bits(out.labels) != eval_bits)
    return bers
