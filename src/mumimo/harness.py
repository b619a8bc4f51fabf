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
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import rng as rngmod
from .channel import (_distance_grid, compose_channel, draw_large_scale,
                      draw_small_scale)
from .config import SystemConfig, check_int_fields
from .detectors import (LINEAR_DESIGNS, ML_CANDIDATE_GUARD, ORDERING_CRITERIA,
                        compute_receive_filter, df_detect, linear_detect, mb_sic_detect,
                        ml_detect_oracle, sic_detect)
from .errors import ConfigError, NumericalError, ParameterWarning
from .estimation import (DEFAULT_DELTA, JioFilterBank, LmsChannelEstimator,
                         ReducedRankFilterBank, RlsChannelEstimator)
from .idd import idd_receive
from .txchain import (RATE, assemble_frame, channel_transmit, coded_payload_length,
                      labels_to_bits, matched_transmit)

DETECTORS = ("rmf", "zf", "mmse", "sic", "mb-sic", "df-s", "df-p", "ml")
ESTIMATORS = ("perfect", "ls", "rls", "lms", "rr-pc", "rr-krylov", "rr-jio")
CSV_COLUMNS = ("snr_db", "bits", "errors", "ber", "ci_low", "ci_high",
               "detector", "estimator", "seed")

_Z95 = 1.959963984540054

#: most points an ``a:b:step`` SNR range may expand to
MAX_SNR_POINTS = 1000

#: most streams (packets x streams per packet) one trial block draws, trains
#: and decodes together: a whole 8 x 16 point of up to 8 packets.  Wider
#: blocks make fewer per-block calls and hold larger (P, M, T) and, at the
#: N_A antennas, (P, N_A, M) stacks
MAX_BLOCK_STREAMS = 64

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
        check_int_fields(self, _MINIMA, ConfigError, _RENAMED)
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
        if self.estimator.startswith("rr-") and self.detector != "mmse":
            raise ConfigError(f"estimator {self.estimator!r} detects linearly with its "
                              "trained filters; set detector = mmse")
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
        for snr in self.snr_db:
            with contextlib.suppress(OverflowError, ZeroDivisionError):
                if 0.0 < trial_noise_variance(self, snr) < math.inf:
                    continue
            raise ConfigError(f"snr_db = {snr:g} dB has no finite, positive noise variance")
        if not self.out:
            raise ConfigError("out must name the output file")
        if (self.out != self.out.strip() or len(self.out.splitlines()) > 1
                or _COMMENT.search(self.out)):
            raise ConfigError(f"out {self.out!r} cannot be written as a config value: "
                              "no surrounding whitespace, line break or ' #'")
        for message in self._estimator_regimes():
            warnings.warn(message, ParameterWarning)
        return self

    def _estimator_regimes(self):
        """What the config alone says about a regime its estimator cannot
        handle well.  Each is a warning, not an error: the estimate stays
        defined, the point runs (or fails with the cause in its message), and
        these regimes are what a study of short training or fast tracking
        sets on purpose."""
        system, kind = self.system, self.estimator
        # the RLS memory 1/(1 - lambda) against the dimension of its
        # regression (Haykin, Adaptive Filter Theory): below it the solve is
        # held up by the delta regularisation alone, and JIO's full-dimension
        # iterate can lose positive definiteness
        dimension = (system.n_rx_total if kind.startswith("rr-")
                     else system.n_streams if kind == "rls" else None)
        if dimension and self.forgetting < 1.0 and 1.0 / (1.0 - self.forgetting) < dimension:
            yield (f"estimator {kind!r}: lambda = {self.forgetting} keeps a window of "
                   f"1/(1 - lambda) = {1.0 / (1.0 - self.forgetting):.3g} samples, fewer "
                   f"than the {dimension} dimensions it regresses on")
        # 2 / tr(R) for white pilots bounds the mean-square stable LMS steps;
        # mean convergence alone allows up to 2 / E_s, so a larger step may
        # still converge
        bound = 2.0 / (system.n_streams * system.symbol_power)
        if kind == "lms" and self.step_size >= bound:
            yield (f"LMS step size mu = {self.step_size} is at least 2 / tr(R) = "
                   f"{bound:.4g}; the recursion may diverge")
        # fewer pilots than the rank leave part of each reduced-rank filter
        # to the regularisation
        if kind.startswith("rr-") and self.pilot_len < self.rank:
            yield (f"estimator {kind!r}: {self.pilot_len} pilots cannot resolve a "
                   f"rank-{self.rank} filter")


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """A trial block's bit errors, ``packet_errors`` (iterations, packets)
    with one iteration when uncoded, and the ``packet_bits`` of each packet;
    ``errors`` sums the last iteration over the packets."""

    packet_errors: np.ndarray
    packet_bits: int
    errors = property(lambda self: int(self.packet_errors[-1].sum()))
    bits = property(lambda self: self.packet_bits * self.packet_errors.shape[-1])
    per_iteration_errors = property(lambda self: tuple(self.packet_errors.sum(-1).tolist()))


@dataclass
class SweepRow:
    snr_db: float
    bits: int
    errors: int
    ber: float
    ci_low: float
    ci_high: float
    failed: bool = False
    message: str = ""  # the first failure of the point
    failed_blocks: int = 0  # trial blocks of the point that failed
    per_iteration_errors: tuple = ()  # coded: errors after each IDD iteration


@dataclass
class SweepResult:
    """A sweep's bit errors per packet, from which its rows are read.

    ``errors`` is (points, packets, iterations), points in ascending SNR
    as the rows are.  ``failed`` lists each point's failed blocks as (trial
    range, message) pairs in block order; their packets read 0 in ``errors``.
    """

    scenario: ScenarioSpec
    errors: np.ndarray
    failed: list
    scenario_hash: str
    wall_time_s: float = 0.0

    @property
    def rows(self):
        """One :class:`SweepRow` per point, in ascending SNR."""
        spec, nan = self.scenario, float("nan")
        bits = spec.packets * spec.system.n_streams * _stream_bits(spec)
        rows = []
        for snr, errors, fails in zip(sorted(spec.snr_db), self.errors, self.failed):
            if fails:
                rows.append(SweepRow(snr, 0, 0, nan, nan, nan, True, fails[0][1], len(fails)))
                continue
            per_iter = errors.sum(axis=0).tolist()
            rows.append(SweepRow(snr, bits, per_iter[-1], per_iter[-1] / bits,
                                 *confidence_interval(per_iter[-1], bits),
                                 per_iteration_errors=tuple(per_iter) if spec.coded else ()))
        return rows

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

@lru_cache(maxsize=8)
def mean_gamma_sq(cfg: SystemConfig) -> float:
    """Exact E[gamma^2] of the large-scale model, used by the SNR mapping.

    ``gamma^2 = link * d^-tau * 10^(sigma v / 5)`` with independent factors:
    a uniform link gain, a distance uniform on the grid and a standard
    normal v, whose lognormal factor has mean ``exp((sigma ln10 / 5)^2 / 2)``.
    The value is pure in the frozen config, so it is cached per config.
    """
    grid = _distance_grid(cfg.distance_range)
    shadow = np.exp((cfg.shadow_spread_db * np.log(10.0) / 5.0) ** 2 / 2.0)
    return float(np.mean(cfg.path_gain_range) * np.mean(grid ** -cfg.path_loss_exp)
                 * shadow)


def trial_noise_variance(spec: ScenarioSpec, snr_db: float) -> float:
    """Noise variance realizing ``snr_db``, the total mean received symbol
    energy over the noise energy per coded bit:
    ``sigma_n^2 = K N_U sigma_s^2 E[gamma^2] / (R C 10^(SNR/10))``, with
    C = 2 bits per QPSK symbol and R the code rate (1 uncoded)."""
    cfg = spec.system
    rate = RATE if spec.coded else 1.0
    signal = cfg.n_streams * cfg.symbol_power * mean_gamma_sq(cfg)
    return signal / (rate * 2 * 10.0 ** (snr_db / 10.0))


def _stream_bits(spec: ScenarioSpec) -> int:
    """Bits one stream of a packet carries: its information bits if coded."""
    return coded_payload_length(spec.packet_symbols) if spec.coded else 2 * spec.packet_symbols


def _train(spec: ScenarioSpec, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Train the receivers of a block on its packets' pilots.

    ``s`` is the block's known pilots (P, M, n) and ``r`` the received
    ones (P, N_A, n).  Returns the packets' channel estimates (ls, rls,
    lms) or receive filters (rr-*) stacked, (P, N_A, M).  Every trainer
    takes the block's pilots in one call, and JIO steps every packet in
    one per-sample loop.
    """
    cfg = spec.system
    packets = len(s)
    kind = spec.estimator.removeprefix("rr-")
    if kind in ("ls", "rls"):
        # rls is the exact solution of the recursion started from P = I / delta
        delta = DEFAULT_DELTA if kind == "rls" else 0.0
        return RlsChannelEstimator(cfg.n_streams, cfg.n_rx_total, spec.forgetting,
                                   delta, packets=packets).update(s, r).estimate
    if kind == "lms":
        # ScenarioSpec.validate warns about a step size past the LMS bound
        return LmsChannelEstimator(cfg.n_streams, cfg.n_rx_total, spec.step_size,
                                   packets=packets).update(s, r).estimate
    if kind == "jio":
        bank = JioFilterBank(cfg.n_rx_total, cfg.n_streams, spec.rank,
                             spec.forgetting, packets=packets)
    else:
        bank = ReducedRankFilterBank(cfg.n_rx_total, cfg.n_streams, kind,
                                     spec.rank, spec.forgetting, packets=packets)
    bank.update(r, s)
    return bank.weights


def _detect(spec: ScenarioSpec, gram, matched, noise_var):
    """Hard decisions (P, M, T) of the configured detector on a block's
    stacked ``(A, y)``, each packet decided as it would be alone.  An rr-*
    front end is its trained bank W, whose outputs ``W^H r`` are sliced as
    they stand: the rmf case."""
    sp = spec.system.symbol_power
    name = "rmf" if spec.estimator.startswith("rr-") else spec.detector
    if name in LINEAR_DESIGNS:
        return linear_detect(compute_receive_filter(gram, sp, noise_var, name), matched)
    if name == "sic":
        return sic_detect(gram, matched, spec.ordering, spec.filter_design, sp, noise_var)
    if name == "mb-sic":
        return mb_sic_detect(gram, matched, spec.branches, spec.filter_design, sp,
                             noise_var, spec.ordering)
    if name == "df-s" or name == "df-p":
        mode = "s-df" if name == "df-s" else "p-df"
        return df_detect(gram, matched, mode, spec.filter_design, sp, noise_var)
    return ml_detect_oracle(gram, matched, sp)


@lru_cache(maxsize=1)
def _keep_freed_heap():
    """Free one untouched 16 MB allocation, once per process.

    glibc raises its mmap threshold to the size of each mapping freed and
    hands a free heap top above twice the threshold back to the kernel
    (mallopt(3), M_MMAP_THRESHOLD), whose pages then fault in again in the
    next block: about 1.7 MB a block at 8 x 16 and 8 packets.  After this
    one free, arrays up to 16 MB come from the heap and a block's freed
    stacks stay there; no page of the allocation itself is touched.  Other
    allocators ignore it.
    """
    np.empty(16 << 20, dtype=np.uint8)


def _receive_block(spec: ScenarioSpec, snr_index: int, block: range,
                   noise_var: float):
    """Draw the packets of ``block`` into stacks, train their receivers in
    one call and draw each packet's data as its receiver's front end sees it.

    Each packet's 4 + K substreams, keyed on (seed, SNR index, trial
    index, purpose), are its large-scale, small-scale (one per user),
    payload, frame and noise generators; every draw function runs once per
    block and fills each packet's slots of its stacks from that packet's
    generators, in their order.  The noise generator draws the pilots'
    noise at the N_A antennas, then the data's.  The front end F is the
    true channel, the estimated one or the trained receive filters.
    Returns the block's stacked :class:`SymbolFrame` and its statistics
    ``(A, y)`` (P, M, M) and (P, M, T) of :func:`matched_transmit`; no
    data is drawn at the N_A antennas.
    """
    cfg = spec.system
    keys = [(spec.seed, snr_index, t) for t in block]
    gains = draw_large_scale(cfg, [rngmod.substream(*key, rngmod.LARGE_SCALE)
                                   for key in keys])
    small = draw_small_scale(cfg, [[rngmod.substream(*key, rngmod.SMALL_SCALE, k)
                                    for k in range(cfg.n_users)] for key in keys])
    chans = compose_channel(cfg, small, gains)
    payload = np.empty((len(keys), cfg.n_streams, _stream_bits(spec)), dtype=np.int8)
    for key, bits in zip(keys, payload):
        bits[...] = rngmod.substream(*key, rngmod.PAYLOAD).integers(0, 2, size=bits.shape)
    frame = assemble_frame(cfg, payload, spec.pilot_len,
                           [rngmod.substream(*key, rngmod.FRAME) for key in keys],
                           coded=spec.coded)
    noises = [rngmod.substream(*key, rngmod.NOISE) for key in keys]
    rx_pilots = channel_transmit(chans, frame.pilots, noise_var, noises)
    fronts = chans if spec.estimator == "perfect" else _train(spec, frame.pilots, rx_pilots)
    return (frame,) + matched_transmit(fronts, chans, frame.data_symbols, noise_var, noises)


def run_trial(spec: ScenarioSpec, snr_db: float, trials) -> TrialRecord:
    """Simulate packets of one SNR point; pure in (spec, snr, trial index).

    ``trials`` is one trial index, a block of one, or a ``range`` of them
    simulated as one block; either returns the block's :class:`TrialRecord`.
    :func:`_receive_block` draws and trains the block, whose statistics go
    to one receiver call: :func:`idd_receive` when coded, :func:`_detect`
    otherwise.  Either decodes a packet exactly as it would alone, so a
    packet's errors do not depend on its block.  One tally then counts
    every packet's errors after each iteration.
    """
    try:
        snr_index = spec.snr_db.index(float(snr_db))
    except ValueError:
        raise ConfigError(f"snr_db = {snr_db} is not part of the scenario sweep") from None
    block = trials if isinstance(trials, range) else range(trials, trials + 1)
    _keep_freed_heap()
    noise_var = trial_noise_variance(spec, snr_db)
    frame, grams, matched = _receive_block(spec, snr_index, block, noise_var)
    sent, perms = (frame.info_bits, frame.perms) if spec.coded else (frame.channel_bits, None)
    # the receivers hold the stacks, not the frame's symbols
    del frame
    if spec.coded:
        decided = np.stack(idd_receive(grams, matched, noise_var, perms,
                                       symbol_power=spec.system.symbol_power,
                                       n_outer=spec.idd_iterations).per_iteration_bits)
    else:
        # one iteration: the block's decided bits, as channel_bits lays them out
        decided = labels_to_bits(_detect(spec, grams, matched, noise_var)).reshape(
            (1,) + sent.shape)
    return TrialRecord(packet_errors=np.count_nonzero(decided != sent, axis=(-2, -1)),
                       packet_bits=sent[0].size)


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
    spec, point, snr_db, block = args
    try:
        return point, block, run_trial(spec, snr_db, block)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return point, block, f"{type(exc).__name__}: {exc}"


def run_sweep(spec: ScenarioSpec, workers: int = 1) -> SweepResult:
    """Run every (SNR, packet) trial into one per-packet error array.

    Each SNR point runs in blocks (:func:`trial_blocks`), one task each,
    whose :class:`TrialRecord` fills its packets of ``SweepResult.errors``.
    A numerical failure in a packet (a :class:`NumericalError` or numpy's
    ``LinAlgError``) fails its block, which the result keeps with its
    message, and the sweep moves on.  Results are identical for any
    worker count.
    """
    spec.validate()
    start = time.perf_counter()
    tasks = [(spec, point, snr, block) for point, snr in enumerate(sorted(spec.snr_db))
             for block in trial_blocks(spec)]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_task, tasks))
    else:
        outcomes = [_trial_task(t) for t in tasks]

    errors = np.zeros((len(spec.snr_db), spec.packets,
                       spec.idd_iterations if spec.coded else 1), dtype=np.int64)
    failed = [[] for _ in spec.snr_db]
    for point, block, outcome in outcomes:
        if isinstance(outcome, str):
            failed[point].append((block, outcome))
        else:
            errors[point, block.start:block.stop] = outcome.packet_errors.T
    return SweepResult(spec, errors, failed, scenario_hash(spec),
                       time.perf_counter() - start)


def format_csv(result: SweepResult) -> str:
    """Render sweep rows with the fixed column set (no timing fields)."""
    spec = result.scenario
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        snr, ber, lo, hi = (format(v, ".10g") for v in (row.snr_db, row.ber, row.ci_low,
                                                         row.ci_high))
        lines.append(",".join([snr, str(row.bits), str(row.errors), ber, lo, hi,
                               spec.detector, spec.estimator, str(spec.seed)]))
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
