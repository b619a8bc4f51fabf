"""One benchmark process: set up a workload, time passes over it, check it.

``run.py`` starts this script in a fresh interpreter for every measurement
so that set-up time and peak memory belong to one workload alone.  It
writes its findings as JSON to ``--out``; with ``--trace`` it installs the
layer wrappers of ``layertrace.py`` and writes its spans to ``spans.pkl`` in
``--tmp``.

Modes:

* ``setup``: import ``mumimo``, validate every spec of the workload and
  simulate one warm-up packet of each; report the elapsed time.
* ``measure``: the same set-up, then whole passes over the workload's spec
  set until ``--seconds`` have passed (at least ``MIN_PASSES``), with a
  machine-speed :class:`Probe` between passes every ``PROBE_EVERY_S``, then
  the correctness check.
"""

import argparse
import csv
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layertrace
from workloads import CLI_POOL, WORKLOADS, pass_seed, workload_specs

MIN_PASSES = 3
PROBE_EVERY_S = 1.0
# Chance that a correct program fails the BER check of one run, spread
# evenly over the run's SNR points (Bonferroni)
FALSE_ALARM = 1e-4
# SNR-mapping shift the BER check absorbs through each point's BER slope
SNR_SHIFT_DB = 0.05
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# the environment before ``mumimo`` is imported, for the probe process
PROBE_ENV = dict(os.environ)


def machine(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Probe:
    """Times ``probe.py`` in its own interpreter between passes.

    Start it before ``mumimo`` is imported: the probe process then shares
    nothing with the program but the machine.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                                     env=PROBE_ENV, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError("probe process did not start")
        self.samples = []
        self.last = -math.inf

    def due(self):
        return time.perf_counter() - self.last >= PROBE_EVERY_S

    def run(self):
        time.sleep(0.05)  # let the BLAS threads of the last pass go idle
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))
        self.last = time.perf_counter()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def peak_rss_mb():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Tally:
    """Attempted and failed SNR points, and error counts per point."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.errors = {}
        self.bits = {}
        self.packets = {}
        self.attempts = {}

    def row(self, key, packets, failed, errors=0, bits=0, message=""):
        self.attempted += 1
        self.attempts[key] = self.attempts.get(key, 0) + 1
        if failed:
            self.failed += 1
            self.messages.append(f"{key}: {message or 'failed'}")
            return
        self.errors[key] = self.errors.get(key, 0) + errors
        self.bits[key] = self.bits.get(key, 0) + bits
        self.packets[key] = self.packets.get(key, 0) + packets

    def spec_failed(self, label, spec, message):
        for snr in spec.snr_db:
            self.row(f"{label}@{snr:g}", spec.packets, True, message=message)

    def check_reference(self, reference):
        """A point whose BER misses the reference fails in every attempt."""
        z = statistics.NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2 * len(self.bits)))
        for key, bits in sorted(self.bits.items()):
            ref = reference[key]
            ber = self.errors[key] / bits
            spread = ref["packet_sd"] * math.sqrt(1.0 / self.packets[key]
                                                  + 1.0 / ref["packets"])
            tol = z * spread + SNR_SHIFT_DB * ref["slope_per_db"]
            if abs(ber - ref["ber"]) > tol:
                self.failed += self.attempts[key]
                self.messages.append(f"{key}: ber {ber:.4e} outside "
                                     f"{ref['ber']:.4e} +- {tol:.2e}")


def run_direct(m, workload, specs, tally, mark):
    for label, spec in specs.items():
        mark(label)
        try:
            result = m.run_sweep(spec, workers=workload.workers)
        except Exception as exc:  # a raising sweep is a failed point, not a crash
            tally.spec_failed(label, spec, f"raised {type(exc).__name__}: {exc}")
            continue
        for row in result.rows:
            tally.row(f"{label}@{row.snr_db:g}", spec.packets, row.failed,
                      row.errors, row.bits, row.message)


def run_cli(m, workload, specs, configs, csv_dir, pass_index, mark):
    """One pass through ``mumimo.cli.main``; {label: (spec, csv path, exit code)}."""
    outputs = {}
    for label, spec in specs.items():
        mark(label)
        out = csv_dir / f"{label.replace('/', '_')}-{pass_index}.csv"
        argv = ["--config", str(configs[label]), "--seed", str(spec.seed),
                "--out", str(out), "--workers", str(workload.workers)]
        try:
            code = m.cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        outputs[label] = (spec, out, code)
    return outputs


def tally_cli(outputs, tally):
    for label, (spec, out, code) in outputs.items():
        if code not in (0, 3) or not out.is_file():
            tally.spec_failed(label, spec, f"cli exit {code}")
            continue
        with open(out, newline="", encoding="ascii") as fh:
            for row in csv.DictReader(fh):
                failed = math.isnan(float(row["ber"]))
                tally.row(f"{label}@{float(row['snr_db']):g}", spec.packets, failed,
                          int(row["errors"]), int(row["bits"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + [CLI_POOL.name],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS.get(args.workload, CLI_POOL)
    tmp = Path(args.tmp)

    # the probe process starts, and waits, before the program is imported
    probe = Probe() if args.mode == "measure" else None
    try:
        result = set_up_and_measure(workload, args, tmp, probe)
        # read before the probe process is reaped, so its memory is not counted
        result["peak_rss_mb"] = peak_rss_mb()
    finally:
        if probe is not None:
            probe.close()
    Path(args.out).write_text(json.dumps(result))


def set_up_and_measure(workload, args, tmp, probe):
    t0 = time.perf_counter()
    import mumimo as m
    import mumimo.cli  # noqa: F401  (``m.cli`` runs the CLI workload)
    if not Path(m.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"mumimo imported from {m.__file__}, not from {args.src}")
    tracer = layertrace.Tracer() if args.trace else None
    if tracer is not None:
        layertrace.install(tracer)

    def mark(label):
        """Tag the spans that follow with the spec they belong to."""
        if tracer is not None:
            tracer.label = label

    specs = workload_specs(m, workload, args.seed)
    for label, spec in specs.items():
        mark(label)
        m.run_trial(spec, spec.snr_db[0], 0)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "wrapped": layertrace.count_wrapped()}
    if probe is not None:
        result.update(measure(m, workload, args, tmp, mark, probe))
        if tracer is not None:
            tracer.write(tmp / "spans.pkl")
    import numpy as np
    result["machine"] = machine(np)
    return result


def measure(m, workload, args, tmp, mark, probe):
    tally = Tally()
    base = workload_specs(m, workload, args.seed)
    per_pass_packets = sum(s.packets * len(s.snr_db) for s in base.values())
    configs = {}
    if workload.via_cli:
        for label, spec in base.items():
            configs[label] = tmp / f"{label.replace('/', '_')}.cfg"
            configs[label].write_text(m.serialize_config(spec))
    cli_outputs = []
    durations = []
    run_start = time.perf_counter()
    deadline = run_start + args.seconds
    while len(durations) < MIN_PASSES or time.perf_counter() < deadline:
        if probe.due():
            probe.run()
        index = len(durations)
        specs = workload_specs(m, workload, pass_seed(args.seed, index))
        start = time.perf_counter()
        if workload.via_cli:
            cli_outputs.append(run_cli(m, workload, specs, configs, tmp, index, mark))
        else:
            run_direct(m, workload, specs, tally, mark)
        durations.append(time.perf_counter() - start)
    run_end = time.perf_counter()
    mark(None)

    out = {"run_start": run_start, "run_end": run_end, "pass_s": durations,
           "packets_per_pass": per_pass_packets, "probe_s": probe.samples}
    if workload.via_cli:
        for outputs in cli_outputs:
            tally_cli(outputs, tally)
        verify_cli(m, cli_outputs[0], tally)
    tally.check_reference(json.loads(REFERENCE.read_text())["sets"][workload.reference])
    out.update(attempted=tally.attempted, failed=tally.failed,
               messages=tally.messages[:20])
    return out


def verify_cli(m, outputs, tally):
    """The pooled CLI's first-pass CSVs must equal serial ``run_sweep`` output."""
    for label, (spec, path, _) in outputs.items():
        text = m.format_csv(m.run_sweep(spec, workers=1))
        tally.attempted += len(spec.snr_db)
        if not path.is_file() or path.read_bytes() != text.encode("ascii"):
            tally.failed += len(spec.snr_db)
            tally.messages.append(f"{label}: cli csv differs from serial run_sweep")


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(1)
