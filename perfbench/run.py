"""Sweep-throughput benchmark for mumimo.

Run from the repository root:

    python3 perfbench/run.py --workload uncoded-8x16 --seed 1 --seconds 30 --trace 0

The program under test is the ``mumimo`` package in ``src/`` next to this
directory; this script never imports it.  Every measurement runs in a fresh
``worker.py`` process.  With ``--trace 0`` the script reports the end-to-end
metrics: ``packets_per_s`` (median over whole passes of the workload's spec
set), ``setup_s`` (median over several fresh processes of import, spec
validation and a one-packet warm-up of every spec) and ``peak_rss_mb``.
The packet rate is scaled to a reference machine speed measured by
``probe.py`` in a process of its own; the wall-clock rate is printed as
well.  With ``--trace 1`` it runs the workload once untraced and once with
the layer wrappers of ``layertrace.py`` installed (``uncoded-8x16`` adds a
traced run of the pooled CLI), and reports per-function call counts and
self times per packet, each layer's share of the traced time, and the
tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric with its unit, the machine and the failed share.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from workloads import CLI_POOL, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7       # fresh processes timed for setup_s, the measuring one included
# Median time of probe.py's work on the machine of NOTES.md (2-vCPU Xeon VM
# at 2.0 GHz).  Scaling by probe time / PROBE_REF_S keeps the figures in
# packets/s of that machine; being one constant, it moves no comparison
# between runs.
PROBE_REF_S = 0.042
TIME_LIMIT_S = 170.0    # the whole run, every worker included


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes under one deadline and one scratch directory."""

    def __init__(self, args, scratch):
        self.args = args
        self.scratch = scratch
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0

    def worker(self, mode, workload, seconds=0.0, trace=False):
        self.count += 1
        tmp = self.scratch / f"w{self.count}"
        tmp.mkdir()
        out = tmp / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", workload, "--seed", str(self.args.seed),
               "--seconds", repr(seconds), "--src", str(SRC), "--tmp", str(tmp),
               "--out", str(out)] + (["--trace"] if trace else [])
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            err = "worker timed out"
        finally:
            # the worker's pool children share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"worker {mode} failed ({proc.returncode}):\n{err}")
        return json.loads(out.read_text()), tmp


def pass_rates(result):
    return [result["packets_per_pass"] / s for s in result["pass_s"]]


def slowdown(result):
    """Above 1 when the machine ran slower than the reference; see probe.py."""
    return statistics.median(result["probe_s"]) / PROBE_REF_S


def scaled_rate(result):
    """Median packets/s of a run, scaled to the reference machine speed."""
    return statistics.median(pass_rates(result)) * slowdown(result)


def end_to_end(runner, workload):
    # half the set-up processes run before the measuring one and half after,
    # so that the median spans the run and not one moment of machine speed
    def set_up_times(count):
        return [runner.worker("setup", workload.name)[0]["setup_s"]
                for _ in range(count)]

    before = set_up_times((SETUP_SAMPLES - 1) // 2)
    result, _ = runner.worker("measure", workload.name, runner.args.seconds)
    setups = (before + [result["setup_s"]]
              + set_up_times(SETUP_SAMPLES - 1 - len(before)))
    rates = pass_rates(result)
    slow = slowdown(result)
    metrics = {
        "packets_per_s": (scaled_rate(result), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    lo, _, hi = statistics.quantiles(rates, n=4)  # a run makes at least three passes
    notes = [f"machine speed probe: median {slow * PROBE_REF_S:.4f} s over "
             f"{len(result['probe_s'])} probes against {PROBE_REF_S} s reference, "
             f"so wall-clock packets/s are scaled by {slow:.4f}",
             f"wall-clock packets_per_s: median {statistics.median(rates):.4g} of "
             f"{len(rates)} passes of {result['packets_per_pass']} packets, "
             f"quartiles {lo:.4g}..{hi:.4g}",
             "setup_s (wall clock): median {:.4f} of {} processes: {}".format(
                 statistics.median(setups), len(setups),
                 ", ".join(f"{s:.4f}" for s in setups))]
    return metrics, [result], notes


def traced_run(runner, name, seconds):
    result, tmp = runner.worker("measure", name, seconds, trace=True)
    packets = result["packets_per_pass"] * len(result["pass_s"])
    spans = layertrace.read_spans(tmp / "spans.pkl")
    return result, layertrace.Summary(spans, result["run_start"], result["run_end"],
                                      packets)


def per_layer(runner, workload):
    """Untraced and traced runs of the workload; uncoded-8x16 adds the pooled CLI."""
    pooled = workload.name == "uncoded-8x16"
    seconds = runner.args.seconds / (3.0 if pooled else 2.0)
    plain, _ = runner.worker("measure", workload.name, seconds)
    traced, summary = traced_run(runner, workload.name, seconds)
    results = [plain, traced]
    # rates scaled to the reference speed, so machine drift between the
    # processes does not show as tracing overhead or pool efficiency
    plain_rate = scaled_rate(plain)
    traced_rate = scaled_rate(traced)
    pool_rate = efficiency = 0.0
    cli_summary = None
    if pooled:
        pool, cli_summary = traced_run(runner, CLI_POOL.name, seconds)
        results.append(pool)
        pool_rate = scaled_rate(pool)
        # both rates traced, so the tracing overhead cancels in the ratio
        efficiency = pool_rate / (CLI_POOL.workers * traced_rate)

    metrics = {}
    for name, _, _, _ in layertrace.TARGETS:
        source = cli_summary if name in layertrace.CLI_FUNCTIONS else summary
        calls, self_s = source.functions.get(name, (0, 0.0)) if source else (0, 0.0)
        packets = source.packets if source else 1
        metrics[f"{name}.calls_per_packet"] = (calls / packets, "count")
        metrics[f"{name}.ms_per_packet"] = (1e3 * self_s / packets, "ms")
    metrics["harness.mean_gamma_sq.setup_ms"] = (1e3 * summary.gamma_setup_s, "ms")
    for layer in layertrace.LAYERS:
        source = cli_summary if layer == "cli" else summary
        metrics[f"{layer}.share"] = (source.share(layer) if source else 0.0, "share")
    metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0, "share")
    metrics["cli-pool.packets_per_s"] = (pool_rate, "1/s")
    metrics["harness.pool_efficiency"] = (efficiency, "share")

    notes = [f"wrapped functions: traced process {traced['wrapped']}, "
             f"untraced process {plain['wrapped']}",
             f"scaled packets_per_s untraced {plain_rate:.4g}, traced {traced_rate:.4g}",
             f"traced spans {summary.spans} over {summary.packets} packets, "
             f"self time {summary.total_self_s:.3f} s in {summary.wall_s:.3f} s of passes"]
    if pooled:
        notes.append(f"cli-pool: {CLI_POOL.workers} workers, {len(pool['pass_s'])} traced "
                     f"passes at {pool_rate:.4g} packets/s, efficiency {efficiency:.4f}")
    notes += summary.expectations(workload.name)
    return metrics, results, notes


def _terminate(signum, frame):
    # unwinds through Runner.worker, whose ``finally`` kills the worker group
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mumimo" / "__init__.py").is_file():
        print(f"error: no mumimo package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        runner = Runner(args, scratch)
        collect = per_layer if args.trace else end_to_end
        metrics, results, notes = collect(runner, workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} workers {workload.workers}")
    print("machine " + json.dumps(results[0]["machine"], sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} SNR points)")
    for result in results:
        for message in result["messages"]:
            print(f"FAILED {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
