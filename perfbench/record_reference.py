"""Record the reference BER of every benchmark point into ``reference.json``.

For each scenario set and SNR point this simulates many packets one by one
and stores the mean per-packet BER, the standard deviation of the per-packet
BER and the packet count.  The benchmark's correctness check compares a
run's BER against the mean with a tolerance built from that per-packet
standard deviation (batch means), because bit errors within one packet are
strongly correlated and a bit-binomial interval is far too narrow.

It also stores the local slope of the BER curve, ``slope_per_db``: the drop
in BER per dB, from half as many packets at ``SLOPE_DB`` below and above
the point.  The check allows the BER to move by what a small shift of the
SNR mapping would move it (``worker.SNR_SHIFT_DB`` times the slope).

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import mumimo as m

from workloads import build_specs

REFERENCE_SEED = 0xBE11C4
PACKETS = {"uncoded-8x16": 300, "coded-idd-8x16": 600, "large-array": 100}
SLOPE_DB = 1.0
OUT = Path(__file__).resolve().parent / "reference.json"


def packet_bers(spec, snr, packets):
    """Per-packet BER of the first ``packets`` trials at one SNR."""
    spec = replace(spec, snr_db=(snr,)).validate()
    bers = []
    for trial in range(packets):
        res = m.run_trial(spec, snr, trial)
        bers.append(res.errors / res.bits)
    return bers


def record(reference, packets):
    points = {}
    for label, spec in build_specs(m, reference, packets, REFERENCE_SEED).items():
        for snr in spec.snr_db:
            bers = packet_bers(spec, snr, packets)
            below, above = (statistics.fmean(packet_bers(spec, snr + d, packets // 2))
                            for d in (-SLOPE_DB, SLOPE_DB))
            point = {"ber": statistics.fmean(bers), "packet_sd": statistics.stdev(bers),
                     "packets": packets,
                     "slope_per_db": abs(below - above) / (2 * SLOPE_DB)}
            points[f"{label}@{snr:g}"] = point
            print(f"{reference} {label} {snr:g} dB: ber {point['ber']:.4e} packet sd "
                  f"{point['packet_sd']:.3e} slope {point['slope_per_db']:.3e}/dB",
                  flush=True)
    return points


def main():
    start = time.perf_counter()
    out = {"seed": REFERENCE_SEED, "slope_db": SLOPE_DB,
           "sets": {ref: record(ref, n) for ref, n in PACKETS.items()}}
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT.name} in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    sys.exit(main())
