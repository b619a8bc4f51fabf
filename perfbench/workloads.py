"""The benchmark's fixed sweep scenarios.

Each workload is a set of labelled :class:`mumimo.ScenarioSpec` objects that
one pass runs in full.  The module imports nothing from ``mumimo`` itself;
callers pass the imported package in, so that ``run.py`` can stay free of
the program under test.
"""

import os
from dataclasses import dataclass, replace

PACKET_SYMBOLS = 500
UNCODED_SNRS = (4.0, 12.0)
IDD_SNR = 22.0
LARGE_SNR = 12.0


@dataclass(frozen=True)
class Workload:
    name: str
    packets: int        # packets per SNR point in one pass
    via_cli: bool       # run each spec through ``mumimo.cli.main`` on nproc workers
    reference: str      # workload whose reference BERs apply

    @property
    def workers(self):
        return (os.cpu_count() or 1) if self.via_cli else 1


WORKLOADS = {
    w.name: w for w in (
        Workload("uncoded-8x16", packets=8, via_cli=False,
                 reference="uncoded-8x16"),
        Workload("coded-idd-8x16", packets=3, via_cli=False,
                 reference="coded-idd-8x16"),
        Workload("large-array", packets=3, via_cli=False,
                 reference="large-array"),
    )
}

# The uncoded-8x16 spec set through ``mumimo.cli.main`` on a process pool.
# Its packets/s spreads too widely between runs to carry a bound, so it runs
# only in the traced run of uncoded-8x16.  Eight packets per point make 16
# tasks per SNR sweep, two pool chunks, so both workers are busy.
CLI_POOL = Workload("cli-pool", packets=8, via_cli=True,
                    reference="uncoded-8x16")


def _uncoded(m):
    systems = {
        "cas": m.SystemConfig(n_users=8, n_bs=16),
        "das": m.SystemConfig(n_users=8, n_bs=8, n_heads=8, antennas_per_head=1),
    }
    receivers = {
        "rmf": dict(detector="rmf"),
        "mmse": dict(detector="mmse"),
        "sic": dict(detector="sic"),
        "mb-sic": dict(detector="mb-sic"),
        "df-s": dict(detector="df-s"),
        "mmse-rls": dict(detector="mmse", estimator="rls", pilot_len=250,
                         forgetting=0.999),
        "mmse-lms": dict(detector="mmse", estimator="lms", pilot_len=250,
                         step_size=0.05),
    }
    return {f"{sname}/{rname}": m.ScenarioSpec(system=system, snr_db=UNCODED_SNRS,
                                               **rkw)
            for sname, system in systems.items() for rname, rkw in receivers.items()}


def _coded(m):
    return {"cas/mmse-idd4": m.ScenarioSpec(
        system=m.SystemConfig(n_users=8, n_bs=16), detector="mmse", coded=True,
        idd_iterations=4, snr_db=(IDD_SNR,))}


def _large(m):
    specs = {}
    for k, n in ((32, 128), (64, 256)):
        for det in ("mmse", "sic"):
            specs[f"{k}x{n}/{det}"] = m.ScenarioSpec(
                system=m.SystemConfig(n_users=k, n_bs=n), detector=det,
                snr_db=(LARGE_SNR,))
    for est in ("rr-krylov", "rr-jio"):
        specs[f"8x64/{est}"] = m.ScenarioSpec(
            system=m.SystemConfig(n_users=8, n_bs=64), detector="mmse",
            estimator=est, pilot_len=300, rank=5, forgetting=0.999,
            snr_db=(LARGE_SNR,))
    return specs


_SPEC_SETS = {"uncoded-8x16": _uncoded, "coded-idd-8x16": _coded,
             "large-array": _large}


def build_specs(m, reference, packets, seed):
    """Labelled, validated specs of one reference scenario set."""
    return {label: replace(spec, packet_symbols=PACKET_SYMBOLS, packets=packets,
                           seed=seed).validate()
            for label, spec in _SPEC_SETS[reference](m).items()}


def workload_specs(m, workload, seed):
    return build_specs(m, workload.reference, workload.packets, seed)


def pass_seed(seed, pass_index):
    """Master seed of one pass: distinct passes see distinct inputs."""
    return seed * 1000 + pass_index
