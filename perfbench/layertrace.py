"""Per-layer tracing of ``mumimo`` from outside the package.

:func:`install` replaces each traced function with a wrapper at every
module attribute that refers to it, so a call is seen at the name the
caller looks up (``harness`` binds ``from .channel import draw_small_scale``,
so ``mumimo.harness.draw_small_scale`` is patched along with
``mumimo.channel.draw_small_scale``).  Methods and properties are patched on
their class.  Each wrapped call records a span ``(name, start, end, parent,
packet)`` in memory; ``packet`` is ``(label, snr_index, trial_index)`` while
a ``run_trial`` is open.  The worker writes the spans out once, when it has
finished.  Pool children forked by a traced process inherit the wrappers,
but their spans stay in the child: only the parent's spans are written.
"""

import functools
import importlib
import pickle
import sys
import time

# (metric name, defining module, attribute path, lookup modules or None for
# every mumimo module that binds the function)
TARGETS = (
    ("rng.substream", "rng", "substream", None),
    ("channel.draw_small_scale", "channel", "draw_small_scale", None),
    ("channel.draw_large_scale", "channel", "draw_large_scale", None),
    ("channel.compose_channel", "channel", "compose_channel", None),
    ("txchain.assemble_frame", "txchain", "assemble_frame", None),
    ("txchain.channel_transmit", "txchain", "channel_transmit", None),
    ("txchain.labels_to_bits", "txchain", "labels_to_bits", None),
    ("detectors.compute_receive_filter", "detectors", "compute_receive_filter", None),
    ("detectors.linear_detect", "detectors", "linear_detect", None),
    ("detectors.compute_ordering", "detectors", "compute_ordering", None),
    ("detectors.sic_detect", "detectors", "sic_detect", None),
    ("detectors.mb_sic_detect", "detectors", "mb_sic_detect", None),
    ("detectors.df_detect", "detectors", "df_detect", None),
    ("estimation.RlsChannelEstimator.update", "estimation",
     "RlsChannelEstimator.update", None),
    ("estimation.LmsChannelEstimator.update", "estimation",
     "LmsChannelEstimator.update", None),
    ("estimation.ReducedRankFilterBank.update", "estimation",
     "ReducedRankFilterBank.update", None),
    ("estimation.ReducedRankFilterBank.weights", "estimation",
     "ReducedRankFilterBank.weights", None),
    ("estimation.JioFilterBank.update", "estimation", "JioFilterBank.update", None),
    ("estimation.JioFilterBank.weights", "estimation", "JioFilterBank.weights", None),
    ("idd.idd_receive", "idd", "idd_receive", None),
    ("idd.soft_symbol_stats", "idd", "soft_symbol_stats", None),
    ("idd.soft_mmse_sic_detect", "idd", "soft_mmse_sic_detect", None),
    ("idd.extrinsic_llr", "idd", "extrinsic_llr", None),
    ("idd.bcjr_decode", "idd", "bcjr_decode", None),
    ("idd.interleave", "txchain", "interleave", ("idd",)),
    ("idd.deinterleave", "txchain", "deinterleave", ("idd",)),
    ("harness.mean_gamma_sq", "harness", "mean_gamma_sq", None),
    ("harness.run_trial", "harness", "run_trial", None),
    ("harness.run_sweep", "harness", "run_sweep", None),
    ("harness.parse_config", "harness", "parse_config", None),
    ("harness.write_csv", "harness", "write_csv", None),
    ("cli.main", "cli", "main", None),
)
# reached only through the command line, so measured on the pooled CLI run
CLI_FUNCTIONS = ("harness.parse_config", "harness.write_csv", "cli.main")

LAYERS = ("rng", "channel", "txchain", "detectors", "estimation", "idd",
          "harness", "cli")
MARK = "_perfbench_traced"


class Tracer:
    """Spans of one process, kept in memory until the process ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.packet = None
        self.label = None

    def wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.packet)

        setattr(traced, MARK, True)
        return traced

    def wrap_trial(self, fn, name):
        """``run_trial`` also sets the packet id carried by nested spans."""
        inner = self.wrap(fn, name)

        @functools.wraps(fn)
        def traced(spec, snr_db, trial_index, *args, **kwargs):
            outer = self.packet
            snr_index = (spec.snr_db.index(float(snr_db))
                         if float(snr_db) in spec.snr_db else None)
            self.packet = (self.label, snr_index, trial_index)
            try:
                return inner(spec, snr_db, trial_index, *args, **kwargs)
            finally:
                self.packet = outer

        setattr(traced, MARK, True)
        return traced

    def write(self, path):
        with open(path, "wb") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)


def read_spans(path):
    """Spans written by :meth:`Tracer.write` of a worker of this benchmark."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def install(tracer):
    """Wrap every target; returns the number of patched bindings."""
    for _, home, _, _ in TARGETS:
        importlib.import_module(f"mumimo.{home}")
    mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("mumimo.")}
    mods[""] = sys.modules["mumimo"]
    patched = 0
    for metric, home, path, sites in TARGETS:
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            cls = getattr(mods[home], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, property):
                setattr(cls, attr, property(tracer.wrap(raw.fget, metric)))
            else:
                setattr(cls, attr, tracer.wrap(raw, metric))
            patched += 1
            continue
        original = getattr(mods[home], attr)
        make = tracer.wrap_trial if metric == "harness.run_trial" else tracer.wrap
        wrapper = make(original, metric)
        for mod_name in (sites if sites is not None else mods):
            mod = mods[mod_name]
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                patched += 1
    return patched


def count_wrapped():
    """Distinct traced functions reachable from this process's ``mumimo`` modules."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if name != "mumimo" and not name.startswith("mumimo."):
            continue
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                fn = member.fget if isinstance(member, property) else member
                if getattr(fn, MARK, False):
                    seen.add(id(fn))
    return len(seen)


def self_times(spans):
    """Yield ``(name, self_seconds, packet, start, end)`` for each closed span."""
    child = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    for i, span in enumerate(spans):
        if span is not None:
            yield span[0], span[2] - span[1] - child[i], span[4], span[1], span[2]


class Summary:
    """Self time and call counts of the timed passes of one traced worker.

    Spans that start before ``run_start`` belong to the set-up; of those only
    ``harness.mean_gamma_sq`` is kept, as its inclusive time.  Spans that
    start after ``run_end`` belong to the correctness check and are dropped.
    """

    def __init__(self, spans, run_start, run_end, packets):
        self.packets = packets
        self.wall_s = run_end - run_start
        self.spans = 0
        self.gamma_setup_s = 0.0
        self.functions = {}
        self.by_label = {}
        for name, self_s, packet, start, end in self_times(spans):
            if start < run_start:
                if name == "harness.mean_gamma_sq":
                    self.gamma_setup_s += end - start
                continue
            if start >= run_end:
                continue
            self.spans += 1
            calls, total = self.functions.get(name, (0, 0.0))
            self.functions[name] = (calls + 1, total + self_s)
            if packet is not None:
                layers = self.by_label.setdefault(packet[0], {})
                layer = name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + self_s
        self.total_self_s = sum(t for _, t in self.functions.values())

    def layer_self(self, layer):
        return sum(t for name, (_, t) in self.functions.items()
                   if name.split(".", 1)[0] == layer)

    def share(self, layer):
        """The layer's self time as a share of all traced self time."""
        return self.layer_self(layer) / self.total_self_s if self.total_self_s else 0.0

    def expectations(self, workload):
        """Check that the layer each workload was chosen for comes out on top."""
        lines = []
        if workload == "coded-idd-8x16":
            top = max(self.functions, key=lambda n: self.functions[n][1])
            lines.append(_verdict(top == "idd.bcjr_decode",
                                  f"top function by self time is {top}, "
                                  "expected idd.bcjr_decode"))
        elif workload == "large-array":
            top = max(LAYERS, key=self.share)
            lines.append(_verdict(top == "detectors",
                                  f"top layer is {top}, expected detectors"))
        elif workload == "uncoded-8x16":
            for label, layers in sorted(self.by_label.items()):
                if not label.endswith("/mmse"):
                    continue
                scaffold = sum(layers.get(k, 0.0) for k in ("rng", "channel", "txchain"))
                detect = layers.get("detectors", 0.0)
                lines.append(_verdict(
                    scaffold > detect,
                    f"{label}: rng+channel+txchain {1e3 * scaffold:.1f} ms against "
                    f"detectors {1e3 * detect:.1f} ms, expected scaffolding above"))
        return lines


def _verdict(ok, text):
    return f"expectation {'holds' if ok else 'NOT MET'}: {text}"
