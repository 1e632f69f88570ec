"""Layer tracing from outside the program.

The tracer replaces public functions and methods of the ``pearl`` modules
with timing wrappers, at the names where callers look them up (for
example ``pearl.ftl.encode_page_full`` rather than
``pearl.wom.encode_page_full``), and restores them afterwards.  Each
wrapper records a span: calls, inclusive time and self time (inclusive
time minus the time of the spans nested in it).  No file of the program
changes.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import pearl.adversary
import pearl.bench
import pearl.cmt
import pearl.flash
import pearl.ftl
import pearl.states
import pearl.wom

_ns = time.perf_counter_ns

# (module, name, span key) for functions imported into a module namespace.
_FUNCTIONS = [
    (pearl.ftl, "encode_page_first", "wom.encode"),
    (pearl.ftl, "encode_page_second", "wom.encode"),
    (pearl.ftl, "encode_page_full", "wom.encode"),
    (pearl.ftl, "decode_page_public", "wom.decode"),
    (pearl.ftl, "decode_page_hidden", "wom.decode"),
    (pearl.adversary, "decode_page_public", "wom.decode"),
    # frequency_distinguisher imports it inside the function body.
    (pearl.wom, "codeword_histogram", "wom.histogram"),
    (pearl.ftl, "encrypt_payload", "crypto.envelope"),
    (pearl.ftl, "decrypt_payload", "crypto.envelope"),
    (pearl.adversary, "decrypt_payload", "crypto.envelope"),
    (pearl.ftl, "derive_key", "crypto.derive"),
    (pearl.ftl, "pack_oob", "oob"),
    (pearl.ftl, "parse_oob", "oob"),
    (pearl.ftl, "observable_stage", "oob"),
    (pearl.adversary, "parse_oob", "oob"),
    (pearl.adversary, "observable_stage", "oob"),
    (pearl.adversary, "classify_snapshot", "adversary.classify"),
    (pearl.adversary, "diff_transitions", "adversary.diff"),
    (pearl.adversary, "ui1_inference", "adversary.ui1"),
    (pearl.adversary, "frequency_distinguisher", "adversary.frequency"),
    (pearl.bench, "replay", "bench.replay"),
    (pearl.bench, "init_device", "bench.init"),
]

_FTL_METHODS = [
    "format", "mount", "public_write", "public_read", "hidden_write",
    "hidden_read", "trim", "submit", "submit_batch", "gc_run",
    "prepare_unmount", "snapshot", "recover_metadata", "translation_map",
    "check_invariants", "amplification",
]
_FTL_KEYS = {"gc_run": "ftl.gc", "prepare_unmount": "ftl.unmount",
             "mount": "ftl.mount"}

# (class, method, span key)
_METHODS = (
    [(pearl.ftl.PearlFtl, m, _FTL_KEYS.get(m, "ftl.api")) for m in _FTL_METHODS]
    + [(pearl.cmt.CachedMappingTable, "lookup", "cmt.lookup")]
    + [(pearl.cmt.CachedMappingTable, m, "cmt.other")
       for m in ("put", "pop_excess", "dirty_in_page", "mark_clean",
                 "dirty_groups")]
    + [(pearl.states.TransitionMonitor, "record", "states"),
       (pearl.flash.FlashDevice, "read_page", "flash.op"),
       (pearl.flash.FlashDevice, "program_page", "flash.op"),
       (pearl.flash.FlashDevice, "erase_block", "flash.op"),
       (pearl.flash.FlashDevice, "peek", "flash.op"),
       (pearl.flash.FlashDevice, "snapshot", "flash.image"),
       (pearl.flash.FlashDevice, "restore", "flash.image"),
       (pearl.flash.Snapshot, "to_bytes", "flash.image"),
       (pearl.flash.Snapshot, "from_bytes", "flash.image")]
)


def _count_flash(name):
    counter, timing = {"read_page": ("flash.reads", "read_us"),
                       "program_page": ("flash.programs", "program_us"),
                       "erase_block": ("flash.erases", "erase_us")}[name]

    def count(tracer, args, result):
        tracer.counts[counter] += 1
        tracer.clock_us += getattr(args[0].timings, timing)
    return count


def _count_result(counter):
    def count(tracer, args, result):
        if result is not None:
            tracer.counts[counter] += 1
    return count


# Counters taken from a call's arguments or result, by (class, method).
_COUNTERS = {
    ("FlashDevice", "read_page"): _count_flash("read_page"),
    ("FlashDevice", "program_page"): _count_flash("program_page"),
    ("FlashDevice", "erase_block"): _count_flash("erase_block"),
    ("FlashDevice", "peek"): _count_result("flash.peeks"),
    ("CachedMappingTable", "lookup"): _count_result("cmt.hits"),
    ("CachedMappingTable", "pop_excess"): _count_result("cmt.evictions"),
    ("PearlFtl", "gc_run"): _count_result("ftl.gc_runs"),
}


def _layer(key):
    return key.split(".")[0]


class Tracer:
    """Span statistics for every wrapped name, collected while ``on``."""

    def __init__(self):
        self.on = False
        self.spans = defaultdict(lambda: [0, 0, 0])  # key -> calls, ns, self ns
        self.counts = Counter()
        self.entries = Counter()   # calls entering a layer from outside it
        self.clock_us = 0.0        # simulated time of the charged flash ops
        self._stack = []           # open frames: [layer, child ns]
        self._undo = []

    def wrap(self, fn, key, count=None):
        layer = _layer(key)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if not stack or stack[-1][0] != layer:
                self.entries[layer] += 1
            frame = [layer, 0]
            stack.append(frame)
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _ns() - t0
                stack.pop()
                span = spans[key]
                span[0] += 1
                span[1] += dt
                span[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_method(self, cls, name, key):
        raw = cls.__dict__[name]
        count = _COUNTERS.get((cls.__name__, name))
        if isinstance(raw, classmethod):
            self._patch(cls, name, classmethod(self.wrap(raw.__func__, key, count)))
        else:
            self._patch(cls, name, self.wrap(raw, key, count))

    @contextlib.contextmanager
    def installed(self, extra_methods=()):
        """Wrap every traced name (plus extra (class, method, key)) and
        undo it on exit."""
        try:
            for module, name, key in _FUNCTIONS:
                self._patch(module, name, self.wrap(getattr(module, name), key))
            for cls, name, key in list(_METHODS) + list(extra_methods):
                self.patch_method(cls, name, key)
            self.on = True
            yield self
        finally:
            self.on = False
            while self._undo:
                owner, name, value = self._undo.pop()
                setattr(owner, name, value)

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # -- report ---------------------------------------------------------

    def _us(self, *keys):
        return sum(self.spans[k][1] for k in keys) / 1e3

    def _calls(self, *keys):
        return sum(self.spans[k][0] for k in keys)

    def layer_metrics(self):
        """The per-layer metrics, keyed by their names in BENCHMARK.json."""
        ftl_self_ns = sum(s[2] for k, s in self.spans.items()
                          if _layer(k) == "ftl")
        return {
            "wom.encode_calls": self._calls("wom.encode"),
            "wom.encode_us": self._us("wom.encode"),
            "wom.decode_calls": self._calls("wom.decode"),
            "wom.decode_us": self._us("wom.decode"),
            "wom.histogram_us": self._us("wom.histogram"),
            "crypto.calls": self._calls("crypto.envelope"),
            "crypto.us": self._us("crypto.envelope"),
            "crypto.derive_us": self._us("crypto.derive"),
            "oob.calls": self._calls("oob"),
            "oob.us": self._us("oob"),
            "cmt.lookups": self._calls("cmt.lookup"),
            "cmt.hits": self.counts["cmt.hits"],
            "cmt.evictions": self.counts["cmt.evictions"],
            "cmt.us": self._us("cmt.lookup", "cmt.other"),
            "states.records": self._calls("states"),
            "states.us": self._us("states"),
            "flash.reads": self.counts["flash.reads"],
            "flash.programs": self.counts["flash.programs"],
            "flash.erases": self.counts["flash.erases"],
            "flash.clock_s": self.clock_us / 1e6,
            "flash.op_us": self._us("flash.op"),
            "flash.image_us": self._us("flash.image"),
            "ftl.calls": self.entries["ftl"],
            "ftl.self_us": ftl_self_ns / 1e3,
            "ftl.gc_runs": self.counts["ftl.gc_runs"],
            "ftl.gc_us": self._us("ftl.gc"),
            "ftl.unmount_us": self._us("ftl.unmount"),
            "ftl.mount_us": self._us("ftl.mount"),
            "adversary.classify_us": self._us("adversary.classify"),
            "adversary.diff_us": self._us("adversary.diff"),
            "adversary.ui1_us": self._us("adversary.ui1"),
            "adversary.frequency_us": self._us("adversary.frequency"),
            "bench.replay_self_us": self.spans["bench.replay"][2] / 1e3,
            "bench.init_us": self._us("bench.init"),
        }
