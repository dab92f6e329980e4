"""Span recorder that traces tempokit from outside the program.

Tracing works by rebinding module attributes: each traced function is
replaced by a wrapper that records a span (name, start, end, parent,
request id) and then calls the original. Names that consumer modules
imported by name (``from .peaks import pick_peaks``) are rebound too, so
every call site goes through the wrapper. Spans stay in memory until the
benchmark writes them out at the end.

Nothing in tempokit knows about this module; a refactor that renames a
traced function makes entering ``Tracing`` fail (missing attribute) or
``require_spans`` fail (span never fired), so the benchmark has to be
updated rather than silently losing a layer.
"""

import functools
import hashlib
import math
import os
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "tempokit"

# Traced functions per module; "Class.method" entries wrap methods.
# numerics is left out on purpose: its functions are so small that a
# wrapper would cost more than the time it measures.
TRACED = {
    "cli": ["main"],
    "media_io": ["read_video", "read_wav", "write_video", "write_wav",
                 "read_named_tensors", "write_named_tensors"],
    "synthgen": ["generate", "corpus", "read_corpus"],
    "audio_analysis": ["stft_magnitude", "spectral_flux", "detect_onsets",
                       "toy_audio_features"],
    "peaks": ["pick_peaks", "moving_median", "moving_mad"],
    "motion_analysis": ["to_grayscale", "optical_flow", "motion_curve",
                        "detect_motion_peaks"],
    "av_align": ["av_align_from_media", "av_align_score"],
    "tempo_tokens": ["window_stack", "condition_backward", "mapper_forward",
                     "mapper_backward", "pool_forward", "pool_backward"],
    "diffusion_toy": ["total_loss_and_grads", "train", "forward_noise",
                      "sample_step_noise", "generate", "prepare_item",
                      "build_components", "save_checkpoint",
                      "load_checkpoint", "DenoiserParams.predict",
                      "LatentCodec.encode", "LatentCodec.decode"],
}

# Bytes per pixel per Jacobi sweep of the flow solver, computed from its
# working arrays (read u, v, Ix, Iy, It, denominator; write u, v) at
# float64. It ignores cache misses and numpy temporaries.
FLOW_BYTES_PER_PX_SWEEP = 8 * 8
FLOW_DEFAULT_ITERATIONS = 100


def _is_generate_command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return bool(argv) and argv[0] == "generate"


# Time spent in after-hooks is recorded as a child span of this name, so
# that it is left out of the enclosing span's self time.
AFTER_SPAN = "trace.after"

# Spans that start a new request id; their descendants inherit it.
REQUEST_ROOTS = {
    "av_align.av_align_from_media": lambda args, kwargs: True,
    "diffusion_toy.total_loss_and_grads": lambda args, kwargs: True,
    "cli.main": _is_generate_command,
}


class SpanRecorder:
    """In-memory spans plus the counters derived at the same boundaries.

    A span is ``[name, start, end, parent_index, request_id]`` with
    times from ``time.perf_counter``; parent_index is -1 at the top and
    request_id 0 outside any request.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._next_request = 1
        self.flow_videos = []

    def wrap(self, name, fn, after=None):
        """Return a wrapper of fn that records a span named name.

        after(recorder, args, kwargs, result), if given, runs once the
        span has closed and updates counters. Its time is recorded as an
        AFTER_SPAN sibling, which the enclosing span counts as a child.
        """
        is_root = REQUEST_ROOTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_root is not None and is_root(args, kwargs):
                request = self._next_request
                self._next_request += 1
            else:
                request = spans[parent][4] if parent >= 0 else 0
            span = [name, time.perf_counter(), 0.0, parent, request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                hook = [AFTER_SPAN, time.perf_counter(), 0.0, parent, request]
                after(self, args, kwargs, result)
                hook[2] = time.perf_counter()
                spans.append(hook)
            return result

        return traced


def _path_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs.get("path")


def _count_read(rec, args, kwargs, result):
    path = _path_arg(args, kwargs, 0)
    if os.path.isfile(path):
        rec.counters["media_io.bytes_read"] += os.path.getsize(path)


def _count_write(rec, args, kwargs, result):
    path = _path_arg(args, kwargs, 1)
    if os.path.isfile(path):
        rec.counters["media_io.bytes_written"] += os.path.getsize(path)


def _count_flow(rec, args, kwargs, result):
    frame = args[0]
    params = args[2] if len(args) > 2 else kwargs.get("params")
    iterations = (params.iterations if params is not None
                  else FLOW_DEFAULT_ITERATIONS)
    height, width = frame.shape[:2]
    rec.counters["motion_analysis.flow.pixel_sweeps"] += (
        height * width * iterations)


def _count_curve(rec, args, kwargs, result):
    # Keep the video; flow_counters hashes it once tracing has ended.
    rec.flow_videos.append(args[0])


AFTER = {
    "media_io.read_video": _count_read,
    "media_io.read_wav": _count_read,
    "media_io.read_named_tensors": _count_read,
    "media_io.write_video": _count_write,
    "media_io.write_wav": _count_write,
    "media_io.write_named_tensors": _count_write,
    "motion_analysis.optical_flow": _count_flow,
    "motion_analysis.motion_curve": _count_curve,
}


class Tracing:
    """Context manager that installs a recorder's wrappers into tempokit
    and restores every original attribute on exit."""

    def __init__(self, recorder, traced=None):
        self.recorder = recorder
        self.traced = TRACED if traced is None else traced
        self._restore = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        originals = {}
        try:
            for module_name, attrs in self.traced.items():
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                for attr in attrs:
                    owner = module
                    *owner_path, leaf = attr.split(".")
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)  # fails loudly on renames
                    name = f"{module_name}.{attr}"
                    wrapper = self.recorder.wrap(name, original,
                                                 AFTER.get(name))
                    self._rebind(owner, leaf, wrapper)
                    if not owner_path:
                        originals[id(original)] = (original, wrapper)
            # Names imported by name into other modules.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._rebind(module, attr, hit[1])
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.recorder

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False


def expected_names():
    """Every span name Tracing installs."""
    return [f"{m}.{a}" for m, attrs in TRACED.items() for a in attrs]


def require_spans(recorder, names):
    """Raise if any expected span never fired."""
    fired = {span[0] for span in recorder.spans}
    missing = [name for name in names if name not in fired]
    if missing:
        raise RuntimeError("expected spans never fired: "
                           + ", ".join(missing))


def self_times(spans):
    """Per-span self time: duration minus the union of the parts of its
    interval that its direct children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()),
                            key=lambda i: spans[i][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def tail_percentile(samples, beyond=10):
    """Highest whole percentile with at least `beyond` samples above it.

    Returns (percentile, value, sample_count) using the nearest-rank
    value, or None when fewer than 2 * beyond samples exist (the tail
    would sit at or below the median).
    """
    n = len(samples)
    if n < 2 * beyond:
        return None
    percentile = math.floor(100.0 * (n - beyond) / n)
    rank = math.ceil(percentile / 100.0 * n)
    while n - rank < beyond:  # guard the rounding of rank
        percentile -= 1
        rank = math.ceil(percentile / 100.0 * n)
    ordered = sorted(samples)
    return percentile, ordered[rank - 1], n


def layer_table(recorder):
    """Per span name: calls, total seconds, self seconds, durations."""
    selfs = self_times(recorder.spans)
    table = {}
    for span, own in zip(recorder.spans, selfs):
        row = table.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "durations": []})
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += own
        row["durations"].append(span[2] - span[1])
    return table


def flow_counters(recorder, table):
    """Computed flow-kernel counters from array sizes and call counts."""
    calls = table.get("motion_analysis.optical_flow", {}).get("calls", 0)
    seconds = table.get("motion_analysis.optical_flow", {}).get("s", 0.0)
    sweeps = recorder.counters["motion_analysis.flow.pixel_sweeps"]
    # A frame pair is identified by its video's bytes and its index, so a
    # video scored against several audios repeats the same pairs.
    distinct = {hashlib.blake2b(v.frames.tobytes(), digest_size=16).digest():
                v.frame_count - 1 for v in recorder.flow_videos}
    distinct = sum(distinct.values())
    return {
        "motion_analysis.flow.pixel_sweeps": sweeps,
        "motion_analysis.flow.computed_MB":
            sweeps * FLOW_BYTES_PER_PX_SWEEP / 1e6,
        "motion_analysis.flow.Mpx_sweeps_per_s":
            sweeps / 1e6 / seconds if seconds > 0 else 0.0,
        "motion_analysis.flow.distinct_share":
            distinct / calls if calls else 0.0,
    }


def wrapper_cost(calls=20000, repeats=5):
    """Seconds one traced call adds over a plain call, measured here.

    The median over repeats of (traced - plain) / calls, timing a no-op
    through a throwaway recorder.
    """
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        traced = SpanRecorder().wrap("trace.noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - plain) / calls)
    return max(statistics.median(costs), 0.0)


def trace_overhead(recorder, table, per_call):
    """Seconds the tracing added: one wrapper cost per recorded span plus
    the time spent in after-hooks."""
    hooks = table.get(AFTER_SPAN, {"calls": 0, "s": 0.0})
    return (len(recorder.spans) - hooks["calls"]) * per_call + hooks["s"]
