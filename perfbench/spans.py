"""Per-layer spans, recorded from outside the program.

`installed(tracer)` replaces each traced function at every attribute of a
loaded `tworow` module that refers to it, so calls made through a
`from .x import f` binding are traced too, and puts the originals back on
exit.  Every call records a span (name, start, end, parent).  A generator
function gets one span per `next()`, so the work done while it is consumed
is charged to its own layer, not to the caller that iterates it.  An
`lru_cache` function keeps its cache; its `__wrapped__`, which callers use to
bypass the cache, becomes a second, uncached span of the same name.

Which layer metric should move which end-to-end metric, and where:

  gz.gz_harmonic, forms.psi, forms.inner self_s   wall_s on spectral and export,
                                                  basis_mb_per_s on export
  markov.path_product_table, ygraph.* self_s      cmd_p50_s on spectral
  forms.act, gz.yjm_apply, linalg.harmonic_dim    wall_s on verify
  gz.cache_hit_ratio                              wall_s on verify
  markov.transition_counts.*                      walk_steps_per_s on walk
  serialize.json_text.self_s, serialize.bytes_out,
  gz.iter_basis.self_s                            peak_rss_mb, basis_mb_per_s on export

walk never reaches forms or gz, so a change there must leave walk unmoved.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("ygraph", "forms", "linalg", "gz", "markov", "serialize", "verify", "cli")

# Functions reported as `<layer>.<fn>.calls` and `<layer>.<fn>.self_s`.
TRACED = {
    "ygraph": ("enumerate_tableaux", "enumerate_all_tableaux"),
    "forms": ("act", "inner", "psi", "divergence", "decompose_step", "harmonic_preimage"),
    "linalg": ("harmonic_dim",),
    "gz": (
        "gz_harmonic",
        "gz_in_H",
        "full_gz_basis",
        "iter_basis",
        "yjm_apply",
        "transposition_matrix_in_basis",
    ),
    "markov": (
        "spectral_measure",
        "path_product_table",
        "kernel_from_prefix",
        "is_markov",
        "transition_counts",
        "sample_path",
    ),
    "serialize": ("json_text", "gz_vector_to_dict", "trace_to_csv"),
}

# Functions reported only as `<layer>.<fn>.total_s`, the time inside them.
TOTALS = {
    "verify": (
        "check_basis",
        "check_psi",
        "check_good",
        "check_matrices",
        "check_dimensions",
        "check_decompose",
        "check_spectral",
        "check_parity",
        "check_markov_detector",
        "check_central",
    ),
    "cli": ("cmd_basis", "cmd_measure", "cmd_sample", "cmd_verify"),
}

# Work counts taken from traced results: span name -> (metric, measure).
# The text writers emit ASCII, so a string's length is its size in bytes.
COUNTERS = {
    "forms.psi": ("forms.psi.terms_out", lambda form: len(form.coeffs)),
    "gz.gz_harmonic": ("gz.gz_harmonic.terms_out", lambda vec: len(vec.form.coeffs)),
    "markov.transition_counts": (
        "markov.transition_counts.steps",
        lambda counts: sum(visits for visits, _ in counts.values()),
    ),
    "serialize.json_text": ("serialize.bytes_out", len),
    "serialize.trace_to_csv": ("serialize.bytes_out", len),
}

ROOT_SPAN = "cli.main"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in TRACED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for layer, names in TOTALS.items():
        for name in names:
            units[f"{layer}.{name}.total_s"] = "s"
    for metric, _ in COUNTERS.values():
        units[metric] = "bytes" if metric == "serialize.bytes_out" else "count"
    units["gz.cache_hit_ratio"] = "ratio"
    units["trace_overhead_s"] = "s"
    return units


class Tracer:
    """Spans of the current invocation, folded into totals by `fold`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(name, next, gen)
                    except StopIteration:
                        return
                    yield item

            return traced_gen
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
            traced.__wrapped__ = self.wrap(name, fn.__wrapped__)
        return traced

    def fold(self, totals: dict[str, float]) -> None:
        """Add calls, self time and total time per span name, and self time
        per layer, into `totals`; then forget the spans."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        durations = [end - start for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent is not None:
                covered[parent] += duration
        for (name, _, _, _), duration, inner in zip(self.spans, durations, covered):
            own = duration - inner
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own
            totals[f"{name}.total_s"] += duration
            totals[f"{name.split('.')[0]}.self_s"] += own
        self.spans.clear()


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "tworow" or name.startswith("tworow.")
    ]


@contextmanager
def installed(tracer: Tracer):
    """Trace every function of TRACED and TOTALS that the loaded package
    has; a function it no longer has is reported with zero calls."""
    modules = _package_modules()
    replaced = []
    for layer, names in {**TRACED, **TOTALS}.items():
        home = sys.modules[f"tworow.{layer}"]
        for name in names:
            original = getattr(home, name, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


def gz_caches() -> list:
    """The `lru_cache` functions of the gz layer."""
    gz = sys.modules["tworow.gz"]
    return [fn for fn in vars(gz).values() if hasattr(fn, "cache_info")]


def clear_caches() -> None:
    """Empty every `lru_cache` of the package, as a fresh process has them."""
    for mod in _package_modules():
        for fn in list(vars(mod).values()):
            if hasattr(fn, "cache_clear") and hasattr(fn, "cache_info"):
                fn.cache_clear()
