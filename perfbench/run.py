"""The tworow benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 30 --trace 0

Run it from anywhere in a checkout; it needs only the standard library and
the package sources under `src/`.  The workloads and their reasons are in
`BENCHMARK.json` next to `perfbench/`; `workloads.py` generates their inputs
from `--seed` and checks every output.

`--trace 0` is a closed loop with one client.  It starts one fresh
`python -m tworow.cli ...` child at a time, as a CLI user does, so every
call pays the interpreter start and cold caches.  It reads each child's
rusage with `os.wait4` and runs the workload's rounds (`workloads.py`)
until `--seconds` would be exceeded, at least one round.  The run keeps
to one CPU, and a child's wall time excludes the time the hypervisor
stole from that CPU meanwhile.  A thread times the fixed unit of
`reference.py` on that CPU every 0.2 s, and each child's times are scaled
by REFERENCE_S over the unit's mean time during the child: the seconds
reported are seconds at the reference speed, so a CPU that is slower for
a while does not read as a slower program.  Metrics:

  setup_s      median time of a fresh `python -c "import tworow.cli"`,
               five per round
  wall_s       wall time of one round: each call's kind's median, summed
  cpu_s        user + system CPU time of one round, likewise
  cmd_p50_s    the median call's wall time: the median of the per-kind
               medians (the sample count is in the report)
  peak_rss_mb  largest max-RSS of any call, in MiB

The report also gives the same figures unscaled, the reference unit's
time, each call's stolen seconds, failed_frac, walk_steps_per_s (walk:
count x (depth - 1) per second of `sample`) and basis_mb_per_s (export:
MB of JSON per second of `basis`).

`--trace 1` calls `tworow.cli.main(argv)` in this process on the same
inputs: once plain, once with the spans of `spans.py` installed, per round.
It reports per-layer calls and self times, work counts, the gz cache hit
ratio and the tracing overhead, and checks that the traced outputs are
byte-identical to the plain ones and that the layers' self times add up to
the traced wall time.

Output: a JSON report with the generated inputs, every call and every
metric, then one JSON line {"correct", "attempted", "failed", "metrics"}.
A call fails on a non-zero exit, a timeout or a wrong output; for the
default seed every stdout must also match `digests.json`, recorded from
the program before any optimisation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import redirect_stdout
from itertools import cycle
from pathlib import Path

import reference
from spans import LAYERS, ROOT_SPAN, Tracer, clear_caches, gz_caches, installed, metric_units
from workloads import WORKLOADS, check_output, walk_steps

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 0
SETUP_SPAWNS = 5  # set-up timings per round
CALL_TIMEOUT_S = 90.0  # one call; the slowest takes about 11 s here
RUN_LIMIT_S = 150.0  # no call runs past this point of a run
SETUP_CODE = "import sys, tworow.cli; sys.stdout.write(tworow.cli.__file__)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "cmd_p50_s": "s",
    "peak_rss_mb": "MiB",
}


def make_rounds(workload: str, seed: int, tiny: bool = False) -> list[list[tuple[str, list[str]]]]:
    """The workload's rounds of (kind, argv), drawn from the seed."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), tiny)


def child_env() -> dict[str, str]:
    """The caller's environment, with the package on the path and bytecode
    caches on, as an installed package has them."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _read(fd: int) -> bytes:
    with open(fd, "rb", closefd=False) as handle:
        handle.seek(0)
        return handle.read()


_TICK_S = 1 / os.sysconf("SC_CLK_TCK")


def stolen_s() -> float:
    """Seconds the hypervisor has so far taken from the CPUs this process
    may run on (the steal column of /proc/stat; 0 where there is none)."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat") as stat:
            rows = [line.split() for line in stat]
    except OSError:
        return 0.0
    return _TICK_S * sum(int(row[8]) for row in rows if row[0] in cpus and len(row) > 8)


def spawn(cmd: list[str], env: dict[str, str], timeout: float):
    """Run one child to its end, killing it after `timeout` seconds.

    Returns (exit code, or None on timeout; stdout; stderr; wall seconds;
    seconds stolen meanwhile; the child's rusage).
    """
    out_fd, err_fd = os.memfd_create("stdout"), os.memfd_create("stderr")
    try:
        stolen = stolen_s()
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out_fd, stderr=err_fd, env=env, cwd=REPO
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished = bool(select.select([pidfd], [], [], max(timeout, 0.0))[0])
        finally:
            os.close(pidfd)
        if not finished:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        stolen = stolen_s() - stolen
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if finished else None
        return code, _read(out_fd), _read(err_fd), wall, stolen, usage
    finally:
        os.close(out_fd)
        os.close(err_fd)


def check(argv: list[str], out: bytes, digests: dict[str, str], need_digest: bool) -> str | None:
    """None when a call's stdout is right, else the reason."""
    want = digests.get(" ".join(argv))
    if want is None and need_digest:
        return "no recorded digest for this default-seed input"
    if want is not None and hashlib.sha256(out).hexdigest() != want:
        return "stdout differs from the recorded digest"
    try:
        text = out.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"stdout is not UTF-8: {exc}"
    return check_output(argv, text)


class _Deadline:
    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.end = self.start + RUN_LIMIT_S

    def left(self) -> float:
        return self.end - time.perf_counter()

    def fits(self, seconds: float, expected: float) -> bool:
        """Whether work expected to take `expected` seconds ends within
        `seconds` of the start."""
        now = time.perf_counter()
        return now - self.start + expected <= seconds and now < self.end


def _setup_time(env: dict[str, str]) -> float:
    """Seconds a fresh interpreter takes to import the CLI, less stolen time."""
    code, out, err, wall, stolen, _ = spawn([sys.executable, "-c", SETUP_CODE], env, CALL_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"perfbench: `import tworow.cli` failed: {err.decode(errors='replace')}")
    if not Path(out.decode()).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {out.decode()}, not the package under {SRC}")
    return wall - stolen


def _median(values) -> float:
    return statistics.median(list(values))


def _call(argv, env, clock, digests, need_digest) -> dict:
    """One fresh CLI child: its wall time, rusage and whether its output is right."""
    rec = {"argv": argv, "wall_s": 0.0, "stolen_s": 0.0, "cpu_s": 0.0, "rss_kib": 0, "out_bytes": 0}
    left = clock.left()
    if left <= 0:
        rec["error"] = "not started: run time limit reached"
        return rec
    cmd = [sys.executable, "-m", "tworow.cli", *argv]
    code, out, err, wall, stolen, usage = spawn(cmd, env, min(CALL_TIMEOUT_S, left))
    rec.update(
        wall_s=wall - stolen,
        stolen_s=stolen,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kib=usage.ru_maxrss,
        out_bytes=len(out),
    )
    if code is None:
        rec["error"] = f"timed out after {wall:.1f} s"
    elif code != 0:
        rec["error"] = f"exit {code}: {err.decode(errors='replace')[-500:]}"
    else:
        rec["error"] = check(argv, out, digests, need_digest)
    return rec


def timed_run(rounds, seconds, digests, need_digest):
    """The end-to-end run: fresh CLI children, closed loop, one client.

    The rounds go in turn.  After the first round, a call starts only while
    the last time of its kind still fits in `seconds`.  Every figure
    is built from medians, and scaled to the reference speed.
    """
    env = child_env()
    allowed = os.sched_getaffinity(0)
    # One CPU for this process, its children and the reference unit, so
    # the stolen time read for a call is that of the CPU it ran on.
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _timed_rounds(rounds, seconds, digests, need_digest, env)
    finally:
        os.sched_setaffinity(0, allowed)


def _timed_rounds(rounds, seconds, digests, need_digest, env):
    _setup_time(env)  # writes the bytecode caches a user's first call leaves
    clock = _Deadline()
    setups, samples = [], defaultdict(list)
    full = True
    with reference.Monitor() as monitor:
        time.sleep(reference.PERIOD_S)  # a reading before the first call
        for i, rnd in enumerate(cycle(rounds)):
            for _ in range(SETUP_SPAWNS):
                start = time.perf_counter()
                setups.append({"start": start, "wall_s": _setup_time(env), "end": time.perf_counter()})
            for kind, argv in rnd:
                done = samples[kind]
                if i and not clock.fits(seconds, done[-1]["wall_s"]):
                    full = False
                    break
                start = time.perf_counter()
                done.append({"kind": kind, "start": start, **_call(argv, env, clock, digests, need_digest)})
                done[-1]["end"] = done[-1]["start"] + done[-1]["wall_s"] + done[-1]["stolen_s"]
            if not full:
                break
        time.sleep(reference.PERIOD_S)  # and one after the last
    refs = monitor.readings

    _scale(setups + [r for done in samples.values() for r in done], refs)
    kinds = [kind for kind, _ in rounds[0]]
    per_kind = {
        f"{scaled}{name}": [_median(r[f"{scaled}{name}"] for r in samples[kind]) for kind in kinds]
        for scaled in ("", "scaled_")
        for name in ("wall_s", "cpu_s")
    }
    records = [r for done in samples.values() for r in done]
    metrics = {
        "setup_s": _median(r["scaled_wall_s"] for r in setups),
        "wall_s": sum(per_kind["scaled_wall_s"]),
        "cpu_s": sum(per_kind["scaled_cpu_s"]),
        "cmd_p50_s": _median(per_kind["scaled_wall_s"]),
        "peak_rss_mb": max(r["rss_kib"] for r in records) / 1024,
    }
    failed = sum(r["error"] is not None for r in records)
    extra = {
        "unscaled_setup_s": (_median(r["wall_s"] for r in setups), "s"),
        "unscaled_wall_s": (sum(per_kind["wall_s"]), "s"),
        "unscaled_cpu_s": (sum(per_kind["cpu_s"]), "s"),
        "unscaled_cmd_p50_s": (_median(per_kind["wall_s"]), "s"),
        "reference_cpu_s": (statistics.fmean(c for _, c in refs), "s"),
        "reference_samples": (len(refs), "count"),
        "failed_frac": (failed / len(records), "1"),
        "cmd_samples": (len(records), "count"),
        "setup_samples": (len(setups), "count"),
        "fewest_per_kind": (min(len(done) for done in samples.values()), "count"),
    }
    walks = [r for r in records if r["argv"][0] == "sample"]
    if walks:
        steps = sum(walk_steps(r["argv"]) for r in walks)
        extra["walk_steps_per_s"] = (steps / sum(r["scaled_wall_s"] for r in walks), "1/s")
    exports = [r for r in records if r["argv"][0] == "basis"]
    if exports:
        mb = sum(r["out_bytes"] for r in exports) / 1e6
        extra["basis_mb_per_s"] = (mb / sum(r["scaled_wall_s"] for r in exports), "MB/s")
    extra["reference_readings"] = (refs, "s")
    return metrics, extra, records, []


def _scale(records: list[dict], refs: list[tuple[float, float]]) -> None:
    """Add each record's times at the reference speed: that of the
    readings taken during it, and of the two that bracket it."""
    times = [t for t, _ in refs]
    for r in records:
        lo, hi = max(bisect_left(times, r["start"]) - 1, 0), bisect_right(times, r["end"]) + 1
        r["scale"] = reference.REFERENCE_S / statistics.fmean(c for _, c in refs[lo:hi])
        r["scaled_wall_s"] = r["wall_s"] * r["scale"]
        r["scaled_cpu_s"] = r.get("cpu_s", 0.0) * r["scale"]


def _on_alarm(signum, frame):
    raise TimeoutError("call timed out")


def _in_process(main, argv, clock, tracer=None):
    """Call `main(argv)` with fresh caches; (stdout, wall seconds, error,
    gz cache hits, gz cache lookups)."""
    clear_caches()
    buf = io.StringIO()
    error = None
    signal.setitimer(signal.ITIMER_REAL, max(min(CALL_TIMEOUT_S, clock.left()), 0.001))
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = main(argv) if tracer is None else tracer.call(ROOT_SPAN, main, argv)
        if code != 0:
            error = f"exit {code}"
    except Exception:  # one failed call is recorded; the run goes on
        error = traceback.format_exc(limit=-3)
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    info = [fn.cache_info() for fn in gz_caches()]
    hits = sum(i.hits for i in info)
    return buf.getvalue(), wall, error, hits, hits + sum(i.misses for i in info)


def _pass(main, calls, clock, tracer=None, totals=None):
    """Every call once in this process, traced when `tracer` is given."""
    if tracer is None:
        return [_in_process(main, argv, clock) for argv in calls]
    out = []
    with installed(tracer):
        for argv in calls:
            out.append(_in_process(main, argv, clock, tracer))
            tracer.fold(totals)
    return out


def traced_run(rounds, seconds, digests, need_digest):
    """The per-layer run: in-process, each round once plain and once traced."""
    sys.path.insert(0, str(SRC))
    import tworow.cli

    if not Path(tworow.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {tworow.cli.__file__}, not the package under {SRC}")
    main = tworow.cli.main
    signal.signal(signal.SIGALRM, _on_alarm)
    units = metric_units()
    clock = _Deadline()
    done, walls, records, problems = [], [], [], []
    for rnd in cycle(rounds):
        calls = [argv for _, argv in rnd]
        began = time.perf_counter()
        tracer = Tracer()
        totals: dict[str, float] = defaultdict(float)
        # The second pass of a round runs on a warmer heap, so the passes
        # take turns going first.
        if len(done) % 2 == 0:
            plain = _pass(main, calls, clock)
            traced = _pass(main, calls, clock, tracer, totals)
        else:
            traced = _pass(main, calls, clock, tracer, totals)
            plain = _pass(main, calls, clock)
        for argv, (text, wall, error, _, _), (t_text, t_wall, t_error, _, _) in zip(calls, plain, traced):
            if error is None:
                error = check(argv, text.encode(), digests, need_digest)
            if t_error is None and t_text != text:
                t_error = "traced stdout differs from the plain run"
            records.append({"argv": argv, "wall_s": wall, "traced_wall_s": t_wall, "error": error})
            records.append({"argv": argv, "traced": True, "error": t_error})

        plain_wall = sum(r[1] for r in plain)
        traced_wall = sum(r[1] for r in traced)
        layer_self = sum(totals[f"{layer}.self_s"] for layer in LAYERS)
        if abs(layer_self - traced_wall) > 0.02 * traced_wall + 0.005:
            problems.append(f"layer self times add up to {layer_self:.4f} s of {traced_wall:.4f} s traced")
        hits, lookups = sum(r[3] for r in traced), sum(r[4] for r in traced)
        values = {name: totals.get(name, 0.0) for name in units}
        values.update(tracer.counts)
        values["gz.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        values["trace_overhead_s"] = traced_wall - plain_wall
        done.append(values)
        walls.append(traced_wall)
        if not clock.fits(seconds, time.perf_counter() - began):
            break

    metrics = {name: _median(r[name] for r in done) for name in units}
    extra = {"rounds": (len(done), "count"), "traced_wall_s": (_median(walls), "s")}
    return metrics, extra, records, problems


def run(workload, seed, seconds, trace, tiny=False, digests=None):
    """One benchmark run: (report, last-line result)."""
    if digests is None:
        digests = json.loads(DIGESTS.read_text())
    rounds = make_rounds(workload, seed, tiny)
    need_digest = seed == DEFAULT_SEED and not tiny
    if trace:
        metrics, extra, records, problems = traced_run(rounds, seconds, digests, need_digest)
        units = metric_units()
    else:
        metrics, extra, records, problems = timed_run(rounds, seconds, digests, need_digest)
        units = END_TO_END_UNITS
    failed = sum(r["error"] is not None for r in records)
    why = {w["name"]: w["why"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]}
    report = {
        "workload": workload,
        "why": why.get(workload),
        "seed": seed,
        "trace": trace,
        "inputs": [[["tworow", *argv] for _, argv in rnd] for rnd in rounds],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "problems": problems,
        "calls": [{**r, "argv": " ".join(r["argv"])} for r in records],
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": report["metrics"],
    }
    return report, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tworow" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'tworow'}", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
