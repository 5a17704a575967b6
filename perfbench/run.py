"""Host-time benchmark of the simulator: end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload dense-matrix --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload crawl-queries --seed 1 --seconds 5 --trace 1
    python3 perfbench/run.py --self-test

``--trace 0`` sets up ``SETUP_REPEATS`` times (reporting the median),
then runs whole passes of the workload's ops until ``--seconds`` have
been measured, and prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, sets up again with every layer boundary wrapped (see
``layers.py``), runs the same pass traced, and prints the per-layer
metrics; the spans go to ``perfbench/out/``.  Every op's deterministic
outputs are checked against ``expected.json`` in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when an output check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: a run holds at least this many ops, so p90 has ten samples beyond it
MIN_OPS = 100
#: calibrations before and after each set-up
CALIBRATIONS = 5
#: duration of one calibration at the reference speed the reported times
#: are scaled to (about its median on the baseline machine)
REFERENCE_S = 0.011


class Speed:
    """The host's CPU speed over a run, sampled with a fixed calibration.

    This host's speed drifts by up to 2x over tens of minutes and by 20%
    within seconds, far more than any bound could absorb, so every
    reported time is scaled to the reference speed: multiplied by
    ``REFERENCE_S / calibration``, with the calibrations taken right
    around the work it times.  The raw figures are printed beside them.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = np.arange(1 << 16, dtype=np.int64)
        # 32 MiB: past the private caches, into the shared last level,
        # where the host's neighbours slow the simulator's gathers most
        self._big = rng.integers(0, 1 << 22, size=1 << 22)
        self._idx = rng.integers(0, 1 << 22, size=1 << 16)
        self.samples: list[float] = []
        # the first call pays for page faults, not for the host's speed
        self.sample()
        self.samples.clear()

    def sample(self, n: int = 1) -> None:
        small = self._small
        for _ in range(n):
            # interpreter loops, small numpy calls and random gathers from
            # a large array: the mix the simulator's host time is made of
            t = time.perf_counter()
            for k in range(40):
                idx = (small[:4096] * (7919 + k)) % 4093
                np.unique(idx[:256])
                np.bincount(idx % 64)
                acc = 0
                for i in range(400):
                    acc += i ^ k
            np.add.at(np.zeros(4096), small % 4096, 1.0)
            for _ in range(2):
                np.unique(self._big[self._idx][: 1 << 13])
            self.samples.append(time.perf_counter() - t)

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """Scale for work done while ``samples[lo:hi]`` were taken."""
        return REFERENCE_S / statistics.median(self.samples[lo:hi])

    def scale(self, units: list, first: int) -> tuple[float, list[float]]:
        """Scaled total wall and op times of timed units; unit ``k`` ran
        between calibrations ``first + k`` and ``first + k + 1``."""
        wall, ops = 0.0, []
        for k, (w, times) in enumerate(units):
            f = self.factor(first + k, first + k + 2)
            wall += w * f
            ops += [t * f for t in times]
        return wall, ops


def _emit(lines: list[str], result: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))


def _metric_line(name: str, value: float, unit: str, note: str = "") -> str:
    text = f"{name:36s} {value:>16.6f} {unit}"
    return f"{text}  ({note})" if note else text


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _setup(wl, seed: int, workdir: str, speed=None):
    """Set up once; with ``speed``, also the set-up's scaled seconds."""
    gc.collect()
    if speed is not None:
        speed.sample(CALIBRATIONS)
    t = time.perf_counter()
    data = wl.setup(seed, workdir)
    dt = time.perf_counter() - t
    if speed is not None:
        speed.sample(CALIBRATIONS)
        dt *= speed.factor(-2 * CALIBRATIONS)
    return data, dt


def _plain(op, fn):
    return fn()


def _nothing():
    pass


def _timed(wl, data, seed, workdir, expected, seconds, min_ops, speed,
           on_op=_plain):
    """Whole passes until ``seconds`` are measured and ``min_ops`` run.

    Calibrates once before the first op and once after every unit (an
    op, or a served trace); returns the last set-up's data, the totals
    and the scaled ``(wall, op times)``.
    """
    speed.sample()
    first = len(speed.samples) - 1
    total = {"ops": 0, "failed": 0, "raw": 0.0, "units": []}
    while True:
        r = wl.run_pass(data, expected, on_op, speed.sample)
        total["ops"] += r["ops"]
        total["failed"] += r["failed"]
        total["units"] += r["units"]
        total["raw"] = sum(w for w, _ in total["units"])
        if total["raw"] >= seconds and total["ops"] >= min_ops:
            return data, total, speed.scale(total["units"], first)
        if isinstance(wl, workloads.ServeMutate):
            # a served trace is spent: serve fresh copies (set-up untimed)
            wl.teardown(data)
            data, _ = _setup(wl, seed, workdir)


def run_untraced(wl, seed, seconds, workdir, expected):
    speed = Speed()
    setups = []
    for i in range(SETUP_REPEATS):
        data, dt = _setup(wl, seed, workdir, speed)
        setups.append(dt)
        if i < SETUP_REPEATS - 1:
            wl.teardown(data)
    data, total, (wall, times) = _timed(
        wl, data, seed, workdir, expected, seconds, MIN_OPS, speed
    )
    wl.teardown(data)
    raw = [t for _, ts in total["units"] for t in ts]
    p50, p90 = _percentile(times, 50), _percentile(times, 90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (total["ops"] / wall, "1/s",
                      f"{total['ops']} ops in {total['raw']:.3f}s raw"),
        "op_p50_ms": (1e3 * p50, "ms",
                      f"n={len(times)}, raw {1e3 * _percentile(raw, 50):.3f}"),
        "op_p90_ms": (1e3 * p90, "ms",
                      f"n={len(times)}, raw {1e3 * _percentile(raw, 90):.3f}"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} scaled set-ups"),
        "peak_rss_mb": (rss_mb, "MB", ""),
    }
    notes = [_metric_line(
        "speed_factor", speed.factor(), "x",
        f"reference {REFERENCE_S * 1e3:.1f} ms / median of "
        f"{len(speed.samples)} calibrations",
    )]
    return total, metrics, notes


def run_traced(wl, seed, seconds, workdir, expected):
    # the untraced baseline for trace.overhead_frac is the same single
    # pass; both walls are scaled by the speed sampled around each unit,
    # so the overhead is not a drift of the host between the two passes
    speed = Speed()
    data, _ = _setup(wl, seed, workdir)
    data, plain, (untraced_wall, _) = _timed(
        wl, data, seed, workdir, expected, 0.0, 1, speed
    )
    wl.teardown(data)

    log = layers.SpanLog()
    with log:
        gc.collect()
        data = wl.setup(seed, workdir)
        first = len(log.start)
        log.counts = dict.fromkeys(log.counts, 0)
        stats0 = pcache.get_cache().stats.snapshot()

        def traced_op(op, fn):
            idx = log.begin(layers.ROOT)
            try:
                return fn()
            finally:
                log.finish(idx)

        data, traced, (traced_wall, _) = _timed(
            wl, data, seed, workdir, expected, 0.0, 1, speed, on_op=traced_op
        )
        stats1 = pcache.get_cache().stats
        extra = {
            "cache_hits": (stats1.memory_hits + stats1.disk_hits)
            - (stats0.memory_hits + stats0.disk_hits),
            "serve_requests": 0, "serve_cache_hits": 0,
            "serve_delta_runs": 0, "serve_executions": 0,
            "untraced_wall": untraced_wall,
            "traced_wall": traced_wall,
        }
        extra.update(wl.extra(data))
        wl.teardown(data)
    OUT.mkdir(exist_ok=True)
    log.save(str(OUT / f"spans-{wl.name}-seed{seed}.npz"))
    metrics = layers.layer_metrics(
        log.totals(0, first), log.totals(first), log.counts, extra
    )
    total = {k: plain[k] + traced[k] for k in ("ops", "failed")}
    return total, metrics, []


def self_test() -> int:
    """Plant mismatches in the stored outputs and check they are counted;
    check that wrapping patches every target and unwrapping restores it."""
    wl = workloads.WORKLOADS["dense-matrix"]
    expected = json.loads(EXPECTED.read_text())[wl.name]
    data = wl.setup(0, "")
    data["ops"] = [op for op in data["ops"] if op.app == "kcore"][:6]
    planted = dict(expected)
    for op in data["ops"][:2]:
        planted[op.key] = dict(expected[op.key], rounds=-1)
    clean = wl.run_pass(data, expected, _plain, _nothing)
    dirty = wl.run_pass(data, planted, _plain, _nothing)
    wl.teardown(data)
    log = layers.SpanLog()
    with log:
        wrapped = len(layers.unpatched())
    problems = []
    if clean["failed"] != 0:
        problems.append(f"clean pass counted {clean['failed']} failed ops")
    if dirty["failed"] != 2:
        problems.append(f"planted pass counted {dirty['failed']} of 2")
    if wrapped != len(layers.targets()):
        problems.append(f"tracing wrapped {wrapped} of {len(layers.targets())}")
    if layers.unpatched():
        problems.append(f"left patched: {layers.unpatched()}")
    for p in problems:
        print(f"self-test FAILED: {p}")
    if not problems:
        print(
            f"self-test ok: failed_frac {dirty['failed']}/{dirty['ops']} "
            f"with 2 planted mismatches, 0/{clean['ops']} without; "
            f"{wrapped} targets wrapped and restored"
        )
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one process, one core: numpy's BLAS pool would add threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    global layers, workloads, pcache
    import layers
    import workloads
    from repro.partition import cache as pcache

    if args.self_test:
        return self_test()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())[wl.name]
    workdir = str(OUT / f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        total, metrics, notes = run(
            wl, args.seed, args.seconds, workdir, expected
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    left = layers.unpatched()
    correct = total["failed"] == 0 and not left
    lines = [f"workload {wl.name} seed {args.seed} trace {args.trace} "
             f"(one process, serial executor, jobs=1, nproc {os.cpu_count()})"]
    lines += [_metric_line(k, *v) for k, v in metrics.items()] + notes
    lines.append(_metric_line(
        "failed_frac", total["failed"] / max(total["ops"], 1), "frac",
        f"base attempted={total['ops']}"))
    if left:
        lines.append(f"ERROR: wrappers left installed: {left}")
    _emit(lines, {
        "correct": correct,
        "attempted": total["ops"],
        "failed": total["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
