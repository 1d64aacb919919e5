#!/usr/bin/env python3
"""End-to-end benchmark of the twoweight package, with an optional traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload audit_mid --seed 1 --seconds 25 --trace 1

``--workload all`` runs every workload in a fresh process, one after another.
A single workload runs in this process. It sets up seven times, and starts
eight fresh interpreters that only import what the run imports, four before
the timed rounds and four after them; ``setup_s`` is the median import time
plus the median set-up time. It then repeats one round
of ops, built from the seed, until ``--seconds`` of wall time are used, and
checks every op's output against the benchmark's own computation outside the
timed region. ``ops_per_s`` and ``op_p50_s`` come from each op's median time
over the rounds, which does not drift with the number of rounds that fit in the
run. Every time is scaled to the machine's reference speed (see ``Pace``).
The last line of output is one JSON object with the result.

With ``--trace 1`` it runs the round twice untraced, then sets up once more and
runs the round again with spans recorded around the package's layers. It
reports the per-layer metrics of that traced set-up and of the ops' own work
in that round (no span is recorded while an output is checked), and the tracing
overhead: the traced round's extra scaled time over the sum of each op's faster
untraced run. The spans are written to
``perfbench/out/``.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads: the ops are single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NAMES = ("verify_mix", "testing_mid", "audit_mid", "linear_large")
SETUP_REPEATS = 7
IMPORT_REPEATS = 8  # half before the timed rounds and half after them
# About the median wall time of Pace's reference work on the machine of the README figures.
REFERENCE_S = 0.006


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _run_all(args) -> int:
    """Every workload in its own process; prints their results and a summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    if code:
        return code
    print(json.dumps(merged))
    return 0


class Pace:
    """Scales wall times to the machine's reference speed.

    On a shared machine, such as the 2-vCPU VM of the README figures, speed
    drifts by 20 % or more over tens of seconds, the length of a run. So next to every
    timed piece of work the run times a fixed reference work, which uses Python
    and numpy but not the package. A wall time is multiplied by ``REFERENCE_S``
    over the mean of the reference times just before and just after it: what
    the piece would take when the reference work runs at its usual speed.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(0).random(1 << 14)
        self._starts = np.arange(0, self._data.size, 8)
        self.restart()

    def reference_s(self) -> float:
        np, data = self._np, self._data
        np.cumsum(data)  # bring the data back into cache after the timed piece
        t0 = time.perf_counter()
        x = 0
        for i in range(28000):
            x += i * i
        for _ in range(24):
            np.add.reduceat(data, self._starts)
            np.cumsum(data)
            np.sort(data)
        return time.perf_counter() - t0

    def restart(self) -> None:
        """Take a fresh 'before' sample; call it after untimed work."""
        self.last = self.reference_s()

    def scale(self, wall: float) -> float:
        """Call right after the timed piece; its 'after' sample is the next 'before'."""
        now = self.reference_s()
        factor = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return wall * factor


class Tally:
    """Times and outcomes of the ops of a run, by position in the round."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.by_position: dict = {}
        self.log = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []
        # entered around each check; a traced run records no spans there
        self.check_context = contextlib.nullcontext

    def run_op(self, position: int, op) -> float:
        """Run, time and check one op; returns its scaled time (0 if it failed)."""
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            self.failed += 1
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            self.pace.restart()
            return 0.0
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        scaled = self.pace.scale(wall)
        self.by_position.setdefault(position, []).append((wall, scaled))
        self.log.append((op.label, wall, cpu, scaled))
        try:
            with self.check_context():
                op.check(result)
        except Exception as exc:  # a wrong output, or a check that cannot run
            self.wrong += 1
            self.errors.append(f"{op.label}: wrong output: {type(exc).__name__}: {exc}")
        return scaled

    def finish(self, wl, state) -> None:
        """The workload's checks on the run as a whole."""
        try:
            wl.finish(state)
        except AssertionError as exc:
            self.wrong += 1
            self.errors.append(f"run: wrong output: {exc}")

    def median_times(self) -> list:
        """Each op's median scaled wall time over its repetitions in the run."""
        return [statistics.median(s for _, s in times) for _, times in sorted(self.by_position.items())]

    def wall_times(self) -> list:
        """Each op's wall times, unscaled."""
        return [[w for w, _ in times] for _, times in sorted(self.by_position.items())]


def _fresh_import_s() -> float:
    """Wall time of a new interpreter that imports what a run imports, then exits."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import workloads"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _scaled_repeats(pace: Pace, timed, repeats: int) -> tuple:
    """Wall times of ``timed()`` (which returns one) and the same scaled to reference speed."""
    walls, scaled = [], []
    pace.restart()
    for _ in range(repeats):
        walls.append(timed())
        scaled.append(pace.scale(walls[-1]))
    return walls, scaled


def _run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "twoweight")):
        print(f"twoweight sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import resource

    import workloads

    wl = workloads.WORKLOADS[args.workload]

    wl.prepare(args.seed)
    pace = Pace()
    state = None

    def timed_setup() -> float:
        nonlocal state
        state = None
        workloads.clear_grid_cache()
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        return time.perf_counter() - t0

    setup_walls, setup_scaled = _scaled_repeats(pace, timed_setup, SETUP_REPEATS)

    tally = Tally(pace)
    ops = wl.ops(state)
    if args.trace:
        metrics = _traced(wl, ops, args, tally, workloads)
    else:
        import_walls, import_scaled = _scaled_repeats(pace, _fresh_import_s, IMPORT_REPEATS // 2)
        pace.restart()
        loop_t0 = time.perf_counter()
        rounds = 0
        while True:
            round_t0 = time.perf_counter()
            for position, op in enumerate(ops):
                tally.run_op(position, op)
            rounds += 1
            now = time.perf_counter()
            if now - loop_t0 + (now - round_t0) > args.seconds:
                break
        tally.finish(wl, state)
        per_op = tally.median_times()
        late_walls, late_scaled = _scaled_repeats(pace, _fresh_import_s, IMPORT_REPEATS - IMPORT_REPEATS // 2)
        import_walls += late_walls
        import_scaled += late_scaled
        metrics = {
            "ops_per_s": {"value": len(per_op) / sum(per_op) if per_op else 0.0, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(per_op) if per_op else 0.0, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "setup_s": {
                "value": statistics.median(import_scaled) + statistics.median(setup_scaled),
                "unit": "s",
            },
        }
        walls = [statistics.median(w) for w in tally.wall_times()]
        print(json.dumps({
            "rounds": rounds,
            "unscaled": {
                "ops_per_s": len(walls) / sum(walls) if walls else 0.0,
                "op_p50_s": statistics.median(walls) if walls else 0.0,
                "setup_s": statistics.median(import_walls) + statistics.median(setup_walls),
            },
            "setup_times_s": setup_walls,
            "fresh_import_times_s": import_walls,
        }))

    print(json.dumps({"op_times_s": tally.log}))
    for err in tally.errors:
        print(err, file=sys.stderr)
    correct = tally.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _traced(wl, ops, args, tally, workloads) -> dict:
    """Trace one more set-up and one round; time that round with and without tracing."""
    from spans import Tracer

    # the untraced round runs twice, and each op counts with its faster run
    first = [tally.run_op(position, op) for position, op in enumerate(ops)]
    second = [tally.run_op(position, op) for position, op in enumerate(ops)]
    untraced = sum(min(a, b) for a, b in zip(first, second))

    tracer = Tracer()
    workloads.clear_grid_cache()
    tracer.install()
    try:
        state = wl.setup(args.seed)
        ops = wl.ops(state)
        traced = 0.0
        tally.check_context = tracer.pause
        for position, op in enumerate(ops):
            tracer.op_id = position
            traced += tally.run_op(position, op)
    finally:
        tally.check_context = contextlib.nullcontext
        tracer.uninstall()
    tally.finish(wl, state)

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-{args.seed}.npz"))
    metrics = tracer.per_layer()
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    print(json.dumps({"untraced_round_s": untraced, "traced_round_s": traced}))
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
