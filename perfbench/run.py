"""actkit benchmark: one closed-loop client drives one workload through actkit's public API.

    python3 perfbench/run.py --workload grid-x3d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` alternates untraced and
traced rounds and reports the per-layer metrics. `--smoke` shrinks every input
for a quick check of the workloads and their checks. `all` runs each workload in
its own process, one after the other, and prints one row each.

The metric names and units come from BENCHMARK.json at the checkout root. The
last line of standard output is one JSON object: correct, attempted, failed and
metrics. The exit code is nonzero when any op fails or a check finds a wrong
output, and when the checkout holds no actkit sources.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # with --trace 1, one untraced and one traced round
WARMUP_ROUNDS = 1  # checked but not timed: lets lazy set-up and allocator caches settle
MAX_PROBLEMS = 20  # a run stops after this many failed ops: its result is already wrong
# copy bandwidth is measured on the kernels-large buffer size
COPY_ELEMS, COPY_ELEMS_SMOKE = 10_000_000, 100_000
WORKLOADS = ("grid-x3d", "infer-x3d-full", "phase-stream", "kernels-large")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read {path}: {exc}") from None


def import_actkit(blas_threads: int):
    """Import actkit from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "actkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no actkit sources at {src / 'actkit'}")
    # the BLAS pool size is read once, when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(src))
    import actkit

    if Path(actkit.__file__).resolve().parent != (src / "actkit").resolve():
        raise SystemExit(f"perfbench: imported actkit from {actkit.__file__}, not from {src}")
    return actkit


def lscpu_caches() -> dict[str, tuple[int, str]]:
    """Total bytes and lscpu's own text for the L2 and L3 lines; empty if lscpu is unavailable."""
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, env={**os.environ, "LC_ALL": "C"}
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    units = {"B": 1, "KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30}
    caches = {}
    for level in ("L2", "L3"):
        m = re.search(rf"^{level} cache:\s*(([\d.]+) (B|KiB|MiB|GiB).*)$", text, re.MULTILINE)
        if m:
            caches[level] = (int(float(m.group(2)) * units[m.group(3)]), m.group(1))
    return caches


def machine_facts(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_text = "unknown"
    caches = lscpu_caches()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": blas_threads,
        "numpy": np.__version__,
        "blas": blas_text,
        "python": sys.version.split()[0],
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


class Measurement:
    def __init__(self) -> None:
        self.op_s: list[float | None] = []  # None for a failed op
        self.items: list[int] = []
        self.traced: list[bool] = []
        self.timed: list[bool] = []  # False in the warm-up rounds
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    def count(self, traced: bool) -> int:
        return sum(1 for t, tr in zip(self.timed, self.traced) if t and tr == traced)

    def throughput(self, traced: bool = False) -> float:
        """Items per second of op wall time over the timed ops that succeeded.

        A total over the run, not a median of per-op rates: the machine's speed drifts in
        phases of seconds, and a median jumps between phases where a total moves smoothly.
        """
        done = [
            (n, t)
            for n, t, timed, tr in zip(self.items, self.op_s, self.timed, self.traced)
            if timed and tr == traced and t is not None
        ]
        busy = sum(t for _, t in done)
        return sum(n for n, _ in done) / busy if busy else 0.0


def measure(wl, seconds: float, tracer=None) -> Measurement:
    """Closed loop: after WARMUP_ROUNDS rounds, run ops until their summed wall time reaches
    `seconds`, in whole rounds and at least MIN_ROUNDS of them. Each op's output is checked
    after its clock stops. A failed op's wall time counts too, so a run whose ops raise still
    ends; it ends early after MAX_PROBLEMS failures.

    With a tracer, the timed rounds alternate untraced and traced, and the run ends after a
    traced round, so the tracing overhead compares rounds run side by side in time."""
    m = Measurement()
    busy = 0.0
    i = 0
    while True:
        rnd, pos = divmod(i, wl.round_ops)
        timed = rnd >= WARMUP_ROUNDS
        traced = tracer is not None and timed and (rnd - WARMUP_ROUNDS) % 2 == 1
        if traced and pos == 0:
            tracer.install()
        if traced:
            tracer.op_id = i
        dt, items, problem, out = None, 0, None, None
        t0 = time.perf_counter()
        try:
            try:
                with tracer.span("op") if traced else contextlib.nullcontext():
                    out = wl.op(i)
            finally:
                dt = time.perf_counter() - t0
            with tracer.paused() if traced else contextlib.nullcontext():
                problem = wl.check(i, out)
            items = wl.items(out)
        except Exception:  # an op that raises counts as failed; the loop goes on
            problem = traceback.format_exc().strip().splitlines()[-1]
        del out  # free this op's outputs before the next op allocates its own
        if traced and pos == wl.round_ops - 1:
            tracer.uninstall()
        m.op_s.append(None if problem else dt)
        m.items.append(items)
        m.traced.append(traced)
        m.timed.append(timed)
        if problem:
            m.problems.append(f"op {i}: {problem}")
        if timed:
            busy += dt
        i += 1
        rounds = i // wl.round_ops - WARMUP_ROUNDS
        whole = i % wl.round_ops == 0 and (tracer is None or rounds % 2 == 0)
        if len(m.problems) >= MAX_PROBLEMS or (whole and rounds >= MIN_ROUNDS and busy >= seconds):
            if tracer is not None:
                tracer.uninstall()
            return m


def mem_copy_gb_per_s(n_elems: int) -> float:
    """Median copy bandwidth on an n-element float32 buffer, counting read plus write bytes."""
    import numpy as np

    src = np.arange(n_elems, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def fresh_import_s(blas_threads: int) -> float:
    """The same span as this process's import time, measured in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
        f"run.import_actkit({blas_threads}); print(time.perf_counter() - run._PROCESS_START)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_one(args, spec: dict) -> int:
    blas_threads = len(os.sched_getaffinity(0))
    import_actkit(blas_threads)
    import_times = [time.perf_counter() - _PROCESS_START]
    import tracing
    import workloads

    facts = machine_facts(blas_threads)
    wl = workloads.make(args.workload, args.seed, args.smoke, OUT_DIR)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    # import time is this process's own plus fresh interpreters', so that it too is a median
    import_times += [fresh_import_s(blas_threads) for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    print(
        f"# machine: nproc={facts['nproc']} blas_thread_cap={facts['blas_thread_cap']} "
        f"numpy={facts['numpy']} blas={facts['blas']} python={facts['python']} "
        f"L2={facts['l2'][1] if facts['l2'] else 'unknown'} L3={facts['l3'][1] if facts['l3'] else 'unknown'}"
    )
    nbytes, what = wl.largest_buffer()
    vs = "".join(
        f", {nbytes / facts[lv][0]:.3g}x {lv.upper()}" for lv in ("l2", "l3") if facts[lv]
    )
    print(f"# {wl.name}: largest buffer {nbytes / 1e6:.1f} MB computed ({what}){vs}")

    if not args.trace:
        run = measure(wl, args.seconds)
        metrics = {
            "items_per_s": run.throughput(),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mib(),
        }
        section = "end_to_end"
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                wl.setup()
        finally:
            tracer.uninstall()
        run = measure(wl, args.seconds, tracer)
        untraced_rate, traced_rate = run.throughput(traced=False), run.throughput(traced=True)
        overhead = (untraced_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0
        copy_gb_per_s = mem_copy_gb_per_s(COPY_ELEMS_SMOKE if args.smoke else COPY_ELEMS)
        metrics = tracing.layer_metrics(tracer.spans, run.count(traced=True), copy_gb_per_s, overhead)
        section = "per_layer"
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": wl.name, "seed": args.seed, "machine": facts, "metrics": metrics})
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(declared):
        raise SystemExit(
            f"perfbench: {section} metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, extra {sorted(set(metrics) - set(declared))}"
        )

    attempted, problems = run.attempted, run.problems
    for p in problems:
        print(f"# FAILED {p}", file=sys.stderr)
    if wl.notes():
        print(f"# {wl.name}: {wl.notes()}")
    if not args.trace:
        print(
            f"{wl.name:<15} {wl.alias}={metrics['items_per_s'] / wl.item_scale:.6g} {wl.item}/s  "
            f"setup_s={setup_s:.4f} s  peak_rss_mb={metrics['peak_rss_mb']:.1f} MiB  "
            f"failed_op_ratio={len(problems) / attempted:.3g} ({len(problems)}/{attempted} ops)"
        )
    else:
        for name, value in metrics.items():
            print(f"  {name:<40} {value:>14.6g} {declared[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak RSS are its own."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(int(args.trace))] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stdout)
            raise SystemExit(f"perfbench: workload {name} printed no result (exit {proc.returncode})") from None
        rows += [line for line in lines[:-1] if not line.startswith("# machine") or not rows]
        code = code or proc.returncode
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print("\n".join(rows))
    print(json.dumps(merged))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
