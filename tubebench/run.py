"""Closed-loop benchmark of tubeharm.

One caller runs the cases of one workload back to back, each case
starting when the previous one ends, with as many BLAS threads as the
process may use cores.  Run from the root of a source checkout:

    python3 tubebench/run.py --workload poisson_field --seed 1 --seconds 25 --trace 0

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs every
case twice, first plain and then with every public function of the
cone, grid, poisson and spectral modules wrapped by a timing span, and
reports per-layer metrics per traced case.  `--workload all` runs every
workload in its own process.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
TAIL_BEYOND = 10
# the tail percentile needs TAIL_BEYOND cases beyond it
MIN_CASES = TAIL_BEYOND + 1

# start-up stall of the threaded BLAS: a small complex GEMM is repeated
# until QUIET_CALLS consecutive calls each take under QUIET_S
QUIET_CALLS = 50
QUIET_S = 0.002
BLAS_WARMUP_CAP_S = 5.0


@dataclass
class Loop:
    """Outcome of the cases of one loop."""

    times: list = field(default_factory=list)
    failed: int = 0
    residuals: dict = field(default_factory=dict)
    elapsed: float = 0.0


def run_case(wl, inputs, errors, loop: Loop) -> None:
    """Time one case.  It fails when it raises one of `errors` or a gated
    residual exceeds its tolerance."""
    t0 = time.perf_counter()
    try:
        residuals = wl.case(inputs)
    except errors:
        residuals = None
    loop.times.append(time.perf_counter() - t0)
    if residuals is None or not all(
        residuals[name] <= tol for name, tol in wl.tolerances.items()
    ):
        loop.failed += 1
    for name, value in (residuals or {}).items():
        loop.residuals[name] = max(loop.residuals.get(name, 0.0), value)


def run_cases(wl, seed, seconds, case_rng, errors, tracer=None):
    """Run cases 0, 1, ... until `seconds` have passed and at least
    MIN_CASES have run; return the plain and the traced Loop.

    With a tracer, each case runs a second time, traced, on the same
    inputs, so that machine-speed drift during the run affects both
    sides of the tracing overhead alike."""
    plain, traced = Loop(), Loop()
    start = time.perf_counter()
    while len(plain.times) < MIN_CASES or time.perf_counter() - start < seconds:
        inputs = wl.draw(case_rng(seed, wl.name, len(plain.times)))
        run_case(wl, inputs, errors, plain)
        if tracer is not None:
            with tracer:
                run_case(wl, inputs, errors, traced)
    plain.elapsed = time.perf_counter() - start
    return plain, traced


def tail_index(count: int) -> int:
    """Index into sorted case times of the highest percentile that has
    TAIL_BEYOND cases beyond it."""
    return count - 1 - TAIL_BEYOND


def tail_label(count: int) -> str:
    return f"p{100.0 * (tail_index(count) + 1) / count:.1f}"


def end_to_end_metrics(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    """The gated end-to-end metrics.  The median latency and the case
    rate are printed beside them but not gated: on a shared 2-core host
    their run-to-run spread (up to 0.31 of the median over ten runs) is
    wider than any bound the benchmark may set, while the tail's is not."""
    ms = sorted(1e3 * t for t in loop.times)
    return {
        "setup_s": (setup_s, "s"),
        "case_ms.tail": (ms[tail_index(len(ms))], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "pass_frac": (1.0 - loop.failed / len(ms), "ratio"),
    }


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer_metrics(layer_functions, tracer, traced: Loop, plain: Loop,
                      check_names, env: dict) -> dict:
    """Per-case calls and self time of every wrapped function, layer
    shares, computed rates, tracing coverage and overhead, the largest
    residual of every check (0 on workloads that do not run it) and the
    numeric environment."""
    count = len(traced.times)
    case_s = sum(traced.times)
    out = {}
    for layer, names in layer_functions.items():
        for name in names:
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = (tracer.calls[key] / count, "count")
            out[f"{key}.self_ms"] = (1e3 * tracer.self_s[key] / count, "ms")
        layer_s = sum(tracer.self_s[f"{layer}.{name}"] for name in names)
        out[f"layer.{layer}.share"] = (100.0 * layer_s / case_s, "%")
    fft_s = tracer.self_s["grid.fourier_forward"] + tracer.self_s["grid.fourier_inverse"]
    io_s = tracer.self_s["grid.write_tgf"] + tracer.self_s["grid.read_tgf"]
    out["grid.fft.gflops"] = (_rate(tracer.work.get("fft_flops", 0.0), fft_s) / 1e9, "GFLOP/s")
    out["spectral.lift.gflops"] = (
        _rate(tracer.work.get("lift_flops", 0.0), tracer.self_s["spectral.lift_field"]) / 1e9,
        "GFLOP/s")
    out["grid.io.mb_per_s"] = (_rate(tracer.work.get("io_bytes", 0.0), io_s) / 1e6, "MB/s")
    out["trace.coverage"] = (sum(tracer.self_s.values()) / case_s, "ratio")
    out["trace.overhead"] = (
        statistics.median(traced.times) / statistics.median(plain.times), "ratio")
    out["trace.cases"] = (count, "count")
    for name in check_names:
        unit = "count" if name.endswith("mismatch") else "ratio"
        out[name] = (plain.residuals.get(name, 0.0), unit)
    out["env.blas_warmup_s"] = (env["blas_warmup_s"], "s")
    out["env.blas_threads"] = (env["blas_threads"], "count")
    out["env.nproc"] = (env["nproc"], "count")
    return out


def blas_warmup(np) -> float:
    """Seconds until a (64x312)@(312x64) complex GEMM runs quietly.

    In some fresh processes the threaded BLAS takes ~30 ms per such call,
    instead of ~0.2 ms, for up to about a second; this is spent here so
    that it stays out of setup_s."""
    a = np.ones((64, 312), dtype=np.complex128)
    b = np.ones((312, 64), dtype=np.complex128)
    start = time.perf_counter()
    quiet = 0
    while quiet < QUIET_CALLS and time.perf_counter() - start < BLAS_WARMUP_CAP_S:
        t0 = time.perf_counter()
        a @ b
        quiet = quiet + 1 if time.perf_counter() - t0 < QUIET_S else 0
    return time.perf_counter() - start


def blas_thread_count(np) -> int:
    """Threads of the OpenBLAS that numpy bundles; -1 when not found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def git_sha() -> str:
    """Commit of the checkout, read from .git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names) -> int:
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tubeharm" / "__init__.py").is_file():
        print(f"error: no tubeharm sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # read by OpenBLAS when numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np
    import workloads
    from tracer import Tracer
    from tubeharm.errors import TubeharmError
    import_s = time.perf_counter() - t0
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    env = dict(
        blas_warmup_s=blas_warmup(np), blas_threads=blas_thread_count(np), nproc=nproc,
        git_sha=git_sha(),
        python=platform.python_version(), numpy=np.__version__,
        scipy=importlib.metadata.version("scipy"),
        blas=np.__config__.CONFIG["Build Dependencies"]["blas"].get("version", "unknown"),
    )

    name = args.workload
    with tempfile.TemporaryDirectory(prefix="_scratch-", dir=BENCH_DIR) as scratch:
        setups = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = workloads.make_workload(name, scratch)
            wl.case(wl.draw(workloads.case_rng(args.seed, name, -1 - rep)))
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tracer = None
        if args.trace:
            tracer = Tracer([
                (module, layer, workloads.LAYER_FUNCTIONS[layer],
                 workloads.WORK_COUNTERS.get(layer, {}))
                for layer, module in workloads.LAYER_MODULES.items()
            ])
        plain, traced = run_cases(wl, args.seed, args.seconds, workloads.case_rng,
                                  TubeharmError, tracer)
        if tracer is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end_metrics(plain, setup_s, peak_rss_mb)
        else:
            metrics = per_layer_metrics(workloads.LAYER_FUNCTIONS, tracer, traced, plain,
                                        workloads.CHECK_NAMES, env)

    attempted = len(plain.times) + len(traced.times)
    failed = plain.failed + traced.failed
    count = len(plain.times)
    print(f"# env {json.dumps(env)}")
    rate = "" if tracer else f"cases_per_s={count / plain.elapsed:.6g} 1/s "
    print(f"# workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"cases={count} case_ms.p50={1e3 * statistics.median(plain.times):.6g} ms "
          f"{rate}case_ms.tail={tail_label(count)} "
          f"failed_frac={failed / attempted:.6g} ({failed}/{attempted})")
    for key, (value, unit) in metrics.items():
        print(f"{key:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
