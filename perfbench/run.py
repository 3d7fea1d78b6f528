"""volsynth benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload desk|sweep --seed N \
        --seconds S --trace 0|1

Run from the repository root. volsynth is imported from ``src/`` (it need
not be installed). The timed phase runs whole rounds of the workload and
starts another only while the rounds so far predict it will end within
``--seconds``; at least one round always runs. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.

BLAS thread settings are left as found; the thread count seen is reported on
stderr and in the trace file. Everything is written below
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
IMPORT_REPEATS = 5


def blas_info():
    """OpenBLAS thread count and version from the library numpy loaded."""
    import numpy as np

    info = {"numpy": np.__version__, "cpu_count": os.cpu_count(),
            "blas_threads": None, "blas_config": None,
            "env": {k: v for k, v in os.environ.items()
                    if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and config is not None:
                    getter.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["blas_threads"] = getter()
                    info["blas_config"] = config().decode()
                    return info
    return info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["desk", "sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "volsynth")):
        print(f"error: no volsynth package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import volsynth
    import volsynth.cli  # noqa: F401  (imports every module the CLI uses)
    return volsynth


def import_seconds():
    """Median wall time of fresh interpreters that start and import volsynth.cli."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import volsynth.cli"
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    vs = import_program()
    import tracing
    import workloads

    env = blas_info()
    print(f"env: {json.dumps(env, sort_keys=True)}", file=sys.stderr)

    out_root = os.path.join(HERE, "out")
    workdir = os.path.join(out_root, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[args.workload](vs, args.seed, workdir)
    tracer = tracing.Tracer("volsynth") if args.trace else None
    setup_roots, round_roots = [], []

    def phase(name, fn, arg, trace):
        """Time fn(arg); when ``trace``, inside an installed tracer and a span."""
        if not trace:
            t = time.perf_counter()
            result = fn(arg)
            return result, time.perf_counter() - t
        tracer.install()
        try:
            with tracer.span(name) as idx:
                t = time.perf_counter()
                result = fn(arg)
                dt = time.perf_counter() - t
        finally:
            tracer.restore()
        (setup_roots if name == "bench.setup" else round_roots).append(idx)
        return result, dt

    fails = []
    setup_times, prints, state = [], set(), None
    for i in range(SETUP_REPEATS):
        rep_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(rep_dir)
        rep, dt = phase("bench.setup", workload.setup, rep_dir, tracer is not None)
        setup_times.append(dt)
        prints.add(workload.fingerprint(rep))
        if state is None:
            state = rep
        else:
            shutil.rmtree(rep_dir)
    if len(prints) != 1:
        fails.append(f"{SETUP_REPEATS} set-ups from one seed differ: {sorted(prints)}")
    start_s = import_seconds()
    setup_s = start_s + statistics.median(setup_times)
    print(f"set-up: interpreter start and imports {start_s:.3f} s, "
          f"inputs {[round(t, 3) for t in setup_times]} s", file=sys.stderr)

    setup_spans = len(tracer.spans) if tracer is not None else 0
    plain, traced = [], []
    attempted = failed = 0
    used = 0.0
    n = 0
    while True:
        # traced runs alternate traced and untraced rounds, so the difference
        # between them is the tracing overhead
        use_trace = tracer is not None and (n % 2 == 0 or not workload.overhead_round)
        out, dt = phase("bench.round", workload.round, state, use_trace)
        (traced if use_trace else plain).append(dt)
        used += dt
        n += 1
        attempted += workload.attempted
        round_fails = workload.check(state, out)
        failed += workload.failed_ops(out)
        fails += [f"round {n}: {f}" for f in round_fails]
        if tracer is not None and workload.overhead_round and not plain:
            continue
        if used + statistics.median(plain + traced) > args.seconds:
            break

    for f in fails:
        print(f"check failed: {f}", file=sys.stderr)
    print(f"rounds: {n} (untraced {len(plain)}, traced {len(traced)}), "
          f"round seconds {[round(t, 3) for t in plain + traced]}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        if plain:
            # the first round also warms up lazily loaded code and the allocator
            overhead = statistics.median(traced[1:] or traced) - statistics.median(plain)
        else:
            round_spans = (len(tracer.spans) - setup_spans) / len(traced)
            overhead = tracing.span_cost(vs.autodiff) * round_spans
        metrics = tracing.layer_metrics(tracer.spans, round_roots, setup_roots, overhead)
        trace_path = os.path.join(out_root, f"trace-{args.workload}-s{args.seed}.json")
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "env": env, "untraced_rounds_s": plain,
                                  "traced_rounds_s": traced})
        print(f"trace: {trace_path} ({len(tracer.spans)} spans)", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
