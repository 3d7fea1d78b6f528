"""Paired benchmark comparison of the working tree against a git revision.

    python3 tools/bench_compare.py --against <rev> --out BENCH.json

Run from the repository root. ``<rev>`` is resolved to its commit id, which the
output records as ``against``, and that commit is exported with ``git archive``
into a temporary directory (removed on exit); the working tree is the change. Each
tree runs its own ``perfbench/run.py``, unchanged, one process at a time and
waited for. Each workload runs ``PAIRS`` pairs; pair i runs both trees at seed
i + 1, and the tree that goes first alternates from pair to pair, so slow
drift of the machine falls on both sides. Workloads, run length and end-to-end metrics come from
``BENCHMARK.json``. After the untraced pairs (``--trace 0``), one traced desk
run per tree (``--trace 1``, seed 1) gives the per-layer metrics.

The output JSON holds every run (result line, desk scores, failed checks,
BLAS threads seen), each side's median and quartiles of every end-to-end
metric, the pairs the change won, the median gap against the base's
interquartile range, ``os.cpu_count()``, the numpy version, and the share of
CPU time the hypervisor took (steal) while the runs went, from ``/proc/stat``
deltas. It is rewritten after every run, so an interrupted comparison keeps
what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from golden import ROOT, export_tree

SIDES = ("base", "change")
TIMEOUT_S = 900     # one run; a desk round takes about a minute on 2 CPUs
PAIRS = 10          # untraced pairs per workload, at seeds 1..PAIRS


def cpu_times():
    """(steal, total) jiffies over all CPUs, or None where /proc/stat is unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice, inside user]
    return fields[7], sum(fields[:8])


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def parse_stderr(text):
    """BLAS environment, desk scores and failed checks from a run's stderr."""
    env, scores, fails = None, {}, []
    for line in text.splitlines():
        if line.startswith("env: "):
            env = json.loads(line[len("env: "):])
        elif line.startswith("desk: "):
            for item in line[len("desk: "):].split(", "):
                name, value = item.rsplit(" ", 1)
                scores[name] = float(value)
        elif line.startswith("check failed: "):
            fails.append(line[len("check failed: "):])
    return env, scores, fails


def resolve_commit(rev):
    """The commit id ``rev`` names; exits with an error when it names none."""
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                           f"{rev}^{{commit}}"], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {rev!r} names no commit")
    return proc.stdout.strip()


def benchmark_spec():
    """Workload names, run seconds and end-to-end metric names (all lower-is-better)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]], spec["run_seconds"],
            [m["name"] for m in spec["end_to_end"]])


def run_once(side, tree, workload, seed, trace, seconds):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    stat0, t0 = cpu_times(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    blas, scores, fails = parse_stderr(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    record = {"side": side, "workload": workload, "seed": seed, "trace": trace,
              "returncode": proc.returncode, "elapsed_s": elapsed,
              "steal_share": steal_share(stat0, cpu_times()), "env": blas,
              "scores": scores, "failed_checks": fails, "result": result}
    if result is None:
        record["stderr_tail"] = proc.stderr[-2000:]
    status = "correct" if result and result["correct"] else "NOT CORRECT"
    wall = result["metrics"].get("wall_s", {}).get("value") if result else None
    print(f"{workload} seed {seed} {side}: {status}, wall_s {wall}, {elapsed:.1f} s",
          file=sys.stderr)
    return record


def spread(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs, workload, metrics):
    """Per end-to-end metric: each side's spread, pairs won by the change, the gap."""
    pairs = {}
    for r in runs:
        if r["workload"] == workload and not r["trace"] and r["result"]:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    if not pairs:
        return None
    out = {"pairs": len(pairs)}
    for name in metrics:
        values = {s: [p[s][name]["value"] for p in pairs] for s in SIDES}
        base, change = (spread(values[s]) for s in SIDES)
        gap = statistics.median(values["change"]) - statistics.median(values["base"])
        out[name] = {
            "values": values, "base": base, "change": change,
            "pairs_won": sum(c < b for b, c in zip(values["base"], values["change"])),
            "median_gap": gap,
            "relative_gap": gap / statistics.median(values["base"]),
            "gap_exceeds_base_iqr": -gap > base["iqr"],
        }
    return out


def summary_of(runs, args, spec):
    workloads, seconds, metrics = spec
    first_env = next((r["env"] for r in runs if r["env"]), None) or {}
    traced = {r["side"]: r["result"]["metrics"] for r in runs if r["trace"] and r["result"]}
    per_layer = None
    if len(traced) == 2:
        per_layer = {name: {s: traced[s].get(name, {}).get("value") for s in SIDES}
                     for name in sorted(set(traced["base"]) | set(traced["change"]))}
    return {
        "against": args.against,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0|1",
        "cpu_count": os.cpu_count(),
        "numpy": first_env.get("numpy"),
        "blas_threads": sorted({r["env"]["blas_threads"] for r in runs if r["env"]},
                               key=str),
        "blas_config": first_env.get("blas_config"),
        "all_correct": all(r["result"] and r["result"]["correct"] for r in runs),
        "failed_operations": {f"{r['workload']}-s{r['seed']}-{r['side']}"
                              f"{'-traced' if r['trace'] else ''}":
                              (r["result"]["failed"], r["result"]["attempted"])
                              if r["result"] else None for r in runs},
        "steal_share": {"runs": [r["steal_share"] for r in runs]},
        "end_to_end": {w: summarize(runs, w, metrics) for w in workloads},
        "traced_desk_seed1": per_layer,
        "runs": runs,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", required=True, help="git revision of the base")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    args.against = resolve_commit(args.against)

    spec = workloads, seconds, metrics = benchmark_spec()
    runs = []
    stat0 = cpu_times()

    def record(r):
        runs.append(r)
        doc = summary_of(runs, args, spec)
        doc["steal_share"]["overall"] = steal_share(stat0, cpu_times())
        with open(args.out + ".tmp", "w") as fh:
            json.dump(doc, fh, indent=1)
        os.replace(args.out + ".tmp", args.out)

    tmp = tempfile.mkdtemp(prefix="volsynth-bench-")
    try:
        trees = {"base": export_tree(args.against, tmp), "change": ROOT}
        for workload in workloads:
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    record(run_once(side, trees[side], workload, i + 1, 0, seconds))
        for side in SIDES:
            record(run_once(side, trees[side], "desk", 1, 1, seconds))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for workload, s in summary_of(runs, args, spec)["end_to_end"].items():
        if s is None:
            continue
        for name in metrics:
            m = s[name]
            print(f"{workload} {name}: base {m['base']['median']:.4g} -> change "
                  f"{m['change']['median']:.4g} ({100 * m['relative_gap']:+.1f}%), "
                  f"change won {m['pairs_won']}/{s['pairs']}, base IQR {m['base']['iqr']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
