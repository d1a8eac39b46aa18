"""framewave benchmark: seeded CLI jobs in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs one job process at a time,
each started after the previous one has exited; a job is one
``framewave <mode>`` invocation (see ``job.py``).  A workload is a fixed
sequence of jobs (a cycle, see ``workloads.py``) with inputs derived from
the seed; the cycle repeats while the next one still fits in ``--seconds``
(at least once).  Every job's artifacts pass a correctness gate
(``gates.py``) and are digested.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:

* ``setup_s``: spawn until ``framewave.cli``, numpy and jsonschema are
  imported, summed over the jobs of a cycle (median over cycles);
* ``wall_s``: time in ``cli.main``, summed over the jobs of a cycle
  (median over cycles);
* ``peak_rss_mb``: the largest peak resident set of any job process.

With ``--trace 1`` each cycle runs untraced and then traced on the same
inputs, and the last line carries the per-layer metrics (``layers.py``).

A result file with the environment, every job's verdict numbers, artifact
digests and the metrics goes to ``perfbench/out/<workload>-seed<N>-trace<T>/``
(or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170        # hard stop for one run, which must end within 180 s
THREADS = "1"            # BLAS/OpenMP threads per job (one job at a time)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def job_env(src, tmp):
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = src
    env["PERFBENCH_SRC"] = src
    env["TMPDIR"] = tmp
    return env


def environment(root):
    """Machine, versions, thread settings and commit, for every result file."""
    from importlib import metadata

    import numpy

    mem_kb = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total_gb": round(mem_kb / 2 ** 20, 2) if mem_kb else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "blas": blas,
        "threads": {var: THREADS for var in THREAD_VARS},
        "git_commit": git_commit(root),
    }


def git_commit(root):
    """HEAD of a git checkout at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs jobs one at a time and keeps their records."""

    def __init__(self, out, env, t_start):
        self.out = out
        self.env = env
        self.t_start = t_start
        self.records = []

    def remaining(self):
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - self.t_start))

    def spawn(self, argv):
        env = dict(self.env, PERFBENCH_T_SPAWN_NS=str(time.monotonic_ns()))
        return subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=self.remaining())

    def run(self, job, job_id, traced):
        cfg_path = os.path.join(self.out, "configs", job_id + ".json")
        art_dir = os.path.join(self.out, "artifacts", job_id)
        result_path = os.path.join(self.out, "jobs", job_id + ".json")
        spans_path = os.path.join(self.out, "spans", job_id + ".json")
        os.makedirs(art_dir)
        with open(cfg_path, "w") as fh:
            json.dump(job.config, fh, indent=1, sort_keys=True)
        argv = [sys.executable, os.path.join(HERE, "job.py"), result_path] \
            + ([spans_path] if traced else []) + ["--"] + job.argv(cfg_path, art_dir)
        try:
            proc = self.spawn(argv)
            rc, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, stderr = None, "timed out"
        res = {}
        if os.path.exists(result_path):
            with open(result_path) as fh:
                res = json.load(fh)
        traceback = res.get("traceback") or ("Traceback" in stderr and stderr)
        passed, verdict, reason = gates.check(job.mode, art_dir, res.get("rc", rc), traceback)
        rec = {
            "job_id": job_id, "mode": job.mode, "traced": traced, "seed": job.seed,
            "argv_extra": job.extra, "config": job.config,
            "exit_code": rc, "passed": passed, "reason": reason, "verdict": verdict,
            "setup_s": res.get("setup_s"), "wall_s": res.get("wall_s"),
            "peak_rss_mb": res.get("peak_rss_mb"),
            "digests": gates.digests(art_dir),
            "overwritten": gates.overwritten(res.get("writes", [])),
            "writes": res.get("writes", []),
            "spans": res.get("spans"),
        }
        if not passed:
            rec["stderr_tail"] = stderr[-4000:]
        shutil.rmtree(art_dir)  # digests and verdicts are kept, the bytes are not
        self.records.append(rec)
        return rec


def run_cycle(runner, jobs, k, traced):
    tag = "t" if traced else "u"
    return [runner.run(job, f"c{k:02d}{tag}-{i}-{job.mode}", traced)
            for i, job in enumerate(jobs)]


def summarize_e2e(cycles):
    rss = [r["peak_rss_mb"] for cyc in cycles for r in cyc]
    return {
        "setup_s": statistics.median(sum(r["setup_s"] for r in cyc) for cyc in cycles),
        "wall_s": statistics.median(sum(r["wall_s"] for r in cyc) for cyc in cycles),
        "peak_rss_mb": max(rss),
    }


def mode_walls(cycle):
    return {r["mode"]: r["wall_s"] for r in cycle}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="result directory")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "framewave", "cli.py")):
        print("perfbench: no src/framewave in the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 64
    out = os.path.abspath(args.out or os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    shutil.rmtree(out, ignore_errors=True)
    for sub in ("configs", "artifacts", "jobs", "spans", "tmp"):
        os.makedirs(os.path.join(out, sub))

    t_start = time.monotonic()
    runner = Runner(out, job_env(src, os.path.join(out, "tmp")), t_start)
    jobs = workloads.cycle(args.workload, seed)
    untraced, traced = [], []
    k = 0
    t_loop = time.monotonic()
    while True:
        untraced.append(run_cycle(runner, jobs, k, False))
        if args.trace:
            traced.append(run_cycle(runner, jobs, k, True))
        k += 1
        elapsed = time.monotonic() - t_loop
        if elapsed + elapsed / k > args.seconds:
            break

    records = runner.records
    failed = sum(not r["passed"] for r in records)
    correct = failed == 0
    result = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cycles": k, "environment": environment(root),
        "attempted": len(records), "failed": failed,
        "failed_share": failed / len(records),
        "jobs": records,
    }
    metrics, units = {}, {}
    if correct:
        e2e = summarize_e2e(untraced)
        mode_samples = {}
        for cyc in untraced:
            for mode, wall in mode_walls(cyc).items():
                mode_samples.setdefault(mode, []).append(wall)
        result["mode_wall_s"] = {m: statistics.median(v) for m, v in mode_samples.items()}
        result["end_to_end"] = e2e
        if not args.trace:
            metrics, units = e2e, dict(END_TO_END)
        else:
            per_cycle, checks, unattributed = [], [], []
            for cu, ct in zip(untraced, traced):
                tables = layers.load_tables(os.path.join(out, "spans"),
                                            [r["spans"] for r in ct])
                m = layers.cycle_metrics(tables, mode_walls(cu),
                                         sum(w["bytes"] for r in ct for w in r["writes"]))
                overhead = sum(r["wall_s"] for r in ct) - sum(r["wall_s"] for r in cu)
                m["trace.overhead_s"] = overhead
                per_cycle.append(m)
                checks += layers.selfcheck(args.workload, tables,
                                           [r["wall_s"] for r in ct])
                unattributed.append({t.job_id: layers.unattributed_ns(t) / 1e9
                                     for t in tables})
            metrics, units = layers.median_metrics(per_cycle), layers.UNITS
            result["per_layer_cycles"] = per_cycle
            result["unattributed_s"] = unattributed
            result["trace_selfcheck"] = {"ok": not checks, "problems": checks}
            for problem in checks:
                print(f"trace self-check: {problem}", file=sys.stderr)
        result["metrics"] = metrics
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  cycles {k}  "
          f"jobs {len(records)}  failed_share {result['failed_share']:.3f}")
    for r in records:
        if not r["passed"]:
            print(f"  FAILED {r['job_id']}: {r['reason']}")
    for mode, wall in result.get("mode_wall_s", {}).items():
        print(f"  {mode}_s {wall:.4f} s (median of {len(untraced)})")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  result file {os.path.relpath(os.path.join(out, 'result.json'), root)}")
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
