"""One benchmark job: a fresh process that imports framewave and runs
``framewave.cli.main`` once.

    python3 perfbench/job.py RESULT.json [SPANS.json] -- <cli arguments>

The environment carries ``PERFBENCH_T_SPAWN_NS`` (the parent's monotonic
clock just before it started this process) and ``PERFBENCH_SRC`` (the
``src`` directory framewave must be imported from).  With a SPANS path the
job traces every public framewave function (see ``tracing``).

The result file holds the exit code, the set-up time (spawn until
framewave.cli, numpy and jsonschema are imported), the time in
``cli.main`` less the benchmark's own work inside it, the peak resident
set from the process's own rusage and every write of an artifact with its
SHA-256, in the order the writes happened.
"""

import os
import sys
import time


def main(argv):
    t_spawn = int(os.environ["PERFBENCH_T_SPAWN_NS"])
    sep = argv.index("--")
    paths, cli_argv = argv[:sep], argv[sep + 1:]
    result_path = paths[0]
    spans_path = paths[1] if len(paths) > 1 else None

    import jsonschema  # noqa: F401  (parse_config imports it lazily)
    import numpy  # noqa: F401
    from framewave import cli

    t_ready = time.monotonic_ns()

    import hashlib
    import json
    import resource
    import traceback

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"framewave imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    out_dir = cli_argv[cli_argv.index("--out") + 1]
    job_id = os.path.splitext(os.path.basename(result_path))[0]
    tracer = tracing.Tracer(job_id) if spans_path else None
    if tracer is not None:
        tracing.instrument(tracer.wrap, tracing.HOOKS)

    # Record every artifact write: after each writer call, hash the files
    # of out_dir whose size or mtime changed.  The time spent here is taken
    # out of the measured wall time; when tracing it is a bench span, and so
    # is the work of the tracing hooks that run in bench spans.
    writes, seen, record_ns = [], {}, [0]

    def scan():
        t0 = time.perf_counter_ns()
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            st = os.stat(path)
            stamp = (st.st_mtime_ns, st.st_size)
            if seen.get(name) != stamp:
                seen[name] = stamp
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                writes.append({"artifact": name, "bytes": st.st_size,
                               "sha256": digest})
        record_ns[0] += time.perf_counter_ns() - t0

    def recorded(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer is None:
                    scan()
                else:
                    tracer.bench_call(scan)
        return call

    from framewave import energy, evolve, fields

    writers = [energy.write_json, energy.write_series_csv, fields.save_snapshot,
               evolve.run_experiment]
    tracing.rebind(tracing.framewave_modules(), {fn: recorded(fn) for fn in writers})

    rc, failure = None, None
    t0 = time.perf_counter_ns()
    try:
        rc = cli.main(cli_argv)
    except Exception:  # a traceback is a failed job, reported by the gate
        failure = traceback.format_exc()
        print(failure, file=sys.stderr)
    t1 = time.perf_counter_ns()
    excluded_ns = record_ns[0] if tracer is None else tracer.bench_ns()

    result = {
        "rc": rc,
        "traceback": failure,
        "setup_s": (t_ready - t_spawn) / 1e9,
        "wall_s": (t1 - t0 - excluded_ns) / 1e9,
        "excluded_s": excluded_ns / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "writes": writes,
    }
    if tracer is not None:
        tracer.dump(spans_path, t0)
        result["spans"] = os.path.basename(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
