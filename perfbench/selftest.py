"""The benchmark's own test.

    python3 perfbench/selftest.py

For each workload it

1. runs one cycle three times with the same seed, the third time traced,
   and compares the SHA-256 of every artifact of every job between the
   first run and each of the others (tracing must not change an output);
2. lists artifacts that a job wrote more than once with different
   content, since only the last version survives on disk;
3. reports the trace self-check of the traced run (self times sum to the
   traced wall, the layer metrics see at least 90% of it, every span-based
   metric homed on the workload saw calls, the predicted bypasses saw
   none);

and checks that BENCHMARK.json names exactly the metrics run.py reports.
Every finding is printed; the exit code is 1 if there is any.  Run it from
the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench_run(workload, seed, trace, out):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


def _slot(job_id):
    """Cycle, position and mode of a job id, without the traced tag."""
    return job_id[:3] + job_id[4:]


def compare(jobs_a, jobs_b, label):
    """Digest mismatches between two runs of one seed, per job and artifact."""
    findings = []
    by_slot = {_slot(j["job_id"]): j for j in jobs_b}
    for ja in jobs_a:
        jb = by_slot.get(_slot(ja["job_id"]))
        if jb is None:
            findings.append(f"{ja['job_id']}: missing from the {label} run")
            continue
        for name in sorted(set(ja["digests"]) | set(jb["digests"])):
            da, db = ja["digests"].get(name), jb["digests"].get(name)
            if da != db:
                findings.append(f"{ja['job_id']} ({ja['mode']}): {name} differs in the "
                                f"{label} run ({str(da)[:12]} vs {str(db)[:12]})")
    return findings


def overwrites(result):
    return [f"{j['job_id']} ({j['mode']}): {name} written more than once with "
            f"different content; only the last version is kept"
            for j in result["jobs"] for name in j["overwritten"]]


def benchmark_json_findings():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    findings = []
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != dict(run.END_TO_END):
        findings.append(f"BENCHMARK.json end_to_end {declared} != run.py {dict(run.END_TO_END)}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != layers.UNITS:
        findings.append("BENCHMARK.json per_layer differs from layers.UNITS: "
                        f"{sorted(set(declared.items()) ^ set(layers.UNITS.items()))}")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        findings.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return findings


SEED = 1


def main():
    out = os.path.join(HERE, "out", "selftest")

    findings = benchmark_json_findings()
    print(f"BENCHMARK.json: {len(findings)} finding(s)")
    for f in findings:
        print(f"  {f}")
    for w in workloads.WORKLOADS:
        first = bench_run(w, SEED, 0, os.path.join(out, f"{w}-a"))
        second = bench_run(w, SEED, 0, os.path.join(out, f"{w}-b"))
        traced = bench_run(w, SEED, 1, os.path.join(out, f"{w}-trace"))
        found = compare(first["jobs"], second["jobs"], "second") \
            + compare(first["jobs"], [j for j in traced["jobs"] if j["traced"]], "traced") \
            + overwrites(first)
        for res in (first, second, traced):
            found += [f"{j['job_id']} ({j['mode']}): failed gate: {j['reason']}"
                      for j in res["jobs"] if not j["passed"]]
        found += [f"trace: {p}" for p in traced.get("trace_selfcheck", {}).get("problems", [])]
        print(f"{w}: {len(found)} finding(s)")
        for f in found:
            print(f"  {f}")
        findings += found
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
