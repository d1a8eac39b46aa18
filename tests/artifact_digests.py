"""SHA-256 digests of the determinism artifacts, committed beside the tests.

``test_cli.test_determinism_bit_identical`` runs every
``DETERMINISM_CONFIGS`` entry at ``--seed 77`` and compares the files of
its first run against the ``artifacts`` of ``artifact_digests.json``.
``test_cli.test_benchmark_jobs_match_their_digests`` runs every job of one
cycle of each benchmark workload (``perfbench/workloads.py``, read as it
is) at workload seed ``WORKLOAD_SEED`` and compares its files against the
``workload_artifacts``.  The manifest records the platform the digests
were taken on (Python, numpy, machine); on any other the comparison is
skipped.  For each CSV, JSON and JSON-lines artifact it also keeps every
number the file holds, in file order, so that a mismatch can say how far
the numbers moved.

Rewrite the manifest from the tree as it is (run from the repository
root):

    PYTHONPATH=src python tests/artifact_digests.py
"""

import csv
import hashlib
import importlib.util
import io
import json
import math
import pathlib
import platform

import numpy as np

MANIFEST = pathlib.Path(__file__).with_name("artifact_digests.json")
WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
WORKLOAD_SEED = 83


def platform_record():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def _walk(value, out):
    if isinstance(value, dict):
        for v in value.values():
            _walk(v, out)
    elif isinstance(value, list):
        for v in value:
            _walk(v, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(value)


def numbers(name, data):
    """Every number of a CSV, JSON or JSON-lines artifact in file order,
    or None for any other artifact."""
    out = []
    if name.endswith(".json"):
        _walk(json.loads(data), out)
    elif name.endswith(".jsonl"):
        for line in data.decode().splitlines():
            _walk(json.loads(line), out)
    elif name.endswith(".csv"):
        for row in csv.reader(io.StringIO(data.decode())):
            for cell in row:
                try:
                    out.append(float(cell))
                except ValueError:
                    pass
    else:
        return None
    return out


def digests(runs):
    """{"<run>/<file>": digest entry} of ``runs``, {run name: {file name:
    bytes}}."""
    artifacts = {}
    for name, files in runs.items():
        for file, data in files.items():
            entry = {"sha256": hashlib.sha256(data).hexdigest()}
            values = numbers(file, data)
            if values is not None:
                entry["numbers"] = values
            artifacts[f"{name}/{file}"] = entry
    return artifacts


def manifest(runs, workload_runs):
    """The manifest of the determinism runs and the benchmark jobs."""
    return {"platform": platform_record(), "artifacts": digests(runs),
            "workload_artifacts": digests(workload_runs)}


def workload_runs(tmp):
    """{"<workload>/<slot>-<mode>": {file name: bytes}} of every job of one
    cycle of each benchmark workload at WORKLOAD_SEED, each run in this
    process into its own directory under ``tmp``."""
    from framewave import cli

    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = {}
    for name in workloads.WORKLOADS:
        for slot, job in enumerate(workloads.cycle(name, WORKLOAD_SEED)):
            key = f"{name}/{slot}-{job.mode}"
            config, out = tmp / f"{name}-{slot}.json", tmp / name / str(slot)
            config.write_text(json.dumps(job.config, indent=1, sort_keys=True))
            rc = cli.main(job.argv(str(config), str(out)))
            if rc != 0:
                raise RuntimeError(f"{key} exited with {rc}")
            runs[key] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    return runs


def largest_relative_change(old, new):
    """max |a - b| / max(|a|, |b|) over the numbers of two versions of an
    artifact, or a note when their counts differ."""
    if len(old) != len(new):
        return f"{len(old)} numbers recorded, {len(new)} now"
    worst = 0.0
    for a, b in zip(old, new):
        if a == b or (a != a and b != b):
            continue
        scale = max(abs(a), abs(b))
        worst = max(worst, abs(a - b) / scale if math.isfinite(scale) else math.inf)
    return worst


def mismatches(recorded, runs, section="artifacts"):
    """One line per artifact of ``runs`` whose digest differs from the
    recorded manifest's ``section``, or that only one of them has."""
    got = digests(runs)
    want = recorded[section]
    out = [f"{key}: not recorded" for key in sorted(set(got) - set(want))]
    out += [f"{key}: missing" for key in sorted(set(want) - set(got))]
    for key in sorted(set(got) & set(want)):
        if got[key]["sha256"] != want[key]["sha256"]:
            line = f"{key}: digest differs"
            if "numbers" in want[key]:
                change = largest_relative_change(want[key]["numbers"], got[key]["numbers"])
                line += f"; largest relative change of a number {change}"
            out.append(line)
    return out


def platform_difference(recorded):
    """What differs between the recorded platform and this one, or ''."""
    here = platform_record()
    return ", ".join(f"{key} {recorded['platform'].get(key)} recorded, {here[key]} here"
                     for key in here if recorded["platform"].get(key) != here[key])


def main():
    import tempfile

    import test_cli

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: test_cli.determinism_run(pathlib.Path(tmp), name, "a")
                for name in test_cli.DETERMINISM_CONFIGS}
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workload_runs(pathlib.Path(tmp))
    record = manifest(runs, jobs)
    MANIFEST.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(record['artifacts'])} artifacts, "
          f"{len(record['workload_artifacts'])} benchmark job artifacts)")


if __name__ == "__main__":
    main()
