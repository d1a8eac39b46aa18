"""SHA-256 digests of the determinism artifacts, committed beside the tests.

``test_cli.test_determinism_bit_identical`` runs every
``DETERMINISM_CONFIGS`` entry at ``--seed 77`` and compares the files of
its first run against ``artifact_digests.json``.  The manifest records
the platform the digests were taken on (Python, numpy, machine); on any
other the comparison is skipped.  For each CSV, JSON and JSON-lines
artifact it also keeps every number the file holds, in file order, so
that a mismatch can say how far the numbers moved.

Rewrite the manifest from the tree as it is (run from the repository
root):

    PYTHONPATH=src python tests/artifact_digests.py
"""

import csv
import hashlib
import io
import json
import math
import pathlib
import platform

import numpy as np

MANIFEST = pathlib.Path(__file__).with_name("artifact_digests.json")


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


def manifest(runs):
    """The manifest of ``runs``, {config name: {file name: bytes}}."""
    artifacts = {}
    for name, files in runs.items():
        for file, data in files.items():
            entry = {"sha256": hashlib.sha256(data).hexdigest()}
            values = numbers(file, data)
            if values is not None:
                entry["numbers"] = values
            artifacts[f"{name}/{file}"] = entry
    return {"platform": platform_record(), "artifacts": artifacts}


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


def mismatches(recorded, runs):
    """One line per artifact of ``runs`` whose digest differs from the
    recorded manifest, or that only one of them has."""
    got = manifest(runs)["artifacts"]
    want = recorded["artifacts"]
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
    record = manifest(runs)
    MANIFEST.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(record['artifacts'])} artifacts)")


if __name__ == "__main__":
    main()
