#!/usr/bin/env python3
"""Compare the output digests of this tree with those of a git revision.

``src/`` of REV is exported with ``git archive`` into a temporary directory,
and ``scripts/output_digests.py`` of this tree runs once on each ``src``.
The script prints each output path whose digest differs (or that only one
tree writes), else ``N of N identical``, and exits 1 on any difference:

    python3 scripts/compare_digests.py c0b0a69

A run of the digest script that fails on either tree ends the comparison
with its error output and exit 1.
"""

import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "scripts", "output_digests.py")


def digests(src, label):
    """``{path: sha256}`` of every output the digest script lists with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, DIGESTS], env=env, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"output_digests.py failed on {label}:\n{run.stderr}")
    return {path: sha for sha, path in (line.split("  ", 1) for line in run.stdout.splitlines())}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: compare_digests.py REV")
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tar_path = os.path.join(tmp, "src.tar")
        with open(tar_path, "wb") as fh:
            if subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, stdout=fh).returncode != 0:
                sys.exit(f"git archive could not export src/ of {rev!r}")
        with tarfile.open(tar_path) as tar:
            tar.extractall(tmp, filter="data")
        before = digests(os.path.join(tmp, "src"), rev)
    after = digests(os.path.join(ROOT, "src"), "this tree")
    differ = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    for path in differ:
        print(path)
    if differ:
        return 1
    print(f"{len(after)} of {len(after)} identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
