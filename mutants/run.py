"""Mutation check of the Tier-1 suite without the golden digests.

Each entry of ``mutants.json`` is one exact text edit of a program file
(``old`` occurs there exactly once and becomes ``new``) and names the test
expected to catch it. For each mutant the runner copies the tree to a
temporary directory, applies the edit there, and runs the listed test on its
own. If that test passes, it runs Tier-1 without ``tests/test_golden.py``,
stopping at the first failure, to name the test that does catch the mutant.
It prints one JSON line per mutant: the test that caught it and whether that
is the listed test, or "survived". It exits 1 if any mutant survives, is
caught by a test other than its listed one, or cannot be run, else 0.

Usage, from anywhere, with the test dependencies installed:

    python mutants/run.py [NAME ...]

Stdlib only; a mutant its listed test catches takes one run of that test, a
few seconds, and any other one Tier-1 run, about half a minute on two cores.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PYTEST = ["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"]
# the list's own test asserts the unedited texts, so it is not run on a mutant
TIER1 = ["--continue-on-collection-errors",
         "--ignore=tests/test_golden.py", "--ignore=tests/test_mutants.py"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".benchmarks", ".out", "*.egg-info")


def first_failure(output):
    """Node id of the first FAILED or ERROR line of pytest's summary."""
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            return rest.split(" - ")[0]
    return None


def run_mutant(mutant):
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=SKIP)
        path = os.path.join(tree, mutant["file"])
        with open(path) as fh:
            text = fh.read()
        if text.count(mutant["old"]) != 1:
            return {"error": "old text does not occur exactly once"}
        with open(path, "w") as fh:
            fh.write(text.replace(mutant["old"], mutant["new"]))
        src = os.path.join(tree, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for args in ([mutant["caught_by"]], TIER1):
            proc = subprocess.run([sys.executable, *PYTEST, *args], cwd=tree, env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                break
    if proc.returncode == 0:
        return {"caught_by": "survived"}
    caught = first_failure(proc.stdout)
    if caught is None:
        return {"error": f"pytest exited {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}"}
    return {"caught_by": caught,
            "as_listed": caught.split("[")[0] == mutant["caught_by"]}


def main(names):
    with open(os.path.join(HERE, "mutants.json")) as fh:
        mutants = json.load(fh)
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in mutants:
        if names and mutant["name"] not in names:
            continue
        result = run_mutant(mutant)
        bad += "error" in result or not result.get("as_listed", False)
        print(json.dumps({"mutant": mutant["name"], **result, "listed": mutant["caught_by"]}),
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
