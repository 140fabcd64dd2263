"""Solve-digest parity of the working tree against a git revision.

    python tools/parity.py --against REV [pytest args]

exports REV with `git archive` into a temporary directory (its src/,
tests/ and pyproject.toml, and the README.md and bench/ that some tests
read), then runs pytest with the same arguments and `--solve-digest`
(see tests/conftest.py) there and in the working tree, whatever pytest's
exit code is. A revision whose tests/conftest.py lacks `--solve-digest`
runs with the working tree's. Each test id that both digests hold is
then reported as identical, as the same lines in another order (the
lines compared as a multiset, without their counter field), or as
different, and the ids that are not identical are listed. The exit
code is 1 when some id is different, or when REV cannot be exported or a
side writes no digest, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def read_digest(lines) -> dict:
    """The digest lines of each test id, in order, without the id and the
    counter fields."""
    tests = defaultdict(list)
    for line in lines:
        test, _, fields = line.rstrip("\n").split("\t", 2)
        tests[test].append(fields)
    return tests


def compare(theirs: dict, ours: dict) -> dict:
    """The test ids that both digests hold, sorted into "identical",
    "reordered" and "different"."""
    verdicts = {"identical": [], "reordered": [], "different": []}
    for test in sorted(theirs.keys() & ours.keys()):
        a, b = theirs[test], ours[test]
        verdicts["identical" if a == b else
                 "reordered" if sorted(a) == sorted(b) else
                 "different"].append(test)
    return verdicts


def run_digest(root: Path, digest: Path, pytest_args: list) -> int:
    """pytest's exit code at root, with its solve digest written to digest."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", f"--solve-digest={digest}",
         *pytest_args], cwd=root, env=env).returncode


def export(rev: str, dest: Path) -> None:
    """REV's files, written under dest."""
    git = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         capture_output=True)
    if git.returncode:
        sys.exit(f"git archive {rev} failed: {git.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git.stdout, check=True)
    conftest = dest / "tests" / "conftest.py"
    if not (conftest.exists() and "--solve-digest" in conftest.read_text()):
        shutil.copyfile(ROOT / "tests" / "conftest.py", conftest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False,
        epilog="Other arguments are passed to pytest on both sides.")
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the git revision to compare with")
    args, pytest_args = parser.parse_known_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        export(args.against, tmp / "rev")
        codes = [run_digest(root, tmp / f"{side}.digest", pytest_args)
                 for root, side in ((tmp / "rev", "rev"), (ROOT, "tree"))]
        digests = []
        for side, code in zip(("rev", "tree"), codes):
            if not (tmp / f"{side}.digest").exists():
                sys.exit(f"pytest wrote no digest (exit code {code})")
            with open(tmp / f"{side}.digest", encoding="ascii") as f:
                digests.append(read_digest(f))
    theirs, ours = digests
    verdicts = compare(theirs, ours)
    shared = sum(map(len, verdicts.values()))
    print(f"\nparity against {args.against}: pytest exit codes {codes[0]} "
          f"there, {codes[1]} here; {shared} shared test ids: "
          f"{len(verdicts['identical'])} identical, "
          f"{len(verdicts['reordered'])} the same lines in another order, "
          f"{len(verdicts['different'])} different")
    print(f"test ids only at {args.against}: {len(theirs.keys() - ours.keys())}, "
          f"only here: {len(ours.keys() - theirs.keys())}")
    for kind in ("reordered", "different"):
        for test in verdicts[kind]:
            print(f"{kind}: {test}")
    return 1 if verdicts["different"] else 0


if __name__ == "__main__":
    sys.exit(main())
