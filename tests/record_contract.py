"""Record the command-line contract corpus, ``tests/contract.txt``.

Each corpus line is one invocation of ``wfuse``, tab-separated: its exit
code, then the first 16 hex digits of the sha256 of its stdout, of its
stderr and of the files it wrote ("-" when it wrote none), then its argv,
shell-quoted.  Every invocation runs in-process through ``main(argv)``, in
an empty working directory, with ``$WFUSE_SEED`` unset and an 80-column
terminal: only ``--help`` output depends on the width, since every usage
error is one ``error:`` line.  ``test_cli`` replays the corpus line by line.

Run from the repository root after a deliberate change to the contract:

    PYTHONPATH=src python tests/record_contract.py

It rewrites the corpus and prints every argv whose line changed, was added
or was dropped; it prints nothing when the contract held.  To see what a
change moved without writing anything:

    PYTHONPATH=src python tests/record_contract.py --check

prints the same lines, leaves the corpus as it is, and exits 1 when any
line differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import random
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from wfuse.cli import main

CORPUS = Path(__file__).with_name("contract.txt")
HEADER = "# exit\tstdout\tstderr\tfiles\targv (see tests/record_contract.py)\n"
# the environment every invocation sees
ENV_SET = {"COLUMNS": "80"}
ENV_UNSET = ("WFUSE_SEED",)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def corpus_argvs() -> list[list[str]]:
    """Every argv of the corpus, without duplicates."""
    rng = random.Random(23)
    grid = [(n, m) for n in range(2, 25) for m in range(2, 25)]
    seeded = [(rng.randint(2, 1000), rng.randint(2, 1000)) for _ in range(6)]
    argvs = [["--version"], ["--help"], [], ["transmogrify"], ["--bogus"]]
    for n, m in grid + seeded:
        argvs.append(["fuse", "-n", str(n), "-m", str(m)])
        argvs.append(["fuse", "-n", str(n), "-m", str(m), "--format", "csv"])
    argvs += [
        ["fuse", "-n", "3", "-m", "2", "--format", "json"],
        ["fuse", "-n", "2", "-m", "1000"],
        ["fuse", "-n", "1000", "-m", "1000", "--format", "csv"],
        ["fuse", "-n", "1", "-m", "3"],
        ["fuse", "-n", "3", "-m", "1"],
        ["fuse", "-n", "0", "-m", "-4"],
        ["fuse", "-n", "x", "-m", "2"],
        ["fuse", "-n", "2"],
        ["fuse", "-n", "2", "-m", "2", "--format", "xml"],
        ["fuse", "--help"],
        ["verify"],
        ["verify", "--max", "4"],
        ["verify", "--max", "14"],
        ["verify", "--max", "30"],
        ["verify", "--max", "4", "--inject-fault"],
        ["verify", "--max", "9", "--inject-fault"],
        ["verify", "--max", "3"],
        ["verify", "--max", "63"],
        ["verify", "--max", "x"],
        ["plan"],
        ["plan", "--max", "2"],
        ["plan", "--seed", "2", "--seed", "3", "--max", "250"],
        ["plan", "--seed", "3", "--seed-cost", "2.5", "--max", "60"],
        ["plan", "--seed", "7", "--max", "10000"],
        ["plan", "--seed", "13", "--max", "10000"],
        ["plan", "--seed", "4999", "--max", "10000"],
        ["plan", "--seed", "7", "--max", "6"],
        ["plan", "--max", "10", "--out", "costs.csv"],
        ["plan", "--seed", "2", "--seed", "5", "--max", "40", "--out", "costs"],
        ["plan", "--max", "4", "--out", "costs.dat"],
        ["plan", "--max", "4", "--out", "missing/costs.csv"],
        ["plan", "--max", "4", "--out", ".."],
        ["plan", "--max", "4", "--out", "/"],
        ["plan", "--max", "4", "--out", "."],
        ["plan", "--max", "4", "--out", ""],
        ["plan", "--seed", "1"],
        ["plan", "--seed", "x"],
        ["plan", "--seed-cost", "nan"],
        ["plan", "--seed-cost", "inf"],
        ["plan", "--seed-cost", "0"],
        ["plan", "--seed-cost", "-1"],
        ["plan", "--seed-cost", "1e308", "--max", "8"],
        ["plan", "--max", "1"],
        ["plan", "--max", "20000"],
        ["plan", "--scheme", "qlf"],
        ["error"],
        ["error", "--alpha", "50000", "--theta", "0.02"],
        ["error", "--alpha", "1000", "--theta", "0.5"],
        ["error", "--alpha", "-5"],
        ["error", "--alpha", "0"],
        ["error", "--alpha", "inf"],
        ["error", "--alpha", "nan"],
        ["error", "--alpha", "1e308"],
        ["error", "--theta", "0"],
        ["error", "--theta", "1"],
        ["error", "--theta", "nan"],
        ["error", "--alpha", "x"],
        ["campaign", "--target", "8", "--trials", "1000", "--rng", "7"],
        ["campaign", "--target", "8", "--trials", "1000", "--recycling", "--rng", "7"],
        ["campaign", "--target", "16", "--trials", "200", "--rng", "3"],
        ["campaign", "--target", "16", "--trials", "200", "--recycling", "--rng", "3"],
        ["campaign", "--target", "9", "--seed-size", "3", "--trials", "300", "--rng", "5"],
        ["campaign", "--target", "12", "--seed-size", "3", "--recycling", "--rng", "5"],
        ["campaign", "--target", "2", "--trials", "10", "--rng", "0"],
        ["campaign", "--target", "4", "--trials", "1", "--rng", "1"],
        ["campaign", "--target", "4", "--trials", "100"],
        ["campaign", "--target", "1"],
        ["campaign", "--target", "20000"],
        ["campaign", "--target", "5", "--trials", "10"],
        ["campaign", "--target", "4", "--seed-size", "1"],
        ["campaign", "--target", "4", "--trials", "0"],
        ["campaign", "--target", "4", "--trials", "-3"],
        ["campaign", "--target", "2", "--trials", "10000001"],
        ["campaign", "--target", "4", "--trials", "10", "--rng", "-1"],
        ["campaign", "--target", "x"],
        ["campaign"],
    ]
    unique = {shlex.join(argv): argv for argv in argvs}
    return list(unique.values())


def record(argv: list[str], workdir: Path) -> str:
    """Run argv through main in the empty directory workdir and return its
    corpus line; the files it writes there are hashed, then removed.  The
    caller sets the environment (ENV_SET, ENV_UNSET)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = b""
    for path in sorted(workdir.iterdir()):
        written += path.name.encode() + b"\0" + path.read_bytes() + b"\0"
        path.unlink()
    files = _digest(written) if written else "-"
    return "\t".join(
        (
            str(code),
            _digest(out.getvalue().encode()),
            _digest(err.getvalue().encode()),
            files,
            shlex.join(argv),
        )
    )


def read_corpus() -> dict[str, str]:
    """Corpus lines keyed by their shell-quoted argv."""
    lines = CORPUS.read_text().splitlines() if CORPUS.exists() else []
    return {
        line.rsplit("\t", 1)[1]: line for line in lines if not line.startswith("#")
    }


def main_record(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Re-record tests/contract.txt and name the argvs whose line "
        "changed, was added or was dropped."
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 when any line differs",
    )
    args = parser.parse_args(argv)
    for name, value in ENV_SET.items():
        os.environ[name] = value
    for name in ENV_UNSET:
        os.environ.pop(name, None)
    old = read_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        new = {shlex.join(argv): record(argv, Path(tmp)) for argv in corpus_argvs()}
    diffs = [
        f"{'changed' if key in old else 'added'}: {key}"
        for key, line in new.items()
        if old.get(key) != line
    ]
    diffs += [f"dropped: {key}" for key in old.keys() - new.keys()]
    for line in diffs:
        print(line)
    if args.check:
        return 1 if diffs else 0
    CORPUS.write_text(HEADER + "".join(line + "\n" for line in new.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
