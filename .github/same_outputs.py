"""Compare every bench workload command's outputs at a git revision and here.

    python .github/same_outputs.py REV

Checks REV out with `git worktree` under a temporary directory and builds
each workload of bench/workloads.py at seeds 1 and 2, in one directory per
workload and seed that both trees use (`gen`, `esp` and `surface` print
their paths).  Each tree runs the whole workload as a subprocess per
command, each command after its predecessors, and the bench's own check
runs after each command.  Prints every command whose exit code, stdout,
stderr or output sha256 differs between REV and the working tree, each
unexpected exit code and failed check, and then "N of M commands differ".
Exits 1 when a command or check failed, 0 otherwise; bench/ is read, never
written.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)
ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")


def run_workload(workload, src, workdir, failed) -> list[tuple]:
    """(exit code, stdout, stderr, output digests) of each command under `src`."""
    outcomes = []
    for cmd in workload.commands:
        for path in cmd.writes:
            if os.path.exists(path):
                os.remove(path)
        done = subprocess.run(
            [sys.executable, "-m", "dopwave.cli", *cmd.argv], capture_output=True,
            cwd=workdir, env=dict(ENV, PYTHONPATH=src), timeout=300,
        )
        digests = []
        for path in cmd.writes:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digests.append(hashlib.sha256(fh.read()).hexdigest())
            else:
                digests.append(None)
        if done.returncode != cmd.expect_exit:
            failed.append(f"FAILED {cmd.label} ({src}): exit {done.returncode}")
        try:  # the esp check also writes the file a later stagger reads
            cmd.check(done.stdout.decode())
        except (checks.CheckError, OSError, ValueError, LookupError, TypeError) as exc:
            failed.append(f"FAILED check of {cmd.label} ({src}): {exc}")
        outcomes.append((done.returncode, done.stdout, done.stderr, digests))
    return outcomes


def differing_fields(cmd, old, new) -> list[str]:
    """What differs between two outcomes of `cmd`: streams, then output files."""
    fields = [f for f, x, y in zip(("exit code", "stdout", "stderr"), old, new) if x != y]
    return fields + [os.path.basename(p) for p, x, y in zip(cmd.writes, old[3], new[3])
                     if x != y]


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    rev, differ, total, failed = sys.argv[1], 0, 0, []
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tree = os.path.join(tmp, "rev")
        git = ["git", "-C", ROOT, "worktree"]
        subprocess.run([*git, "add", "-q", "--detach", tree, rev], check=True)
        try:
            for seed, name in ((s, n) for s in SEEDS for n in workloads.WORKLOADS):
                workdir = os.path.join(tmp, f"{name}-{seed}")
                workload = workloads.build(name, seed, workdir)
                old, new = (run_workload(workload, os.path.join(t, "src"), workdir, failed)
                            for t in (tree, ROOT))
                for cmd, a, b in zip(workload.commands, old, new):
                    total += 1
                    if fields := differing_fields(cmd, a, b):
                        differ += 1
                        print(f"{name} seed {seed}: {cmd.label}: {', '.join(fields)}")
        finally:
            subprocess.run([*git, "remove", "--force", tree])
    for line in failed:
        print(line)
    print(f"{differ} of {total} commands differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
