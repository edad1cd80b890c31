"""Run a command and hold it to an exit code, an output line and a peak RSS.

    python .github/peak_rss.py EXIT MAX_MB [--line REGEX] -- COMMAND...

Echoes the command's stdout, then prints its exit code and peak RSS
(os.wait4, in MB of 2^20 bytes).  Exits 0 when the command exited EXIT, its
peak RSS stayed under MAX_MB and, with --line, some line of its stdout
matches REGEX (re.search); exits 1 otherwise.
"""

import argparse
import os
import re
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("exit", type=int, help="the exit code the command must give")
    parser.add_argument("max_mb", type=float, help="peak RSS bound in MB")
    parser.add_argument("--line", help="a regex some stdout line must match")
    parser.add_argument("command", nargs="+", help="the command, after --")
    args = parser.parse_args()
    child = subprocess.Popen(args.command, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(out, end="")
    print(f"exit {code}, peak RSS {rss_mb:.1f} MB")
    line = args.line is None or any(re.search(args.line, l) for l in out.splitlines())
    return 0 if code == args.exit and line and rss_mb < args.max_mb else 1


if __name__ == "__main__":
    sys.exit(main())
