"""Benchmark for the dopwave command line.

Run from the repository root:

    python3 bench/run.py --workload ptm-deep --seed 1 --seconds 40 --trace 0

With ``--trace 0`` each pass runs the workload's commands one at a time,
each as a fresh ``python -m dopwave.cli`` subprocess, checks every output,
and the end-to-end metrics are the means over the passes that fit in
``--seconds`` (``setup_s`` is the median of its samples).  With ``--trace 1``
the same commands are replayed in this process through
``dopwave.cli.main(argv)``, each command once bare and once with every
public function wrapped in a span; the per-layer metrics come from the
wrapped runs.  The last line of stdout is one JSON object with the
result; the lines before it are a human-readable summary, and the full
record (per-command times, calibration, input digests, spans) is written to
``.bench_run/<workload>/report-trace<0|1>.json``.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One command runs at a time and BLAS gets one thread, so the harness never
# uses more than the two cores it was tuned on and nothing competes with it.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

import checks  # noqa: E402  (numpy must see the thread settings above)
import tracer  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 120
# `--help` children timed per run for `setup_s`.  The machine's speed drifts
# over seconds to minutes, so they are spread evenly over the whole run.
SETUP_SAMPLES = 24
END_TO_END = {"pass_s": "s", "verdict_s": "s", "build_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
FAMILY_METRIC = {"verify": "verdict_s", "stagger": "verdict_s", "gen": "build_s",
                 "ptm": "build_s", "esp": "search_s", "surface": "surface_s"}
# Per-layer metrics reported as `<name>.calls` and `<name>.s`.
CALLS_AND_S = (
    "numtheory.power_sum", "numtheory.ptm_sequence",
    "codes.acf", "codes.ztransform_eval",
    "doppler.taylor_coeffs", "doppler.zdomain_samples", "doppler.zdomain_coeff_check",
    "doppler.equivalence_check", "doppler.code_acfs",
    "stagger.pad_partition", "stagger.decompose_to_antennas",
    "stagger.composite_taylor", "stagger.builtin_partition",
)
# Per-layer metrics reported as `<name>.s` only.
S_ONLY = (
    "numtheory.esp_search", "numtheory.esp_check", "codes.validate_ccm",
    "doppler.ambiguity_surface", "doppler.AmbiguitySurface.write_csv",
    "doppler.build_ptm_train", "doppler.PulseTrain.from_json_dict",
    "codes.Ccm.from_json_dict",
)


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - start


def run_subprocess(argv, workdir) -> dict:
    """One `python -m dopwave.cli` child; wall time, exit code, peak RSS, CPU."""
    with open(os.path.join(workdir, "stdout.txt"), "w+b") as out, \
            open(os.path.join(workdir, "stderr.txt"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dopwave.cli", *argv],
            stdout=out, stderr=err, cwd=workdir, env=CHILD_ENV,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "wall_s": wall,
            "rc": proc.returncode,
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace")[-2000:],
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }


def run_inprocess(main, argv, trace=None) -> dict:
    """Replay one command through dopwave.cli.main, traced as one root span if asked.

    The wall time includes installing and removing the tracer's wrappers.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = None
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if trace is not None:
            stack.enter_context(trace.installed())
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            if trace is None:
                rc = main(argv)
            else:
                with trace.root("cli.main"):
                    rc = main(argv)
        except Exception:  # a crash is a failed command, not a failed run
            err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_checked(cmd, execute) -> dict:
    """Run one command with fresh outputs and check its exit code and outputs."""
    for path in cmd.writes:
        if os.path.exists(path):
            os.remove(path)
    error = None
    result = execute(cmd.argv)
    stdout = result.pop("stdout")
    if result["rc"] != cmd.expect_exit:
        tail = result["stderr"].strip()[-300:]
        error = f"exit {result['rc']}, expected {cmd.expect_exit}: {tail}"
    if error is None:
        try:
            cmd.check(stdout)
        except (checks.CheckError, OSError, ValueError, LookupError, TypeError) as exc:
            error = f"check failed: {exc}"
    if error:
        print(f"FAILED {cmd.label}: {error}", file=sys.stderr)
    result.update(
        label=cmd.label,
        family=cmd.family,
        error=error,
        bytes_read=sum(os.path.getsize(p) for p in cmd.reads if os.path.exists(p)),
        bytes_written=sum(os.path.getsize(p) for p in cmd.writes if os.path.exists(p)),
    )
    return result


def pass_totals(records) -> dict:
    """Per-pass metrics from the command records of one pass."""
    totals = dict.fromkeys(("pass_s", "verdict_s", "build_s", "search_s", "surface_s"), 0.0)
    for rec in records:
        totals["pass_s"] += rec["wall_s"]
        totals[FAMILY_METRIC[rec["family"]]] += rec["wall_s"]
    if all("rss_mb" in rec for rec in records):
        totals["peak_rss_mb"] = max(rec["rss_mb"] for rec in records)
    failed = sum(1 for r in records if r["error"])
    return {"commands": records, "metrics": totals, "failed": failed}


def run_pass(workload, executors, first=0) -> list[dict]:
    """One pass per executor; each command runs under every executor in turn.

    Running a command's variants back to back (rather than one whole pass
    after another) keeps slow drifts of the machine out of their difference.
    The executor that goes first rotates from one command to the next,
    starting with executor `first`, so that a warm-up or order effect does
    not land on one side only.
    """
    records = [[] for _ in executors]
    n = len(executors)
    for i, cmd in enumerate(workload.commands):
        for j in range(n):
            k = (first + i + j) % n
            records[k].append(run_checked(cmd, executors[k]))
    return [pass_totals(recs) for recs in records]


class SetupSampler:
    """Wall times of no-op `dopwave --help` children: interpreter start plus
    package import, which every command pays.

    `count` samples are due evenly over `seconds`; `catch_up` takes the ones
    due by now and `finish` the rest, so the samples see the same drifts of
    machine speed as the commands between them.
    """

    def __init__(self, workdir, count, seconds):
        self.workdir, self.count, self.seconds = workdir, count, seconds
        self.started = time.perf_counter()
        self.times: list[float] = []
        self.failed = 0

    def _take(self) -> None:
        result = run_subprocess(["--help"], self.workdir)
        if result["rc"] != 0 or "usage:" not in result["stdout"]:
            self.failed += 1
            print(f"FAILED --help: exit {result['rc']}", file=sys.stderr)
        self.times.append(result["wall_s"])

    def catch_up(self) -> None:
        elapsed = time.perf_counter() - self.started
        due = min(self.count, int(self.count * elapsed / self.seconds) + 1)
        while len(self.times) < due:
            self._take()

    def finish(self) -> None:
        while len(self.times) < self.count:
            self._take()


def repeat_within(seconds, body) -> list[dict]:
    """Call body() while one more call still fits in `seconds` (at least once)."""
    results, longest = [], 0.0
    started = time.perf_counter()
    while not results or time.perf_counter() - started + longest <= seconds:
        iteration = time.perf_counter()
        result = body()
        result["calibration_s"] = calibrate()
        result["elapsed_s"] = time.perf_counter() - iteration
        longest = max(longest, result["elapsed_s"])
        results.append(result)
    return results


def end_to_end(workload, seconds, workdir) -> tuple[dict, dict]:
    setup = SetupSampler(workdir, SETUP_SAMPLES, seconds)

    def execute(argv):
        setup.catch_up()
        return run_subprocess(argv, workdir)

    passes = repeat_within(seconds, lambda: run_pass(workload, [execute])[0])
    setup.finish()
    # The machine flips between two speeds about 1.45x apart.  With 2 to 4
    # passes a median jumps from one level to the other while the mean moves
    # in proportion; over 27 ten-run spreads measured, the mean gave the
    # smaller one in 20 and cut the worst from 0.29 to 0.25 of the median.
    metrics = {name: statistics.fmean(p["metrics"][name] for p in passes)
               for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setup.times)
    summary = {
        "metrics": metrics,
        "units": END_TO_END,
        "attempted": len(setup.times) + sum(len(p["commands"]) for p in passes),
        "failed": setup.failed + sum(p["failed"] for p in passes),
    }
    return summary, {"setup_samples_s": setup.times, "passes": passes}


def _import_program():
    sys.path.insert(0, SRC)
    import dopwave.cli

    if not os.path.abspath(dopwave.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dopwave imported from {dopwave.cli.__file__}, not {SRC}")
    return dopwave.cli.main


def per_layer(workload, seconds) -> tuple[dict, dict]:
    """Bare and traced in-process passes, repeated while they fit in `seconds`."""
    main = _import_program()
    turn = itertools.count()

    def one_pair():
        trace = tracer.Tracer()
        bare, traced = run_pass(workload, [
            lambda argv: run_inprocess(main, argv),
            lambda argv: run_inprocess(main, argv, trace),
        ], first=next(turn))
        spans = tracer.summarize(trace.spans)
        return {"bare": bare, "traced": traced, "span_pass_s": spans["root_s"],
                "layers": layer_metrics(workload, bare, traced, spans), "spans": trace.spans}

    pairs = repeat_within(seconds, one_pair)
    names = pairs[0]["layers"]
    summary = {
        "metrics": {n: statistics.median(p["layers"][n][0] for p in pairs) for n in names},
        "units": {n: unit for n, (_, unit) in names.items()},
        "attempted": sum(len(p[k]["commands"]) for p in pairs for k in ("bare", "traced")),
        "failed": sum(p[k]["failed"] for p in pairs for k in ("bare", "traced")),
    }
    return summary, {"pairs": pairs}


def layer_metrics(workload, bare, traced, spans) -> dict:
    """name -> (value, unit) for every per-layer metric of one traced pass."""
    by_name = spans["by_name"]
    calls = {name: by_name.get(name, {"calls": 0})["calls"] for name in CALLS_AND_S}
    out = {}
    for name in CALLS_AND_S:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (by_name.get(name, {"s": 0.0})["s"], "s")
    for name in S_ONLY:
        out[f"{name}.s"] = (by_name.get(name, {"s": 0.0})["s"], "s")
    verdict_work = sum(cmd.verdict_work for cmd in workload.commands)
    power_calls, acf_calls = calls["numtheory.power_sum"], calls["codes.acf"]
    out["numtheory.power_sum.useful_ratio"] = (
        verdict_work / power_calls if power_calls else 0.0, "ratio")
    out["codes.acf.useful_ratio"] = (
        spans["codes_loaded"] / acf_calls if acf_calls else 0.0, "ratio")
    for layer, value in spans["self_s"].items():
        out[f"{layer}.self_s"] = (value, "s")
    out["cli.bytes_read"] = (sum(c["bytes_read"] for c in traced["commands"]), "B")
    out["cli.bytes_written"] = (sum(c["bytes_written"] for c in traced["commands"]), "B")
    out["trace.overhead_s"] = (traced["metrics"]["pass_s"] - bare["metrics"]["pass_s"], "s")
    out["search_s"] = (bare["metrics"]["search_s"], "s")
    out["surface_s"] = (bare["metrics"]["surface_s"], "s")
    return out


def _print_summary(args, workload, summary, detail) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"blas_threads {BLAS_THREADS} nproc {os.cpu_count()} python {sys.version.split()[0]}")
    for name, digest in sorted(workload.digests.items()):
        print(f"  input {name} sha256 {digest}")
    iterations = detail.get("passes") or detail["pairs"]
    runs = detail.get("passes") or [p["bare"] for p in detail["pairs"]]
    kind = "subprocess passes" if "passes" in detail else "bare/traced in-process pairs"
    print(f"  {len(iterations)} {kind}; calibration loop s: "
          + " ".join(f"{it['calibration_s']:.4f}" for it in iterations))
    for i, cmd in enumerate(workload.commands):
        walls = [p["commands"][i]["wall_s"] for p in runs]
        print(f"  {cmd.label:<44} median {statistics.median(walls):8.4f} s  "
              f"min {min(walls):8.4f}  max {max(walls):8.4f}  n={len(walls)}")
    for name in ("pass_s", "search_s", "surface_s"):
        vals = [p["metrics"][name] for p in runs]
        print(f"  {name:<12} mean {statistics.fmean(vals):.4f} s  "
              f"median {statistics.median(vals):.4f} s  n={len(vals)}")
    if "passes" in detail:
        setup = detail["setup_samples_s"]
        print(f"  setup_s samples n={len(setup)}: " + " ".join(f"{s:.4f}" for s in setup))
    else:
        for p in detail["pairs"]:
            layer_sum = sum(p["layers"][f"{layer}.self_s"][0] for layer in ("cli", *tracer.LAYERS))
            traced_s = p["traced"]["metrics"]["pass_s"]
            print(f"  traced pass {traced_s:.4f} s, of which sum of layer self_s "
                  f"{layer_sum:.4f} s (outside spans {traced_s - layer_sum:.4f} s); "
                  f"bare pass {p['bare']['metrics']['pass_s']:.4f} s")
        overhead = [p["layers"]["trace.overhead_s"][0] for p in detail["pairs"]]
        print(f"  trace.overhead_s median {statistics.median(overhead):.4f} s  "
              f"min {min(overhead):.4f}  max {max(overhead):.4f}  n={len(overhead)}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dopwave", "cli.py")):
        print(f"error: no dopwave sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.build(args.workload, args.seed, workdir)

    measure = per_layer if args.trace else lambda w, s: end_to_end(w, s, workdir)
    summary, detail = measure(workload, args.seconds)
    report = {"args": vars(args), "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
              "inputs_sha256": workload.digests, "summary": summary, **detail}
    report_path = os.path.join(workdir, f"report-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)

    _print_summary(args, workload, summary, detail)
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": v, "unit": summary["units"][n]}
                    for n, v in summary["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
