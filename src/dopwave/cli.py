"""Command-line front end.

Subcommands::

    gen      generate a code set (golay | dft) and write it as JSON
    ptm      build a PTM-ordered pulse train from a code-set file
    verify   check null orders of a train file in both domains (z at 2N points)
    surface  export an ambiguity-magnitude grid as CSV
    esp      search equal-power-sum partitions of a slot universe
    stagger  build a staggered multi-antenna schedule and report its nulls

Human-readable summaries go to stdout, structured artifacts to files (JSON;
CSV for surfaces).  Every failure past argument parsing prints one
``error: ...`` line on stderr and picks the exit code: 1 verification
failed, 2 usage error, 3 I/O error, 4 internal inconsistency between the two
verification domains; 0 is success / verified.  ``--seed`` is accepted and
has no effect: every command is deterministic.
"""

import argparse
import contextlib
import json
import math
import os
import sys

from . import codes, doppler, numtheory, stagger

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MISMATCH = 4


class CliError(Exception):
    """A failure and its exit code; `main` prints it and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _exits(code: int, prefix: str = "", errors=ValueError):
    """Exit with `code` when the block raises one of `errors`."""
    try:
        yield
    except errors as exc:
        raise CliError(code, f"{prefix}{exc}") from None


def _precheck_outputs(*paths) -> None:
    """Fail fast when an output location cannot work, before computing."""
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(str(path)))
        if not os.path.isdir(parent):
            raise CliError(EXIT_IO, f"output directory does not exist: {parent}")


def _read_json(path: str, what: str, parse, invalid=None):
    """parse(the JSON in path); a file that cannot be read or decoded exits 3.

    Decoding includes nesting too deep for json's recursion limit.  A file
    that parse refuses exits with `invalid`, an (exit code, message)
    pair; the default is (3, "malformed <what> <path>").
    """
    code, message = invalid or (EXIT_IO, f"malformed {what} {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return parse(data)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(EXIT_IO, f"cannot read {what} {path}: {exc}") from None
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError(code, f"{message}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    with _exits(EXIT_IO, f"cannot write {path}: ", OSError):
        with open(path, "w", encoding="utf-8") as fh:
            print(text, file=fh)


def _write_report(path: str, report: doppler.TaylorReport) -> None:
    with _exits(EXIT_IO, f"cannot write {path}: ", OSError):
        report.write_json(path)


def parse_universe(spec: str) -> list[int]:
    """Parse a slot-universe spec such as ``0-2,4-6`` or ``0,1,5``."""
    values: set[int] = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty universe token")
        if "-" in token:
            lo_text, hi_text = token.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"descending range {token!r}")
        else:
            lo = hi = int(token)
        # Refuse an oversized universe before expanding the range.
        cap = numtheory.MAX_SEARCH_UNIVERSE
        if len(values) + hi - lo + 1 - sum(lo <= v <= hi for v in values) > cap:
            raise ValueError(f"universe exceeds {cap} slots")
        values.update(range(lo, hi + 1))
    return sorted(values)


def _complementary(ccm: codes.Ccm, tol: float) -> codes.CcmValidation:
    """validate_ccm's result; a set that is not complementary exits 1."""
    check = codes.validate_ccm(ccm, tol)
    if not check.is_ccm:
        raise CliError(
            EXIT_VERIFY_FAILED,
            f"code set is not complementary: worst sidelobe sum "
            f"{check.worst_sidelobe:.6e}, peak error {check.peak_error:.6e}",
        )
    return check


def _read_ccm(path: str, tol: float) -> codes.Ccm:
    """Read a code-set file and insist it is complementary."""
    ccm = _read_json(path, "code set", codes.Ccm.from_json_dict)
    _complementary(ccm, tol)
    return ccm


def _first_partition(data) -> numtheory.EspPartition:
    if isinstance(data, list):  # as written by `esp --out`
        if not data:
            raise ValueError("the file lists no partition")
        data = data[0]
    cap = doppler.MAX_TAYLOR_ORDER  # no higher order is ever verified
    degree = data.get("M") if isinstance(data, dict) else None
    if isinstance(degree, int) and degree > cap:  # refused before any power sum
        raise ValueError(f"degree must be at most {cap}, got {degree}")
    return numtheory.EspPartition.from_json_dict(data)


def cmd_gen(args) -> int:
    _precheck_outputs(args.out)
    generate = codes.gen_golay_pair if args.kind == "golay" else codes.gen_dft_set
    with _exits(EXIT_USAGE):  # the generator refuses a size out of its range
        ccm = generate(args.size)
    check = _complementary(ccm, args.tol)
    _write_text(args.out, json.dumps(ccm.to_json_dict()))
    print(
        f"wrote {args.kind} set N={ccm.length} K={ccm.count} "
        f"worst sidelobe {check.worst_sidelobe:.3e} -> {args.out}"
    )
    return EXIT_OK


def cmd_ptm(args) -> int:
    _precheck_outputs(args.out)
    ccm = _read_ccm(args.ccm, args.tol)
    with _exits(EXIT_USAGE):
        train = doppler.build_ptm_train(ccm, args.order)
    _write_text(args.out, json.dumps(train.to_json_dict()))
    print(f"L={train.length} K={ccm.count} M={args.order}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _precheck_outputs(args.out)
    train = _read_json(args.train, "train", doppler.PulseTrain.from_json_dict)
    # An order outside 0..32 exits 2 before any weight; a DomainMismatchError
    # from the cross-check of any order exits 4 (see `main`).
    with _exits(EXIT_USAGE):
        report = doppler.taylor_coeffs(train, args.order, args.tol)

    for m in range(args.order + 1):
        print(
            f"m={m} off-peak |c_m| {report.max_sidelobe_residual[m]:.3e} (threshold "
            f"{report.thresholds[m]:.3e}) z-residual {report.z_residuals[m]:.3e}"
        )
    print(f"null order {report.null_order} (required {args.order})")

    if args.out:
        _write_report(args.out, report)
    return EXIT_OK if report.null_order >= args.order else EXIT_VERIFY_FAILED


def cmd_surface(args) -> int:
    _precheck_outputs(args.out)
    train = _read_json(args.train, "train", doppler.PulseTrain.from_json_dict)
    with _exits(EXIT_USAGE):
        surface = doppler.ambiguity_surface(
            train, args.theta_min, args.theta_max, args.steps
        )
    with _exits(EXIT_IO, f"cannot write {args.out}: ", OSError):
        surface.write_csv(args.out)
    print(
        f"wrote {surface.thetas.size}x{surface.lags.size} surface "
        f"({surface.description}) -> {args.out}"
    )
    return EXIT_OK


def cmd_esp(args) -> int:
    _precheck_outputs(args.out)
    with _exits(EXIT_USAGE, "bad universe spec: "):
        universe = parse_universe(args.universe)
    with _exits(EXIT_USAGE):
        partitions = numtheory.esp_search(universe, args.blocks, args.order, args.max)
    # json.dumps of the list, one partition's dict at a time.
    text = "[" + ", ".join(json.dumps(p.to_json_dict()) for p in partitions) + "]"
    if args.out:
        _write_text(args.out, text)
        print(f"found {len(partitions)} partition(s) -> {args.out}")
    else:
        print(text)
        print(f"found {len(partitions)} partition(s)", file=sys.stderr)
    return EXIT_OK if partitions else EXIT_VERIFY_FAILED


def cmd_stagger(args) -> int:
    _precheck_outputs(args.out, args.report)
    ccm = _read_ccm(args.ccm, args.tol)
    if args.partition:
        partition = _read_json(
            args.partition, "partition", _first_partition,
            (EXIT_VERIFY_FAILED, "partition file failed validation"),
        )
        if partition.degree < args.order:
            raise CliError(
                EXIT_VERIFY_FAILED,
                f"partition degree {partition.degree} is below M={args.order}",
            )
    else:
        try:
            partition = stagger.builtin_partition(args.order)
        except KeyError as exc:
            hint = "; pass --partition FILE"
            raise CliError(EXIT_USAGE, exc.args[0] + hint) from None
    # decompose_to_antennas refuses a block count other than the code count.
    with _exits(EXIT_USAGE):
        plan = stagger.decompose_to_antennas(partition, ccm, args.antenna_cap)
        report = doppler.taylor_coeffs(plan, args.order, args.tol)
    _write_text(args.out, json.dumps(plan.to_json_dict()))
    if args.report:
        _write_report(args.report, report)
    print(
        f"lanes={len(plan.lanes)} span={report.span} pulses={report.total_pulses} "
        f"null order {report.null_order} (required {args.order})"
    )
    return EXIT_OK if report.null_order >= args.order else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dopwave",
        description="Doppler-tolerant pulse trains from complementary code sets",
    )
    parser.add_argument(
        "--tol", type=float, default=codes.CCM_TOL, help="verification tolerance"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="accepted; no effect (deterministic)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a code set")
    gen.add_argument("kind", choices=("golay", "dft"))
    gen.add_argument("size", type=int, help="golay exponent or dft code count")
    gen.add_argument("--out", required=True)

    ptm = sub.add_parser("ptm", help="build a PTM pulse train")
    ptm.add_argument("ccm", help="code-set JSON file")
    ptm.add_argument("order", type=int, help="null order M")
    ptm.add_argument("--out", required=True)

    verify = sub.add_parser("verify", help="verify train null orders")
    verify.add_argument("train", help="train JSON file")
    verify.add_argument("order", type=int, help="required null order M")
    verify.add_argument("--out", help="optional report JSON file")

    surface = sub.add_parser("surface", help="export an ambiguity surface CSV")
    surface.add_argument("train", help="train JSON file")
    surface.add_argument("theta_min", type=float)
    surface.add_argument("theta_max", type=float)
    surface.add_argument("steps", type=int)
    surface.add_argument("--out", required=True)

    esp = sub.add_parser("esp", help="search equal-power-sum partitions")
    esp.add_argument("universe", help="slot spec, e.g. 0-2,4-6")
    esp.add_argument("blocks", type=int, help="block count p")
    esp.add_argument("order", type=int, help="degree M")
    esp.add_argument("--max", type=int, default=None, help="stop after this many")
    esp.add_argument("--out", help="output JSON file (stdout when omitted)")

    stag = sub.add_parser("stagger", help="build a staggered schedule")
    stag.add_argument("ccm", help="code-set JSON file")
    stag.add_argument("order", type=int, help="null order M")
    stag.add_argument("--partition", help="partition JSON file")
    stag.add_argument("--antenna-cap", type=int, default=stagger.DEFAULT_ANTENNA_CAP)
    stag.add_argument("--report", help="optional Taylor-report JSON file")
    stag.add_argument("--out", required=True)

    return parser


_HANDLERS = {
    "gen": cmd_gen,
    "ptm": cmd_ptm,
    "verify": cmd_verify,
    "surface": cmd_surface,
    "esp": cmd_esp,
    "stagger": cmd_stagger,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help.
        return int(exc.code or 0)
    try:
        if not 0 < args.tol < math.inf:  # refuses NaN too
            raise CliError(EXIT_USAGE, "tolerance must be positive and finite")
        return _HANDLERS[args.command](args)
    except doppler.DomainMismatchError as exc:
        error = CliError(EXIT_MISMATCH, str(exc))
    except CliError as exc:
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return error.code


if __name__ == "__main__":
    sys.exit(main())
