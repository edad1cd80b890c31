"""Command-line front end.

Subcommands::

    gen      generate a code set (golay | dft) and write it as JSON
    ptm      build a PTM-ordered pulse train from a code-set file
    verify   check null orders of a train file in both domains
    surface  export an ambiguity-magnitude grid as CSV
    esp      search equal-power-sum partitions of a slot universe
    stagger  build a staggered multi-antenna schedule and report its nulls

Human-readable summaries go to stdout, diagnostics to stderr, structured
artifacts to files (JSON; CSV for surfaces).  Exit codes: 0 success /
verified, 1 verification failed, 2 usage error, 3 I/O error, 4 internal
inconsistency between the two verification domains.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import codes, doppler, numtheory, stagger

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MISMATCH = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by every command."""

    command: str
    tol: float
    seed: int
    out: str | None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _precheck_outputs(*paths) -> int | None:
    """Fail fast when an output location cannot work, before computing."""
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(str(path)))
        if not os.path.isdir(parent):
            return _fail(EXIT_IO, f"output directory does not exist: {parent}")
    return None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


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


def _load_ccm_checked(path: str, tol: float):
    """Load a code-set file and insist it is complementary.

    Returns (ccm, None) or (None, exit_code) with the failure already
    reported on stderr.
    """
    try:
        ccm = codes.Ccm.from_json_dict(_load_json(path))
    except (OSError, json.JSONDecodeError) as exc:
        return None, _fail(EXIT_IO, f"cannot read code set {path}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        return None, _fail(EXIT_IO, f"malformed code set {path}: {exc}")
    check = codes.validate_ccm(ccm, tol)
    if not check.is_ccm:
        return None, _fail(
            EXIT_VERIFY_FAILED,
            f"code set is not complementary: worst sidelobe sum "
            f"{check.worst_sidelobe:.6e}, peak error {check.peak_error:.6e}",
        )
    return ccm, None


def _load_train(path: str):
    try:
        return doppler.PulseTrain.from_json_dict(_load_json(path)), None
    except (OSError, json.JSONDecodeError) as exc:
        return None, _fail(EXIT_IO, f"cannot read train {path}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        return None, _fail(EXIT_IO, f"malformed train {path}: {exc}")


def cmd_gen(args, config: RunConfig) -> int:
    err = _precheck_outputs(config.out)
    if err is not None:
        return err
    if args.kind == "golay":
        if not 1 <= args.size <= 20:
            return _fail(EXIT_USAGE, "golay exponent must be in 1..20")
        ccm = codes.gen_golay_pair(args.size)
    else:
        if not 2 <= args.size <= 64:
            return _fail(EXIT_USAGE, "dft size must be in 2..64")
        ccm = codes.gen_dft_set(args.size)
    check = codes.validate_ccm(ccm, config.tol)
    if not check.is_ccm:
        return _fail(
            EXIT_VERIFY_FAILED,
            f"generated set failed validation: worst {check.worst_sidelobe:.3e}",
        )
    try:
        _write_json(config.out, ccm.to_json_dict())
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {config.out}: {exc}")
    print(
        f"wrote {args.kind} set N={ccm.length} K={ccm.count} "
        f"worst sidelobe {check.worst_sidelobe:.3e} -> {config.out}"
    )
    return EXIT_OK


def cmd_ptm(args, config: RunConfig) -> int:
    err = _precheck_outputs(config.out)
    if err is not None:
        return err
    ccm, err = _load_ccm_checked(args.ccm, config.tol)
    if err is not None:
        return err
    try:
        train = doppler.build_ptm_train(ccm, args.order)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        _write_json(config.out, train.to_json_dict())
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {config.out}: {exc}")
    print(f"L={train.length} K={ccm.count} M={args.order}")
    return EXIT_OK


def cmd_verify(args, config: RunConfig) -> int:
    err = _precheck_outputs(config.out)
    if err is not None:
        return err
    train, err = _load_train(args.train)
    if err is not None:
        return err
    # Spectra (which refuse a z-sample count over the cap before allocating),
    # weights and ACFs are built once; every verdict and the report use them.
    try:
        spectra = doppler._power_spectra(train.ccm, args.z_samples)
        weights, report = doppler._train_taylor(train, args.order, config.tol)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    if train.is_ptm_ordered():
        z_residuals = doppler._zdomain_residuals(spectra, weights, train.ccm)
    else:
        z_residuals = None
        print("z-domain reference check skipped (train is not PTM-ordered)")

    try:
        for m in range(args.order + 1):
            doppler._order_check(report, m, spectra, weights, train.ccm.length)
    except doppler.DomainMismatchError as exc:
        return _fail(EXIT_MISMATCH, str(exc))

    for m in range(args.order + 1):
        line = (
            f"m={m} off-peak |c_m| {report.max_sidelobe_residual[m]:.3e} "
            f"(threshold {report.thresholds[m]:.3e})"
        )
        if z_residuals is not None:
            line += f" z-residual {z_residuals[m]:.3e}"
        print(line)
    print(f"null order {report.null_order} (required {args.order})")

    if config.out:
        try:
            _write_json(config.out, report.to_json_dict())
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {config.out}: {exc}")
    return EXIT_OK if report.null_order >= args.order else EXIT_VERIFY_FAILED


def cmd_surface(args, config: RunConfig) -> int:
    err = _precheck_outputs(config.out)
    if err is not None:
        return err
    train, err = _load_train(args.train)
    if err is not None:
        return err
    try:
        surface = doppler.ambiguity_surface(
            train, args.theta_min, args.theta_max, args.steps
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        surface.write_csv(config.out)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {config.out}: {exc}")
    print(
        f"wrote {surface.thetas.size}x{surface.lags.size} surface "
        f"({surface.description}) -> {config.out}"
    )
    return EXIT_OK


def cmd_esp(args, config: RunConfig) -> int:
    err = _precheck_outputs(config.out)
    if err is not None:
        return err
    try:
        universe = parse_universe(args.universe)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"bad universe spec: {exc}")
    try:
        partitions = numtheory.esp_search(
            universe, args.blocks, args.order, args.max
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    payload = [p.to_json_dict() for p in partitions]
    if config.out:
        try:
            _write_json(config.out, payload)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {config.out}: {exc}")
        print(f"found {len(partitions)} partition(s) -> {config.out}")
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
        print(f"found {len(partitions)} partition(s)", file=sys.stderr)
    return EXIT_OK if partitions else EXIT_VERIFY_FAILED


def cmd_stagger(args, config: RunConfig) -> int:
    err = _precheck_outputs(config.out, args.report)
    if err is not None:
        return err
    ccm, err = _load_ccm_checked(args.ccm, config.tol)
    if err is not None:
        return err
    if args.partition:
        try:
            data = _load_json(args.partition)
            if isinstance(data, list):  # as written by `esp --out`
                if not data:
                    raise ValueError("the file lists no partition")
                data = data[0]
            partition = numtheory.EspPartition.from_json_dict(data)
        except (OSError, json.JSONDecodeError) as exc:
            return _fail(EXIT_IO, f"cannot read partition {args.partition}: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            return _fail(
                EXIT_VERIFY_FAILED, f"partition file failed validation: {exc}"
            )
        if partition.degree < args.order:
            return _fail(
                EXIT_VERIFY_FAILED,
                f"partition degree {partition.degree} is below M={args.order}",
            )
    else:
        try:
            partition = stagger.builtin_partition(args.order)
        except KeyError:
            return _fail(
                EXIT_USAGE,
                f"no built-in partition of degree {args.order}; "
                "pass --partition FILE",
            )
        if ccm.count != 2:
            return _fail(
                EXIT_USAGE,
                "built-in partitions are two-block; pass --partition FILE "
                f"for K={ccm.count}",
            )
    try:
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(partition), ccm, args.antenna_cap
        )
        report = stagger.composite_taylor(plan, args.order, config.tol)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        _write_json(config.out, plan.to_json_dict())
        if args.report:
            _write_json(args.report, report.to_json_dict())
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
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
        "--seed", type=int, default=0, help="seed recorded in the run config"
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
    verify.add_argument("--z-samples", type=int, default=64, dest="z_samples")
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
    stag.add_argument("--report", help="optional composite-report JSON file")
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
        config = RunConfig(
            args.command, args.tol, args.seed, getattr(args, "out", None)
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    return _HANDLERS[args.command](args, config)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
