"""Output checks that do not import dopwave.

Each check reads what one command wrote and raises CheckError when it is
wrong.  Expectations come from the benchmark's own constructions (see
inputs.py), from exact Python-integer arithmetic, or from a direct numpy
sum of the ambiguity series.
"""

import json
import re

import numpy as np


class CheckError(Exception):
    """A command's output disagrees with the independent expectation."""


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_code_set(path, phases: list[list[int]], order: int) -> None:
    """A code-set file must hold exactly the given integer phases."""
    data = _load(path)
    _require(data.get("phaseOrder") == order, f"{path}: phase order {data.get('phaseOrder')}")
    _require(
        data.get("N") == len(phases[0]) and data.get("K") == len(phases),
        f"{path}: N/K {data.get('N')}/{data.get('K')}",
    )
    _require(data.get("phases") == phases, f"{path}: phases differ from the construction")


def check_train(path, set_dict: dict, indices: list[int], stdout: str, order: int) -> None:
    data = _load(path)
    _require(data.get("indices") == indices, f"{path}: slot order is not PTM")
    _require(data.get("delay", 0) == 0, f"{path}: non-zero delay")
    _require(data.get("ccm", {}).get("phases") == set_dict["phases"], f"{path}: code set changed")
    expected = f"L={len(indices)} K={set_dict['K']} M={order}"
    _require(expected in stdout, f"ptm printed no '{expected}'")


def check_verify(path, order: int) -> None:
    """The --out report must certify null order >= M with M+1 residuals."""
    data = _load(path)
    _require(data.get("M") == order, f"{path}: report is for M={data.get('M')}")
    _require(len(data.get("maxSidelobeResidual", ())) == order + 1, f"{path}: residual count")
    null_order = data.get("nullOrder")
    _require(
        isinstance(null_order, int) and null_order >= order,
        f"{path}: null order {null_order} < {order}",
    )


def padded_schedule(blocks) -> tuple[list[list[int]], int, int]:
    """Padded blocks, span and pulse count of the schedule a partition implies.

    Every unused slot below the horizon joins every block, so the padded
    schedule covers slots 0..max and sends sum(|padded block|) pulses.
    """
    used = set().union(*map(set, blocks))
    horizon = max(used) + 1
    missing = [s for s in range(horizon) if s not in used]
    padded = [sorted(list(b) + missing) for b in blocks]
    return padded, horizon, sum(len(b) for b in padded)


_STAGGER_LINE = re.compile(r"span=(\d+) pulses=(\d+) null order (-?\d+)")


def check_stagger(plan_path, report_path, stdout: str, blocks, order: int) -> None:
    """Null order, span, pulse count, and each slot's code multiplicities."""
    padded, span, pulses = padded_schedule(blocks)
    match = _STAGGER_LINE.search(stdout)
    _require(match is not None, "stagger printed no summary line")
    _require(
        (int(match[1]), int(match[2])) == (span, pulses),
        f"stagger span/pulses {match[1]}/{match[2]}, expected {span}/{pulses}",
    )
    report = _load(report_path)
    _require(
        report.get("span") == span and report.get("totalPulses") == pulses,
        f"{report_path}: span/pulses {report.get('span')}/{report.get('totalPulses')}",
    )
    _require(
        isinstance(report.get("nullOrder"), int) and report["nullOrder"] >= order,
        f"{report_path}: null order {report.get('nullOrder')} < {order}",
    )
    counts = [[0] * span for _ in blocks]
    for lane in _load(plan_path)["lanes"]:
        for offset, code in enumerate(lane["indices"]):
            counts[code][lane["delay"] + offset] += 1
    for code, block in enumerate(padded):
        expected = [0] * span
        for slot in block:
            expected[slot] += 1
        _require(counts[code] == expected, f"{plan_path}: lanes do not realise block {code}")


def check_esp(path, universe: list[int], p: int, degree: int, count: int) -> None:
    """Solution count, and each solution re-checked with Python integers."""
    solutions = _load(path)
    _require(len(solutions) == count, f"{path}: {len(solutions)} partitions, expected {count}")
    for sol in solutions:
        blocks = sol["blocks"]
        _require(len(blocks) == p and sol["M"] == degree, f"{path}: wrong shape")
        _require(sorted(v for b in blocks for v in b) == universe, f"{path}: not a partition")
        _require(len({len(b) for b in blocks}) == 1, f"{path}: unequal block sizes")
        for m in range(1, degree + 1):
            sums = {sum(v**m for v in b) for b in blocks}
            _require(len(sums) == 1, f"{path}: power sums of degree {m} differ")


def fft_acf(phases: list[int], order: int) -> np.ndarray:
    """ACF(k) = sum_i x[i] conj(x[i+k]) at index N-1+k, via a zero-padded FFT."""
    x = np.exp(2j * np.pi * np.asarray(phases) / order)
    n = x.size
    spec = np.fft.fft(x, 2 * n)
    r = np.fft.ifft(spec * np.conj(spec))  # r[k] = sum_i x[i+k] conj(x[i])
    positive = np.conj(r[:n])
    return np.concatenate([np.conj(positive[:0:-1]), positive])


def surface_reference(codes, order, indices, thetas, rows) -> dict[int, np.ndarray]:
    """|g(k, theta_t)| for the chosen rows t, by direct summation over pulses."""
    acfs = np.column_stack([fft_acf(c, order) for c in codes])
    per_pulse = acfs[:, indices]
    slots = np.arange(len(indices))
    return {t: np.abs(per_pulse @ np.exp(1j * thetas[t] * slots)) for t in rows}


def check_surface(path, thetas: np.ndarray, code_length: int, reference: dict) -> None:
    """Header, row count, theta/lag columns and the reference rows' magnitudes."""
    width = 2 * code_length - 1
    lags = np.arange(1 - code_length, code_length)
    wanted = {1 + t * width: t for t in reference}
    got = {t: [] for t in reference}
    rows = 0
    with open(path, encoding="utf-8") as fh:
        _require(fh.readline() == "theta,k,magnitude\n", f"{path}: bad header")
        current = None
        for line_no, line in enumerate(fh, start=1):
            rows += 1
            if line_no in wanted:
                current = wanted[line_no]
            if current is not None:
                got[current].append(line)
                if len(got[current]) == width:
                    current = None
    _require(rows == thetas.size * width, f"{path}: {rows} rows, expected {thetas.size * width}")
    for t, lines in got.items():
        table = np.array([line.split(",") for line in lines], dtype=float)
        expected = reference[t]
        _require(
            np.allclose(table[:, 0], thetas[t], rtol=1e-11, atol=1e-12),
            f"{path}: theta column of row {t}",
        )
        _require(np.array_equal(table[:, 1], lags), f"{path}: lag column of row {t}")
        scale = max(1.0, float(expected.max()))
        err = float(np.max(np.abs(table[:, 2] - expected)))
        _require(err <= 1e-9 * scale, f"{path}: row {t} magnitude off by {err:.3e}")
