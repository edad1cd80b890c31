"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root:

    python -m pytest bench/test_bench.py -q
"""

import json
import os
import random
import sys

import numpy as np
import pytest

import checks
import inputs
import tracer
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from dopwave import cli  # noqa: E402


def run(*argv):
    return cli.main([str(a) for a in argv])


def _rewrite_line(path, line_no, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[line_no] = edit(lines[line_no])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _bump_magnitude(line):
    head, value = line.rsplit(",", 1)
    return f"{head},{float(value) + 1e-3!r}\n"


@pytest.fixture
def train(tmp_path):
    """A seeded Golay-8 pair and its order-3 PTM train, written by the program."""
    set_dict = inputs.code_set_dict(
        inputs.transform_set(inputs.golay_phases(3), 2, random.Random(5)), 2
    )
    set_path = tmp_path / "set.json"
    inputs.dump(set_path, set_dict)
    train_path = tmp_path / "train.json"
    assert run("ptm", set_path, 3, "--out", train_path) == 0
    return train_path, set_dict, inputs.ptm_indices(2, 16)


def test_checker_rejects_corrupted_surface_value(tmp_path, train):
    train_path, set_dict, indices = train
    thetas = np.linspace(-0.3, 0.2, 5)
    csv = tmp_path / "surface.csv"
    assert run("surface", train_path, repr(-0.3), repr(0.2), 5, "--out", csv) == 0
    reference = checks.surface_reference(set_dict["phases"], 2, indices, thetas, (0, 2, 4))
    checks.check_surface(csv, thetas, 8, reference)

    # Row 2 of the grid, lag -4: one data line in the middle of a checked row.
    line = 1 + 2 * 15 + 3
    _rewrite_line(csv, line, _bump_magnitude)
    with pytest.raises(checks.CheckError, match="magnitude"):
        checks.check_surface(csv, thetas, 8, reference)


def test_checker_rejects_missing_surface_rows(tmp_path, train):
    train_path, set_dict, indices = train
    thetas = np.linspace(-0.3, 0.2, 5)
    csv = tmp_path / "surface.csv"
    assert run("surface", train_path, repr(-0.3), repr(0.2), 5, "--out", csv) == 0
    _rewrite_line(csv, -1, lambda s: "")
    reference = checks.surface_reference(set_dict["phases"], 2, indices, thetas, (0,))
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_surface(csv, thetas, 8, reference)


def test_checker_rejects_wrong_null_order(tmp_path, train):
    train_path, _, _ = train
    report = tmp_path / "report.json"
    assert run("verify", train_path, 3, "--out", report) == 0
    checks.check_verify(report, 3)

    data = json.loads(report.read_text())
    data["nullOrder"] = 2
    report.write_text(json.dumps(data))
    with pytest.raises(checks.CheckError, match="null order"):
        checks.check_verify(report, 3)


def test_checker_rejects_wrong_esp_solution(tmp_path):
    out = tmp_path / "esp.json"
    assert run("esp", "0-7", 2, 2, "--out", out) == 0
    checks.check_esp(out, list(range(8)), 2, 2, count=1)
    data = json.loads(out.read_text())
    first, second = data[0]["blocks"]
    first[0], second[0] = second[0], first[0]
    out.write_text(json.dumps(data))
    with pytest.raises(checks.CheckError, match="power sums"):
        checks.check_esp(out, list(range(8)), 2, 2, count=1)


@pytest.mark.parametrize("order, codes", [(2, inputs.golay_phases(5)), (3, inputs.dft_phases(3)),
                                          (7, inputs.dft_phases(7))])
def test_seeded_transforms_keep_sets_complementary(order, codes):
    for seed in range(6):
        moved = inputs.transform_set(codes, order, random.Random(seed))
        assert all(0 <= p < order for code in moved for p in code)
        total = sum(checks.fft_acf(code, order) for code in moved)
        n = len(codes[0])
        expected = np.zeros(2 * n - 1)
        expected[n - 1] = n * len(codes)
        assert np.allclose(total, expected, atol=1e-9)


def test_prouhet_doubling_keeps_equal_power_sums():
    a, b, degree = inputs.prouhet_double(inputs.BUILTIN_DEGREE5, 5, 4, random.Random(3))
    assert degree == 9 and not set(a) & set(b) and len(a) == len(b) == 6 * 16
    for m in range(degree + 1):
        assert sum(v**m for v in a) == sum(v**m for v in b)
    assert sum(v ** (degree + 1) for v in a) != sum(v ** (degree + 1) for v in b)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_regenerates_identical_inputs(tmp_path, name):
    first = workloads.build(name, 7, str(tmp_path / "a"))
    again = workloads.build(name, 7, str(tmp_path / "b"))
    other = workloads.build(name, 8, str(tmp_path / "c"))
    assert first.digests and first.digests == again.digests
    for file_name in first.digests:
        a = (tmp_path / "a" / "in" / file_name).read_bytes()
        assert a == (tmp_path / "b" / "in" / file_name).read_bytes()
    assert other.digests != first.digests
    assert [c.label for c in first.commands] == [c.label for c in other.commands]


def test_layer_self_times_add_up_to_each_root_span(tmp_path):
    trace = tracer.Tracer()
    argvs = [
        ["gen", "golay", 3, "--out", tmp_path / "g.json"],
        ["ptm", tmp_path / "g.json", 3, "--out", tmp_path / "t.json"],
        ["verify", tmp_path / "t.json", 3, "--out", tmp_path / "v.json"],
        ["surface", tmp_path / "t.json", -0.1, 0.1, 9, "--out", tmp_path / "s.csv"],
        ["esp", "0-7", 2, 2, "--out", tmp_path / "e.json"],
        ["stagger", tmp_path / "g.json", 3, "--out", tmp_path / "p.json"],
    ]
    with trace.installed():
        for argv in argvs:
            with trace.root("cli.main"):
                assert run(*argv) == 0
    # A root's spans follow it contiguously; summarize each root on its own.
    starts = [s[0] for s in trace.spans if s[1] < 0] + [len(trace.spans)]
    assert len(starts) == len(argvs) + 1
    for lo, hi in zip(starts, starts[1:]):
        part = [[s[0] - lo, s[1] - lo if s[1] >= 0 else -1, *s[2:]] for s in trace.spans[lo:hi]]
        summary = tracer.summarize(part)
        assert summary["root_s"] == pytest.approx(sum(summary["self_s"].values()), abs=1e-9)
    summary = tracer.summarize(trace.spans)
    assert set(summary["self_s"]) == {"cli", "numtheory", "codes", "doppler", "stagger"}
    assert all(v > 0 for v in summary["self_s"].values())
    assert "doppler.PulseTrain.from_json_dict" in summary["by_name"]
    assert "numtheory.digit_sum_mod" not in summary["by_name"]


def test_tracer_restores_the_package():
    from dopwave import codes, doppler, stagger

    before = (codes.acf, doppler._acf, stagger.code_acfs, codes.Ccm.__dict__["from_json_dict"])
    with tracer.Tracer().installed():
        assert doppler._acf is not before[1] and stagger.code_acfs is not before[2]
    after = (codes.acf, doppler._acf, stagger.code_acfs, codes.Ccm.__dict__["from_json_dict"])
    assert all(x is y for x, y in zip(before, after))



def test_failed_esp_leaves_no_stale_partition(tmp_path):
    """The partition the last stagger reads is an output of the esp before it,
    so it is deleted before each esp run."""
    commands = workloads.build("stagger-search", 7, str(tmp_path)).commands
    esp = next(c for c in commands if c.label.startswith("esp 0-17"))
    assert commands[-1].reads[1] in esp.writes
