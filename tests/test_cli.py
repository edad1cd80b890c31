"""End-to-end command-line tests; commands run in-process via cli.main."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from dopwave import cli, codes, doppler, numtheory, stagger

TRAIN_K2_M3 = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]


def run(*argv):
    return cli.main([str(a) for a in argv])


def count_calls(monkeypatch, func):
    """Record each call to `func` under every name a dopwave module binds."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for module in (codes, doppler, numtheory, stagger):
        for name, value in list(vars(module).items()):
            if value is func:
                monkeypatch.setattr(module, name, counted)
    return calls


def count_ffts(monkeypatch):
    """Record the codes each forward FFT transforms (columns of a 2-D input)."""
    calls, fft = [], np.fft.fft

    def counted(a, *args, **kwargs):
        calls.append(1 if np.ndim(a) == 1 else np.shape(a)[1])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    return calls


@pytest.fixture
def golay_file(tmp_path):
    path = tmp_path / "pair.json"
    assert run("gen", "golay", 3, "--out", path) == 0
    return path


@pytest.fixture
def train_file(tmp_path, golay_file):
    path = tmp_path / "train.json"
    assert run("ptm", golay_file, 3, "--out", path) == 0
    return path


class TestGen:
    def test_golay(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        assert run("gen", "golay", 3, "--out", path) == 0
        ccm = codes.Ccm.from_json_dict(json.loads(path.read_text()))
        assert ccm.length == 8 and ccm.count == 2
        assert codes.validate_ccm(ccm).is_ccm
        assert "N=8 K=2" in capsys.readouterr().out

    def test_dft(self, tmp_path):
        path = tmp_path / "tri.json"
        assert run("gen", "dft", 3, "--out", path) == 0
        ccm = codes.Ccm.from_json_dict(json.loads(path.read_text()))
        assert ccm.length == 3 and ccm.count == 3 and ccm.phase_order == 3

    def test_dft_too_small_is_usage_error(self, tmp_path):
        assert run("gen", "dft", 1, "--out", tmp_path / "x.json") == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        missing = tmp_path / "nope" / "x.json"
        assert run("gen", "golay", 2, "--out", missing) == 3

    def test_round_trip(self, tmp_path):
        path = tmp_path / "pair.json"
        run("gen", "golay", 4, "--out", path)
        ccm = codes.Ccm.from_json_dict(json.loads(path.read_text()))
        assert ccm == codes.gen_golay_pair(4)

    def test_long_golay_round_trip(self, tmp_path):
        path = tmp_path / "pair.json"
        assert run("gen", "golay", 16, "--out", path) == 0
        ccm = codes.Ccm.from_json_dict(json.loads(path.read_text()))
        assert ccm == codes.gen_golay_pair(16)
        assert codes.validate_ccm(ccm).is_ccm


class TestPtm:
    def test_builds_expected_train(self, tmp_path, golay_file, capsys):
        path = tmp_path / "train.json"
        assert run("ptm", golay_file, 3, "--out", path) == 0
        train = doppler.PulseTrain.from_json_dict(json.loads(path.read_text()))
        assert list(train.indices) == TRAIN_K2_M3
        assert "L=16 K=2 M=3" in capsys.readouterr().out

    def test_tri_phase_train(self, tmp_path):
        tri = tmp_path / "tri.json"
        run("gen", "dft", 3, "--out", tri)
        path = tmp_path / "train3.json"
        assert run("ptm", tri, 2, "--out", path) == 0
        train = doppler.PulseTrain.from_json_dict(json.loads(path.read_text()))
        assert train.length == 27

    def test_invalid_ccm_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "N": 2,
                    "K": 2,
                    "phaseOrder": None,
                    "columns": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
                }
            )
        )
        assert run("ptm", bad, 2, "--out", tmp_path / "t.json") == 1
        assert "sidelobe" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("ptm", tmp_path / "absent.json", 2, "--out", tmp_path / "t") == 3

    def test_round_trip(self, tmp_path, train_file):
        train = doppler.PulseTrain.from_json_dict(json.loads(train_file.read_text()))
        again = tmp_path / "again.json"
        with open(again, "w") as fh:
            json.dump(train.to_json_dict(), fh)
        back = doppler.PulseTrain.from_json_dict(json.loads(again.read_text()))
        assert back == train


class TestVerify:
    def test_ptm_train_passes(self, train_file, capsys):
        assert run("verify", train_file, 3) == 0
        out = capsys.readouterr().out
        assert "null order 3" in out and "z-residual" in out

    def test_report_file(self, tmp_path, train_file):
        report = tmp_path / "report.json"
        assert run("verify", train_file, 3, "--out", report) == 0
        data = json.loads(report.read_text())
        assert data["nullOrder"] >= 3

    def test_report_file_carries_the_train_costs(self, tmp_path, train_file):
        report = tmp_path / "report.json"
        assert run("verify", train_file, 3, "--out", report) == 0
        data = json.loads(report.read_text())
        assert list(data)[-3:] == ["nullOrder", "totalPulses", "span"]
        assert data["totalPulses"] == data["span"] == 16

    def test_cyclic_train_fails_first_order(self, tmp_path, golay_file):
        ccm = codes.Ccm.from_json_dict(json.loads(golay_file.read_text()))
        train = doppler.build_cyclic_train(ccm, 16)
        path = tmp_path / "cyclic.json"
        with open(path, "w") as fh:
            json.dump(train.to_json_dict(), fh)
        assert run("verify", path, 1) == 1

    def test_order_zero_passes_for_balanced_train(self, tmp_path, golay_file):
        ccm = codes.Ccm.from_json_dict(json.loads(golay_file.read_text()))
        train = doppler.build_cyclic_train(ccm, 16)
        path = tmp_path / "cyclic.json"
        with open(path, "w") as fh:
            json.dump(train.to_json_dict(), fh)
        assert run("verify", path, 0) == 0

    def test_domain_mismatch_exits_4(self, train_file, monkeypatch):
        def boom(order, time_residual, threshold, samples, code_length):
            raise doppler.DomainMismatchError(order, 1.0, 0.0)

        monkeypatch.setattr(doppler, "_order_check", boom)
        assert run("verify", train_file, 1) == 4

    def test_frank_train_does_not_alias(self, tmp_path, frank_train, capsys):
        path = tmp_path / "frank.json"
        path.write_text(json.dumps(frank_train.to_json_dict()))
        assert run("verify", path, 1) == 1
        assert "null order -1 (required 1)" in capsys.readouterr().out

    def test_one_code_train_ends_cleanly(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        ccm = {"N": 1, "K": 1, "phaseOrder": 2, "phases": [[0]]}
        path.write_text(json.dumps({"ccm": ccm, "indices": [0, 0, 0]}))
        assert run("verify", path, 3) == 0
        out, err = capsys.readouterr()
        lines = [line for line in out.splitlines() if line.startswith("m=")]
        assert len(lines) == 4 and not err

    def test_every_train_prints_the_reference_residual(
        self, tmp_path, golay_file, capsys
    ):
        ccm = codes.Ccm.from_json_dict(json.loads(golay_file.read_text()))
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doppler.build_cyclic_train(ccm, 16).to_json_dict()))
        assert run("verify", path, 2) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == ["m=0", "m=1", "m=2"]
        assert all(" z-residual " in line for line in lines[:-1])

    def test_z_samples_option_is_gone(self, train_file, capsys):
        assert run("verify", train_file, 3, "--z-samples", 16) == 2
        assert "unrecognized arguments: --z-samples 16" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,size,order", [("golay", 3, 4), ("dft", 3, 2)])
    def test_builds_each_intermediate_once(
        self, tmp_path, monkeypatch, kind, size, order
    ):
        ccm_path, train_path = tmp_path / "set.json", tmp_path / "train.json"
        assert run("gen", kind, size, "--out", ccm_path) == 0
        assert run("ptm", ccm_path, order, "--out", train_path) == 0
        power_sums = count_calls(monkeypatch, numtheory._power_sums)
        ffts = count_ffts(monkeypatch)
        zsamples = count_calls(monkeypatch, doppler._zsamples)
        assert run("verify", train_path, order) == 0
        k = 2 if kind == "golay" else size
        assert not power_sums  # PTM weights come from the digits
        assert sum(ffts) == k  # one spectrum per code: ACFs and z domain share it
        assert len(zsamples) == order + 1  # each order's C_m(z) sampled once

    @pytest.mark.parametrize("kind,size,order", [("golay", 3, 4), ("dft", 3, 2)])
    def test_cyclic_train_sums_powers_per_code_and_order(
        self, tmp_path, monkeypatch, kind, size, order
    ):
        ccm_path, train_path = tmp_path / "set.json", tmp_path / "train.json"
        assert run("gen", kind, size, "--out", ccm_path) == 0
        ccm = codes.Ccm.from_json_dict(json.loads(ccm_path.read_text()))
        train = doppler.build_cyclic_train(ccm, ccm.count ** (order + 1))
        train_path.write_text(json.dumps(train.to_json_dict()))
        power_sums = count_calls(monkeypatch, numtheory._power_sums)
        ffts = count_ffts(monkeypatch)
        assert run("verify", train_path, order) == 1
        assert len(power_sums) == ccm.count  # one pass per code for every order
        assert all(type(v) is int for args in power_sums for v in args[0])
        assert sum(ffts) == ccm.count


class TestSurface:
    def test_grid_rows(self, tmp_path, train_file):
        out = tmp_path / "surface.csv"
        assert run("surface", train_file, -0.2, 0.2, 101, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,k,magnitude"
        assert len(lines) == 1 + 101 * 15

    def test_zero_doppler_peak(self, tmp_path, train_file):
        out = tmp_path / "surface.csv"
        run("surface", train_file, -0.2, 0.2, 101, "--out", out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        zero = [r for r in rows if float(r[0]) == 0.0 and int(r[1]) == 0]
        assert len(zero) == 1
        assert abs(float(zero[0][2]) - 8 * 16) <= 1e-6 * 8 * 16

    def test_bad_steps_is_usage_error(self, tmp_path, train_file):
        assert run("surface", train_file, -0.1, 0.1, 1, "--out", tmp_path / "s") == 2

    def test_over_cell_cap_is_usage_error(self, tmp_path, train_file, capsys):
        # N = 8 and L = 16, so one step more than the cap allows is refused.
        steps = doppler.MAX_SURFACE_CELLS // 16 + 1
        out = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            code = run("surface", train_file, -0.1, 0.1, steps, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20  # refused before the theta grid exists
        assert "cells" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [(0, 1e308), ("-" + "9" * 308, 1e308)])
    def test_overflowing_theta_writes_no_csv(self, tmp_path, train_file, capsys, bounds):
        # The surface-overflow rows check the error lines; this one the file.
        out = tmp_path / "s.csv"
        capsys.readouterr()  # drop the fixtures' output
        assert run("surface", train_file, *bounds, 3, "--out", out) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestEsp:
    def test_finds_known_partition(self, tmp_path):
        out = tmp_path / "parts.json"
        assert run("esp", "0-2,4-6", 2, 2, "--out", out) == 0
        blocks = [tuple(map(tuple, p["blocks"])) for p in json.loads(out.read_text())]
        assert ((0, 4, 5), (1, 2, 6)) in blocks

    def test_finds_ptm_split(self, tmp_path):
        out = tmp_path / "parts.json"
        assert run("esp", "0-7", 2, 2, "--out", out) == 0
        blocks = [tuple(map(tuple, p["blocks"])) for p in json.loads(out.read_text())]
        assert ((0, 3, 5, 6), (1, 2, 4, 7)) in blocks

    def test_none_found_signalled(self, tmp_path, capsys):
        assert run("esp", "0-3", 2, 3, "--out", tmp_path / "parts.json") == 1
        assert json.loads((tmp_path / "parts.json").read_text()) == []

    def test_stdout_when_no_out(self, capsys):
        assert run("esp", "0-2,4-6", 2, 2) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)  # artifact on stdout
        assert "found" in captured.err  # summary on stderr

    @pytest.mark.parametrize(
        "spec,p,degree,limit,size",
        [("0-3", 2, 3, None, 0), ("0-7", 2, 2, None, 1), ("0-11", 3, 1, 9, 9)],
    )
    def test_output_is_json_dumps_of_the_list(
        self, tmp_path, capsys, spec, p, degree, limit, size
    ):
        found = numtheory.esp_search(cli.parse_universe(spec), p, degree, limit)
        assert len(found) == size
        expected = json.dumps([q.to_json_dict() for q in found]) + "\n"
        argv = ["esp", spec, p, degree, *(["--max", limit] if limit else [])]
        code = 0 if found else 1
        out = tmp_path / "parts.json"
        assert run(*argv, "--out", out) == code
        assert out.read_bytes() == expected.encode()
        capsys.readouterr()
        assert run(*argv) == code
        assert capsys.readouterr().out == expected

    def test_many_blocks_end_well_inside_the_budget(self, capsys):
        # Interval bounds alone run into the 10^6-node budget on both.
        assert run("esp", "1-5,7-31", 10, 2) == 1
        assert json.loads(capsys.readouterr().out) == []
        assert run("esp", "0-29", 5, 2, "--max", 1) == 0
        [found] = json.loads(capsys.readouterr().out)
        blocks = found["blocks"]
        assert sorted(v for block in blocks for v in block) == list(range(30))
        sums = [[sum(v**m for v in block) for m in range(3)] for block in blocks]
        assert sums == [found["prouhetSums"]] * 5 == [[6, 87, 1711]] * 5

    def test_bad_universe_spec(self):
        assert run("esp", "5-2", 2, 1) == 2

    def test_oversized_universe_refused_while_parsing(self, capsys):
        tracemalloc.start()
        try:
            code = run("esp", "0-999999", 2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20  # the range is never expanded
        assert "universe exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec,size", [("0-29", 30), ("0-20,5-25", 26), ("0-29,3,7", 30)]
    )
    def test_universe_at_cap_parses(self, spec, size):
        assert len(cli.parse_universe(spec)) == size

    @pytest.mark.parametrize("spec", ["0-30", "0-20,10-30", "0-29,30"])
    def test_universe_over_cap_rejected(self, spec):
        with pytest.raises(ValueError, match="universe exceeds"):
            cli.parse_universe(spec)


class TestStagger:
    @pytest.mark.parametrize(
        "order,span,pulses", [(2, 7, 8), (3, 12, 16), (5, 23, 34)]
    )
    def test_builtin_degrees(self, tmp_path, golay_file, capsys, order, span, pulses):
        out = tmp_path / "plan.json"
        assert run("stagger", golay_file, order, "--out", out) == 0
        text = capsys.readouterr().out
        assert f"span={span}" in text and f"pulses={pulses}" in text
        data = json.loads(out.read_text())
        assert data["M"] == order

    def test_report_file(self, tmp_path, golay_file):
        out, rep = tmp_path / "plan.json", tmp_path / "report.json"
        assert run("stagger", golay_file, 2, "--out", out, "--report", rep) == 0
        data = json.loads(rep.read_text())
        assert data["nullOrder"] >= 2
        assert data["totalPulses"] == 8 and data["span"] == 7

    def test_unknown_degree_is_usage_error(self, tmp_path, golay_file):
        assert run("stagger", golay_file, 4, "--out", tmp_path / "plan.json") == 2

    def test_explicit_partition(self, tmp_path, golay_file):
        part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
        ppath = tmp_path / "part.json"
        with open(ppath, "w") as fh:
            json.dump(part.to_json_dict(), fh)
        out = tmp_path / "plan.json"
        assert run("stagger", golay_file, 1, "--partition", ppath, "--out", out) == 0

    def test_partition_from_esp_output(self, tmp_path, capsys):
        tri, parts = tmp_path / "tri.json", tmp_path / "esp.json"
        assert run("gen", "dft", 3, "--out", tri) == 0
        assert run("esp", "0-17", 3, 2, "--max", 2, "--out", parts) == 0
        out = tmp_path / "plan.json"
        assert run("stagger", tri, 2, "--partition", parts, "--out", out) == 0
        first = json.loads(parts.read_text())[0]
        assert json.loads(out.read_text())["partition"]["blocks"] == first["blocks"]
        assert "null order" in capsys.readouterr().out

    def test_negative_order_is_usage_error(self, tmp_path, golay_file, capsys):
        part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
        ppath = tmp_path / "part.json"
        ppath.write_text(json.dumps(part.to_json_dict()))
        out = tmp_path / "plan.json"
        assert run("stagger", golay_file, -1, "--partition", ppath, "--out", out) == 2
        assert "max_order" in capsys.readouterr().err

    def test_empty_partition_list_rejected(self, tmp_path, golay_file, capsys):
        ppath = tmp_path / "none.json"
        ppath.write_text("[]")
        out = tmp_path / "plan.json"
        assert run("stagger", golay_file, 1, "--partition", ppath, "--out", out) == 1
        assert "lists no partition" in capsys.readouterr().err

    def test_partition_below_order_rejected(self, tmp_path, golay_file):
        part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
        ppath = tmp_path / "part.json"
        with open(ppath, "w") as fh:
            json.dump(part.to_json_dict(), fh)
        assert (
            run("stagger", golay_file, 3, "--partition", ppath,
                "--out", tmp_path / "p.json")
            == 1
        )

    def test_builds_each_intermediate_once(self, tmp_path, golay_file, monkeypatch):
        builtin = stagger.builtin_partition(2)
        padded = stagger.pad_partition(builtin)
        missing = sorted(set(range(max(map(max, padded.blocks)) + 1))
                         - set(sum(builtin.blocks, ())))
        zsamples = count_calls(monkeypatch, doppler._zsamples)
        ffts = count_ffts(monkeypatch)
        sums = count_calls(monkeypatch, numtheory._power_sums)
        assert run("stagger", golay_file, 2, "--out", tmp_path / "plan.json") == 0
        assert len(zsamples) == 3  # orders 0..2, each sampled once
        assert sum(ffts) == 2  # one per code: validation, report and z domain share them
        # One pass per block in esp_check, one for the padding slots and one
        # per code for the weights, over the lanes' slots.  The padded sums
        # are derived: no pass over a padded block before the weights.
        assert [sorted(args[0]) for args in sums] == [
            *map(list, builtin.blocks), missing, *map(list, padded.blocks)
        ]
        assert all(args[1] == 2 for args in sums)  # every order at once

    def test_plan_round_trip(self, tmp_path, golay_file):
        from dopwave import stagger as st

        out = tmp_path / "plan.json"
        run("stagger", golay_file, 3, "--out", out)
        ccm = codes.Ccm.from_json_dict(json.loads(golay_file.read_text()))
        plan = st.StaggerPlan.from_json_dict(json.loads(out.read_text()), ccm)
        rebuilt = st.decompose_to_antennas(
            st.pad_partition(st.builtin_partition(3)), ccm
        )
        assert plan == rebuilt


class TestTopLevel:
    def test_usage_error_exit_code(self):
        assert run("gen", "golay") == 2  # missing size and --out

    def test_bad_tolerance(self, tmp_path):
        assert run("--tol", -1, "gen", "golay", 2, "--out", tmp_path / "x") == 2

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "dft", 4, "--out", a)
        run("--seed", 7, "gen", "dft", 4, "--out", b)
        assert a.read_text() == b.read_text()


class TestRefusals:
    def test_huge_ptm_order_refused_before_the_power(
        self, tmp_path, golay_file, capsys
    ):
        tracemalloc.start()
        try:
            code = run("ptm", golay_file, 10**8, "--out", tmp_path / "t.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20  # 2^(10^8 + 1) alone would take 12.5 MB
        assert "exceeds cap" in capsys.readouterr().err

    @pytest.mark.parametrize("degree", [12, 13, 100000])
    def test_esp_degree_at_block_size_is_not_searched(
        self, monkeypatch, capsys, degree
    ):
        # Blocks of 12 cannot share power sums up to degree 12 or more.
        power_sum, calls = numtheory.power_sum, []

        def bounded(values, m):
            calls.append(m)
            assert len(calls) <= 3, "esp searched a degree with no solution"
            return power_sum(values, m)

        monkeypatch.setattr(numtheory, "power_sum", bounded)
        assert run("esp", "0-23", 2, degree) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == []
        assert "found 0" in captured.err
        assert not calls

    @pytest.mark.parametrize(
        "command", ["ptm", "verify", "surface", "stagger-set", "stagger-partition"]
    )
    def test_deeply_nested_json_is_unreadable(
        self, tmp_path, golay_file, capsys, command
    ):
        # Deeper than json's recursion limit: RecursionError, not a decode error.
        deep, out = tmp_path / "deep.json", tmp_path / "out"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        what, argv = {
            "ptm": ("code set", ("ptm", deep, 3, "--out", out)),
            "verify": ("train", ("verify", deep, 3)),
            "surface": ("train", ("surface", deep, -0.1, 0.1, 5, "--out", out)),
            "stagger-set": ("code set", ("stagger", deep, 2, "--out", out)),
            "stagger-partition": (
                "partition",
                ("stagger", golay_file, 1, "--partition", deep, "--out", out),
            ),
        }[command]
        capsys.readouterr()  # drop the fixture's output
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} {deep}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_train_files_over_the_length_cap_refused(self, tmp_path, capsys):
        cap = doppler.MAX_TRAIN_LENGTH
        train = doppler.build_cyclic_train(codes.gen_golay_pair(1), cap).to_json_dict()
        at_cap, over = tmp_path / "cap.json", tmp_path / "over.json"
        at_cap.write_text(json.dumps(train))
        over.write_text(json.dumps({**train, "indices": train["indices"] + [0]}))
        assert run("verify", at_cap, 0) == 0
        capsys.readouterr()
        assert run("verify", over, 0) == 3
        assert capsys.readouterr().err == (
            f"error: malformed train {over}: train length {cap + 1} exceeds cap {cap}\n"
        )

    def test_partition_padded_over_the_train_cap_refused_at_once(
        self, tmp_path, golay_file, capsys
    ):
        # A valid degree-1 partition from slot s pads to 2s + 4 pulses.
        s = doppler.MAX_TRAIN_LENGTH
        part, plan = tmp_path / "far.json", tmp_path / "plan.json"
        part.write_text(json.dumps({"M": 1, "blocks": [[s, s + 3], [s + 1, s + 2]]}))
        capsys.readouterr()  # drop the fixture's output
        started = time.perf_counter()
        assert run("stagger", golay_file, 1, "--partition", part, "--out", plan) == 2
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err == (
            f"error: padded pulse count {2 * s + 4} exceeds cap {s}\n"
        )
        assert not plan.exists()

    @pytest.mark.parametrize("blocks,degree", [
        ([[0, 3], [1, 2]], 100000), ([[0, 3], [0, 3]], 100000), ([[0, 3], [0, 3]], 33),
    ], ids=["unequal", "equal", "equal-just-over"])
    def test_partition_degree_over_the_order_cap_refused_at_once(
        self, tmp_path, golay_file, capsys, blocks, degree
    ):
        # Equal blocks share every power sum; at degree 9100 and above their
        # sums would not even print as JSON.
        part, plan = tmp_path / "deep.json", tmp_path / "plan.json"
        part.write_text(json.dumps({"M": degree, "blocks": blocks}))
        capsys.readouterr()  # drop the fixture's output
        started = time.perf_counter()
        assert run("stagger", golay_file, 2, "--partition", part, "--out", plan) == 1
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr() == ("", (
            "error: partition file failed validation: degree must be at most "
            f"{doppler.MAX_TAYLOR_ORDER}, got {degree}\n"
        ))
        assert not plan.exists()

    def test_partition_degree_at_the_order_cap_accepted(self, tmp_path, golay_file):
        part, plan = tmp_path / "deep.json", tmp_path / "plan.json"
        degree = doppler.MAX_TAYLOR_ORDER
        part.write_text(json.dumps({"M": degree, "blocks": [[0, 3], [0, 3]]}))
        assert run("stagger", golay_file, 2, "--partition", part, "--out", plan) == 0
        assert json.loads(plan.read_text())["M"] == degree

    @pytest.mark.parametrize("field", ["indices", "delay", "phases", "blocks"])
    def test_non_integer_json_refused(self, tmp_path, train_file, capsys, field):
        train = json.loads(train_file.read_text())
        ccm = json.loads(train_file.read_text())["ccm"]
        ccm["phases"][0][0] += 0.5  # int() would truncate it back
        partition = {"p": 2, "M": 1, "blocks": [[0, 3.9], [1, 2]]}
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        command, data, code, prefix = {
            "indices": ("verify", {**train, "indices": [0, 1.7, "1", True]}, 3,
                        "malformed train"),
            "delay": ("verify", {**train, "delay": 2.9}, 3, "malformed train"),
            "phases": ("ptm", ccm, 3, "malformed code set"),
            "blocks": ("stagger", partition, 1, "partition file failed validation"),
        }[field]
        bad.write_text(json.dumps(data))
        argv = {
            "verify": ("verify", bad, 3, "--out", out),
            "ptm": ("ptm", bad, 3, "--out", out),
            "stagger": ("stagger", tmp_path / "pair.json", 1, "--partition", bad,
                        "--out", out),
        }[command]
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}") and "must be integers" in err
        assert not out.exists()


NO_FILE = "[Errno 2] No such file or directory"
IS_DIR = "[Errno 21] Is a directory"
BAD_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"

# argv, exit code and the one stderr line of each failure; "{t}" stands for
# the test directory, which holds the files the `error_inputs` fixture writes.
ERROR_CASES = [
    pytest.param("gen golay 0 --out {t}/x.json", 2, "exponent must be in 1..20, got 0",
                 id="gen-golay-low"),
    pytest.param("gen golay 21 --out {t}/x.json", 2, "exponent must be in 1..20, got 21",
                 id="gen-golay-high"),
    pytest.param("gen dft 1 --out {t}/x.json", 2, "code count must be in 2..64, got 1",
                 id="gen-dft-low"),
    pytest.param("gen dft 65 --out {t}/x.json", 2, "code count must be in 2..64, got 65",
                 id="gen-dft-high"),
    pytest.param("gen golay 3 --out {t}/no/x.json", 3,
                 "output directory does not exist: {t}/no", id="gen-no-dir"),
    pytest.param("gen golay 3 --out {t}", 3, f"cannot write {{t}}: {IS_DIR}: '{{t}}'",
                 id="gen-write"),
    pytest.param("ptm {t}/absent.json 3 --out {t}/x.json", 3,
                 f"cannot read code set {{t}}/absent.json: {NO_FILE}: '{{t}}/absent.json'",
                 id="ptm-missing"),
    pytest.param("ptm {t}/broken.json 3 --out {t}/x.json", 3,
                 f"cannot read code set {{t}}/broken.json: {BAD_JSON}", id="ptm-bad-json"),
    pytest.param("ptm {t}/empty.json 3 --out {t}/x.json", 3,
                 "malformed code set {t}/empty.json: 'columns'", id="ptm-malformed"),
    pytest.param("ptm {t}/list.json 3 --out {t}/x.json", 3,
                 "malformed code set {t}/list.json: a code set is a JSON object",
                 id="ptm-not-object"),
    pytest.param("ptm {t}/order0.json 3 --out {t}/x.json", 3,
                 "malformed code set {t}/order0.json: phase_order must be positive",
                 id="ptm-phase-order-zero"),
    pytest.param("ptm {t}/flat.json 3 --out {t}/x.json", 1,
                 "code set is not complementary: worst sidelobe sum 2.000000e+00, "
                 "peak error 0.000000e+00", id="ptm-not-complementary"),
    pytest.param("--tol 3 ptm {t}/binflat.json 1 --out {t}/t.json", 1,
                 "code set is not complementary: worst sidelobe sum 2.000000e+00, "
                 "peak error 0.000000e+00", id="ptm-binary-not-complementary"),
    pytest.param("ptm {t}/pair.json 0 --out {t}/x.json", 2,
                 "order must be positive, got 0", id="ptm-order-zero"),
    pytest.param("ptm {t}/pair.json 20 --out {t}/x.json", 2,
                 "train length 2097152 exceeds cap 1048576", id="ptm-over-cap"),
    pytest.param("ptm {t}/pair.json 100000000 --out {t}/x.json", 2,
                 "train length 2^100000001 exceeds cap 1048576", id="ptm-huge-order"),
    pytest.param("ptm {t}/pair.json 3 --out {t}/no/x.json", 3,
                 "output directory does not exist: {t}/no", id="ptm-no-dir"),
    pytest.param("ptm {t}/pair.json 3 --out {t}", 3,
                 f"cannot write {{t}}: {IS_DIR}: '{{t}}'", id="ptm-write"),
    pytest.param("verify {t}/absent.json 3", 3,
                 f"cannot read train {{t}}/absent.json: {NO_FILE}: '{{t}}/absent.json'",
                 id="verify-missing"),
    pytest.param("verify {t}/broken.json 3", 3,
                 f"cannot read train {{t}}/broken.json: {BAD_JSON}", id="verify-bad-json"),
    pytest.param("verify {t}/pair.json 3", 3, "malformed train {t}/pair.json: 'ccm'",
                 id="verify-malformed"),
    pytest.param("verify {t}/nan.json 1", 3,
                 "malformed train {t}/nan.json: all entries must have unit magnitude",
                 id="verify-nan-entry"),
    pytest.param("verify {t}/train.json 33", 2, "max_order must be in 0..32",
                 id="verify-order"),
    pytest.param("verify {t}/train.json 3 --out {t}/no/r.json", 3,
                 "output directory does not exist: {t}/no", id="verify-no-dir"),
    pytest.param("verify {t}/train.json 3 --out {t}", 3,
                 f"cannot write {{t}}: {IS_DIR}: '{{t}}'", id="verify-write"),
    pytest.param("surface {t}/train.json -0.1 0.1 1 --out {t}/s.csv", 2,
                 "need at least 2 theta steps, got 1", id="surface-steps"),
    pytest.param("surface {t}/train.json -0.1 0.1 1048577 --out {t}/s.csv", 2,
                 "surface needs 16777232 cells, cap 16777216", id="surface-cells"),
    pytest.param("surface {t}/train.json 0 1e308 3 --out {t}/s.csv", 2,
                 "|theta| 1e+308 times last slot 15 is not finite", id="surface-overflow"),
    # argparse takes -1e308 for an option but a negative integer for a number.
    pytest.param("surface {t}/train.json -" + "9" * 308 + " 1e308 3 --out {t}/s.csv", 2,
                 "theta bounds and their difference must be finite",
                 id="surface-interval-overflow"),
    pytest.param("surface {t}/absent.json -0.1 0.1 5 --out {t}/s.csv", 3,
                 f"cannot read train {{t}}/absent.json: {NO_FILE}: '{{t}}/absent.json'",
                 id="surface-missing"),
    pytest.param("surface {t}/nan.json -0.1 0.1 5 --out {t}/s.csv", 3,
                 "malformed train {t}/nan.json: all entries must have unit magnitude",
                 id="surface-nan-entry"),
    pytest.param("surface {t}/train.json -0.1 0.1 5 --out {t}/no/s.csv", 3,
                 "output directory does not exist: {t}/no", id="surface-no-dir"),
    pytest.param("surface {t}/train.json -0.1 0.1 5 --out {t}", 3,
                 f"cannot write {{t}}: {IS_DIR}: '{{t}}'", id="surface-write"),
    pytest.param("esp 5-2 2 1", 2, "bad universe spec: descending range '5-2'",
                 id="esp-descending"),
    pytest.param("esp 0-30 2 1", 2, "bad universe spec: universe exceeds 30 slots",
                 id="esp-universe-cap"),
    pytest.param("esp a 2 1", 2,
                 "bad universe spec: invalid literal for int() with base 10: 'a'",
                 id="esp-not-a-number"),
    pytest.param("esp 0-3,,5 2 1", 2, "bad universe spec: empty universe token",
                 id="esp-empty-token"),
    pytest.param("esp 0-7 1 1", 2, "block count must be at least 2, got 1",
                 id="esp-blocks"),
    pytest.param("esp 0-7 2 0", 2, "degree must be positive, got 0", id="esp-degree"),
    pytest.param("esp 0-6 2 1", 2, "universe size 7 is not divisible by 2 blocks",
                 id="esp-indivisible"),
    pytest.param("esp 0-7 2 1 --max 0", 2, "max_solutions must be positive when given",
                 id="esp-max"),
    pytest.param("esp 0-15 2 1", 2, "search exceeds the budget of 1000 nodes",
                 id="esp-node-budget"),
    pytest.param("esp 0-7 2 1 --out {t}/no/p.json", 3,
                 "output directory does not exist: {t}/no", id="esp-no-dir"),
    pytest.param("esp 0-7 2 1 --out {t}", 3, f"cannot write {{t}}: {IS_DIR}: '{{t}}'",
                 id="esp-write"),
    pytest.param("stagger {t}/pair.json 4 --out {t}/p.json", 2,
                 "no built-in partition of degree 4; pass --partition FILE",
                 id="stagger-no-builtin"),
    pytest.param("stagger {t}/tri.json 2 --out {t}/p.json", 2,
                 "partition has 2 blocks but the set has 3 codes", id="stagger-builtin-k3"),
    pytest.param("stagger {t}/absent.json 2 --out {t}/p.json", 3,
                 f"cannot read code set {{t}}/absent.json: {NO_FILE}: '{{t}}/absent.json'",
                 id="stagger-missing-set"),
    pytest.param("stagger {t}/pair.json 2 --partition {t}/absent.json --out {t}/p.json", 3,
                 f"cannot read partition {{t}}/absent.json: {NO_FILE}: '{{t}}/absent.json'",
                 id="stagger-missing-partition"),
    pytest.param("stagger {t}/pair.json 2 --partition {t}/broken.json --out {t}/p.json", 3,
                 f"cannot read partition {{t}}/broken.json: {BAD_JSON}",
                 id="stagger-bad-json"),
    pytest.param("stagger {t}/pair.json 2 --partition {t}/empty.json --out {t}/p.json", 1,
                 "partition file failed validation: 'blocks'", id="stagger-malformed"),
    pytest.param("stagger {t}/pair.json 2 --partition {t}/none.json --out {t}/p.json", 1,
                 "partition file failed validation: the file lists no partition",
                 id="stagger-empty-list"),
    pytest.param("stagger {t}/pair.json 1 --partition {t}/p5.json --out {t}/p.json", 1,
                 "partition file failed validation: declared p=5 but 2 blocks",
                 id="stagger-declared-p"),
    pytest.param("stagger {t}/pair.json 1 --partition {t}/sums.json --out {t}/p.json", 1,
                 "partition file failed validation: declared prouhetSums differ "
                 "from the blocks' [2, 3]", id="stagger-declared-sums"),
    pytest.param("stagger {t}/pair.json 1 --partition {t}/floatp.json --out {t}/p.json", 1,
                 "partition file failed validation: blocks, M, p and prouhetSums must be "
                 "integers", id="stagger-declared-float-p"),
    pytest.param("stagger {t}/pair.json 1 --partition {t}/floatsums.json --out {t}/p.json",
                 1, "partition file failed validation: blocks, M, p and prouhetSums must "
                 "be integers", id="stagger-declared-float-sums"),
    pytest.param("stagger {t}/pair.json 1 --partition {t}/unequal.json --out {t}/p.json", 1,
                 "partition file failed validation: blocks do not share power sums "
                 "up to degree 1", id="stagger-unequal-blocks"),
    pytest.param("stagger {t}/pair.json 1 --partition {t}/hollow.json --out {t}/p.json", 1,
                 "partition file failed validation: blocks must not be empty",
                 id="stagger-empty-blocks"),
    pytest.param("stagger {t}/pair.json 1 --partition {t}/m0.json --out {t}/p.json", 1,
                 "partition file failed validation: degree must be positive, got 0",
                 id="stagger-degree-zero"),
    pytest.param("stagger {t}/pair.json 3 --partition {t}/part1.json --out {t}/p.json", 1,
                 "partition degree 1 is below M=3", id="stagger-low-degree"),
    pytest.param("stagger {t}/pair.json -1 --partition {t}/part1.json --out {t}/p.json", 2,
                 "max_order must be in 0..32", id="stagger-order"),
    pytest.param("stagger {t}/pair.json 2 --antenna-cap 0 --out {t}/p.json", 2,
                 "slot demand 2 exceeds antenna cap 0", id="stagger-antenna-cap"),
    pytest.param("stagger {t}/pair.json 2 --out {t}/no/p.json", 3,
                 "output directory does not exist: {t}/no", id="stagger-no-dir"),
    pytest.param("stagger {t}/pair.json 2 --out {t}/p.json --report {t}/no/r.json", 3,
                 "output directory does not exist: {t}/no", id="stagger-no-report-dir"),
    pytest.param("stagger {t}/pair.json 2 --out {t}", 3,
                 f"cannot write {{t}}: {IS_DIR}: '{{t}}'", id="stagger-write"),
    pytest.param("stagger {t}/pair.json 2 --out {t}/p.json --report {t}", 3,
                 f"cannot write {{t}}: {IS_DIR}: '{{t}}'", id="stagger-write-report"),
    pytest.param("--tol -1 gen golay 2 --out {t}/x.json", 2,
                 "tolerance must be positive and finite", id="tol-negative"),
    pytest.param("--tol 0 esp 0-7 2 1", 2, "tolerance must be positive and finite",
                 id="tol-zero"),
    pytest.param("--tol inf ptm {t}/pair.json 2 --out {t}/t.json", 2,
                 "tolerance must be positive and finite", id="tol-inf"),
    pytest.param("--tol nan verify {t}/train.json 1", 2,
                 "tolerance must be positive and finite", id="tol-nan"),
]


# Module constants patched for single cases, so a refusal shows on small input.
CASE_PATCHES = {"esp-node-budget": (numtheory, "MAX_SEARCH_NODES", 1000)}


@pytest.fixture
def error_inputs(tmp_path, golay_file, train_file):
    assert run("gen", "dft", 3, "--out", tmp_path / "tri.json") == 0
    part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
    files = {
        "broken.json": "{",
        "empty.json": "{}",
        "list.json": "[1]",
        "none.json": "[]",
        "part1.json": json.dumps(part.to_json_dict()),
        "p5.json": json.dumps({"p": 5, "M": 1, "blocks": [[0, 3], [1, 2]],
                               "prouhetSums": [9, 9]}),
        "sums.json": json.dumps({"p": 2, "M": 1, "blocks": [[0, 3], [1, 2]],
                                 "prouhetSums": [9, 9]}),
        # The right values, but as floats: == would let 2.0 pass for 2.
        "floatp.json": json.dumps({"p": 2.0, "M": 1, "blocks": [[0, 3], [1, 2]],
                                   "prouhetSums": [2, 3]}),
        "floatsums.json": json.dumps({"p": 2, "M": 1, "blocks": [[0, 3], [1, 2]],
                                      "prouhetSums": [2.0, 3.0]}),
        # Sums 3 and 3 at m = 1 but three slots against one.
        "unequal.json": json.dumps({"M": 1, "blocks": [[0, 1, 2], [3]]}),
        "m0.json": json.dumps({"M": 0, "blocks": [[0, 3], [1, 2]]}),
        "hollow.json": json.dumps({"M": 1, "blocks": [[], []]}),
        "order0.json": json.dumps({"N": 2, "K": 2, "phaseOrder": 0,
                                   "phases": [[0, 0], [0, 1]]}),
        # json.load reads the bare NaN that json.dumps writes for float("nan").
        "nan.json": json.dumps({
            "ccm": {"N": 2, "K": 2, "columns": [[[float("nan"), 0], [1, 0]],
                                                [[1, 0], [-1, 0]]]},
            "indices": [0, 1, 1, 0],
        }),
        # Phase-stored, so judged exactly: no --tol passes its sidelobe sum 2.
        "binflat.json": json.dumps({"N": 2, "K": 2, "phaseOrder": 2,
                                    "phases": [[0, 0], [0, 0]]}),
        "flat.json": json.dumps(
            {"N": 2, "K": 2, "phaseOrder": None, "columns": [[[1, 0], [1, 0]]] * 2}
        ),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("argv,code,line", ERROR_CASES)
def test_each_failure_prints_one_error_line(
    error_inputs, capsys, monkeypatch, request, argv, code, line
):
    capsys.readouterr()  # drop the fixture commands' output
    if request.node.callspec.id in CASE_PATCHES:
        monkeypatch.setattr(*CASE_PATCHES[request.node.callspec.id])
    t = str(error_inputs)
    assert run(*argv.format(t=t).split()) == code
    assert capsys.readouterr().err == f"error: {line.format(t=t)}\n"


def test_domain_mismatch_prints_one_error_line(train_file, monkeypatch, capsys):
    def boom(order, time_residual, threshold, samples, code_length):
        raise doppler.DomainMismatchError(order, 1.0, 0.0)

    monkeypatch.setattr(doppler, "_order_check", boom)
    assert run("verify", train_file, 1) == 4
    assert capsys.readouterr().err == (
        "error: order-0 null verdicts disagree: delay-domain residual "
        "1.000e+00, z-domain deviation 0.000e+00\n"
    )


def test_stagger_domain_mismatch_prints_one_error_line(
    tmp_path, golay_file, monkeypatch, capsys
):
    def boom(order, time_residual, threshold, samples, code_length):
        raise doppler.DomainMismatchError(order, 1.0, 0.0)

    monkeypatch.setattr(doppler, "_order_check", boom)
    capsys.readouterr()  # drop the fixture's output
    plan = tmp_path / "plan.json"
    assert run("stagger", golay_file, 2, "--out", plan) == 4
    assert capsys.readouterr() == (
        "",
        "error: order-0 null verdicts disagree: delay-domain residual "
        "1.000e+00, z-domain deviation 0.000e+00\n",
    )
    assert not plan.exists()


def test_unequal_partition_blocks_write_no_plan(tmp_path, golay_file, capsys):
    # The stagger-unequal-blocks row checks the error line; this one the file.
    part = tmp_path / "unequal.json"
    part.write_text(json.dumps({"M": 1, "blocks": [[0, 1, 2], [3]]}))
    plan = tmp_path / "plan.json"
    capsys.readouterr()  # drop the fixture's output
    assert run("stagger", golay_file, 1, "--partition", part, "--out", plan) == 1
    assert capsys.readouterr().out == ""
    assert not plan.exists()


def test_failed_generator_prints_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        codes, "validate_ccm", lambda ccm, tol: codes.CcmValidation(False, 0.5, 0.0)
    )
    assert run("gen", "golay", 3, "--out", tmp_path / "x.json") == 1
    assert capsys.readouterr().err == (
        "error: code set is not complementary: worst sidelobe sum 5.000000e-01, "
        "peak error 0.000000e+00\n"
    )
