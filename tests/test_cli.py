"""End-to-end command-line tests; commands run in-process via cli.main."""

import json
import tracemalloc

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
        assert codes.validate_ccm_exact(ccm).is_ccm


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
        def boom(report, order, spectra, weights, code_length):
            raise doppler.DomainMismatchError(order, 1.0, 0.0)

        monkeypatch.setattr(doppler, "_order_check", boom)
        assert run("verify", train_file, 1) == 4

    @pytest.mark.parametrize("z_samples", [0, doppler.MAX_TRAIN_LENGTH + 1])
    def test_z_samples_out_of_range_is_usage_error(
        self, train_file, monkeypatch, z_samples
    ):
        weights = count_calls(monkeypatch, numtheory.power_sum)
        assert run("verify", train_file, 1, "--z-samples", z_samples) == 2
        assert not weights  # refused before any verification work

    @pytest.mark.parametrize("kind,size,order", [("golay", 3, 4), ("dft", 3, 2)])
    def test_builds_each_intermediate_once(
        self, tmp_path, monkeypatch, kind, size, order
    ):
        ccm_path, train_path = tmp_path / "set.json", tmp_path / "train.json"
        assert run("gen", kind, size, "--out", ccm_path) == 0
        assert run("ptm", ccm_path, order, "--out", train_path) == 0
        power_sums = count_calls(monkeypatch, numtheory.power_sum)
        acfs = count_calls(monkeypatch, codes.acf)
        spectra = count_calls(monkeypatch, doppler._power_spectra)
        assert run("verify", train_path, order, "--z-samples", 16) == 0
        k = 2 if kind == "golay" else size
        assert len(power_sums) == k * (order + 1)
        assert len(acfs) == k
        assert len(spectra) == 1


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
