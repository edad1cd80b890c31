"""The three workloads as sequences of dopwave commands with their checks.

Every workload is a closed loop with one client: a command starts only
after the previous one has exited.  ``build`` writes the seeded inputs under
``<workdir>/in`` and returns the commands; outputs go to ``<workdir>/out``.

Why these workloads:

* ptm-deep: long PTM trains over short codes.  Exact slot weights
  (numtheory.power_sum called from doppler) dominate; codes does almost
  nothing.  The DFT-3 set takes the float path beside the binary one, and
  the surface over L=4096 is bound by exp over steps x L.  Holds the
  baseline "verify L=65536, M=15".
* long-code: long codes, short trains.  ACFs, z-transforms and CSV export
  dominate; slot weights cost almost nothing.  The surface goes through the
  same doppler layer but is bound by matmul and CSV writing.
* stagger-search: esp_search and every stagger function run here and
  nowhere else.  Holds the baseline "esp_search(range(24), 2, 5)".
"""

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import inputs

WORKLOADS = ("ptm-deep", "long-code", "stagger-search")

# The program's built-in two-block partitions (degree -> blocks), spans 7/12/23.
BUILTIN_BLOCKS = {
    2: ((0, 4, 5), (1, 2, 6)),
    3: ((0, 4, 7, 11), (1, 2, 9, 10)),
    5: inputs.BUILTIN_DEGREE5,
}


@dataclass
class Command:
    family: str  # gen | ptm | verify | surface | esp | stagger
    label: str
    argv: list[str]
    check: Callable[[str], None]  # receives the command's stdout
    reads: list[str] = field(default_factory=list)
    writes: list[str] = field(default_factory=list)
    expect_exit: int = 0
    verdict_work: int = 0  # K*(M+1) for verify and stagger


@dataclass
class Workload:
    name: str
    commands: list[Command]
    digests: dict[str, str]


class _Composer:
    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.inp = os.path.join(workdir, "in")
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.inp, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)
        self.digests: dict[str, str] = {}
        self.commands: list[Command] = []

    def in_file(self, name: str, data) -> str:
        """Write a seeded input file and record its digest."""
        path = os.path.join(self.inp, name)
        self.digests[name] = inputs.dump(path, data)
        return path

    def out_file(self, name: str) -> str:
        return os.path.join(self.out, name)

    def code_set(self, kind: str, size: int) -> tuple[str, dict]:
        """`gen kind size`, checked against our own construction, then the seeded set."""
        if kind == "golay":
            phases, order = inputs.golay_phases(size), 2
        else:
            phases, order = inputs.dft_phases(size), size
        out = self.out_file(f"gen_{kind}{size}.json")
        self.commands.append(
            Command(
                "gen", f"gen {kind} {size}", ["gen", kind, str(size), "--out", out],
                lambda _: checks.check_code_set(out, phases, order), writes=[out],
            )
        )
        seeded = inputs.code_set_dict(inputs.transform_set(phases, order, self.rng), order)
        return self.in_file(f"{kind}{size}.json", seeded), seeded

    def ptm(self, set_path: str, set_dict: dict, order: int) -> tuple[str, list[int]]:
        k = set_dict["K"]
        indices = inputs.ptm_indices(k, k ** (order + 1))
        out = self.out_file(f"train_{os.path.basename(set_path)[:-5]}_m{order}.json")
        self.commands.append(
            Command(
                "ptm", f"ptm N={set_dict['N']} K={k} M={order} L={len(indices)}",
                ["ptm", set_path, str(order), "--out", out],
                lambda stdout: checks.check_train(out, set_dict, indices, stdout, order),
                reads=[set_path], writes=[out],
            )
        )
        return out, indices

    def verify(self, train: str, set_dict: dict, length: int, order: int) -> None:
        out = self.out_file(f"verify_{os.path.basename(train)}")
        self.commands.append(
            Command(
                "verify", f"verify N={set_dict['N']} K={set_dict['K']} L={length} M={order}",
                ["verify", train, str(order), "--out", out],
                lambda _: checks.check_verify(out, order),
                reads=[train], writes=[out], verdict_work=set_dict["K"] * (order + 1),
            )
        )

    def surface(self, train: str, set_dict: dict, indices: list[int], steps: int) -> None:
        lo, hi = inputs.theta_window(self.rng, 0.05, 0.02)
        thetas = np.linspace(lo, hi, steps)
        reference = checks.surface_reference(
            set_dict["phases"], set_dict["phaseOrder"], indices, thetas, (0, steps // 2, steps - 1)
        )
        out = self.out_file(f"surface_{os.path.basename(train)[:-5]}.csv")
        n = set_dict["N"]
        self.commands.append(
            Command(
                "surface", f"surface N={n} L={len(indices)} steps={steps}",
                ["surface", train, repr(lo), repr(hi), str(steps), "--out", out],
                lambda _: checks.check_surface(out, thetas, n, reference),
                reads=[train], writes=[out],
            )
        )

    def esp(self, lo: int, hi: int, p: int, degree: int, count: int, first=None) -> None:
        """`esp`; with `first`, its check also writes the first solution there."""
        out = self.out_file(f"esp_{lo}-{hi}_{p}_{degree}.json")
        universe = list(range(lo, hi + 1))

        def check(_):
            checks.check_esp(out, universe, p, degree, count)
            if first is not None:
                with open(out, encoding="utf-8") as fh:
                    inputs.dump(first, json.load(fh)[0])

        self.commands.append(
            Command(
                "esp", f"esp {lo}-{hi} p={p} M={degree}",
                ["esp", f"{lo}-{hi}", str(p), str(degree), "--out", out], check,
                writes=[out] + ([first] if first is not None else []),
                expect_exit=0 if count else 1,
            )
        )

    def stagger(self, set_path: str, set_dict: dict, order: int, partition=None) -> None:
        """`stagger` on a built-in partition, or on the blocks of a `--partition` file."""
        tag = f"{os.path.basename(set_path)[:-5]}_m{order}"
        plan, report = self.out_file(f"plan_{tag}.json"), self.out_file(f"report_{tag}.json")
        argv = ["stagger", set_path, str(order), "--out", plan, "--report", report]
        reads = [set_path]
        if partition is not None:
            argv += ["--partition", partition]
            reads.append(partition)

        def check(stdout):
            if partition is None:
                blocks = BUILTIN_BLOCKS[order]
            else:
                with open(partition, encoding="utf-8") as fh:
                    blocks = json.load(fh)["blocks"]
            checks.check_stagger(plan, report, stdout, blocks, order)

        self.commands.append(
            Command(
                "stagger",
                f"stagger K={set_dict['K']} M={order}" + (" partition" if partition else ""),
                argv, check, reads=reads, writes=[plan, report],
                verdict_work=set_dict["K"] * (order + 1),
            )
        )


def _ptm_deep(b: _Composer) -> None:
    golay, golay_dict = b.code_set("golay", 4)
    train, indices = b.ptm(golay, golay_dict, 15)
    b.verify(train, golay_dict, len(indices), 15)
    dft, dft_dict = b.code_set("dft", 3)
    train, indices = b.ptm(dft, dft_dict, 9)
    b.verify(train, dft_dict, len(indices), 9)
    train, indices = b.ptm(golay, golay_dict, 11)
    b.surface(train, golay_dict, indices, 1001)


def _long_code(b: _Composer) -> None:
    golay, golay_dict = b.code_set("golay", 14)
    train, indices = b.ptm(golay, golay_dict, 3)
    b.verify(train, golay_dict, len(indices), 3)
    b.surface(train, golay_dict, indices, 33)
    dft, dft_dict = b.code_set("dft", 64)
    train, indices = b.ptm(dft, dft_dict, 1)
    b.verify(train, dft_dict, len(indices), 1)


def _stagger_search(b: _Composer) -> None:
    # `stagger --partition` rejects the list `esp` writes (a known defect), so
    # the esp check saves the first solution on its own for the last stagger.
    first = b.out_file("esp_first.json")
    b.esp(0, 23, 2, 5, count=0)
    b.esp(0, 17, 3, 2, count=9, first=first)
    golay, golay_dict = b.code_set("golay", 6)
    for degree in (2, 3, 5):
        b.stagger(golay, golay_dict, degree)
    a, c, degree = inputs.prouhet_double(inputs.BUILTIN_DEGREE5, 5, 11, b.rng)
    doubled = b.in_file("doubled_m16.json", {"p": 2, "M": degree, "blocks": [a, c]})
    b.stagger(golay, golay_dict, degree, partition=doubled)
    dft, dft_dict = b.code_set("dft", 3)
    b.stagger(dft, dft_dict, 2, partition=first)


_COMPOSERS = {"ptm-deep": _ptm_deep, "long-code": _long_code, "stagger-search": _stagger_search}


def build(name: str, seed: int, workdir: str) -> Workload:
    b = _Composer(seed, workdir)
    _COMPOSERS[name](b)
    return Workload(name, b.commands, b.digests)
