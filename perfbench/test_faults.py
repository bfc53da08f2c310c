"""Self-tests of the benchmark: its checks catch wrong answers, and its
metric names match BENCHMARK.json.

    python3 -m pytest perfbench -q

Each fault test patches a public dualis function to be wrong, runs one
round of an affected workload in this process, and requires the round's
checks to count failed operations.  The battery test takes about half a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from dualis import SparseMatrix, combinat  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def _patch_everywhere(monkeypatch, orig, replacement):
    """Replace a function in every dualis module that holds it."""
    for name, mod in list(sys.modules.items()):
        if name == "dualis" or name.startswith("dualis."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, replacement)


def _problems(workload: str, seed: int = 7) -> dict:
    os.makedirs(WORKDIR, exist_ok=True)
    w = workloads.WORKLOADS[workload](seed, WORKDIR)
    w.run()
    return dict(w.check())


def _loop_holds(monkeypatch):
    real = combinat.semiperfect_check

    def wrong(template, side, radius, bound, cancel=None):
        if isinstance(template, combinat.LoopTemplate):
            return combinat.SemiperfectReport(side, "holds", radius, bound,
                                              per_vertex=(("v", 1),))
        return real(template, side, radius, bound, cancel)

    _patch_everywhere(monkeypatch, real, wrong)


def test_exact_linalg_catches_wrong_rank_and_kernel(monkeypatch):
    real_rank, real_kernel = SparseMatrix.rank, SparseMatrix.kernel_basis

    def kernel_corrupted(self):
        # add a unit vector on a nonzero column, so M k != 0 afterwards
        basis = real_kernel(self)
        if basis and self.entries:
            j = min(c for _, c in self.entries)
            v = list(basis[0])
            v[j] = self.field.add(v[j], self.field.one)
            basis[0] = tuple(v)
        return basis

    monkeypatch.setattr(SparseMatrix, "rank", lambda self: real_rank(self) + 1)
    monkeypatch.setattr(SparseMatrix, "kernel_basis", kernel_corrupted)
    problems = _problems("exact-linalg")
    for kind in ("rank", "kernel"):
        ops = [name for name in problems if name.startswith(kind + ".")]
        assert ops and all(problems[name] for name in ops), kind
    assert all(problems[name] is None for name in problems if name.startswith("rowspace."))


def test_exact_linalg_passes_unpatched():
    problems = _problems("exact-linalg")
    assert [p for p in problems.values() if p] == []


def test_large_objects_catches_loop_semiperfect(monkeypatch):
    _loop_holds(monkeypatch)
    problems = _problems("large-objects")
    assert problems["6:semiperfect"] is not None
    assert sum(p is not None for p in problems.values()) == 1


def test_battery_catches_loop_semiperfect(monkeypatch):
    _loop_holds(monkeypatch)
    problems = _problems("battery")
    assert problems["semiperfect-cross-validation"] is not None


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}


def test_refuses_to_run_without_sources():
    bare = os.path.join(WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "battery",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
