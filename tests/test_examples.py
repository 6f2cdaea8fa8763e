"""Examples: every script compiles; the fast ones run end to end."""

import pathlib
import py_compile
import runpy
import sys

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).resolve().parent.parent.joinpath("examples").glob("*.py")
)


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_all_examples_present(self):
        names = {p.stem for p in EXAMPLES}
        assert {
            "quickstart", "crossover_study", "custom_workload",
            "custom_policy", "shared_system", "write_behind",
            "observability", "cache_sizing",
        } <= names


class TestQuickstartRuns:
    def test_quickstart_end_to_end(self, monkeypatch, capsys):
        path = next(p for p in EXAMPLES if p.stem == "quickstart")
        monkeypatch.setattr(sys, "argv", [str(path), "ld", "2"])
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        assert "demand" in out
        assert "forestall" in out
        assert "elapsed" in out


class TestSharedSystemRuns:
    def test_shared_system_end_to_end(self, monkeypatch, capsys):
        path = next(p for p in EXAMPLES if p.stem == "shared_system")
        monkeypatch.setattr(sys, "argv", [str(path)])
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        for allocator in ("static:", "static [3, 1]:", "cost-benefit:"):
            assert allocator in out
        assert out.count("makespan") == 3
