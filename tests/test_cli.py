"""The evident command line: run, combine, route."""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from evident.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def _python(*args: str, **env: str | None) -> subprocess.CompletedProcess:
    """A fresh interpreter run on the source tree, with ``env`` over the
    current environment (None unsets a variable)."""
    merged = dict(os.environ)
    merged["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), merged.get("PYTHONPATH")) if p
    )
    for key, value in env.items():
        merged.pop(key, None)
        if value is not None:
            merged[key] = value
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=merged, timeout=60
    )


@pytest.fixture
def masses_file(tmp_path):
    doc = {
        "frame": ["lake", "tower"],
        "masses": [
            [
                {"atoms": ["lake"], "mass": 0.7},
                {"atoms": ["lake", "tower"], "mass": 0.3},
            ],
            [
                {"atoms": ["tower"], "mass": 0.6},
                {"atoms": ["lake", "tower"], "mass": 0.4},
            ],
        ],
    }
    path = tmp_path / "masses.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def route_files(tmp_path):
    query = {
        "op": "and",
        "children": [
            {"op": "atom", "name": "altitude"},
            {"op": "atom", "name": "terrain"},
        ],
    }
    sources = [
        {"id": "dma", "priority": 0, "schema": {"altitude": 0.9, "terrain": 0.8}},
        {"id": "intel", "priority": 1, "schema": {"terrain": 0.7}},
        {"id": "weather", "priority": 2, "schema": {"wind": 1.0}},
    ]
    qpath = tmp_path / "query.json"
    spath = tmp_path / "sources.json"
    qpath.write_text(json.dumps(query))
    spath.write_text(json.dumps(sources))
    return qpath, spath


class TestRun:
    def test_trace_to_stdout(self, capsys):
        assert main(["run", str(DATA / "lake_tower.json")]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "lake_tower_golden.csv").read_text()

    def test_aged_scenario_through_python_m_evident(self):
        # the aged replay, end to end: lake_tower.json at discount rate 0.9
        proc = _python("-m", "evident", "run", str(DATA / "lake_tower_aged.json"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA / "lake_tower_aged_golden.csv").read_text()

    def test_trace_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        assert main(["run", str(DATA / "lake_tower.json"), "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text() == (DATA / "lake_tower_golden.csv").read_text()

    def test_window_flag_overrides_file(self, capsys):
        assert main(["run", str(DATA / "lake_tower.json"), "--window", "1000"]) == 0
        wide = capsys.readouterr().out
        assert wide != (DATA / "lake_tower_golden.csv").read_text()
        # with everything in window, the last row fuses all six reports
        assert wide.splitlines()[-1].startswith("30.000000")

    def test_table_format(self, capsys):
        assert main(["run", str(DATA / "lake_tower.json"), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time")
        assert "," not in out.splitlines()[0]
        assert "0.473684" in out

    def test_repeat_runs_identical(self, capsys):
        main(["run", str(DATA / "lake_tower.json")])
        first = capsys.readouterr().out
        main(["run", str(DATA / "lake_tower.json")])
        assert capsys.readouterr().out == first

    def test_validation_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"frame": ["lake", "lake"], "reports": []}')
        assert main(["run", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
        report = {"sensor": "", "t": 0, "focus": ["lake"], "degree": 0.5}
        doc = {"frame": ["lake"], "reports": [report]}
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 1
        assert "error: sensor id must be a non-empty string" in capsys.readouterr().err

    def test_empty_scenario_is_a_validation_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"frame": ["lake"], "reports": []}')
        assert main(["run", str(empty)]) == 1

    def test_infinite_report_time_exits_1(self, tmp_path):
        # json.loads accepts Infinity; unchecked, the step grid never ends
        doc = json.loads((DATA / "lake_tower.json").read_text())
        doc["reports"].append(
            {"sensor": "eo", "t": float("inf"), "focus": ["lake"], "degree": 0.5}
        )
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        assert '"t": Infinity' in path.read_text()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "evident", "run", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_zero_conflict_threshold_exits_1(self, tmp_path, capsys):
        doc = json.loads((DATA / "lake_tower.json").read_text())
        doc["conflict_threshold"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: conflict threshold 0.0")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "times, step",
        [
            ((0, 1000), 1e-12),  # too many steps
            ((0, 1e300), 1.0),  # too long a span
            ((1e300, 1.7e308), 1.0),  # t0 + k*step never advances
        ],
    )
    def test_huge_grid_exits_1(self, tmp_path, times, step):
        doc = {
            "frame": ["lake", "tower"],
            "step": step,
            "reports": [
                {"sensor": "eo", "t": t, "focus": ["lake"], "degree": 0.5} for t in times
            ],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "evident", "run", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: step")
        assert proc.stdout == ""

    def test_unhashable_focus_atom_exits_1(self, tmp_path, capsys):
        doc = json.loads((DATA / "lake_tower.json").read_text())
        doc["reports"][0]["focus"] = [["lake"]]
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: atom [")

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "no-such-file.json"]) == 2
        assert "i/o error:" in capsys.readouterr().err

    def test_combination_past_the_pair_cap_exits_1(self, tmp_path):
        # 40 supports on random 29-atom foci of 32 atoms, all in one window:
        # the fused focal set doubles with every report
        rng = random.Random(1)
        atoms = [f"a{i:02d}" for i in range(32)]
        reports = [
            {"sensor": f"s{i:02d}", "t": i, "focus": rng.sample(atoms, 29), "degree": 0.3}
            for i in range(40)
        ]
        path = tmp_path / "probe.json"
        path.write_text(json.dumps({"frame": atoms, "window": 100, "reports": reports}))
        capped = (
            "import sys, evident.cli, evident.combine;"
            " sys.modules['evident.combine'].MAX_PAIRS = 4096;"
            " sys.exit(evident.cli.main(sys.argv[1:]))"
        )
        proc = _python("-c", capped, "run", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: combining")
        assert "above the cap of 4096" in proc.stderr
        assert proc.stdout == ""


class TestCombine:
    def test_prints_conflict_mass_and_intervals(self, masses_file, capsys):
        assert main(["combine", str(masses_file)]) == 0
        out = capsys.readouterr().out
        assert "conflict: 0.420000" in out
        assert "{lake}: 0.482759" in out
        assert "{tower}: 0.310345" in out
        assert "{lake,tower}: 0.206897" in out
        assert "lake: [0.482759, 0.689655]" in out
        assert "tower: [0.310345, 0.517241]" in out

    def test_dense_fold_prints_the_golden_output(self, capsys):
        # 4 functions of 64 focals on 8 atoms: each sum after the first takes
        # the dense branch in more than one chunk of leading rows
        assert main(["combine", str(DATA / "masses_dense.json")]) == 0
        assert capsys.readouterr().out == (DATA / "masses_dense_golden.txt").read_text()

    def test_unnormalized_mass_exits_1(self, tmp_path, capsys):
        doc = {"frame": ["lake"], "masses": [[{"atoms": ["lake"], "mass": 0.5}]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["combine", str(path)]) == 1

    def test_malformed_json_exits_1(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        assert main(["combine", str(path)]) == 1

    def test_unhashable_atom_exits_1(self, tmp_path, capsys):
        doc = {"frame": ["lake"], "masses": [[{"atoms": [{"a": 1}], "mass": 1.0}]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["combine", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: atom {")

    def test_combination_past_the_pair_cap_exits_1(self, masses_file, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("evident.combine"), "MAX_PAIRS", 3)
        assert main(["combine", str(masses_file)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: combining 2 by 2 focals makes 4 focal pairs, above the cap of 3\n"
        )
        assert captured.out == ""


class TestRoute:
    def test_prints_shortlist_and_plan(self, route_files, capsys):
        qpath, spath = route_files
        assert main(["route", str(qpath), str(spath)]) == 0
        out = capsys.readouterr().out
        assert "shortlist:" in out
        assert "dma  support=0.720000 plausibility=1.000000" in out
        assert "weather" not in out
        assert "and(altitude,terrain) -> dma" in out
        assert "total support: 0.720000" in out

    def test_threshold_flag(self, route_files, capsys):
        qpath, spath = route_files
        assert main(["route", str(qpath), str(spath), "--threshold", "0"]) == 0
        out = capsys.readouterr().out
        # with no cut every source polls in, ranked by support
        assert "weather" in out

    def test_a_fragment_no_source_holds_is_unassigned(self, tmp_path, capsys):
        qpath, spath = tmp_path / "query.json", tmp_path / "sources.json"
        atoms = [{"op": "atom", "name": name} for name in ("attr0", "attrX")]
        qpath.write_text(json.dumps({"op": "or", "children": atoms}))
        spath.write_text(json.dumps([{"id": "s0", "schema": {"attr0": 0.9}}]))
        assert main(["route", str(qpath), str(spath)]) == 0
        out = capsys.readouterr().out
        assert "  attr0 -> s0\n  unassigned: attrX\n  total support: 0.900000\n" in out

    def test_empty_shortlist_is_fine(self, route_files, tmp_path, capsys):
        qpath, _ = route_files
        spath = tmp_path / "none.json"
        spath.write_text(json.dumps([{"id": "w", "schema": {"wind": 1.0}}]))
        assert main(["route", str(qpath), str(spath)]) == 0
        assert "(none)" in capsys.readouterr().out

    def test_duplicate_ids_exit_1(self, route_files, tmp_path):
        qpath, _ = route_files
        spath = tmp_path / "dup.json"
        spath.write_text(
            json.dumps([{"id": "x", "schema": {}}, {"id": "x", "schema": {}}])
        )
        assert main(["route", str(qpath), str(spath)]) == 1


    @pytest.mark.parametrize("weight", ["x", "0.5", [1], True])
    def test_non_numeric_weight_exits_1(self, route_files, tmp_path, capsys, weight):
        qpath, _ = route_files
        spath = tmp_path / "weights.json"
        spath.write_text(json.dumps([{"id": "dma", "schema": {"altitude": weight}}]))
        assert main(["route", str(qpath), str(spath)]) == 1
        assert capsys.readouterr().err == (
            "error: weight of 'altitude' in source 'dma' must be a number\n"
        )

    def test_deeply_nested_query_exits_1(self, route_files, tmp_path, capsys):
        _, spath = route_files
        node = {"op": "atom", "name": "altitude"}
        for _ in range(250):
            node = {"op": "and", "children": [node, {"op": "atom", "name": "terrain"}]}
        qpath = tmp_path / "deep.json"
        qpath.write_text(json.dumps(node))
        assert main(["route", str(qpath), str(spath)]) == 1
        assert capsys.readouterr().err == "error: query nested deeper than 100 levels\n"


@pytest.mark.parametrize("command", ["run", "combine", "route"])
def test_deeply_nested_document_exits_1(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    args = [command, str(path)] + ([str(path)] if command == "route" else [])
    assert main(args) == 1
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("command", ["run", "combine", "route"])
def test_non_utf8_input_exits_1(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"frame": ["lac gelé"]}'.encode("latin-1"))
    args = [command, str(path)] + ([str(path)] if command == "route" else [])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")


class TestImports:
    """What loading the package and running a command import and set, each
    in a fresh interpreter."""

    @pytest.mark.parametrize("module", ["evident", "evident.cli"])
    def test_import_leaves_numpy_unloaded(self, module):
        proc = _python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
        assert (proc.stdout, proc.stderr) == ("False\n", "")

    def test_route_never_loads_numpy(self, route_files):
        qpath, spath = route_files
        proc = _python("-X", "importtime", "-m", "evident", "route", str(qpath), str(spath))
        assert proc.returncode == 0
        assert "and(altitude,terrain) -> dma" in proc.stdout
        imported = [
            line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "evident.routing" in imported
        assert [name for name in imported if name.split(".")[0] == "numpy"] == []

    def test_submodule_imports_leave_the_public_functions(self):
        # decide is resolved before the submodules load, combine after
        code = (
            "import importlib, evident\n"
            "decide = evident.decide\n"
            "import evident.scenario\n"
            "assert evident.decide is decide\n"
            "for name in ('combine', 'decide'):\n"
            "    module = importlib.import_module('evident.' + name)\n"
            "    assert getattr(evident, name) is getattr(module, name), name\n"
            "print('ok')\n"
        )
        proc = _python("-c", code)
        assert (proc.stdout, proc.stderr) == ("ok\n", "")

    def test_star_import_and_dir_list_every_public_name(self):
        code = (
            "import evident\n"
            "print(set(evident.__all__) - set(dir(evident)))\n"
            "from evident import *\n"
            "print([name for name in evident.__all__ if name not in globals()])\n"
        )
        proc = _python("-c", code)
        assert (proc.stdout, proc.stderr) == ("set()\n[]\n", "")

    def test_public_names_are_their_modules_objects(self):
        code = (
            "import importlib, evident, evident.masses\n"
            "print(evident.masses.EvidentialInterval is evident.EvidentialInterval)\n"
            "for name in evident.__all__[1:]:\n"
            "    value = getattr(evident, name)\n"
            "    module = importlib.import_module(value.__module__)\n"
            "    assert getattr(module, name) is value, name\n"
            "print(evident.__all__)\n"
        )
        proc = _python("-c", code)
        assert proc.stderr == ""
        same, names = proc.stdout.splitlines()
        assert same == "True"
        assert names == repr(PUBLIC_NAMES)

    @pytest.mark.parametrize("callers, expected", [(None, "1"), ("3", "3")])
    def test_entrypoint_defaults_blas_threads_to_one(self, callers, expected):
        code = (
            "import os, sys, evident.cli\n"
            "try:\n"
            "    evident.cli.entrypoint()\n"
            "finally:\n"
            "    print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules,"
            " file=sys.stderr)\n"
        )
        proc = _python(
            "-c", code, "run", str(DATA / "lake_tower.json"), OPENBLAS_NUM_THREADS=callers
        )
        assert proc.returncode == 0
        assert proc.stdout == (DATA / "lake_tower_golden.csv").read_text()
        assert proc.stderr == f"{expected} True\n"

    def test_the_library_leaves_the_environment_alone(self, masses_file):
        code = (
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import evident, evident.cli\n"
            f"text = open({str(DATA / 'lake_tower.json')!r}).read()\n"
            "evident.emit_trace(evident.run_scenario(evident.load_scenario(text)))\n"
            f"evident.cli.main(['combine', {str(masses_file)!r}])\n"
            "print(dict(os.environ) == before, 'numpy' in sys.modules)\n"
        )
        proc = _python("-c", code, OPENBLAS_NUM_THREADS=None)
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "True True"


# evident.__all__, which lazy loading must leave as it was
PUBLIC_NAMES = [
    "BACKEND", "And", "Atom", "CombinationReport", "Decision", "DecisionStatus",
    "EvidentError", "EvidentialInterval", "Frame", "Implies", "MassFunction", "Or",
    "Proposition", "QueryExpr", "RoutePlan", "Scenario", "SensorReport",
    "SourceDescriptor", "SupportTriple", "TraceRow", "answerability",
    "bayesian_from_probabilities", "combine", "combine_all", "conflict_mass", "decide",
    "decompose", "discount", "emit_trace", "load_query", "load_scenario", "load_sources",
    "make_view", "mass_new", "poll", "run_scenario", "simple_support", "support_pro_con",
    "translate_logical", "vacuous",
]
