"""The process entry point ``cli.run``: the cyclic collector is paused
for the command and what is left is frozen before exit, while
``cli.main`` leaves the collector as it finds it."""

import ast
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC, run_cli_subprocess
from outbreaklens.cli import EXIT_EMPTY, EXIT_INPUT, EXIT_OK, EXIT_USAGE

ROOT = SRC.parent
HEADER = "case_id,source_id,date,longitude,latitude"


def _messy_lines(n: int) -> list[str]:
    """``n`` record lines over 20 days from 2014-03-01, each case's
    source an earlier case, with a garbage line, a dangling source and a
    record before 2014-03-01 (the default origin) about every hundred."""
    rng = random.Random(n)
    lines, ids = [], []
    for i in range(n):
        if i % 97 == 50:
            lines.append("not a record")
            continue
        day, sec = divmod(i * 20 * 86400 // n, 86400)
        stamp = (f"2014-03-{1 + day:02d}T{sec // 3600:02d}:"
                 f"{sec // 60 % 60:02d}:{sec % 60:02d}Z")
        if i % 101 == 60:
            stamp = "2014-02-10T00:00:00Z"
        source = "" if i % 53 == 0 else rng.choice(ids[-200:] or [""])
        if i % 89 == 70:
            source = f"GHOST{i}"
        ids.append(f"c{i}")
        lines.append(f"c{i},{source},{stamp},{rng.uniform(-1, 1):.4f},"
                     f"{rng.uniform(-1, 1):.4f}")
    return lines


def _write_inputs(directory: Path, n: int) -> dict:
    """The CSV and JSONL forms of ``_messy_lines(n)`` and two simulator
    configs, one at a population of 500 and one of 12,000."""
    lines = _messy_lines(n)
    keys = HEADER.split(",")
    paths = {"csv": directory / "cases.csv", "jsonl": directory / "cases.jsonl"}
    paths["csv"].write_text("\n".join([HEADER, *lines]) + "\n",
                            encoding="utf-8")
    paths["jsonl"].write_text("".join(
        (json.dumps(dict(zip(keys, line.split(",")))) if "," in line
         else line) + "\n" for line in lines), encoding="utf-8")
    for population in (500, 12000):
        paths[population] = directory / f"sim{population}.json"
        paths[population].write_text(json.dumps(
            {"n_population": population, "p_transmit": 0.4, "seed": 3}),
            encoding="utf-8")
    return paths


def _garbage_after_each(directory: Path, n: int, population: int) -> list:
    """Run the commands one after another in a child with the collector
    disabled; after each, its exit code and what ``gc.collect()`` finds
    unreachable. The cyclic garbage of importing the CLI is collected
    first."""
    paths = _write_inputs(directory, n)
    out = str(directory / "out")
    csv, jsonl = str(paths["csv"]), str(paths["jsonl"])
    commands = [
        ["simulate", "--input", str(paths[population]), "--output", out],
        ["analyze", "--input", csv, "--window", "all"],
        ["analyze", "--input", csv, "--window", "tumbling:1d"],
        ["analyze", "--input", csv, "--window", "cumulative:2d",
         "--origin", "2014-03-01"],
        ["stream", "--input", csv, "--window", "tumbling:2d"],
        ["stream", "--input", csv, "--window", "tumbling:2d", "--strict"],
        ["plot", "--log-log", "--input", csv],
        ["analyze", "--input", jsonl, "--format", "jsonl",
         "--window", "tumbling:1d"],
        ["stream", "--input", jsonl, "--format", "jsonl",
         "--window", "tumbling:2d"],
    ]
    script = f"""
import gc, json
gc.disable()
from outbreaklens.cli import main
gc.collect()
found = []
for argv in {commands!r}:
    if "--output" not in argv:
        argv = argv + ["--output", {out!r}]
    code = main(argv)
    found.append([code, gc.collect()])
print(json.dumps(found))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_no_command_makes_cyclic_garbage_that_grows_with_its_input(
        tmp_path):
    # the premise of pausing the collector: a command that made a cycle
    # per record, line, diagnostic or window would leave ten times as
    # many unreachable objects on ten times the input
    (tmp_path / "small").mkdir()
    (tmp_path / "large").mkdir()
    small = _garbage_after_each(tmp_path / "small", 1000, 500)
    large = _garbage_after_each(tmp_path / "large", 10000, 12000)
    # the strict stream stops at the first bad line; the rest succeed
    assert [code for code, _ in small] == [EXIT_OK] * 5 + [EXIT_INPUT] \
        + [EXIT_OK] * 3
    assert large == small
    assert all(found < 1000 for _, found in small)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,expected", [
    (["analyze", "--window", "tumbling:1d"], EXIT_OK),
    (["analyze", "--strict"], EXIT_INPUT),
], ids=["exit-0", "exit-2"])
def test_main_leaves_the_collector_as_it_found_it(cli, outbreak_csv, tmp_path,
                                                  enabled, argv, expected):
    src = tmp_path / "cases.csv"
    src.write_text(outbreak_csv.read_text(encoding="utf-8")
                   + "E,GHOST,2014-03-05,2,2\n", encoding="utf-8")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert cli(*argv, "--input", str(src))[0] == expected
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_the_process_exits_with_the_collector_paused_and_the_heap_frozen(
        outbreak_csv):
    # an atexit hook runs after run()'s sys.exit and before the
    # interpreter's last collection
    script = f"""
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0,
                              file=sys.stderr))
sys.argv = ["outbreaklens", "analyze", "--input", {str(outbreak_csv)!r}]
runpy.run_module("outbreaklens", run_name="__main__", alter_sys=True)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["n_vertices"] == 1000
    assert proc.stderr == "False True\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc/self/task")
@pytest.mark.parametrize("command,set_to", [
    ("simulate", None),
    ("simulate", "2"),
    ("import", None),
], ids=["simulate", "simulate-caller-set", "library-import"])
def test_simulate_runs_one_thread(tmp_path, command, set_to):
    # the simulator loads no numpy, so no OpenBLAS worker thread starts
    # beside it, and neither simulate nor the library sets the variable
    # that would bound one. The hook runs after run()'s sys.exit.
    script = f"""
import atexit, os, runpy, sys
atexit.register(lambda: print(os.environ.get("OPENBLAS_NUM_THREADS"),
                              len(os.listdir("/proc/self/task")),
                              file=sys.stderr))
if {command!r} == "import":
    import outbreaklens.sim
else:
    sys.argv = ["outbreaklens", "simulate", "--output",
                {str(tmp_path / "out.csv")!r}]
    runpy.run_module("outbreaklens", run_name="__main__", alter_sys=True)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if set_to is not None:
        env["OPENBLAS_NUM_THREADS"] = set_to
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    value, count = proc.stderr.split()
    assert value == str(set_to)
    assert int(count) == 1


@pytest.mark.parametrize("argv,expected", [
    (["analyze", "--window", "tumbling:7d"], EXIT_OK),
    (["analyze", "--window", "all", "--input", "missing.csv"], EXIT_INPUT),
    (["analyze", "--window", "bogus"], EXIT_USAGE),
    (["plot", "--input", "header-only.csv"], EXIT_EMPTY),
], ids=["0", "2", "64", "65"])
def test_the_process_exits_as_main_returns(cli, outbreak_csv, tmp_path,
                                           monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "header-only.csv").write_text(HEADER + "\n", encoding="utf-8")
    if "--input" not in argv:
        argv = argv + ["--input", str(outbreak_csv)]
    in_process = cli(*argv)
    assert in_process[0] == expected
    assert run_cli_subprocess(*argv) == in_process


def test_each_process_entry_point_is_run():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'outbreaklens = "outbreaklens.cli:run"' in pyproject.splitlines()
    for path in (SRC / "outbreaklens" / "__main__.py",
                 SRC / "outbreaklens" / "cli.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        (guard,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(node) for node in guard.body] == ["run()"]
    imports = ast.parse((SRC / "outbreaklens" / "__main__.py").read_text(
        encoding="utf-8")).body[0]
    assert ast.unparse(imports) == "from .cli import run"
