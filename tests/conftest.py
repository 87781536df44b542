import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from outbreaklens.cli import main
from outbreaklens.records import read_stream, validate_stream

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def outbreak_csv() -> Path:
    return FIXTURES / "outbreak_seed42.csv"


@pytest.fixture(scope="session")
def sim_config_path() -> Path:
    return FIXTURES / "sim_seed42.json"


@pytest.fixture(scope="session")
def outbreak_stream(outbreak_csv):
    return validate_stream(read_stream(outbreak_csv))


@pytest.fixture()
def cli(capsys, monkeypatch):
    """Invoke the CLI in-process: returns (exit_code, stdout, stderr)."""

    def invoke(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def run_cli_subprocess(*argv, stdin=None):
    """Spawn the real entry point from ``src``; used where byte-identity
    matters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "outbreaklens", *argv],
                          input=stdin, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr
