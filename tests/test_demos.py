"""Every demo runs to the end and prints its report."""

import runpy
from pathlib import Path

import pytest

# convergence_ladder.py is left out: it writes its CSV beside itself and
# takes about 3 s; the CLI and benchmark tests cover run_convergence.
DEMOS = sorted(p for p in (Path(__file__).resolve().parents[1] / "demos").glob("*.py")
               if p.name != "convergence_ladder.py")


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
