import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_entangled_register_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "06_entangled_register.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "every all-null run restores the entangled state" in out
    assert "simulated success rate" in out
