import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# output lines each demo prints once its simulations have run
KEY_LINES = {
    "01_measure_and_undo": ("irreversibility of the pair:",),
    "02_wait_and_stop": ("residual success forfeited by cutoffs",),
    "03_total_reversibility": ("the measurement, not of the state it disturbed.",),
    "04_evolving_qubit": ("two-readout variant succeeds only",),
    "05_phase_qubit": ("|+>: first-null prob x undo prob",),
    "06_entangled_register": ("every all-null run restores the entangled state", "simulated success rate"),
}


@pytest.mark.parametrize("demo", sorted(KEY_LINES))
def test_demo_runs(demo, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    out = capsys.readouterr().out
    for line in KEY_LINES[demo]:
        assert line in out
