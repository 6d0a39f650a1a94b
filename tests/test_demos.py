"""Every demo runs in-process and prints the line that carries its result."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo, key_lines", [
    ("cascade_walkthrough.py", ["invariant check: clean"]),
    ("power_grid_basics.py", ["solved load voltage   0.989897948557",
                              "closed-form root      0.989897948557"]),
    ("scenario_restoration.py",
     ["=== pjm5: converged after 1342 rounds, 9286 messages ===",
      "=== wds10: converged after 685 rounds, 13003 messages ==="]),
    ("water_network_basics.py",
     ["pump chain pressures: [ 5. 15.  5.] "
      "(node 1 sits 10 m above the reservoir)",
      "ordered response holds: True"]),
])
def test_demo_prints_its_key_lines(demo, key_lines, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    printed = capsys.readouterr().out.splitlines()
    for line in key_lines:
        assert line in printed
