"""tools/battery.py runs and prints its five lines in the committed
form.  The digests depend on the numpy build, so only their form is
checked here; to compare two checkouts, run the script in each."""

import re
import subprocess
import sys
from pathlib import Path

BATTERY = Path(__file__).resolve().parent.parent / "tools" / "battery.py"
DIGEST = "[0-9a-f]{64}"


def test_battery_runs_and_prints_its_five_lines():
    done = subprocess.run([sys.executable, str(BATTERY)], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    forms = [f"{name} 102 integrations {DIGEST}"
             for name in ("fd/component", "dg/component", "dg/cell")]
    forms += [f"306 integrations {DIGEST}", f"6 rows {DIGEST}"]
    lines = done.stdout.splitlines()
    assert len(lines) == len(forms), done.stdout
    for line, form in zip(lines, forms):
        assert re.fullmatch(form, line), line
