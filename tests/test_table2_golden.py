"""Golden Table 2 rows: the exact measured sweep, pinned.

``tests/fixtures/table2_golden.json`` holds the measured rows of
:func:`repro.experiments.table2.table2_json` (``include_paper=False``)
for all three filters and both test-design methods, at a reduced pattern
budget.  Rows 5-8 count coverage of *detectable* faults, so they move if
PODEM ever returns a different verdict for a fault random patterns left
undetected, as well as if fault simulation, collapsing or scheduling
change.  At this budget two faults are DETECTED by PODEM and the rest are
proved REDUNDANT, so both verdicts are pinned (c3a2m's KA column never
reaches 100% and reports ``null``).

Regenerate after an *intentional* semantic change with::

    python tests/test_table2_golden.py --regenerate

and review the fixture diff like code (see ``docs/TESTING.md``).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # regeneration entry point, not pytest
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exec.config import RunConfig
from repro.experiments.table2 import table2_columns, table2_json

FIXTURE = REPO_ROOT / "tests" / "fixtures" / "table2_golden.json"

#: The pinned sweep geometry; changing it is regenerating the fixture.
SWEEP: Dict[str, Any] = {
    "circuits": ["c5a2m", "c3a2m", "c4a4m"],
    "max_patterns": 256,
    "seed": 1994,
    "n_seeds": 1,
}


def compute_golden() -> Dict[str, Any]:
    columns = table2_columns(
        SWEEP["circuits"], max_patterns=SWEEP["max_patterns"],
        seed=SWEEP["seed"], n_seeds=SWEEP["n_seeds"], config=RunConfig(),
    )
    return dict(SWEEP, measured=table2_json(columns, include_paper=False)["measured"])


def test_table2_rows_match_the_golden_fixture():
    with open(FIXTURE) as handle:
        assert compute_golden() == json.load(handle)


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        raise SystemExit("usage: python tests/test_table2_golden.py --regenerate")
    with open(FIXTURE, "w") as handle:
        json.dump(compute_golden(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
