"""The README's performance trajectory is the ``BENCH_<n>.json`` series.

Each row of the "Performance trajectory" table that names a record must show
that record's change medians of ``total_ref``, ``trace`` and ``farey`` to one
decimal and ``cli`` to an integer, and every record at the root of the
repository must back exactly one row.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Table column -> the (workload, seed) whose total_ref it shows, and its format.
COLUMNS = {
    "trace": ("trace", 99, "{:.1f}"),
    "farey": ("farey", 20260811, "{:.1f}"),
    "cli": ("cli", 1, "{:.0f}"),
}


def _trajectory_rows() -> list[dict[str, str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Performance trajectory", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip("` ").split("`")[0] for cell in lines[0].strip("|").split("|")]
    return [dict(zip(header, (c.strip() for c in line.strip("|").split("|")))) for line in lines[2:]]


def _change_median(record: dict, workload: str, seed: int) -> float:
    (entry,) = (w for w in record["workloads"] if (w["workload"], w["seed"]) == (workload, seed))
    return entry["metrics"]["total_ref"]["change"]["median"]


def test_rows_equal_their_bench_records():
    rows = [row for row in _trajectory_rows() if row["record"] != "—"]
    assert rows
    for row in rows:
        record = json.loads((ROOT / row["record"].strip("`")).read_text(encoding="utf-8"))
        for column, (workload, seed, form) in COLUMNS.items():
            assert row[column] == form.format(_change_median(record, workload, seed)), (row, column)


def test_every_bench_record_backs_one_row():
    named = sorted(row["record"].strip("`") for row in _trajectory_rows())
    on_disk = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert [name for name in named if name != "—"] == on_disk
    assert all(re.fullmatch(r"BENCH_\d+\.json|—", name) for name in named)
