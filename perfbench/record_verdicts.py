"""Record the pass/fail of every check item of ``meanlab verify --all``.

Run from the repository root:

    python3 perfbench/record_verdicts.py 0 1

Each seed given runs the full CLI battery (about 35 s on a 2-CPU Xeon). The
maps must agree across seeds; the common map is written to
perfbench/verdicts.json, which the workloads compare every verdict against.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from meanlab.cli import main  # noqa: E402


def verdict_map(seed: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["verify", "--all", "--json", "--seed", str(seed)])
    out = {}
    for number, report in enumerate(json.loads(buf.getvalue())["reports"], start=1):
        items = {item["name"]: item["passed"] for item in report["items"]}
        if len(items) != len(report["items"]):
            raise SystemExit(f"criterion {number} repeats an item name")
        out[str(number)] = {"title": report["title"], "items": items}
    return out


def main_record(seeds: list[int]) -> None:
    maps = [verdict_map(s) for s in seeds]
    if any(m != maps[0] for m in maps[1:]):
        raise SystemExit("verdict map differs between seeds")
    passed = sum(v for c in maps[0].values() for v in c["items"].values())
    total = sum(len(c["items"]) for c in maps[0].values())
    doc = {"seeds": seeds, "passed": passed, "total": total, "criteria": maps[0]}
    (HERE / "verdicts.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{passed} of {total} items pass at seeds {seeds}")


if __name__ == "__main__":
    main_record([int(s) for s in sys.argv[1:]] or [0, 1])
