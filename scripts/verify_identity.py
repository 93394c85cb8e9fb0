"""Check that ``meanlab verify --all --json`` is unchanged against a git ref.

Usage, from anywhere inside the repository:

    python3 scripts/verify_identity.py REF

The committed tree at REF is unpacked with ``git archive`` into a temporary
directory. ``python -m meanlab verify --all --json --seed S`` then runs for
S = 0 and 1 on that tree and on this working tree. Standard output is
compared with ``elapsed_ms`` masked, together with standard error and the
exit code. When a seed differs, a summary follows the diff: for each
criterion, the items whose verdict flipped and the largest relative change
|new - old| / |old| over its observed values. The exit status is 0 when
every run matches and 1 on any difference; the temporary directory is
removed either way.
"""

from __future__ import annotations

import difflib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def run_verify(src: Path, seed: int) -> tuple[int, str, str]:
    """Exit code, masked stdout and stderr of one verify run on a source tree."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "meanlab", "verify", "--all", "--json", "--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=src)
    return proc.returncode, _ELAPSED.sub('"elapsed_ms": 0', proc.stdout), proc.stderr


def relative_change(old: float, new: float) -> float:
    """|new - old| / |old|: 0 when both are equal or both NaN, inf from an old 0 or one NaN."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if math.isnan(old) or math.isnan(new) or old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def summarize(old: dict, new: dict) -> list[str]:
    """Per criterion of two ``verify --all --json`` payloads: verdict flips and the largest relative change."""
    lines = []
    new_reports = {r["title"]: r for r in new["reports"]}
    for report in old["reports"]:
        title = report["title"]
        if title not in new_reports:
            lines.append(f"{title}: missing here")
            continue
        before = {i["name"]: i for i in report["items"]}
        after = {i["name"]: i for i in new_reports.pop(title)["items"]}
        flips = [n for n in before if n in after and before[n]["passed"] != after[n]["passed"]]
        changes = [(relative_change(before[n]["observed"], after[n]["observed"]), n) for n in before if n in after]
        largest, name = max(changes, default=(0.0, ""))
        line = f"{title}: {len(flips)} verdict flips; largest relative change {largest:.3e}"
        lines.append(line + (f" ({name})" if largest else ""))
        lines.extend(f"  flipped: {n} ({before[n]['passed']} -> {after[n]['passed']})" for n in flips)
        lines.extend(f"  only at the ref: {n}" for n in before if n not in after)
        lines.extend(f"  only here: {n}" for n in after if n not in before)
    lines.extend(f"{title}: only here" for title in new_reports)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ref = argv[0]
    archive = subprocess.run(["git", "archive", ref], capture_output=True, cwd=ROOT)
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace"), file=sys.stderr, end="")
        return 2
    same = True
    with tempfile.TemporaryDirectory(prefix="verify-identity-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # The "data" filter exists from Python 3.10.12 on.
            if hasattr(tarfile, "data_filter"):
                tar.extraction_filter = tarfile.data_filter
            tar.extractall(tmp)
        for seed in SEEDS:
            old = run_verify(Path(tmp) / "src", seed)
            new = run_verify(ROOT / "src", seed)
            if old == new:
                print(f"seed {seed}: identical (exit {new[0]}, {len(new[1])} bytes)")
                continue
            same = False
            print(f"seed {seed}: DIFFERENT (exit {old[0]} at {ref}, {new[0]} here)")
            for label, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
                diff = difflib.unified_diff(
                    a.splitlines(), b.splitlines(), f"{ref}:{label}", f"worktree:{label}", lineterm=""
                )
                for line in list(diff)[:40]:
                    print(line)
            try:
                payloads = json.loads(old[1]), json.loads(new[1])
            except json.JSONDecodeError:
                print("no summary: a run did not print JSON")
                continue
            for line in summarize(*payloads):
                print(line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
