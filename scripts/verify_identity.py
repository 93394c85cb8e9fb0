"""Check that ``meanlab verify --all --json`` is unchanged against a git ref.

Usage, from anywhere inside the repository:

    python3 scripts/verify_identity.py REF

The committed tree at REF is unpacked with ``git archive`` into a temporary
directory. ``python -m meanlab verify --all --json --seed S`` then runs for
S = 0 and 1 on that tree and on this working tree. Standard output is
compared with ``elapsed_ms`` masked, together with standard error and the
exit code. The exit status is 0 when every run matches and 1 on any
difference; the temporary directory is removed either way.
"""

from __future__ import annotations

import difflib
import io
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
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
