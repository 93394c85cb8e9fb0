"""Check that ``meanlab verify --all --json`` and other CLI runs are unchanged against a git ref.

Usage, from anywhere inside the repository:

    python3 scripts/verify_identity.py REF

The committed tree at REF is unpacked with ``git archive`` into a temporary
directory. ``python -m meanlab verify --all --json --seed S`` then runs for
S = 0 and 1 on that tree and on this working tree. Standard output is
compared with ``elapsed_ms`` masked, together with standard error and the
exit code. When a seed differs, a summary follows the diff: for each
criterion, the items whose verdict flipped and the largest change of an
observed value over its item's tolerance, |new - old| / tolerance, so that
a roundoff-sized drift on a loose check ranks below a real one.

Then every argv of ``cli_runs`` runs on each tree, all of them in one
subprocess per tree, against seeded 2x2 and 3x3 matrix files the script
writes itself: ``mean`` with its cross-checks, ``expand``, ``preserver``,
the ``centrality`` probe, ``geodesic``, ``dbw``, ``axioms`` and one
``verify`` usage error, each in text and in ``--json``, so that they share
one CLI parser. Exit code, standard output and standard error must match,
with ``elapsed_ms`` and the temporary directory masked. When a ``--json``
run differs, a summary follows its diff, over the numeric leaves of the two
documents paired by JSON path: the largest change over a tolerance, for
each leaf whose object carries a ``tolerance`` (a check's ``observed``, a
probe's ``commutator_norm``), the largest relative change |new - old| /
|old| over the other leaves, and every ``passed``, ``all_pass``,
``verdict`` or ``central`` leaf that flipped. The entries of a
``null_space`` basis are left out: any roundoff rotates a basis of a null
space of dimension above one freely, and the checks on it are summarized
as checks. The exit status is 0 when every run matches and 1 on any
difference; the temporary directory is removed either way.

Last, the script prints the number of source lines, as
``cat src/meanlab/*.py | wc -l`` counts them, at REF and here, and after it
the count at REF and here of each module whose count changed (0 on the side
a module is missing from), so that a deletion can be listed with its lines.
A refactor should lower the total; the counts are only reported and never
change the exit status, since a change that moves bits on purpose may add
lines.
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
DIMS = (2, 3)

# argv of the CLI runs compared beyond verify; each also runs with --json.
# PAIR_RUNS get "--a A --b B" and PROBE_RUNS "--a A" at each of DIMS.
PLAIN_RUNS = (
    ("expand", "--mean", "kubo-ando", "--p", "0.5"),
    ("expand", "--mean", "wasserstein"),
    # A custom grid through the Vandermonde cache, and a negative p.
    ("expand", "--mean", "kubo-ando", "--p", "-0.9", "--grid", "0.02:0.2:6"),
    ("expand", "--mean", "wasserstein", "--grid", "0.02:0.2:6"),
    ("preserver", "--mean", "kubo-ando", "--p", "-0.5"),
    # The p = 1 row, where the second-order constraint vanishes.
    ("preserver", "--mean", "kubo-ando", "--p", "1"),
    ("preserver", "--mean", "wasserstein"),
    ("preserver", "--functional", "trace-power", "--p", "0.5", "--pairs", "20"),
    ("preserver", "--functional", "constant", "--mean", "kubo-ando", "--p", "-0.5", "--pairs", "20"),
    ("preserver", "--functional", "linear", "--mean", "wasserstein", "--pairs", "20"),
    # A usage error, so that the runs after it share a parser that has
    # already refused an argv.
    ("verify", "--criterion", "99"),
    ("axioms", "--kind", "geometric", "--samples", "10", "--dim", "2"),
    ("axioms", "--kind", "kubo-ando-power", "--p", "-0.5", "--samples", "10", "--dim", "3"),
    # One sample leaves the stack of odd-i transforms empty.
    ("axioms", "--kind", "geometric", "--samples", "1", "--dim", "3"),
    # A seed of three 32-bit words.
    ("axioms", "--kind", "harmonic", "--samples", "7", "--dim", "2", "--seed", "18446744073709551623"),
    # Stacks of 40 at n = 4: the stacked Jacobi, and certificates proven by
    # Cholesky.
    ("axioms", "--kind", "harmonic", "--samples", "40", "--dim", "4"),
)
PAIR_RUNS = (
    ("mean", "--kind", "wasserstein"),
    ("mean", "--kind", "kubo-ando-power", "--p", "0.5", "--via-function"),
    ("mean", "--kind", "geometric", "--certificate", "--rep-at", "2.5"),
    ("mean", "--kind", "spectral-geometric"),
    ("centrality", "--kind", "harmonic"),
    ("centrality", "--kind", "kubo-ando-power", "--p", "-0.5"),
    ("geodesic", "--kind", "bw", "--t", "0.3", "--check-metric"),
    ("geodesic", "--kind", "trace"),
    ("dbw",),
)
PROBE_RUNS = (
    ("centrality", "--kind", "wasserstein", "--samples", "10"),
    ("centrality", "--kind", "kubo-ando-power", "--p", "0.5", "--samples", "10"),
)

# Runs argv lists read from stdin through meanlab.cli.main, in-process, and
# prints [exit code, stdout, stderr] for each as JSON.
_RUNNER = """
import contextlib, io, json, sys
from meanlab.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def run_verify(src: Path, seed: int) -> tuple[int, str, str]:
    """Exit code, masked stdout and stderr of one verify run on a source tree."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "meanlab", "verify", "--all", "--json", "--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=src)
    return proc.returncode, _ELAPSED.sub('"elapsed_ms": 0', proc.stdout), proc.stderr


def unpack(ref: str, dest: Path) -> None:
    """Extract the committed tree at ``ref`` into ``dest``; RuntimeError carries git's message."""
    archive = subprocess.run(["git", "archive", ref], capture_output=True, cwd=ROOT)
    if archive.returncode != 0:
        raise RuntimeError(archive.stderr.decode(errors="replace"))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # The "data" filter exists from Python 3.10.12 on.
        if hasattr(tarfile, "data_filter"):
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(dest)


def write_matrices(folder: Path) -> None:
    """Seeded complex PD matrix files A{n}.json and B{n}.json for each n in DIMS."""
    # Imported here, so that scripts/bench.py, which reuses unpack, needs
    # only the standard library.
    import numpy as np

    rng = np.random.default_rng(20231)
    for n in DIMS:
        for name in "AB":
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M = G @ G.conj().T + 0.5 * np.eye(n)
            blob = {"dim": n, "re": M.real.tolist(), "im": M.imag.tolist()}
            (folder / f"{name}{n}.json").write_text(json.dumps(blob))


def cli_runs(folder: Path) -> list[list[str]]:
    """Every compared argv, reading the matrix files in ``folder``."""
    runs = [list(r) for r in PLAIN_RUNS]
    for n in DIMS:
        a, b = str(folder / f"A{n}.json"), str(folder / f"B{n}.json")
        runs += [[*r, "--a", a, "--b", b] for r in PAIR_RUNS]
        runs += [[*r, "--a", a] for r in PROBE_RUNS]
    return [r + mode for r in runs for mode in ([], ["--json"])]


def run_cli(src: Path, runs: list[list[str]], folder: Path) -> list[tuple[int, str, str]]:
    """Exit code, stdout and stderr of each run on a source tree, elapsed_ms and ``folder`` masked."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER], input=json.dumps(runs),
        capture_output=True, text=True, env=env, cwd=src, check=True,
    )

    def mask(text: str) -> str:
        return _ELAPSED.sub('"elapsed_ms": 0', text.replace(str(folder), "<tmp>"))
    return [(code, mask(out), mask(err)) for code, out, err in json.loads(proc.stdout)]


def module_lines(src: Path) -> dict[str, int]:
    """Newlines in each of the package's modules, by file name, as ``wc -l`` counts them."""
    return {path.name: path.read_bytes().count(b"\n") for path in (src / "meanlab").glob("*.py")}


def source_lines(src: Path) -> int:
    """Newlines in the package's modules, as ``cat src/meanlab/*.py | wc -l`` counts them."""
    return sum(module_lines(src).values())


def line_changes(before: dict[str, int], after: dict[str, int], ref: str) -> list[str]:
    """One line per module whose count differs between ``before`` (at ``ref``) and ``after``, by name."""
    lines = []
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, 0), after.get(name, 0)
        if name not in before or name not in after or old != new:
            lines.append(f"source lines, {name}: {old} at {ref}, {new} here ({new - old:+d})")
    return lines


def scaled_change(old: float, new: float, scale: float) -> float:
    """|new - old| / scale: 0 when both are equal or both NaN, inf from a scale of 0 or one NaN."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if math.isnan(old) or math.isnan(new) or scale == 0.0:
        return math.inf
    return abs(new - old) / abs(scale)


def relative_change(old: float, new: float) -> float:
    """|new - old| / |old|: 0 when both are equal or both NaN, inf from an old 0 or one NaN."""
    return scaled_change(old, new, old)


def summarize(old: dict, new: dict) -> list[str]:
    """Per criterion of two ``verify --all --json`` payloads: verdict flips and the largest change over tolerance."""
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
        changes = [
            (scaled_change(before[n]["observed"], after[n]["observed"], before[n]["tolerance"]), n)
            for n in before if n in after
        ]
        largest, name = max(changes, default=(0.0, ""))
        line = f"{title}: {len(flips)} verdict flips; largest change over tolerance {largest:.3e}"
        lines.append(line + (f" ({name})" if largest else ""))
        lines.extend(f"  flipped: {n} ({before[n]['passed']} -> {after[n]['passed']})" for n in flips)
        lines.extend(f"  only at the ref: {n}" for n in before if n not in after)
        lines.extend(f"  only here: {n}" for n in after if n not in before)
    lines.extend(f"{title}: only here" for title in new_reports)
    return lines


# JSON keys whose values are verdicts: a change of one is a flip.
_VERDICT_KEYS = ("passed", "all_pass", "verdict", "central")


def json_leaves(node, path: str = "") -> dict[str, object]:
    """Every leaf of a JSON document by its path, such as ``result.pairs[3].verdict``."""
    if isinstance(node, dict):
        items = [(f"{path}.{key}" if path else key, child) for key, child in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", child) for i, child in enumerate(node)]
    else:
        return {path: node}
    return {p: leaf for key, child in items for p, leaf in json_leaves(child, key).items()}


def json_summary(old: str, new: str) -> list[str]:
    """Verdict flips and the largest changes of the numeric leaves of two JSON documents.

    A leaf whose object carries a numeric ``tolerance`` is ranked by its
    change over that tolerance, every other one by its relative change;
    ``null_space`` entries are left out.
    """
    try:
        before, after = (
            {p: v for p, v in json_leaves(json.loads(doc)).items() if "null_space[" not in p} for doc in (old, new)
        )
    except json.JSONDecodeError:
        return ["  no summary: a run did not print JSON"]
    paired = [p for p in before if p in after]

    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def tolerance(path: str):
        # The tolerance beside a leaf, if its object has one.
        head, _, key = path.rpartition(".")
        tol = before.get(f"{head}.tolerance" if head else "tolerance")
        return tol if key != "tolerance" and number(tol) else None

    over_tol, relative = [], []
    for p in paired:
        if number(before[p]) and number(after[p]):
            tol = tolerance(p)
            if tol is None:
                relative.append((relative_change(before[p], after[p]), p))
            else:
                over_tol.append((scaled_change(before[p], after[p], tol), p))
    flips = [p for p in paired if p.rsplit(".", 1)[-1] in _VERDICT_KEYS and before[p] != after[p]]
    line = f"  {len(flips)} verdict flips"
    for label, changes in (("largest change over tolerance", over_tol), ("largest relative change", relative)):
        largest, name = max(changes, default=(0.0, ""))
        line += f"; {label} {largest:.3e}" + (f" ({name})" if largest else "")
    lines = [line]
    lines += [f"  flipped: {p} ({before[p]!r} -> {after[p]!r})" for p in flips]
    unpaired = len(before) + len(after) - 2 * len(paired)
    return lines + ([f"  {unpaired} leaves on one side only"] if unpaired else [])


def print_diff(ref: str, old: tuple[int, str, str], new: tuple[int, str, str]) -> None:
    """The first 40 lines of the stdout and the stderr diff of two runs."""
    for label, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        diff = difflib.unified_diff(
            a.splitlines(), b.splitlines(), f"{ref}:{label}", f"worktree:{label}", lineterm=""
        )
        for line in list(diff)[:40]:
            print(line)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ref = argv[0]
    same = True
    with tempfile.TemporaryDirectory(prefix="verify-identity-") as tmp:
        try:
            unpack(ref, Path(tmp))
        except RuntimeError as exc:
            print(exc, file=sys.stderr, end="")
            return 2
        for seed in SEEDS:
            old = run_verify(Path(tmp) / "src", seed)
            new = run_verify(ROOT / "src", seed)
            if old == new:
                print(f"seed {seed}: identical (exit {new[0]}, {len(new[1])} bytes)")
                continue
            same = False
            print(f"seed {seed}: DIFFERENT (exit {old[0]} at {ref}, {new[0]} here)")
            print_diff(ref, old, new)
            try:
                payloads = json.loads(old[1]), json.loads(new[1])
            except json.JSONDecodeError:
                print("no summary: a run did not print JSON")
                continue
            for line in summarize(*payloads):
                print(line)
        folder = Path(tmp) / "matrices"
        folder.mkdir()
        write_matrices(folder)
        runs = cli_runs(folder)
        old_runs = run_cli(Path(tmp) / "src", runs, folder)
        new_runs = run_cli(ROOT / "src", runs, folder)
        differ = [(argv, a, b) for argv, a, b in zip(runs, old_runs, new_runs) if a != b]
        print(f"cli: {len(runs) - len(differ)} of {len(runs)} runs identical")
        for argv, old, new in differ:
            same = False
            shown = " ".join(argv).replace(str(folder), "<tmp>")
            print(f"cli: DIFFERENT: meanlab {shown} (exit {old[0]} at {ref}, {new[0]} here)")
            print_diff(ref, old, new)
            if "--json" in argv:
                for line in json_summary(old[1], new[1]):
                    print(line)
        before, after = module_lines(Path(tmp) / "src"), module_lines(ROOT / "src")
        old, new = sum(before.values()), sum(after.values())
        print(f"source lines: {old} at {ref}, {new} here ({new - old:+d})")
        for line in line_changes(before, after, ref):
            print(line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
