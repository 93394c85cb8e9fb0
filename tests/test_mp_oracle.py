"""The 50-digit oracle of ``mp_oracle.py`` on diagonal pairs, its memo, and
the rule that no other file under tests/, scripts/ or src/ uses mpmath."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import mp_oracle
from mp_oracle import reference

ROOT = Path(__file__).resolve().parent.parent
# mpmath's eigensolvers and matrix root; numpy's eigh is the LAPACK oracle.
SOLVERS = {"eighe", "eigh", "sqrtm"}


@pytest.mark.parametrize("a, b", [((1.0, 4.0), (9.0, 16.0)), ((1.0, 4.0, 25.0), (9.0, 16.0, 4.0))], ids=["n2", "n3"])
def test_references_of_a_diagonal_pair_are_the_scalar_forms(monkeypatch, a, b):
    # Every reference of the diagonal pair within 2 eps of its form on the
    # diagonals at p = +-0.5 and t = 0.3, and read-only, since a memoized
    # reference is handed to every caller. The first requests take one
    # eigendecomposition each of A, N, A^(1/2) B A^(1/2) and Q, and the
    # conventional power mean one of B and one of its inner mean for each p.
    # Second requests, on copies of the inputs, take none.
    calls = []
    original = mp_oracle.mp.eighe
    monkeypatch.setattr(mp_oracle.mp, "eighe", lambda M: calls.append(M) or original(M))
    a, b, t, eps = np.array(a), np.array(b), 0.3, np.finfo(float).eps
    ra, rb = np.sqrt(a), np.sqrt(b)
    taken = []
    for _ in range(2):
        A, B = np.diag(a).astype(complex), np.diag(b).astype(complex)
        for p in (0.5, -0.5):
            m_p = ((a**p + b**p) / 2) ** (1 / p)
            forms = {
                ("arithmetic",): (a + b) / 2,
                ("harmonic",): 2 * a * b / (a + b),
                ("geometric",): ra * rb,
                ("kubo-ando-power", p): m_p,
                ("conventional-power", p): m_p,
                ("spectral-geometric",): ra * rb,
                ("wasserstein",): ((ra + rb) / 2) ** 2,
                ("bw-q",): rb / ra,
                ("geodesic_trace", t): a ** (1 - t) * b**t,
                ("geodesic_bw", t): ((1 - t) * ra + t * rb) ** 2,
                ("power", p): a**p,
            }
            assert {name for name, *_ in forms} | {"d_bw"} == set(mp_oracle.QUANTITIES)
            for (name, *args), diagonal in forms.items():
                got = reference(A, B, name, *args)
                assert np.abs(got - np.diag(diagonal)).max() <= 2 * eps * diagonal.max(), name
                assert not got.flags.writeable, name
        assert float(reference(A, B, "d_bw")) == pytest.approx(math.dist(ra, rb), rel=2 * eps, abs=0.0)
        taken.append(len(calls))
    assert taken == [8, 8]


def _mpmath_uses(tree: ast.Module) -> list[int]:
    # Lines that import mpmath, or call one of SOLVERS other than numpy's.
    def uses(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "mpmath" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] == "mpmath"
        name = getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None
        return name in SOLVERS and not ast.unparse(node.func).startswith(("np.linalg.", "numpy.linalg."))

    return [node.lineno for node in ast.walk(tree) if uses(node)]


def test_only_the_oracle_uses_mpmath():
    # mp_oracle.py's own uses must be seen, or the scan sees nothing.
    paths = [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "src").rglob("*.py")]
    found = {str(path.relative_to(ROOT)): _mpmath_uses(ast.parse(path.read_text(encoding="utf-8"))) for path in paths}
    found = {name: lines for name, lines in found.items() if lines}
    assert set(found) == {"tests/mp_oracle.py"}, f"mpmath at {found}; take the reference from tests/mp_oracle.py"
