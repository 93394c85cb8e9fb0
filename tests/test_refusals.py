"""One refusal rule: typed errors over a value or a stack go through ``matcore._require``.

A structural guard keeps ``np.extract``, which names the first failing entry
of a stack, inside that routine. Each site built on it refuses a lone operand
and a stack with that operand in the middle with the same error type and the
same text, with no numpy warning.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import meanlab
from meanlab import (
    GEODESIC_BW, GEODESIC_TRACE, DomainError, FitFailure, GeodesicKind, MeanlabError, NotInCone, PdMatrix, PositivityError,
    SingularError, expansion, from_function, geodesic, matcore, means, preserver,
)
from meanlab.geometry import _curve_points

PACKAGE = Path(meanlab.__file__).resolve().parent


def _extract_calls(tree: ast.Module) -> list[tuple[str | None, int]]:
    # (innermost enclosing function, line) for each call of an ``extract``,
    # as np.extract or as a bare imported name.
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "extract") or (
                    isinstance(func, ast.Name) and func.id == "extract"
                ):
                    calls.append((owner, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, None)
    return calls


def test_np_extract_is_called_only_inside_require():
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        calls = _extract_calls(ast.parse(path.read_text(encoding="utf-8")))
        if path.name == "matcore.py":
            assert any(owner == "_require" for owner, _ in calls), "matcore._require no longer names a stack's entry"
        lines = [line for owner, line in calls if not (path.name == "matcore.py" and owner == "_require")]
        if lines:
            outside[path.name] = lines
    assert not outside, f"np.extract outside matcore._require, at {outside}; refuse through _require instead"


def test_the_structural_guard_sees_a_call_outside_require():
    tree = ast.parse("import numpy as np\ndef f(bad, x):\n    return np.extract(bad, x)[0]\n")
    assert _extract_calls(tree) == [("f", 3)]


I2 = np.eye(2, dtype=complex)
NOT_HERMITIAN = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
OUT_OF_CONE = I2 + 2.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# Its trace overflows.
HUGE = np.diag([1.7e308, 1.7e308]).astype(complex)
# A representing function that turns negative past 2, and a partner whose
# pencil with I reaches 4.
DROPPING = from_function(lambda x: 2.0 - x, "2 - x")
SPREAD = np.diag([1.0, 4.0]).astype(complex)


def _middle(bad: np.ndarray, good: np.ndarray) -> np.ndarray:
    return np.array([good, bad, good])


def _certificate_cases():
    # PdMatrix's construction and _check_certificates share the rule: a
    # lone certificate against a stack's, the bad one in the middle.
    M = np.diag([2.0, 3.0]).astype(complex)
    for lam in (0.0, -1.0, math.nan, math.inf):
        yield (
            f"certificate-{lam}", PositivityError,
            lambda lam=lam: matcore.PdMatrix(matcore.HermitianMatrix._wrap(M), lam),
            lambda lam=lam: matcore._check_certificates(_middle(M, M), np.array([2.0, lam, 2.0])),
        )
    yield (
        "certificate-lone-check", PositivityError,
        lambda: matcore._check_certificates(M, -1.0),
        lambda: matcore._check_certificates(_middle(M, M), np.array([2.0, -1.0, 2.0])),
    )


def _functional_cases():
    # The functional fails on 2I alone and as the middle of I, 2I, I.
    for y in (0.0, -1.0, math.nan, math.inf):
        f = preserver.ScalarFunctional(lambda X, y=y: np.where(X[..., 0, 0].real > 1.5, y, 1.0), "one bad")
        yield f"functional-{y}", DomainError, lambda f=f: f(2.0 * I2), lambda f=f: f(_middle(2.0 * I2, I2))


def _fit_data(k: float) -> np.ndarray:
    # exp(k eps) I over the default grid, as _fit takes one family.
    eps = np.array(expansion.DEFAULT_GRID.eps_grid)
    return (np.exp(k * eps)[:, None] * I2.ravel()).reshape(len(eps), 1, 4)


CASES = [
    ("hermitian", ValueError, lambda: matcore._check_hermitian(NOT_HERMITIAN),
     lambda: matcore._check_hermitian(_middle(NOT_HERMITIAN, I2))),
    ("hermitian-nan", ValueError, lambda: matcore._check_hermitian(np.full((2, 2), complex(math.nan))),
     lambda: matcore._check_hermitian(_middle(np.full((2, 2), complex(math.nan)), I2))),
    ("hermitian-construction", ValueError, lambda: matcore.HermitianMatrix(NOT_HERMITIAN),
     lambda: matcore._check_hermitian(_middle(NOT_HERMITIAN, I2)[None].repeat(2, axis=0))),
    *_certificate_cases(),
    *_functional_cases(),
    *(
        (f"pauli-{e}", DomainError, lambda e=e: expansion.pauli_pair(e), lambda e=e: expansion._pauli_stacks((0.1, e, 0.2)))
        for e in (1.0, -1.5, math.nan, math.inf)
    ),
    ("fit-sanity", FitFailure, lambda: expansion._fit(expansion.DEFAULT_GRID, _fit_data(40.0)),
     lambda: expansion._fit(expansion.DEFAULT_GRID, np.concatenate([_fit_data(1.0), _fit_data(40.0), _fit_data(1.0)], axis=1))),
    ("masa", NotInCone, lambda: preserver.masa_eval(preserver.MasaFunctional(1.0), OUT_OF_CONE),
     lambda: preserver.masa_eval(preserver.MasaFunctional(1.0), _middle(OUT_OF_CONE, I2))),
    *(
        (f"masa-overflow-{name}", DomainError, lambda f=f: f(HUGE), lambda f=f: f(_middle(HUGE, I2)))
        for name, f in (("split", preserver.masa_split), ("eval", lambda X: preserver.masa_eval(preserver.MasaFunctional(1.0), X)))
    ),
    *(
        (f"congruence-nan-{n}", SingularError, lambda n=n: matcore.congruence(np.full((n, n), math.nan), np.eye(n)),
         lambda n=n: matcore._congruences(_middle(np.full((n, n), complex(math.nan)), np.eye(n)), _middle(np.eye(n), np.eye(n))))
        for n in (2, 3)
    ),
    ("from-function-positivity", DomainError, lambda: means.mean(DROPPING, PdMatrix.certify(I2), PdMatrix.certify(SPREAD)),
     lambda: means._mean_arr(DROPPING, _middle(I2, I2), _middle(SPREAD, I2))),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("error, lone, stacked", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_a_stack_is_refused_in_the_words_of_its_failing_operand(error, lone, stacked):
    with pytest.raises(error) as alone:
        lone()
    with pytest.raises(error, match=f"^{re.escape(str(alone.value))}$") as inside:
        stacked()
    assert type(inside.value) is type(alone.value)


@pytest.mark.filterwarnings("error")
def test_refusals_name_their_values_as_python_floats():
    # numpy 2's scalar repr (np.float64(4.0)) stays out of the texts.
    A = PdMatrix.certify(SPREAD)
    with pytest.raises(DomainError, match=r"^scalar function failed at eigenvalue 1\.0: math domain error$"):
        matcore.func_calc(A, lambda x: math.log(x - 2.0))
    with pytest.raises(DomainError, match=r"^scalar function returned non-finite value at 4\.0$"):
        matcore.func_calc(A, lambda x: math.inf if x > 2.0 else 1.0)
    with pytest.raises(DomainError, match=r"^representing function must stay positive, got -2\.0 at 4\.0$"):
        means.mean(DROPPING, PdMatrix.certify(I2), A)
    with pytest.raises(DomainError, match=r"^affine coordinates overflow: t = inf, s = nan$"):
        preserver.masa_split(HUGE)


def _refusal(call):
    # The type and text of the error a call raises.
    with pytest.raises(MeanlabError) as caught:
        call()
    return type(caught.value), str(caught.value)


def _at_tolerance(factor: float) -> np.ndarray:
    # diag(1, lambda) with lambda at pd_tolerance * factor, its norm 1 to
    # the last bit: each kind's mean of the matrix with itself, and each
    # geodesic's point at t = 0, is the matrix to within a few ulps.
    return np.diag([1.0, matcore.PD_TOLERANCE * factor]).astype(complex)


def _routes(kind, a, b):
    # A lone 2x2 result by the public call, which certifies the parts of
    # its route (matcore._pd_parts), and by _pd_result of the array route;
    # a geodesic's at t = 0.
    A, B = matcore.HermitianMatrix._wrap(a), matcore.HermitianMatrix._wrap(b)
    if isinstance(kind, GeodesicKind):
        return lambda: geodesic(kind, A, B, 0.0), lambda: matcore._pd_result(_curve_points(kind, a, b, (0.0,))[0])
    return lambda: means.mean(kind, A, B), lambda: matcore._pd_result(means._mean_arr(kind, a, b))


SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
ROUTED_KINDS = [
    means.HARMONIC, means.GEOMETRIC, means.kubo_ando_power(0.5), means.kubo_ando_power(-0.5),
    means.conventional_power(0.5), means.SPECTRAL_GEOMETRIC, means.WASSERSTEIN, GEODESIC_TRACE, GEODESIC_BW,
]
MISSED = _at_tolerance(1.0 - 1e-3)
PARTS_REFUSALS = [
    # A result whose lambda_min misses pd_tolerance by a part in 1e3.
    *((f"tolerance-{kind.label}", kind, MISSED, MISSED, PositivityError, "minimum eigenvalue 9.99")
      for kind in ROUTED_KINDS),
    # The harmonic form's ratio, the pencil's roots and a determinant.
    ("harmonic-ratio", means.HARMONIC, 1e-10 * I2, 1e305 * I2, DomainError, "2x2 harmonic form"),
    ("pencil-roots-m_0.5", means.kubo_ando_power(0.5), 1e-10 * I2, 1e305 * I2, DomainError, "2x2 pencil form"),
    ("pencil-roots-trace", GEODESIC_TRACE, 1e155 * I2, 1e-155 * I2, DomainError, "2x2 pencil form"),
    ("determinant-geometric", means.GEOMETRIC, SINGULAR, I2, PositivityError, "2x2 closed form"),
    ("determinant-bw", GEODESIC_BW, I2, SINGULAR, PositivityError, "2x2 closed form"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind, a, b, error, text", [case[1:] for case in PARTS_REFUSALS], ids=[case[0] for case in PARTS_REFUSALS]
)
def test_the_parts_route_refuses_in_the_words_of_the_array_route(kind, a, b, error, text):
    # The parts route raises the error type and text that the array route
    # raises, with no numpy warning.
    parts_route, array_route = _routes(kind, a, b)
    got = _refusal(parts_route)
    assert got == _refusal(array_route)
    assert got[0] is error and got[1].startswith(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ROUTED_KINDS, ids=lambda kind: kind.label)
def test_the_parts_route_certifies_just_above_the_tolerance(kind):
    # A part in 1e3 above pd_tolerance, both routes certify, with one array
    # and one lambda_min.
    X = _at_tolerance(1.0 + 1e-3)
    P, Q = (route() for route in _routes(kind, X, X))
    assert P.mat.tobytes() == Q.mat.tobytes() and P.min_eigenvalue.hex() == Q.min_eigenvalue.hex()
