"""Numerical warnings are not silenced, quad is not used, and no warnings arise."""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heatrates import integral_tests as it
from heatrates import kernels as kn
from heatrates import potential as pt
from heatrates import scaling as sc
from heatrates.errors import BracketError, PreconditionError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heatrates"
#: modules allowed to import scipy.integrate or silence warnings: every
#: integral, the classifier's blocks included, runs on the shared
#: Gauss-Legendre rule of integral_tests
ALLOWED = set()


def _offences(path: Path) -> list[str]:
    """Imports of scipy.integrate and warnings.simplefilter("ignore", ...) calls."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.integrate")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.integrate"):
                found.append(node.module)
            elif node.module == "scipy":
                found += [f"scipy.{a.name}" for a in node.names if a.name == "integrate"]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "simplefilter"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "ignore"
        ):
            found.append(f"simplefilter('ignore') at line {node.lineno}")
    return found


def test_no_module_uses_quad_or_silences_warnings():
    offences = {p.stem: _offences(p) for p in PACKAGE.glob("*.py")}
    assert {name for name, found in offences.items() if found} == ALLOWED, offences


def test_importing_the_package_does_not_load_scipy_integrate():
    # a fresh interpreter, so that no other test's imports count
    code = (
        "import importlib, pkgutil, sys, heatrates\n"
        "for m in pkgutil.iter_modules(heatrates.__path__):\n"
        "    importlib.import_module('heatrates.' + m.name)\n"
        "print(sorted(n for n in sys.modules if n.startswith('scipy.integrate')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "[]"


#: a fresh interpreter's view of scipy: whether scipy's own package (its
#: scipy._lib) and scipy.special's ufuncs are loaded after importing the
#: package, after powerlog's exact inverse (a float and an array, one target
#: per branch of Wright's omega) and one upper rate test with a powerlog
#: candidate, and after one chdtrc call; then the values as float hex
_FIRST_USE = (
    "import sys\n"
    "{preload}"
    "import heatrates.integral_tests as it, heatrates.kernels as kn, heatrates.potential\n"
    "import heatrates.scaling as sc, heatrates.simulate\n"
    "print('scipy._lib' in sys.modules, 'scipy.special._ufuncs' in sys.modules)\n"
    "phi = sc.from_id('powerlog:1.5,1')\n"
    "b = [sc.inverse(phi, 10.0)] + sc.inverse(phi, [1e-300, 0.5, 10.0, 1e300]).tolist()\n"
    "cand = sc.RateCandidate(sc.SUBCRITICAL, phi, sc.powerlog(0.0, -0.5))\n"
    "v = it.upper_rate_test(sc.power(-1.5), sc.power(1 / 1.5), cand, 1.0, it.ONE_PROB)\n"
    "print('scipy._lib' in sys.modules, 'scipy.special._ufuncs' in sys.modules)\n"
    "a = kn.radial_sf(kn.from_id('gaussian:3'), 1.0, 1.0)\n"
    "print('scipy._lib' in sys.modules, 'scipy.special._ufuncs' in sys.modules)\n"
    "print(a.hex(), *[x.hex() for x in b], v.label, v.partial_sum.hex())\n"
)


def _first_use(preload: str) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FIRST_USE.format(preload=preload)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return out.stdout.split("\n")


def test_scipy_special_loads_on_first_use():
    # importing the five modules loads no part of scipy, nor does the
    # classifier with powerlog's exact inverse (Wright's omega is numpy);
    # the first chdtrc call loads scipy and scipy.special, and the values
    # are those of a process that imported it first
    lazy = _first_use("")
    assert lazy[:3] == ["False False", "False False", "True True"]
    eager = _first_use("import scipy.special\n")
    assert eager[:3] == ["True True"] * 3
    assert lazy[3] == eager[3]


@pytest.mark.parametrize("spec", ["stable:1.5,3", "stable:0.5,1", "stable:1.9,2", "gaussian:3"])
def test_green_function_raises_no_warnings(spec):
    m = kn.from_id(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (0.5, 2.0, 8.0):
            pt.green_function(m, d)
            pt.green_function(m, d, pt.QUADRATURE)
        try:  # d^-(a+b) passes the float range in the envelope's off-diagonal branch
            pt.green_function(m, 1e-250)
        except PreconditionError:  # G(d) itself does on stable:1.5,3: raised, not warned
            pass


def test_envelope_only_tail_raises_no_warnings():
    m = kn.from_id("stablelike:3,1.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0, 4.0, 100.0):
            for r in (0.5, 3.0, 64.0):
                assert kn.tail_probability(m, t, r).estimate is None


def test_array_integrands_raise_no_warnings():
    # the named tests and the long-run class evaluate their integrands on
    # arrays, and inverse solves arrays of targets: none of it warns
    import numpy as np

    from heatrates import integral_tests as it
    from heatrates import scaling as sc
    from heatrates.errors import BracketError

    beta = 1.5
    h, rho = sc.power(-beta), sc.power(1.0 / beta)
    phi = sc.powerlog(beta, 1.0)
    subcritical = sc.RateCandidate(sc.SUBCRITICAL, phi, sc.powerlog(0.0, -0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        it.kolmogorov_test(sc.power(0.25), 3)
        it.dvoretzky_erdos_test(sc.powerlog(0.0, -2.0), 3)
        it.upper_rate_test(h, rho, subcritical, 1.0, it.ONE_PROB)
        it.upper_rate_test(h, rho, subcritical, 1.0, it.ZERO_PROB)
        it.subcritical_lower_rate_test(kn.from_id("jump:power:3;powerlog:1.5,1"), sc.powerlog(0.0, -1.0))
        it.critical_lower_rate_test(sc.iterated_log_g(0.5))
        kn.classify_long_run(kn.from_id("jump:power:2;powerlog:1.5,1"))
        kn.classify_long_run(kn.from_id("stable:1.5,3"))
        bounded = sc.ScalingFunction(
            lambda r: r / (1.0 + r), sc.INCREASING, sc.fit_envelope(lambda r: r / (1.0 + r), 1e-6)
        )
        with pytest.raises(BracketError):
            sc.inverse(bounded, np.array([0.5, 2.0]))


def test_exact_powerlog_inverse_raises_no_warnings():
    # the Wright omega closed form, on floats and arrays, from targets near 0
    # to targets whose roots overflow (an OverflowError, not a RuntimeWarning)
    f = sc.powerlog(0.4, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc.inverse(f, np.geomspace(1e-300, 1e100, 50))
        sc.inverse(f, 1e-300)
        sc.inverse(sc.powerlog(4.0, 3.0), np.geomspace(1e-300, 1e300, 50))
        for y in (np.array([10.0, 1e300]), 1e300):
            with pytest.raises(OverflowError):
                sc.inverse(f, y)
