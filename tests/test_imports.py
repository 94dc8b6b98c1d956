"""numpy loads only where arrays are: importing the package, the scalar
and EM energies and closed forms (on a list of points), the EM far-zone
asymptote of a crossed pair, a scalar or EM ``compute``, a linear or
log ``sweep`` and ``regimes``, a scenario, geometry or Unruh temperature
of Python ints, bools and Fractions, and an EM scenario whose dipoles
are a namedtuple, Fractions or Decimals run without it.  So do importing ``quad`` and
``oracle`` and every ``verify`` suite: scalar-pv, em-pv, asymptotes,
em-commutator and all.  The lazily resolved names are the same objects
as their modules'."""

import importlib
import pathlib
import subprocess
import sys

import rindler_resonance
import rindler_resonance.oracle
import rindler_resonance.quad

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

sys.path.insert(0, sys.argv[1])
import rindler_resonance as rr
from rindler_resonance import cli
from rindler_resonance.scalar import scalar_closed_form

scenario = rr.Scenario.scalar_field(
    acceleration=1e20, separation=1e-6, omega0=1e15, parity=rr.Parity.SYMMETRIC
)
rr.scalar_resonance_energy(scenario)
rows = scalar_closed_form(scenario, [(1e20, 1e-6, 1e15), (0.0, 1.0, 3e8)])
assert len(rows) == 2 and all(type(x) is float for row in rows for x in row)
assert cli.main([
    "compute", "--field", "scalar", "--parity", "anti",
    "--accel", "1e17", "--sep", "1.0", "--omega0", "3e8",
]) == 0
assert cli.main(["regimes", "--accel", "1e20", "--omega0", "1e15", "--sep", "0.01"]) == 0
assert "argparse" not in sys.modules, "the command line loaded argparse"
em_scenarios = [
    rr.Scenario.em_field(
        acceleration=1e20, separation=1e-6, omega0=1e15, parity=rr.Parity.SYMMETRIC,
        dipole_a=[1, 0, 0], dipole_b=(0.0, 0.0, 1.0),
    )
    for _ in range(2)
]
assert em_scenarios[0] == em_scenarios[1] and hash(em_scenarios[0]) == hash(em_scenarios[1])
from fractions import Fraction

exact = rr.Scenario.scalar_field(
    acceleration=10**20, separation=Fraction(1, 10**6), omega0=True, parity=rr.Parity.SYMMETRIC,
    coupling=2,
)
assert all(type(x) is float for x in (exact.acceleration, exact.separation, exact.omega0,
                                      exact.coupling))
rr.reduced_geometry(10**20, 1, 10**15)
rr.unruh_temperature(10**20)
assert "numpy" not in sys.modules, "the scalar path loaded numpy"
from rindler_resonance.em import em_closed_form

rr.em_resonance_energy(em_scenarios[0])
rows = em_closed_form(em_scenarios[0], [(1e20, 1e-6, 1e15), (0.0, 1.0, 3e8)])
assert len(rows) == 2 and all(type(x) is float for row in rows for x in row)
rr.em_farzone_asymptote(rr.Scenario.em_field(
    acceleration=1e20, separation=1.0, omega0=1e15, parity=rr.Parity.SYMMETRIC,
    dipole_a=(1.0, 0.0, 0.0), dipole_b=(0.0, 0.0, 1.0),
))
for fmt in ("text", "csv"):
    assert cli.main([
        "compute", "--field", "em", "--parity", "sym", "--accel", "1e17", "--sep", "0.5",
        "--omega0", "1e8", "--dipole-a", "x", "--dipole-b", "z", "--format", fmt,
    ]) == 0
assert "numpy" not in sys.modules, "the EM closed-form path loaded numpy"
import collections
from decimal import Decimal

Vector = collections.namedtuple("Vector", "x y z")
for dipole in (Vector(0.6, 0.0, -0.8), (Fraction(3, 5), 0, Fraction(-4, 5)),
               [Decimal("0.6"), Decimal(0), Decimal("-0.8")]):
    assert rr.Scenario.em_field(
        acceleration=1e20, separation=1e-6, omega0=1e15, parity=rr.Parity.SYMMETRIC,
        dipole_a=dipole, dipole_b=dipole,
    ).dipole_a == (0.6, 0.0, -0.8)
assert "numpy" not in sys.modules, "a dipole of Python numbers loaded numpy"
for spacing in ("lin", "log"):
    assert cli.main([
        "sweep", "--field", "scalar", "--parity", "sym", "--accel", "1e17", "--omega0", "1e8",
        "--param", "sep", "--from", "0.5", "--to", "1.5", "--points", "3", "--spacing", spacing,
    ]) == 0
assert "numpy" not in sys.modules, "a sweep loaded numpy"
"""


def test_scalar_paths_never_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-W", "error", "-c", SCRIPT, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 40


VERIFY_SCRIPT = """
import sys

sys.path.insert(0, sys.argv[1])
import rindler_resonance.oracle
import rindler_resonance.quad
from rindler_resonance import cli

assert "numpy" not in sys.modules, "importing quad and oracle loaded numpy"
for suite in ("scalar-pv", "em-pv", "asymptotes", "em-commutator", "all"):
    assert cli.main(["verify", "--suite", suite, "--out", "/dev/null"]) == 0
    assert "numpy" not in sys.modules, f"verify --suite {suite} loaded numpy"
"""


def test_verify_suites_never_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-W", "error", "-c", VERIFY_SCRIPT, str(SRC)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    modules = {
        name: importlib.import_module(f"rindler_resonance.{name}")
        for name in ("core", "scalar", "em", "quad", "oracle")
    }
    # Each module's __all__ is its share of the package's, listed once.
    assert rindler_resonance.__all__ == [
        *modules["core"].__all__, *modules["scalar"].__all__, *rindler_resonance._LAZY,
        "__version__",
    ]
    assert len(set(rindler_resonance.__all__)) == len(rindler_resonance.__all__)
    assert rindler_resonance._LAZY == {
        name: m for m in ("em", "quad", "oracle") for name in modules[m].__all__
    }
    assert set(rindler_resonance.__all__) <= set(dir(rindler_resonance))
    for module_name, module in modules.items():
        for name in module.__all__:
            value = getattr(rindler_resonance, name)
            assert value is getattr(module, name), f"{module_name}.{name}"


def test_moved_exceptions_are_reexported_unchanged():
    assert rindler_resonance.QuadratureError is rindler_resonance.quad.QuadratureError
    assert rindler_resonance.SingularityError is rindler_resonance.quad.SingularityError
