"""numpy loads only where arrays are: importing the package, scalar
closed forms, a scalar ``compute`` and ``regimes`` run without it, and
the lazily resolved names are the same objects as their modules'."""

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

scenario = rr.Scenario.scalar_field(
    acceleration=1e20, separation=1e-6, omega0=1e15, parity=rr.Parity.SYMMETRIC
)
rr.scalar_resonance_energy(scenario)
assert cli.main([
    "compute", "--field", "scalar", "--parity", "anti",
    "--accel", "1e17", "--sep", "1.0", "--omega0", "3e8",
]) == 0
assert cli.main(["regimes", "--accel", "1e20", "--omega0", "1e15", "--sep", "0.01"]) == 0
em_scenarios = [
    rr.Scenario.em_field(
        acceleration=1e20, separation=1e-6, omega0=1e15, parity=rr.Parity.SYMMETRIC,
        dipole_a=[1, 0, 0], dipole_b=(0.0, 0.0, 1.0),
    )
    for _ in range(2)
]
assert em_scenarios[0] == em_scenarios[1] and hash(em_scenarios[0]) == hash(em_scenarios[1])
assert "numpy" not in sys.modules, "the scalar path loaded numpy"
assert cli.main([
    "compute", "--field", "em", "--parity", "sym", "--sep", "0.5", "--omega0", "1e8",
    "--dipole-a", "x", "--dipole-b", "z", "--format", "csv",
]) == 0
assert "numpy" in sys.modules
"""


def test_scalar_paths_never_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-W", "error", "-c", SCRIPT, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 20


def test_every_public_name_resolves():
    for name in rindler_resonance.__all__:
        assert getattr(rindler_resonance, name) is not None, name
    assert set(rindler_resonance.__all__) <= set(dir(rindler_resonance))


def test_moved_exceptions_are_reexported_unchanged():
    assert rindler_resonance.QuadratureError is rindler_resonance.quad.QuadratureError
    assert rindler_resonance.SingularityError is rindler_resonance.quad.SingularityError
