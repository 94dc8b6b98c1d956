"""Scenario builders shared by ``worker.py`` and ``first_op.py``.

They turn the plain inputs of ``inputs.py`` into the package's public
``Scenario`` objects.  Only ``rindler_resonance`` itself is imported
here, never ``cli``, so ``first_op.py`` can time a set-up that does not
pay for the command-line layer.  The caller puts ``src/`` on
``sys.path`` first.
"""

from __future__ import annotations

import rindler_resonance as rr

import inputs

PARITY = {"sym": rr.Parity.SYMMETRIC, "anti": rr.Parity.ANTISYMMETRIC}


def point_scenario(p: inputs.Point):
    if p.field == "scalar":
        return rr.Scenario.scalar_field(
            acceleration=p.acceleration,
            separation=p.separation,
            omega0=p.omega0,
            parity=PARITY[p.parity],
            coupling=p.coupling,
        )
    return rr.Scenario.em_field(
        acceleration=p.acceleration,
        separation=p.separation,
        omega0=p.omega0,
        parity=PARITY[p.parity],
        dipole_a=p.dipole_a,
        dipole_b=p.dipole_b,
    )


def point_energy(scenario):
    if scenario.field_kind is rr.FieldKind.SCALAR:
        return rr.scalar_resonance_energy(scenario)
    return rr.em_resonance_energy(scenario)


def oracle_scenario(op: inputs.OracleOp):
    kind = rr.FieldKind.SCALAR if op.field == "scalar" else rr.FieldKind.EM
    dipoles = op.dipoles if op.field == "em" else (None, None)
    return rr.Scenario.from_reduced(
        theta=op.theta,
        zeta=op.zeta,
        parity=PARITY[op.parity],
        field_kind=kind,
        dipole_a=dipoles[0],
        dipole_b=dipoles[1],
    )
