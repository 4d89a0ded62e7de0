"""Transient entanglement of two dipole-coupled two-level atoms.

Simulates the spontaneous-emission dynamics of an atom pair at arbitrary
separation and tracks the concurrence and negativity it generates.
"""

from .couplings import (
    CouplingRates,
    Geometry,
    GeometryError,
    collective_damping,
    dipole_dipole_shift,
    rates_from_geometry,
)
from .dynamics import (
    AtomPairParams,
    DickeSingularityError,
    InvariantError,
    TimeGrid,
    evolve_analytic,
    evolve_block_ode,
    evolve_full_master,
    total_spin_squared,
)
from .entanglement import (
    EntanglementReport,
    block_report,
    closed_form_C2_double,
    closed_form_C2_single,
    closed_form_N2_single,
    concurrence_bell_form,
    negativity_generic,
    relation_negativity,
    wootters_generic,
)
from .scenarios import Scenario, Trajectory, run_scenario, sweep
from .statespace import (
    BellState4,
    BlockState,
    CollectiveState,
    from_bell,
    from_collective,
    is_block_form,
    to_bell,
    to_collective,
    validate,
)

__all__ = [
    "AtomPairParams",
    "BellState4",
    "BlockState",
    "CollectiveState",
    "CouplingRates",
    "DickeSingularityError",
    "EntanglementReport",
    "Geometry",
    "GeometryError",
    "InvariantError",
    "Scenario",
    "TimeGrid",
    "Trajectory",
    "block_report",
    "closed_form_C2_double",
    "closed_form_C2_single",
    "closed_form_N2_single",
    "collective_damping",
    "concurrence_bell_form",
    "dipole_dipole_shift",
    "evolve_analytic",
    "evolve_block_ode",
    "evolve_full_master",
    "from_bell",
    "from_collective",
    "is_block_form",
    "negativity_generic",
    "rates_from_geometry",
    "relation_negativity",
    "run_scenario",
    "sweep",
    "to_bell",
    "to_collective",
    "total_spin_squared",
    "validate",
    "wootters_generic",
]
