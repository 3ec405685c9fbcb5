"""Standard-cell tiling and SWAP scheduling for Toffoli-based circuits on qubit lattices.

The package builds tiled layouts for a reversible multiplier out of
pre-programmed Toffoli cells, extracts ordered SWAP+gate schedules from the
tiling, verifies them by classical and statevector simulation, lowers them to
lattice-surgery instruction streams, and benchmarks the tiled schedules
against a greedy baseline router.
"""

from celltiler.lattice import Site, Lattice, grid
from celltiler.circuit import (
    Gate,
    GateKind,
    Schedule,
    DepthPolicy,
    POLICIES,
    depth,
    t_metrics,
    swap_metrics,
)
from celltiler.cells import Tile, Placement, Layout, toffoli_cube, tdepth2_tile, and_tile, tile_supports
from celltiler import decomp
from celltiler.tiler import RegisterSpec, qubit_count, build_multiplier_layout, initial_mapping, usage_ratio
from celltiler.scheduler import (
    toffoli_step,
    ctrl_add_step,
    reset_step,
    full_multiplier_schedule,
    validate_schedule,
)
from celltiler.sim import classical_run, statevector_run, assert_equiv
from celltiler.lsx import extract_ls, validate_ls, LSProgram
from celltiler.router import greedy_route, compare

__all__ = [
    "Site", "Lattice", "grid",
    "Gate", "GateKind", "Schedule", "DepthPolicy", "POLICIES",
    "depth", "t_metrics", "swap_metrics",
    "Tile", "Placement", "Layout", "toffoli_cube", "tdepth2_tile", "and_tile", "tile_supports",
    "decomp",
    "RegisterSpec", "qubit_count", "build_multiplier_layout", "initial_mapping", "usage_ratio",
    "toffoli_step", "ctrl_add_step", "reset_step", "full_multiplier_schedule", "validate_schedule",
    "classical_run", "statevector_run", "assert_equiv",
    "extract_ls", "validate_ls", "LSProgram",
    "greedy_route", "compare",
]

__version__ = "0.1.0"
