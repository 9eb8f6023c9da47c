"""Shift spaces over ultragraphs with infinite alphabets.

Exact symbolic algebra for indexed vertex/edge families, ultragraphs with
piecewise-affine structure, their path and point spaces, the cylinder
topology, finitely defined sets, and checkers for the conditions
characterizing continuous shift commuting maps and generalized sliding
block codes.
"""

from .intsets import (
    INFINITE,
    AffineIndexMap,
    IDENTITY_MAP,
    IndexSet,
    SymbolicSet,
    const_map,
    shift_map,
)
from .graphs import (
    EdgeFamily,
    EdgeRef,
    GraphError,
    MinimalEmitter,
    RangeCase,
    SourceCase,
    Ultragraph,
    validate_ultragraph,
)
from .paths import Block, PathError, Ultrapath, enumerate_blocks
from .points import (
    ConvergenceBounds,
    Cylinder,
    FinitePoint,
    PeriodicPoint,
    PointError,
    RepeatFamily,
    check_convergence,
    concat,
    coordinate,
    cylinder_contains,
    is_prefix,
    length,
    neighborhood_basis,
    shift,
    shift_cylinder,
    shift_n,
)
from .definable import (
    FdPresentation,
    LitAtom,
    PcSchema,
    RepAtom,
    SetOracle,
    VarAtom,
    decompose_cylinder,
    fd_intersect,
    fd_union,
    pc_contains,
    pseudo_cylinder,
    refute_finitely_defined,
    validate_fd_presentation,
)
from .codes import (
    MapError,
    MapPresentation,
    OracleClass,
    PartitionError,
    RuleMap,
    SchemaClass,
    check_commuting,
    check_csc_item_i,
    check_csc_item_ii,
    check_csc_item_iii,
    check_genchl_iia,
    check_genchl_iib,
    check_length_preserving,
    check_period_preservation,
    compute_A_x,
    eval_map,
    eval_resolved,
    probe_continuity,
    validate_partition,
)
from .verdicts import FAILS, HOLDS, NOT_APPLICABLE, UNKNOWN, Verdict
from .corpus import build_fixture, run_fixture

__version__ = "0.1.0"
