"""Kochen-Specker colorability toolkit for integer 3-vectors."""

from .vectors import (
    VectorSet,
    build_Q,
    build_Qn,
    canonicalize,
    enumerate_S,
    is_well_signed,
    norm_sq,
)
from .orthograph import OrthoGraph, build_graph
from .solver import SolveResult, export_cnf, solve, verify_coloring
from .certificate import (
    Certificate,
    load_bundled_certificate,
    parse_certificate,
    verify_certificate,
)
from .ffproj import (
    enumerate_projections,
    project_mod_p,
    reduce_set_mod_p,
    restricted_ks_search,
    search_ba_coloring,
)

__version__ = "0.1.0"
