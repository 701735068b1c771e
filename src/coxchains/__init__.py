"""Chain-orbit counts K(W) for finite Coxeter groups, three ways:
brute-force orbit counting on the intersection lattice, parabolic
recursion, and closed forms / generating series."""

__version__ = "0.1.0"

from .field import FieldScalar, Subspace, canonical_subspace, null_space
from .graphs import (
    CoxeterGraph,
    GroupSpecError,
    ClassificationError,
    TypeLabel,
    canonical_spec,
    classify_irreducible,
    connected_components,
    longest_element_automorphism,
    parse_group_spec,
    standard_graph,
)
from .lattice import (
    ChainOrbitCount,
    GeneratorAction,
    IntersectionLattice,
    build_lattice,
    build_lattice_with_action,
    count_chain_orbits,
    count_maximal_chains,
    orbit_count_of_lines,
)
from .models import ReflectionModel, UnsupportedModelError, build_model
from .recursion import KCalculator, KResult
from .series import (
    EgfSeries,
    bar_d_closed_form,
    euler_numbers,
    k_closed_form,
    verify_identities,
)
