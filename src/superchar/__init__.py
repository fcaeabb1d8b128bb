"""Exact supercharacter theories of unipotent groups defined by
anti-involutions (orthogonal, symplectic, unitary, and mirror-poset
pattern subgroups) over small finite fields."""

from .cyclotomic import CycloRational, CycloValue, root_power
from .gf import FieldTower, Theta, make_tower
from .involution_group import (
    BuiltGroup,
    GroupSpec,
    SpaceBasis,
    build_group,
    load_spec,
)
from .orbits import (
    OrbitIndex,
    orbit_partition_dual,
    orbit_partition_u,
    two_sided_canonical,
    two_sided_orbit_partition_g,
)
from .sct import (
    SuperclassTable,
    SupercharTable,
    algebra_group_sct,
    induction_oracle,
    intersection_check,
    supercharacters,
    superclasses,
    theory,
    verify_axioms,
)
from .triangular import (
    Involution,
    MirrorPoset,
    TriMatrix,
    cayley,
    cayley_inv,
    pattern_space,
    trunc_exp,
    trunc_log,
)
from .unitary import (
    TwistedSetPartition,
    enumerate_twisted,
    formula_value,
    nst,
)

__version__ = "0.1.0"
