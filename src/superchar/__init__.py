"""Exact supercharacter theories of unipotent groups defined by
anti-involutions (orthogonal, symplectic, unitary, and mirror-poset
pattern subgroups) over small finite fields."""

from .cyclotomic import CycloRational, CycloValue, inner_product, root_power
from .gf import (
    FieldElement,
    FieldTower,
    Theta,
    additive_char_exponent,
    frobenius_q,
    herm_trace,
    make_tower,
)
from .involution_group import (
    BuiltGroup,
    Functional,
    GroupSpec,
    SpaceBasis,
    build_group,
    extend_functional,
    load_spec,
    sub_l_r_g,
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
    dagger,
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
