"""Exact supercharacter theories of unipotent groups defined by
anti-involutions (orthogonal, symplectic, unitary, and mirror-poset
pattern subgroups) over small finite fields.

Each export is imported from its module on first use (PEP 562), so
importing the package, or one module of it such as ``superchar.cli``,
loads only the modules that are read."""

# every export, by the module that defines it
_MODULE_EXPORTS = {
    "cyclotomic": ("CycloRational", "CycloValue", "root_power"),
    "gf": ("FieldTower", "Theta", "make_tower"),
    "involution_group": ("BuiltGroup", "GroupSpec", "SpaceBasis", "build_group", "load_spec"),
    "orbits": (
        "OrbitIndex",
        "orbit_partition_dual",
        "orbit_partition_u",
        "two_sided_canonical",
        "two_sided_orbit_partition_g",
    ),
    "sct": (
        "SuperclassTable",
        "SupercharTable",
        "algebra_group_sct",
        "induction_oracle",
        "intersection_check",
        "supercharacters",
        "superclasses",
        "theory",
        "verify_axioms",
    ),
    "triangular": ("Involution", "MirrorPoset", "TriMatrix", "cayley", "pattern_space"),
    "unitary": ("TwistedSetPartition", "enumerate_twisted", "formula_value", "nst"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
