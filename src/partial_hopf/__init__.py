"""Exact partial actions and coactions of finite-dimensional Hopf algebras
on the base field, with verifiers, self-duality transport, and a
classification solver.  All arithmetic is exact; symbolic parameters make
"for all alpha" statements polynomial identities.

The package exports lazily (PEP 562): ``_EXPORTS`` names each public name
once, under its home module, and the first access to a name imports that
module alone.  So ``import partial_hopf`` compiles no layer, and a process
that needs only ``partial_hopf.algebras`` never runs the classifier's
module.  ``from partial_hopf import *`` binds every name of ``__all__``.
"""

from importlib import import_module

_EXPORTS = {
    "algebras": (
        "InvalidOrder", "dual_group_algebra_cyclic", "group_algebra_cyclic",
        "nichols", "nichols_dual", "taft", "taft_dual",
    ),
    "classify": (
        "BranchLimitExceeded", "ClassificationError", "ClassifiedActions",
        "NonCyclicGrouplikes", "SolverUnsupported",
        "classify_base_field_actions",
    ),
    "duality": (
        "HopfMorphism", "check_character_sum", "compose", "is_identity",
        "nichols_from_dual", "nichols_to_dual", "taft_from_dual",
        "taft_to_dual", "transport", "verify_hopf_morphism",
        "verify_inverse_pair",
    ),
    "exact_arith": (
        "CycNumber", "OrderMismatch", "ParamPoly", "cyc_invert",
        "cyclotomic_polynomial", "divisors", "euler_phi", "zeta_pow",
    ),
    "expr": ("parse_poly",),
    "families": (
        "Family", "NotADivisor", "dual_group_action_families",
        "group_action_families", "instance_residual",
        "nichols_action_families", "nichols_coaction_families",
        "nichols_counit_action", "nichols_global_coaction",
        "nichols_parametric_action", "nichols_parametric_coaction",
        "taft_action_families", "taft_coaction_families",
        "taft_parametric_action", "taft_parametric_coaction",
        "taft_subgroup_action", "taft_subgroup_coaction",
        "verify_partial_action", "verify_partial_coaction",
    ),
    "hopf_core": (
        "HopfData", "HopfFormatError", "HopfValidationError", "Report",
        "dual_hopf", "from_json_dict", "to_json_dict", "validate_all",
    ),
    "qcomb": (
        "Verdict", "check_identity", "check_pascal", "generic_q",
        "q_binomial", "q_factorial", "q_number",
    ),
    "reference_tables": ("reference_checks",),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
