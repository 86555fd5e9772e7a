"""Exact finite-group cohomology of integral Galois modules.

The package computes, with arbitrary-precision integer arithmetic:

* Smith/Hermite normal forms and presented finitely generated abelian
  groups (the universal value type),
* finite groups from permutation generators, their cyclic subgroups,
  exponents and the metacyclic test,
* integral G-modules, permutation modules, duals, and the
  permutation-cover resolution 0 -> L -> P -> M -> 0,
* group cohomology H^0..H^2 by inhomogeneous cochains and
  hypercohomology of two-term complexes by the total complex (a module M
  is the complex M -> 0),
* Sha groups Sha^i_S / Sha^i_omega over an abstract local datum, their
  quotients Sha_S / Sha_empty (``ShaGroup.quotient_by``), and machine
  verification of the vanishing and annihilation statements (the seeded
  suites behind ``shacalc verify`` live in ``suites``),
* the homogeneous-space layer: algebraic Brauer obstruction groups,
  dual complexes, fundamental groups from lattice data, quasi-trivial
  covers, and Ext^0 of isogeny complexes.
"""

from .abelian import (
    AbHom,
    PresentedAbelianGroup,
    invariant_factors,
    is_isomorphism,
)
from .arith import (
    BrauerGroups,
    CocharacterDatum,
    CoverResult,
    HomSpaceDatum,
    Pi1Groups,
    brauer_obstruction_groups,
    dual_complex,
    ext0_with_data,
    fundamental_group,
    pi1_obstruction_groups,
    quasi_trivial_cover,
)
from .cohomology import (
    CohomologyGroup,
    TwoTermComplex,
    cohomology,
    hypercohomology,
)
from .errors import InputError, InternalError, ResourceError, ShacalcError, StructuralError
from .gmodules import (
    GModule,
    GModuleHom,
    PermutationModule,
    PermutationResolution,
    augmentation_ideal,
    augmentation_quotient,
    dual_module,
    faithful_image,
    permutation_cover,
    permutation_module,
    regular_module,
    sign_module,
    trivial_module,
    zero_module,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    cyclic_subgroups,
    exponent,
    from_permutations,
    is_metacyclic,
)
from .intlinalg import IntMatrix, SmithDecomposition, smith_normal_form
from .sha import (
    LocalDatum,
    PlaceSelection,
    ShaGroup,
    sha,
    sha_omega,
    sha_two_term,
    verify_annihilation,
    verify_shift_isomorphism,
)
