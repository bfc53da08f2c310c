"""Exact-arithmetic toolkit for dualities between non-unital algebras and
non-counital coalgebras.

Everything is computed over ℚ or a prime field with no floating point
anywhere: unitalizations and counitalizations with their adjunctions,
convolution duals, finite-dual membership for graded algebras, path and
incidence (co)algebras, injective decompositions of counital coalgebras,
rational duals, and one-sided semiperfectness certificates for infinite
quiver templates.  The `suite` module packages the theorem battery the
test suite gates on; `cli` exposes it all as the `dualis` command.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraMorphism,
    FinAlgebra,
    matrix_algebra,
    quotient_algebra,
    radical,
    unitalize,
)
from .coalgebra import (
    CoalgebraMorphism,
    FinCoalgebra,
    comatrix,
    comatrix_cover,
    coradical,
    counital_lift,
    counitalize,
    dual_algebra,
    dual_coalgebra,
    dual_unitalization_iso,
    subcoalgebra_generated,
)
from .combinat import (
    FiniteTemplate,
    Poset,
    Quiver,
    all_posets_up_to_iso,
    incidence_algebra,
    incidence_coalgebra,
    make_template,
    path_algebra,
    path_coalgebra,
    semiperfect_check,
    verify_incidencedual_iso,
    verify_pathdual_iso,
)
from .comodule import (
    FinComodule,
    FinModule,
    ModuleMorphism,
    comodule_to_dual_module,
    lattice_agreement_check,
    module_to_comodule,
    subcomodule_generated,
)
from .errors import DualisError
from .fields import GF, QQ, Field, field_from_name
from .finite_dual import (
    FinBialgebra,
    GradedAlgebra,
    bialgebra_dual,
    delta_of_functional,
    group_bialgebra,
    linrec_analyze,
    membership_bounded,
    polynomial_algebra,
    seq_functional,
    unital_dual_compat,
)
from .idempotents import complete_primitive_idempotents, verify_family
from .linalg import RowSpace, SparseMatrix
from .reflexivity import (
    decompose_injectives,
    hopf_selfdual_check,
    left_coreflexive_check,
    phi_l,
    rat_dual,
    rat_dual_template,
    semiperfect_iff_injective_harness,
)
from .report import Report
from .specdoc import parse_spec
from .suite import builtin_suite, run_document

__all__ = [
    "AlgebraMorphism",
    "CoalgebraMorphism",
    "DualisError",
    "Field",
    "FinAlgebra",
    "FinBialgebra",
    "FinCoalgebra",
    "FinComodule",
    "FinModule",
    "ModuleMorphism",
    "FiniteTemplate",
    "GF",
    "GradedAlgebra",
    "Poset",
    "QQ",
    "Quiver",
    "Report",
    "RowSpace",
    "SparseMatrix",
    "all_posets_up_to_iso",
    "bialgebra_dual",
    "builtin_suite",
    "comatrix",
    "comatrix_cover",
    "comodule_to_dual_module",
    "complete_primitive_idempotents",
    "coradical",
    "counital_lift",
    "counitalize",
    "decompose_injectives",
    "delta_of_functional",
    "dual_algebra",
    "dual_coalgebra",
    "dual_unitalization_iso",
    "field_from_name",
    "group_bialgebra",
    "hopf_selfdual_check",
    "incidence_algebra",
    "incidence_coalgebra",
    "lattice_agreement_check",
    "left_coreflexive_check",
    "linrec_analyze",
    "make_template",
    "matrix_algebra",
    "membership_bounded",
    "module_to_comodule",
    "parse_spec",
    "path_algebra",
    "path_coalgebra",
    "phi_l",
    "polynomial_algebra",
    "quotient_algebra",
    "radical",
    "rat_dual",
    "rat_dual_template",
    "run_document",
    "semiperfect_check",
    "semiperfect_iff_injective_harness",
    "seq_functional",
    "subcoalgebra_generated",
    "subcomodule_generated",
    "unital_dual_compat",
    "unitalize",
    "verify_family",
    "verify_incidencedual_iso",
    "verify_pathdual_iso",
]
