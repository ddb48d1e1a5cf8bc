"""Exact barycentric exterior calculus on simplicial and prismal complexes.

The package builds the two prismal sheaves attached to a simplicial
morphism, computes Whitney forms and their relative calculus with exact
rational coefficients, and constructs relative primitives of fiberwise-
exact piecewise-polynomial forms, with every structural identity encoded
as an executable check.
"""

__version__ = "0.1.0"

from .mesh import (Prism, PrismalSet, Simplex, SimplicialComplex, SimplicialMorphism,
                   boundary_chain, incidence_number, join, prism_boundary,
                   prism_incidence)
from .forms import (CoordMap, CoordSystem, Form, Poly, canonicalize, d,
                    equal_mod_relations, integrate_fiber, integrate_top_form,
                    is_fiberwise_zero, pi_context, poincare_primitive,
                    prism_context, pullback, relative_d, restrict_to_face,
                    simplex_context, vertical_part, wedge, whitney_antiboundary,
                    whitney_form)
from .sheaf import (PrismalSheaf, build_Pf, build_Sf, check_Pf_characterization,
                    check_Sf_characterization, psi_coordinate_map, psi_morphism)
from .primitive import RelativePrimitive, build_relative_primitive
