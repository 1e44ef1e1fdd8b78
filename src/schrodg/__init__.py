"""Space-time ultra-weak Trefftz DG solver for the free Schrodinger equation."""

from .assembly import (BoundaryData, DiscreteSolution, FacetKind, SlabSolveError,
                       apply_form_to_field, assemble_global, constant_data, element_bases,
                       march, solution_data, solve_global)
from .basis import (ElementBasis, MeshBasis, SpaceKind, Wave, element_basis, eval_basis_many,
                    trefftz_basis)
from .linalg import SingularMatrixError, cond2
from .mesh import Element, Mesh, SpaceTimeDomain, build_cartesian_mesh
from .norms import (ClosedFormField, DifferenceField, PiecewisePolyField, dg_norm,
                    dg_plus_norm, exact_field, l2_slice_error)
from .poly import (MultiIndex, ScaledPolynomial, apply_schrodinger, eval_poly_many,
                   extended_taylor_poly, mi, poly_combination, taylor_poly)
from .quadrature import QuadratureRule, gauss_legendre
from .solutions import ExpSolution, ExpSolutionND, SquareWellSeries, square_well_initial

__version__ = "0.1.0"
