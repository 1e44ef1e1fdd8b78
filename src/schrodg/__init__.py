"""Space-time ultra-weak Trefftz DG solver for the free Schrodinger equation."""

from .assembly import (BoundaryData, DiscreteSolution, SlabSolveError, SlabSystem,
                       apply_form_to_field, assemble_global, assemble_slab,
                       constant_data, element_bases, export_matrix_market, march,
                       solution_data, solve_global)
from .basis import (ElementBasis, MeshBasis, SpaceKind, Wave, element_basis, eval_basis,
                    eval_basis_many, full_poly_basis, plane_wave_basis,
                    quasi_trefftz_basis, trefftz_basis)
from .linalg import SingularMatrixError, cond2, solve_lu
from .mesh import (Element, Facet, FacetKind, FacetRole, Mesh, SpaceTimeDomain,
                   build_cartesian_mesh, facets_of, local_quasi_uniformity,
                   mesh_summary, mesh_summary_json)
from .norms import (ClosedFormField, DifferenceField, PiecewisePolyField, dg_norm,
                    dg_plus_norm, exact_field, l2_slice_error)
from .poly import (MultiIndex, ScaledPolynomial, apply_schrodinger, eval_poly,
                   eval_poly_many, extended_taylor_poly, mi, poly_combination,
                   taylor_poly)
from .quadrature import (QuadratureRule, gauss_legendre, integrate_interval,
                         integrate_rect)
from .solutions import (ExpSolution, ExpSolutionND, SquareWellSeries, series_eval,
                        square_well_initial)

__version__ = "0.1.0"
