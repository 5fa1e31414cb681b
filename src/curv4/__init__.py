"""curv4: numerical curvature laboratory for explicit 4-manifolds."""

__version__ = "0.1.0"

from .bivector import bianchi_residual, hodge_star, plucker_residual, wedge
from .curvature import (
    ConditionReport, condition_check, decompose, kaehler_form,
    kaehler_residuals, lemma21_check, riemann_at, sectional_extremes,
    weitzenboeck_residual,
)
from .errors import (
    ChartDomainError, Curv4Error, MetricConstructionError,
    NonMinimalSurfaceError, RefinementError, SectionError, SpecParseError,
)
from .metrics import (
    Chart, J_STANDARD, MetricField, QuadSpec, flat_space, fubini_study,
    ht_metric, parse_metric_spec, product_spheres, round_sphere4,
    twisted_eps_max, twisted_metric, volume,
)
from .stability import (
    IndexForm, SectionBasis, assemble_index_form, near_holomorphic_section,
    refine_until_stable, theorem_c_margins,
)
from .surfaces import (
    NormalSection, SurfaceImmersion, a_wedge_a_sq, chern_number,
    cp1_line, dbar_sq, equator_sphere, kperp_extrinsic_field,
    parse_surface_spec, perturbed_slice, product_slice, section_data,
    surface_geometry, variational_identity_lemma310, weitzenboeck_variation,
)
