"""curv4: numerical curvature laboratory for explicit 4-manifolds."""

__version__ = "0.1.0"

from .bivector import (
    CurvatureLike, hodge_star, kulkarni_nomizu, plucker_residual, wedge,
)
from .curvature import (
    CurvatureFrameData, ConditionReport, TwoFormField, christoffel,
    condition_check, decompose, holomorphic_bisectional, kaehler_form,
    lemma21_check, min_sectional_curvature, riemann_at, weitzenboeck_residual,
    weyl_blocks,
)
from .errors import (
    ChartDomainError, Curv4Error, MetricConstructionError,
    NonMinimalSurfaceError, RefinementError, SectionError, SpecParseError,
)
from .metrics import (
    Chart, KaehlerStructure, MetricField, QuadSpec, flat_space, fubini_study,
    ht_metric, kaehler_residuals, parse_metric_spec, product_spheres,
    round_sphere4, twisted_eps_max, twisted_metric, volume,
)
from .stability import (
    IndexForm, SectionBasis, assemble_index_form, near_holomorphic_section,
    refine_until_stable, theorem_c_harness,
)
from .surfaces import (
    NormalSection, SecondFundamentalForm, SurfaceImmersion, a_wedge_a_sq, area,
    chern_number, cp1_line, dbar_perp_sq, equator_sphere, induced_geometry,
    k_perp_extrinsic, k_perp_intrinsic, log_norm_check, normal_connection,
    parallel_section, parse_surface_spec, perturbed_slice, product_slice,
    second_fundamental, second_variation, surface_geometry,
    variational_identity_lemma310, weitzenboeck_variation,
)
