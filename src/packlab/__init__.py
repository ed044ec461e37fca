"""packlab: exact sphere packings from Coxeter polytope data.

Pipeline: a Gram matrix of unit wall normals defines a Coxeter polytope
(coxeter); its real dual weights are sphere vectors (inversive, lorentz)
whose reflection orbit is a packing enumerated exactly (orbit, catalog);
curvature counts feed critical-exponent estimates (exponent); integral
lattice identities and surface-automorphism orbit counts have their own
toolkits (lattices, surfaces).
"""

from .catalog import band_seed, packing_seed, polytope
from .coxeter import (
    CoxeterPolytope,
    build_polytope,
    dual_polytope,
    is_packing_polytope,
    maxwell_level,
    reflection_in_normal_basis,
    reflection_in_weight_basis,
)
from .errors import (
    CheckpointError,
    ConfigError,
    PackingError,
    PacklabError,
    PreconditionError,
    TruncatedCurveError,
)
from .exponent import (
    CountCurve,
    ExponentEstimate,
    PowerSum,
    counting_function,
    curve_from_orbit,
    dyadic_grid,
    fit_exponent,
    power_sum,
)
from .inversive import (
    EuclideanSphere,
    SphereVector,
    classify_pair,
    render_svg,
    sphere_from_vector,
    vector_from_sphere,
)
from .lattices import (
    DiscriminantGroup,
    QuadraticLattice,
    discriminant_group,
    dual_exponent,
    dual_gram,
    even_sublattice,
    from_catalog,
    gram_in_basis,
    rescale,
    verify_isometry,
)
from .lorentz import (
    QuadraticSpace,
    hyperbolic_distance,
    hyperplane_distance,
    inner,
    signature,
    sphere_space,
)
from .orbit import (
    Cluster,
    PackingOrbit,
    apply_generator,
    certify_integral,
    enumerate_packing,
    initial_cluster,
    iter_clusters,
    load_checkpoint,
    resume_enumeration,
    seed_cluster_from_curvatures,
    with_curvatures,
    with_realization,
)
from .surfaces import (
    ModelReport,
    OrbitCount,
    SurfaceModel,
    builtin_model,
    estimate_surface_exponent,
    model_from_config,
    orbit_count,
    verify_model,
)

__version__ = "0.1.0"
