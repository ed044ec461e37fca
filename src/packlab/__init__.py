"""packlab: exact sphere packings from Coxeter polytope data.

Pipeline: a Gram matrix of unit wall normals defines a Coxeter polytope
(coxeter); its real dual weights are sphere vectors (inversive, lorentz)
whose reflection orbit is a packing enumerated exactly (orbit, catalog);
curvature counts feed critical-exponent estimates (exponent); integral
lattice identities and surface-automorphism orbit counts have their own
toolkits (lattices, surfaces).

``import packlab`` loads no layer: each public name imports its own
submodule, and that submodule's imports, the first time it is read, so a
surface count never loads the packing stack.  Nothing is cached here:
``packlab.X`` always reads the submodule's current attribute.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "catalog": ("band_seed", "packing_seed", "polytope"),
    "coxeter": (
        "CoxeterPolytope", "build_polytope", "dual_polytope", "is_packing_polytope",
        "maxwell_level", "reflection_in_normal_basis", "reflection_in_weight_basis",
    ),
    "errors": (
        "CheckpointError", "ConfigError", "PackingError", "PacklabError", "PreconditionError",
        "TruncatedCurveError",
    ),
    "exact": (),
    "exponent": (
        "CountCurve", "ExponentEstimate", "PowerSum", "counting_function", "curve_from_orbit",
        "dyadic_grid", "fit_exponent", "power_sum",
    ),
    "inversive": (
        "EuclideanSphere", "SphereVector", "classify_pair", "render_svg", "sphere_from_vector",
        "vector_from_sphere",
    ),
    "lattices": (
        "DiscriminantGroup", "QuadraticLattice", "discriminant_group", "dual_exponent",
        "dual_gram", "even_sublattice", "from_catalog", "gram_in_basis", "rescale",
        "verify_isometry",
    ),
    "lorentz": (
        "QuadraticSpace", "hyperbolic_distance", "hyperplane_distance", "inner", "signature",
        "sphere_space",
    ),
    "orbit": (
        "Cluster", "PackingOrbit", "apply_generator", "certify_integral", "enumerate_packing",
        "initial_cluster", "iter_clusters", "load_checkpoint", "resume_enumeration",
        "seed_cluster_from_curvatures", "with_curvatures", "with_realization",
    ),
    "surfaces": (
        "ModelReport", "OrbitCount", "SurfaceModel", "builtin_model", "estimate_surface_exponent",
        "model_from_config", "orbit_count", "verify_model",
    ),
    "walk": (),
}

# name -> its submodule; a submodule's own name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_HOME})
