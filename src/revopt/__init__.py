"""Exact-arithmetic epsilon-optimality certificates for reverse convex programs.

Importing the package runs none of its modules. A name it re-exports is read
from its module on first use (a module `__getattr__`, PEP 562). The grid layer
(`oracle`, `pareto`) and the double description (`polytope`), which no
`verify`, `falsify` or `replay` runs, are lazy modules: they sit in
`sys.modules` and on the package from the start, and their code runs at the
first read of one of their attributes.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: module -> the names the package re-exports from it
_EXPORTS = {
    "model": (
        "INF", "AffineForm", "HPolyhedron", "Inapplicable", "InputError",
        "PolyhedralConvexFunction", "ReverseProblem",
    ),
    "lp": ("LinearProgram", "lp_max_component", "lp_solve"),
    "polytope": ("VPolytope", "project", "vertex_enumerate"),
    "subdiff": (
        "SubdiffQuery", "scale_subdiff", "subdiff_epigraph", "subdiff_member", "subdiff_vrep",
    ),
    "certificates": (
        "CertificateVerdict", "essential_check", "falsify", "membership_lp", "slater_check",
        "union_member", "verify",
    ),
    "oracle": ("GridSpec", "brute_eps_argmin"),
    "pareto": ("ParetoSample", "bridge_check", "eff_set", "reee_check", "vdom"),
    "problemfile": ("load_problem", "parse_problem", "problem_to_doc"),
}


def _lazy_module(name: str):
    """The submodule `name`, registered in `sys.modules` with its code run at
    the first read of one of its attributes (`importlib.util.LazyLoader`)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle = _lazy_module("oracle")
pareto = _lazy_module("pareto")
polytope = _lazy_module("polytope")


def _on_first_use(namespace: dict, sources: dict):
    """Bind names of other revopt modules into the globals `namespace` when
    they are first used. `sources` maps a module to the names taken from it.

    Returns `bind(*modules)`, which binds the names of `modules` (of every
    module when none is given), and a module `__getattr__` that binds the
    names of the module that a name it is asked for comes from. A name that
    is bound already, by the bench tracer or by a test, is kept, so a
    binding set before first use is the one that gets called.
    """
    owner = {name: module for module, names in sources.items() for name in names}

    def bind(*modules):
        for module in modules or sources:
            loaded = importlib.import_module(f"{__name__}.{module}")
            for name in sources[module]:
                namespace.setdefault(name, getattr(loaded, name))

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind(owner[name])
        return namespace[name]

    return bind, __getattr__


__getattr__ = _on_first_use(globals(), _EXPORTS)[1]
