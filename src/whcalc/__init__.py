"""p-primary homotopy and cohomology calculator for the Whitehead
spectrum of a point at odd regular primes.

Exact integer/F_p arithmetic throughout; every derived number is
cross-checked against an independent oracle by the `verify` suite.

The public names are imported from their submodules on first access
(PEP 562), so a cold CLI call loads only the modules its subcommand
runs."""

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "ahss": (
        "build_e2",
        "chart_window",
        "j_order_valuation",
        "run_differentials",
    ),
    "arith": (
        "OddPrime",
        "binom_mod_p",
        "ensure_regular",
        "is_regular",
        "vp",
        "vp_factorial",
    ),
    "errors": (
        "InconsistencyError",
        "PreconditionError",
        "UnverifiedError",
        "WhcalcError",
        "WindowError",
    ),
    "steenrod": (
        "adem_normalize",
        "admissible_basis",
        "annihilator_basis",
        "milnor_dual_dims",
        "milnor_primitive",
        "quotient_module_dims",
    ),
    "stems": ("StemClass", "alpha_bar", "beta2_degree"),
    "torsion": (
        "concordance_first_torsion",
        "first_p_torsion",
        "torsion_window",
        "wh_torsion_profile",
    ),
    "verify": ("CheckResult", "run_checks"),
    "whcohomology": (
        "delta_star_report",
        "h_sigma_c_dims",
        "h_sigma_hp_dims",
        "h_wh_report",
    ),
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
