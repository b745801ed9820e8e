"""Probability pre-measures from quasi-measures on set coats, with checks.

A coat is any family of subsets of a finite ground set that contains the
empty and full sets.  Its refinement collects all pairwise meets and
differences of coat members; a quasi-measure assigns exact rational values
to the refinement.  The exterior value of an arbitrary subset is the
cheapest coat cover, and restricting it to the algebra generated by the
coat yields a finitely additive table whenever the quasi-measure axioms
hold.  Every definition and claim in that chain is backed by a mechanical
check with exact arithmetic and auditable failure witnesses.
"""

import importlib

# Each public name once, under the module that defines it.  A module is
# imported when one of its names is first read (PEP 562), so importing the
# package alone loads no submodule.
_NAMES = {
    "cover": "CoverSolution check_outer_properties outer outer_exhaustive",
    "extension": "MeasurabilityReport MeasureTable extend measurable_family verify_premeasure",
    "instance_io": "InstanceSpec ParseError instance_spec_from parse_instance render_instance",
    "intervals": "Interval IntervalCover IntervalSet exp_eval outer_interval survival_weight verify_example_axioms",
    "quasi": "QuasiMeasure check_alt_conditions check_axioms",
    "report": "AxiomReport CheckResult Witness",
    "sets": "AlgebraFamily Coat GroundSet Refinement SubsetMask generate_algebra refine",
    "testkit": "SearchSummary TrueMeasure canonical_negative_instance induce perturb random_algebra_instance"
               " random_instance search_instances",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
