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

from .cover import CoverSolution, check_outer_properties, outer, outer_exhaustive
from .extension import (
    MeasurabilityReport,
    MeasureTable,
    extend,
    is_caratheodory_measurable,
    measurable_family,
    verify_premeasure,
)
from .instance_io import InstanceSpec, ParseError, instance_spec_from, parse_instance, render_instance
from .intervals import (
    Interval,
    IntervalCover,
    IntervalSet,
    exp_eval,
    outer_interval,
    survival_weight,
    verify_example_axioms,
)
from .quasi import QuasiMeasure, check_alt_conditions, check_axioms
from .report import AxiomReport, CheckResult, Witness
from .sets import (
    AlgebraFamily,
    Coat,
    GroundSet,
    Refinement,
    SubsetMask,
    generate_algebra,
    refine,
)
from .testkit import (
    SearchSummary,
    TrueMeasure,
    canonical_negative_instance,
    induce,
    perturb,
    random_algebra_instance,
    random_instance,
    search_instances,
)

__all__ = [
    "AlgebraFamily",
    "AxiomReport",
    "CheckResult",
    "Coat",
    "CoverSolution",
    "GroundSet",
    "InstanceSpec",
    "Interval",
    "IntervalCover",
    "IntervalSet",
    "MeasurabilityReport",
    "MeasureTable",
    "ParseError",
    "QuasiMeasure",
    "Refinement",
    "SearchSummary",
    "SubsetMask",
    "TrueMeasure",
    "Witness",
    "canonical_negative_instance",
    "check_alt_conditions",
    "check_axioms",
    "check_outer_properties",
    "exp_eval",
    "extend",
    "generate_algebra",
    "induce",
    "instance_spec_from",
    "is_caratheodory_measurable",
    "measurable_family",
    "outer",
    "outer_exhaustive",
    "outer_interval",
    "parse_instance",
    "perturb",
    "random_algebra_instance",
    "random_instance",
    "refine",
    "render_instance",
    "search_instances",
    "survival_weight",
    "verify_example_axioms",
    "verify_premeasure",
]

__version__ = "0.1.0"
