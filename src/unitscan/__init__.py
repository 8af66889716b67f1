"""unitscan: prime scans for fundamental-unit congruences in quadratic and
cubic orders, plus the Wieferich-style heuristic calculators that predict
how often the congruences should hold."""

from .cubic import (
    CubicFieldRecord,
    ZValue,
    find_fundamental_unit,
    h2_vanishing_test,
    h5_reduced,
    h5_set,
    hyp_filter,
    load_cubic_fields,
    ordinary_test,
    scan_cubic,
    z_value,
)
from .heuristics import (
    HeuristicValue,
    MonteCarloResult,
    expected_exceptional_count,
    injective_probability,
    level_raising_densities,
    monte_carlo_injective,
    multiplicity_distribution,
    scan_wieferich,
)
from .order_arith import OrderSpec
from .primes import PrimeRange, is_prime, primes_in
from .quadratic import (
    QuadFieldRecord,
    QuadUnit,
    fundamental_unit_quadratic,
    load_quad_fields,
    quad_unit_test,
    scan_quadratic,
)
from .report import ScanReport, Verdict, verify_tables
from .report import TOOL_VERSION as __version__
