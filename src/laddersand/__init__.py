"""Abelian sandpiles on ladder graphs.

Burning algorithms and recurrent-configuration censuses on products of a
finite connected base graph with an integer interval, the rung-coding
automaton with its maximal-entropy Markov chain, samplers for the
one-sided limit measures, and avalanche dynamics.
"""

from .graphs import (Graph, Site, Window, builtin_graph, laplacian_entry,
                     make_graph, parse_graph, sink_multiplicity)
from .burning import (BurnTrace, full_burnable, left_burnable,
                      leftmost_schedule, max_rung, path2_characterization,
                      right_burnable, window_heights)
from .census import (CountSeries, count_series, entropy_bounds, enum_rungs,
                     recurrent_counts, recurrent_growth_rate,
                     renewal_identity_check)
from .coding import (CodingAutomaton, build_coding, check_transitive, decode,
                     encode, parry_chain, restrict, spectral)
from .measures import (CylinderEvent, boundary_layer, cylinder_prob,
                       mixture_experiment, renewal_quantities,
                       right_cylinder_prob, sample_chain_windows,
                       sample_finite_exact, sample_window_config)
from .toppling import (CANONICAL, PARALLEL, LadderConfig, Odometer, Schedule,
                       check_abelian, demo_wave_config, random_schedule,
                       rung_zero_blast, stabilize)
from .errors import FeasibilityError, StepCapExceeded, ValidationError

__version__ = "0.1.0"

__all__ = [
    "BurnTrace", "CANONICAL", "CodingAutomaton",
    "CountSeries", "CylinderEvent", "FeasibilityError", "Graph",
    "LadderConfig", "Odometer", "PARALLEL", "Schedule", "Site",
    "StepCapExceeded", "ValidationError", "Window", "boundary_layer",
    "build_coding", "builtin_graph", "check_abelian", "check_transitive",
    "count_series", "cylinder_prob", "decode", "demo_wave_config", "encode",
    "entropy_bounds", "enum_rungs", "full_burnable", "laplacian_entry",
    "left_burnable", "leftmost_schedule", "make_graph", "max_rung",
    "mixture_experiment", "parry_chain", "parse_graph",
    "path2_characterization", "random_schedule", "recurrent_counts",
    "recurrent_growth_rate", "renewal_identity_check",
    "renewal_quantities", "restrict", "right_burnable",
    "right_cylinder_prob", "rung_zero_blast", "sample_chain_windows",
    "sample_finite_exact", "sample_window_config", "sink_multiplicity",
    "spectral", "stabilize", "window_heights", "__version__",
]
