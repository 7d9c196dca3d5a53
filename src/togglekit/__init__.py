"""togglekit: cyclic toggling-frame algebra for piecewise rotation sequences.

The core fact: transforming a sequence of rotations by 2*pi/m about
arbitrary axes into its own toggling frame, m times over, returns the
original axes.  Everything here builds on that map: composite-pulse
duality, balanced-sequence synthesis on polyhedral axis sets, average
rotation-error orders, rank-lambda decoupling tables, and robustness maps
for dynamical decoupling.
"""

from .averaging import (AverageRotationOrders, KappaTable, average_orders, centroid,
                        is_balanced, kappa, numeric_error_expansion, symmetry_class,
                        wigner_d)
from .catalog import named, named_dd
from .ddsim import (CentroidMap, DDSequence, anti_dd, centroid_map, kick_times,
                    osc_field_dressed, static_field_dressed, udd)
from .profiles import (ProfileSample, convert_m2_to_m4, glide_reflection_check,
                       q_profile, rotation_error, rotation_errors, trajectory)
from .rotcore import (Rotation, axis_from_phase, compose, from_axis_angle, inverse,
                      rotate, to_axis_angle, unit_vector, unit_vectors)
from .search import AxisSet, SearchSpec, dedupe, enumerate_balanced
from .seqmodel import (PulseElement, RotationSequence, cyclic_permute,
                       global_phase_shift, nest, net_propagator, phase_scale,
                       prefix_propagator, reverse, riffle, sequence_from_axes,
                       sequence_from_phases, sequences_equal, sequences_from_arrays)
from .toggling import (TogglingFrameSet, closed_form_toggling, cyclicity_order,
                       detuning_frame, finite_difference_duality_check,
                       half_band_check, inverse_toggling_map, phase_map,
                       toggling_map, toggling_map_iter)
from .virtualmas import mas_kappa_sweep, suppression_order_slopes

__version__ = "0.1.0"

__all__ = [
    "AverageRotationOrders", "AxisSet", "CentroidMap", "DDSequence", "KappaTable",
    "ProfileSample", "PulseElement", "Rotation", "RotationSequence", "SearchSpec",
    "TogglingFrameSet", "anti_dd", "average_orders", "axis_from_phase", "centroid",
    "centroid_map", "closed_form_toggling", "compose", "convert_m2_to_m4",
    "cyclic_permute", "cyclicity_order", "dedupe", "detuning_frame",
    "enumerate_balanced", "finite_difference_duality_check", "from_axis_angle",
    "glide_reflection_check", "global_phase_shift", "half_band_check", "inverse",
    "inverse_toggling_map", "is_balanced", "kappa",
    "kick_times", "mas_kappa_sweep", "named", "named_dd", "nest", "net_propagator",
    "numeric_error_expansion", "osc_field_dressed", "phase_map", "phase_scale",
    "prefix_propagator", "q_profile", "reverse",
    "riffle", "rotate", "rotation_error", "rotation_errors", "sequence_from_axes",
    "sequence_from_phases", "sequences_equal", "sequences_from_arrays", "static_field_dressed",
    "suppression_order_slopes", "symmetry_class", "to_axis_angle", "toggling_map",
    "toggling_map_iter", "trajectory", "udd", "unit_vector", "unit_vectors", "wigner_d",
]
