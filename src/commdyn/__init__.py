"""Community detection from equilibria of saturating opinion dynamics on
two-community stochastic block models."""

from .detect import (CommunityEstimate, DetectionMethod, PairSet, accuracy,
                     detect_covariance_baseline, detect_from_estimate, detect_multi,
                     detect_single, estimate_adjacency, invert_pairs)
from .dynamics import (Equilibrium, IntegrationControls, ModelParams, Saturation,
                       bifurcation_threshold, equilibria_for_inputs,
                       integrate_to_equilibrium, newton_refine, rhs,
                       saturation_deriv, saturation_eval, saturation_inverse)
from .graphgen import (AssumptionReport, Graph, SbmParams, check_assumptions,
                       is_connected, max_expected_degree, read_edge_list, sample_sbm,
                       write_edge_list)
from .harness import (ExperimentConfig, ParameterPoint, Preset, TrialRecord,
                      build_config, generate_pair_set, read_records_csv, run_experiment,
                      summarize, write_records_csv)
from .spectral import (EigenPairs, extreme_eigpairs, kmeans_two_1d, least_squares_min_norm,
                       sym_eig)
from .theory import (DavisKahanReport, ExpectedSpectrum, alignment_check, c_of_u,
                     concentration_ratio, davis_kahan_check, expected_spectrum,
                     expected_threshold)

__version__ = "0.1.0"
