"""Desk-scale toolkit for quantum events, trajectories, histories, and
indirect-measurement statistics on finite matrix algebras.
"""

from .errors import InadmissibleThresholdError, InvariantViolation
from .operators import (DEFAULT_TOL, DEGENERACY_TOL, DensityState,
                        PartitionOfUnity, SpectralDecomposition, adjoint,
                        antihermitian_defect, conjugate, is_hermitian,
                        is_projection, is_unitary, operator_norm,
                        spectral_decompose)
from .algebras import (RANK_RCOND, SPAN_TOL, FiniteAlgebra, SpanContainment,
                       center, commutant, contains, diagonal_algebra,
                       equal_span, full_matrix_algebra, generate_algebra,
                       is_maximal_abelian)
from .centralizers import (CentralizerReport, IncoherenceDefect,
                           ambient_representative, centralizer,
                           expect_onto_center, expect_onto_centralizer,
                           incoherence_defect, minimal_projections)
from .events import (BranchRecord, DetectionVerdict, EarliestEventReport,
                     EventRecord, HeisenbergFrame, SampledPath, TrajectoryResult,
                     admissible_threshold, born_probabilities, collapse,
                     detect_event, earliest_event, run_trajectory,
                     sample_trajectories, unrecorded_update)
from .histories import (ConsistencyReport, MeasurementProtocol,
                        consistency_check, enumerate_protocols,
                        lsw_probability, sampler_vs_measure)
from .mesoscopic import (BornExperiment, ClassificationBand, DeFinettiModel,
                         DetectionTime, Posterior, ProtocolSample, SanovReport,
                         SanovRow, born_rule_experiment, born_rule_experiments,
                         classify, classify_frequencies, commuting_realization,
                         detection_time, exact_protocol_probability, frequency,
                         log_band_mass, log_band_masses, posterior,
                         posterior_entropies, relative_entropy,
                         sample_protocols, sanov_check)
from .seeding import substream

__version__ = "0.1.0"
