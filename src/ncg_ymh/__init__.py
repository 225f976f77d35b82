"""Four-dimensional fuzzy spectral triples, their Yang-Mills-Higgs gauge
extensions, the polynomial spectral action, and a Metropolis sampler over
the resulting multimatrix model."""

from .action import (ActionBreakdown, ActionPolynomial, field_strength, sectors,
                     spectral_action_direct, theta, trace_d2_closed, trace_d4_closed)
from .clifford import (CliffordModule, Signature, build_gammas, build_module,
                       build_signature, sign_s, sign_t, trace4, verify_gamma_identities)
from .dirac import (FiniteData, FuzzyData, GaugeTriple, check_axioms, lichnerowicz_rhs,
                    random_fuzzy, zero_fuzzy)
from .errors import (ConjugationNotFound, DimensionMismatch, NcgError,
                     NonFourDimensional, NotFlat, NotSelfAdjoint, UnstableAction)
from .fluct import (Fluctuation, assemble_fluctuated, connes_one_form,
                    extract_fluctuation, fluctuate, higgs_field, random_fluctuation,
                    zero_fluctuation)
from .gauge import GaugeElement, covariance_report, random_unitary, transform
from .sampler import (ChainState, SampleRecord, SamplerConfig, batch_means,
                      gaussian_self_test, run_chain, stationarity_check)
from .superop import gen_comm, left_mult, right_mult, unvec, vec

__version__ = "0.1.0"
