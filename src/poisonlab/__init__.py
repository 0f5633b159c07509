"""Poisoning reachability thresholds and model-targeted attacks at desk scale."""

from .attack import (AttackOptions, AttackResult, FrankWolfeResult, GridDomain,
                     LineDomain, frank_wolfe_attack, gradient_canceling,
                     gradient_matching, project_admissible)
from .data import (Dataset, concat, gen_gauss_classification,
                   gen_gauss_regression, gen_or, load_idx, load_mnist, split,
                   toy_three_points)
from .defense import Ensemble, dpa_predict, dpa_train, sever_filter
from .errors import (AttackDivergence, ConfigError, DomainError,
                     EmptyPartitionError, IdxFormatError, PoisonLabError,
                     ShapeError, TargetSelectionError)
from .harness import (EvalReport, TrainOptions, atoms_to_poison,
                      retrain_and_eval, sweep_heatmap, train)
from .mathcore import derive_seed, lambert_w0, make_rng, top_singular_vector
from .models import (ModelSpec, accuracy, loss, mean_param_grad, mixed_vjp,
                     param_grad, predict)
from .reachability import (ThresholdReport, alignment, lambda_threshold,
                           lambda_to_ratio, membership_check, merit_floor,
                           nn_necessary_tau, ratio_to_lambda, tau_threshold)
from .targetgen import (TargetCandidate, grad_ascent_corrupt, random_corrupt,
                        scale_params, select_target)

__version__ = "0.1.0"
