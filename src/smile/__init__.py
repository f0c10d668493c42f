"""Self-motivated imitation learning from noisy demonstrations.

Expertise degradation is modeled as policy-wise diffusion: a noise predictor
learns how actions degrade, a one-step generator is trained against the
denoiser-implied posterior mean, and a diffusion-step-conditioned Q-function
filters out demonstrations no better than the current policy.
"""

from .diffusion import (DiffusionSchedule, NoiseModel, build_schedule,
                        denoiser_loss, diffuse, naive_reverse_sample,
                        posterior_mean, posterior_var)
from .envs import (DemoStore, EnvSpec, ExpertController, Trajectory,
                   default_expert, env_reset, env_step, expert_act,
                   generate_demos, load_demos, make_env_spec, save_demos,
                   undiscounted_return)
from .expertise import (FilterConfig, FilterReport, filter_dataset,
                        q_curve_matrix, score_dataset)
from .mathcore import (EmaTracker, FeedForwardNet, OptimizerState, SeededRng,
                       derive_seed, ema_update, optimizer_step)
from .policy import BcBaseline, GeneratorPolicy, bc_loss, policy_loss
from .trainer import (MetricsLog, TrainConfig, TrainResult, audit_bins,
                      bench_reverse, evaluate, train, train_bc)

__version__ = "0.1.0"
