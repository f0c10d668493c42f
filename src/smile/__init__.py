"""Self-motivated imitation learning from noisy demonstrations.

Expertise degradation is modeled as policy-wise diffusion: a noise predictor
learns how actions degrade, a one-step generator is trained against the
denoiser-implied posterior mean, and a diffusion-step-conditioned Q-function
filters out demonstrations no better than the current policy.
"""

__version__ = "0.1.0"
