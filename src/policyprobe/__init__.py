"""policyprobe: probing pixel-observation RL policies for high-sensitivity
observation directions.

Subpackage map:
  nn          float64 dense/conv networks, exact gradients, interval bounds
  envs        two deterministic pixel-observation environments
  qlearning   Double-DQN training with prioritized replay and certified losses
  perturb     policy-independent image perturbation families
  attack      policy-dependent gradient and optimization attacks
  perceptual  reference-feature perceptual distance
  spectral    2-D Fourier energy-band analysis
  harness     probe protocol, impact statistics, sweeps
  checkpoint  every on-disk format: checkpoints, parameters, run artifacts
  cli         command-line front end
"""

from __future__ import annotations

__version__ = "0.1.0"
