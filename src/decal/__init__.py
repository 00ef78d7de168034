"""Patient-aware pool-based active learning engine.

DECAL layers two patient-identity mechanisms on top of standard acquisition
strategies (random, entropy, margin, least confidence, BADGE): query batches
constrained to unique patients, and a patient-diverse initial labeled set.
A simulated-oracle harness runs seeded multi-trial experiments and reports
learning curves, initialization comparisons, and the usual summary metrics.
Import names from their submodules: the package root re-exports nothing.
"""

__version__ = "0.1.0"
