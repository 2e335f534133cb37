"""splitcut: edge-pruned QAOA MaxCut with split-iteration optimization.

Builds pruned flavors of a QAOA circuit, alternates them across differently
noisy simulated backends while optimizing one shared parameter vector, and
quantifies what an adversarial provider can reconstruct from the circuits
it receives.
"""

__version__ = "0.1.0"
