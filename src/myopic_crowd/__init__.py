"""Distributed classification over a network of partially informative agents.

Each agent sees observations through a classifier that only distinguishes a
subset of the possible classes.  Agents fold every observation into a local
belief, then pool beliefs with their neighbors — by default taking the
elementwise minimum, a process of elimination that rejects classes any
neighbor has ruled out.  The package pairs a simulation engine for these
dynamics with an analytical score engine that predicts how fast each false
class is rejected, and tools to verify the prediction empirically.
"""

__version__ = "0.1.0"
