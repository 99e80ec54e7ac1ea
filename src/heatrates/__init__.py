"""Heat-kernel escape-rate toolkit.

Classifies the convergence of rate-function integral tests, evaluates
potential-theory bounds (Green function, capacity, hitting and occupation
probabilities) for stable-like kernel models, and samples the underlying
processes with exact increments, with the path functionals (window extrema,
first hitting times) that Monte Carlo estimates of those bounds read.
"""

__version__ = "0.1.0"
