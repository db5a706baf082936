"""
Building a coupled-constraint problem and validating a parameter setting
========================================================================

Each agent owns a convex quadratic-plus-l1 cost on a private ball and a
slice of globally coupled inequality/equality constraints: feasibility is
a property of the *sum* of per-agent constraint functions, so no agent can
check it alone.  This script generates a random instance, verifies the
strict-feasibility assumptions, and builds the parameter matrices for
every algorithm family, each of which checks its standing assumptions as
it is built.
"""

import dataclasses

import numpy as np

from duca import (
    AssumptionViolatedError,
    Variant,
    generate_example,
    make_setting,
    random_connected_graph,
    slater_check,
)

# ----------------------------------------------------------------------
# A random connected graph: spanning tree plus extra links, seeded.
g = random_connected_graph(8, n_edges=12, seed=7)
print(f"graph: {g.n_nodes} nodes, {g.n_edges} edges")
print("degrees:", g.degrees.tolist())

# The mixing matrix uses Metropolis weights: -1/(max degree pair + 1) per
# edge, diagonal chosen so rows sum to zero.  It is symmetric and PSD.
W = g.metropolis
print("row sums (all zero):", np.abs(W.sum(axis=1)).max())
print("smallest eigenvalue:", np.linalg.eigvalsh(W)[0])

# ----------------------------------------------------------------------
# A random problem instance.  d is the per-agent dimension, m the number
# of coupled inequalities, p the number of coupled equalities.
pb = generate_example(n=8, d=3, m=2, p=2, seed=7)
print(f"\nproblem: N={pb.n_agents}, dims={pb.dims}, m={pb.m}, p={pb.p}, "
      f"l1 weight={pb.l1_weight}")

# Every Problem checks its data when built, including that 0 is interior
# to each private ball; slater_check verifies that the summed constraints
# admit a strictly feasible point, so strong duality holds and multipliers
# exist.  It raises InfeasibleProblemError naming any failed condition.
slater_check(pb)
print("\nstanding assumptions: 0 is strictly feasible for the coupled constraints")

# ----------------------------------------------------------------------
# Parameter settings.  Each family fixes the weight-matrix pair (H, Htilde)
# and the degree matrix D from the graph.  A setting checks the
# positive-semidefiniteness, nullspace and ordering conditions the
# convergence proofs need when it is built, so every setting that exists is
# valid.  Two families take a tuning constant.
tunings = {Variant.PGC: {"rho_prime": 0.1}, Variant.DPGA: {"c": 0.25}}
print("\nparameter families (each checked as it was built):")
for variant in Variant:
    s = make_setting(variant, g, rho=1.0, tuning=tunings.get(variant))
    sq = s.spectra
    print(f"  {variant.name:10s} mode={s.exchange_mode:6s} "
          f"lam_min(P_A)={sq.eig_PA[0]:.3f} lam_{{N-1}}(P_Htilde)={sq.eig_PHtilde[1]:.3f}")

# A deliberately broken setting fails fast: the DUCA_I family needs its
# diagonal scale c >= 2 for the step matrix to stay PSD.
try:
    make_setting(Variant.DUCA_I, g, rho=1.0, tuning={"c": 0.1})
except AssumptionViolatedError as exc:
    print(f"\nbroken setting rejected: {exc}")

# The checks run on every construction, dataclasses.replace included: a
# larger rho with the same P_D leaves P_A indefinite, and the error names
# each failed condition with its value.
s = make_setting(Variant.DUCA_I, g, rho=1.0)
try:
    dataclasses.replace(s, rho=5.0)
except AssumptionViolatedError as exc:
    print(f"replaced setting rejected: {exc}")
