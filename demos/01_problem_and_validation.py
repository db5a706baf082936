"""
Building a coupled-constraint problem and validating a parameter setting
========================================================================

Each agent owns a convex quadratic-plus-l1 cost on a private ball and a
slice of globally coupled inequality/equality constraints: feasibility is
a property of the *sum* of per-agent constraint functions, so no agent can
check it alone.  This script generates a random instance, verifies the
strict-feasibility assumptions, and builds/validates the parameter
matrices for every algorithm family.
"""

import numpy as np

from duca import (
    Variant,
    generate_example,
    make_setting,
    random_connected_graph,
    slater_check,
    validate_setting,
)

# ----------------------------------------------------------------------
# A random connected graph: spanning tree plus extra links, seeded.
g = random_connected_graph(8, n_edges=12, seed=7)
print(f"graph: {g.n_nodes} nodes, {g.n_edges} edges")
print("degrees:", [g.degree(i) for i in range(g.n_nodes)])

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
# exist.
report = slater_check(pb)
print("\nstanding assumptions:")
print(report)

# ----------------------------------------------------------------------
# Parameter settings.  Each family fixes the weight-matrix pair (H, Htilde)
# and the degree matrix D from the graph; validate_setting re-checks the
# positive-semidefiniteness and ordering conditions the convergence proofs
# need.  Two families take a tuning constant.
tunings = {Variant.PGC: {"rho_prime": 0.1}, Variant.DPGA: {"c": 0.25}}
print("\nparameter families:")
for variant in Variant:
    s = make_setting(variant, g, rho=1.0, tuning=tunings.get(variant))
    ok = validate_setting(s).passed
    sq = s.spectra
    print(f"  {variant.name:10s} mode={s.exchange_mode:6s} valid={ok} "
          f"lam1(P_A)={sq.lam1_PA:.3f} lam_{{N-1}}(P_Htilde)={sq.eig_PHtilde[1]:.3f}")

# A deliberately broken setting fails fast: the DUCA_I family needs its
# diagonal scale c >= 2 for the step matrix to stay PSD.
try:
    make_setting(Variant.DUCA_I, g, rho=1.0, tuning={"c": 0.1})
except Exception as exc:
    print(f"\nbroken setting rejected: {type(exc).__name__}: {exc}")
