"""
O(1/k) guarantees: measured curves against their closed-form bounds
===================================================================

The ergodic (running-average) iterate comes with explicit non-asymptotic
guarantees: feasibility of the averaged point decays like C/k with a fully
computable constant, and its objective error is sandwiched between -R1/k
and R2/k.  This script runs one algorithm, evaluates the bound constants
from the reference solution, and prints measured value vs. bound at
checkpoints -- then verifies the 1/k decay by a log-log slope fit.
"""

import numpy as np

from duca import (
    MetricsCollector,
    Variant,
    centralized_solve,
    generate_example,
    loglog_slope,
    make_certificate,
    make_setting,
    random_connected_graph,
    run,
)

g = random_connected_graph(20, n_edges=40, seed=42)
pb = generate_example(n=20, d=3, m=1, p=5, seed=42)
core = centralized_solve(pb, tol=1e-10)
y0 = np.ones((20, pb.mp))
x0 = np.zeros((20, pb.dmax))

s = make_setting(Variant.DUCA_I, g, rho=1.0)
cert = make_certificate(core, pb, s, x0=x0, y0=y0)
print(f"bound constants: lam1(P_A)={s.spectra.lam1_PA:.4f}  "
      f"R1={cert.R1:.4f}  R2={cert.R2:.4f}")

# The collector evaluates every metric after each round; check=True would
# additionally raise the moment any bound or identity is violated.
coll = MetricsCollector(pb, s, cert, tol_inner=1e-8, check=True)
run(pb, s, 1000, x0=x0, y0=y0, hook=coll, tol_inner=1e-8)
rows = {r.k: r for r in coll.rows}

print("\n    k   feasibility      bound     |obj err|   upper bound")
for k in (1, 10, 100, 1000):
    b = cert.bounds(k)
    r = rows[k]
    print(f"{k:5d}   {r.ergodic_feasibility:11.5f} {b['fe_bound']:10.4f}   "
          f"{abs(r.ergodic_objective_error):9.5f} {b['oe_upper']:12.5f}")

# ----------------------------------------------------------------------
# Fitted decay exponents over the second half of the run: the theory says
# -1; transients and constants are gone by k=100.
fe = [r.ergodic_feasibility for r in coll.rows]
oe = [abs(r.ergodic_objective_error) for r in coll.rows]
print(f"\nlog-log slope, feasibility    k in [100,1000]: "
      f"{loglog_slope(fe, 100, 1000):+.4f}")
print(f"log-log slope, objective err  k in [100,1000]: "
      f"{loglog_slope(oe, 100, 1000):+.4f}")

# ----------------------------------------------------------------------
# The proximal variant (alpha > 0) regularizes each inner problem toward
# the previous iterate; its guarantees have the same 1/k shape with
# slightly larger constants.
for alpha in (0.1, 0.5):
    s_a = make_setting(Variant.DUCA_I, g, rho=1.0, alpha=alpha)
    cert_a = make_certificate(core, pb, s_a, x0=x0, y0=y0)
    coll_a = MetricsCollector(pb, s_a, cert_a, tol_inner=1e-8, check=True)
    run(pb, s_a, 1000, x0=x0, y0=y0, hook=coll_a, tol_inner=1e-8)
    last = coll_a.rows[-1]
    print(f"\nalpha={alpha}: feasibility@1000={last.ergodic_feasibility:.5f}, "
          f"|obj err|@1000={abs(last.ergodic_objective_error):.5f}, "
          f"bound slack={last.bound_fe_slack:+.4f}")
