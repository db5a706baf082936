"""
The per-agent inner problem: proximal solves with a verifiable certificate
==========================================================================

Every round, each agent minimizes its own cost plus smooth penalties built
from the dual estimate: squared hinges for the coupled inequalities,
squared residuals for the equalities, an optional proximal term, all over
the agent's private ball.  The solver takes Newton steps on the face its
iterate identifies, with a backtracked proximal-gradient step as the
safeguard; from the zero start used here, the Newton chain first opens the
coordinates the certificate says must move.  Its exit test is a
subgradient-based optimality certificate, so "converged" is a checkable
statement, not a hope.
"""

import numpy as np

from duca import Problem, generate_example, solve_local_batch

# ----------------------------------------------------------------------
# One agent's subproblem: a 2-d instance with one coupled inequality and
# one coupled equality, a dual estimate ytilde, and unit step weight.
pb = generate_example(n=1, d=2, m=1, p=1, seed=11)
ytilde = np.array([2.5, -3.0])   # [inequality part; equality part]
d_prime, alpha, anchor = 1.5, 0.0, np.zeros(2)

# The solver takes one row per agent; a one-agent problem is a batch of one.
X, res, iters, done, vals = solve_local_batch(
    pb, ytilde[None, :], np.array([d_prime]), alpha, anchor[None, :], tol=1e-10,
)
x, value = X[0], vals[0]
print(f"solution x = {x}")
print(f"objective  = {value:.12f}")
print(f"iterations = {iters[0]}, converged = {done[0]}")
# The certificate is independent of the descent loop: the minimal-norm
# subgradient of the full composite objective, projected onto the ball's
# feasible directions, must be small at a minimizer.
print(f"certificate residual = {res[0]:.2e}  (projected subgradient norm)")


def round_objective(z):
    """The agent's round objective at z, written out from the problem data."""
    f = z @ pb.P[0] @ z + pb.Q[0] @ z + pb.l1_weight * np.abs(z).sum()
    hinge = max(ytilde[0] + np.sum((z - pb.a_prime[0, 0]) ** 2) - pb.c_prime[0, 0], 0.0)
    eq = ytilde[1] + pb.B[0, 0] @ z + pb.c_eq[0, 0]
    return f + (hinge**2 + eq**2) / (2.0 * d_prime) + 0.5 * alpha * np.sum((z - anchor) ** 2)


# ----------------------------------------------------------------------
# The objective is nonsmooth (l1 term) and the ball constraint is active
# or not depending on ytilde; perturbing the solution never improves it.
rng = np.random.default_rng(0)
worse = 0
for _ in range(200):
    trial = x + rng.normal(scale=1e-4, size=2)
    worse += round_objective(trial) >= value - 1e-12
print(f"\nrandom perturbations no better than solution: {worse}/200")

# ----------------------------------------------------------------------
# Whole-network rounds solve every agent at once.  Each row is certified
# at every iterate until it passes, then frozen, so a row's result does not
# depend on the rest of the batch: agent 3 solved as a one-agent problem
# gives the same bits.
pb20 = generate_example(n=20, d=3, m=1, p=5, seed=42)
Yt = rng.normal(size=(20, 6))
d_prime = np.full(20, 2.0)
anchor = np.zeros((20, 3))
X, res, iters, done, vals = solve_local_batch(pb20, Yt, d_prime, 0.0, anchor, tol=1e-9)
print(f"\nbatch of 20 agents: all converged = {done.all()}, "
      f"max certificate residual = {res.max():.2e}")
solo = Problem(n_agents=1, dims=pb20.dims[3:4], m=pb20.m, p=pb20.p, l1_weight=pb20.l1_weight,
               **{k: getattr(pb20, k)[3:4]
                  for k in ("P", "Q", "a", "c", "a_prime", "c_prime", "B", "c_eq")})
one = solve_local_batch(solo, Yt[3:4], d_prime[3:4], 0.0, anchor[3:4], tol=1e-9)
print(f"agent 3 solo == batch row: {np.array_equal(one[0][0], X[3])}")
