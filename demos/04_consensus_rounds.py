"""
Running synchronous rounds: exchanges, exact identities, snapshots
==================================================================

Agents keep local copies of the global multiplier vector and mix them with
their neighbors once (single-exchange families) or twice (double-exchange
families) per round.  Every family runs the same round, ``step``; the
setting's exchange mode picks the exchange term.  Neighbor sums go through
the setting's neighbor table, ``s.mailbox``, built once per setting from
its graph, which refuses weights between agents that are not linked.  Two algebraic identities hold
*exactly* every round, independent of how accurately the inner problems are
solved, and the engine verifies them by default: the dual update's cone
split (projection plus polar-cone part reassembles the pre-projection
vector, with orthogonal parts), and a cumulative identity tying summed
constraint evaluations to the drift of the dual iterates.  It also raises
if a local solve ends without its certificate.
"""

import numpy as np

from duca import (
    Variant,
    dump_state,
    ergodic_point,
    eval_objective,
    generate_example,
    load_state,
    make_setting,
    random_connected_graph,
    run,
    step,
)

g = random_connected_graph(6, n_edges=9, seed=3)
pb = generate_example(n=6, d=2, m=2, p=1, seed=3)
y0 = np.ones((6, pb.mp))

# ----------------------------------------------------------------------
# 60 rounds of a single-exchange family.  check=True (the default) raises
# on any identity breach; the hook sees the state after every round.
s = make_setting(Variant.DUCA_I, g, rho=1.0)
trace = []
st = run(pb, s, 60, y0=y0, hook=lambda st: trace.append(
    (st.k, st.moreau_residual, st.cumulative_residual, st.comm_total)))

print("round  cone-split residual  cumulative residual  reals sent")
for k, moreau, cum, comm in trace[1::12]:
    print(f"{k:5d}  {moreau:19.3e}  {cum:19.3e}  {comm:10d}")

xbar, ybar = ergodic_point(st, pb)
print(f"\nafter {st.k} rounds: ergodic objective = {eval_objective(pb, xbar):.6f}, "
      f"consensus multiplier estimate = {np.round(ybar, 4)}")
print(f"inner iterations total = {st.inner_iters_total}, "
      f"solver failures = {st.solver_failures}")

# ----------------------------------------------------------------------
# A double-exchange family sends two vectors per neighbor per round, so
# the communication counter grows twice as fast.
s2 = make_setting(Variant.ALT, g, rho=1.0)
st2 = run(pb, s2, 60, y0=y0)
print(f"\nsingle-exchange reals after 60 rounds: {st.comm_total}")
print(f"double-exchange reals after 60 rounds: {st2.comm_total}")

# ----------------------------------------------------------------------
# States serialize to structured text and resume exactly: running 60
# rounds straight equals 30 + snapshot-roundtrip + 30 more, stepping the
# resumed state round by round.
st_a = run(pb, s, 30, y0=y0)
resumed = load_state(dump_state(st_a))
for _ in range(30):
    step(resumed, pb, s)
print(f"\nsplit 30+30 equals straight 60: "
      f"{np.array_equal(resumed.Y, st.Y) and np.array_equal(resumed.X, st.X)}")
