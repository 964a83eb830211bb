"""Numerical verification of the reductions.

Integrates the worked example side by side with each of its quotients,
as one system, with the adaptive Runge-Kutta solver, and reports the
trajectory-level errors the theory says must vanish.  Both share one
step sequence, so the errors are rounding, not solver tolerance.  The
integrator takes the network itself and compiles its right-hand side
from the network's flux table, so no exact vector field is built here.
Also exports a CSV.
"""

from pathlib import Path

import crnlump as cl

crn = cl.running_example()
v0 = cl.InitialCondition.from_map(crn, {name: 1 for name in "ABCDE"})

h_o = cl.refine(crn, cl.Partition.trivial(crn), cl.BisimMode.FORWARD).final
print("Forward check: block sums of the full system vs. the quotient system")
report = cl.verify_forward(crn, h_o, v0, t_end=10.0, tol=1e-6)
print(" ", report.summary())

h_e = cl.refine(crn, cl.Partition.trivial(crn), cl.BisimMode.BACKWARD).final
print("Backward check: equally initialized A and B stay equal, and both")
print("track the representative trajectory of the quotient system")
report = cl.verify_backward(crn, h_e, v0, t_end=10.0, tol=1e-6)
print(" ", report.summary())

print()
print("Unequal initial conditions for a backward block are rejected:")
bad = cl.InitialCondition.from_map(crn, {"A": 1, "B": 2})
try:
    cl.verify_backward(crn, h_e, bad, t_end=10.0, tol=1e-6)
except cl.PartitionError as err:
    print("  PartitionError:", err)

out = Path("running_example_trajectory.csv")
traj = cl.integrate(crn, v0, t_end=10.0, n_points=101)
out.write_text(cl.trajectory_to_csv(traj))
print()
print(f"Wrote {out} ({len(traj.times)} rows; columns t,{','.join(traj.species[i].name for i in range(5))})")
