"""Walk through the worked five-species example.

Builds the network, asks for counterexamples to explain why C and E
aggregate forward but not backward, refines the trivial partition in
both modes, and prints the quotient networks.
"""

import crnlump as cl

crn = cl.running_example()
print("The network:")
print(cl.serialize_crn(crn))

A, B, C, D, E = (crn.by_name(n) for n in "ABCDE")
c_with_e = cl.Partition(crn.species, [[A], [B], [C, E], [D]])

print(f"Why C and E aggregate forward: under {c_with_e} no pair differs in")
print("any reaction rate or block production rate:")
print("   counterexample:", cl.find_counterexample(crn, c_with_e, cl.BisimMode.FORWARD))
print("Why they do NOT aggregate backward: their fluxes differ on a reactant class")
x, y, witness = cl.find_counterexample(crn, c_with_e, cl.BisimMode.BACKWARD)
print(f"   {x.name} vs {y.name}: {witness}")
print()

forward = cl.refine(crn, cl.Partition.trivial(crn), cl.BisimMode.FORWARD)
print("Coarsest forward partition:", forward.final)
reduced_f = cl.forward_reduce(crn, forward.final)
print("Forward quotient (block sums):")
print(cl.serialize_crn(reduced_f.crn))

backward = cl.refine(crn, cl.Partition.trivial(crn), cl.BisimMode.BACKWARD)
print("Coarsest backward partition:", backward.final)
reduced_b = cl.backward_reduce(crn, backward.final)
print("Backward quotient (representatives):")
print(cl.serialize_crn(reduced_b.crn))

print("The two notions are incomparable: the forward partition is not a")
print("backward one and vice versa, and {{A,B},{C,E},{D}} is neither:")
mixed = cl.Partition(crn.species, [[A, B], [C, E], [D]])
for mode in (cl.BisimMode.FORWARD, cl.BisimMode.BACKWARD):
    print(f"  {mode}: {cl.is_bisimulation(crn, mixed, mode)}")
