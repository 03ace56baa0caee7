"""Measure a qubit you know nothing about, then undo the measurement.

A partial measurement is a Kraus operator M; as long as M is invertible
the disturbance can be reversed by a second measurement with a lucky
outcome.  This script builds the optimal reversal, applies it to states
the experimenter never sees, and checks the information ledger: outcome
probability times undo probability is the same for every state.
"""

import numpy as np

from uncollapse import measurement as qm

rng = np.random.default_rng(7)

# a partial measurement: strong on |2>, gentle on |1>
op = qm.KrausOperator(np.diag([1.0, np.sqrt(0.3)]))
print("POVM element E = M†M:", np.diag(op.povm_element()).real)
print("joint success |C|^2 = min eig E =", qm.joint_success_probability(op))
print()

unc = qm.build_uncollapse(op)
print("reversal operator L = |C| E^{-1/2}:", np.diag(unc.matrix).real)
print()

print("state      P(outcome)   P(undo|outcome)   product     restored?")
for label, state in [
    ("|1>", qm.QuantumState.from_ket(np.array([1.0, 0.0]))),
    ("|+>", qm.QuantumState.from_ket(np.array([1.0, 1.0]))),
    ("mixed", qm.random_density_matrix(2, rng)),
    ("random", qm.random_pure_state(2, rng)),
]:
    restored, p_outcome, p_undo = qm.measure_and_uncollapse(op, state, unc)
    err = np.max(np.abs(restored.rho - state.rho))
    print(
        f"{label:<9}  {p_outcome:.6f}     {p_undo:.6f}          "
        f"{p_outcome * p_undo:.6f}   max err {err:.1e}"
    )

print()
print("The product never budges: the collapse-undo pair extracts zero")
print("information, which is exactly why the undo can work at all.")

# the same ledger in Bayesian form: a prior over states is left untouched
states = tuple(qm.random_pure_state(2, rng) for _ in range(3))
prior = qm.PriorEnsemble(states=states, weights=np.array([0.5, 0.3, 0.2]))
posterior = qm.pair_update(prior, op, unc)
print("prior weights     :", prior.weights)
print("after measure+undo:", posterior.weights)

# how irreversible was the full POVM?
other = qm.KrausOperator(np.sqrt(np.eye(2) - op.povm_element()))
povm = qm.PovmSet(operators=(op, other))
print("irreversibility of the pair:", qm.irreversibility_measure(povm))
