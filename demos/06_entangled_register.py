"""Undo a measurement of three entangled qubits in 2^3 detector steps.

Any invertible measurement operator on an N-qubit register factors, in
the eigenbasis of M†M, into 2^N single-axis shrink factors.  Each factor
is realized by rotating the targeted axis onto the all-ones register
state, watching a detector that can only fire there, and rotating back.
If no step fires, the entangled input is back, exactly.
"""

import numpy as np

from uncollapse import multiqubit as mq
from uncollapse import measurement as qm
from uncollapse import stats
from uncollapse import trajectory as tj

rng = np.random.default_rng(42)
dim = 8  # three qubits

g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
e = g @ g.conj().T + 0.4 * np.eye(dim)
e /= np.linalg.eigvalsh(e)[-1] * 1.02
vals, vecs = np.linalg.eigh(e)
op = qm.KrausOperator((vecs * np.sqrt(vals)) @ vecs.conj().T)

plan = mq.build_plan(op, gamma=1.0)
print("step durations (units of 1/gamma):", plan.durations.round(3))
print("one step is free: the smallest-eigenvalue axis needs no shrinking")
print()

# GHZ-style entangled input
psi = np.zeros(dim, dtype=complex)
psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
psi_m = op.matrix @ psi
psi_m /= np.linalg.norm(psi_m)
psi_t = qm.polar_decompose(op).unitary.conj().T @ psi_m

ref = mq.success_probability(plan, psi_t)
trace_form, norm_form = mq.stepwise_probabilities(plan, psi_t)
print("per-step null probabilities (two independent formulas):")
for k, (a, b) in enumerate(zip(trace_form, norm_form)):
    print(f"  step {k}: {a:.6f}  vs  {b:.6f}")
print(f"their product = {np.prod(trace_form):.6f} = predicted success {ref:.6f}")
print()

# every all-null run ends in the same state, so the runs are drawn in
# closed form from the per-step null probabilities
n = 20_000
ens = mq.protocol_ensemble(plan, psi_t, n, tj.NoiseStream(5, 0))
err = np.max(np.abs(np.outer(ens.restored, ens.restored.conj()) - np.outer(psi, psi.conj())))
print(f"every all-null run restores the entangled state to {err:.1e}")
print("runs lost at each step:", ens.failures.tolist())
est = stats.bernoulli_estimate(ens.successes, n)
print(f"simulated success rate: {est.rate:.4f} [{est.ci_low:.4f}, {est.ci_high:.4f}] "
      f"vs predicted {ref:.4f}")
print()
joint = qm.outcome_probability(op, qm.QuantumState.from_ket(psi)) * ref
print(f"outcome prob x undo prob = {joint:.6f} = min eigenvalue of M†M = "
      f"{np.linalg.eigvalsh(op.povm_element())[0]:.6f}")
