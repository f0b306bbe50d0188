"""The oracle suite that `magmon verify` reports and the acceptance tests read.

Layers are called through their modules (filtering.gaussian_flow, not a
bare imported name), so a profiler that wraps module attributes sees them.
"""

import numpy as np

from . import bayes, filtering, information, model, records, spin

__all__ = ["closed_vs_integrated", "invariants"]


def closed_vs_integrated(etas, Js, kts):
    """Worst relative residuals (F_record, Q_cond) of the closed forms against
    one filtering.gaussian_flow per (eta, J, kappa t) point, at kappa = gamma
    = 1 on a 400-step grid."""
    worst_f = worst_q = 0.0
    for eta in etas:
        for J in Js:
            for kt in kts:
                p = model.ModelParams(J=J, kappa=1.0, gamma=1.0, eta=eta, B=0.0)
                grid = model.TimeGrid(t_final=kt, n_steps=400)
                var, s, F = filtering.gaussian_flow(p, grid)
                f_ref = information.fisher_record_closed(p, grid.t_final)
                worst_f = max(worst_f, abs(F[-1] - f_ref) / f_ref)
                q_num = s[-1] ** 2 / var[-1]
                q_ref = information.qfi_conditional(p, grid.t_final)
                worst_q = max(worst_q, abs(q_num - q_ref) / q_ref)
    return worst_f, worst_q


def invariants(inject_error: bool):
    """Yield (name, residual, threshold) triples for the oracle suite."""
    kappa = 1.0
    base = model.ModelParams(J=100.0, kappa=kappa, gamma=1.0, eta=1.0, B=0.0)

    # 1-2: closed forms against their integrated flows
    worst_f, worst_q = closed_vs_integrated((0.1, 0.5, 1.0), (10.0, 1e3, 1e6),
                                            (0.01, 0.1, 1.0))
    yield "fisher_record closed vs integrated", worst_f, 1e-6
    yield "qfi_conditional closed vs integrated", worst_q, 1e-6

    # 3: additivity identity
    worst = 0.0
    k2_fudge = 1.0 + 1e-6 if inject_error else 1.0
    for eta in (0.1, 0.5, 1.0):
        for J in (10.0, 1e3, 1e6):
            for kt in (0.01, 0.1, 1.0):
                p = base.replace(J=J, eta=eta)
                rep = information.effective_qfi(p, kt / kappa)
                k_form = rep.K1 * J + eta * (rep.K2 * k2_fudge) * J * J
                worst = max(worst, abs(rep.Q_tilde - k_form) / rep.Q_tilde)
    yield "Q_tilde additivity identity", worst, 1e-10

    # 4: eta = 1 collapse onto the ultimate value
    worst = 0.0
    for J in (10.0, 1e3, 1e6):
        for kt in (0.01, 0.1, 1.0):
            p = base.replace(J=J, eta=1.0)
            rep = information.effective_qfi(p, kt / kappa)
            worst = max(worst, abs(rep.Q_tilde - rep.Q_bar) / rep.Q_bar)
    yield "Q_tilde(eta=1) equals Q_bar", worst, 1e-10

    # 5: ultimate closed vs two-field integration
    worst = 0.0
    for kt in (0.01, 0.1, 1.0):
        p = base.replace(J=1e4)
        got = information.ultimate_qfi_ode(p, kt / kappa)
        ref = information.ultimate_qfi_closed(p, kt / kappa)
        worst = max(worst, abs(got - ref) / ref)
    yield "ultimate closed vs two-field flow", worst, 1e-6

    # 6: spin algebra
    worst = 0.0
    for J in (0.5, 1.0, 5.0, 10.0, 20.0):
        ops = spin.build_spin_operators(J)
        for a, b, c in ((ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx),
                        (ops.jz, ops.jx, ops.jy)):
            res = a @ b - b @ a - 1j * c
            worst = max(worst, float(np.abs(res).max()))
    yield "spin commutator algebra", worst, 1e-10

    # 7: coherent state polarization
    worst = 0.0
    for J in (10.0, 50.0):
        ops = spin.build_spin_operators(J)
        psi = spin.spin_coherent_x(J).amplitudes
        worst = max(worst, abs(float((psi @ ops.jx @ psi).real) - J))
    yield "coherent state <Jx> = J", worst, 1e-9

    # 8: unconditional transverse decay
    p = base.replace(J=10.0)
    grid = model.TimeGrid(t_final=1.0, n_steps=400)
    ops = spin.build_spin_operators(10.0)
    traj = spin.evolve_unconditional(spin.spin_coherent_x(10.0).density(),
                                     p, grid)
    jx_t = np.einsum("kij,ji->k", traj, ops.jx).real
    ref = 10.0 * np.exp(-kappa * grid.times() / 2.0)
    yield "unconditional <Jx> decay law", float(np.abs(jx_t - ref).max()), 1e-9

    # 9: two-field trace preservation on the diagonal
    p = base.replace(J=10.0)
    tr = spin.two_field_trace(p, 0.1 / kappa, 0.003, 0.003, n_steps=500)
    yield "two-field diagonal trace", abs(tr - 1.0), 1e-9

    # 10: finite-spin ultimate value against the closed form
    p = base.replace(J=20.0)
    got = spin.ultimate_qfi_finiteJ(p, 0.1 / kappa, n_steps=1000)
    ref = information.ultimate_qfi_closed(p, 0.1 / kappa)
    yield "finite-spin ultimate information gap (J=20)", abs(got - ref) / ref, 0.10

    # 11: record determinism
    p = base.replace(J=100.0)
    grid = model.TimeGrid(t_final=0.5, n_steps=2000)
    r1 = records.simulate_record(p, grid, seed=77)
    r2 = records.simulate_record(p, grid, seed=77)
    yield "record determinism", float(np.abs(r1.increments -
                                             r2.increments).max()), 0.0

    # 12: posterior normalization and permutation invariance
    batch = records.batch_simulate(p, grid, 6, seed_base=11)
    post = bayes.posterior(batch, (-0.01, 0.01), 201, boundary="allow")
    mass = float(np.dot(post.weights(), post.posterior))
    perm = bayes.posterior(batch[::-1], (-0.01, 0.01), 201, boundary="allow")
    resid = max(abs(mass - 1.0),
                float(np.abs(post.posterior - perm.posterior).max()))
    yield "posterior normalization and permutation invariance", resid, 1e-12
