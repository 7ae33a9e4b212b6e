"""Scalar reference formulas for the per-step quantities of the analysis.

``build_trace`` computes every series vectorised over the whole run; these
plain one-step formulas are what the tests compare it against.  They take
well-formed inputs and do no validation.
"""

import math

import numpy as np


def u_aux(w_t, w_prev, beta1):
    """Momentum-corrected auxiliary iterate (w_t - beta1*w_prev)/(1 - beta1)."""
    return (np.asarray(w_t) - beta1 * np.asarray(w_prev)) / (1.0 - beta1)


def delta_gap(eta_v_prev, eta_v_cur):
    """Componentwise rate gap Delta_t = eta_{v_{t-1}} - eta_{v_t}."""
    return np.asarray(eta_v_prev) - np.asarray(eta_v_cur)


def accumulate_S(S_prev, g):
    """S_t = S_{t-1} + g*g (componentwise cumulative gradient energy)."""
    g = np.asarray(g)
    return np.asarray(S_prev) + g * g


def zeta_sum(eta_v_prev, grad_w):
    """sum_i eta_{v_{t-1},i} * (grad_i f(w_t))^2."""
    gw = np.asarray(grad_w)
    return float(np.sum(np.asarray(eta_v_prev) * gw * gw))


def lyapunov_fhat(f_u, f_star, eta_v_prev, C):
    """fhat(u_t) = f(u_t) - f* + C * sum_i eta_{v_{t-1},i}."""
    return float(f_u) - float(f_star) + float(C) * float(np.sum(eta_v_prev))


def lambda_phi(g, S_prev_total, t, phi):
    """Lambda_{phi,t} = |g_t|^2 / ((t+1)^phi * sqrt(S_{t-1}))."""
    g = np.asarray(g)
    return float(g @ g) / ((t + 1.0) ** phi * math.sqrt(S_prev_total))


def m_term1(eta_v_prev, grad_w, g):
    """M_{t,1} = sum_i eta_{v_{t-1},i} * grad_i f(w_t) * (grad_i f(w_t) - g_{t,i})."""
    gw = np.asarray(grad_w)
    return float(np.sum(np.asarray(eta_v_prev) * gw * (gw - np.asarray(g))))


def sigmoid_branchwise(x):
    """1/(1 + exp(-x)) where x >= 0 and exp(x)/(1 + exp(x)) elsewhere, by masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# The logistic kernels on the unsigned rows and the labels, as written before
# ``Logistic.signed_rows`` folded the labels in; the folded ones must match
# them bitwise (y = +/-1, so every sign flip is exact).


def logistic_loss_batch(p, W):
    Z = W @ p.rows.T
    data = np.mean(np.logaddexp(0.0, -p.labels * Z), axis=1)
    return data + 0.5 * p.reg * np.einsum("ij,ij->i", W, W)


def logistic_grad_batch(p, W):
    Z = W @ p.rows.T
    P = sigmoid_branchwise(-p.labels * Z)
    return -(P * p.labels) @ p.rows / p.rows.shape[0] + p.reg * W


def logistic_oracle_rows(p, W, draws):
    a = p.rows[draws]
    z = np.einsum("kd,kd->k", a, W)
    y = p.labels[draws]
    return -(y * sigmoid_branchwise(-y * z))[:, None] * a + p.reg * W


def sweep_per_step(p, h, T, seeds, checkpoints, rule="adam", collect_dsum=False):
    """The seed sweep one step at a time: every running statistic is updated
    in place after each step and copied out at the checkpoints.  The blocked
    sweep of ``experiments.run_sweep`` must match it bitwise."""
    from adamabc.core import alpha1, beta2_at, eta_at
    from adamabc.optimizer import BLOCK, prefetch_draws
    from adamabc.problems import grad_batch, oracle_rows, rng_stream

    S, d = len(seeds), p.dim
    cps = list(checkpoints)
    rngs = [rng_stream("trajectory", s, "oracle") for s in seeds]
    W, M, V = np.ones((S, d)), np.zeros((S, d)), np.full((S, d), h.v)
    run_gsq, eta_gsq, sup_gsq = np.zeros(S), np.zeros(S), np.zeros(S)
    Svec = np.full((S, d), h.v)
    sup_sigv = np.full(S, d * h.v)
    eta_prev = np.full((S, d), h.v / alpha1(h))
    dsum = np.empty((S, T))
    names = ("avg_gsq", "last_grad", "eta_gsq_sum", "S_total", "sigma_v", "sup_sigma_v", "sup_grad")
    out = {name: np.empty((S, len(cps))) for name in names}
    block, c = None, 0
    for t in range(1, T + 1):
        j = (t - 1) % BLOCK
        if j == 0:
            block = prefetch_draws(p, min(BLOCK, T - t + 1), rngs, out=block)
        grad_now = grad_batch(p, W)
        gn2 = np.einsum("sd,sd->s", grad_now, grad_now)
        eta_t = eta_at(t, h)
        run_gsq += gn2
        eta_gsq += eta_t * gn2
        np.maximum(sup_gsq, gn2, out=sup_gsq)
        G = oracle_rows(p, W, None if block is None else block[j])
        if rule == "adam":
            b2 = beta2_at(t, h)
            V = b2 * V + (1.0 - b2) * (G * G)
            M = h.beta1 * M + (1.0 - h.beta1) * G
            eta_v = eta_t / (np.sqrt(V) + h.mu)
            W = W - eta_v * M
            dsum[:, t - 1] = (eta_prev - eta_v).sum(axis=1)
            eta_prev = eta_v
        else:
            W = W - t**-0.5 * G
        Svec += G * G
        sigv = V.sum(axis=1)
        np.maximum(sup_sigv, sigv, out=sup_sigv)
        if c < len(cps) and t == cps[c]:
            out["avg_gsq"][:, c] = run_gsq / t
            out["last_grad"][:, c] = np.sqrt(gn2)
            out["eta_gsq_sum"][:, c] = eta_gsq
            out["S_total"][:, c] = Svec.sum(axis=1)
            out["sigma_v"][:, c] = sigv
            out["sup_sigma_v"][:, c] = sup_sigv
            out["sup_grad"][:, c] = np.sqrt(sup_gsq)
            c += 1
    out["final_W"] = W
    if collect_dsum:
        out["dsum"] = dsum
    return out
