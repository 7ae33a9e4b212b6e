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
