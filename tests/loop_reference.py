"""Reference per-step loops for the tests: one stream chain per draw.

These are the loops that the batched draws in ``escore.heads``,
``escore.swiss`` and ``escore.mar`` replaced. The diffusion sampler draws
step k's noise from its own ``step{k}`` stream, the energy loss draws sample
i's noise from ``noise{i}``, and both training drivers walk ``step/{t}`` ->
``batch`` one step at a time, all from the one-key reference streams. The
batched code must give the same bits.

The flow, shortcut and mean-flow samplers are the per-kind loops that
``Head.sample``'s one step loop replaced, each building its condition rows
anew at every step. The one loop must give their bits too.
"""
from __future__ import annotations

import numpy as np

from escore import data, nn, rng
from escore import graph as G
from escore.heads import X0_CLIP, time_features
from escore.mar import class_pools

from rng_reference import Stream


def sample_diffusion(head, context: np.ndarray, steps: int, stream: Stream) -> np.ndarray:
    """``Head.sample`` for a diffusion head."""
    cfg, sched = head.cfg, head.schedule
    rows, d, f = len(context), data.LATENT_DIM, cfg.time_feat_dim
    taus = sched.respaced(steps)
    z = stream.child("z0").normal((rows, d))
    for k, tau in enumerate(taus):
        lo = taus[k + 1] if k + 1 < len(taus) else 0
        ab_hi = sched.alphabar[tau]
        ab_lo = sched.alphabar[lo]
        feats = time_features(np.full(rows, tau / cfg.t_diff), f)
        eps_hat = head.forward_values(z, np.concatenate([context, feats], axis=1))
        x0 = (z - np.sqrt(1.0 - ab_hi) * eps_hat) / np.sqrt(ab_hi)
        x0 = np.clip(x0, -X0_CLIP, X0_CLIP)
        alpha_eff = ab_hi / ab_lo
        beta_eff = 1.0 - alpha_eff
        mean = (np.sqrt(ab_lo) * beta_eff / (1.0 - ab_hi)) * x0 \
            + (np.sqrt(alpha_eff) * (1.0 - ab_lo) / (1.0 - ab_hi)) * z
        var = (1.0 - ab_lo) / (1.0 - ab_hi) * beta_eff
        z = mean
        if lo > 0 and var > 0:
            z = z + np.sqrt(var) * stream.child(f"step{k}").normal((rows, d))
    return z


def sample_flow(head, context: np.ndarray, steps: int, stream: Stream) -> np.ndarray:
    """``Head.sample`` for a flow head."""
    rows, d, f = len(context), data.LATENT_DIM, head.cfg.time_feat_dim
    z = stream.child("z0").normal((rows, d))
    dt = 1.0 / steps
    for k in range(steps):
        feats = time_features(np.full(rows, k * dt), f)
        z = z + dt * head.forward_values(z, np.concatenate([context, feats], axis=1))
    return z


def sample_shortcut(head, context: np.ndarray, steps: int, stream: Stream) -> np.ndarray:
    """``Head.sample`` for a shortcut head."""
    rows, d, f = len(context), data.LATENT_DIM, head.cfg.time_feat_dim
    z = stream.child("z0").normal((rows, d))
    dt = 1.0 / steps
    dfeat = time_features(np.full(rows, dt), f)
    for k in range(steps):
        tfeat = time_features(np.full(rows, k * dt), f)
        z = z + dt * head.forward_values(
            z, np.concatenate([context, tfeat, dfeat], axis=1))
    return z


def sample_meanflow(head, context: np.ndarray, steps: int, stream: Stream) -> np.ndarray:
    """``Head.sample`` for a mean-flow head: average-velocity jumps from t=1
    (noise) down to t=0 (data)."""
    rows, d, f = len(context), data.LATENT_DIM, head.cfg.time_feat_dim
    z = stream.child("z0").normal((rows, d))
    grid = np.linspace(1.0, 0.0, steps + 1)
    for hi, lo in zip(grid[:-1], grid[1:]):
        cond = np.concatenate([context, time_features(np.full(rows, lo), f),
                               time_features(np.full(rows, hi), f)], axis=1)
        z = z - (hi - lo) * head.forward_values(z, cond)
    return z


def energy_noise(head, rows: int, stream: Stream) -> dict[str, np.ndarray]:
    """The noise bindings of an energy head's loss."""
    return {f"n{i}": stream.child(f"noise{i}").normal((rows, head.cfg.noise_dim))
            for i in range(head.cfg.m_samples)}


def toy_train(model, *, steps: int, batch: int, lr: float, warmup: int,
              weight_decay: float, pool: int, noise_sigma: float) -> list[dict]:
    """``ToyHeadModel.train``."""
    points = data.swiss_roll(pool, noise_sigma, seed=model.seed).points
    root = Stream.from_seed(model.seed, f"train/{model.cfg.kind}")
    log = []
    for t in range(1, steps + 1):
        step = root.child(f"step/{t}")
        y = points[step.child("batch").integers(len(points), (batch,))]
        if model.cfg.kind == "energy":
            aux = {"y": y, **energy_noise(model.head, len(y), step)}
        else:
            aux = model.head.loss_bindings(y, step, context=model.context_rows(len(y)))
        run = G.evaluate(model._loss_graph(aux), aux)
        lr_t = lr * min(1.0, t / max(warmup, 1))
        nn.adam_step(model.params, G.backward(run), lr=lr_t, weight_decay=weight_decay, t=t)
        loss = float(run.output)
        log.append({"step": t, "energy": loss, "distill": 0.0, "total": loss,
                    "lambda": 0.0, "lr": lr_t, "seed": model.seed})
    return log


def train_mar(model, *, steps: int, batch: int, lr: float, warmup: int,
              per_class: int) -> list[dict]:
    """``mar.train_mar`` without a teacher; each step's masks and dropout
    come from ``step_bindings`` on that step's key."""
    latents, ids = class_pools(model.cfg, model.seed, per_class, 0.02)
    root = Stream.from_seed(model.seed, f"train_mar/{model.cfg.head_kind}")
    log = []
    for t in range(1, steps + 1):
        step = root.child(f"step/{t}")
        idx = step.child("batch").integers(len(latents), (batch,))
        bindings = model.step_bindings(latents[idx], ids[idx], rng.Stream(step.key))
        if model.cfg.head_kind == "energy":
            bindings.update(energy_noise(model.head, len(bindings["y"]), step.child("head")))
        g, nodes = model._train_graph(bindings, 0.0, False)
        run = G.evaluate(g, bindings)
        cur_lr = lr * min(1.0, t / max(warmup, 1))
        nn.adam_step(model.params, G.backward(run), lr=cur_lr, weight_decay=0.0, t=t)
        energy = float(run.value(nodes["energy"]))
        log.append({"step": t, "energy": energy, "distill": 0.0, "total": energy,
                    "lambda": 0.0, "lr": cur_lr, "seed": model.seed})
    return log
