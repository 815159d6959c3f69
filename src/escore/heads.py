"""The five interchangeable continuous sampling heads.

Each head is a stack of AdaLN residual blocks mapping an input vector to a
latent, conditioned on a context row. The energy-scoring head draws the
latent in one forward pass; diffusion, flow-matching, shortcut, and
mean-flow are the multi/few-step baselines. Their losses are fixed here,
and so is one sampling loop for all four, which differ only in their time
grid and per-step update, and one rule for the step counts a head takes
(:meth:`HeadConfig.check_steps`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as G
from . import nn
from .data import LATENT_DIM
from .rng import Stream

HEAD_KINDS = ("energy", "diffusion", "flow", "shortcut", "meanflow")
WIRING_NOISE_AS_INPUT = "noise_as_input"
WIRING_NOISE_AS_CONDITION = "noise_as_condition"
HEAD_PREFIX = "head"   # the head's parameter names start "head."
BETA_MAX = 0.999             # clip of the diffusion schedule's per-step betas
X0_CLIP = 4.0                # denoised-estimate clamp during diffusion sampling
SHORTCUT_LEVELS = 7          # dyadic step grid {1, 1/2, ..., 1/2^(levels-1)}
CONSISTENCY_FRAC = 0.25      # share of shortcut rows trained for self-consistency
R_EQ_T_PROB = 0.75           # share of mean-flow rows drawn with r = t


@dataclass(frozen=True)
class HeadConfig:
    """One head's shape and sampler settings, saved whole in its checkpoint. The
    latent width, the shortcut and mean-flow training mixes and the diffusion
    sampler's clips are module constants, not fields."""
    kind: str
    noise_dim: int = LATENT_DIM  # defaults to the latent dim's one-to-one mapping
    width: int = 256
    depth: int = 3
    context_dim: int = 16
    wiring: str = WIRING_NOISE_AS_INPUT   # energy only; Figure-style (a)/(b) choice
    m_samples: int = 2           # model samples per target in the energy loss
    t_diff: int = 100            # diffusion chain length
    time_feat_dim: int = 16

    def __post_init__(self):
        if self.kind not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {self.kind!r}")
        if self.wiring not in (WIRING_NOISE_AS_INPUT, WIRING_NOISE_AS_CONDITION):
            raise ValueError(f"unknown wiring {self.wiring!r}")
        if self.m_samples < 2:
            raise ValueError("m_samples must be >= 2")
        if self.time_feat_dim % 2:
            raise ValueError("time_feat_dim must be even")

    def check_steps(self, steps: int) -> None:
        """Rejects a step count this head cannot sample with, before any work."""
        if steps < 1:
            raise ValueError(f"head steps must be >= 1, got {steps}")
        if self.kind == "energy" and steps != 1:
            raise ValueError("energy heads sample in exactly one step")
        if self.kind == "diffusion" and steps > self.t_diff:
            raise ValueError(f"a diffusion head takes at most its chain length "
                             f"t_diff = {self.t_diff} steps, got {steps}")

    @property
    def n_time_inputs(self) -> int:
        return {"energy": 0, "diffusion": 1, "flow": 1,
                "shortcut": 2, "meanflow": 2}[self.kind]

    @property
    def input_dim(self) -> int:
        if self.kind == "energy":
            return energy_inputs(self, self.context_dim, self.noise_dim)[0]
        return LATENT_DIM

    @property
    def cond_dim(self) -> int:
        if self.kind == "energy":
            return energy_inputs(self, self.context_dim, self.noise_dim)[1]
        return self.context_dim + self.n_time_inputs * self.time_feat_dim


def energy_inputs(cfg: HeadConfig, context, noise) -> tuple:
    """The energy head's (block input, condition) under ``cfg.wiring``, from
    its context and noise: graph nodes, arrays or widths alike."""
    return (noise, context) if cfg.wiring == WIRING_NOISE_AS_INPUT else (context, noise)


def time_features(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of scalars in [0, 1] at octave-spaced frequencies."""
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    omega = 2.0 * np.pi * (2.0 ** np.arange(dim // 2))
    return np.concatenate([np.sin(t * omega), np.cos(t * omega)], axis=1)


def time_features_dt(t: np.ndarray, dim: int) -> np.ndarray:
    """d/dt of :func:`time_features` (needed for mean-flow's total derivative)."""
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    omega = 2.0 * np.pi * (2.0 ** np.arange(dim // 2))
    return np.concatenate([omega * np.cos(t * omega), -omega * np.sin(t * omega)], axis=1)


# ---------------------------------------------------------------------------
# energy-distance loss

def build_energy_rows_m(samples: list[G.Node], y: G.Node) -> G.Node:
    """Per-row m-sample energy loss, shape (rows,): (2/m) sum_i ||x_i - y||
    - (2/(m(m-1))) sum_{i<j} ||x_i - x_j||, with smoothed norms."""
    m = len(samples)
    if m < 2:
        raise G.GraphError("energy loss needs at least 2 samples")
    rows = None
    for x in samples:
        term = G.row_norm(x - y)
        rows = term if rows is None else rows + term
    rows = G.scale(rows, 2.0 / m)
    repel = None
    for i in range(m):
        for j in range(i + 1, m):
            term = G.row_norm(samples[i] - samples[j])
            repel = term if repel is None else repel + term
    return rows - G.scale(repel, 2.0 / (m * (m - 1)))


# ---------------------------------------------------------------------------
# diffusion schedule

class DiffusionSchedule:
    """Cosine alpha-bar schedule with clipped per-step betas."""

    def __init__(self, t_diff: int = 100, shift: float = 0.008):
        t = np.arange(t_diff + 1, dtype=np.float64)
        f = np.cos(((t / t_diff + shift) / (1.0 + shift)) * np.pi / 2.0) ** 2
        raw = f / f[0]
        betas = np.clip(1.0 - raw[1:] / raw[:-1], 1e-8, BETA_MAX)
        self.t_diff = t_diff
        self.betas = betas
        self.alphabar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])

    def respaced(self, steps: int) -> np.ndarray:
        """Descending sub-chain of `steps` timesteps ending near t=1."""
        if not 1 <= steps <= self.t_diff:
            raise ValueError(f"steps must be in [1, {self.t_diff}], got {steps}")
        return np.round(np.linspace(self.t_diff, 1, steps)).astype(int)

    def noisy_sample(self, y: np.ndarray, t: np.ndarray, eps: np.ndarray) -> np.ndarray:
        ab = self.alphabar[t][:, None]
        return np.sqrt(ab) * y + np.sqrt(1.0 - ab) * eps


# ---------------------------------------------------------------------------
# head network

def register_head(params: nn.ParameterSet, cfg: HeadConfig, seed: int) -> None:
    nn.add_linear(params, seed, f"{HEAD_PREFIX}.inp", cfg.input_dim, cfg.width)
    for k in range(cfg.depth):
        nn.AdaLnResBlock(f"{HEAD_PREFIX}.block{k}", cfg.width,
                         cfg.cond_dim).register(params, seed)
    nn.add_linear(params, seed, f"{HEAD_PREFIX}.out", cfg.width, LATENT_DIM, zero=True)


def build_head(cfg: HeadConfig, leaves: dict[str, G.Node], inp: G.Node,
               cond: G.Node) -> G.Node:
    """Input projection -> depth AdaLN blocks -> output projection."""
    x = nn.build_linear(leaves, f"{HEAD_PREFIX}.inp", inp)
    for k in range(cfg.depth):
        block = nn.AdaLnResBlock(f"{HEAD_PREFIX}.block{k}", cfg.width, cfg.cond_dim)
        x = block.build(leaves, x, cond)
    return nn.build_linear(leaves, f"{HEAD_PREFIX}.out", x)


# ---------------------------------------------------------------------------
# per-kind loss graphs

MEANFLOW_WEIGHT_P = 0.5      # adaptive row weight (msq + c)^-p, stop-gradient
MEANFLOW_WEIGHT_C = 1e-3


def build_loss_rows(cfg: HeadConfig, leaves: dict[str, G.Node], context: G.Node,
                    aux: dict[str, G.Node]) -> G.Node:
    """Per-row loss node (rows,) over the data leaves ``aux``, declared from
    :meth:`Head.loss_bindings`."""
    if cfg.kind == "energy":
        # one stacked forward for all m samples (rows repeat per noise draw)
        m = cfg.m_samples
        n_rows = aux["y"].shape[0]
        stacked = build_head(cfg, leaves, *energy_inputs(
            cfg, G.concat([context] * m, axis=0),
            G.concat([aux[f"n{i}"] for i in range(m)], axis=0)))
        samples = [G.narrow(stacked, 0, i * n_rows, n_rows) for i in range(m)]
        return build_energy_rows_m(samples, aux["y"])

    feats = [aux[n] for n in ("t0", "t1") if n in aux]
    cond = G.concat([context] + feats, axis=1)
    pred = build_head(cfg, leaves, aux["zt"], cond)
    target = {"diffusion": "eps", "flow": "vel",
              "shortcut": "target", "meanflow": "target"}[cfg.kind]
    diff = pred - aux[target]
    # mean squared error per row: (1/d) sum_d (pred - target)^2
    ones = context.graph.constant(np.ones((LATENT_DIM, 1)))
    sq_rows = G.reshape(G.matmul(diff * diff, ones), (diff.shape[0],))
    rows = G.scale(sq_rows, 1.0 / LATENT_DIM)
    if "roww" in aux:
        rows = rows * aux["roww"]   # adaptive weights, constant to the gradient
    return rows


class Head:
    """Owns one head's parameters plus cached evaluation graphs."""

    def __init__(self, cfg: HeadConfig, seed: int, params: nn.ParameterSet | None = None):
        self.cfg = cfg
        self.params = nn.ParameterSet() if params is None else params
        register_head(self.params, cfg, seed)
        # inference graphs declare only this head's weights
        self._own_params = self.params.subset(
            lambda name: name.startswith(HEAD_PREFIX + "."))
        self.schedule = DiffusionSchedule(cfg.t_diff) if cfg.kind == "diffusion" else None
        self._eval_graphs: dict[int, G.Graph] = {}
        self.forward_rows = 0   # instrumented row count through the head

    # -- plain (no-grad) forward -------------------------------------------
    def _eval_graph(self, rows: int) -> G.Graph:
        g = self._eval_graphs.get(rows)
        if g is None:
            g = G.Graph()
            leaves = G.declare(g, self._own_params)
            inp = g.leaf("inp", (rows, self.cfg.input_dim))
            cond = g.leaf("cond", (rows, self.cfg.cond_dim))
            g.set_output(build_head(self.cfg, leaves, inp, cond))
            self._eval_graphs[rows] = g
        return g

    def forward_values(self, inp: np.ndarray, cond: np.ndarray) -> np.ndarray:
        g = self._eval_graph(len(inp))
        self.forward_rows += len(inp)
        return G.evaluate(g, {"inp": inp, "cond": cond}).output

    def forward_with_jvp(self, inp, cond, d_inp, d_cond) -> tuple[np.ndarray, np.ndarray]:
        """(output, directional derivative along the inputs, the weights held
        fixed) from one forward sweep."""
        return G.jvp(self._eval_graph(len(inp)), {"inp": inp, "cond": cond},
                     {"inp": d_inp, "cond": d_cond})

    # -- energy-head one-step latent (the spec'd single-sample entry point) --
    def energy_sample(self, context: np.ndarray, noise: np.ndarray) -> np.ndarray:
        if self.cfg.kind != "energy":
            raise ValueError("energy_sample requires an energy head")
        return self.forward_values(*energy_inputs(self.cfg, context, noise))

    # -- loss bindings (numpy side of the training step) ---------------------
    def loss_bindings(self, y: np.ndarray, rng: Stream,
                      context: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Per-step leaf values for this kind's loss graph.

        `context` is required for shortcut/mean-flow targets (the head is
        re-evaluated under stop-gradient to build them).
        """
        cfg = self.cfg
        rows, d = y.shape
        f = cfg.time_feat_dim
        out: dict[str, np.ndarray] = {"y": y}
        if cfg.kind == "energy":
            noise = rng.child([f"noise{i}" for i in range(cfg.m_samples)]) \
                .normal((rows, cfg.noise_dim))
            out.update((f"n{i}", z) for i, z in enumerate(noise))
            return out
        if cfg.kind == "diffusion":
            t = 1 + rng.child("t").integers(cfg.t_diff, (rows,))
            eps = rng.child("eps").normal((rows, d))
            out["zt"] = self.schedule.noisy_sample(y, t, eps)
            out["eps"] = eps
            out["t0"] = time_features(t / cfg.t_diff, f)
            return out
        if cfg.kind == "flow":
            t = rng.child("t").uniform((rows,))
            x0 = rng.child("x0").normal((rows, d))
            out["zt"] = (1.0 - t[:, None]) * x0 + t[:, None] * y
            out["vel"] = y - x0
            out["t0"] = time_features(t, f)
            return out
        if context is None:
            raise ValueError(f"{cfg.kind} loss bindings need the context rows")
        if cfg.kind == "shortcut":
            return self._shortcut_bindings(y, rng, context)
        return self._meanflow_bindings(y, rng, context)

    def _shortcut_bindings(self, y, rng, context):
        """First n_cons rows train self-consistency at token 2d; the rest
        train the flow-matching term at the d=0 token."""
        cfg = self.cfg
        rows, d = y.shape
        f = cfg.time_feat_dim
        n_cons = int(round(rows * CONSISTENCY_FRAC))
        x0 = rng.child("x0").normal((rows, d))
        u = rng.child("t").uniform((rows,))
        t = u.copy()
        dtok = np.zeros(rows)
        if n_cons:
            # half-step d from the dyadic grid; t on the 2d-aligned slots
            lv = 1 + rng.child("lvl").integers(SHORTCUT_LEVELS - 1, (n_cons,))
            dc = 0.5 ** lv
            slots = np.round(1.0 / (2.0 * dc)).astype(int)
            t[:n_cons] = np.minimum(2.0 * dc * np.floor(u[:n_cons] * slots), 1.0 - 2.0 * dc)
            dtok[:n_cons] = 2.0 * dc
        zt = (1.0 - t[:, None]) * x0 + t[:, None] * y
        target = y - x0
        if n_cons:
            zc, tc, dc = zt[:n_cons], t[:n_cons], 0.5 * dtok[:n_cons]
            hc = context[:n_cons]
            s1 = self.forward_values(zc, np.concatenate(
                [hc, time_features(tc, f), time_features(dc, f)], axis=1))
            zmid = zc + dc[:, None] * s1
            s2 = self.forward_values(zmid, np.concatenate(
                [hc, time_features(tc + dc, f), time_features(dc, f)], axis=1))
            target = target.copy()
            target[:n_cons] = 0.5 * (s1 + s2)
        return {"y": y, "zt": zt, "target": target,
                "t0": time_features(t, f), "t1": time_features(dtok, f)}

    def _meanflow_bindings(self, y, rng, context):
        cfg = self.cfg
        rows, d = y.shape
        f = cfg.time_feat_dim
        t = rng.child("t").uniform((rows,))
        r = np.where(rng.child("coin").uniform((rows,)) < R_EQ_T_PROB,
                     t, t * rng.child("r").uniform((rows,)))
        eps = rng.child("eps").normal((rows, d))
        # data at time 0, noise at time 1
        zt = (1.0 - t[:, None]) * y + t[:, None] * eps
        vel = eps - y
        cond = np.concatenate([context, time_features(r, f), time_features(t, f)], axis=1)
        d_cond = np.concatenate([np.zeros_like(context),
                                 np.zeros((rows, f)), time_features_dt(t, f)], axis=1)
        u_pred, du_dt = self.forward_with_jvp(zt, cond, vel, d_cond)
        target = vel - (t - r)[:, None] * du_dt
        # bootstrapped targets explode under plain MSE; damp rows adaptively
        msq = ((u_pred - target) ** 2).mean(axis=1)
        roww = (msq + MEANFLOW_WEIGHT_C) ** -MEANFLOW_WEIGHT_P
        return {"y": y, "zt": zt, "target": target,
                "t0": time_features(r, f), "t1": time_features(t, f), "roww": roww}

    # -- sampling -------------------------------------------------------------
    def sample(self, context: np.ndarray, steps: int, rng: Stream) -> np.ndarray:
        """Draw len(context) latents: the energy head in one pass, the others
        from ``z0`` noise in one pass per step. Flow and shortcut take Euler
        steps from t=0 to t=1, mean-flow average-velocity jumps from t=1 to
        t=0, and diffusion clipped ancestral steps down the respaced chain."""
        cfg = self.cfg
        cfg.check_steps(steps)
        rows, c, f = len(context), cfg.context_dim, cfg.time_feat_dim
        if cfg.kind == "energy":
            return self.energy_sample(context, rng.child("noise").normal((rows, cfg.noise_dim)))
        z = rng.child("z0").normal((rows, LATENT_DIM))
        if cfg.kind == "diffusion":
            taus = self.schedule.respaced(steps)
            feats = time_features(taus / cfg.t_diff, f)
            # step k's noise comes from its own step{k} stream; the last step adds
            # none. Rewrapping the key also takes the tests' one-key reference streams.
            noise = Stream(rng.key).child([f"step{k}" for k in range(steps - 1)]) \
                .normal((rows, LATENT_DIM))
        elif cfg.kind == "meanflow":
            grid = np.linspace(1.0, 0.0, steps + 1)
            at = time_features(grid, f)
            feats = np.concatenate([at[1:], at[:-1]], axis=1)   # (lo, hi) per step
            jumps = np.diff(grid)   # lo - hi, exactly -(hi - lo)
        else:
            dt = 1.0 / steps
            feats = time_features(np.arange(steps) * dt, f)
            if cfg.kind == "shortcut":   # each step is also conditioned on its size
                feats = np.concatenate(
                    [feats, np.repeat(time_features(dt, f), steps, axis=0)], axis=1)
            jumps = np.full(steps, dt)
        cond = np.empty((rows, cfg.cond_dim))
        cond[:, :c] = context
        for k in range(steps):
            cond[:, c:] = feats[k]   # every row has the same step time
            out = self.forward_values(z, cond)
            if cfg.kind == "diffusion":
                z = self._ancestral_step(z, out, taus, k, noise)
            else:
                z = z + jumps[k] * out
        return z

    def _ancestral_step(self, z, eps_hat, taus, k, noise):
        """One clipped ancestral step from chain time taus[k] to the next."""
        sched = self.schedule
        lo = taus[k + 1] if k + 1 < len(taus) else 0
        ab_hi = sched.alphabar[taus[k]]
        ab_lo = sched.alphabar[lo]
        x0 = (z - np.sqrt(1.0 - ab_hi) * eps_hat) / np.sqrt(ab_hi)
        x0 = np.clip(x0, -X0_CLIP, X0_CLIP)
        alpha_eff = ab_hi / ab_lo
        beta_eff = 1.0 - alpha_eff
        mean = (np.sqrt(ab_lo) * beta_eff / (1.0 - ab_hi)) * x0 \
            + (np.sqrt(alpha_eff) * (1.0 - ab_lo) / (1.0 - ab_hi)) * z
        var = (1.0 - ab_lo) / (1.0 - ab_hi) * beta_eff
        if lo > 0 and var > 0:
            return mean + np.sqrt(var) * noise[k]
        return mean
