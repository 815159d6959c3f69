"""Unconditional 2-D toy training: one sampling head + a learned context.

The context row stands in for backbone conditioning so the five head kinds
can be compared head-to-head on the Swiss roll under identical budgets.
"""
from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import data
from . import graph as G
from . import nn
from .heads import Head, HeadConfig, build_loss_rows
from .rng import Stream


class ToyHeadModel:
    """Head plus a learned constant context vector, trained on the Swiss roll."""

    def __init__(self, cfg: HeadConfig, seed: int):
        self.head = Head(cfg, seed)
        self.params = self.head.params
        ctx0 = 0.1 * Stream.from_seed(seed, "init/context").normal((1, cfg.context_dim))
        self.params.add("context", ctx0)
        self.seed = seed
        self._train_graph: tuple[int, G.Graph] | None = None

    @property
    def cfg(self) -> HeadConfig:
        return self.head.cfg

    def context_rows(self, n: int) -> np.ndarray:
        return np.broadcast_to(self.params["context"].value, (n, self.cfg.context_dim)).copy()

    def _loss_graph(self, aux: dict[str, np.ndarray]) -> G.Graph:
        """The mean loss over one step's :meth:`Head.loss_bindings`; built from
        the first step's and cached per batch size."""
        batch = len(aux["y"])
        if self._train_graph is not None and self._train_graph[0] == batch:
            return self._train_graph[1]
        g = G.Graph()
        leaves = G.declare(g, self.params, grad=True)
        data = G.declare(g, aux)
        ctx = G.broadcast_to(leaves["context"], (batch, self.cfg.context_dim))
        rows = build_loss_rows(self.cfg, leaves, ctx, data)
        g.set_output(G.mean(rows))
        self._train_graph = (batch, g)
        return g

    def train_step(self, y: np.ndarray, rng: Stream, lr: float, step_index: int,
                   weight_decay: float) -> float:
        with nn.step_guard(self.cfg.kind, step_index):   # targets run the head too
            aux = self.head.loss_bindings(y, rng, context=self.context_rows(len(y)))
        run = nn.descend(self._loss_graph(aux), aux, self.params, self.cfg.kind,
                         lr=lr, weight_decay=weight_decay, t=step_index)
        return float(run.output)

    def train(self, *, steps: int, batch: int, lr: float, warmup: int,
              weight_decay: float, pool: int, noise_sigma: float) -> list[dict]:
        """Full run over minibatches of a ``pool``-point Swiss roll; returns
        one log record per step, as ``mar.train_mar`` does: the kind's loss is
        the energy and total column, ``lr`` the step's warmed-up rate."""
        points = data.swiss_roll(pool, noise_sigma, seed=self.seed).points

        def step(idx, rng, lr_t, t):
            loss = self.train_step(points[idx], rng, lr_t, t, weight_decay)
            return {"step": t, "energy": loss, "distill": 0.0, "total": loss,
                    "lambda": 0.0, "lr": lr_t, "seed": self.seed}

        return nn.train_loop(self.seed, f"train/{self.cfg.kind}", len(points),
                             steps=steps, batch=batch, lr=lr, warmup=warmup, step=step)

    def sample(self, n: int, steps: int, seed: int) -> np.ndarray:
        rng = Stream.from_seed(seed, f"sample/{self.cfg.kind}")
        return self.head.sample(self.context_rows(n), steps, rng)

    def save(self, path, *, config_digest: str = "", step: int = 0) -> None:
        nn.save_checkpoint(path, self.params, config_digest=config_digest, seed=self.seed,
                           step=step, extra={"model": "toy_head",
                                             "head_config": asdict(self.cfg)})

    @classmethod
    def load(cls, path) -> "ToyHeadModel":
        return nn.load_model(cls, HeadConfig, "head_config", path)
