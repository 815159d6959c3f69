"""Unconditional 2-D toy training: one sampling head + a learned context.

The context row stands in for backbone conditioning so the five head kinds
can be compared head-to-head on the Swiss roll under identical budgets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data
from . import graph as G
from . import nn
from .heads import Head, HeadConfig, build_loss_rows
from .nn import TrainingError
from .rng import Stream


@dataclass(frozen=True)
class ToyTrainConfig:
    steps: int = 1600
    batch: int = 128
    lr: float = 1e-3
    warmup: int = 200
    weight_decay: float = 0.0
    pool: int = 16384
    noise_sigma: float = 0.03


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
        rows = build_loss_rows(self.cfg, leaves, self.head.prefix, ctx, data)
        g.set_output(G.mean(rows))
        self._train_graph = (batch, g)
        return g

    def train_step(self, y: np.ndarray, rng: Stream, lr: float, step_index: int,
                   weight_decay: float = 0.0) -> float:
        aux = self.head.loss_bindings(y, rng, context=self.context_rows(len(y)))
        g = self._loss_graph(aux)
        try:
            run = G.evaluate(g, {**self.params.bindings(), **aux})
            loss = float(run.output)
            grads = G.backward(run)
            nn.adam_step(self.params, grads, lr=lr, weight_decay=weight_decay,
                         t=step_index)
        except (G.NonFiniteError, nn.NonFiniteGradientError) as exc:
            raise TrainingError(
                f"{self.cfg.kind}: non-finite loss/grad at step {step_index}: {exc}"
            ) from exc
        return loss

    def train(self, tcfg: ToyTrainConfig) -> list[tuple[int, float]]:
        """Full run over fresh Swiss-roll minibatches; returns (step, loss) log."""
        pool = data.swiss_roll(tcfg.pool, tcfg.noise_sigma, seed=self.seed).points
        root = Stream.from_seed(self.seed, f"train/{self.cfg.kind}")
        step_rngs = root.child([f"step/{t}" for t in range(1, tcfg.steps + 1)])
        batches = step_rngs.child("batch").integers(len(pool), (tcfg.batch,))
        history = []
        for t in range(1, tcfg.steps + 1):
            lr = tcfg.lr * min(1.0, t / max(tcfg.warmup, 1))
            loss = self.train_step(pool[batches[t - 1]], Stream(step_rngs.key[t - 1]), lr, t,
                                   tcfg.weight_decay)
            history.append((t, loss))
        return history

    def sample(self, n: int, steps: int, seed: int) -> np.ndarray:
        rng = Stream.from_seed(seed, f"sample/{self.cfg.kind}")
        return self.head.sample(self.context_rows(n), steps, rng)

    def save(self, path, *, config_digest: str = "", step: int = 0) -> None:
        self.head.save(path, config_digest=config_digest, seed=self.seed, step=step,
                       extra={"model": "toy_head"})

    @classmethod
    def load(cls, path) -> "ToyHeadModel":
        manifest, values = nn.load_checkpoint(path)
        cfg = nn.config_from_manifest(HeadConfig, manifest, "head_config", path)
        model = cls(cfg, seed=manifest["seed"])
        model.params.assign(values, path)
        return model
