"""Masked autoregressive continuous sampling on toy latent sequences.

Training masks a random subset of positions and scores the head's samples
at exactly those positions; decoding fills a fully-masked sequence over
several parallel iterations. Classifier-free guidance happens at the
representation level: conditional and null backbone outputs are combined
linearly before the head ever runs.

A decode iteration reads the backbone only at the positions it samples. Every
token is a key and a value, so each pass runs every token up to the last
block's attention mix; the last block's output half (its output projection,
LN2 and MLP) then runs on the sampled rows only, one to three of each
sequence's 18 tokens at the default sizes. Each of those rows is bit for bit
the row a pass over every token gives, because a product of an even number of
rows rounds each row as the per-sequence product does. A one-row product takes
BLAS's matrix-vector path, and OpenBLAS's Haswell kernels round the last row
of any odd count on its own, so an odd count runs with a copy of its last row.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import graph as G
from . import nn
from .data import LATENT_DIM, N_CLASSES, conditional_sequences
from .heads import Head, HeadConfig, build_loss_rows
from .rng import Stream

NULL_CLASS = -1          # sentinel for the CFG unconditional pass
PREFIX_TOKENS = 2        # conditioning rows prepended to the latent tokens
BACKBONE_PREFIX = "backbone"   # the backbone's parameter names start "backbone."


@dataclass(frozen=True)
class MarConfig:
    """One MAR model's shape and training mask; the field defaults are the
    ``mar`` config section's."""
    seq_len: int = 16
    hidden_dim: int = 64
    n_blocks: int = 4
    n_heads: int = 4
    head_kind: str = "energy"
    head_width: int = 128
    head_depth: int = 3
    m_samples: int = 2
    wiring: str = "noise_as_input"
    mask_lo: float = 0.70
    mask_hi: float = 1.00
    p_drop: float = 0.10

    def __post_init__(self):
        for name, in_range, words in (("mask_lo", 0 < self.mask_lo <= 1, "in (0, 1]"),
                                      ("mask_hi", 0 < self.mask_hi <= 1, "in (0, 1]"),
                                      ("p_drop", 0 <= self.p_drop < 1, "in [0, 1)")):
            if not in_range:
                raise ValueError(f"mar.{name} must be a number {words}, "
                                 f"got {getattr(self, name)!r}")
        if self.mask_lo > self.mask_hi:
            raise ValueError(f"mar.mask_lo must be <= mar.mask_hi, got {self.mask_lo!r} > "
                             f"{self.mask_hi!r}")
        # shortcut and mean-flow targets evaluate the head on numpy context
        # rows, which a MAR step has only inside its graph
        kinds = ("energy", "diffusion", "flow")
        if self.head_kind not in kinds:
            raise ValueError(f"mar.head_kind must be one of {kinds}, the head kinds "
                             f"MAR can train, got {self.head_kind!r}")
        self.head_config()   # the head's own rules

    def head_config(self) -> HeadConfig:
        return HeadConfig(kind=self.head_kind, width=self.head_width,
                          depth=self.head_depth, context_dim=self.hidden_dim,
                          wiring=self.wiring, m_samples=self.m_samples)


@dataclass(frozen=True)
class DecodeConfig:
    """One decode's settings; the field defaults are the ``decode`` config
    section's (``seed`` and ``head_steps`` are not in the config). The CFG
    scale picks a class decode's backbone passes: the null pass alone at 0,
    the conditional pass alone at 1, both combined at any other scale. A
    null-class decode runs the null pass alone at every scale."""
    iterations: int = 8
    cfg_scale: float = 4.0
    schedule: str = "cosine"   # cosine | uniform
    seed: int = 0
    head_steps: int = 1        # per-position sampling steps (non-energy heads)

    def __post_init__(self):
        if self.schedule not in ("cosine", "uniform"):
            raise ValueError(f"unknown unmask schedule {self.schedule!r}")


def cfg_combine(cond: np.ndarray, uncond: np.ndarray, scale: float) -> np.ndarray:
    """scale * h_cond + (1 - scale) * h_uncond, which may be non-finite."""
    if cond.shape != uncond.shape:
        raise ValueError(f"shape mismatch: {cond.shape} vs {uncond.shape}")
    with np.errstate(over="ignore", invalid="ignore"):   # the caller checks the result
        return scale * cond + (1.0 - scale) * uncond


class Backbone:
    """Bidirectional transformer over [class tokens | latent tokens]."""

    def __init__(self, cfg: MarConfig):
        self.cfg = cfg
        self.blocks = [nn.TransformerBlock(f"{BACKBONE_PREFIX}.block{k}", cfg.hidden_dim,
                                           cfg.n_heads) for k in range(cfg.n_blocks)]

    def register(self, params: nn.ParameterSet, seed: int) -> None:
        cfg, pre = self.cfg, BACKBONE_PREFIX
        nn.add_linear(params, seed, f"{pre}.latent_in", LATENT_DIM, cfg.hidden_dim)
        params.add(f"{pre}.mask_token",
                   nn.kaiming_uniform(seed, f"{pre}.mask_token", (cfg.hidden_dim,),
                                      cfg.hidden_dim))
        # one embedding row per class plus the trailing null row
        params.add(f"{pre}.class_embed",
                   nn.kaiming_uniform(seed, f"{pre}.class_embed",
                                      (N_CLASSES + 1, cfg.hidden_dim),
                                      cfg.hidden_dim))
        params.add(f"{pre}.pos_embed",
                   0.02 * Stream.from_seed(seed, f"init/{pre}.pos_embed").normal(
                       (cfg.seq_len + PREFIX_TOKENS, cfg.hidden_dim)))
        for block in self.blocks:
            block.register(params, seed)

    def build(self, leaves: dict[str, G.Node], latents: G.Node, mask: G.Node,
              onehot: G.Node) -> G.Node:
        """(B, L, d) latents + (B, L, 1) mask + (B, C+1) one-hot -> (B, L, D)."""
        x, mixed = self.attend(leaves, latents, mask, onehot)
        return G.narrow(self.blocks[-1].finish(leaves, x, mixed), 1, PREFIX_TOKENS,
                        self.cfg.seq_len)

    def attend(self, leaves: dict[str, G.Node], latents: G.Node, mask: G.Node,
               onehot: G.Node) -> tuple[G.Node, G.Node]:
        """Every token up to the last block's attention mix: the residual
        entering the last block and the mix, each (B, P + L, D)."""
        cfg, pre = self.cfg, BACKBONE_PREFIX
        bsz, seq_len, _ = latents.shape
        dim = cfg.hidden_dim
        tok = nn.build_linear(leaves, f"{pre}.latent_in", latents)
        mask_b = G.broadcast_to(mask, (bsz, seq_len, dim))
        keep = tok - tok * mask_b
        placed = G.broadcast_to(leaves[f"{pre}.mask_token"], (bsz, seq_len, dim)) * mask_b
        tok = keep + placed
        cls = G.matmul(onehot, leaves[f"{pre}.class_embed"])          # (B, D)
        prefix = G.broadcast_to(G.reshape(cls, (bsz, 1, dim)),
                                (bsz, PREFIX_TOKENS, dim))
        x = G.concat([prefix, tok], axis=1)
        x = x + G.broadcast_to(leaves[f"{pre}.pos_embed"],
                               (bsz, seq_len + PREFIX_TOKENS, dim))
        for block in self.blocks[:-1]:
            x = block.build(leaves, x)
        return x, self.blocks[-1].attend(leaves, x)


def one_hot_classes(ids: np.ndarray) -> np.ndarray:
    """Class ids (with NULL_CLASS mapped to the extra row) -> one-hot rows."""
    ids = np.asarray(ids)
    if np.any((ids < NULL_CLASS) | (ids >= N_CLASSES)):
        raise ValueError(f"class ids out of range: {ids}")
    out = np.zeros((len(ids), N_CLASSES + 1))
    out[np.arange(len(ids)), np.where(ids == NULL_CLASS, N_CLASSES, ids)] = 1.0
    return out


class MarModel:
    """Backbone + sampling head with masked training and parallel decoding."""

    def __init__(self, cfg: MarConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.params = nn.ParameterSet()
        self.backbone = Backbone(cfg)
        self.backbone.register(self.params, seed)
        self.head = Head(cfg.head_config(), seed, params=self.params)
        # backbone passes declare only the backbone's weights, and
        # the last block's output half only that block's
        self._backbone_params = self.params.subset(
            lambda name: name.startswith(BACKBONE_PREFIX + "."))
        last = self.backbone.blocks[-1].name + "."
        self._finish_params = self.params.subset(lambda name: name.startswith(last))
        self._front_graphs: dict[int, G.Graph] = {}
        self._finish_graphs: dict[int, G.Graph] = {}
        self._train_graphs: dict = {}
        self.backbone_forwards = 0

    # -- backbone evaluation (no grad) ---------------------------------------
    def _front_graph(self, bsz: int) -> G.Graph:
        """Latent tokens through the last block's attention: (B, L, 2D), the
        residual and the mix side by side."""
        g = self._front_graphs.get(bsz)
        if g is None:
            cfg = self.cfg
            g = G.Graph()
            leaves = G.declare(g, self._backbone_params)
            latents = g.leaf("latents", (bsz, cfg.seq_len, LATENT_DIM))
            mask = g.leaf("mask", (bsz, cfg.seq_len, 1))
            onehot = g.leaf("onehot", (bsz, N_CLASSES + 1))
            both = self.backbone.attend(leaves, latents, mask, onehot)
            g.set_output(G.concat([G.narrow(n, 1, PREFIX_TOKENS, cfg.seq_len) for n in both],
                                  axis=-1))
            self._front_graphs[bsz] = g
        return g

    def _finish_graph(self, rows: int) -> G.Graph:
        """The last block's output half on (rows, 2D) front rows -> (rows, D)."""
        g = self._finish_graphs.get(rows)
        if g is None:
            dim = self.cfg.hidden_dim
            g = G.Graph()
            leaves = G.declare(g, self._finish_params)
            front = g.leaf("front", (rows, 2 * dim))
            g.set_output(self.backbone.blocks[-1].finish(
                leaves, G.narrow(front, 1, 0, dim), G.narrow(front, 1, dim, dim)))
            self._finish_graphs[rows] = g
        return g

    def represent(self, latents: np.ndarray, masked: np.ndarray, class_ids: np.ndarray,
                  positions: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Run the backbone; latents at masked positions are ignored. Returns
        (B, L, D) at every position, or (R, D) at the R (sequence, position)
        pairs of the index arrays ``positions``: every token is a key and a
        value, so all run up to the last block's attention mix, and the output
        half runs on the returned rows only."""
        bsz = len(latents)
        mask = masked.astype(np.float64)[..., None]
        front = G.evaluate(self._front_graph(bsz), {
            "latents": latents * (1.0 - mask), "mask": mask,
            "onehot": one_hot_classes(class_ids)}).output
        rows = front.reshape(-1, front.shape[-1]) if positions is None else front[positions]
        n = len(rows)
        if n % 2:
            # see the module docstring: an odd count runs with a copy of its
            # last row, so that each row rounds as in a larger product
            rows = np.concatenate([rows, rows[-1:]])
        out = G.evaluate(self._finish_graph(len(rows)), {"front": rows}).output[:n]
        self.backbone_forwards += 1
        return out.reshape(bsz, self.cfg.seq_len, -1) if positions is None else out

    # -- masked training ------------------------------------------------------
    def _train_graph(self, bindings: dict[str, np.ndarray], lam: float,
                     frozen_backbone: bool) -> tuple[G.Graph, dict]:
        """The loss graph of a training step, declared from the first step's
        :meth:`step_bindings` and cached per batch size, teacher, lambda and
        freeze: the weights first, then the data in binding order."""
        bsz, with_teacher = len(bindings["latents"]), "h_teacher" in bindings
        key = (bsz, with_teacher, lam, frozen_backbone)
        cached = self._train_graphs.get(key)
        if cached is not None:
            return cached
        cfg = self.cfg
        rows = bsz * cfg.seq_len
        g = G.Graph()
        leaves = {**G.declare(g, self._backbone_params, grad=not frozen_backbone),
                  **G.declare(g, self.head._own_params, grad=True)}
        data = G.declare(g, bindings)
        h = self.backbone.build(leaves, data["latents"], data["mask"], data["onehot"])
        h_rows = G.reshape(h, (rows, cfg.hidden_dim))
        loss_rows = build_loss_rows(self.head.cfg, leaves, h_rows, data)
        energy_term = G.total(loss_rows * data["weight"]) * data["weight_inv"]
        nodes = {"energy": energy_term, "h": h}
        if with_teacher:
            diff = h - data["h_teacher"]
            ones = g.constant(np.ones((cfg.hidden_dim, 1)))
            sq = G.matmul(G.reshape(diff * diff, (rows, cfg.hidden_dim)), ones)
            distill = G.scale(G.total(sq), 1.0 / rows)
            nodes["distill"] = distill
            total = energy_term + G.scale(distill, lam)
        else:
            total = energy_term
        g.set_output(total)
        nodes["total"] = total
        self._train_graphs[key] = (g, nodes)
        return g, nodes

    def mask_batch(self, latents: np.ndarray, rng: Stream) -> np.ndarray:
        """Independent mask pattern per sequence, drawn from its ``seq/{j}``
        stream: (B, L) bools with ceil(rate * L) positions set, the rate
        drawn from its ``rate`` child ~ U[mask_lo, mask_hi)."""
        lo, hi = self.cfg.mask_lo, self.cfg.mask_hi
        length = latents.shape[1]
        seqs = rng.child([f"seq/{j}" for j in range(len(latents))])
        rate = np.full(seqs.key.shape, lo) if hi == lo \
            else lo + (hi - lo) * seqs.child("rate").uniform()
        count = np.minimum(length, np.ceil(rate * length))
        # the first `count` entries of a uniform permutation are the masked set
        order = seqs.child("positions").permutation(length)
        masked = np.empty(order.shape, dtype=bool)
        np.put_along_axis(masked, order, np.arange(length) < count[..., None], axis=-1)
        return masked

    def step_bindings(self, latents: np.ndarray, class_ids: np.ndarray, rng: Stream,
                      teacher: "MarModel | None" = None) -> dict[str, np.ndarray]:
        """Every data leaf value of one step's :meth:`_train_graph` (its weight
        leaves read the parameters): the masked batch with dropped-out class
        labels, the head's loss inputs and, given a teacher, its
        representation of the batch."""
        cfg = self.cfg
        bsz = len(latents)
        rows = bsz * cfg.seq_len
        masked = self.mask_batch(latents, rng.child("mask"))
        drop = rng.child("drop").uniform((bsz,)) < cfg.p_drop
        ids = np.where(drop, NULL_CLASS, class_ids)

        mask_f = masked.astype(np.float64)
        weight = mask_f.reshape(rows)
        bindings = {
            "latents": latents * (1.0 - mask_f[..., None]),
            "mask": mask_f[..., None],
            "onehot": one_hot_classes(ids),
            "weight": weight,
            "weight_inv": np.asarray(1.0 / weight.sum()),
        }
        y_rows = latents.reshape(rows, LATENT_DIM)
        bindings.update(self.head.loss_bindings(y_rows, rng.child("head")))
        if teacher is not None:
            bindings["h_teacher"] = teacher.represent(latents, masked, ids)
        return bindings

    def masked_training_step(self, latents: np.ndarray, class_ids: np.ndarray,
                             rng: Stream, *, lam: float, lr: float, weight_decay: float,
                             frozen_backbone: bool, teacher: "MarModel | None" = None,
                             step_index: int = 1) -> tuple[float, float]:
        """One optimization step over a batch of conditional sequences;
        returns its (energy, distill) loss terms, distill 0.0 without a teacher."""
        if teacher is None and lam != 0.0:
            raise ValueError("distillation weight requires a teacher")
        bindings = self.step_bindings(latents, class_ids, rng, teacher)
        g, nodes = self._train_graph(bindings, lam, frozen_backbone)
        run = nn.descend(g, bindings, self.head._own_params if frozen_backbone else self.params,
                         self.cfg.head_kind, lr=lr, weight_decay=weight_decay, t=step_index)
        # both terms are 0-d nodes, which a retained run keeps
        distill = float(run.value(nodes["distill"])) if teacher is not None else 0.0
        return float(run.value(nodes["energy"])), distill

    # -- iterative parallel decoding -------------------------------------------
    def check_decode(self, class_id: int | None, dcfg: DecodeConfig) -> None:
        """Rejects a class, iteration count or head step count this model
        cannot decode with, before any work is done."""
        cfg = self.cfg
        if class_id is not None and not 0 <= class_id < N_CLASSES:
            raise ValueError(f"class id must be in [0, {N_CLASSES}) or null, "
                             f"got {class_id}")
        if not 1 <= dcfg.iterations <= cfg.seq_len:
            raise ValueError(f"iterations must be in [1, {cfg.seq_len}], "
                             f"got {dcfg.iterations}")
        self.head.cfg.check_steps(dcfg.head_steps)

    def _unmask_counts(self, dcfg: DecodeConfig) -> list[int]:
        """Positions generated per iteration; covers all L exactly once."""
        length, iters = self.cfg.seq_len, dcfg.iterations
        remaining = [length]
        for k in range(1, iters + 1):
            if dcfg.schedule == "cosine":
                target = math.floor(length * math.cos(math.pi / 2 * k / iters))
            else:
                target = length - round(length * k / iters)
            target = min(target, remaining[-1] - 1)
            remaining.append(max(target, iters - k))
        remaining[-1] = 0
        return [remaining[k] - remaining[k + 1] for k in range(iters)]

    def decode(self, class_id: int | None, n_seq: int,
               dcfg: DecodeConfig) -> tuple[np.ndarray, dict]:
        """Generate sequences by iterative parallel decoding with CFG.

        At scale 1 each iteration runs the conditional backbone pass alone
        and at scale 0 the null pass alone; at any other scale it runs both
        and combines them with :func:`cfg_combine`, a non-finite result being
        a :class:`graph.NonFiniteError`. A null class (``class_id`` None)
        runs the null pass alone at every scale: both passes would be null.

        Sequence j draws from its own stream chain: ``seq/{j}`` ->
        ``iter/{k}/select`` picks its positions at iteration k, and
        ``seq/{j}`` -> ``pos/{i}/noise`` is the energy-head noise of its
        position i. Each is drawn for all sequences in one batched call.
        """
        cfg = self.cfg
        self.check_decode(class_id, dcfg)
        counts = self._unmask_counts(dcfg)
        energy = cfg.head_kind == "energy"
        root = Stream.from_seed(dcfg.seed, "decode")
        seqs = root.child([f"seq/{j}" for j in range(n_seq)])
        if energy:
            # each position is generated exactly once, so each draw is used once
            noise = Stream(seqs.key[:, None]).child(
                [f"pos/{i}/noise" for i in range(cfg.seq_len)]).normal((LATENT_DIM,))
        latents = np.zeros((n_seq, cfg.seq_len, LATENT_DIM))
        generated = np.zeros((n_seq, cfg.seq_len), dtype=bool)
        null = class_id is None or dcfg.cfg_scale == 0.0
        ids = np.full(n_seq, NULL_CLASS if null else class_id)
        two_passes = not null and dcfg.cfg_scale != 1.0
        backbone_before = self.backbone_forwards
        head_rows = 0
        times_generated = np.zeros((n_seq, cfg.seq_len), dtype=int)

        for k, n_k in enumerate(counts):
            # every sequence has the same number of open positions
            open_pos = np.nonzero(~generated)[1].reshape(n_seq, -1)
            pick = seqs.child(f"iter/{k}/select") \
                .sample_without_replacement(open_pos.shape[1], n_k)
            seq_idx = np.repeat(np.arange(n_seq), n_k)
            pos_idx = np.take_along_axis(open_pos, pick, axis=1).ravel()
            # every sequence starts all-masked with the same class, so the
            # first iteration runs the backbone on one sequence and shares it;
            # later ones finish the backbone at the picked positions only
            rows = 1 if k == 0 else n_seq
            at = None if k == 0 else (seq_idx, pos_idx)
            h = self.represent(latents[:rows], ~generated[:rows], ids[:rows], at)
            if two_passes:
                h_null = self.represent(latents[:rows], ~generated[:rows],
                                        np.full(rows, NULL_CLASS), at)
                h = cfg_combine(h, h_null, dcfg.cfg_scale)
                if not np.isfinite(h).all():
                    raise G.NonFiniteError(f"CFG scale {dcfg.cfg_scale!r} gives a non-finite "
                                           f"guided representation at iteration {k}")
            ctx = h[0, pos_idx] if k == 0 else h
            if energy:
                out = self.head.energy_sample(ctx, noise[seq_idx, pos_idx])
            else:
                out = self.head.sample(ctx, dcfg.head_steps,
                                       root.child(f"iter/{k}/head"))
            head_rows += len(out)
            latents[seq_idx, pos_idx] = out
            generated[seq_idx, pos_idx] = True
            np.add.at(times_generated, (seq_idx, pos_idx), 1)

        if not generated.all() or not np.all(times_generated == 1):
            raise RuntimeError("decode failed to cover every position exactly once")
        stats = {
            "backbone_forwards": self.backbone_forwards - backbone_before,
            "head_rows": head_rows,
            "per_iteration": counts,
        }
        return latents, stats

    # -- checkpointing ----------------------------------------------------------
    def save(self, path, *, config_digest: str = "", step: int = 0,
             extra: dict | None = None) -> None:
        info = {"model": "mar", "mar_config": asdict(self.cfg)}
        info.update(extra or {})
        nn.save_checkpoint(path, self.params, config_digest=config_digest,
                           seed=self.seed, step=step, extra=info)

    @classmethod
    def load(cls, path) -> "MarModel":
        return nn.load_model(cls, MarConfig, "mar_config", path)


def class_pools(cfg: MarConfig, seed: int, per_class: int, jitter: float,
                tag: str = "train") -> tuple[np.ndarray, np.ndarray]:
    """Stacked dataset of all classes: (n, L, d) latents + class ids, each
    class's ``per_class`` sequences in a row."""
    latents = np.empty((N_CLASSES * per_class, cfg.seq_len, LATENT_DIM))
    for c in range(N_CLASSES):
        sub_seed = int(Stream.from_seed(seed, f"pool/{tag}/class{c}").key % (1 << 62))
        latents[c * per_class:(c + 1) * per_class] = conditional_sequences(
            c, per_class, cfg.seq_len, seed=sub_seed, jitter=jitter)
    return latents, np.repeat(np.arange(N_CLASSES), per_class)


def train_mar(model: MarModel, *, steps: int, batch: int, lr: float, warmup: int,
              lam: float, per_class: int, weight_decay: float, frozen_backbone: bool,
              jitter: float, teacher: MarModel | None = None) -> list[dict]:
    """Training driver; returns one log record per step."""
    latents, ids = class_pools(model.cfg, model.seed, per_class, jitter)

    def step(idx, rng, cur_lr, t):
        energy, distill = model.masked_training_step(
            latents[idx], ids[idx], rng, lam=lam, teacher=teacher, lr=cur_lr, step_index=t,
            weight_decay=weight_decay, frozen_backbone=frozen_backbone)
        return {"step": t, "energy": energy, "distill": distill,
                "total": energy + lam * distill, "lambda": lam, "lr": cur_lr,
                "seed": model.seed}

    return nn.train_loop(model.seed, f"train_mar/{model.cfg.head_kind}", len(latents),
                         steps=steps, batch=batch, lr=lr, warmup=warmup, step=step)
