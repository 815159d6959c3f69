"""Reference reverse and forward mode for the graph engine, used by the tests.

This is the retain-everything loop the engine started from: ``evaluate``
keeps every node value and every kernel cache, ``backward`` keeps every
adjoint, and the rules read values (never shapes from the graph). The
engine's lean sweeps must produce the same gradients and tangents, bit for
bit.
"""
from __future__ import annotations

import numpy as np

from escore import graph as G


def _forward(kind, vals, attrs, aux):
    if kind == "silu":
        s = 0.5 * np.tanh(0.5 * vals[0]) + 0.5
        aux["sig"] = s
        return vals[0] * s
    if kind == "layer_norm":
        x = vals[0]
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + attrs["eps"])
        aux["xc"], aux["inv"] = xc, inv
        return xc * inv
    return G._RULES[kind].forward(vals, attrs, None)


def _backward(kind, g, vals, out, attrs, aux):
    if kind == "affine":
        return G._matmul_grads(g, vals[0], vals[1]) + [G._unbroadcast(g, vals[2].shape)]
    if kind == "matmul":
        return G._matmul_grads(g, vals[0], vals[1])
    if kind == "add":
        return [g, g]
    if kind == "sub":
        return [g, -g]
    if kind == "mul":
        return [g * vals[1], g * vals[0]]
    if kind == "scale":
        return [g * attrs["c"]]
    if kind == "silu":
        s = aux["sig"]
        return [g * (s + vals[0] * s * (1.0 - s))]
    if kind == "layer_norm":
        xhat = aux["xc"] * aux["inv"]
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return [(g - gm - xhat * gx) * aux["inv"]]
    if kind == "softmax":
        dot = (g * out).sum(axis=-1, keepdims=True)
        return [out * (g - dot)]
    if kind == "mean":
        return [np.full(vals[0].shape, float(g) / vals[0].size)]
    if kind == "sum":
        return [np.full(vals[0].shape, float(g))]
    if kind == "row_norm":
        return [(g / out)[..., None] * vals[0]]
    if kind == "concat":
        grads, start = [], 0
        for v in vals:
            sl = [slice(None)] * g.ndim
            sl[attrs["axis"]] = slice(start, start + v.shape[attrs["axis"]])
            grads.append(g[tuple(sl)])
            start += v.shape[attrs["axis"]]
        return grads
    if kind == "narrow":
        gin = np.zeros_like(vals[0])
        sl = [slice(None)] * gin.ndim
        sl[attrs["axis"]] = slice(attrs["start"], attrs["start"] + attrs["length"])
        gin[tuple(sl)] = g
        return [gin]
    if kind == "broadcast":
        return [G._unbroadcast(g, vals[0].shape)]
    if kind == "reshape":
        return [g.reshape(vals[0].shape)]
    if kind == "transpose":
        return [np.transpose(g, np.argsort(attrs["axes"]))]
    raise AssertionError(kind)


def _jvp_rule(kind, dv, vals, out, attrs, aux):
    if kind == "affine":
        t = dv[0] @ vals[1] + vals[0] @ dv[1]
        t += dv[2]
        return t
    if kind == "matmul":
        return dv[0] @ vals[1] + vals[0] @ dv[1]
    if kind == "add":
        return dv[0] + dv[1]
    if kind == "sub":
        return dv[0] - dv[1]
    if kind == "mul":
        return dv[0] * vals[1] + vals[0] * dv[1]
    if kind == "scale":
        return dv[0] * attrs["c"]
    if kind == "silu":
        s = aux["sig"]
        return dv[0] * (s + vals[0] * s * (1.0 - s))
    if kind == "layer_norm":
        xhat = aux["xc"] * aux["inv"]
        dm = dv[0].mean(axis=-1, keepdims=True)
        dx = (dv[0] * xhat).mean(axis=-1, keepdims=True)
        return (dv[0] - dm - xhat * dx) * aux["inv"]
    if kind == "softmax":
        dot = (dv[0] * out).sum(axis=-1, keepdims=True)
        return out * (dv[0] - dot)
    if kind == "mean":
        return np.asarray(dv[0].mean())
    if kind == "sum":
        return np.asarray(dv[0].sum())
    if kind == "row_norm":
        return (vals[0] * dv[0]).sum(axis=-1) / out
    if kind == "concat":
        return np.concatenate(dv, axis=attrs["axis"])
    if kind == "narrow":
        sl = [slice(None)] * dv[0].ndim
        sl[attrs["axis"]] = slice(attrs["start"], attrs["start"] + attrs["length"])
        return dv[0][tuple(sl)].copy()
    if kind == "broadcast":
        return np.broadcast_to(dv[0], attrs["shape"]).copy()
    if kind == "reshape":
        return dv[0].reshape(attrs["shape"])
    if kind == "transpose":
        return np.transpose(dv[0], attrs["axes"]).copy()
    raise AssertionError(kind)


def evaluate(graph, bindings):
    """(every node value, every kernel cache) up to the output."""
    values, aux = [None] * len(graph.nodes), [None] * len(graph.nodes)
    for node in graph.nodes[: graph.output.nid + 1]:
        if node.kind == "leaf":   # a weight leaf reads its parameter, as the engine does
            param = node.attrs["param"]
            values[node.nid] = np.asarray(bindings[node.attrs["name"]], dtype=np.float64) \
                if param is None else param().value
        elif node.kind == "const":
            values[node.nid] = node.attrs["value"]
        else:
            aux[node.nid] = {}
            values[node.nid] = _forward(node.kind, [values[i] for i in node.inputs],
                                        node.attrs, aux[node.nid])
    return values, aux


def backward(graph, values, aux):
    out = graph.output
    adj = [None] * len(graph.nodes)
    adj[out.nid] = np.ones(out.shape)
    for node in reversed(graph.nodes[: out.nid + 1]):
        g = adj[node.nid]
        if g is None or not node.inputs:
            continue
        grads = _backward(node.kind, g, [values[i] for i in node.inputs],
                          values[node.nid], node.attrs, aux[node.nid])
        for nid, gin in zip(node.inputs, grads):
            if not graph.nodes[nid].needs_grad:
                continue
            adj[nid] = gin if adj[nid] is None else adj[nid] + gin
    return {name: np.zeros(leaf.shape) if adj[leaf.nid] is None else adj[leaf.nid]
            for name, leaf in graph.leaves.items() if leaf.needs_grad}


def jvp(graph, values, aux, tangents):
    tans = [None] * len(graph.nodes)
    for node in graph.nodes[: graph.output.nid + 1]:
        if node.kind == "leaf":
            name = node.attrs["name"]
            tans[node.nid] = (np.asarray(tangents[name], dtype=np.float64)
                              if name in tangents else np.zeros(node.shape))
        elif node.kind == "const":
            tans[node.nid] = np.zeros(node.shape)
        else:
            tans[node.nid] = _jvp_rule(node.kind, [tans[i] for i in node.inputs],
                                       [values[i] for i in node.inputs],
                                       values[node.nid], node.attrs, aux[node.nid])
    return tans[graph.output.nid]
