"""Straight-line numpy reimplementations used to cross-check the library.

Everything here is written directly from the update rules, one loop at a
time, with no batching tricks and no imports from the package (beyond the
shared parameter-dict layout).  Row-vector convention throughout: an affine
map is x @ W + b.
"""

import numpy as np

from hvsarn.tensor import Tensor


def as_np(tree):
    """Recursively strip Tensors out of a parameter tree."""
    if isinstance(tree, Tensor):
        return np.asarray(tree.data, dtype=np.float64)
    if isinstance(tree, dict):
        return {k: as_np(v) for k, v in tree.items()}
    raise TypeError(f"unexpected node {type(tree)!r}")


def per_gate(p):
    """Per-gate views of one fused layer's numpy parameters, for the formulas below.

    A GRU direction (w [In, 3H], b [3H], u_zr [H, 2H], u_g [H, H]) becomes
    {"update" | "reset" | "cand": {"w", "u", "b"}}.  A gated graph-memory layer
    stores each input's weight as [candidate | gate] [D, 2D] and its bias as
    [2D]; every such `name` becomes `cand_name` and `gate_name`.  A write
    layer stores its neighbour MLP's first layer as the blocks that multiply
    the target and the source node; they become the one [2D, D] `mlp_w1`
    that multiplies the concatenated pair.  Other entries pass through.
    """
    if "u_zr" in p:
        H = p["u_g"].shape[0]
        us = (p["u_zr"][:, :H], p["u_zr"][:, H:], p["u_g"])
        return {
            gate: {"w": p["w"][:, i * H : (i + 1) * H], "u": u, "b": p["b"][i * H : (i + 1) * H]}
            for i, (gate, u) in enumerate(zip(("update", "reset", "cand"), us))
        }
    D = p["b"].shape[0] // 2
    views = {}
    for name, arr in p.items():
        if name in ("b", "wq", "wr", "wv", "wc"):
            views[f"cand_{name}"], views[f"gate_{name}"] = arr[..., :D], arr[..., D:]
        elif name in ("mlp_w1_target", "mlp_w1_source"):
            views["mlp_w1"] = np.concatenate([p["mlp_w1_target"], p["mlp_w1_source"]])
        else:
            views[name] = arr
    return views


def softmax_1d(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max())
    return e / e.sum()


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


# -- graph memory ------------------------------------------------------------


def read_oracle(q, nodes, read_params):
    """One read step on a single graph; returns (content, new_controller, attn)."""
    p = per_gate(read_params)
    K = nodes.shape[0]
    scores = np.zeros(K)
    for k in range(K):
        h = np.tanh(q @ p["attn_w1"] + nodes[k] @ p["attn_w2"] + p["attn_b"])
        scores[k] = (h @ p["attn_v"]).item()
    attn = softmax_1d(scores)
    r = np.zeros_like(q)
    for k in range(K):
        r = r + attn[k] * nodes[k]
    candidate = np.tanh(q @ p["cand_wq"] + r @ p["cand_wr"] + p["cand_b"])
    gate = sigmoid(q @ p["gate_wq"] + r @ p["gate_wr"] + p["gate_b"])
    q_new = gate * q + (1.0 - gate) * candidate
    return r, q_new, attn


def write_oracle(q_new, nodes, write_params):
    """One synchronous write step; returns updated nodes [K, D]."""
    p = per_gate(write_params)
    K, D = nodes.shape
    out = np.zeros_like(nodes)
    for k in range(K):
        if K == 1:
            context = np.zeros(D)
        else:
            others = [i for i in range(K) if i != k]
            logits = []
            for i in others:
                h = np.tanh(np.concatenate([nodes[k], nodes[i]]) @ p["mlp_w1"] + p["mlp_b1"])
                logits.append((h @ p["mlp_w2"]).item())
            w = softmax_1d(logits)
            context = np.zeros(D)
            for wi, i in zip(w, others):
                context = context + wi * nodes[i]
        candidate = np.tanh(
            nodes[k] @ p["cand_wv"] + q_new @ p["cand_wq"] + context @ p["cand_wc"] + p["cand_b"]
        )
        gate = sigmoid(
            nodes[k] @ p["gate_wv"] + q_new @ p["gate_wq"] + context @ p["gate_wc"] + p["gate_b"]
        )
        out[k] = gate * nodes[k] + (1.0 - gate) * candidate
    return out


def reason_oracle(q, nodes, params, num_steps):
    for _ in range(num_steps):
        _, q, _ = read_oracle(q, nodes, params["read"])
        nodes = write_oracle(q, nodes, params["write"])
    return q, nodes


def cross_space_oracle(source, target, direction_params):
    """One enhancement direction on a single graph; returns enhanced targets."""
    p = direction_params
    K, D = source.shape
    out = np.zeros_like(target)
    for k in range(K):
        logits = np.zeros(K)
        for i in range(K):
            # The pair score's target term is the same for every i and
            # cancels in the softmax, so only the source half is stored.
            logits[i] = (source[i] @ p["attn_w"]).item()
        w = softmax_1d(logits)
        pooled = np.zeros(D)
        for i in range(K):
            pooled = pooled + w[i] * (source[i] @ p["value_w"])
        out[k] = np.concatenate([target[k], pooled]) @ p["proj_w"] + p["proj_b"]
    return out


# -- sequence / attention ------------------------------------------------------


def gru_step_oracle(x_t, h_prev, gate_params):
    p = gate_params
    z = sigmoid(x_t @ p["update"]["w"] + h_prev @ p["update"]["u"] + p["update"]["b"])
    r = sigmoid(x_t @ p["reset"]["w"] + h_prev @ p["reset"]["u"] + p["reset"]["b"])
    g = np.tanh(x_t @ p["cand"]["w"] + (r * h_prev) @ p["cand"]["u"] + p["cand"]["b"])
    return (1.0 - z) * h_prev + z * g


def gru_sequence_oracle(x, direction_params, reverse=False):
    gate_params = per_gate(direction_params)
    n = x.shape[0]
    hidden = gate_params["update"]["u"].shape[0]
    h = np.zeros(hidden)
    states = np.zeros((n, hidden))
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        h = gru_step_oracle(x[t], h, gate_params)
        states[t] = h
    return states, h


def bigru_oracle(x, params):
    states_f, last_f = gru_sequence_oracle(x, params["fwd"], reverse=False)
    states_b, last_b = gru_sequence_oracle(x, params["bwd"], reverse=True)
    return np.concatenate([states_f, states_b], axis=1), np.concatenate([last_f, last_b])


def multi_head_attention_oracle(x, p, heads):
    """Residual multi-head self-attention on [N, Dw]."""
    n, dw = x.shape
    dh = dw // heads
    q = x @ p["wq"] + p["bq"]
    k = x @ p["wk"]
    v = x @ p["wv"] + p["bv"]
    pooled = np.zeros((n, dw))
    for head in range(heads):
        sl = slice(head * dh, (head + 1) * dh)
        scores = (q[:, sl] @ k[:, sl].T) / np.sqrt(dh)
        for i in range(n):
            pooled[i, sl] = softmax_1d(scores[i]) @ v[:, sl]
    return x + (pooled @ p["wo"] + p["bo"])


def fusion_oracle(visual, sentence, p):
    """Query-guided pooling of objects per frame; returns ([T, D], attn [T, K])."""
    T, K, D = visual.shape
    pooled = np.zeros((T, D))
    attn = np.zeros((T, K))
    for t in range(T):
        scores = np.zeros(K)
        for k in range(K):
            h = np.tanh(visual[t, k] @ p["attn_w"] + sentence @ p["attn_u"] + p["attn_b"])
            scores[k] = (h @ p["attn_v"]).item()
        attn[t] = softmax_1d(scores)
        for k in range(K):
            pooled[t] += attn[t, k] * visual[t, k]
    return pooled, attn


# -- metrics -------------------------------------------------------------------


def iou_oracle(a, b):
    (a0, a1), (b0, b1) = a, b
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    if inter == 0.0:
        return 0.0
    return inter / ((a1 - a0) + (b1 - b0) - inter)


def recall_oracle(prediction_lists, truths, n, m):
    hits = 0
    for segments, truth in zip(prediction_lists, truths):
        hit = False
        for seg in segments[:n]:
            if iou_oracle((seg[0], seg[1]), (truth[0], truth[1])) >= m:
                hit = True
        hits += int(hit)
    return hits / len(truths)


def span_enumeration_oracle(start_logits, end_logits):
    """All (i, j) i<j candidates sorted by score desc, ties by (i, j)."""
    T = len(start_logits)
    s = softmax_1d(start_logits)
    e = softmax_1d(end_logits)
    items = []
    for i in range(T):
        for j in range(i + 1, T):
            items.append((i / T, (j + 1) / T, float(s[i] * e[j]), i, j))
    items.sort(key=lambda it: (-it[2], it[3], it[4]))
    return [(lo, hi, sc) for lo, hi, sc, _, _ in items]


def adam_oracle(grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, x0=None):
    """Run Adam over a list of gradient arrays for one parameter; returns x."""
    x = np.zeros_like(grads[0]) if x0 is None else np.array(x0, dtype=np.float64)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x
